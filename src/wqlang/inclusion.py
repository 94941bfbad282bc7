"""Quasiorder-parameterized inclusion decision procedures.

Two cores do all the word-based work: ``word_fixpoint`` for automata and
``cfg_word_fixpoint`` for CNF grammars, each the least fixpoint of the
antichain equations under a quasiorder handle. Every check instantiates
one of them:

- ``fa_inc_word`` runs ``word_fixpoint`` under any directed handle
  (Nerode, state-set, simulation) and tests representative words;
- ``fa_inc_antichain`` runs ``word_fixpoint`` under the left state-set
  order (forward) or its complemented dual (backward) and tests keys;
- ``cfg_inc_word`` runs ``cfg_word_fixpoint`` under any two-sided handle
  (Myhill, state-pair) and tests representative words;
- ``cfg_inc_antichain`` runs ``cfg_word_fixpoint`` under the state-pair
  order and tests keys;
- ``nfa_in_ocn`` is ``fa_inc_word`` under the one-counter macro order.

``fa_inc_gfp`` is the odd one out: a greatest fixpoint over regular
iterates, purely boolean.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable

from .automata import CnfGrammar, Dfa, Nfa, Ocn, Verdict, bits
from .fixpoint import Antichain, ac_below, kleene
from . import quasiorder as qo

__all__ = [
    "QuasiorderHandle",
    "nerode_handle",
    "state_handle",
    "sim_handle",
    "myhill_handle",
    "ctx_handle",
    "ocn_handle",
    "word_fixpoint",
    "fa_inc_word",
    "fa_inc_antichain",
    "fa_inc_gfp",
    "cfg_word_fixpoint",
    "cfg_inc_word",
    "cfg_inc_antichain",
    "nfa_in_ocn",
]

DEFAULT_ITER_CAP = 1 << 20


@dataclass(frozen=True)
class QuasiorderHandle:
    """A decidable quasiorder on words packaged for the fixpoint engines.

    ``key_of`` maps a word to its finite key and ``leq`` compares keys.
    Directed handles supply ``extend``, the key of the one-symbol extension
    on the working side: prepended for left handles, appended for right
    ones. Two-sided handles supply ``compose``, the key of a concatenation.
    """

    direction: str  # 'left' | 'right' | 'two-sided'
    key_of: Callable[[bytes], Any]
    leq: Callable[[Any, Any], bool]
    extend: Callable[[Any, int], Any] | None = None
    compose: Callable[[Any, Any], Any] | None = None


# -- handle factories -------------------------------------------------------


def nerode_handle(n2: Nfa, direction: str = "left") -> QuasiorderHandle:
    """Residual-inclusion quasiorder of L(n2), decided through the minimal
    DFA of the language (left side works on the reversed language)."""
    if direction == "left":
        m = n2.reverse().determinize().minimize()
    elif direction == "right":
        m = n2.determinize().minimize()
    else:
        raise ValueError(f"bad direction {direction!r}")
    return QuasiorderHandle(
        direction=direction,
        key_of=lambda w: qo.residual_state(m, w[::-1] if direction == "left" else w),
        leq=qo.residual_order(m),
        extend=lambda key, sym: qo.residual_next(m, key, sym),
    )


def state_handle(n2: Nfa, direction: str = "left") -> QuasiorderHandle:
    """State-set quasiorder: pre-sets of the finals (left) or post-sets of
    the initials (right), compared by inclusion."""
    if direction == "left":
        return QuasiorderHandle(
            direction="left",
            key_of=lambda w: n2.run(w, False),
            leq=lambda a, b: a & b == a,
            extend=lambda key, sym: n2.step(key, sym, False),
        )
    if direction == "right":
        return QuasiorderHandle(
            direction="right",
            key_of=lambda w: n2.run(w, True),
            leq=lambda a, b: a & b == a,
            extend=lambda key, sym: n2.step(key, sym, True),
        )
    raise ValueError(f"bad direction {direction!r}")


def sim_handle(n2: Nfa, direction: str = "left") -> QuasiorderHandle:
    """Simulation-lifted state-set quasiorder; coarser than plain inclusion
    but still consistent with L(n2)."""
    sim = qo.max_simulation(n2, direction)
    base = state_handle(n2, direction)
    return QuasiorderHandle(
        direction=direction,
        key_of=base.key_of,
        leq=lambda a, b: qo.sim_leq(a, b, sim),
        extend=base.extend,
    )


def myhill_handle(n: Nfa) -> QuasiorderHandle:
    """Two-sided context quasiorder of L(n), realized as the word's action
    on the minimal DFA with pointwise residual inclusion."""
    m = n.determinize().minimize()
    return QuasiorderHandle(
        direction="two-sided",
        key_of=lambda w: qo.myhill_key(m, w),
        leq=qo.myhill_order(m),
        compose=qo.myhill_compose,
    )


def ctx_handle(n: Nfa) -> QuasiorderHandle:
    """Two-sided state-pair quasiorder: the relation a word induces between
    states of n, compared by inclusion."""
    return QuasiorderHandle(
        direction="two-sided",
        key_of=lambda w: qo.ctx_key(n, w),
        leq=qo.ctx_leq,
        compose=qo.ctx_compose,
    )


def ocn_handle(o: Ocn, start: tuple[int, int]) -> QuasiorderHandle:
    """Right quasiorder on macro states of a one-counter net."""
    return QuasiorderHandle(
        direction="right",
        key_of=lambda w: qo.ocn_macro(o, start, w),
        leq=qo.macro_leq,
        extend=lambda key, sym: qo.macro_step(o, key, sym),
    )


# -- word-based algorithm ----------------------------------------------------


def _vec_abs_eq(va: list[Antichain], vb: list[Antichain]) -> bool:
    return all(
        ac_below(a, b) and ac_below(b, a) for a, b in zip(va, vb)
    )


def word_fixpoint(
    n1: Nfa, handle: QuasiorderHandle, max_iter: int = DEFAULT_ITER_CAP
):
    """Least fixpoint of the word-antichain equations of ``n1`` under the
    given quasiorder; one antichain of (key, word) entries per state.

    Left handles iterate the prepend form starting from the final states;
    right handles iterate the append form starting from the initials.
    Returns the final vector and the iteration count.
    """
    left = handle.direction == "left"
    if not left and handle.direction != "right":
        raise ValueError("word_fixpoint needs a directed quasiorder handle")
    key_eps = handle.key_of(b"")
    syms = sorted(n1.alphabet)
    base_mask = n1.final_mask if left else n1.initial_mask
    moves: list[list[tuple[int, int]]] = [[] for _ in range(n1.state_count)]
    for q in range(n1.state_count):
        for sym in syms:
            one = 1 << q
            targets = n1.step(one, sym, True) if left else n1.step(one, sym, False)
            for q2 in bits(targets):
                moves[q].append((sym, q2))

    extend = handle.extend

    def step(vec: list[Antichain]) -> list[Antichain]:
        out = []
        for q in range(n1.state_count):
            ac = Antichain(handle.leq)
            if base_mask >> q & 1:
                ac.insert(key_eps, b"")
            for sym, q2 in moves[q]:
                s = bytes([sym])
                for key, word in vec[q2]:
                    word2 = s + word if left else word + s
                    ac.insert(extend(key, sym), word2)
            out.append(ac)
        return out

    bottom = [Antichain(handle.leq) for _ in range(n1.state_count)]
    result = kleene(step, bottom, _vec_abs_eq, max_iter)
    return result.value, result.iterations


def fa_inc_word(
    n1: Nfa,
    handle: QuasiorderHandle,
    membership: Callable[[bytes], bool],
    max_iter: int = DEFAULT_ITER_CAP,
) -> Verdict:
    """Word-based inclusion check: L(n1) <= L2, where ``membership`` decides
    L2 and ``handle`` is an L2-consistent well-quasiorder matching its
    direction. ``word_fixpoint`` under that handle; the first surviving word
    that fails membership is the witness."""
    vec, _ = word_fixpoint(n1, handle, max_iter)
    check_mask = n1.initial_mask if handle.direction == "left" else n1.final_mask
    for q in range(n1.state_count):
        if not (check_mask >> q & 1):
            continue
        for _, word in vec[q]:
            if not membership(word):
                return Verdict(False, word)
    return Verdict(True)


# -- state-based antichain algorithm ----------------------------------------


def fa_inc_antichain(
    n1: Nfa, n2: Nfa, variant: str = "forward", max_iter: int = DEFAULT_ITER_CAP
) -> Verdict:
    """Antichain inclusion check of L(n1) in L(n2): ``word_fixpoint`` under
    a state-set order of n2, with a key-level acceptance test.

    forward: pre-sets of n2's finals under inclusion (``state_handle``);
    accepted iff every surviving set meets n2's initials.
    backward: complemented pre-sets under the dual (superset) order;
    accepted iff no surviving set contains all of n2's initials.
    The witness is the shortest, then lexicographically least, failing word.
    """
    i2 = n2.initial_mask
    if variant == "forward":
        handle = state_handle(n2, "left")
        fails = lambda key: not (key & i2)
    elif variant == "backward":
        full2 = (1 << n2.state_count) - 1
        handle = QuasiorderHandle(
            direction="left",
            key_of=lambda w: full2 & ~n2.run(w, False),
            leq=lambda a, b: a | b == a,
            extend=lambda key, sym: full2 & ~n2.step(full2 & ~key, sym, False),
        )
        fails = lambda key: key & i2 == i2
    else:
        raise ValueError(f"bad variant {variant!r}")
    vec, _ = word_fixpoint(n1, handle, max_iter)
    return _key_verdict((e for q in bits(n1.initial_mask) for e in vec[q]), fails)


def _key_verdict(entries, fails: Callable[[Any], bool]) -> Verdict:
    """Included iff no (key, word) entry fails; otherwise the shortest, then
    lexicographically least, failing word is the witness."""
    failing = [word for key, word in entries if fails(key)]
    if not failing:
        return Verdict(True)
    return Verdict(False, min(failing, key=lambda w: (len(w), w)))


# -- greatest fixpoint algorithm ---------------------------------------------


def _universal_dfa(syms: list[int]) -> Dfa:
    return Dfa(1, [(0, sym, 0) for sym in syms], [0], [0])


def _dfa_intersect(d1: Dfa, d2: Dfa, syms: list[int]) -> Dfa:
    start = (d1.initial_state, d2.initial_state)
    index = {start: 0}
    order = [start]
    triples = []
    i = 0
    while i < len(order):
        p1, p2 = order[i]
        for sym in syms:
            nxt = (d1.dnext(p1, sym), d2.dnext(p2, sym))
            j = index.get(nxt)
            if j is None:
                j = len(order)
                index[nxt] = j
                order.append(nxt)
            triples.append((i, sym, j))
        i += 1
    final = [
        i for i, (p1, p2) in enumerate(order) if p1 in d1.final and p2 in d2.final
    ]
    return Dfa(len(order), triples, [0], final)


def fa_inc_gfp(n1: Nfa, l2: Dfa, max_iter: int | None = None) -> Verdict:
    """Greatest-fixpoint inclusion check of L(n1) in L(l2).

    Iterates downward from the everything-language: each component holds a
    regular language (a canonical minimal DFA) and one step intersects the
    component constraint with symbol-quotients of the successors. Accepts
    iff every final component of n1 still contains the empty word. Purely
    boolean: no witness is materialized.
    """
    syms = sorted(n1.alphabet | l2.alphabet)
    l2c = l2.complete(syms).minimize()
    top = _universal_dfa(syms).minimize()
    # the adjoint of the prepend step constrains each state through its
    # incoming transitions: a state reached by p -a-> q demands a^{-1}X_p
    pred: list[list[tuple[int, int]]] = [[] for _ in range(n1.state_count)]
    for p in range(n1.state_count):
        for sym in syms:
            for q in bits(n1.step(1 << p, sym, True)):
                pred[q].append((sym, p))
    base = [l2c if n1.initial_mask >> q & 1 else top for q in range(n1.state_count)]

    def quotient(d: Dfa, sym: int) -> Dfa:
        return Dfa(d.state_count, d._triples, [d.dnext(d.initial_state, sym)], d.final)

    def step(vec: list[Dfa]) -> list[Dfa]:
        out = []
        for q in range(n1.state_count):
            d = base[q]
            for sym, p in pred[q]:
                d = _dfa_intersect(d, quotient(vec[p], sym), syms)
            out.append(d.minimize())
        return out

    if max_iter is None:
        # chains of upward-closed iterates have length at most 2^|Q2|
        max_iter = min(1 << min(l2.state_count, 24), DEFAULT_ITER_CAP) + 4
    vec = kleene(step, [top] * n1.state_count, lambda a, b: a == b, max_iter).value
    for q in bits(n1.final_mask):
        d = vec[q]
        if d.initial_state not in d.final:
            return Verdict(False)
    return Verdict(True)


# -- grammar algorithms -------------------------------------------------------


def _grammar_parts(g: CnfGrammar):
    base: list[list[bytes]] = []
    for v in range(g.variable_count):
        words = [bytes([t]) for t in sorted(g.terminal_rules.get(v, ()))]
        if v == 0 and g.axiom_nullable:
            words.insert(0, b"")
        base.append(words)
    rules = [sorted(g.binary_rules.get(v, ())) for v in range(g.variable_count)]
    return base, rules


def cfg_word_fixpoint(
    g: CnfGrammar, handle: QuasiorderHandle, max_iter: int = DEFAULT_ITER_CAP
):
    """Least fixpoint of the word-antichain equations of a CNF grammar under
    a two-sided quasiorder; one antichain per variable. Keys of
    concatenations come from the handle's ``compose``."""
    if handle.direction != "two-sided":
        raise ValueError("grammar fixpoints need a two-sided quasiorder")
    base, rules = _grammar_parts(g)
    base_keyed = [[(handle.key_of(w), w) for w in words] for words in base]

    def step(vec: list[Antichain]) -> list[Antichain]:
        out = []
        for v in range(g.variable_count):
            ac = Antichain(handle.leq)
            for key, word in base_keyed[v]:
                ac.insert(key, word)
            for y, z in rules[v]:
                for k1, w1 in vec[y]:
                    for k2, w2 in vec[z]:
                        ac.insert(handle.compose(k1, k2), w1 + w2)
            out.append(ac)
        return out

    bottom = [Antichain(handle.leq) for _ in range(g.variable_count)]
    result = kleene(step, bottom, _vec_abs_eq, max_iter)
    return result.value, result.iterations


def cfg_inc_word(
    g: CnfGrammar,
    handle: QuasiorderHandle,
    membership: Callable[[bytes], bool],
    max_iter: int = DEFAULT_ITER_CAP,
) -> Verdict:
    """Word-based inclusion check L(g) <= L2 for a CNF grammar and a
    two-sided L2-consistent well-quasiorder: ``cfg_word_fixpoint`` under
    that handle, then membership of the axiom's surviving words."""
    vec, _ = cfg_word_fixpoint(g, handle, max_iter)
    for _, word in vec[0]:
        if not membership(word):
            return Verdict(False, word)
    return Verdict(True)


def cfg_inc_antichain(
    g: CnfGrammar, n: Nfa, max_iter: int = DEFAULT_ITER_CAP
) -> Verdict:
    """State-based antichain inclusion check of L(g) in L(n):
    ``cfg_word_fixpoint`` under the state-pair order (``ctx_handle``).
    Accepts iff every surviving relation of the axiom connects an initial to
    a final state; the witness is the shortest, then least, failing word."""

    def fails(rel: tuple[int, ...]) -> bool:
        return not any(rel[p] & n.final_mask for p in bits(n.initial_mask))

    vec, _ = cfg_word_fixpoint(g, ctx_handle(n), max_iter)
    return _key_verdict(vec[0], fails)


# -- one-counter nets ---------------------------------------------------------


def nfa_in_ocn(n: Nfa, o: Ocn, start: tuple[int, int]) -> Verdict:
    """Inclusion of L(n) in the trace set of the one-counter net from the
    given start configuration: ``fa_inc_word`` under the macro-state
    quasiorder (``ocn_handle``)."""
    handle = ocn_handle(o, start)

    def membership(word: bytes) -> bool:
        return any(e is not None for e in qo.ocn_macro(o, start, word))

    return fa_inc_word(n, handle, membership)
