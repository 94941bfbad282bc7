"""Quasiorder-parameterized inclusion decision procedures.

Two cores do all the word-based work: ``word_fixpoint`` for automata and
``cfg_word_fixpoint`` for CNF grammars, each the least fixpoint of the
antichain equations under a quasiorder handle. Every check instantiates
one of them:

- ``fa_inc_word`` runs ``word_fixpoint`` under any directed handle
  (Nerode, state-set, simulation) and tests representative words;
- ``fa_inc_antichain`` runs ``word_fixpoint`` under the left state-set
  order and tests keys (one variant, the forward antichain algorithm);
- ``cfg_inc_word`` runs ``cfg_word_fixpoint`` under any two-sided handle
  (Myhill, state-pair) and tests representative words;
- ``cfg_inc_antichain`` runs ``cfg_word_fixpoint`` under the state-pair
  order and tests keys;
- ``fa_inc_gfp`` runs ``word_fixpoint`` under the right state-set order
  and tests keys at the final states, reporting the verdict only;
- ``nfa_in_ocn`` is ``fa_inc_word`` under the one-counter macro order.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Any, Callable

from .automata import CnfGrammar, Nfa, Ocn, Verdict, bits
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
    Keys must be hashable: the fixpoints memoize ``extend`` and ``compose``
    on them and skip a key already offered to the same antichain.
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
    if direction not in ("left", "right"):
        raise ValueError(f"bad direction {direction!r}")
    forward = direction == "right"
    return QuasiorderHandle(
        direction=direction,
        key_of=lambda w: n2.run(w, forward),
        leq=lambda a, b: a & b == a,
        extend=lambda key, sym: n2.step(key, sym, forward),
    )


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


def _kleene_rounds(
    count: int,
    leq: Callable[[Any, Any], bool],
    reads: list[set[int]],
    offers: Callable[[int, list[Antichain]], Any],
    max_iter: int,
):
    """Least fixpoint of a system of antichain equations, one component per
    equation, by Kleene iteration from the empty antichains.

    ``offers(v, vec)`` yields the (key, word) entries that component ``v``
    inserts, in order, given the previous iterate; it may look only at the
    components in ``reads[v]``. Each round rebuilds just the components
    that read a component changed by the previous round (all of them in
    the first round); every other component keeps its antichain object,
    since rebuilding it from the same inputs gives the same entries. An
    offered key equal to one already offered in the same rebuild is
    skipped: by transitivity the antichain already holds a key below it.
    The iteration stops when every changed component is equivalent to its
    previous value both ways, so rounds and iterates are those of the
    from-scratch iteration. Returns the final vector and the round count.
    """
    readers: list[list[int]] = [[] for _ in range(count)]
    for v in range(count):
        for d in reads[v]:
            readers[d].append(v)
    changed: list[int] | None = None

    def step(vec: list[Antichain]) -> list[Antichain]:
        nonlocal changed
        if changed is None:
            dirty = range(count)
        else:
            dirty = {r for d in changed for r in readers[d]}
        out = list(vec)
        changed = []
        for v in dirty:
            ac = Antichain(leq)
            seen = set()
            for key, word in offers(v, vec):
                if key not in seen:
                    seen.add(key)
                    ac.insert(key, word)
            if ac._entries != vec[v]._entries:
                out[v] = ac
                changed.append(v)
        return out

    def same(new: list[Antichain], old: list[Antichain]) -> bool:
        return all(
            a is b or (ac_below(a, b) and ac_below(b, a)) for a, b in zip(new, old)
        )

    bottom = [Antichain(leq) for _ in range(count)]
    result = kleene(step, bottom, same, max_iter)
    return result.value, result.iterations


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
    moves: list[list[tuple[int, bytes, int]]] = [[] for _ in range(n1.state_count)]
    for q in range(n1.state_count):
        for sym in syms:
            targets = n1.step(1 << q, sym, left)
            for q2 in bits(targets):
                moves[q].append((sym, bytes([sym]), q2))
    extend = functools.cache(handle.extend)

    def offers(q: int, vec: list[Antichain]):
        if base_mask >> q & 1:
            yield key_eps, b""
        for sym, s, q2 in moves[q]:
            for key, word in vec[q2]:
                yield extend(key, sym), s + word if left else word + s

    reads = [{q2 for _, _, q2 in m} for m in moves]
    return _kleene_rounds(n1.state_count, handle.leq, reads, offers, max_iter)


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


# -- state-set key algorithms: antichain and greatest fixpoint ---------------


def fa_inc_antichain(
    n1: Nfa, n2: Nfa, variant: str = "forward", max_iter: int = DEFAULT_ITER_CAP
) -> Verdict:
    """Antichain inclusion check of L(n1) in L(n2): ``word_fixpoint`` under
    the pre-sets of n2's finals ordered by inclusion (``state_handle``);
    accepted iff every surviving set meets n2's initials. ``variant`` names
    the algorithm and must be "forward", the only one.
    The witness is the shortest, then lexicographically least, failing word
    among the entries that survive in the fixpoint at n1's initial states;
    it need not be a shortest word of L(n1) - L(n2).
    """
    if variant != "forward":
        raise ValueError(f"bad variant {variant!r}")
    i2 = n2.initial_mask
    vec, _ = word_fixpoint(n1, state_handle(n2, "left"), max_iter)
    return _key_verdict(
        (e for q in bits(n1.initial_mask) for e in vec[q]), lambda key: not (key & i2)
    )


def _key_verdict(entries, fails: Callable[[Any], bool]) -> Verdict:
    """Included iff no (key, word) entry fails; otherwise the witness is the
    shortest, then lexicographically least, word of a failing entry. Only
    the given entries are searched, so a shorter counterexample that the
    fixpoint subsumed under another key is not found."""
    failing = [word for key, word in entries if fails(key)]
    if not failing:
        return Verdict(True)
    return Verdict(False, min(failing, key=lambda w: (len(w), w)))


def fa_inc_gfp(n1: Nfa, l2: Nfa, max_iter: int = DEFAULT_ITER_CAP) -> Verdict:
    """Greatest-fixpoint inclusion check of L(n1) in L(l2), purely boolean.

    The greatest solution of the inclusion equations holds at each state q
    of n1 the intersection of the residuals u^-1 L(l2) over the words u
    that reach q. That residual is the language of the state set u reaches
    in l2, and a smaller set has a smaller language, so the intersection
    is the one over the minimal sets: the antichain that ``word_fixpoint``
    keeps under the right state-set order (``state_handle``). Inclusion
    holds iff the empty word lies in every component at n1's final states,
    that is iff every minimal set there meets l2's finals. This is exact on
    a nondeterministic l2, which is never determinized. No witness is
    reported.
    """
    vec, _ = word_fixpoint(n1, state_handle(l2, "right"), max_iter)
    f2 = l2.final_mask
    entries = (e for q in bits(n1.final_mask) for e in vec[q])
    return Verdict(_key_verdict(entries, lambda key: not (key & f2)).included)


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
    compose = functools.cache(handle.compose)

    def offers(v: int, vec: list[Antichain]):
        yield from base_keyed[v]
        for y, z in rules[v]:
            for k1, w1 in vec[y]:
                for k2, w2 in vec[z]:
                    yield compose(k1, k2), w1 + w2

    reads = [{x for rule in r for x in rule} for r in rules]
    return _kleene_rounds(g.variable_count, handle.leq, reads, offers, max_iter)


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
    a final state; the witness is the shortest, then least, word of a
    failing entry that survives at the axiom."""

    def fails(rel: tuple[int, ...]) -> bool:
        return not any(rel[p] & n.final_mask for p in bits(n.initial_mask))

    vec, _ = cfg_word_fixpoint(g, ctx_handle(n), max_iter)
    return _key_verdict(vec[0], fails)


# -- one-counter nets ---------------------------------------------------------


def nfa_in_ocn(
    n: Nfa, o: Ocn, start: tuple[int, int], max_iter: int = DEFAULT_ITER_CAP
) -> Verdict:
    """Inclusion of L(n) in the trace set of the one-counter net from the
    given start configuration: ``fa_inc_word`` under the macro-state
    quasiorder (``ocn_handle``), stopped after ``max_iter`` iterations."""
    handle = ocn_handle(o, start)

    def membership(word: bytes) -> bool:
        return any(e is not None for e in qo.ocn_macro(o, start, word))

    return fa_inc_word(n, handle, membership, max_iter)
