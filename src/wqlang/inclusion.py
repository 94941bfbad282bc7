"""Quasiorder-parameterized inclusion decision procedures.

Two cores do all the word-based work: ``word_fixpoint`` for automata and
``cfg_word_fixpoint`` for CNF grammars, each the least fixpoint of the
antichain equations under a quasiorder handle, computed by one layered
worklist that extends only the entries the previous layer added (the
forward antichain algorithm of De Wulf, Doyen, Henzinger and Raskin, and
its grammar form after Holik and Meyer). A handle is consistent with the
language L2 it checks against: every principal lies wholly inside L2 or
wholly outside it, so membership in L2 is read off a key by the handle's
``accepts``. A check stops at the first layer where an accepted entry's
key is rejected; on automata that witness is a shortest counterexample,
on grammars (layers are derivation heights) it need not be:

- ``fa_inc_word`` runs ``word_fixpoint`` under any directed handle
  (Nerode, state-set, simulation, one-counter macro states);
- ``cfg_inc_word`` runs ``cfg_word_fixpoint`` under any two-sided handle
  (Myhill, state-pair).

The named checks are instances of these two: ``fa_inc_antichain`` under
the left state-set order, ``fa_inc_gfp`` under the right one (reporting
the verdict only), ``cfg_inc_antichain`` under the state-pair order and
``nfa_in_ocn`` under the one-counter macro order.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Any, Callable

from .automata import CnfGrammar, Nfa, Ocn, Verdict, bits
from .fixpoint import Antichain, KleeneDivergence, subset

# Not called here: bound because the benchmark tracer patches
# ``inclusion.kleene`` and ``inclusion.ac_below`` by name
# (tests/test_bench_hooks.py).
from .fixpoint import ac_below, kleene  # noqa: F401
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
    The quasiorder is consistent with one language, so ``accepts`` tells
    from a key whether its words belong to that language. Directed handles
    supply ``extend``, the key of the one-symbol extension on the working
    side: prepended for left handles, appended for right ones. Two-sided
    handles supply ``compose``, the key of a concatenation. Keys must be
    hashable: the fixpoints memoize ``extend`` and ``compose`` on them and
    skip a key already offered to the same antichain.
    """

    direction: str  # 'left' | 'right' | 'two-sided'
    key_of: Callable[[bytes], Any]
    leq: Callable[[Any, Any], bool]
    accepts: Callable[[Any], bool]
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
    final = m.final_mask
    return QuasiorderHandle(
        direction=direction,
        key_of=lambda w: qo.residual_state(m, w[::-1] if direction == "left" else w),
        leq=qo.residual_order(m),
        accepts=lambda q: q != qo.DEAD and final >> q & 1 == 1,
        extend=lambda key, sym: qo.residual_next(m, key, sym),
    )


def state_handle(n2: Nfa, direction: str = "left") -> QuasiorderHandle:
    """State-set quasiorder: pre-sets of the finals (left) or post-sets of
    the initials (right), compared by inclusion. The order is
    ``fixpoint.subset``, which ``Antichain`` runs inline. A pre-set accepts
    when it meets the initials, a post-set when it meets the finals."""
    if direction not in ("left", "right"):
        raise ValueError(f"bad direction {direction!r}")
    forward = direction == "right"
    target = n2.final_mask if forward else n2.initial_mask
    return QuasiorderHandle(
        direction=direction,
        key_of=lambda w: n2.run(w, forward),
        leq=subset,
        accepts=lambda key: key & target != 0,
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
        accepts=base.accepts,
        extend=base.extend,
    )


def myhill_handle(n: Nfa) -> QuasiorderHandle:
    """Two-sided context quasiorder of L(n), realized as the word's action
    on the minimal DFA with pointwise residual inclusion."""
    m = n.determinize().minimize()
    q0, final = m.initial_state, m.final_mask
    return QuasiorderHandle(
        direction="two-sided",
        key_of=lambda w: qo.myhill_key(m, w),
        leq=qo.myhill_order(m),
        accepts=lambda key: key[q0] != qo.DEAD and final >> key[q0] & 1 == 1,
        compose=qo.myhill_compose,
    )


def ctx_handle(n: Nfa) -> QuasiorderHandle:
    """Two-sided state-pair quasiorder: the relation a word induces between
    states of n, compared by inclusion."""
    initials, final = list(bits(n.initial_mask)), n.final_mask
    return QuasiorderHandle(
        direction="two-sided",
        key_of=lambda w: qo.ctx_key(n, w),
        leq=qo.ctx_leq,
        accepts=lambda rel: any(rel[p] & final for p in initials),
        compose=qo.ctx_compose,
    )


def ocn_handle(o: Ocn, start: tuple[int, int]) -> QuasiorderHandle:
    """Right quasiorder on macro states of a one-counter net; a word is a
    trace iff its macro state reaches some state."""
    return QuasiorderHandle(
        direction="right",
        key_of=lambda w: qo.ocn_macro(o, start, w),
        leq=qo.macro_leq,
        accepts=lambda m: any(e is not None for e in m),
        extend=lambda key, sym: qo.macro_step(o, key, sym),
    )


# -- word-based algorithm ----------------------------------------------------


def _layers(count, handle, base, grow, check, max_iter):
    """Least fixpoint of a system of antichain equations, one antichain of
    (key, word) entries per component, by a layered semi-naive worklist.

    Layer 0 offers the ``base`` entries; each later layer offers
    ``grow(frontier, vec)``, the extensions of just the (component, key,
    word) entries the previous layer accepted. An offer is (component,
    key, head, tail), standing for the word ``head + tail``, which is built
    only for a key not yet offered to its component. An entry evicted
    after it was accepted is still extended, so the key of every word of
    layer n is dominated by an entry accepted in layer n or before. A key
    already offered to a component is skipped: the antichain holds a key
    below it.

    After each layer the run stops at the accepted entries of components
    in the ``check`` mask whose key the handle does not accept, and
    returns the shortest, then least, of their words. Otherwise it runs to
    the empty frontier, where each component is equivalent both ways to
    the least fixpoint's. The keys accepted in one component form a bad
    sequence (none lies above an earlier one, which is still dominated), so
    under a well-quasiorder the run ends; the cap of ``max_iter`` layers
    after the base (a negative cap acts as 0) only turns a handle that is
    not one into ``KleeneDivergence``. Returns the vector, the layer count
    and the witness, or None.
    """
    vec = [Antichain(handle.leq) for _ in range(count)]
    offers, layers = base, 0
    seen = [set() for _ in range(count)]
    accepts = handle.accepts
    while True:
        frontier = []
        for v, key, head, tail in offers:
            if key not in seen[v]:
                seen[v].add(key)
                word = head + tail
                if vec[v].insert(key, word):
                    frontier.append((v, key, word))
        failing = [w for v, k, w in frontier if check >> v & 1 and not accepts(k)]
        if failing:
            return vec, layers, min(failing, key=lambda w: (len(w), w))
        if not frontier:
            return vec, layers, None
        if layers >= max_iter:
            raise KleeneDivergence(f"no fixpoint after {layers} layers")
        layers += 1
        offers = grow(frontier, vec)


def word_fixpoint(
    n1: Nfa, handle: QuasiorderHandle, max_iter: int = DEFAULT_ITER_CAP, stop: bool = False
):
    """Least fixpoint of the word-antichain equations of ``n1`` under the
    given quasiorder; one antichain of (key, word) entries per state.

    Left handles prepend from the empty word at the final states, right
    handles append from the empty word at the initials; layer n holds the
    words of length n. With ``stop`` the run ends at the first layer with
    an entry at a check state (initials for left handles, finals for right
    ones) whose key the handle does not accept. Under a consistent handle
    every key below a rejected one is rejected too, so that witness is a
    shortest word of L(n1) outside the handle's language. Returns the
    vector, the layer count and the witness (None if nothing is rejected).
    """
    left = handle.direction == "left"
    if not left and handle.direction != "right":
        raise ValueError("word_fixpoint needs a directed quasiorder handle")
    base_mask, check = n1.final_mask, n1.initial_mask
    if not left:
        base_mask, check = check, base_mask
    # preds[q2]: per symbol, the states q whose move on it extends a word
    # at q2 into one at q
    preds: list[list[tuple[int, bytes, list[int]]]] = [[] for _ in range(n1.state_count)]
    tables = n1._bwd if left else n1._fwd
    for sym in sorted(tables):
        s = bytes([sym])
        for q2, qs in enumerate(tables[sym]):
            if qs:
                preds[q2].append((sym, s, list(bits(qs))))
    extend = functools.cache(handle.extend)

    def grow(frontier, _vec):
        for q2, key, word in frontier:
            for sym, s, qs in preds[q2]:
                k = extend(key, sym)
                head, tail = (s, word) if left else (word, s)
                for q in qs:
                    yield q, k, head, tail

    base = [(q, handle.key_of(b""), b"", b"") for q in bits(base_mask)]
    return _layers(n1.state_count, handle, base, grow, check if stop else 0, max_iter)


def fa_inc_word(
    n1: Nfa, handle: QuasiorderHandle, max_iter: int = DEFAULT_ITER_CAP
) -> Verdict:
    """Word-based inclusion check: L(n1) <= L2, where ``handle`` is a
    directed L2-consistent well-quasiorder. ``word_fixpoint`` under that
    handle, stopped at the first key it does not accept: the witness is a
    shortest word of L(n1) - L2, the least among the rejected entries of
    its layer."""
    _, _, witness = word_fixpoint(n1, handle, max_iter, stop=True)
    return Verdict(witness is None, witness)


def fa_inc_antichain(
    n1: Nfa, n2: Nfa, variant: str = "forward", max_iter: int = DEFAULT_ITER_CAP
) -> Verdict:
    """Antichain inclusion check of L(n1) in L(n2): ``fa_inc_word`` under
    the pre-sets of n2's finals ordered by inclusion (``state_handle``),
    which stops at the first set at an initial state of n1 that misses
    n2's initials. ``variant`` names the algorithm and must be "forward",
    the only one."""
    if variant != "forward":
        raise ValueError(f"bad variant {variant!r}")
    return fa_inc_word(n1, state_handle(n2, "left"), max_iter)


def fa_inc_gfp(n1: Nfa, l2: Nfa, max_iter: int = DEFAULT_ITER_CAP) -> Verdict:
    """Greatest-fixpoint inclusion check of L(n1) in L(l2), purely boolean.

    The greatest solution of the inclusion equations holds at each state q
    of n1 the intersection of the residuals u^-1 L(l2) over the words u
    that reach q. That residual is the language of the state set u reaches
    in l2, and a smaller set has a smaller language, so the intersection
    is the one over the minimal sets: the antichain that ``word_fixpoint``
    keeps under the right state-set order (``state_handle``). Inclusion
    holds iff the empty word lies in every component at n1's final states,
    that is iff every minimal set there meets l2's finals: the verdict of
    ``fa_inc_word`` under that handle. This is exact on a nondeterministic
    l2, which is never determinized. No witness is reported.
    """
    return Verdict(fa_inc_word(n1, state_handle(l2, "right"), max_iter).included)


# -- grammar algorithms -------------------------------------------------------


def cfg_word_fixpoint(
    g: CnfGrammar, handle: QuasiorderHandle, max_iter: int = DEFAULT_ITER_CAP, stop: bool = False
):
    """Least fixpoint of the word-antichain equations of a CNF grammar under
    a two-sided quasiorder; one antichain per variable. Keys of
    concatenations come from the handle's ``compose``.

    Layer 0 holds the terminal words (and the empty word at a nullable
    axiom). In each later layer a binary rule fires when either side
    gained an entry: every new entry at Y is composed, for each rule
    X -> Y Z or X -> Z Y, with the entries of Z at the start of the layer.
    Layers are derivation heights, not word lengths, so with ``stop`` the
    run ends at the first layer with an axiom entry whose key the handle
    does not accept, and that witness need not be a shortest rejected
    word. Returns the vector, the layer count and the witness (None if
    nothing is rejected).
    """
    if handle.direction != "two-sided":
        raise ValueError("grammar fixpoints need a two-sided quasiorder")
    words = [(0, b"")] if g.axiom_nullable else []
    for v in range(g.variable_count):
        words += [(v, bytes([t])) for t in sorted(g.terminal_rules.get(v, ()))]
    base = [(v, handle.key_of(w), w, b"") for v, w in words]
    # uses[y]: (x, z, y_first) for each rule x -> y z (y_first) or x -> z y
    uses: list[list[tuple[int, int, bool]]] = [[] for _ in range(g.variable_count)]
    for x in range(g.variable_count):
        for y, z in sorted(g.binary_rules.get(x, ())):
            uses[y].append((x, z, True))
            uses[z].append((x, y, False))
    compose = functools.cache(handle.compose)

    def grow(frontier, vec):
        # runs up to its first offer before the layer inserts anything, so
        # this copy is the antichains at the start of the layer
        snapshot = [list(ac) for ac in vec]
        for y, k1, w1 in frontier:
            for x, z, y_first in uses[y]:
                for k2, w2 in snapshot[z]:
                    if y_first:
                        yield x, compose(k1, k2), w1, w2
                    else:
                        yield x, compose(k2, k1), w2, w1

    return _layers(g.variable_count, handle, base, grow, 1 if stop else 0, max_iter)


def cfg_inc_word(
    g: CnfGrammar, handle: QuasiorderHandle, max_iter: int = DEFAULT_ITER_CAP
) -> Verdict:
    """Word-based inclusion check L(g) <= L2 for a CNF grammar and a
    two-sided L2-consistent well-quasiorder: ``cfg_word_fixpoint`` under
    that handle, stopped at the first axiom key it does not accept. The
    witness is the shortest, then least, word of a rejected axiom entry of
    that layer."""
    _, _, witness = cfg_word_fixpoint(g, handle, max_iter, stop=True)
    return Verdict(witness is None, witness)


def cfg_inc_antichain(
    g: CnfGrammar, n: Nfa, max_iter: int = DEFAULT_ITER_CAP
) -> Verdict:
    """State-based antichain inclusion check of L(g) in L(n): ``cfg_inc_word``
    under the state-pair order (``ctx_handle``), which stops at the first
    relation of the axiom that connects no initial to a final state."""
    return cfg_inc_word(g, ctx_handle(n), max_iter)


# -- one-counter nets ---------------------------------------------------------


def nfa_in_ocn(
    n: Nfa, o: Ocn, start: tuple[int, int], max_iter: int = DEFAULT_ITER_CAP
) -> Verdict:
    """Inclusion of L(n) in the trace set of the one-counter net from the
    given start configuration: ``fa_inc_word`` under the macro-state
    quasiorder (``ocn_handle``), capped at ``max_iter`` layers."""
    return fa_inc_word(n, ocn_handle(o, start), max_iter)
