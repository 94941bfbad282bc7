"""Quasiorder-parameterized inclusion decision procedures.

Two cores do all the word-based work: ``word_fixpoint`` for automata and
``cfg_word_fixpoint`` for CNF grammars, each the least fixpoint of the
antichain equations under a quasiorder handle (``quasiorder`` defines the
handles), computed by one layered worklist that extends only the entries
the previous layer added (the forward antichain algorithm of De Wulf,
Doyen, Henzinger and Raskin, and its grammar form after Holik and Meyer).
A handle is consistent with the language L2 it checks against: every
principal lies wholly inside L2 or wholly outside it, so membership in L2
is read off a key by the handle's ``accepts``. A check stops at the first
layer where an accepted entry's key is rejected; on automata that witness
is a shortest counterexample, on grammars (layers are derivation heights)
it need not be:

- ``fa_inc_word`` runs ``word_fixpoint`` under any directed handle
  (Nerode, state-set, simulation, one-counter macro states);
- ``cfg_inc_word`` runs ``cfg_word_fixpoint`` under any two-sided handle
  (Myhill, state-pair).

Direction is decided only by reversal: a left handle on n2 is the right
handle on its reverse read on reversed words, and a left ``word_fixpoint``
runs on the reverse of n1, prepending where a right run appends.

The named checks are instances of these two: ``fa_inc_antichain`` under
the left state-set order, ``fa_inc_gfp`` under the right one (reporting
the verdict only), ``cfg_inc_antichain`` under the state-pair order and
``nfa_in_ocn`` under the one-counter macro order.

The two state-set checks also settle entries by simulation (Abdulla,
Chen, Holik, Mayr and Vojnar, TACAS 2010). An entry at a state q of n1
whose key holds a state of n2 that simulates q can only grow into words
of L2, so ``word_fixpoint`` inserts it but does not extend it. The order
stays the state-set order, so the fixpoint is still the paper's. The run
is exact: a key above a settled key is settled, so no settled entry
blocks an unsettled one; a rejected entry is never settled, since a
simulator of a final state is final. Each layer therefore accepts the
same unsettled entries as the unpruned run, and the same shortest, then
least, witness surfaces at the same layer. ``fa_inc_word`` under
``state_handle`` (``--algo word-state``) is the unpruned order.

The two checks first decide the pairs where n2 holds n1 state for
state: at least as many states, n1's initials and finals among n2's, and
each move of n1 a move of n2 from the same state (a check of an
automaton against itself or against a union that holds it). The
identity on state numbers is then a simulation that settles every entry
of layer 0, so L(n1) is inside L(n2), and the check answers from the
forward tables alone, before any reversal or fixpoint. Any other pair
runs the fixpoint, settled by the maximal simulation
(``quasiorder.cross_simulation``, one first-in first-out refinement read
straight off n2's predecessor tables). ``word_fixpoint`` gathers a
state's moves only when it first extends an entry there, so a check
whose layer-0 entries all settle gathers no move of n1.
"""

from __future__ import annotations

from operator import and_

from .automata import CnfGrammar, Nfa, Ocn, Verdict, bits
from .fixpoint import Antichain, KleeneDivergence, subset

# Not called here: bound because the benchmark tracer patches
# ``inclusion.kleene`` and ``inclusion.ac_below`` by name
# (tests/test_bench_hooks.py).
from .fixpoint import ac_below, kleene  # noqa: F401
from . import quasiorder as qo

__all__ = [
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


# -- word-based algorithm ----------------------------------------------------


def _layers(count, handle, base, grow, check, max_iter):
    """Least fixpoint of a system of antichain equations, one antichain of
    (key, word) entries per component, by a layered semi-naive worklist.

    Layer 0 offers the ``base`` entries; each later layer offers the
    iterator ``grow(frontier, vec)``, the extensions of just the
    (component, key, word) entries the previous layer accepted. An offer
    is (component, key, head, tail), standing for the word
    ``head + tail``, which is built only for a key not yet offered to its
    component. An entry evicted after it was accepted is still extended,
    so the key of every word of layer n is dominated by an entry accepted
    in layer n or before. A key already offered to a component is skipped:
    the antichain holds a key below it.

    After each layer the run stops at the accepted entries of components
    in the ``check`` mask whose key the handle does not accept, and
    returns the shortest, then least, of their words. Otherwise it runs to
    the empty frontier, where each component is equivalent both ways to
    the least fixpoint's. The keys accepted in one component form a bad
    sequence (none lies above an earlier one, which is still dominated), so
    under a well-quasiorder the run ends. ``max_iter`` caps the layers
    after the base that are offered anything (a negative cap acts as 0),
    so that a handle that is not one cannot run forever: the run raises
    ``KleeneDivergence`` when the layer after the cap is offered an
    entry. A layer past the cap that is offered nothing ends the run as
    it would uncapped, and counts in the layer count. Returns the vector,
    the layer count and the witness, or None.
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
        offers = grow(frontier, vec)
        if layers >= max_iter and next(offers, None) is not None:
            raise KleeneDivergence(f"no fixpoint after {layers} layers")
        layers += 1


def word_fixpoint(
    n1: Nfa,
    handle: qo.QuasiorderHandle,
    max_iter: int = DEFAULT_ITER_CAP,
    stop: bool = False,
    key_automaton: Nfa | None = None,
):
    """Least fixpoint of the word-antichain equations of ``n1`` under the
    given quasiorder; one antichain of (key, word) entries per state.

    Right handles append along n1 and left ones prepend along its reverse,
    from the empty word at that automaton's initials; layer n holds the
    words of length n. With ``stop`` the run ends at the first layer with
    an entry at a final state of that automaton whose key the handle does
    not accept. Under a consistent handle every key below a rejected one
    is rejected too, so that witness is a shortest word of L(n1) outside
    the handle's language. Returns the vector, the layer count and the
    witness (None if nothing is rejected).

    ``key_automaton`` is given when the handle's keys are state sets of
    that automaton, read forward (``quasiorder.state_handle``): a key
    steps by its ``step`` and is accepted when it meets its finals. The run
    then skips the extensions of settled entries (Abdulla, Chen, Holik,
    Mayr and Vojnar, TACAS 2010): an entry at state q of n1's oriented
    automaton is settled when its key holds a state that simulates q, so
    every word it extends to at a final state has a key that meets the
    finals. Settled entries are still inserted. A key holding a settled
    one is settled, so no settled entry blocks an unsettled one, and a
    rejected entry is never settled, because a simulator of a final state
    is final: each layer accepts the same unsettled entries, with the same
    words, as the unpruned run, and the witness is the same.

    The settling simulation is the maximal one
    (``quasiorder.cross_simulation``), computed on the first extension, so
    a run that ends at layer 0 pays for none. The moves of a state are
    gathered the first time an unsettled entry at it is extended, and the
    key of the empty word is computed once for all initials, so a run
    whose layer-0 entries all settle builds no moves at all.
    ``fa_inc_antichain`` and ``fa_inc_gfp`` decide the pairs that the
    identity would settle (n2 holding n1 state for state) before calling
    this.
    """
    left = handle.direction == "left"
    if not left and handle.direction != "right":
        raise ValueError("word_fixpoint needs a directed quasiorder handle")
    a = n1.reverse() if left else n1
    # per symbol: the symbol as a word, its table and the memo of extend
    tables = [(sym, bytes((sym,)), table, {}) for sym, table in a._fwd.items()]
    # moves[q2]: per symbol, the states q that ``a`` moves to from q2 on it,
    # each extending a word at q2 into one at q; built when an entry at q2
    # is first extended
    moves: list[list[tuple[int, bytes, list[int], dict]] | None] = [None] * a.state_count
    extend = handle.extend
    up = None

    def grow(frontier, _vec):
        nonlocal up
        if key_automaton is not None:
            if up is None:
                up = qo.cross_simulation(a, key_automaton)
            frontier = [e for e in frontier if not e[1] & up[e[0]]]
        for q2, key, word in frontier:
            here = moves[q2]
            if here is None:
                here = moves[q2] = [
                    (sym, s, list(bits(t[q2])), memo) for sym, s, t, memo in tables if t[q2]
                ]
            for sym, s, qs, memo in here:
                k = memo.get(key)
                if k is None:
                    k = memo[key] = extend(key, sym)
                head, tail = (s, word) if left else (word, s)
                for q in qs:
                    yield q, k, head, tail

    key = handle.key_of(b"")
    base = [(q, key, b"", b"") for q in bits(a.initial_mask)]
    return _layers(a.state_count, handle, base, grow, a.final_mask if stop else 0, max_iter)


def fa_inc_word(
    n1: Nfa, handle: qo.QuasiorderHandle, max_iter: int = DEFAULT_ITER_CAP
) -> Verdict:
    """Word-based inclusion check: L(n1) <= L2, where ``handle`` is a
    directed L2-consistent well-quasiorder. ``word_fixpoint`` under that
    handle, stopped at the first key it does not accept: the witness is a
    shortest word of L(n1) - L2, the least among the rejected entries of
    its layer."""
    _, _, witness = word_fixpoint(n1, handle, max_iter, stop=True)
    return Verdict(witness is None, witness)


def _sub_automaton(n1: Nfa, n2: Nfa) -> bool:
    """Whether n2 holds n1 state for state: each state of n1 is a state of
    n2, initial or final there if it is in n1, and each move of n1 is a
    move of n2 from the same state (a table n2 shares with n1 holds them
    all). Then the identity on state numbers simulates n1 by n2, read in
    either direction, and L(n1) is inside L(n2). It reads only the forward
    tables, one ``&`` per state and symbol."""
    if (
        n1.state_count > n2.state_count
        or n1.initial_mask & ~n2.initial_mask
        or n1.final_mask & ~n2.final_mask
    ):
        return False
    fwd = n2._fwd
    for sym, table in n1._fwd.items():
        other = fwd.get(sym)
        if other is None or (other is not table and tuple(map(and_, table, other)) != table):
            return False
    return True


def fa_inc_antichain(
    n1: Nfa, n2: Nfa, variant: str = "forward", max_iter: int = DEFAULT_ITER_CAP
) -> Verdict:
    """Antichain inclusion check of L(n1) in L(n2): ``word_fixpoint`` under
    the pre-sets of n2's finals ordered by inclusion (``state_handle``),
    which stops at the first set at an initial state of n1 that misses
    n2's initials, and which skips the extensions of settled entries: a
    pre-set at a state q of n1 holding a state of n2 whose left language
    includes that of q (a left simulation of n1 by n2) can only grow into
    words of L(n2). One reversal of n2 serves both the handle and the
    simulation. A pair where n2 holds n1 state for state (``_sub_automaton``,
    such as n1 against itself or against a union that holds it) is
    INCLUDED before any reversal: the identity would settle every layer-0
    entry of that run. Verdict and witness are those of the unpruned
    ``fa_inc_word`` under the same handle (``--algo word-state``).
    ``variant`` names the algorithm and must be "forward", the only one."""
    if variant != "forward":
        raise ValueError(f"bad variant {variant!r}")
    if _sub_automaton(n1, n2):
        return Verdict(True, None)
    m = n2.reverse()
    _, _, witness = word_fixpoint(n1, qo._set_handle(m, "left", subset), max_iter, True, m)
    return Verdict(witness is None, witness)


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
    ``fa_inc_word`` under that handle. A post-set at q that holds a state
    of l2 simulating q already contains the residual of q, so the run
    skips its extensions (``word_fixpoint``'s ``key_automaton``), which
    leaves the verdict unchanged. A pair where l2 holds n1 state for state
    (``_sub_automaton``) is INCLUDED without a run. This is exact on a
    nondeterministic l2, which is never determinized. No witness is
    reported.
    """
    if _sub_automaton(n1, l2):
        return Verdict(True)
    _, _, witness = word_fixpoint(n1, qo.state_handle(l2, "right"), max_iter, True, l2)
    return Verdict(witness is None)


# -- grammar algorithms -------------------------------------------------------


def cfg_word_fixpoint(
    g: CnfGrammar, handle: qo.QuasiorderHandle, max_iter: int = DEFAULT_ITER_CAP, stop: bool = False
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
    compose = handle.compose
    memo: dict = {}

    def grow(frontier, vec):
        # runs up to its first offer before the layer inserts anything, so
        # this copy is the antichains at the start of the layer
        snapshot = [list(ac) for ac in vec]
        for y, k1, w1 in frontier:
            for x, z, y_first in uses[y]:
                for k2, w2 in snapshot[z]:
                    if y_first:
                        pair, head, tail = (k1, k2), w1, w2
                    else:
                        pair, head, tail = (k2, k1), w2, w1
                    k = memo.get(pair)
                    if k is None:
                        k = memo[pair] = compose(*pair)
                    yield x, k, head, tail

    return _layers(g.variable_count, handle, base, grow, 1 if stop else 0, max_iter)


def cfg_inc_word(
    g: CnfGrammar, handle: qo.QuasiorderHandle, max_iter: int = DEFAULT_ITER_CAP
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
    return cfg_inc_word(g, qo.ctx_handle(n), max_iter)


# -- one-counter nets ---------------------------------------------------------


def nfa_in_ocn(
    n: Nfa, o: Ocn, start: tuple[int, int], max_iter: int = DEFAULT_ITER_CAP
) -> Verdict:
    """Inclusion of L(n) in the trace set of the one-counter net from the
    given start configuration: ``fa_inc_word`` under the macro-state
    quasiorder (``ocn_handle``), capped at ``max_iter`` layers."""
    return fa_inc_word(n, qo.ocn_handle(o, start), max_iter)
