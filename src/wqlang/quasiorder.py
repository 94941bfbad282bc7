"""The catalog of language-consistent well-quasiorders on words.

Every quasiorder here is realized as a map from words to finite keys plus
a decidable comparison on keys: state sets compared by inclusion,
simulation-closed state sets (``sim_closure``) compared by inclusion,
state-pair relations compared rowwise by inclusion, and one-counter macro
states. Nerode and Myhill are not keys of their own: they are the
state-set and state-pair keys of the minimal DFA, compared by residual
inclusion (``residual_leq``; rowwise for Myhill).

One refinement computes every simulation: ``cross_simulation(a, m)``,
the states of ``m`` that simulate each state of ``a``. It settles the
state-set inclusion checks (``inclusion.word_fixpoint``): an entry at a
state of n1 whose key holds a simulator of that state only grows into
words of n2's language. ``sim_closure`` uses the simulation of an
automaton by itself, and ``residual_inclusion_matrix`` is that of a
complete DFA.

A ``QuasiorderHandle`` packages one of these orders for the algorithms,
and the ``*_handle`` factories build them: the same right handle decides
inclusion (``inclusion.fa_inc_word``) and builds the automaton over its
prime principals (``residual.build_H``).
"""

from __future__ import annotations

from typing import Any, Callable, NamedTuple

from .automata import Dfa, Nfa, Ocn, bits
from .fixpoint import subset

__all__ = [
    "QuasiorderHandle",
    "nerode_handle",
    "state_handle",
    "sim_handle",
    "myhill_handle",
    "ctx_handle",
    "ocn_handle",
    "cross_simulation",
    "sim_closure",
    "residual_inclusion_matrix",
    "residual_leq",
    "ctx_key",
    "ctx_identity",
    "ctx_compose",
    "ctx_leq",
    "ocn_macro",
    "macro_step",
    "macro_leq",
]


def cross_simulation(a: Nfa, m: Nfa) -> tuple[int, ...]:
    """The maximal simulation of the states of ``a`` by those of ``m``, as
    one mask per state of ``a``: ``up[q]`` holds the states of ``m`` that
    simulate q. A state of ``m`` simulates q when it is final if q is, and
    every move q -s-> q2 of ``a`` is matched by a move on s to a state that
    simulates q2. The right language of q is then included in that of
    every state of ``up[q]``.

    ``cross_simulation(n, n)`` is the maximal simulation of ``n``; that of
    ``n.reverse()`` does the same for left languages.

    Starting from the finality condition, each move q -s-> q2 refines
    ``up[q] &= pre_s(up[q2])``, with ``pre_s`` read from ``m.reverse()``'s
    tables, until nothing changes; only the predecessors of a state whose
    mask shrank are refined again.
    """
    full = (1 << m.state_count) - 1
    a_final = a.final_mask
    up = [m.final_mask if a_final >> q & 1 else full for q in range(a.state_count)]
    m_pre = m.reverse()
    # preds[q2]: for each symbol s, the mask of the states q of ``a`` with a
    # move q -s-> q2
    preds: list[list[tuple[int, int]]] = [[] for _ in up]
    for sym, table in a.reverse()._fwd.items():
        for q2, qs in enumerate(table):
            if qs:
                preds[q2].append((sym, qs))
    # pre_s of a mask, memoized: many states share a mask, all of them the
    # full or the final mask at the start
    pres: dict[tuple[int, int], int] = {}
    work = list(range(a.state_count - 1, -1, -1))
    queued = (1 << a.state_count) - 1
    while work:
        q2 = work.pop()
        queued ^= 1 << q2
        target = up[q2]
        for sym, qs in preds[q2]:
            pre = pres.get((sym, target))
            if pre is None:
                pre = pres[sym, target] = m_pre.step(target, sym)
            while qs:
                low = qs & -qs
                q = low.bit_length() - 1
                qs ^= low
                row = up[q]
                if row & pre != row:
                    up[q] = row & pre
                    if not queued & low:
                        queued |= low
                        work.append(q)
    return tuple(up)


def sim_closure(n: Nfa) -> Callable[[int], int]:
    """The map from a state set of ``n`` to the set of states its members
    simulate (``cross_simulation(n, n)``). A set lies below another in the
    simulation-lifted order (each of its states is simulated by one of the
    other's) iff its closure is included in the other's closure, and the
    closure of a one-symbol step is the closure of the step of the closure.
    A closure meets the finals iff the set does, since only a final state
    simulates a final one."""
    # below[q]: the states q simulates
    below = [0] * n.state_count
    for p, row in enumerate(cross_simulation(n, n)):
        for q in bits(row):
            below[q] |= 1 << p

    def close(key: int) -> int:
        out = 0
        while key:
            low = key & -key
            out |= below[low.bit_length() - 1]
            key ^= low
        return out

    return close


def residual_inclusion_matrix(min_dfa: Dfa) -> tuple[int, ...]:
    """For a complete DFA, the matrix of right-language inclusions between
    states: ``rows[p]`` has bit q set iff the language of p is included in
    the language of q. This is the DFA's maximal simulation: a deterministic
    state simulates another exactly when its language includes the other's."""
    return cross_simulation(min_dfa, min_dfa)


def residual_leq(min_dfa: Dfa):
    """Residual-language inclusion on the keys of a minimal DFA: state sets
    of at most one state. A state lies below the keys whose residual
    includes its own. The empty set, the key of a word the DFA cannot read,
    has the empty residual: it lies below every key and above the sink (the
    non-final state whose moves all loop to itself), whose row is full."""
    incl = residual_inclusion_matrix(min_dfa)
    final, moves = min_dfa.final_mask, min_dfa._succ.values()
    empty = 0
    for p in range(min_dfa.state_count):
        if not final >> p & 1 and all(row[p] == p for row in moves):
            empty = 1 << p
            break
    return lambda a, b: not a or incl[a.bit_length() - 1] & (b or empty) != 0


# -- state-pair contexts (relations q -word-> q') --------------------------


def ctx_identity(n: Nfa) -> tuple[int, ...]:
    return tuple(1 << q for q in range(n.state_count))


def ctx_of_symbol(n: Nfa, sym: int) -> tuple[int, ...]:
    # row q: the successor mask of state q
    return n._fwd.get(sym) or (0,) * n.state_count


def ctx_key(n: Nfa, word: bytes) -> tuple[int, ...]:
    """The relation {(q, q') : q reaches q' reading the word}, stored as one
    successor mask per state; comparison is rowwise inclusion and
    concatenation is relation composition."""
    rel = ctx_identity(n)
    for sym in word:
        rel = ctx_compose(rel, ctx_of_symbol(n, sym))
    return rel


def ctx_compose(x: tuple[int, ...], y: tuple[int, ...]) -> tuple[int, ...]:
    out = []
    for row in x:
        acc = 0
        while row:
            low = row & -row
            acc |= y[low.bit_length() - 1]
            row ^= low
        out.append(acc)
    return tuple(out)


def ctx_leq(x: tuple[int, ...], y: tuple[int, ...]) -> bool:
    return all(rx & ry == rx for rx, ry in zip(x, y))


# -- one-counter nets: macro states ----------------------------------------

MacroState = tuple  # entry per state: None for unreachable, else max counter


def macro_step(o: Ocn, m: MacroState, sym: int) -> MacroState:
    """One-letter image of a macro state, keeping the per-state maximum
    counter; a decrement from counter zero is simply not a step."""
    out: list[int | None] = [None] * o.state_count
    for p, s, d, q in o.transitions:
        if s != sym or m[p] is None:
            continue
        n2 = m[p] + d
        if n2 < 0:
            continue
        if out[q] is None or out[q] < n2:
            out[q] = n2
    return tuple(out)


def ocn_macro(o: Ocn, start: tuple[int, int], word: bytes) -> MacroState:
    """Macro state after reading the word from the start configuration:
    per state, the maximal reachable counter value (None if unreachable)."""
    q0, n0 = start
    if not 0 <= q0 < o.state_count:
        raise ValueError(f"start state {q0} out of range")
    if n0 < 0:
        raise ValueError("counter must be nonnegative")
    m: MacroState = tuple(n0 if q == q0 else None for q in range(o.state_count))
    for sym in word:
        m = macro_step(o, m, sym)
    return m


def macro_leq(m1: MacroState, m2: MacroState) -> bool:
    """Pointwise order with unreachable as bottom."""
    for a, b in zip(m1, m2):
        if a is None:
            continue
        if b is None or a > b:
            return False
    return True


# -- handles ----------------------------------------------------------------


class QuasiorderHandle(NamedTuple):
    """A decidable quasiorder on words packaged for the inclusion
    fixpoints and the prime-principal construction.

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


def _oriented(n: Nfa, direction: str) -> Nfa:
    """The automaton a handle of that direction reads words on, forward."""
    if direction == "left":
        return n.reverse()
    if direction == "right":
        return n
    raise ValueError(f"bad direction {direction!r}")


def _set_handle(m: Nfa, direction: str, leq) -> QuasiorderHandle:
    """State-set handle over ``m``, the automaton oriented for the
    direction: a word's key is the set ``m`` reaches on it, read forward
    (reversed for a left handle), and accepts when it meets the finals."""
    final = m.final_mask
    return QuasiorderHandle(
        direction=direction,
        key_of=lambda w: m.run(w[::-1] if direction == "left" else w),
        leq=leq,
        accepts=lambda key: key & final != 0,
        extend=m.step,
    )


def nerode_handle(n2: Nfa, direction: str = "left") -> QuasiorderHandle:
    """Residual-inclusion quasiorder of L(n2): the state-set keys of the
    minimal DFA of the language (of its reverse, on the left), ordered by
    residual inclusion (``residual_leq``). A key holds one state, or none
    for a word the DFA cannot read."""
    m = _oriented(n2, direction).determinize().minimize()
    return _set_handle(m, direction, residual_leq(m))


def state_handle(n2: Nfa, direction: str = "left") -> QuasiorderHandle:
    """State-set quasiorder: pre-sets of the finals (left) or post-sets of
    the initials (right), compared by inclusion; a pre-set is a post-set of
    the reverse. The order is ``fixpoint.subset``, which ``Antichain`` runs
    inline. A pre-set accepts when it meets the initials, a post-set when
    it meets the finals."""
    return _set_handle(_oriented(n2, direction), direction, subset)


def sim_handle(n2: Nfa, direction: str = "left") -> QuasiorderHandle:
    """Simulation-lifted state-set quasiorder; coarser than plain inclusion
    but still consistent with L(n2). A key is simulation-closed: the set of
    states its word reaches (``state_handle``'s key) and every state they
    simulate (``sim_closure``). On closed keys the lifted order is
    inclusion, ``fixpoint.subset``, which ``Antichain`` runs inline."""
    m = _oriented(n2, direction)
    close = sim_closure(m)
    plain = _set_handle(m, direction, subset)
    return plain._replace(
        key_of=lambda w: close(plain.key_of(w)),
        extend=lambda key, sym: close(m.step(key, sym)),
    )


def myhill_handle(n: Nfa) -> QuasiorderHandle:
    """Two-sided context quasiorder of L(n): the state-pair keys of the
    minimal DFA of the language (``ctx_handle``), each row holding at most
    one state, ordered rowwise by residual inclusion (``residual_leq``)."""
    m = n.determinize().minimize()
    leq = residual_leq(m)
    return ctx_handle(m)._replace(leq=lambda x, y: all(map(leq, x, y)))


def ctx_handle(n: Nfa) -> QuasiorderHandle:
    """Two-sided state-pair quasiorder: the relation a word induces between
    states of n, compared by inclusion."""
    initials, final = list(bits(n.initial_mask)), n.final_mask
    return QuasiorderHandle(
        direction="two-sided",
        key_of=lambda w: ctx_key(n, w),
        leq=ctx_leq,
        accepts=lambda rel: any(rel[p] & final for p in initials),
        compose=ctx_compose,
    )


def ocn_handle(o: Ocn, start: tuple[int, int]) -> QuasiorderHandle:
    """Right quasiorder on macro states of a one-counter net; a word is a
    trace iff its macro state reaches some state."""
    return QuasiorderHandle(
        direction="right",
        key_of=lambda w: ocn_macro(o, start, w),
        leq=macro_leq,
        accepts=lambda m: any(e is not None for e in m),
        extend=lambda key, sym: macro_step(o, key, sym),
    )
