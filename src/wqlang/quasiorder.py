"""The catalog of language-consistent well-quasiorders on words.

Every quasiorder here is realized as a map from words to finite keys plus
a decidable comparison on keys: state sets compared by inclusion,
simulation-lifted state sets, state-pair relations compared rowwise by
inclusion, and one-counter macro states. Nerode and Myhill are not keys of
their own: they are the state-set and state-pair keys of the minimal DFA,
compared by residual inclusion (``residual_leq``; rowwise for Myhill).
"""

from __future__ import annotations

from .automata import Dfa, Nfa, Ocn, bits

__all__ = [
    "max_simulation",
    "sim_leq",
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


def max_simulation(n: Nfa) -> tuple[int, ...]:
    """Coarsest relation such that related states agree on finality and
    every labeled move of the smaller state is matched by the larger, as a
    bit matrix: ``rows[p]`` holds the mask of states q that simulate p.

    A simulated state's right language is included in its simulator's.
    The left simulation, which does the same for left languages, is
    ``max_simulation(n.reverse())``.
    """
    count = n.state_count
    full = (1 << count) - 1
    # condition (i): a final state is only simulated by final states
    rows = [n.final_mask if n.final_mask >> p & 1 else full for p in range(count)]
    # moves[p]: each move p -a-> p2 with a's successor table; q simulates p
    # only if table[q] meets rows[p2] for every one of them
    tables = [n._fwd[sym] for sym in sorted(n._fwd)]
    moves = [[(p2, t) for t in tables for p2 in bits(t[p])] for p in range(count)]
    changed = True
    while changed:
        changed = False
        for p in range(count):
            for q in list(bits(rows[p])):
                for p2, table in moves[p]:
                    if not rows[p2] & table[q]:
                        rows[p] &= ~(1 << q)
                        changed = True
                        break
    return tuple(rows)


def sim_leq(u_key: int, v_key: int, rows: tuple[int, ...]) -> bool:
    """Universal-existential lift of a simulation, given by its rows, to
    state sets."""
    for x in bits(u_key):
        if not (rows[x] & v_key):
            return False
    return True


def residual_inclusion_matrix(min_dfa: Dfa) -> tuple[int, ...]:
    """For a complete DFA, the matrix of right-language inclusions between
    states: ``rows[p]`` has bit q set iff the language of p is included in
    the language of q. This is the DFA's maximal simulation: a deterministic
    state simulates another exactly when its language includes the other's."""
    return max_simulation(min_dfa)


def empty_states_mask(d: Dfa) -> int:
    """States of a DFA whose right language is empty: those the finals do
    not reach in the reverse automaton."""
    r = d.reverse()
    alive = frontier = r.initial_mask
    while frontier:
        reached = 0
        for sym in r.alphabet:
            reached |= r.step(frontier, sym)
        frontier = reached & ~alive
        alive |= frontier
    return ((1 << d.state_count) - 1) & ~alive


def residual_leq(min_dfa: Dfa):
    """Residual-language inclusion on the keys of a minimal DFA: state sets
    of at most one state. A state lies below the keys whose residual
    includes its own, and below every key when its residual is empty. The
    empty set, the key of a word the DFA cannot read, has the empty
    residual: it lies below every key and above the empty-language states."""
    incl = residual_inclusion_matrix(min_dfa)
    empty = empty_states_mask(min_dfa)
    return lambda a, b: not a or incl[a.bit_length() - 1] & (b | empty) != 0


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
