"""The catalog of language-consistent well-quasiorders on words.

Every quasiorder here is realized as a map from words to finite keys plus
a decidable comparison on keys: state sets compared by inclusion,
simulation-lifted state sets, minimal-DFA residuals (Nerode), DFA state
transformations (Myhill contexts), state-pair relations, and one-counter
macro states.
"""

from __future__ import annotations

from dataclasses import dataclass

from .automata import Dfa, Nfa, Ocn, bits

__all__ = [
    "state_key",
    "SimRelation",
    "max_simulation",
    "sim_leq",
    "residual_inclusion_matrix",
    "residual_state",
    "residual_next",
    "residual_order",
    "nerode_leq",
    "myhill_key",
    "myhill_compose",
    "myhill_order",
    "myhill_leq",
    "ctx_key",
    "ctx_identity",
    "ctx_compose",
    "ctx_leq",
    "ocn_macro",
    "macro_step",
    "macro_leq",
]


def state_key(n: Nfa, word: bytes, direction: str) -> int:
    """Right: post_word of the initial states. Left: pre_word of the final
    states. Keys are compared by plain bitmask inclusion."""
    if direction == "right":
        return n.run(word, True)
    if direction == "left":
        return n.run(word, False)
    raise ValueError(f"bad direction {direction!r}")


@dataclass(frozen=True)
class SimRelation:
    """Greatest simulation of one NFA as a bit matrix: ``rows[p]`` holds the
    mask of states q that simulate p."""

    rows: tuple[int, ...]

    def holds(self, p: int, q: int) -> bool:
        return bool(self.rows[p] >> q & 1)


def max_simulation(n: Nfa, direction: str = "right") -> SimRelation:
    """Coarsest relation such that related states agree on finality and
    every labeled move of the smaller state is matched by the larger.

    The left variant is the same computation on the reverse automaton, so
    it relates states by left-language inclusion instead of right.
    """
    if direction == "left":
        return max_simulation(n.reverse(), "right")
    if direction != "right":
        raise ValueError(f"bad direction {direction!r}")
    count = n.state_count
    full = (1 << count) - 1
    # condition (i): a final state is only simulated by final states
    rows = [n.final_mask if n.final_mask >> p & 1 else full for p in range(count)]
    syms = sorted(n.alphabet)
    changed = True
    while changed:
        changed = False
        for p in range(count):
            for q in list(bits(rows[p])):
                ok = True
                for sym in syms:
                    for p2 in bits(n.step(1 << p, sym, True)):
                        targets = n.step(1 << q, sym, True)
                        if not (rows[p2] & targets):
                            ok = False
                            break
                    if not ok:
                        break
                if not ok:
                    rows[p] &= ~(1 << q)
                    changed = True
    return SimRelation(tuple(rows))


def sim_leq(u_key: int, v_key: int, sim: SimRelation) -> bool:
    """Universal-existential lift of a simulation to state sets."""
    for x in bits(u_key):
        if not (sim.rows[x] & v_key):
            return False
    return True


def residual_inclusion_matrix(min_dfa: Dfa) -> tuple[int, ...]:
    """For a complete DFA, the matrix of right-language inclusions between
    states, computed by greatest-fixpoint refinement: ``rows[p]`` has bit q
    set iff the language of p is included in the language of q."""
    count = min_dfa.state_count
    full = (1 << count) - 1
    # a final state's language contains the empty word, so it only embeds
    # into languages of final states
    fmask = min_dfa.final_mask
    rows = [fmask if fmask >> p & 1 else full for p in range(count)]
    syms = sorted(min_dfa.alphabet)
    changed = True
    while changed:
        changed = False
        for p in range(count):
            for q in list(bits(rows[p])):
                for sym in syms:
                    tp = min_dfa.dnext(p, sym)
                    tq = min_dfa.dnext(q, sym)
                    if not (rows[tp] >> tq & 1):
                        rows[p] &= ~(1 << q)
                        changed = True
                        break
    return tuple(rows)


def empty_states_mask(d: Dfa) -> int:
    """States of a DFA whose right language is empty."""
    alive = d.final_mask
    changed = True
    while changed:
        changed = False
        for (p, _sym), targets in d.transitions.items():
            if alive >> p & 1:
                continue
            for q in targets:
                if alive >> q & 1:
                    alive |= 1 << p
                    changed = True
                    break
    return ((1 << d.state_count) - 1) & ~alive


# -- residual orders through the minimal DFA (Nerode and Myhill) ----------


DEAD = -1  # the state of words the DFA cannot read: the empty residual


def residual_state(min_dfa: Dfa, word: bytes, start: int | None = None) -> int:
    """The minimal-DFA state reached by the word, or DEAD when it falls off."""
    q = min_dfa.run_state(word, start)
    return DEAD if q is None else q


def residual_next(min_dfa: Dfa, p: int, sym: int) -> int:
    """One-symbol successor of a state, DEAD staying DEAD."""
    q = None if p == DEAD else min_dfa.dnext(p, sym)
    return DEAD if q is None else q


def residual_order(min_dfa: Dfa):
    """Residual-language inclusion between states of the minimal DFA, with
    DEAD below everything and above exactly the empty-language states."""
    incl = residual_inclusion_matrix(min_dfa)
    dead = empty_states_mask(min_dfa)

    def leq(p: int, q: int) -> bool:
        if p == DEAD:
            return True
        if q == DEAD:
            return bool(dead >> p & 1)
        return bool(incl[p] >> q & 1)

    return leq


def nerode_leq(min_dfa: Dfa, u: bytes, v: bytes, direction: str = "right") -> bool:
    """Residual-language comparison through the minimal DFA.

    Right: u^{-1}L <= v^{-1}L on the minimal DFA of L. Left: the caller
    passes the minimal DFA of the reversed language and the comparison runs
    on reversed words, using the quotient/reversal duality.
    """
    if direction == "left":
        u, v = u[::-1], v[::-1]
    elif direction != "right":
        raise ValueError(f"bad direction {direction!r}")
    leq = residual_order(min_dfa)
    return leq(residual_state(min_dfa, u), residual_state(min_dfa, v))


def myhill_key(min_dfa: Dfa, word: bytes) -> tuple[int, ...]:
    """The word's action on the minimal DFA: state p maps to the state
    reached from p by the word, or DEAD when the DFA falls off."""
    return tuple(residual_state(min_dfa, word, p) for p in range(min_dfa.state_count))


def myhill_compose(k1: tuple[int, ...], k2: tuple[int, ...]) -> tuple[int, ...]:
    return tuple(DEAD if p == DEAD else k2[p] for p in k1)


def myhill_order(min_dfa: Dfa):
    """Context inclusion on actions: the residual order, pointwise."""
    leq = residual_order(min_dfa)
    return lambda a, b: all(map(leq, a, b))


def myhill_leq(min_dfa: Dfa, u, v) -> bool:
    """Context inclusion: for every state p, the residual after reading u
    from p is included in the residual after reading v from p.

    ``u``/``v`` may be words or precomputed keys.
    """
    ku = myhill_key(min_dfa, u) if isinstance(u, bytes) else u
    kv = myhill_key(min_dfa, v) if isinstance(v, bytes) else v
    return myhill_order(min_dfa)(ku, kv)


# -- state-pair contexts (relations q -word-> q') --------------------------


def ctx_identity(n: Nfa) -> tuple[int, ...]:
    return tuple(1 << q for q in range(n.state_count))


def ctx_of_symbol(n: Nfa, sym: int) -> tuple[int, ...]:
    return tuple(n.step(1 << q, sym, True) for q in range(n.state_count))


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
        for mid in bits(row):
            acc |= y[mid]
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
