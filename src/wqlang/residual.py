"""Residual-automata constructions driven by quasiorders.

One core builds every residual automaton: ``build_H``, the automaton over
the prime principals of a consistent quasiorder. The constructions differ
only in the principals they pass and the order they compare them by:

- ``res``: reachable post-sets (right) or pre-sets (left) of the automaton,
  under state-set inclusion, minus the composite ones (``is_composite``);
- ``denis_residualize``: the same post-sets and order, minus the ones
  coverable by smaller post-sets (the classic, weaker test);
- ``canonical``: the states of the minimal DFA under residual inclusion,
  minus the composite residuals;
- the learner's hypothesis (``learn.ObservationState.build_automaton``):
  representative words under row containment.

Also here: principal enumeration, the double-reversal route to the
canonical RFA, and the closedness condition characterizing when plain
residualization is already canonical.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Sequence

from .automata import Dfa, Nfa, bits, equivalence_counterexample, naive_inclusion
from .quasiorder import residual_inclusion_matrix

__all__ = [
    "PrincipalSet",
    "principals",
    "is_composite",
    "build_H",
    "res",
    "canonical",
    "denis_residualize",
    "double_reversal_canonical",
    "check_dr_condition",
    "is_rfa",
    "canonical_signature",
    "isomorphic_to_canonical",
]


@dataclass(frozen=True)
class PrincipalSet:
    """All distinct reachable key sets of one direction of an automaton:
    post-sets of the initials (right) or pre-sets of the finals (left),
    each with a shortest representative word."""

    keys: tuple[int, ...]
    words: tuple[bytes, ...]


def principals(n: Nfa, direction: str = "right") -> PrincipalSet:
    """Breadth-first enumeration of the reachable key sets; every reachable
    set appears exactly once, tagged with a shortest generating word."""
    if direction == "left":
        ps = principals(n.reverse(), "right")
        return PrincipalSet(ps.keys, tuple(w[::-1] for w in ps.words))
    if direction != "right":
        raise ValueError(f"bad direction {direction!r}")
    syms = sorted(n.alphabet)
    start = n.initial_mask
    seen = {start: b""}
    order = [start]
    i = 0
    while i < len(order):
        m = order[i]
        w = seen[m]
        for sym in syms:
            t = n.step(m, sym, True)
            if t not in seen:
                seen[t] = w + bytes([sym])
                order.append(t)
        i += 1
    return PrincipalSet(tuple(order), tuple(seen[m] for m in order))


def is_composite(n: Nfa, key: int, ps: PrincipalSet, direction: str = "right") -> bool:
    """Is the key's residual exactly the union of the residuals of all
    strictly smaller principals? Decided by language equivalence, not mere
    state-set coverability, which is strictly weaker."""
    if direction == "left":
        return is_composite(n.reverse(), key, ps, "right")
    if key not in ps.keys:
        raise ValueError("key is not a principal of the automaton")
    union = 0
    for other in ps.keys:
        if other != key and other & key == other:
            union |= other
    lang_key = n.with_initial(bits(key))
    lang_union = n.with_initial(bits(union))
    return (
        naive_inclusion(lang_key, lang_union).included
        and naive_inclusion(lang_union, lang_key).included
    )


def build_H(
    keys: Sequence[Any],
    leq: Callable[[Any, Any], bool],
    extend: Callable[[Any, int], Any],
    key_eps: Any,
    final_of: Callable[[Any], bool],
    symbols,
    direction: str = "right",
) -> Nfa:
    """Automaton over the given prime principals of a consistent quasiorder,
    one state per key, in order.

    Right: initial principals are those below the principal of the empty
    word, final ones those ``final_of`` accepts (their words belong to the
    language), and an a-transition from u's principal reaches every prime
    principal below the principal of u·a. Left is the mirror image
    (transitions read a·v, initial and final roles swap).
    """
    if direction not in ("right", "left"):
        raise ValueError(f"bad direction {direction!r}")
    eps_side = [i for i, k in enumerate(keys) if leq(k, key_eps)]
    lang_side = [i for i, k in enumerate(keys) if final_of(k)]
    initial, final = (
        (eps_side, lang_side) if direction == "right" else (lang_side, eps_side)
    )
    triples = []
    for i, u in enumerate(keys):
        for sym in symbols:
            if direction == "right":
                ext = extend(u, sym)
                targets = [j for j, v in enumerate(keys) if leq(v, ext)]
            else:
                targets = [j for j, v in enumerate(keys) if leq(u, extend(v, sym))]
            triples += [(i, sym, j) for j in targets]
    return Nfa(len(keys), triples, initial, final)


def _state_set_H(n: Nfa, primes: list[int], direction: str) -> Nfa:
    """``build_H`` under the automaton-induced state-set order: post-sets
    of the initials (right) or pre-sets of the finals (left)."""
    fwd = direction == "right"
    start, goal = n.initial_mask, n.final_mask
    if not fwd:
        start, goal = goal, start
    return build_H(
        primes,
        lambda a, b: a & b == a,
        lambda key, sym: n.step(key, sym, fwd),
        start,
        lambda key: bool(key & goal),
        sorted(n.alphabet),
        direction,
    )


def res(n: Nfa, direction: str = "right") -> Nfa:
    """Residualization through the automaton-induced quasiorder: the states
    are the prime reachable post-sets (right) or pre-sets (left)."""
    ps = principals(n, direction)
    primes = [k for k in ps.keys if not is_composite(n, k, ps, direction)]
    return _state_set_H(n, primes, direction)


def canonical(lang: Nfa, direction: str = "right") -> Nfa:
    """The canonical residual automaton of the language: ``build_H`` over
    the prime residuals of the minimal DFA, ordered by residual inclusion,
    which saturates the transitions; the left variant is the reverse of the
    canonical automaton of the reversed language."""
    if direction == "left":
        return canonical(lang.reverse(), "right").reverse()
    if direction != "right":
        raise ValueError(f"bad direction {direction!r}")
    m = lang.determinize().minimize()
    incl = residual_inclusion_matrix(m)
    count = m.state_count
    primes = []
    for p in range(count):
        strictly_below = [
            q for q in range(count) if q != p and incl[q] >> p & 1 and not incl[p] >> q & 1
        ]
        union_lang = Nfa(count, m._triples, strictly_below, m.final)
        this_lang = Nfa(count, m._triples, [p], m.final)
        if equivalence_counterexample(this_lang, union_lang) is not None:
            primes.append(p)
    return build_H(
        primes,
        lambda p, q: bool(incl[p] >> q & 1),
        m.dnext,
        m.initial_state,
        lambda p: p in m.final,
        sorted(m.alphabet),
    )


def denis_residualize(n: Nfa) -> Nfa:
    """Classic residualization: ``res``'s construction, keeping the
    reachable post-sets that are not the union of the smaller ones (state-set
    coverability instead of language equivalence)."""
    keys = principals(n, "right").keys

    def coverable(key: int) -> bool:
        union = 0
        for other in keys:
            if other != key and other & key == other:
                union |= other
        return union == key

    return _state_set_H(n, [k for k in keys if not coverable(k)], "right")


def double_reversal_canonical(n: Nfa) -> Nfa:
    """Residualize the reverse, reverse, residualize (two ``res`` calls,
    hence two ``build_H`` calls under state-set inclusion): lands on the
    canonical residual automaton of the original language."""
    return res(res(n.reverse(), "right").reverse(), "right")


def check_dr_condition(n: Nfa) -> bool:
    """Does residualization of ``n`` yield the canonical automaton? True
    exactly when the left language of every state is upward closed under
    residual inclusion, checked by product exploration against the minimal
    DFA plus one language equivalence per state."""
    syms = sorted(n.alphabet)
    mc = n.determinize().minimize().complete(syms)
    inclc = residual_inclusion_matrix(mc)
    # product reachability: which minimal-DFA states co-occur with each state
    start_pairs = [(q, mc.initial_state) for q in bits(n.initial_mask)]
    seen = set(start_pairs)
    stack = list(start_pairs)
    reach_of: list[int] = [0] * n.state_count  # bitmask over mc states
    for q, p in start_pairs:
        reach_of[q] |= 1 << p
    while stack:
        q, p = stack.pop()
        for sym in syms:
            p2 = mc.dnext(p, sym)
            for q2 in bits(n.step(1 << q, sym, True)):
                if (q2, p2) not in seen:
                    seen.add((q2, p2))
                    reach_of[q2] |= 1 << p2
                    stack.append((q2, p2))
    for q in range(n.state_count):
        up = 0
        for p in bits(reach_of[q]):
            up |= inclc[p]
        closure_lang = Dfa(mc.state_count, mc._triples, mc.initial, list(bits(up)))
        left_lang = n.with_final([q])
        if equivalence_counterexample(left_lang, closure_lang) is not None:
            return False
    return True


def is_rfa(n: Nfa) -> bool:
    """Is every state's right language a residual of the automaton's own
    language? Empty right languages need the empty residual to exist."""
    m = n.determinize().minimize()
    for q in range(n.state_count):
        right = n.with_initial([q])
        if all(
            equivalence_counterexample(right, Dfa(m.state_count, m._triples, [p], m.final))
            is not None
            for p in range(m.state_count)
        ):
            return False
    return True


# -- canonical-form comparison ------------------------------------------------


def canonical_signature(candidate: Nfa, min_dfa: Dfa):
    """Label every candidate state by the minimal-DFA state whose residual
    equals its right language; None when some state matches no residual or
    two states collide, i.e. the candidate is not canonical-shaped."""
    labels = []
    for q in range(candidate.state_count):
        right = candidate.with_initial([q])
        match = None
        for p in range(min_dfa.state_count):
            residual = Dfa(min_dfa.state_count, min_dfa._triples, [p], min_dfa.final)
            if equivalence_counterexample(right, residual) is None:
                match = p
                break
        if match is None:
            return None
        labels.append(match)
    if len(set(labels)) != len(labels):
        return None
    relabel = {q: labels[q] for q in range(candidate.state_count)}
    return (
        frozenset(labels),
        frozenset(relabel[q] for q in candidate.initial),
        frozenset(relabel[q] for q in candidate.final),
        frozenset(
            (relabel[p], sym, relabel[q]) for p, sym, q in candidate._triples
        ),
    )


def isomorphic_to_canonical(candidate: Nfa, reference: Nfa) -> bool:
    """State-renaming isomorphism between a candidate and the canonical
    automaton of the same language, via residual-identity labels."""
    m = reference.determinize().minimize()
    sig_a = canonical_signature(candidate, m)
    sig_b = canonical_signature(reference, m)
    return sig_a is not None and sig_a == sig_b
