"""Residual-automata constructions driven by quasiorders.

One core builds every residual automaton: ``build_H``, the automaton over
the prime principals of a consistent quasiorder. It takes all principals,
lists the ones strictly below each, and picks the primes itself; the
constructions differ only in the principals they pass, the order they
compare them by and the composite test they supply:

- ``res``: reachable post-sets (right) or pre-sets (left) of the automaton
  under state-set inclusion, composite when the union of the smaller ones
  has the same language (``is_composite``);
- ``denis_residualize``: the same post-sets and order, composite when the
  smaller ones cover them (the classic, weaker test);
- ``canonical``: the states of the minimal DFA under residual inclusion,
  composite when the smaller residuals make up the residual;
- the learner's hypothesis (``learn.ObservationState.build_automaton``):
  representative words under row containment, composite when not prime.

Also here: principal enumeration, the double-reversal route to the
canonical RFA, and the closedness condition characterizing when plain
residualization is already canonical.
"""

from __future__ import annotations

from functools import reduce
from operator import or_
from typing import Any, Callable, Sequence

from .automata import Dfa, Nfa, bits, equivalence_counterexample, naive_inclusion
from .quasiorder import residual_inclusion_matrix

__all__ = [
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


def principals(n: Nfa, direction: str = "right") -> tuple[int, ...]:
    """All distinct reachable key sets of one direction of the automaton:
    post-sets of the initials (right) or pre-sets of the finals (left), in
    breadth-first discovery order. They are the subsets of the subset
    construction (of the reverse automaton for left)."""
    if direction == "left":
        n = n.reverse()
    elif direction != "right":
        raise ValueError(f"bad direction {direction!r}")
    return n.determinize().source_subsets


def is_composite(n: Nfa, key: int, below: Sequence[int], direction: str = "right") -> bool:
    """Is the key's residual exactly the union of the residuals of the
    principals strictly below it (``below``, as ``build_H`` lists them)?
    Decided by language equivalence, not mere state-set coverability, which
    is strictly weaker. The union is a subset of the key, so only the key's
    language can fail to be included."""
    if direction == "left":
        return is_composite(n.reverse(), key, below, "right")
    union = reduce(or_, below, 0)
    return naive_inclusion(n.with_initial(bits(key)), n.with_initial(bits(union))).included


def build_H(
    keys: Sequence[Any],
    leq: Callable[[Any, Any], bool],
    composite: Callable[[Any, list], bool],
    extend: Callable[[Any, int], Any],
    key_eps: Any,
    final_of: Callable[[Any], bool],
    symbols,
    direction: str = "right",
) -> Nfa:
    """Automaton over the prime principals of a consistent quasiorder, one
    state per prime key, in the order of ``keys``.

    ``keys`` holds every principal once; a key is dropped when
    ``composite(key, below)`` holds, ``below`` listing the keys strictly
    below it. Right: initial principals are those below the principal of
    the empty word, final ones those ``final_of`` accepts (their words
    belong to the language), and an a-transition from u's principal reaches
    every prime principal below the principal of u·a. Left is the mirror
    image (transitions read a·v, initial and final roles swap).
    """
    if direction not in ("right", "left"):
        raise ValueError(f"bad direction {direction!r}")
    primes = [
        k for k in keys if not composite(k, [b for b in keys if leq(b, k) and not leq(k, b)])
    ]
    eps_side = [i for i, k in enumerate(primes) if leq(k, key_eps)]
    lang_side = [i for i, k in enumerate(primes) if final_of(k)]
    initial, final = (
        (eps_side, lang_side) if direction == "right" else (lang_side, eps_side)
    )
    triples = []
    for i, u in enumerate(primes):
        for sym in symbols:
            if direction == "right":
                ext = extend(u, sym)
                targets = [j for j, v in enumerate(primes) if leq(v, ext)]
            else:
                targets = [j for j, v in enumerate(primes) if leq(u, extend(v, sym))]
            triples += [(i, sym, j) for j in targets]
    return Nfa(len(primes), triples, initial, final)


def _state_set_H(
    n: Nfa, keys: Sequence[int], composite: Callable[[int, list], bool], direction: str
) -> Nfa:
    """``build_H`` under the automaton-induced state-set order: post-sets
    of the initials (right) or pre-sets of the finals (left)."""
    fwd = direction == "right"
    start, goal = n.initial_mask, n.final_mask
    if not fwd:
        start, goal = goal, start
    return build_H(
        keys,
        lambda a, b: a & b == a,
        composite,
        lambda key, sym: n.step(key, sym, fwd),
        start,
        lambda key: bool(key & goal),
        sorted(n.alphabet),
        direction,
    )


def res(n: Nfa, direction: str = "right") -> Nfa:
    """Residualization through the automaton-induced quasiorder: the states
    are the prime reachable post-sets (right) or pre-sets (left)."""
    fwd = n.reverse() if direction == "left" else n
    return _state_set_H(
        n, principals(n, direction), lambda key, below: is_composite(fwd, key, below), direction
    )


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
    return build_H(
        range(m.state_count),
        lambda p, q: bool(incl[p] >> q & 1),
        lambda p, below: naive_inclusion(m.with_initial([p]), m.with_initial(below)).included,
        m.dnext,
        m.initial_state,
        lambda p: bool(m.final_mask >> p & 1),
        sorted(m.alphabet),
    )


def denis_residualize(n: Nfa) -> Nfa:
    """Classic residualization: ``res``'s construction, keeping the
    reachable post-sets that are not the union of the smaller ones (state-set
    coverability instead of language equivalence)."""
    return _state_set_H(
        n,
        principals(n, "right"),
        lambda key, below: reduce(or_, below, 0) == key,
        "right",
    )


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
        if equivalence_counterexample(n.with_final([q]), mc.with_final(bits(up))) is not None:
            return False
    return True


def is_rfa(n: Nfa) -> bool:
    """Is every state's right language a residual of the automaton's own
    language? Empty right languages need the empty residual to exist."""
    m = n.determinize().minimize()
    for q in range(n.state_count):
        right = n.with_initial([q])
        if all(
            equivalence_counterexample(right, m.with_initial([p])) is not None
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
            if equivalence_counterexample(right, min_dfa.with_initial([p])) is None:
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
