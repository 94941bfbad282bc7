"""Residual-automata constructions driven by quasiorders.

One core builds every residual automaton: ``build_H``, the automaton over
the prime principals of a consistent right quasiorder. It takes all
principals, lists the ones strictly below each, and picks the primes
itself; the constructions differ only in the keys they pass, the order
they compare them by and the composite test they supply:

- ``res``: reachable post-sets of the automaton under state-set
  inclusion, composite when the union of the smaller ones has the same
  language (``is_composite``);
- ``denis_residualize``: the same post-sets and order, composite when the
  smaller ones cover them (the classic, weaker test);
- ``canonical``: the one-state sets of the minimal DFA under residual
  inclusion, composite by ``is_composite`` on the minimal DFA;
- the learner's hypothesis (``learn.ObservationState.build_automaton``):
  representative words under row containment, composite when the row is
  the join of the rows below it.

The first three share the state-set helper ``_state_set_H``. Direction is
decided only in ``res`` and ``canonical``: left is the reverse of the
construction on the reverse. Also here: principal enumeration, the
double-reversal route to the canonical RFA, and the closedness condition
characterizing when plain residualization is already canonical.
"""

from __future__ import annotations

from functools import reduce
from operator import or_
from typing import Any, Callable, Iterator, Sequence

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


def principals(n: Nfa) -> tuple[int, ...]:
    """All distinct reachable post-sets of the initials, in breadth-first
    discovery order: the subsets of the subset construction."""
    return n.determinize().source_subsets


def is_composite(n: Nfa, key: int, below: Sequence[int]) -> bool:
    """Is the right language of the key's states exactly the union of those
    of the keys strictly below it (``below``, as ``build_H`` lists them)?
    Decided by language equivalence, not mere state-set coverability, which
    is strictly weaker. The union is a subset of the key, so only the key's
    language can fail to be included."""
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
) -> Nfa:
    """Automaton over the prime principals of a consistent right
    quasiorder, one state per prime key, in the order of ``keys``.

    ``keys`` holds every principal once; a key is dropped when
    ``composite(key, below)`` holds, ``below`` listing the keys strictly
    below it. Initial principals are those below the principal of the
    empty word, final ones those ``final_of`` accepts (their words belong
    to the language), and an a-transition from u's principal reaches every
    prime principal below the principal of u·a.
    """
    primes = [
        k for k in keys if not composite(k, [b for b in keys if leq(b, k) and not leq(k, b)])
    ]
    initial = [i for i, k in enumerate(primes) if leq(k, key_eps)]
    final = [i for i, k in enumerate(primes) if final_of(k)]
    triples = []
    for i, u in enumerate(primes):
        for sym in symbols:
            ext = extend(u, sym)
            triples += [(i, sym, j) for j, v in enumerate(primes) if leq(v, ext)]
    return Nfa(len(primes), triples, initial, final)


def _state_set_H(n: Nfa, keys: Sequence[int], leq: Callable, composite: Callable) -> Nfa:
    """``build_H`` over state sets of ``n``: a key extends by the post-set
    step and is final when it meets the finals."""
    final = n.final_mask
    return build_H(
        keys,
        leq,
        composite,
        lambda key, sym: n.step(key, sym, True),
        n.initial_mask,
        lambda key: bool(key & final),
        sorted(n.alphabet),
    )


def _subset(a: int, b: int) -> bool:
    return a & b == a


def res(n: Nfa, direction: str = "right") -> Nfa:
    """Residualization through the automaton-induced quasiorder: the states
    are the prime reachable post-sets under inclusion, composite when the
    smaller ones have the same language (``is_composite``). The left
    variant is the reverse of the residualization of the reverse, whose
    states are the prime pre-sets of the finals."""
    if direction == "left":
        return res(n.reverse()).reverse()
    if direction != "right":
        raise ValueError(f"bad direction {direction!r}")
    return _state_set_H(
        n, principals(n), _subset, lambda key, below: is_composite(n, key, below)
    )


def canonical(lang: Nfa, direction: str = "right") -> Nfa:
    """The canonical residual automaton of the language: the state-set
    construction on the minimal DFA over its one-state keys, ordered by
    residual inclusion, which saturates the transitions; a residual is
    composite when the smaller ones make it up (``is_composite``). The left
    variant is the reverse of the canonical automaton of the reversed
    language."""
    if direction == "left":
        return canonical(lang.reverse()).reverse()
    if direction != "right":
        raise ValueError(f"bad direction {direction!r}")
    m = lang.determinize().minimize()
    incl = residual_inclusion_matrix(m)
    return _state_set_H(
        m,
        [1 << p for p in range(m.state_count)],
        # every key, and every step of one on the complete DFA, is one state
        lambda a, b: bool(incl[a.bit_length() - 1] & b),
        lambda key, below: is_composite(m, key, below),
    )


def denis_residualize(n: Nfa) -> Nfa:
    """Classic residualization: ``res``'s keys and order, keeping the
    reachable post-sets that are not the union of the smaller ones (state-set
    coverability instead of language equivalence)."""
    return _state_set_H(
        n, principals(n), _subset, lambda key, below: reduce(or_, below, 0) == key
    )


def double_reversal_canonical(n: Nfa) -> Nfa:
    """Residualize the reverse, reverse, residualize (two ``res`` calls,
    hence two ``build_H`` calls under state-set inclusion): lands on the
    canonical residual automaton of the original language."""
    return res(res(n.reverse()).reverse())


def check_dr_condition(n: Nfa) -> bool:
    """Does residualization of ``n`` yield the canonical automaton? True
    exactly when the left language of every state is upward closed under
    residual inclusion, checked by product exploration against the minimal
    DFA (complete over ``n``'s alphabet) plus one language equivalence per
    state."""
    syms = sorted(n.alphabet)
    mc = n.determinize().minimize()
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


def _residual_labels(n: Nfa, min_dfa: Dfa) -> Iterator[int | None]:
    """For each state of ``n`` in turn, the first minimal-DFA state whose
    residual equals the state's right language, or None when none does."""
    for q in range(n.state_count):
        right = n.with_initial([q])
        same = lambda p: equivalence_counterexample(right, min_dfa.with_initial([p])) is None
        yield next(filter(same, range(min_dfa.state_count)), None)


def is_rfa(n: Nfa) -> bool:
    """Is every state's right language a residual of the automaton's own
    language? Empty right languages need the empty residual to exist."""
    return None not in _residual_labels(n, n.determinize().minimize())


# -- canonical-form comparison ------------------------------------------------


def canonical_signature(candidate: Nfa, min_dfa: Dfa):
    """Label every candidate state by the minimal-DFA state whose residual
    equals its right language; None when some state matches no residual or
    two states collide, i.e. the candidate is not canonical-shaped."""
    labels = list(_residual_labels(candidate, min_dfa))
    if None in labels or len(set(labels)) != len(labels):
        return None
    return (
        frozenset(labels),
        frozenset(labels[q] for q in candidate.initial),
        frozenset(labels[q] for q in candidate.final),
        frozenset((labels[p], sym, labels[q]) for p, sym, q in candidate._triples),
    )


def isomorphic_to_canonical(candidate: Nfa, reference: Nfa) -> bool:
    """State-renaming isomorphism between a candidate and the canonical
    automaton of the same language, via residual-identity labels."""
    m = reference.determinize().minimize()
    sig_a = canonical_signature(candidate, m)
    sig_b = canonical_signature(reference, m)
    return sig_a is not None and sig_a == sig_b
