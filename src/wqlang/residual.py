"""Residual-automata constructions driven by quasiorders.

One core builds every residual automaton: ``build_H``, the automaton over
the prime principals of a consistent right quasiorder, given as a
``quasiorder.QuasiorderHandle`` like the ones that decide inclusion. It
takes all principals, lists the ones strictly below each, and picks the
primes itself; the constructions differ only in the handle, the keys they
pass and the composite test they supply:

- ``res``: reachable post-sets of the automaton under its right state-set
  handle (inclusion), composite when the union of the smaller ones has the
  same language (``is_composite``);
- ``denis_residualize``: the same post-sets and handle, composite when the
  smaller ones cover them (the classic, weaker test);
- ``canonical``: the one-state sets of the minimal DFA under its right
  Nerode handle (residual inclusion), composite by ``is_composite`` on the
  minimal DFA;
- the learner's hypothesis (``learn.ObservationState.build_automaton``):
  its distinct rows under a row handle (row containment), composite when
  the row is the OR of the rows below it.

Direction is decided only in ``res`` and ``canonical``: left is the
reverse of the construction on the reverse. Also here: principal
enumeration, the double-reversal route to the canonical RFA, and the
closedness condition, sufficient but not necessary for plain
residualization to be canonical.

``principals``, ``res`` and ``denis_residualize`` read one lazy subset
construction (``automata.subset_successors``): a breadth-first walk over
it lists the keys in the order of ``determinize().source_subsets``, and
their handle's ``extend`` reads it, so ``build_H`` steps nothing.

The composite test is a language inclusion L(K) ⊆ L(U) between two state
sets of one automaton, and ``res`` and ``canonical`` ask it once per key.
``right_inclusion`` answers all of an automaton's questions with one
forward walk over pairs (K-mask, U-mask) that shares two memos between
calls: the lazy subset construction (bounded by ``MAX_DFA_STATES``; for
``res``, the one its keys were walked on, so the walk steps only the
unions that are not principals) and the pairs already proved safe. A pair
is safe when no pair reachable from it has K meeting the finals and U
missing them; a successful call proves this for every pair it explored,
since each of their successors was either explored too or already safe.

Under mask inclusion (``fixpoint.subset``, passed by ``state_handle`` and
the learner's row handle), ``build_H`` compares the keys inline, one ``&``
per pair, as ``Antichain.insert`` does.

Kameda and Weiner's co-subset test (IEEE Trans. Computers, 1970) would
decide the same inclusion by the subsets of the reversed automaton: K's
language is in U's iff every co-subset that meets K meets U. It is not
used because the reverse subset construction can be exponentially larger
than the forward one: on the 19-state NFA for "the 18th letter is a" it
needs 2^18 sets and passes ``MAX_DFA_STATES``, while the forward walk
meets 20 masks, as many as the forward construction, and ``res`` takes
about a millisecond.
"""

from __future__ import annotations

from functools import partial, reduce
from operator import or_
from typing import Any, Callable, Iterator, Sequence

from .automata import Dfa, Nfa, bits, equivalence_counterexample, subset_successors

# Not called here: bound because the benchmark tracer patches
# ``residual.naive_inclusion`` by name (tests/test_bench_hooks.py).
from .automata import naive_inclusion  # noqa: F401
from .fixpoint import subset
from .quasiorder import QuasiorderHandle, _set_handle, residual_leq, state_handle
from .quasiorder import residual_inclusion_matrix

__all__ = [
    "principals",
    "right_inclusion",
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


def _subset_walk(n: Nfa) -> tuple[Callable, QuasiorderHandle, tuple[int, ...]]:
    """``n``'s lazy subset construction over its sorted alphabet, its right
    state handle reading ``extend`` off it, and the masks a breadth-first
    walk over it meets from the initials."""
    syms = sorted(n.alphabet)
    successors = subset_successors(n, syms)
    column = {sym: i for i, sym in enumerate(syms)}
    handle = state_handle(n, "right")._replace(extend=lambda key, sym: successors(key)[column[sym]])
    keys, seen = [n.initial_mask], {n.initial_mask}
    for mask in keys:
        for succ in successors(mask):
            if succ not in seen:
                seen.add(succ)
                keys.append(succ)
    return successors, handle, tuple(keys)


def principals(n: Nfa) -> tuple[int, ...]:
    """All distinct reachable post-sets of the initials, in breadth-first
    discovery order: ``determinize().source_subsets``, walked lazily."""
    return _subset_walk(n)[2]


def right_inclusion(
    n: Nfa, subsets: Callable[[int], tuple[int, ...]] | None = None
) -> Callable[[int, int], bool]:
    """A callable ``included(key, union)`` deciding L(key) ⊆ L(union) for
    state sets (bitmasks) of ``n``, by a depth-first walk over the pairs of
    masks that one word reaches from both. A pair is bad when its first
    mask meets the finals and its second does not; a pair whose first mask
    is a subset of its second is never extended, since no bad pair follows.

    The callable memoizes, across calls, the set of pairs from which no bad
    pair is reachable (every pair explored by a call that returned True),
    and each mask's successors per symbol in ``subsets``: ``n``'s lazy subset
    construction over its sorted alphabet, a new one when not given. Raises
    ``DeterminizationCap`` past ``MAX_DFA_STATES`` masks.
    """
    final = n.final_mask
    successors = subsets or subset_successors(n, sorted(n.alphabet))
    safe: set[tuple[int, int]] = set()

    def included(key: int, union: int) -> bool:
        start = (key, union)
        if key & ~union == 0 or start in safe:
            return True
        seen = {start}
        stack = [start]
        while stack:
            k, u = stack.pop()
            if k & final and not u & final:
                return False
            for pair in zip(successors(k), successors(u)):
                if pair[0] & ~pair[1] and pair not in seen and pair not in safe:
                    seen.add(pair)
                    stack.append(pair)
        safe.update(seen)
        return True

    return included


def is_composite(included: Callable[[int, int], bool], key: int, below: Sequence[int]) -> bool:
    """Is the right language of the key's states exactly the union of those
    of the keys strictly below it (``below``, as ``build_H`` lists them)?
    Decided by language equivalence, not mere state-set coverability, which
    is strictly weaker. The union is a subset of the key, so only the key's
    language can fail to be included; ``included`` is the automaton's
    ``right_inclusion`` walk, shared by all its keys."""
    return included(key, reduce(or_, below, 0))


def build_H(
    handle: QuasiorderHandle,
    keys: Sequence[Any],
    composite: Callable[[Any, list], bool],
    symbols: Sequence[int],
) -> Nfa:
    """Automaton over the prime principals of the right quasiorder
    ``handle``, one state per prime key, in the order of ``keys``.

    ``keys`` holds every principal once; a key is dropped when
    ``composite(key, below)`` holds, ``below`` listing the keys strictly
    below it under ``handle.leq``. Initial principals are those below the
    principal of the empty word, final ones those the handle accepts (their
    words belong to its language), and an a-transition from u's principal
    reaches every prime principal below that of u·a, ``handle.extend(u, a)``.
    """
    leq, extend = handle.leq, handle.extend
    # under subset the keys are compared inline, as in Antichain.insert: b
    # is strictly below k iff b & k == b != k
    inline = leq is subset
    primes = [
        k
        for k in keys
        if not composite(
            k, [b for b in keys if (b & k == b != k if inline else leq(b, k) and not leq(k, b))]
        )
    ]

    def below(ext) -> int:
        """The mask of the primes below ``ext``."""
        out = 0
        for j, v in enumerate(primes):
            if v & ext == v if inline else leq(v, ext):
                out |= 1 << j
        return out

    initial = below(handle.key_of(b""))
    final = 0
    for i, k in enumerate(primes):
        if handle.accepts(k):
            final |= 1 << i
    rows = {sym: [0] * len(primes) for sym in sorted(symbols)}
    for i, u in enumerate(primes):
        for sym in symbols:
            rows[sym][i] = below(extend(u, sym))
    fwd = {sym: tuple(row) for sym, row in rows.items() if any(row)}
    return Nfa._of_tables(len(primes), fwd, initial, final)


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
    subsets, handle, keys = _subset_walk(n)
    included = right_inclusion(n, subsets)
    return build_H(handle, keys, partial(is_composite, included), sorted(n.alphabet))


def canonical(lang: Nfa, direction: str = "right") -> Nfa:
    """The canonical residual automaton of the language: ``build_H`` over
    the one-state keys of the minimal DFA under its right Nerode handle (the
    one ``quasiorder.nerode_handle(lang, "right")`` builds), whose residual
    inclusion saturates the transitions; a residual is composite when the
    smaller ones make it up (``is_composite``). The left variant is the
    reverse of the canonical automaton of the reversed language."""
    if direction == "left":
        return canonical(lang.reverse()).reverse()
    if direction != "right":
        raise ValueError(f"bad direction {direction!r}")
    m = lang.determinize().minimize()
    included = right_inclusion(m)
    return build_H(
        _set_handle(m, "right", residual_leq(m)),
        [1 << p for p in range(m.state_count)],
        lambda key, below: is_composite(included, key, below),
        sorted(m.alphabet),
    )


def denis_residualize(n: Nfa) -> Nfa:
    """Classic residualization: ``res``'s keys and handle, keeping the
    reachable post-sets that are not the union of the smaller ones (state-set
    coverability instead of language equivalence)."""
    _, handle, keys = _subset_walk(n)
    covered = lambda key, below: reduce(or_, below, 0) == key
    return build_H(handle, keys, covered, sorted(n.alphabet))


def double_reversal_canonical(n: Nfa) -> Nfa:
    """Residualize the reverse, reverse, residualize (two ``res`` calls,
    hence two ``build_H`` calls under state-set inclusion): lands on the
    canonical residual automaton of the original language."""
    return res(res(n.reverse()).reverse())


def check_dr_condition(n: Nfa) -> bool:
    """Sufficient, not necessary, for residualization of ``n`` to yield the
    canonical automaton: every state's left language is upward closed under
    residual inclusion. The subset construction is complete, so the words
    reaching each subset form one block of a partition, and a state's left
    language is the union of the blocks of the subsets that hold it: the
    condition holds iff every subset whose residual (minimal-DFA state)
    includes that of a subset holding ``q`` holds ``q`` too."""
    d = n.determinize()
    mc = d.minimize()
    incl = residual_inclusion_matrix(mc)
    # breadth-first numbering: each subset's class is set before it is read
    cls = [mc.initial_state] * d.state_count
    tables = [(d._fwd[sym], mc._fwd[sym]) for sym in d.alphabet]
    for s in range(d.state_count):
        for row, min_row in tables:
            cls[row[s].bit_length() - 1] = min_row[cls[s]].bit_length() - 1
    # need[p]: the states of every subset whose residual's row of incl holds
    # p, gathered per class; each subset of class p must hold all of them
    held = [0] * mc.state_count
    for subset, p in zip(d.source_subsets, cls):
        held[p] |= subset
    need = [0] * mc.state_count
    for p2, states in enumerate(held):
        for p in bits(incl[p2]):
            need[p] |= states
    return all(subset & need[p] == need[p] for subset, p in zip(d.source_subsets, cls))


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
