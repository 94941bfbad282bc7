import random

import pytest
from hypothesis import given, settings, strategies as st

from wqlang import Antichain, ac_below, fixpoint, kleene
from wqlang.fixpoint import KleeneDivergence

from conftest import examples, word_step_oracle

subset = lambda a, b: a <= b


def minor(items, leq):
    """The antichain of minimal elements of ``items``."""
    return Antichain(leq, ((k, None) for k in items))

sets = st.frozensets(st.integers(min_value=0, max_value=5), max_size=4)


def test_minor_subset_example():
    m = minor([frozenset({1, 3}), frozenset({1}), frozenset({1, 2})], subset)
    assert m.keys() == [frozenset({1})]


def test_minor_singleton_and_empty():
    assert minor([frozenset({1})], subset).keys() == [frozenset({1})]
    assert minor([], subset).keys() == []


@given(st.lists(sets, max_size=8))
def test_minor_mutual_domination(items):
    m = minor(items, subset)
    assert ac_below(m.keys(), items, subset)
    assert ac_below(items, m.keys(), subset)


@given(st.lists(sets, max_size=8))
def test_antichain_pairwise_incomparable(items):
    m = minor(items, subset)
    keys = m.keys()
    for i, x in enumerate(keys):
        for j, y in enumerate(keys):
            if i != j:
                assert not subset(x, y) and not subset(y, x)


def test_insert_keeps_first_of_equivalent_keys():
    # quasiorder where everything of equal length is equivalent
    leq = lambda a, b: len(a) <= len(b)
    ac = Antichain(leq)
    assert ac.insert("ab", b"first")
    assert not ac.insert("cd", b"second")
    assert list(ac) == [("ab", b"first")]


def test_insert_evicts_dominated():
    ac = Antichain(subset)
    ac.insert(frozenset({1, 2}), b"big")
    assert ac.insert(frozenset({1}), b"small")
    assert ac.keys() == [frozenset({1})]


@settings(max_examples=examples(200))
@given(st.lists(st.integers(0, 63), max_size=40))
def test_inline_subset_order_matches_the_same_order_as_a_lambda(masks):
    inline = Antichain(fixpoint.subset)
    plain = Antichain(lambda a, b: a & b == a)
    for i, key in enumerate(masks):
        word = i.to_bytes(2, "big")
        assert inline.insert(key, word) == plain.insert(key, word)
        assert list(inline) == list(plain)


def test_ac_below_vacuous_and_reflexive():
    assert ac_below([], [frozenset({1})], subset)
    x = [frozenset({1, 2}), frozenset({3})]
    assert ac_below(x, x, subset)


def test_ac_below_definition_unfold():
    assert ac_below([frozenset({1, 2})], [frozenset({1})], subset)
    assert not ac_below([frozenset({1})], [frozenset({1, 2})], subset)


@given(st.lists(sets, max_size=6), st.lists(sets, max_size=6))
def test_ac_below_invariant_under_minor(s, t):
    assert ac_below(s, t, subset) == ac_below(minor(s, subset), minor(t, subset), subset)


def test_kleene_identity_stops_immediately():
    result = kleene(lambda x: x, frozenset(), lambda a, b: a == b)
    assert result.value == frozenset()
    assert result.iterations == 1


def test_kleene_reachability_closure():
    edges = {0: {1}, 1: {2}, 2: {2}, 3: {0}}

    def step(s):
        out = set(s) | {0}
        for q in s:
            out |= edges[q]
        return frozenset(out)

    result = kleene(step, frozenset(), lambda a, b: a == b)
    assert result.value == frozenset({0, 1, 2})


def test_kleene_monotone_iterates_grow():
    seen = []

    def step(s):
        seen.append(s)
        return frozenset(set(s) | {len(s)}) if len(s) < 5 else s

    kleene(step, frozenset(), lambda a, b: a == b)
    for earlier, later in zip(seen, seen[1:]):
        assert earlier <= later


def test_kleene_cap_raises():
    with pytest.raises(KleeneDivergence):
        kleene(lambda x: x + 1, 0, lambda a, b: a == b, max_iter=10)


def test_word_antichain_iterates_nondecreasing(fig42_n1, fig42_n2):
    # the union-with-base step keeps per-state antichains growing in the
    # antichain order
    from wqlang.inclusion import state_handle, word_fixpoint

    handle = state_handle(fig42_n2, "left")
    vec, _, _ = word_fixpoint(fig42_n1, handle)
    step = word_step_oracle(fig42_n1, handle)
    # replay the iteration manually and compare successive iterates
    prev = [Antichain(handle.leq) for _ in range(fig42_n1.state_count)]
    for _ in range(6):
        nxt = step(prev)
        for a, b in zip(prev, nxt):
            assert ac_below(a, b, handle.leq)
        prev = nxt
    # past the fixpoint the stored representative words may drift between
    # equivalent keys, so compare in the antichain order
    for a, b in zip(prev, vec):
        assert ac_below(a, b, handle.leq) and ac_below(b, a, handle.leq)
