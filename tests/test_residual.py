import random
from functools import reduce
from operator import or_

import pytest
from hypothesis import example, given, settings, strategies as st

import wqlang.automata as automata
import wqlang.residual as residual
from wqlang import (
    Nfa,
    canonical,
    check_dr_condition,
    denis_residualize,
    double_reversal_canonical,
    equivalence_counterexample,
    is_composite,
    is_rfa,
    naive_inclusion,
    nl_learn,
    principals,
    res,
    right_inclusion,
)
from wqlang.automata import DeterminizationCap, bits
from wqlang.fixpoint import subset
from wqlang.formats import dump_nfa
from wqlang.quasiorder import residual_inclusion_matrix, state_handle
from wqlang.residual import build_H, isomorphic_to_canonical

from conftest import A, B, C, accepted_words, examples, make_fig62, rand_nfa, set_of


def _below(key, keys):
    """The principals strictly below ``key``, as ``build_H`` lists them."""
    return [k for k in keys if k != key and k & key == k]


def test_principals_fig62(fig62):
    ps = principals(fig62)
    keys = {frozenset(bits(k)) for k in ps}
    assert keys == {
        frozenset({0}),
        frozenset({1, 2}),
        frozenset({1, 3}),
        frozenset({1, 2, 3, 4}),
        frozenset({5}),
        frozenset(),
    }


def test_principals_single_loop():
    n = Nfa(1, [(0, A, 0)], [0], [0])
    ps = principals(n)
    assert ps == (1,)


def test_principal_count_matches_determinization():
    rng = random.Random(70)
    for _ in range(40):
        n = rand_nfa(rng, max_states=5)
        assert len(principals(n)) == n.determinize().state_count


def test_composite_fig62(fig62):
    ps = principals(fig62)
    included = right_inclusion(fig62)
    flags = {
        frozenset(bits(k)): is_composite(included, k, _below(k, ps)) for k in ps
    }
    assert flags[frozenset({1, 2, 3, 4})]  # the c principal is composite
    assert flags[frozenset()]  # empty post-set is trivially composite
    for prime in ({0}, {1, 2}, {1, 3}, {5}):
        assert not flags[frozenset(prime)]


def test_composite_agrees_with_quotient_enumeration():
    rng = random.Random(71)
    for _ in range(20):
        n = rand_nfa(rng, max_states=4)
        suffixes = [
            bytes(rng.choice([A, B]) for _ in range(rng.randint(0, 5)))
            for _ in range(60)
        ]
        for direction in ("right", "left"):
            # left keys are pre-sets: right languages of the reverse
            fwd = n if direction == "right" else n.reverse()
            ps = principals(fwd)
            included = right_inclusion(fwd)
            for key in ps:
                union_keys = _below(key, ps)
                union = 0
                for k in union_keys:
                    union |= k
                lang_key = fwd.with_initial(bits(key))
                lang_union = fwd.with_initial(bits(union))
                brute_equal = all(
                    bool(lang_key.member(s)) == bool(lang_union.member(s))
                    for s in suffixes
                )
                composite = is_composite(included, key, union_keys)
                assert composite == (
                    equivalence_counterexample(lang_key, lang_union) is None
                )
                if composite:
                    assert brute_equal


def test_res_fig62_smaller_than_denis(fig62):
    r = res(fig62, "right")
    d = denis_residualize(fig62)
    assert r.state_count == 4
    assert d.state_count == 5
    assert equivalence_counterexample(r, fig62) is None
    assert equivalence_counterexample(d, fig62) is None


def test_res_of_canonical_is_itself():
    rng = random.Random(72)
    for _ in range(15):
        n = rand_nfa(rng, max_states=4)
        c = canonical(n)
        if c.state_count == 0:
            continue
        assert isomorphic_to_canonical(res(c, "right"), c)


def test_res_left_duality():
    rng = random.Random(73)
    for _ in range(25):
        n = rand_nfa(rng, max_states=4)
        assert res(n, "left") == res(n.reverse(), "right").reverse()


def test_canonical_fig62(fig62):
    c = canonical(fig62)
    assert c.state_count == 4
    assert equivalence_counterexample(c, fig62) is None
    assert isomorphic_to_canonical(res(fig62, "right"), c)


def test_canonical_all_residuals_prime_is_saturated_min_dfa():
    # L = a(ba)*: the minimal DFA residuals are all prime
    n = Nfa(2, [(0, A, 1), (1, B, 0)], [0], [1])
    c = canonical(n)
    m = n.determinize().minimize()
    assert c.state_count == sum(
        1 for p in range(m.state_count)
    ) - (1 if _has_dead_state(m) else 0)
    assert equivalence_counterexample(c, n) is None


def _has_dead_state(m):
    # a nonempty right language has a word shorter than the state count
    return any(
        next(accepted_words(m.with_initial([p]), m.state_count), None) is None
        for p in range(m.state_count)
    )


def test_canonical_left_right_duality(fig62):
    left = canonical(fig62, "left")
    assert equivalence_counterexample(left, fig62) is None
    assert left == canonical(fig62.reverse(), "right").reverse()


def test_canonical_via_double_left_right(fig62):
    # residualizing the left residualization lands on the canonical RFA
    via = res(res(fig62, "left"), "right")
    assert isomorphic_to_canonical(via, canonical(fig62))


def test_denis_on_dfa_is_saturated_determinization(fig31):
    d = fig31.determinize()
    out = denis_residualize(d)
    assert equivalence_counterexample(out, d) is None
    assert is_rfa(out)


def test_double_reversal_isomorphic_to_canonical():
    rng = random.Random(74)
    for _ in range(25):
        n = rand_nfa(rng, max_states=4)
        assert isomorphic_to_canonical(double_reversal_canonical(n), canonical(n))


def test_double_reversal_empty_language():
    n = Nfa(1, [(0, A, 0)], [0], [])
    assert double_reversal_canonical(n).state_count == canonical(n).state_count == 0


def test_check_dr_implies_res_canonical():
    rng = random.Random(75)
    seen_true = seen_false = False
    for _ in range(60):
        n = rand_nfa(rng, max_states=4)
        holds = check_dr_condition(n)
        iso = isomorphic_to_canonical(res(n, "right"), canonical(n))
        if holds:
            assert iso
        seen_true |= holds
        seen_false |= not holds
    assert seen_true and seen_false


def test_check_dr_reverse_direction_is_strictly_weaker():
    # Residualization can land on the canonical automaton even though the
    # closedness condition fails: collapsing composite principals may erase
    # the difference between the state-based and residual-inclusion
    # quasiorders. Pin a minimal witness so the strictness stays visible.
    n = Nfa(2, [(0, A, 0), (0, A, 1), (0, B, 0), (1, A, 1)], [0], [0, 1])
    assert equivalence_counterexample(
        n, Nfa(1, [(0, A, 0), (0, B, 0)], [0], [0])
    ) is None  # the language is everything
    assert isomorphic_to_canonical(res(n, "right"), canonical(n))
    assert not check_dr_condition(n)


def _dr_condition_by_definition(n):
    """The closedness condition from its definition: a product walk finds
    the minimal-DFA states met with each state on a common word, and each
    state's left language must equal the words reaching the upward closure
    of those states under residual inclusion."""
    mc = n.determinize().minimize()
    incl = residual_inclusion_matrix(mc)
    met = [0] * n.state_count
    stack = [(q, mc.initial_state) for q in bits(n.initial_mask)]
    seen = set(stack)
    while stack:
        q, p = stack.pop()
        met[q] |= 1 << p
        for sym in n.alphabet:
            for pair in ((q2, mc.dnext(p, sym)) for q2 in bits(n.step(1 << q, sym))):
                if pair not in seen:
                    seen.add(pair)
                    stack.append(pair)
    for q in range(n.state_count):
        up = 0
        for p in bits(met[q]):
            up |= incl[p]
        if equivalence_counterexample(n.with_final([q]), mc.with_final(bits(up))) is not None:
            return False
    return True


@settings(max_examples=examples(150), deadline=None)
@given(n=st.integers(0, 2**32 - 1).map(lambda seed: rand_nfa(random.Random(seed), max_states=6)))
@example(n=Nfa(3, [(0, A, 1), (1, B, 0), (2, A, 0)], [0], [1]))  # state 2 is unreachable
@example(n=Nfa(2, [], [0], [0, 1]))  # no transitions, an empty alphabet
def test_check_dr_agrees_with_its_definition(n):
    assert check_dr_condition(n) == _dr_condition_by_definition(n)


def test_check_dr_on_canonical_and_incomparable_minimal(fig62):
    assert check_dr_condition(canonical(fig62))
    # a minimal DFA whose residuals are pairwise incomparable satisfies the
    # condition: even number of a's
    parity = Nfa(2, [(0, A, 1), (1, A, 0), (0, B, 0), (1, B, 1)], [0], [0])
    m = parity.determinize().minimize()
    assert check_dr_condition(m)


def test_fig62_witnesses_denis_one_way(fig62):
    # the closedness condition holds and res is canonical, yet the classic
    # residualization is strictly larger, hence not canonical
    assert check_dr_condition(fig62)
    assert denis_residualize(fig62).state_count > canonical(fig62).state_count


def test_is_rfa_dfa_always(fig31):
    assert is_rfa(fig31.determinize())


def test_is_rfa_fig62(fig62):
    assert not is_rfa(fig62)
    for build in (res, lambda n: denis_residualize(n)):
        assert is_rfa(build(fig62))
    assert is_rfa(canonical(fig62))


def test_size_ordering():
    rng = random.Random(76)
    for _ in range(30):
        n = rand_nfa(rng, max_states=4)
        k_can = canonical(n).state_count
        k_res = res(n, "right").state_count
        k_denis = denis_residualize(n).state_count
        assert k_can <= k_res <= k_denis


def test_language_preservation_all_constructions():
    rng = random.Random(77)
    for _ in range(25):
        n = rand_nfa(rng, max_states=4)
        for out in (res(n, "right"), res(n, "left"), canonical(n), denis_residualize(n)):
            assert equivalence_counterexample(out, n) is None


# -- the composite test's pair walk ------------------------------------------------


def _eighteenth_letter_is_a() -> Nfa:
    """19 states for (a|b){17}a(a|b)*: its subset construction is a chain,
    that of its reverse needs 2^18 sets."""
    chain = [(q, sym, q + 1) for q in range(17) for sym in (A, B)]
    return Nfa(19, chain + [(17, A, 18), (18, A, 18), (18, B, 18)], [0], [18])


def test_walk_needs_no_reverse_subsets(monkeypatch):
    # Deciding composites by the subsets of the reversed automaton (the
    # co-subsets of Kameda and Weiner) would pass any budget below 2^18 on
    # this NFA; the forward walk stays within the forward construction.
    n = _eighteenth_letter_is_a()
    c, r = canonical(n), res(n)
    assert is_rfa(c) and equivalence_counterexample(c, n) is None
    assert equivalence_counterexample(r, n) is None
    assert c.state_count == r.state_count == 19
    monkeypatch.setattr(automata, "MAX_DFA_STATES", 1024)
    assert canonical(n) == c and res(n) == r
    with pytest.raises(DeterminizationCap):
        n.reverse().determinize()
    # double reversal residualizes the reverse first, so it needs those sets
    with pytest.raises(DeterminizationCap):
        double_reversal_canonical(n)


def test_walk_is_bounded_by_the_subset_budget(monkeypatch):
    # five principals, but the unions below them reach a sixth mask
    n = Nfa(
        5,
        [
            (0, B, 2), (1, A, 1), (1, B, 1), (1, B, 3), (2, A, 1), (2, B, 0), (2, B, 1),
            (2, B, 3), (3, A, 4), (3, B, 3), (3, B, 4), (4, A, 4), (4, B, 4),
        ],
        [0, 1, 3],
        [4],
    )
    monkeypatch.setattr(automata, "MAX_DFA_STATES", 5)
    assert len(principals(n)) == 5
    with pytest.raises(DeterminizationCap):
        res(n)
    monkeypatch.setattr(automata, "MAX_DFA_STATES", 6)
    assert equivalence_counterexample(res(n), n) is None


def test_res_reads_prime_successors_off_its_subset_construction(monkeypatch):
    # res and denis_residualize hand build_H the state handle with an extend
    # that reads the lazy subset construction their keys were walked on: the
    # same bytes as stepping each prime with Nfa.step, and no step call from
    # build_H
    step, build = Nfa.step, residual.build_H
    open_frames, steps = [0], [0]  # build_H calls running, Nfa.step calls in them

    def spy_step(self, s, sym):
        steps[0] += open_frames[0] > 0
        return step(self, s, sym)

    def spy_build_H(*args):
        open_frames[0] += 1
        try:
            return build(*args)
        finally:
            open_frames[0] -= 1

    monkeypatch.setattr(Nfa, "step", spy_step)
    monkeypatch.setattr(residual, "build_H", spy_build_H)
    for seed in range(examples(60)):
        n = rand_nfa(random.Random(seed), max_states=6, density=0.3)
        included = right_inclusion(n)
        for construction, composite in (
            (res, lambda key, below: is_composite(included, key, below)),
            (denis_residualize, lambda key, below: reduce(or_, below, 0) == key),
        ):
            before = steps[0]
            out = construction(n)
            assert steps[0] == before
            stepped = residual.build_H(
                state_handle(n, "right"), principals(n), composite, sorted(n.alphabet)
            )
            assert dump_nfa(out) == dump_nfa(stepped)
    assert steps[0]  # the spy does see build_H's steps on the stepped route


@settings(max_examples=examples(60), deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    pairs=st.lists(
        st.tuples(st.integers(0, 63), st.integers(0, 63), st.booleans()), min_size=1, max_size=8
    ),
)
@example(seed=0, pairs=[(63, 0, True)])
def test_right_inclusion_agrees_with_naive(seed, pairs):
    n = rand_nfa(random.Random(seed), max_states=6, density=0.3)
    full = (1 << n.state_count) - 1
    included = right_inclusion(n)
    # asked twice over on one helper, so later calls meet the pairs that
    # earlier ones proved safe; a union below the key is is_composite's case
    for _ in range(2):
        for k, u, below in pairs:
            key, union = k & full, (k & u if below else u) & full
            expected = naive_inclusion(n.with_initial(bits(key)), n.with_initial(bits(union)))
            assert included(key, union) == expected.included


@settings(max_examples=examples(30), deadline=None)
@given(seed=st.integers(0, 2**32 - 1))
def test_constructions_agree_on_generated_nfas(seed):
    # the learner decides composites by rows, not by the pair walk, so it
    # checks canonical, which shares the walk with res and double reversal
    n = rand_nfa(random.Random(seed), max_states=5)
    c = canonical(n)
    assert equivalence_counterexample(c, n) is None
    assert isomorphic_to_canonical(double_reversal_canonical(n), c)
    learned = nl_learn(n.member, lambda h: equivalence_counterexample(h, n), [A, B])
    assert isomorphic_to_canonical(learned, c)
    assert equivalence_counterexample(res(n), n) is None


@settings(max_examples=examples(100), deadline=None)
@given(seed=st.integers(0, 2**32 - 1))
def test_build_H_compares_subset_keys_inline_without_changing_the_automaton(seed):
    # build_H runs fixpoint.subset inline; any other callable, even one
    # deciding the same order, takes the generic route
    n = rand_nfa(random.Random(seed), max_states=6, density=0.3)
    included = right_inclusion(n)
    handle = state_handle(n, "right")._replace(leq=lambda a, b: subset(a, b))
    for construction, composite in (
        (res, lambda key, below: is_composite(included, key, below)),
        (denis_residualize, lambda key, below: reduce(or_, below, 0) == key),
    ):
        generic = build_H(handle, principals(n), composite, sorted(n.alphabet))
        inline = construction(n)
        assert inline == generic and type(inline) is type(generic) is Nfa
        # the tables build_H fills match the validating constructor's
        rebuilt = Nfa(inline.state_count, inline._triples, inline.initial, inline.final)
        assert inline == rebuilt and inline.alphabet == rebuilt.alphabet


@settings(max_examples=examples(60), deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    pairs=st.lists(st.tuples(st.integers(0, 63), st.integers(0, 63)), min_size=1, max_size=8),
)
def test_right_inclusion_seeded_by_the_subset_construction_agrees(seed, pairs):
    n = rand_nfa(random.Random(seed), max_states=6, density=0.3)
    full = (1 << n.state_count) - 1
    walked = []

    def recording(*args):
        walked.append(automata.subset_successors(*args))
        return walked[-1]

    # the construction principals walked, as res hands it over
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(residual, "subset_successors", recording)
        principals(n)
    seeded, fresh = right_inclusion(n, walked[0]), right_inclusion(n)
    for k, u in pairs:
        assert seeded(k & full, u & full) == fresh(k & full, u & full)


@settings(max_examples=examples(100), deadline=None)
@given(seed=st.integers(0, 2**32 - 1), density=st.sampled_from([0.1, 0.2, 0.3, 0.5]))
def test_principals_list_the_subsets_of_determinize_in_its_order(seed, density):
    # sparse NFAs reach the empty set; it is a principal like any other
    n = rand_nfa(random.Random(seed), max_states=6, density=density)
    assert principals(n) == n.determinize().source_subsets


def test_principals_include_the_empty_set_when_reached():
    n = Nfa(2, [(0, A, 1)], [0], [1])
    assert principals(n) == n.determinize().source_subsets == (0b01, 0b10, 0)
