import hashlib
import random
from functools import reduce
from operator import or_

import pytest
from hypothesis import given, settings, strategies as st

from wqlang import Nfa, canonical, equivalence_counterexample, nl_learn, residual
from wqlang.learn import LearnerDiverged, ObservationState
from wqlang.quasiorder import QuasiorderHandle
from wqlang.residual import isomorphic_to_canonical

from conftest import A, B, examples, rand_nfa


def make_teacher(target: Nfa):
    calls = []

    def teacher(word: bytes) -> bool:
        calls.append(word)
        return target.member(word)

    return teacher, calls


def make_oracle(target: Nfa):
    queries = []

    def oracle(candidate: Nfa):
        queries.append(candidate)
        return equivalence_counterexample(candidate, target)

    return oracle, queries


def test_learn_everything_language():
    target = Nfa(1, [(0, A, 0), (0, B, 0)], [0], [0])
    teacher, _ = make_teacher(target)
    oracle, queries = make_oracle(target)
    learned = nl_learn(teacher, oracle, [A, B])
    assert equivalence_counterexample(learned, target) is None
    assert learned.state_count == 1
    assert len(queries) <= 2
    assert isomorphic_to_canonical(learned, canonical(target))


def test_learn_small_targets_canonical():
    rng = random.Random(80)
    learned_count = 0
    while learned_count < 25:
        target = rand_nfa(rng, max_states=3, n_syms=2)
        if target.determinize().minimize().state_count > 4:
            continue
        learned_count += 1
        teacher, _ = make_teacher(target)
        oracle, _ = make_oracle(target)
        learned = nl_learn(teacher, oracle, [A, B])
        assert equivalence_counterexample(learned, target) is None
        assert isomorphic_to_canonical(learned, canonical(target))


def test_learner_only_uses_callbacks():
    target = Nfa(2, [(0, A, 1), (1, B, 0)], [0], [0])
    teacher, member_calls = make_teacher(target)
    oracle, eq_calls = make_oracle(target)
    learned = nl_learn(teacher, oracle, [A, B])
    assert member_calls, "membership must flow through the teacher"
    assert eq_calls, "equivalence must flow through the oracle"
    assert equivalence_counterexample(learned, target) is None


def test_observation_rows_and_quasiorder_agree():
    target = Nfa(2, [(0, A, 0), (0, B, 1), (1, B, 1)], [0], [1])  # a*b+

    tables = []

    def snapshot(obs: ObservationState, hypothesis: Nfa):
        tables.append((list(obs.prefixes), list(obs.suffixes)))
        words = list(obs.prefixes) + [
            p + bytes([a]) for p in obs.prefixes for a in obs.alphabet
        ]
        for u in words:
            for v in words:
                # row containment must coincide with suffix-restricted
                # residual inclusion queried independently
                quot_u = {s for s in obs.suffixes if target.member(u + s)}
                quot_v = {s for s in obs.suffixes if target.member(v + s)}
                assert obs.row_leq(u, v) == (quot_u <= quot_v)
        # join of strictly-below rows equals the union of their quotients
        for u in words:
            join = obs.join_below(u)
            union = set()
            for p in obs.prefixes:
                qp = {s for s in obs.suffixes if target.member(p + s)}
                qu = {s for s in obs.suffixes if target.member(u + s)}
                if qp != qu and qp <= qu:
                    union |= qp
            assert {s for i, s in enumerate(obs.suffixes) if join >> i & 1} == union

    learned = nl_learn(target.member, lambda c: equivalence_counterexample(c, target), [A, B], on_hypothesis=snapshot)
    assert tables
    assert equivalence_counterexample(learned, target) is None


def test_below_join_agrees_with_is_prime(monkeypatch):
    # build_automaton's composite test, given the representatives build_H
    # lists below a row, decides primality exactly as is_prime does over P
    calls = []
    real_build_H = residual.build_H

    def spy(handle, keys, composite, symbols):
        calls.append((keys, handle.leq, composite))
        return real_build_H(handle, keys, composite, symbols)

    monkeypatch.setattr(residual, "build_H", spy)
    seen = {True: 0, False: 0}

    def snapshot(obs: ObservationState, hypothesis: Nfa):
        keys, leq, composite = calls[-1]
        # the keys are the P-rows; each stands for its first P-word
        firsts = {}
        for p in obs.prefixes:
            firsts.setdefault(obs.row(p), p)
        assert keys == list(firsts)
        for row in keys:
            below = [r for r in keys if leq(r, row) and not leq(row, r)]
            verdict = composite(row, below)
            assert verdict == (not obs.is_prime(firsts[row]))
            seen[verdict] += 1

    rng = random.Random(81)
    for _ in range(30):
        target = rand_nfa(rng, max_states=5, n_syms=2)
        learned = nl_learn(
            target.member,
            lambda c: equivalence_counterexample(c, target),
            [A, B],
            on_hypothesis=snapshot,
        )
        assert equivalence_counterexample(learned, target) is None
    assert seen[True] >= 10 and seen[False] >= 50


def test_row_keys_build_the_hypothesis_of_word_keys_under_row_containment():
    # build_automaton keys the row masks themselves under fixpoint.subset;
    # keying the representative words under row_leq must build the same
    # automaton
    def word_keyed(obs: ObservationState) -> Nfa:
        firsts = {}
        for p in obs.prefixes:
            firsts.setdefault(obs.row(p), p)
        handle = QuasiorderHandle(
            direction="right",
            key_of=lambda w: w,
            leq=obs.row_leq,
            accepts=obs.member,
            extend=lambda u, a: u + bytes([a]),
        )
        composite = lambda u, below: obs.row(u) == reduce(or_, map(obs.row, below), 0)
        return residual.build_H(handle, list(firsts.values()), composite, obs.alphabet)

    hypotheses = 0

    def snapshot(obs: ObservationState, hypothesis: Nfa):
        nonlocal hypotheses
        assert hypothesis == word_keyed(obs)
        hypotheses += 1

    rng = random.Random(83)
    for _ in range(30):
        target = rand_nfa(rng, max_states=6, n_syms=2)
        nl_learn(
            target.member,
            lambda c: equivalence_counterexample(c, target),
            [A, B],
            on_hypothesis=snapshot,
        )
    assert hypotheses >= 40


def test_prefix_and_suffix_closure_maintained():
    target = Nfa(3, [(0, A, 1), (1, A, 2), (2, B, 2)], [0], [2])

    def snapshot(obs, hypothesis):
        for p in obs.prefixes:
            for cut in range(len(p)):
                assert p[:cut] in obs.prefixes
        for s in obs.suffixes:
            for cut in range(1, len(s) + 1):
                assert s[cut:] in obs.suffixes

    learned = nl_learn(
        target.member, lambda c: equivalence_counterexample(c, target), [A, B], on_hypothesis=snapshot
    )
    assert equivalence_counterexample(learned, target) is None


def test_learner_cap():
    # a lying oracle never accepts; the learner must fail loudly
    target = Nfa(1, [(0, A, 0)], [0], [0])

    def bad_oracle(_candidate):
        return b"a"

    with pytest.raises(LearnerDiverged):
        nl_learn(target.member, bad_oracle, [A], max_queries=5)


def test_learn_empty_language():
    target = Nfa(1, [(0, A, 0)], [0], [])
    learned = nl_learn(
        target.member, lambda c: equivalence_counterexample(c, target), [A]
    )
    assert learned.state_count == 0
    assert equivalence_counterexample(learned, target) is None


# -- the closedness scan against the is_prime reference -----------------------


def _closedness_from_scratch(obs: ObservationState) -> bytes | None:
    """Reference scan: the first extension of a P-word, in P order, whose
    row is no P-row and is prime (``ObservationState.is_prime``)."""
    p_rows = {obs.row(p) for p in obs.prefixes}
    for u in obs.prefixes:
        for a in obs.alphabet:
            ua = u + bytes([a])
            if obs.row(ua) not in p_rows and obs.is_prime(ua):
                return ua
    return None


def test_closedness_defect_agrees_with_the_is_prime_scan_inside_the_learner(monkeypatch):
    checked = []

    def checking(add):
        def add_and_check(obs, word):
            add(obs, word)
            assert obs.closedness_defect() == _closedness_from_scratch(obs)
            checked.append(word)

        return add_and_check

    for name in ("add_prefix", "add_suffix"):
        monkeypatch.setattr(ObservationState, name, checking(getattr(ObservationState, name)))
    rng = random.Random(82)
    for _ in range(40):
        target = rand_nfa(rng, max_states=6, n_syms=2)
        learned = nl_learn(target.member, lambda c: equivalence_counterexample(c, target), [A, B])
        assert equivalence_counterexample(learned, target) is None
    assert len(checked) > 100, len(checked)


_words = st.binary(max_size=4).map(lambda w: bytes(A + x % 2 for x in w))


@settings(max_examples=examples(100), deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    steps=st.lists(st.tuples(st.booleans(), _words), max_size=12),
)
def test_closedness_defect_agrees_with_the_is_prime_scan_after_any_additions(seed, steps):
    # P and S grow in any order, not only as the learner grows them
    target = rand_nfa(random.Random(seed), max_states=5, n_syms=2)
    obs = ObservationState(target.member, [A, B])
    assert obs.closedness_defect() == _closedness_from_scratch(obs)
    for is_prefix, word in steps:
        (obs.add_prefix if is_prefix else obs.add_suffix)(word)
        assert obs.closedness_defect() == _closedness_from_scratch(obs)
        # asked twice without a change, the scan finds the same defect
        assert obs.closedness_defect() == _closedness_from_scratch(obs)


def _tv_nfa(rng: random.Random, n: int, density: float) -> Nfa:
    """A Tabakov–Vardi random NFA over {a, b}: round(density * n)
    transitions per symbol, initial state 0, half the states final."""
    triples = [
        (cell // n, sym, cell % n)
        for sym in (A, B)
        for cell in rng.sample(range(n * n), max(1, round(density * n)))
    ]
    return Nfa(n, triples, [0], rng.sample(range(n), max(1, n // 2)))


def test_teacher_is_asked_the_same_words_in_the_same_order():
    # digest of the call logs of the learner that rescanned every extension
    # of P on every closedness check
    rng = random.Random(22)
    digest = hashlib.sha256()
    for i in range(24):
        target = _tv_nfa(rng, 6 + i % 4, (1.5, 2.0, 2.5)[i % 3])
        teacher, calls = make_teacher(target)
        learned = nl_learn(teacher, lambda c: equivalence_counterexample(c, target), [A, B])
        assert equivalence_counterexample(learned, target) is None
        digest.update(b"|".join(calls) + b"\n")
    assert digest.hexdigest()[:16] == "9395797befb060ef"
