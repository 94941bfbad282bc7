import random

import pytest
from hypothesis import example, given, settings, strategies as st

import wqlang.automata as automata
from wqlang import Dfa, Nfa, compile_regex, equivalence_counterexample, naive_inclusion, parse_regex
from wqlang.automata import DeterminizationCap, Verdict, bits, mask_of

from conftest import A, B, C, examples, make_fig31, rand_dfa, rand_nfa, set_of


def test_step_fig41(fig41):
    assert set_of(fig41.step(mask_of([0]), B)) == {1}
    assert set_of(fig41.step(mask_of([0]), A)) == {0}


def test_step_empty_set(fig41):
    assert fig41.step(0, A) == 0
    assert fig41.reverse().step(0, B) == 0


def test_step_symbol_outside_alphabet(fig41):
    assert fig41.step(mask_of([0, 1]), C) == 0


def test_step_agrees_with_transition_table():
    rng = random.Random(1)
    for _ in range(50):
        n = rand_nfa(rng, max_states=4, n_syms=3)
        for sym in n.alphabet:
            for s in range(1 << n.state_count):
                expected = set()
                for p in bits(s):
                    expected |= n.transitions.get((p, sym), frozenset())
                assert set_of(n.step(s, sym)) == expected


def test_run_backward_fig42(fig42_n2):
    # pre_ab(F) = {q1}, i.e. state 0
    assert set_of(fig42_n2.reverse().run(b"ab"[::-1])) == {0}
    assert set_of(fig42_n2.reverse().run(b"ac"[::-1])) == {0, 1}


def test_run_empty_word(fig42_n1):
    assert fig42_n1.run(b"") == fig42_n1.initial_mask
    assert fig42_n1.reverse().run(b"") == fig42_n1.final_mask


def test_run_is_fold_of_step():
    rng = random.Random(2)
    for _ in range(30):
        n = rand_nfa(rng, max_states=4, n_syms=2)
        for _ in range(10):
            w = bytes(rng.choice([A, B]) for _ in range(rng.randint(0, 4)))
            s = n.initial_mask
            for sym in w:
                s = n.step(s, sym)
            assert n.run(w) == s


def test_run_concatenation_composes():
    rng = random.Random(3)
    for _ in range(30):
        n = rand_nfa(rng, max_states=5, n_syms=2)
        for _ in range(10):
            u = bytes(rng.choice([A, B]) for _ in range(rng.randint(0, 4)))
            v = bytes(rng.choice([A, B]) for _ in range(rng.randint(0, 4)))
            via = n.run(u + v)
            stepwise = n.run(u)
            for sym in v:
                stepwise = n.step(stepwise, sym)
            assert via == stepwise


def test_member_fig42(fig42_n1, fig42_n2):
    assert not fig42_n2.member(b"c")
    assert fig42_n1.member(b"c")
    assert fig42_n2.member(b"aa") and fig42_n2.member(b"bb")


def test_member_epsilon():
    n = Nfa(2, [(0, A, 1)], [0], [0])
    assert n.member(b"")


def test_member_agrees_with_path_enumeration():
    rng = random.Random(4)
    for _ in range(20):
        n = rand_nfa(rng, max_states=4, n_syms=2)
        accepted = set(n.accepted_words(5))
        for length in range(6):
            for w in _all_words(length):
                assert n.member(w) == (w in accepted)


def _all_words(length, syms=(A, B)):
    if length == 0:
        yield b""
        return
    for w in _all_words(length - 1, syms):
        for s in syms:
            yield w + bytes([s])


def test_reverse_involution():
    rng = random.Random(5)
    for _ in range(20):
        n = rand_nfa(rng)
        assert n.reverse().reverse() == n


def test_reverse_self_loop():
    n = Nfa(1, [(0, A, 0)], [0], [0])
    assert n.reverse() == n


def test_reverse_palindromic_language(fig31):
    # (Sigma* a Sigma a Sigma*)^R is the same language
    assert equivalence_counterexample(fig31.reverse(), fig31) is None


def test_member_survives_determinize_and_double_reverse():
    rng = random.Random(6)
    for _ in range(20):
        n = rand_nfa(rng, max_states=5)
        d = n.determinize()
        rr = n.reverse().reverse()
        for length in range(6):
            for w in _all_words(length):
                assert n.member(w) == d.member(w) == rr.member(w)


def test_determinize_fig31_subsets():
    d = make_fig31().determinize()
    assert d.state_count == 8
    subsets = {frozenset(bits(m)) for m in d.source_subsets}
    assert frozenset({0}) in subsets and frozenset({0, 1, 2, 3}) in subsets


def test_determinize_deterministic_input_isomorphic(fig31):
    d = fig31.determinize()
    again = d.determinize()
    assert again.state_count == d.state_count
    assert equivalence_counterexample(d, again) is None


def test_determinize_preserves_language():
    rng = random.Random(7)
    for _ in range(30):
        n = rand_nfa(rng, max_states=5)
        assert equivalence_counterexample(n, n.determinize()) is None


def test_minimize_fig31_merges_equal_right_languages():
    d = make_fig31().determinize()
    m = d.minimize()
    # the four subsets containing the accepting loop state share one class
    assert m.state_count == d.state_count - 3
    assert equivalence_counterexample(m, d) is None


def test_minimize_idempotent_and_language_preserving():
    rng = random.Random(8)
    for _ in range(30):
        d = rand_nfa(rng, max_states=5).determinize()
        m = d.minimize()
        assert m.minimize().state_count == m.state_count
        assert m.minimize() == m
        assert equivalence_counterexample(m, d) is None


def test_minimize_minimal_input_same_size():
    m = make_fig31().determinize().minimize()
    assert m.minimize().state_count == m.state_count


def _bfs_minimize(dfa: Dfa) -> Dfa:
    """Reference minimization: Moore refinement over the reachable states,
    then a breadth-first renumbering of the classes, by state, then by
    ascending symbol."""
    syms = sorted(dfa.alphabet)
    d = dfa.complete(syms)
    rows = [d._succ[sym] for sym in syms]
    start = d.initial_state
    reach = [start]
    for p in reach:
        reach += [q for q in dict.fromkeys(row[p] for row in rows) if q not in reach]
    cls = [d.final_mask >> p & 1 for p in range(d.state_count)]
    count = len({cls[p] for p in reach})
    while True:
        renum: dict[tuple, int] = {}
        new_cls = cls[:]
        for p in reach:
            new_cls[p] = renum.setdefault((cls[p], *[cls[row[p]] for row in rows]), len(renum))
        cls = new_cls
        if len(renum) == count:
            break
        count = len(renum)
    rep: dict[int, int] = {}
    for p in reach:
        rep.setdefault(cls[p], p)
    order = [cls[start]]
    triples = []
    for i, c in enumerate(order):
        for sym, row in zip(syms, rows):
            tc = cls[row[rep[c]]]
            if tc not in order:
                order.append(tc)
            triples.append((i, sym, order.index(tc)))
    final = [j for j, c in enumerate(order) if d.final_mask >> rep[c] & 1]
    return Dfa(len(order), triples, [0], final)


@settings(max_examples=examples(150), deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    n_syms=st.integers(1, 3),
    density=st.sampled_from((0.4, 0.7, 1.0)),
)
def test_minimize_matches_the_breadth_first_reference(seed, n_syms, density):
    rng = random.Random(seed)
    d = rand_dfa(rng, max_states=7, n_syms=n_syms, density=density)
    # the same DFA with a disjoint copy of itself that nothing reaches
    k = d.state_count
    padded = Dfa(
        2 * k,
        [*d._triples, *[(p + k, sym, q + k) for p, sym, q in d._triples]],
        d.initial,
        [*d.final, *[q + k for q in d.final]],
    )
    m = d.minimize()
    assert m.source_subsets is None
    _assert_same(m, _bfs_minimize(d))
    _assert_same(padded.minimize(), m)
    _assert_same(_bfs_minimize(padded), m)


def test_naive_inclusion_fig42(fig42_n1, fig42_n2):
    verdict = naive_inclusion(fig42_n1, fig42_n2)
    assert not verdict.included
    assert len(verdict.witness) == 1
    assert fig42_n1.member(verdict.witness)
    assert not fig42_n2.member(verdict.witness)


def test_naive_inclusion_trivial_cases(fig42_n2):
    empty = Nfa(1, [(0, A, 0)], [0], [])
    assert naive_inclusion(empty, fig42_n2).included
    assert naive_inclusion(fig42_n2, fig42_n2).included


def test_naive_inclusion_witness_always_verifies():
    rng = random.Random(9)
    for _ in range(100):
        a, b = rand_nfa(rng), rand_nfa(rng)
        v = naive_inclusion(a, b)
        if not v.included:
            assert a.member(v.witness) and not b.member(v.witness)


def test_equivalence_counterexample_none_for_equal():
    rng = random.Random(10)
    for _ in range(20):
        n = rand_nfa(rng)
        assert equivalence_counterexample(n, n) is None


def test_equivalence_counterexample_shortest():
    # L(a) = {ab, bb}, L(b) = {ab} -> "bb"
    a = Nfa(3, [(0, A, 1), (0, B, 1), (1, B, 2)], [0], [2])
    b = Nfa(3, [(0, A, 1), (1, B, 2)], [0], [2])
    assert equivalence_counterexample(a, b) == b"bb"


def test_equivalence_counterexample_contract():
    rng = random.Random(11)
    for _ in range(100):
        a, b = rand_nfa(rng), rand_nfa(rng)
        w = equivalence_counterexample(a, b)
        if w is not None:
            assert a.member(w) != b.member(w)


def test_nfa_validation_errors():
    with pytest.raises(ValueError):
        Nfa(1, [(0, A, 1)], [0], [])
    with pytest.raises(ValueError):
        Nfa(1, [(0, 300, 0)], [0], [])
    with pytest.raises(ValueError):
        Nfa(1, [], [2], [])


# -- the lean core against the validating constructor ------------------------


def _rebuilt(a: Nfa) -> Nfa:
    """The same automaton through the validating constructor, from its
    triple view."""
    cls = Dfa if isinstance(a, Dfa) else Nfa
    return cls(a.state_count, a._triples, a.initial, a.final)


def _assert_same(derived: Nfa, reference: Nfa) -> None:
    assert type(derived) is type(reference)
    assert derived == reference and hash(derived) == hash(reference)
    assert derived.transitions == reference.transitions
    assert derived.initial == reference.initial
    assert derived.final == reference.final
    # a symbol is in the alphabet exactly when it has a transition
    assert derived.alphabet == reference.alphabet == {sym for _p, sym in derived.transitions}
    syms = sorted(derived.alphabet) + [255]
    for p in range(derived.state_count):
        for sym in syms:
            assert derived.step(1 << p, sym) == reference.step(1 << p, sym)
            assert derived.reverse().step(1 << p, sym) == reference.reverse().step(1 << p, sym)
            if isinstance(derived, Dfa):
                assert derived.dnext(p, sym) == reference.dnext(p, sym)


def _subset_construction(n: Nfa, syms: list[int]) -> Dfa:
    """Reference determinization: one validated triple per step."""
    index = {n.initial_mask: 0}
    order = [n.initial_mask]
    triples = []
    for m in order:
        for sym in syms:
            t = n.step(m, sym)
            if t not in index:
                index[t] = len(order)
                order.append(t)
            triples.append((index[m], sym, index[t]))
    final = [i for i, m in enumerate(order) if m & n.final_mask]
    return Dfa(len(order), triples, [0], final, source_subsets=tuple(order))


def _completed(d: Dfa, syms: list[int]) -> Dfa:
    """Reference completion: the missing triples plus a looping sink."""
    missing = [(p, s) for p in range(d.state_count) for s in syms if d.dnext(p, s) is None]
    if not missing:
        return d
    sink = d.state_count
    triples = [*d._triples, *((p, s, sink) for p, s in missing), *((sink, s, sink) for s in syms)]
    return Dfa(sink + 1, triples, d.initial, d.final)


def test_derived_nfas_match_the_validating_constructor():
    rng = random.Random(90)
    for _ in range(60):
        n = rand_nfa(rng, max_states=6, n_syms=3)
        k, triples = n.state_count, n._triples
        init = [q for q in range(k) if rng.random() < 0.4]
        fin = [q for q in range(k) if rng.random() < 0.4]
        _assert_same(n, _rebuilt(n))
        _assert_same(n.with_initial(init), Nfa(k, triples, init, n.final))
        _assert_same(n.with_final(fin), Nfa(k, triples, n.initial, fin))
        rev = n.reverse()
        _assert_same(rev, Nfa(k, [(q, s, p) for p, s, q in triples], n.final, n.initial))
        _assert_same(rev.reverse(), n)
        _assert_same(rev.with_initial(init), _rebuilt(rev).with_initial(init))
        d = n.determinize()
        reference = _subset_construction(n, sorted(n.alphabet))
        _assert_same(d, reference)
        assert d.source_subsets == reference.source_subsets
        syms = sorted(n.alphabet | {C})
        _assert_same(d.complete(syms), _completed(reference, syms))
        for bad in ([k], [-1]):
            with pytest.raises(ValueError):
                n.with_initial(bad)
            with pytest.raises(ValueError):
                n.with_final(bad)
        with pytest.raises(ValueError):
            n.determinize().complete([A, 256])


def test_derived_dfas_match_the_validating_constructor():
    rng = random.Random(91)
    for _ in range(60):
        k = rng.randint(1, 6)
        syms = [A, B, C][: rng.randint(1, 3)]
        moves = [(p, s, rng.randrange(k)) for p in range(k) for s in syms if rng.random() < 0.7]
        fin = [q for q in range(k) if rng.random() < 0.4]
        d = Dfa(k, moves, [0], fin)
        triples = d._triples
        _assert_same(d, _rebuilt(d))
        for p in range(k):
            _assert_same(d.with_initial([p]), Dfa(k, triples, [p], d.final))
            _assert_same(d.with_initial([p]).with_final(fin), Dfa(k, triples, [p], fin))
        _assert_same(d.with_final([]), Dfa(k, triples, d.initial, []))
        several = d.with_initial(range(k)) if k > 1 else d.with_initial([])
        _assert_same(several, Nfa(k, triples, several.initial, d.final))
        for over in (syms, syms[:1], sorted(set(syms) | {C, 0})):
            _assert_same(d.complete(over), _completed(d, over))
        m = d.minimize()
        _assert_same(m, _rebuilt(m))
        _assert_same(m, _rebuilt(d).minimize())
        _assert_same(m, _completed(d, sorted(d.alphabet)).minimize())
        assert equivalence_counterexample(m, d) is None
        _assert_same(d.determinize(), _subset_construction(d, sorted(d.alphabet)))
        for bad in ([k], [-1]):
            with pytest.raises(ValueError):
                d.with_initial(bad)
            with pytest.raises(ValueError):
                d.with_final(bad)
        with pytest.raises(ValueError):
            d.complete([A, 300])


def test_dfa_validation_errors():
    with pytest.raises(ValueError):
        Dfa(2, [(0, A, 1)], [0, 1], [])
    with pytest.raises(ValueError):
        Dfa(2, [(0, A, 1), (0, A, 0)], [0], [])
    with pytest.raises(ValueError):
        Dfa(2, [(0, A, 2)], [0], [])


@pytest.mark.parametrize("pattern", ["(ab)*c", "a[bc]+|d", "(a|b)*a(a|b){3}", "a?b?"])
def test_compiled_nfas_match_the_validating_constructor(pattern):
    nfa = compile_regex(parse_regex(pattern), allow_empty=True)
    _assert_same(nfa, _rebuilt(nfa))
    _assert_same(nfa.reverse(), _rebuilt(nfa).reverse())


# -- the on-the-fly product walk against the determinized product -------------


def _dfa_product_search(a: Nfa, b: Nfa, bad) -> bytes | None:
    """Reference route: determinize both sides and complete them over the
    joint alphabet, then search the product of the two DFAs breadth-first,
    in ascending symbol order; ``bad`` reads whether each side's DFA state
    is final."""
    syms = sorted(a.alphabet | b.alphabet)
    da, db = a.determinize().complete(syms), b.determinize().complete(syms)
    start = (da.initial_state, db.initial_state)
    parent = {start: None}
    queue = [start]
    for pair in queue:
        p, q = pair
        if bad(da.final_mask >> p & 1, db.final_mask >> q & 1):
            word = bytearray()
            while parent[pair] is not None:
                pair, sym = parent[pair]
                word.append(sym)
            return bytes(reversed(word))
        for sym in syms:
            nxt = (da.dnext(p, sym), db.dnext(q, sym))
            if nxt not in parent:
                parent[nxt] = (pair, sym)
                queue.append(nxt)
    return None


@st.composite
def _small_nfas(draw) -> Nfa:
    """Up to 5 states over a drawn subset of {a, b, c}, so that two draws
    may have disjoint alphabets, no states or no final state."""
    count = draw(st.integers(0, 5))
    syms = sorted(draw(st.sets(st.sampled_from([A, B, C]))))
    if not count:
        return Nfa(0, [], [], [])
    state = st.integers(0, count - 1)
    triples = draw(st.lists(st.tuples(state, st.sampled_from(syms), state), max_size=14)) if syms else []
    return Nfa(count, triples, draw(st.sets(state, max_size=3)), draw(st.sets(state, max_size=3)))


@settings(max_examples=examples(300), deadline=None)
@given(a=_small_nfas(), b=_small_nfas())
@example(a=Nfa(0, [], [], []), b=Nfa(0, [], [], []))
@example(a=Nfa(0, [], [], []), b=Nfa(1, [(0, A, 0)], [0], [0]))
@example(a=Nfa(1, [(0, A, 0)], [0], [0]), b=Nfa(1, [(0, B, 0)], [0], [0]))  # disjoint alphabets
@example(a=Nfa(2, [(0, A, 1)], [0], []), b=Nfa(1, [(0, B, 0)], [0], []))  # both languages empty
def test_product_walk_matches_the_determinized_product(a, b):
    witness = _dfa_product_search(a, b, lambda fa, fb: fa and not fb)
    assert naive_inclusion(a, b) == Verdict(witness is None, witness)
    assert equivalence_counterexample(a, b) == _dfa_product_search(a, b, lambda fa, fb: fa != fb)


def _kth_letter_from_the_end_is_a(k: int) -> Nfa:
    """(a|b)*a(a|b){k-1}: its subset construction has 2^k sets."""
    chain = [(q, sym, q + 1) for q in range(1, k) for sym in (A, B)]
    return Nfa(k + 1, [(0, A, 0), (0, B, 0), (0, A, 1), *chain], [0], [k])


def test_product_walk_keeps_the_cap_on_the_masks_it_steps(monkeypatch):
    n = _kth_letter_from_the_end_is_a(4)
    assert n.determinize().state_count == 16
    monkeypatch.setattr(automata, "MAX_DFA_STATES", 15)
    with pytest.raises(DeterminizationCap):
        n.determinize()
    # an equivalent pair walks every mask of both sides
    with pytest.raises(DeterminizationCap, match="more than 15 states"):
        equivalence_counterexample(n, n)
    with pytest.raises(DeterminizationCap, match="more than 15 states"):
        naive_inclusion(n, n)
    # a difference within one letter stops the walk long before that
    assert equivalence_counterexample(n, Nfa(1, [(0, B, 0)], [0], [0])) == b""
    b_then_n = Nfa(6, [(5, B, 4), *n._triples], [0, 5], [4])
    assert naive_inclusion(b_then_n, n).witness == b"b"
    monkeypatch.setattr(automata, "MAX_DFA_STATES", 16)
    assert equivalence_counterexample(n, n) is None
