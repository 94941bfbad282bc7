import itertools
import random

import pytest
from hypothesis import example, given, settings, strategies as st

from wqlang import (
    CnfGrammar,
    Nfa,
    Ocn,
    Verdict,
    cfg_in_regular_oracle,
    cfg_inc_antichain,
    cfg_inc_word,
    ctx_handle,
    fa_inc_antichain,
    fa_inc_gfp,
    fa_inc_word,
    myhill_handle,
    naive_inclusion,
    nerode_handle,
    nfa_in_ocn,
    ocn_handle,
    sim_handle,
    state_handle,
)
from wqlang.fixpoint import KleeneDivergence, ac_below, subset
from wqlang.inclusion import DEFAULT_ITER_CAP, cfg_word_fixpoint, word_fixpoint
from wqlang.quasiorder import cross_simulation, ctx_key

from conftest import (
    A,
    B,
    C,
    cfg_word_fixpoint_oracle,
    examples,
    nfa_union,
    ocn_trace_oracle,
    rand_cnf,
    rand_nfa,
    rand_word,
    word_fixpoint_oracle,
)


def words_of(vec):
    return [sorted(w for _, w in ac) for ac in vec]


def test_word_nerode_fixpoint(fig42_n1, fig42_n2):
    vec, _, _ = word_fixpoint(fig42_n1, nerode_handle(fig42_n2, "left"))
    assert words_of(vec) == [[b"c"], [b""]]


def test_word_state_fixpoint(fig42_n1, fig42_n2):
    vec, layers, witness = word_fixpoint(fig42_n1, state_handle(fig42_n2, "left"))
    assert words_of(vec) == [[b"a", b"ab", b"b", b"c"], [b""]]
    # layers 1 and 2 accept words of length 1 and 2; layer 3 accepts none
    assert (layers, witness) == (3, None)


def test_word_sim_fixpoint(fig42_n1, fig42_n2):
    vec, _, _ = word_fixpoint(fig42_n1, sim_handle(fig42_n2, "left"))
    assert words_of(vec) == [[b"c"], [b""]]


def test_word_verdicts_and_witnesses(fig42_n1, fig42_n2):
    for handle in (
        nerode_handle(fig42_n2, "left"),
        state_handle(fig42_n2, "left"),
        sim_handle(fig42_n2, "left"),
    ):
        verdict = fa_inc_word(fig42_n1, handle)
        assert not verdict.included
        assert fig42_n1.member(verdict.witness)
        assert not fig42_n2.member(verdict.witness)


def test_word_right_direction(fig42_n1, fig42_n2):
    for handle in (
        nerode_handle(fig42_n2, "right"),
        state_handle(fig42_n2, "right"),
        sim_handle(fig42_n2, "right"),
    ):
        assert not fa_inc_word(fig42_n1, handle).included


def test_antichain_forward_backward(fig42_n1, fig42_n2):
    # "forward" is the one variant, kept as a positional name; "backward"
    # and any other name are refused
    for verdict in (
        fa_inc_antichain(fig42_n1, fig42_n2),
        fa_inc_antichain(fig42_n1, fig42_n2, "forward"),
    ):
        assert not verdict.included
        assert len(verdict.witness) == 1
        assert fig42_n1.member(verdict.witness)
        assert not fig42_n2.member(verdict.witness)
    for variant in ("backward", "fwd"):
        with pytest.raises(ValueError, match="bad variant"):
            fa_inc_antichain(fig42_n1, fig42_n2, variant)


def test_antichain_inclusion_of_self_determinization(fig42_n1):
    d = fig42_n1.determinize()
    assert fa_inc_antichain(fig42_n1, d, "forward").included


def test_gfp(fig42_n1, fig42_n2):
    assert not fa_inc_gfp(fig42_n1, fig42_n2.determinize()).included
    assert fa_inc_gfp(fig42_n1, fig42_n1.determinize()).included


def test_gfp_empty_finals_vacuous(fig42_n2):
    no_finals = Nfa(2, [(0, A, 1)], [0], [])
    assert fa_inc_gfp(no_finals, fig42_n2.determinize()).included


def test_all_nfa_algorithms_agree_with_naive():
    rng = random.Random(40)
    checked_not_included = 0
    for _ in range(120):
        n1 = rand_nfa(rng, max_states=4, n_syms=2)
        n2 = rand_nfa(rng, max_states=4, n_syms=2)
        expected = naive_inclusion(n1, n2).included
        checked_not_included += 0 if expected else 1
        got = [
            fa_inc_word(n1, nerode_handle(n2, "left")).included,
            fa_inc_word(n1, state_handle(n2, "left")).included,
            fa_inc_word(n1, sim_handle(n2, "left")).included,
            fa_inc_word(n1, state_handle(n2, "right")).included,
            fa_inc_antichain(n1, n2, "forward").included,
            fa_inc_gfp(n1, n2.determinize()).included,
        ]
        assert got == [expected] * len(got)
    assert checked_not_included > 10


@settings(max_examples=examples(150), deadline=None)
@given(seed=st.integers(0, 2**32 - 1), syms2=st.integers(1, 3), no_finals=st.booleans())
@example(seed=0, syms2=1, no_finals=False)  # n1 reads c, which n2 lacks: witness c
@example(seed=13, syms2=1, no_finals=False)  # n1 reads c on no accepting path
@example(seed=6, syms2=1, no_finals=True)  # n2 accepts nothing, L(n1) is empty
def test_gfp_and_antichain_agree_with_naive(seed, syms2, no_finals):
    rng = random.Random(seed)
    n1 = rand_nfa(rng, max_states=6, n_syms=3)
    n2 = rand_nfa(rng, max_states=6, n_syms=syms2)
    if no_finals:
        n2 = n2.with_final([])
    expected = naive_inclusion(n1, n2).included
    assert fa_inc_gfp(n1, n2.determinize()) == Verdict(expected)
    assert fa_inc_gfp(n1, n2) == Verdict(expected)
    verdict = fa_inc_antichain(n1, n2)
    assert verdict.included == expected
    if expected:
        assert verdict.witness is None
    else:
        assert n1.member(verdict.witness) and not n2.member(verdict.witness)


def test_nerode_fixpoint_below_state_fixpoint(fig42_n1, fig42_n2):
    # the coarser quasiorder converges to antichains below the finer one's
    nerode = nerode_handle(fig42_n2, "left")
    state = state_handle(fig42_n2, "left")
    vec_n, _, _ = word_fixpoint(fig42_n1, nerode)
    vec_s, _, _ = word_fixpoint(fig42_n1, state)
    for acn, acs in zip(vec_n, vec_s):
        assert ac_below(
            [nerode.key_of(w) for _, w in acn],
            [nerode.key_of(w) for _, w in acs],
            nerode.leq,
        )


# -- grammars -----------------------------------------------------------------


def test_cfg_word_myhill_fixpoint(ex451_grammar, fig43):
    vec, _, _ = cfg_word_fixpoint(ex451_grammar, myhill_handle(fig43))
    assert words_of(vec) == [[b"ab", b"b"], [b"a"]]
    verdict = cfg_inc_word(ex451_grammar, myhill_handle(fig43))
    assert verdict == verdict.__class__(False, b"ab")


def test_cfg_word_ctx_fixpoint(ex451_grammar, fig43):
    vec, _, _ = cfg_word_fixpoint(ex451_grammar, ctx_handle(fig43))
    assert words_of(vec) == [[b"ab", b"b", b"ba"], [b"a"]]


def test_cfg_antichain_fixpoint_keys(ex451_grammar, fig43):
    verdict = cfg_inc_antichain(ex451_grammar, fig43)
    assert not verdict.included
    assert ex451_grammar.words_up_to(4) >= {verdict.witness}
    assert not fig43.member(verdict.witness)


def test_cfg_trivial_inclusion():
    g = CnfGrammar(1, {0: {B}}, {})
    n = Nfa(2, [(0, B, 1)], [0], [1])
    assert cfg_inc_antichain(g, n).included
    assert cfg_inc_word(g, myhill_handle(n)).included


def test_cfg_oracle_fig43(ex451_grammar, fig43):
    verdict = cfg_in_regular_oracle(ex451_grammar, fig43.determinize())
    assert not verdict.included
    assert verdict.witness in ex451_grammar.words_up_to(6)
    assert not fig43.member(verdict.witness)


def test_cfg_oracle_sigma_star(ex451_grammar):
    everything = Nfa(1, [(0, A, 0), (0, B, 0)], [0], [0])
    assert cfg_in_regular_oracle(ex451_grammar, everything.determinize()).included


def test_cfg_oracle_agrees_with_enumeration():
    rng = random.Random(41)
    for _ in range(40):
        g = rand_cnf(rng, max_vars=3)
        n = rand_nfa(rng, max_states=3)
        verdict = cfg_in_regular_oracle(g, n.determinize())
        words = g.words_up_to(6)
        if verdict.included:
            assert all(n.member(w) for w in words)
        else:
            assert g.axiom_nullable and verdict.witness == b"" or (
                verdict.witness in g.words_up_to(len(verdict.witness))
            )
            assert not n.member(verdict.witness)


def test_cfg_algorithms_agree_with_oracle():
    rng = random.Random(42)
    for _ in range(60):
        g = rand_cnf(rng, max_vars=4)
        n = rand_nfa(rng, max_states=4)
        expected = cfg_in_regular_oracle(g, n.determinize()).included
        assert cfg_inc_antichain(g, n).included == expected
        assert cfg_inc_word(g, myhill_handle(n)).included == expected
        assert cfg_inc_word(g, ctx_handle(n)).included == expected


def test_cfg_witnesses_verify():
    rng = random.Random(43)
    for _ in range(60):
        g = rand_cnf(rng, max_vars=4)
        n = rand_nfa(rng, max_states=4)
        for verdict in (
            cfg_inc_antichain(g, n),
            cfg_inc_word(g, ctx_handle(n)),
        ):
            if not verdict.included:
                assert verdict.witness in g.words_up_to(max(1, len(verdict.witness)))
                assert not n.member(verdict.witness)


# -- one-counter nets -----------------------------------------------------------


def test_ocn_ab_star_included(counter_ocn):
    n = Nfa(2, [(0, A, 1), (1, B, 0)], [0], [0])
    assert nfa_in_ocn(n, counter_ocn, (0, 0)).included


def test_ocn_astar_bstar_not_included(counter_ocn):
    n = Nfa(2, [(0, A, 0), (0, B, 1), (1, B, 1)], [0], [0, 1])
    verdict = nfa_in_ocn(n, counter_ocn, (0, 0))
    assert not verdict.included
    assert verdict.witness == b"b"
    assert not ocn_trace_oracle(counter_ocn, (0, 0), verdict.witness)


def test_ocn_empty_language(counter_ocn):
    n = Nfa(1, [(0, A, 0)], [0], [])
    assert nfa_in_ocn(n, counter_ocn, (0, 0)).included


@pytest.mark.parametrize("state", [2, -1])
def test_ocn_start_state_outside_the_net_is_refused(state):
    # the empty word is a trace of every configuration, so a start state
    # outside the net must not read as an empty start configuration
    two = Ocn(2, [(0, A, 1, 1), (1, B, -1, 0)])
    n = Nfa(1, [(0, A, 0)], [0], [0])
    with pytest.raises(ValueError, match="start state"):
        nfa_in_ocn(n, two, (state, 0))


def rand_ocn(rng, max_states=3, n_syms=2):
    count = rng.randint(1, max_states)
    syms = [A, B, C][:n_syms]
    trans = [
        (rng.randrange(count), rng.choice(syms), rng.choice([-1, 0, 1]), rng.randrange(count))
        for _ in range(rng.randint(1, 3 * count))
    ]
    return Ocn(count, trans)


def test_ocn_random_agreement():
    rng = random.Random(44)
    for _ in range(40):
        n = rand_nfa(rng, max_states=3, n_syms=2)
        o = rand_ocn(rng)
        verdict = nfa_in_ocn(n, o, (0, 1))
        if verdict.included:
            for w in n.accepted_words(6):
                assert ocn_trace_oracle(o, (0, 1), w)
        else:
            assert n.member(verdict.witness)
            assert not ocn_trace_oracle(o, (0, 1), verdict.witness)


# -- membership read off the key --------------------------------------------------


def test_every_handle_accepts_exactly_its_language():
    # words over a, b, c while the automata read a and b (a word with c then
    # has the empty key in the minimal DFA) or a, b, c
    rng = random.Random(48)
    words = [bytes(w) for k in range(5) for w in itertools.product((A, B, C), repeat=k)]
    for _ in range(25):
        n = rand_nfa(rng, max_states=5, n_syms=rng.choice((2, 3)))
        o = rand_ocn(rng)
        start = (rng.randrange(o.state_count), rng.randint(0, 1))
        cases = [
            (make(n, direction), n.member)
            for make in (nerode_handle, state_handle, sim_handle)
            for direction in ("left", "right")
        ]
        cases += [(myhill_handle(n), n.member), (ctx_handle(n), n.member)]
        cases.append((ocn_handle(o, start), lambda w: ocn_trace_oracle(o, start, w)))
        for handle, member in cases:
            for w in words:
                assert handle.accepts(handle.key_of(w)) == member(w), (handle.direction, w)


# -- the layered worklist against the from-scratch iteration ----------------------


def assert_same_fixpoint(result, oracle, handle):
    """With no stop test the worklist runs to the least fixpoint: each
    component is equivalent both ways to the from-scratch iteration's, and
    every entry carries its own word's key."""
    vec, _, witness = result
    expected, _ = oracle
    assert witness is None
    for ac, want in zip(vec, expected, strict=True):
        assert ac_below(ac, want) and ac_below(want, ac)
        for key, word in ac:
            assert key == handle.key_of(word)


def test_word_fixpoint_matches_from_scratch_oracle():
    rng = random.Random(45)
    for _ in range(30):
        density = rng.choice((0.2, 0.3, 0.45))
        n1 = rand_nfa(rng, max_states=8, density=density)
        n2 = rand_nfa(rng, max_states=8, density=density)
        handles = [
            make(n2, direction)
            for make in (state_handle, nerode_handle, sim_handle)
            for direction in ("left", "right")
        ]
        handles.append(ocn_handle(rand_ocn(rng), (0, 1)))
        for handle in handles:
            assert_same_fixpoint(
                word_fixpoint(n1, handle), word_fixpoint_oracle(n1, handle), handle
            )


@pytest.mark.parametrize("direction", ["left", "right"])
@pytest.mark.parametrize("stop", [False, True])
@settings(max_examples=examples(40), deadline=None)
@given(seed=st.integers(0, 2**32 - 1))
def test_inline_subset_order_changes_no_fixpoint(direction, stop, seed):
    # state_handle's order is fixpoint.subset, which Antichain runs inline;
    # the same order as a plain function must give the same run
    rng = random.Random(seed)
    density = rng.choice((0.2, 0.3, 0.45))
    n1 = rand_nfa(rng, max_states=8, density=density)
    n2 = rand_nfa(rng, max_states=8, density=density)
    handle = state_handle(n2, direction)
    plain = handle._replace(leq=lambda a, b: a & b == a)
    vec, layers, witness = word_fixpoint(n1, handle, stop=stop)
    vec_p, layers_p, witness_p = word_fixpoint(n1, plain, stop=stop)
    assert [list(ac) for ac in vec] == [list(ac) for ac in vec_p]
    assert (layers, witness) == (layers_p, witness_p)


@pytest.mark.parametrize("direction", ["left", "right"])
@settings(max_examples=examples(60), deadline=None)
@given(seed=st.integers(0, 2**32 - 1), union=st.booleans(), stop=st.booleans())
def test_settled_entries_change_no_verdict_witness_or_layer(direction, seed, union, stop):
    # skipping the extensions of settled entries keeps every unsettled
    # entry with its word, so the verdict, the witness and the layer it
    # surfaces at are the unpruned run's; a union right side settles often
    rng = random.Random(seed)
    density = rng.choice((0.2, 0.3, 0.45))
    n1 = rand_nfa(rng, max_states=7, n_syms=3, density=density)
    n2 = rand_nfa(rng, max_states=7, n_syms=rng.randint(1, 3), density=density)
    if union:
        n2 = nfa_union(n1, n2)
    a, m = (n1.reverse(), n2.reverse()) if direction == "left" else (n1, n2)
    up = cross_simulation(a, m)
    handle = state_handle(n2, direction)
    vec, layers, witness = word_fixpoint(n1, handle, stop=stop, key_automaton=m)
    vec_u, layers_u, witness_u = word_fixpoint(n1, handle, stop=stop)
    assert witness == witness_u
    assert layers == layers_u if witness is not None else layers <= layers_u
    unsettled = lambda v: [[(k, w) for k, w in ac if not k & up[q]] for q, ac in enumerate(v)]
    assert unsettled(vec) == unsettled(vec_u)
    # the named checks run settled: the same verdict (and witness, on the
    # left) as the unpruned check under their handle
    expected = fa_inc_word(n1, handle)
    if direction == "left":
        assert fa_inc_antichain(n1, n2) == expected
    else:
        assert fa_inc_gfp(n1, n2) == Verdict(expected.included)


def test_self_inclusion_finishes_within_one_grown_layer():
    # every entry of layer 0 sits at a state its key holds, which simulates
    # itself: all are settled, and the first grown layer is empty
    rng = random.Random(49)
    unpruned_needs_more = 0
    for _ in range(40):
        n = rand_nfa(rng, max_states=8, n_syms=3, density=0.4)
        assert fa_inc_antichain(n, n, "forward", 1).included
        assert fa_inc_gfp(n, n, 1).included
        try:
            fa_inc_word(n, state_handle(n, "left"), 1)
        except KleeneDivergence:
            unpruned_needs_more += 1
    assert unpruned_needs_more > 10


@pytest.mark.parametrize("direction", ["left", "right"])
def test_state_handle_runs_the_inline_subset_order(fig42_n2, direction):
    # Antichain compares inline only under this very function; any other
    # order, even an equal one, takes the slower general path
    assert state_handle(fig42_n2, direction).leq is subset


def test_cfg_word_fixpoint_matches_from_scratch_oracle():
    rng = random.Random(46)
    for _ in range(40):
        g = rand_cnf(rng, max_vars=8)
        n = rand_nfa(rng, max_states=8, density=rng.choice((0.2, 0.3)))
        for handle in (ctx_handle(n), myhill_handle(n)):
            assert_same_fixpoint(
                cfg_word_fixpoint(g, handle), cfg_word_fixpoint_oracle(g, handle), handle
            )


def test_iteration_cap_counts_layers():
    # the smallest cap that lets a fixpoint finish is the layer count it
    # returns; one less stops it, and so does a negative cap
    rng = random.Random(93)
    n1 = rand_nfa(rng, max_states=8, density=0.3)
    n2 = rand_nfa(rng, max_states=8, density=0.3)
    run_nfa = lambda cap: word_fixpoint(n1, state_handle(n2, "left"), cap)
    rng = random.Random(41)
    g = rand_cnf(rng, max_vars=5)
    n = rand_nfa(rng, max_states=6, density=0.3)
    run_cfg = lambda cap: cfg_word_fixpoint(g, ctx_handle(n), cap)
    for run, layers in ((run_nfa, 6), (run_cfg, 9)):
        assert run(DEFAULT_ITER_CAP)[1] == layers
        assert run(layers)[1] == layers
        for cap in (layers - 1, -1):
            with pytest.raises(KleeneDivergence, match="no fixpoint"):
                run(cap)


def test_witnesses_fail_and_are_as_short_as_naive():
    rng = random.Random(47)
    checked = 0
    for _ in range(150):
        n1 = rand_nfa(rng, max_states=6)
        n2 = rand_nfa(rng, max_states=6)
        shortest = naive_inclusion(n1, n2)
        verdicts = [
            fa_inc_antichain(n1, n2, "forward"),
            fa_inc_word(n1, state_handle(n2, "left")),
            fa_inc_word(n1, state_handle(n2, "right")),
            fa_inc_word(n1, nerode_handle(n2, "left")),
            fa_inc_word(n1, sim_handle(n2, "left")),
        ]
        for verdict in verdicts:
            assert verdict.included == shortest.included
            if not verdict.included:
                assert n1.member(verdict.witness)
                assert not n2.member(verdict.witness)
                assert len(verdict.witness) == len(shortest.witness)
                checked += 1
    assert checked > 100


@settings(max_examples=examples(60), deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    syms2=st.integers(1, 3),
    direction=st.sampled_from(("left", "right")),
)
def test_antichain_and_word_checks_agree_with_naive(seed, syms2, direction):
    rng = random.Random(seed)
    n1 = rand_nfa(rng, max_states=6, n_syms=3)
    n2 = rand_nfa(rng, max_states=6, n_syms=syms2)
    shortest = naive_inclusion(n1, n2)
    verdicts = [fa_inc_antichain(n1, n2)] + [
        fa_inc_word(n1, make(n2, direction))
        for make in (state_handle, nerode_handle, sim_handle)
    ]
    for verdict in verdicts:
        assert verdict.included == shortest.included
        if not verdict.included:
            assert n1.member(verdict.witness) and not n2.member(verdict.witness)
            assert len(verdict.witness) == len(shortest.witness)


@settings(max_examples=examples(60), deadline=None)
@given(seed=st.integers(0, 2**32 - 1))
def test_cfg_antichain_agrees_with_oracle(seed):
    rng = random.Random(seed)
    g = rand_cnf(rng, max_vars=4)
    n = rand_nfa(rng, max_states=4)
    expected = cfg_in_regular_oracle(g, n.determinize()).included
    for verdict in (
        cfg_inc_antichain(g, n),
        cfg_inc_word(g, myhill_handle(n)),
        cfg_inc_word(g, ctx_handle(n)),
    ):
        assert verdict.included == expected
        if not verdict.included:
            assert verdict.witness in g.words_up_to(len(verdict.witness))
            assert not n.member(verdict.witness)


@settings(max_examples=examples(60), deadline=None)
@given(seed=st.integers(0, 2**32 - 1), counter=st.integers(0, 2))
def test_nfa_in_ocn_agrees_with_trace_oracle(seed, counter):
    rng = random.Random(seed)
    n = rand_nfa(rng, max_states=4)
    o = rand_ocn(rng)
    start = (rng.randrange(o.state_count), counter)
    verdict = nfa_in_ocn(n, o, start)
    # the witness is a shortest accepted non-trace, so every shorter
    # accepted word (all of them, when included) is a trace
    bound = 6 if verdict.included else len(verdict.witness) - 1
    assert all(ocn_trace_oracle(o, start, w) for w in n.accepted_words(bound))
    if not verdict.included:
        assert n.member(verdict.witness)
        assert not ocn_trace_oracle(o, start, verdict.witness)


@settings(max_examples=examples(60), deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n_syms=st.integers(1, 3))
def test_left_handles_are_right_handles_of_the_reverse(seed, n_syms):
    # a left handle on n2 reads reversed words through the right handle on
    # n2's reverse: same keys, same verdicts, same extensions
    rng = random.Random(seed)
    n2 = rand_nfa(rng, max_states=6, n_syms=n_syms)
    words = [rand_word(rng, 5, n_syms) for _ in range(10)]
    for make in (state_handle, nerode_handle, sim_handle):
        left, right = make(n2, "left"), make(n2.reverse(), "right")
        for w in words:
            key = left.key_of(w)
            assert key == right.key_of(w[::-1])
            assert left.accepts(key) == right.accepts(key) == n2.member(w)
            for sym in (A, B, C):
                assert left.extend(key, sym) == right.extend(key, sym)
            for v in words:
                assert left.leq(key, left.key_of(v)) == right.leq(key, right.key_of(v[::-1]))


@settings(max_examples=examples(60), deadline=None)
@given(seed=st.integers(0, 2**32 - 1), stop=st.booleans())
def test_left_word_fixpoint_is_the_right_run_on_the_reverse(seed, stop):
    # the left run on n1 holds the right run's entries on n1's reverse,
    # words reversed; only the least witness of a layer may differ, since
    # the two runs order their words from opposite ends
    rng = random.Random(seed)
    n1 = rand_nfa(rng, max_states=6, n_syms=3)
    n2 = rand_nfa(rng, max_states=5, n_syms=3)
    for make in (state_handle, nerode_handle, sim_handle):
        vec, layers, witness = word_fixpoint(n1, make(n2, "left"), stop=stop)
        r_vec, r_layers, r_witness = word_fixpoint(
            n1.reverse(), make(n2.reverse(), "right"), stop=stop
        )
        assert [[(k, w[::-1]) for k, w in ac] for ac in vec] == [list(ac) for ac in r_vec]
        assert layers == r_layers
        assert (witness is None) == (r_witness is None)
        if witness is not None:
            assert len(witness) == len(r_witness)
            assert n1.member(witness) and not n2.member(witness)


# -- words the minimal DFA cannot read ------------------------------------------

# Languages over a and b, as DFAs, against left sides that also read c. Each
# names the sides with a word over a and b whose residual (its context set,
# two-sided) is empty, so that the minimal DFA has an empty state there.
UNREAD_CASES = {
    "a(a+b)*": (Nfa(2, [(0, A, 1), (1, A, 1), (1, B, 1)], [0], [1]), {"right"}),
    "(a+b)*a": (Nfa(2, [(0, A, 1), (0, B, 0), (1, A, 1), (1, B, 0)], [0], [1]), {"left"}),
    "(a+b)*": (Nfa(1, [(0, A, 0), (0, B, 0)], [0], [0]), set()),
    "ab": (Nfa(3, [(0, A, 1), (1, B, 2)], [0], [2]), {"left", "right", "two-sided"}),
    "empty": (Nfa(1, [(0, A, 0), (0, B, 0)], [0], []), {"left", "right", "two-sided"}),
}
AB_WORDS = [bytes(w) for k in range(4) for w in itertools.product((A, B), repeat=k)]
ABC_WORDS = [bytes(w) for k in range(4) for w in itertools.product((A, B, C), repeat=k)]
UNREAD_WORDS = [w for w in ABC_WORDS if C in w]


def contexts(dfa: Nfa) -> list[bytes]:
    """Words over a and b shorter than the state count of a DFA: enough to
    reach each of its states, and to accept from each one that accepts."""
    return [w for w in AB_WORDS if len(w) < dfa.state_count]


def assert_unread_key_is_the_empty_one(handle, empty_words):
    """The key of a word with c lies below every key, and is equivalent both
    ways to the key of each word whose residual is empty."""
    keys = [handle.key_of(w) for w in ABC_WORDS]
    for w in UNREAD_WORDS:
        k = handle.key_of(w)
        assert all(handle.leq(k, other) for other in keys), w
        for u in empty_words:
            assert handle.leq(k, handle.key_of(u)) and handle.leq(handle.key_of(u), k), (w, u)


@pytest.mark.parametrize("direction", ["left", "right"])
@pytest.mark.parametrize("name", UNREAD_CASES)
def test_nerode_key_of_an_unread_word_is_the_empty_residual(name, direction):
    n2, empty_sides = UNREAD_CASES[name]
    short = contexts(n2)
    empty = [
        u
        for u in AB_WORDS
        if not any(n2.member(u + s if direction == "right" else s + u) for s in short)
    ]
    assert bool(empty) == (direction in empty_sides)
    assert_unread_key_is_the_empty_one(nerode_handle(n2, direction), empty)


@pytest.mark.parametrize("name", UNREAD_CASES)
def test_myhill_key_of_an_unread_word_is_the_empty_context(name):
    n2, empty_sides = UNREAD_CASES[name]
    short = contexts(n2)
    empty = [u for u in AB_WORDS if not any(n2.member(x + u + y) for x in short for y in short)]
    assert bool(empty) == ("two-sided" in empty_sides)
    assert_unread_key_is_the_empty_one(myhill_handle(n2), empty)


@pytest.mark.parametrize("name", UNREAD_CASES)
@settings(max_examples=examples(15), deadline=None)
@given(seed=st.integers(0, 2**32 - 1))
def test_unread_symbols_keep_verdicts_exact(name, seed):
    n2, _ = UNREAD_CASES[name]
    rng = random.Random(seed)
    n1 = rand_nfa(rng, max_states=5, n_syms=3, density=0.3)
    shortest = naive_inclusion(n1, n2)
    for direction in ("left", "right"):
        verdict = fa_inc_word(n1, nerode_handle(n2, direction))
        assert verdict.included == shortest.included
        if not verdict.included:
            assert n1.member(verdict.witness) and not n2.member(verdict.witness)
            assert len(verdict.witness) == len(shortest.witness)
    g = rand_cnf(rng, max_vars=4, n_syms=3)
    verdict = cfg_inc_word(g, myhill_handle(n2))
    assert verdict.included == cfg_in_regular_oracle(g, n2.determinize()).included
    if not verdict.included:
        assert verdict.witness in g.words_up_to(len(verdict.witness))
        assert not n2.member(verdict.witness)
