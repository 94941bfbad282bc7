import random

from hypothesis import example, given, settings, strategies as st

from wqlang import (
    Nfa,
    ctx_handle,
    myhill_handle,
    naive_inclusion,
    nerode_handle,
    sim_handle,
    state_handle,
)
from wqlang.automata import bits
from wqlang.fixpoint import subset
from wqlang.quasiorder import (
    cross_simulation,
    ctx_compose,
    ctx_identity,
    ctx_key,
    macro_leq,
    macro_step,
    ocn_macro,
    residual_inclusion_matrix,
    residual_leq,
    sim_closure,
)

from conftest import (
    A,
    B,
    C,
    accepted_words,
    ctx_pairs_oracle,
    examples,
    nfa_union,
    ocn_trace_oracle,
    rand_dfa,
    rand_nfa,
    rand_word,
    set_of,
    simulation_oracle,
)


def min_dfa(n):
    return n.determinize().minimize()


def handle_leq(handle, u: bytes, v: bytes) -> bool:
    return handle.leq(handle.key_of(u), handle.key_of(v))


def test_state_key_fig42(fig42_n2):
    assert set_of(state_handle(fig42_n2, "left").key_of(b"ac")) == {0, 1}
    assert set_of(state_handle(fig42_n2, "right").key_of(b"")) == {0}


def test_state_key_monotone():
    rng = random.Random(20)
    for _ in range(20):
        n = rand_nfa(rng, max_states=4)
        words = [rand_word(rng, 3) for _ in range(8)]
        for u in words:
            for v in words:
                ku, kv = n.run(u), n.run(v)
                if ku & kv == ku:
                    for sym in (A, B):
                        ku2 = n.step(ku, sym)
                        kv2 = n.step(kv, sym)
                        assert ku2 & kv2 == ku2


def test_simulation_contains_identity_and_respects_finality():
    rng = random.Random(21)
    for _ in range(30):
        n = rand_nfa(rng, max_states=4)
        sim = cross_simulation(n, n)
        for p in range(n.state_count):
            assert sim[p] >> p & 1
            for q in range(n.state_count):
                if sim[p] >> q & 1 and p in n.final:
                    assert q in n.final


def test_simulation_implies_right_language_inclusion():
    from wqlang import naive_inclusion

    rng = random.Random(22)
    for _ in range(25):
        n = rand_nfa(rng, max_states=4)
        sim = cross_simulation(n, n)
        for p in range(n.state_count):
            for q in range(n.state_count):
                if sim[p] >> q & 1:
                    assert naive_inclusion(
                        n.with_initial([p]), n.with_initial([q])
                    ).included


def lifted_leq(u_key: int, v_key: int, rows: tuple[int, ...]) -> bool:
    """Universal-existential lift of a simulation, given by its rows, to
    state sets: every state of ``u_key`` is simulated by one of ``v_key``."""
    return all(rows[x] & v_key for x in bits(u_key))


def test_sim_leq_fig42(fig42_n2):
    sim = sim_handle(fig42_n2, "left")
    # pre_c = {q2} is simulated below pre_a = {q3}; pre_b = {q4} is not
    assert handle_leq(sim, b"c", b"a")
    assert not handle_leq(sim, b"b", b"a")


def test_sim_leq_reflexive_on_subsets(fig42_n2):
    close = sim_closure(fig42_n2)
    rng = random.Random(23)
    for _ in range(40):
        u = rng.getrandbits(fig42_n2.state_count)
        extra = rng.getrandbits(fig42_n2.state_count)
        assert close(u) & close(u | extra) == close(u)


def test_sim_closure_inclusion_is_the_lifted_simulation():
    rng = random.Random(25)
    for _ in range(60):
        n = rand_nfa(rng, max_states=6, density=0.3)
        rows, close = cross_simulation(n, n), sim_closure(n)
        sets = [rng.getrandbits(n.state_count) for _ in range(12)]
        for u in sets:
            cu = close(u)
            assert cu & u == u and close(cu) == cu
            assert bool(cu & n.final_mask) == bool(u & n.final_mask)
            for sym in (A, B):
                assert close(n.step(cu, sym)) == close(n.step(u, sym))
            for v in sets:
                assert (cu & close(v) == cu) == lifted_leq(u, v, rows)


@settings(max_examples=examples(150), deadline=None)
@given(seed=st.integers(0, 2**32 - 1), syms=st.integers(1, 3))
def test_cross_simulation_is_the_block_of_the_joint_simulation(seed, syms):
    rng = random.Random(seed)
    a = rand_nfa(rng, max_states=6, n_syms=syms, density=0.3)
    m = rand_nfa(rng, max_states=6, n_syms=rng.randint(1, 3), density=0.3)
    union = nfa_union(a, m)
    joint = cross_simulation(union, union)
    shift = a.state_count
    assert cross_simulation(a, m) == tuple(row >> shift for row in joint[:shift])


def nfa_on(rng: random.Random, states: int, syms: list[int], density: float) -> Nfa:
    """An NFA of exactly ``states`` states whose moves read only ``syms``."""
    triples = [
        (p, sym, q)
        for p in range(states)
        for sym in syms
        for q in range(states)
        if rng.random() < density
    ]
    finals = [q for q in range(states) if rng.random() < 0.4]
    return Nfa(states, triples, [q for q in range(states) if rng.random() < 0.4], finals)


@settings(max_examples=examples(150), deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    a_states=st.integers(0, 7),
    m_states=st.integers(0, 7),
    a_syms=st.sets(st.sampled_from((A, B, C))),
    m_syms=st.sets(st.sampled_from((A, B, C))),
    density=st.sampled_from((0.15, 0.3, 0.5)),
    same=st.booleans(),
)
# ``a`` reads c and ``m`` has no move on it; then each side with no state
@example(seed=3, a_states=4, m_states=4, a_syms={A, C}, m_syms={A, B}, density=0.5, same=False)
@example(seed=4, a_states=0, m_states=5, a_syms={A, B}, m_syms={A, B}, density=0.3, same=False)
@example(seed=5, a_states=5, m_states=0, a_syms={A, B}, m_syms={A, B}, density=0.3, same=False)
def test_cross_simulation_is_the_maximal_simulation(seed, a_states, m_states, a_syms, m_syms, density, same):
    rng = random.Random(seed)
    a = nfa_on(rng, a_states, sorted(a_syms), density)
    m = a if same else nfa_on(rng, m_states, sorted(m_syms), density)
    rows = cross_simulation(a, m)
    assert len(rows) == a.state_count
    assert {(q, p) for q, row in enumerate(rows) for p in bits(row)} == simulation_oracle(a, m)


def test_quasiorder_containment_chain():
    # subset implies simulation-lift implies Nerode, on random word pairs
    rng = random.Random(24)
    for _ in range(15):
        n = rand_nfa(rng, max_states=5)
        sim = sim_handle(n, "right")
        nerode = nerode_handle(n, "right")
        words = [rand_word(rng, 4) for _ in range(10)]
        for u in words:
            for v in words:
                ku, kv = n.run(u), n.run(v)
                if ku & kv == ku:
                    assert handle_leq(sim, u, v)
                if handle_leq(sim, u, v):
                    assert handle_leq(nerode, u, v)


def test_nerode_left_fig42(fig42_n2):
    nerode = nerode_handle(fig42_n2, "left")
    assert handle_leq(nerode, b"c", b"a")
    assert handle_leq(nerode, b"c", b"b")
    assert not handle_leq(nerode, b"a", b"c")
    # bb is in the language but ba is not, so the left quotient of b is not
    # inside that of a; brute force confirms
    assert fig42_n2.member(b"bb") and not fig42_n2.member(b"ba")
    assert not handle_leq(nerode, b"b", b"a")


def test_nerode_reflexive(fig42_n2):
    nerode = nerode_handle(fig42_n2, "right")
    for w in (b"", b"a", b"ab"):
        assert handle_leq(nerode, w, w)


def test_nerode_agrees_with_quotient_enumeration():
    rng = random.Random(25)
    for _ in range(10):
        n = rand_nfa(rng, max_states=4)
        nerode = nerode_handle(n, "right")
        words = [rand_word(rng, 3) for _ in range(6)]
        suffixes = [rand_word(rng, 4) for _ in range(40)] + [b""]
        for u in words:
            for v in words:
                brute = all(
                    n.member(v + s) for s in suffixes if n.member(u + s)
                )
                if handle_leq(nerode, u, v):
                    assert brute
                # bounded-suffix disagreement refutes the quasiorder
                if not brute:
                    assert not handle_leq(nerode, u, v)


def test_myhill_example(fig43):
    myhill = myhill_handle(fig43)
    assert handle_leq(myhill, b"a", b"ba")
    assert handle_leq(myhill, b"", b"b")
    assert handle_leq(myhill, b"ab", b"ab")


def test_myhill_agrees_with_context_enumeration(fig43):
    rng = random.Random(26)
    myhill = myhill_handle(fig43)
    contexts = [(rand_word(rng, 3), rand_word(rng, 3)) for _ in range(60)]
    words = [b"", b"a", b"b", b"ab", b"ba", b"aa", b"bb"]
    for u in words:
        for v in words:
            brute = all(
                fig43.member(x + v + y) for x, y in contexts if fig43.member(x + u + y)
            )
            if handle_leq(myhill, u, v):
                assert brute


def test_ctx_key_fig43(fig43):
    # 1-based pairs: ctx(a) = {(1,2),(2,3),(3,3)}; row q at bits 3q..3q+2
    assert ctx_key(fig43, b"a") == 0b100_100_010
    assert ctx_key(fig43, b"") == ctx_identity(fig43) == 0b100_010_001


def key_pairs(key: int, states: int) -> set[tuple[int, int]]:
    return {divmod(i, states) for i in bits(key)}


@settings(max_examples=examples(100), deadline=None)
@given(seed=st.integers(0, 2**32 - 1), syms=st.integers(1, 3))
def test_ctx_key_is_the_pair_relation(seed, syms):
    rng = random.Random(seed)
    n = rand_nfa(rng, max_states=6, n_syms=syms, density=0.3)
    s = n.state_count
    handle = ctx_handle(n)
    assert handle.leq is subset
    words = [rand_word(rng, 4, syms) for _ in range(6)]
    keys = [ctx_key(n, w) for w in words]
    pairs = [ctx_pairs_oracle(n, w) for w in words]
    for w, key, rel in zip(words, keys, pairs):
        assert key_pairs(key, s) == rel
        assert key >> s * s == 0
        assert handle.accepts(key) == n.member(w)
    for ku, pu in zip(keys, pairs):
        for kv, pv in zip(keys, pairs):
            assert subset(ku, kv) == (pu <= pv)


def test_ctx_key_on_no_states():
    n = Nfa(0, [], [], [])
    assert ctx_key(n, b"ab") == ctx_identity(n) == 0
    assert not ctx_handle(n).accepts(0)


def test_ctx_composes():
    rng = random.Random(27)
    for _ in range(15):
        n = rand_nfa(rng, max_states=4)
        for _ in range(10):
            u, v = rand_word(rng, 3), rand_word(rng, 3)
            s = n.state_count
            assert ctx_key(n, u + v) == ctx_compose(ctx_key(n, u), ctx_key(n, v), s)


def test_ctx_monotone_under_context():
    rng = random.Random(28)
    for _ in range(15):
        n = rand_nfa(rng, max_states=4)
        words = [rand_word(rng, 3) for _ in range(6)]
        for u in words:
            for v in words:
                if subset(ctx_key(n, u), ctx_key(n, v)):
                    for a, b in ((A, B), (B, A)):
                        big_u = ctx_key(n, bytes([a]) + u + bytes([b]))
                        big_v = ctx_key(n, bytes([a]) + v + bytes([b]))
                        assert subset(big_u, big_v)


def test_nerode_is_coarsest():
    # state-subset comparison implies Nerode on the same language
    rng = random.Random(29)
    for _ in range(15):
        n = rand_nfa(rng, max_states=4)
        nerode = nerode_handle(n, "right")
        words = [rand_word(rng, 3) for _ in range(8)]
        for u in words:
            for v in words:
                ku, kv = n.run(u), n.run(v)
                if ku & kv == ku:
                    assert handle_leq(nerode, u, v)


def test_language_consistency_of_all_quasiorders():
    rng = random.Random(30)
    for _ in range(10):
        n = rand_nfa(rng, max_states=4)
        nerode_r, nerode_l = nerode_handle(n, "right"), nerode_handle(n, "left")
        myhill = myhill_handle(n)
        sim_r = sim_handle(n, "right")
        words = [rand_word(rng, 4) for _ in range(12)]
        for u in words:
            for v in words:
                if n.member(u) and not n.member(v):
                    assert not handle_leq(nerode_r, u, v)
                    assert not handle_leq(nerode_l, u, v)
                    assert not handle_leq(myhill, u, v)
                    assert not handle_leq(sim_r, u, v)
                    ku, kv = n.run(u), n.run(v)
                    assert ku & kv != ku


def test_ocn_macro_examples(counter_ocn):
    assert ocn_macro(counter_ocn, (0, 0), b"") == (0,)
    assert ocn_macro(counter_ocn, (0, 0), b"ab") == (0,)
    assert ocn_macro(counter_ocn, (0, 0), b"b") == (None,)
    assert ocn_macro(counter_ocn, (0, 0), b"aab") == (1,)


def test_macro_matches_configuration_search(counter_ocn):
    rng = random.Random(31)
    two = __import__("wqlang").Ocn(
        2, [(0, A, 1, 0), (0, B, 0, 1), (1, B, -1, 1), (1, A, -1, 0)]
    )
    for o in (counter_ocn, two):
        for _ in range(60):
            w = rand_word(rng, 6)
            macro = ocn_macro(o, (0, 1), w)
            assert (any(e is not None for e in macro)) == ocn_trace_oracle(
                o, (0, 1), w
            )


def test_macro_leq_basics(counter_ocn):
    assert macro_leq((None,), (5,))
    assert macro_leq((3,), (3,))
    assert not macro_leq((2,), (1,))
    assert not macro_leq((0,), (None,))


def test_macro_right_monotone(counter_ocn):
    rng = random.Random(32)
    for _ in range(40):
        u, v = rand_word(rng, 5), rand_word(rng, 5)
        mu = ocn_macro(counter_ocn, (0, 0), u)
        mv = ocn_macro(counter_ocn, (0, 0), v)
        if macro_leq(mu, mv):
            for sym in (A, B):
                assert macro_leq(
                    macro_step(counter_ocn, mu, sym),
                    macro_step(counter_ocn, mv, sym),
                )


def test_residual_inclusion_matrix_is_language_inclusion():
    rng = random.Random(78)
    for _ in range(40):
        n = rand_nfa(rng, max_states=5, n_syms=rng.choice([1, 2, 3]))
        for m in (min_dfa(n), min_dfa(n.reverse())):
            rows = residual_inclusion_matrix(m)
            for p in range(m.state_count):
                for q in range(m.state_count):
                    included = naive_inclusion(m.with_initial([p]), m.with_initial([q]))
                    assert bool(rows[p] >> q & 1) == included.included


def _accepts_no_word(m, p) -> bool:
    # a nonempty right language has a word shorter than the state count
    return next(accepted_words(m.with_initial([p]), m.state_count), None) is None


@settings(max_examples=examples(100), deadline=None)
@given(seed=st.integers(0, 2**32 - 1), density=st.sampled_from((0.4, 0.7, 1.0)))
def test_empty_states_are_those_that_accept_no_word(seed, density):
    # the empty key lies above exactly the states whose residual is empty
    rng = random.Random(seed)
    m = min_dfa(rand_dfa(rng, max_states=7, n_syms=2, density=density))
    leq = residual_leq(m)
    for p in range(m.state_count):
        assert leq(1 << p, 0) == _accepts_no_word(m, p)


def test_right_nerode_order_on_one_state_keys_is_residual_inclusion():
    # canonical builds its automaton under this order on the one-state keys
    # of the same minimal DFA; it must be plain residual inclusion there,
    # the empty-residual state included
    rng = random.Random(91)
    with_empty = 0
    for _ in range(60):
        n = rand_nfa(rng, max_states=5, n_syms=rng.choice([1, 2, 3]))
        m = min_dfa(n)
        with_empty += any(_accepts_no_word(m, p) for p in range(m.state_count))
        leq = nerode_handle(n, "right").leq
        for p in range(m.state_count):
            for q in range(m.state_count):
                included = naive_inclusion(m.with_initial([p]), m.with_initial([q]))
                assert bool(leq(1 << p, 1 << q)) == included.included
    assert with_empty >= 10
