"""Shared fixtures: the worked-example machines, random generators, and
independent oracles (bounded enumeration, configuration search, scan,
from-scratch Kleene iteration)."""

from __future__ import annotations

import os
import random

import pytest

from wqlang import CnfGrammar, Dfa, Nfa, Ocn, Slp
from wqlang.automata import bits
from wqlang.fixpoint import Antichain, ac_below, kleene
from wqlang.slpsearch.slp import rule_id

A, B, C = ord("a"), ord("b"), ord("c")


def examples(count: int) -> int:
    """Hypothesis example count of a property test: ``count`` in Tier-1,
    ten times that under ``HYPOTHESIS_PROFILE=deep``."""
    return count * 10 if os.environ.get("HYPOTHESIS_PROFILE") == "deep" else count


# -- worked-example machines -------------------------------------------------


def make_fig41() -> Nfa:
    """Two states, L = (a + b+a)*: q1 loops on a, b hops to q2, a returns."""
    return Nfa(2, [(0, A, 0), (0, B, 1), (1, A, 0), (1, B, 1)], [0], [0])


def make_fig42_n1() -> Nfa:
    """L(N1) = a*(a+b+c)."""
    return Nfa(2, [(0, A, 0), (0, A, 1), (0, B, 1), (0, C, 1)], [0], [1])


def make_fig42_n2() -> Nfa:
    """L(N2) = a*(a(a+b)*a + a+c + ab + bb); states q1..q5 are 0..4."""
    return Nfa(
        5,
        [
            (0, A, 0),
            (0, A, 1),
            (0, A, 2),
            (0, A, 3),
            (0, B, 3),
            (1, A, 1),
            (1, C, 4),
            (2, A, 2),
            (2, A, 4),
            (2, B, 2),
            (3, B, 4),
        ],
        [0],
        [4],
    )


def make_fig43() -> Nfa:
    """L = (b + ab*a)(a+b)*; states q1..q3 are 0..2."""
    return Nfa(
        3,
        [(0, A, 1), (1, B, 1), (1, A, 2), (0, B, 2), (2, A, 2), (2, B, 2)],
        [0],
        [2],
    )


def make_ex451_grammar() -> CnfGrammar:
    """X0 -> X0 X1 | X1 X0 | b, X1 -> a; the language is a*ba*."""
    return CnfGrammar(2, {0: {B}, 1: {A}}, {0: {(0, 1), (1, 0)}})


def make_fig31() -> Nfa:
    """L = Sigma* a Sigma a Sigma* over {a, b}."""
    return Nfa(
        4,
        [
            (0, A, 0),
            (0, B, 0),
            (0, A, 1),
            (1, A, 2),
            (1, B, 2),
            (2, A, 3),
            (3, A, 3),
            (3, B, 3),
        ],
        [0],
        [3],
    )


def make_fig62() -> Nfa:
    """Six states where the principal of c is the union of those of a and b,
    so residualization beats plain subset-based residualization."""
    return Nfa(
        6,
        [
            (0, A, 1),
            (0, A, 2),
            (0, B, 1),
            (0, B, 3),
            (0, C, 1),
            (0, C, 2),
            (0, C, 3),
            (0, C, 4),
            (1, A, 5),
            (2, B, 5),
            (3, C, 5),
            (4, A, 5),
        ],
        [0],
        [5],
    )


def make_fig52_prime() -> Nfa:
    """L = {ab, bb} on three states."""
    return Nfa(3, [(0, A, 1), (0, B, 1), (1, B, 2)], [0], [2])


def make_counter_ocn() -> Ocn:
    """One state: a increments, b decrements."""
    return Ocn(1, [(0, A, 1, 0), (0, B, -1, 0)])


@pytest.fixture
def fig41():
    return make_fig41()


@pytest.fixture
def fig42_n1():
    return make_fig42_n1()


@pytest.fixture
def fig42_n2():
    return make_fig42_n2()


@pytest.fixture
def fig43():
    return make_fig43()


@pytest.fixture
def ex451_grammar():
    return make_ex451_grammar()


@pytest.fixture
def fig31():
    return make_fig31()


@pytest.fixture
def fig62():
    return make_fig62()


@pytest.fixture
def fig52_prime():
    return make_fig52_prime()


@pytest.fixture
def counter_ocn():
    return make_counter_ocn()


# -- random generators ---------------------------------------------------------


def rand_nfa(rng: random.Random, max_states: int = 5, n_syms: int = 2, density: float = 0.25) -> Nfa:
    count = rng.randint(1, max_states)
    syms = [A, B, C][:n_syms]
    triples = [
        (p, sym, q)
        for p in range(count)
        for sym in syms
        for q in range(count)
        if rng.random() < density
    ]
    initial = [q for q in range(count) if rng.random() < 0.4] or [rng.randrange(count)]
    final = [q for q in range(count) if rng.random() < 0.4]
    return Nfa(count, triples, initial, final)


def nfa_union(a: Nfa, b: Nfa) -> Nfa:
    """Disjoint union: ``b``'s states are shifted past ``a``'s."""
    shift = a.state_count
    return Nfa(
        a.state_count + b.state_count,
        [*a._triples, *((p + shift, s, q + shift) for p, s, q in b._triples)],
        [*a.initial, *(q + shift for q in b.initial)],
        [*a.final, *(q + shift for q in b.final)],
    )


def tv_nfa(rng: random.Random, n: int, density: float, final_density: float = 0.5) -> Nfa:
    """A Tabakov-Vardi random NFA over {a, b}: ``n`` states, state 0
    initial, ``round(density * n)`` distinct transitions per symbol drawn
    from the ``n * n`` state pairs and ``round(final_density * n)`` final
    states."""
    triples = [
        (cell // n, sym, cell % n)
        for sym in (A, B)
        for cell in rng.sample(range(n * n), max(1, round(density * n)))
    ]
    return Nfa(n, triples, [0], rng.sample(range(n), max(1, round(final_density * n))))


def rand_dfa(rng: random.Random, max_states: int = 6, n_syms: int = 2, density: float = 0.7) -> Dfa:
    """A random DFA: each transition is present with probability
    ``density`` (so the DFA may be partial) and the initial state is drawn
    at random, so some states may be unreachable."""
    count = rng.randint(1, max_states)
    syms = [A, B, C][:n_syms]
    moves = [(p, sym, rng.randrange(count)) for p in range(count) for sym in syms if rng.random() < density]
    final = [q for q in range(count) if rng.random() < 0.4]
    return Dfa(count, moves, [rng.randrange(count)], final)


def rand_cnf(rng: random.Random, max_vars: int = 4, n_syms: int = 2) -> CnfGrammar:
    count = rng.randint(1, max_vars)
    syms = [A, B, C][:n_syms]
    terms: dict[int, set[int]] = {}
    bins: dict[int, set[tuple[int, int]]] = {}
    for v in range(count):
        while True:
            if rng.random() < 0.8:
                terms.setdefault(v, set()).add(rng.choice(syms))
            if count > 1 and rng.random() < 0.6:
                bins.setdefault(v, set()).add(
                    (rng.randrange(count), rng.randrange(count))
                )
            if v in terms or v in bins:
                break
    return CnfGrammar(count, terms, bins, axiom_nullable=rng.random() < 0.2)


def rand_word(rng: random.Random, max_len: int, n_syms: int = 2) -> bytes:
    syms = [A, B, C][:n_syms]
    return bytes(rng.choice(syms) for _ in range(rng.randint(0, max_len)))


_LOG_LEVELS = (b"INFO", b"INFO", b"DEBUG", b"WARN", b"ERROR")
_LOG_SERVICES = (b"auth", b"billing", b"search", b"gateway", b"cache")
_LOG_PATHS = (b"/api/v1/users", b"/api/v1/orders", b"/health", b"/login")
_LOG_MESSAGES = (b"request served", b"cache miss", b"retrying upstream", b"timeout")


def log_text(rng: random.Random, size: int) -> bytes:
    """Synthetic service log of at least ``size`` bytes, whole lines only."""
    lines = []
    total = 0
    second = rng.randrange(86400)
    while total < size:
        second += rng.randint(0, 3)
        line = b"%02d:%02d:%02d %s [%s-%d] GET %s status=%d took=%dms %s\n" % (
            second // 3600 % 24,
            second // 60 % 60,
            second % 60,
            rng.choice(_LOG_LEVELS),
            rng.choice(_LOG_SERVICES),
            rng.randint(1, 8),
            rng.choice(_LOG_PATHS),
            rng.choice((200, 200, 404, 500)),
            rng.randint(1, 2500),
            rng.choice(_LOG_MESSAGES),
        )
        lines.append(line)
        total += len(line)
    return b"".join(lines)


def run_heavy_text(rng: random.Random, chunks: int) -> bytes:
    """Concatenation of short run-heavy chunks over {a, b}."""
    return b"".join(rng.choice((b"aa", b"ab", b"aab", b"abb")) for _ in range(chunks))


# -- independent oracles ---------------------------------------------------------


def ocn_trace_oracle(o: Ocn, start: tuple[int, int], word: bytes) -> bool:
    """Exact configuration search: is the word a trace from start?"""
    configs = {start}
    for sym in word:
        nxt = set()
        for q, n in configs:
            for p, s, d, q2 in o.transitions:
                if p == q and s == sym and n + d >= 0:
                    nxt.add((q2, n + d))
        configs = nxt
        if not configs:
            return False
    return True


def accepted_words(n: Nfa, max_len: int):
    """All words ``n`` accepts of length <= max_len, in shortlex order, by
    a breadth-first walk of the subset construction."""
    syms = sorted(n.alphabet)
    frontier = [(b"", n.initial_mask)]
    for _ in range(max_len + 1):
        nxt = []
        for word, m in frontier:
            if m & n.final_mask:
                yield word
            for sym in syms:
                t = n.step(m, sym)
                if t:
                    nxt.append((word + bytes([sym]), t))
        frontier = nxt
        if not frontier:
            return


def words_up_to(g: CnfGrammar, max_len: int) -> set[bytes]:
    """All words of L(g) up to the given length, by brute-force bottom-up
    derivation; exponential in general. The axiom's empty alternative
    participates in compositions, matching the least-fixpoint reading of
    the equations."""
    by_len: list[list[set[bytes]]] = [
        [set() for _ in range(max_len + 1)] for _ in range(g.variable_count)
    ]
    if g.axiom_nullable:
        by_len[0][0].add(b"")
    for v, ts in g.terminal_rules.items():
        if max_len >= 1:
            by_len[v][1] = {bytes([t]) for t in ts}
    changed = True
    while changed:
        changed = False
        for length in range(0, max_len + 1):
            for v, ps in g.binary_rules.items():
                acc = by_len[v][length]
                before = len(acc)
                for y, z in ps:
                    for l1 in range(0, length + 1):
                        for u in by_len[y][l1]:
                            for w in by_len[z][length - l1]:
                                acc.add(u + w)
                if len(acc) != before:
                    changed = True
    out: set[bytes] = set()
    for length in range(0, max_len + 1):
        out |= by_len[0][length]
    return out


def simulation_oracle(a: Nfa, m: Nfa) -> set[tuple[int, int]]:
    """The maximal simulation of the states of ``a`` by those of ``m`` as a
    set of pairs (q, p), p simulating q: the greatest fixpoint that starts
    from every pair where p is final if q is, and drops (q, p) while some
    move q -s-> q2 of ``a`` has no move p -s-> p2 of ``m`` with (q2, p2)
    kept. Works on explicit pairs and transition sets only."""
    moves_a, moves_m = a.transitions, m.transitions
    rel = {
        (q, p)
        for q in range(a.state_count)
        for p in range(m.state_count)
        if q not in a.final or p in m.final
    }
    changed = True
    while changed:
        changed = False
        for q, p in sorted(rel):
            if any(
                not any((q2, p2) in rel for p2 in moves_m.get((p, sym), ()))
                for (q1, sym), q2s in moves_a.items()
                if q1 == q
                for q2 in q2s
            ):
                rel.discard((q, p))
                changed = True
    return rel


def ctx_pairs_oracle(n: Nfa, word: bytes) -> set[tuple[int, int]]:
    """The state-pair relation of a word as explicit pairs (q, q2): q2 is
    one of the states ``n`` reaches reading the word from q alone."""
    return {(q, q2) for q in range(n.state_count) for q2 in bits(n.with_initial([q]).run(word))}


def _abs_eq(va, vb) -> bool:
    return all(ac_below(a, b) and ac_below(b, a) for a, b in zip(va, vb))


def word_step_oracle(n1: Nfa, handle):
    """One from-scratch Kleene round of ``word_fixpoint``: every state's
    antichain is rebuilt from the previous iterate, every key inserted."""
    left = handle.direction == "left"
    base_mask = n1.final_mask if left else n1.initial_mask
    # a word at q extends a word at each q2 that q moves to in n1 (left) or
    # in its reverse (right)
    moves = n1 if left else n1.reverse()

    def step(vec):
        out = []
        for q in range(n1.state_count):
            ac = Antichain(handle.leq)
            if base_mask >> q & 1:
                ac.insert(handle.key_of(b""), b"")
            for sym in sorted(n1.alphabet):
                s = bytes([sym])
                for q2 in bits(moves.step(1 << q, sym)):
                    for key, word in vec[q2]:
                        ac.insert(handle.extend(key, sym), s + word if left else word + s)
            out.append(ac)
        return out

    return step


def word_fixpoint_oracle(n1: Nfa, handle, max_iter: int = 1 << 20):
    """``word_fixpoint`` recomputed from scratch on every round, stopping
    when two iterates are equivalent both ways on every state."""
    bottom = [Antichain(handle.leq) for _ in range(n1.state_count)]
    result = kleene(word_step_oracle(n1, handle), bottom, _abs_eq, max_iter)
    return result.value, result.iterations


def cfg_word_fixpoint_oracle(g: CnfGrammar, handle, max_iter: int = 1 << 20):
    """``cfg_word_fixpoint`` recomputed from scratch on every round."""
    base = []
    for v in range(g.variable_count):
        words = [bytes([t]) for t in sorted(g.terminal_rules.get(v, ()))]
        if v == 0 and g.axiom_nullable:
            words.insert(0, b"")
        base.append(words)

    def step(vec):
        out = []
        for v in range(g.variable_count):
            ac = Antichain(handle.leq)
            for word in base[v]:
                ac.insert(handle.key_of(word), word)
            for y, z in sorted(g.binary_rules.get(v, ())):
                for k1, w1 in vec[y]:
                    for k2, w2 in vec[z]:
                        ac.insert(handle.compose(k1, k2), w1 + w2)
            out.append(ac)
        return out

    bottom = [Antichain(handle.leq) for _ in range(g.variable_count)]
    result = kleene(step, bottom, _abs_eq, max_iter)
    return result.value, result.iterations


def factor_scanner(nfa: Nfa):
    """Test for 'some factor of the input is accepted': the automaton run
    with a restart at every position, its subset construction built lazily
    along the bytes the inputs read (eagerly, a pattern like
    ``foo.{0,100}bar`` reaches exponentially many subsets)."""
    start = nfa.initial_mask
    table: dict[tuple[int, int], int] = {}

    def contains_factor(data: bytes) -> bool:
        state = start
        if state & nfa.final_mask:
            return True
        for byte in data:
            nxt = table.get((state, byte))
            if nxt is None:
                nxt = table[(state, byte)] = nfa.step(state, byte) | start
            state = nxt
            if state & nfa.final_mask:
                return True
        return False

    return contains_factor


def count_lines_oracle(text: bytes, nfa: Nfa) -> int:
    """Decompress-free reference: split on newlines, scan each line."""
    scan = factor_scanner(nfa)
    return sum(1 for line in text.split(b"\n") if line and scan(line))


def matching_lines_oracle(text: bytes, nfa: Nfa) -> list[tuple[int, bytes]]:
    scan = factor_scanner(nfa)
    return [
        (no, line)
        for no, line in enumerate(text.split(b"\n"), start=1)
        if line and scan(line)
    ]


def repair_oracle(text: bytes) -> Slp:
    """Reference RePair: recount every pair and rebuild the whole sequence
    each round (quadratic). The most frequent pair wins, ties go to the
    smallest pair, and a run like "aaa" counts and replaces one pair, the
    leftmost."""
    seq: list[int] = list(text)
    rules: list[tuple[int, int]] = []
    while True:
        counts: dict[tuple[int, int], int] = {}
        i = 0
        while i < len(seq) - 1:
            pair = (seq[i], seq[i + 1])
            counts[pair] = counts.get(pair, 0) + 1
            if i + 2 < len(seq) and (seq[i + 1], seq[i + 2]) == pair:
                i += 2
            else:
                i += 1
        if not counts:
            break
        pair, freq = max(counts.items(), key=lambda kv: (kv[1], (-kv[0][0], -kv[0][1])))
        if freq < 2:
            break
        fresh = rule_id(len(rules))
        rules.append(pair)
        out: list[int] = []
        i = 0
        while i < len(seq):
            if i + 1 < len(seq) and (seq[i], seq[i + 1]) == pair:
                out.append(fresh)
                i += 2
            else:
                out.append(seq[i])
                i += 1
        seq = out
    return Slp([*rules, tuple(seq)])


def chain_slp(text: bytes) -> Slp:
    """The left-deep SLP of ``text``: rule 1 is its first two bytes and rule
    i + 1 appends byte i + 2 to rule i, so the depth is ``len(text) - 1``."""
    return Slp([(text[0], text[1]), *((rule_id(i), byte) for i, byte in enumerate(text[2:]))])


def set_of(mask: int) -> set[int]:
    return set(bits(mask))


# -- acceptance reporting ---------------------------------------------------------


def pytest_runtest_logreport(report):
    name = getattr(report, "nodeid", "")
    if "test_acceptance" in name and report.when == "call":
        label = name.split("::")[-1]
        print(f"\n[acceptance] {label}: {'PASS' if report.passed else 'FAIL'}")
