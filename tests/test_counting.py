import random

import pytest
from hypothesis import given, settings, strategies as st

from wqlang import (
    Nfa,
    SearchEngine,
    compile_regex,
    decompress,
    parse_regex,
    repair_compress,
)
from wqlang.slpsearch.regex import EmptyMatchError
import wqlang.slpsearch.counting as counting
from wqlang.slpsearch.counting import MATCHED, NEWLINE
from wqlang.slpsearch.slp import Slp, rule_id

from conftest import (
    A,
    B,
    chain_slp,
    count_lines_oracle,
    examples,
    factor_scanner,
    make_fig52_prime,
    matching_lines_oracle,
)


def pat(text: str) -> Nfa:
    return compile_regex(parse_regex(text))


def test_example_text_counts_one_line():
    slp = repair_compress(b"ab\na\nbab\n")
    assert SearchEngine(slp, pat("ba")).line_count() == 1


def test_no_match_counts_zero():
    slp = repair_compress(b"aa")
    assert SearchEngine(slp, pat("b")).line_count() == 0


def test_report_matching_line():
    slp = repair_compress(b"ab\na\nbab\n")
    assert list(SearchEngine(slp, pat("ba")).report()) == [(3, b"bab")]


def test_report_empty_when_no_match():
    slp = repair_compress(b"ab\na\nqq\n")
    assert list(SearchEngine(slp, pat("ba")).report()) == []


def test_zero_count_report_expands_nothing(monkeypatch):
    def refuse(*_args):
        raise AssertionError("a report with no matching line expanded text")

    monkeypatch.setattr(counting, "Expander", refuse)
    monkeypatch.setattr(SearchEngine, "_newlines", refuse)
    engine = SearchEngine(repair_compress(b"ab\na\nqq\n"), pat("ba"))
    assert engine.line_count() == 0
    assert list(engine.report()) == []


def test_counting_info_sound_at_every_symbol():
    # every binary rule, entered at a line start or in a matched line, closes
    # the matching lines a scan of its expansion finds and exits matched
    # exactly when its last line matches
    rng = random.Random(61)
    for nfa in (pat("ba"), pat("a+b")):
        scan = factor_scanner(nfa)
        for _ in range(25):
            text = bytes(rng.choice(b"ab\n") for _ in range(rng.randint(2, 300)))
            slp = repair_compress(text)
            engine = SearchEngine(slp, nfa)
            for index in range(slp.rule_count - 1):
                # the rule's expansion: the prefix grammar with it as axiom
                lines = decompress(Slp(slp.rules[: index + 1])).split(b"\n")
                closed = sum(scan(line) for line in lines[1:-1])
                last = scan(lines[-1])
                out, from_start = engine.evaluate(rule_id(index), nfa.initial_mask)
                assert from_start == closed + (len(lines) > 1 and scan(lines[0]))
                assert (out == MATCHED) == last
                out, from_matched = engine.evaluate(rule_id(index), MATCHED)
                assert from_matched == closed + (len(lines) > 1)
                assert (out == MATCHED) == (len(lines) == 1 or last)


def test_match_exists_fig52():
    # the worked compressed-search example: text ab$a$bab$a$b, L' = {ab, bb}
    slp = Slp([(A, B), (ord("$"), A), (ord("$"), B), (257, 258), (260, 259), (261, 261)])
    engine = SearchEngine(slp, make_fig52_prime())
    # the fifth rule carries q1 to q3, the final state, so entered in {q1}
    # it exits matched; the second rule, $a, only reaches q2
    assert engine.evaluate(rule_id(4), 0b001) == (MATCHED, 0)
    assert engine.evaluate(rule_id(1), 0b001) == (0b011, 0)
    assert engine.match_exists()


@pytest.mark.parametrize("sym", [258, 256, -1, 259])
def test_evaluate_refuses_the_axiom_and_unknown_ids(sym):
    # ab\nab\ncb: 258 is the axiom, 256 and -1 are no byte, 259 no rule
    slp = Slp([(A, B), (257, 10, 257, 10, ord("c"), B)])
    nfa = pat("cb")
    engine = SearchEngine(slp, nfa)
    assert engine.line_count() == 1
    assert engine.evaluate(257, nfa.initial_mask)[1] == 0
    assert engine.evaluate(ord("c"), nfa.initial_mask)[1] == 0
    with pytest.raises(ValueError, match="neither a byte nor a binary rule"):
        engine.evaluate(sym, nfa.initial_mask)


def test_match_exists_single_rule():
    slp = Slp([(A, B)])
    assert SearchEngine(slp, pat("ab")).match_exists()
    assert not SearchEngine(slp, pat("ba")).match_exists()


def test_match_exists_agrees_with_scan():
    rng = random.Random(62)
    nfa = pat("ba")
    scan = factor_scanner(nfa)
    for _ in range(60):
        text = bytes(rng.choice(b"ab\n") for _ in range(rng.randint(2, 200)))
        slp = repair_compress(text)
        assert SearchEngine(slp, nfa).match_exists() == scan(text)


def test_match_exists_spans_newlines_but_count_does_not():
    text = b"xb\nay"
    slp = repair_compress(text)
    nfa_with_nl = Nfa(3, [(0, B, 1), (1, 0x0A, 2)], [0], [2])  # "b\n"
    engine = SearchEngine(slp, nfa_with_nl)
    assert engine.match_exists()
    assert SearchEngine(slp, pat("ba")).line_count() == 0
    with pytest.raises(ValueError):
        engine.line_count()


def test_line_search_rejects_empty_word_automaton():
    slp = repair_compress(b"xy\nab\nq\n")
    engine = SearchEngine(slp, compile_regex(parse_regex("(ab)*"), allow_empty=True))
    with pytest.raises(ValueError, match="empty word"):
        engine.line_count()
    with pytest.raises(ValueError, match="empty word"):
        engine.report()


def test_count_lines_matches_oracle_on_random_texts():
    rng = random.Random(63)
    patterns = [pat("ba"), pat("a+b"), pat("[ab]{3}")]
    for _ in range(40):
        text = bytes(rng.choice(b"aabb\n") for _ in range(rng.randint(2, 400)))
        slp = repair_compress(text)
        for nfa in patterns:
            assert SearchEngine(slp, nfa).line_count() == count_lines_oracle(text, nfa)


def test_report_matches_oracle_on_random_texts():
    rng = random.Random(64)
    nfa = pat("ba")
    for _ in range(40):
        text = bytes(rng.choice(b"ab\n") for _ in range(rng.randint(2, 300)))
        slp = repair_compress(text)
        assert list(SearchEngine(slp, nfa).report()) == matching_lines_oracle(text, nfa)


def test_report_count_consistency():
    rng = random.Random(65)
    nfa = pat("ab+a")
    for _ in range(30):
        text = bytes(rng.choice(b"aabbb\n") for _ in range(rng.randint(2, 250)))
        slp = repair_compress(text)
        engine = SearchEngine(slp, nfa)
        assert engine.line_count() == len(list(engine.report()))


def test_inner_loop_bound_nfa():
    rng = random.Random(67)
    nfa = pat("a+b")  # nondeterministic after compilation
    s = nfa.state_count
    for _ in range(20):
        text = bytes(rng.choice(b"ab\n") for _ in range(rng.randint(2, 400)))
        slp = repair_compress(text)
        engine = SearchEngine(slp, nfa)
        # per composition: s rows of at most s bits, plus two images of at
        # most s bits; plus the image of the initial states at the first
        # axiom symbol
        assert engine.stats.inner_iters <= engine.stats.compose_steps * s * (s + 2) + s


def test_axiom_fold_visits_linear_bits_per_symbol():
    # one rule, a 500-symbol axiom, and a pattern whose relations are dense
    # (every [ab]+ state loops): folding the axiom as a state set visits at
    # most 2s bits per symbol, where composing whole relations would not
    text = bytes(random.Random(69).choice(b"ab") for _ in range(500))
    slp = Slp([tuple(text)])
    nfa = pat("[ab]+" * 8 + "c")
    s = nfa.state_count
    engine = SearchEngine(slp, nfa)
    assert engine.stats.compose_steps == len(slp.axiom) - 1
    assert engine.stats.inner_iters <= 2 * s * len(slp.axiom)
    assert engine.line_count() == count_lines_oracle(text, nfa) == 0


def test_long_axiom_fold():
    # axiom arity far above two exercises the left-to-right fold
    text = bytes(random.Random(68).choice(b"abcdefgh") for _ in range(64)) + b"ab"
    slp = repair_compress(text)
    assert len(slp.axiom) > 2
    assert SearchEngine(slp, pat("ab")).line_count() == count_lines_oracle(text, pat("ab"))


def _pattern(draw, depth: int) -> str:
    """A small regex over a and b, with every operator the parser knows."""
    if depth == 0 or draw(st.booleans()):
        return draw(st.sampled_from(["a", "b", "[ab]", "[^a]", "."]))
    kind = draw(st.sampled_from(["concat", "alt", "+", "*", "?", "{}"]))
    left = _pattern(draw, depth - 1)
    if kind == "concat":
        return left + _pattern(draw, depth - 1)
    if kind == "alt":
        return f"({left}|{_pattern(draw, depth - 1)})"
    if kind == "{}":
        low = draw(st.integers(0, 2))
        return f"({left}){{{low},{low + draw(st.integers(0, 2))}}}"
    return f"({left}){kind}"


@st.composite
def patterns(draw) -> Nfa:
    text = _pattern(draw, 3)
    try:
        return pat(text)
    except EmptyMatchError:
        return pat(f"({text})b")


@given(patterns(), st.text(alphabet="ab\n", min_size=2, max_size=120))
@settings(max_examples=examples(200), deadline=None)
def test_search_matches_scan_oracle(nfa, text):
    data = text.encode()
    slp = repair_compress(data)
    engine = SearchEngine(slp, nfa)
    assert engine.line_count() == count_lines_oracle(data, nfa)
    assert list(engine.report()) == matching_lines_oracle(data, nfa)
    assert engine.match_exists() == factor_scanner(nfa)(data)


def _fold(nfa: Nfa, word: bytes, ctx: int) -> tuple[int, int]:
    """Exit context and closed matching lines of ``word`` entered in ``ctx``,
    byte by byte, with successors read from the transition view."""

    def context(reached: int) -> int:
        reached |= nfa.initial_mask
        return MATCHED if reached & nfa.final_mask else reached

    start, closed = context(0), 0
    for byte in word:
        if byte == NEWLINE:
            closed += ctx == MATCHED
            ctx = start
        elif ctx != MATCHED:
            reached = 0
            for q in range(nfa.state_count):
                if ctx >> q & 1:
                    for r in nfa.transitions.get((q, byte), ()):
                        reached |= 1 << r
            ctx = context(reached)
    return ctx, closed


@given(patterns(), st.text(alphabet="ab\n", min_size=2, max_size=120), st.data())
@settings(max_examples=examples(100), deadline=None)
def test_evaluate_agrees_with_a_byte_fold_from_any_context(nfa, text, data):
    # masks the walk never met included: evaluate interns each on first sight
    slp = repair_compress(text.encode())
    engine = SearchEngine(slp, nfa)
    contexts = data.draw(
        st.lists(
            st.one_of(st.just(MATCHED), st.integers(0, (1 << nfa.state_count) - 1)),
            min_size=1,
            max_size=4,
        )
    )
    first = {}
    for index in range(slp.rule_count - 1):
        word = decompress(Slp(slp.rules[: index + 1]))
        for ctx in contexts:
            first[index, ctx] = engine.evaluate(rule_id(index), ctx)
            assert first[index, ctx] == _fold(nfa, word, ctx)
    # a second pass meets only known contexts and memoized pairs
    stats = (engine.stats.compose_steps, engine.stats.inner_iters)
    for (index, ctx), result in first.items():
        assert engine.evaluate(rule_id(index), ctx) == result
    assert (engine.stats.compose_steps, engine.stats.inner_iters) == stats


@st.composite
def newline_automata(draw) -> Nfa:
    """A small NFA over a, b and the newline that reads the newline."""
    n = draw(st.integers(1, 4))
    moves = draw(
        st.lists(st.tuples(st.integers(0, n - 1), st.sampled_from(b"ab\n"), st.integers(0, n - 1)))
    )
    moves.append((draw(st.integers(0, n - 1)), NEWLINE, draw(st.integers(0, n - 1))))
    states = st.lists(st.integers(0, n - 1), min_size=1, max_size=n)
    return Nfa(n, moves, draw(states), draw(states))


@given(
    st.one_of(patterns(), newline_automata()),
    st.text(alphabet="ab\n", min_size=2, max_size=120),
)
@settings(max_examples=examples(200), deadline=None)
def test_stats_count_the_memo_entries_the_walk_made(nfa, text):
    # whatever the walk's shape: one composition per axiom symbol after the
    # first and per rule pair evaluated by descent (in line mode a rule
    # entered in MATCHED descends too), and one inner iteration per context
    # bit of each terminal pair stepped (a newline in line mode steps none)
    slp = repair_compress(text.encode())
    engine = SearchEngine(slp, nfa)
    width, lines, memo = engine._width, NEWLINE not in nfa.alphabet, engine._memo
    descended = sum(1 for k in memo if k % width > counting.TERMINALS and (lines or k // width))
    assert engine.stats.compose_steps == len(slp.axiom) - 1 + descended
    assert engine.stats.inner_iters == sum(
        engine._contexts[k // width].bit_count()
        for k in memo
        if k % width < counting.TERMINALS and k // width and not (lines and k % width == NEWLINE)
    )


def _right_chain_slp(text: bytes) -> Slp:
    """The right-deep SLP of ``text``: rule 1 is its last two bytes and rule
    i + 1 is (byte, rule i), so the depth is ``len(text) - 1``."""
    rules = [(text[-2], text[-1])]
    rules += [(byte, rule_id(i)) for i, byte in enumerate(reversed(text[:-2]))]
    return Slp(rules)


def test_search_on_200000_deep_right_chain():
    # every rule's right child is the next rule down, so the walk keeps
    # nearly 200,000 rules waiting on their right child; matches at the
    # first byte, in a middle line and at the last bytes
    rng = random.Random(72)
    first, last = (bytes(rng.choice(b"xyz") for _ in range(n)) for n in (99_995, 99_996))
    text = b"ab" + first + b"\nqab\n" + last + b"ab"
    assert len(text) == 200_000
    slp = _right_chain_slp(text)
    assert decompress(slp) == text
    nfa = pat("ab")
    engine = SearchEngine(slp, nfa)
    assert engine.line_count() == count_lines_oracle(text, nfa) == 3
    assert engine.match_exists() == factor_scanner(nfa)(text)
    assert list(engine.report()) == matching_lines_oracle(text, nfa)


def test_report_line_under_deep_rule():
    # the matching line lies under a 5000-deep rule without a newline
    line = b"xyz" * 1666 + b"ab"
    slp = chain_slp(line + b"\n")
    engine = SearchEngine(slp, pat("ab"))
    assert list(engine.report()) == [(1, line)]
    assert engine.line_count() == 1


def test_line_results_refuse_a_newline_automaton():
    # "a\n": the engine's line results refuse it, while match_exists treats
    # the newline as an ordinary symbol
    slp = repair_compress(b"xa\nbb\nyy")
    nfa = Nfa(3, [(0, A, 1), (1, 0x0A, 2)], [0], [2])
    engine = SearchEngine(slp, nfa)
    for result in (engine.line_count, engine.report):
        with pytest.raises(ValueError, match="newline-free"):
            result()
    assert engine.match_exists()


def test_search_on_200000_deep_chain():
    # one 200,000-byte line under a left-deep chain of rules, then a tail
    rng = random.Random(70)
    line = bytes(rng.choice(b"xyz") for _ in range(200_000 - 2)) + b"ab"
    text = line + b"\nqab\nzz"
    slp = chain_slp(text)
    nfa = pat("ab")
    engine = SearchEngine(slp, nfa)
    assert engine.line_count() == count_lines_oracle(text, nfa) == 2
    assert engine.match_exists() == factor_scanner(nfa)(text)
    assert list(engine.report()) == matching_lines_oracle(text, nfa)


def test_compositions_bounded_by_text_length():
    # a[ab]{12}c on random ab text meets up to 2^12 contexts, the worst case
    # of the directed walk; each composition still covers a distinct node of
    # the derivation tree, so there are fewer than there are bytes
    rng = random.Random(71)
    text = bytes(rng.choice(b"ab") for _ in range(32 * 1024))
    slp = repair_compress(text)
    nfa = pat("a[ab]{12}c")
    engine = SearchEngine(slp, nfa)
    assert engine.stats.compose_steps <= len(text)
    assert engine.line_count() == count_lines_oracle(text, nfa) == 0
