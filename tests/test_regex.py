import itertools
import os
import random
import re
import subprocess
import sys
import time
from pathlib import Path

import pytest

from conftest import examples
from wqlang import compile_regex, equivalence_counterexample, homogeneous_dfa, homogeneous_kind, parse_regex
from wqlang.slpsearch.regex import (
    Alt,
    ClassAtom,
    Concat,
    EmptyMatchError,
    Lit,
    MAX_REGEX_STATES,
    MAX_REGEX_TRANSITIONS,
    Opt,
    Plus,
    RegexSyntaxError,
    Repeat,
    Star,
)

A, B = ord("a"), ord("b")


def test_parse_plus_chain():
    ast = parse_regex("a+bb+a+c+")
    assert isinstance(ast, Concat) and len(ast.parts) == 5
    leaves = [p.inner if isinstance(p, Plus) else p for p in ast.parts]
    assert [l.byte for l in leaves] == [ord(c) for c in "abbac"]


def test_parse_unbalanced_group_offset():
    with pytest.raises(RegexSyntaxError) as err:
        parse_regex("(")
    assert err.value.offset == 0


def test_parse_class_with_repetition():
    ast = parse_regex("[0-9]{4}")
    assert isinstance(ast, Repeat) and ast.low == ast.high == 4
    assert len(ast.inner.bytes_) == 10


def test_parse_errors():
    for bad in ("a{3,1}", "a|", "[z-a]", "[", "a)", "*a", "\\"):
        with pytest.raises(RegexSyntaxError):
            parse_regex(bad)


@pytest.mark.parametrize(
    "pattern, offset, message",
    [
        ("", 0, "empty pattern"),
        ("()", 0, "empty group"),
        ("a()*b", 1, "empty group"),
        ("a|", 2, "empty alternation branch"),
        ("|a", 0, "empty alternation branch"),
        ("(|a)", 1, "empty alternation branch"),
        ("(a|)", 3, "empty alternation branch"),
        (")", 0, "unexpected ')'"),
        ("a)", 1, "unexpected ')'"),
        ("a|)", 2, "unexpected ')'"),
        ("(a))", 3, "unexpected ')'"),
    ],
)
def test_parse_errors_name_the_empty_part(pattern, offset, message):
    with pytest.raises(RegexSyntaxError) as err:
        parse_regex(pattern)
    assert str(err.value) == f"offset {offset}: {message}"
    assert err.value.offset == offset


def test_parse_escapes():
    assert parse_regex("\\n").byte == 0x0A
    assert parse_regex("\\x41").byte == 0x41
    assert parse_regex("\\.").byte == ord(".")


@pytest.mark.parametrize(
    "pattern, offset",
    [("\\x-1", 0), ("\\x+9", 0), ("\\x 9", 0), ("ab\\x-f", 2), ("[\\x-1]", 1), ("[a-\\x+9]", 3)],
)
def test_hex_escape_needs_two_hex_digits(pattern, offset):
    # int(..., 16) alone would read a sign or a space as part of the number
    with pytest.raises(RegexSyntaxError) as err:
        parse_regex(pattern)
    assert err.value.offset == offset
    assert "two hex digits" in str(err.value)


def test_dot_excludes_newline():
    ast = parse_regex(".")
    assert 0x0A not in ast.bytes_ and len(ast.bytes_) == 255
    nfa = compile_regex(ast)
    for byte in range(256):
        assert nfa.member(bytes([byte])) == (byte != 0x0A)


def test_class_newline_exclusion():
    assert 0x0A not in parse_regex("[\\x00-\\x20]").bytes_
    assert 0x0A in parse_regex("[\\n ]").bytes_
    assert 0x0A not in parse_regex("[^a]").bytes_


def test_compile_two_literal_chain():
    nfa = compile_regex(parse_regex("ba"))
    assert nfa.state_count == 3
    assert nfa.member(b"ba") and not nfa.member(b"b")


def test_compile_rejects_empty_match():
    for pattern in ("a*", "a?", "(a|b)*", "a{0,2}"):
        with pytest.raises(EmptyMatchError):
            compile_regex(parse_regex(pattern))
        compile_regex(parse_regex(pattern), allow_empty=True)  # fine


@pytest.mark.parametrize(
    "pattern, cap",
    [
        ("a{2}" + "{2}" * 40, "states"),
        ("(a{1000}){1000}", "states"),
        ("a{99999}", "states"),
        (".{5000}", "transitions"),
        ("(a?){9000}b", "states"),
    ],
    ids=["doubling", "thousands", "huge-bound", "dense-class", "optional-copies"],
)
def test_compile_refuses_oversized_repetition(pattern, cap):
    start = time.perf_counter()
    with pytest.raises(RegexSyntaxError, match=f"more than .* {cap}"):
        compile_regex(parse_regex(pattern))
    assert time.perf_counter() - start < 1.0


def test_compile_caps_are_exact():
    # a{n} has the initial state and one state per copy; each copy of the
    # 32-byte class [A-Za-f] is entered on 32 moves, from the initial state
    # or from the copy before, so the transition cap binds at 4,096 copies,
    # well within the state cap
    copies = MAX_REGEX_STATES - 1
    assert compile_regex(parse_regex(f"a{{{copies}}}")).state_count == MAX_REGEX_STATES
    with pytest.raises(RegexSyntaxError, match="states"):
        compile_regex(parse_regex(f"a{{{copies + 1}}}"))
    copies = MAX_REGEX_TRANSITIONS // 32
    nfa = compile_regex(parse_regex(f"[A-Za-f]{{{copies}}}"))
    assert nfa.state_count == copies + 1
    assert len(nfa._triples) == MAX_REGEX_TRANSITIONS
    with pytest.raises(RegexSyntaxError, match="transitions"):
        compile_regex(parse_regex(f"[A-Za-f]{{{copies + 1}}}"))


@pytest.mark.parametrize("pattern", ["(a{0}){99999999}b", "((a{0}){99999}){99999}b", "(a{0}|b{0}c{0}){9999999}b"])
def test_repeating_an_operand_that_matches_only_the_empty_word_builds_one_copy(pattern):
    start = time.perf_counter()
    nfa = compile_regex(parse_regex(pattern))
    assert time.perf_counter() - start < 1.0
    b = compile_regex(parse_regex("b"))
    assert (nfa.state_count, nfa._fwd, nfa.initial_mask, nfa.final_mask) == (
        b.state_count,
        b._fwd,
        b.initial_mask,
        b.final_mask,
    )


def _repetition_word(rng: random.Random, high: int, head: bytes, pieces, tail: bytes) -> bytes:
    """Head, a run of pieces whose length is often at or just past the
    bound, and tail; one word in three has one part replaced by a random
    byte or dropped, so that both matches and near misses occur."""
    count = rng.choice([rng.randint(0, high + 2), 0, 1, high - 1, high, high + 1])
    parts = [head] + [rng.choice(pieces) for _ in range(count)] + [tail]
    if rng.random() < 1 / 3:
        parts[rng.randrange(len(parts))] = rng.choice([b"a", b"b", b"c", b"\n", b""])
    return b"".join(parts)


@pytest.mark.parametrize(
    "template, head, pieces, tail",
    [
        ("foo.{0,%d}bar", b"foo", [b"o", b"b", b"r"], b"bar"),
        ("a{0,%d}b", b"", [b"a"], b"b"),
        ("a{1,%d}", b"", [b"a"], b""),
        ("(ab|c){1,%d}d", b"", [b"ab", b"c"], b"d"),
    ],
)
def test_bounded_repetition_grows_linearly(template, head, pieces, tail):
    # x{m,n} chains its optional copies, each entered only from the one
    # before, so every further copy adds the same number of transitions
    sizes = {}
    for high in (25, 50, 100, 200):
        pattern = template % high
        nfa = compile_regex(parse_regex(pattern))
        sizes[high] = len(nfa._triples)
        rng = random.Random(high)
        for _ in range(200):
            word = _repetition_word(rng, high, head, pieces, tail)
            assert nfa.member(word) == bool(re.fullmatch(pattern.encode(), word)), word
    growth = [sizes[b] - sizes[a] for a, b in ((25, 50), (50, 100), (100, 200))]
    assert growth[1] == 2 * growth[0] and growth[2] == 2 * growth[1]


@pytest.mark.skipif(not sys.platform.startswith("linux"), reason="reads /proc/self/status")
def test_compile_near_the_transition_cap_stays_small():
    # .{514} has 131,070 transitions, just under MAX_REGEX_TRANSITIONS; the
    # compiler fills the automaton's mask tables straight from the fragment
    # and holds no other copy of its transitions. The child reports VmHWM,
    # the peak of its own address space: ru_maxrss would also count the
    # peak of this test process, which a child inherits across fork and exec.
    src = Path(__file__).resolve().parents[1] / "src"
    code = (
        "import re\n"
        "from wqlang.slpsearch.regex import compile_regex, parse_regex\n"
        "n = compile_regex(parse_regex('.{514}'))\n"
        "status = open('/proc/self/status').read()\n"
        "print(n.state_count, re.search(r'VmHWM:\\s*(\\d+) kB', status).group(1))\n"
    )
    run = subprocess.run(
        [sys.executable, "-c", code],
        env={**os.environ, "PYTHONPATH": str(src)},
        capture_output=True,
        text=True,
        timeout=120,
        check=True,
    )
    states, peak_kb = map(int, run.stdout.split())
    assert states == 515
    assert peak_kb < 50 * 1024, f"peak RSS {peak_kb} kB"


def test_nullable_repeated_operand_compiles_like_its_chain():
    # (a?){300}b is built as (a?-minus-empty){0,300}b, the chain of a{0,300}b
    nullable = compile_regex(parse_regex("(a?){300}b"))
    chain = compile_regex(parse_regex("a{0,300}b"))
    assert nullable.state_count == chain.state_count == 302
    assert len(nullable._triples) == len(chain._triples) == 601
    for length in range(9):
        for word in itertools.product(b"ab", repeat=length):
            assert nullable.member(bytes(word)) == chain.member(bytes(word))


def test_compile_allow_empty_accepts_epsilon():
    nfa = compile_regex(parse_regex("a*"), allow_empty=True)
    assert nfa.member(b"") and nfa.member(b"aaa") and not nfa.member(b"b")


def test_postfix_nodes_with_equal_fields_compile_apart():
    # the nodes are named tuples, so these three compare equal as tuples;
    # the compiler must tell them apart by type
    nodes = [Star(Lit(A)), Plus(Lit(A)), Opt(Lit(A))]
    assert nodes[0] == nodes[1] == nodes[2]
    star, plus, opt = (compile_regex(node, allow_empty=True) for node in nodes)
    assert [(n.member(b""), n.member(b"aa")) for n in (star, plus, opt)] == [
        (True, True),
        (False, True),
        (True, False),
    ]


def _backtrack(node, word: bytes) -> bool:
    """Matcher straight off the syntax tree, used as compile oracle."""
    return any(n == len(word) for n in _ends(node, word, 0))


def _ends(node, word, pos):
    if isinstance(node, Lit):
        if pos < len(word) and word[pos] == node.byte:
            yield pos + 1
    elif isinstance(node, ClassAtom):
        if pos < len(word) and word[pos] in node.bytes_:
            yield pos + 1
    elif isinstance(node, Concat):
        positions = {pos}
        for part in node.parts:
            positions = {e for p in positions for e in _ends(part, word, p)}
        yield from positions
    elif isinstance(node, Alt):
        for branch in node.branches:
            yield from _ends(branch, word, pos)
    elif isinstance(node, (Star, Plus)):
        seen = {pos} if isinstance(node, Star) else set()
        frontier = {pos}
        while frontier:
            nxt = {
                e for p in frontier for e in _ends(node.inner, word, p) if e not in seen
            }
            seen |= nxt
            frontier = nxt
        yield from seen
    else:
        raise TypeError(node)


def _rand_ast(rng, depth):
    if depth == 0:
        return Lit(rng.choice([A, B]))
    kind = rng.randrange(4)
    if kind == 0:
        return Concat((_rand_ast(rng, depth - 1), _rand_ast(rng, depth - 1)))
    if kind == 1:
        return Alt((_rand_ast(rng, depth - 1), _rand_ast(rng, depth - 1)))
    if kind == 2:
        return Plus(_rand_ast(rng, depth - 1))
    return Star(_rand_ast(rng, depth - 1))


def test_compile_agrees_with_backtracking_matcher():
    rng = random.Random(50)
    for _ in range(60):
        ast = _rand_ast(rng, rng.randint(1, 4))
        nfa = compile_regex(ast, allow_empty=True)
        for _ in range(30):
            w = bytes(rng.choice([A, B]) for _ in range(rng.randint(0, 6)))
            assert nfa.member(w) == _backtrack(ast, w), (ast, w)


def _closure(nfa, mask: int) -> int:
    """States reachable from ``mask`` along any word."""
    while True:
        wider = mask
        for sym in nfa.alphabet:
            wider |= nfa.step(mask, sym)
        if wider == mask:
            return mask
        mask = wider


@pytest.mark.parametrize("allow_empty", [False, True])
def test_compiled_states_are_all_useful(allow_empty):
    # the position automaton has nothing to trim: state 0 is its only
    # initial state, and each atom lies on an accepted word; the repeated
    # and optional wrappings take the nullable-copy construction
    rng = random.Random(52)
    for _ in range(examples(100)):
        ast = _rand_ast(rng, rng.randint(1, 4))
        for node in (ast, Repeat(ast, 0, 2), Concat((Opt(ast), Repeat(ast, 1, 3)))):
            try:
                nfa = compile_regex(node, allow_empty=allow_empty)
            except EmptyMatchError:
                assert not allow_empty
                continue
            every = (1 << nfa.state_count) - 1
            assert nfa.initial_mask == 1, node
            assert _closure(nfa, nfa.initial_mask) == every, node
            assert _closure(nfa.reverse(), nfa.final_mask) == every, node


def test_homogeneous_kind_examples():
    assert homogeneous_kind(parse_regex("a+bb+a+c+")) == "plus"
    assert homogeneous_kind(parse_regex("a+b*")) is None
    assert homogeneous_kind(parse_regex("(a|b)(a|c)")) == "alt"
    assert homogeneous_kind(parse_regex("a*b*b*a*c*")) is None  # matches ε
    assert homogeneous_kind(parse_regex("ab(a|b)")) == "alt"
    assert homogeneous_kind(parse_regex("a(b|c)d+")) is None


def test_homogeneous_plus_dfa_shape_and_language():
    ast = parse_regex("a+bb+a+c+")
    dfa = homogeneous_dfa(ast, "plus")
    assert dfa.state_count == 6
    assert equivalence_counterexample(dfa, compile_regex(ast)) is None


def test_homogeneous_alt_dfa():
    ast = parse_regex("(a|b)(a|c)(b|c)(a|c)")
    dfa = homogeneous_dfa(ast, "alt")
    assert dfa.state_count == 5
    assert equivalence_counterexample(dfa, compile_regex(ast)) is None


def test_homogeneous_family_equivalence():
    rng = random.Random(51)
    letters = [ord(c) for c in "abcde"]
    for _ in range(60):
        n = rng.randint(1, 6)
        seq = [rng.choice(letters) for _ in range(n)]
        kind = rng.choice(["plus", "alt"])
        if kind == "plus":
            text = "".join(chr(c) + ("+" if rng.random() < 0.7 else "") for c in seq)
        else:
            groups = []
            for c in seq:
                others = {c} | {rng.choice(letters) for _ in range(rng.randint(0, 2))}
                groups.append("(" + "|".join(chr(x) for x in sorted(others)) + ")")
            text = "".join(groups)
        ast = parse_regex(text)
        got_kind = homogeneous_kind(ast)
        assert got_kind is not None
        dfa = homogeneous_dfa(ast, got_kind)
        nfa = compile_regex(ast, allow_empty=True)
        assert equivalence_counterexample(dfa, nfa) is None, text
        assert nfa.state_count == dfa.state_count, text
