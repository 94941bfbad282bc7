import random

import pytest

from wqlang import compile_regex, equivalence_counterexample, homogeneous_dfa, homogeneous_kind, parse_regex
from wqlang.slpsearch.regex import (
    Alt,
    ClassAtom,
    Concat,
    EmptyMatchError,
    Lit,
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


def test_parse_escapes():
    assert parse_regex("\\n").byte == 0x0A
    assert parse_regex("\\x41").byte == 0x41
    assert parse_regex("\\.").byte == ord(".")


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


def test_compile_allow_empty_accepts_epsilon():
    nfa = compile_regex(parse_regex("a*"), allow_empty=True)
    assert nfa.member(b"") and nfa.member(b"aaa") and not nfa.member(b"b")


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
