import random

import pytest
from hypothesis import given, settings, strategies as st

from wqlang import Slp, decompress, repair_compress
from wqlang.slpsearch.slp import DecompressionCap, rule_id

from conftest import chain_slp, examples, repair_oracle

A, B = ord("a"), ord("b")


def test_repair_abab():
    slp = repair_compress(b"abab")
    assert slp.rules == ((A, B), (rule_id(0), rule_id(0)))
    assert decompress(slp) == b"abab"


def test_repair_all_distinct_bytes_axiom_only():
    slp = repair_compress(b"abcdef")
    assert slp.rule_count == 1
    assert slp.axiom == tuple(b"abcdef")


def test_repair_rejects_tiny_input():
    with pytest.raises(ValueError):
        repair_compress(b"x")


@given(st.binary(min_size=2, max_size=400))
@settings(max_examples=examples(200), deadline=None)
def test_repair_roundtrip(text):
    assert decompress(repair_compress(text)) == text


def test_repair_roundtrip_structured():
    rng = random.Random(60)
    lexicon = [b"get ", b"put ", b"x=1 ", b"the quick ", b"\n", b"0123"]
    for _ in range(50):
        text = b"".join(rng.choice(lexicon) for _ in range(rng.randint(2, 120)))
        if len(text) >= 2:
            assert decompress(repair_compress(text)) == text


def test_doubling_grammar():
    # X1 -> aa, X_{i+1} -> X_i X_i; four levels make a^16
    slp = Slp([(A, A), (257, 257), (258, 258), (259, 259)])
    assert decompress(slp) == b"a" * 16
    assert slp.symbol_lengths()[-1] == 16


def test_axiom_only_decompress():
    assert decompress(Slp([(A, B)])) == b"ab"


def test_decompression_cap():
    slp = Slp([(A, A)] + [(256 + i, 256 + i) for i in range(1, 30)])
    assert slp.symbol_lengths()[-1] == 2**30
    with pytest.raises(DecompressionCap):
        decompress(slp, cap=1 << 20)


def test_slp_validation():
    with pytest.raises(ValueError):
        Slp([])  # no axiom
    with pytest.raises(ValueError):
        Slp([(A,)])  # arity 1
    with pytest.raises(ValueError):
        Slp([(A, B), (A,)])  # axiom arity 1
    with pytest.raises(ValueError):
        Slp([(258, A), (A, B)])  # forward reference
    with pytest.raises(ValueError):
        Slp([(256, A)])  # 256 is not a valid symbol id
    with pytest.raises(ValueError):
        Slp([(A, B), (B, A, A), (257, 258)])  # non-axiom rule with arity 3


@pytest.mark.parametrize(
    "rules, message",
    [
        ([], "an SLP needs at least an axiom rule"),
        ([(A,)], "rule 1 has arity 1 < 2"),
        ([(A, B), (A,)], "rule 2 has arity 1 < 2"),
        ([(A, B), (B, A, A), (257, 258)], "non-axiom rule 2 must be binary"),
        ([(256, A)], "invalid symbol id 256"),
        ([(A, -1)], "invalid symbol id -1"),
        ([(258, A), (A, B)], "rule 1 references rule 2, which is not earlier"),
        ([(A, B), (257, 258)], "rule 2 references rule 2, which is not earlier"),
        ([(A, B), (257, 257), (A, 260)], "rule 3 references rule 4, which is not earlier"),
    ],
)
def test_slp_validation_messages(rules, message):
    with pytest.raises(ValueError) as error:
        Slp(rules)
    assert str(error.value) == message


def naive_expansion(p: Slp) -> bytes:
    """Each rule's expansion in full, bottom-up."""
    texts: list[bytes] = []
    for rule in p.rules:
        texts.append(b"".join(bytes([sym]) if sym < 256 else texts[sym - 257] for sym in rule))
    return texts[-1]


@st.composite
def valid_slps(draw) -> Slp:
    """Up to 12 binary rules over earlier rules and any bytes, then an
    axiom of arity 3 to 8."""
    rules: list[tuple[int, int]] = []

    def symbol():
        rule = st.integers(rule_id(0), rule_id(len(rules) - 1))
        return draw(st.one_of(st.integers(0, 255), rule) if rules else st.integers(0, 255))

    for _ in range(draw(st.integers(0, 12))):
        rules.append((symbol(), symbol()))
    axiom = [symbol() for _ in range(draw(st.integers(3, 8)))]
    return Slp([*rules, axiom])


@given(valid_slps())
@settings(max_examples=examples(150), deadline=None)
def test_decompress_matches_naive_expansion(p):
    text = decompress(p)
    assert text == naive_expansion(p)
    assert p.symbol_lengths()[-1] == len(text)


def test_decompress_chain_matches_naive_expansion():
    rng = random.Random(23)
    p = chain_slp(bytes(rng.choice(b"ab\n") for _ in range(2000)))
    text = decompress(p)
    assert text == naive_expansion(p)
    assert p.symbol_lengths()[-1] == len(text) == 2000


def test_compression_actually_compresses():
    text = b"This is a contrived experiment.\n" * 1024
    slp = repair_compress(text)
    assert slp.rule_count < 80
    assert decompress(slp) == text


RUNS = st.lists(
    st.tuples(st.sampled_from(b"abc"), st.integers(min_value=1, max_value=9)),
    min_size=1,
    max_size=40,
).map(lambda runs: b"".join(bytes([c]) * k for c, k in runs))
CHUNKS = st.lists(
    st.sampled_from([b"a", b"b", b"aa", b"ab", b"ba", b"aab", b"abb", b"aaaa"]),
    min_size=1,
    max_size=80,
).map(b"".join)


@given(st.one_of(RUNS, CHUNKS).filter(lambda text: len(text) >= 2))
@settings(max_examples=examples(300), deadline=None)
def test_repair_matches_oracle_on_run_heavy_text(text):
    assert repair_compress(text).rules == repair_oracle(text).rules


SMALL_ALPHABET = st.sampled_from([b"ab\n", b"ab\nc"]).flatmap(
    lambda alphabet: st.lists(st.sampled_from(alphabet), min_size=2, max_size=300).map(bytes)
)
LOG_LINES = st.lists(
    st.tuples(
        st.sampled_from([b"INFO", b"WARN", b"ERROR"]),
        st.sampled_from([b"GET /api", b"POST /api/v2", b"ok"]),
        st.integers(min_value=0, max_value=999),
    ),
    min_size=1,
    max_size=10,
).map(lambda lines: b"".join(b"%s %s took=%dms\n" % line for line in lines))


@given(st.one_of(SMALL_ALPHABET, LOG_LINES))
@settings(max_examples=examples(200), deadline=None)
def test_repair_matches_oracle_on_small_alphabets_and_log_lines(text):
    assert repair_compress(text).rules == repair_oracle(text).rules


@pytest.mark.parametrize(
    "text, rules",
    [
        # replacing (a, b) takes both occurrences of (b, x), which drops
        # below two while its rival (X1, x) is counted twice and, were
        # (b, x) still counted, would lose the tie to it
        (b"abxabx", ((A, B), (rule_id(0), ord("x")), (rule_id(1), rule_id(1)))),
        # replacing (a, b) at 2 shortens the run bbbb to bbb, which drops
        # (b, b) below two before its run start moves from 3 to 4
        (b"ababbbb", ((A, B), (rule_id(0), rule_id(0), B, B, B))),
    ],
    ids=["pair-dropped-as-its-rival-appears", "run-start-moves-into-dropped-pair"],
)
def test_repair_pinned_rounds(text, rules):
    assert repair_compress(text).rules == repair_oracle(text).rules == rules


@pytest.mark.parametrize(
    "text", [b"a" * 65536, b"ab" * 32768, b"aab" * 20000], ids=["a", "ab", "aab"]
)
def test_repair_matches_oracle_on_long_runs(text):
    slp = repair_compress(text)
    assert slp.rules == repair_oracle(text).rules
    assert decompress(slp) == text


@pytest.mark.parametrize("depth", [5000, 200_000])
def test_decompress_deep_chain(depth):
    rng = random.Random(depth)
    text = bytes(rng.choice(b"abcxyz") for _ in range(depth + 1))
    assert decompress(chain_slp(text)) == text
