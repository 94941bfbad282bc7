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
