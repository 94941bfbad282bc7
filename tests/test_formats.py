import random

import pytest

from wqlang import CnfGrammar, Nfa, Ocn
from wqlang.formats import (
    MAX_FILE_STATES,
    MAX_FILE_TABLE_CELLS,
    FormatError,
    dump_cnf,
    dump_nfa,
    dump_ocn,
    dump_slp_binary,
    dump_slp_text,
    load_slp,
    parse_cnf,
    parse_nfa,
    parse_ocn,
    parse_slp_binary,
    parse_slp_text,
)
from wqlang.slpsearch.slp import Slp, repair_compress

from conftest import A, B, rand_cnf, rand_nfa


def test_nfa_round_trip():
    rng = random.Random(90)
    for _ in range(25):
        n = rand_nfa(rng, max_states=5, n_syms=3)
        assert parse_nfa(dump_nfa(n)) == n


def test_every_byte_round_trips():
    # one transition per byte through the automaton and the net formats:
    # quoted printables, escapes and decimals, the space byte among them
    n = Nfa(2, [(0, sym, 1) for sym in range(256)], [0], [1])
    assert parse_nfa(dump_nfa(n)) == n
    assert b"trans 0 32 1\n" in dump_nfa(n)
    o = Ocn(2, [(0, sym, sym % 3 - 1, 1) for sym in range(256)])
    assert parse_ocn(dump_ocn(o)) == o


def test_nfa_parse_quoted_and_decimal():
    data = b"states 2\ninitial 0\nfinal 1\ntrans 0 'a' 1\ntrans 0 98 1\ntrans 1 '\\n' 1\n"
    n = parse_nfa(data)
    assert n.alphabet == frozenset({ord("a"), 98, 10})


def test_nfa_parse_comments_and_blanks():
    data = b"# automaton\nstates 1\n\ninitial 0\nfinal 0\n"
    n = parse_nfa(data)
    assert n.state_count == 1 and n.member(b"")


def test_nfa_parse_error_offsets():
    data = b"states 1\ninitial 0\ntrans 0 zz 0\n"
    with pytest.raises(FormatError) as err:
        parse_nfa(data)
    assert err.value.offset == data.index(b"trans")


def test_nfa_missing_states_line():
    with pytest.raises(FormatError):
        parse_nfa(b"initial 0\n")


def test_nfa_out_of_range_state():
    with pytest.raises(FormatError):
        parse_nfa(b"states 1\ninitial 0\nfinal 0\ntrans 0 'a' 7\n")


def test_cnf_round_trip():
    rng = random.Random(91)
    for _ in range(25):
        g = rand_cnf(rng)
        parsed = parse_cnf(dump_cnf(g))
        assert parsed.terminal_rules == g.terminal_rules
        assert parsed.binary_rules == g.binary_rules
        assert parsed.axiom_nullable == g.axiom_nullable


def test_cnf_parse():
    data = b"vars 2\nterm X1 'a'\nterm X0 'b'\nbin X0 X0 X1\nbin X0 X1 X0\n"
    g = parse_cnf(data)
    assert g.words_up_to(2) == {b"b", b"ab", b"ba"}


def test_cnf_bad_variable():
    with pytest.raises(FormatError):
        parse_cnf(b"vars 1\nterm Y0 'a'\n")


def test_ocn_round_trip(counter_ocn):
    assert parse_ocn(dump_ocn(counter_ocn)) == counter_ocn


def test_ocn_bad_delta():
    with pytest.raises(FormatError):
        parse_ocn(b"states 1\ntrans 0 'a' +2 0\n")


@pytest.mark.parametrize("parse", [parse_nfa, parse_ocn])
@pytest.mark.parametrize("count", [MAX_FILE_STATES + 1, 2_000_000_000, -3])
def test_state_count_outside_the_cap_is_refused_at_its_line(parse, count):
    with pytest.raises(FormatError) as err:
        parse(b"# header\nstates %d\n" % count)
    assert err.value.offset == 9
    assert f"state count {count} out of range 0..{MAX_FILE_STATES}" in str(err.value)


def test_state_count_at_the_cap_parses():
    assert parse_ocn(b"states %d\n" % MAX_FILE_STATES).state_count == MAX_FILE_STATES


def _every_byte_file(states: int) -> bytes:
    """An automaton file with one self-loop on state 0 for each byte."""
    return b"states %d\n" % states + b"".join(b"trans 0 %d 0\n" % sym for sym in range(256))


def test_table_cells_at_the_cap_parse():
    states = MAX_FILE_TABLE_CELLS // 256
    n = parse_nfa(_every_byte_file(states))
    assert n.state_count == states and len(n.alphabet) == 256


def test_table_cells_past_the_cap_are_refused_before_the_tables(monkeypatch):
    def build(*_args):
        raise AssertionError("tables built")

    monkeypatch.setattr(Nfa, "__init__", build)
    states = MAX_FILE_TABLE_CELLS // 256 + 1
    with pytest.raises(FormatError) as err:
        parse_nfa(_every_byte_file(states))
    assert err.value.offset == 0
    assert f"{states} states times 256 transition symbols exceeds {MAX_FILE_TABLE_CELLS}" in str(err.value)


def test_ocn_rejects_a_negative_state_count():
    with pytest.raises(ValueError, match="nonnegative"):
        Ocn(-3, [])


def test_slp_binary_round_trip():
    rng = random.Random(92)
    for _ in range(25):
        text = bytes(rng.choice(b"abcab\n") for _ in range(rng.randint(2, 200)))
        slp = repair_compress(text)
        data = dump_slp_binary(slp)
        assert data[:4] == b"SLP1"
        assert parse_slp_binary(data) == slp
        assert load_slp(data) == slp


def test_slp_binary_layout():
    slp = Slp([(A, B), (257, 257)])
    data = dump_slp_binary(slp)
    # magic, t=2, k=2, one binary rule, two axiom ids
    assert data == b"SLP1" + bytes(
        [2, 0, 0, 0, 2, 0, 0, 0, A, 0, 0, 0, B, 0, 0, 0, 1, 1, 0, 0, 1, 1, 0, 0]
    )


def test_slp_binary_errors():
    with pytest.raises(FormatError):
        parse_slp_binary(b"SLPX" + b"\0" * 8)
    with pytest.raises(FormatError):
        parse_slp_binary(b"SLP1\x02\x00\x00\x00")
    good = dump_slp_binary(Slp([(A, B), (257, 257)]))
    with pytest.raises(FormatError):
        parse_slp_binary(good + b"\x00")


@pytest.mark.parametrize(
    "data, offset, count",
    [
        (b"axiom 97 98\nrules 0\n", 12, 0),
        (b"rules -2\naxiom 97 98\n", 0, -2),
        # magic, t=0, k=2, two axiom ids
        (b"SLP1" + bytes([0, 0, 0, 0, 2, 0, 0, 0, A, 0, 0, 0, B, 0, 0, 0]), 4, 0),
    ],
)
def test_slp_rule_count_below_one_is_refused_by_name(data, offset, count):
    # t counts the axiom rule, so a count below 1 declares no SLP at all
    with pytest.raises(FormatError) as error:
        load_slp(data)
    assert str(error.value) == f"byte offset {offset}: rule count {count} is below 1"
    assert error.value.offset == offset


def test_slp_text_round_trip():
    slp = Slp([(A, B), (ord("$"), A), (257, 258), (259, 259, 257)])
    assert parse_slp_text(dump_slp_text(slp)) == slp
    assert load_slp(dump_slp_text(slp)) == slp


def test_slp_text_errors():
    with pytest.raises(FormatError):
        parse_slp_text(b"rules 2\naxiom 257 257\nrule 97 98\nrule 97 97\n")
    with pytest.raises(FormatError):
        parse_slp_text(b"rules 1\n")
