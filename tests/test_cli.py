import argparse
import json
import random
import re

import pytest

from wqlang.cli import SUBCOMMANDS, build_parser, main
from wqlang.formats import MAX_FILE_STATES, MAX_FILE_TABLE_CELLS, dump_cnf, dump_nfa, dump_ocn, dump_slp_binary, parse_nfa
from wqlang import CnfGrammar, Nfa, Ocn, compile_regex, equivalence_counterexample, parse_regex
from wqlang.automata import MAX_DFA_STATES

from conftest import A, B, C, chain_slp, count_lines_oracle, make_counter_ocn, make_ex451_grammar, make_fig42_n1, make_fig42_n2, make_fig43, make_fig62


@pytest.fixture
def files(tmp_path):
    paths = {}
    for name, nfa in (
        ("n1", make_fig42_n1()),
        ("n2", make_fig42_n2()),
        ("fig43", make_fig43()),
        ("fig62", make_fig62()),
    ):
        p = tmp_path / f"{name}.nfa"
        p.write_bytes(dump_nfa(nfa))
        paths[name] = str(p)
    g = tmp_path / "g.cnf"
    g.write_bytes(dump_cnf(make_ex451_grammar()))
    paths["g"] = str(g)
    o = tmp_path / "net.ocn"
    o.write_bytes(dump_ocn(make_counter_ocn()))
    paths["ocn"] = str(o)
    return paths


@pytest.mark.parametrize(
    "algo", ["word-nerode", "word-state", "word-sim", "antichain-fwd", "gfp"]
)
def test_include_nfa_all_algorithms(files, capsys, algo):
    code = main(["include", "nfa", files["n1"], files["n2"], "--algo", algo])
    out = capsys.readouterr().out
    assert code == 0
    assert out.startswith("NOT INCLUDED")
    if algo != "gfp":
        assert "witness=" in out


def test_include_nfa_antichain_bwd_is_a_usage_error(files, capsys):
    # the backward antichain variant is gone; its name is no longer a choice
    with pytest.raises(SystemExit) as err:
        main(["include", "nfa", files["n1"], files["n2"], "--algo", "antichain-bwd"])
    assert err.value.code == 2
    assert "invalid choice: 'antichain-bwd'" in capsys.readouterr().err


def test_include_nfa_fail_on_miss(files):
    assert main(["include", "nfa", files["n1"], files["n2"], "--fail-on-miss"]) == 1
    assert main(["include", "nfa", files["n1"], files["n1"], "--fail-on-miss"]) == 0


def test_include_nfa_json_schema(files, capsys):
    for algo in ("antichain-fwd", "gfp"):
        code = main(["include", "nfa", files["n1"], files["n2"], "--algo", algo, "--json"])
        payload = json.loads(capsys.readouterr().out)
        assert code == 0
        assert set(payload) == {"verdict", "count", "witness", "stats"}
        assert payload["verdict"] == "not_included"


def test_include_cfg(files, capsys):
    for algo in ("antichain", "word-myhill", "word-ctx"):
        code = main(["include", "cfg", files["g"], files["fig43"], "--algo", algo])
        out = capsys.readouterr().out
        assert code == 0
        assert out.startswith("NOT INCLUDED")


def test_include_ocn(files, capsys, tmp_path):
    abstar = tmp_path / "abstar.nfa"
    abstar.write_bytes(
        b"states 2\ninitial 0\nfinal 0\ntrans 0 'a' 1\ntrans 1 'b' 0\n"
    )
    code = main(["include", "ocn", str(abstar), files["ocn"]])
    assert code == 0
    assert capsys.readouterr().out.strip() == "INCLUDED"


@pytest.mark.parametrize("state", ["5", "-1"])
def test_include_ocn_start_state_outside_the_net(files, capsys, tmp_path, state):
    # a usage error like a negative counter, not a verdict on an empty start
    net = tmp_path / "two.ocn"
    net.write_bytes(dump_ocn(Ocn(2, [(0, ord("a"), 1, 1), (1, ord("b"), -1, 0)])))
    code = main(["include", "ocn", files["n1"], str(net), "--state", state])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err == f"error: start state {state} out of range\n"


def test_compress_decompress_round_trip(tmp_path, capsys):
    text = b"mississippi riverbank, mississippi delta\n" * 17
    src = tmp_path / "in.txt"
    src.write_bytes(text)
    out = tmp_path / "out.slp"
    assert main(["compress", str(src), "-o", str(out)]) == 0
    restored = tmp_path / "back.txt"
    assert main(["decompress", str(out), "-o", str(restored)]) == 0
    assert restored.read_bytes() == text


@pytest.mark.parametrize("text", [b"", b"x"])
def test_compress_refuses_a_file_shorter_than_two_bytes_as_input(tmp_path, capsys, text):
    src = tmp_path / "in.txt"
    src.write_bytes(text)
    out = tmp_path / "out.slp"
    assert main(["compress", str(src), "-o", str(out)]) == 3
    assert capsys.readouterr() == ("", "error: need at least two bytes to compress\n")
    assert not out.exists()


def test_search_counts_lines(tmp_path, capsys):
    src = tmp_path / "corpus.txt"
    src.write_bytes(b"ab\na\nbab\n")
    slp = tmp_path / "corpus.slp"
    assert main(["compress", str(src), "-o", str(slp)]) == 0
    assert main(["search", "-e", "ba", str(slp)]) == 0
    assert capsys.readouterr().out.strip() == "1"


def test_search_report_and_json(tmp_path, capsys):
    src = tmp_path / "corpus.txt"
    src.write_bytes(b"ab\na\nbab\n")
    slp = tmp_path / "corpus.slp"
    main(["compress", str(src), "-o", str(slp)])
    capsys.readouterr()
    assert main(["search", "-e", "ba", str(slp), "--report"]) == 0
    assert capsys.readouterr().out.splitlines() == ["1", "3:bab"]
    assert main(["search", "-e", "ba", str(slp), "--json", "--stats"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["count"] == 1
    assert payload["stats"]["rules"] >= 1


# (pattern, stdout of --report --stats, its stderr) on the seeded text of
# the test below, for homogeneous shapes and others; recorded when the
# homogeneous shapes were still searched with a linear DFA of their own
SEARCH_ROUTE_CASES = [
    (
        "a+a",
        "6\n1:baaba\n2:baab\n5:ERROR aabb\n7:abaab\n9:bbbaaab\n11:baab\n",
        "rules=7 automaton_states=3 compose_steps=43 inner_iters=10\n",
    ),
    (
        "a+ab+b",
        "1\n5:ERROR aabb\n",
        "rules=7 automaton_states=5 compose_steps=44 inner_iters=20\n",
    ),
    (
        "(a|b)(a|b)b",
        "7\n1:baaba\n2:baab\n5:ERROR aabb\n7:abaab\n8:bababba\n9:bbbaaab\n11:baab\n",
        "rules=7 automaton_states=4 compose_steps=45 inner_iters=16\n",
    ),
    (
        "b+b+",
        "4\n5:ERROR aabb\n6:bb\n8:bababba\n9:bbbaaab\n",
        "rules=7 automaton_states=3 compose_steps=46 inner_iters=10\n",
    ),
    ("ERROR", "1\n5:ERROR aabb\n", "rules=7 automaton_states=6 compose_steps=39 inner_iters=11\n"),
]


def test_search_prints_the_recorded_bytes_for_every_shape(tmp_path, capsys):
    src = tmp_path / "c.txt"
    src.write_bytes(b"xxabxx\nyy\n")
    slp = tmp_path / "c.slp"
    main(["compress", str(src), "-o", str(slp)])
    capsys.readouterr()
    assert main(["search", "-e", "a+b+", str(slp)]) == 0
    assert capsys.readouterr().out.strip() == "1"

    rng = random.Random(30)
    lines = [bytes(rng.choice(b"ab") for _ in range(rng.randint(1, 7))) for _ in range(10)]
    lines.insert(4, b"ERROR aabb")
    src.write_bytes(b"\n".join(lines) + b"\n")
    main(["compress", str(src), "-o", str(slp)])
    capsys.readouterr()
    for pattern, report, stats in SEARCH_ROUTE_CASES:
        assert main(["search", "-e", pattern, str(slp), "--report", "--stats"]) == 0
        assert capsys.readouterr() == (report, stats), pattern
        assert main(["search", "-e", pattern, str(slp), "--json", "--stats"]) == 0
        counters = dict(pair.split("=") for pair in stats.split())
        payload = {
            "verdict": None,
            "count": int(report.split("\n")[0]),
            "witness": None,
            "stats": {key: int(value) for key, value in counters.items()},
        }
        assert capsys.readouterr() == (json.dumps(payload) + "\n", ""), pattern


def test_search_rejects_empty_match(tmp_path, capsys):
    src = tmp_path / "c.txt"
    src.write_bytes(b"b\nab\nxx\n")
    slp = tmp_path / "c.slp"
    main(["compress", str(src), "-o", str(slp)])
    capsys.readouterr()
    for pattern in ("a*", "a*b*", "x?"):
        assert main(["search", "-e", pattern, str(slp)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: pattern matches the empty string\n"


def test_search_engine_option_is_unknown(tmp_path, capsys):
    src = tmp_path / "c.txt"
    src.write_bytes(b"xxabxx\nyy\n")
    slp = tmp_path / "c.slp"
    main(["compress", str(src), "-o", str(slp)])
    capsys.readouterr()
    for engine in ("auto", "nfa", "dfa"):
        with pytest.raises(SystemExit) as exc:
            main(["search", "-e", "a+b+", str(slp), "--engine", engine])
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "unrecognized arguments: --engine" in captured.err


def _one_line_error(capsys) -> str:
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    return err


def _subcommands(parser: argparse.ArgumentParser) -> dict:
    (action,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    return action.choices


def _include_algos() -> list[tuple[str, str]]:
    """Every ``--algo`` choice of ``include nfa`` and ``include cfg``, as
    the parser declares them."""
    flavors = _subcommands(_subcommands(build_parser())["include"])
    return [
        (flavor, algo)
        for flavor in ("nfa", "cfg")
        for action in flavors[flavor]._actions
        if action.dest == "algo"
        for algo in action.choices
    ]


@pytest.mark.parametrize(
    "flavor, algo", _include_algos() + [pytest.param("ocn", None, id="ocn")]
)
def test_iteration_cap_stops_every_include_algorithm(files, capsys, monkeypatch, tmp_path, flavor, algo):
    # included inputs whose fixpoints need a second layer, so that no check
    # stops early at a witness: {aba, aca} in itself, on a right side that
    # splits after the first a, so that no state simulates one of the left
    # side's and no entry is settled (a self-inclusion is settled at once);
    # {a, b}^n for n >= 2, whose axiom derives only through binary rules,
    # in (a|b)*; (ab)* in the counter net
    monkeypatch.setenv("TOOL_ITER_CAP", "1")
    (tmp_path / "abaaca.nfa").write_bytes(
        dump_nfa(Nfa(4, [(0, A, 1), (1, B, 2), (1, C, 2), (2, A, 3)], [0], [3]))
    )
    (tmp_path / "abaaca_split.nfa").write_bytes(
        dump_nfa(
            Nfa(6, [(0, A, 1), (0, A, 2), (1, B, 3), (2, C, 4), (3, A, 5), (4, A, 5)], [0], [5])
        )
    )
    (tmp_path / "two.cnf").write_bytes(dump_cnf(CnfGrammar(2, {1: {A, B}}, {0: {(1, 0), (1, 1)}})))
    (tmp_path / "all.nfa").write_bytes(dump_nfa(Nfa(1, [(0, A, 0), (0, B, 0)], [0], [0])))
    (tmp_path / "abstar.nfa").write_bytes(dump_nfa(Nfa(2, [(0, A, 1), (1, B, 0)], [0], [0])))
    left, right = {
        "nfa": (tmp_path / "abaaca.nfa", tmp_path / "abaaca_split.nfa"),
        "cfg": (tmp_path / "two.cnf", tmp_path / "all.nfa"),
        "ocn": (tmp_path / "abstar.nfa", files["ocn"]),
    }[flavor]
    algo_flag = [] if algo is None else ["--algo", algo]
    assert main(["include", flavor, str(left), str(right), *algo_flag]) == 3
    assert "no fixpoint" in _one_line_error(capsys)
    # a negative cap would never fire: it is refused as a usage error
    monkeypatch.setenv("TOOL_ITER_CAP", "-1")
    assert main(["include", flavor, str(left), str(right), *algo_flag]) == 2
    assert "TOOL_ITER_CAP must be nonnegative" in _one_line_error(capsys)
    monkeypatch.setenv("TOOL_ITER_CAP", "abc")
    assert main(["include", flavor, str(left), str(right), *algo_flag]) == 2
    assert _one_line_error(capsys) == (
        "error: TOOL_ITER_CAP must be a nonnegative integer, got 'abc'\n"
    )
    monkeypatch.delenv("TOOL_ITER_CAP")
    assert main(["include", flavor, str(left), str(right), *algo_flag]) == 0
    assert capsys.readouterr().out == "INCLUDED\n"


def test_iteration_cap_reports_a_witness_found_within_it(files, capsys, monkeypatch):
    # the first layer extends the empty word to the words of length 1, and
    # the check stops there at the witness a before the cap counts another
    monkeypatch.setenv("TOOL_ITER_CAP", "1")
    assert main(["include", "nfa", files["n1"], files["n2"]]) == 0
    assert capsys.readouterr().out == "NOT INCLUDED witness=a\n"


def test_caps_exit_with_input_error(files, tmp_path, capsys, monkeypatch):
    src = tmp_path / "c.txt"
    src.write_bytes(b"abababab\n")
    slp = tmp_path / "c.slp"
    main(["compress", str(src), "-o", str(slp)])
    assert main(["decompress", str(slp), "--cap", "3"]) == 3
    assert "cap is 3" in _one_line_error(capsys)
    # a negative cap would refuse every file: it is refused as a usage error
    assert main(["decompress", str(slp), "--cap", "-1"]) == 2
    assert _one_line_error(capsys) == "error: --cap must be nonnegative, got -1\n"

    from wqlang import learn
    from wqlang.learn import LearnerDiverged

    def diverge(*_args, **_kwargs):
        raise LearnerDiverged("no stable hypothesis after 0 queries")

    # the CLI calls the learner through its defining module
    monkeypatch.setattr(learn, "nl_learn", diverge)
    assert main(["learn", files["n2"]]) == 3
    assert "no stable hypothesis" in _one_line_error(capsys)


def _regex_file(tmp_path, name: str, pattern: str) -> str:
    path = tmp_path / f"{name}.nfa"
    path.write_bytes(dump_nfa(compile_regex(parse_regex(pattern))))
    return str(path)


def test_determinization_budget_exits_with_input_error(files, tmp_path, capsys):
    # the minimal DFA of (a|b)*a(a|b){16} remembers the last 17 letters, so
    # the subset construction passes MAX_DFA_STATES; so does the reverse of
    # (a|b){16}a(a|b)*, which the left Nerode order of the right side needs
    last17 = _regex_file(tmp_path, "last17", "(a|b)*a(a|b){16}")
    first17 = _regex_file(tmp_path, "first17", "(a|b){16}a(a|b)*")
    for argv in (
        ["canonical", last17],
        ["check-dr", last17],
        ["include", "nfa", files["n1"], first17, "--algo", "word-nerode"],
    ):
        assert main(argv) == 3
        out, err = capsys.readouterr()
        assert out == "" and err.count("\n") == 1
        assert err.startswith("error: ") and f"more than {MAX_DFA_STATES} states" in err


def test_gfp_decides_without_determinizing_the_right_side(files, tmp_path, capsys):
    # the right side's DFA would pass MAX_DFA_STATES; the state-set
    # fixpoint works on its NFA and agrees with the word-based check
    last17 = _regex_file(tmp_path, "last17", "(a|b)*a(a|b){16}")
    verdicts = []
    for algo in ("gfp", "word-state"):
        assert main(["include", "nfa", files["n1"], last17, "--algo", algo, "--json"]) == 0
        verdicts.append(json.loads(capsys.readouterr().out)["verdict"])
    assert verdicts[0] == verdicts[1]


def test_residual_subcommands(files, tmp_path, capsys):
    fig62 = parse_nfa(open(files["fig62"], "rb").read())
    for name, states in (("residualize", 4), ("canonical", 4), ("double-reversal", 4)):
        out = tmp_path / f"{name}.nfa"
        assert main([name, files["fig62"], "-o", str(out)]) == 0
        result = parse_nfa(out.read_bytes())
        assert result.state_count == states
        assert equivalence_counterexample(result, fig62) is None


def test_check_dr(files, capsys):
    assert main(["check-dr", files["fig62"]]) == 0
    assert capsys.readouterr().out.strip() == "HOLDS"


def test_learn(files, tmp_path, capsys):
    out = tmp_path / "learned.nfa"
    assert main(["learn", files["n2"], "-o", str(out)]) == 0
    learned = parse_nfa(out.read_bytes())
    target = parse_nfa(open(files["n2"], "rb").read())
    assert equivalence_counterexample(learned, target) is None


def test_malformed_input_exit_code(tmp_path, capsys):
    bad = tmp_path / "bad.nfa"
    bad.write_bytes(b"states 1\ntrans 0 zz 0\n")
    assert main(["include", "nfa", str(bad), str(bad)]) == 3
    assert "byte offset" in capsys.readouterr().err


@pytest.mark.parametrize("flavor", ["nfa", "ocn"])
@pytest.mark.parametrize("count", [2_000_000_000, -3])
def test_state_count_outside_the_cap_exits_with_input_error(files, tmp_path, capsys, flavor, count):
    # refused at the ``states`` line, before an automaton or net is built
    bad = tmp_path / "bad"
    rest = b"initial 0\nfinal 0\ntrans 0 'a' 0\n" if flavor == "nfa" else b""
    bad.write_bytes(b"states %d\n" % count + rest)
    left = str(bad) if flavor == "nfa" else files["n1"]
    assert main(["include", flavor, left, str(bad)]) == 3
    err = _one_line_error(capsys)
    assert f"state count {count} out of range 0..{MAX_FILE_STATES}" in err


def test_table_cells_past_the_cap_exit_with_input_error(files, tmp_path, capsys):
    # 65,536 states are within MAX_FILE_STATES, but with every byte their
    # successor tables would hold 2^24 cells
    bad = tmp_path / "bad.nfa"
    bad.write_bytes(b"states 65536\n" + b"".join(b"trans 0 %d 0\n" % sym for sym in range(256)))
    assert main(["include", "nfa", str(bad), files["n1"]]) == 3
    assert f"exceeds {MAX_FILE_TABLE_CELLS} table cells" in _one_line_error(capsys)


@pytest.mark.parametrize("pattern", ["I(\\x-1)?N", "I\\x+9", "I\\x 9", "I[\\x-1]N"])
def test_search_rejects_a_hex_escape_without_two_hex_digits(tmp_path, capsys, pattern):
    src = tmp_path / "c.txt"
    src.write_bytes(b"IN\nI\tN\n")
    slp = tmp_path / "c.slp"
    main(["compress", str(src), "-o", str(slp)])
    capsys.readouterr()
    assert main(["search", "-e", pattern, str(slp)]) == 2
    assert "bad \\x escape: expected two hex digits" in _one_line_error(capsys)


@pytest.mark.parametrize(
    "pattern, message",
    [
        ("", "offset 0: empty pattern"),
        ("()", "offset 0: empty group"),
        ("a|", "offset 2: empty alternation branch"),
        (")", "offset 0: unexpected ')'"),
        ("a|)", "offset 2: unexpected ')'"),
        ("(a|)", "offset 3: empty alternation branch"),
    ],
)
def test_search_names_the_empty_part_of_a_pattern(tmp_path, capsys, pattern, message):
    src = tmp_path / "c.txt"
    src.write_bytes(b"ab\n")
    slp = tmp_path / "c.slp"
    main(["compress", str(src), "-o", str(slp)])
    capsys.readouterr()
    assert main(["search", "-e", pattern, str(slp)]) == 2
    assert capsys.readouterr().err == f"error: {message}\n"


@pytest.mark.parametrize(
    "text, pattern, out, stats",
    [
        (
            b"ab\nxab\nyy\n",
            "ab",
            ["2", "1:ab", "2:xab"],
            "rules=3 automaton_states=3 compose_steps=7 inner_iters=5",
        ),
        # the walk meets four state masks besides MATCHED
        (
            b"abab\nbaab\naabba\nbbab\nab\nbaba\n",
            "(a|b)*ab[ab]",
            ["3", "1:abab", "3:aabba", "6:baba"],
            "rules=5 automaton_states=5 compose_steps=25 inner_iters=18",
        ),
    ],
)
def test_search_stats_counters_are_pinned(tmp_path, capsys, text, pattern, out, stats):
    src = tmp_path / "c.txt"
    src.write_bytes(text)
    slp = tmp_path / "c.slp"
    main(["compress", str(src), "-o", str(slp)])
    capsys.readouterr()
    assert main(["search", "-e", pattern, str(slp), "--report", "--stats"]) == 0
    captured = capsys.readouterr()
    assert captured.out.splitlines() == out
    assert captured.err == stats + "\n"


def test_missing_file_exit_code(tmp_path, capsys):
    assert main(["search", "-e", "a", str(tmp_path / "nope.slp")]) == 3


@pytest.mark.parametrize(
    "argv",
    [
        ["include", "nfa", "{dir}", "{n1}"],
        ["decompress", "{dir}"],
        ["compress", "{dir}"],
        ["canonical", "{n2}", "-o", "{dir}"],
        ["compress", "{n1}", "-o", "{dir}"],
    ],
    ids=["include-nfa-input", "decompress-input", "compress-input", "canonical-output", "compress-output"],
)
def test_directory_path_exits_with_input_error(files, tmp_path, capsys, argv):
    # a directory as an input or as -o is an input error, not a traceback
    # (nor exit 1, the --fail-on-miss code)
    argv = [arg.format(dir=tmp_path, **files) for arg in argv]
    assert main(argv) == 3
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "Traceback" not in err


def test_usage_error_exit_code(capsys):
    with pytest.raises(SystemExit) as err:
        main(["include", "nfa"])
    assert err.value.code == 2


def test_deep_chain_decompress_and_report(tmp_path, capsys):
    line = b"xyz" * 1666 + b"ab"
    slp = tmp_path / "chain.slp"
    slp.write_bytes(dump_slp_binary(chain_slp(line + b"\n")))
    out = tmp_path / "chain.txt"
    assert main(["decompress", str(slp), "-o", str(out)]) == 0
    assert out.read_bytes() == line + b"\n"
    assert main(["search", "-e", "a", str(slp), "--report"]) == 0
    assert capsys.readouterr().out.splitlines() == ["1", f"1:{line.decode()}"]


@pytest.mark.parametrize(
    "pattern", ["(" * 2000 + "a" + ")" * 2000, "a" + "+" * 2000], ids=["groups", "postfix"]
)
def test_search_rejects_deep_nesting(tmp_path, capsys, pattern):
    src = tmp_path / "c.txt"
    src.write_bytes(b"ab\n")
    slp = tmp_path / "c.slp"
    main(["compress", str(src), "-o", str(slp)])
    assert main(["search", "-e", pattern, str(slp)]) == 2
    assert "nesting deeper than" in _one_line_error(capsys)


@pytest.mark.parametrize("pattern", ["a{99999}", "(a{1000}){1000}", ".{5000}"])
def test_search_rejects_oversized_repetition(tmp_path, capsys, pattern):
    src = tmp_path / "c.txt"
    src.write_bytes(b"ab\n")
    slp = tmp_path / "c.slp"
    main(["compress", str(src), "-o", str(slp)])
    assert main(["search", "-e", pattern, str(slp)]) == 2
    assert "pattern needs more than" in _one_line_error(capsys)


def test_search_counts_wide_bounded_repetition(tmp_path, capsys):
    # an optional-copy range this wide used to exceed the transition cap
    pattern = "foo.{0,100}bar"
    rng = random.Random(5)
    lines = [
        b"foo" + bytes(rng.choice(b"abfor ") for _ in range(gap)) + rng.choice([b"bar", b"ba"])
        for gap in range(0, 120, 3)
    ]
    text = b"\n".join(lines) + b"\n"
    src = tmp_path / "c.txt"
    src.write_bytes(text)
    slp = tmp_path / "c.slp"
    main(["compress", str(src), "-o", str(slp)])
    capsys.readouterr()
    assert main(["search", "-e", pattern, str(slp)]) == 0
    expected = count_lines_oracle(text, compile_regex(parse_regex(pattern)))
    assert expected == sum(1 for line in lines if re.search(pattern.encode(), line))
    assert 0 < expected < len(lines)
    assert capsys.readouterr().out.strip() == str(expected)


# command lines that end in help or a usage error at every parser level
PARSE_EXITS = [
    [],
    ["--help"],
    ["bogus"],
    ["--json", "compress"],
    ["include", "nfa", "--help"],
    ["include", "ocn"],
    ["include", "xyz"],
    ["include", "cfg", "l", "r", "--algo", "bogus"],
    ["compress", "f", "extra"],
    ["decompress", "f", "--cap", "x"],
    ["search", "f"],
    ["canonical", "f", "--direction", "up"],
    *([name, "--help"] for name in SUBCOMMANDS),
    *([name] for name in SUBCOMMANDS),
]


def _parse_exit(parse, argv, capsys) -> tuple:
    with pytest.raises(SystemExit) as stop:
        parse(argv)
    captured = capsys.readouterr()
    return stop.value.code, captured.out, captured.err


@pytest.mark.parametrize("argv", PARSE_EXITS, ids=lambda argv: " ".join(argv) or "none")
def test_cli_prints_what_the_full_parser_prints(capsys, argv):
    full = _parse_exit(build_parser().parse_args, argv, capsys)
    assert full[0] == (0 if "--help" in argv else 2)
    assert _parse_exit(main, argv, capsys) == full


def test_a_named_subcommand_builds_only_its_parser():
    assert list(_subcommands(build_parser())) == list(SUBCOMMANDS)
    for name in SUBCOMMANDS:
        assert list(_subcommands(build_parser(name))) == [name]
