import argparse
import json
import random
import re

import pytest

from wqlang.cli import build_parser, main
from wqlang.formats import dump_cnf, dump_nfa, dump_ocn, dump_slp_binary, parse_nfa
from wqlang import CnfGrammar, Nfa, Ocn, compile_regex, equivalence_counterexample, parse_regex
from wqlang.automata import MAX_DFA_STATES

from conftest import A, B, chain_slp, count_lines_oracle, make_counter_ocn, make_ex451_grammar, make_fig42_n1, make_fig42_n2, make_fig43, make_fig62


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


def test_search_homogeneous_fast_path(tmp_path, capsys):
    src = tmp_path / "c.txt"
    src.write_bytes(b"xxabxx\nyy\n")
    slp = tmp_path / "c.slp"
    main(["compress", str(src), "-o", str(slp)])
    capsys.readouterr()
    assert main(["search", "-e", "a+b+", str(slp)]) == 0
    assert capsys.readouterr().out.strip() == "1"


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


def _include_algos() -> list[tuple[str, str]]:
    """Every ``--algo`` choice of ``include nfa`` and ``include cfg``, as
    the parser declares them."""

    def subcommands(parser: argparse.ArgumentParser) -> dict:
        (action,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
        return action.choices

    flavors = subcommands(subcommands(build_parser())["include"])
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
    # stops early at a witness: n1 in itself; {a, b}^n for n >= 2, whose
    # axiom derives only through binary rules, in (a|b)*; (ab)* in the
    # counter net
    monkeypatch.setenv("TOOL_ITER_CAP", "1")
    (tmp_path / "two.cnf").write_bytes(dump_cnf(CnfGrammar(2, {1: {A, B}}, {0: {(1, 0), (1, 1)}})))
    (tmp_path / "all.nfa").write_bytes(dump_nfa(Nfa(1, [(0, A, 0), (0, B, 0)], [0], [0])))
    (tmp_path / "abstar.nfa").write_bytes(dump_nfa(Nfa(2, [(0, A, 1), (1, B, 0)], [0], [0])))
    left, right = {
        "nfa": (files["n1"], files["n1"]),
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


def test_missing_file_exit_code(tmp_path, capsys):
    assert main(["search", "-e", "a", str(tmp_path / "nope.slp")]) == 3


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
