"""The benchmark's tracer (``bench/tracing.py``) wraps functions by name
where callers look them up, such as ``residual.residual_inclusion_matrix``
or ``residual.naive_inclusion``. A refactor that stops binding one of those
names breaks the traced benchmark run; this test catches it instead."""

import random
import sys
from pathlib import Path

import wqlang.cli as cli
import wqlang.inclusion as inclusion
import wqlang.slpsearch.regex as regex
from wqlang.formats import dump_nfa

from conftest import make_fig42_n2, rand_nfa

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "bench"))

from tracing import Tracer  # noqa: E402


def test_tracer_wraps_every_patched_name_and_restores_it():
    tracer = Tracer()
    try:
        tracer.install()
        assert tracer._patches
        for owner, attr, original in tracer._patches:
            wrapper = getattr(owner, attr)
            assert wrapper is not original, (owner, attr)
            assert wrapper.__wrapped__ is original, (owner, attr)
    finally:
        patches = list(tracer._patches)
        tracer.uninstall()
        for owner, attr, original in patches:
            assert getattr(owner, attr) is original, (owner, attr)


def test_tracer_sees_the_antichain_kernels_of_an_inclusion_check():
    # a fast path that went around Antichain.insert or Nfa.step would leave
    # the traced per-layer counts of an inclusion check at 0
    rng = random.Random(7)
    n1, n2 = (rand_nfa(rng, max_states=6, density=0.3) for _ in range(2))
    tracer = Tracer()
    try:
        tracer.install()
        tracer.enabled = True
        inclusion.fa_inc_antichain(n1, n2)
    finally:
        tracer.uninstall()
    assert tracer.spans["inclusion.fa_inc_antichain"].calls == 1
    assert tracer.spans["fixpoint.antichain_insert"].calls > 0
    assert tracer.spans["automata.step"].calls > 0


def test_tracer_counts_each_cli_call_once(tmp_path):
    # the CLI calls these through their defining modules, which the tracer
    # wraps as well as the CLI's own names: a call counted twice, or not at
    # all, would skew the traced per-layer numbers
    text, slp, nfa = (tmp_path / name for name in ("log.txt", "log.slp", "n2.nfa"))
    text.write_bytes(b"INFO ok\nERROR disk\n" * 8)
    nfa.write_bytes(dump_nfa(make_fig42_n2()))
    out = str(tmp_path / "out")
    # uninstall leaves on ``cli`` the names it restored, which the module
    # would otherwise resolve on access; drop them, so a CLI call through
    # one of them would be counted twice here
    for name in ("repair_compress", "decompress", "compile_regex", "homogeneous_dfa", "nl_learn"):
        vars(cli).pop(name, None)
    tracer = Tracer()
    try:
        tracer.install()
        tracer.enabled = True
        assert cli.main(["compress", str(text), "-o", str(slp)]) == 0
        assert cli.main(["decompress", str(slp), "-o", out]) == 0
        assert cli.main(["search", "-e", "E.*k", str(slp)]) == 0
        assert cli.main(["learn", str(nfa), "-o", out]) == 0
    finally:
        tracer.uninstall()
    for name in ("slp.repair_compress", "slp.decompress", "regex.compile", "learn.nl_learn"):
        assert tracer.spans[name].calls == 1, name


def test_tracer_counts_a_homogeneous_pattern_automaton_as_one_compilation():
    # the benchmark builds homogeneous patterns' automata through this name;
    # a wrapper around compile_regex would nest a second traced call
    ast = regex.parse_regex("(a|b)(a|b)b")
    kind = regex.homogeneous_kind(ast)
    tracer = Tracer()
    try:
        tracer.install()
        tracer.enabled = True
        nfa = regex.homogeneous_dfa(ast, kind)
    finally:
        tracer.uninstall()
    assert tracer.spans["regex.compile"].calls == 1
    assert tracer.counters["regex.nfa_states"] == nfa.state_count == 4
