"""The four workloads: seeded inputs, operations, oracles, references and
CLI cases.

A workload's ``setup`` builds a pool of rounds from the seed. A round is a
short, fixed list of operations; the harness runs whole rounds, so every
run sees the same mix of operation kinds. Each ``Op`` carries the timed
library call, the untimed oracle check and, where the family has one, the
reference route on the same input.

Library functions are always reached through their module object
(``inclusion.fa_inc_antichain``, never a name imported here), so the
tracing wrappers of ``tracing.py`` see every call.
"""

from __future__ import annotations

import math
import random
import statistics
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable

import wqlang.automata as automata
import wqlang.formats as formats
import wqlang.inclusion as inclusion
import wqlang.learn as learn
import wqlang.residual as residual
import wqlang.slpsearch.counting as counting
import wqlang.slpsearch.regex as regex
import wqlang.slpsearch.slp as slp_mod

import gen
import oracles
from tracing import Tracer


@dataclass(eq=False)
class Op:
    kind: str
    run: Callable[[], Any]
    # (result, reference result) -> does the output agree with the oracle?
    check: Callable[[Any, Any], bool]
    # reference route on the same input; receives the operation's result,
    # None when the operation raised, and may return None for "no sample"
    reference: Callable[[Any], Any] | None = None


@dataclass
class CliCase:
    name: str
    argv: list[str]
    expected: Callable[[], bytes]
    # compare this file instead of stdout
    output: Path | None = None


@dataclass
class Workload:
    name: str
    tracer: Tracer
    workdir: Path
    rounds: list[list[Op]] = field(default_factory=list)
    cli_cases: list[CliCase] = field(default_factory=list)
    # rounds in the fixed prefix that the traced run measures
    trace_rounds: int = 1
    # timing repeats per reference run, for references too short to time once
    ref_repeat: int = 1

    def setup(self, seed: int) -> None:
        raise NotImplementedError

    def layer_metrics(self, records) -> dict[str, float]:
        """Workload-specific per-layer numbers from the untraced records."""
        return {}

    def info(self) -> list[str]:
        """Lines printed for information only, never reported as metrics."""
        return []


def _verdict_line(v) -> bytes:
    if v.included:
        return b"INCLUDED\n"
    if v.witness is None:
        return b"NOT INCLUDED\n"
    return b"NOT INCLUDED witness=" + v.witness + b"\n"


# -- inclusion-tv ---------------------------------------------------------------

DENSITIES = (1.25, 1.5, 2.0)
OCN_START = (0, 0)
OCN_CHECK_LEN = 8


class InclusionTV(Workload):
    """NFA in NFA, CFG in NFA and NFA in OCN with the CLI-default algorithms
    on Tabakov–Vardi automata; included and not-included instances mixed."""

    # one pass over the pool takes about 12 s of a 20 s run, so every run
    # attempts every operation; twice the 49 pairs of independent sizes
    POOL = 98

    def setup(self, seed: int) -> None:
        rng = random.Random(f"inclusion-tv/{seed}")
        self.rounds = [self._round(rng, i) for i in range(self.POOL)]
        self.trace_rounds = 6
        # CLI inputs of fixed, modest size, so that the CLI samples measure
        # start-up, parsing and output rather than one random hard instance
        nfa_left, nfa_right = gen.tv_nfa(rng, 10, 2.0), gen.tv_nfa(rng, 10, 2.0)
        g, cfg_right = gen.cnf_grammar(rng, 3), gen.tv_nfa(rng, 3, 2.0)
        ocn_left, net = gen.tv_nfa(rng, 10, 2.0), gen.ocn(rng, 3, 6)
        files = {
            "left.nfa": formats.dump_nfa(nfa_left),
            "right.nfa": formats.dump_nfa(nfa_right),
            "g.cnf": formats.dump_cnf(g),
            "cfg_right.nfa": formats.dump_nfa(cfg_right),
            "ocn_left.nfa": formats.dump_nfa(ocn_left),
            "net.ocn": formats.dump_ocn(net),
        }
        for name, data in files.items():
            (self.workdir / name).write_bytes(data)
        p = lambda name: str(self.workdir / name)
        self.cli_cases = [
            CliCase(
                "include nfa",
                ["include", "nfa", p("left.nfa"), p("right.nfa")],
                lambda: _verdict_line(inclusion.fa_inc_antichain(nfa_left, nfa_right)),
            ),
            CliCase(
                "include cfg",
                ["include", "cfg", p("g.cnf"), p("cfg_right.nfa")],
                lambda: _verdict_line(inclusion.cfg_inc_antichain(g, cfg_right)),
            ),
            CliCase(
                "include ocn",
                ["include", "ocn", p("ocn_left.nfa"), p("net.ocn")],
                lambda: _verdict_line(inclusion.nfa_in_ocn(ocn_left, net, OCN_START)),
            ),
        ]

    def _round(self, rng: random.Random, i: int) -> list[Op]:
        """Round ``i`` of the pool. The automaton sizes are not drawn but
        stratified: they cycle with ``i``, so that every pool has the same
        mix of sizes and only the automata themselves vary with the seed.
        The time of an inclusion check grows steeply with the size, so a
        drawn mix would move the run's median from seed to seed."""
        ops = []
        for density in DENSITIES:
            a = gen.tv_nfa(rng, 12 + i % 7, density)
            b = gen.tv_nfa(rng, 12 + i // 7 % 7, density)
            ops.append(self._nfa_op("nfa-independent", a, b))
            a = gen.tv_nfa(rng, 12 + (i + 3) % 7, density)
            ops.append(self._nfa_op("nfa-self", a, a))
            a = gen.tv_nfa(rng, 10 + i % 6, density)
            ops.append(self._nfa_op("nfa-union", a, gen.nfa_union(a, gen.tv_nfa(rng, 4 + i % 5, density))))
        # one grammar and one net per round: they are cheap, and a larger
        # share of them would put the median on the edge of their cluster
        g = gen.cnf_grammar(rng, rng.randint(3, 4))
        ops.append(self._cfg_op(g, gen.tv_nfa(rng, rng.randint(3, 5), rng.choice(DENSITIES))))
        left = gen.tv_nfa(rng, rng.randint(8, 20), rng.choice(DENSITIES))
        ops.append(self._ocn_op(left, gen.ocn(rng, rng.randint(2, 4), rng.randint(4, 10))))
        return ops

    @staticmethod
    def _nfa_op(kind, a, b) -> Op:
        def check(v, ref) -> bool:
            if v.included != ref.included:
                return False
            w = v.witness
            return w is None or (oracles.accepts(a, w) and not oracles.accepts(b, w))

        return Op(
            kind,
            lambda: inclusion.fa_inc_antichain(a, b, "forward"),
            check,
            lambda _v: automata.naive_inclusion(a, b),
        )

    @staticmethod
    def _cfg_op(g, n) -> Op:
        def check(v, ref) -> bool:
            if v.included != ref.included:
                return False
            w = v.witness
            return w is None or (oracles.cyk(g, w) and not oracles.accepts(n, w))

        return Op(
            "cfg",
            lambda: inclusion.cfg_inc_antichain(g, n),
            check,
            lambda _v: automata.cfg_in_regular_oracle(g, n.determinize()),
        )

    @staticmethod
    def _ocn_op(n, o) -> Op:
        def check(v, _ref) -> bool:
            if v.included:
                return oracles.ocn_counterexample(n, o, OCN_START, OCN_CHECK_LEN) is None
            w = v.witness
            return w is not None and oracles.accepts(n, w) and not oracles.ocn_is_trace(o, OCN_START, w)

        return Op("ocn", lambda: inclusion.nfa_in_ocn(n, o, OCN_START), check)

    def layer_metrics(self, records) -> dict[str, float]:
        by_verdict: dict[bool, list[float]] = {True: [], False: []}
        for rec in records:
            if rec.error is None:
                by_verdict[rec.result.included].append(rec.seconds * 1000)
        return {
            "inclusion.included.p50_ms": _median(by_verdict[True]),
            "inclusion.not_included.p50_ms": _median(by_verdict[False]),
        }


# -- search-logs -------------------------------------------------------------------

CORPUS_BYTES = 8 * 1024
# (pattern, also report the lines); plus/alt shapes take the homogeneous DFA
# route, the rest compile_regex
PATTERNS = (
    ("ERROR", True),
    ("timeout", False),
    ("cache mis+", False),
    ("status=50[0-9]", False),
    ("took=[0-9][0-9][0-9][0-9]ms", False),
    ("[0-2][0-9]:[0-5]9:0[0-9]", False),
    ("(GET|POST) /api", True),
    ("id=9[0-9]{3,4} ", False),
    ("WARN.*disk", False),
    ("[a-z]+-7\\]", False),
    ("reset|expired", True),
    ("v[12]/(users|orders)", False),
    ("(auth|billing)-[1-3]\\] (PUT|DELETE)", False),
    ("status=(404|503) took=[0-9]{1,2}ms", False),
)


def pattern_automaton(pattern: str):
    """The CLI's ``--engine auto`` choice, through the module objects."""
    ast = regex.parse_regex(pattern)
    kind = regex.homogeneous_kind(ast)
    if kind is not None:
        return regex.homogeneous_dfa(ast, kind)
    return regex.compile_regex(ast)


class SearchLogs(Workload):
    """Line counting (some with reporting) by SearchEngine on one RePair-
    compressed log corpus; a fresh engine per query."""

    def setup(self, seed: int) -> None:
        rng = random.Random(f"search-logs/{seed}")
        self.text = gen.log_text(rng, CORPUS_BYTES)
        self.slp = slp_mod.repair_compress(self.text)
        self.trace_rounds = 2
        self._oracle: dict[str, list[tuple[int, bytes]]] = {}
        self.rounds = [[self._query_op(p, report) for p, report in PATTERNS]]
        corpus = self.workdir / "corpus.slp"
        corpus.write_bytes(formats.dump_slp_binary(self.slp))
        self.cli_cases = [
            CliCase(
                f"search {p}",
                ["search", "-e", p, str(corpus), *(["--report"] if report else [])],
                lambda p=p, report=report: self._cli_expected(p, report),
            )
            for p, report in (PATTERNS[0], PATTERNS[6], PATTERNS[9])
        ]

    def info(self) -> list[str]:
        # Python re on the decompressed text: a reference for the reader,
        # never a gate (it runs in C)
        times = []
        for pattern, _ in PATTERNS:
            start = time.perf_counter()
            oracles.regex_lines(pattern.encode("ascii"), slp_mod.decompress(self.slp))
            times.append(time.perf_counter() - start)
        return [f"decompress + Python re p50 {statistics.median(times) * 1000:.3f} ms over {len(times)} patterns"]

    def oracle(self, pattern: str) -> list[tuple[int, bytes]]:
        lines = self._oracle.get(pattern)
        if lines is None:
            lines = self._oracle[pattern] = oracles.regex_lines(pattern.encode("ascii"), self.text)
        return lines

    def _cli_expected(self, pattern: str, report: bool) -> bytes:
        engine = counting.SearchEngine(self.slp, pattern_automaton(pattern))
        out = [b"%d\n" % engine.line_count()]
        if report:
            out += [b"%d:%s\n" % (no, line) for no, line in engine.report()]
        return b"".join(out)

    def _query_op(self, pattern: str, report: bool) -> Op:
        slp, tracer = self.slp, self.tracer
        axiom_folds = len(slp.axiom) - 1

        def run():
            engine = counting.SearchEngine(slp, pattern_automaton(pattern))
            count = engine.line_count()
            lines = None
            if report:
                with tracer.span("counting.report"):
                    lines = list(engine.report())
            tracer.count("counting.compose_steps", engine.stats.compose_steps)
            tracer.count("counting.inner_iters", engine.stats.inner_iters)
            tracer.count("counting.axiom_folds", axiom_folds)
            return count, lines

        def reference(_result):
            text = slp_mod.decompress(slp)
            return oracles.FactorScanner(pattern_automaton(pattern)).matching_lines(text)

        def check(result, ref) -> bool:
            expected = self.oracle(pattern)
            count, lines = result
            return (
                ref == expected
                and count == len(expected)
                and (lines is None or lines == expected)
            )

        return Op("report" if report else "count", run, check, reference)


# -- compress-logs -------------------------------------------------------------------

TEXT_SIZES = (512, 1024, 2 * 1024, 4 * 1024)
# a round is TEXT_GROUPS groups, each one text of every size and one deep
# chain: the run's median lies in the middle of the 1 KB texts, and their
# samples are spread over the whole round. RePair's time differs by up to 2x
# between two 1 KB texts, so the median needs several of them
TEXT_GROUPS = 8
CHAIN_DEPTH = 5000


def slp_symbols(grammar) -> int:
    """Grammar size: two symbols per binary rule plus the axiom length."""
    return 2 * (grammar.rule_count - 1) + len(grammar.axiom)


class CompressLogs(Workload):
    """RePair then a decompress round trip on log texts at doubling sizes,
    eight of each, plus eight valid 5000-deep chain SLPs to decompress."""

    def setup(self, seed: int) -> None:
        rng = random.Random(f"compress-logs/{seed}")
        groups = [
            ([gen.log_text(rng, size) for size in TEXT_SIZES], gen.deep_chain_slp(rng, CHAIN_DEPTH))
            for _ in range(TEXT_GROUPS)
        ]
        texts = [t for group, _ in groups for t in group]
        chain = groups[0][1]
        chain_text = gen.deep_chain_text(chain)
        self.text_sizes = [len(t) for t in texts]
        self.trace_rounds = 1
        self.ref_repeat = 5
        self.rounds = [
            [
                op
                for group, c in groups
                for op in [*(self._text_op(t) for t in group), self._chain_op(c, gen.deep_chain_text(c))]
            ]
        ]
        small = self.workdir / "small.log"
        small.write_bytes(texts[0])
        balanced = self.workdir / "balanced.slp"
        balanced.write_bytes(formats.dump_slp_binary(gen.balanced_slp(texts[0])))
        chain_file = self.workdir / "chain.slp"
        chain_file.write_bytes(formats.dump_slp_binary(chain))
        out = self.workdir / "out.bin"
        self.cli_cases = [
            CliCase(
                "compress",
                ["compress", str(small), "-o", str(out)],
                lambda: formats.dump_slp_binary(slp_mod.repair_compress(texts[0])),
                out,
            ),
            CliCase("decompress", ["decompress", str(balanced), "-o", str(out)], lambda: texts[0], out),
            CliCase(
                "decompress deep-chain",
                ["decompress", str(chain_file), "-o", str(out)],
                lambda: chain_text,
                out,
            ),
        ]

    def _text_op(self, text: bytes) -> Op:
        tracer = self.tracer

        def run():
            grammar = slp_mod.repair_compress(text)
            tracer.count("slp_symbols", slp_symbols(grammar))
            return grammar, slp_mod.decompress(grammar)

        return Op(
            "round-trip",
            run,
            lambda result, ref: result[1] == text and ref == text,
            lambda result: None if result is None else oracles.expand_slp(result[0]),
        )

    @staticmethod
    def _chain_op(chain, chain_text: bytes) -> Op:
        return Op(
            "deep-chain",
            lambda: slp_mod.decompress(chain),
            lambda result, ref: result == chain_text and ref == chain_text,
            lambda _result: oracles.expand_slp(chain),
        )

    def layer_metrics(self, records) -> dict[str, float]:
        """Log–log slope of round-trip time against text size, from the
        smallest texts to the largest (medians of each), in the first
        round."""
        trips = [r for r in records[: len(self.rounds[0])] if r.op.kind == "round-trip" and r.error is None]
        if len(trips) < len(self.text_sizes):
            return {"slp.repair_compress.scaling_exponent": 0.0}
        k = len(TEXT_SIZES)
        smallest, largest = trips[::k], trips[k - 1 :: k]
        t0, t1 = (statistics.median(r.seconds for r in part) for part in (smallest, largest))
        s0, s1 = statistics.median(self.text_sizes[::k]), statistics.median(self.text_sizes[k - 1 :: k])
        return {"slp.repair_compress.scaling_exponent": math.log(t1 / t0) / math.log(s1 / s0)}


# -- residual-rfa -------------------------------------------------------------------


class ResidualRFA(Workload):
    """One operation runs double_reversal_canonical, res, check_dr_condition
    and nl_learn on one Tabakov–Vardi NFA with 8 to 10 states; canonical is
    the reference. The four share an NFA, so the slow ones come together:
    timing them as one operation keeps the tail's samples independent.
    Densities 1.75 to 2.25: at 1.25 and 1.5 (and at 12 states), about one
    NFA in ten takes up to seconds, and a few of those would decide a whole
    run's tail."""

    # one pass over the pool takes about 11 s of a 20 s run
    POOL = 210
    DENSITIES = (1.75, 2.0, 2.25)

    def setup(self, seed: int) -> None:
        rng = random.Random(f"residual-rfa/{seed}")
        # round i has one NFA of each density, all with 8 + i % 3 states:
        # sizes cycle rather than being drawn, as in InclusionTV._round
        self.rounds = [
            [self._op(gen.tv_nfa(rng, 8 + i % 3, d)) for d in rng.sample(self.DENSITIES, 3)]
            for i in range(self.POOL)
        ]
        self.trace_rounds = 25
        target = gen.tv_nfa(rng, 10, 2.0)  # the CLI input, of fixed size as in inclusion-tv
        path = self.workdir / "target.nfa"
        path.write_bytes(formats.dump_nfa(target))
        out = self.workdir / "out.nfa"
        dump = formats.dump_nfa
        constructions = (
            ("double-reversal", lambda: dump(residual.double_reversal_canonical(target))),
            ("residualize", lambda: dump(residual.res(target, "right"))),
            ("canonical", lambda: dump(residual.canonical(target, "right"))),
            ("learn", lambda: dump(_learn(target, None))),
        )
        self.cli_cases = [
            CliCase(name, [name, str(path), "-o", str(out)], expected, out)
            for name, expected in constructions
        ]
        self.cli_cases.append(
            CliCase(
                "check-dr",
                ["check-dr", str(path)],
                lambda: b"HOLDS\n" if residual.check_dr_condition(target) else b"DOES NOT HOLD\n",
            )
        )

    def _op(self, n) -> Op:
        tracer = self.tracer

        def run():
            return (
                residual.double_reversal_canonical(n),
                residual.res(n, "right"),
                residual.check_dr_condition(n),
                _learn(n, tracer),
            )

        def check(result, ref) -> bool:
            dr, res_out, holds, learned = result
            if automata.equivalence_counterexample(ref, n) is not None:
                return False
            # isomorphic_to_canonical(candidate, ref), with the reference's
            # residual labels computed once
            m = ref.determinize().minimize()
            sig = residual.canonical_signature(ref, m)
            canonical = lambda candidate: sig is not None and residual.canonical_signature(candidate, m) == sig
            return (
                canonical(dr)
                # the double-reversal and learner outputs are often equal
                and (learned == dr or canonical(learned))
                and automata.equivalence_counterexample(res_out, n) is None
                # the condition is sufficient, not necessary, for res to be
                # canonical: tests/test_residual.py pins a witness
                and (not holds or canonical(res_out))
            )

        return Op("residual", run, check, lambda _result: residual.canonical(n, "right"))


def _learn(target, tracer: Tracer | None):
    """nl_learn with ``target.member`` as teacher and
    ``equivalence_counterexample`` as oracle; under tracing both callables
    are counted and timed."""

    def oracle(candidate):
        return automata.equivalence_counterexample(candidate, target)

    teacher = target.member
    if tracer is not None and tracer.enabled:
        member = teacher

        def teacher(word):
            tracer.count("learn.membership_queries")
            with tracer.span("learn.teacher"):
                return member(word)

        def oracle(candidate):
            tracer.count("learn.equivalence_queries")
            with tracer.span("learn.oracle"):
                return automata.equivalence_counterexample(candidate, target)

    return learn.nl_learn(teacher, oracle, sorted(target.alphabet))


def _median(values: list[float]) -> float:
    return statistics.median(values) if values else 0.0


WORKLOADS: dict[str, type[Workload]] = {
    "inclusion-tv": InclusionTV,
    "search-logs": SearchLogs,
    "compress-logs": CompressLogs,
    "residual-rfa": ResidualRFA,
}
