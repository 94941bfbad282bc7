"""Benchmark harness for wqlang.

    python3 bench/run.py --workload inclusion-tv --seed 1 --seconds 20 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 20

One process runs one workload as a closed loop: one operation at a time,
no threads. With ``--trace 0`` it reports the end-to-end metrics of
BENCHMARK.json; with ``--trace 1`` it runs a fixed prefix of the workload
untraced, then traced, and reports the per-layer metrics. ``--workload
all`` runs every workload in its own process and prints one table. The
last line of a single-workload run is a JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.

It imports the package from ``src/`` of the checkout that holds this
directory and nothing else; without it the run fails before measuring.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import io
import itertools
import json
import math
import os
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any

from speed import NOMINAL_S, NOMINAL_SPAWN_S, Speed, spawn_s

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
# set-ups per run: at least SETUP_MIN, more while they have taken less than
# SETUP_BUDGET_S in all, at most SETUP_MAX
SETUP_MIN, SETUP_MAX, SETUP_BUDGET_S = 5, 25, 2.0
# CLI runs per case: at least CLI_MIN_SAMPLES, and CLI_RUNS over all cases
CLI_MIN_SAMPLES = 4
CLI_RUNS = 18
CLI_TIMEOUT_S = 120
CALIBRATE_EVERY_S = 0.05
# op_tail_ms: p95, with at least ten samples beyond it. The highest
# percentile with ten beyond is set by the few hardest random instances of a
# run and moves 30-40 % from seed to seed; it is printed beside the result.
TAIL_PERCENTILE = 95
TAIL_BEYOND = 10

# spans and counters the benchmark records itself, next to the wrapped
# library functions of tracing.Tracer.install
BENCH_SPANS = {"counting.report", "learn.teacher", "learn.oracle"}
COUNTERS = {
    "automata.determinize.states_out",
    "fixpoint.kleene.iterations",
    "fixpoint.antichain.peak_size",
    "counting.compose_steps",
    "counting.inner_iters",
    "learn.membership_queries",
    "learn.equivalence_queries",
    "slp.rules_out",
    "slp.axiom_len",
    "slp_symbols",
}
# reported by Workload.layer_metrics on the workloads they apply to, 0 elsewhere
WORKLOAD_LAYER_METRICS = {
    "inclusion.included.p50_ms",
    "inclusion.not_included.p50_ms",
    "slp.repair_compress.scaling_exponent",
}

clock = time.perf_counter


@dataclass
class Record:
    op: Any
    seconds: float
    result: Any = None
    error: BaseException | None = None
    ref: Any = None
    ref_times: list[float] = field(default_factory=list)
    # speed.Speed factor to the nominal machine speed, for this operation
    # and its reference samples
    scale: float = 1.0


def load_package():
    if not (SRC / "wqlang" / "__init__.py").is_file():
        sys.exit(f"error: {SRC / 'wqlang'} not found; run from a wqlang checkout")
    sys.path.insert(0, str(SRC))
    import wqlang

    if Path(wqlang.__file__).resolve().parent != (SRC / "wqlang").resolve():
        sys.exit(f"error: imported wqlang from {wqlang.__file__}, not from {SRC}")


def load_spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


# -- measuring -------------------------------------------------------------------


def settle() -> None:
    """Move everything alive now, the input pool above all, out of the
    collector's reach. A user's process holds one input, not a pool of
    hundreds; without this, each full collection during an operation would
    walk the whole pool."""
    gc.collect()
    gc.freeze()


def time_op(op) -> Record:
    start = clock()
    try:
        result = op.run()
    except Exception as exc:  # a raising operation is a failed one; the run goes on
        # drop the traceback: the deep chain's holds a thousand frames
        return Record(op, clock() - start, error=exc.with_traceback(None))
    return Record(op, clock() - start, result)


class Measurement:
    """The timed state of one run: operation records, reference samples
    and CLI samples. References run right after their operation and CLI
    samples between rounds, so all three spread over the same window and
    see the same machine. The calibration kernel (``speed.Speed``) runs
    after an operation once CALIBRATE_EVERY_S have passed since it last
    ran, and at the end of each round; the samples in between share its
    scale factor. Each output is checked right after it is timed;
    unless ``keep_outputs`` is set, it is dropped then, so that memory does
    not grow with the number of operations a run gets through."""

    def __init__(self, workload, speed: Speed, keep_outputs: bool = False):
        self.workload = workload
        self.speed = speed
        self.keep_outputs = keep_outputs
        self.records: list[Record] = []
        # distinct operations that failed, or returned a wrong output, at
        # least once
        self.failed: set = set()
        self.wrong: set = set()
        self.cli_times: dict[str, list[tuple[float, float]]] = {}
        self.cli_failed: set[str] = set()
        self.cli_wrong: set[str] = set()
        self.env = dict(os.environ)
        self.env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), self.env.get("PYTHONPATH")]))

    def op(self, op, reference: bool = True) -> None:
        """Time one operation, then its reference route on the same input
        (traced when the tracer is active)."""
        rec = time_op(op)
        self.records.append(rec)
        tracer = self.workload.tracer
        was_enabled = tracer.enabled
        if reference and op.reference is not None:
            for _ in range(self.workload.ref_repeat):
                tracer.enabled = tracer.active
                start = clock()
                rec.ref = op.reference(rec.result)
                elapsed = clock() - start
                tracer.enabled = was_enabled
                if rec.ref is not None:
                    rec.ref_times.append(elapsed)
        if reference:
            # the oracle check, untimed and untraced; it needs the reference
            # route's output
            tracer.enabled = False
            if rec.error is not None:
                self.failed.add(op)
            elif not op.check(rec.result, rec.ref):
                self.failed.add(op)
                self.wrong.add(op)
            tracer.enabled = was_enabled
        if not self.keep_outputs:
            rec.result = rec.ref = None

    def cli(self, expected: dict[str, bytes]) -> None:
        """One subprocess run of each CLI case, with a bare interpreter
        start (speed.spawn_s) before the first and after each; stdout or
        the output file is compared byte for byte with the library
        result."""
        before = spawn_s(self.env, ROOT)
        for case in self.workload.cli_cases:
            if case.output is not None:
                case.output.unlink(missing_ok=True)
            start = clock()
            proc = subprocess.run(
                [sys.executable, "-m", "wqlang.cli", *case.argv],
                cwd=ROOT,
                env=self.env,
                capture_output=True,
                timeout=CLI_TIMEOUT_S,
            )
            elapsed = clock() - start
            after = spawn_s(self.env, ROOT)
            self.cli_times.setdefault(case.name, []).append((elapsed, 2 * NOMINAL_SPAWN_S / (before + after)))
            before = after
            if proc.returncode != 0:
                self.cli_failed.add(case.name)
                continue
            got = case.output.read_bytes() if case.output is not None else proc.stdout
            if got != expected[case.name]:
                self.cli_failed.add(case.name)
                self.cli_wrong.add(case.name)

    def run_timed(self, seconds: float) -> None:
        """Every round of the pool once, then whole rounds cycling through
        it again while the next round is expected to end within
        ``seconds``. The CLI runs come in bursts of one run per case,
        spaced evenly in between. Every run thus attempts every operation
        and CLI case of the pool at least once."""
        cases = self.workload.cli_cases
        expected = {case.name: case.expected() for case in cases}
        bursts = max(CLI_MIN_SAMPLES, math.ceil(CLI_RUNS / len(cases)))
        spacing = seconds / bursts
        done = 0
        pool = len(self.workload.rounds)
        start = clock()
        last = 0.0
        for i, ops in enumerate(itertools.cycle(self.workload.rounds)):
            if i >= pool and clock() - start + last > seconds:
                break
            round_start = clock()
            self.round(ops)
            last = clock() - round_start
            while done < bursts and clock() - start >= spacing * (done + 0.5):
                self.cli(expected)
                done += 1
        for _ in range(done, bursts):
            self.cli(expected)

    def round(self, ops, reference: bool = True) -> None:
        """The operations of one round, with the calibration kernel in
        between and at the end."""
        pending = 0
        for j, op in enumerate(ops):
            self.op(op, reference)
            pending += 1
            if j == len(ops) - 1 or clock() - self.speed.last >= CALIBRATE_EVERY_S:
                scale = self.speed.scale()
                for rec in self.records[-pending:]:
                    rec.scale = scale
                pending = 0

    def run_fixed(self, reference: bool) -> None:
        for ops in itertools.islice(itertools.cycle(self.workload.rounds), self.workload.trace_rounds):
            self.round(ops, reference)

    def busy_s(self) -> float:
        """Scaled time of all operations."""
        return sum(r.seconds * r.scale for r in self.records)

    def check(self) -> tuple[int, int, int]:
        """Distinct operations of the pool attempted, failed at least once,
        and wrong at least once. Counting operations of the pool, not runs
        of them, makes the counts depend on neither the seed nor the
        machine's speed."""
        return len({rec.op for rec in self.records}), len(self.failed), len(self.wrong)

    def ref_samples(self) -> list[tuple[float, float]]:
        """(raw seconds, scale factor) of every reference run."""
        return [(t, rec.scale) for rec in self.records for t in rec.ref_times]


def run_cli_in_process(workload) -> tuple[int, int, int]:
    """Each CLI case once through ``wqlang.cli.main`` in this process, so
    the traced formats and cli layers see the same files as the CLI runs."""
    import wqlang.cli as cli

    tracer = workload.tracer
    attempted = failed = wrong = 0
    for case in workload.cli_cases:
        tracer.enabled = False
        expected = case.expected()
        tracer.enabled = tracer.active
        if case.output is not None:
            case.output.unlink(missing_ok=True)
        stdout = io.TextIOWrapper(io.BytesIO(), encoding="utf-8")
        attempted += 1
        try:
            with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(io.StringIO()):
                code = cli.main(case.argv)
        except Exception:  # the seed's deep-chain RecursionError lands here
            failed += 1
            continue
        stdout.flush()
        got = case.output.read_bytes() if case.output is not None else stdout.buffer.getvalue()
        if code != 0 or got != expected:
            failed += 1
            wrong += got != expected
    return attempted, failed, wrong


# -- reporting -------------------------------------------------------------------


def tail(values: list[float], percentile: float = TAIL_PERCENTILE) -> tuple[float, float]:
    """The given percentile, or a lower one where that leaves fewer than
    TAIL_BEYOND samples above it; and which percentile it is. The maximum
    when there are TAIL_BEYOND samples or fewer."""
    ordered = sorted(values)
    n = len(ordered)
    if n <= TAIL_BEYOND:
        return ordered[-1], 100.0
    k = min(math.ceil(n * percentile / 100), n - TAIL_BEYOND)
    return ordered[k - 1], 100.0 * k / n


def layer_value(name: str, tracer, extras: dict[str, float]) -> float:
    if name in extras:
        return extras[name]
    if name in COUNTERS or name in WORKLOAD_LAYER_METRICS:
        return tracer.counters.get(name, 0)
    span, _, field = name.rpartition(".")
    if field in ("calls", "self_s") and (span in tracer.registered or span in BENCH_SPANS):
        stats = tracer.spans.get(span)
        if stats is None:
            return 0
        return stats.calls if field == "calls" else stats.self_s
    raise KeyError(f"per-layer metric {name!r} has no source")


def derived_layer_metrics(tracer) -> dict[str, float]:
    spans, counters = tracer.spans, tracer.counters

    def calls(name):
        return spans[name].calls if name in spans else 0

    def ratio(a, b):
        return a / b if b else 0.0

    return {
        "fixpoint.antichain_insert.accepted_ratio": ratio(
            counters.get("fixpoint.antichain_insert.accepted", 0), calls("fixpoint.antichain_insert")
        ),
        "counting.axiom_fold_share": ratio(
            counters.get("counting.axiom_folds", 0), counters.get("counting.compose_steps", 0)
        ),
        "regex.nfa_states": ratio(counters.get("regex.nfa_states", 0), calls("regex.compile")),
        "learn.teacher_s": spans["learn.teacher"].total_s if "learn.teacher" in spans else 0.0,
        "learn.oracle_s": spans["learn.oracle"].total_s if "learn.oracle" in spans else 0.0,
    }


def emit(spec_metrics: list[dict], values: dict[str, float], notes: dict[str, str], correct, attempted, failed):
    width = max(len(m["name"]) for m in spec_metrics)
    metrics = {}
    for m in spec_metrics:
        value = values[m["name"]]
        metrics[m["name"]] = {"value": value, "unit": m["unit"]}
        note = notes.get(m["name"], "")
        print(f"  {m['name']:<{width}}  {value:>14.6g} {m['unit']:<6} {note}")
    ratio = failed / attempted if attempted else 0.0
    print(f"  {'failed_ratio':<{width}}  {ratio:>14.6g} ratio  ({failed} of {attempted} operations)")
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}))


def run_untraced(workload, seed: int, seconds: float, spec: dict) -> None:
    speed = Speed()
    setups = []
    while len(setups) < SETUP_MIN or (len(setups) < SETUP_MAX and sum(t for t, _ in setups) < SETUP_BUDGET_S):
        start = clock()
        workload.setup(seed)
        elapsed = clock() - start
        setups.append((elapsed, speed.scale()))
    settle()
    m = Measurement(workload, speed)
    m.run_timed(seconds)
    attempted, failed, wrong = m.check()
    records = m.records
    cli_attempted, cli_failed, cli_wrong = len(m.cli_times), len(m.cli_failed), len(m.cli_wrong)

    def p50(samples, scaled=True):
        return statistics.median(t * s if scaled else t for t, s in samples)

    ops = [(r.seconds, r.scale) for r in records]
    refs = m.ref_samples()
    latencies = [t * s * 1000 for t, s in ops]
    tail_ms, tail_pct = tail(latencies)
    far_ms, far_pct = tail(latencies, 100)
    cli = {name: (p50(ts) * 1000, p50(ts, False) * 1000, len(ts)) for name, ts in m.cli_times.items()}
    values = {
        "setup_s": p50(setups),
        "op_p50_ms": statistics.median(latencies),
        "op_tail_ms": tail_ms,
        "ref_op_p50_ms": p50(refs) * 1000,
        "cli_p50_ms": statistics.mean(scaled for scaled, _, _ in cli.values()),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    n = len(records)
    busy = sum(t for t, _ in ops)
    cli_runs = sum(k for _, _, k in cli.values())
    notes = {
        "setup_s": f"(median of {len(setups)} set-ups; raw {p50(setups, False):.4g})",
        "op_p50_ms": f"(n={n}; raw {p50(ops, False) * 1000:.4g})",
        "op_tail_ms": f"(p{tail_pct:.1f}, n={n}; p{far_pct:.1f} {far_ms:.4g})",
        "ref_op_p50_ms": f"(n={len(refs)}; raw {p50(refs, False) * 1000:.4g})",
        "cli_p50_ms": f"(mean of per-command medians, {cli_runs} runs; scaled/raw: "
        + ", ".join(f"{k} {v:.0f}/{raw:.0f}" for k, (v, raw, _) in cli.items())
        + ")",
    }
    kinds: dict[str, list[float]] = {}
    for r in records:
        kinds.setdefault(r.op.kind, []).append(r.seconds * r.scale * 1000)
    print(f"workload={workload.name} seed={seed} seconds={seconds} trace=0")
    print(
        f"  speed: calibration kernel p50 {statistics.median(speed.samples) * 1000:.3f} ms over "
        f"{len(speed.samples)} samples; times below are scaled to {NOMINAL_S * 1000:g} ms"
    )
    print("  by kind: " + ", ".join(f"{k} p50 {statistics.median(v):.2f} ms (n={len(v)})" for k, v in kinds.items()))
    for line in workload.info():
        print(f"  info: {line}")
    # one client, one operation at a time: this is the reciprocal of the mean
    # latency, which the one or two hardest random instances of a run set
    # (one 0.6 s inclusion check among a thousand moves it by 40 %), so it
    # is printed here and is not a metric
    print(
        f"  info: ops_per_s {n / sum(t * s for t, s in ops):.4g} over {n} operations "
        f"(raw {n / busy:.4g}, {busy:.3f} s busy)"
    )
    print(
        f"  operations failed {failed} of {attempted} ({wrong} wrong) over {n} runs; "
        f"CLI cases failed {cli_failed} of {cli_attempted} ({cli_wrong} wrong) over {cli_runs} runs"
    )
    emit(
        spec["end_to_end"],
        values,
        notes,
        wrong == 0 and cli_wrong == 0,
        attempted + cli_attempted,
        failed + cli_failed,
    )


def run_traced(workload, seed: int, spec: dict) -> None:
    tracer = workload.tracer
    workload.setup(seed)
    settle()
    untraced = Measurement(workload, Speed(), keep_outputs=True)
    untraced.run_fixed(reference=False)
    extras = workload.layer_metrics(untraced.records)

    tracer.install()
    try:
        tracer.active = tracer.enabled = True
        workload.setup(seed)  # traced: RePair of the search corpus counts here
        # the set-up writes the CLI files with the same dumpers; only the
        # CLI's own parsing and output count for formats
        tracer.spans.pop("formats.dump", None)
        tracer.spans.pop("formats.parse", None)
        settle()
        traced = Measurement(workload, Speed())
        traced.run_fixed(reference=True)
        tracer.enabled = False
        attempted, failed, wrong = traced.check()
        cli_attempted, cli_failed, cli_wrong = run_cli_in_process(workload)
    finally:
        tracer.enabled = tracer.active = False
        tracer.uninstall()

    extras.update(derived_layer_metrics(tracer))
    extras["trace.overhead_ratio"] = traced.busy_s() / untraced.busy_s()
    values = {m["name"]: layer_value(m["name"], tracer, extras) for m in spec["per_layer"]}
    n = len(traced.records)
    print(f"workload={workload.name} seed={seed} trace=1 rounds={workload.trace_rounds} operations={n}")
    print(
        f"  operations failed {failed} of {attempted} ({wrong} wrong) over {n} runs; "
        f"in-process CLI failed {cli_failed} of {cli_attempted}"
    )
    emit(
        spec["per_layer"],
        values,
        {},
        wrong == 0 and cli_wrong == 0,
        attempted + cli_attempted,
        failed + cli_failed,
    )


# -- entry points -------------------------------------------------------------------


def run_one(spec: dict, name: str, seed: int, seconds: float, traced: bool) -> None:
    load_package()
    from tracing import Tracer
    from workloads import WORKLOADS

    work_root = ROOT / ".bench_work"
    work_root.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(dir=work_root))
    try:
        workload = WORKLOADS[name](name, Tracer(), workdir)
        if traced:
            run_traced(workload, seed, spec)
        else:
            run_untraced(workload, seed, seconds, spec)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        with contextlib.suppress(OSError):
            work_root.rmdir()


def run_all(spec: dict, seed: int, seconds: float, traced: bool) -> int:
    """Every workload in its own process; one table of all metrics."""
    names = [w["name"] for w in spec["workloads"]]
    kind = "per_layer" if traced else "end_to_end"
    results = {}
    for name in names:
        proc = subprocess.run(
            [sys.executable, __file__, "--workload", name, "--seed", str(seed),
             "--seconds", str(seconds), "--trace", str(int(traced))],
            capture_output=True,
            text=True,
        )
        sys.stdout.write(proc.stdout[: proc.stdout.rstrip().rfind("\n") + 1])
        if proc.returncode != 0:
            sys.stderr.write(proc.stderr)
            return proc.returncode
        results[name] = json.loads(proc.stdout.strip().splitlines()[-1])
    width = max(len(m["name"]) for m in spec[kind])
    print(f"\n{'metric':<{width}}  {'unit':<6}" + "".join(f"{n:>16}" for n in names))
    for m in spec[kind]:
        row = "".join(f"{results[n]['metrics'][m['name']]['value']:>16.6g}" for n in names)
        print(f"{m['name']:<{width}}  {m['unit']:<6}{row}")
    row = "".join(f"{results[n]['failed']:>9}/{results[n]['attempted']:<6}" for n in names)
    print(f"{'failed/attempted':<{width}}  {'count':<6}{row}")
    return 0 if all(r["correct"] for r in results.values()) else 1


def main(argv: list[str] | None = None) -> int:
    spec = load_spec()
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*(w["name"] for w in spec["workloads"]), "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.workload == "all":
        return run_all(spec, args.seed, args.seconds, bool(args.trace))
    run_one(spec, args.workload, args.seed, args.seconds, bool(args.trace))
    return 0


if __name__ == "__main__":
    sys.exit(main())
