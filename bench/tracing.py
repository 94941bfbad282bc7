"""Per-layer tracing installed from outside the package.

``Tracer.install`` replaces public functions with timing wrappers at the
place where callers look them up: a module attribute for functions other
modules bind by name (``wqlang.inclusion.kleene``,
``wqlang.residual.naive_inclusion``) and the class attribute for methods
(``Nfa.step``, ``Antichain.insert``). ``uninstall`` restores every original.

Hot leaf kernels are aggregated: each span name keeps a call count, total
time and self time, never one record per call. Self time is a span's
duration minus the time covered by its child spans, kept with a stack of
child-time accumulators.
"""

from __future__ import annotations

import functools
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Any, Callable

_clock = time.perf_counter


@dataclass
class SpanStats:
    calls: int = 0
    total_s: float = 0.0
    self_s: float = 0.0


@dataclass
class Tracer:
    spans: dict[str, SpanStats] = field(default_factory=dict)
    counters: dict[str, float] = field(default_factory=dict)
    # enabled: wrappers record; active: a traced run is in progress, so the
    # reference routes are recorded too while the oracle checks are not
    enabled: bool = False
    active: bool = False
    registered: set[str] = field(default_factory=set)
    _child: list[float] = field(default_factory=lambda: [0.0])
    _patches: list[tuple[Any, str, Any]] = field(default_factory=list)

    # -- spans ------------------------------------------------------------

    def _close(self, name: str, start: float) -> None:
        duration = _clock() - start
        children = self._child.pop()
        self._child[-1] += duration
        stats = self.spans.get(name)
        if stats is None:
            stats = self.spans[name] = SpanStats()
        stats.calls += 1
        stats.total_s += duration
        stats.self_s += duration - children

    @contextmanager
    def span(self, name: str):
        """A span around a call made from the benchmark's own code."""
        if not self.enabled:
            yield
            return
        self._child.append(0.0)
        start = _clock()
        try:
            yield
        finally:
            self._close(name, start)

    def count(self, name: str, amount: float = 1) -> None:
        if self.enabled:
            self.counters[name] = self.counters.get(name, 0) + amount

    def peak(self, name: str, value: float) -> None:
        if self.enabled and value > self.counters.get(name, 0):
            self.counters[name] = value

    def wrap(self, name: str, fn: Callable, on_result: Callable | None = None) -> Callable:
        tracer = self
        self.registered.add(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not tracer.enabled:
                return fn(*args, **kwargs)
            tracer._child.append(0.0)
            start = _clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._close(name, start)
            if on_result is not None:
                on_result(args, result)
            return result

        return traced

    # -- patching ------------------------------------------------------------

    def patch(self, owner: Any, attr: str, name: str, on_result: Callable | None = None) -> None:
        original = getattr(owner, attr)
        self._patches.append((owner, attr, original))
        setattr(owner, attr, self.wrap(name, original, on_result))

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def install(self) -> None:
        """Wrap every layer's public entry points (see the module docstring)."""
        import wqlang.automata as automata
        import wqlang.cli as cli
        import wqlang.fixpoint as fixpoint
        import wqlang.formats as formats
        import wqlang.inclusion as inclusion
        import wqlang.learn as learn
        import wqlang.quasiorder as quasiorder
        import wqlang.residual as residual
        import wqlang.slpsearch.counting as counting
        import wqlang.slpsearch.regex as regex
        import wqlang.slpsearch.slp as slp

        patch = self.patch
        # automata: methods on the class, free functions wherever bound
        patch(automata.Nfa, "step", "automata.step")
        patch(
            automata.Nfa,
            "determinize",
            "automata.determinize",
            lambda _args, dfa: self.count("automata.determinize.states_out", dfa.state_count),
        )
        patch(automata.Dfa, "minimize", "automata.minimize")
        for owner in (automata, residual):
            patch(owner, "naive_inclusion", "automata.naive_inclusion")
        for owner in (automata, residual, cli):
            patch(owner, "equivalence_counterexample", "automata.equivalence_counterexample")

        # fixpoint: kleene is bound by name in inclusion
        def kleene_done(_args, result):
            self.count("fixpoint.kleene.iterations", result.iterations)

        patch(inclusion, "kleene", "fixpoint.kleene", kleene_done)
        patch(inclusion, "ac_below", "fixpoint.ac_below")

        def insert_done(args, accepted):
            if accepted:
                self.count("fixpoint.antichain_insert.accepted")
            self.peak("fixpoint.antichain.peak_size", len(args[0]))

        patch(fixpoint.Antichain, "insert", "fixpoint.antichain_insert", insert_done)

        # quasiorder: inclusion reaches these through the module object
        patch(quasiorder, "ctx_compose", "quasiorder.ctx_compose")
        patch(quasiorder, "ctx_key", "quasiorder.ctx_key")
        for owner in (quasiorder, residual):
            patch(owner, "residual_inclusion_matrix", "quasiorder.residual_inclusion_matrix")

        for fn in ("fa_inc_antichain", "cfg_inc_antichain", "nfa_in_ocn"):
            patch(inclusion, fn, f"inclusion.{fn}")

        # slpsearch
        def compiled(_args, nfa):
            self.count("regex.nfa_states", nfa.state_count)

        for owner in (regex, cli):
            patch(owner, "compile_regex", "regex.compile", compiled)
            patch(owner, "homogeneous_dfa", "regex.compile", compiled)
        patch(counting.SearchEngine, "__init__", "counting.engine")

        def compressed(_args, grammar):
            self.count("slp.rules_out", grammar.rule_count - 1)
            self.count("slp.axiom_len", len(grammar.axiom))

        for owner in (slp, cli):
            patch(owner, "repair_compress", "slp.repair_compress", compressed)
            patch(owner, "decompress", "slp.decompress")

        # residual: res and the others look these up in the module globals
        for fn in ("principals", "is_composite", "build_H", "canonical", "check_dr_condition"):
            patch(residual, fn, f"residual.{fn}")
        for owner in (learn, cli):
            patch(owner, "nl_learn", "learn.nl_learn")

        # formats: the CLI binds parsers and dumpers by name
        for owner in (formats, cli):
            for fn in ("parse_nfa", "parse_cnf", "parse_ocn", "load_slp"):
                patch(owner, fn, "formats.parse")
            for fn in ("dump_nfa", "dump_slp_binary", "dump_slp_text"):
                patch(owner, fn, "formats.dump")
        patch(cli, "main", "cli.main")
