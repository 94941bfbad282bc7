"""Search on grammar-compressed text without decompression.

One bottom-up pass over the SLP computes, per grammar symbol, the set of
state pairs the automaton can connect across that symbol's expansion
(allowing a skipped prefix at initial states and a skipped suffix at final
states) together with a per-symbol counting tuple. Matching is decided
from the axiom's relation; matching lines are counted from the tuples and
can be reported by a lazy top-down walk that only expands subtrees
overlapping a matching line.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, NamedTuple

from ..automata import Nfa, bits
from .slp import Expander, Slp, id_to_rule

__all__ = [
    "CountingInfo",
    "combine_counting",
    "matching_line_total",
    "SearchEngine",
    "slp_match_exists",
    "count_lines",
    "report_lines",
]

NEWLINE = 0x0A


class CountingInfo(NamedTuple):
    """Per-symbol line bookkeeping: has a newline, first line matches, last
    line matches, and the number of closed matching lines."""

    newline: bool
    first: bool
    last: bool
    closed: int


def combine_counting(a: CountingInfo, b: CountingInfo, m: bool) -> CountingInfo:
    """Counting tuple of a concatenation whose boundary-crossing match flag
    is ``m``."""
    newline = a.newline or b.newline
    first = a.first if a.newline else (a.first or b.first or m)
    last = b.last if b.newline else (a.last or b.last or m)
    closed = a.closed + b.closed
    if a.newline and b.newline and (a.last or b.first or m):
        closed += 1
    return CountingInfo(newline, first, last, closed)


def matching_line_total(c: CountingInfo) -> int:
    """Number of matching lines of the expansion behind a counting tuple."""
    return c.closed + (1 if c.first else 0) + (1 if c.newline and c.last else 0)


@dataclass
class SearchStats:
    """Instrumentation for the complexity checks: ``compose_steps`` counts
    relation compositions (binary rules plus axiom folds) and
    ``inner_iters`` the state-pair triples visited inside them."""

    compose_steps: int = 0
    inner_iters: int = 0
    automaton_states: int = 0
    rules: int = 0


class SearchEngine:
    """Bottom-up relation/counting pass of one SLP against one automaton.

    The automaton must be free of epsilon transitions. For counting the
    automaton may not read the newline byte: lines are delimited by it and
    matches never cross them, while the implicit skip-loops at initial and
    final states do consume newlines.
    """

    def __init__(self, slp: Slp, nfa: Nfa):
        self.slp = slp
        self.nfa = nfa
        self.stats = SearchStats(
            automaton_states=nfa.state_count, rules=slp.rule_count
        )
        s = nfa.state_count
        self._marker = [[-1] * s for _ in range(s)]
        self._mark = 0
        self._term_rel: dict[int, list[tuple[int, int]]] = {}
        self._term_info: dict[int, CountingInfo] = {}
        self.rule_rel: list[list[tuple[int, int]]] = []
        self.rule_info: list[CountingInfo] = []
        self._run()

    # -- per-symbol access ----------------------------------------------

    def relation(self, sym: int) -> list[tuple[int, int]]:
        r = id_to_rule(sym)
        return self.rule_rel[r] if r >= 0 else self._terminal_rel(sym)

    def info(self, sym: int) -> CountingInfo:
        r = id_to_rule(sym)
        return self.rule_info[r] if r >= 0 else self._terminal_info(sym)

    def _terminal_rel(self, byte: int) -> list[tuple[int, int]]:
        rel = self._term_rel.get(byte)
        if rel is None:
            rel = []
            table = self.nfa._fwd.get(byte)
            if table is not None:
                for p in range(self.nfa.state_count):
                    for q in bits(table[p]):
                        rel.append((p, q))
            self._term_rel[byte] = rel
        return rel

    def _terminal_info(self, byte: int) -> CountingInfo:
        info = self._term_info.get(byte)
        if info is None:
            hit = bool(
                self.nfa.step(self.nfa.initial_mask, byte, True)
                & self.nfa.final_mask
            )
            info = CountingInfo(byte == NEWLINE, hit, hit, 0)
            self._term_info[byte] = info
        return info

    # -- the bottom-up pass ----------------------------------------------

    def _compose(
        self,
        rel_a: list[tuple[int, int]],
        info_a: CountingInfo,
        rel_b: list[tuple[int, int]],
        info_b: CountingInfo,
    ) -> tuple[list[tuple[int, int]], CountingInfo]:
        nfa = self.nfa
        self.stats.compose_steps += 1
        self._mark += 1
        mark = self._mark
        marker = self._marker
        # K rows: successors across the right operand, with the final-state
        # self-loop folded in
        rows: list[list[int]] = [[] for _ in range(nfa.state_count)]
        row_has: list[set[int]] = [set() for _ in range(nfa.state_count)]
        for p, q in rel_b:
            rows[p].append(q)
            row_has[p].add(q)
        for f in bits(nfa.final_mask):
            if f not in row_has[f]:
                rows[f].append(f)
        # left entries, with the initial-state self-loop folded in
        entries = list(rel_a)
        left_has = {pair for pair in rel_a}
        for i in bits(nfa.initial_mask):
            if (i, i) not in left_has:
                entries.append((i, i))
        out: list[tuple[int, int]] = []
        new_match = False
        imask = nfa.initial_mask
        fmask = nfa.final_mask
        inner = 0
        for q1, qm in entries:
            for q2 in rows[qm]:
                inner += 1
                if marker[q1][q2] != mark:
                    marker[q1][q2] = mark
                    out.append((q1, q2))
                if (
                    not new_match
                    and imask >> q1 & 1
                    and fmask >> q2 & 1
                    and not ((imask | fmask) >> qm & 1)
                ):
                    new_match = True
        self.stats.inner_iters += inner
        return out, combine_counting(info_a, info_b, new_match)

    def _run(self) -> None:
        for index, rule in enumerate(self.slp.rules):
            if index < self.slp.rule_count - 1:
                a, b = rule
                rel, info = self._compose(
                    self.relation(a), self.info(a), self.relation(b), self.info(b)
                )
            else:
                rel, info = self.relation(rule[0]), self.info(rule[0])
                for sym in rule[1:]:
                    rel, info = self._compose(
                        rel, info, self.relation(sym), self.info(sym)
                    )
            self.rule_rel.append(rel)
            self.rule_info.append(info)

    # -- results -----------------------------------------------------------

    def match_exists(self) -> bool:
        imask = self.nfa.initial_mask
        fmask = self.nfa.final_mask
        return any(
            imask >> p & 1 and fmask >> q & 1 for p, q in self.rule_rel[-1]
        )

    def line_count(self) -> int:
        return matching_line_total(self.rule_info[-1])

    # -- lazy reporting ------------------------------------------------------

    def _line_matches(self, segments: list[int]) -> bool:
        if not segments:
            return False
        rel = self.relation(segments[0])
        info = self.info(segments[0])
        for sym in segments[1:]:
            rel, info = self._compose(rel, info, self.relation(sym), self.info(sym))
        imask = self.nfa.initial_mask
        fmask = self.nfa.final_mask
        return any(imask >> p & 1 and fmask >> q & 1 for p, q in rel)

    def report(self) -> Iterator[tuple[int, bytes]]:
        """Matching lines in order as (line number, line bytes); subtrees
        without newlines stay unexpanded until their line is known to
        match. Matching lines are expanded by one ``Expander``, so a rule is
        walked once however many lines use it and deep rules need no
        recursion."""
        expander = Expander(self.slp)
        segments: list[int] = []
        line_no = 1

        def flush() -> bytes | None:
            if not segments or not self._line_matches(segments):
                return None
            start = len(expander.out)
            expander.append(segments)
            return bytes(expander.out[start:])

        stack: list[int] = list(reversed(self.slp.axiom))
        while stack:
            sym = stack.pop()
            r = id_to_rule(sym)
            if r < 0:
                if sym == NEWLINE:
                    line = flush()
                    if line is not None:
                        yield line_no, line
                    segments.clear()
                    line_no += 1
                else:
                    segments.append(sym)
            elif not self.rule_info[r].newline:
                segments.append(sym)
            else:
                a, b = self.slp.rules[r]
                stack.append(b)
                stack.append(a)
        line = flush()
        if line is not None:
            yield line_no, line


def _require_newline_free(nfa: Nfa) -> None:
    if NEWLINE in nfa.alphabet:
        raise ValueError("line counting needs a newline-free match automaton")


def slp_match_exists(p: Slp, n: Nfa) -> bool:
    """Does the decompressed text contain a factor accepted by ``n``?"""
    return SearchEngine(p, n).match_exists()


def count_lines(p: Slp, n: Nfa) -> int:
    """Number of newline-delimited lines of the decompressed text containing
    a factor accepted by ``n``."""
    _require_newline_free(n)
    return SearchEngine(p, n).line_count()


def report_lines(p: Slp, n: Nfa) -> Iterator[tuple[int, bytes]]:
    """The matching lines themselves, lazily, as (line number, bytes)."""
    _require_newline_free(n)
    return SearchEngine(p, n).report()
