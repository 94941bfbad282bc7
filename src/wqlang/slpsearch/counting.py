"""Search on grammar-compressed text without decompression.

Compressed search is grammar inclusion on a grammar with exactly one
derivation, seen from the left: the engine walks the axiom left to right
and carries one context, the set of automaton states reached in the
current line. Before each byte the initial states join the context; a
context that meets the final states becomes ``MATCHED``; and a newline
closes the line, counting it when its context is ``MATCHED``, and starts
the next one. Each (symbol, entry context) is evaluated once, to its exit
context and the number of matching lines it closes, so the work is
proportional to the distinct pairs the walk meets, never to the text
length times the automaton size. Matching lines are reported by a second
walk through the same memo that expands only rules containing a newline.
This is the standard technique of computing over an SLP by memoizing per
rule and context (Lohrey, "Algorithmics on SLP-compressed strings: a
survey", 2012; Navarro, "Regular expression searching on compressed
text", J. Discrete Algorithms 2003).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Sequence

from ..automata import Nfa
from .slp import TERMINALS, Expander, Slp

__all__ = ["SearchEngine"]

NEWLINE = 0x0A

MATCHED = -1
"""The context of a line that already contains a match."""


@dataclass
class SearchStats:
    """Instrumentation for the complexity checks. ``compose_steps`` counts
    memo misses on rules, each the evaluation of a rule from an entry
    context not seen before, plus one per axiom symbol walked after the
    first; a walk of an n-byte text makes at most n of them. ``inner_iters``
    counts the state bits that terminal steps visit, at most ``s`` per
    distinct (byte, context) pair."""

    compose_steps: int = 0
    inner_iters: int = 0
    automaton_states: int = 0
    rules: int = 0


class SearchEngine:
    """Directed left-to-right walk of one SLP's axiom against one automaton.

    The automaton must be free of epsilon transitions. When it does not read
    the newline byte, newlines delimit lines and matches never cross them;
    counting and reporting lines also need it to reject the empty word.
    When it reads the newline byte, the newline is an ordinary symbol, a
    reached final state stays reached, and only ``match_exists`` is defined.

    The walk runs on construction. Contexts are state masks with the
    initial states added, or ``MATCHED``. ``evaluate`` memoizes each
    (symbol, entry context), terminals and rules in one table, as (exit
    context, closed matching lines); ``match_exists``, ``line_count`` and
    ``report`` read their answers from the walk and that table.
    """

    def __init__(self, slp: Slp, nfa: Nfa):
        self.slp = slp
        self.nfa = nfa
        self.stats = SearchStats(
            automaton_states=nfa.state_count, rules=slp.rule_count
        )
        # a newline closes the line only when the automaton cannot read it
        self._lines = NEWLINE not in nfa.alphabet
        self._start = self._context(0)
        self._memo: dict[tuple[int, int], tuple[int, int]] = {}
        self._exit, self._closed = self._walk(slp.axiom, self._start)

    # -- the walk ------------------------------------------------------------

    def _context(self, reached: int) -> int:
        """Context after reaching ``reached``: the initial states join it,
        and one that meets the final states is ``MATCHED``."""
        reached |= self.nfa.initial_mask
        return MATCHED if reached & self.nfa.final_mask else reached

    def _leaf(self, sym: int, ctx: int) -> tuple[int, int]:
        """Exit of a step that needs no descent: a terminal, or any symbol
        entered in ``MATCHED`` when newlines are ordinary symbols."""
        if sym == NEWLINE and self._lines:
            return self._start, int(ctx == MATCHED)
        if ctx == MATCHED:
            return MATCHED, 0
        self.stats.inner_iters += ctx.bit_count()
        return self._context(self.nfa.step(ctx, sym)), 0

    def evaluate(self, sym: int, ctx: int) -> tuple[int, int]:
        """Exit context and number of closed matching lines of ``sym``'s
        expansion entered in ``ctx``, memoized. A rule is its left child,
        then its right child from the left child's exit; pending rules wait
        on an explicit stack, so grammar depth is not bounded by the
        interpreter's recursion limit. ``sym`` must be a byte or a binary
        rule's id; the axiom and unknown ids raise ``ValueError``."""
        memo, rules, lines = self._memo, self.slp.rules, self._lines
        if not (0 <= sym < TERMINALS or TERMINALS < sym < TERMINALS + len(rules)):
            raise ValueError(f"symbol id {sym} is neither a byte nor a binary rule")
        # (rule, entry context, closed lines of its left child, or -1 while
        # the left child is still being evaluated)
        pending: list[tuple[int, int, int]] = []
        while True:
            hit = memo.get((sym, ctx))
            if hit is None:
                if sym > TERMINALS and (lines or ctx != MATCHED):
                    self.stats.compose_steps += 1
                    pending.append((sym, ctx, -1))
                    sym = rules[sym - TERMINALS - 1][0]
                    continue
                hit = memo[sym, ctx] = self._leaf(sym, ctx)
            out, closed = hit
            while pending:
                parent, entry, left = pending.pop()
                if left < 0:
                    pending.append((parent, entry, closed))
                    sym, ctx = rules[parent - TERMINALS - 1][1], out
                    break
                closed += left
                memo[parent, entry] = (out, closed)
            else:
                return out, closed

    def _walk(self, symbols: Sequence[int], ctx: int) -> tuple[int, int]:
        """``evaluate`` of the concatenation of ``symbols``."""
        self.stats.compose_steps += len(symbols) - 1
        memo, evaluate = self._memo, self.evaluate
        closed = 0
        for sym in symbols:
            hit = memo.get((sym, ctx))
            if hit is None:
                hit = evaluate(sym, ctx)
            ctx = hit[0]
            closed += hit[1]
        return ctx, closed

    def _newlines(self) -> list[bool]:
        """Whether each binary rule's expansion contains a newline, bottom-up."""
        has: list[bool] = []
        for a, b in self.slp.rules[:-1]:
            has.append(
                (has[a - TERMINALS - 1] if a > TERMINALS else a == NEWLINE)
                or (has[b - TERMINALS - 1] if b > TERMINALS else b == NEWLINE)
            )
        return has

    # -- results -----------------------------------------------------------

    def match_exists(self) -> bool:
        return self._exit == MATCHED or self._closed > 0

    def line_count(self) -> int:
        _require_line_automaton(self.nfa)
        return self._closed + (self._exit == MATCHED)

    def report(self) -> Iterator[tuple[int, bytes]]:
        """Matching lines in order as (line number, line bytes), lazily.

        A second walk through the memo expands only rules that contain a
        newline; the others stay segments of their line, whose context
        says whether it matches. Matching lines are expanded by one
        ``Expander``, so a rule is walked once however many lines use it
        and deep rules need no recursion."""
        _require_line_automaton(self.nfa)
        return self._matching_lines()

    def _matching_lines(self) -> Iterator[tuple[int, bytes]]:
        newline = self._newlines()
        rules, memo, evaluate = self.slp.rules, self._memo, self.evaluate
        expander = Expander(self.slp)
        segments: list[int] = []

        def text() -> bytes:
            start = len(expander.out)
            expander.append(segments)
            return bytes(expander.out[start:])

        line_no, ctx = 1, self._start
        stack = list(reversed(self.slp.axiom))
        while stack:
            sym = stack.pop()
            r = sym - TERMINALS - 1
            if r >= 0 and newline[r]:
                a, b = rules[r]
                stack.append(b)
                stack.append(a)
            elif sym == NEWLINE:
                if ctx == MATCHED:
                    yield line_no, text()
                segments.clear()
                line_no += 1
                ctx = self._start
            else:
                segments.append(sym)
                if ctx != MATCHED:
                    hit = memo.get((sym, ctx))
                    ctx = (hit if hit is not None else evaluate(sym, ctx))[0]
        if ctx == MATCHED:
            yield line_no, text()


def _require_line_automaton(nfa: Nfa) -> None:
    if NEWLINE in nfa.alphabet:
        raise ValueError("line counting needs a newline-free match automaton")
    if nfa.initial_mask & nfa.final_mask:
        raise ValueError("line counting needs an automaton rejecting the empty word")
