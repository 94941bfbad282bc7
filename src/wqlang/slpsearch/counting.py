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
length times the automaton size. Contexts are interned: each distinct one
gets a dense id, and a (symbol, context) pair is the single int key
``sym + id * width``, with ``width`` above every symbol id, so no lookup
builds a tuple. Matching lines are reported by a second walk through the
same memo that expands only rules containing a newline.
This is the standard technique of computing over an SLP by memoizing per
rule and context (Lohrey, "Algorithmics on SLP-compressed strings: a
survey", 2012; Navarro, "Regular expression searching on compressed
text", J. Discrete Algorithms 2003).

The engine's counters, ``SearchStats``, are a plain slotted class, so
importing the module loads no ``dataclasses``.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Iterator, Sequence

from .slp import TERMINALS, Expander, Slp

if TYPE_CHECKING:
    from ..nfa import Nfa

__all__ = ["SearchEngine"]

NEWLINE = 0x0A

MATCHED = -1
"""The context of a line that already contains a match."""


class SearchStats:
    """Instrumentation for the complexity checks. ``compose_steps`` counts
    memo misses on rules, each the evaluation of a rule from an entry
    context not seen before, plus one per axiom symbol walked after the
    first; a walk of an n-byte text makes at most n of them. ``inner_iters``
    counts the state bits that terminal steps visit, at most ``s`` per
    distinct (byte, context) pair."""

    __slots__ = ("compose_steps", "inner_iters", "automaton_states", "rules")

    def __init__(self, automaton_states: int, rules: int):
        self.compose_steps = 0
        self.inner_iters = 0
        self.automaton_states = automaton_states
        self.rules = rules


class SearchEngine:
    """Directed left-to-right walk of one SLP's axiom against one automaton.

    The automaton must be free of epsilon transitions. When it does not read
    the newline byte, newlines delimit lines and matches never cross them;
    counting and reporting lines also need it to reject the empty word.
    When it reads the newline byte, the newline is an ordinary symbol, a
    reached final state stays reached, and only ``match_exists`` is defined.

    The walk runs on construction. Contexts are state masks with the
    initial states added, or ``MATCHED``. Each distinct context gets a
    dense id the first time it appears (``MATCHED`` is id 0) and is keyed
    by its base, ``id * width``, where ``width`` exceeds every symbol id.
    A (symbol, context) pair is then the single int ``sym + base``, and the
    memo maps it to (exit base, closed matching lines), terminals and rules
    in one table. The public ``evaluate`` takes and returns raw contexts;
    ``match_exists``, ``line_count`` and ``report`` read their answers from
    the walk and the memo.
    """

    def __init__(self, slp: Slp, nfa: Nfa):
        self.slp = slp
        self.nfa = nfa
        self.stats = SearchStats(
            automaton_states=nfa.state_count, rules=slp.rule_count
        )
        # a newline closes the line only when the automaton cannot read it
        self._lines = NEWLINE not in nfa.alphabet
        self._width = TERMINALS + 1 + len(slp.rules)  # above every symbol id
        self._bases: dict[int, int] = {}  # context -> base
        self._contexts: list[int] = []  # id -> context
        self._intern(MATCHED)  # base 0
        self._start = self._intern(self._context(0))
        self._memo: dict[int, tuple[int, int]] = {}
        self._exit, self._closed = self._walk(slp.axiom, self._start)

    # -- the walk ------------------------------------------------------------

    def _context(self, reached: int) -> int:
        """Context after reaching ``reached``: the initial states join it,
        and one that meets the final states is ``MATCHED``."""
        reached |= self.nfa.initial_mask
        return MATCHED if reached & self.nfa.final_mask else reached

    def _intern(self, ctx: int) -> int:
        """Base of ``ctx``, giving it the next id on first sight."""
        base = self._bases.get(ctx)
        if base is None:
            base = self._bases[ctx] = len(self._contexts) * self._width
            self._contexts.append(ctx)
        return base

    def _leaf(self, sym: int, base: int) -> tuple[int, int]:
        """Exit of a step that needs no descent: a terminal, or any symbol
        entered in ``MATCHED`` (base 0) when newlines are ordinary symbols."""
        if sym == NEWLINE and self._lines:
            return self._start, int(not base)
        if not base:
            return 0, 0
        ctx = self._contexts[base // self._width]
        self.stats.inner_iters += ctx.bit_count()
        return self._intern(self._context(self.nfa.step(ctx, sym))), 0

    def evaluate(self, sym: int, ctx: int) -> tuple[int, int]:
        """Exit context and number of closed matching lines of ``sym``'s
        expansion entered in ``ctx``, memoized. ``sym`` must be a byte or a
        binary rule's id; the axiom and unknown ids raise ``ValueError``."""
        if not (0 <= sym < TERMINALS or TERMINALS < sym < TERMINALS + len(self.slp.rules)):
            raise ValueError(f"symbol id {sym} is neither a byte nor a binary rule")
        base = self._intern(ctx)
        hit = self._memo.get(sym + base)
        out, closed = hit if hit is not None else self._evaluate(sym, base)
        return self._contexts[out // self._width], closed

    def _evaluate(self, sym: int, base: int) -> tuple[int, int]:
        """``evaluate`` on bases, for a pair not yet in the memo. A rule is
        its left child, then its right child from the left child's exit;
        a child already in the memo is read from it, and a rule whose
        children are both there is stored at once. Rules waiting on a child
        wait on an explicit stack, so grammar depth is not bounded by the
        interpreter's recursion limit."""
        memo, rules, lines, leaf = self._memo, self.slp.rules, self._lines, self._leaf
        stats = self.stats
        # (rule key, closed lines of its left child or -1 while the left
        # child is evaluated, right child)
        pending: list[tuple[int, int, int]] = []
        while True:
            # (sym, base) is not in the memo
            if sym > TERMINALS and (lines or base):
                stats.compose_steps += 1
                a, b = rules[sym - TERMINALS - 1]
                hit = memo.get(a + base)
                if hit is None:
                    pending.append((sym + base, -1, b))
                    sym = a
                    continue
                mid, left = hit
                hit = memo.get(b + mid)
                if hit is None:
                    pending.append((sym + base, left, b))
                    sym, base = b, mid
                    continue
                out, closed = hit
                closed += left
                memo[sym + base] = (out, closed)
            else:
                out, closed = memo[sym + base] = leaf(sym, base)
            while pending:
                key, left, b = pending.pop()
                if left < 0:
                    # the left child just finished; now the right one
                    hit = memo.get(b + out)
                    if hit is None:
                        pending.append((key, closed, b))
                        sym, base = b, out
                        break
                    left = closed
                    out, closed = hit
                closed += left
                memo[key] = (out, closed)
            else:
                return out, closed

    def _walk(self, symbols: Sequence[int], base: int) -> tuple[int, int]:
        """``_evaluate`` of the concatenation of ``symbols``."""
        self.stats.compose_steps += len(symbols) - 1
        memo, evaluate = self._memo, self._evaluate
        closed = 0
        for sym in symbols:
            hit = memo.get(sym + base)
            if hit is None:
                hit = evaluate(sym, base)
            base = hit[0]
            closed += hit[1]
        return base, closed

    def _newlines(self) -> list[bool]:
        """Whether each symbol's expansion contains a newline, indexed by
        symbol id; rules bottom-up."""
        has = [False] * (TERMINALS + 1)
        has[NEWLINE] = True
        append = has.append
        for a, b in self.slp.rules[:-1]:
            append(has[a] or has[b])
        return has

    # -- results -----------------------------------------------------------

    def match_exists(self) -> bool:
        return not self._exit or self._closed > 0

    def line_count(self) -> int:
        _require_line_automaton(self.nfa)
        return self._closed + (not self._exit)

    def report(self) -> Iterator[tuple[int, bytes]]:
        """Matching lines in order as (line number, line bytes), lazily.

        A second walk through the memo expands only rules that contain a
        newline; the others stay segments of their line, whose context
        says whether it matches. Matching lines are expanded by one
        ``Expander``, so a rule is walked once however many lines use it
        and deep rules need no recursion. A walk that closed no matching
        line reports nothing without either."""
        if not self.line_count():
            return iter(())
        return self._matching_lines()

    def _matching_lines(self) -> Iterator[tuple[int, bytes]]:
        newline = self._newlines()
        rules, memo = self.slp.rules, self._memo
        expander = Expander(self.slp)
        segments: list[int] = []

        def text() -> bytes:
            start = len(expander.out)
            expander.append(segments)
            return bytes(expander.out[start:])

        line_no, base = 1, self._start
        stack: list[int] = []  # right children of expanded newline rules
        for sym in self.slp.axiom:
            while True:
                if sym > TERMINALS and newline[sym]:
                    sym, b = rules[sym - TERMINALS - 1]
                    stack.append(b)
                    continue
                if sym == NEWLINE:
                    if not base:
                        yield line_no, text()
                    segments.clear()
                    line_no += 1
                    base = self._start
                else:
                    segments.append(sym)
                    if base:
                        # the constructor walk stored this pair: it entered
                        # every rule expanded here in the same context
                        base = memo[sym + base][0]
                if not stack:
                    break
                sym = stack.pop()
        if not base:
            yield line_no, text()


def _require_line_automaton(nfa: Nfa) -> None:
    if NEWLINE in nfa.alphabet:
        raise ValueError("line counting needs a newline-free match automaton")
    if nfa.initial_mask & nfa.final_mask:
        raise ValueError("line counting needs an automaton rejecting the empty word")
