"""Search on grammar-compressed text without decompression.

Compressed search is grammar inclusion on a grammar with exactly one
derivation. One bottom-up pass over the SLP computes, per binary rule, the
relation the automaton realizes across the rule's expansion, stored like
``quasiorder.ctx_key`` as one successor mask per state, with a skipped
prefix allowed at initial states and a skipped suffix at final states.
Every composition is the image of a state set across a relation. The axiom
and the lines found while reporting are folded as one state set, the
states reached from the initial states, because only those rows are ever
read. A counting tuple per symbol gives the number of matching lines, and
the lines are reported by a lazy top-down walk that only expands subtrees
overlapping a matching line.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, NamedTuple, Sequence

from ..automata import Nfa
from ..quasiorder import ctx_of_symbol
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
    """Instrumentation for the complexity checks. ``compose_steps`` counts
    compositions: one per binary rule, per axiom symbol after the first and
    per line segment after the first. ``inner_iters`` counts the state bits
    the image kernel visits, at most ``s`` per image, so a binary rule costs
    O(s^2) and a folded symbol O(s)."""

    compose_steps: int = 0
    inner_iters: int = 0
    automaton_states: int = 0
    rules: int = 0


class SearchEngine:
    """Bottom-up relation/counting pass of one SLP against one automaton.

    The automaton must be free of epsilon transitions. For counting the
    automaton may not read the newline byte: lines are delimited by it and
    matches never cross them, while the implicit skip-loops at initial and
    final states do consume newlines, and the automaton must reject the
    empty word.

    ``rule_rel`` holds the relation of each binary rule as a tuple of
    successor masks; the axiom is summarized by the set of states reached
    from the initial states across the whole text.
    """

    def __init__(self, slp: Slp, nfa: Nfa):
        self.slp = slp
        self.nfa = nfa
        self.stats = SearchStats(
            automaton_states=nfa.state_count, rules=slp.rule_count
        )
        self._imask = nfa.initial_mask
        self._fmask = nfa.final_mask
        # states a boundary-crossing match passes at the boundary
        self._middle = ((1 << nfa.state_count) - 1) & ~(self._imask | self._fmask)
        self._terminals: dict[int, tuple[tuple[int, ...], CountingInfo]] = {}
        self.rule_rel: list[tuple[int, ...]] = []
        self.rule_info: list[CountingInfo] = []
        self._run()

    # -- per-symbol access ----------------------------------------------

    def relation(self, sym: int) -> tuple[int, ...]:
        r = id_to_rule(sym)
        return self.rule_rel[r] if r >= 0 else self._terminal(sym)[0]

    def info(self, sym: int) -> CountingInfo:
        r = id_to_rule(sym)
        return self.rule_info[r] if r >= 0 else self._terminal(sym)[1]

    def _terminal(self, byte: int) -> tuple[tuple[int, ...], CountingInfo]:
        entry = self._terminals.get(byte)
        if entry is None:
            hit = bool(self.nfa.step(self._imask, byte, True) & self._fmask)
            info = CountingInfo(byte == NEWLINE, hit, hit, 0)
            entry = self._terminals[byte] = (ctx_of_symbol(self.nfa, byte), info)
        return entry

    # -- the image kernel --------------------------------------------------

    def _image(self, states: int, rel: tuple[int, ...]) -> int:
        """States reached from ``states`` across ``rel``, where final states
        may also stay put (the skip loop over a suffix)."""
        self.stats.inner_iters += states.bit_count()
        out = states & self._fmask
        while states:
            low = states & -states
            out |= rel[low.bit_length() - 1]
            states ^= low
        return out

    def _crosses(self, reached: int, rel: tuple[int, ...]) -> bool:
        """Does a match cross into ``rel`` from ``reached``, the states the
        left part reaches from the initial states, through a boundary state
        that is neither initial nor final?"""
        return bool(self._image(reached & self._middle, rel) & self._fmask)

    # -- the bottom-up pass ----------------------------------------------

    def _rule(self, a: int, b: int) -> tuple[tuple[int, ...], CountingInfo]:
        """Relation and counting tuple of the binary rule ``a b``: each row is
        the image across ``b`` of its row across ``a``, plus the state itself
        at an initial state (the skip loop over a prefix)."""
        self.stats.compose_steps += 1
        rel_a, rel_b = self.relation(a), self.relation(b)
        imask = self._imask
        rows = [row | ((1 << p) & imask) for p, row in enumerate(rel_a)]
        # a list first: tuple() of a generator reallocates as it grows
        rel = tuple([self._image(row, rel_b) if row else 0 for row in rows])
        crosses = self._crosses(self._image(imask, rel_a), rel_b)
        return rel, combine_counting(self.info(a), self.info(b), crosses)

    def _fold(self, symbols: Sequence[int]) -> tuple[int, CountingInfo]:
        """States reached from the initial states across the concatenation
        of ``symbols``, and its counting tuple."""
        reached = self._image(self._imask, self.relation(symbols[0]))
        info = self.info(symbols[0])
        for sym in symbols[1:]:
            self.stats.compose_steps += 1
            rel = self.relation(sym)
            info = combine_counting(info, self.info(sym), self._crosses(reached, rel))
            reached = self._image(reached | self._imask, rel)
        return reached, info

    def _run(self) -> None:
        for a, b in self.slp.rules[:-1]:
            rel, info = self._rule(a, b)
            self.rule_rel.append(rel)
            self.rule_info.append(info)
        self._reached, info = self._fold(self.slp.axiom)
        self.rule_info.append(info)

    # -- results -----------------------------------------------------------

    def match_exists(self) -> bool:
        return bool(self._reached & self._fmask)

    def line_count(self) -> int:
        return matching_line_total(self.rule_info[-1])

    # -- lazy reporting ------------------------------------------------------

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
            if not segments or not self._fold(segments)[0] & self._fmask:
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


def _require_line_automaton(nfa: Nfa) -> None:
    if NEWLINE in nfa.alphabet:
        raise ValueError("line counting needs a newline-free match automaton")
    if nfa.initial_mask & nfa.final_mask:
        raise ValueError("line counting needs an automaton rejecting the empty word")


def slp_match_exists(p: Slp, n: Nfa) -> bool:
    """Does the decompressed text contain a factor accepted by ``n``?"""
    return SearchEngine(p, n).match_exists()


def count_lines(p: Slp, n: Nfa) -> int:
    """Number of newline-delimited lines of the decompressed text containing
    a factor accepted by ``n``."""
    _require_line_automaton(n)
    return SearchEngine(p, n).line_count()


def report_lines(p: Slp, n: Nfa) -> Iterator[tuple[int, bytes]]:
    """The matching lines themselves, lazily, as (line number, bytes)."""
    _require_line_automaton(n)
    return SearchEngine(p, n).report()
