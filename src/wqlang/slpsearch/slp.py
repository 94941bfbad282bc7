"""Straight-line programs: the compressed-text representation.

Symbol ids follow the wire format: 0..255 are terminal bytes and rule i
(1-based) is 256+i. All rules except the last are binary; the last rule is
the axiom and may have any arity >= 2.
"""

from __future__ import annotations

from typing import Iterable, Sequence

__all__ = ["Slp", "Expander", "repair_compress", "decompress", "DecompressionCap"]

TERMINALS = 256


def rule_id(index: int) -> int:
    """Wire id of the 0-based rule ``index``."""
    return TERMINALS + 1 + index


class Slp:
    """A grammar with exactly one derivation: the compressed text."""

    __slots__ = ("rules",)

    def __init__(self, rules: Iterable[Sequence[int]]):
        self.rules: tuple[tuple[int, ...], ...] = tuple(map(tuple, rules))
        if not self.rules:
            raise ValueError("an SLP needs at least an axiom rule")
        last = len(self.rules) - 1
        for i, rule in enumerate(self.rules):
            if len(rule) < 2:
                raise ValueError(f"rule {i + 1} has arity {len(rule)} < 2")
            if i != last and len(rule) != 2:
                raise ValueError(f"non-axiom rule {i + 1} must be binary")
            undefined = TERMINALS + 1 + i  # the wire id of rule i + 1 itself
            for sym in rule:
                if sym == TERMINALS or sym < 0:
                    raise ValueError(f"invalid symbol id {sym}")
                if sym >= undefined:
                    raise ValueError(
                        f"rule {i + 1} references rule {sym - TERMINALS}, which is not earlier"
                    )

    @property
    def axiom(self) -> tuple[int, ...]:
        return self.rules[-1]

    @property
    def rule_count(self) -> int:
        return len(self.rules)

    def symbol_lengths(self) -> list[int]:
        """Expansion length of each rule, bottom-up."""
        lens: list[int] = []
        append = lens.append
        for a, b in self.rules[:-1]:
            append(
                (lens[a - TERMINALS - 1] if a > TERMINALS else 1)
                + (lens[b - TERMINALS - 1] if b > TERMINALS else 1)
            )
        append(sum(lens[sym - TERMINALS - 1] if sym > TERMINALS else 1 for sym in self.axiom))
        return lens

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Slp):
            return NotImplemented
        return self.rules == other.rules

    def __hash__(self) -> int:
        return hash(self.rules)

    def __repr__(self) -> str:
        return f"Slp(rules={self.rule_count}, axiom_arity={len(self.axiom)})"


class DecompressionCap(RuntimeError):
    """The expansion would exceed the configured output limit."""


class Expander:
    """Appends expansions of SLP symbols to one growing buffer, ``out``.

    The walk keeps an explicit stack, so grammar depth is not bounded by
    the interpreter's recursion limit. The first expansion of a rule
    records where it starts in ``out``; every later use copies those
    ``lengths[rule]`` bytes. Time and memory are O(output + rules).
    """

    __slots__ = ("rules", "lengths", "out", "_starts")

    def __init__(self, p: Slp):
        self.rules = p.rules
        self.lengths = p.symbol_lengths()
        self.out = bytearray()
        self._starts = [-1] * p.rule_count

    def append(self, symbols: Sequence[int]) -> None:
        out, rules, lengths, starts = self.out, self.rules, self.lengths, self._starts
        stack = list(reversed(symbols))
        pop, push = stack.pop, stack.append
        while stack:
            sym = pop()
            if sym < TERMINALS:
                out.append(sym)
                continue
            r = sym - TERMINALS - 1
            start = starts[r]
            if start >= 0:
                out += out[start : start + lengths[r]]
            else:
                # the rule's subtree is popped before anything below it on
                # the stack, so later uses find its expansion complete
                starts[r] = len(out)
                a, b = rules[r]
                push(b)
                push(a)


def decompress(p: Slp, cap: int = 1 << 26) -> bytes:
    """The unique word the SLP generates.

    Expansion sizes are computed first, so an over-``cap`` output is refused
    before any byte is materialized. The expansion itself is one
    ``Expander`` walk: no recursion, O(output + rules) time and memory.
    """
    expander = Expander(p)
    total = expander.lengths[-1]
    if total > cap:
        raise DecompressionCap(f"expansion is {total} bytes, cap is {cap}")
    expander.append(p.axiom)
    return bytes(expander.out)


def repair_compress(text: bytes) -> Slp:
    """Grammar compression by repeated most-frequent-pair substitution.

    Each round replaces every non-overlapping occurrence of the currently
    most frequent adjacent pair (ties broken by smallest pair) with a fresh
    rule, until no pair occurs twice; what remains becomes the axiom. A run
    of ``L`` equal symbols ``c`` counts ``L // 2`` occurrences of ``(c, c)``
    and is replaced from its left end.

    This is Larsson and Moffat's RePair ("Off-line dictionary-based
    compression", DCC 1999 / Proc. IEEE 2000): the sequence is a doubly
    linked list over the original positions, each pair seen twice keeps an
    exact count and a list of its occurrences, and a heap keyed on (count,
    pair) picks the next pair. A round touches only the chosen pair's
    occurrences and their neighbours: it lowers the count of each older
    pair that loses an occurrence in place, dropping the pair once it falls
    below two, and gathers the positions of the pairs it creates in one
    table, of which it keeps those seen twice. An n-byte text takes
    O(n log n) time and O(n) memory, against O(n) per round for rescanning
    the sequence. The list lives in plain Python lists, which trade memory
    for speed: a 100 KB log peaks at about 137 bytes per input byte.
    """
    if len(text) < 2:
        raise ValueError("need at least two bytes to compress")
    # imported here: the compressor's ``array`` extension and patterns are
    # loaded only by the programs that compress
    from ._repair import RePair

    return RePair(text).run()
