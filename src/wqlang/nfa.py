"""Nondeterministic finite automata over byte symbols, with state sets as
bitmasks.

States are dense integer indices and state sets are int bitmasks, so the
hot operation of every antichain algorithm (subset tests between state
sets) compiles down to bitwise arithmetic. Symbols are bytes, 0..255.

This module holds ``Nfa`` and the two mask helpers alone, so a program
that only builds and runs automata, such as the regex compiler and the
counting engine of ``slpsearch``, compiles nothing else. What is built on
them (``Dfa``, the subset construction's cap, the product walks, grammars
and one-counter nets) lives in ``automata``, which re-exports these names.
``Nfa.determinize`` reads ``Dfa`` and the cap off ``automata`` when it is
called, so the cap has one binding.
"""

from __future__ import annotations

import sys
from importlib import import_module
from typing import TYPE_CHECKING, Any, Iterable, Iterator, Mapping

if TYPE_CHECKING:
    from .automata import Dfa

__all__ = ["Nfa", "bits", "mask_of"]

# the module ``determinize`` reads ``Dfa`` and the cap off, in
# ``sys.modules`` once loaded: a ``from . import`` there runs the import
# system's package path on every call
_AUTOMATA = f"{__package__}.automata"


def bits(mask: int) -> Iterator[int]:
    """Indices of the set bits of ``mask``, ascending."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def mask_of(states: Iterable[int]) -> int:
    m = 0
    for q in states:
        m |= 1 << q
    return m


class Nfa:
    """Nondeterministic finite automaton over byte symbols.

    Immutable after construction. It holds ``state_count``, one successor
    table per symbol (``_fwd[sym][p]`` is the mask of the states p reaches
    on sym; only symbols with a transition have a table, and they make up
    ``alphabet``) and the bitmasks ``initial_mask``/``final_mask``. These
    tables are the only transition format; a ``Dfa`` has them too.
    ``with_initial``, ``with_final`` and ``reverse`` share their source's
    tables and check only the new masks; ``reverse`` swaps the successor
    and predecessor tables, and is how forward-only ``step`` and ``run``
    reach predecessors. The predecessor tables and the views
    ``transitions`` (``(state, symbol)`` to a frozenset of successors) and
    ``_triples`` are built on first use and shared by every automaton over
    the same tables; ``initial``/``final`` are frozensets of the masks.
    """

    __slots__ = ("state_count", "alphabet", "initial_mask", "final_mask", "_fwd", "_views")

    # true on ``Dfa``, so ``_derived`` tells one apart without importing it
    _deterministic = False

    def __init__(
        self,
        state_count: int,
        transitions: Iterable[tuple[int, int, int]],
        initial: Iterable[int],
        final: Iterable[int],
    ):
        if state_count < 0:
            raise ValueError("state_count must be nonnegative")
        rows: dict[int, list[int]] = {}
        for p, sym, q in transitions:
            if not (0 <= p < state_count and 0 <= q < state_count):
                raise ValueError(f"transition ({p},{sym},{q}) out of range")
            if not (0 <= sym <= 255):
                raise ValueError(f"symbol {sym} is not a byte")
            row = rows.get(sym)
            if row is None:
                row = rows[sym] = [0] * state_count
            row[p] |= 1 << q
        self.state_count = state_count
        self._fwd = {sym: tuple(rows[sym]) for sym in sorted(rows)}
        self.alphabet = frozenset(self._fwd)
        self.initial_mask = self._state_mask(initial)
        self.final_mask = self._state_mask(final)
        self._views: dict[str, Any] = {}

    @classmethod
    def _of_tables(
        cls, state_count: int, fwd: dict[int, tuple[int, ...]], initial_mask: int, final_mask: int
    ) -> "Nfa":
        """Unchecked constructor over finished successor tables: ``fwd``
        holds one table per symbol, by ascending symbol, each with a
        transition."""
        out = object.__new__(cls)
        out.state_count = state_count
        out._fwd = fwd
        out.alphabet = frozenset(fwd)
        out.initial_mask = initial_mask
        out.final_mask = final_mask
        out._views = {}
        return out

    def _state_mask(self, states: Iterable[int]) -> int:
        m = 0
        for q in states:
            if not (0 <= q < self.state_count):
                raise ValueError(f"state {q} out of range")
            m |= 1 << q
        return m

    def _derived(self, initial_mask: int, final_mask: int) -> "Nfa":
        """An automaton over this one's tables with new masks: a DFA when
        this is a DFA and one state is initial, a plain NFA otherwise."""
        one_initial = initial_mask and not initial_mask & (initial_mask - 1)
        deterministic = self._deterministic and one_initial
        out = object.__new__(type(self) if deterministic else Nfa)
        out.state_count = self.state_count
        out._fwd = self._fwd
        out.alphabet = self.alphabet
        out.initial_mask = initial_mask
        out.final_mask = final_mask
        out._views = self._views
        if deterministic:
            out.source_subsets = None
        return out

    # -- views built on first use -----------------------------------------

    @property
    def transitions(self) -> Mapping[tuple[int, int], frozenset[int]]:
        view = self._views.get("transitions")
        if view is None:
            view = self._views["transitions"] = {
                (p, sym): frozenset(bits(succ))
                for sym, row in self._fwd.items()
                for p, succ in enumerate(row)
                if succ
            }
        return view

    @property
    def _triples(self) -> frozenset[tuple[int, int, int]]:
        view = self._views.get("triples")
        if view is None:
            view = self._views["triples"] = frozenset(
                (p, sym, q) for (p, sym), qs in self.transitions.items() for q in qs
            )
        return view

    @property
    def initial(self) -> frozenset[int]:
        return frozenset(bits(self.initial_mask))

    @property
    def final(self) -> frozenset[int]:
        return frozenset(bits(self.final_mask))

    # -- structural value semantics ------------------------------------

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Nfa):
            return NotImplemented
        return (
            self.state_count == other.state_count
            and self.initial_mask == other.initial_mask
            and self.final_mask == other.final_mask
            and self._fwd == other._fwd
        )

    def __hash__(self) -> int:
        return hash(
            (self.state_count, self.initial_mask, self.final_mask, tuple(sorted(self._fwd.items())))
        )

    def __repr__(self) -> str:
        trans = sum(succ.bit_count() for row in self._fwd.values() for succ in row)
        return (
            f"{type(self).__name__}(states={self.state_count}, "
            f"trans={trans}, I={sorted(self.initial)}, "
            f"F={sorted(self.final)})"
        )

    # -- basic operations ----------------------------------------------

    def step(self, s: int, sym: int) -> int:
        """One-symbol successor set of the bitmask ``s``.

        A symbol outside the alphabet simply yields the empty set.
        """
        table = self._fwd.get(sym)
        if table is None:
            return 0
        out = 0
        while s:
            low = s & -s
            out |= table[low.bit_length() - 1]
            s ^= low
        return out

    def run(self, word: bytes) -> int:
        """post_word of the initial set; the empty word returns the initial
        mask. The pre_word of the final set is ``reverse().run(word[::-1])``.
        Steps the successor tables inline and stops at the empty set."""
        s = self.initial_mask
        fwd = self._fwd
        for sym in word:
            if not s:
                break
            table = fwd.get(sym)
            if table is None:
                return 0
            t = 0
            while s:
                low = s & -s
                t |= table[low.bit_length() - 1]
                s ^= low
            s = t
        return s

    def member(self, word: bytes) -> bool:
        return bool(self.run(word) & self.final_mask)

    def reverse(self) -> "Nfa":
        """The reversed automaton: initials and finals swap, and its
        successor tables are this one's predecessor tables (``bwd[sym][q]``
        is the mask of the states that reach q on sym)."""
        bwd = self._views.get("bwd")
        if bwd is None:
            bwd = {}
            for sym, row in self._fwd.items():
                pre = [0] * self.state_count
                for p, succ in enumerate(row):
                    for q in bits(succ):
                        pre[q] |= 1 << p
                bwd[sym] = tuple(pre)
            self._views["bwd"] = bwd
        out = Nfa._of_tables(self.state_count, bwd, self.final_mask, self.initial_mask)
        out._views["bwd"] = self._fwd
        return out

    def with_initial(self, initial: Iterable[int]) -> "Nfa":
        return self._derived(self._state_mask(initial), self.final_mask)

    def with_final(self, final: Iterable[int]) -> "Nfa":
        return self._derived(self.initial_mask, self._state_mask(final))

    def determinize(self) -> "Dfa":
        """Reachable-subset construction.

        The result is complete over this automaton's alphabet (``complete``
        extends it to more symbols); the empty subset is materialized when
        reachable. Each output state remembers its originating subset in
        ``source_subsets``, which residualization comparisons rely on.
        Raises ``DeterminizationCap`` beyond ``MAX_DFA_STATES`` subsets.
        """
        automata = sys.modules.get(_AUTOMATA) or import_module(_AUTOMATA)
        cap = automata.MAX_DFA_STATES
        syms = sorted(self.alphabet)
        tables = [self._fwd[sym] for sym in syms]
        start = self.initial_mask
        index = {start: 0}
        order = [start]
        rows: list[list[int]] = [[] for _ in syms]
        i = 0
        while i < len(order):
            m = order[i]
            for table, row in zip(tables, rows):
                t = 0
                s = m
                while s:
                    low = s & -s
                    t |= table[low.bit_length() - 1]
                    s ^= low
                j = index.get(t)
                if j is None:
                    j = len(order)
                    if j == cap:
                        raise automata.DeterminizationCap(
                            f"determinization needs more than {cap} states"
                        )
                    index[t] = j
                    order.append(t)
                row.append(1 << j)
            i += 1
        final = mask_of(i for i, m in enumerate(order) if m & self.final_mask)
        fwd = {sym: tuple(row) for sym, row in zip(syms, rows)}
        out = automata.Dfa._of_tables(len(order), fwd, 1, final)
        out.source_subsets = tuple(order)
        return out
