"""Core finite-state machinery: deterministic automata, the subset
construction and its cap, product walks, grammars, one-counter nets.

``Nfa``, ``bits`` and ``mask_of`` are defined in ``nfa`` and re-exported
here, so code that needs only to build and run automata loads that module
alone. State sets are int bitmasks over dense state indices; symbols are
bytes, 0..255.
"""

from __future__ import annotations

import heapq
from collections import defaultdict
from itertools import repeat
from operator import lshift, or_
from typing import Callable, Iterable, Mapping, NamedTuple, Sequence

from .nfa import Nfa, bits, mask_of

__all__ = [
    "Nfa",
    "Dfa",
    "CnfGrammar",
    "Ocn",
    "Verdict",
    "MAX_DFA_STATES",
    "DeterminizationCap",
    "bits",
    "mask_of",
    "naive_inclusion",
    "equivalence_counterexample",
    "cfg_in_regular_oracle",
]


class Verdict(NamedTuple):
    """Outcome of an inclusion check.

    ``witness`` is only present when ``included`` is false and the deciding
    algorithm carries representative words; it is then a word of the left
    language that the right language rejects.
    """

    included: bool
    witness: bytes | None = None


MAX_DFA_STATES = 1 << 16

# The longest packed row, in bits, that the product walk builds: one int per
# mask and side holding its successors on every symbol, at |alphabet| times
# the two sides' state counts. Shifting such a row and building it per state
# grow with the square of the alphabet, so a longer row (129 states between
# both sides on two symbols, 33 on eight) is walked per symbol.
_PACKED_BITS = 256


class DeterminizationCap(RuntimeError):
    """The subset construction would need more than ``MAX_DFA_STATES``
    states."""


def _check_symbols(syms: list[int]) -> None:
    """Reject a sorted symbol list that holds a non-byte."""
    if syms and not (0 <= syms[0] and syms[-1] <= 255):
        bad = syms[0] if syms[0] < 0 else syms[-1]
        raise ValueError(f"symbol {bad} is not a byte")


class Dfa(Nfa):
    """Deterministic automaton: one initial state, at most one successor
    per (state, symbol). May be partial; ``complete`` adds a sink.

    Its transitions are the ``Nfa`` successor tables, in which each entry
    ``_fwd[sym][p]`` is ``1 << q`` for the state q that p moves to, or 0
    when the transition is missing; ``dnext`` reads q back.
    ``with_initial`` with one state and ``with_final`` return a ``Dfa``
    over the same tables; ``with_initial`` with any other number of states
    returns a plain ``Nfa``.
    """

    __slots__ = ("source_subsets",)

    _deterministic = True

    def __init__(self, state_count, transitions, initial, final, source_subsets=None):
        super().__init__(state_count, transitions, initial, final)
        m = self.initial_mask
        if not m or m & (m - 1):
            raise ValueError("a DFA has exactly one initial state")
        for sym, row in self._fwd.items():
            for p, targets in enumerate(row):
                if targets & (targets - 1):
                    raise ValueError(f"nondeterministic on state {p}, symbol {sym}")
        self.source_subsets = source_subsets

    @property
    def initial_state(self) -> int:
        return self.initial_mask.bit_length() - 1

    def dnext(self, p: int, sym: int) -> int | None:
        row = self._fwd.get(sym)
        if row is None or not row[p]:
            return None
        return row[p].bit_length() - 1

    def complete(self, symbols: Iterable[int] | None = None) -> "Dfa":
        """Total transition function over ``symbols``, adding a sink state
        only when some transition is actually missing."""
        syms = sorted(self.alphabet if symbols is None else symbols)
        fwd = self._fwd
        if all(sym in fwd and all(fwd[sym]) for sym in syms):
            return self
        _check_symbols(syms)
        sink = 1 << self.state_count
        missing = (0,) * self.state_count
        wanted = set(syms)
        tables = {}
        for sym in sorted(fwd.keys() | wanted):
            row = fwd.get(sym, missing)
            if sym in wanted:
                tables[sym] = tuple(t or sink for t in row) + (sink,)
            else:
                tables[sym] = row + (0,)
        out = Dfa._of_tables(self.state_count + 1, tables, self.initial_mask, self.final_mask)
        out.source_subsets = None
        return out

    def minimize(self) -> "Dfa":
        """Unique minimal complete DFA of the language, canonically numbered
        by breadth-first discovery so equal languages give equal objects:
        ``determinize`` of the quotient by Moore refinement over every state
        of the completed DFA, which drops the unreachable classes."""
        syms = sorted(self.alphabet)
        d = self.complete(syms)
        # each state's successor per symbol, as a state number
        rows = [[t.bit_length() - 1 for t in d._fwd[sym]] for sym in syms]
        # Moore partition refinement: each round refines the classes, so a
        # round that keeps their number is stable
        cls = [d.final_mask >> p & 1 for p in range(d.state_count)]
        count = len(set(cls))
        while True:
            renum: dict[tuple, int] = {}
            cls = [
                renum.setdefault((c, *[cls[row[p]] for row in rows]), len(renum))
                for p, c in enumerate(cls)
            ]
            if len(renum) == count:
                break
            count = len(renum)
        # classes are numbered by first member, so rep lists them in order
        rep: dict[int, int] = {}
        for p, c in enumerate(cls):
            rep.setdefault(c, p)
        final = mask_of(c for c, p in rep.items() if d.final_mask >> p & 1)
        fwd = {sym: tuple(1 << cls[row[p]] for p in rep.values()) for sym, row in zip(syms, rows)}
        quotient = Nfa._of_tables(count, fwd, 1 << cls[d.initial_state], final)
        out = quotient.determinize()
        out.source_subsets = None
        return out


def _check_cap(memo: dict) -> None:
    """Raise ``DeterminizationCap`` when a memo of stepped masks is full:
    the next mask would be number ``MAX_DFA_STATES + 1``."""
    if len(memo) >= MAX_DFA_STATES:
        raise DeterminizationCap(f"determinization needs more than {MAX_DFA_STATES} states")


def subset_successors(n: Nfa, syms: list[int]) -> Callable[[int], tuple[int, ...]]:
    """``successors(mask)``: the masks ``n`` steps ``mask`` to, one per
    symbol of ``syms``, computed the first time a mask is asked for and
    kept in a memo. Raises ``DeterminizationCap`` when the memo would hold
    more than ``MAX_DFA_STATES`` masks, the bound of a subset
    construction."""
    missing = (0,) * n.state_count
    tables = [n._fwd.get(sym, missing) for sym in syms]
    memo: dict[int, tuple[int, ...]] = {}

    def successors(mask: int) -> tuple[int, ...]:
        out = memo.get(mask)
        if out is None:
            _check_cap(memo)
            row = []
            for table in tables:
                t = 0
                s = mask
                while s:
                    low = s & -s
                    t |= table[low.bit_length() - 1]
                    s ^= low
                row.append(t)
            out = memo[mask] = tuple(row)
        return out

    return successors


def _union_of(rows: Sequence[int], mask: int) -> int:
    """The union of ``rows[q]`` over the states q in ``mask``: one subset
    step when ``rows`` is a successor table."""
    out = 0
    while mask:
        low = mask & -mask
        out |= rows[low.bit_length() - 1]
        mask ^= low
    return out


def _packed_rows(n: Nfa, syms: list[int], width: int) -> Sequence[int]:
    """Per state of ``n``, its successor masks on all of ``syms`` in one
    int: the mask on the i-th symbol shifted left by ``i * width``."""
    rows: Sequence[int] = (0,) * n.state_count
    for i, sym in enumerate(syms):
        table = n._fwd.get(sym)
        if table:
            rows = list(map(or_, rows, map(lshift, table, repeat(i * width)))) if i else table
    return rows


def _product_search(a: Nfa, b: Nfa, symmetric: bool) -> bytes | None:
    """Shortest word (lex-least among them) after which the state set ``ma``
    of ``a`` meets ``a``'s finals while the state set ``mb`` of ``b``
    misses ``b``'s, or, when ``symmetric``, also the other way round.

    A breadth-first walk over the product of both subset constructions, in
    ascending symbol order over the joint alphabet, that each side builds
    on the fly: a side steps a mask the first time the walk extends a pair
    holding it, and the walk stops at the first bad pair. A side's masks
    are the states of its complete DFA, so the word is the one the product
    of the two determinized automata gives; each side stops with
    ``DeterminizationCap`` past ``MAX_DFA_STATES`` stepped masks.

    A pair is the one int ``ma << w | mb``, with ``w`` the state count of
    ``b``. Each side's memo maps a mask to its successors on every symbol
    at once, the i-th symbol's pair in bits ``i * width`` up, so that one
    ``|`` of the two rows and one shift per symbol give the next pairs.
    A row longer than ``_PACKED_BITS`` would make each shift copy a row
    that grows with the alphabet, and its per-state rows cost more to build
    than a short walk takes: such a walk is ``_product_search_by_symbol``.
    """
    syms = sorted(a.alphabet | b.alphabet)
    w = b.state_count
    width = a.state_count + w
    if len(syms) * width > _PACKED_BITS:
        return _product_search_by_symbol(a, b, syms, symmetric)
    shifts = [i * width for i in range(len(syms))]
    full, low = (1 << width) - 1, (1 << w) - 1
    fa, fb = a.final_mask, b.final_mask
    # a side's packed rows are built when it first steps a mask
    rows_a = rows_b = None
    memo_a: dict[int, int] = {}
    memo_b: dict[int, int] = {}
    start = a.initial_mask << w | b.initial_mask
    parent: dict[int, tuple[int, int] | None] = {start: None}
    queue = [start]
    for pair in queue:
        ma, mb = pair >> w, pair & low
        if ma & fa:
            if not mb & fb:
                return _witness(parent, pair)
        elif symmetric and mb & fb:
            return _witness(parent, pair)
        row_a = memo_a.get(ma)
        if row_a is None:
            _check_cap(memo_a)
            if rows_a is None:
                rows_a = _packed_rows(a, syms, width)
            row_a = memo_a[ma] = _union_of(rows_a, ma) << w
        row_b = memo_b.get(mb)
        if row_b is None:
            _check_cap(memo_b)
            if rows_b is None:
                rows_b = _packed_rows(b, syms, width)
            row_b = memo_b[mb] = _union_of(rows_b, mb)
        row = row_a | row_b
        for sym, shift in zip(syms, shifts):
            nxt = row >> shift & full
            if nxt not in parent:
                parent[nxt] = (pair, sym)
                queue.append(nxt)
    return None


def _product_search_by_symbol(a: Nfa, b: Nfa, syms: list[int], symmetric: bool) -> bytes | None:
    """``_product_search`` past ``_PACKED_BITS``: a pair is the tuple
    ``(ma, mb)``, which costs less to build and hash than a wide int, and
    each side steps a mask on one symbol at a time (``subset_successors``)."""
    succ_a, succ_b = subset_successors(a, syms), subset_successors(b, syms)
    fa, fb = a.final_mask, b.final_mask
    start = (a.initial_mask, b.initial_mask)
    parent: dict[tuple[int, int], tuple[tuple[int, int], int] | None] = {start: None}
    queue = [start]
    for pair in queue:
        ma, mb = pair
        if ma & fa:
            if not mb & fb:
                return _witness(parent, pair)
        elif symmetric and mb & fb:
            return _witness(parent, pair)
        for sym, nxt in zip(syms, zip(succ_a(ma), succ_b(mb))):
            if nxt not in parent:
                parent[nxt] = (pair, sym)
                queue.append(nxt)
    return None


def _witness(parent: dict, pair) -> bytes:
    """The word that leads a product walk from its start pair to ``pair``:
    the symbols of the ``parent`` links, read backwards."""
    out = bytearray()
    while parent[pair] is not None:
        pair, sym = parent[pair]
        out.append(sym)
    return bytes(reversed(out))


def naive_inclusion(a: Nfa, b: Nfa) -> Verdict:
    """Textbook inclusion check through the subset construction and
    complement; used as the ground-truth oracle for every antichain
    algorithm.

    It walks the product of both subset constructions on the fly
    (``_product_search``) rather than determinizing either side in full, so
    it stops at the first word of L(a) - L(b), and ``DeterminizationCap``
    fires only on the masks actually explored. Returns a shortest word of
    L(a) - L(b), lex-least among them, as witness when not included.
    """
    w = _product_search(a, b, False)
    if w is None:
        return Verdict(True)
    return Verdict(False, w)


def equivalence_counterexample(a: Nfa, b: Nfa) -> bytes | None:
    """None when L(a) = L(b); otherwise a shortest word in the symmetric
    difference (lex-least among the shortest), by the same on-the-fly
    product walk as ``naive_inclusion``."""
    return _product_search(a, b, True)


class CnfGrammar:
    """Context-free grammar in Chomsky normal form.

    Variable 0 is the axiom. Every variable must carry at least one
    alternative; the empty word is admitted only through the axiom's
    ``axiom_nullable`` flag.
    """

    __slots__ = ("variable_count", "terminal_rules", "binary_rules", "axiom_nullable")

    def __init__(
        self,
        variable_count: int,
        terminal_rules: Mapping[int, Iterable[int]],
        binary_rules: Mapping[int, Iterable[tuple[int, int]]],
        axiom_nullable: bool = False,
    ):
        if variable_count < 1:
            raise ValueError("a grammar needs at least the axiom variable")
        self.variable_count = variable_count
        self.terminal_rules = {
            v: frozenset(ts) for v, ts in terminal_rules.items() if ts
        }
        self.binary_rules = {
            v: frozenset(ps) for v, ps in binary_rules.items() if ps
        }
        self.axiom_nullable = bool(axiom_nullable)
        for v, ts in self.terminal_rules.items():
            self._check_var(v)
            for t in ts:
                if not (0 <= t <= 255):
                    raise ValueError(f"terminal {t} is not a byte")
        for v, ps in self.binary_rules.items():
            self._check_var(v)
            for y, z in ps:
                self._check_var(y)
                self._check_var(z)
        for v in range(variable_count):
            if (
                v not in self.terminal_rules
                and v not in self.binary_rules
                and not (v == 0 and self.axiom_nullable)
            ):
                raise ValueError(f"variable X{v} has no rule")

    def _check_var(self, v: int) -> None:
        if not (0 <= v < self.variable_count):
            raise ValueError(f"variable X{v} out of range")

    @property
    def terminals(self) -> frozenset[int]:
        out: set[int] = set()
        for ts in self.terminal_rules.values():
            out |= ts
        return frozenset(out)


def cfg_in_regular_oracle(g: CnfGrammar, d: Dfa) -> Verdict:
    """Decides L(g) <= L(d) by product-grammar emptiness against the
    complement of ``d``; independent oracle for the grammar antichain
    algorithms.

    The witness, when present, is the shortest (then lex-least) word
    derivable by ``g`` that ``d`` rejects.
    """
    syms = sorted(set(d.alphabet) | set(g.terminals))
    dd = d.complete(syms)
    accepting = dd.final_mask
    if g.axiom_nullable and not accepting >> dd.initial_state & 1:
        return Verdict(False, b"")
    left_of: dict[int, list[tuple[int, int]]] = defaultdict(list)
    right_of: dict[int, list[tuple[int, int]]] = defaultdict(list)
    for v, ps in g.binary_rules.items():
        for y, z in ps:
            left_of[y].append((v, z))
            right_of[z].append((v, y))
    settled: dict[tuple[int, int, int], bytes] = {}
    by_start: dict[tuple[int, int], list[tuple[int, bytes]]] = defaultdict(list)
    by_end: dict[tuple[int, int], list[tuple[int, bytes]]] = defaultdict(list)
    heap: list[tuple[int, bytes, int, int, int]] = []
    if g.axiom_nullable:
        # the axiom's empty alternative participates in compositions
        for p in range(dd.state_count):
            heapq.heappush(heap, (0, b"", 0, p, p))
    for v, ts in g.terminal_rules.items():
        for t in sorted(ts):
            for p in range(dd.state_count):
                q = dd.dnext(p, t)
                heapq.heappush(heap, (1, bytes([t]), v, p, q))
    while heap:
        length, word, v, p, q = heapq.heappop(heap)
        if (v, p, q) in settled:
            continue
        settled[(v, p, q)] = word
        if v == 0 and p == dd.initial_state and not accepting >> q & 1:
            return Verdict(False, word)
        by_start[(v, p)].append((q, word))
        by_end[(v, q)].append((p, word))
        for x, z in left_of[v]:
            for q2, w2 in by_start[(z, q)]:
                if (x, p, q2) not in settled:
                    heapq.heappush(heap, (length + len(w2), word + w2, x, p, q2))
        for x, y in right_of[v]:
            for p0, w0 in by_end[(y, p)]:
                if (x, p0, q) not in settled:
                    heapq.heappush(heap, (len(w0) + length, w0 + word, x, p0, q))
    return Verdict(True)


class Ocn:
    """One-counter net: an NFA whose transitions carry a counter delta in
    {-1, 0, +1}; the counter never goes below zero."""

    __slots__ = ("state_count", "alphabet", "transitions")

    def __init__(self, state_count: int, transitions: Iterable[tuple[int, int, int, int]]):
        if state_count < 0:
            raise ValueError("state_count must be nonnegative")
        self.state_count = state_count
        self.transitions = frozenset(transitions)
        for p, sym, d, q in self.transitions:
            if not (0 <= p < state_count and 0 <= q < state_count):
                raise ValueError(f"transition ({p},{sym},{d},{q}) out of range")
            if d not in (-1, 0, 1):
                raise ValueError("counter delta must be -1, 0 or +1")
            if not (0 <= sym <= 255):
                raise ValueError(f"symbol {sym} is not a byte")
        self.alphabet = frozenset(sym for _, sym, _, _ in self.transitions)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Ocn):
            return NotImplemented
        return (
            self.state_count == other.state_count
            and self.transitions == other.transitions
        )

    def __hash__(self) -> int:
        return hash((self.state_count, self.transitions))

    def __repr__(self) -> str:
        return f"Ocn(states={self.state_count}, trans={len(self.transitions)})"
