"""Core finite-state machinery: automata, grammars, one-counter nets.

States are dense integer indices and state sets are int bitmasks, so the
hot operation of every antichain algorithm (subset tests between state
sets) compiles down to bitwise arithmetic. Symbols are bytes, 0..255.
"""

from __future__ import annotations

import heapq
from collections import defaultdict
from typing import Any, Callable, Iterable, Iterator, Mapping, NamedTuple

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


class Verdict(NamedTuple):
    """Outcome of an inclusion check.

    ``witness`` is only present when ``included`` is false and the deciding
    algorithm carries representative words; it is then a word of the left
    language that the right language rejects.
    """

    included: bool
    witness: bytes | None = None


MAX_DFA_STATES = 1 << 16


class DeterminizationCap(RuntimeError):
    """The subset construction would need more than ``MAX_DFA_STATES``
    states."""


def _check_symbols(syms: list[int]) -> None:
    """Reject a sorted symbol list that holds a non-byte."""
    if syms and not (0 <= syms[0] and syms[-1] <= 255):
        bad = syms[0] if syms[0] < 0 else syms[-1]
        raise ValueError(f"symbol {bad} is not a byte")


class Nfa:
    """Nondeterministic finite automaton over byte symbols.

    Immutable after construction. It holds ``state_count``, one successor
    table per symbol (``_fwd[sym][p]`` is the mask of the states p reaches
    on sym; only symbols with a transition have a table, and they make up
    ``alphabet``) and the bitmasks ``initial_mask``/``final_mask``.
    ``with_initial``, ``with_final`` and ``reverse`` share their source's
    tables and check only the new masks; ``reverse`` swaps the successor
    and predecessor tables, and is how forward-only ``step`` and ``run``
    reach predecessors. The predecessor tables and the views
    ``transitions`` (``(state, symbol)`` to a frozenset of successors) and
    ``_triples`` are built on first use and shared by every automaton over
    the same tables; ``initial``/``final`` are frozensets of the masks.
    """

    __slots__ = ("state_count", "alphabet", "initial_mask", "final_mask", "_fwd", "_views")

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
        """An automaton over this one's tables with new masks: a DFA over
        the same successor arrays when this is a DFA and one state is
        initial, a plain NFA otherwise."""
        one_initial = initial_mask and not initial_mask & (initial_mask - 1)
        deterministic = isinstance(self, Dfa) and one_initial
        out = object.__new__(Dfa if deterministic else Nfa)
        out.state_count = self.state_count
        out._fwd = self._fwd
        out.alphabet = self.alphabet
        out.initial_mask = initial_mask
        out.final_mask = final_mask
        out._views = self._views
        if deterministic:
            out._succ = self._succ
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
                    if j == MAX_DFA_STATES:
                        raise DeterminizationCap(
                            f"determinization needs more than {MAX_DFA_STATES} states"
                        )
                    index[t] = j
                    order.append(t)
                row.append(j)
            i += 1
        final = 0
        for i, m in enumerate(order):
            if m & self.final_mask:
                final |= 1 << i
        succ = {sym: tuple(row) for sym, row in zip(syms, rows)}
        return Dfa._of_succ(len(order), succ, 0, final, tuple(order))

    def accepted_words(self, max_len: int) -> Iterator[bytes]:
        """All accepted words of length <= max_len, in shortlex order.

        Test/oracle helper; walks the subset construction breadth-first.
        """
        syms = sorted(self.alphabet)
        frontier = [(b"", self.initial_mask)]
        for _ in range(max_len + 1):
            nxt = []
            for word, m in frontier:
                if m & self.final_mask:
                    yield word
                for sym in syms:
                    t = self.step(m, sym)
                    if t:
                        nxt.append((word + bytes([sym]), t))
            frontier = nxt
            if not frontier:
                return


class Dfa(Nfa):
    """Deterministic automaton: one initial state, at most one successor
    per (state, symbol). May be partial; ``complete`` adds a sink.

    Besides the successor mask tables it keeps one successor array per
    symbol, ``_succ[sym][p]`` being the state p moves to or -1 when the
    transition is missing. ``with_initial`` with one state and
    ``with_final`` return a ``Dfa`` that shares both; ``with_initial`` with
    any other number of states returns a plain ``Nfa``.
    """

    __slots__ = ("_succ", "source_subsets")

    def __init__(self, state_count, transitions, initial, final, source_subsets=None):
        super().__init__(state_count, transitions, initial, final)
        m = self.initial_mask
        if not m or m & (m - 1):
            raise ValueError("a DFA has exactly one initial state")
        succ = {}
        for sym, row in self._fwd.items():
            for p, targets in enumerate(row):
                if targets & (targets - 1):
                    raise ValueError(f"nondeterministic on state {p}, symbol {sym}")
            succ[sym] = tuple(targets.bit_length() - 1 for targets in row)
        self._succ = succ
        self.source_subsets = source_subsets

    @classmethod
    def _of_succ(
        cls,
        state_count: int,
        succ: dict[int, tuple[int, ...]],
        initial_state: int,
        final_mask: int,
        source_subsets: tuple[int, ...] | None = None,
    ) -> "Dfa":
        """Unchecked constructor over finished successor arrays, by
        ascending symbol, each with a transition."""
        fwd = {sym: tuple(0 if q < 0 else 1 << q for q in row) for sym, row in succ.items()}
        out = cls._of_tables(state_count, fwd, 1 << initial_state, final_mask)
        out._succ = succ
        out.source_subsets = source_subsets
        return out

    @property
    def initial_state(self) -> int:
        return self.initial_mask.bit_length() - 1

    def dnext(self, p: int, sym: int) -> int | None:
        row = self._succ.get(sym)
        if row is None or row[p] < 0:
            return None
        return row[p]

    def complete(self, symbols: Iterable[int] | None = None) -> "Dfa":
        """Total transition function over ``symbols``, adding a sink state
        only when some transition is actually missing."""
        syms = sorted(self.alphabet if symbols is None else symbols)
        succ = self._succ
        if all(sym in succ and min(succ[sym]) >= 0 for sym in syms):
            return self
        _check_symbols(syms)
        sink = self.state_count
        missing = (-1,) * sink
        wanted = set(syms)
        out = {}
        for sym in sorted(succ.keys() | wanted):
            row = succ.get(sym, missing)
            if sym in wanted:
                out[sym] = tuple(sink if q < 0 else q for q in row) + (sink,)
            else:
                out[sym] = row + (-1,)
        return Dfa._of_succ(sink + 1, out, self.initial_state, self.final_mask)

    def minimize(self) -> "Dfa":
        """Unique minimal complete DFA of the language, canonically numbered
        by breadth-first discovery so equal languages give equal objects:
        ``determinize`` of the quotient by Moore refinement over every state
        of the completed DFA, which drops the unreachable classes."""
        syms = sorted(self.alphabet)
        d = self.complete(syms)
        rows = [d._succ[sym] for sym in syms]
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


def subset_successors(n: Nfa, syms: list[int]) -> Callable[[int], tuple[int, ...]]:
    """``successors(mask)``: the masks ``n`` steps ``mask`` to, one per
    symbol of ``syms``, computed the first time a mask is asked for and
    kept in a memo. Raises ``DeterminizationCap`` when the memo would hold
    more than ``MAX_DFA_STATES`` masks, the bound of a subset
    construction."""
    tables = [n._fwd.get(sym, ()) for sym in syms]
    memo: dict[int, tuple[int, ...]] = {}

    def successors(mask: int) -> tuple[int, ...]:
        out = memo.get(mask)
        if out is None:
            if len(memo) == MAX_DFA_STATES:
                raise DeterminizationCap(
                    f"determinization needs more than {MAX_DFA_STATES} states"
                )
            row = []
            for table in tables:
                t = 0
                if table:
                    s = mask
                    while s:
                        low = s & -s
                        t |= table[low.bit_length() - 1]
                        s ^= low
                row.append(t)
            out = memo[mask] = tuple(row)
        return out

    return successors


def _product_search(a: Nfa, b: Nfa, bad: Callable[[int, int], Any]) -> bytes | None:
    """Shortest word (lex-least among them) after which the state sets
    ``ma`` of ``a`` and ``mb`` of ``b`` satisfy ``bad(ma, mb)``.

    A breadth-first walk over the product of both subset constructions, in
    ascending symbol order over the joint alphabet, that each side builds
    on the fly: a side steps a mask the first time the walk extends a pair
    holding it, and the walk stops at the first bad pair. A side's masks
    are the states of its complete DFA, so the word is the one the product
    of the two determinized automata gives; each side stops with
    ``DeterminizationCap`` past ``MAX_DFA_STATES`` stepped masks.
    """
    syms = sorted(a.alphabet | b.alphabet)
    succ_a, succ_b = subset_successors(a, syms), subset_successors(b, syms)
    start = (a.initial_mask, b.initial_mask)
    parent: dict[tuple[int, int], tuple[tuple[int, int], int] | None] = {start: None}
    queue = [start]
    for pair in queue:
        ma, mb = pair
        if bad(ma, mb):
            out = bytearray()
            node = pair
            while parent[node] is not None:
                node, sym = parent[node]
                out.append(sym)
            return bytes(reversed(out))
        for sym, nxt in zip(syms, zip(succ_a(ma), succ_b(mb))):
            if nxt not in parent:
                parent[nxt] = (pair, sym)
                queue.append(nxt)
    return None


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
    fa, fb = a.final_mask, b.final_mask
    w = _product_search(a, b, lambda ma, mb: ma & fa and not mb & fb)
    if w is None:
        return Verdict(True)
    return Verdict(False, w)


def equivalence_counterexample(a: Nfa, b: Nfa) -> bytes | None:
    """None when L(a) = L(b); otherwise a shortest word in the symmetric
    difference (lex-least among the shortest), by the same on-the-fly
    product walk as ``naive_inclusion``."""
    fa, fb = a.final_mask, b.final_mask
    return _product_search(a, b, lambda ma, mb: bool(ma & fa) != bool(mb & fb))


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

    def words_up_to(self, max_len: int) -> set[bytes]:
        """All words of the language up to the given length, by brute-force
        bottom-up derivation. Test oracle only; exponential in general.

        The axiom's empty alternative participates in compositions, matching
        the least-fixpoint reading of the equations.
        """
        by_len: list[list[set[bytes]]] = [
            [set() for _ in range(max_len + 1)] for _ in range(self.variable_count)
        ]
        if self.axiom_nullable:
            by_len[0][0].add(b"")
        for v, ts in self.terminal_rules.items():
            if max_len >= 1:
                by_len[v][1] = {bytes([t]) for t in ts}
        changed = True
        while changed:
            changed = False
            for length in range(0, max_len + 1):
                for v, ps in self.binary_rules.items():
                    acc = by_len[v][length]
                    before = len(acc)
                    for y, z in ps:
                        for l1 in range(0, length + 1):
                            for u in by_len[y][l1]:
                                for w in by_len[z][length - l1]:
                                    acc.add(u + w)
                    if len(acc) != before:
                        changed = True
        out: set[bytes] = set()
        for length in range(0, max_len + 1):
            out |= by_len[0][length]
        return out


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
