"""Independent checks and reference routes written in the benchmark.

None of these call into ``wqlang`` beyond reading the public fields of its
objects (``Nfa.transitions``, ``CnfGrammar.binary_rules``, ``Slp.rules``),
so a defect in the package cannot hide behind its own code.
"""

from __future__ import annotations

import re
from collections import deque


# -- automata and grammars ---------------------------------------------------


def successors(nfa, states: frozenset, sym: int) -> frozenset:
    out: set[int] = set()
    for q in states:
        out |= nfa.transitions.get((q, sym), frozenset())
    return frozenset(out)


def accepts(nfa, word: bytes) -> bool:
    states = frozenset(nfa.initial)
    for sym in word:
        states = successors(nfa, states, sym)
    return bool(states & nfa.final)


def cyk(g, word: bytes) -> bool:
    """CYK membership for a CNF grammar whose axiom is variable 0. A
    nullable axiom derives the empty word anywhere, also inside binary
    rules (the least-fixpoint reading the package uses), so each cell is
    closed under rules with an empty part."""
    n = len(word)
    table: dict[tuple[int, int], set[int]] = {}
    for length in range(n + 1):
        for i in range(n - length + 1):
            if length == 0:
                cell = {0} if g.axiom_nullable else set()
            else:
                cell = {v for v, ts in g.terminal_rules.items() if length == 1 and word[i] in ts}
            table[(i, length)] = cell
            changed = True
            while changed:
                changed = False
                for v, pairs in g.binary_rules.items():
                    if v in cell:
                        continue
                    for y, z in pairs:
                        if any(
                            y in table[(i, split)] and z in table[(i + split, length - split)]
                            for split in range(length + 1)
                        ):
                            cell.add(v)
                            changed = True
                            break
    return 0 in table[(0, n)]


def ocn_configs(o, configs: frozenset, sym: int) -> frozenset:
    out = set()
    for p, c in configs:
        for src, s, d, q in o.transitions:
            if src == p and s == sym and c + d >= 0:
                out.add((q, c + d))
    return frozenset(out)


def ocn_is_trace(o, start: tuple[int, int], word: bytes) -> bool:
    """Exact configuration search: does some run of the net read the word?"""
    configs = frozenset([start])
    for sym in word:
        configs = ocn_configs(o, configs, sym)
        if not configs:
            return False
    return True


def ocn_counterexample(n, o, start: tuple[int, int], max_len: int) -> bytes | None:
    """Shortest word of length <= max_len accepted by ``n`` that is not a
    trace of the net, by breadth-first search over (NFA state set, net
    configuration set) pairs; None when there is none that short."""
    syms = sorted({sym for (_, sym) in n.transitions})
    first = (frozenset(n.initial), frozenset([start]))
    seen = {first}
    queue = deque([(first, b"")])
    while queue:
        (states, configs), word = queue.popleft()
        if states & n.final and not configs:
            return word
        if len(word) == max_len:
            continue
        for sym in syms:
            nxt_states = successors(n, states, sym)
            if not nxt_states:
                continue
            node = (nxt_states, ocn_configs(o, configs, sym))
            if node not in seen:
                seen.add(node)
                queue.append((node, word + bytes([sym])))
    return None


# -- text ------------------------------------------------------------------------


def expand_slp(slp) -> bytes:
    """Expansion of an SLP, bottom-up over the rules without recursion, at any
    depth; doubles as the
    reference decompressor of the compress-logs workload."""
    rules = slp.rules
    memo: list[bytes | None] = [None] * len(rules)
    for index, rule in enumerate(rules):
        memo[index] = b"".join(
            bytes([sym]) if sym < 256 else memo[sym - 257] for sym in rule
        )
    return memo[-1]


def regex_lines(pattern: bytes, text: bytes) -> list[tuple[int, bytes]]:
    """Matching lines by Python ``re``: the search-logs oracle."""
    search = re.compile(pattern).search
    return [
        (no, line) for no, line in enumerate(text.split(b"\n"), start=1) if line and search(line)
    ]


class FactorScanner:
    """Decompress-then-scan reference route: a lazily built DFA for 'some
    factor of the line is accepted', restarting at every position."""

    def __init__(self, nfa):
        self.nfa = nfa
        self.start = frozenset(nfa.initial)
        self.index = {self.start: 0}
        self.order = [self.start]
        self.accept = [bool(self.start & nfa.final)]
        self.table: list[dict[int, int]] = [{}]

    def _move(self, state: int, byte: int) -> int:
        target = successors(self.nfa, self.order[state], byte) | self.start
        j = self.index.get(target)
        if j is None:
            j = len(self.order)
            self.index[target] = j
            self.order.append(target)
            self.accept.append(bool(target & self.nfa.final))
            self.table.append({})
        self.table[state][byte] = j
        return j

    def matching_lines(self, text: bytes) -> list[tuple[int, bytes]]:
        out = []
        table, accept = self.table, self.accept
        for no, line in enumerate(text.split(b"\n"), start=1):
            state = 0
            for byte in line:
                nxt = table[state].get(byte)
                state = self._move(state, byte) if nxt is None else nxt
                if accept[state]:
                    out.append((no, line))
                    break
        return out
