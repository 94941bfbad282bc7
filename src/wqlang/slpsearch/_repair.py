"""The incremental RePair compressor behind ``slp.repair_compress``."""

from __future__ import annotations

import heapq
import re
import sys
from array import array
from collections import Counter

from .slp import Slp, rule_id

# a pair (a, b) is keyed a << _SHIFT | b, so key order is pair order
_SHIFT = 32
_LOW = (1 << _SHIFT) - 1
# the symbol of a removed position and of the end sentinel: no pair with
# it is ever counted twice. As a pair key it names no pair, so losing it
# changes no count
_NONE = -1
_TWIN = re.compile(rb"(.)\1", re.DOTALL)  # leftmost pairs inside runs
_LONG_RUN = re.compile(rb"(.)\1\1+", re.DOTALL)


def _initial_pairs(text: bytes) -> tuple[dict[int, list[int]], dict[int, int]]:
    """The positions of the byte pairs of ``text`` grouped by pair key, in
    text order, and the exact counts of (c, c) pairs. Inside a run only the
    first position is listed."""
    n = len(text)
    # the key a << 32 | b of each pair, read as a little-endian 64-bit word
    raw = bytearray(8 * (n - 1))
    raw[0::8] = text[1:]
    raw[4::8] = text[:-1]
    codes = array("q", raw)
    if sys.byteorder == "big":
        codes.byteswap()
    born, keys = array("i"), array("q")
    at = 0
    for run in _LONG_RUN.finditer(text):
        s, e = run.start(), run.end() - 1
        born.extend(range(at, s + 1))
        keys += codes[at : s + 1]
        at = e
    born.extend(range(at, n - 1))
    keys += codes[at:]
    groups: dict[int, list[int]] = {}
    for pos, key in zip(born, keys):
        positions = groups.get(key)
        if positions is None:
            groups[key] = [pos]
        else:
            positions.append(pos)
    exact = {c << _SHIFT | c: count for (c,), count in Counter(_TWIN.findall(text)).items()}
    return groups, exact


class RePair:
    """The state of one ``repair_compress`` run.

    The sequence is a doubly linked list over the text's positions held in
    three plain lists: ``sym`` (the symbol at a position, ``_NONE`` once
    removed), ``nxt`` and ``prv``. A round reads them about ten times per
    occurrence, and a list hands back the int it holds where an ``array``
    would box a new one on each read of a value above 256. ``run_len`` and
    ``run_end`` are touched only at run ends and stay int32 arrays. The
    whole run peaks at about 137 bytes per input byte (a 100 KB log, under
    ``tracemalloc``).

    Three facts keep the bookkeeping small:

    - A position's pair only ever changes to one holding a fresher symbol,
      so a position never returns to a pair it has left. Occurrence lists
      are therefore checked lazily, and every occurrence of a pair is born
      in one pass (the initial scan, or the round that makes its fresher
      symbol), in text order. A round collects the positions of its new
      pairs in one table, and a pair seen fewer than twice after that pass
      can never be chosen and is not tracked at all.
    - Counts of existing pairs only fall, so a round lowers the count of
      each pair it takes an occurrence from in place, and drops the pair
      once it falls below two. A heap entry whose count is out of date is
      requeued with the current count when popped.
    - A run of equal symbols only shrinks at its ends, or is replaced whole
      by a round on its own pair, so ``(c, c)`` lists only run starts. A
      run's length and other end are kept at both ends (``run_len``,
      ``run_end``), measured by one walk the first time they are needed
      (``run_len`` 0 means not measured yet).
    """

    def __init__(self, text: bytes):
        n = len(text)
        # position n is a sentinel on both ends of the list
        self.end = n
        self.sym = [*text, _NONE]
        self.nxt = list(range(1, n + 1))
        self.nxt.append(n)
        # shares nxt's int objects rather than boxing a second set
        self.prv = [n, 0, *self.nxt[: n - 1]]
        self.run_len = array("i", [0]) * (n + 1)
        self.run_end = array("i", self.run_len)
        self.counts: dict[int, int] = {}
        self.occ: dict[int, list[int]] = {}
        groups, exact = _initial_pairs(text)
        for key, positions in groups.items():
            count = exact.get(key, len(positions))
            if count >= 2:
                self.counts[key] = count
                self.occ[key] = positions
        self.heap = [(-count, key) for key, count in self.counts.items()]
        heapq.heapify(self.heap)

    def lose(self, key: int) -> None:
        """Count one lost occurrence of the older pair ``key``, which is no
        longer tracked once seen fewer than twice. ``replace_pairs`` does
        the same inline."""
        count = self.counts.get(key)
        if count is not None:
            if count > 2:
                self.counts[key] = count - 1
            else:
                del self.counts[key], self.occ[key]

    def measure(self, p: int, step: list[int]) -> None:
        """Record the length and both ends of the run that has ``p`` at one
        end, walking away from ``p`` along ``step``."""
        sym = self.sym
        c, q, length = sym[p], p, 1
        while sym[step[q]] == c:
            q = step[q]
            length += 1
        self.run_end[p], self.run_end[q] = q, p
        self.run_len[p] = self.run_len[q] = length

    def run(self) -> Slp:
        """Replace the most frequent pair until none occurs twice."""
        counts, occ, heap = self.counts, self.occ, self.heap
        rules: list[tuple[int, int]] = []
        while heap:
            neg_count, key = heapq.heappop(heap)
            count = counts.get(key)
            if count != -neg_count:
                if count is not None:
                    heapq.heappush(heap, (-count, key))
                continue
            a, b = key >> _SHIFT, key & _LOW
            fresh = rule_id(len(rules))
            rules.append((a, b))
            del counts[key]
            # the positions of each new pair, in text order; a run of fresh
            # is listed at its first position only
            new: dict[int, list[int]] = {}
            if a == b:
                # run starts that moved were appended out of text order
                twins = self.replace_runs(sorted(occ.pop(key)), a, fresh, new)
            else:
                twins = self.replace_pairs(occ.pop(key), a, b, fresh, new)
            twin = fresh << _SHIFT | fresh
            for pair, positions in new.items():
                count = twins if pair == twin else len(positions)
                if count >= 2:
                    counts[pair] = count
                    occ[pair] = positions
                    heapq.heappush(heap, (-count, pair))
        sym, nxt = self.sym, self.nxt
        axiom = []
        i = 0
        while i != self.end:
            axiom.append(sym[i])
            i = nxt[i]
        return Slp([*rules, tuple(axiom)])

    def replace_runs(self, positions, c, fresh, new) -> int:
        """Replace every run of ``c`` pairwise from its left end, leaving its
        last ``c`` when the length is odd; return the count of
        ``(fresh, fresh)``. ``positions`` holds the run starts, in text
        order, and stale entries."""
        sym, nxt, prv, lose = self.sym, self.nxt, self.prv, self.lose
        twin = fresh << _SHIFT | fresh
        twins = 0
        for s in positions:
            q = nxt[s]
            if sym[s] != c or sym[q] != c:
                continue
            x = sym[prv[s]]
            lose(x << _SHIFT | c)
            new.setdefault(x << _SHIFT | fresh, []).append(prv[s])
            # pair up (p, q) while another whole pair follows at r
            p, r, half = s, nxt[q], 1
            while sym[r] == c and sym[nxt[r]] == c:
                sym[p] = fresh
                sym[q] = _NONE
                nxt[p] = r
                prv[r] = p
                p, q = r, nxt[r]
                r = nxt[q]
                half += 1
            sym[p] = fresh
            sym[q] = _NONE
            nxt[p] = r
            prv[r] = p
            y = sym[r]
            if y != c:
                lose(c << _SHIFT | y)  # lost with q
            # else r is the odd last c and keeps its pair
            if half >= 2:
                new.setdefault(twin, []).append(s)
                twins += half // 2
                self.run_end[s], self.run_end[p] = p, s
                self.run_len[s] = self.run_len[p] = half
            new.setdefault(fresh << _SHIFT | y, []).append(p)
        return twins

    def replace_pairs(self, positions, a, b, fresh, new) -> int:
        """Replace every occurrence of ``(a, b)``, ``a != b``, left to right;
        return the count of ``(fresh, fresh)``. Each occurrence loses at most
        one older pair on either side, counted inline as ``lose`` does."""
        sym, nxt, prv = self.sym, self.nxt, self.prv
        counts, occ = self.counts, self.occ
        run_len, run_end = self.run_len, self.run_end
        twin = fresh << _SHIFT | fresh
        twins = 0
        span = 0  # length of the run of fresh ending at the last replacement
        for i in positions:
            j = nxt[i]
            if sym[i] != a or sym[j] != b:
                continue
            h, k = prv[i], nxt[j]
            x = sym[h]
            if x == fresh:
                # h is the previous replacement: its run of fresh grows
                span += 1
                if span % 2 == 0:
                    twins += 1
                if span == 2:
                    new.setdefault(twin, []).append(h)
            else:
                span = 1
                if x == a:
                    # the run of a ending at i now ends at h
                    if run_len[i] == 0:
                        self.measure(i, prv)
                    length, s = run_len[i], run_end[i]
                    lost = a << _SHIFT | a if length % 2 == 0 else _NONE
                    if length > 2:
                        run_end[s], run_end[h] = h, s
                        run_len[s] = run_len[h] = length - 1
                else:
                    lost = x << _SHIFT | a
                count = counts.get(lost)
                if count is not None:
                    if count > 2:
                        counts[lost] = count - 1
                    else:
                        del counts[lost], occ[lost]
                new.setdefault(x << _SHIFT | fresh, []).append(h)
            y = sym[k]
            if y == b:
                # the run of b starting at j now starts at k
                if run_len[j] == 0:
                    self.measure(j, nxt)
                length, e = run_len[j], run_end[j]
                lost = b << _SHIFT | b if length % 2 == 0 else _NONE
                if length > 2:
                    run_end[k], run_end[e] = e, k
                    run_len[k] = run_len[e] = length - 1
                    starts = occ.get(b << _SHIFT | b)
                    if starts is not None:
                        starts.append(k)
            else:
                lost = b << _SHIFT | y
            count = counts.get(lost)
            if count is not None:
                if count > 2:
                    counts[lost] = count - 1
                else:
                    del counts[lost], occ[lost]
            if y != a or sym[nxt[k]] != b:
                # the next replacement is not at k, so i's pair is final
                new.setdefault(fresh << _SHIFT | y, []).append(i)
            sym[i] = fresh
            sym[j] = _NONE
            nxt[i] = k
            prv[k] = i
            run_len[i] = 0  # its run of fresh is measured when needed
        return twins
