"""The incremental RePair compressor behind ``slp.repair_compress``."""

from __future__ import annotations

import heapq
import re
import sys
from array import array
from collections import Counter, defaultdict
from functools import partial
from typing import Callable, Sequence

from .slp import Slp, rule_id

# a pair (a, b) is keyed a << _SHIFT | b, so key order is pair order
_SHIFT = 32
_LOW = (1 << _SHIFT) - 1
# the symbol of a removed position and of the end sentinel: no pair with
# it is ever counted twice
_NONE = -1
_TWIN = re.compile(rb"(.)\1", re.DOTALL)  # leftmost pairs inside runs
_LONG_RUN = re.compile(rb"(.)\1\1+", re.DOTALL)


def _initial_pairs(text: bytes) -> tuple[array, array, dict[int, int]]:
    """The positions of the byte pairs of ``text``, with the pairs coded as
    ``a * 256 + b``, and the exact counts of (c, c) pairs. Inside a run only
    the first position is listed."""
    n = len(text)
    # the pairs at even and at odd positions, read as big-endian 16-bit words
    even = array("H", text[: n // 2 * 2])
    odd = array("H", text[1 : 1 + (n - 1) // 2 * 2])
    if sys.byteorder == "little":
        even.byteswap()
        odd.byteswap()
    codes = array("H", bytes(2 * (n - 1)))
    codes[0::2], codes[1::2] = even, odd
    born, kept = array("i"), array("H")
    at = 0
    for run in _LONG_RUN.finditer(text):
        s, e = run.start(), run.end() - 1
        born.extend(range(at, s + 1))
        kept += codes[at : s + 1]
        at = e
    born.extend(range(at, n - 1))
    kept += codes[at:]
    exact = {c << _SHIFT | c: count for (c,), count in Counter(_TWIN.findall(text)).items()}
    return born, kept, exact


class RePair:
    """The state of one ``repair_compress`` run.

    Three facts keep the bookkeeping small:

    - A position's pair only ever changes to one holding a fresher symbol,
      so a position never returns to a pair it has left. Occurrence lists
      are therefore checked lazily, and every occurrence of a pair is born
      in one pass (the initial scan, or the round that makes its fresher
      symbol), in text order. A pair seen fewer than twice after that pass
      can never be chosen and is not tracked at all.
    - Counts of existing pairs only fall, so a heap entry whose count is
      out of date is requeued with the current count when popped.
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
        self.sym = array("i", [*text, _NONE])
        ramp = array("i", range(n + 1))
        self.nxt = ramp[1:]
        self.nxt.append(n)
        self.prv = array("i", [n]) + ramp[:n]
        del ramp
        self.run_len = array("i", bytes(self.sym.itemsize * (n + 1)))
        self.run_end = array("i", self.run_len)
        self.counts: dict[int, int] = {}
        self.occ: dict[int, array] = {}
        self.heap: list[tuple[int, int]] = []
        self.enroll(*_initial_pairs(text), lambda code: (code >> 8) << _SHIFT | code & 0xFF)

    def enroll(
        self,
        born: Sequence[int],
        keys: Sequence[int],
        exact: dict[int, int],
        widen: Callable[[int], int] | None = None,
    ) -> None:
        """Track the pairs ``keys[t]`` born at positions ``born[t]`` (in text
        order) that occur twice; ``exact`` holds the run-corrected counts of
        (c, c) pairs, whose runs are listed at their first position only.
        ``widen`` maps ``keys`` to pair keys if they are coded otherwise."""
        groups: defaultdict[int, array] = defaultdict(partial(array, "i"))
        for code, pos in zip(keys, born):
            groups[code].append(pos)
        for code, positions in groups.items():
            key = code if widen is None else widen(code)
            count = exact.get(key, len(positions))
            if count >= 2:
                self.counts[key] = count
                self.occ[key] = positions
                heapq.heappush(self.heap, (-count, key))

    def measure(self, p: int, step: array) -> None:
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
            # positions holding a new pair, with its key; a run of fresh is
            # listed at its first position only
            born = array("i")
            keys = array("q")
            dropped = array("q")  # one key per lost occurrence of an older pair
            if a == b:
                # run starts that moved were appended out of text order
                twins = self.replace_runs(sorted(occ.pop(key)), a, fresh, born, keys, dropped)
            else:
                twins = self.replace_pairs(occ.pop(key), a, b, fresh, born, keys, dropped)
            for lost, count in Counter(dropped).items():
                current = counts.get(lost)
                if current is not None:
                    if current - count >= 2:
                        counts[lost] = current - count
                    else:
                        del counts[lost], occ[lost]
            self.enroll(born, keys, {fresh << _SHIFT | fresh: twins})
        sym, nxt = self.sym, self.nxt
        axiom = []
        i = 0
        while i != self.end:
            axiom.append(sym[i])
            i = nxt[i]
        return Slp([*rules, tuple(axiom)])

    def replace_runs(self, positions, c, fresh, born, keys, dropped) -> int:
        """Replace every run of ``c`` pairwise from its left end, leaving its
        last ``c`` when the length is odd; return the count of
        ``(fresh, fresh)``. ``positions`` holds the run starts, in text
        order, and stale entries."""
        sym, nxt, prv = self.sym, self.nxt, self.prv
        twin = fresh << _SHIFT | fresh
        twins = 0
        for s in positions:
            q = nxt[s]
            if sym[s] != c or sym[q] != c:
                continue
            x = sym[prv[s]]
            dropped.append(x << _SHIFT | c)
            born.append(prv[s])
            keys.append(x << _SHIFT | fresh)
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
                dropped.append(c << _SHIFT | y)  # lost with q
            # else r is the odd last c and keeps its pair
            if half >= 2:
                born.append(s)
                keys.append(twin)
                twins += half // 2
                self.run_end[s], self.run_end[p] = p, s
                self.run_len[s] = self.run_len[p] = half
            born.append(p)
            keys.append(fresh << _SHIFT | y)
        return twins

    def replace_pairs(self, positions, a, b, fresh, born, keys, dropped) -> int:
        """Replace every occurrence of ``(a, b)``, ``a != b``, left to right;
        return the count of ``(fresh, fresh)``."""
        sym, nxt, prv = self.sym, self.nxt, self.prv
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
                    born.append(h)
                    keys.append(twin)
            else:
                span = 1
                if x == a:
                    # the run of a ending at i now ends at h
                    if run_len[i] == 0:
                        self.measure(i, prv)
                    length, s = run_len[i], run_end[i]
                    if length % 2 == 0:
                        dropped.append(a << _SHIFT | a)
                    if length > 2:
                        run_end[s], run_end[h] = h, s
                        run_len[s] = run_len[h] = length - 1
                else:
                    dropped.append(x << _SHIFT | a)
                born.append(h)
                keys.append(x << _SHIFT | fresh)
            y = sym[k]
            if y == b:
                # the run of b starting at j now starts at k
                if run_len[j] == 0:
                    self.measure(j, nxt)
                length, e = run_len[j], run_end[j]
                if length % 2 == 0:
                    dropped.append(b << _SHIFT | b)
                if length > 2:
                    run_end[k], run_end[e] = e, k
                    run_len[k] = run_len[e] = length - 1
                    starts = self.occ.get(b << _SHIFT | b)
                    if starts is not None:
                        starts.append(k)
            else:
                dropped.append(b << _SHIFT | y)
            if y != a or sym[nxt[k]] != b:
                # the next replacement is not at k, so i's pair is final
                born.append(i)
                keys.append(fresh << _SHIFT | y)
            sym[i] = fresh
            sym[j] = _NONE
            nxt[i] = k
            prv[k] = i
            run_len[i] = 0  # its run of fresh is measured when needed
        return twins
