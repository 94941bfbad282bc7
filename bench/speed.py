"""Timings scaled to a nominal machine speed.

The 2-vCPU VMs this benchmark runs on change speed by a quarter or more,
in phases of a few seconds to minutes, whatever runs in the process: the
same RePair call takes 140 ms in one phase and 250 ms in the next. A median
over one run cannot average that out, because two runs land in different
phases.

So the harness times a fixed pure-Python kernel right before and right
after every timed item (an operation with its reference routes, a CLI
subprocess, a set-up). The kernel does integer arithmetic, a subset
construction on a fixed NFA and one pair-replacement pass over fixed bytes,
the kinds of work the package does, and calls nothing of the package. An
item's time is reported as ``seconds * NOMINAL_S / kernel``, where
``kernel`` is the mean of the two kernel samples around it. A change to the
program moves the item's time and not the kernel's; a change in machine
speed moves both and cancels. The raw times are printed beside the result.

A CLI subprocess spends most of its time starting an interpreter, which the
kernel follows less well. So a CLI sample is scaled the same way by a bare
interpreter start instead (``spawn_s``: ``python -c "import argparse,
json"``, which loads nothing of the package), timed right before and right
after it.
"""

from __future__ import annotations

import random
import subprocess
import sys
import time

# the kernel's median time on the 2-vCPU VM the benchmark was built on, so
# that scaled times read as milliseconds on that machine
NOMINAL_S = 0.00175
# the same for spawn_s
NOMINAL_SPAWN_S = 0.085

_clock = time.perf_counter
_rng = random.Random(0)
_STATES = 12
_TRANSITIONS: dict[tuple[int, int], frozenset[int]] = {}
for _sym in (0, 1):
    for _cell in _rng.sample(range(_STATES * _STATES), 18):
        key = (_cell // _STATES, _sym)
        _TRANSITIONS[key] = _TRANSITIONS.get(key, frozenset()) | {_cell % _STATES}
_TEXT = bytes(_rng.choice(b"abcdefgh ") for _ in range(1000))


def _arithmetic() -> int:
    s = 0
    for i in range(6000):
        s += i * i % 7
    return s


def _subsets() -> int:
    start = frozenset([0])
    seen = {start}
    todo = [start]
    while todo:
        states = todo.pop()
        for sym in (0, 1):
            out: set[int] = set()
            for q in states:
                out |= _TRANSITIONS.get((q, sym), frozenset())
            succ = frozenset(out)
            if succ not in seen:
                seen.add(succ)
                todo.append(succ)
    return len(seen)


def _pairs() -> int:
    seq = list(_TEXT)
    counts: dict[tuple[int, int], int] = {}
    for pair in zip(seq, seq[1:]):
        counts[pair] = counts.get(pair, 0) + 1
    best = max(counts, key=counts.get)
    out = []
    i = 0
    while i < len(seq):
        if i + 1 < len(seq) and (seq[i], seq[i + 1]) == best:
            out.append(256)
            i += 2
        else:
            out.append(seq[i])
            i += 1
    return len(out)


def kernel_s() -> float:
    """One timed run of the calibration kernel."""
    start = _clock()
    _arithmetic()
    _subsets()
    _pairs()
    return _clock() - start


class Speed:
    """Kernel samples in sequence: ``scale()`` after each timed item gives
    the factor for the time since the previous sample."""

    def __init__(self):
        self.samples = [kernel_s()]
        self.last = _clock()

    def scale(self) -> float:
        self.samples.append(kernel_s())
        self.last = _clock()
        return 2 * NOMINAL_S / (self.samples[-2] + self.samples[-1])


def spawn_s(env: dict, cwd) -> float:
    """One timed bare interpreter start, with the CLI's environment."""
    start = _clock()
    subprocess.run([sys.executable, "-c", "import argparse, json"], cwd=cwd, env=env, check=True)
    return _clock() - start
