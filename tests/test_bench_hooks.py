"""The benchmark's tracer (``bench/tracing.py``) wraps functions by name
where callers look them up, such as ``residual.residual_inclusion_matrix``
or ``residual.naive_inclusion``. A refactor that stops binding one of those
names breaks the traced benchmark run; this test catches it instead."""

import random
import sys
from pathlib import Path

import wqlang.inclusion as inclusion

from conftest import rand_nfa

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "bench"))

from tracing import Tracer  # noqa: E402


def test_tracer_wraps_every_patched_name_and_restores_it():
    tracer = Tracer()
    try:
        tracer.install()
        assert tracer._patches
        for owner, attr, original in tracer._patches:
            wrapper = getattr(owner, attr)
            assert wrapper is not original, (owner, attr)
            assert wrapper.__wrapped__ is original, (owner, attr)
    finally:
        patches = list(tracer._patches)
        tracer.uninstall()
        for owner, attr, original in patches:
            assert getattr(owner, attr) is original, (owner, attr)


def test_tracer_sees_the_antichain_kernels_of_an_inclusion_check():
    # a fast path that went around Antichain.insert or Nfa.step would leave
    # the traced per-layer counts of an inclusion check at 0
    rng = random.Random(7)
    n1, n2 = (rand_nfa(rng, max_states=6, density=0.3) for _ in range(2))
    tracer = Tracer()
    try:
        tracer.install()
        tracer.enabled = True
        inclusion.fa_inc_antichain(n1, n2)
    finally:
        tracer.uninstall()
    assert tracer.spans["inclusion.fa_inc_antichain"].calls == 1
    assert tracer.spans["fixpoint.antichain_insert"].calls > 0
    assert tracer.spans["automata.step"].calls > 0
