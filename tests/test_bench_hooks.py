"""The benchmark's tracer (``bench/tracing.py``) wraps functions by name
where callers look them up, such as ``residual.residual_inclusion_matrix``
or ``residual.naive_inclusion``. A refactor that stops binding one of those
names breaks the traced benchmark run; this test catches it instead."""

import sys
from pathlib import Path

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
