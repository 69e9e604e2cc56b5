"""The benchmark's outside-in tracer still finds every name it wraps.

``bench/tracer.py`` wraps functions by name, so deleting or renaming one of
its ``TARGETS`` breaks the benchmark without failing any test here.  This
reads ``bench/`` and changes nothing in it; it skips where ``bench/`` is
absent.
"""

import importlib.util

from pathlib import Path

import pytest

import stegolink  # noqa: F401 - the tracer looks its targets up in the loaded modules

TRACER = Path(__file__).resolve().parents[1] / "bench" / "tracer.py"


@pytest.mark.skipif(not TRACER.is_file(), reason="no bench/tracer.py beside tests/")
def test_every_tracer_target_resolves():
    spec = importlib.util.spec_from_file_location("bench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    assert tracer.Tracer().absent == []
