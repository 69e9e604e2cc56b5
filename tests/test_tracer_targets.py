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

from stegolink import pipeline
from stegolink.pipeline import PipelineConfig, make_secret, run_trial

TRACER = Path(__file__).resolve().parents[1] / "bench" / "tracer.py"

pytestmark = pytest.mark.skipif(not TRACER.is_file(), reason="no bench/tracer.py beside tests/")


def load_tracer():
    spec = importlib.util.spec_from_file_location("bench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    return tracer


def test_every_tracer_target_resolves():
    assert load_tracer().Tracer().absent == []


def test_a_warm_trial_reads_its_predictor_calls_and_passes():
    # a warm default trial of a fresh secret runs the hide and the batched
    # reveal, each one forward and one reverse pass over the 25-step window
    # at two predictions a step; its link and references are already built.
    # A repeated secret finds its stego in the memo and runs the reveal alone.
    # Every memo starts cold, so no earlier test's secret changes the counts.
    cfg = PipelineConfig(shape=(1, 8, 8))
    secret = make_secret(cfg.secret_seed, cfg.shape)
    for cache in pipeline.BUILD_CACHES.values():
        cache.cache_clear()
    run_trial(secret, cfg)
    for trial_secret, predictions, passes in ((make_secret(cfg.secret_seed + 1, cfg.shape), 200, 2),
                                              (secret, 100, 1)):
        tracer = load_tracer().Tracer()
        tracer.trial(lambda: run_trial(trial_secret, cfg))
        calls = {key: st[0] for key, st in tracer.stats.items()}
        assert tracer.absent == []
        assert calls["predictor.predict"] == predictions
        assert calls["edict.edict_forward"] == calls["edict.edict_reverse"] == passes
