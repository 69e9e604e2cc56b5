"""The benchmark's output check accepts the records this package writes.

``bench/worker.py`` judges every sweep row with ``row_failure``, against its
own list of record keys, so a change to the record layout would otherwise
show only as a benchmark run whose outputs read incorrect.  This reads
``bench/`` and changes nothing in it; it skips where ``bench/`` is absent.
"""

import importlib.util

from pathlib import Path

import pytest

from stegolink import harness, pipeline
from stegolink.harness import SweepSpec
from stegolink.pipeline import PipelineConfig

WORKER = Path(__file__).resolve().parents[1] / "bench" / "worker.py"

pytestmark = pytest.mark.skipif(not WORKER.is_file(), reason="no bench/worker.py beside tests/")


def load_worker():
    spec = importlib.util.spec_from_file_location("bench_worker", WORKER)
    worker = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(worker)
    return worker


def test_worker_checks_every_record_key():
    assert load_worker().RECEIVERS == tuple(r.key for r in pipeline.RECEIVERS)


def test_row_failure_accepts_a_real_sweep_row():
    spec = SweepSpec(base=PipelineConfig(steps=10, shape=(1, 8, 8)), axes={"snr_db": [10.0]}, base_seed="bench")
    row = harness._sweep_row(spec, spec.points()[0], 0, 0)
    worker = load_worker()
    assert row["error"] is None and worker.row_failure(row) is None
    # the check reads the record: a row missing a receiver's entry fails it
    missing = {**row, "trial": {k: v for k, v in row["trial"].items() if k != pipeline.RECEIVERS[-1].key}}
    assert worker.row_failure(missing) is not None
