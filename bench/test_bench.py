"""Smoke tests of the benchmark itself.

    python3 -m pytest -q bench/test_bench.py

They check that every metric named in BENCHMARK.json is emitted with its
unit, that the traced counts at seed 1 equal the exact per-trial values of
the unoptimised pipeline, and that the tracer leaves stegolink unpatched.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys

from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

import tracer as tracer_module  # noqa: E402
from workloads import NAMES, sweep_pass  # noqa: E402

BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())

# per traced trial at seed 1: 5 reference generations x 50 DDIM steps plus
# 5 EDICT round trips x 25 steps x 2 chains x 2 directions = 750 predictor
# calls; hide and each of the four reveals build 2 predictors and 2 schedules
SEED_COUNTS = {
    "predictor.calls_per_trial": 750,
    "predictor.constructions_per_trial": 10,
    "reference.generations_per_trial": 5,
    "edict.passes_per_trial": 15,
    "schedule.builds_per_trial": 10,
    "tokenkey.masks_per_trial": 4,
}
WEIGHT_BUILDS = {"sweep-mlp16": 10, "churn-zero8": 0, "grid-linear32": 10}

_results: dict = {}


def smoke(workload: str, trace: int) -> dict:
    key = (workload, trace)
    if key not in _results:
        proc = subprocess.run([sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", "1",
                               "--smoke", "--trace", str(trace)],
                              cwd=ROOT, capture_output=True, text=True, timeout=170)
        assert proc.returncode == 0, proc.stderr
        _results[key] = json.loads(proc.stdout.strip().splitlines()[-1])
    return _results[key]


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", NAMES)
def test_every_metric_is_emitted_with_its_unit(workload, trace):
    result = smoke(workload, trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    declared = BENCHMARK["per_layer" if trace else "end_to_end"]
    assert {m["name"]: m["unit"] for m in declared} == \
        {name: m["unit"] for name, m in result["metrics"].items()}
    assert all(isinstance(m["value"], float) for m in result["metrics"].values())


@pytest.mark.parametrize("workload", NAMES)
def test_traced_counts_match_the_seed(workload):
    metrics = {name: m["value"] for name, m in smoke(workload, 1)["metrics"].items()}
    expected = dict(SEED_COUNTS, **{"predictor.weight_builds_per_trial": WEIGHT_BUILDS[workload]})
    assert {name: metrics[name] for name in expected} == expected
    assert metrics["trace.coverage_frac"] >= 0.9


def _snapshot() -> dict:
    """Every binding in every stegolink namespace and class, by identity."""
    snap = {}
    for name, module in list(sys.modules.items()):
        if module is None or not (name == "stegolink" or name.startswith("stegolink.")):
            continue
        for attr, value in vars(module).items():
            snap[(name, attr)] = value
            if isinstance(value, type) and value.__module__ == name:
                for cattr, cvalue in vars(value).items():
                    snap[(name, attr, cattr)] = cvalue
    return snap


def test_tracer_leaves_stegolink_unpatched():
    import stegolink  # noqa: F401
    from stegolink import pipeline, predictor
    from stegolink.harness import iter_sweep

    before = _snapshot()
    tracer = tracer_module.Tracer()
    assert tracer.absent == []
    rows = iter_sweep(sweep_pass("churn-zero8", 1, 0))
    seen = {}

    def step():
        seen["hide"] = pipeline.hide
        seen["predict"] = predictor.Predictor.predict
        return next(rows)

    row, seconds = tracer.trial(step)
    assert row["error"] is None and seconds > 0
    assert seen["hide"] is not before[("stegolink.pipeline", "hide")]
    assert seen["predict"] is not before[("stegolink.predictor", "Predictor", "predict")]

    def failing_step():
        raise RuntimeError("stop")

    with pytest.raises(RuntimeError):
        tracer.trial(failing_step)
    after = _snapshot()
    assert after.keys() == before.keys()
    assert [k for k in before if after[k] is not before[k]] == []


def test_missing_names_are_reported_absent(monkeypatch):
    import stegolink  # noqa: F401

    monkeypatch.setattr(tracer_module, "TARGETS",
                        tracer_module.TARGETS + (("pipeline", "no_such_stage"), ("nomodule", "f")))
    tracer = tracer_module.Tracer()
    assert tracer.absent == ["pipeline.no_such_stage", "nomodule.f"]


def test_exits_without_a_result_when_the_sources_are_missing(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(HERE, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run([sys.executable, "bench/run.py", "--workload", NAMES[0], "--seed", "1",
                           "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=170)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
