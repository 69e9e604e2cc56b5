"""stegolink benchmark: closed-loop sweep throughput, traced per module from outside.

    python3 bench/run.py --workload sweep-mlp16 --seed 1 --seconds 30 --trace 0

One caller drives ``stegolink.harness.iter_sweep`` and starts each trial when
the previous one returns.  A run is split over ``PROCESSES`` fresh workload
processes started one after another; each sets up once, runs one warm-up
trial and then times trials for its share of ``--seconds``.  ``--trace 0``
reports the end-to-end metrics, ``--trace 1`` the per-layer metrics from the
outside-in tracer.  ``--workload all`` runs every workload in turn, and
``--smoke`` times two trials in one process instead of ``--seconds``.

Human-readable lines go to stdout first; the last stdout line is one JSON
object with the keys correct, attempted, failed and metrics.  The program is
built from ``src/`` next to this directory; without it the benchmark exits
with code 2 and prints no result.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time

from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

sys.path.insert(0, str(HERE))
from workloads import NAMES  # noqa: E402

PROCESSES = 3               # workload processes per run; setup_s is their median
SMOKE_TRIALS = 2            # timed trials of the single smoke process
BLAS_THREADS = 1            # pinned, and never above the cores available
TIME_LIMIT_S = 170.0        # one workload's run ends within this, or fails
CAL_REF_MS = (0.2, 0.33)    # kernel times the trials are adjusted to, about their medians here
MIN_FIT_TRIALS = 60         # fewer timed trials than this are reported as measured
TAIL_BEYOND = 10            # samples the tail percentile must leave above it

BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS", "BLIS_NUM_THREADS",
            "VECLIB_MAXIMUM_THREADS")

END_TO_END_UNITS = {"trials_per_s": "1/s", "trial_ms_p50": "ms", "trial_ms_tail": "ms",
                    "setup_s": "s", "peak_rss_mb": "MB"}

# per-layer metric -> unit
PER_LAYER_UNITS = {
    "predictor.constructions_per_trial": "count",
    "predictor.weight_builds_per_trial": "count",
    "predictor.weight_distinct_frac": "frac",
    "predictor.weights_ms_per_trial": "ms",
    "predictor.calls_per_trial": "count",
    "predictor.us_per_call": "us",
    "predictor.self_ms_per_trial": "ms",
    "rng.gaussian_values_per_trial": "count",
    "rng.self_ms_per_trial": "ms",
    "schedule.builds_per_trial": "count",
    "schedule.self_ms_per_trial": "ms",
    "edict.passes_per_trial": "count",
    "edict.self_ms_per_trial": "ms",
    "reference.generations_per_trial": "count",
    "reference.distinct_frac": "frac",
    "reference.self_ms_per_trial": "ms",
    "tokenkey.masks_per_trial": "count",
    "tokenkey.self_ms_per_trial": "ms",
    "channel.symbols_per_trial": "count",
    "channel.self_ms_per_trial": "ms",
    "metrics.self_ms_per_trial": "ms",
    "pipeline.self_ms_per_trial": "ms",
    "pipeline.conditions_ms": "ms",
    "pipeline.hide_ms": "ms",
    "pipeline.reveal_legit_ms": "ms",
    "pipeline.reveal_e2_ms": "ms",
    "pipeline.reveal_e3_ms": "ms",
    "pipeline.reveal_roundtrip_ms": "ms",
    "harness.self_ms_per_trial": "ms",
    "harness.export_ms": "ms",
    "trace.overhead_frac": "frac",
    "trace.coverage_frac": "frac",
}

LAYERS = ("rng", "schedule", "predictor", "edict", "tokenkey", "reference", "channel", "metrics",
          "pipeline", "harness")


class BenchError(RuntimeError):
    """A workload process failed to produce its measurements."""


def _cores() -> int:
    return len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else (os.cpu_count() or 1)


def _run_worker(workload: str, seed: int, seconds: float, trace: int, trials: int, deadline: float) -> dict:
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", repr(seconds), "--trace", str(trace), "--trials", str(trials)]
    env = dict(os.environ)
    env.update(dict.fromkeys(BLAS_ENV, str(min(BLAS_THREADS, _cores()))))
    env.pop("PYTHONPATH", None)  # the worker imports stegolink from src/ only
    remaining = deadline - time.monotonic()
    if remaining <= 0:
        raise BenchError(f"{workload}: no time left for another workload process")
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True,
                              timeout=remaining)
    except subprocess.TimeoutExpired as e:  # subprocess.run has killed and reaped it
        raise BenchError(f"{workload}: workload process exceeded the {TIME_LIMIT_S:.0f} s limit") from e
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError(f"{workload}: workload process exited with code {proc.returncode}")
    return json.loads(lines[-1])


def _tail(samples_ms: list[float]) -> tuple[float, float, int]:
    """Highest percentile with TAIL_BEYOND samples above it, never below the median.

    Returns (value, percentile, samples beyond it).
    """
    ordered = sorted(samples_ms)
    n = len(ordered)
    if n < 2 * TAIL_BEYOND:
        median = statistics.median(ordered)
        return median, 50.0, sum(1 for x in ordered if x > median)
    return ordered[n - TAIL_BEYOND - 1], 100.0 * (n - TAIL_BEYOND) / n, TAIL_BEYOND


def _checks(workload: str, parts: list[dict], smoke: bool) -> tuple[bool, list[str]]:
    """Pooled output checks; returns (correct, report lines)."""
    lines = []
    attempted = sum(p["attempted"] for p in parts)
    failed = sum(p["failed"] for p in parts)
    correct = failed == 0
    lines.append(f"checks: attempted={attempted} failed={failed} failed_frac={failed / attempted:.4g}")
    for p in parts:
        lines.extend(f"  FAILED {msg}" for msg in p["failures"])

    n = sum(p["psnr_n"] for p in parts)
    if n:
        mean = {r: sum(p["psnr_sum"][r] for p in parts) / n for r in ("legit", "eaves2", "eaves3")}
        ordered = mean["legit"] > mean["eaves3"] > mean["eaves2"]
        correct = correct and ordered
        lines.append(f"mean psnr over {n} trials: legit {mean['legit']:.2f} > E3 {mean['eaves3']:.2f} "
                     f"> E2 {mean['eaves2']:.2f} dB: {'ok' if ordered else 'VIOLATED'}")
    else:
        correct = False
        lines.append("mean psnr: no trial passed its checks")

    digests = {p["pass0_sha256"] for p in parts}
    rows = parts[0]["pass0_rows"]
    if smoke:
        lines.append(f"records.jsonl sha256 of the first {rows} pass-0 rows (smoke): {digests.pop()}")
    else:
        complete = all(p["pass0_complete"] for p in parts)
        agree = len(digests) == 1 and complete
        correct = correct and agree
        lines.append(f"records.jsonl sha256 (pass 0, {rows} rows, {workload}): {sorted(digests)[0]}")
        lines.append(f"  byte-identical across {len(parts)} workload processes: {'yes' if agree else 'NO'}")
    return correct, lines


def _speed_adjusted(parts: list[dict]) -> tuple[list[list[float]], list[float]]:
    """Each process's timed trials in ms, moved to the reference machine speed.

    The host's speed swings by up to 2x over seconds, in lockstep with two
    fixed calibration kernels that the worker times before and after every
    trial.  Trial time is regressed on the kernel times (the mean of the two
    measurements around the trial) over the whole run, and each trial is moved
    along that plane to the kernel times CAL_REF_MS.  Work the swings do not
    slow gets slopes near 0 and stays as measured.  A run with fewer than
    MIN_FIT_TRIALS timed trials is left as measured, because slopes fitted to
    so few points add more spread than they remove.  Returns the adjusted
    times and the slopes (ms of trial per ms of kernel).
    """
    rows = [[(t * 1000.0, *((a + b) * 500.0 for a, b in zip(p["cal_s"][i], p["cal_s"][i + 1])))
             for i, t in enumerate(p["trial_s"])] for p in parts]
    flat = np.array([r for rs in rows for r in rs])
    slopes = np.zeros(len(CAL_REF_MS))
    if len(flat) >= MIN_FIT_TRIALS:
        kernels = flat[:, 1:] - flat[:, 1:].mean(axis=0)
        slopes = np.linalg.lstsq(kernels, flat[:, 0] - flat[:, 0].mean(), rcond=None)[0]
    ref = np.array(CAL_REF_MS)
    return [[float(r[0] - slopes @ (np.array(r[1:]) - ref)) for r in rs] for rs in rows], slopes.tolist()


def _end_to_end(parts: list[dict]) -> tuple[dict, list[str]]:
    adjusted, slopes = _speed_adjusted(parts)
    samples_ms = [t for ts in adjusted for t in ts]
    raw_ms = [t * 1000.0 for p in parts for t in p["trial_s"]]
    tails = [_tail(ts) for ts in adjusted]
    n = len(samples_ms)
    values = {
        "trials_per_s": n / (sum(samples_ms) / 1000.0),
        "trial_ms_p50": statistics.median(samples_ms),
        "trial_ms_tail": max(statistics.median(t[0] for t in tails), statistics.median(samples_ms)),
        "setup_s": statistics.median(p["setup_s"] for p in parts),
        "peak_rss_mb": max(p["peak_rss_mb"] for p in parts),
    }
    raw_tail = statistics.median(_tail([t * 1000.0 for t in p["trial_s"]])[0] for p in parts)
    notes = {
        "trials_per_s": f"{n} timed trials; as measured {n / (sum(raw_ms) / 1000.0):.6g}",
        "trial_ms_p50": f"median of {n} trials; as measured {statistics.median(raw_ms):.6g}",
        "trial_ms_tail": "never below the p50; else the median over processes of " + ", ".join(
            f"p{pct:.4g} of {len(ts)} ({beyond} beyond)" for (_, pct, beyond), ts in zip(tails, adjusted))
        + f"; as measured {raw_tail:.6g}",
        "setup_s": "median over processes of " + ", ".join(f"{p['setup_s']:.4f}" for p in parts),
        "peak_rss_mb": "max over processes",
    }
    lines = []
    for k, (name, ref, slope) in enumerate(zip(("interpreter", "array"), CAL_REF_MS, slopes)):
        cal_ms = [c[k] * 1000.0 for p in parts for c in p["cal_s"]]
        lines.append(f"speed adjustment, {name} kernel: {min(cal_ms):.4f}..{max(cal_ms):.4f} ms "
                     f"(median {statistics.median(cal_ms):.4f}), reference {ref} ms, "
                     f"slope {slope:.4g} ms of trial per ms of kernel")
    lines += [f"{k:<36} {v:>14.6g} {END_TO_END_UNITS[k]:<6} {notes[k]}" for k, v in values.items()]
    return values, lines


def _per_layer(parts: list[dict]) -> tuple[dict, list[str]]:
    stats: dict[str, list] = {}
    for p in parts:
        for key, st in p["trace"]["stats"].items():
            acc = stats.setdefault(key, [0, 0.0, 0.0, 0])
            for i in range(4):
                acc[i] += st[i]
    trials = sum(p["trace"]["trials"] for p in parts)
    wall = sum(p["trace"]["wall_s"] for p in parts)
    root_self = sum(p["trace"]["root_self_s"] for p in parts)
    absent = sorted({name for p in parts for name in p["trace"]["absent"]})

    def span(key):  # [calls, inclusive s, self s, work units]
        return stats.get(key, (0, 0.0, 0.0, 0))

    def calls(*keys):
        return sum(span(k)[0] for k in keys) / trials

    def incl_ms(key):
        return span(key)[1] * 1000.0 / trials

    layer_self = dict.fromkeys(LAYERS, 0.0)
    for key, st in stats.items():
        layer = key.split(".", 1)[0]
        layer_self[layer] = layer_self.get(layer, 0.0) + st[2]
    layer_self["harness"] += root_self

    def self_ms(layer):
        return layer_self[layer] * 1000.0 / trials

    builds = span("predictor.weights_for:build")[0]
    weight_sets = {w for p in parts for w in p["trace"]["weight_sets"]}
    generations = span("reference.generate_reference")[0]
    references = {r for p in parts for r in p["trace"]["reference_inputs"]}
    predict = span("predictor.predict")
    traced = [s for p in parts for s in p["traced_s"]]
    bare = [s for p in parts for s in p["trial_s"]]

    values = {
        "predictor.constructions_per_trial": calls("predictor.__init__"),
        "predictor.weight_builds_per_trial": calls("predictor.weights_for:build"),
        "predictor.weight_distinct_frac": len(weight_sets) / builds if builds else 0.0,
        "predictor.weights_ms_per_trial": incl_ms("predictor.weights_for:build"),
        "predictor.calls_per_trial": calls("predictor.predict"),
        "predictor.us_per_call": predict[2] * 1e6 / predict[0] if predict[0] else 0.0,
        "predictor.self_ms_per_trial": self_ms("predictor"),
        "rng.gaussian_values_per_trial": span("rng.gaussian_stream")[3] / trials,
        "rng.self_ms_per_trial": self_ms("rng"),
        "schedule.builds_per_trial": calls("schedule.build_schedule"),
        "schedule.self_ms_per_trial": self_ms("schedule"),
        "edict.passes_per_trial": calls("edict.edict_forward", "edict.edict_reverse", "edict.ddim_sample"),
        "edict.self_ms_per_trial": self_ms("edict"),
        "reference.generations_per_trial": calls("reference.generate_reference"),
        "reference.distinct_frac": len(references) / generations if generations else 0.0,
        "reference.self_ms_per_trial": self_ms("reference"),
        "tokenkey.masks_per_trial": calls("tokenkey.build_mask"),
        "tokenkey.self_ms_per_trial": self_ms("tokenkey"),
        "channel.symbols_per_trial": span("channel.transmit")[3] / trials,
        "channel.self_ms_per_trial": self_ms("channel"),
        "metrics.self_ms_per_trial": self_ms("metrics"),
        "pipeline.self_ms_per_trial": self_ms("pipeline"),
        "pipeline.conditions_ms": incl_ms("pipeline.build_conditions"),
        "pipeline.hide_ms": incl_ms("pipeline.hide"),
        "pipeline.reveal_legit_ms": incl_ms("pipeline.reveal:legit"),
        "pipeline.reveal_e2_ms": incl_ms("pipeline.eavesdrop:E2"),
        "pipeline.reveal_e3_ms": incl_ms("pipeline.eavesdrop:E3"),
        "pipeline.reveal_roundtrip_ms": incl_ms("pipeline.reveal:roundtrip"),
        "harness.self_ms_per_trial": self_ms("harness"),
        "harness.export_ms": sum(p["export_s"] for p in parts) * 1000.0,
        "trace.overhead_frac": statistics.median(traced) / statistics.median(bare) - 1.0,
        "trace.coverage_frac": 1.0 - root_self / wall,
    }
    lines = [f"traced trials: {trials} (interleaved with {len(bare)} bare trials); "
             f"export over {sum(p['export_rows'] for p in parts)} records"]
    if absent:
        lines.append("absent (not traced in this tree): " + ", ".join(absent))
    lines += [f"{k:<36} {v:>14.6g} {PER_LAYER_UNITS[k]}" for k, v in values.items()]
    return values, lines


def run_workload(workload: str, seed: int, seconds: float, trace: int, smoke: bool,
                 deadline: float) -> tuple[dict, list[str]]:
    processes = 1 if smoke else PROCESSES
    trials = SMOKE_TRIALS if smoke else 0
    parts = [_run_worker(workload, seed, seconds / processes, trace, trials, deadline)
             for _ in range(processes)]
    env = parts[0]["env"]
    lines = [f"== {workload}  seed={seed} seconds={seconds:g} trace={trace} "
             f"{'smoke ' if smoke else ''}processes={processes}",
             f"env: python={env['python']} numpy={env['numpy']} blas={env['blas']} "
             f"blas_threads={min(BLAS_THREADS, _cores())} nproc={_cores()} "
             f"machine={platform.machine()} seed={seed}"]
    correct, check_lines = _checks(workload, parts, smoke)
    lines += check_lines
    values, metric_lines = (_per_layer if trace else _end_to_end)(parts)
    lines += metric_lines
    units = PER_LAYER_UNITS if trace else END_TO_END_UNITS
    result = {
        "correct": correct,
        "attempted": sum(p["attempted"] for p in parts),
        "failed": sum(p["failed"] for p in parts),
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in values.items()},
    }
    return result, lines


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=(*NAMES, "all"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=30.0, help="measuring time of one run")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true", help=f"time {SMOKE_TRIALS} trials in one process")
    args = ap.parse_args(argv)
    if args.seconds <= 0:
        ap.error("--seconds must be positive")
    if not (ROOT / "src" / "stegolink" / "__init__.py").is_file():
        print(f"bench: no stegolink sources under {ROOT / 'src'}; nothing to measure", file=sys.stderr)
        return 2

    workloads = NAMES if args.workload == "all" else (args.workload,)
    results = {}
    try:
        for workload in workloads:
            deadline = time.monotonic() + TIME_LIMIT_S
            result, lines = run_workload(workload, args.seed, args.seconds, args.trace, args.smoke, deadline)
            print("\n".join(lines), flush=True)
            results[workload] = result
    except BenchError as e:
        print(f"bench: {e}", file=sys.stderr)
        return 1

    if len(results) == 1:
        final = results[workloads[0]]
    else:
        final = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{w}/{k}": m for w, r in results.items() for k, m in r["metrics"].items()},
        }
    print(json.dumps(final))
    return 0


if __name__ == "__main__":
    sys.exit(main())
