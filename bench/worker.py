"""One workload process: set up, warm up, then time sweep trials in a closed loop.

``run.py`` starts this script once per measured share of a run and reads the
single JSON line it prints on stdout.  One caller drives
``stegolink.harness.iter_sweep``; the next trial starts when the previous one
returns.  With ``--trace 0`` two fixed calibration kernels run before and
after every timed trial, so ``run.py`` can adjust trial times for the host's
speed swings.  With ``--trace 1`` every other timed trial runs under the tracer and
the rest run bare, so both halves see the same machine at the same time.
"""

import time

T0 = time.perf_counter()  # set-up time starts here, before numpy and stegolink load

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402

from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"

ROUNDTRIP_LIMIT = 1e-6
RECEIVERS = ("legit", "eaves1", "eaves2", "eaves3")
PSNR_RECEIVERS = ("legit", "eaves2", "eaves3")


def row_failure(row: dict) -> str | None:
    """Why a sweep row fails the output checks, or None when it passes."""
    if row.get("error") is not None:
        return str(row["error"])
    try:
        trial = row["trial"]
        values = [float(trial[r][m]) for r in RECEIVERS for m in ("mse", "psnr_db", "ssim")]
        roundtrip = float(trial["edict_roundtrip_error"])
        values += [roundtrip, float(trial["peak"])]
    except (KeyError, TypeError, ValueError) as e:
        return f"record layout: {type(e).__name__}: {e}"
    if not all(math.isfinite(v) for v in values):
        return "non-finite metric in record"
    if not roundtrip < ROUNDTRIP_LIMIT:
        return f"edict_roundtrip_error {roundtrip:.3e} >= {ROUNDTRIP_LIMIT:g}"
    return None


def _blas_name(np) -> str:
    try:
        return str(np.show_config(mode="dicts")["Build Dependencies"]["blas"]["name"])
    except (TypeError, KeyError, AttributeError):
        return "unknown"


def make_calibration(np):
    """Two fixed kernels that track the host's speed swings.

    One is interpreter-bound: a Python loop and small numpy calls.  The other
    is array-bound: SplitMix-style uint64 mixing and a sine over 16k values,
    and a 256x464 matrix-vector product, close to the weight draws and layers
    of tiny-mlp.  Returns a function that times both, each the faster of two
    runs, in seconds.
    """
    values = np.arange(64.0)
    words = np.arange(16384, dtype=np.uint64)
    mat = np.linspace(0.0, 1.0, 256 * 464).reshape(256, 464)
    vec = np.linspace(1.0, 0.0, 464)

    def interpreter() -> float:
        t0 = time.perf_counter()
        s = 0.0
        for i in range(1500):
            s += i * 0.5
        for _ in range(40):
            s += float(np.tanh(values).sum())
        return time.perf_counter() - t0

    def arrays() -> float:
        t0 = time.perf_counter()
        with np.errstate(over="ignore"):
            z = words * np.uint64(0x9E3779B97F4A7C15)
            z = (z ^ (z >> np.uint64(30))) * np.uint64(0xBF58476D1CE4E5B9)
        u = (z >> np.uint64(11)).astype(np.float64) * 2.0 ** -53
        float(np.sin(u).sum() + np.tanh(mat @ vec).sum())
        return time.perf_counter() - t0

    return lambda: (min(interpreter(), interpreter()), min(arrays(), arrays()))


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True, help="measuring time of this process")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--trials", type=int, default=0,
                    help="time exactly this many trials instead of --seconds (smoke mode)")
    args = ap.parse_args(argv)

    sys.path.insert(0, str(SRC))
    import numpy as np
    import stegolink
    from stegolink.harness import aggregates_csv, iter_sweep, records_to_jsonl

    from workloads import pass_size, sweep_pass

    if Path(stegolink.__file__).resolve().parent != SRC / "stegolink":
        print(f"stegolink was imported from {stegolink.__file__}, not from {SRC}", file=sys.stderr)
        return 2

    attempted = failed = 0
    failures: list[str] = []
    psnr_sum = dict.fromkeys(PSNR_RECEIVERS, 0.0)
    psnr_n = 0
    pass0_rows: list[dict] = []
    kept_rows: list[dict] = []

    def check(row: dict, pass_index: int) -> None:
        nonlocal attempted, failed, psnr_n
        attempted += 1
        if pass_index == 0:
            pass0_rows.append(row)
        if args.trace:
            kept_rows.append(row)
        why = row_failure(row)
        if why is not None:
            failed += 1
            if len(failures) < 5:
                failures.append(f"pass {pass_index} point {row.get('point_index')} "
                                f"trial {row.get('trial_index')}: {why}")
            return
        for r in PSNR_RECEIVERS:
            psnr_sum[r] += row["trial"][r]["psnr_db"]
        psnr_n += 1

    pass_index = 0
    spec = sweep_pass(args.workload, args.seed, pass_index)
    left = pass_size(spec)
    it = iter_sweep(spec)

    row = next(it)  # warm-up trial, the end of set-up
    setup_s = time.perf_counter() - T0
    left -= 1
    check(row, pass_index)

    tracer = None
    if args.trace:
        from tracer import Tracer
        tracer = Tracer()

    calibrate = make_calibration(np)
    cal_s: list[float] = []
    timed_s: list[float] = []
    traced_s: list[float] = []
    deadline = time.perf_counter() + args.seconds
    while True:
        if left == 0:
            pass_index += 1
            spec = sweep_pass(args.workload, args.seed, pass_index)
            left = pass_size(spec)
            it = iter_sweep(spec)
        if tracer is None:
            cal_s.append(calibrate())
        if tracer is not None and len(traced_s) <= len(timed_s):
            row, dt = tracer.trial(lambda: next(it))
            traced_s.append(dt)
        else:
            t0 = time.perf_counter()
            row = next(it)
            dt = time.perf_counter() - t0
            timed_s.append(dt)
        left -= 1
        check(row, pass_index)
        done = len(timed_s) + len(traced_s)
        if args.trials:
            if done >= args.trials:
                break
        elif time.perf_counter() >= deadline and (pass_index > 0 or left == 0):
            break  # pass 0 always completes, so its digest covers a fixed record set
    if tracer is None:
        cal_s.append(calibrate())

    jsonl = records_to_jsonl(pass0_rows)
    out = {
        "setup_s": setup_s,
        "trial_s": timed_s,
        "cal_s": cal_s,
        "attempted": attempted,
        "failed": failed,
        "failures": failures,
        "psnr_sum": psnr_sum,
        "psnr_n": psnr_n,
        "pass0_rows": len(pass0_rows),
        "pass0_complete": pass_index > 0 or left == 0,
        "pass0_sha256": hashlib.sha256(jsonl.encode("utf-8")).hexdigest(),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "env": {"python": platform.python_version(), "numpy": np.__version__, "blas": _blas_name(np)},
    }
    if tracer is not None:
        t0 = time.perf_counter()
        records_to_jsonl(kept_rows)
        aggregates_csv(kept_rows)
        out["export_s"] = time.perf_counter() - t0
        out["export_rows"] = len(kept_rows)
        out["traced_s"] = traced_s
        out["trace"] = tracer.summary()
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
