"""Command-line interface: run one trial, sweep a grid, export plot tables.

Exit codes: 0 success, 1 runtime failure, 2 invalid configuration or flags.
"""

from __future__ import annotations

import argparse
import hashlib
import io
import json
import os
import platform
import sys
import time

from dataclasses import fields, replace

import numpy as np

from . import __version__, acceptance
from .harness import (ConfigError, EXPORT_KINDS, SweepSpec, _cpus, aggregates_csv, export_plot_data,
                      iter_sweep, load_records, parse_config, records_to_jsonl, sweep_work)
from .pipeline import RECEIVERS, PipelineConfig, check_secret, make_secret, run_trial
from .predictor import PREDICTOR_KINDS
from .rng import derive


def _shape(text: str) -> tuple[int, ...]:
    try:  # argparse names --shape in the error; PipelineConfig checks the values
        return tuple(int(s) for s in text.split(","))
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected C,H,W integers, got {text!r}") from None


def _add_run_flags(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--config", help="JSON config file (flags override it)")
    sub.add_argument("--token", help="secret token string")
    sub.add_argument("--snr-db", type=float, dest="snr_db")
    sub.add_argument("--eta", type=float, help="perturbation mask density")
    sub.add_argument("--steps", type=int, help="schedule length T")
    sub.add_argument("--mixing-p", type=float, dest="mixing_p")
    sub.add_argument("--edit-strength", type=float, dest="edit_strength")
    sub.add_argument("--lambda", type=float, dest="guidance_weight", help="guidance weight in [0, 1]")
    sub.add_argument("--predictor", choices=PREDICTOR_KINDS, dest="predictor_kind")
    sub.add_argument("--seed", type=int, help="trial seed (drives secret and channel noise)")
    sub.add_argument("--shape", type=_shape, help="latent shape as C,H,W")
    sub.add_argument("--noiseless", action="store_true", default=None)
    sub.add_argument("--scenario", choices=("all", *(r.name for r in RECEIVERS)), default="all",
                     help="which receiver to report on stdout")
    sub.add_argument("--secret-npy", dest="secret_npy", help="load the secret grid from a .npy file")
    sub.add_argument("--out", help="write the trial record as JSON to this path")


def _run_config(args: argparse.Namespace) -> PipelineConfig:
    if args.config:
        cfg = parse_config(args.config)
        if isinstance(cfg, SweepSpec):
            raise ConfigError("'run' expects a single-trial config, not a sweep file")
    else:
        cfg = PipelineConfig()
    # each field's flag has the field's name as its dest
    overrides = {f.name: getattr(args, f.name) for f in fields(PipelineConfig)
                 if getattr(args, f.name, None) is not None}
    try:
        if args.seed is not None:
            overrides["secret_seed"] = args.seed
            overrides["noise_seed"] = derive(args.seed, "noise")  # derive checks the seed
        return replace(cfg, **overrides)
    except ValueError as e:
        raise ConfigError(str(e)) from e


def _load_secret(path: str, shape: tuple[int, ...]) -> tuple[np.ndarray, str]:
    """Read a secret grid from a .npy file; returns it and the file's SHA-256.

    Bad content names the secret_npy field.
    """
    try:
        with open(path, "rb") as fh:
            data = fh.read()
        secret = np.lib.format.read_array(io.BytesIO(data), allow_pickle=False)
    except (OSError, ValueError) as e:
        raise ConfigError(f"secret_npy: cannot load {path!r} as a .npy array: {e}") from e
    if secret.dtype.kind not in "iuf":
        raise ConfigError(f"secret_npy: dtype {secret.dtype} is not a real number type")
    try:
        secret, _ = check_secret(secret, shape)
    except ValueError as e:
        raise ConfigError(f"secret_npy: {e}") from e
    return secret, hashlib.sha256(data).hexdigest()


def _check_out_file(path: str, *inputs: str | None) -> None:
    """Reject an --out file path that cannot be written or is one of inputs, before any work runs."""
    if os.path.isdir(path):
        raise ConfigError(f"out: {path!r} is a directory")
    parent = os.path.dirname(path) or "."
    if not os.path.isdir(parent):
        raise ConfigError(f"out: directory {parent!r} does not exist")
    for source in filter(None, inputs):
        if os.path.exists(path) and os.path.exists(source) and os.path.samefile(path, source):
            raise ConfigError(f"out: {path!r} is the same file as the input {source!r}")


def _write_out(path: str, text: str) -> None:
    try:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
    except OSError as e:
        raise ConfigError(f"out: cannot write {path!r}: {e.strerror or e}") from e


def _cmd_run(args: argparse.Namespace) -> int:
    cfg = _run_config(args)
    if args.out:
        _check_out_file(args.out, args.config, args.secret_npy)
    if args.secret_npy:
        secret, sha256 = _load_secret(args.secret_npy, cfg.shape)
        source = {"npy": args.secret_npy, "sha256": sha256}
    else:
        secret = make_secret(cfg.secret_seed, cfg.shape)
        source = {"make_secret": cfg.secret_seed}
    record = run_trial(secret, cfg)
    # the record plus where its secret came from, so it can be replayed
    payload = json.dumps({**record.to_dict(), "secret": source}, sort_keys=True, indent=2)
    if args.out:
        _write_out(args.out, payload + "\n")
    for receiver in RECEIVERS:
        if args.scenario in ("all", receiver.name):
            report = record.reports[receiver.key]
            print(f"{receiver.name:>5}: psnr {report.psnr_db:8.3f} dB   mse {report.mse:.6e}   "
                  f"ssim {report.ssim:8.5f}")
    print(f"round-trip max err {record.edict_roundtrip_error:.3e}   peak {record.peak:.4f}")
    if args.out:
        print(f"record written to {args.out}")
    return 0


def _environment(helper: bool) -> dict:
    """The software and CPU a sweep ran on; none of it enters records.jsonl."""
    numpy_config = np.show_config(mode="dicts")
    return {
        "stegolink": __version__,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": numpy_config["Build Dependencies"]["blas"].get("name"),
        "cpu_features": {k: numpy_config["SIMD Extensions"].get(k) for k in ("baseline", "found")},
        "cpus": _cpus(),
        "helper": helper,
    }


def _cmd_sweep(args: argparse.Namespace) -> int:
    spec = parse_config(args.config)
    if isinstance(spec, PipelineConfig):
        raise ConfigError("'sweep' expects a sweep config with an 'axes' object")
    try:
        os.makedirs(args.out, exist_ok=True)
    except OSError as e:
        raise ConfigError(f"out: cannot use {args.out!r} as the output directory: {e.strerror or e}") from e
    records_path = os.path.join(args.out, "records.jsonl")
    aggregates_path = os.path.join(args.out, "aggregates.csv")
    environment_path = os.path.join(args.out, "environment.json")
    for path in (records_path, aggregates_path, environment_path):
        _check_out_file(path, args.config)  # before any trial runs
    records = []
    total = len(spec.points()) * spec.trials_per_point
    before = sweep_work()
    start = last_report = time.perf_counter()
    with open(records_path, "w", encoding="utf-8") as fh:
        for row in iter_sweep(spec):
            fh.write(records_to_jsonl([row]))
            records.append(row)
            if row["error"] is not None:
                print(f"point {row['point_index']} trial {row['trial_index']} failed: {row['error']}",
                      file=sys.stderr)
            now = time.perf_counter()
            if now - last_report >= 1.0 and len(records) < total:
                last_report = now
                rate = len(records) / (now - start)
                print(f"sweep: {len(records)}/{total} trials, {rate:.2f} trials/s, "
                      f"ETA {(total - len(records)) / rate:.0f} s", file=sys.stderr, flush=True)
    elapsed = time.perf_counter() - start
    work = {k: n - before[k] for k, n in sweep_work().items()}
    print(f"sweep: done {len(records)}/{total} trials in {elapsed:.1f} s "
          f"({len(records) / elapsed:.2f} trials/s), {work['links']} links built, "
          f"{work['references']} references generated, {work['models']} models built, "
          f"{work['noisings']} noising passes run, {work['stegos']} stegos hidden", file=sys.stderr)
    with open(aggregates_path, "w", encoding="utf-8") as fh:
        fh.write(aggregates_csv(records))
    with open(environment_path, "w", encoding="utf-8") as fh:
        fh.write(json.dumps(_environment(work["helper_rows"] > 0), indent=2, sort_keys=True) + "\n")
    failures = sum(1 for row in records if row["error"] is not None)
    print(f"{len(records)} trials ({failures} failed) -> {records_path}, {aggregates_path}, {environment_path}")
    return 0


def _cmd_export(args: argparse.Namespace) -> int:
    if args.out:
        _check_out_file(args.out, args.records)
    records = load_records(args.records)
    table = export_plot_data(records, args.kind)
    if args.out:
        _write_out(args.out, table)
        print(f"{args.kind} table written to {args.out}")
    else:
        sys.stdout.write(table)
    return 0


def _cmd_selftest(_args: argparse.Namespace) -> int:
    ok = True
    for criterion in acceptance.CRITERIA:
        check = criterion()
        print(check.line(), flush=True)
        ok = ok and check.ok
    return 0 if ok else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="stegolink",
                                     description="Token-keyed invertible-diffusion steganography simulator")
    sub = parser.add_subparsers(dest="command", required=True)

    run_p = sub.add_parser("run", help="run a single hide/transmit/recover trial")
    _add_run_flags(run_p)
    run_p.set_defaults(func=_cmd_run)

    sweep_p = sub.add_parser("sweep", help="run a deterministic sweep from a sweep config")
    sweep_p.add_argument("--config", required=True, help="sweep JSON file with base/axes/trials_per_point")
    sweep_p.add_argument("--out", default=".", help="output directory for records.jsonl and aggregates.csv")
    sweep_p.set_defaults(func=_cmd_sweep)

    export_p = sub.add_parser("export", help="render recorded trials into a plot-ready CSV")
    export_p.add_argument("--records", required=True, help="records.jsonl produced by sweep")
    export_p.add_argument("--kind", required=True, choices=EXPORT_KINDS)
    export_p.add_argument("--out", help="output CSV path (stdout when omitted)")
    export_p.set_defaults(func=_cmd_export)

    selftest_p = sub.add_parser("selftest", help="run the acceptance battery")
    selftest_p.set_defaults(func=_cmd_selftest)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as e:
        print(f"config error: {e}", file=sys.stderr)
        return 2
    except Exception as e:  # noqa: BLE001 - single CLI boundary
        print(f"runtime error: {type(e).__name__}: {e}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
