"""Config parsing, deterministic sweeps, and plot-data export.

Configs are flat JSON objects mirroring PipelineConfig, and sweep files
mirror SweepSpec, defaults included: a base config, named axis lists, a trial
count and a base seed.  Any config field with scalar values (``_is_scalar``)
is an axis.  Every trial seeds its secret and its channel noise from a hash
of (base_seed, point index, trial index), unless its point sets that seed, so
a sweep is a pure function of its spec: running it twice yields
byte-identical records and exported tables.

A sweep runs on two processes.  Every other trial goes to one persistent
helper process, forked from the caller when the first sweep reaches its
second trial, so the helper starts with the caller's warm keyed-object
caches.  The caller runs trial k while the helper runs trial k + 1, and rows
are yielded in order.  Both run the same row function (``_sweep_row``), and
each row is a pure function of its spec, point and indices, so no record
depends on where it ran.  The helper is used only where the process may run
on at least two CPUs, ``os.fork`` exists, the caller is not a daemonic
``multiprocessing`` process and has no other Python thread; elsewhere, or
once a fork fails, the sweep runs in-process.  ``taskset -c 0 ...`` runs a
sweep in-process.

The helper reads pickled jobs from one pipe and writes pickled rows to
another; at most one job is in flight.  It ignores SIGINT, exits on end of
file, and holds no copy of the caller's job pipe, so it exits when the
caller does, however the caller ends.  A helper that dies loses only its
job in flight, which the caller then runs itself.  ``close_helper`` (also
run at exit) kills and reaps it.
"""

from __future__ import annotations

import atexit
import csv
import gc
import io
import itertools
import json
import os
import pickle
import signal
import sys
import threading

from dataclasses import dataclass, fields, replace

import numpy as np

from .metrics import MetricsReport
from .pipeline import _KIND_CHECKS, BUILD_CACHES, RECEIVERS, PipelineConfig, _check_kinds, make_secret, run_trial
from .rng import derive, hash_token

_RECORD_KEYS = tuple(receiver.key for receiver in RECEIVERS)  # one report per receiver
METRIC_NAMES = tuple(f.name for f in fields(MetricsReport))
_is_number = _KIND_CHECKS["float"][0]  # the config's "float" kind


class ConfigError(ValueError):
    """A config file failed validation; the message names the field."""


def _is_scalar(value) -> bool:
    # an axis value load_records can read back: no JSON array or object
    return not isinstance(value, (dict, list, tuple))


@dataclass(frozen=True)
class SweepSpec:
    base: PipelineConfig
    axes: dict[str, list]
    trials_per_point: int = 1
    base_seed: str = "sweep"

    def __post_init__(self):
        if not isinstance(self.axes, dict):
            raise ConfigError("axes: must be an object mapping config fields to value lists")
        if not self.axes:
            raise ConfigError("axes: at least one axis is required")
        for name, values in self.axes.items():
            if name not in {f.name for f in fields(PipelineConfig)}:
                raise ConfigError(f"axes.{name}: not a config field")
            if not isinstance(values, (list, tuple)) or len(values) == 0:
                raise ConfigError(f"axes.{name}: must be a non-empty list")
            for value in values:
                if not _is_scalar(value):
                    raise ConfigError(f"axes.{name}: bad value {value!r}: not a scalar")
                try:
                    replace(self.base, **{name: value})
                except ValueError as e:
                    raise ConfigError(f"axes.{name}: bad value {value!r}: {e}") from e
        _check_kinds(self, ConfigError)
        if self.trials_per_point < 1:
            raise ConfigError("trials_per_point: must be an integer >= 1")

    def points(self) -> list[dict]:
        names = list(self.axes)
        return [dict(zip(names, combo)) for combo in itertools.product(*(self.axes[n] for n in names))]


def parse_config(path: str):
    """Load a JSON config file into a PipelineConfig or a SweepSpec.

    A file that cannot be read as UTF-8 text raises ConfigError naming config.
    """
    try:
        with open(path, "r", encoding="utf-8") as fh:
            data = json.load(fh)
    except OSError as e:
        raise ConfigError(f"config: cannot read {path!r}: {e.strerror or e}") from e
    except UnicodeDecodeError as e:
        raise ConfigError(f"config: {path!r} is not UTF-8 text: {e}") from e
    except json.JSONDecodeError as e:
        raise ConfigError(f"not valid JSON: {e}") from e
    if not isinstance(data, dict):
        raise ConfigError("top level must be a JSON object")
    if "axes" in data or "base" in data:
        unknown = set(data) - {f.name for f in fields(SweepSpec)}
        if unknown:
            raise ConfigError(f"unknown sweep field(s): {', '.join(sorted(unknown))}")
        try:
            base = PipelineConfig.from_dict(data.get("base", {}))
        except (TypeError, ValueError) as e:
            raise ConfigError(f"base: {e}") from e
        return SweepSpec(**{"axes": {}, **data, "base": base})
    try:
        return PipelineConfig.from_dict(data)
    except (TypeError, ValueError) as e:
        raise ConfigError(str(e)) from e


# -- sweep execution ----------------------------------------------------------

def _trial_config(spec: SweepSpec, point: dict, point_index: int, trial_index: int) -> PipelineConfig:
    trial_seed = hash_token(f"{spec.base_seed}|{point_index}|{trial_index}", "trial")
    seeds = {name: derive(trial_seed, label).value  # a seed the point sets wins over derivation
             for name, label in (("noise_seed", "noise"), ("secret_seed", "secret")) if name not in point}
    return replace(spec.base, **point, **seeds)


def _sweep_row(spec: SweepSpec, point: dict, point_index: int, trial_index: int) -> dict:
    """One sweep row: the trial's record, or an error row naming the failure."""
    row = {"point_index": point_index, "trial_index": trial_index, "axes": dict(point)}
    try:
        cfg = _trial_config(spec, point, point_index, trial_index)
        secret = make_secret(cfg.secret_seed, cfg.shape)
        record = run_trial(secret, cfg)
        row["trial"] = record.to_dict()
        row["error"] = None
    except Exception as e:  # noqa: BLE001 - error rows are part of the contract
        row["trial"] = None
        row["error"] = f"{type(e).__name__}: {e}"
    return row


def iter_sweep(spec: SweepSpec):
    """Yield one record dict per trial, in deterministic order.

    A failing trial yields an error row instead of aborting the sweep.
    Trials share links, models and condition sets through the pipeline's
    caches (see KeyedLink); no record depends on what they hold.  Every other
    trial runs in the helper process (see the module docstring); a sweep
    abandoned part-way leaves at most one job there, which the next job
    sent discards.
    """
    jobs = [(point, point_index, trial_index) for point_index, point in enumerate(spec.points())
            for trial_index in range(spec.trials_per_point)]
    away = None  # (job index, helper, ticket) of the job the helper runs
    for k, job in enumerate(jobs):
        row = None
        if away is not None and away[0] == k:
            row = away[1].result(away[2])
            away, ahead = None, k + 2  # the caller runs k + 1 itself
        else:
            ahead = k + 1
        if away is None and ahead < len(jobs) and (k > 0 or _live is not None):
            helper = _helper()
            ticket = helper.submit((spec, *jobs[ahead])) if helper is not None else None
            if ticket is not None:
                away = ahead, helper, ticket
        yield row if row is not None else _sweep_row(spec, *job)


def run_sweep(spec: SweepSpec) -> list[dict]:
    return list(iter_sweep(spec))


# -- the helper process -------------------------------------------------------

_live = None  # this process's helper, or None
_helper_work = dict.fromkeys([*BUILD_CACHES, "helper_rows"], 0)  # of all its helpers so far


def _misses() -> tuple[int, ...]:
    return tuple(cache.cache_info().misses for cache in BUILD_CACHES.values())


def _write_all(fd: int, data: bytes) -> None:
    view = memoryview(data)
    while view:
        view = view[os.write(fd, view):]


def _serve(jobs, rows_fd: int) -> None:
    """The helper's loop: run each job's row, reply with it and what it built."""
    while True:
        try:
            job = pickle.load(jobs)
        except EOFError:  # the caller closed its end or exited
            return
        before = _misses()
        row = _sweep_row(*job)
        built = tuple(after - b for after, b in zip(_misses(), before))
        _write_all(rows_fd, pickle.dumps((row, built), pickle.HIGHEST_PROTOCOL))


class _Helper:
    """A forked process that runs the sweep rows sent to it, one at a time."""

    def __init__(self):
        job_r, job_w = os.pipe()
        row_r, row_w = os.pipe()
        try:
            pid = os.fork()
        except OSError:
            for fd in (job_r, job_w, row_r, row_w):
                os.close(fd)
            raise
        if pid == 0:
            try:
                os.close(job_w)  # so the caller's exit ends the helper's input
                os.close(row_r)
                signal.signal(signal.SIGINT, signal.SIG_IGN)  # the caller handles interrupts
                gc.freeze()  # never finalize the caller's objects here
                _serve(os.fdopen(job_r, "rb"), row_w)
            finally:
                os._exit(0)  # no atexit handlers, no flush of the caller's buffers
        os.close(job_r)
        os.close(row_w)
        self.pid = pid
        self.jobs = job_w
        self.rows = os.fdopen(row_r, "rb")
        self.ticket = 0  # of the last job sent
        self.pending = False  # whether its row is still to be read
        self.closed = False

    def submit(self, job: tuple) -> int | None:
        """Send a job; returns its ticket, or None if the helper has died.

        A job still in flight is discarded first.
        """
        if self.pending:
            self._read()
        if self.closed:
            return None
        self.ticket += 1
        try:
            _write_all(self.jobs, pickle.dumps(job, pickle.HIGHEST_PROTOCOL))
        except BrokenPipeError:  # the helper has exited; result() reads its end of file
            pass
        self.pending = True
        return self.ticket

    def result(self, ticket: int) -> dict | None:
        """The row of the job with this ticket; None if it was lost or discarded."""
        if not (self.pending and ticket == self.ticket):
            return None
        return self._read()

    def _read(self) -> dict | None:
        self.pending = False
        try:
            row, built = pickle.load(self.rows)
        except (EOFError, OSError, pickle.UnpicklingError):  # the helper died
            close_helper()  # only the live helper has a row pending
            return None
        for name, n in zip(BUILD_CACHES, built):
            _helper_work[name] += n
        _helper_work["helper_rows"] += 1
        return row

    def close(self, wait: bool) -> None:
        self.closed, self.pending = True, False
        os.close(self.jobs)
        self.rows.close()
        if wait:  # a job in flight is of no use to anyone now
            os.kill(self.pid, signal.SIGKILL)
            os.waitpid(self.pid, 0)


def _helper() -> _Helper | None:
    """The live helper, forked now if this process may run one."""
    global _live
    if _live is None and _may_fork():
        try:
            _live = _Helper()
        except OSError:  # no process or pipe to spare: run in-process
            return None
    return _live


def _cpus() -> int:
    """The CPUs this process may run on."""
    return len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1


def _may_fork() -> bool:
    mp = sys.modules.get("multiprocessing")  # a daemonic caller has imported it
    daemonic = mp is not None and mp.current_process().daemon
    return _cpus() >= 2 and hasattr(os, "fork") and not daemonic and threading.active_count() == 1


def close_helper() -> None:
    """Kill this process's helper and reap it; the next sweep forks another."""
    global _live
    helper, _live = _live, None
    if helper is not None:
        helper.close(wait=True)


def _forget_helper() -> None:
    # a forked child holds copies of the parent's helper pipes: close them,
    # so the helper still sees end of file when its caller exits
    global _live
    helper, _live = _live, None
    if helper is not None:
        helper.close(wait=False)


def sweep_work() -> dict:
    """What the sweeps of this process and its helpers have built and run so far.

    Each of ``pipeline.BUILD_CACHES`` (``links``, ``references`` and
    ``models``) counts that cache's misses in both processes;
    ``helper_rows`` counts the rows the helper returned.
    """
    mine = dict(zip(BUILD_CACHES, _misses()))
    return {name: n + mine.get(name, 0) for name, n in _helper_work.items()}


if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=_forget_helper)
atexit.register(close_helper)


# -- aggregation and export ---------------------------------------------------

def _fmt(value) -> str:
    return "" if value is None else str(value)  # a float's str is its repr


_STATS = ("mean", "std")
_SUMMARY_COLUMNS = (*(f"{receiver}_{metric}_{stat}" for receiver in _RECORD_KEYS
                      for metric in METRIC_NAMES for stat in _STATS),
                    "gap_psnr_legit_minus_eaves2")


def _summary_cells(rows: list[dict]) -> dict:
    """Mean and population stddev per receiver and metric over ok rows."""
    cells = dict.fromkeys(_SUMMARY_COLUMNS)
    if rows:
        for receiver in _RECORD_KEYS:
            for metric in METRIC_NAMES:
                values = np.array([row["trial"][receiver][metric] for row in rows], dtype=np.float64)
                cells[f"{receiver}_{metric}_mean"] = float(values.mean())
                cells[f"{receiver}_{metric}_std"] = float(values.std())
        cells["gap_psnr_legit_minus_eaves2"] = cells["legit_psnr_db_mean"] - cells["eaves2_psnr_db_mean"]
    return cells


def aggregate_records(records: list[dict]) -> list[dict]:
    """One summary row per sweep point, in point order."""
    points: dict[int, list[dict]] = {}
    for row in records:
        points.setdefault(row["point_index"], []).append(row)
    out = []
    for i in sorted(points):
        rows = points[i]
        ok_rows = [row for row in rows if row.get("error") is None]
        out.append({"point_index": i, **rows[0]["axes"], "trials": len(rows), "ok": len(ok_rows),
                    **_summary_cells(ok_rows)})
    return out


def _write_csv(rows: list[dict], header: list[str]) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    for row in rows:
        writer.writerow([_fmt(row.get(col)) for col in header])
    return buf.getvalue()


def aggregates_csv(records: list[dict]) -> str:
    if not records:
        return ""
    header = ["point_index", *records[0]["axes"], "trials", "ok", *_SUMMARY_COLUMNS]
    return _write_csv(aggregate_records(records), header)


def _curve_csv(records: list[dict], axis: str) -> str:
    groups: dict = {}
    for row in records:
        if row.get("error") is not None:
            continue
        if axis not in row["axes"]:
            raise ConfigError(f"records carry no '{axis}' axis; cannot export this kind")
        value = row["axes"][axis]
        if not _is_number(value):
            raise ConfigError(f"axes.{axis}: {value!r} is not a number; cannot export this kind")
        groups.setdefault(value, []).append(row)
    rows = [{axis: value, "n": len(groups[value]), **_summary_cells(groups[value])}
            for value in sorted(groups)]
    return _write_csv(rows, [axis, "n", *_SUMMARY_COLUMNS])


def _scenario_csv(records: list[dict]) -> str:
    ok_rows = [row for row in records if row.get("error") is None]
    cells = _summary_cells(ok_rows)
    columns = [f"{metric}_{stat}" for metric in METRIC_NAMES for stat in _STATS]
    rows = [{"scenario": receiver, "n": len(ok_rows),
             **{column: cells[f"{receiver}_{column}"] for column in columns}}
            for receiver in _RECORD_KEYS]
    return _write_csv(rows, ["scenario", "n", *columns])


_EXPORTS = {"snr_curves": lambda records: _curve_csv(records, "snr_db"),
            "eta_curves": lambda records: _curve_csv(records, "eta"),
            "scenario_bars": _scenario_csv}
EXPORT_KINDS = tuple(_EXPORTS)


def export_plot_data(records: list[dict], kind: str) -> str:
    """Render records into one of the fixed CSV table layouts (EXPORT_KINDS)."""
    if not records:
        raise ConfigError("records: nothing to export")
    if kind not in _EXPORTS:
        raise ConfigError(f"kind: must be one of {', '.join(EXPORT_KINDS)}")
    return _EXPORTS[kind](records)


def records_to_jsonl(records: list[dict]) -> str:
    return "".join(json.dumps(row, sort_keys=True) + "\n" for row in records)


def _check_row(row) -> None:
    """Raise ValueError unless a record row has what the exports read."""
    if not isinstance(row, dict):
        raise ValueError(f"not a JSON object but {type(row).__name__}")
    for key in ("point_index", "axes", "error"):
        if key not in row:
            raise ValueError(f"missing '{key}'")
    if not isinstance(row["axes"], dict):
        raise ValueError("'axes' is not an object")
    for name, value in row["axes"].items():
        if not _is_scalar(value):
            raise ValueError(f"'axes.{name}' is not a scalar")
    if row["error"] is not None:
        if not isinstance(row["error"], str):
            raise ValueError("'error' is neither null nor a string")
        return
    trial = row.get("trial")
    if not isinstance(trial, dict):
        raise ValueError("'trial' is not an object")
    for receiver in _RECORD_KEYS:
        report = trial.get(receiver)
        for metric in METRIC_NAMES:
            value = report.get(metric) if isinstance(report, dict) else None
            if not _is_number(value):
                raise ValueError(f"'trial.{receiver}.{metric}' is not a number")


def load_records(path: str) -> list[dict]:
    """Read records.jsonl; a malformed line raises ConfigError naming it.

    A file that cannot be read raises ConfigError naming records.
    """
    try:
        fh = open(path, "rb")
    except OSError as e:
        raise ConfigError(f"records: cannot read {path!r}: {e.strerror or e}") from e
    records = []
    with fh:
        for number, line in enumerate(fh, 1):
            if not line.strip():
                continue
            try:
                row = json.loads(line)
                _check_row(row)
            except ValueError as e:  # JSONDecodeError and UnicodeDecodeError too
                raise ConfigError(f"records line {number}: {e}") from e
            records.append(row)
    return records
