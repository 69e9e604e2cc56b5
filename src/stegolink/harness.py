"""Config parsing, deterministic sweeps, and plot-data export.

Configs are flat JSON objects mirroring PipelineConfig; a sweep file wraps a
base config with named axis lists and a trial count.  Every trial seeds its
secret and its channel noise from a hash of (base_seed, point index, trial
index), so a sweep is a pure function of its spec: running it twice yields
byte-identical records and exported tables.
"""

from __future__ import annotations

import csv
import io
import itertools
import json

from dataclasses import dataclass, replace

import numpy as np

from .pipeline import PipelineConfig, _is_int, make_secret, run_trial
from .rng import derive, hash_token

SWEEP_AXES = ("snr_db", "eta", "token", "secret_seed", "mixing_p", "edit_strength",
              "guidance_weight", "steps", "predictor_kind", "h")

RECEIVERS = ("legit", "eaves1", "eaves2", "eaves3")
METRIC_NAMES = ("psnr_db", "mse", "ssim")

EXPORT_KINDS = ("snr_curves", "eta_curves", "scenario_bars")


class ConfigError(ValueError):
    """A config file failed validation; the message names the field."""


@dataclass(frozen=True)
class SweepSpec:
    base: PipelineConfig
    axes: dict[str, list]
    trials_per_point: int = 1
    base_seed: str = "sweep"

    def __post_init__(self):
        if not self.axes:
            raise ConfigError("axes: at least one axis is required")
        for name, values in self.axes.items():
            if name not in SWEEP_AXES:
                raise ConfigError(f"axes.{name}: not a sweepable field (allowed: {', '.join(SWEEP_AXES)})")
            if not isinstance(values, (list, tuple)) or len(values) == 0:
                raise ConfigError(f"axes.{name}: must be a non-empty list")
            for value in values:
                try:
                    replace(self.base, **{name: value})
                except ValueError as e:
                    raise ConfigError(f"axes.{name}: bad value {value!r}: {e}") from e
        if not (_is_int(self.trials_per_point) and self.trials_per_point >= 1):
            raise ConfigError("trials_per_point: must be an integer >= 1")
        if not (isinstance(self.base_seed, str) and self.base_seed):
            raise ConfigError("base_seed: must be a non-empty string")

    def points(self) -> list[dict]:
        names = list(self.axes)
        return [dict(zip(names, combo)) for combo in itertools.product(*(self.axes[n] for n in names))]


def parse_config(path: str):
    """Load a JSON config file into a PipelineConfig or a SweepSpec."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            data = json.load(fh)
        except json.JSONDecodeError as e:
            raise ConfigError(f"not valid JSON: {e}") from e
    if not isinstance(data, dict):
        raise ConfigError("top level must be a JSON object")
    if "axes" in data or "base" in data:
        known = {"base", "axes", "trials_per_point", "base_seed"}
        unknown = set(data) - known
        if unknown:
            raise ConfigError(f"unknown sweep field(s): {', '.join(sorted(unknown))}")
        try:
            base = PipelineConfig.from_dict(data.get("base", {}))
        except (TypeError, ValueError) as e:
            raise ConfigError(f"base: {e}") from e
        return SweepSpec(base=base, axes=dict(data.get("axes", {})),
                         trials_per_point=data.get("trials_per_point", 1),
                         base_seed=data.get("base_seed", "sweep"))
    try:
        return PipelineConfig.from_dict(data)
    except (TypeError, ValueError) as e:
        raise ConfigError(str(e)) from e


# -- sweep execution ----------------------------------------------------------

def _trial_config(spec: SweepSpec, point: dict, point_index: int, trial_index: int) -> PipelineConfig:
    trial_seed = hash_token(f"{spec.base_seed}|{point_index}|{trial_index}", "trial")
    seeds = {"noise_seed": derive(trial_seed, "noise").value}
    if "secret_seed" not in point:  # an explicit seeds axis wins over derivation
        seeds["secret_seed"] = derive(trial_seed, "secret").value
    return replace(spec.base, **point, **seeds)


def iter_sweep(spec: SweepSpec):
    """Yield one record dict per trial, in deterministic order.

    A failing trial yields an error row instead of aborting the sweep.
    Trials share links, models and condition sets through the pipeline's
    caches (see KeyedLink); no record depends on what they hold.
    """
    for point_index, point in enumerate(spec.points()):
        for trial_index in range(spec.trials_per_point):
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
            yield row


def run_sweep(spec: SweepSpec) -> list[dict]:
    return list(iter_sweep(spec))


# -- aggregation and export ---------------------------------------------------

def _fmt(value) -> str:
    if value is None:
        return ""
    if isinstance(value, float):
        return repr(value)
    return str(value)


_STATS = ("mean", "std")
_SUMMARY_COLUMNS = (*(f"{receiver}_{metric}_{stat}" for receiver in RECEIVERS
                      for metric in METRIC_NAMES for stat in _STATS),
                    "gap_psnr_legit_minus_eaves2")


def _summary_cells(rows: list[dict]) -> dict:
    """Mean and population stddev per receiver and metric over ok rows."""
    cells = dict.fromkeys(_SUMMARY_COLUMNS)
    if rows:
        for receiver in RECEIVERS:
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
        groups.setdefault(row["axes"][axis], []).append(row)
    rows = [{axis: value, "n": len(groups[value]), **_summary_cells(groups[value])}
            for value in sorted(groups)]
    return _write_csv(rows, [axis, "n", *_SUMMARY_COLUMNS])


def _scenario_csv(records: list[dict]) -> str:
    ok_rows = [row for row in records if row.get("error") is None]
    cells = _summary_cells(ok_rows)
    columns = [f"{metric}_{stat}" for metric in METRIC_NAMES for stat in _STATS]
    rows = [{"scenario": receiver, "n": len(ok_rows),
             **{column: cells[f"{receiver}_{column}"] for column in columns}}
            for receiver in RECEIVERS]
    return _write_csv(rows, ["scenario", "n", *columns])


def export_plot_data(records: list[dict], kind: str) -> str:
    """Render records into one of the fixed CSV table layouts."""
    if not records:
        raise ConfigError("records: nothing to export")
    if kind == "snr_curves":
        return _curve_csv(records, "snr_db")
    if kind == "eta_curves":
        return _curve_csv(records, "eta")
    if kind == "scenario_bars":
        return _scenario_csv(records)
    raise ConfigError(f"kind: must be one of {', '.join(EXPORT_KINDS)}")


def records_to_jsonl(records: list[dict]) -> str:
    return "".join(json.dumps(row, sort_keys=True) + "\n" for row in records)


def load_records(path: str) -> list[dict]:
    records = []
    with open(path, "r", encoding="utf-8") as fh:
        for line in fh:
            line = line.strip()
            if line:
                records.append(json.loads(line))
    return records

