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
    cfg = replace(spec.base, **point)
    trial_seed = hash_token(f"{spec.base_seed}|{point_index}|{trial_index}", "trial")
    noise_seed = derive(trial_seed, "noise").value
    if "secret_seed" in point:  # an explicit seeds axis wins over derivation
        return replace(cfg, noise_seed=noise_seed)
    return replace(cfg, noise_seed=noise_seed, secret_seed=derive(trial_seed, "secret").value)


def iter_sweep(spec: SweepSpec):
    """Yield one record dict per trial, in deterministic order.

    A failing trial yields an error row instead of aborting the sweep.
    Consecutive trials share one memo of keyed objects (see KeyedLink), so
    a model or condition set that the next trial also uses is built once.
    """
    memo: dict = {}
    for point_index, point in enumerate(spec.points()):
        for trial_index in range(spec.trials_per_point):
            row = {"point_index": point_index, "trial_index": trial_index, "axes": dict(point)}
            try:
                cfg = _trial_config(spec, point, point_index, trial_index)
                secret = make_secret(cfg.secret_seed, cfg.shape)
                record = run_trial(secret, cfg, memo)
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


def _metric_values(rows: list[dict], receiver: str, metric: str) -> np.ndarray:
    return np.array([row["trial"][receiver][metric] for row in rows], dtype=np.float64)


def _summary_cells(rows: list[dict]) -> dict:
    """Mean and population stddev per receiver and metric over ok rows."""
    cells = {}
    for receiver in RECEIVERS:
        for metric in METRIC_NAMES:
            key = f"{receiver}_{metric}"
            if rows:
                values = _metric_values(rows, receiver, metric)
                cells[f"{key}_mean"] = float(values.mean())
                cells[f"{key}_std"] = float(values.std())
            else:
                cells[f"{key}_mean"] = None
                cells[f"{key}_std"] = None
    if rows:
        cells["gap_psnr_legit_minus_eaves2"] = cells["legit_psnr_db_mean"] - cells["eaves2_psnr_db_mean"]
    else:
        cells["gap_psnr_legit_minus_eaves2"] = None
    return cells


def aggregate_records(records: list[dict]) -> list[dict]:
    """One summary row per sweep point, in point order."""
    by_point: dict[int, list[dict]] = {}
    axes_by_point: dict[int, dict] = {}
    counts: dict[int, int] = {}
    for row in records:
        i = row["point_index"]
        axes_by_point.setdefault(i, row["axes"])
        counts[i] = counts.get(i, 0) + 1
        if row.get("error") is None:
            by_point.setdefault(i, []).append(row)
    out = []
    for i in sorted(axes_by_point):
        ok_rows = by_point.get(i, [])
        summary = {"point_index": i}
        summary.update(axes_by_point[i])
        summary["trials"] = counts[i]
        summary["ok"] = len(ok_rows)
        summary.update(_summary_cells(ok_rows))
        out.append(summary)
    return out


def _write_csv(rows: list[dict], header: list[str]) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    for row in rows:
        writer.writerow([_fmt(row.get(col)) for col in header])
    return buf.getvalue()


def aggregates_csv(records: list[dict]) -> str:
    rows = aggregate_records(records)
    if not rows:
        return ""
    axis_cols = [c for c in rows[0] if c not in ("point_index", "trials", "ok")
                 and not any(c.startswith(r + "_") or c.startswith("gap_") for r in RECEIVERS)]
    header = ["point_index", *axis_cols, "trials", "ok"]
    for receiver in RECEIVERS:
        for metric in METRIC_NAMES:
            header += [f"{receiver}_{metric}_mean", f"{receiver}_{metric}_std"]
    header.append("gap_psnr_legit_minus_eaves2")
    return _write_csv(rows, header)


def _group_by_axis(records: list[dict], axis: str) -> list[tuple]:
    groups: dict = {}
    for row in records:
        if row.get("error") is not None:
            continue
        if axis not in row["axes"]:
            raise ConfigError(f"records carry no '{axis}' axis; cannot export this kind")
        groups.setdefault(row["axes"][axis], []).append(row)
    return sorted(groups.items(), key=lambda kv: kv[0])


def _curve_csv(records: list[dict], axis: str) -> str:
    rows = []
    for value, group in _group_by_axis(records, axis):
        row = {axis: value, "n": len(group)}
        row.update(_summary_cells(group))
        rows.append(row)
    header = [axis, "n"]
    for receiver in RECEIVERS:
        for metric in METRIC_NAMES:
            header += [f"{receiver}_{metric}_mean", f"{receiver}_{metric}_std"]
    header.append("gap_psnr_legit_minus_eaves2")
    return _write_csv(rows, header)


def _scenario_csv(records: list[dict]) -> str:
    ok_rows = [row for row in records if row.get("error") is None]
    rows = []
    for receiver in RECEIVERS:
        row = {"scenario": receiver, "n": len(ok_rows)}
        for metric in METRIC_NAMES:
            if ok_rows:
                values = _metric_values(ok_rows, receiver, metric)
                row[f"{metric}_mean"] = float(values.mean())
                row[f"{metric}_std"] = float(values.std())
            else:
                row[f"{metric}_mean"] = None
                row[f"{metric}_std"] = None
        rows.append(row)
    header = ["scenario", "n"]
    for metric in METRIC_NAMES:
        header += [f"{metric}_mean", f"{metric}_std"]
    return _write_csv(rows, header)


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


# -- selftest -----------------------------------------------------------------

def selftest(verbose: bool = True) -> bool:
    """Compact invariant battery for the installed package; True when clean."""
    from . import channel, metrics, rng, schedule, tokenkey
    from .edict import CoupledState, SamplerParams, edict_forward, edict_reverse
    from .pipeline import KeyedLink, hide, reveal
    from .predictor import Predictor

    checks: list[tuple[str, bool, str]] = []

    def check(name: str, ok: bool, detail: str = ""):
        checks.append((name, bool(ok), detail))

    seed = rng.hash_token("", "")
    check("hash empty vector", seed.value == 0xE3B0C44298FC1C14, hex(seed.value))

    u = rng.uniform_stream(rng.Seed64(0), 1)
    check("splitmix reference", u[0] == (0xE220A8397B1DCDAF >> 11) * 2.0 ** -53, repr(float(u[0])))

    g = rng.gaussian_stream(rng.hash_token("selftest", "init"), 1_000_000)
    check("gaussian moments", abs(g.mean()) < 0.005 and abs(g.var() - 1.0) < 0.01,
          f"mean={g.mean():.2e} var={g.var():.6f}")

    sched = schedule.build_schedule(50)
    ident = np.max(np.abs(sched.gamma[1:] * sched.a[1:] - 1.0))
    check("schedule identities", ident < 1e-15 and
          abs(schedule.telescoped_gain(sched) - np.sqrt(sched.alpha_bar[50])) == 0.0, f"max|gamma*a-1|={ident:.2e}")

    pred = Predictor("tiny-mlp", 7)
    params = SamplerParams(mixing_p=0.93, edit_strength=1.0)
    worst = 0.0
    for i in range(5):
        z = rng.gaussian_stream(rng.Seed64(100 + i), 128).reshape(2, 8, 8)
        uu = rng.gaussian_stream(rng.Seed64(200 + i), 128).reshape(2, 8, 8)
        state = CoupledState(z, uu)
        plain = pred.bias(z.size, sched.T, [None])
        back = edict_reverse(edict_forward(state, sched, pred, plain, params), sched, pred, plain, params)
        worst = max(worst, float(np.max(np.abs(back.z - z))), float(np.max(np.abs(back.u - uu))))
    check("coupled round trip", worst < 1e-8, f"max err {worst:.2e}")

    z = rng.gaussian_stream(rng.Seed64(3), 256)
    mask = tokenkey.build_mask("selftest", (256,), 0.5)
    check("mask involution", np.array_equal(tokenkey.restore(tokenkey.perturb(z, mask), mask), z))

    frame = channel.encode(z.reshape(1, 16, 16))
    cfg10 = channel.ChannelConfig(snr_db=10.0, noise_seed=5)
    big = channel.SymbolFrame(symbols=rng.gaussian_stream(rng.Seed64(6), 1_000_000), scale=1.0, offset=0.0)
    noisy = channel.transmit(big, cfg10)
    measured = 10.0 * np.log10(np.mean(big.symbols ** 2) / np.mean((noisy.symbols - big.symbols) ** 2))
    check("channel calibration", abs(measured - 10.0) < 0.1, f"{measured:.3f} dB at 10 dB")
    back = channel.decode(channel.transmit(frame, channel.ChannelConfig(noiseless=True)), cfg10, (1, 16, 16))
    link_err = float(np.max(np.abs(back - z.reshape(1, 16, 16))))
    check("noiseless link identity", link_err < 1e-12, f"max err {link_err:.2e}")

    a = np.zeros((10, 10))
    b = np.zeros((10, 10))
    b[0, 0] = 1.0
    check("metric identities", metrics.psnr(a, b, 1.0) == 20.0 and metrics.ssim(a, a, 1.0) == 1.0)

    cfg = PipelineConfig(steps=10, shape=(1, 8, 8))
    secret = make_secret(1, (1, 8, 8))
    link = KeyedLink(cfg)
    err = float(np.max(np.abs(reveal(hide(secret, link), link) - secret)))
    check("hide/reveal round trip", err < 1e-6, f"max err {err:.2e}")

    ok = all(c[1] for c in checks)
    if verbose:
        for name, passed, detail in checks:
            suffix = f"  ({detail})" if detail else ""
            print(f"[{'PASS' if passed else 'FAIL'}] {name}{suffix}")
    return ok
