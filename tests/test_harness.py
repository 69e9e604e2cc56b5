"""Config parsing, deterministic sweeps, aggregation, and plot exports."""

import hashlib
import json
import multiprocessing
import os
import select
import signal
import subprocess
import sys
import threading
import time
import warnings

from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from stegolink import harness, pipeline
from stegolink.harness import (
    ConfigError,
    SweepSpec,
    _sweep_row,
    _trial_config,
    aggregate_records,
    aggregates_csv,
    export_plot_data,
    iter_sweep,
    load_records,
    parse_config,
    records_to_jsonl,
    run_sweep,
    sweep_work,
)
from stegolink.pipeline import PipelineConfig, make_secret, run_trial
from stegolink.rng import derive, hash_token


def fast_base(**kw):
    base = dict(steps=10, shape=(1, 8, 8), snr_db=10.0)
    base.update(kw)
    return PipelineConfig(**base)


def small_sweep(**kw):
    spec = dict(base=fast_base(), axes={"snr_db": [5.0, 10.0]},
                trials_per_point=2, base_seed="unit")
    spec.update(kw)
    return SweepSpec(**spec)


def diverging_sweep():
    # mixing_p 1e-6 passes validation, but its pair gain of 2^399 makes the
    # stego grid's power overflow float64 once the trial runs
    return small_sweep(base=fast_base(predictor_kind="zero", edit_strength=1.0),
                       axes={"mixing_p": [0.93, 1e-6]}, trials_per_point=1)


class TestParseConfig:
    def test_minimal_single_config_gets_defaults(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"token": "4242", "shape": [1, 8, 8]}))
        cfg = parse_config(str(path))
        assert isinstance(cfg, PipelineConfig)
        assert cfg.token == "4242"
        assert cfg.steps == 50 and cfg.mixing_p == 0.93
        assert cfg.eta == 0.05 and cfg.guidance_weight == 1.0 and cfg.edit_strength == 0.5

    def test_effective_config_round_trips(self, tmp_path):
        cfg = fast_base(token="777", eta=0.1)
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(cfg.to_dict()))
        assert parse_config(str(path)) == cfg

    def test_out_of_range_field_named(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"eta": 1.5}))
        with pytest.raises(ValueError) as exc:
            parse_config(str(path))
        assert "eta" in str(exc.value)

    def test_unknown_key_named(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"entropy_bits": 9}))
        with pytest.raises(ValueError) as exc:
            parse_config(str(path))
        assert "entropy_bits" in str(exc.value)

    def test_malformed_file_rejected(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text("{not json")
        with pytest.raises(ConfigError):
            parse_config(str(path))

    def test_sweep_config_dispatch(self, tmp_path):
        path = tmp_path / "sweep.json"
        path.write_text(json.dumps({
            "base": {"steps": 10, "shape": [1, 8, 8]},
            "axes": {"snr_db": [5.0, 10.0]},
            "trials_per_point": 2,
            "base_seed": "demo",
        }))
        spec = parse_config(str(path))
        assert isinstance(spec, SweepSpec)
        assert spec.axes == {"snr_db": [5.0, 10.0]}

    @pytest.mark.parametrize("value", ["two", 1.9, True])
    def test_trials_per_point_must_be_positive_integer(self, tmp_path, value):
        path = tmp_path / "sweep.json"
        path.write_text(json.dumps({"axes": {"snr_db": [5.0]}, "trials_per_point": value}))
        with pytest.raises(ConfigError) as exc:
            parse_config(str(path))
        assert "trials_per_point" in str(exc.value)

    @pytest.mark.parametrize("value", [None, 5])
    def test_base_seed_must_be_non_empty_string(self, tmp_path, value):
        path = tmp_path / "sweep.json"
        path.write_text(json.dumps({"axes": {"snr_db": [5.0]}, "base_seed": value}))
        with pytest.raises(ConfigError) as exc:
            parse_config(str(path))
        assert "base_seed" in str(exc.value)


class TestSweepSpecValidation:
    def test_needs_at_least_one_axis(self):
        with pytest.raises(ValueError):
            small_sweep(axes={})

    def test_axis_names_whitelisted(self):
        with pytest.raises(ValueError) as exc:
            small_sweep(axes={"carrier_hz": [1, 2]})
        assert "carrier_hz" in str(exc.value)

    def test_axis_values_non_empty(self):
        with pytest.raises(ValueError):
            small_sweep(axes={"snr_db": []})

    def test_trials_per_point_positive(self):
        with pytest.raises(ValueError):
            small_sweep(trials_per_point=0)

    def test_base_seed_non_empty(self):
        with pytest.raises(ValueError):
            small_sweep(base_seed="")

    @pytest.mark.parametrize("name,values", [("token", ["fine", ""]), ("eta", [0.05, 7.0]),
                                             ("steps", [10, 2.5]), ("predictor_kind", ["resnet"])])
    def test_axis_values_checked_up_front(self, name, values):
        with pytest.raises(ConfigError) as exc:
            small_sweep(axes={name: values})
        assert f"axes.{name}:" in str(exc.value)

    @pytest.mark.parametrize("name,values", [("shape", [[1, 8, 8]]), ("shape", [(1, 8, 8)]),
                                             ("carrier_hz", [1.0])])
    def test_non_scalar_and_unknown_axes_refused(self, name, values):
        with pytest.raises(ConfigError) as exc:
            small_sweep(axes={name: values})
        assert str(exc.value).startswith(f"axes.{name}: ")

    def test_points_cartesian_in_insertion_order(self):
        spec = small_sweep(axes={"snr_db": [5.0, 10.0], "eta": [0.01, 0.5]})
        pts = spec.points()
        assert pts[0] == {"snr_db": 5.0, "eta": 0.01}
        assert pts[1] == {"snr_db": 5.0, "eta": 0.5}
        assert len(pts) == 4


class TestRunSweep:
    def test_counting(self):
        rows = run_sweep(small_sweep())
        assert len(rows) == 4  # 2 points x 2 trials
        assert [r["point_index"] for r in rows] == [0, 0, 1, 1]
        assert [r["trial_index"] for r in rows] == [0, 1, 0, 1]
        assert all(r["error"] is None for r in rows)

    def test_axes_recorded_per_row(self):
        rows = run_sweep(small_sweep())
        assert rows[0]["axes"] == {"snr_db": 5.0}
        assert rows[2]["axes"] == {"snr_db": 10.0}

    def test_deterministic_record_stream(self):
        spec = small_sweep()
        assert records_to_jsonl(run_sweep(spec)) == records_to_jsonl(run_sweep(spec))

    def test_trial_seeds_vary_by_trial(self):
        rows = run_sweep(small_sweep())
        t0 = rows[0]["trial"]["legit"]["psnr_db"]
        t1 = rows[1]["trial"]["legit"]["psnr_db"]
        assert t0 != t1

    def test_secret_seed_axis_wins_over_derivation(self):
        spec = small_sweep(axes={"secret_seed": [101, 202]}, trials_per_point=1)
        rows = run_sweep(spec)
        assert rows[0]["trial"]["config"]["secret_seed"] == 101
        assert rows[1]["trial"]["config"]["secret_seed"] == 202

    def test_any_scalar_field_is_an_axis(self, tmp_path):
        # schedule, predictor and channel-seed axes need no list of their own
        axes = {"beta_end": [0.02, 0.05], "embed_dim": [16, 32], "noise_seed": [3, 4]}
        rows = run_sweep(small_sweep(axes=axes, trials_per_point=1))
        assert len(rows) == 8 and all(row["error"] is None for row in rows)
        for row in rows:
            assert row["trial"]["config"]["noise_seed"] == row["axes"]["noise_seed"]
        path = tmp_path / "records.jsonl"
        path.write_text(records_to_jsonl(rows))
        assert load_records(str(path)) == rows
        assert aggregates_csv(rows).splitlines()[0].startswith("point_index,beta_end,embed_dim,noise_seed,trials,")

    def test_error_rows_never_abort(self):
        # a config that validates but whose chains diverge while it runs
        rows = run_sweep(diverging_sweep())
        assert len(rows) == 2
        assert rows[0]["error"] is None
        assert rows[1]["error"] == "ValueError: grid power overflows float64"
        assert rows[1]["trial"] is None

    def test_overflowing_mse_is_an_error_row(self):
        # the receivers' grids reach ~1e154 here and their MSE overflows;
        # the point once scored mse inf and psnr_db -inf with error None
        spec = small_sweep(base=fast_base(predictor_kind="zero", steps=20, edit_strength=1.0),
                           axes={"mixing_p": [0.01]}, trials_per_point=1, base_seed="div")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            rows = run_sweep(spec)
        assert [row["error"] for row in rows] == [
            "ValueError: mean squared error overflows float64 (or a grid is not finite)"]
        assert rows[0]["trial"] is None

    def test_shared_keyed_objects_leave_every_row_unchanged(self):
        # consecutive trials change each input of the shared keyed objects,
        # and every other trial fails after its link is built
        spec = small_sweep(base=fast_base(edit_strength=1.0), trials_per_point=1, base_seed="reuse",
                           axes={"token": ["pin", "other"], "predictor_kind": ["zero", "tiny-mlp"],
                                 "steps": [10, 12], "guidance_weight": [0.4, 1.0], "eta": [0.05, 0.5],
                                 "snr_db": [5.0, 10.0], "mixing_p": [0.93, 1e-6]})
        rows = run_sweep(spec)
        assert len(rows) == 128
        assert sum(row["error"] is not None for row in rows) == 64
        for point_index, (row, point) in enumerate(zip(rows, spec.points())):
            alone = {"point_index": point_index, "trial_index": 0, "axes": point}
            try:
                cfg = _trial_config(spec, point, point_index, 0)
                alone["trial"] = run_trial(make_secret(cfg.secret_seed, cfg.shape), cfg).to_dict()
                alone["error"] = None
            except ValueError as e:
                alone["trial"], alone["error"] = None, f"{type(e).__name__}: {e}"
            assert json.dumps(row, sort_keys=True) == json.dumps(alone, sort_keys=True)

    @pytest.mark.parametrize("axes", [{"snr_db": [5.0, 10.0]}, {"secret_seed": [101, 202], "eta": [0.05, 0.5]}])
    def test_trial_config_is_the_two_step_construction(self, axes):
        # the base with the point applied, then the derived seeds; an
        # explicit secret_seed axis keeps its value
        spec = small_sweep(axes=axes)
        for point_index, point in enumerate(spec.points()):
            for trial_index in range(spec.trials_per_point):
                trial_seed = hash_token(f"unit|{point_index}|{trial_index}", "trial")
                cfg = replace(spec.base, **point)
                cfg = replace(cfg, noise_seed=derive(trial_seed, "noise").value)
                if "secret_seed" not in point:
                    cfg = replace(cfg, secret_seed=derive(trial_seed, "secret").value)
                assert _trial_config(spec, point, point_index, trial_index) == cfg

    def test_iter_matches_list(self):
        spec = small_sweep()
        assert list(iter_sweep(spec)) == run_sweep(spec)


# SHA-256 of records_to_jsonl(run_sweep(PINNED_SPEC)). The digest pins the
# records as computed with this numpy/BLAS build, so it can differ on another
# one. Only a change that alters records on purpose may re-pin it, and it
# records which records changed, and why, in CHANGES.md.
PINNED_SWEEP_SHA256 = "dfe9edb1d9a12a6579e5dc275d4eb68e42362ff7d1ea8f0d59bc6e617836707e"

PINNED_SPEC = SweepSpec(
    base=PipelineConfig(steps=10, shape=(1, 8, 8), token="pin"),
    axes={"predictor_kind": ["zero", "linear", "tiny-mlp"], "eta": [0.05, 0.5],
          "guidance_weight": [0.4, 1.0]},
    base_seed="pinned",
)


def test_pinned_reference_sweep_digest():
    rows = run_sweep(PINNED_SPEC)
    assert len(rows) == 12 and all(row["error"] is None for row in rows)
    digest = hashlib.sha256(records_to_jsonl(rows).encode("utf-8")).hexdigest()
    assert digest == PINNED_SWEEP_SHA256


# SHA-256 of the records of BENCH_SHAPE_SPECS, run in order and joined. The
# pinned sweep covers 1x8x8 only; these short sweeps run the predictor
# kernels at the benchmark's shapes: tiny-mlp over 256 values, linear over
# 1024 (both at one and two guidance branches), and the zero predictor over
# fresh tokens. Like PINNED_SWEEP_SHA256, the digest pins the records as
# computed with this numpy/BLAS build, so it can differ on another one. Only
# a change that alters records on purpose may re-pin it, and it records
# which records changed, and why, in CHANGES.md.
BENCH_SHAPES_SHA256 = "8a99f14862b04a1446868bf92307fc2a72d35eda59aba639efb68e48bbd5b184"

BENCH_SHAPE_SPECS = (
    SweepSpec(base=PipelineConfig(steps=10, token="pin"),
              axes={"guidance_weight": [0.4, 1.0], "snr_db": [5.0, 20.0]}, base_seed="bench-shapes"),
    SweepSpec(base=PipelineConfig(steps=10, predictor_kind="linear", shape=(1, 32, 32), token="pin"),
              axes={"eta": [0.01, 0.05, 0.5], "guidance_weight": [0.4, 1.0]}, base_seed="bench-shapes"),
    SweepSpec(base=PipelineConfig(steps=10, predictor_kind="zero", shape=(1, 8, 8)),
              axes={"token": [f"fresh-{i}" for i in range(4)]}, base_seed="bench-shapes"),
)


def test_benchmark_shape_digest():
    rows = [run_sweep(spec) for spec in BENCH_SHAPE_SPECS]
    assert [len(r) for r in rows] == [4, 6, 4]
    assert all(row["error"] is None for r in rows for row in r)
    digest = hashlib.sha256("".join(records_to_jsonl(r) for r in rows).encode("utf-8")).hexdigest()
    assert digest == BENCH_SHAPES_SHA256


def test_warm_caches_leave_the_pinned_records_unchanged():
    # between the two pinned runs, a sweep of another config leaves the
    # zero-predictor objects of token "pin" in the caches for the second
    for cache in pipeline.BUILD_CACHES.values():
        cache.cache_clear()
    cold = records_to_jsonl(run_sweep(PINNED_SPEC))
    run_sweep(SweepSpec(base=PipelineConfig(steps=10, shape=(1, 8, 8), token="pin", predictor_kind="zero"),
                        axes={"snr_db": [5.0, 20.0]}, base_seed="between"))
    assert pipeline.build_conditions.cache_info().currsize == 3
    assert records_to_jsonl(run_sweep(PINNED_SPEC)) == cold


class TestAggregation:
    def test_one_aggregate_row_per_point(self):
        rows = run_sweep(small_sweep())
        aggs = aggregate_records(rows)
        assert len(aggs) == 2
        assert aggs[0]["trials"] == 2 and aggs[0]["ok"] == 2

    def test_stddev_zero_for_single_trial(self):
        rows = run_sweep(small_sweep(trials_per_point=1))
        aggs = aggregate_records(rows)
        assert aggs[0]["legit_psnr_db_std"] == 0.0

    def test_population_std_oracle(self):
        rows = run_sweep(small_sweep())
        vals = [r["trial"]["legit"]["psnr_db"] for r in rows[:2]]
        aggs = aggregate_records(rows)
        assert aggs[0]["legit_psnr_db_mean"] == pytest.approx(np.mean(vals), abs=1e-12)
        assert aggs[0]["legit_psnr_db_std"] == pytest.approx(np.std(vals), abs=1e-12)

    def test_gap_column_tracks_eta(self):
        spec = small_sweep(axes={"eta": [0.01, 0.05, 0.1, 0.5]},
                           trials_per_point=5, base_seed="etagap",
                           base=fast_base(steps=25))
        aggs = aggregate_records(run_sweep(spec))
        gaps = [a["gap_psnr_legit_minus_eaves2"] for a in aggs]
        assert all(lo < hi for lo, hi in zip(gaps, gaps[1:]))

    def test_error_rows_excluded_from_stats(self):
        aggs = aggregate_records(run_sweep(diverging_sweep()))
        assert len(aggs) == 2
        assert aggs[1]["ok"] == 0
        assert aggs[1]["legit_psnr_db_mean"] is None
        assert aggs[1]["gap_psnr_legit_minus_eaves2"] is None


def _handmade_ok_row(trial_index, psnr_db, mse):
    trial = {receiver: {"mse": mse * (i + 1), "psnr_db": psnr_db + 2.0 * i, "ssim": 0.5 - 0.125 * i}
             for i, receiver in enumerate(("legit", "eaves1", "eaves2", "eaves3"))}
    return {"point_index": 0, "trial_index": trial_index, "axes": {"snr_db": 5.0, "eta": 0.05},
            "trial": trial, "error": None}


def _handmade_error_row(trial_index):
    return {"point_index": 1, "trial_index": trial_index, "axes": {"snr_db": 10.0, "eta": 0.5},
            "trial": None, "error": "ValueError: boom"}


# dyadic values, so every mean and stddev below is exact
HANDMADE_RECORDS = [_handmade_ok_row(0, 10.0, 0.25), _handmade_ok_row(1, 12.0, 0.75),
                    _handmade_error_row(0), _handmade_error_row(1)]

STATS_HEADER = ("legit_psnr_db_mean,legit_psnr_db_std,legit_mse_mean,legit_mse_std,"
                "legit_ssim_mean,legit_ssim_std,eaves1_psnr_db_mean,eaves1_psnr_db_std,"
                "eaves1_mse_mean,eaves1_mse_std,eaves1_ssim_mean,eaves1_ssim_std,"
                "eaves2_psnr_db_mean,eaves2_psnr_db_std,eaves2_mse_mean,eaves2_mse_std,"
                "eaves2_ssim_mean,eaves2_ssim_std,eaves3_psnr_db_mean,eaves3_psnr_db_std,"
                "eaves3_mse_mean,eaves3_mse_std,eaves3_ssim_mean,eaves3_ssim_std,"
                "gap_psnr_legit_minus_eaves2")
STATS_ROW = ("11.0,1.0,0.5,0.25,0.5,0.0,13.0,1.0,1.0,0.5,0.375,0.0,"
             "15.0,1.0,1.5,0.75,0.25,0.0,17.0,1.0,2.0,1.0,0.125,0.0,-4.0")


class TestExports:
    def test_tables_of_handmade_records_are_pinned(self):
        assert aggregates_csv(HANDMADE_RECORDS) == (
            f"point_index,snr_db,eta,trials,ok,{STATS_HEADER}\n"
            f"0,5.0,0.05,2,2,{STATS_ROW}\n"
            "1,10.0,0.5,2,0,,,,,,,,,,,,,,,,,,,,,,,,,\n")
        assert export_plot_data(HANDMADE_RECORDS, "snr_curves") == (
            f"snr_db,n,{STATS_HEADER}\n5.0,2,{STATS_ROW}\n")
        assert export_plot_data(HANDMADE_RECORDS, "eta_curves") == (
            f"eta,n,{STATS_HEADER}\n0.05,2,{STATS_ROW}\n")
        assert export_plot_data(HANDMADE_RECORDS, "scenario_bars") == (
            "scenario,n,psnr_db_mean,psnr_db_std,mse_mean,mse_std,ssim_mean,ssim_std\n"
            "legit,2,11.0,1.0,0.5,0.25,0.5,0.0\n"
            "eaves1,2,13.0,1.0,1.0,0.5,0.375,0.0\n"
            "eaves2,2,15.0,1.0,1.5,0.75,0.25,0.0\n"
            "eaves3,2,17.0,1.0,2.0,1.0,0.125,0.0\n")
        # a numpy axis value prints as the float it is, not "np.float64(5.0)"
        numpy_axes = [dict(row, axes={name: np.float64(v) for name, v in row["axes"].items()})
                      for row in HANDMADE_RECORDS]
        assert aggregates_csv(numpy_axes) == aggregates_csv(HANDMADE_RECORDS)
        assert export_plot_data(numpy_axes, "snr_curves") == export_plot_data(HANDMADE_RECORDS, "snr_curves")

    def test_aggregates_csv_deterministic(self):
        spec = small_sweep()
        assert aggregates_csv(run_sweep(spec)) == aggregates_csv(run_sweep(spec))

    def test_snr_curves_structure(self):
        table = export_plot_data(run_sweep(small_sweep()), "snr_curves")
        lines = table.splitlines()
        assert len(lines) == 3
        header = lines[0].split(",")
        assert header[0] == "snr_db" and header[1] == "n"
        assert "legit_psnr_db_mean" in header and "eaves3_ssim_std" in header
        assert lines[1].split(",")[0] == "5.0"

    def test_eta_curves_requires_eta_axis(self):
        with pytest.raises(ConfigError):
            export_plot_data(run_sweep(small_sweep()), "eta_curves")

    def test_scenario_bars_structure(self):
        table = export_plot_data(run_sweep(small_sweep()), "scenario_bars")
        lines = table.splitlines()
        assert lines[0].split(",")[0] == "scenario"
        assert [ln.split(",")[0] for ln in lines[1:]] == ["legit", "eaves1", "eaves2", "eaves3"]

    def test_unknown_kind_rejected(self):
        with pytest.raises(ConfigError):
            export_plot_data(run_sweep(small_sweep()), "violin")

    def test_empty_records_rejected(self):
        with pytest.raises(ConfigError):
            export_plot_data([], "snr_curves")

    def test_jsonl_round_trip(self, tmp_path):
        rows = run_sweep(small_sweep())
        path = tmp_path / "records.jsonl"
        path.write_text(records_to_jsonl(rows))
        assert load_records(str(path)) == rows



# -- the helper process -------------------------------------------------------

SRC = Path(__file__).resolve().parents[1] / "src"


def in_process(spec):
    # the rows a sweep must yield, each run here by the shared row function
    return [_sweep_row(spec, point, point_index, trial_index)
            for point_index, point in enumerate(spec.points()) for trial_index in range(spec.trials_per_point)]


@pytest.fixture
def cpus(monkeypatch):
    # the CPUs the sweep may use, whatever the host has
    def set_cpus(n):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(n)), raising=False)
    return set_cpus


def wait_for_eof(stream, seconds):
    # read a pipe until every process holding its write end has closed it
    deadline = time.monotonic() + seconds
    while time.monotonic() < deadline:
        ready, _, _ = select.select([stream], [], [], 0.1)
        if ready and not os.read(stream.fileno(), 65536):
            return True
    return False


def gone(pid):
    try:
        with open(f"/proc/{pid}/stat", encoding="ascii") as fh:
            return fh.read().rsplit(")", 1)[1].split()[0] == "Z"  # exited, not yet reaped
    except FileNotFoundError:
        return True


CALLER = """import sys
from stegolink import harness
from stegolink.harness import SweepSpec, iter_sweep
from stegolink.pipeline import PipelineConfig
spec = SweepSpec(base=PipelineConfig(steps=10, shape=(1, 8, 8), predictor_kind="zero"),
                 axes={"snr_db": [5.0]}, trials_per_point=int(sys.argv[1]), base_seed="caller")
rows = iter_sweep(spec)
next(rows), next(rows)
print(harness._live.pid, flush=True)
for row in rows:
    assert row["error"] is None
"""

needs_proc = pytest.mark.skipif(not os.path.isdir("/proc/self") or not hasattr(os, "fork"),
                                reason="needs os.fork and /proc")


class TestHelper:
    @pytest.mark.parametrize("n", [1, 2, 4])
    @pytest.mark.parametrize("make", [small_sweep, diverging_sweep])
    def test_rows_are_the_in_process_rows_on_any_cpu_count(self, cpus, make, n):
        cpus(n)
        spec = make()
        expected = records_to_jsonl(in_process(spec))
        before = sweep_work()["helper_rows"]
        assert records_to_jsonl(run_sweep(spec)) == expected  # the first sweep forks at its second trial
        assert records_to_jsonl(run_sweep(spec)) == expected
        helper_rows = sweep_work()["helper_rows"] - before
        trials = len(spec.points()) * spec.trials_per_point
        first = (trials - 1) // 2  # a live helper from the first sweep takes the second from its start
        assert helper_rows == (0 if n == 1 else first + (trials // 2 if first else first))

    def test_rows_alternate_between_the_processes(self, cpus, monkeypatch):
        cpus(2)
        spec = small_sweep(axes={"snr_db": [5.0, 10.0, 15.0]})
        ran_here = []  # the helper appends to its own copy
        real = harness._sweep_row

        def here(*args):
            ran_here.append(args[3] + 2 * args[2])  # the trial's position in the sweep
            return real(*args)

        monkeypatch.setattr(harness, "_sweep_row", here)
        run_sweep(spec)  # the helper forks at the second trial and takes the third
        run_sweep(spec)  # a live helper takes every odd trial
        assert ran_here == [0, 1, 3, 5] + [0, 2, 4]

    def test_killed_helper_loses_no_row(self, cpus):
        cpus(2)
        spec = small_sweep(trials_per_point=4)
        expected = in_process(spec)
        rows = iter_sweep(spec)
        got = [next(rows), next(rows)]  # the helper runs the third trial
        first = harness._live.pid
        os.kill(first, signal.SIGKILL)
        got += list(rows)
        assert got == expected
        assert harness._live is not None and harness._live.pid != first and gone(first)

    def test_abandoned_sweep_leaves_no_stale_row(self, cpus):
        cpus(2)
        a, b = small_sweep(base_seed="a"), small_sweep(base_seed="b")
        run_sweep(a)  # a live helper
        rows = iter_sweep(a)
        next(rows)  # a's second trial is in flight
        del rows
        assert run_sweep(b) == in_process(b)
        assert [row for pair in zip(iter_sweep(a), iter_sweep(b)) for row in pair] == [
            row for pair in zip(in_process(a), in_process(b)) for row in pair]

    @needs_proc
    def test_sigkilled_caller_leaves_no_helper(self):
        env = dict(os.environ, PYTHONPATH=str(SRC))
        proc = subprocess.Popen([sys.executable, "-c", CALLER, "100000"], env=env, stdout=subprocess.PIPE)
        pid = None
        try:
            pid = int(proc.stdout.readline())
            proc.send_signal(signal.SIGKILL)
            assert proc.wait(timeout=30) == -signal.SIGKILL
            assert wait_for_eof(proc.stdout, 30)  # the helper no longer holds the caller's stdout
            deadline = time.monotonic() + 30
            while not gone(pid) and time.monotonic() < deadline:
                time.sleep(0.01)
            assert gone(pid)
        finally:
            proc.kill()
            proc.stdout.close()
            proc.wait(timeout=30)
            if pid is not None and not gone(pid):  # leave no helper behind when the test fails
                os.kill(pid, signal.SIGKILL)

    @needs_proc
    def test_normal_exit_leaves_no_process(self):
        env = dict(os.environ, PYTHONPATH=str(SRC))
        proc = subprocess.run([sys.executable, "-c", CALLER, "6"], env=env, capture_output=True,
                              text=True, timeout=60)
        assert proc.returncode == 0, proc.stderr
        assert not os.path.exists(f"/proc/{int(proc.stdout)}")  # exited and reaped

    def test_single_cpu_or_threaded_caller_runs_in_process(self, cpus):
        spec = small_sweep()
        cpus(1)
        before = sweep_work()["helper_rows"]
        assert run_sweep(spec) == in_process(spec) and harness._live is None
        cpus(2)
        stop = threading.Event()
        other = threading.Thread(target=stop.wait)
        other.start()
        try:
            assert run_sweep(spec) == in_process(spec) and harness._live is None
        finally:
            stop.set()
            other.join(timeout=30)
        assert not other.is_alive() and sweep_work()["helper_rows"] == before

    @needs_proc
    def test_daemonic_caller_runs_in_process(self, cpus):
        cpus(2)
        context = multiprocessing.get_context("fork")
        reader, writer = context.Pipe(duplex=False)
        spec = small_sweep()

        def sweep():
            before = sweep_work()["helper_rows"]
            rows = run_sweep(spec)
            writer.send((rows, harness._live is None, sweep_work()["helper_rows"] - before))

        child = context.Process(target=sweep, daemon=True)
        child.start()
        try:
            assert reader.poll(60)
            rows, no_helper, helper_rows = reader.recv()
        finally:
            child.join(timeout=30)
        assert not child.is_alive() and child.exitcode == 0
        assert rows == in_process(spec) and no_helper and helper_rows == 0

    def test_forked_child_drops_the_parents_helper(self, cpus):
        cpus(2)
        run_sweep(small_sweep())
        parent_helper = harness._live
        pid = os.fork()
        if pid == 0:
            os._exit(0 if harness._live is None and parent_helper.closed else 1)
        assert os.waitpid(pid, 0)[1] == 0
        assert harness._live is parent_helper and not parent_helper.closed
        assert run_sweep(small_sweep()) == in_process(small_sweep())
