"""Config parsing, deterministic sweeps, aggregation, and plot exports."""

import hashlib
import json

import numpy as np
import pytest

from stegolink.harness import (
    ConfigError,
    SweepSpec,
    _trial_config,
    aggregate_records,
    aggregates_csv,
    export_plot_data,
    iter_sweep,
    load_records,
    parse_config,
    records_to_jsonl,
    run_sweep,
    selftest,
)
from stegolink.pipeline import PipelineConfig, make_secret, run_trial


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

    def test_error_rows_never_abort(self):
        # a config that validates but whose chains diverge while it runs
        rows = run_sweep(diverging_sweep())
        assert len(rows) == 2
        assert rows[0]["error"] is None
        assert rows[1]["error"] == "ValueError: grid power overflows float64"
        assert rows[1]["trial"] is None

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

    def test_iter_matches_list(self):
        spec = small_sweep()
        assert list(iter_sweep(spec)) == run_sweep(spec)


# SHA-256 of records_to_jsonl(run_sweep(PINNED_SPEC)). The digest pins the
# records as computed with this numpy/BLAS build, so it can differ on another
# one. Only a change that alters records on purpose may re-pin it, and it
# records which records changed, and why, in CHANGES.md.
PINNED_SWEEP_SHA256 = "05e3812e7323f2bb57adf38e21fef4804db07b79af5ceb0f2075bf6f44ba1e17"

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


class TestExports:
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


class TestSelftest:
    def test_battery_passes_quietly(self, capsys):
        assert selftest(verbose=False)
        assert capsys.readouterr().out == ""

    def test_battery_prints_one_line_per_check(self, capsys):
        selftest(verbose=True)
        lines = [ln for ln in capsys.readouterr().out.splitlines() if ln]
        assert len(lines) >= 8
        assert all(ln.startswith("[PASS]") or ln.startswith("[FAIL]") for ln in lines)
