"""End-to-end smoke tests for the command-line interface."""

import hashlib
import importlib.metadata
import json
import math
import os
import platform
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from stegolink import __version__, acceptance, cli, harness, pipeline
from stegolink.cli import main
from stegolink.harness import parse_config, records_to_jsonl, run_sweep
from stegolink.pipeline import PipelineConfig, make_secret, run_trial

CLI = [sys.executable, "-m", "stegolink"]

PYPROJECT = Path(__file__).resolve().parents[1] / "pyproject.toml"

# What an installed console-script launcher does: load the declared entry
# point, restore the program name, and exit with the returned code. The
# entry point value is passed as the first argument and removed from argv.
LAUNCHER = """\
import sys
from importlib.metadata import EntryPoint
value = sys.argv.pop(1)
sys.argv[0] = "stegolink"
sys.exit(EntryPoint("stegolink", value, "console_scripts").load()())
"""

FAST = ["--steps", "10", "--shape", "1,8,8", "--token", "4242"]
UTF8_RULE = "must be text that UTF-8 can encode (no lone surrogates)"
LONE_SURROGATE = "\ud800"  # what a JSON "\ud800" escape decodes to: text with no UTF-8 form


def ok_line(receiver, metric, token):
    """A records line of an ok trial whose metrics are all 1.0 but receiver's metric, the JSON token."""
    trial = {key: {name: 1.0 for name in harness.METRIC_NAMES} for key in harness._RECORD_KEYS}
    trial[receiver][metric] = "@"
    return json.dumps({"point_index": 0, "axes": {}, "error": None, "trial": trial}).replace('"@"', token)


def run_cli(*argv, **kw):
    return subprocess.run([*CLI, *argv], capture_output=True, text=True, timeout=120, **kw)


def write_json(path, payload):
    path.write_text(json.dumps(payload))
    return str(path)


def _nan_grid():
    grid = make_secret(7, (1, 8, 8))
    grid[0, 3, 3] = np.nan
    return grid


def _overflowing_range_grid():
    # every value is finite, but max - min overflows float64
    return np.where(make_secret(7, (1, 8, 8)) > 0.0, 1e308, -1e308)


NOT_AN_OBJECT = "must be an object mapping config fields to values"
SWEEP_PAYLOAD = {
    "base": {"steps": 10, "shape": [1, 8, 8], "snr_db": 10.0},
    "axes": {"snr_db": [5.0, 10.0]},
    "trials_per_point": 2,
    "base_seed": "clitest",
}


class TestRun:
    def test_smoke(self):
        proc = run_cli("run", *FAST)
        assert proc.returncode == 0, proc.stderr
        out = proc.stdout
        for tag in ("legit:", "E1:", "E2:", "E3:", "round-trip max err"):
            assert tag in out

    def test_noiseless_hits_psnr_cap(self):
        proc = run_cli("run", *FAST, "--noiseless", "--scenario", "legit")
        assert proc.returncode == 0, proc.stderr
        assert "psnr  100.000 dB" in proc.stdout
        assert "E2:" not in proc.stdout

    def test_deterministic_stdout(self):
        args = ("run", *FAST, "--seed", "7")
        assert run_cli(*args).stdout == run_cli(*args).stdout

    def test_seed_changes_noise(self):
        base = run_cli("run", *FAST, "--seed", "1").stdout
        other = run_cli("run", *FAST, "--seed", "2").stdout
        assert base != other

    def test_record_file(self, tmp_path):
        out = tmp_path / "trial.json"
        proc = run_cli("run", *FAST, "--out", str(out))
        assert proc.returncode == 0, proc.stderr
        record = json.loads(out.read_text())
        assert record["config"]["token"] == "4242"
        assert set(record) >= {"legit", "eaves1", "eaves2", "eaves3", "peak"}

    def test_config_file_with_flag_override(self, tmp_path):
        cfg = write_json(tmp_path / "cfg.json",
                         {"steps": 10, "shape": [1, 8, 8], "token": "111"})
        with_file = run_cli("run", "--config", cfg, "--token", "4242", "--seed", "3")
        with_flags = run_cli("run", *FAST, "--seed", "3")
        assert with_file.returncode == 0, with_file.stderr
        assert with_file.stdout == with_flags.stdout

    def test_invalid_config_value_rc2(self, tmp_path):
        cfg = write_json(tmp_path / "cfg.json", {"eta": 1.5})
        proc = run_cli("run", "--config", cfg)
        assert proc.returncode == 2
        assert proc.stderr.startswith("config error:")
        assert "eta" in proc.stderr

    @pytest.mark.parametrize("payload,field", [
        ({"beta_start": 0.05}, "beta_start"),
        ({"steps": 10.5}, "steps"),
        ({"predictor_seed": -1}, "predictor_seed"),
        ({"secret_seed": -3}, "secret_seed"),
        ({"shape": [1, 8.5, 8]}, "shape"),
        ({"snr_db": -6000}, "snr_db"),
        ({"snr_db": 4000}, "snr_db"),
        ({"shape": [1, 1, 1]}, "shape"),
    ])
    def test_bad_config_value_rc2_names_field(self, tmp_path, payload, field):
        cfg = write_json(tmp_path / "cfg.json", payload)
        proc = run_cli("run", "--config", cfg)
        assert proc.returncode == 2
        assert proc.stderr.startswith("config error:")
        assert field in proc.stderr

    @pytest.mark.parametrize("seed", ["-1", str(2 ** 64)])
    def test_out_of_range_seed_rc2_names_field(self, seed):
        # it once exited 1 with a message that named no field
        proc = run_cli("run", *FAST, "--seed", seed)
        assert proc.returncode == 2
        assert proc.stderr == "config error: seed: must be an integer in [0, 2^64)\n"

    def test_largest_seed_accepted(self):
        proc = run_cli("run", *FAST, "--seed", str(2 ** 64 - 1))
        assert proc.returncode == 0, proc.stderr

    @pytest.mark.parametrize("snr_db", ["-3090", "-3076.5265556858876"])
    def test_subnormal_noise_divisor_rc2_names_snr_db(self, snr_db):
        # 10^(-309) once overflowed the noise variance to inf, and the run
        # exited 1 blaming the sampler after a RuntimeWarning; the second
        # value is the highest whose divisor rounds below the smallest normal
        proc = run_cli("run", "--snr-db", snr_db, "--steps", "10", "--shape", "1,8,8")
        assert proc.returncode == 2
        assert proc.stderr == ("config error: snr_db: 10^(snr_db/10) must be finite and at least "
                               "2.2250738585072014e-308 (the smallest normal float64)\n")

    @pytest.mark.parametrize("command,prefix", [("run", ""), ("sweep", "base: ")])
    def test_removed_channel_gain_rc2_as_unknown_field(self, tmp_path, command, prefix):
        # h only shifted the SNR, and is gone; a file that still sets it fails
        run_cfg = {"steps": 10, "shape": [1, 8, 8], "h": 1.0}
        payload = run_cfg if command == "run" else dict(SWEEP_PAYLOAD, base=run_cfg)
        cfg = write_json(tmp_path / "cfg.json", payload)
        proc = run_cli(command, "--config", cfg, "--out", str(tmp_path / "out"))
        assert proc.returncode == 2
        assert proc.stderr == f"config error: {prefix}unknown config field(s): h\n"
        assert not (tmp_path / "out").exists()

    def test_missing_config_rc2(self):
        proc = run_cli("run", "--config", "/nonexistent/cfg.json")
        assert proc.returncode == 2
        assert "config error" in proc.stderr

    def test_bad_shape_flag_rc2(self):
        proc = run_cli("run", "--shape", "8x8")
        assert proc.returncode == 2
        assert "shape" in proc.stderr

    def test_sweep_file_rejected_by_run(self, tmp_path):
        cfg = write_json(tmp_path / "sweep.json", SWEEP_PAYLOAD)
        proc = run_cli("run", "--config", cfg)
        assert proc.returncode == 2

    def test_secret_npy_gives_the_seeded_record(self, tmp_path):
        path = tmp_path / "secret.npy"
        np.save(path, make_secret(7, (1, 8, 8)))
        from_file, seeded = tmp_path / "file.json", tmp_path / "seeded.json"
        assert main(["run", *FAST, "--seed", "7", "--secret-npy", str(path), "--out", str(from_file)]) == 0
        assert main(["run", *FAST, "--seed", "7", "--out", str(seeded)]) == 0
        from_file, seeded = json.loads(from_file.read_text()), json.loads(seeded.read_text())
        assert from_file.pop("secret") != seeded.pop("secret")
        assert from_file == seeded

    def test_record_names_its_secret_source(self, tmp_path):
        # a record can be replayed: from make_secret's seed, or from the
        # file it names, checked by its SHA-256
        path = tmp_path / "secret.npy"
        np.save(path, make_secret(3, (1, 8, 8)))
        from_file, seeded = tmp_path / "file.json", tmp_path / "seeded.json"
        assert main(["run", *FAST, "--seed", "7", "--secret-npy", str(path), "--out", str(from_file)]) == 0
        assert main(["run", *FAST, "--seed", "7", "--out", str(seeded)]) == 0
        from_file, seeded = json.loads(from_file.read_text()), json.loads(seeded.read_text())
        assert from_file["secret"] == {"npy": str(path), "sha256": hashlib.sha256(path.read_bytes()).hexdigest()}
        assert seeded["secret"] == {"make_secret": 7} == {"make_secret": seeded["config"]["secret_seed"]}
        for record in (from_file, seeded):
            source = record.pop("secret")
            secret = np.load(source["npy"]) if "npy" in source else make_secret(source["make_secret"], (1, 8, 8))
            replayed = run_trial(secret, PipelineConfig.from_dict(record["config"])).to_dict()
            assert json.loads(json.dumps(replayed)) == record

    @pytest.mark.parametrize("content,reason", [
        (_nan_grid(), "non-finite"),
        (_overflowing_range_grid(), "overflows float64"),
        (np.full((1, 8, 8), 0.5), "constant"),
        (np.full((1, 8, 8), None, dtype=object), "cannot load"),
        (np.full((1, 8, 8), "x"), "dtype <U1"),
        (make_secret(7, (1, 4, 4)), "shape (1, 4, 4)"),
        (b"not an array", "cannot load"),
        (make_secret(11, (1, 8, 8)) * 1e80, "past which SSIM overflows float64"),
    ], ids=["nan", "overflowing-range", "constant", "object", "strings", "shape", "not-npy", "ssim-overflow"])
    def test_bad_secret_npy_rc2_names_field(self, tmp_path, capsys, content, reason):
        path = tmp_path / "secret.npy"
        if isinstance(content, bytes):
            path.write_bytes(content)
        else:
            np.save(path, content, allow_pickle=True)
        assert main(["run", *FAST, "--secret-npy", str(path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: secret_npy:")
        assert reason in err


@pytest.fixture(scope="module")
def sweep_dir(tmp_path_factory):
    root = tmp_path_factory.mktemp("sweep")
    cfg = write_json(root / "sweep.json", SWEEP_PAYLOAD)
    out = root / "out"
    proc = run_cli("sweep", "--config", cfg, "--out", str(out))
    assert proc.returncode == 0, proc.stderr
    assert "4 trials (0 failed)" in proc.stdout
    return out


class TestSweepAndExport:
    def test_outputs_exist(self, sweep_dir):
        records = (sweep_dir / "records.jsonl").read_text()
        rows = [json.loads(line) for line in records.splitlines()]
        assert len(rows) == 4
        csv_lines = (sweep_dir / "aggregates.csv").read_text().splitlines()
        assert len(csv_lines) == 3
        assert csv_lines[0].startswith("point_index,snr_db,trials,ok,")

    def test_rerun_byte_identical(self, sweep_dir, tmp_path):
        cfg = write_json(tmp_path / "sweep.json", SWEEP_PAYLOAD)
        out = tmp_path / "out"
        proc = run_cli("sweep", "--config", cfg, "--out", str(out))
        assert proc.returncode == 0, proc.stderr
        for name in ("records.jsonl", "aggregates.csv"):
            assert (out / name).read_bytes() == (sweep_dir / name).read_bytes()

    def test_export_stdout(self, sweep_dir):
        proc = run_cli("export", "--records", str(sweep_dir / "records.jsonl"),
                       "--kind", "snr_curves")
        assert proc.returncode == 0, proc.stderr
        lines = proc.stdout.splitlines()
        assert lines[0].startswith("snr_db,n,legit_psnr_db_mean")
        assert len(lines) == 3

    def test_export_to_file(self, sweep_dir, tmp_path):
        out = tmp_path / "bars.csv"
        proc = run_cli("export", "--records", str(sweep_dir / "records.jsonl"),
                       "--kind", "scenario_bars", "--out", str(out))
        assert proc.returncode == 0, proc.stderr
        assert out.read_text().splitlines()[0].startswith("scenario,n,")

    def test_export_wrong_axis_rc2(self, sweep_dir):
        proc = run_cli("export", "--records", str(sweep_dir / "records.jsonl"),
                       "--kind", "eta_curves")
        assert proc.returncode == 2
        assert "config error" in proc.stderr

    def test_export_unknown_kind_rejected_by_argparse(self, sweep_dir):
        proc = run_cli("export", "--records", str(sweep_dir / "records.jsonl"),
                       "--kind", "violin")
        assert proc.returncode == 2

    def test_progress_on_stderr_leaves_records_unchanged(self, tmp_path):
        cfg = write_json(tmp_path / "sweep.json", SWEEP_PAYLOAD)
        proc = run_cli("sweep", "--config", cfg, "--out", str(tmp_path / "out"))
        assert proc.returncode == 0, proc.stderr
        assert proc.stderr.splitlines()[-1].startswith("sweep: done 4/4 trials in ")
        records = (tmp_path / "out" / "records.jsonl").read_text()
        assert records == records_to_jsonl(run_sweep(parse_config(cfg)))

    def test_summary_counts_what_the_sweep_built(self, tmp_path, capsys, monkeypatch):
        # one (config, token) over an snr_db axis: the first run builds one
        # link, three references and two models, and noises and hides the
        # test set's two secrets once for both points; the same sweep run
        # again finds everything in the caches. Each process holds its own
        # memos, and with the helper each runs one trial index throughout,
        # so the rerun noises and hides nothing either way
        cfg = write_json(tmp_path / "sweep.json", SWEEP_PAYLOAD)
        for cpus in (1, 2):
            monkeypatch.setattr(os, "sched_getaffinity", lambda pid, cpus=cpus: set(range(cpus)), raising=False)
            harness.close_helper()
            for cache in pipeline.BUILD_CACHES.values():
                cache.cache_clear()
            for links, references, models, secrets in ((1, 3, 2, 2), (0, 0, 0, 0)):
                assert main(["sweep", "--config", cfg, "--out", str(tmp_path / "out")]) == 0
                summary = capsys.readouterr().err.splitlines()[-1]
                assert summary.startswith("sweep: done 4/4 trials in ")
                assert summary.endswith(f", {links} links built, {references} references generated, "
                                        f"{models} models built, {secrets} noising passes run, "
                                        f"{secrets} stegos hidden")

    @pytest.mark.parametrize("cpus", [1, 2])
    def test_each_secret_is_hidden_in_one_process(self, tmp_path, capsys, monkeypatch, cpus):
        # 4 SNR points of 3 trials, run twice: the helper takes trial 1 at
        # every point, in the sweep that forks it and in the next, so the
        # test set's 3 secrets are noised and hidden 3 times in all (once
        # this was 5 with the helper, when a trial index changed process)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)), raising=False)
        cfg = write_json(tmp_path / "sweep.json", dict(SWEEP_PAYLOAD, axes={"snr_db": [5.0, 10.0, 15.0, 20.0]},
                                                       trials_per_point=3))
        harness.close_helper()
        for cache in pipeline.BUILD_CACHES.values():
            cache.cache_clear()
        for secrets in (3, 0):
            assert main(["sweep", "--config", cfg, "--out", str(tmp_path / "out")]) == 0
            summary = capsys.readouterr().err.splitlines()[-1]
            assert summary.endswith(f", {secrets} noising passes run, {secrets} stegos hidden")

    @pytest.mark.parametrize("cpus", [1, 2])
    def test_summary_counts_what_the_helper_built(self, tmp_path, capsys, monkeypatch, cpus):
        # a cold 3-point eta grid: the caller builds the first and third
        # links and, with two CPUs, the helper the second, from the caller's
        # references and models; the one secret is noised once for the
        # grid's one sampler and hidden once per link; the summary counts
        # the same either way
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)), raising=False)
        cfg = write_json(tmp_path / "sweep.json", dict(SWEEP_PAYLOAD, axes={"eta": [0.01, 0.05, 0.5]},
                                                       trials_per_point=1))
        for cache in pipeline.BUILD_CACHES.values():
            cache.cache_clear()
        assert main(["sweep", "--config", cfg, "--out", str(tmp_path / "out")]) == 0
        summary = capsys.readouterr().err.splitlines()[-1]
        assert summary.endswith(", 3 links built, 3 references generated, 2 models built, "
                                "1 noising passes run, 3 stegos hidden")
        assert pipeline._keyed_link.cache_info().misses == (3 if cpus == 1 else 2)
        assert pipeline._stego.cache_info().misses == (3 if cpus == 1 else 2)
        assert pipeline._noised.cache_info().misses == 1  # the helper forked with the secret noised
        environment = json.loads((tmp_path / "out" / "environment.json").read_text())
        assert environment["helper"] is (cpus == 2) and environment["cpus"] == cpus
        records = (tmp_path / "out" / "records.jsonl").read_text()
        assert records == records_to_jsonl(harness.run_sweep(parse_config(cfg)))

    def test_environment_names_the_software_and_cpu(self, sweep_dir):
        environment = json.loads((sweep_dir / "environment.json").read_text())
        assert sorted(environment) == ["blas", "cpu_features", "cpus", "helper", "numpy", "python", "stegolink"]
        assert environment["stegolink"] == __version__ and environment["numpy"] == np.__version__
        assert environment["python"] == platform.python_version()
        assert environment["blas"] == np.show_config(mode="dicts")["Build Dependencies"]["blas"]["name"]
        assert sorted(environment["cpu_features"]) == ["baseline", "found"]
        assert all(isinstance(f, str) for fs in environment["cpu_features"].values() for f in fs)
        assert isinstance(environment["helper"], bool) and environment["cpus"] >= 1

    def test_out_naming_a_file_rc2_names_out(self, tmp_path, capsys):
        cfg = write_json(tmp_path / "sweep.json", SWEEP_PAYLOAD)
        out = tmp_path / "taken"
        out.write_text("keep me\n")
        assert main(["sweep", "--config", cfg, "--out", str(out)]) == 2
        assert capsys.readouterr().err.startswith(f"config error: out: cannot use {str(out)!r}")
        assert out.read_text() == "keep me\n"

    @pytest.mark.parametrize("name", ["records.jsonl", "aggregates.csv", "environment.json"])
    def test_output_file_that_is_a_directory_rc2_before_any_trial(self, tmp_path, capsys, monkeypatch, name):
        # these once ran every trial, or none for records.jsonl, and then
        # exited 1 with IsADirectoryError
        calls = []
        harness.close_helper()
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)  # so no helper forks
        monkeypatch.setattr(harness, "run_trial", lambda *args: calls.append(args) or 1 / 0)
        cfg = write_json(tmp_path / "sweep.json", SWEEP_PAYLOAD)
        out = tmp_path / "out"
        (out / name).mkdir(parents=True)
        assert main(["sweep", "--config", cfg, "--out", str(out)]) == 2
        assert capsys.readouterr().err == f"config error: out: {str(out / name)!r} is a directory\n"
        assert calls == [] and [p.name for p in out.iterdir()] == [name]

    @pytest.mark.parametrize("kind,line,reason", [
        ("snr_curves", "not json", "Expecting value"),
        ("snr_curves", '{"a": 1}', "missing 'point_index'"),
        ("scenario_bars", "[1, 2]", "not a JSON object but list"),
        ("snr_curves", '{"point_index": 0, "axes": [], "error": null}', "'axes' is not an object"),
        ("snr_curves", '{"point_index": 0, "axes": {}, "error": 5}', "'error' is neither null nor a string"),
        ("snr_curves", '{"point_index": 0, "axes": {}, "error": null}', "'trial' is not an object"),
        ("scenario_bars", '{"point_index": 0, "axes": {}, "error": null, "trial": {"legit": {}}}',
         "'trial.legit.psnr_db' is not a number"),
        ("snr_curves", b'{"a": "\x80"}', "can't decode byte 0x80"),
        ("snr_curves", '{"point_index": 0, "axes": {"snr_db": [1, 2]}, "error": null}',
         "'axes.snr_db' is not a scalar"),
        ("scenario_bars", ok_line("legit", "psnr_db", "NaN"), "'trial.legit.psnr_db' is not a number"),
        ("scenario_bars", ok_line("eaves2", "mse", "Infinity"), "'trial.eaves2.mse' is not a number"),
        ("scenario_bars", ok_line("eaves3", "ssim", "-Infinity"), "'trial.eaves3.ssim' is not a number"),
    ])
    def test_export_malformed_record_rc2_names_the_line(self, sweep_dir, tmp_path, capsys, kind, line, reason):
        good = (sweep_dir / "records.jsonl").read_bytes().splitlines(keepends=True)
        path = tmp_path / "records.jsonl"
        path.write_bytes(b"".join(good[:2]) + b"\n" + (line if isinstance(line, bytes) else line.encode()) + b"\n")
        assert main(["export", "--records", str(path), "--kind", kind]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: records line 4: ") and reason in err

    def test_export_non_numeric_axis_rc2_names_the_axis(self, sweep_dir, tmp_path, capsys):
        # a string beside numbers once failed sorting the values, exit 1, and
        # a NaN or an Infinity once printed a row, exit 0
        rows = [json.loads(line) for line in (sweep_dir / "records.jsonl").read_text().splitlines()]
        for value in ("ten", math.nan, math.inf, -math.inf):
            rows[-1]["axes"]["snr_db"] = value
            path = tmp_path / "records.jsonl"
            path.write_text(records_to_jsonl(rows))
            assert main(["export", "--records", str(path), "--kind", "snr_curves"]) == 2
            assert capsys.readouterr().err == (f"config error: axes.snr_db: {value!r} is not a number; "
                                               "cannot export this kind\n")

    @pytest.mark.parametrize("argv,flag", [
        (["run", "--config", "{dir}"], "config"),
        (["run", "--config", "{latin1}"], "config"),
        (["sweep", "--config", "{dir}", "--out", "{dir}/out"], "config"),
        (["export", "--records", "{dir}", "--kind", "snr_curves"], "records"),
        (["export", "--records", "{records}", "--kind", "snr_curves", "--out", "{dir}"], "out"),
        (["run", *FAST, "--out", "{dir}"], "out"),
        (["run", *FAST, "--out", "{dir}/missing/record.json"], "out"),
    ])
    def test_unusable_path_rc2_names_its_flag_before_any_work(self, sweep_dir, tmp_path, capsys, monkeypatch,
                                                               argv, flag):
        # these once exited 1 naming IsADirectoryError or UnicodeDecodeError,
        # or 2 naming no flag after the trial had run
        def no_work(*args, **kwargs):
            raise AssertionError("no trial or export may run")

        monkeypatch.setattr(cli, "run_trial", no_work)
        monkeypatch.setattr(cli, "export_plot_data", no_work)
        (tmp_path / "latin1.json").write_bytes(b'{"token": "caf\xe9"}')
        paths = {"dir": str(tmp_path), "latin1": str(tmp_path / "latin1.json"),
                 "records": str(sweep_dir / "records.jsonl")}
        assert main([arg.format(**paths) for arg in argv]) == 2
        assert capsys.readouterr().err.startswith(f"config error: {flag}: ")
        assert sorted(p.name for p in tmp_path.iterdir()) == ["latin1.json"]

    @pytest.mark.parametrize("change,field", [
        ({"base_seed": None}, "base_seed"),
        ({"base_seed": 5}, "base_seed"),
        ({"axes": {"token": [9000]}}, "axes.token"),
        ({"axes": {"eta": [0.05, 7.0]}}, "axes.eta"),
        ({"axes": [1, 2]}, "axes:"),  # these three once exited 1 from dict()
        ({"axes": "ab"}, "axes:"),
        ({"axes": None}, "axes:"),
        # these once exited 2 with Python's own text, or (for "x") a wrong one
        *(pytest.param({"base": base}, f"base: {NOT_AN_OBJECT}", id=f"base-{json.dumps(base)}")
          for base in (5, None, [1], ["steps"], "x")),
    ])
    def test_bad_sweep_value_rc2_names_field(self, tmp_path, change, field):
        cfg = write_json(tmp_path / "sweep.json", dict(SWEEP_PAYLOAD, **change))
        proc = run_cli("sweep", "--config", cfg, "--out", str(tmp_path / "out"))
        assert proc.returncode == 2
        assert proc.stderr.startswith("config error:")
        assert field in proc.stderr

    def test_run_config_rejected_by_sweep(self, tmp_path):
        cfg = write_json(tmp_path / "cfg.json", {"steps": 10, "shape": [1, 8, 8]})
        proc = run_cli("sweep", "--config", cfg, "--out", str(tmp_path / "out"))
        assert proc.returncode == 2


class TestTextFields:
    # each once passed the config checks and failed in the hash with
    # UnicodeEncodeError: run exited 1, a sweep wrote error rows or no aggregates

    @pytest.mark.parametrize("field", ["token", "eavesdropper_token", "public_key_text", "feature_text"])
    def test_config_text_utf8_cannot_encode_rc2_names_field(self, tmp_path, capsys, field):
        cfg = write_json(tmp_path / "cfg.json", {"steps": 10, "shape": [1, 8, 8], field: LONE_SURROGATE})
        assert main(["run", "--config", cfg]) == 2
        assert capsys.readouterr().err == f"config error: {field}: {UTF8_RULE}\n"

    def test_token_flag_of_bytes_that_are_not_utf8_rc2(self, capsys):
        # argv bytes that are not UTF-8 reach Python as lone surrogates
        assert main(["run", *FAST, "--token", os.fsdecode(b"\xff")]) == 2
        assert capsys.readouterr().err == f"config error: token: {UTF8_RULE}\n"

    @pytest.mark.parametrize("change,field", [
        ({"base_seed": LONE_SURROGATE}, "base_seed"),
        ({"axes": {"eavesdropper_token": ["856427", LONE_SURROGATE]}}, "axes.eavesdropper_token"),
    ], ids=["base_seed", "eavesdropper_token-axis"])
    def test_sweep_text_utf8_cannot_encode_rc2_before_any_output(self, tmp_path, capsys, change, field):
        cfg = write_json(tmp_path / "sweep.json", dict(SWEEP_PAYLOAD, **change))
        assert main(["sweep", "--config", cfg, "--out", str(tmp_path / "out")]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"config error: {field}: ") and err.endswith(f"{UTF8_RULE}\n")
        assert sorted(p.name for p in tmp_path.iterdir()) == ["sweep.json"]


class TestOutNamesNoInput:
    # each once wrote over its own input and exited 0

    @pytest.fixture(params=["same path", "symlink"])
    def alias(self, request, tmp_path):
        # the path an output flag is given for an input file
        def name(path):
            if request.param == "same path":
                return str(path)
            link = tmp_path / f"link-to-{path.name}"
            link.symlink_to(path)
            return str(link)
        return name

    def refused(self, argv, path, capsys):
        before = path.read_bytes()
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: out: ") and "is the same file as the input" in err
        assert path.read_bytes() == before

    def test_export_out_naming_its_records(self, sweep_dir, tmp_path, capsys, alias):
        records = tmp_path / "records.jsonl"
        shutil.copy(sweep_dir / "records.jsonl", records)
        self.refused(["export", "--records", str(records), "--kind", "snr_curves", "--out", alias(records)],
                     records, capsys)

    def test_run_out_naming_its_config(self, tmp_path, capsys, alias):
        cfg = tmp_path / "cfg.json"
        write_json(cfg, {"steps": 10, "shape": [1, 8, 8]})
        self.refused(["run", "--config", str(cfg), "--out", alias(cfg)], cfg, capsys)

    def test_run_out_naming_its_secret(self, tmp_path, capsys, alias):
        secret = tmp_path / "secret.npy"
        np.save(secret, make_secret(3, (1, 8, 8)))
        self.refused(["run", *FAST, "--secret-npy", str(secret), "--out", alias(secret)], secret, capsys)

    @pytest.mark.parametrize("name", ["records.jsonl", "aggregates.csv", "environment.json"])
    def test_sweep_output_naming_its_config(self, tmp_path, capsys, name):
        out = tmp_path / "out"
        out.mkdir()
        cfg = out / name
        write_json(cfg, SWEEP_PAYLOAD)
        self.refused(["sweep", "--config", str(cfg), "--out", str(out)], cfg, capsys)
        assert [p.name for p in out.iterdir()] == [name]


@pytest.mark.parametrize("receiver", pipeline.RECEIVERS, ids=lambda receiver: receiver.name)
def test_each_receiver_is_recorded_summarized_and_reported(sweep_dir, tmp_path, capsys, receiver):
    # every entry of the receiver table reaches each place that lists receivers
    out = tmp_path / "record.json"
    assert main(["run", *FAST, "--scenario", receiver.name, "--out", str(out)]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0].startswith(f"{receiver.name:>5}: psnr ") and lines[1].startswith("round-trip max err")
    assert set(json.loads(out.read_text())[receiver.key]) == set(harness.METRIC_NAMES)

    header = (sweep_dir / "aggregates.csv").read_text().splitlines()[0].split(",")
    assert {f"{receiver.key}_{metric}_{stat}" for metric in harness.METRIC_NAMES
            for stat in ("mean", "std")} <= set(header)

    rows = [json.loads(line) for line in (sweep_dir / "records.jsonl").read_text().splitlines()]
    path = tmp_path / "records.jsonl"
    for metric in harness.METRIC_NAMES:
        broken = json.loads(json.dumps(rows))
        del broken[-1]["trial"][receiver.key][metric]
        path.write_text(records_to_jsonl(broken))
        with pytest.raises(harness.ConfigError, match=f"line 4: 'trial.{receiver.key}.{metric}' is not a number"):
            harness.load_records(str(path))


def _installed():
    try:
        importlib.metadata.distribution("stegolink")
    except importlib.metadata.PackageNotFoundError:
        return False
    return True


def _installed_launcher():
    """Path of the installed `stegolink` launcher, from the distribution's files."""
    dist = importlib.metadata.distribution("stegolink")
    for f in dist.files or ():
        if f.stem == "stegolink" and f.parent.name in ("bin", "Scripts"):
            return str(dist.locate_file(f))
    return shutil.which("stegolink")


class TestSelftestAndEntryPoint:
    def test_selftest_rc0_all_pass(self, capsys):
        # in-process, so the battery reuses the work the acceptance tests cached
        assert main(["selftest"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert len(lines) == len(acceptance.CRITERIA)
        for number, line in enumerate(lines, 1):
            assert line.startswith(f"[PASS] criterion {number} ")

    def test_selftest_failing_criterion_rc1(self, capsys, monkeypatch):
        failing = acceptance.Check(False, "criterion 2 keyed recovery", "forced failure")
        criteria = list(acceptance.CRITERIA)
        criteria[1] = lambda: failing  # the slowest criterion, so the rest stay cheap
        monkeypatch.setattr(acceptance, "CRITERIA", tuple(criteria))
        assert main(["selftest"]) == 1
        lines = capsys.readouterr().out.splitlines()
        assert len(lines) == len(criteria)
        assert lines[1] == "[FAIL] criterion 2 keyed recovery: forced failure"
        assert sum(line.startswith("[FAIL]") for line in lines) == 1

    def test_console_script_installed(self):
        """The declared `stegolink` script starts the CLI; no install needed."""
        tomllib = pytest.importorskip("tomllib")
        scripts = tomllib.loads(PYPROJECT.read_text())["project"]["scripts"]
        assert "stegolink" in scripts
        proc = subprocess.run(
            [sys.executable, "-c", LAUNCHER, scripts["stegolink"],
             "run", *FAST, "--noiseless", "--scenario", "legit"],
            capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr
        assert "legit:" in proc.stdout

    @pytest.mark.skipif(not _installed(), reason="no stegolink distribution installed")
    def test_installed_launcher_runs(self):
        exe = _installed_launcher()
        assert exe is not None
        proc = subprocess.run([exe, "run", *FAST, "--noiseless", "--scenario", "legit"],
                              capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr
        assert "legit:" in proc.stdout
