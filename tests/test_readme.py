"""README's examples run as written, so an API change cannot leave them stale."""

import importlib
import json
import re

from dataclasses import replace
from pathlib import Path

import stegolink

from stegolink import pipeline
from stegolink.harness import SweepSpec, _trial_config, parse_config
from stegolink.pipeline import make_secret, run_trial

README = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")


def blocks(lang: str) -> list[str]:
    return re.findall(rf"^```{lang}\n(.*?)^```$", README, flags=re.MULTILINE | re.DOTALL)


def test_python_api_example_runs(capsys):
    (example,) = blocks("python")
    exec(compile(example, "README.md", "exec"), {})
    legit, eaves2 = map(float, capsys.readouterr().out.split())
    assert legit > eaves2


def test_sweep_example_parses(tmp_path):
    (example,) = blocks("json")
    path = tmp_path / "sweep.json"
    path.write_text(example, encoding="utf-8")
    spec = parse_config(str(path))
    assert isinstance(spec, SweepSpec)
    data = json.loads(example)
    assert spec.base.to_dict() == {**spec.base.to_dict(), **data["base"]}
    assert spec.axes == data["axes"]



def test_sweep_example_hides_each_secret_once_per_link(tmp_path):
    # with snr_db the last axis, the points of one eta share a link and come
    # one after another, so the stego memo holds the 20 secrets across them:
    # 3 links x 20 hides (run here at 10 steps, in-process); the three links
    # share one sampler, so the 20 secrets are noised once each
    (example,) = blocks("json")
    path = tmp_path / "sweep.json"
    path.write_text(example, encoding="utf-8")
    spec = parse_config(str(path))
    spec = replace(spec, base=replace(spec.base, steps=10))
    assert spec.base.shape == (1, 8, 8) and spec.trials_per_point == 20
    pipeline._stego.cache_clear()
    pipeline._noised.cache_clear()
    for point_index, point in enumerate(spec.points()):
        for trial_index in range(spec.trials_per_point):
            cfg = _trial_config(spec, point, point_index, trial_index)
            run_trial(make_secret(cfg.secret_seed, cfg.shape), cfg)
    assert pipeline._stego.cache_info().misses == 3 * 20
    assert pipeline._noised.cache_info().misses == 20


MODULES = sorted(p.stem for p in Path(stegolink.__file__).parent.glob("*.py") if not p.stem.startswith("_"))
# `stegolink.channel`, `pipeline.BUILD_CACHES` or `stegolink.acceptance.CRITERIA`,
# but not an attribute of something else, such as `link.reveal`
MODULE_NAME = re.compile(rf"(?<![\w./])(?:stegolink|{'|'.join(MODULES)})(?:\.\w+)+")


def resolve(name: str):
    parts = name.split(".")
    if parts[0] != "stegolink":
        parts.insert(0, "stegolink")
    obj = importlib.import_module(parts[0])
    for i, part in enumerate(parts[1:], start=2):
        obj = getattr(obj, part) if hasattr(obj, part) else importlib.import_module(".".join(parts[:i]))
    return obj


def test_every_module_name_resolves():
    # a rename cannot leave README's caches and API paragraphs naming what is gone
    names = sorted(set(MODULE_NAME.findall(README)))
    missing = []
    for name in names:
        try:
            resolve(name)
        except (AttributeError, ImportError):
            missing.append(name)
    assert "pipeline.BUILD_CACHES" in names and "stegolink.acceptance.CRITERIA" in names
    assert missing == []
