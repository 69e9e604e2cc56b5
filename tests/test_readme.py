"""README's examples run as written, so an API change cannot leave them stale."""

import json
import re

from pathlib import Path

from stegolink.harness import SweepSpec, parse_config

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
