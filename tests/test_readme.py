"""The examples in README.md run as written."""

import json
import re
from pathlib import Path

from nleig.cli import main

README = Path(__file__).resolve().parents[1] / "README.md"


def _fenced_blocks(language: str) -> list[str]:
    return re.findall(rf"^```{language}\n(.*?)^```$", README.read_text(), re.M | re.S)


def test_readme_examples_run(tmp_path, capsys):
    outputs = []
    for block in _fenced_blocks("python"):
        exec(compile(block, str(README), "exec"), {})
        outputs.append(capsys.readouterr().out.split())
    (sigma, converged, _), (observed, iterations, last_is_p) = outputs
    assert converged == "True" and float(sigma) > 1.0
    assert observed == iterations and last_is_p == "True"
    configs = [json.loads(block) for block in _fenced_blocks("json")]
    assert sorted(config["command"] for config in configs) == ["kdv", "solve"]
    for config in configs:
        command = config["command"]
        path = tmp_path / f"{command}.json"
        path.write_text(json.dumps(config))
        assert main([command, "--config", str(path), "--output", str(tmp_path / command)]) == 0
