"""The README's examples run as written: its Python API block and its JSON configs."""
import re
from pathlib import Path

import pytest

from blockscan.cli import main

README = (Path(__file__).resolve().parents[1] / "README.md").read_text()


def _blocks(language: str) -> list[str]:
    return re.findall(rf"^```{language}\n(.*?)^```$", README, flags=re.S | re.M)


def test_python_api_block_runs_as_written(capsys):
    [block] = _blocks("python")
    exec(compile(block, "README.md", "exec"), {})
    lines = capsys.readouterr().out.splitlines()
    # one approximation row and one simulated point per threshold
    assert [float(line.split()[0]) for line in lines] == [31.0, 32.0, 33.0] * 2
    assert all(0.9 < float(line.split()[1]) < 1.0 for line in lines)


@pytest.mark.parametrize("index", [0, 1], ids=["minesweeper", "ma"])
def test_json_configs_validate(tmp_path, capsys, index):
    blocks = _blocks("json")
    assert len(blocks) == 2
    path = tmp_path / "run.json"
    path.write_text(blocks[index])
    assert main(["validate-config", "-c", str(path)]) == 0
    assert capsys.readouterr().out.strip() == "ok"
