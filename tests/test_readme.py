"""The README quick tour and command line example run as written."""

import json
import re
import shlex
from fractions import Fraction
from pathlib import Path

import recurlab as rl
from recurlab import cli

README = Path(__file__).resolve().parent.parent / "README.md"


def test_quick_tour_runs(capsys):
    text = README.read_text(encoding="utf-8")
    tour = text.split("## Quick tour", 1)[1]
    block = re.search(r"```python\n(.*?)```", tour, re.S).group(1)
    ns: dict = {}
    exec(compile(block, str(README), "exec"), ns)
    # the (fold+1)-tuple stays above the 1/pi floor at every scanned time
    assert ns["scan"].min_defect > ns["op"].center_defect_floor()
    lower_banach = rl.density_profile(ns["a"], 5).lower_banach
    assert lower_banach == Fraction(1, 5)
    assert capsys.readouterr().out.splitlines()[-1] == "1/5"


def test_cli_example_runs(tmp_path, monkeypatch, capsys):
    text = README.read_text(encoding="utf-8")
    example = text.split("## Command line", 1)[1].split("Example:", 1)[1]
    name, body, command = re.search(
        r"cat > (\S+) <<'EOF'\n(.*?)\nEOF\n(recurlab [^\n]*)", example, re.S).groups()
    monkeypatch.chdir(tmp_path)
    Path(name).write_text(body, encoding="utf-8")
    argv = shlex.split(command)[1:]
    assert cli.main(argv) == 0
    out = Path(argv[argv.index("--out-dir") + 1])
    assert sorted(p.name for p in out.iterdir()) == ["orbit.json", "orbit.svg"]
    record = json.loads((out / "orbit.json").read_text(encoding="utf-8"))
    assert record["config"] == json.loads(body)
    assert capsys.readouterr().out.startswith("orbit eps=0.05 horizon=600 ")
