"""The README quick tour runs as written and prints what its comments claim."""

import re
from fractions import Fraction
from pathlib import Path

import recurlab as rl

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
