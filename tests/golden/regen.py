"""Rewrite the golden corpus: the JSON record of every entry of `ENTRIES`.

Run from the root of a source checkout:

    PYTHONPATH=src python tests/golden/regen.py

The corpus is what `tests/test_golden.py` compares fresh records against.
Regenerating it accepts every change of record on the spot, so a change that
regenerates it lists each changed entry in CHANGES.md with its old and new
values and the reason.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.dirname(HERE))  # the tests directory, for CLI_RUNS

from recurlab import cli  # noqa: E402
from test_acceptance import CLI_RUNS  # noqa: E402

FOLDS = (1, 2, 3)
NORMS = {"p1": 1, "p2": 2, "p3": 3, "sup": "sup"}


def _per_operator(operator: dict) -> dict:
    """The operator commands on one operator, by entry name suffix."""
    return {
        "construct": ("construct", {"operator": operator}),
        "rigidity": ("rigidity", {"operator": operator}),
        "orbit": ("orbit", {"operator": operator, "vector": {"kind": "basis", "index": 2},
                            "eps": 0.1, "horizon": 300}),
        "qr-search": ("qr-search", {"operator": operator, "epsSchedule": [1.0, 0.1]}),
        "qr-search-rotation-only": ("qr-search", {"operator": operator, "rotationOnly": True,
                                                  "epsSchedule": [1.0, 0.1]}),
        # a flat sample on every level shows the relative phase of rotation and
        # coupling at int64 and ladder-scale times: the head basis cannot
        "qr-search-flat": ("qr-search", {"operator": operator,
                                         "samples": [{"kind": "entries", "values": [1] * 24}],
                                         "epsSchedule": [1.0, 0.5, 0.25], "maxLevel": 14,
                                         "multipliers": [1, 2, 3], "neighbors": True}),
        "krylov": ("krylov", {"operator": operator, "vector": {"kind": "dyadic-comb"}}),
    }


def entries() -> dict[str, tuple[str, dict]]:
    """Entry name -> (command, config): the criterion-11 configs, then the operator
    commands over folds 1-3 and norms 1, 2, 3 and sup."""
    out = {f"criterion11-{command}": (command, config) for command, config in CLI_RUNS}
    for fold in FOLDS:
        for norm_name, norm in NORMS.items():
            operator = {"foldN": fold, "dimCap": 64, "norm": norm}
            for suffix, run in _per_operator(operator).items():
                out[f"{suffix}-fold{fold}-{norm_name}"] = run
    return out


ENTRIES = entries()


def record_bytes(command: str, config: dict) -> bytes:
    """The bytes of the one JSON record that `command` writes for `config`."""
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "config.json")
        with open(path, "w", encoding="utf-8") as f:
            json.dump(config, f)
        out_dir = os.path.join(tmp, "out")
        with contextlib.redirect_stdout(io.StringIO()):
            code = cli.main([command, "--config", path, "--out-dir", out_dir])
        if code != 0:
            raise RuntimeError(f"{command} exited {code} on {config}")
        (name,) = os.listdir(out_dir)
        with open(os.path.join(out_dir, name), "rb") as f:
            return f.read()


def golden_path(name: str) -> str:
    return os.path.join(HERE, f"{name}.json")


def main() -> int:
    stale = {f for f in os.listdir(HERE) if f.endswith(".json")}
    for name, (command, config) in ENTRIES.items():
        with open(golden_path(name), "wb") as f:
            f.write(record_bytes(command, config))
        stale.discard(f"{name}.json")
    for f in stale:
        os.remove(os.path.join(HERE, f))
    print(f"wrote {len(ENTRIES)} records to {HERE}, removed {len(stale)} stale")
    return 0


if __name__ == "__main__":
    sys.exit(main())
