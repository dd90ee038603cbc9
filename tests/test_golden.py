"""Records against the golden corpus in tests/golden (rewritten by its regen.py).

The rule for a change of the program: every non-float leaf of a record stays
equal, and every float stays within 1e-12 relative of its golden value, or
exactly equal where that value is 0.
"""

import json
import os

import numpy as np
import pytest

from golden import regen
from recurlab import opcore

REL = 1e-12


def mismatches(golden, got, path="$") -> list[str]:
    """Every leaf where `got` breaks the rule against `golden`, by its JSON path."""
    if type(golden) is not type(got):
        return [f"{path}: {golden!r} -> {got!r}"]
    if isinstance(golden, float):
        ok = abs(got - golden) <= REL * abs(golden)
        return [] if ok else [f"{path}: {golden!r} -> {got!r}"]
    if isinstance(golden, dict):
        if golden.keys() != got.keys():
            return [f"{path}: keys {sorted(golden)} -> {sorted(got)}"]
        return [m for k in golden for m in mismatches(golden[k], got[k], f"{path}.{k}")]
    if isinstance(golden, list):
        if len(golden) != len(got):
            return [f"{path}: length {len(golden)} -> {len(got)}"]
        return [m for i, (a, b) in enumerate(zip(golden, got))
                for m in mismatches(a, b, f"{path}[{i}]")]
    return [] if golden == got else [f"{path}: {golden!r} -> {got!r}"]


def _golden(name):
    with open(regen.golden_path(name), encoding="utf-8") as f:
        return json.load(f)


def _fresh(name):
    return json.loads(regen.record_bytes(*regen.ENTRIES[name]))


def test_corpus_holds_exactly_the_entries():
    on_disk = {f[:-len(".json")] for f in os.listdir(regen.HERE) if f.endswith(".json")}
    assert on_disk == set(regen.ENTRIES)


def test_records_match_the_corpus():
    bad = {name: m for name in regen.ENTRIES
           if (m := mismatches(_golden(name), _fresh(name)))}
    assert not bad, "\n".join(f"{name}: {m[:3]}" for name, m in bad.items())


@pytest.mark.parametrize("golden, got, hit", [
    ({"a": 1.0}, {"a": 1.0 + 1e-13}, False),
    ({"a": 1.0}, {"a": 1.0 + 1e-11}, True),
    ({"a": 0.0}, {"a": 1e-300}, True),
    ({"a": 1}, {"a": 1.0}, True),
    ({"a": "1"}, {"a": "2"}, True),
    ({"a": [1, 2]}, {"a": [1]}, True),
    ({"a": 1}, {"a": 1, "b": None}, True),
    ({"a": 1, "b": None}, {"a": 1}, True),
], ids=["float-within", "float-outside", "zero-exact", "int-vs-float", "string",
        "length", "gains-key", "loses-key"])
def test_comparator(golden, got, hit):
    assert bool(mismatches(golden, got)) is hit


def test_corpus_catches_a_flipped_phase_sign(monkeypatch):
    turns = opcore.Moduli.turns
    monkeypatch.setattr(opcore.Moduli, "turns",
                        lambda self, r, cols=slice(None): np.conj(turns(self, r, cols)))
    name = "qr-search-flat-fold2-p2"
    assert mismatches(_golden(name), _fresh(name))
