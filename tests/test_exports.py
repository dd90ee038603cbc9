"""The package namespace: `__all__`, its lazy lookup, and what an import loads."""

import importlib
import inspect
import json
import os
import subprocess
import sys
import textwrap

import pytest

import recurlab as rl
from recurlab import natset

SRC = os.path.dirname(os.path.dirname(os.path.abspath(rl.__file__)))


def test_every_export_resolves():
    assert [name for name in rl.__all__ if not hasattr(rl, name)] == []
    assert len(set(rl.__all__)) == len(rl.__all__)


def test_every_export_is_its_home_modules_object():
    # each name in the table is looked up in, and defined by, the module it names
    for name, home in rl._HOME.items():
        module = importlib.import_module(f"recurlab.{home}")
        value = vars(module)[name]
        assert getattr(rl, name) is value, name
        if inspect.isclass(value) or inspect.isfunction(value):
            assert value.__module__ == module.__name__, name
    assert set(rl.__all__) == {*rl._HOME, "__version__"}


def test_dir_lists_the_exports():
    assert dir(rl) == sorted(rl.__all__)
    with pytest.raises(AttributeError):
        rl.no_such_name


def test_lookup_sees_a_patched_module_attribute(monkeypatch):
    sentinel = object()
    monkeypatch.setattr(natset, "density_profile", sentinel)
    assert rl.density_profile is sentinel


def _fresh(code: str) -> dict:
    """Run `code` in a fresh interpreter; the JSON it prints on its last line."""
    env = {**os.environ, "PYTHONPATH": SRC}
    done = subprocess.run([sys.executable, "-c", textwrap.dedent(code)], env=env,
                          capture_output=True, text=True, timeout=120, check=True)
    return json.loads(done.stdout.splitlines()[-1])


LOADED = ("sorted(m for m in sys.modules "
          "if m.startswith('recurlab.') or m.split('.')[0] == 'numpy')")


def test_bare_import_loads_no_submodule():
    got = _fresh(f"""
        import json, sys
        import recurlab as rl
        loaded = {LOADED}
        from recurlab import build_operator
        print(json.dumps([loaded, rl.opcore.SUP, build_operator.__module__]))
    """)
    assert got == [[], float("inf"), "recurlab.perturbed_rotation"]


def test_set_commands_never_load_numpy(tmp_path):
    family = {"kind": "union", "parts": [{"kind": "multiples", "p": 3},
                                         {"kind": "ip", "generators": [1, 4, 16]}]}
    configs = {
        "families": {"family": family, "horizon": 200, "window": 20},
        "period": {"family": {"kind": "multiples", "p": 5}, "horizon": 200,
                   "window": 20, "delta": 0.1},
        "orbit": {"operator": {"foldN": 2, "dimCap": 16},
                  "vector": {"kind": "basis", "index": 1}, "eps": 0.1, "horizon": 20},
    }
    argvs = []
    for command, cfg in configs.items():
        path = tmp_path / f"{command}.json"
        path.write_text(json.dumps(cfg))
        argvs.append([command, "--config", str(path), "--out-dir", str(tmp_path / command),
                      "--format", "json", "--format", "csv", "--format", "svg"])
    got = _fresh(f"""
        import json, sys
        from recurlab import cli
        seen = []
        for argv in {argvs!r}:
            seen.append([cli.main(argv), 'numpy' in sys.modules])
        print(json.dumps(seen))
    """)
    assert got == [[0, False], [0, False], [0, True]]
