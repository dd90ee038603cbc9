import contextlib
import copy
import io
import json
import os
import re
import sys
import time
import traceback
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import recurlab as rl
from recurlab import cli, report
from test_acceptance import CLI_RUNS

OP = {"foldN": 2, "dimCap": 64}


def write_cfg(tmp_path, name, data):
    p = tmp_path / name
    p.write_text(json.dumps(data))
    return str(p)


def run(argv, capsys):
    code = cli.main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def read_json(out_dir, name):
    with open(os.path.join(out_dir, name)) as f:
        return json.load(f)


def slurp_dir(out_dir):
    return {name: open(os.path.join(out_dir, name), "rb").read()
            for name in sorted(os.listdir(out_dir))}


# every error class the libraries raise on a rejected input value
LIBRARY_ERRORS = ["NatSetError", "OpcoreError", "ConstructionError",
                  "GridResolutionError", "DynamicsError"]


def run_raising(tmp_path, capsys, monkeypatch, error):
    """Run `families` with its command replaced by one that raises `error`."""
    def reject(cfg, sink):
        raise error("rejected value")
    monkeypatch.setitem(cli._COMMANDS, "families", reject)
    cfg = write_cfg(tmp_path, "f.json", {
        "horizon": 40, "family": {"kind": "multiples", "p": 5}})
    return run(["families", "--config", cfg, "--out-dir", str(tmp_path / "o")], capsys)


MULTIPLES = {"kind": "multiples", "p": 3}
SMALL = {"foldN": 1, "dimCap": 16}
BASIS = {"kind": "basis", "index": 1}


def _in_family(family):
    return {"family": family, "horizon": 10}


def _in_orbit(vector):
    return {"operator": SMALL, "vector": vector, "eps": 0.1, "horizon": 10}


# the refusals of a config's shape at each level: an unknown key (with the keys
# allowed there), a missing required key, an object of another JSON type, an
# unknown kind
STRUCTURAL_REFUSALS = [pytest.param(*case, id=name) for name, *case in [
    ("top-unknown", "families", {"family": MULTIPLES, "horizon": 10, "windw": 2},
     "unknown config key 'windw'; allowed here: family, horizon, window"),
    ("top-missing", "families", {"family": MULTIPLES},
     "missing required config key 'horizon'"),
    ("top-missing-object", "construct", {}, "missing required config key 'operator'"),
    ("top-not-object", "families", [1, 2], "config must be a JSON object"),
    ("operator-unknown", "construct", {"operator": {"foldN": 1, "mash": [1]}},
     "unknown config key 'operator.mash'; "
     "allowed here: dimCap, foldN, mesh, minLevels, norm, targets"),
    ("operator-missing", "construct", {"operator": {"dimCap": 16}},
     "missing required config key 'operator.foldN'"),
    ("operator-not-object", "construct", {"operator": [1]},
     "config at 'operator' must be a JSON object"),
    ("family-unknown", "families", _in_family({"kind": "multiples", "q": 3}),
     "unknown config key 'family.q'; allowed here: kind, p"),
    ("family-missing-kind", "families", _in_family({"p": 3}),
     "missing required config key 'family.kind'"),
    ("family-not-object", "families", _in_family(3), "config at 'family' must be a JSON object"),
    ("family-unknown-kind", "period", dict(_in_family({"kind": "bogus"}), delta=0.5),
     "'family.kind': unknown family kind 'bogus'"),
    ("base-unknown", "families",
     _in_family({"kind": "delta", "base": {"kind": "ip", "generators": [1], "x": 1}}),
     "unknown config key 'family.base.x'; allowed here: generators, kind"),
    ("base-missing", "families",
     _in_family({"kind": "delta", "base": {"kind": "progression", "start": 1}}),
     "missing required config key 'family.base.diff'"),
    ("base-not-object", "families", _in_family({"kind": "delta", "base": "x"}),
     "config at 'family.base' must be a JSON object"),
    ("base-unknown-kind", "families", _in_family({"kind": "delta", "base": {"kind": "bogus"}}),
     "'family.base.kind': unknown family kind 'bogus'"),
    ("part-unknown", "families",
     _in_family({"kind": "union", "parts": [{"kind": "multiples", "p": 2, "q": 3}]}),
     "unknown config key 'family.parts[0].q'; allowed here: kind, p"),
    ("part-missing", "families",
     _in_family({"kind": "union", "parts": [{"kind": "rotation-return", "modulus": 5}]}),
     "missing required config key 'family.parts[0].eps'"),
    ("part-not-object", "families", _in_family({"kind": "union", "parts": [MULTIPLES, None]}),
     "config at 'family.parts[1]' must be a JSON object"),
    ("part-unknown-kind", "families",
     _in_family({"kind": "intersection", "parts": [MULTIPLES, {"kind": "bogus"}]}),
     "'family.parts[1].kind': unknown family kind 'bogus'"),
    ("vector-unknown", "orbit", _in_orbit({"kind": "dyadic-comb", "index": 1}),
     "unknown config key 'vector.index'; allowed here: kind"),
    ("vector-missing", "orbit", _in_orbit({"kind": "entries"}),
     "missing required config key 'vector.values'"),
    ("vector-not-object", "orbit", _in_orbit("e1"), "config at 'vector' must be a JSON object"),
    ("vector-unknown-kind", "krylov", {"operator": SMALL, "vector": {"kind": "bogus"}},
     "'vector.kind': unknown vector kind 'bogus'"),
    ("sample-unknown", "rigidity", {"operator": SMALL, "samples": [dict(BASIS, p=2)]},
     "unknown config key 'samples[0].p'; allowed here: index, kind"),
    ("sample-missing", "rigidity", {"operator": SMALL, "samples": [{"kind": "basis"}]},
     "missing required config key 'samples[0].index'"),
    ("sample-not-object", "rigidity", {"operator": SMALL, "samples": [1]},
     "config at 'samples[0]' must be a JSON object"),
    ("sample-unknown-kind", "qr-search",
     {"operator": SMALL, "epsSchedule": [1.0], "samples": [BASIS, {"kind": "bogus"}]},
     "'samples[1].kind': unknown vector kind 'bogus'"),
]]


class TestDeterminism:
    def test_construct_is_byte_stable(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path, "c.json", {"operator": {"foldN": 2,
                                                          "targets": [[1, [0, 1], 0.5]]}})
        dirs = [str(tmp_path / d) for d in ("a", "b")]
        for d in dirs:
            code, out, _ = run(["construct", "--config", cfg, "--out-dir", d,
                                "--format", "json", "--format", "csv"], capsys)
            assert code == 0
            assert out.startswith("operator foldN=2")
        assert slurp_dir(dirs[0]) == slurp_dir(dirs[1])

    def test_orbit_is_byte_stable_across_formats(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path, "o.json", {
            "operator": OP, "vector": {"kind": "basis", "index": 4},
            "eps": 0.05, "horizon": 300, "window": 30})
        dirs = [str(tmp_path / d) for d in ("a", "b")]
        for d in dirs:
            code, _, _ = run(["orbit", "--config", cfg, "--out-dir", d,
                              "--format", "json", "--format", "csv",
                              "--format", "svg"], capsys)
            assert code == 0
        files = slurp_dir(dirs[0])
        assert set(files) == {"orbit.json", "orbit.csv", "orbit.svg"}
        assert files == slurp_dir(dirs[1])

    def test_orbit_csv_rows_are_time_and_float_repr(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path, "o.json", {
            "operator": OP, "vector": {"kind": "basis", "index": 4},
            "eps": 0.05, "horizon": 300})
        out = str(tmp_path / "o")
        assert run(["orbit", "--config", cfg, "--out-dir", out, "--format", "csv"], capsys)[0] == 0
        op = rl.build_operator(2, dim_cap=64)
        _, ds = rl.orbit_returns(op, rl.basis_vec(4, 64), 0.05, 300)
        want = "n,displacement\n" + "".join(f"{n},{d!r}\n" for n, d in enumerate(ds))
        assert open(os.path.join(out, "orbit.csv"), newline="").read() == want

    def test_write_csv_spells_none_empty_and_floats_by_repr(self, tmp_path):
        path = str(tmp_path / "t.csv")
        report.write_csv(path, ["a", "b", "c"], [[1, None, 0.1], (2, 1e-17, "x,y"), []])
        assert open(path, newline="").read() == 'a,b,c\n1,,0.1\n2,1e-17,"x,y"\n\n'


class TestConfigHandling:
    def test_unknown_key_reports_full_path(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path, "c.json", {"operator": {"foldN": 2, "mash": [1]}})
        code, _, err = run(["construct", "--config", cfg,
                            "--out-dir", str(tmp_path / "o")], capsys)
        assert code == 1
        assert "operator.mash" in err

    def test_unknown_nested_family_key(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path, "f.json", {
            "horizon": 40,
            "family": {"kind": "union", "parts": [
                {"kind": "multiples", "p": 3},
                {"kind": "progression", "start": 1, "dif": 4}]}})
        code, _, err = run(["families", "--config", cfg,
                            "--out-dir", str(tmp_path / "o")], capsys)
        assert code == 1
        assert "family.parts[1].dif" in err

    def test_growth_rule_is_not_a_config_key(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path, "c.json", {"operator": {"foldN": 2, "rule": "dyadic"}})
        out_dir = tmp_path / "o"
        code, out, err = run(["construct", "--config", cfg, "--out-dir", str(out_dir)], capsys)
        assert code == 1 and out == ""
        assert err.startswith("error: unknown config key 'operator.rule'")
        assert not out_dir.exists()

    @pytest.mark.parametrize("extra", [{}, {"targets": [[1, 0, 0]]}],
                             ids=["plain", "with-target"])
    def test_mesh_underflowing_to_zero_is_config_error(self, tmp_path, capsys, extra):
        # two distinct exact meshes that are both 0.0 as floats
        cfg = write_cfg(tmp_path, "c.json", {
            "operator": {"foldN": 2, "mesh": ["1e-400", "1e-401"], **extra}})
        out_dir = tmp_path / "o"
        code, out, err = run(["construct", "--config", cfg, "--out-dir", str(out_dir)], capsys)
        assert code == 1 and out == ""
        assert err == "error: mesh schedule must be positive\n"
        assert not out_dir.exists()

    @pytest.mark.parametrize("mesh, at", [(["1e400", "1"], 0), ([1, "-1e400"], 1),
                                          ([10 ** 400, 1], 0)],
                             ids=["string", "negative", "integer"])
    def test_mesh_overflowing_a_float_names_the_entry(self, tmp_path, capsys, mesh, at):
        cfg = write_cfg(tmp_path, "c.json", {"operator": {"foldN": 2, "mesh": mesh}})
        out_dir = tmp_path / "o"
        code, out, err = run(["construct", "--config", cfg, "--out-dir", str(out_dir)], capsys)
        assert code == 1 and out == ""
        assert err == f"error: 'operator.mesh[{at}]' is too large for a float\n"
        assert not out_dir.exists()

    def test_bad_json_is_config_error(self, tmp_path, capsys):
        p = tmp_path / "bad.json"
        p.write_text("{nope")
        code, _, err = run(["families", "--config", str(p),
                            "--out-dir", str(tmp_path / "o")], capsys)
        assert code == 1 and "not valid JSON" in err

    @pytest.mark.parametrize("horizon, why", [
        (b'10, "x": "\xff"', "'utf-8' codec can't decode"),
        (b"1" + b"0" * 5000, "Exceeds the limit (4300 digits)"),
    ], ids=["not-utf8", "integer-of-5001-digits"])
    def test_undecodable_config_is_config_error(self, tmp_path, capsys, horizon, why):
        p = tmp_path / "c.json"
        p.write_bytes(b'{"horizon": ' + horizon + b', "family": {"kind": "multiples", "p": 2}}')
        code, out, err = run(["families", "--config", str(p),
                              "--out-dir", str(tmp_path / "o")], capsys)
        assert (code, out) == (1, "")
        assert err.startswith(f"error: config is not valid JSON: {why}")

    def test_missing_file_is_config_error(self, tmp_path, capsys):
        code, _, err = run(["families", "--config", str(tmp_path / "absent.json"),
                            "--out-dir", str(tmp_path / "o")], capsys)
        assert code == 1 and "cannot read config" in err

    def test_missing_required_key(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path, "o.json", {
            "operator": OP, "vector": {"kind": "basis", "index": 1},
            "horizon": 10})
        code, _, err = run(["orbit", "--config", cfg,
                            "--out-dir", str(tmp_path / "o")], capsys)
        assert code == 1 and "'eps'" in err

    def test_missing_config_flag_is_config_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            cli.main(["families"])
        assert exc.value.code == 1
        assert "--config" in capsys.readouterr().err

    @pytest.mark.parametrize("command, flag, value", [
        ("families", "--horizon", "30"), ("families", "--window", "3"),
        ("rigidity", "--j-max", "4"),
        ("orbit", "--eps", "inf"), ("orbit", "--horizon", "30"), ("orbit", "--window", "3"),
        ("period", "--horizon", "30"), ("period", "--window", "3"),
        ("period", "--delta", "0.2"),
    ])
    def test_override_flags_are_usage_errors(self, tmp_path, capsys, command, flag, value):
        """The config file is the only input: no flag sets a config value."""
        cfg = write_cfg(tmp_path, "c.json", dict(CLI_RUNS)[command])
        out_dir = tmp_path / "o"
        with pytest.raises(SystemExit) as exc:
            cli.main([command, "--config", cfg, "--out-dir", str(out_dir), flag, value])
        assert exc.value.code == 1
        err = capsys.readouterr().err
        assert err.startswith("usage: recurlab ")
        assert f"error: unrecognized arguments: {flag} {value}" in err
        assert not out_dir.exists()

    @pytest.mark.parametrize("command, base", CLI_RUNS, ids=[c for c, _ in CLI_RUNS])
    def test_record_config_is_the_file_as_read(self, tmp_path, capsys, command, base):
        cfg = write_cfg(tmp_path, "c.json", base)
        out_dir = tmp_path / "o"
        code, _, _ = run([command, "--config", cfg, "--out-dir", str(out_dir)], capsys)
        assert code == 0
        (record,) = [json.loads(f.read_text()) for f in out_dir.iterdir()]
        with open(cfg) as f:
            assert record["config"] == json.load(f)

    def test_computational_failure_exits_one(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path, "f.json", {
            "horizon": 40,
            "family": {"kind": "rotation-return", "modulus": 12, "eps": -1}})
        code, _, err = run(["families", "--config", cfg,
                            "--out-dir", str(tmp_path / "o")], capsys)
        assert code == 1 and "eps" in err

    @pytest.mark.parametrize("command, text, literal", [
        ("construct", '{"operator": {"foldN": 2, "targets": [[NaN, 1, 0]]}}', "NaN"),
        ("orbit", '{"operator": {"foldN": 2, "dimCap": 64}, "vector": {"kind": "entries", '
                  '"values": [1, Infinity]}, "eps": 0.1, "horizon": 20}', "Infinity"),
        ("orbit", '{"operator": {"foldN": 2, "dimCap": 64}, "vector": {"kind": "basis", '
                  '"index": 4}, "eps": 1e400, "horizon": 20}', "1e400"),
    ], ids=["nan-target", "infinite-entry", "overflowing-literal"])
    def test_non_finite_number_is_config_error(self, tmp_path, capsys, command, text, literal):
        p = tmp_path / "c.json"
        p.write_text(text)
        out_dir = tmp_path / "o"
        code, out, err = run([command, "--config", str(p), "--out-dir", str(out_dir)], capsys)
        assert code == 1 and out == ""
        assert err == f"error: config holds a non-finite number: {literal}\n"
        assert not out_dir.exists()

    def test_type_errors_are_config_errors(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path, "f.json", {
            "horizon": "soon", "family": {"kind": "multiples", "p": 5}})
        code, _, err = run(["families", "--config", cfg,
                            "--out-dir", str(tmp_path / "o")], capsys)
        assert code == 1 and "integer" in err

    def test_unexpected_exception_exits_two(self, tmp_path, capsys, monkeypatch):
        def boom(cfg, sink):
            raise RuntimeError("wires crossed")
        monkeypatch.setitem(cli._COMMANDS, "families", boom)
        cfg = write_cfg(tmp_path, "f.json", {
            "horizon": 40, "family": {"kind": "multiples", "p": 5}})
        code, _, err = run(["families", "--config", cfg,
                            "--out-dir", str(tmp_path / "o")], capsys)
        assert code == 2 and "internal error" in err and "wires crossed" in err

    def test_library_errors_share_one_base(self):
        assert issubclass(rl.RecurlabError, ValueError)
        assert [name for name in LIBRARY_ERRORS
                if not issubclass(getattr(rl, name), rl.RecurlabError)] == []

    @pytest.mark.parametrize("name", LIBRARY_ERRORS)
    def test_library_error_exits_one(self, tmp_path, capsys, monkeypatch, name):
        code, out, err = run_raising(tmp_path, capsys, monkeypatch, getattr(rl, name))
        assert code == 1 and out == "" and err == "error: rejected value\n"

    def test_bare_value_error_exits_two(self, tmp_path, capsys, monkeypatch):
        code, _, err = run_raising(tmp_path, capsys, monkeypatch, ValueError)
        assert code == 2 and err == "internal error: ValueError: rejected value\n"

    @pytest.mark.parametrize("value", ["x", None, [], {}, 0, 1.5])
    def test_multiplier_entries_are_validated(self, tmp_path, capsys, value):
        cfg = write_cfg(tmp_path, "q.json", {
            "operator": OP, "epsSchedule": [1.0], "maxLevel": 6,
            "multipliers": [1, value]})
        code, out, err = run(["qr-search", "--config", cfg,
                              "--out-dir", str(tmp_path / "o")], capsys)
        assert code == 1 and out == ""
        assert err.startswith("error: 'multipliers[1]' must be")

    @pytest.mark.parametrize("norm", [0.5, 0, "p2", True, None, [2]])
    def test_bad_norm_states_the_accepted_forms(self, tmp_path, capsys, norm):
        cfg = write_cfg(tmp_path, "c.json", {
            "operator": dict(OP, norm=norm), "eps": 0.1, "horizon": 10,
            "vector": {"kind": "basis", "index": 1}})
        code, out, err = run(["orbit", "--config", cfg, "--out-dir", str(tmp_path / "o")],
                             capsys)
        assert (code, out) == (1, "")
        assert err == "error: 'operator.norm' must be a number >= 1 or \"sup\"\n"

    @pytest.mark.parametrize("operator, err", [
        ({"mesh": [1, True]}, "'operator.mesh[1]' must be a number or an exact string"),
        ({"mesh": [1, "1/0"]}, "'operator.mesh[1]' must be a number or an exact string"),
        ({"mesh": [1, None]}, "'operator.mesh[1]' must be a number or an exact string"),
        ({"targets": [1]}, "'operator.targets[0]' must be an array"),
        ({"targets": [[1, "x", 0]]}, "'operator.targets[0][1]' must be a number or an [re, im]"),
        ({"targets": [[1, [0, 1, 2], 0]]},
         "'operator.targets[0][1]' must be a number or an [re, im]"),
        ({"targets": [[1, [True, 0], 0]]},
         "'operator.targets[0][1]' must be a number or an [re, im]"),
    ], ids=["mesh-bool", "mesh-zero-denominator", "mesh-null", "target-not-array",
            "target-string", "target-triple", "target-bool-part"])
    def test_operator_entries_name_their_path(self, tmp_path, capsys, operator, err):
        cfg = write_cfg(tmp_path, "c.json", {"operator": dict(OP, **operator)})
        code, out, got = run(["construct", "--config", cfg, "--out-dir", str(tmp_path / "o")],
                             capsys)
        assert (code, out) == (1, "") and got.startswith(f"error: {err}")

    def test_vector_values_name_their_index(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path, "c.json", {
            "operator": OP, "eps": 0.1, "horizon": 10,
            "vector": {"kind": "entries", "values": [1, [0, 1], "x"]}})
        code, out, err = run(["orbit", "--config", cfg, "--out-dir", str(tmp_path / "o")],
                             capsys)
        assert (code, out) == (1, "")
        assert err == "error: 'vector.values[2]' must be a number or an [re, im] pair of numbers\n"

    @pytest.mark.parametrize("change, where", [
        ({"eps": 10 ** 400}, "eps"),
        ({"operator": dict(OP, targets=[[10 ** 400, 0, 0]])}, "operator.targets[0][0]"),
        ({"operator": dict(OP, targets=[[1, [0, -10 ** 400], 0]])}, "operator.targets[0][1]"),
        ({"operator": dict(OP, norm=10 ** 400)}, "operator.norm"),
    ], ids=["eps", "target", "target-imaginary-part", "norm"])
    def test_integer_too_large_for_a_float_names_its_path(self, tmp_path, capsys, change, where):
        cfg = write_cfg(tmp_path, "c.json", {
            "operator": OP, "eps": 0.1, "horizon": 10,
            "vector": {"kind": "basis", "index": 1}, **change})
        code, out, err = run(["orbit", "--config", cfg, "--out-dir", str(tmp_path / "o")],
                             capsys)
        assert (code, out) == (1, "")
        assert err == f"error: '{where}' is too large for a float\n"

    def test_out_dir_that_is_a_file_exits_one(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path, "c.json", {"operator": OP})
        taken = tmp_path / "taken"
        taken.write_text("not a directory")
        code, out, err = run(["construct", "--config", cfg, "--out-dir", str(taken)], capsys)
        assert (code, out) == (1, "")
        assert err.startswith(f"error: cannot create output directory {str(taken)!r}: ")
        assert err.count("\n") == 1 and taken.read_text() == "not a directory"

    def test_directory_in_place_of_a_record_exits_one(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path, "c.json", {"operator": OP})
        out_dir = tmp_path / "o"
        (out_dir / "operator.json").mkdir(parents=True)
        code, out, err = run(["construct", "--config", cfg, "--out-dir", str(out_dir)], capsys)
        assert (code, out) == (1, "")
        assert err.startswith(f"error: cannot write {str(out_dir / 'operator.json')!r}: ")
        assert err.count("\n") == 1 and os.listdir(out_dir) == ["operator.json"]

    def test_rejected_config_leaves_no_output_directory(self, tmp_path, capsys):
        # the output directory is made on the first write, which a rejected config never reaches
        cfg = write_cfg(tmp_path, "p.json", {
            "horizon": 100, "delta": 0, "family": {"kind": "multiples", "p": 5}})
        code, out, err = run(["period", "--config", cfg,
                              "--out-dir", str(tmp_path / "a" / "b")], capsys)
        assert (code, out, err) == (1, "", "error: delta must lie in (0, 1]\n")
        assert not (tmp_path / "a").exists()

    @pytest.mark.parametrize("kind, depth, err", [
        # a union takes two JSON containers a level, a delta one: the decoder reads
        # about 490 and 990 levels of them from the command line
        ("union", 400, None), ("delta", 800, None),
        ("union", 2000, "config is nested too deeply"),
        ("delta", 2000, "config is nested too deeply"),
    ])
    def test_deep_nesting_is_a_config_error(self, tmp_path, capsys, kind, depth, err):
        head, tail = ('{"kind": "union", "parts": [', ']}') if kind == "union" else \
            ('{"kind": "delta", "base": ', '}')
        p = tmp_path / "c.json"
        p.write_text('{"horizon": 10, "family": ' + head * depth
                     + '{"kind": "multiples", "p": 3}' + tail * depth + '}')
        code, _, got = run(["families", "--config", str(p), "--out-dir", str(tmp_path / "o")],
                           capsys)
        if err is None:
            assert (code, got) == (0, "")
        else:
            assert (code, got) == (1, f"error: {err}\n")

    def test_checking_takes_no_frame_per_level_and_building_refuses_past_its_reach(
            self, tmp_path, capsys, monkeypatch):
        family = {"kind": "multiples", "p": 3}
        for _ in range(300):
            family = {"kind": "delta", "base": family}
        # past the decoder, as a config that it reads but the builder cannot reach
        monkeypatch.setattr(cli, "_load", lambda path: {"horizon": 10, "family": family})
        here, limit = len(traceback.extract_stack()), sys.getrecursionlimit()
        sys.setrecursionlimit(here + 150)
        try:
            cfg = cli._checked(family, "family", cli._FAMILY)
            code, out, err = run(["families", "--config", "c.json",
                                  "--out-dir", str(tmp_path / "o")], capsys)
        finally:
            sys.setrecursionlimit(limit)
        assert cfg.get("base").get("kind") == "delta"
        assert (code, out, err) == (1, "", "error: config is nested too deeply\n")

    @pytest.mark.parametrize("command", ["families", "orbit", "period"])
    def test_zero_horizon_is_refused_by_its_form(self, tmp_path, capsys, command):
        # no window fits a horizon of 0, so the horizon itself is refused
        cfg = write_cfg(tmp_path, "c.json", dict(dict(CLI_RUNS)[command], horizon=0))
        code, out, err = run([command, "--config", cfg, "--out-dir", str(tmp_path / "o")],
                             capsys)
        assert (code, out, err) == (1, "", "error: 'horizon' must be an integer >= 1\n")

    def test_empty_depths_is_config_error(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path, "k.json", {
            "operator": OP, "vector": {"kind": "dyadic-comb"}, "depths": []})
        code, _, err = run(["krylov", "--config", cfg,
                            "--out-dir", str(tmp_path / "o")], capsys)
        assert code == 1 and err == "error: 'depths' must not be empty\n"

    @pytest.mark.parametrize("command, config, err", STRUCTURAL_REFUSALS)
    def test_structural_refusal_is_one_exact_line(self, tmp_path, capsys, command, config, err):
        cfg = write_cfg(tmp_path, "c.json", config)
        out_dir = tmp_path / "o"
        code, out, got = run([command, "--config", cfg, "--out-dir", str(out_dir)], capsys)
        assert (code, out, got) == (1, "", f"error: {err}\n")
        assert not out_dir.exists()


LEAF_VALUES = ["x", True, None, [], {}, -1, 0, 1.5, 2]


def _positions(node, path=()):
    """The path of every value in a JSON tree, the root included."""
    yield path
    kids = node.items() if isinstance(node, dict) else \
        enumerate(node) if isinstance(node, list) else ()
    for key, child in kids:
        yield from _positions(child, path + (key,))


def _substituted(tree, path, value):
    if not path:
        return value
    tree = copy.deepcopy(tree)
    node = tree
    for key in path[:-1]:
        node = node[key]
    node[path[-1]] = value
    return tree


class TestLeafSubstitution:
    """Every value of every criterion-11 config, swapped for each of LEAF_VALUES.

    Whatever the substitution, the command either runs (exit 0) or rejects the
    config (exit 1); exit 2 is reserved for bugs of the program itself.
    """

    @pytest.mark.parametrize("command, base", CLI_RUNS, ids=[c for c, _ in CLI_RUNS])
    def test_exit_code_is_zero_or_one(self, tmp_path, capsys, command, base):
        bad = []
        for i, path in enumerate(_positions(base)):
            for j, value in enumerate(LEAF_VALUES):
                cfg = write_cfg(tmp_path, f"c{i}-{j}.json", _substituted(base, path, value))
                argv = [command, "--config", cfg, "--out-dir", str(tmp_path / f"o{i}-{j}"),
                        "--format", "json", "--format", "csv", "--format", "svg"]
                code, _, err = run(argv, capsys)
                if code not in (0, 1) or "internal error" in err:
                    bad.append(f"{list(path)} = {value!r}: exit {code}, {err.strip()}")
        assert not bad, "\n".join(bad)


# the JSON types a config value accepts, by its key (for an array: by the key of
# the array); a kind name or an object is not a leaf of its own
ACCEPTED = {
    **dict.fromkeys(["horizon", "window", "p", "start", "diff", "foldN", "dimCap",
                     "minLevels", "jMax", "index", "maxLevel", "multipliers", "scanHead",
                     "depths", "depth", "members", "generators", "modulus"], {int}),
    **dict.fromkeys(["eps", "delta", "epsSchedule"], {int, float}),
    **dict.fromkeys(["norm", "mesh"], {int, float, str}),
    **dict.fromkeys(["targets", "values"], {int, float, list}),
    "kind": {str},
    **dict.fromkeys(["neighbors", "rotationOnly"], {bool}),
}
# arrays whose entries are complex numbers, which may be [re, im] pairs, by depth
COMPLEX_DEPTH = {"targets": 2, "values": 1}

# the criterion-11 configs, and configs that set the keys they leave out
TYPE_FUZZ_RUNS = CLI_RUNS + [
    ("construct", {"operator": {"foldN": 2, "dimCap": 64, "mesh": [1, "1/2", 0.25],
                                "targets": [[1, [0, 1], 0.5]], "norm": 3, "minLevels": 8}}),
    ("orbit", {"operator": {"foldN": 1, "dimCap": 32, "norm": "sup"}, "eps": 0.1,
               "horizon": 20, "vector": {"kind": "entries", "values": [1, [0, 1]]}}),
    ("rigidity", {"operator": {"foldN": 1, "dimCap": 32}, "jMax": 4,
                  "samples": [{"kind": "basis", "index": 1}]}),
    ("families", {"horizon": 60, "family": {"kind": "intersection", "parts": [
        {"kind": "explicit", "members": [1, 2, 3, 4]}, {"kind": "ip", "generators": [1, 2]},
        {"kind": "delta", "base": {"kind": "rotation-return", "modulus": 7, "eps": 0.1}}]}}),
    ("qr-search", {"operator": {"foldN": 1, "dimCap": 16}, "epsSchedule": [1.0],
                   "rotationOnly": True, "samples": [{"kind": "dyadic-comb"}]}),
    ("krylov", {"operator": {"foldN": 1, "dimCap": 16}, "vector": {"kind": "basis", "index": 2},
                "depth": 8}),
]


def _leaves(node, path=()):
    """(path, key) of every leaf: a scalar, or a complex entry of an array."""
    at = max((i for i, k in enumerate(path) if isinstance(k, str)), default=-1)
    key = path[at] if at >= 0 else None
    if not isinstance(node, (dict, list)) or len(path) - 1 - at == COMPLEX_DEPTH.get(key):
        yield path, key
        return
    for k, child in (node.items() if isinstance(node, dict) else enumerate(node)):
        yield from _leaves(child, path + (k,))


def _where(path) -> str:
    return "".join(f"[{k}]" if isinstance(k, int) else f".{k}" for k in path).lstrip(".")


FUZZ_LEAVES = [(command, base, path, key) for command, base in TYPE_FUZZ_RUNS
               for path, key in _leaves(base)]
# small values of every JSON type: huge magnitudes are not a question of type
JSON_TYPES = {str: st.text(max_size=3), bool: st.booleans(), type(None): st.none(),
              int: st.integers(-3, 3), float: st.floats(-3, 3),
              list: st.lists(st.integers(0, 3), max_size=3),
              dict: st.dictionaries(st.text(max_size=2), st.integers(0, 2), max_size=2)}


def _innermost(form):
    """`form` past its arrays and minimums: a kind, or the form of an object."""
    return _innermost(form[0]) if isinstance(form, (list, tuple)) else form


def _is_object(form) -> bool:
    return isinstance(_innermost(form), (dict, cli.Tagged))


def _keys(obj):
    """(key, form) of each key an object form accepts, under any kind."""
    if isinstance(obj, cli.Tagged):
        return [("kind", str)] + [kv for keys in obj.kinds.values() for kv in keys.items()]
    return list(obj.items())


def _form_keys():
    """(key, form) of each key of each object form reachable from cli._FORMS."""
    objects, todo = [], list(cli._FORMS.values())
    while todo:
        obj = todo.pop()
        if all(obj is not seen for seen in objects):
            objects.append(obj)
            todo += [_innermost(form) for _, form in _keys(obj) if _is_object(form)]
    return [kv for obj in objects for kv in _keys(obj)]


FORM_KEYS = _form_keys()


class TestTypeFuzz:
    """One leaf of a config replaced by a JSON value of a type its key refuses:
    exit 1, with a message that names the leaf's full path."""

    def test_fuzz_reaches_every_key_that_holds_no_object(self):
        leaves = {key for key, form in FORM_KEYS if not _is_object(form)}
        assert leaves == {key for _, _, _, key in FUZZ_LEAVES} == set(ACCEPTED)

    @settings(max_examples=200)
    @given(st.data())
    def test_refused_type_names_the_leaf(self, tmp_path_factory, data):
        command, base, path, key = data.draw(st.sampled_from(FUZZ_LEAVES))
        value = data.draw(st.one_of([values for kind, values in JSON_TYPES.items()
                                     if kind not in ACCEPTED[key]]))
        tmp = tmp_path_factory.getbasetemp()
        cfg = write_cfg(tmp, "c.json", _substituted(base, path, value))
        with contextlib.redirect_stdout(io.StringIO()), \
                contextlib.redirect_stderr(io.StringIO()) as err:
            code = cli.main([command, "--config", cfg, "--out-dir", str(tmp / "o")])
        assert code == 1, err.getvalue()
        assert err.getvalue().startswith(f"error: {_where(path)!r} must be "), err.getvalue()


SCHEMAS = Path(__file__).resolve().parent.parent / "docs" / "SCHEMAS.md"
# the name docs/SCHEMAS.md gives each kind, singular and plural
FORM_NAMES = {int: ("integer", "integers"), float: ("number", "numbers"),
              str: ("string", "strings"), bool: ("true or false",) * 2,
              complex: ("complex",) * 2, Fraction: ("exact value", "exact values"),
              cli.NORM: ("norm", "norms"), dict: ("object", "objects")}


def _form_name(form, plural=False) -> str:
    if isinstance(form, list):
        return f"{'arrays' if plural else 'array'} of {_form_name(form[0], True)}"
    kind, minimum = form if isinstance(form, tuple) else (form, None)
    if isinstance(kind, list):
        return "non-empty " + _form_name(kind, plural)
    name = FORM_NAMES[dict if isinstance(kind, (dict, cli.Tagged)) else kind][plural]
    return name if minimum is None or kind is cli.NORM else f"{name} >= {minimum}"


def _schema_tables(section: str) -> list[list[list[str]]]:
    """The tables of `section` in docs/SCHEMAS.md: rows of stripped cells, header dropped."""
    text = SCHEMAS.read_text(encoding="utf-8").split(f"\n## {section}\n")[1].split("\n## ")[0]
    return [[[c.strip() for c in row.split("|")[1:-1]] for row in table.splitlines()[2:]]
            for table in re.findall(r"(?:^\|.*\n)+", text, re.M)]


def _names(cell: str) -> list[str]:
    return re.findall(r"`([^`]+)`", cell)


class TestSchemaDoc:
    """docs/SCHEMAS.md states the keys and forms that cli._FORMS accepts."""

    def test_key_table_gives_each_key_its_form(self):
        _, keys = _schema_tables("Config values and errors")
        doc = {(name.rsplit(".", 1)[-1], form) for names, form in keys for name in _names(names)}
        assert doc == {(key, _form_name(form)) for key, form in FORM_KEYS}

    def test_keys_by_command_are_the_accepted_keys(self):
        commands, _ = _schema_tables("Config keys by command")
        doc, command = set(), None
        for names, key, _, _ in commands:
            command = _names(names)[0] if names else command
            doc.add((command, _names(key)[0]))
        assert doc == {(c, key) for c, form in cli._FORMS.items() for key in form}

    def test_kinds_table_lists_the_keys_of_each_kind(self):
        _, kinds = _schema_tables("Config keys by command")
        doc = {(obj, kind, tuple(_names(keys))) for obj, names, keys, _ in kinds
               for kind in _names(names)}
        assert doc == {(form.noun, kind, tuple(keys))
                       for form in (cli._FAMILY, cli._VECTOR) for kind, keys in form.kinds.items()}


def _payload(tmp_path, capsys, command, cfg, norm):
    """The record payload of `command` on `cfg` with its operator's norm set to `norm`."""
    cfg = copy.deepcopy(cfg)
    cfg["operator"]["norm"] = norm
    out_dir = tmp_path / f"{command}-{norm}"
    code, _, err = run([command, "--config", write_cfg(tmp_path, "c.json", cfg),
                        "--out-dir", str(out_dir)], capsys)
    assert code == 0, err
    (record,) = [json.loads(f.read_text()) for f in out_dir.iterdir()]
    return record["payload"]


class TestLargeNormExponents:
    """A p-norm lies between the sup norm and dim^(1/p) times it, however large p is."""

    QR = {"operator": {"foldN": 2, "dimCap": 64}, "epsSchedule": [1e-12], "maxLevel": 20,
          "multipliers": [1], "samples": [{"kind": "basis", "index": 1}]}

    @pytest.mark.parametrize("p", [100, 300])
    def test_qr_search_finds_no_false_zero_defect(self, tmp_path, capsys, p):
        got = _payload(tmp_path, capsys, "qr-search", self.QR, p)
        sup = _payload(tmp_path, capsys, "qr-search", self.QR, "sup")
        assert got["times"] == sup["times"] and "288" not in got["times"]
        for d, s in zip(got["defects"], sup["defects"]):
            assert s <= d <= 64 ** (1 / p) * s * (1 + 1e-12)

    def test_qr_search_defect_does_not_overflow(self, tmp_path, capsys):
        cfg = dict(self.QR, epsSchedule=[0.5], maxLevel=1, multipliers=[7])
        got = _payload(tmp_path, capsys, "qr-search", cfg, 2000)
        sup = _payload(tmp_path, capsys, "qr-search", cfg, "sup")
        assert got["bestTime"] == sup["bestTime"]
        assert sup["bestDefect"] <= got["bestDefect"] <= 64 ** (1 / 2000) * sup["bestDefect"]
        assert got["bestDefect"] == pytest.approx(6.99, abs=0.01)

    @pytest.mark.parametrize("p", [30, 40])
    def test_rigidity_defects_do_not_underflow(self, tmp_path, capsys, p):
        cfg = {"operator": {"foldN": 2, "dimCap": 64},
               "samples": [{"kind": "dyadic-comb"}, {"kind": "basis", "index": 24}]}
        points = _payload(tmp_path, capsys, "rigidity", cfg, p)["points"]
        assert all(q["defect"] > 0 for q in points if q["j"] >= 9)
        # R^n e_k - e_k has one nonzero coordinate, whose modulus is its norm for every p
        cfg["samples"] = [{"kind": "basis", "index": 17}, {"kind": "basis", "index": 24}]
        got = _payload(tmp_path, capsys, "rigidity", cfg, p)["points"]
        sup = _payload(tmp_path, capsys, "rigidity", cfg, "sup")["points"]
        assert [q["defect"] for q in got] == pytest.approx([q["defect"] for q in sup], rel=1e-12)

    def test_orbit_has_no_false_return(self, tmp_path, capsys):
        cfg = {"operator": {"foldN": 2, "dimCap": 64}, "eps": 0.1, "horizon": 20,
               "vector": {"kind": "entries", "values": [0.5]}}
        got = _payload(tmp_path, capsys, "orbit", cfg, 2000)["returnSet"]["elements"]
        sup = _payload(tmp_path, capsys, "orbit", cfg, "sup")["returnSet"]["elements"]
        assert set(got) <= set(sup) and 1 not in got


class TestFamiliesCommand:
    def test_payload_and_elements(self, tmp_path, capsys):
        out_dir = str(tmp_path / "o")
        cfg = write_cfg(tmp_path, "f.json", {
            "horizon": 100, "window": 10,
            "family": {"kind": "multiples", "p": 5}})
        code, out, _ = run(["families", "--config", cfg, "--out-dir", out_dir,
                            "--format", "json", "--format", "csv",
                            "--format", "svg"], capsys)
        assert code == 0
        assert "upperBanach=1/5" in out
        rec = read_json(out_dir, "family-report.json")
        assert rec["record"] == "family" and rec["schemaVersion"] == 1
        assert rec["payload"]["density"]["upperBanach"] == {"num": 1, "den": 5}
        assert rec["payload"]["set"]["elements"][:3] == [0, 5, 10]
        with open(os.path.join(out_dir, "family-elements.csv")) as f:
            lines = f.read().splitlines()
        assert lines[0] == "element" and lines[1] == "0" and lines[-1] == "100"
        svg = open(os.path.join(out_dir, "family-density.svg")).read()
        assert svg.startswith("<svg") and "Prefix density" in svg

    def test_composite_families_compose(self, tmp_path, capsys):
        out_dir = str(tmp_path / "o")
        cfg = write_cfg(tmp_path, "f.json", {
            "horizon": 60,
            "family": {"kind": "intersection", "parts": [
                {"kind": "multiples", "p": 4},
                {"kind": "multiples", "p": 6}]}})
        code, _, _ = run(["families", "--config", cfg, "--out-dir", out_dir], capsys)
        assert code == 0
        rec = read_json(out_dir, "family-report.json")
        assert rec["payload"]["set"]["elements"] == [0, 12, 24, 36, 48, 60]


def scan_prefix_plot(a):
    """Oracle: the prefix-density plot from every N in [1, horizon], thinned by
    `line_plot_svg` itself."""
    xs, ys = [], []
    count = idx = 0
    for n in range(1, a.horizon + 1):
        while idx < len(a.elements) and a.elements[idx] <= n:
            if a.elements[idx] >= 1:
                count += 1
            idx += 1
        xs.append(float(n))
        ys.append(count / n)
    return report.line_plot_svg("Prefix density", "N", "count([1,N]) / N",
                                [("density", xs, ys)])


class TestFamiliesPlot:
    @pytest.mark.parametrize("horizon, family", [
        (1000, {"kind": "union", "parts": [{"kind": "multiples", "p": 6},
                                           {"kind": "explicit", "members": [0, 1, 2, 997]}]}),
        # the last horizon drawn in full
        (1500, {"kind": "ip", "generators": [2, 9, 40, 333]}),
        (10007, {"kind": "progression", "start": 3, "diff": 13}),
        (10 ** 6, {"kind": "rotation-return", "modulus": 25013, "eps": 0.0005}),
    ])
    def test_sampled_plot_matches_full_scan(self, tmp_path, capsys, horizon, family):
        out_dir = str(tmp_path / "o")
        cfg = write_cfg(tmp_path, "f.json", {"horizon": horizon, "family": family})
        code, _, _ = run(["families", "--config", cfg, "--out-dir", out_dir,
                          "--format", "svg"], capsys)
        assert code == 0
        a = cli.family_set(cli._checked(family, "family", cli._FAMILY), horizon)
        with open(os.path.join(out_dir, "family-density.svg"), encoding="utf-8") as f:
            assert f.read() == scan_prefix_plot(a)


class TestHugeHorizon:
    """Set commands cost O(|A|): a 3-member family under a horizon of 10^12."""

    FAMILY = {"kind": "explicit", "members": [5, 6, 10 ** 12 - 1]}

    @pytest.mark.parametrize("command, formats", [
        ("families", ["json", "csv", "svg"]), ("period", ["json"])])
    def test_three_members_at_horizon_1e12(self, tmp_path, capsys, command, formats):
        out_dir = str(tmp_path / "o")
        cfg = {"horizon": 10 ** 12, "family": self.FAMILY}
        if command == "period":
            cfg.update(window=2, delta=0.5)
        argv = [command, "--config", write_cfg(tmp_path, "h.json", cfg),
                "--out-dir", out_dir]
        for fmt in formats:
            argv += ["--format", fmt]
        t0 = time.perf_counter()
        code, out, _ = run(argv, capsys)
        dt = time.perf_counter() - t0
        assert code == 0
        assert dt < 2.0
        assert sorted(os.listdir(out_dir)) == sorted(
            {"families": ["family-report.json", "family-elements.csv",
                          "family-density.svg"],
             "period": ["period.json"]}[command])
        if command == "families":
            dens = read_json(out_dir, "family-report.json")["payload"]["density"]
            assert dens["window"] == 10 ** 11
            # 5 and 6 share a window
            assert dens["upperBanach"] == {"num": 1, "den": 5 * 10 ** 10}
            assert dens["lowerBanach"] == {"num": 0, "den": 1}
        else:
            assert "dense=True bound=2 period=1" in out
            cls = read_json(out_dir, "period.json")["payload"]["classification"]
            assert cls["witness"] == [5, 6]


class TestConstructCommand:
    def test_anatomy_payload(self, tmp_path, capsys):
        out_dir = str(tmp_path / "o")
        cfg = write_cfg(tmp_path, "c.json", {"operator": {"foldN": 2}})
        code, out, _ = run(["construct", "--config", cfg, "--out-dir", out_dir,
                            "--format", "json", "--format", "csv"], capsys)
        assert code == 0 and "levels=24" in out
        rec = read_json(out_dir, "operator.json")
        pay = rec["payload"]
        assert len(pay["descriptorHash"]) == 64
        assert pay["ladder"][0] == {"level": 1, "modulus": "1"}
        assert pay["ladder"][3] == {"level": 4, "modulus": "288"}
        assert pay["grid"][0]["alpha"] == [[1.0, 0.0], [0.0, 0.0], [0.0, 0.0]]
        assert any(b["j"] == 3 for b in pay["couplingBounds"])
        with open(os.path.join(out_dir, "grid.csv")) as f:
            header = f.readline().strip()
        assert header == "level,mesh,coefficients"


class TestOrbitCommand:
    def test_return_set_contents(self, tmp_path, capsys):
        out_dir = str(tmp_path / "o")
        cfg = write_cfg(tmp_path, "o.json", {
            "operator": OP, "vector": {"kind": "basis", "index": 4},
            "eps": 0.05, "horizon": 600, "window": 60})
        code, out, _ = run(["orbit", "--config", cfg, "--out-dir", out_dir], capsys)
        assert code == 0 and "returns=13" in out
        rec = read_json(out_dir, "orbit.json")
        els = rec["payload"]["returnSet"]["elements"]
        assert els[:5] == [0, 1, 2, 286, 287]
        assert len(els) == 13 and els[-1] == 578


class TestQrSearchCommand:
    def test_rotation_only_finds_ladder(self, tmp_path, capsys):
        out_dir = str(tmp_path / "o")
        cfg = write_cfg(tmp_path, "q.json", {
            "operator": OP, "rotationOnly": True,
            "epsSchedule": [1.0, 0.1], "maxLevel": 8})
        code, out, _ = run(["qr-search", "--config", cfg, "--out-dir", out_dir], capsys)
        assert code == 0 and "qr found" in out
        rec = read_json(out_dir, "qr-search.json")
        assert rec["payload"]["found"] is True
        assert rec["payload"]["rotationOnly"] is True
        assert len(rec["payload"]["times"]) == 2

    def test_full_operator_fails_certified(self, tmp_path, capsys):
        out_dir = str(tmp_path / "o")
        cfg = write_cfg(tmp_path, "q.json", {
            "operator": OP, "epsSchedule": [1.0, 0.1],
            "maxLevel": 12, "multipliers": [1, 2, 3], "neighbors": True,
            "scanHead": 64})
        code, out, _ = run(["qr-search", "--config", cfg, "--out-dir", out_dir], capsys)
        assert code == 0 and "qr failed step=2" in out
        rec = read_json(out_dir, "qr-search.json")
        pay = rec["payload"]
        assert pay["found"] is False and pay["certified"] is True
        assert pay["step"] == 2 and pay["floor"] == pytest.approx(0.3183098861837907)

    def test_step_without_candidates_writes_strict_json(self, tmp_path, capsys):
        # the one candidate, 1, passes step 1, which leaves nothing for step 2
        out_dir = str(tmp_path / "o")
        cfg = write_cfg(tmp_path, "q.json", {
            "operator": {"foldN": 2, "dimCap": 64}, "rotationOnly": True,
            "epsSchedule": [10.0, 10.0], "maxLevel": 1, "multipliers": [1],
            "neighbors": False, "scanHead": 0})
        code, out, _ = run(["qr-search", "--config", cfg, "--out-dir", out_dir], capsys)
        assert code == 0 and "qr failed step=2" in out

        def strict(token):
            raise ValueError(f"nonstandard JSON token {token}")

        with open(os.path.join(out_dir, "qr-search.json")) as f:
            pay = json.load(f, parse_constant=strict)["payload"]
        assert pay["found"] is False and pay["step"] == 2 and pay["candidates"] == 1
        assert pay["bestDefect"] is None and pay["bestTime"] is None

    def test_records_refuse_nonfinite_floats(self, tmp_path):
        with pytest.raises(ValueError):
            report.write_json(str(tmp_path / "r.json"), {"x": float("inf")})
        assert not os.listdir(tmp_path)


class TestPeriodCommand:
    def test_delta_out_of_range_exits_one(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path, "p.json", {
            "horizon": 100, "delta": 0, "family": {"kind": "multiples", "p": 5}})
        code, out, err = run(["period", "--config", cfg,
                              "--out-dir", str(tmp_path / "o")], capsys)
        assert code == 1 and out == ""
        assert err == "error: delta must lie in (0, 1]\n"

    def test_exact_period_detected(self, tmp_path, capsys):
        out_dir = str(tmp_path / "o")
        cfg = write_cfg(tmp_path, "p.json", {
            "horizon": 1000, "window": 50, "delta": 0.1,
            "family": {"kind": "multiples", "p": 5}})
        code, out, _ = run(["period", "--config", cfg, "--out-dir", out_dir], capsys)
        assert code == 0
        assert "dense=True" in out and "exact=5" in out
        rec = read_json(out_dir, "period.json")
        assert rec["payload"]["exactPeriod"] == 5
        assert rec["payload"]["classification"]["period"] == 5


class TestKrylovCommand:
    def test_explicit_depths_and_csv(self, tmp_path, capsys):
        out_dir = str(tmp_path / "o")
        cfg = write_cfg(tmp_path, "k.json", {
            "operator": OP, "vector": {"kind": "dyadic-comb"},
            "depths": [1, 2, 8]})
        code, out, _ = run(["krylov", "--config", cfg, "--out-dir", out_dir,
                            "--format", "json", "--format", "csv"], capsys)
        assert code == 0 and out.startswith("krylov depth=8")
        rec = read_json(out_dir, "krylov.json")
        assert rec["payload"]["depths"] == [1, 2, 8]
        ranks = rec["payload"]["ranks"]
        assert ranks[0] == 1 and ranks == sorted(ranks)
        with open(os.path.join(out_dir, "krylov.csv")) as f:
            lines = f.read().splitlines()
        assert lines[0] == "depth,rank" and lines[1] == "1,1"

    @pytest.mark.parametrize("depth, err", [
        ("abc", "'depth' must be an integer >= 1"),
        (4, "'depth' and 'depths' cannot both be set"),
    ], ids=["mistyped", "valid"])
    def test_depth_beside_depths_is_refused(self, tmp_path, capsys, depth, err):
        cfg = write_cfg(tmp_path, "k.json", {
            "operator": {"foldN": 1, "dimCap": 16}, "vector": {"kind": "basis", "index": 1},
            "depths": [2, 4], "depth": depth})
        code, out, got = run(["krylov", "--config", cfg, "--out-dir", str(tmp_path / "o")],
                             capsys)
        assert (code, out, got) == (1, "", f"error: {err}\n")


class TestFormatSelection:
    def test_default_writes_json_only(self, tmp_path, capsys):
        out_dir = str(tmp_path / "o")
        cfg = write_cfg(tmp_path, "f.json", {
            "horizon": 20, "family": {"kind": "multiples", "p": 2}})
        code, _, _ = run(["families", "--config", cfg, "--out-dir", out_dir], capsys)
        assert code == 0
        assert sorted(os.listdir(out_dir)) == ["family-report.json"]

    def test_csv_only(self, tmp_path, capsys):
        out_dir = str(tmp_path / "o")
        cfg = write_cfg(tmp_path, "f.json", {
            "horizon": 20, "family": {"kind": "multiples", "p": 2}})
        code, _, _ = run(["families", "--config", cfg, "--out-dir", out_dir,
                          "--format", "csv"], capsys)
        assert code == 0
        assert sorted(os.listdir(out_dir)) == ["family-elements.csv"]

    def test_consecutive_calls_share_no_parser_state(self, tmp_path, capsys):
        # the parser is built once per process; formats and the output
        # directory of one call must not leak into the next
        assert cli._build_parser() is cli._build_parser()
        cfg = write_cfg(tmp_path, "f.json", {
            "horizon": 20, "family": {"kind": "multiples", "p": 2}})
        first, second, third = (str(tmp_path / d) for d in ("a", "b", "c"))
        code, _, _ = run(["families", "--config", cfg, "--out-dir", first,
                          "--format", "csv", "--format", "svg"], capsys)
        assert code == 0
        code, _, _ = run(["families", "--config", cfg, "--out-dir", second], capsys)
        assert code == 0
        code, _, _ = run(["families", "--config", cfg, "--out-dir", third,
                          "--format", "svg"], capsys)
        assert code == 0
        assert sorted(os.listdir(first)) == ["family-density.svg", "family-elements.csv"]
        assert sorted(os.listdir(second)) == ["family-report.json"]
        assert sorted(os.listdir(third)) == ["family-density.svg"]


SMALL_OP = {"foldN": 2, "dimCap": 30}


class TestSampleValidation:
    """Samples are checked one by one before they are stacked, so a sample of
    the wrong size or norm is a bad config (exit 1), never an internal error."""

    @pytest.mark.parametrize("command, cfg, err", [
        ("qr-search", {"operator": SMALL_OP, "epsSchedule": [1.0],
                       "samples": [{"kind": "entries", "values": [1] * 31}]},
         "error: more entries than dim_cap\n"),
        ("qr-search", {"operator": SMALL_OP, "epsSchedule": [1.0],
                       "samples": [{"kind": "basis", "index": 1},
                                   {"kind": "basis", "index": 31}]},
         "error: basis index 31 outside 1..30\n"),
        ("qr-search", {"operator": SMALL_OP, "epsSchedule": [1.0], "samples": []},
         "error: need at least one sample vector\n"),
        ("rigidity", {"operator": SMALL_OP,
                      "samples": [{"kind": "entries", "values": [1] * 31}]},
         "error: more entries than dim_cap\n"),
        ("rigidity", {"operator": SMALL_OP,
                      "samples": [{"kind": "basis", "index": 2},
                                  {"kind": "entries", "values": [0]}]},
         "error: cannot normalize the zero vector\n"),
        ("orbit", {"operator": SMALL_OP, "eps": 0.1, "horizon": 10,
                   "vector": {"kind": "entries", "values": [1] * 31}},
         "error: more entries than dim_cap\n"),
        ("orbit", {"operator": SMALL_OP, "eps": 0.1, "horizon": 10,
                   "vector": {"kind": "basis", "index": 99}},
         "error: basis index 99 outside 1..30\n"),
    ])
    def test_bad_sample_exits_one(self, tmp_path, capsys, command, cfg, err):
        path = write_cfg(tmp_path, "s.json", cfg)
        code, out, got = run([command, "--config", path, "--out-dir", str(tmp_path / "o")],
                             capsys)
        assert (code, out, got) == (1, "", err)

    def test_no_rigidity_samples_is_a_zero_defect(self, tmp_path, capsys):
        path = write_cfg(tmp_path, "s.json", {"operator": SMALL_OP, "jMax": 3, "samples": []})
        code, out, _ = run(["rigidity", "--config", path, "--out-dir", str(tmp_path / "o")],
                           capsys)
        assert code == 0 and "worstDefect=0 " in out

    def test_library_probes_reject_foreign_samples(self):
        op = rl.build_operator(2, dim_cap=30)
        cap = op.dim_cap
        wrong_dim, wrong_norm = rl.basis_vec(1, cap + 1), rl.basis_vec(1, cap, p=1.0)
        e1 = rl.basis_vec(1, cap)
        for bad in (wrong_dim, wrong_norm):
            with pytest.raises(rl.ConstructionError):
                rl.quasi_rigidity_search(op, [e1, bad], [1.0], [1, 2])
            with pytest.raises(rl.ConstructionError):
                rl.rigidity_defects(op, [3], [e1, bad])
            with pytest.raises(rl.ConstructionError):
                list(rl.displacements(op, [1], [e1, bad]))
            with pytest.raises(rl.OpcoreError):
                list(rl.displacements(op.rotation_part(), [1], [e1, bad]))
        with pytest.raises(rl.ConstructionError):
            op.powers([1], np.zeros((2, cap + 1)))
        with pytest.raises(rl.OpcoreError):
            rl.WeightedBackwardShift(0.5, 4).powers([1], np.zeros(4))
