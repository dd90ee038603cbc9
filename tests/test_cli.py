import copy
import json
import os

import pytest

from recurlab import cli
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

    def test_bad_json_is_config_error(self, tmp_path, capsys):
        p = tmp_path / "bad.json"
        p.write_text("{nope")
        code, _, err = run(["families", "--config", str(p),
                            "--out-dir", str(tmp_path / "o")], capsys)
        assert code == 1 and "not valid JSON" in err

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

    def test_config_value_beats_flag(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path, "f.json", {
            "horizon": 50, "family": {"kind": "multiples", "p": 5}})
        code, out, _ = run(["families", "--config", cfg, "--horizon", "10",
                            "--out-dir", str(tmp_path / "o")], capsys)
        assert code == 0
        assert "horizon=50" in out

    def test_flag_fills_config_gap(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path, "f.json", {"family": {"kind": "multiples", "p": 5}})
        code, out, _ = run(["families", "--config", cfg, "--horizon", "30",
                            "--out-dir", str(tmp_path / "o")], capsys)
        assert code == 0
        assert "horizon=30" in out

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
        def boom(cfg, args, sink):
            raise RuntimeError("wires crossed")
        monkeypatch.setitem(cli._COMMANDS, "families", boom)
        cfg = write_cfg(tmp_path, "f.json", {
            "horizon": 40, "family": {"kind": "multiples", "p": 5}})
        code, _, err = run(["families", "--config", cfg,
                            "--out-dir", str(tmp_path / "o")], capsys)
        assert code == 2 and "internal error" in err and "wires crossed" in err

    @pytest.mark.parametrize("value", ["x", None, [], {}, 0, 1.5])
    def test_multiplier_entries_are_validated(self, tmp_path, capsys, value):
        cfg = write_cfg(tmp_path, "q.json", {
            "operator": OP, "epsSchedule": [1.0], "maxLevel": 6,
            "multipliers": [1, value]})
        code, out, err = run(["qr-search", "--config", cfg,
                              "--out-dir", str(tmp_path / "o")], capsys)
        assert code == 1 and out == ""
        assert err.startswith("error: 'multipliers[1]' must be")

    def test_empty_depths_is_config_error(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path, "k.json", {
            "operator": OP, "vector": {"kind": "dyadic-comb"}, "depths": []})
        code, _, err = run(["krylov", "--config", cfg,
                            "--out-dir", str(tmp_path / "o")], capsys)
        assert code == 1 and err == "error: 'depths' must not be empty\n"


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


class TestPeriodCommand:
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
