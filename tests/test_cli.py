import copy
import json
import os
import time

import numpy as np
import pytest

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

    def test_growth_rule_is_not_a_config_key(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path, "c.json", {"operator": {"foldN": 2, "rule": "dyadic"}})
        out_dir = tmp_path / "o"
        code, out, err = run(["construct", "--config", cfg, "--out-dir", str(out_dir)], capsys)
        assert code == 1 and out == ""
        assert err.startswith("error: unknown config key 'operator.rule'")
        assert not any(out_dir.iterdir())

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
        assert not any(out_dir.iterdir())

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
        a = cli.family_set(cli.Cfg(family), horizon)
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
        ("orbit", {"operator": dict(SMALL_OP, norm=0.5), "eps": 0.1, "horizon": 10,
                   "vector": {"kind": "basis", "index": 1}},
         "error: operator.norm: norm exponent must be >= 1\n"),
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
                rl.rigidity_defect(op, 3, [e1, bad])
            with pytest.raises(rl.ConstructionError):
                list(rl.displacements(op, [1], [e1, bad]))
            with pytest.raises(rl.OpcoreError):
                list(rl.displacements(op.rotation_part(), [1], [e1, bad]))
        with pytest.raises(rl.ConstructionError):
            op.powers([1], np.zeros((2, cap + 1)))
        with pytest.raises(rl.OpcoreError):
            rl.WeightedBackwardShift(0.5, 4).powers([1], np.zeros(4))
