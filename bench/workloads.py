"""Operations of the benchmark workloads and the checks of their outputs.

An operation is one CLI command run in-process through `recurlab.cli.main`,
or one library probe in the style of the README quick tour.  `run` is the
only timed part.  `collect` turns what the operation produced into a plain,
comparable value (exit code, summary line and file bytes for a command; a
JSON-like dict for a probe), and `check` compares that value with the
references in `oracles`, raising `CheckError` on any disagreement.
"""

from __future__ import annotations

import contextlib
import csv
import functools
import io
import json
import math
import os
import shutil
from fractions import Fraction

import numpy as np

import recurlab
import recurlab.cli

import inputs
import oracles as orc
from oracles import CheckError, close, require

FOLD = 2
DIM = 64
LEVELS = orc.default_levels(FOLD)


class Op:
    def __init__(self, spec: dict) -> None:
        self.spec = spec
        self.name = spec["name"]
        self.times = spec["times"]

    # -- command line operations --------------------------------------------

    def _argv(self) -> list[str]:
        s = self.spec
        argv = [s["command"], "--config", s["config_path"], "--out-dir", s["out_dir"]]
        for fmt in s["formats"]:
            argv += ["--format", fmt]
        return argv

    def prepare(self) -> None:
        """Empty the output directory, so every pass writes its files anew."""
        if self.spec["kind"] == "cli":
            shutil.rmtree(self.spec["out_dir"], ignore_errors=True)

    def run(self):
        if self.spec["kind"] == "cli":
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = recurlab.cli.main(self._argv())
            return code, out.getvalue(), err.getvalue()
        try:
            return True, PROBES[self.spec["probe"]](self.spec["params"])
        except Exception as exc:  # a probe that raises is a failed operation
            return False, f"{type(exc).__name__}: {exc}"

    def collect(self, raw) -> tuple[bool, object]:
        """(operation succeeded, comparable value)."""
        if self.spec["kind"] == "cli":
            code, out, err = raw
            files = {}
            out_dir = self.spec["out_dir"]
            if os.path.isdir(out_dir):
                for fname in sorted(os.listdir(out_dir)):
                    with open(os.path.join(out_dir, fname), "rb") as f:
                        files[fname] = f.read()
            value = {"code": code, "stdout": out, "stderr": err, "files": files}
            return code == self.spec["expect_exit"], value
        return raw

    def check(self, value) -> None:
        key = self.spec["command"] if self.spec["kind"] == "cli" else self.spec["probe"]
        CHECKS[key](self.spec, value)


# ---------------------------------------------------------------------------
# library probes

def _vec(entries, dim: int) -> recurlab.Vec:
    return recurlab.vec_of([complex(re, im) for re, im in entries], dim)


def _unit(v: recurlab.Vec) -> recurlab.Vec:
    return recurlab.Vec(v.coords / v.norm(), v.p)


def _inclusion_pool(kind: str):
    if kind == "perturbed-small":
        return (recurlab.build_operator(FOLD, [1, 0.5, 0.25], dim_cap=16),
                recurlab.basis_vec(2, 16))
    if kind == "diagonal":
        return (recurlab.diagonal_rotation([Fraction(i, 17) for i in range(16)]),
                recurlab.basis_vec(3, 16))
    if kind == "backward-shift":
        return recurlab.WeightedBackwardShift(0.9, 16, 2.0), _unit(recurlab.dyadic_comb(16))
    return recurlab.BlockPermutationIsometry(64, 2.0), _unit(recurlab.dyadic_comb(64))


def probe_inclusion(params: dict) -> dict:
    op, x = _inclusion_pool(params["pool"])
    coeffs = [complex(re, im) for re, im in params["coeffs"]]
    rep = recurlab.commutant_return_inclusion(op, coeffs, x, params["eps"], params["horizon"])
    return rep.to_json_dict()


def probe_rotation_return(params: dict) -> dict:
    rot = recurlab.diagonal_rotation([Fraction(1, params["p"])])
    a = recurlab.return_set(rot, recurlab.basis_vec(1, 1), params["eps"], params["horizon"])
    prof = recurlab.density_profile(a, params["p"])
    return {"set": a.to_json_dict(), "density": prof.to_json_dict()}


def probe_scan(params: dict) -> dict:
    op = recurlab.build_operator(FOLD, dim_cap=DIM)
    cands = recurlab.lattice_candidates(op.modulus, inputs.MAX_LEVEL,
                                        tuple(params["multipliers"]), True, params["head"])
    rep = recurlab.non_recurrence_scan(op, cands)
    return {"minDefect": rep.min_defect, "argmin": rep.argmin, "evaluated": rep.evaluated}


def probe_witness(params: dict) -> list[dict]:
    out = []
    for tup in params["tuples"]:
        vecs = [_vec(v, DIM) for v in tup]
        targets = ()
        if params["target"]:
            targets = [tuple(recurlab.annihilating_functional(vecs, FOLD))]
        op = recurlab.build_operator(FOLD, targets=targets, dim_cap=DIM)
        pts = recurlab.recurrence_witness(op, vecs, params["tol"])
        # the grid rows travel with the answer: with a target they are the
        # program's own quantization, which the check then takes as given
        grid = {str(e.level): [[c.real, c.imag] for c in e.alpha] for e in op.grid.entries}
        out.append({"levels": op.levels, "points": [p.to_json_dict() for p in pts],
                    "grid": grid})
    return out


PROBES = {"inclusion": probe_inclusion, "rotation-return": probe_rotation_return,
          "scan": probe_scan, "witness": probe_witness}


# ---------------------------------------------------------------------------
# shared reference data

@functools.cache
def _ladder(fold: int = FOLD, levels: int = LEVELS) -> list[int]:
    return inputs.ladder(fold, levels)


@functools.cache
def _dense_stock() -> np.ndarray:
    return orc.dense_perturbed(FOLD, DIM)


def _vector_of(cfg: dict, dim: int) -> np.ndarray:
    if cfg["kind"] == "basis":
        x = np.zeros(dim, dtype=np.complex128)
        x[cfg["index"] - 1] = 1.0
        return x
    if cfg["kind"] == "dyadic-comb":
        return orc.dyadic_comb(dim)
    x = np.zeros(dim, dtype=np.complex128)
    vals = [complex(re, im) for re, im in cfg["values"]]
    x[:len(vals)] = vals
    return x


def _record(value: dict, fname: str, kind: str, spec: dict) -> dict:
    require(fname in value["files"], f"{spec['name']}: {fname} not written")
    rec = json.loads(value["files"][fname])
    require(rec["record"] == kind and rec["schemaVersion"] == 1,
            f"{spec['name']}: wrong record envelope")
    require(rec["config"] == json.loads(json.dumps(spec["config"])),
            f"{spec['name']}: config echo differs from the config file")
    return rec["payload"]


def _expect_files(spec: dict, value: dict, by_format: dict) -> None:
    want = sorted(f for fmt, names in by_format.items() if fmt in spec["formats"]
                  for f in names)
    require(sorted(value["files"]) == want,
            f"{spec['name']}: wrote {sorted(value['files'])}, expected {want}")


def _csv_rows(value: dict, fname: str) -> list[list[str]]:
    return list(csv.reader(io.StringIO(value["files"][fname].decode("utf-8"))))


def _check_svg(value: dict, fname: str, series: int) -> None:
    text = value["files"][fname].decode("utf-8")
    require(text.startswith("<svg ") and text.endswith("</svg>\n"), f"{fname}: not an svg")
    require(text.count("<polyline ") == series, f"{fname}: expected {series} series")


def _frac(d: dict) -> Fraction:
    return Fraction(d["num"], d["den"])


# ---------------------------------------------------------------------------
# orbit-sweep checks

def check_orbit(spec: dict, value: dict) -> None:
    cfg = spec["config"]
    eps, horizon, window = cfg["eps"], cfg["horizon"], cfg["window"]
    _expect_files(spec, value, {"json": ["orbit.json"], "csv": ["orbit.csv"],
                                "svg": ["orbit.svg"]})
    pay = _record(value, "orbit.json", "orbit", spec)
    want_hash = orc.descriptor_hash(orc.descriptor(FOLD, DIM, LEVELS))
    require(pay["descriptorHash"] == want_hash, "orbit: descriptorHash differs")
    require(pay["eps"] == eps, "orbit: eps echo differs")
    t = _dense_stock()
    x = _vector_of(cfg["vector"], DIM)
    disp = np.linalg.norm(orc.iterate_orbit(t, x, horizon) - x, axis=1)
    inside, edge = orc.knife_edge_split(disp, eps)
    els = pay["returnSet"]["elements"]
    require(pay["returnSet"]["horizon"] == horizon, "orbit: horizon differs")
    orc.check_set(els, inside, edge, "orbit return set")
    require(pay["density"] == orc.density_recount(els, horizon, window),
            "orbit: density block differs from the recount")
    if "csv" in spec["formats"]:
        rows = _csv_rows(value, "orbit.csv")
        require(rows[0] == ["n", "displacement"] and len(rows) == horizon + 2,
                "orbit.csv: wrong shape")
        for n, (ns, ds) in enumerate(rows[1:]):
            d = float(ds)
            require(int(ns) == n and abs(d - disp[n]) <= 1e-9 * max(1.0, disp[n]),
                    f"orbit.csv: displacement at n={n} is {d!r}, reference {disp[n]!r}")
    if "svg" in spec["formats"]:
        _check_svg(value, "orbit.svg", 2)
    require(value["stdout"].startswith(f"orbit eps={eps:g} horizon={horizon} "
                                       f"returns={len(els)} "),
            "orbit: summary line differs")


def check_krylov(spec: dict, value: dict) -> None:
    _expect_files(spec, value, {"json": ["krylov.json"], "csv": ["krylov.csv"],
                                "svg": ["krylov.svg"]})
    pay = _record(value, "krylov.json", "krylov", spec)
    depths, ranks = pay["depths"], pay["ranks"]
    require(depths == spec["config"]["depths"], "krylov: depths differ")
    require(ranks[0] == 1, "krylov: a nonzero vector has rank 1")
    require(all(a <= b for a, b in zip(ranks, ranks[1:])), "krylov: ranks decrease")
    require(all(r <= min(d, DIM) for d, r in zip(depths, ranks)),
            "krylov: rank above min(depth, dim)")
    if "csv" in spec["formats"]:
        require(_csv_rows(value, "krylov.csv") ==
                [["depth", "rank"]] + [[str(d), str(r)] for d, r in zip(depths, ranks)],
                "krylov.csv differs from krylov.json")


def _dense_pool(kind: str):
    if kind == "perturbed-small":
        x = np.zeros(16, dtype=np.complex128)
        x[1] = 1.0
        return orc.dense_perturbed(FOLD, 16, mesh_groups=3), x
    if kind == "diagonal":
        x = np.zeros(16, dtype=np.complex128)
        x[2] = 1.0
        return orc.dense_diagonal([Fraction(i, 17) for i in range(16)]), x
    dim = 16 if kind == "backward-shift" else 64
    comb = orc.dyadic_comb(dim)
    comb /= np.linalg.norm(comb)
    if kind == "backward-shift":
        return orc.dense_backward_shift(0.9, dim), comb
    return orc.dense_block_permutation(dim), comb


def check_inclusion(spec: dict, rep: dict) -> None:
    p = spec["params"]
    t, x = _dense_pool(p["pool"])
    coeffs = [complex(re, im) for re, im in p["coeffs"]]
    s = sum(c * np.linalg.matrix_power(t, j) for j, c in enumerate(coeffs))
    require(rep["scale"] >= np.linalg.norm(s, 2) * (1 - 1e-12),
            f"inclusion: scale {rep['scale']} below the norm of S")
    require(rep["holds"] and rep["firstViolation"] is None, "inclusion: violation reported")
    require(rep["checked"] == p["horizon"] + 1, "inclusion: wrong number of times checked")
    require(rep["sxLoss"] >= 0.0, "inclusion: negative truncation loss")
    orbit = orc.iterate_orbit(t, x, p["horizon"])
    dx = np.linalg.norm(orbit - x, axis=1)
    inside, edge = orc.knife_edge_split(dx, p["eps"] / rep["scale"])
    require(len(inside) <= rep["returnCount"] <= len(inside) + len(edge),
            f"inclusion: {rep['returnCount']} tight returns, reference {len(inside)}")
    sx = s @ x
    images = orbit[sorted(inside)] @ s.T  # T^n S x = S T^n x
    require(bool(np.all(np.linalg.norm(images - sx, axis=1) < p["eps"])),
            "inclusion: the reference finds a tight return that S does not keep")


def check_rotation_return(spec: dict, out: dict) -> None:
    p = spec["params"]
    n = np.arange(p["horizon"] + 1)
    d = np.abs(np.exp(2j * np.pi * (n % p["p"]) / p["p"]) - 1.0)
    inside, edge = orc.knife_edge_split(d, p["eps"])
    els = out["set"]["elements"]
    orc.check_set(els, inside, edge, "rotation return set")
    dens = out["density"]
    require(dens == orc.density_recount(els, p["horizon"], p["p"]),
            "rotation return: density block differs from the recount")
    require(_frac(dens["lowerBanach"]) >= Fraction(1, p["p"]),
            "rotation return: every window of length p holds a multiple of p")


# ---------------------------------------------------------------------------
# lattice-search checks

def _lattice(cfg: dict) -> list[int]:
    return inputs.lattice_times(FOLD, cfg["multipliers"], cfg["scanHead"], cfg["maxLevel"])


def _head_defects(cands: list[int]) -> list[float]:
    m = _ladder()
    return [orc.head_basis_defect_float(FOLD, n, m) for n in cands]


def check_qr_search(spec: dict, value: dict) -> None:
    cfg = spec["config"]
    _expect_files(spec, value, {"json": ["qr-search.json"]})
    pay = _record(value, "qr-search.json", "qr-search", spec)
    cands = _lattice(cfg)
    require(pay["candidates"] == len(cands), "qr-search: candidate count differs")
    require(pay["rotationOnly"] == bool(cfg.get("rotationOnly")), "qr-search: mode differs")
    if cfg.get("rotationOnly"):
        _check_qr_rotation(cfg, pay, cands)
    else:
        _check_qr_full(cfg, pay, cands)


def _check_qr_full(cfg: dict, pay: dict, cands: list[int]) -> None:
    floor = 1.0 / math.pi
    require(not pay["found"], "qr-search: the full head basis never returns")
    require(pay["certified"] and abs(pay["floor"] - floor) <= 1e-15,
            "qr-search: failure must be certified with floor 1/pi")
    require(pay["certified"] == (pay["floor"] >= pay["eps"]), "qr-search: certified flag")
    require(pay["bestDefect"] > floor, "qr-search: defect below the 1/pi floor")
    outcomes = _greedy_failures(cands, _head_defects(cands), cfg["epsSchedule"])
    best_time = int(pay["bestTime"])
    require(any(pay["step"] == step and pay["eps"] == cfg["epsSchedule"][step - 1]
                and close(pay["bestDefect"], best_d) and best_time in at
                for step, best_d, at in outcomes),
            f"qr-search: failure {pay['step']}/{pay['bestDefect']!r}/{best_time}, "
            f"reference {[(st, bd) for st, bd, _ in outcomes]}")
    require(close(pay["bestDefect"], orc.head_basis_defect_mp(FOLD, best_time)),
            "qr-search: bestDefect differs from the mpmath phase sums")


def _greedy_failures(cands, defects, schedule) -> list[tuple[int, float, set]]:
    """Every (failing step, best defect, times attaining it) of the greedy search.

    A candidate within KNIFE_EDGE of a step's eps may be taken or not in
    floating point, so the replay follows both branches.
    """
    outcomes = []
    paths = [(0, 1)]  # (previous time, step)
    while paths:
        prev, step = paths.pop()
        eps = schedule[step - 1]
        later = [(n, d) for n, d in zip(cands, defects) if n > prev]
        choices, certain = [], False
        for n, d in later:
            if d <= eps + orc.KNIFE_EDGE:
                choices.append(n)
            if d < eps - orc.KNIFE_EDGE:
                certain = True
                break
        if not certain and later:
            best_d = min(d for _, d in later)
            outcomes.append((step, best_d, {n for n, d in later if close(d, best_d)}))
        if step < len(schedule):
            paths += [(n, step + 1) for n in choices]
    return outcomes


def _check_qr_rotation(cfg: dict, pay: dict, cands: list[int]) -> None:
    require(pay["found"], "qr-search: the rotation alone must return")
    m = _ladder()
    samples = [_vector_of(s, DIM) for s in cfg["samples"]]
    moduli = [mk for mk in m[:cfg["maxLevel"]] if mk > 1]

    def defect(n: int) -> float:
        return max(orc.rotation_defect_mp(m, x, n) for x in samples)

    times = [int(t) for t in pay["times"]]
    require(len(times) == len(cfg["epsSchedule"]), "qr-search: wrong number of steps")
    require(all(a < b for a, b in zip(times, times[1:])), "qr-search: times not increasing")
    prev = 0
    for t, d, eps in zip(times, pay["defects"], cfg["epsSchedule"]):
        require(t in cands, f"qr-search: time {t} is not a candidate")
        require(any(t % mk == 0 for mk in moduli),
                f"qr-search: time {t} is not a multiple of a ladder modulus")
        ref = defect(t)
        require(d <= eps and close(d, ref, abs_tol=1e-15),
                f"qr-search: defect {d!r} at {t}, reference {ref!r}")
        # greedy: no earlier candidate past the previous time qualifies
        for n in cands:
            if prev < n < t:
                dn = max(orc.rotation_defect_float(m, x, n) for x in samples)
                require(dn >= eps * (1 - orc.KNIFE_EDGE),
                        f"qr-search: candidate {n} qualifies before {t}")
        prev = t


def check_scan(spec: dict, rep: dict) -> None:
    p = spec["params"]
    cands = inputs.lattice_times(FOLD, p["multipliers"], p["head"])
    require(rep["evaluated"] == len(cands), "scan: evaluated count differs")
    defects = _head_defects(cands)
    best = min(defects)
    require(close(rep["minDefect"], best), "scan: min_defect is not the minimum")
    require(rep["argmin"] in cands and close(defects[cands.index(rep["argmin"])], best),
            "scan: argmin does not attain the minimum")
    require(rep["minDefect"] > 1.0 / math.pi, "scan: defect below the 1/pi floor")
    require(close(rep["minDefect"], orc.head_basis_defect_mp(FOLD, rep["argmin"])),
            "scan: min_defect differs from the mpmath phase sums")


def check_witness(spec: dict, outs: list) -> None:
    p = spec["params"]
    require(len(outs) == len(p["tuples"]), "witness: one answer per tuple")
    for tup, out in zip(p["tuples"], outs):
        _check_one_witness(p["target"], p["tol"], tup, out)


def _check_one_witness(target: bool, tol: float, tup: list, out: dict) -> None:
    levels = out["levels"]
    m = _ladder(FOLD, levels)
    rows = [(int(k), [complex(re, im) for re, im in a]) for k, a in out["grid"].items()]
    require([k for k, _ in rows] == list(range(FOLD + 2, levels + 1)),
            "witness: grid levels do not pair with the ladder")
    # each mesh group opens with the head coordinate functionals in order,
    # followed by the quantized target unless it coincides with one of them
    first = [1.0] + [0.0] * FOLD
    mesh, group = {}, -1
    for k, a in rows:
        group += a == first
        mesh[k] = orc.MESH_VALUES[group]
    units = [(k, i) for k, i, _ in orc.default_alpha(FOLD)]
    if not target:
        require(levels == LEVELS and [(k, a.index(1.0)) for k, a in rows] == units
                and all(sum(abs(c) for c in a) == 1.0 for _, a in rows),
                "witness: grid differs from the stock layout")
    pts = out["points"]
    require(pts and any(pt["gridDistance"] <= tol for pt in pts),
            "witness: no level within tol")
    require(all(a["level"] < b["level"] for a, b in zip(pts, pts[1:])),
            "witness: levels not increasing")
    vecs = [[complex(re, im) for re, im in v] for v in tup]
    for pt in pts:
        k = pt["level"]
        require(pt["mesh"] == mesh[k], f"witness: mesh at level {k}")
        require(pt["returnTime"] == str(m[k - 2]), f"witness: return time at level {k}")
        for x, d in zip(vecs, pt["distances"]):
            ref = orc.head_displacement_mp(m, rows, x, m[k - 2])
            require(close(d, ref, abs_tol=1e-15),
                    f"witness: distance {d!r} at level {k}, mpmath {ref!r}")
    require(max(pts[-1]["distances"]) <= 10 * tol, "witness: deepest distance above 10*tol")


def check_rigidity(spec: dict, value: dict) -> None:
    cfg = spec["config"]
    _expect_files(spec, value, {"json": ["rigidity.json"], "csv": ["rigidity.csv"],
                                "svg": ["rigidity.svg"]})
    pay = _record(value, "rigidity.json", "rigidity", spec)
    m = _ladder()
    samples = [_vector_of(s, DIM) for s in cfg["samples"]]
    samples = [x / np.linalg.norm(x) for x in samples]
    require(pay["jMax"] == cfg["jMax"] and pay["samples"] == len(samples),
            "rigidity: header differs")
    require(pay["allWithinBound"], "rigidity: a defect exceeds its bound")
    pts = pay["points"]
    require([pt["j"] for pt in pts] == list(range(1, cfg["jMax"] + 1)), "rigidity: levels")
    for pt in pts:
        j = pt["j"]
        exact = orc.coupling_sum(m, j)
        require(pt["returnTime"] == str(m[j - 1]), f"rigidity: return time at j={j}")
        require(pt["boundExact"] == f"{exact.numerator}/{exact.denominator}",
                f"rigidity: exact bound at j={j}")
        require(close(pt["bound"], 2 * math.pi * float(exact), rel=1e-12),
                f"rigidity: float bound at j={j}")
        require(pt["defect"] <= pt["bound"], f"rigidity: defect above bound at j={j}")
        ref = max(orc.rotation_defect_mp(m, x, m[j - 1]) for x in samples)
        require(close(pt["defect"], ref, abs_tol=1e-15),
                f"rigidity: defect {pt['defect']!r} at j={j}, mpmath {ref!r}")
    rows = _csv_rows(value, "rigidity.csv")
    require(rows[0] == ["j", "returnTime", "defect", "bound", "boundExact"]
            and [[int(r[0]), r[1], float(r[2]), float(r[3]), r[4]] for r in rows[1:]]
            == [[pt["j"], pt["returnTime"], pt["defect"], pt["bound"], pt["boundExact"]]
                for pt in pts], "rigidity.csv differs from rigidity.json")
    _check_svg(value, "rigidity.svg", 2)


def check_construct(spec: dict, value: dict) -> None:
    if spec["expect_exit"] == 1:
        require(value["stderr"].startswith("error: ") and not value["files"],
                "construct: a rejected config writes nothing")
        return
    fold = spec["config"]["operator"]["foldN"]
    head = fold + 1
    levels = orc.default_levels(fold)
    m = _ladder(fold, levels)
    _expect_files(spec, value, {"json": ["operator.json"], "csv": ["grid.csv"]})
    pay = _record(value, "operator.json", "construct", spec)
    desc = orc.descriptor(fold, spec["config"]["operator"]["dimCap"], levels)
    require(pay["descriptor"] == desc, "construct: descriptor differs")
    require(pay["descriptorHash"] == orc.descriptor_hash(pay["descriptor"]),
            "construct: descriptorHash is not the sha256 of the descriptor")
    require(pay["ladder"] == [{"level": k, "modulus": str(mk)}
                              for k, mk in enumerate(m, start=1)],
            "construct: ladder differs from m_{k+1} = m_k 2^(k+2) k^2")
    grid = [{"level": k, "mesh": ms,
             "alpha": [[1.0 if j == i else 0.0, 0.0] for j in range(head)]}
            for k, i, ms in orc.default_alpha(fold)]
    require(pay["grid"] == grid, "construct: grid differs from the stock layout")
    bounds = [{"j": j, "bound": "{0.numerator}/{0.denominator}".format(orc.coupling_sum(m, j))}
              for j in range(head, min(levels - 1, head + 6) + 1)]
    require(pay["couplingBounds"] == bounds, "construct: coupling bounds differ")
    require(close(pay["normEquivUpper"], math.sqrt(head), rel=1e-15),
            "construct: 2-norm equivalence constant is sqrt(head)")
    rows = _csv_rows(value, "grid.csv")
    require(rows[0] == ["level", "mesh", "coefficients"] and len(rows) == len(grid) + 1
            and all(int(r[0]) == g["level"] and float(r[1]) == g["mesh"]
                    for r, g in zip(rows[1:], grid)), "grid.csv differs from operator.json")
    require(value["stdout"].startswith(f"operator foldN={fold} levels={levels} ")
            and value["stdout"].rstrip().endswith(f"hash={pay['descriptorHash'][:12]}"),
            "construct: summary line differs")


# ---------------------------------------------------------------------------
# density-sets checks

def _members(cfg: dict) -> tuple[list[int], set]:
    members, edge = orc.family_members(cfg["family"], cfg["horizon"])
    return sorted(members), edge


def check_families(spec: dict, value: dict) -> None:
    cfg = spec["config"]
    horizon, window = cfg["horizon"], cfg["window"]
    _expect_files(spec, value, {"json": ["family-report.json"], "csv": ["family-elements.csv"],
                                "svg": ["family-density.svg"]})
    pay = _record(value, "family-report.json", "family", spec)
    members, edge = _members(cfg)
    els = pay["set"]["elements"]
    require(pay["set"]["horizon"] == horizon, "families: horizon differs")
    orc.check_set(els, set(members), edge, "family set")
    require(pay["density"] == orc.density_recount(els, horizon, window),
            "families: density block differs from the recount")
    if "csv" in spec["formats"]:
        require(_csv_rows(value, "family-elements.csv") ==
                [["element"]] + [[str(e)] for e in els], "family-elements.csv differs")
    if "svg" in spec["formats"]:
        _check_svg(value, "family-density.svg", 1)
    ub, lb = _frac(pay["density"]["upperBanach"]), _frac(pay["density"]["lowerBanach"])
    require(value["stdout"] ==
            f"family horizon={horizon} size={len(els)} "
            f"upperBanach={ub.numerator}/{ub.denominator} "
            f"lowerBanach={lb.numerator}/{lb.denominator}\n",
            "families: summary line differs")


def check_period(spec: dict, value: dict) -> None:
    cfg = spec["config"]
    horizon, window, delta = cfg["horizon"], cfg["window"], cfg["delta"]
    _expect_files(spec, value, {"json": ["period.json"]})
    pay = _record(value, "period.json", "period", spec)
    els, edge = _members(cfg)
    require(not edge, "period: knife-edge member")
    cls = pay["classification"]
    dens = orc.density_recount(els, horizon, window)
    dense = _frac(dens["upperBanach"]) > Fraction(str(delta))
    bound = math.floor(1.0 / delta)
    require(cls["delta"] == delta and cls["bound"] == bound and cls["dense"] == dense,
            "period: classification header differs")
    start = orc.least_pair_window(els, horizon, bound + 1) if dense else None
    if start is None:
        require(cls["period"] is None and cls["witness"] is None, "period: spurious witness")
    else:
        lo, hi = [e for e in els if e > start][:2]
        require(cls["witness"] == [lo, hi] and cls["period"] == hi - lo,
                f"period: witness {cls['witness']} period {cls['period']}, "
                f"reference {[lo, hi]} period {hi - lo}")
    gaps = np.diff(np.asarray(els, dtype=np.int64))
    require(cls["fixedPoint"] == bool(np.any(gaps == 1)), "period: fixedPoint differs")
    exact = int(gaps[0]) if len(els) >= 2 and np.all(gaps == gaps[0]) else None
    require(pay["exactPeriod"] == exact, "period: exactPeriod differs")


CHECKS = {"orbit": check_orbit, "krylov": check_krylov, "inclusion": check_inclusion,
          "rotation-return": check_rotation_return, "qr-search": check_qr_search,
          "scan": check_scan, "witness": check_witness, "rigidity": check_rigidity,
          "construct": check_construct, "families": check_families,
          "period": check_period}
