"""Show that the benchmark's checks reject wrong outputs.

    python3 bench/selftest.py [--seed N]

Runs every operation of the three workloads once, confirms that each
output passes its check, then feeds the checks deliberately corrupted
copies (a flipped return-set element, a density Fraction off by 1/window, a
wrong `certified`, ...) and confirms that every one is rejected.  Exits 1 if
a true output is rejected or a corrupted one accepted.
"""

import argparse
import copy
import json
import shutil
import sys
from fractions import Fraction

import run  # pins BLAS threads before numpy loads

sys.path[:0] = [str(run.SRC), str(run.BENCH)]

import inputs  # noqa: E402
import workloads  # noqa: E402
from oracles import CheckError  # noqa: E402


def _json(fname, edit):
    def corrupt(value):
        rec = json.loads(value["files"][fname])
        edit(rec["payload"])
        value["files"][fname] = (json.dumps(rec, sort_keys=True, indent=2) + "\n").encode()
    return corrupt


def _csv(fname, row, col, edit):
    def corrupt(value):
        lines = value["files"][fname].decode().split("\n")
        cells = lines[row].split(",")
        cells[col] = edit(cells[col])
        lines[row] = ",".join(cells)
        value["files"][fname] = "\n".join(lines).encode()
    return corrupt


def _flip_first_gap(els):
    """Insert the least time missing from the set (a flipped membership)."""
    missing = next(n for n in range(len(els) + 1) if n not in set(els))
    els.append(missing)
    els.sort()


def _off_by_one_window(block):
    q = Fraction(block["upperBanach"]["num"], block["upperBanach"]["den"])
    q += Fraction(1, block["window"])
    block["upperBanach"] = {"num": q.numerator, "den": q.denominator}


def _bump(d, key, factor):
    d[key] *= factor


CORRUPTIONS = {
    "orbit-sweep": [
        ("orbit-head", "return-set element flipped",
         _json("orbit.json", lambda p: _flip_first_gap(p["returnSet"]["elements"]))),
        ("orbit-deep", "csv displacement off by 1e-6",
         _csv("orbit.csv", 700, 1, lambda c: repr(float(c) + 1e-6))),
        ("orbit-comb", "density Fraction off by 1/window",
         _json("orbit.json", lambda p: _off_by_one_window(p["density"]))),
        ("krylov", "ranks out of order",
         _json("krylov.json", lambda p: p["ranks"].reverse())),
        ("inclusion-1", "one tight return too many",
         lambda v: v.update(returnCount=v["returnCount"] + 1)),
        ("inclusion-3", "a violation reported",
         lambda v: v.update(holds=False, firstViolation=17)),
        ("rotation-return", "lower Banach density off by 1/window",
         lambda v: v["density"].update(lowerBanach={"num": 0, "den": 1})),
    ],
    "lattice-search": [
        ("qr-full", "wrong certified",
         _json("qr-search.json", lambda p: p.update(certified=False))),
        ("qr-full", "bestDefect off by 1e-6 relative",
         _json("qr-search.json", lambda p: _bump(p, "bestDefect", 1 + 1e-6))),
        ("qr-rotation", "a return time moved off the ladder",
         _json("qr-search.json", lambda p: p["times"].__setitem__(
             0, str(int(p["times"][0]) + 1)))),
        ("scan", "argmin moved", lambda v: v.update(argmin=v["argmin"] + 1)),
        ("scan", "min_defect off by 1e-6 relative",
         lambda v: _bump(v, "minDefect", 1 + 1e-6)),
        ("witness-0.05", "a witness distance off by 1%",
         lambda v: v[2]["points"][-1]["distances"].__setitem__(
             0, v[2]["points"][-1]["distances"][0] * 1.01)),
        ("rigidity", "exact bound off by one in the numerator",
         _json("rigidity.json", lambda p: p["points"][3].update(
             boundExact="1" + p["points"][3]["boundExact"]))),
        ("construct-2", "a ladder modulus changed",
         _json("operator.json", lambda p: p["ladder"][10].update(
             modulus=str(int(p["ladder"][10]["modulus"]) + 1)))),
        ("construct-3", "descriptorHash changed",
         _json("operator.json", lambda p: p.update(
             descriptorHash="0" + p["descriptorHash"][1:]))),
    ],
    "density-sets": [
        ("families-union", "density Fraction off by 1/window",
         _json("family-report.json", lambda p: _off_by_one_window(p["density"]))),
        ("families-rotation", "an element dropped",
         _json("family-report.json", lambda p: p["set"]["elements"].pop(3))),
        ("families-large", "maxApLength one short",
         _json("family-report.json", lambda p: p["density"].update(
             maxApLength=p["density"]["maxApLength"] - 1))),
        ("period-dense", "period off by one",
         _json("period.json", lambda p: p["classification"].update(
             period=p["classification"]["period"] + 1))),
        ("period-sparse", "classified dense",
         _json("period.json", lambda p: p["classification"].update(dense=True))),
    ],
}


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--seed", type=int, default=1)
    args = ap.parse_args()
    workdir = run.ROOT / ".bench_run" / "selftest"
    bad = 0
    try:
        for workload, cases in CORRUPTIONS.items():
            ops = {s["name"]: workloads.Op(s)
                   for s in inputs.build(workload, args.seed, str(workdir / workload))}
            values = {}
            for name in sorted({name for name, _, _ in cases}):
                op = ops[name]
                op.prepare()
                ok, values[name] = op.collect(op.run())
                try:
                    op.check(values[name])
                    print(f"{workload:15} {name:18} true output accepted")
                except CheckError as exc:
                    bad += 1
                    print(f"{workload:15} {name:18} TRUE OUTPUT REJECTED: {exc}")
            for name, what, corrupt in cases:
                value = copy.deepcopy(values[name])
                corrupt(value)
                try:
                    ops[name].check(value)
                    bad += 1
                    print(f"{workload:15} {name:18} CORRUPTION ACCEPTED: {what}")
                except CheckError as exc:
                    print(f"{workload:15} {name:18} rejected {what}: {exc}")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print("self-test", "FAILED" if bad else "passed")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
