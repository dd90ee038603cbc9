"""Command line front end.

Seven subcommands share one pattern: read a JSON config, run the
computation, print a one-line summary, and drop deterministic report files
into --out-dir in the formats requested.  The config file is the only
input: no flag sets a config value, and each record's `config` echoes the
file as read.  An omitted optional key takes its documented default (the
window is a tenth of the horizon, at least 1; jMax is levels - 1).  Every
value is checked by `Cfg.get` or `Cfg.items`, and unknown keys are rejected
with the full field path, so typos fail loudly instead of silently running
defaults.

Exit codes: 0 success (including honest "not found" outcomes), 1 bad usage
or bad config (non-finite numbers included), 2 internal error.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import os
import sys
from fractions import Fraction
from typing import Optional, Sequence

from . import dynamics, natset, opcore, perturbed_rotation as pr, report

_MISSING = object()


class ConfigError(Exception):
    pass


_KINDS = {int: "an integer", float: "a number", str: "a string",
          bool: "true or false", list: "an array"}


def _typed(value, where: str, kind: type, minimum=None):
    """`value` as `kind`, or a ConfigError naming `where`.

    A float kind accepts ints and returns a float; true and false pass only
    as the bool kind, never as numbers.
    """
    accepted = (int, float) if kind is float else kind
    if isinstance(value, bool) is not (kind is bool) or not isinstance(value, accepted):
        raise ConfigError(f"{where!r} must be {_KINDS[kind]}")
    if minimum is not None and value < minimum:
        raise ConfigError(f"{where!r} must be >= {minimum}")
    return float(value) if kind is float else value


def _finite(literal: str) -> float:
    """JSON float and constant hook: NaN, Infinity and overflowing literals are refused."""
    v = float(literal)
    if not math.isfinite(v):
        raise ConfigError(f"config holds a non-finite number: {literal}")
    return v


class Cfg:
    """A config object with path-aware diagnostics and unknown-key rejection.

    `get` and `items` check the values present in the file; an absent key
    gives its default, or is an error when there is none.
    """

    def __init__(self, data, path: str = "") -> None:
        if not isinstance(data, dict):
            where = f" at {path!r}" if path else ""
            raise ConfigError(f"config{where} must be a JSON object")
        self.data = data
        self.path = path

    def _at(self, key: str) -> str:
        return f"{self.path}.{key}" if self.path else key

    def allow(self, *keys: str) -> "Cfg":
        for k in self.data:
            if k not in keys:
                raise ConfigError(
                    f"unknown config key {self._at(k)!r}; "
                    f"allowed here: {', '.join(sorted(keys))}")
        return self

    def has(self, key: str) -> bool:
        return key in self.data

    def raw(self, key: str, default=_MISSING):
        if key in self.data:
            return self.data[key]
        if default is _MISSING:
            raise ConfigError(f"missing required config key {self._at(key)!r}")
        return default

    def get(self, key: str, kind: type, default=_MISSING, minimum=None):
        """The value at `key` checked as `kind`: int, float, str, bool or list."""
        if key not in self.data:
            return self.raw(key, default)
        return _typed(self.data[key], self._at(key), kind, minimum)

    def items(self, key: str, kind: type, default=_MISSING, minimum=None) -> list:
        """The array at `key`, each entry checked as `kind` under its own path."""
        where = self._at(key)
        return [_typed(v, f"{where}[{i}]", kind, minimum)
                for i, v in enumerate(self.get(key, list, default))]

    def sub(self, key: str) -> "Cfg":
        return Cfg(self.raw(key), self._at(key))

    def subs(self, key: str) -> list["Cfg"]:
        """The array of objects at `key`, each a Cfg under its own path."""
        where = self._at(key)
        return [Cfg(v, f"{where}[{i}]") for i, v in enumerate(self.get(key, list))]


def _parse_complex(v, where: str) -> complex:
    if isinstance(v, bool):
        raise ConfigError(f"{where}: expected a number or [re, im]")
    if isinstance(v, (int, float)):
        return complex(v)
    if (isinstance(v, list) and len(v) == 2
            and all(isinstance(t, (int, float)) and not isinstance(t, bool) for t in v)):
        return complex(v[0], v[1])
    raise ConfigError(f"{where}: expected a number or [re, im]")


def _parse_norm(v, where: str) -> float:
    if v == "sup":
        return opcore.SUP
    if isinstance(v, bool) or not isinstance(v, (int, float)):
        raise ConfigError(f"{where}: norm must be \"sup\" or a number >= 1")
    if v < 1:
        raise ConfigError(f"{where}: norm exponent must be >= 1")
    return float(v)


# ---------------------------------------------------------------------------
# builders from config

def family_set(cfg: Cfg, horizon: int) -> natset.NatSet:
    return _family_generator(cfg, horizon).materialize(horizon)


def _family_generator(cfg: Cfg, horizon: int):
    kind = cfg.get("kind", str)
    if kind == "explicit":
        cfg.allow("kind", "members")
        return natset.Explicit(tuple(cfg.items("members", int)))
    if kind == "progression":
        cfg.allow("kind", "start", "diff")
        return natset.ArithmeticProgression(cfg.get("start", int, minimum=0),
                                            cfg.get("diff", int, minimum=1))
    if kind == "multiples":
        cfg.allow("kind", "p")
        return natset.Multiples(cfg.get("p", int, minimum=1))
    if kind == "ip":
        cfg.allow("kind", "generators")
        return natset.IpClosure(tuple(cfg.items("generators", int)))
    if kind == "rotation-return":
        cfg.allow("kind", "modulus", "eps")
        return natset.RotationReturn(cfg.get("modulus", int, minimum=1), cfg.get("eps", float))
    if kind == "delta":
        cfg.allow("kind", "base")
        return natset.DeltaOf(family_set(cfg.sub("base"), horizon))
    if kind in ("union", "intersection"):
        cfg.allow("kind", "parts")
        parts = tuple(_family_generator(p, horizon) for p in cfg.subs("parts"))
        if not parts:
            raise ConfigError(f"{cfg._at('parts')!r} must not be empty")
        return natset.UnionOf(parts) if kind == "union" else natset.IntersectionOf(parts)
    raise ConfigError(f"{cfg._at('kind')!r}: unknown family kind {kind!r}")


def operator_from(cfg: Cfg) -> pr.PerturbedRotation:
    cfg.allow("foldN", "mesh", "targets", "dimCap", "norm", "minLevels")
    fold_n = cfg.get("foldN", int, minimum=1)
    mesh = cfg.get("mesh", list, None)
    if mesh is None:
        mesh_vals = pr.DEFAULT_MESH
    else:
        try:
            mesh_vals = tuple(Fraction(str(v)) for v in mesh)
        except (ValueError, ZeroDivisionError) as exc:
            raise ConfigError(f"{cfg._at('mesh')!r}: {exc}") from None
    targets = []
    for i, t in enumerate(cfg.get("targets", list, [])):
        if not isinstance(t, list):
            raise ConfigError(f"{cfg._at('targets')}[{i}] must be an array")
        targets.append(tuple(_parse_complex(c, f"{cfg._at('targets')}[{i}][{j}]")
                             for j, c in enumerate(t)))
    dim_cap = cfg.get("dimCap", int, None, minimum=1)
    p = _parse_norm(cfg.raw("norm", 2), cfg._at("norm"))
    min_levels = cfg.get("minLevels", int, 0, minimum=0)
    return pr.build_operator(fold_n, mesh_vals, targets, dim_cap, p, min_levels)


def vector_from(cfg: Cfg, op: pr.PerturbedRotation) -> opcore.Vec:
    kind = cfg.get("kind", str)
    if kind == "basis":
        cfg.allow("kind", "index")
        return opcore.basis_vec(cfg.get("index", int, minimum=1), op.dim_cap, op.p)
    if kind == "dyadic-comb":
        cfg.allow("kind")
        return opcore.dyadic_comb(op.dim_cap, op.p)
    if kind == "entries":
        cfg.allow("kind", "values")
        vals = [_parse_complex(v, f"{cfg._at('values')}[{i}]")
                for i, v in enumerate(cfg.get("values", list))]
        return opcore.vec_of(vals, op.dim_cap, op.p)
    raise ConfigError(f"{cfg._at('kind')!r}: unknown vector kind {kind!r}")


def _normalized(x: opcore.Vec) -> opcore.Vec:
    n = x.norm()
    if n == 0:
        raise ConfigError("cannot normalize the zero vector")
    return opcore.Vec(x.coords / n, x.p)


# ---------------------------------------------------------------------------
# output plumbing

def _frac_str(q: Fraction) -> str:
    return f"{q.numerator}/{q.denominator}"


class Sink:
    def __init__(self, out_dir: str, formats: Sequence[str]) -> None:
        self.out_dir = out_dir
        self.formats = tuple(formats)
        os.makedirs(out_dir, exist_ok=True)

    def want(self, fmt: str) -> bool:
        return fmt in self.formats

    def _write(self, fmt: str, name: str, writer, *content) -> None:
        if self.want(fmt):
            writer(os.path.join(self.out_dir, name), *content)

    def json(self, name: str, record: dict) -> None:
        self._write("json", name, report.write_json, record)

    def csv(self, name: str, header, rows) -> None:
        self._write("csv", name, report.write_csv, header, rows)

    def svg(self, name: str, text: str) -> None:
        self._write("svg", name, report.write_svg, text)


def _horizon_window(cfg: Cfg) -> tuple[int, int]:
    """Horizon, and the density window that defaults to a tenth of it."""
    horizon = cfg.get("horizon", int, minimum=0)
    return horizon, cfg.get("window", int, max(1, horizon // 10), minimum=1)


# ---------------------------------------------------------------------------
# subcommands

def cmd_families(cfg: Cfg, sink: Sink) -> int:
    """materialize a set family and profile it"""
    cfg.allow("family", "horizon", "window")
    horizon, window = _horizon_window(cfg)
    a = family_set(cfg.sub("family"), horizon)
    prof = natset.density_profile(a, window)
    payload = {"set": a.to_json_dict(), "density": prof.to_json_dict()}
    sink.json("family-report.json", report.make_record("family", cfg.data, payload))
    sink.csv("family-elements.csv", ["element"], [[e] for e in a.elements])
    if sink.want("svg"):
        # only the points the plot keeps, so the cost does not grow with the horizon
        ns = range(1, horizon + 1, report.plot_stride(horizon))
        xs = [float(n) for n in ns]
        ys = [a.count_in(1, n) / n for n in ns]
        sink.svg("family-density.svg", report.line_plot_svg(
            "Prefix density", "N", "count([1,N]) / N", [("density", xs, ys)]))
    print(f"family horizon={horizon} size={len(a)} "
          f"upperBanach={_frac_str(prof.upper_banach)} "
          f"lowerBanach={_frac_str(prof.lower_banach)}")
    return 0


def cmd_construct(cfg: Cfg, sink: Sink) -> int:
    """build the operator and dump its anatomy"""
    cfg.allow("operator")
    op = operator_from(cfg.sub("operator"))
    desc = op.descriptor()
    h = report.descriptor_hash(desc)
    ladder = [{"level": k, "modulus": str(op.modulus.m(k))}
              for k in range(1, op.levels + 1)]
    grid_rows = [{"level": e.level, "mesh": e.mesh,
                  "alpha": [[c.real, c.imag] for c in e.alpha]}
                 for e in op.grid.entries]
    certs = [{"j": j, "bound": _frac_str(op.modulus.coupling_sum(j))}
             for j in range(op.head, min(op.levels - 1, op.head + 6) + 1)]
    payload = {"descriptor": desc, "descriptorHash": h, "ladder": ladder,
               "grid": grid_rows, "couplingBounds": certs,
               "normEquivUpper": op.norm_equiv_upper()}
    sink.json("operator.json", report.make_record("construct", cfg.data, payload))
    sink.csv("grid.csv", ["level", "mesh", "coefficients"],
             [[e.level, e.mesh,
               ";".join(f"{c.real:+.12g}{c.imag:+.12g}j" for c in e.alpha)]
              for e in op.grid.entries])
    print(f"operator foldN={op.fold_n} levels={op.levels} dimCap={op.dim_cap} "
          f"hash={h[:12]}")
    return 0


def cmd_rigidity(cfg: Cfg, sink: Sink) -> int:
    """rotation return defects along the ladder"""
    cfg.allow("operator", "jMax", "samples")
    op = operator_from(cfg.sub("operator"))
    j_max = cfg.get("jMax", int, op.levels - 1, minimum=1)
    if j_max > op.levels - 1:
        raise ConfigError(f"jMax must be <= levels - 1 = {op.levels - 1}")
    if cfg.has("samples"):
        samples = [_normalized(vector_from(s, op)) for s in cfg.subs("samples")]
    else:
        samples = op.head_basis() + [_normalized(opcore.dyadic_comb(op.dim_cap, op.p))]
    rows = []
    worst = 0.0
    all_within = True
    for j in range(1, j_max + 1):
        r = pr.rigidity_defect(op, j, samples)
        worst = max(worst, r.defect)
        if r.defect > r.bound + 1e-12:
            all_within = False
        rows.append(r)
    payload = {"jMax": j_max, "samples": len(samples), "allWithinBound": all_within,
               "points": [{"j": r.level, "returnTime": str(op.modulus.m(r.level)),
                           "defect": r.defect, "bound": r.bound,
                           "boundExact": _frac_str(r.bound_exact)} for r in rows]}
    sink.json("rigidity.json", report.make_record("rigidity", cfg.data, payload))
    sink.csv("rigidity.csv", ["j", "returnTime", "defect", "bound", "boundExact"],
             [[r.level, str(op.modulus.m(r.level)), repr(r.defect), repr(r.bound),
               _frac_str(r.bound_exact)] for r in rows])
    if sink.want("svg"):
        js = [float(r.level) for r in rows]
        sink.svg("rigidity.svg", report.line_plot_svg(
            "Rotation return defect", "j", "norm defect at time m_j",
            [("defect", js, [max(r.defect, 1e-17) for r in rows]),
             ("bound", js, [max(r.bound, 1e-17) for r in rows])], log_y=True))
    print(f"rigidity jMax={j_max} worstDefect={worst:.6g} allWithinBound={all_within}")
    return 0


def cmd_orbit(cfg: Cfg, sink: Sink) -> int:
    """return set and density profile of one vector"""
    cfg.allow("operator", "vector", "eps", "horizon", "window")
    op = operator_from(cfg.sub("operator"))
    x = vector_from(cfg.sub("vector"), op)
    eps = cfg.get("eps", float)
    horizon, window = _horizon_window(cfg)
    hits, ds = dynamics.orbit_returns(op, x, eps, horizon)
    prof = natset.density_profile(hits, window)
    payload = {"eps": eps, "returnSet": hits.to_json_dict(),
               "density": prof.to_json_dict(),
               "descriptorHash": report.descriptor_hash(op.descriptor())}
    sink.json("orbit.json", report.make_record("orbit", cfg.data, payload))
    if sink.want("csv") or sink.want("svg"):
        ns = range(horizon + 1)
        sink.csv("orbit.csv", ["n", "displacement"],
                 [[n, repr(d)] for n, d in zip(ns, ds)])
        sink.svg("orbit.svg", report.line_plot_svg(
            "Orbit displacement", "n", "distance from start",
            [("displacement", [float(n) for n in ns], ds),
             ("eps", [0.0, float(horizon)], [eps, eps])]))
    print(f"orbit eps={eps:g} horizon={horizon} returns={len(hits)} "
          f"upperBanach={_frac_str(prof.upper_banach)}")
    return 0


def cmd_qr_search(cfg: Cfg, sink: Sink) -> int:
    """greedy shrinking-defect return time search"""
    cfg.allow("operator", "rotationOnly", "epsSchedule", "samples", "maxLevel",
              "multipliers", "neighbors", "scanHead")
    op = operator_from(cfg.sub("operator"))
    rotation_only = cfg.get("rotationOnly", bool, False)
    schedule = cfg.items("epsSchedule", float)
    max_level = cfg.get("maxLevel", int, op.levels, minimum=1)
    multipliers = cfg.items("multipliers", int, [1], minimum=1)
    neighbors = cfg.get("neighbors", bool, False)
    scan_head = cfg.get("scanHead", int, 0, minimum=0)
    candidates = pr.lattice_candidates(op.modulus, max_level,
                                       tuple(multipliers), neighbors, scan_head)
    if cfg.has("samples"):
        samples = [vector_from(s, op) for s in cfg.subs("samples")]
    else:
        samples = op.head_basis()
    target = op.rotation_part() if rotation_only else op
    result = dynamics.quasi_rigidity_search(target, samples, schedule, candidates)
    if isinstance(result, dynamics.QrWitness):
        payload = {"found": True,
                   "times": [str(t) for t in result.times],
                   "defects": list(result.defects)}
        line = (f"qr found steps={len(result.times)} "
                f"times={[str(t) for t in result.times]}")
    else:
        payload = {"found": False, "step": result.step, "eps": result.eps,
                   "bestDefect": result.best_defect, "bestTime": str(result.best_time),
                   "floor": result.floor, "certified": result.certified}
        line = (f"qr failed step={result.step} eps={result.eps:g} "
                f"bestDefect={result.best_defect:.6g} certified={result.certified}")
    payload["rotationOnly"] = rotation_only
    payload["candidates"] = len(candidates)
    sink.json("qr-search.json", report.make_record("qr-search", cfg.data, payload))
    print(line)
    return 0


def cmd_period(cfg: Cfg, sink: Sink) -> int:
    """density threshold period classification"""
    cfg.allow("family", "horizon", "window", "delta")
    horizon, window = _horizon_window(cfg)
    delta = cfg.get("delta", float)
    a = family_set(cfg.sub("family"), horizon)
    cls = dynamics.classify_period_by_density(a, window, delta)
    exact = dynamics.detect_period(a)
    payload = {"classification": cls.to_json_dict(), "exactPeriod": exact}
    sink.json("period.json", report.make_record("period", cfg.data, payload))
    print(f"period dense={cls.dense} bound={cls.bound} period={cls.period} "
          f"exact={exact}")
    return 0


def cmd_krylov(cfg: Cfg, sink: Sink) -> int:
    """orbit span rank growth"""
    cfg.allow("operator", "vector", "depth", "depths")
    op = operator_from(cfg.sub("operator"))
    x = vector_from(cfg.sub("vector"), op)
    if cfg.has("depths"):
        depths = cfg.items("depths", int, minimum=1)
        if not depths:
            raise ConfigError(f"{cfg._at('depths')!r} must not be empty")
    else:
        top = cfg.get("depth", int, min(op.dim_cap, 64), minimum=1)
        depths = sorted({min(1 << i, top) for i in range(top.bit_length() + 1)})
    ranks = [opcore.krylov_rank(op, x, d) for d in depths]
    payload = {"depths": depths, "ranks": ranks}
    sink.json("krylov.json", report.make_record("krylov", cfg.data, payload))
    sink.csv("krylov.csv", ["depth", "rank"], list(zip(depths, ranks)))
    if sink.want("svg"):
        sink.svg("krylov.svg", report.line_plot_svg(
            "Orbit span growth", "depth", "rank",
            [("rank", [float(d) for d in depths], [float(r) for r in ranks])]))
    print(f"krylov depth={depths[-1]} rank={ranks[-1]}")
    return 0


# ---------------------------------------------------------------------------
# entry point

_COMMANDS = {
    "families": cmd_families,
    "construct": cmd_construct,
    "rigidity": cmd_rigidity,
    "orbit": cmd_orbit,
    "qr-search": cmd_qr_search,
    "period": cmd_period,
    "krylov": cmd_krylov,
}


class _Parser(argparse.ArgumentParser):
    # usage mistakes are configuration errors, so exit 1 rather than
    # argparse's default 2 (reserved for internal failures)
    def error(self, message: str) -> None:
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(1)


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The parser, built once per process: parsing leaves no state on it."""
    top = _Parser(
        prog="recurlab",
        description="Return-time experiments on truncated sequence space operators.")
    sub = top.add_subparsers(dest="command", required=True)
    for name, command in _COMMANDS.items():
        p = sub.add_parser(name, help=command.__doc__)
        p.add_argument("--config", required=True, help="JSON config file")
        p.add_argument("--out-dir", default=".", help="directory for report files")
        p.add_argument("--format", action="append", choices=["json", "csv", "svg"],
                       help="output format, repeatable (default: json)")
    return top


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        with open(args.config, "r", encoding="utf-8") as f:
            data = json.load(f, parse_float=_finite, parse_constant=_finite)
    except OSError as exc:
        print(f"error: cannot read config: {exc}", file=sys.stderr)
        return 1
    except json.JSONDecodeError as exc:
        print(f"error: config is not valid JSON: {exc}", file=sys.stderr)
        return 1
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    formats = args.format if args.format else ["json"]
    sink = Sink(args.out_dir, formats)
    try:
        cfg = Cfg(data)
        return _COMMANDS[args.command](cfg, sink)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (natset.NatSetError, opcore.OpcoreError, pr.ConstructionError,
            pr.GridResolutionError, dynamics.DynamicsError, OverflowError) as exc:
        # the libraries raise these only on rejected input values, so the
        # configuration is still at fault
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except Exception as exc:
        # anything unanticipated is our bug, not the user's
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
