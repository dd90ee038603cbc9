"""Command line front end.

Seven subcommands share one pattern: read a JSON config, run the
computation, print a one-line summary, and drop deterministic report files
into --out-dir in the formats requested.  The config file is the only
input: no flag sets a config value, and each record's `config` echoes the
file as read.  An omitted optional key takes its documented default (the
window is a tenth of the horizon, at least 1; jMax is levels - 1).  The
whole file is checked against its command's entry in `_FORMS` as it is read:
unknown keys and values of another form are rejected with the full field
path, so typos fail loudly instead of silently running defaults.

Exit codes: 0 success (including honest "not found" outcomes), 1 bad usage,
bad config (non-finite numbers included) or an --out-dir that cannot be
written, 2 internal error.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import json
import math
import os
import sys
from fractions import Fraction
from typing import TYPE_CHECKING, Optional, Sequence

# the operator modules (and numpy) load in the commands that use them
from . import natset, report

if TYPE_CHECKING:
    from . import opcore, perturbed_rotation as pr

_MISSING = object()


class ConfigError(Exception):
    """The config file or the command line is at fault: exit 1."""


NORM = "norm"  # the kind of a norm exponent: a number, or "sup" for the sup norm

# what each kind accepts, with room for its minimum
_KINDS = {int: "an integer{}", float: "a number{}", NORM: 'a number{} or "sup"',
          str: "a string", bool: "true or false", list: "an array",
          complex: "a number or an [re, im] pair of numbers",
          Fraction: 'a number or an exact string such as "1/3"'}


def _typed(value, where: str, kind, minimum=None):
    """`value` as `kind`, or a ConfigError naming `where` and what it accepts.

    Types are JSON's own, so true and false are never numbers.  A float or
    NORM kind accepts ints and returns a float.  A complex is a number or an
    [re, im] pair of numbers.  A Fraction is a number or a string read
    exactly.  A float, NORM, complex or Fraction value must fit a float.
    """
    got = None
    try:
        if kind is NORM and value == "sup":
            from .opcore import SUP
            got = SUP
        elif kind in (float, NORM):
            got = float(value) if type(value) in (int, float) else None
        elif kind is complex:
            parts = value if type(value) is list and len(value) == 2 else [value, 0]
            got = complex(*parts) if all(type(v) in (int, float) for v in parts) else None
        elif kind is Fraction:
            if type(value) in (int, float, str):
                with contextlib.suppress(ValueError, ZeroDivisionError):
                    got = Fraction(str(value))
                    float(got)  # the grid stores each mesh as a float
        elif type(value) is kind:
            got = value
    except OverflowError:
        raise ConfigError(f"{where!r} is too large for a float") from None
    if got is None or minimum is not None and got < minimum:
        at_least = "" if minimum is None else f" >= {minimum}"
        raise ConfigError(f"{where!r} must be {_KINDS[kind].format(at_least)}")
    return got


def _finite(literal: str) -> float:
    """JSON float and constant hook: NaN, Infinity and overflowing literals are refused."""
    v = float(literal)
    if not math.isfinite(v):
        raise ConfigError(f"config holds a non-finite number: {literal}")
    return v


def _load(path: str):
    """The config file as JSON, its non-finite numbers refused."""
    try:
        with open(path, "r", encoding="utf-8") as f:
            return json.load(f, parse_float=_finite, parse_constant=_finite)
    except OSError as exc:
        raise ConfigError(f"cannot read config: {exc}") from None
    except ValueError as exc:  # not JSON, or not UTF-8
        raise ConfigError(f"config is not valid JSON: {exc}") from None


class Tagged:
    """The form of an object whose string `kind` picks the forms of the keys beside it."""

    def __init__(self, noun: str, kinds: dict) -> None:
        self.noun, self.kinds = noun, kinds


def _checked(value, where: str, form):
    """`value` checked against `form`: a kind of `_KINDS`, (kind, minimum), [form] for an
    array of entries of that form, ([form], 1) for one that must not be empty, or a dict
    or Tagged of the forms of an object's keys, which gives a Cfg.  Faults are refused in
    file order.  Nested values wait on a list, not on the call stack, so checking takes
    no stack frame per level of nesting."""
    top: list = [None]
    todo = [(value, where, form, top, 0)]
    while todo:
        value, where, form, into, slot = todo.pop()
        kind, minimum = form if isinstance(form, tuple) else (form, None)
        if isinstance(kind, Cfg):  # a key that the form of its object lacks
            raise ConfigError(f"unknown config key {where!r}; "
                              f"allowed here: {', '.join(sorted(kind.form))}")
        if isinstance(kind, (dict, Tagged)):
            into[slot] = got = Cfg(value, kind, where)
            inner = [(v, got._at(k), got.form.get(k, got), got.values, k)
                     for k, v in value.items()]
        elif not isinstance(kind, list):
            into[slot], inner = _typed(value, where, kind, minimum), []
        elif not (entries := _typed(value, where, list)) and minimum:
            raise ConfigError(f"{where!r} must not be empty")
        elif isinstance(kind[0], (list, tuple, dict, Tagged)):
            into[slot] = got = [None] * len(entries)
            inner = [(v, f"{where}[{i}]", kind[0], got, i) for i, v in enumerate(entries)]
        else:  # entries of a bare kind are checked at once
            into[slot], inner = [_typed(v, f"{where}[{i}]", kind[0])
                                 for i, v in enumerate(entries)], []
        todo += reversed(inner)
    return top[0]


class Cfg:
    """A config object as `_checked` makes it: `form` holds the forms of its keys.

    `get` only looks values up, since `_checked` has checked them all: an
    absent key gives its default as it is, or is an error when there is none.
    """

    def __init__(self, data, form, path: str) -> None:
        if not isinstance(data, dict):
            where = f" at {path!r}" if path else ""
            raise ConfigError(f"config{where} must be a JSON object")
        self.data, self.path, self.values = data, path, {}
        if isinstance(form, Tagged):
            where = self._at("kind")
            kind = _typed(data["kind"], where, str) if "kind" in data else self.get("kind")
            if kind not in form.kinds:
                raise ConfigError(f"{where!r}: unknown {form.noun} kind {kind!r}")
            form = dict(form.kinds[kind], kind=str)
        self.form = form

    def _at(self, key: str) -> str:
        return f"{self.path}.{key}" if self.path else key

    def get(self, key: str, default=_MISSING):
        if key in self.values:
            return self.values[key]
        if default is _MISSING:
            raise ConfigError(f"missing required config key {self._at(key)!r}")
        return default


# ---------------------------------------------------------------------------
# config forms: the keys each object accepts, and the form of each value

_OPERATOR = {"foldN": (int, 1), "mesh": [Fraction], "targets": [[complex]],
             "dimCap": (int, 1), "norm": (NORM, 1), "minLevels": (int, 0)}
_FAMILY = Tagged("family", {})
_FAMILY.kinds.update({
    "explicit": {"members": [int]},
    "progression": {"start": (int, 0), "diff": (int, 1)},
    "multiples": {"p": (int, 1)},
    "ip": {"generators": [int]},
    "rotation-return": {"modulus": (int, 1), "eps": float},
    "delta": {"base": _FAMILY},
    **dict.fromkeys(["union", "intersection"], {"parts": ([_FAMILY], 1)}),
})
_VECTOR = Tagged("vector", {"basis": {"index": (int, 1)}, "dyadic-comb": {},
                            "entries": {"values": [complex]}})
_DENSITY = {"horizon": (int, 1), "window": (int, 1)}
_FORMS = {
    "families": {"family": _FAMILY, **_DENSITY},
    "construct": {"operator": _OPERATOR},
    "rigidity": {"operator": _OPERATOR, "jMax": (int, 1), "samples": ([_VECTOR], 1)},
    "orbit": {"operator": _OPERATOR, "vector": _VECTOR, "eps": float, **_DENSITY},
    "qr-search": {"operator": _OPERATOR, "rotationOnly": bool, "epsSchedule": ([float], 1),
                  "samples": ([_VECTOR], 1), "maxLevel": (int, 1), "multipliers": [(int, 1)],
                  "neighbors": bool, "scanHead": (int, 0)},
    "period": {"family": _FAMILY, "delta": float, **_DENSITY},
    "krylov": {"operator": _OPERATOR, "vector": _VECTOR, "depth": (int, 1),
               "depths": ([(int, 1)], 1)},
}


# ---------------------------------------------------------------------------
# builders from config

def family_set(cfg: Cfg, horizon: int) -> natset.NatSet:
    return _family_generator(cfg, horizon).materialize(horizon)


def _family_generator(cfg: Cfg, horizon: int):
    kind, get = cfg.get("kind"), cfg.get
    if kind == "explicit":
        return natset.Explicit(tuple(get("members")))
    if kind == "progression":
        return natset.ArithmeticProgression(get("start"), get("diff"))
    if kind == "multiples":
        return natset.Multiples(get("p"))
    if kind == "ip":
        return natset.IpClosure(tuple(get("generators")))
    if kind == "rotation-return":
        return natset.RotationReturn(get("modulus"), get("eps"))
    if kind == "delta":
        return natset.DeltaOf(_family_generator(get("base"), horizon).materialize(horizon))
    parts = tuple(_family_generator(p, horizon) for p in get("parts"))
    return natset.UnionOf(parts) if kind == "union" else natset.IntersectionOf(parts)


def operator_from(cfg: Cfg) -> pr.PerturbedRotation:
    from . import perturbed_rotation as pr
    get = cfg.get
    return pr.build_operator(get("foldN"), get("mesh", pr.DEFAULT_MESH), get("targets", []),
                             get("dimCap", None), get("norm", 2.0), get("minLevels", 0))


def vector_from(cfg: Cfg, op: pr.PerturbedRotation) -> opcore.Vec:
    from . import opcore
    kind = cfg.get("kind")
    if kind == "basis":
        return opcore.basis_vec(cfg.get("index"), op.dim_cap, op.p)
    if kind == "entries":
        return opcore.vec_of(cfg.get("values"), op.dim_cap, op.p)
    return opcore.dyadic_comb(op.dim_cap, op.p)


def _normalized(x: opcore.Vec) -> opcore.Vec:
    from .opcore import Vec
    n = x.norm()
    if n == 0:
        raise ConfigError("cannot normalize the zero vector")
    return Vec(x.coords / n, x.p)


# ---------------------------------------------------------------------------
# output plumbing

def _frac_str(q: Fraction) -> str:
    return f"{q.numerator}/{q.denominator}"


class Sink:
    def __init__(self, out_dir: str, formats: Sequence[str]) -> None:
        self.out_dir = out_dir
        self.formats = tuple(formats)

    def want(self, fmt: str) -> bool:
        return fmt in self.formats

    def write(self, name: str, *content) -> None:
        """`content` written to `name` by the report writer of its extension, if wanted."""
        fmt = name.rsplit(".", 1)[1]
        if self.want(fmt):
            try:  # on the first write, so a rejected config leaves no directory behind
                os.makedirs(self.out_dir, exist_ok=True)
            except OSError as exc:
                raise ConfigError(f"cannot create output directory {self.out_dir!r}: "
                                  f"{exc.strerror}") from None
            path = os.path.join(self.out_dir, name)
            try:
                getattr(report, f"write_{fmt}")(path, *content)
            except OSError as exc:
                raise ConfigError(f"cannot write {path!r}: {exc.strerror}") from None


def _horizon_window(cfg: Cfg) -> tuple[int, int]:
    """Horizon, and the density window that defaults to a tenth of it."""
    horizon = cfg.get("horizon")
    return horizon, cfg.get("window", max(1, horizon // 10))


# ---------------------------------------------------------------------------
# subcommands

def cmd_families(cfg: Cfg, sink: Sink) -> int:
    """materialize a set family and profile it"""
    horizon, window = _horizon_window(cfg)
    a = family_set(cfg.get("family"), horizon)
    prof = natset.density_profile(a, window)
    payload = {"set": a.to_json_dict(), "density": prof.to_json_dict()}
    sink.write("family-report.json", report.make_record("family", cfg.data, payload))
    sink.write("family-elements.csv", ["element"], [[e] for e in a.elements])
    if sink.want("svg"):
        # only the points the plot keeps, so the cost does not grow with the horizon
        ns = range(1, horizon + 1, report.plot_stride(horizon))
        xs = [float(n) for n in ns]
        ys = [a.count_in(1, n) / n for n in ns]
        sink.write("family-density.svg", report.line_plot_svg(
            "Prefix density", "N", "count([1,N]) / N", [("density", xs, ys)]))
    print(f"family horizon={horizon} size={len(a)} "
          f"upperBanach={_frac_str(prof.upper_banach)} "
          f"lowerBanach={_frac_str(prof.lower_banach)}")
    return 0


def cmd_construct(cfg: Cfg, sink: Sink) -> int:
    """build the operator and dump its anatomy"""
    op = operator_from(cfg.get("operator"))
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
    sink.write("operator.json", report.make_record("construct", cfg.data, payload))
    sink.write("grid.csv", ["level", "mesh", "coefficients"],
               [[e.level, e.mesh,
                 ";".join(f"{c.real:+.12g}{c.imag:+.12g}j" for c in e.alpha)]
                for e in op.grid.entries])
    print(f"operator foldN={op.fold_n} levels={op.levels} dimCap={op.dim_cap} "
          f"hash={h[:12]}")
    return 0


def cmd_rigidity(cfg: Cfg, sink: Sink) -> int:
    """rotation return defects along the ladder"""
    from . import opcore, perturbed_rotation as pr
    op = operator_from(cfg.get("operator"))
    j_max = cfg.get("jMax", op.levels - 1)
    if j_max > op.levels - 1:
        raise ConfigError(f"'jMax' must be <= levels - 1 = {op.levels - 1}")
    samples = cfg.get("samples", None)
    samples = (op.head_basis() + [_normalized(opcore.dyadic_comb(op.dim_cap, op.p))]
               if samples is None else [_normalized(vector_from(s, op)) for s in samples])
    rows = pr.rigidity_defects(op, range(1, j_max + 1), samples)
    worst = max([0.0] + [r.defect for r in rows])
    all_within = not any(r.defect > r.bound + 1e-12 for r in rows)
    payload = {"jMax": j_max, "samples": len(samples), "allWithinBound": all_within,
               "points": [{"j": r.level, "returnTime": str(op.modulus.m(r.level)),
                           "defect": r.defect, "bound": r.bound,
                           "boundExact": _frac_str(r.bound_exact)} for r in rows]}
    sink.write("rigidity.json", report.make_record("rigidity", cfg.data, payload))
    sink.write("rigidity.csv", ["j", "returnTime", "defect", "bound", "boundExact"],
               [[r.level, str(op.modulus.m(r.level)), repr(r.defect), repr(r.bound),
                 _frac_str(r.bound_exact)] for r in rows])
    if sink.want("svg"):
        js = [float(r.level) for r in rows]
        sink.write("rigidity.svg", report.line_plot_svg(
            "Rotation return defect", "j", "norm defect at time m_j",
            [("defect", js, [max(r.defect, 1e-17) for r in rows]),
             ("bound", js, [max(r.bound, 1e-17) for r in rows])], log_y=True))
    print(f"rigidity jMax={j_max} worstDefect={worst:.6g} allWithinBound={all_within}")
    return 0


def cmd_orbit(cfg: Cfg, sink: Sink) -> int:
    """return set and density profile of one vector"""
    from . import dynamics
    op = operator_from(cfg.get("operator"))
    x = vector_from(cfg.get("vector"), op)
    eps = cfg.get("eps")
    horizon, window = _horizon_window(cfg)
    hits, ds = dynamics.orbit_returns(op, x, eps, horizon)
    prof = natset.density_profile(hits, window)
    payload = {"eps": eps, "returnSet": hits.to_json_dict(),
               "density": prof.to_json_dict(),
               "descriptorHash": report.descriptor_hash(op.descriptor())}
    sink.write("orbit.json", report.make_record("orbit", cfg.data, payload))
    if sink.want("csv") or sink.want("svg"):
        ns = range(horizon + 1)
        sink.write("orbit.csv", ["n", "displacement"], zip(ns, ds))
        sink.write("orbit.svg", report.line_plot_svg(
            "Orbit displacement", "n", "distance from start",
            [("displacement", [float(n) for n in ns], ds),
             ("eps", [0.0, float(horizon)], [eps, eps])]))
    print(f"orbit eps={eps:g} horizon={horizon} returns={len(hits)} "
          f"upperBanach={_frac_str(prof.upper_banach)}")
    return 0


def cmd_qr_search(cfg: Cfg, sink: Sink) -> int:
    """greedy shrinking-defect return time search"""
    from . import dynamics, perturbed_rotation as pr
    op = operator_from(cfg.get("operator"))
    rotation_only = cfg.get("rotationOnly", False)
    schedule = cfg.get("epsSchedule")
    max_level = cfg.get("maxLevel", op.levels)
    if max_level > op.levels:
        raise ConfigError(f"'maxLevel' must be <= levels = {op.levels}")
    candidates = pr.lattice_candidates(op.modulus, max_level,
                                       tuple(cfg.get("multipliers", [1])),
                                       cfg.get("neighbors", False), cfg.get("scanHead", 0))
    samples = cfg.get("samples", None)
    samples = op.head_basis() if samples is None else [vector_from(s, op) for s in samples]
    target = op.rotation_part() if rotation_only else op
    result = dynamics.quasi_rigidity_search(target, samples, schedule, candidates)
    if isinstance(result, dynamics.QrWitness):
        payload = {"found": True,
                   "times": [str(t) for t in result.times],
                   "defects": list(result.defects)}
        line = (f"qr found steps={len(result.times)} "
                f"times={[str(t) for t in result.times]}")
    else:
        best = None if result.best_time is None else str(result.best_time)
        payload = {"found": False, "step": result.step, "eps": result.eps,
                   "bestDefect": result.best_defect, "bestTime": best,
                   "floor": result.floor, "certified": result.certified}
        line = (f"qr failed step={result.step} eps={result.eps:g} bestDefect="
                f"{best and format(result.best_defect, '.6g')} certified={result.certified}")
    payload["rotationOnly"] = rotation_only
    payload["candidates"] = len(candidates)
    sink.write("qr-search.json", report.make_record("qr-search", cfg.data, payload))
    print(line)
    return 0


def cmd_period(cfg: Cfg, sink: Sink) -> int:
    """density threshold period classification"""
    horizon, window = _horizon_window(cfg)
    delta = cfg.get("delta")
    a = family_set(cfg.get("family"), horizon)
    cls = natset.classify_period_by_density(a, window, delta)
    exact = natset.detect_period(a)
    payload = {"classification": cls.to_json_dict(), "exactPeriod": exact}
    sink.write("period.json", report.make_record("period", cfg.data, payload))
    print(f"period dense={cls.dense} bound={cls.bound} period={cls.period} "
          f"exact={exact}")
    return 0


def cmd_krylov(cfg: Cfg, sink: Sink) -> int:
    """orbit span rank growth"""
    from . import opcore
    if {"depth", "depths"} <= cfg.data.keys():
        raise ConfigError("'depth' and 'depths' cannot both be set")
    op = operator_from(cfg.get("operator"))
    x = vector_from(cfg.get("vector"), op)
    if (depths := cfg.get("depths", None)) is None:
        top = cfg.get("depth", min(op.dim_cap, 64))
        depths = sorted({min(1 << i, top) for i in range(top.bit_length() + 1)})
    ranks = [opcore.krylov_rank(op, x, d) for d in depths]
    payload = {"depths": depths, "ranks": ranks}
    sink.write("krylov.json", report.make_record("krylov", cfg.data, payload))
    sink.write("krylov.csv", ["depth", "rank"], list(zip(depths, ranks)))
    if sink.want("svg"):
        sink.write("krylov.svg", report.line_plot_svg(
            "Orbit span growth", "depth", "rank",
            [("rank", [float(d) for d in depths], [float(r) for r in ranks])]))
    print(f"krylov depth={depths[-1]} rank={ranks[-1]}")
    return 0


# ---------------------------------------------------------------------------
# entry point

_COMMANDS = {f.__name__[4:].replace("_", "-"): f for f in (
    cmd_families, cmd_construct, cmd_rigidity, cmd_orbit, cmd_qr_search, cmd_period, cmd_krylov)}


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
    args = _build_parser().parse_args(argv)
    try:
        cfg = _checked(_load(args.config), "", _FORMS[args.command])
        return _COMMANDS[args.command](cfg, Sink(args.out_dir, args.format or ["json"]))
    except (ConfigError, natset.RecurlabError, OverflowError) as exc:
        # the libraries raise these only on rejected input values, so the
        # configuration is still at fault
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except RecursionError:
        # only the JSON decoder, the family builder and the record writer recurse, each
        # along the nesting of the config, so it is nested past their reach
        print("error: config is nested too deeply", file=sys.stderr)
        return 1
    except Exception as exc:
        # anything unanticipated is our bug, not the user's
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
