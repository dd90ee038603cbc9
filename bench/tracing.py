"""Spans and counters around recurlab's public functions, for traced passes only.

`Tracer.install` replaces every public function of the six modules, and the
listed public methods of their classes, with a wrapper that records a span
(name, layer, start, end, parent) and feeds a few counters.  A function is
patched under every name that refers to it in any recurlab module, so calls
through a `from ... import` binding (dynamics calling its own
`density_profile`) are caught as well as calls through module attributes
(the CLI).  `uninstall` puts the originals back, so untraced passes run the
program untouched.  Names the program no longer has are skipped; their
metrics then read 0.

The per-layer metrics are computed from the spans of one pass.  Self time of
a span is its duration minus the durations of its direct children.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import os
import time
from collections import Counter

LAYERS = ("perturbed_rotation", "opcore", "dynamics", "natset", "report", "cli")

# Vector helpers called once per time inside the probes' loops; they are not
# wrapped, so their cost stays in the self time of the probe that loops.
HELPERS = {"opcore": ("zero_vec", "basis_vec", "vec_of", "distance")}

# public methods that do a layer's work; per-coordinate accessors such as
# ModulusLadder.m or Vec.norm are left alone for the same reason
METHODS = {
    "perturbed_rotation": {
        "PerturbedRotation": ("power", "apply", "phase_sum", "rotation_power_distance",
                              "rotation_part", "descriptor"),
        "ModulusLadder": ("cert_bound", "coupling_sum"),
    },
    "opcore": {cls: ("power", "apply") for cls in
               ("Diagonal", "WeightedBackwardShift", "BlockPermutationIsometry")},
    "natset": {
        **{cls: ("materialize",) for cls in
           ("Explicit", "ArithmeticProgression", "Multiples", "IpClosure", "DeltaOf",
            "RotationReturn", "UnionOf", "IntersectionOf")},
        "NatSet": ("union", "intersection", "restrict"),
        "DensityReport": ("max_ap_length", "to_json_dict"),
    },
}

PR_POWER = "perturbed_rotation.PerturbedRotation.power"
OPCORE_POWER = tuple(f"opcore.{cls}.power" for cls in METHODS["opcore"])
MATERIALIZE = tuple(f"natset.{cls}.materialize" for cls in METHODS["natset"]
                    if "materialize" in METHODS["natset"][cls]) + (
    "natset.materialize", "natset.NatSet.union", "natset.NatSet.intersection")
WRITES = ("report.write_json", "report.write_csv", "report.write_svg",
          "report.atomic_write_text")

# (name, unit) of every per-layer metric, in print order
UNITS = (
    ("perturbed_rotation.build_ms", "ms"),
    ("perturbed_rotation.power_calls", "count"),
    ("perturbed_rotation.power_s", "s"),
    ("perturbed_rotation.power_us", "us/call"),
    ("perturbed_rotation.scan_s", "s"),
    ("perturbed_rotation.scan_times", "count"),
    ("opcore.power_calls", "count"),
    ("opcore.power_s", "s"),
    ("opcore.krylov_s", "s"),
    ("dynamics.self_s", "s"),
    ("dynamics.unique_time_ratio", "ratio"),
    ("natset.materialize_s", "s"),
    ("natset.density_profile_s", "s"),
    ("natset.max_ap_s", "s"),
    ("natset.horizon_points", "count"),
    ("natset.elements", "count"),
    ("report.write_s", "s"),
    ("report.svg_s", "s"),
    ("report.bytes", "bytes"),
    ("cli.self_s", "s"),
)

# span fields
NAME, LAYER, START, END, PARENT = range(5)


class Tracer:
    def __init__(self) -> None:
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.counters: Counter = Counter()
        self._power_keys: set = set()
        self._live: dict = {}       # id -> object, so ids are not reused in a pass
        self._reports: dict = {}    # id(DensityReport) -> |A|, until max_ap is read
        self._patches: list = []
        self._hooks = {
            PR_POWER: self._on_power,
            **{name: self._on_power for name in OPCORE_POWER},
            "perturbed_rotation.non_recurrence_scan": self._on_scan,
            "natset.density_profile": self._on_density,
            "natset.DensityReport.max_ap_length": self._on_max_ap,
            **{name: self._on_write for name in WRITES[:3]},
        }

    # -- counters -------------------------------------------------------------

    def _on_power(self, args, result) -> None:
        op, n, x = args[0], args[1], args[2]
        self._live[id(op)] = op
        self._power_keys.add((id(op), int(n), hash(x.coords.tobytes()), x.p))

    def _on_scan(self, args, result) -> None:
        self.counters["scan_times"] += result.evaluated

    def _on_density(self, args, result) -> None:
        self.counters["horizon_points"] += args[0].horizon + 1
        self._live[id(result)] = result
        self._reports[id(result)] = len(args[0])

    def _on_max_ap(self, args, result) -> None:
        self.counters["elements"] += self._reports.pop(id(args[0]), 0)

    def _on_write(self, args, result) -> None:
        self.counters["bytes"] += os.path.getsize(args[0])

    # -- wrapping -------------------------------------------------------------

    def _wrap(self, fn, name: str, layer: str):
        spans, stack = self.spans, self.stack
        hook = self._hooks.get(name)
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, layer, 0.0, 0.0, stack[-1] if stack else -1]
            stack.append(len(spans))
            spans.append(span)
            span[START] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[END] = clock()
                stack.pop()
            if hook is not None:
                hook(args, result)
            return result

        return traced

    def _patch(self, owner, attr: str, new) -> None:
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, new)

    def install(self) -> None:
        modules = {layer: importlib.import_module(f"recurlab.{layer}") for layer in LAYERS}
        namespaces = [importlib.import_module("recurlab"), *modules.values()]
        for layer, mod in modules.items():
            for attr, fn in list(vars(mod).items()):
                if (attr.startswith("_") or not inspect.isfunction(fn)
                        or fn.__module__ != mod.__name__ or attr in HELPERS.get(layer, ())):
                    continue
                wrapped = self._wrap(fn, f"{layer}.{attr}", layer)
                for ns in namespaces:
                    for alias, val in list(vars(ns).items()):
                        if val is fn:
                            self._patch(ns, alias, wrapped)
            for cls_name, methods in METHODS.get(layer, {}).items():
                cls = getattr(mod, cls_name, None)
                for meth in methods:
                    if cls is None or meth not in cls.__dict__:
                        continue
                    orig = cls.__dict__[meth]
                    name = f"{layer}.{cls_name}.{meth}"
                    if isinstance(orig, property):
                        new = property(self._wrap(orig.fget, name, layer))
                    else:
                        new = self._wrap(orig, name, layer)
                    self._patch(cls, meth, new)

    def uninstall(self) -> None:
        for owner, attr, orig in reversed(self._patches):
            setattr(owner, attr, orig)
        self._patches.clear()

    def reset(self) -> None:
        self.spans.clear()
        self.stack.clear()
        self.counters.clear()
        self._power_keys.clear()
        self._live.clear()
        self._reports.clear()

    # -- metrics --------------------------------------------------------------

    def _outermost(self, names) -> list[list]:
        """Spans named in `names` that have no ancestor named in `names`."""
        names = set(names)
        spans = self.spans
        out = []
        for s in spans:
            if s[NAME] not in names:
                continue
            p = s[PARENT]
            while p >= 0 and spans[p][NAME] not in names:
                p = spans[p][PARENT]
            if p < 0:
                out.append(s)
        return out

    def _total(self, *names) -> float:
        return sum((s[END] - s[START] for s in self._outermost(names)), 0.0)

    def _self_time(self, layer: str) -> float:
        child = [0.0] * len(self.spans)
        for s in self.spans:
            if s[PARENT] >= 0:
                child[s[PARENT]] += s[END] - s[START]
        return sum(s[END] - s[START] - c for s, c in zip(self.spans, child)
                   if s[LAYER] == layer)

    def metrics(self) -> dict:
        builds = self._outermost(["perturbed_rotation.build_operator"])
        pr_calls = sum(1 for s in self.spans if s[NAME] == PR_POWER)
        pr_power = self._total(PR_POWER)
        op_calls = sum(1 for s in self.spans if s[NAME] in OPCORE_POWER)
        calls = pr_calls + op_calls
        return {
            "perturbed_rotation.build_ms":
                1e3 * sum(s[END] - s[START] for s in builds) / len(builds) if builds else 0.0,
            "perturbed_rotation.power_calls": pr_calls,
            "perturbed_rotation.power_s": pr_power,
            "perturbed_rotation.power_us": 1e6 * pr_power / pr_calls if pr_calls else 0.0,
            "perturbed_rotation.scan_s": self._total("perturbed_rotation.non_recurrence_scan"),
            "perturbed_rotation.scan_times": self.counters["scan_times"],
            "opcore.power_calls": op_calls,
            "opcore.power_s": self._total(*OPCORE_POWER),
            "opcore.krylov_s": self._total("opcore.krylov_rank"),
            "dynamics.self_s": self._self_time("dynamics"),
            # 1 when no power was evaluated: nothing was evaluated twice
            "dynamics.unique_time_ratio": len(self._power_keys) / calls if calls else 1.0,
            "natset.materialize_s": self._total(*MATERIALIZE),
            "natset.density_profile_s": self._total("natset.density_profile"),
            "natset.max_ap_s": self._total("natset.DensityReport.max_ap_length"),
            "natset.horizon_points": self.counters["horizon_points"],
            "natset.elements": self.counters["elements"],
            "report.write_s": self._total(*WRITES),
            "report.svg_s": self._total("report.line_plot_svg"),
            "report.bytes": self.counters["bytes"],
            "cli.self_s": self._self_time("cli"),
        }
