"""Benchmark of recurlab: one workload, one seed, a closed loop of passes.

    python3 bench/run.py --workload orbit-sweep --seed 1 --seconds 20 --trace 0

Run from the root of a source checkout; the program is imported from its
`src/` directory.  One process, one Python thread, BLAS pinned to one
thread.  The workload's operations run back to back in passes, each
operation starting when the previous one has finished, until `--seconds`
have gone by (at least two passes).  The first pass is checked against
the references in `oracles.py`; every later pass must reproduce it
exactly, file bytes included.

With `--trace 0` the last line of standard output is a JSON object with the
end-to-end metrics; with `--trace 1` passes alternate untraced and traced,
and the object holds the per-layer metrics of the traced passes plus the
tracing overhead.  See README.md in this directory.
"""

import os

# before numpy is imported anywhere, here or in a set-up child process
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import gc
import json
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import inputs

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
SETUP_SAMPLES = 7
MIN_PASSES = 2

END_TO_END_UNITS = {"setup_s": "s", "run_s": "s", "op_p50_ms": "ms",
                    "times_per_s": "times/s", "peak_rss_mb": "MB"}


def timed_setup(workload: str, seed: int, workdir: str):
    """Import recurlab, generate the inputs and write the configs; (seconds, specs)."""
    t0 = time.perf_counter()
    import recurlab  # noqa: F401  (the import is what is being timed)
    specs = inputs.build(workload, seed, workdir)
    return time.perf_counter() - t0, specs


def child_setup(workload: str, seed: int, workdir: str) -> None:
    """Entry point of a set-up sample in a fresh interpreter."""
    seconds, _ = timed_setup(workload, seed, workdir)
    print(repr(seconds))


def setup_sample(workload: str, seed: int, workdir: Path) -> float:
    code = ("import sys; sys.path[:0] = [{src!r}, {bench!r}]; import run; "
            "run.child_setup({w!r}, {s!r}, {d!r})").format(
        src=str(SRC), bench=str(BENCH), w=workload, s=seed, d=str(workdir))
    done = subprocess.run([sys.executable, "-c", code], cwd=ROOT, capture_output=True,
                          text=True, timeout=120, check=True)
    return float(done.stdout.strip().splitlines()[-1])


class Loop:
    """Closed-loop passes over the workload's operations, with their checks."""

    def __init__(self, ops, trace: bool) -> None:
        self.ops = ops
        self.trace = trace
        self.reference: dict = {}
        self.correct = True
        self.attempted = 0
        self.failed = 0
        self.passes: list[dict] = []

    def _complain(self, message: str) -> None:
        self.correct = False
        print(f"check failed: {message}", file=sys.stderr)

    def one_pass(self, tracer) -> None:
        from oracles import CheckError
        for op in self.ops:
            op.prepare()
        gc.collect()
        if tracer is not None:
            tracer.install()
        raws, op_times = [], []
        try:
            t_pass = time.perf_counter()
            for op in self.ops:
                t0 = time.perf_counter()
                raws.append(op.run())
                op_times.append(time.perf_counter() - t0)
            duration = time.perf_counter() - t_pass
        finally:
            if tracer is not None:
                tracer.uninstall()
        layers = None
        if tracer is not None:
            layers = tracer.metrics()
            tracer.reset()
        first = not self.passes
        for op, raw in zip(self.ops, raws):
            ok, value = op.collect(raw)
            self.attempted += 1
            if not ok:
                self.failed += 1
                if first:
                    detail = value["stderr"].strip() if isinstance(value, dict) else value
                    print(f"operation failed: {op.name}: {detail}", file=sys.stderr)
            if first:
                self.reference[op.name] = (ok, value)
                if ok:
                    try:
                        op.check(value)
                    except CheckError as exc:
                        self._complain(f"{op.name}: {exc}")
            elif self.reference[op.name] != (ok, value):
                self._complain(f"{op.name}: pass {len(self.passes) + 1} differs from pass 1")
        self.passes.append({"duration": duration, "op_times": op_times, "layers": layers})

    def run(self, seconds: float, tracer) -> None:
        deadline = time.perf_counter() + seconds
        while True:
            traced = self.trace and len(self.passes) % 2 == 1
            self.one_pass(tracer if traced else None)
            n = len(self.passes)
            if n >= MIN_PASSES and time.perf_counter() >= deadline and (
                    not self.trace or n % 2 == 0):
                break


def end_to_end(loop: Loop, setups: list[float]) -> dict:
    run_s = statistics.median(p["duration"] for p in loop.passes)
    times = sum(op.times for op in loop.ops)
    return {
        "setup_s": statistics.median(setups),
        "run_s": run_s,
        "op_p50_ms": 1e3 * statistics.median(statistics.median(p["op_times"])
                                             for p in loop.passes),
        "times_per_s": times / run_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


def per_layer(loop: Loop) -> dict:
    traced = [p for p in loop.passes if p["layers"] is not None]
    plain = [p for p in loop.passes if p["layers"] is None]
    out = {}
    for name in traced[0]["layers"]:
        values = [p["layers"][name] for p in traced]
        # counts stay whole numbers
        ints = all(isinstance(v, int) for v in values)
        out[name] = (statistics.median_low if ints else statistics.median)(values)
    out["trace.overhead_s"] = (statistics.median(p["duration"] for p in traced)
                               - statistics.median(p["duration"] for p in plain))
    return out


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=inputs.WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not args.seconds > 0:
        ap.error("--seconds must be positive")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "recurlab" / "__init__.py").is_file():
        print(f"error: no recurlab sources under {SRC}; run from a source checkout",
              file=sys.stderr)
        return 2
    sys.path[:0] = [str(SRC), str(BENCH)]
    workdir = ROOT / ".bench_run" / f"{args.workload}-{os.getpid()}"
    try:
        setup0, specs = timed_setup(args.workload, args.seed, str(workdir / "main"))
        import recurlab
        if Path(recurlab.__file__).resolve().parent != SRC / "recurlab":
            print(f"error: imported recurlab from {recurlab.__file__}", file=sys.stderr)
            return 2
        setups = [setup0] + [setup_sample(args.workload, args.seed, workdir / f"setup-{i}")
                             for i in range(1, SETUP_SAMPLES)]
        import tracing
        import workloads
        loop = Loop([workloads.Op(s) for s in specs], bool(args.trace))
        loop.run(args.seconds, tracing.Tracer() if args.trace else None)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            os.rmdir(workdir.parent)
        except OSError:
            pass

    if args.trace:
        units = dict(tracing.UNITS, **{"trace.overhead_s": "s"})
        metrics = per_layer(loop)
    else:
        units = END_TO_END_UNITS
        metrics = end_to_end(loop, setups)
    print("  passes (s): " + " ".join(f"{p['duration']:.3f}" for p in loop.passes),
          file=sys.stderr)
    for i, op in enumerate(loop.ops):
        med = statistics.median(p["op_times"][i] for p in loop.passes)
        print(f"  {op.name:<20} {1e3 * med:10.2f} ms  times={op.times}", file=sys.stderr)
    print(json.dumps({
        "correct": loop.correct,
        "attempted": loop.attempted,
        "failed": loop.failed,
        "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in units},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
