"""Return-time dynamics on truncated sequence space operators.

Every probe reads its distances, one list per time with one per sample, from
one evaluator, `displacements(op, ns, samples)` (in `opcore`, beside the
kernels).  It hands the closed-form `powers(ns, X)` the whole stack of samples
in blocks of at most `opcore.CHUNK` rows, so a time's phases and coefficients
are built once for every sample, a distance at time n costs the same whether
n is 7 or 10**40, and scratch memory does not grow with the horizon.  Return
sets land in `natset.NatSet` and can be fed straight into the density machinery.
"""

from __future__ import annotations

import itertools
import math
from bisect import bisect_right
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Optional, Sequence, Union

import numpy as np

from .natset import NatSet, density_profile, window_pair_witness
from .opcore import Vec, displacements, stack
from .perturbed_rotation import PerturbedRotation


class DynamicsError(ValueError):
    pass


def _check_return(eps: float, horizon: int) -> None:
    """Reject a return radius that is not positive and a negative horizon."""
    if not eps > 0:
        raise DynamicsError("eps must be positive")
    if horizon < 0:
        raise DynamicsError("horizon must be a natural number")


def orbit_returns(op, x: Vec, eps: float, horizon: int) -> tuple[NatSet, list[float]]:
    """The return set up to the horizon and || T^n x - x || for every n in 0..horizon."""
    _check_return(eps, horizon)
    ds = list(itertools.chain.from_iterable(displacements(op, range(horizon + 1), [x])))
    return NatSet(tuple(n for n, d in enumerate(ds) if d < eps), horizon), ds


def return_set(op, x: Vec, eps: float, horizon: int) -> NatSet:
    """{ n <= horizon : || T^n x - x || < eps }, strict inequality.

    n = 0 is always a member since the displacement there is exactly zero.
    """
    return orbit_returns(op, x, eps, horizon)[0]


# ---------------------------------------------------------------------------
# quasi-rigidity search

@dataclass(frozen=True)
class QrWitness:
    """Increasing times n_1 < n_2 < ... matching a shrinking defect schedule."""

    times: tuple[int, ...]
    defects: tuple[float, ...]

    @property
    def found(self) -> bool:
        return True


@dataclass(frozen=True)
class QrFailure:
    """First schedule step that no candidate time can satisfy.

    best_defect is the smallest worst-sample displacement seen while
    scanning that step; when the samples span the head basis of the
    perturbed rotation, `floor` carries the proven lower bound 1/(K*pi)
    valid for every time, which certifies the failure rather than merely
    reporting an exhausted scan.
    """

    step: int
    eps: float
    best_defect: float
    best_time: int
    floor: Optional[float] = None

    @property
    def found(self) -> bool:
        return False

    @property
    def certified(self) -> bool:
        return self.floor is not None and self.floor >= self.eps


QrResult = Union[QrWitness, QrFailure]


def _covers_head_basis(op, samples: Sequence[Vec]) -> bool:
    return isinstance(op, PerturbedRotation) and all(
        any(np.array_equal(x.coords, e.coords) for x in samples) for e in op.head_basis())


def quasi_rigidity_search(op, samples: Sequence[Vec], eps_schedule: Sequence[float],
                          candidates: Iterable[int]) -> QrResult:
    """Greedy search for times n_1 < n_2 < ... with defect(n_k) <= eps_k.

    defect(n) is the worst displacement over the samples.  Candidates are
    consumed in increasing order; each step takes the least admissible time
    beyond the previous one.  The eps schedule must be positive and
    nonincreasing.
    """
    eps_list = [float(e) for e in eps_schedule]
    if not eps_list or any(e <= 0 for e in eps_list):
        raise DynamicsError("eps schedule must be positive")
    if any(b > a for a, b in zip(eps_list, eps_list[1:])):
        raise DynamicsError("eps schedule must be nonincreasing")
    if not samples:
        raise DynamicsError("need at least one sample vector")
    cand = [n for n in sorted(set(int(c) for c in candidates)) if n >= 1]
    if not cand:
        raise DynamicsError("no candidate times given")

    floor = op.center_defect_floor() if _covers_head_basis(op, samples) else None
    times: list[int] = []
    defects: list[float] = []
    prev = 0
    for step, eps in enumerate(eps_list, start=1):
        chosen = None
        best_d = math.inf
        best_n = 0
        later = [n for n in cand if n > prev]
        for n, d in zip(later, map(max, displacements(op, later, samples))):
            if d < best_d:
                best_d, best_n = d, n
            if d <= eps:
                chosen = (n, d)
                break
        if chosen is None:
            return QrFailure(step, eps, best_d, best_n, floor)
        times.append(chosen[0])
        defects.append(chosen[1])
        prev = chosen[0]
    return QrWitness(tuple(times), tuple(defects))


# ---------------------------------------------------------------------------
# period classification from density

@dataclass(frozen=True)
class PeriodClassification:
    """Gap structure forced on a return set by a density threshold.

    When the upper Banach density (measured at the report's window) exceeds
    delta, some window of length floor(1/delta) + 1 holds two returns, so
    the set contains a gap of at most floor(1/delta); the least such
    witnessed gap is reported as `period`.  A gap of exactly one pins the
    orbit point to within twice the return radius of a fixed vector.
    """

    delta: float
    bound: int
    dense: bool
    period: Optional[int]
    witness: Optional[tuple[int, int]]
    fixed_point: bool

    def to_json_dict(self) -> dict:
        return {
            "delta": self.delta,
            "bound": self.bound,
            "dense": self.dense,
            "period": self.period,
            "witness": list(self.witness) if self.witness else None,
            "fixedPoint": self.fixed_point,
        }


def classify_period_by_density(a: NatSet, window: int, delta: float) -> PeriodClassification:
    if not 0 < delta <= 1:
        raise DynamicsError("delta must lie in (0, 1]")
    report = density_profile(a, window)
    bound = math.floor(1.0 / delta)
    dense = report.upper_banach > Fraction(str(delta))
    period = None
    witness = None
    if dense:
        start = window_pair_witness(a, bound + 1)
        if start is not None:
            # the first two elements of the window (start, start + bound + 1]
            i = bisect_right(a.elements, start)
            lo, hi = a.elements[i], a.elements[i + 1]
            witness = (lo, hi)
            period = hi - lo
    return PeriodClassification(delta, bound, dense, period, witness,
                                report.contains_consecutive_pair)


def detect_period(a: NatSet) -> Optional[int]:
    """Common difference when the set is a full arithmetic progression."""
    e = a.elements
    if len(e) < 2:
        return None
    d = e[1] - e[0]
    if any(y - x != d for x, y in zip(e, e[1:])):
        return None
    return d


# ---------------------------------------------------------------------------
# commutant return inclusion

def polynomial_apply(op, coeffs: Sequence[complex], x: Vec) -> tuple[Vec, float]:
    """(sum_j c_j T^j) x from one block of closed-form powers; returns the truncation loss too."""
    if not coeffs:
        raise DynamicsError("empty polynomial")
    rows = op.powers(range(len(coeffs)), stack(op, [x]))[:, 0]
    acc = np.zeros_like(x.coords)
    loss = 0.0
    for j, c in enumerate(coeffs):
        cj = complex(c)
        if cj == 0:
            continue
        acc = acc + cj * rows[j]
        loss += abs(cj) * op.loss(j, x)
    return Vec(acc, x.p), loss


@dataclass(frozen=True)
class InclusionReport:
    holds: bool
    first_violation: Optional[int]
    checked: int
    scale: float
    return_count: int
    sx_loss: float

    def __bool__(self) -> bool:
        return self.holds

    def to_json_dict(self) -> dict:
        return {
            "holds": self.holds,
            "firstViolation": self.first_violation,
            "checked": self.checked,
            "scale": self.scale,
            "returnCount": self.return_count,
            "sxLoss": self.sx_loss,
        }


def commutant_return_inclusion(op, coeffs: Sequence[complex], x: Vec,
                               eps: float, horizon: int) -> InclusionReport:
    """Check N(x, eps/L) is contained in N(Sx, eps) for S = sum_j c_j T^j.

    S commutes with T, so T^n S x - S x = S (T^n x - x) and the inclusion
    holds whenever L dominates the norm of S.  L is built from the
    conservative `op.norm_bound()`; the check scans every n up to the
    horizon and reports the first violation if the arithmetic ever
    disagrees with the algebra.
    """
    _check_return(eps, horizon)
    base = op.norm_bound()
    scale = sum(abs(complex(c)) * base ** j for j, c in enumerate(coeffs))
    if scale <= 0:
        raise DynamicsError("polynomial norm bound vanished")
    sx, loss = polynomial_apply(op, coeffs, x)
    tight = eps / scale
    first = None
    count = 0
    times = range(horizon + 1)
    ds = itertools.chain.from_iterable(displacements(op, times, [x]))
    # the tight return times, read twice: to list them and to move S x by them
    returns, again = itertools.tee(n for n, d in zip(times, ds) if d < tight)
    for n, d in zip(returns, itertools.chain.from_iterable(displacements(op, again, [sx]))):
        count += 1
        if not d < eps:
            first = n
            break
    return InclusionReport(first is None, first, horizon + 1, scale, count, loss)
