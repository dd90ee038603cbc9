"""Return-time dynamics on truncated sequence space operators.

Every probe decides through `opcore.within`, whose docstring states the rules:
the worst displacement over the samples at each time, against eps.  It reads
the blocks of the evaluator `displacements(op, ns, samples)`, which hands the
closed-form `powers(ns, X)` the whole stack of samples at most `opcore.CHUNK`
rows at a time, so a distance at time n costs the same whether n is 7 or
10**40 and scratch memory does not grow with the horizon; for an eventually
periodic operator (`op.cycle()`) it evaluates each distinct power once.
Return sets land in `natset.NatSet`, the input of the density machinery.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Optional, Sequence, Union

import numpy as np

from .natset import NatSet, RecurlabError
from .opcore import Vec, stack, within
from .perturbed_rotation import PerturbedRotation


class DynamicsError(RecurlabError):
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
    ds, ok = within(op, range(horizon + 1), [x], eps)
    return NatSet(tuple(np.flatnonzero(ok).tolist()), horizon), ds.tolist()


def return_set(op, x: Vec, eps: float, horizon: int) -> NatSet:
    """{ n <= horizon : || T^n x - x || < eps }, strict (`opcore.within`); n = 0 is always
    a member, since the displacement there is exactly zero."""
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

    best_defect is the smallest worst-sample displacement seen while scanning
    that step and best_time its first time, both None when no candidate was
    left; when the samples span the head basis of the perturbed rotation,
    `floor` carries the proven lower bound 1/(K*pi) valid for every time,
    which certifies the failure rather than merely reporting an exhausted scan.
    """

    step: int
    eps: float
    best_defect: Optional[float]
    best_time: Optional[int]
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

    defect(n) is the worst displacement over the samples; each step takes the
    least candidate past the previous one that `opcore.within` admits (<=).
    The eps schedule must be positive and nonincreasing.
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
    for step, eps in enumerate(eps_list, start=1):
        worst, ok = within(op, cand, samples, eps, strict=False, stop=True)
        if not ok.any():  # no admissible time: the first minimum seen, if any
            best = (float(worst.min()), cand[int(worst.argmin())]) if cand else (None, None)
            return QrFailure(step, eps, *best, floor)
        i = int(ok.argmax())
        times.append(cand[i])
        defects.append(float(worst[i]))
        cand = cand[i + 1:]
    return QrWitness(tuple(times), tuple(defects))


# ---------------------------------------------------------------------------
# commutant return inclusion

def polynomial_apply(op, coeffs: Sequence[complex], x: Vec) -> tuple[Vec, float]:
    """(sum_j c_j T^j) x from one block of closed-form powers; returns the truncation loss too."""
    if not coeffs:
        raise DynamicsError("empty polynomial")
    xs = stack(op, [x])
    rows = op.powers(range(len(coeffs)), xs)[:, 0]
    losses = op.losses(range(len(coeffs)), xs)[:, 0].tolist()
    acc = np.zeros_like(x.coords)
    loss = 0.0
    for j, c in enumerate(coeffs):
        cj = complex(c)
        if cj == 0:
            continue
        acc = acc + cj * rows[j]
        loss += abs(cj) * losses[j]
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
    # the tight return times of x (0 among them), then S x moved by each
    returns = np.flatnonzero(within(op, range(horizon + 1), [x], eps / scale)[1])
    bad = np.flatnonzero(~within(op, returns, [sx], eps)[1])
    first = int(returns[bad[0]]) if bad.size else None
    count = int(bad[0]) + 1 if bad.size else len(returns)
    return InclusionReport(first is None, first, horizon + 1, scale, count, loss)
