"""A diagonal rotation with a head-driven perturbation feeding deep coordinates.

The operator acts on a truncated sequence space as

    T x = R x + sum over k of (1 / m_{k-1}) <w_k, P x> e_k,

where R rotates coordinate k by the exact unit phase 1/m_k, the moduli
(m_k) form a divisibility ladder that starts at 1 on the head block and then
grows fast enough to be summable against itself, P keeps the first
fold_n + 1 coordinates, and each w_k is a coefficient functional on the head
with sup modulus exactly one.  The head size (fold parameter) controls a
sharp dichotomy: tuples of up to fold_n points admit simultaneous
approximate return times (multiples of deep moduli), while the full head
basis never returns: every power moves some head basis vector by more than
1/(K*pi).

Numerics are arranged so that exactness survives the truncation.  Moduli are
plain Python integers of arbitrary size, power phases reduce n mod m_k
exactly before any float enters (int64 where it cannot overflow, Python ints
otherwise), and each ratio of integers is one division: int/int, correctly
rounded, at ladder scale.  `powers` evaluates a block of times for a stack
of samples at every level at once, from one reduction of n mod m_k and one
row of coefficients per block shared by every sample.  Geometric phase sums
use the folded-sine form min(r, m-r) * sinc(pi*rho)/sinc(pi/m), which is
immune to underflow for astronomically large moduli and never exceeds the
integer envelope.
"""

from __future__ import annotations

import cmath
import functools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Optional, Sequence

import numpy as np

from .opcore import (SUP, Denominators, Diagonal, Moduli, Operator, Vec, basis_vec,
                     diagonal_rotation, displacements, norm_kind)

TWO_PI = 2.0 * math.pi


class ConstructionError(ValueError):
    pass


class GridResolutionError(ValueError):
    pass


# ---------------------------------------------------------------------------
# modulus ladder

@dataclass(frozen=True)
class ModulusLadder:
    """The divisibility chain m_1 | m_2 | ... with unit head block."""

    values: tuple[int, ...]

    @property
    def levels(self) -> int:
        return len(self.values)

    def m(self, k: int) -> int:
        """1-based modulus access."""
        if not 1 <= k <= self.levels:
            raise ConstructionError(f"level {k} outside 1..{self.levels}")
        return self.values[k - 1]

    @staticmethod
    def growth(k: int) -> int:
        """The factor m_{k+1} / m_k = 2^(k+2) k^2.  Squaring the polynomial part
        puts the rigidity envelope 2*pi*sum_{k>j} m_j/m_k below 1e-6 already at
        j = 14."""
        return (1 << (k + 2)) * k * k

    def extended_m(self, k: int) -> int:
        """m_k continued past the built levels by the growth factor."""
        if k <= self.levels:
            return self.m(k)
        m = self.values[-1]
        for j in range(self.levels, k):
            m *= self.growth(j)
        return m

    def cert_bound(self, j: int) -> Fraction:
        """Exact rational m_j * sum_{k=j+1}^{levels} 1/m_k."""
        if not 1 <= j <= self.levels - 1:
            raise ConstructionError(f"certificate level {j} outside 1..{self.levels - 1}")
        return sum((Fraction(self.m(j), self.m(k)) for k in range(j + 1, self.levels + 1)),
                   Fraction(0))

    def coupling_sum(self, j: int) -> Fraction:
        """Rational upper bound on the infinite sum of m_j / m_k over k > j.

        The finite part is exact; the part beyond the built levels is
        dominated through the growth factor by a geometric comparison.
        """
        total = self.cert_bound(j) if j <= self.levels - 1 else Fraction(0)
        g0 = self.growth(self.levels)
        g1 = self.growth(self.levels + 1)
        return total + Fraction(self.m(j), self.m(self.levels) * g0) * (1 + Fraction(2, g1))

    def tail_inverse_sum(self) -> float:
        """Upper estimate of sum_{k > levels} 1/m_{k-1}."""
        g = self.growth(self.levels)
        return (g + 2) / (self.m(self.levels) * g)


def build_modulus_ladder(fold_n: int, levels: int) -> ModulusLadder:
    """Unit head block of length fold_n + 1, then multiply by the growth factor."""
    if fold_n < 1:
        raise ConstructionError("fold parameter must be >= 1")
    if levels < fold_n + 3:
        raise ConstructionError("need at least fold_n + 3 levels")
    vals = [1] * (fold_n + 1)
    for k in range(fold_n + 1, levels):
        vals.append(vals[-1] * ModulusLadder.growth(k))
    return ModulusLadder(tuple(vals))


# ---------------------------------------------------------------------------
# functional grid

@dataclass(frozen=True)
class GridEntry:
    level: int                      # the modulus level this functional is bound to
    mesh: float                     # quantization resolution of its net
    alpha: tuple[complex, ...]      # head coefficients, sup modulus exactly 1


@dataclass(frozen=True)
class FunctionalGrid:
    """Head functionals bound one-to-one to modulus levels, finest mesh last.

    Entries come in groups of decreasing mesh.  Each group holds the
    coordinate functionals plus the polar quantizations of any registered
    target functionals at that group's resolution, so the grid is guaranteed
    dense along the directions a probe actually visits.  Each entry's mesh is
    its group resolution, the quantization radius the net guarantees.
    """

    entries: tuple[GridEntry, ...]

    @property
    def finest_mesh(self) -> float:
        return min(e.mesh for e in self.entries)


def quantize_head_functional(alpha: Sequence[complex], mesh: float) -> tuple[complex, ...]:
    """Round a sup-normalized coefficient vector onto the polar mesh grid.

    Moduli snap to multiples of 1/ceil(2/mesh), phases to multiples of
    2*pi/ceil(4*pi/mesh), and the dominant coordinate is pinned to modulus
    exactly one, so the result stays on the unit sup sphere and within
    mesh/2 of the input.
    """
    if mesh <= 0:
        raise ConstructionError("mesh must be positive")
    arr = [complex(a) for a in alpha]
    mods = [abs(a) for a in arr]
    top = max(mods)
    if top == 0:
        raise ConstructionError("cannot quantize the zero functional")
    dom = next(i for i, r in enumerate(mods) if r >= top - 1e-12)
    m_r = math.ceil(2.0 / mesh)
    m_th = math.ceil(4.0 * math.pi / mesh)
    step = TWO_PI / m_th
    out = []
    for i, a in enumerate(arr):
        r = min(1.0, round(mods[i] * m_r) / m_r)
        if i == dom:
            r = 1.0
        if r == 0.0:
            out.append(0j)
            continue
        theta = (round(cmath.phase(a) / step) % m_th) * step
        out.append(r * cmath.exp(1j * theta))
    return tuple(out)


def _coerce_mesh(value) -> Fraction:
    if isinstance(value, float):
        return Fraction(str(value))
    return Fraction(value)


DEFAULT_MESH: tuple[Fraction, ...] = tuple(
    Fraction(n, d) for n, d in [(1, 1), (1, 2), (1, 4), (1, 10), (1, 20), (1, 100), (1, 200)]
)


def build_functional_grid(fold_n: int, mesh_levels: Sequence = DEFAULT_MESH,
                          targets: Sequence[Sequence[complex]] = (),
                          min_levels: int = 0) -> FunctionalGrid:
    """The grid for levels head + 1, head + 2, ...: entry i sits at level head + 1 + i.

    One group per mesh, in the given order, then repeated coordinate
    functionals at the finest mesh until head + len(entries) reaches
    max(min_levels, fold_n + 3): the padding deepens the modulus ladder
    without changing the net.  The meshes must be positive and strictly
    decreasing as the floats the entries store.
    """
    if fold_n < 1:
        raise ConstructionError("fold parameter must be >= 1")
    meshes = [float(m) for m in mesh_levels]
    if not meshes or any(m <= 0 for m in meshes):
        raise ConstructionError("mesh schedule must be positive")
    if any(b >= a for a, b in zip(meshes, meshes[1:])):
        raise ConstructionError("mesh schedule must be strictly decreasing")
    head = fold_n + 1
    for t in targets:
        if len(t) != head:
            raise ConstructionError("target functional has wrong head size")

    units = [tuple((1 + 0j) if j == i else 0j for j in range(head)) for i in range(head)]
    # each group lists the coordinate functionals, then the new quantized targets
    rows = [(mesh, alpha) for mesh in meshes
            for alpha in dict.fromkeys(units + [quantize_head_functional(t, mesh)
                                                for t in targets])]
    rows += [(meshes[-1], units[i % head])
             for i in range(max(min_levels, fold_n + 3) - head - len(rows))]
    return FunctionalGrid(tuple(GridEntry(head + 1 + i, mesh, alpha)
                                for i, (mesh, alpha) in enumerate(rows)))


# ---------------------------------------------------------------------------
# the operator

@dataclass(frozen=True, eq=False)
class PerturbedRotation(Operator):
    """T = R + the head-driven perturbation, built from its parameters alone.

    fold_n, the mesh schedule, the target functionals and min_levels fix the
    functional grid (`build_functional_grid`); the modulus ladder has one
    unit level per head coordinate and one level per grid entry; dim_cap is
    raised to cover every level; p is the norm exponent.  The mesh schedule
    is kept as Fractions and the targets as complex tuples, as the
    descriptor records them.
    """

    fold_n: int
    mesh_levels: tuple[Fraction, ...] = DEFAULT_MESH
    targets: tuple[tuple[complex, ...], ...] = ()
    dim_cap: Optional[int] = None
    p: float = 2.0
    min_levels: int = 0

    error = ConstructionError
    # K: every quantized head functional has sup modulus exactly one
    functional_bound = 1.0

    def __post_init__(self) -> None:
        put = functools.partial(object.__setattr__, self)
        put("targets", tuple(tuple(complex(c) for c in t) for t in self.targets))
        put("mesh_levels", tuple(_coerce_mesh(v) for v in self.mesh_levels))
        put("grid", build_functional_grid(self.fold_n, self.mesh_levels, self.targets,
                                          self.min_levels))
        levels = self.head + len(self.grid.entries)
        put("modulus", build_modulus_ladder(self.fold_n, levels))
        put("dim_cap", max(self.dim_cap or 0, levels))
        m = self.modulus.m
        put("_rotation", diagonal_rotation(
            [Fraction(1, m(k)) for k in range(1, levels + 1)], self.dim_cap, self.p))
        put("_alpha", np.array([e.alpha for e in self.grid.entries], dtype=np.complex128))
        # the phases 1/m_k of the perturbed levels k = head+1..levels (the head
        # has m_k = 1), m_{k-1} and sinc(pi/m_k) beside them
        pert = self.modulus.values[self.head:]
        put("_phases", Moduli([1] * len(pert), pert))
        put("_prev", Denominators(self.modulus.values[self.head - 1:-1]))
        put("_sinc_unit", np.sinc([1 / v for v in pert]))
        # (2 m_{k-1}, m_k) for the six levels past the truncation, for loss
        ext = [self.modulus.extended_m(k) for k in range(levels, levels + 7)]
        put("_tail", tuple(zip([2 * v for v in ext], ext[1:])))
        # |<w_k, P x>| <= norm_equiv_upper * K * ||x|| by Holder: the factor of
        # both the truncation loss and the norm bound
        put("_mu", self.norm_equiv_upper() * self.functional_bound)

    # -- structure accessors ------------------------------------------------

    @property
    def levels(self) -> int:
        return self.modulus.levels

    @property
    def head(self) -> int:
        return self.fold_n + 1

    def rotation_part(self) -> Diagonal:
        """R: the exact unit phase 1/m_k on level k, identity past the levels."""
        return self._rotation

    def norm_equiv_upper(self) -> float:
        # dual-norm comparison against the sup norm of the coefficients,
        # by Holder on the head coordinates
        if self.p == SUP:
            return float(self.head)
        if self.p == 1.0:
            return 1.0
        q = self.p / (self.p - 1.0)
        return float(self.head ** (1.0 / q))

    def head_basis(self) -> list[Vec]:
        """The unit vectors e_1..e_head that P keeps."""
        return [basis_vec(i, self.dim_cap, self.p) for i in range(1, self.head + 1)]

    def descriptor(self) -> dict:
        return {
            "variant": "perturbed-rotation",
            "foldN": self.fold_n,
            "levels": self.levels,
            "growthRule": "dyadic-sq",
            "meshSchedule": [str(mq) for mq in self.mesh_levels],
            "targets": [[[c.real, c.imag] for c in t] for t in self.targets],
            "dimCap": self.dim_cap,
            "normKind": norm_kind(self.p),
            "functionalBound": self.functional_bound,
        }

    def norm_bound(self) -> float:
        """1 plus the coupling factor times the summed perturbation weights."""
        inv = sum((Fraction(1, self.modulus.m(k - 1))
                   for k in range(self.head + 1, self.levels + 1)), Fraction(0))
        return 1.0 + self._mu * (float(inv) + self.modulus.tail_inverse_sum())

    # -- phase sums -----------------------------------------------------------

    def phase_sum(self, k: int, n: int) -> complex:
        """Closed form of 1 + z + ... + z^{n-1} for z the level-k unit phase.

        Exactly zero when m_k divides n; otherwise the folded-sine form
        min(r, m-r) * sinc(pi*rho)/sinc(pi/m) times the phase exp(i*pi*(r-1)/m),
        with r = n mod m_k reduced in exact integer arithmetic first.
        """
        if not self.head + 1 <= k <= self.levels:
            raise ConstructionError(f"level {k} outside {self.head + 1}..{self.levels}")
        if n < 1:
            raise ConstructionError("n must be >= 1")
        j = [k - self.head - 1]
        r, m = self._phases.residues([n], j)
        if r[0, 0] == 0:
            return 0j
        folded, _, shrink, phase = self._sum_parts(r[0], m, j)
        if folded[0] > 1e306:
            raise OverflowError("phase sum magnitude exceeds float range")
        return complex(float(folded[0]) * shrink[0] * phase[0])

    def _sum_parts(self, r: np.ndarray, m: np.ndarray, cols) -> tuple[np.ndarray, ...]:
        """(folded residue, its ratio to m_k, sinc ratio, unit phase) of the phase sums
        for r = n mod m_k at the perturbed levels `cols` selects; meaningless at r = 0."""
        folded = np.minimum(r, m - r)
        ratio = self._phases.dens.ratio
        q = ratio(folded, cols)
        shrink = np.minimum(1.0, np.sinc(q) / self._sinc_unit[cols])
        return folded, q, shrink, np.exp(1j * np.pi * ratio(r - 1, cols))

    def _coeffs(self, r: np.ndarray, m: np.ndarray) -> np.ndarray:
        """phase_sum(k, n) / m_{k-1} for every time (rows) and perturbed level k
        (columns), computed as a ratio so it never overflows; 0 where m_k divides n.

        Python-int division is costly: Python-int residues are worked on only
        where nonzero (m_k divides a ladder-scale time for most k), and folded /
        m_{k-1} is taken from the entry before when that one is at level k - 1
        with the same folded residue (as at every level past the largest m_k | n).
        """
        if not r.dtype.hasobject:
            folded, _, shrink, phase = self._sum_parts(r, m, slice(None))
            return self._prev.ratio(folded) * shrink * phase
        out = np.zeros(r.shape, dtype=np.complex128)
        hit = np.nonzero(r)
        cols = hit[1]
        folded, q, shrink, phase = self._sum_parts(r[hit], m[cols], cols)
        prev = np.empty(len(folded))
        same = (np.diff(cols, prepend=-2) == 1) & (folded == np.roll(folded, 1))
        prev[same] = q[np.flatnonzero(same) - 1]
        prev[~same] = self._prev.ratio(folded[~same], cols[~same])
        out[hit] = prev * shrink * phase
        return out

    # -- action ---------------------------------------------------------------

    def loss(self, n: int, x: Vec) -> float:
        """Estimate of the perturbation the untruncated T^n would add past levels.

        Coefficients there are bounded by min(n, m_k/2)/m_{k-1}, that is
        min(2n, m_k)/(2 m_{k-1}); six explicit terms plus a geometric remainder
        dominate the sum.
        """
        if n == 0:
            return 0.0
        total = 0.0
        last = 0.0
        for two_prev, m_k in self._tail:
            last = min(2 * n, m_k) / two_prev
            total += last
        total += last  # remainder, dominated by one extra term
        return self._mu * x.norm() * total

    def powers(self, ns: Iterable[int], xs: np.ndarray) -> np.ndarray:
        """T^n x for a block of times and a stack of samples; cost is independent of n."""
        ns = self._times(ns, xs)
        r, m = self._phases.residues(ns)
        y = np.repeat(xs[None], len(ns), axis=0)
        levels = slice(self.head, self.levels)
        # R^n, on the level columns some sample can see
        seen = xs[:, levels].any(axis=0).nonzero()[0]
        if seen.size:
            y[:, :, seen + self.head] *= self._phases.turns(r[:, seen], seen)[:, None]
        # <w_k, P x> per sample and level, each summed over the head in the same order
        # (alpha first: numpy's complex product need not commute bit for bit)
        weights = np.add.reduce(self._alpha * xs[:, None, : self.head], axis=2)
        y[:, :, levels] += self._coeffs(r, m)[:, None] * weights
        return y

    def center_defect_floor(self) -> float:
        """The proven lower bound 1/(K*pi) on max head-basis displacement."""
        return 1.0 / (self.functional_bound * math.pi)


def build_operator(fold_n: int, mesh_levels: Sequence = DEFAULT_MESH,
                   targets: Sequence[Sequence[complex]] = (),
                   dim_cap: Optional[int] = None, p: float = 2.0,
                   min_levels: int = 0) -> PerturbedRotation:
    return PerturbedRotation(fold_n, mesh_levels, targets, dim_cap, p, min_levels)


# ---------------------------------------------------------------------------
# probes

@dataclass(frozen=True)
class RigidityDefect:
    level: int
    defect: float
    bound: float
    bound_exact: Fraction


def rigidity_defect(op: PerturbedRotation, j: int, samples: Sequence[Vec]) -> RigidityDefect:
    """Worst rotation return error || R^{m_j} x - x || over the samples.

    The bound is 2*pi*K times the rational coupling sum over k > j; it holds
    for every unit vector, so samples are expected normalized.
    """
    if not 1 <= j <= op.levels - 1:
        raise ConstructionError(f"level {j} outside 1..{op.levels - 1}")
    for x in samples:
        op.check(x)
    worst = max(next(displacements(op.rotation_part(), [op.modulus.m(j)], samples)), default=0.0)
    exact = op.modulus.coupling_sum(j)
    bound = TWO_PI * op.functional_bound * float(exact)
    return RigidityDefect(j, worst, bound, exact)


def annihilating_functional(vectors: Sequence[Vec], fold_n: int) -> np.ndarray:
    """Head functional with sup modulus 1 vanishing on every given vector.

    Solves the fold_n x (fold_n + 1) homogeneous system on the head
    coordinates.  Deterministic tie-breaking: take the null-space projector
    column of largest norm (least index on ties), then scale so the dominant
    entry is exactly 1 real positive.
    """
    head = fold_n + 1
    if len(vectors) != fold_n:
        raise ConstructionError(f"need exactly {fold_n} vectors")
    rows = np.array([v.coords[:head] for v in vectors], dtype=np.complex128)
    proj = np.eye(head, dtype=np.complex128) - np.linalg.pinv(rows) @ rows
    norms = np.linalg.norm(proj, axis=0)
    col = int(np.argmax(norms))
    v = proj[:, col]
    mods = np.abs(v)
    top = float(np.max(mods))
    if top <= 0.0:
        raise ConstructionError("null space projector vanished")
    dom = int(np.argmax(mods >= top - 1e-12 * max(top, 1.0)))
    alpha = v / v[dom]
    alpha[dom] = 1.0  # complex division can miss by an ulp
    row_scale = max(1.0, float(np.max(np.abs(rows))) if rows.size else 1.0)
    residual = float(np.linalg.norm(rows @ alpha)) if rows.size else 0.0
    if residual > 1e-10 * row_scale * max(1.0, float(np.max(np.abs(alpha)))):
        raise ConstructionError(f"annihilator residual too large: {residual:g}")
    return alpha


@dataclass(frozen=True)
class WitnessPoint:
    level: int
    mesh: float
    grid_distance: float
    return_time: int
    distances: tuple[float, ...]

    def to_json_dict(self) -> dict:
        return {
            "level": self.level,
            "mesh": self.mesh,
            "gridDistance": self.grid_distance,
            "returnTime": str(self.return_time),
            "distances": list(self.distances),
        }


def recurrence_witness(op: PerturbedRotation, vectors: Sequence[Vec],
                       grid_tol: float) -> list[WitnessPoint]:
    """Simultaneous approximate return times for a fold_n tuple.

    Grid levels whose functional lies within max(grid_tol, mesh) of the
    tuple's annihilator are selected in increasing order; each selected level
    k contributes the return time m_{k-1} and the per-vector displacement of
    T^{m_{k-1}}.  At least one level must fall within grid_tol itself,
    otherwise the grid is too coarse for the request and that is an error.
    """
    finest = op.grid.finest_mesh
    if grid_tol < finest:
        raise GridResolutionError(
            f"grid_tol {grid_tol:g} below finest available mesh {finest:g}")
    alpha = annihilating_functional(vectors, op.fold_n)
    chosen = []
    for entry in op.grid.entries:
        d = float(np.max(np.abs(np.asarray(entry.alpha) - alpha)))
        if d <= max(grid_tol, entry.mesh):
            chosen.append((entry, d, op.modulus.m(entry.level - 1)))
    times = [t for _, _, t in chosen]
    dists = list(displacements(op, times, vectors))
    if not any(d <= grid_tol for _, d, _ in chosen):
        raise GridResolutionError(
            f"no grid entry within {grid_tol:g} of the annihilator; "
            f"finest available mesh is {finest:g}")
    return [WitnessPoint(e.level, e.mesh, d, t, tuple(ds))
            for (e, d, t), ds in zip(chosen, dists)]


@dataclass(frozen=True)
class ScanReport:
    min_defect: float
    argmin: int
    evaluated: int


def non_recurrence_scan(op: PerturbedRotation, candidates: Iterable[int]) -> ScanReport:
    """Minimize the head-basis defect max_i || T^n e_i - e_i || over the candidates,
    read from `displacements` over the stack `op.head_basis()`."""
    times = [n for n in sorted(set(int(c) for c in candidates)) if n >= 1]
    if not times:
        raise ConstructionError("no candidates to scan")
    best = math.inf
    best_n = 0
    for n, d in zip(times, map(max, displacements(op, times, op.head_basis()))):
        if d < best:
            best, best_n = d, n
    return ScanReport(best, best_n, len(times))


def lattice_candidates(modulus: ModulusLadder, max_level: int,
                       multipliers: Sequence[int] = (1, 2, 3),
                       neighbors: bool = True, head: int = 0) -> list[int]:
    """Return-time candidates built from the modulus ladder.

    Multiples c*m_j for j up to max_level, optionally the neighbors m_j +- 1,
    plus a linear scan head 1..head.  Sorted and deduplicated.
    """
    if max_level > modulus.levels:
        raise ConstructionError("max_level beyond built levels")
    out = set(range(1, head + 1))
    for j in range(1, max_level + 1):
        m = modulus.m(j)
        for c in multipliers:
            out.add(c * m)
        if neighbors:
            out.add(m + 1)
            if m > 1:
                out.add(m - 1)
    return sorted(out)
