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
plain Python integers of arbitrary size, and power phases reduce n mod m_k
exactly before any float enters: in int64 below 2^62, past it as digits of
n mod m_L in the mixed radix of the growth factors (exact int64 groups), from
which r/m_k and (m_k - r)/m_k are fixed-order float sums.  `powers` takes a
block of times for a stack of samples at every level at once, with one row
of coefficients per block shared by every sample.  Geometric phase sums
use the folded-sine form min(r, m-r) * sinc(pi*rho)/sinc(pi/m), which is
immune to underflow for astronomically large moduli and never exceeds the
integer envelope.
"""

from __future__ import annotations

import cmath
import functools
import itertools
import math
import operator
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Optional, Sequence

import numpy as np

from .natset import RecurlabError
from .opcore import (_I64_SAFE, SUP, Denominators, Diagonal, Operator, Vec,
                     basis_vec, diagonal_rotation, displacements, norm_kind, row_norms)

TWO_PI = 2.0 * math.pi
_FLOAT_MAX = int(np.finfo(np.float64).max)  # exactly: a Fraction <= it converts to a float


class ConstructionError(RecurlabError):
    pass


class GridResolutionError(RecurlabError):
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

    @functools.cached_property
    def suffix_sums(self) -> tuple[int, ...]:
        """S_j = sum_{k=j+1}^{levels} m_L/m_k for j = 0..levels, integers since m_k | m_L."""
        return tuple(itertools.accumulate((self.values[-1] // m for m in self.values[::-1]),
                                          initial=0))[::-1]

    def cert_bound(self, j: int) -> Fraction:
        """Exact rational m_j * sum_{k=j+1}^{levels} 1/m_k."""
        if not 1 <= j <= self.levels - 1:
            raise ConstructionError(f"certificate level {j} outside 1..{self.levels - 1}")
        return Fraction(self.m(j) * self.suffix_sums[j], self.values[-1])

    def coupling_sum(self, j: int) -> Fraction:
        """Exact upper bound m_j (S_j / m_L + `tail`(1, levels + 2)) on sum_{k > j} m_j / m_k."""
        top, t = self.values[-1], self.tail(1, self.levels + 2)
        return Fraction(self.m(j) * (self.suffix_sums[j] * t.denominator + top * t.numerator),
                        top * t.denominator)

    def tail(self, n: int, first: int) -> Fraction:
        """Exact upper bound, nondecreasing in n, on sum_{k >= first} min(2n, m_k) / (2 m_{k-1})
        over the continued ladder (`extended_m`), first past the unit head block.  While 2n > m_k
        the term is g_{k-1} / 2, added exactly.  From the first k with 2n <= m_k on, each term is
        n / m_{k-1}, at most half the one before as every growth factor is >= 2: the rest is at
        most that term plus twice the next one, floored at 1 after a saturated term (twice the
        next term was 1 when that term saturated), so the bound does not fall there."""
        k, m, saturated = first - 1, self.extended_m(first - 1), 0
        while 2 * n > m * (g := self.growth(k)):
            saturated, m, k = saturated + g, m * g, k + 1
        rest = Fraction(n * (g + 2), m * g)  # n / m + 2n / (m g)
        return Fraction(saturated, 2) + max(rest, 1) if saturated else rest


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
        # has m_k = 1), m_{k-1} and sinc(pi/m_k) beside them; R's table holds
        # exactly these phases, since it skips the whole turns of the head
        pert = self.modulus.values[self.head:]
        put("_phases", self._rotation._turns[1])
        put("_prev", Denominators(self.modulus.values[self.head - 1:-1]))
        put("_unit", np.array([1 / v for v in pert]))
        put("_sinc_unit", np.sinc(self._unit))
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
        # sum_{k=head+1}^{levels} 1/m_{k-1}: every level from head on but the last
        inv = Fraction(self.modulus.suffix_sums[self.head - 1] - 1, self.modulus.values[-1])
        return 1.0 + self._mu * (float(inv) + float(self.modulus.tail(1, self.levels + 1)))

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
        folded, shrink, phase = self._sum_parts(r[0], m, j)
        if folded[0] > 1e306:
            raise OverflowError("phase sum magnitude exceeds float range")
        return complex(float(folded[0]) * shrink[0] * phase[0])

    def _sum_parts(self, r: np.ndarray, m: np.ndarray, cols) -> tuple[np.ndarray, ...]:
        """(folded residue, sinc ratio, unit phase) of the phase sums for r = n mod m_k
        at the perturbed levels `cols` selects; meaningless at r = 0."""
        folded = np.minimum(r, m - r)
        ratio = self._phases.dens.ratio
        shrink = np.minimum(1.0, np.sinc(ratio(folded, cols)) / self._sinc_unit[cols])
        return folded, shrink, np.exp(1j * np.pi * ratio(r - 1, cols))

    @functools.cached_property
    def _radix(self) -> tuple:
        """Tables for times past int64, built on first use: `_coeffs` reads n mod m_L in
        the mixed radix of the growth factors g (each past 2^62 cut into k^2 and powers
        of two), grouped while their product is below 2^62.  Per level its group and
        place value there; complements top - d (size - 1, or size in group 0: the unit
        of m - r); weights[i, j] = base_i / base_j, i < j, from float mantissas and
        exponents, so none overflows; g_{k-1} and g_{k-1} / (pi sinc(pi/m_k))."""
        factors = [self.modulus.growth(k) for k in range(self.head, self.levels)]
        sizes, group, place = [], [], []
        for k, g in enumerate(factors, self.head):
            for f in [g] if g < _I64_SAFE else [k * k] + [1 << min(61, k + 2 - i)
                                                         for i in range(0, k + 2, 61)]:
                if not sizes or sizes[-1] * f >= _I64_SAFE:
                    sizes.append(1)
                sizes[-1] *= f
            group.append(len(sizes) - 1)
            place.append(sizes[-1])
        bases = list(itertools.accumulate(sizes[:-1], operator.mul, initial=1))
        shift = [b.bit_length() for b in bases]
        mantissa = [b / (1 << s) for b, s in zip(bases, shift)]  # correctly rounded
        weights = np.triu(np.ldexp(np.divide.outer(mantissa, mantissa),
                                   np.minimum(np.subtract.outer(shift, shift), 0)), 1)
        top = [v - (i > 0) for i, v in [*enumerate(sizes), *zip(group, place)]]
        growth = np.array(factors, dtype=float)
        return (sizes, group, np.array(place, dtype=np.int64)[:, None],
                np.array(top, dtype=np.int64)[:, None], weights[..., None, None],
                growth, growth / (np.pi * self._sinc_unit))

    def _coeffs(self, ns: list[int]) -> tuple:
        """(turns, phase_sum(k, n) / m_{k-1} per time and perturbed level k); turns(cols)
        is exp(2 pi i (n mod m_k)/m_k) on columns cols.  Past 2^62 from `_radix` digits."""
        if max(ns, default=0) < _I64_SAFE:
            r, m = self._phases.residues(ns)
            folded, shrink, phase = self._sum_parts(r, m, slice(None))
            return (lambda cols: self._phases.turns(r[:, cols], cols),
                    self._prev.ratio(folded) * shrink * phase)
        sizes, group, place, top, weights, growth, envelope = self._radix
        digits = []
        for rest in [n % self.modulus.values[-1] for n in ns]:
            for size in sizes:
                rest, digit = divmod(rest, size)
                digits.append(digit)
        d = np.fromiter(digits, np.int64, len(digits)).reshape(len(ns), len(sizes)).T
        low = np.concatenate([d, d[group] % place])  # group digits, then each level's part
        low = np.stack([low, top - low], axis=1)  # and their exact complements
        # (n mod M)/M and (M - n mod M)/M per group base M, digits added in one fixed order
        # (a BLAS product need not): column k reads no digit above k, as a deeper build does
        below = np.add.reduce(weights * low[:len(sizes), None], axis=0)[group]
        q, complement = ((below + low[len(sizes):]) / place[:, None]).transpose(1, 2, 0)
        # |phase_sum| / m_{k-1}, folded-sine: g_{k-1} folded min(1, sinc(folded) / sinc(1/m_k))
        folded = np.minimum(q, complement)
        mag = np.minimum(folded * growth, np.sin(np.pi * folded) * envelope)
        return (lambda cols: np.exp(2j * np.pi * q[:, cols]),
                mag * np.exp(1j * np.pi * (q - self._unit)))

    # -- action ---------------------------------------------------------------

    def losses(self, ns: Iterable[int], xs: np.ndarray) -> np.ndarray:
        """mu * ||x|| * tail(n), an upper bound for every n on the perturbation the untruncated
        T^n adds past the levels, whose coefficients min(2n, m_k)/(2 m_{k-1}) `ModulusLadder.tail`
        sums to an exact bound, rounded up to a float: inf past float range, 0 for x = 0."""
        tails = [self.modulus.tail(n, self.levels + 1) for n in self._times(ns, xs)]
        fs = (float(t) if t.numerator <= _FLOAT_MAX * t.denominator else math.inf for t in tails)
        up = [math.nextafter(f, math.inf) if f < t else f for t, f in zip(tails, fs)]
        rows, scale = np.array(up, dtype=np.float64)[:, None], self._mu * row_norms(xs, self.p)
        return np.where(scale > 0, rows, 0.0) * scale  # 0, not inf * 0 = nan, for x = 0

    def powers(self, ns: Iterable[int], xs: np.ndarray) -> np.ndarray:
        """T^n x for a block of times and a stack of samples; cost is independent of n."""
        ns = self._times(ns, xs)
        turns, coeffs = self._coeffs(ns)
        y = np.repeat(xs[None], len(ns), axis=0)
        levels = slice(self.head, self.levels)
        # R^n, on the level columns some sample can see
        seen = xs[:, levels].any(axis=0).nonzero()[0]
        if seen.size:
            y[:, :, seen + self.head] *= turns(seen)[:, None]
        # <w_k, P x> per sample and level, each summed over the head in the same order
        # (alpha first: numpy's complex product need not commute bit for bit)
        weights = np.add.reduce(self._alpha * xs[:, None, : self.head], axis=2)
        y[:, :, levels] += coeffs[:, None] * weights
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


def rigidity_defects(op: PerturbedRotation, levels: Iterable[int],
                     samples: Sequence[Vec]) -> list[RigidityDefect]:
    """Worst rotation return error || R^{m_j} x - x || over the samples per level j, from
    one `displacements` call over the times m_j.  Each bound, 2*pi*K times the rational
    coupling sum over k > j, holds for every unit vector: samples should be normalized."""
    levels = list(levels)
    if not all(1 <= j <= op.levels - 1 for j in levels):
        raise ConstructionError(f"levels {levels} not all in 1..{op.levels - 1}")
    for x in samples:
        op.check(x)
    worst = [row.max(initial=0.0) for _, d in displacements(
        op.rotation_part(), [op.modulus.m(j) for j in levels], samples) for row in d]
    return [RigidityDefect(j, float(w), TWO_PI * op.functional_bound * float(exact), exact)
            for j, w, exact in zip(levels, worst, map(op.modulus.coupling_sum, levels))]


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
    dists = [row for _, d in displacements(op, times, vectors) for row in d.tolist()]
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
    worst = np.concatenate([d.max(axis=1) for _, d in displacements(op, times, op.head_basis())])
    i = int(worst.argmin())  # the first minimum
    return ScanReport(float(worst[i]), times[i], len(times))


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
