"""Truncated sequence-space vectors and stock linear operators.

Vectors live on coordinates 1..dim_cap of a complex sequence space with a
p-norm (p in [1, inf]); the canonical coordinate system has basis vectors of
norm one and coordinate functionals of dual norm one, so coordinate reads
are 1-Lipschitz in every supported norm.

Every operator here and `perturbed_rotation.PerturbedRotation` share one
protocol:

- `dim_cap` and `p`: the truncation size and the norm exponent it acts on;
- `apply(x)` and `power(n, x)`: both return an `Applied(vec, loss)` pair,
  where `loss` upper-bounds whatever mass the truncation discarded (exactly
  zero for maps that never push coordinates past dim_cap);
- `descriptor()`: the JSON-ready identity of the build;
- `norm_bound()`: a conservative upper bound on the operator norm.

Powers are computed in closed form wherever the structure allows it, so the
cost never depends on the magnitude of the exponent for rotations and
permutations.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import NamedTuple, Optional, Sequence, Union

import numpy as np

from .natset import NatSet

SUP = math.inf

PhaseOrValue = Union[complex, Fraction]


def norm_kind(p: float) -> Union[str, float]:
    """The record spelling of a norm exponent: "sup" or the number itself."""
    return "sup" if p == SUP else p


def unit_phase(q: Fraction) -> complex:
    """exp(2*pi*i*q), with q reduced modulo one exactly before any float enters."""
    return cmath.exp(2j * math.pi * float(q % 1))


class OpcoreError(ValueError):
    pass


@dataclass(frozen=True, eq=False)
class Vec:
    """Complex coordinates 1..dim_cap (stored 0-based) with a norm exponent."""

    coords: np.ndarray
    p: float = 2.0

    def __post_init__(self) -> None:
        if self.p != SUP and self.p < 1:
            raise OpcoreError("norm exponent must be >= 1 or sup")
        object.__setattr__(self, "coords", np.asarray(self.coords, dtype=np.complex128))

    @property
    def dim_cap(self) -> int:
        return len(self.coords)

    def norm(self) -> float:
        if self.p == SUP:
            return float(np.max(np.abs(self.coords))) if len(self.coords) else 0.0
        return float(np.linalg.norm(self.coords, ord=self.p))

    def coord(self, k: int) -> complex:
        """1-based coordinate read."""
        if not 1 <= k <= self.dim_cap:
            raise OpcoreError(f"coordinate {k} outside 1..{self.dim_cap}")
        return complex(self.coords[k - 1])

    def to_json_dict(self) -> dict:
        return {
            "dimCap": self.dim_cap,
            "normKind": norm_kind(self.p),
            "coords": [[float(c.real), float(c.imag)] for c in self.coords],
        }

    @staticmethod
    def from_json_dict(d: dict) -> "Vec":
        p = SUP if d["normKind"] == "sup" else float(d["normKind"])
        coords = np.array([complex(re, im) for re, im in d["coords"]], dtype=np.complex128)
        if len(coords) != d["dimCap"]:
            raise OpcoreError("coordinate count disagrees with dimCap")
        return Vec(coords, p)


def zero_vec(dim_cap: int, p: float = 2.0) -> Vec:
    return Vec(np.zeros(dim_cap, dtype=np.complex128), p)


def basis_vec(k: int, dim_cap: int, p: float = 2.0) -> Vec:
    if not 1 <= k <= dim_cap:
        raise OpcoreError(f"basis index {k} outside 1..{dim_cap}")
    c = np.zeros(dim_cap, dtype=np.complex128)
    c[k - 1] = 1.0
    return Vec(c, p)


def vec_of(entries: Sequence[complex], dim_cap: Optional[int] = None, p: float = 2.0) -> Vec:
    """Vector from a leading-coordinate list, zero-padded to dim_cap."""
    n = dim_cap if dim_cap is not None else len(entries)
    if len(entries) > n:
        raise OpcoreError("more entries than dim_cap")
    c = np.zeros(n, dtype=np.complex128)
    c[: len(entries)] = np.asarray(entries, dtype=np.complex128)
    return Vec(c, p)


def dyadic_comb(dim_cap: int, p: float = 2.0) -> Vec:
    """The vector sum of 2^-m at coordinate 2^m + 1, for all blocks that fit."""
    c = np.zeros(dim_cap, dtype=np.complex128)
    m = 0
    while (1 << m) + 1 <= dim_cap:
        c[(1 << m)] = 2.0 ** (-m)
        m += 1
    return Vec(c, p)


def distance(x: Vec, y: Vec) -> float:
    if x.dim_cap != y.dim_cap:
        raise OpcoreError("dimension mismatch")
    if x.p != y.p:
        raise OpcoreError("norm kind mismatch")
    return Vec(x.coords - y.coords, x.p).norm()


class Applied(NamedTuple):
    vec: Vec
    loss: float


def _phase_to_complex(entry: PhaseOrValue) -> complex:
    return unit_phase(entry) if isinstance(entry, Fraction) else complex(entry)


def _check_dim(op, x: Vec) -> None:
    if x.dim_cap != op.dim_cap:
        raise OpcoreError("dimension mismatch")


@dataclass(frozen=True, eq=False)
class Diagonal:
    """Coordinatewise multiplication.

    Entries given as Fractions are exact rotation phases: a Fraction q stands
    for exp(2*pi*i*q), and powers reduce the accumulated phase modulo one in
    exact integer arithmetic.  Plain complex entries are powered numerically.
    """

    entries: tuple[PhaseOrValue, ...]
    p: float = 2.0

    @property
    def dim_cap(self) -> int:
        return len(self.entries)

    def _values(self) -> np.ndarray:
        return np.array([_phase_to_complex(e) for e in self.entries], dtype=np.complex128)

    def apply(self, x: Vec) -> Applied:
        _check_dim(self, x)
        return Applied(Vec(x.coords * self._values(), x.p), 0.0)

    def power(self, n: int, x: Vec) -> Applied:
        _check_dim(self, x)
        if n < 0:
            raise OpcoreError("exponent must be a natural number")
        if n == 0:
            return Applied(Vec(x.coords.copy(), x.p), 0.0)
        mults = np.empty(self.dim_cap, dtype=np.complex128)
        for i, e in enumerate(self.entries):
            if isinstance(e, Fraction):
                mults[i] = unit_phase(n * e)
            else:
                mults[i] = complex(e) ** n
        return Applied(Vec(x.coords * mults, x.p), 0.0)

    def descriptor(self) -> dict:
        ents = []
        for e in self.entries:
            if isinstance(e, Fraction):
                ents.append({"phase": {"num": e.numerator, "den": e.denominator}})
            else:
                ents.append({"value": [e.real, e.imag]})
        return {"variant": "diagonal", "entries": ents, "normKind": norm_kind(self.p)}

    def norm_bound(self) -> float:
        mods = [1.0 if isinstance(e, Fraction) else abs(complex(e)) for e in self.entries]
        return max(mods) if mods else 0.0


def diagonal_rotation(phases: Sequence[Fraction], dim_cap: Optional[int] = None,
                      p: float = 2.0) -> Diagonal:
    """Diagonal with exact unit phases, identity-padded to dim_cap."""
    ents: list[PhaseOrValue] = list(phases)
    n = dim_cap if dim_cap is not None else len(ents)
    if len(ents) > n:
        raise OpcoreError("more phases than dim_cap")
    ents += [Fraction(0)] * (n - len(ents))
    return Diagonal(tuple(ents), p)


@dataclass(frozen=True, eq=False)
class WeightedBackwardShift:
    """e_k maps to weight * e_{k-1}, and e_1 maps to zero."""

    weight: complex
    dim_cap: int
    p: float = 2.0

    def apply(self, x: Vec) -> Applied:
        _check_dim(self, x)
        y = np.zeros(self.dim_cap, dtype=np.complex128)
        y[:-1] = self.weight * x.coords[1:]
        return Applied(Vec(y, x.p), 0.0)

    def power(self, n: int, x: Vec) -> Applied:
        _check_dim(self, x)
        if n < 0:
            raise OpcoreError("exponent must be a natural number")
        y = np.zeros(self.dim_cap, dtype=np.complex128)
        if n == 0:
            y[:] = x.coords
        elif n < self.dim_cap:
            y[: self.dim_cap - n] = (complex(self.weight) ** n) * x.coords[n:]
        return Applied(Vec(y, x.p), 0.0)

    def descriptor(self) -> dict:
        w = complex(self.weight)
        return {"variant": "backward-shift", "weight": [w.real, w.imag],
                "dimCap": self.dim_cap, "normKind": norm_kind(self.p)}

    def norm_bound(self) -> float:
        return abs(self.weight)


def _block_of(k: int) -> tuple[int, int]:
    """(lo, hi) of the dyadic block containing coordinate k >= 2."""
    m = (k - 1).bit_length() - 1
    return (1 << m) + 1, 1 << (m + 1)


@dataclass(frozen=True, eq=False)
class BlockPermutationIsometry:
    """Cyclic forward shift on each dyadic block {2^m + 1, ..., 2^{m+1}}.

    Coordinate 1 is fixed; inside a block each coordinate moves forward one
    slot and the block top wraps to the block bottom.  Blocks cut by dim_cap
    cannot wrap, so mass walking off the cap is dropped and reported.
    """

    dim_cap: int
    p: float = 2.0

    def apply(self, x: Vec) -> Applied:
        return self.power(1, x)

    def power(self, n: int, x: Vec) -> Applied:
        _check_dim(self, x)
        if n < 0:
            raise OpcoreError("exponent must be a natural number")
        y = np.zeros(self.dim_cap, dtype=np.complex128)
        dropped = np.zeros(self.dim_cap, dtype=np.complex128)
        if n == 0:
            y[:] = x.coords
            return Applied(Vec(y, x.p), 0.0)
        for k in range(1, self.dim_cap + 1):
            v = x.coords[k - 1]
            if v == 0:
                continue
            if k == 1:
                y[0] += v
                continue
            lo, hi = _block_of(k)
            if hi <= self.dim_cap:
                pos = lo + (k - lo + n) % (hi - lo + 1)
                y[pos - 1] += v
            else:
                pos = k + n
                if pos <= self.dim_cap:
                    y[pos - 1] += v
                else:
                    dropped[k - 1] = v
        loss = Vec(dropped, x.p).norm()
        return Applied(Vec(y, x.p), loss)

    def descriptor(self) -> dict:
        return {"variant": "block-permutation", "dimCap": self.dim_cap,
                "normKind": norm_kind(self.p)}

    def norm_bound(self) -> float:
        return 1.0


def krylov_rank(op, x: Vec, depth: int, tol: float = 1e-9) -> int:
    """Numerical rank of the orbit slab [x, T x, ..., T^{depth-1} x].

    Rank counts singular values above tol times the largest one; the zero
    vector has rank 0.
    """
    if depth < 1:
        raise OpcoreError("depth must be >= 1")
    rows = np.zeros((depth, x.dim_cap), dtype=np.complex128)
    cur = x
    for i in range(depth):
        rows[i] = cur.coords
        if i + 1 < depth:
            cur = op.apply(cur).vec
    svals = np.linalg.svd(rows, compute_uv=False)
    if svals.size == 0 or svals[0] == 0.0:
        return 0
    return int(np.count_nonzero(svals > tol * svals[0]))


def unimodular_eigen_indices(op, tol: float = 1e-9) -> NatSet:
    """1-based diagonal positions whose entry has modulus within tol of 1."""
    if not isinstance(op, Diagonal):
        raise OpcoreError("unimodular index scan supports diagonal operators only")
    idx = []
    for i, e in enumerate(op.entries, start=1):
        if isinstance(e, Fraction):
            idx.append(i)  # exact unit phase
        elif abs(abs(complex(e)) - 1.0) <= tol:
            idx.append(i)
    return NatSet(tuple(idx), op.dim_cap)
