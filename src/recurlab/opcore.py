"""Truncated sequence-space vectors and stock linear operators.

Vectors live on coordinates 1..dim_cap of a complex sequence space with a
p-norm (p in [1, inf]); the canonical coordinate system has basis vectors of
norm one and coordinate functionals of dual norm one, so coordinate reads
are 1-Lipschitz in every supported norm.

Every operator here and `perturbed_rotation.PerturbedRotation` share one
protocol:

- `dim_cap` and `p`: the truncation size and the norm exponent it acts on;
- `powers(ns, x)`: the rows T^n x for a block of natural times, as a
  `(len(ns), dim_cap)` complex array; the one kernel every probe runs on,
  through `displacements(op, ns, x)`, which feeds it CHUNK times at a time;
- `power(n, x)`: its one-row case, an `Applied(vec, loss)` pair with
  `loss(n, x)` beside it, where `loss` upper-bounds whatever mass the
  truncation discarded (exactly zero for maps that never push coordinates
  past dim_cap);
- `apply(x)`: one step, `power(1, x)`;
- `descriptor()`: the JSON-ready identity of the build;
- `norm_bound()`: a conservative upper bound on the operator norm.

Powers are computed in closed form, elementwise in n, so the cost never
depends on the magnitude of the exponent for rotations and permutations.
Exact phases reduce (n * num) mod den exactly (`Moduli.residues`: int64
where it cannot overflow, Python ints otherwise) before one division;
plain complex entries are raised by binary exponentiation (`int_powers`).
`PerturbedRotation` reduces n mod m_k once per block and builds both R^n
(`Moduli.turns`, as its `rotation_part()` does) and its perturbation
coefficients from those residues.
"""

from __future__ import annotations

import cmath
import itertools
import math
import operator
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Iterator, NamedTuple, Optional, Sequence, Union

import numpy as np

from .natset import NatSet

SUP = math.inf

PhaseOrValue = Union[complex, Fraction]


def norm_kind(p: float) -> Union[str, float]:
    """The record spelling of a norm exponent: "sup" or the number itself."""
    return "sup" if p == SUP else p


class OpcoreError(ValueError):
    pass


# int64 holds every product n * num below this without overflow
_I64_SAFE = 1 << 62
_I64_MAX = (1 << 63) - 1


def natural_times(ns: Iterable[int], error: type) -> list[int]:
    """The times as Python ints; a negative one raises `error`."""
    times = [operator.index(n) for n in ns]
    if times and min(times) < 0:
        raise error("exponent must be a natural number")
    return times


class Denominators:
    """Integers den_j > 0 to divide column j of an integer array by.

    `ratio` is int/int true division, correctly rounded, for Python ints; for
    int64, division by den_j rounded to a float (cut by a power of two first
    when it is past float range), which lands within two ulps of that.
    """

    def __init__(self, dens: Sequence[int]) -> None:
        self.objects = np.array(dens, dtype=object)
        shift = [max(0, d.bit_length() - 1000) for d in dens]
        self._floats = np.array([float(d >> s) for d, s in zip(dens, shift)])
        self._shift = -np.array(shift, dtype=np.int64) if any(shift) else None

    def ratio(self, a: np.ndarray) -> np.ndarray:
        """a[:, j] / den_j as float64."""
        if a.dtype == object:
            return (a / self.objects).astype(np.float64)
        q = a / self._floats
        return q if self._shift is None else np.ldexp(q, self._shift)


class Moduli:
    """Exact phases num_j/den_j (den_j > 0), prepared once for blocks of times.

    `residues` reduces n * num_j mod den_j exactly: in int64 while every
    product stays below 2^62 in magnitude, in Python ints otherwise.
    """

    def __init__(self, nums: Sequence[int], dens: Sequence[int]) -> None:
        self._reach = max(map(abs, nums), default=0)
        # a modulus past int64 exceeds every int64 product and leaves it as it
        # is, so it is clipped; a negative num needs its true modulus
        self._int64 = None
        if self._reach < _I64_SAFE and all(v >= 0 or d <= _I64_MAX for v, d in zip(nums, dens)):
            self._int64 = (np.array(nums, dtype=np.int64),
                           np.array([min(d, _I64_MAX) for d in dens], dtype=np.int64))
        self._nums = np.array(nums, dtype=object)
        self.dens = Denominators(dens)

    def residues(self, ns: Sequence[int]) -> tuple[np.ndarray, np.ndarray]:
        """(r, d): r[t, j] = (ns[t] * num_j) mod den_j, d the moduli in r's dtype."""
        if self._int64 is not None and max(ns, default=0) * self._reach < _I64_SAFE:
            nums, dens = self._int64
            return np.array(ns, dtype=np.int64)[:, None] * nums % dens, dens
        dens = self.dens.objects
        return np.array(ns, dtype=object)[:, None] * self._nums % dens, dens

    def turns(self, r: np.ndarray) -> np.ndarray:
        """exp(2*pi*i * r[:, j] / den_j): the unit phases of residues as `residues` returns them."""
        return np.exp(2j * np.pi * self.dens.ratio(r))


def int_powers(v: complex, ns: Sequence[int]) -> np.ndarray:
    """v ** n for every natural n in ns, by binary exponentiation.

    The products are those of CPython's `c_powu`, in the same order, so for
    n <= 100, where `complex.__pow__` uses it, the values are bit-identical.
    Past that CPython goes through a float exponent, which loses the phase of
    a unit v (`1j ** 101` has real part 4.4e-15); here +-1 and +-1j stay exact.
    """
    top = max(ns, default=0)
    n = np.array(ns, dtype=np.int64 if top <= _I64_MAX else object)
    re, im = np.ones(len(ns)), np.zeros(len(ns))
    p = complex(v)
    with np.errstate(all="ignore"):  # only rows whose bit is set keep a product
        for k in range(top.bit_length()):
            hit = ((n >> k) & 1).astype(bool)
            re, im = (np.where(hit, re * p.real - im * p.imag, re),
                      np.where(hit, re * p.imag + im * p.real, im))
            p = p * p
    if cmath.isfinite(v) and not (np.isfinite(re).all() and np.isfinite(im).all()):
        raise OverflowError("complex exponentiation")
    out = np.empty(len(ns), dtype=np.complex128)
    out.real, out.imag = re, im
    return out


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


def row_norms(rows: np.ndarray, p: float) -> np.ndarray:
    """`Vec.norm` of every row of a 2-D coordinate array."""
    if rows.shape[1] == 0:
        return np.zeros(len(rows))
    return np.linalg.norm(rows, ord=p, axis=1)


# times per kernel call: scratch memory stays at a few CHUNK x dim_cap arrays
# whatever the horizon.  Larger blocks save little per time on dense sweeps
# but raise the peak memory of multi-sample probes, and one time past 2^62
# sends the whole block down the Python-int path.
CHUNK = 64


def blocks(ns: Iterable[int]) -> Iterator[list[int]]:
    """The times of ns in order, in lists of at most CHUNK."""
    times = iter(ns)
    while block := list(itertools.islice(times, CHUNK)):
        yield block


def displacements(op, ns: Iterable[int], x: Vec) -> Iterator[float]:
    """|| T^n x - x || for each n of ns in order, one block of times per `powers` call.

    Lazy: a caller that stops reading early leaves at most one block unused.
    """
    for block in blocks(ns):
        yield from row_norms(op.powers(block, x) - x.coords, x.p).tolist()


class Applied(NamedTuple):
    vec: Vec
    loss: float


class Operator:
    """`power(n, x)` as the one-row case of the operator's `powers(ns, x)`, and
    `apply(x)` as `power(1, x)`."""

    def power(self, n: int, x: Vec) -> Applied:
        return Applied(Vec(self.powers([n], x)[0], x.p), self.loss(n, x))

    def apply(self, x: Vec) -> Applied:
        return self.power(1, x)

    def loss(self, n: int, x: Vec) -> float:
        """Upper bound on the mass of T^n x the truncation discards: none by default."""
        return 0.0


def _check_dim(op, x: Vec) -> None:
    if x.dim_cap != op.dim_cap:
        raise OpcoreError("dimension mismatch")


@dataclass(frozen=True, eq=False)
class Diagonal(Operator):
    """Coordinatewise multiplication.

    Entries given as Fractions are exact rotation phases: a Fraction q stands
    for exp(2*pi*i*q), and powers reduce the accumulated phase modulo one in
    exact integer arithmetic.  Plain complex entries are powered numerically.
    """

    entries: tuple[PhaseOrValue, ...]
    p: float = 2.0

    def __post_init__(self) -> None:
        # what powers move: exact phases other than whole turns, as (indices,
        # numerators, denominators), and plain values
        turns = [(i, e.numerator, e.denominator) for i, e in enumerate(self.entries)
                 if isinstance(e, Fraction) and e.denominator > 1]
        plain = [(i, complex(e)) for i, e in enumerate(self.entries)
                 if not isinstance(e, Fraction)]
        idx, nums, dens = tuple(map(list, zip(*turns))) or ([], [], [])
        object.__setattr__(self, "_turns", (np.array(idx, dtype=np.intp), Moduli(nums, dens)))
        object.__setattr__(self, "_plain", plain)

    @property
    def dim_cap(self) -> int:
        return len(self.entries)

    def powers(self, ns: Iterable[int], x: Vec) -> np.ndarray:
        _check_dim(self, x)
        ns = natural_times(ns, OpcoreError)
        mults = np.ones((len(ns), self.dim_cap), dtype=np.complex128)
        idx, turns = self._turns
        if len(idx):
            mults[:, idx] = turns.turns(turns.residues(ns)[0])
        for i, v in self._plain:
            mults[:, i] = int_powers(v, ns)
        return x.coords * mults

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
class WeightedBackwardShift(Operator):
    """e_k maps to weight * e_{k-1}, and e_1 maps to zero."""

    weight: complex
    dim_cap: int
    p: float = 2.0

    def powers(self, ns: Iterable[int], x: Vec) -> np.ndarray:
        """Row n is weight^n times the window x_{n+1}, x_{n+2}, ..., zero past the cap."""
        _check_dim(self, x)
        d = self.dim_cap
        steps = np.array([min(n, d) for n in natural_times(ns, OpcoreError)], dtype=np.int64)
        window = np.append(x.coords, 0)[np.minimum(steps[:, None] + np.arange(d), d)]
        # no weight power where nothing is left
        return int_powers(self.weight, np.where(steps < d, steps, 0).tolist())[:, None] * window

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
class BlockPermutationIsometry(Operator):
    """Cyclic forward shift on each dyadic block {2^m + 1, ..., 2^{m+1}}.

    Coordinate 1 is fixed; inside a block each coordinate moves forward one
    slot and the block top wraps to the block bottom.  Blocks cut by dim_cap
    cannot wrap, so mass walking off the cap is dropped and reported.
    """

    dim_cap: int
    p: float = 2.0

    def __post_init__(self) -> None:
        # per coordinate: the 0-based start and the length of its block, and
        # whether dim_cap cuts the block
        spans = ([(1, 1)] + [_block_of(k) for k in range(2, self.dim_cap + 1)])[: self.dim_cap]
        cut = np.array([hi > self.dim_cap for _, hi in spans], dtype=bool)
        object.__setattr__(self, "_lo", np.array([lo - 1 for lo, _ in spans], dtype=np.int64))
        object.__setattr__(self, "_size", np.array([hi - lo + 1 for lo, hi in spans],
                                                   dtype=np.int64))
        object.__setattr__(self, "_cut", cut)
        # every whole cycle length divides the longest one
        object.__setattr__(self, "_period", int(self._size[~cut].max(initial=1)))

    def powers(self, ns: Iterable[int], x: Vec) -> np.ndarray:
        """Row n gathers each coordinate from n slots back in its block."""
        _check_dim(self, x)
        ns = natural_times(ns, OpcoreError)
        d, lo = self.dim_cap, self._lo
        turn = np.array([n % self._period for n in ns], dtype=np.int64)[:, None]
        walk = np.array([min(n, d) for n in ns], dtype=np.int64)[:, None]
        j = np.arange(d)
        src = np.where(self._cut, j - walk, lo + (j - lo - turn) % self._size)
        # a cut block has nothing to gather from before its start
        return np.append(x.coords, 0)[np.where(src >= lo, src, d)]

    def loss(self, n: int, x: Vec) -> float:
        """Norm of the coordinates of cut blocks that n steps push past dim_cap."""
        _check_dim(self, x)
        gone = self._cut & (np.arange(1, self.dim_cap + 1) + min(n, self.dim_cap) > self.dim_cap)
        return Vec(np.where(gone, x.coords, 0), x.p).norm()

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
