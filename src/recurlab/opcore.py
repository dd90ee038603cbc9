"""Truncated sequence-space vectors and stock linear operators.

Vectors live on coordinates 1..dim_cap of a complex sequence space with a
p-norm (p in [1, inf]); the canonical coordinate system has basis vectors of
norm one and coordinate functionals of dual norm one, so coordinate reads
are 1-Lipschitz in every supported norm.

Every operator here and `perturbed_rotation.PerturbedRotation` share one
protocol:

- `dim_cap` and `p`: the truncation size and the norm exponent it acts on;
  `check(x)` rejects a vector of another size or norm;
- `powers(ns, X)`: T^n x for a block of natural times and an `(s, dim_cap)`
  stack of samples (`stack(op, samples)`) as a `(len(ns), s, dim_cap)` array,
  the work that does not depend on x done once per block; the one kernel
  every probe reads through `displacements(op, ns, samples)`;
- `losses(ns, X)`: beside it, a `(len(ns), s)` array that upper-bounds the
  mass of T^n x the truncation discarded (zero for maps that never push
  coordinates past dim_cap); `power(n, x)` (an `Applied(vec, loss)` pair)
  and `loss(n, x)` are their one-time, one-sample cases;
- `apply(x)`: one step, `power(1, x)`;
- `cycle()`: `(start, period)` when `powers` gives bit-identical rows for
  all times n, n' >= start with n = n' mod period, `None` when no such cycle
  is known; `displacements` then evaluates each distinct power once;
- `descriptor()`: the JSON-ready identity of the build;
- `norm_bound()`: a conservative upper bound on the operator norm.

Powers are computed in closed form, elementwise in n, so the cost never
depends on the magnitude of the exponent for rotations and permutations.
Exact phases reduce (n * num) mod den exactly (`Moduli.residues`: int64
where it cannot overflow, Python ints otherwise) before one division, on the
columns some sample is nonzero on; plain complex entries are raised by binary
exponentiation (`int_powers`).  `PerturbedRotation` builds R^n and its
perturbation coefficients from one reduction of each time per block: n mod
m_k in int64, or past 2^62 the digits of n on its modulus ladder.
"""

from __future__ import annotations

import cmath
import functools
import itertools
import math
import operator
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Iterator, NamedTuple, Optional, Sequence, Union

import numpy as np

from .natset import RecurlabError

SUP = math.inf

PhaseOrValue = Union[complex, Fraction]


def norm_kind(p: float) -> Union[str, float]:
    """The record spelling of a norm exponent: "sup" or the number itself."""
    return "sup" if p == SUP else p


class OpcoreError(RecurlabError):
    pass


# int64 holds every product n * num below this without overflow
_I64_SAFE = 1 << 62
_I64_MAX = (1 << 63) - 1


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

    def ratio(self, a: np.ndarray, cols=slice(None)) -> np.ndarray:
        """a / den[cols] as float64, den[cols] broadcast along a's last axis."""
        if a.dtype.hasobject:
            return (a / self.objects[cols]).astype(np.float64)
        q = a / self._floats[cols]
        return q if self._shift is None else np.ldexp(q, self._shift[cols])


class Moduli:
    """Exact phases num_j/den_j (den_j > 0), prepared once for blocks of times.

    `residues` reduces n * num_j mod den_j exactly: in int64 while every
    product stays below 2^62 in magnitude, in Python ints otherwise.  Both
    methods take the columns to work on (an index or a boolean mask).
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
        self._unit = all(v == 1 for v in nums)  # phases 1/den_j need no product
        self.dens = Denominators(dens)

    def residues(self, ns: Sequence[int], cols=slice(None)) -> tuple[np.ndarray, np.ndarray]:
        """(r, d): r[t, j] = (ns[t] * num_j) mod den_j, d the moduli in r's dtype."""
        if self._int64 is not None and max(ns, default=0) * self._reach < _I64_SAFE:
            n, (nums, dens) = np.array(ns, dtype=np.int64)[:, None], self._int64
        else:
            n, nums, dens = np.array(ns, dtype=object)[:, None], self._nums, self.dens.objects
        dens = dens[cols]
        return (n if self._unit else n * nums[cols]) % dens, dens

    def turns(self, r: np.ndarray, cols=slice(None)) -> np.ndarray:
        """exp(2*pi*i * r[:, j] / den_j): the unit phases of residues as `residues` returns them."""
        return np.exp(2j * np.pi * self.dens.ratio(r, cols))


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
        # a one-row stack, as `displacements` reads it: numpy raises a 0-d sum
        # to 1/p along another path than an array, which moves the last bit
        return float(row_norms(self.coords[None], self.p)[0])


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


# sum |x|^p is a normal float, with 64 bits to spare, while the p-norm lies
# within 2^(+-_NORMAL_SPAN / p)
_NORMAL_SPAN = 958


def row_norms(rows: np.ndarray, p: float) -> np.ndarray:
    """The p-norm of every row (last axis) of a coordinate array, summed in C
    order whatever its layout: numpy sums in the order of the memory layout.

    A row whose plain sum of |x|^p would leave the normal floats, by underflow
    or overflow, is read again as m * ||x / m||_p, with m its largest modulus.
    """
    if rows.shape[-1] == 0:
        return np.zeros(rows.shape[:-1])
    rows = np.ascontiguousarray(rows)
    with np.errstate(over="ignore"):
        norms = np.linalg.norm(rows, ord=p, axis=-1)
    if p == SUP:
        return norms
    low = 2.0 ** (-_NORMAL_SPAN / p)
    odd = (norms < low) | (norms > 1 / low)
    # the norm of a zero row is exact, so only rows with a nonzero entry are read again
    if odd.any() and (odd := odd & rows.any(axis=-1)).any():
        scale = np.abs(rows[odd]).max(axis=-1)
        scale[scale == SUP] = 1.0  # an infinite row keeps its norm
        norms[odd] = scale * np.linalg.norm(rows[odd] / scale[:, None], ord=p, axis=-1)
    return norms


# rows (times x samples) per kernel call: scratch memory stays at a few
# CHUNK x dim_cap arrays whatever the horizon or the sample count.  Larger
# blocks save little per time on dense sweeps but raise the peak memory of
# multi-sample probes.
CHUNK = 64


def blocks(ns: Iterable[int], size: int = CHUNK) -> Iterator[list[int]]:
    """The times of ns in order, in lists of at most size, also cut where they cross
    2^62: one huge time must not send its neighbours down the Python-int path."""
    times = iter(ns)
    while block := list(itertools.islice(times, size)):
        if max(block) >= _I64_SAFE > min(block):
            yield from (list(run) for _, run in itertools.groupby(block, _I64_SAFE.__gt__))
        else:
            yield block


def stack(op, samples: Sequence[Vec]) -> np.ndarray:
    """The samples as one (s, dim_cap) coordinate stack, each checked by `op.check` first."""
    for x in samples:
        op.check(x)
    return np.array([x.coords for x in samples], dtype=complex).reshape(len(samples), op.dim_cap)


# the largest start + period whose row norms `displacements` keeps, so a
# folded sweep holds at most CYCLE_CAP floats per sample; and the times of a
# folded block, all folded in one numpy step
CYCLE_CAP, FOLD_BLOCK = 1 << 16, 1 << 12


def displacements(op, ns: Iterable[int], samples: Sequence[Vec]) -> Iterator[tuple]:
    """(times, d) for each block of ns in order: the times as an array (int64, or
    Python ints past 2^62) and d[t, i] = || T^n x_i - x_i || at n = times[t], a
    (len(times), s) float array; `op.losses(times, stack(op, samples))` is the
    truncation loss beside it.

    `powers` takes a block of times and the whole stack, at most CHUNK rows in
    all.  When `op.cycle()` gives (start, period) with start + period at most
    CYCLE_CAP, blocks are FOLD_BLOCK times long and each time folds to n if
    n < start, else to start + (n - start) mod period; `powers` sees only the
    folded times not met before, whose row norms are kept for every time that
    folds onto them.  Lazy: a caller that stops early leaves one block unused.
    """
    xs = stack(op, samples)
    rows = max(1, CHUNK // max(1, len(xs)))
    cycle = op.cycle()
    if cycle is None or sum(cycle) > CYCLE_CAP:
        for block in blocks(ns, rows):
            d = _distances(op, block, xs)  # first: `powers` checks the times
            yield np.array(block, dtype=object if max(block) >= _I64_SAFE else np.int64), d
        return
    start, period = cycle
    known = np.zeros(start + period, dtype=bool)
    norms = np.empty((start + period, len(xs)))
    if isinstance(ns, (range, np.ndarray)):  # sliced without len: a range may pass sys.maxsize
        spans = itertools.takewhile(len, (ns[i: i + FOLD_BLOCK]
                                          for i in itertools.count(0, FOLD_BLOCK)))
    else:
        spans = blocks(ns, FOLD_BLOCK)
    for block in spans:
        times, keys = _fold(op, block, xs, start, period)
        fresh = ~known[keys]
        if fresh.any():
            # a Python set, not np.unique: its first call adds 1.6 MB of resident memory
            new = sorted(set(keys[fresh].tolist()))
            for i in range(0, len(new), rows):
                norms[new[i: i + rows]] = _distances(op, new[i: i + rows], xs)
            known[new] = True
        yield times, norms[keys]


def _distances(op, ns: list[int], xs: np.ndarray) -> np.ndarray:
    """|| T^n x - x || as a (len(ns), s) array, from one `powers` call."""
    rows = op.powers(ns, xs)
    rows -= xs
    return row_norms(rows, op.p)


def _fold(op, block, xs: np.ndarray, start: int, period: int) -> tuple[np.ndarray, np.ndarray]:
    """The block's times as an array, and the index of each on the cycle (start, period).

    Natural int64 times fold in numpy, a range without a per-time list.  Any
    other block goes through the operator's own time check first, so a negative
    or non-integral time raises as `powers` would, rather than folding.
    """
    if isinstance(block, range) and max(abs(block.start), abs(block.stop)) < _I64_SAFE:
        n = np.arange(block.start, block.stop, block.step)
    else:
        n = np.asarray(block)
    if n.dtype != np.int64 or n.ndim != 1 or n.min() < 0:
        n = np.array(op._times(block, xs), dtype=object)
    return n, np.minimum(n, (n - start) % period + start).astype(np.intp, copy=False)


class Applied(NamedTuple):
    vec: Vec
    loss: float


class Operator:
    """`power` and `apply` as one-row cases of `powers(ns, X)`, and the shared checks."""

    error: type = OpcoreError

    def check(self, x: Vec) -> None:
        """Raise `error` unless x has the operator's dim_cap and norm exponent."""
        if x.dim_cap != self.dim_cap:
            raise self.error("dimension mismatch")
        if x.p != self.p:
            raise self.error("norm kind mismatch")

    def _times(self, ns: Iterable[int], xs: np.ndarray) -> list[int]:
        """The times as Python ints, once xs is known to be an (s, dim_cap) stack."""
        if xs.ndim != 2 or xs.shape[1] != self.dim_cap:
            raise self.error("dimension mismatch")
        times = [operator.index(n) for n in ns]
        if times and min(times) < 0:
            raise self.error("exponent must be a natural number")
        return times

    def power(self, n: int, x: Vec) -> Applied:
        xs = stack(self, [x])
        return Applied(Vec(self.powers([n], xs)[0, 0], x.p), float(self.losses([n], xs)[0, 0]))

    def apply(self, x: Vec) -> Applied:
        return self.power(1, x)

    def loss(self, n: int, x: Vec) -> float:
        return float(self.losses([n], stack(self, [x]))[0, 0])

    def losses(self, ns: Sequence[int], xs: np.ndarray) -> np.ndarray:
        """The truncation discards nothing by default."""
        return np.zeros((len(ns), len(xs)))

    def cycle(self) -> Optional[tuple[int, int]]:
        """(start, period) with T^n = T^(n + period) bit for bit for n >= start; none by default."""
        return None


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

    def cycle(self) -> Optional[tuple[int, int]]:
        """(0, lcm of the phase denominators) when every entry is an exact phase."""
        return None if self._plain else (0, self._lcm)

    @functools.cached_property
    def _lcm(self) -> int:
        # on first use, not in __post_init__: for a deep modulus ladder the
        # lcm costs as much as building the operator, and only a sweep needs it
        return math.lcm(*self._turns[1].dens.objects.tolist())

    def powers(self, ns: Iterable[int], xs: np.ndarray) -> np.ndarray:
        ns = self._times(ns, xs)
        mults = np.ones((len(ns), self.dim_cap), dtype=np.complex128)
        idx, turns = self._turns
        # only the phases some sample can see
        seen = xs[:, idx].any(axis=0)
        if seen.any():
            mults[:, idx[seen]] = turns.turns(turns.residues(ns, seen)[0], seen)
        for i, v in self._plain:
            mults[:, i] = int_powers(v, ns)
        return xs * mults[:, None, :]

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

    def powers(self, ns: Iterable[int], xs: np.ndarray) -> np.ndarray:
        """Row n is weight^n times the window x_{n+1}, x_{n+2}, ..., zero past the cap."""
        d = self.dim_cap
        steps = np.array([min(n, d) for n in self._times(ns, xs)], dtype=np.int64)
        window = _gather(xs, np.minimum(steps[:, None] + np.arange(d), d))
        # no weight power where nothing is left
        weights = int_powers(self.weight, np.where(steps < d, steps, 0).tolist())
        return weights[:, None, None] * window

    def cycle(self) -> tuple[int, int]:
        """Nilpotent: every row from n = dim_cap on is zero."""
        return self.dim_cap, 1

    def descriptor(self) -> dict:
        w = complex(self.weight)
        return {"variant": "backward-shift", "weight": [w.real, w.imag],
                "dimCap": self.dim_cap, "normKind": norm_kind(self.p)}

    def norm_bound(self) -> float:
        return abs(self.weight)


def _gather(xs: np.ndarray, src: np.ndarray) -> np.ndarray:
    """out[t, i, j] = xs[i, src[t, j]], reading zero where src[t, j] is dim_cap."""
    return np.concatenate((xs, np.zeros((len(xs), 1))), axis=1)[:, src].swapaxes(0, 1)


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

    def powers(self, ns: Iterable[int], xs: np.ndarray) -> np.ndarray:
        """Row n gathers each coordinate from n slots back in its block."""
        ns = self._times(ns, xs)
        d, lo = self.dim_cap, self._lo
        turn = np.array([n % self._period for n in ns], dtype=np.int64)[:, None]
        walk = np.array([min(n, d) for n in ns], dtype=np.int64)[:, None]
        j = np.arange(d)
        src = np.where(self._cut, j - walk, lo + (j - lo - turn) % self._size)
        # a cut block has nothing to gather from before its start
        return _gather(xs, np.where(src >= lo, src, d))

    def losses(self, ns: Iterable[int], xs: np.ndarray) -> np.ndarray:
        """Norm of the coordinates of cut blocks that n steps push past dim_cap."""
        d = self.dim_cap
        walk = np.array([min(n, d) for n in self._times(ns, xs)], dtype=np.int64)[:, None]
        gone = self._cut & (np.arange(1, d + 1) + walk > d)
        return row_norms(np.where(gone[:, None], xs, 0), self.p)

    def cycle(self) -> tuple[int, int]:
        """Periodic in the whole blocks; a cut block is empty from n = dim_cap on."""
        return (self.dim_cap if self._cut.any() else 0), self._period

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
    xs = stack(op, [x])
    rows = np.empty((depth, x.dim_cap), dtype=np.complex128)
    for block in blocks(range(depth)):
        rows[block[0]: block[-1] + 1] = op.powers(block, xs)[:, 0]
    svals = np.linalg.svd(rows, compute_uv=False)
    if svals.size == 0 or svals[0] == 0.0:
        return 0
    return int(np.count_nonzero(svals > tol * svals[0]))
