"""Reference computations that the benchmark checks the program against.

Nothing here imports recurlab.  Each function recomputes a quantity along a
different path from the one the program takes:

* the operator as a dense numpy matrix built from the ladder and the grid
  layout, iterated step by step (the program uses closed-form powers);
* phase sums as geometric series evaluated in mpmath at a precision scaled
  to the modulus (the program uses a folded-sine form in floats);
* the ladder from its recurrence and the descriptor hash from the
  descriptor;
* densities by a numpy cumulative-sum recount, and the longest arithmetic
  progression by a dense dynamic programme over middle elements.
"""

from __future__ import annotations

import cmath
import hashlib
import json
import math
from fractions import Fraction
from typing import Optional, Sequence

import mpmath
import numpy as np

from inputs import growth, ladder

MESH_SCHEDULE = ("1", "1/2", "1/4", "1/10", "1/20", "1/100", "1/200")
MESH_VALUES = tuple(float(Fraction(m)) for m in MESH_SCHEDULE)
KNIFE_EDGE = 1e-9


class CheckError(AssertionError):
    """An output of the program disagrees with its reference."""


def require(cond: bool, message: str) -> None:
    if not cond:
        raise CheckError(message)


# ---------------------------------------------------------------------------
# the perturbed rotation, rebuilt from its definition

def default_levels(fold: int, mesh_groups: int = len(MESH_SCHEDULE)) -> int:
    # one head coordinate functional per level in each mesh group
    return (fold + 1) * (mesh_groups + 1)


def default_alpha(fold: int, mesh_groups: int = len(MESH_SCHEDULE)) -> list[tuple[int, int, float]]:
    """(level, head index of the unit functional, mesh) of the stock grid."""
    head = fold + 1
    return [(head + 1 + g * head + i, i, MESH_VALUES[g])
            for g in range(mesh_groups) for i in range(head)]


def coupling_sum(m: Sequence[int], j: int) -> Fraction:
    """m_j * sum_{k>j} 1/m_k over the built levels plus the growth-rule tail."""
    levels = len(m)
    total = sum((Fraction(m[j - 1], m[k - 1]) for k in range(j + 1, levels + 1)),
                Fraction(0))
    g0, g1 = growth(levels), growth(levels + 1)
    return total + Fraction(m[j - 1], m[-1] * g0) * (1 + Fraction(2, g1))


def descriptor(fold: int, dim_cap: int, levels: int) -> dict:
    """The descriptor of the stock operator (no targets)."""
    return {"variant": "perturbed-rotation", "foldN": fold, "levels": levels,
            "growthRule": "dyadic-sq", "meshSchedule": list(MESH_SCHEDULE), "targets": [],
            "dimCap": max(dim_cap, levels), "normKind": 2.0, "functionalBound": 1.0}


def descriptor_hash(desc: dict) -> str:
    text = json.dumps(desc, sort_keys=True, separators=(",", ":"), ensure_ascii=True)
    return hashlib.sha256(text.encode("ascii")).hexdigest()


def _phase(num: int, den: int) -> complex:
    r = num % den
    return 1.0 + 0j if r == 0 else cmath.exp(2j * math.pi * r / den)


def dense_perturbed(fold: int, dim: int, mesh_groups: int = len(MESH_SCHEDULE)) -> np.ndarray:
    """T = R + coupling as a dense matrix on the stock grid."""
    head = fold + 1
    levels = default_levels(fold, mesh_groups)
    m = ladder(fold, levels)
    t = np.zeros((dim, dim), dtype=np.complex128)
    for k in range(1, dim + 1):
        t[k - 1, k - 1] = _phase(1, m[k - 1]) if k <= levels else 1.0
    for level, i, _ in default_alpha(fold, mesh_groups):
        t[level - 1, i] += 1.0 / m[level - 2]
    return t


def dense_diagonal(phases: Sequence[Fraction]) -> np.ndarray:
    return np.diag([_phase(q.numerator, q.denominator) for q in phases])


def dense_backward_shift(weight: float, dim: int) -> np.ndarray:
    t = np.zeros((dim, dim), dtype=np.complex128)
    for k in range(1, dim):
        t[k - 1, k] = weight
    return t


def dense_block_permutation(dim: int) -> np.ndarray:
    """Cyclic forward shift on each dyadic block {2^m+1..2^(m+1)}; e_1 fixed."""
    t = np.zeros((dim, dim), dtype=np.complex128)
    t[0, 0] = 1.0
    lo = 2
    while lo <= dim:
        hi = 2 * (lo - 1)
        for k in range(lo, hi + 1):
            if k > dim:
                break
            if hi <= dim:
                dest = k + 1 if k < hi else lo
            else:
                dest = k + 1
            if dest <= dim:
                t[dest - 1, k - 1] = 1.0
        lo = hi + 1
    return t


def dyadic_comb(dim: int) -> np.ndarray:
    c = np.zeros(dim, dtype=np.complex128)
    m = 0
    while (1 << m) + 1 <= dim:
        c[1 << m] = 2.0 ** (-m)
        m += 1
    return c


def iterate_orbit(t: np.ndarray, x: np.ndarray, horizon: int) -> np.ndarray:
    """Rows T^n x for n = 0..horizon by repeated multiplication."""
    out = np.empty((horizon + 1, len(x)), dtype=np.complex128)
    y = x.astype(np.complex128)
    for n in range(horizon + 1):
        out[n] = y
        y = t @ y
    return out


def knife_edge_split(values: np.ndarray, eps: float) -> tuple[set, set]:
    """(times strictly inside eps, times too close to eps to decide)."""
    inside = set(int(n) for n in np.nonzero(values < eps - KNIFE_EDGE)[0])
    edge = set(int(n) for n in np.nonzero(np.abs(values - eps) <= KNIFE_EDGE)[0])
    return inside, edge


def check_set(got: Sequence[int], inside: set, edge: set, what: str) -> None:
    got_set = set(got)
    missing = inside - got_set
    extra = got_set - inside - edge
    require(not missing and not extra,
            f"{what}: missing {sorted(missing)[:5]}, unexpected {sorted(extra)[:5]}")


# ---------------------------------------------------------------------------
# phase sums in mpmath

def _mp_phase_sum(r: int, m: int):
    """1 + w + ... + w^(r-1) for w = exp(2 pi i / m), at a precision that
    keeps the tiny angle 2 pi / m significant."""
    with mpmath.workdps(30 + len(str(m))):
        w = mpmath.expjpi(mpmath.mpf(2) / m)
        wr = mpmath.expjpi(mpmath.mpf(2 * r) / m)
        return (1 - wr) / (1 - w)


def head_displacement_mp(m: Sequence[int], alpha: Sequence[tuple[int, Sequence[complex]]],
                         x_head: Sequence[complex], n: int) -> float:
    """|| T^n x - x ||_2 for x supported on the head block.

    alpha lists (level, head coefficients); the deep coordinate at level k
    picks up S_k(n) / m_{k-1} * <alpha_k, x_head>.
    """
    total = mpmath.mpf(0)
    for level, coeffs in alpha:
        mk = m[level - 1]
        r = n % mk
        if r == 0:
            continue
        dot = sum(complex(a) * complex(xv) for a, xv in zip(coeffs, x_head))
        if dot == 0:
            continue
        s = _mp_phase_sum(r, mk)
        with mpmath.workdps(30 + len(str(mk))):
            total += abs(s * mpmath.mpc(dot) / m[level - 2]) ** 2
    return float(mpmath.sqrt(total))


def head_basis_defect_mp(fold: int, n: int) -> float:
    """max_i || T^n e_i - e_i || over the head basis of the stock operator."""
    head = fold + 1
    m = ladder(fold, default_levels(fold))
    rows = [(level, tuple(1.0 if j == i else 0.0 for j in range(head)))
            for level, i, _ in default_alpha(fold)]
    return max(head_displacement_mp(m, rows, [1.0 if j == i else 0.0 for j in range(head)], n)
               for i in range(head))


def rotation_defect_mp(m: Sequence[int], x: Sequence[complex], n: int) -> float:
    """|| R^n x - x ||_2 with |w^r - 1| = 2 |sin(pi r / m)| in mpmath."""
    total = mpmath.mpf(0)
    for k, xk in enumerate(x, start=1):
        if xk == 0 or k > len(m):
            continue
        mk = m[k - 1]
        r = n % mk
        if r == 0:
            continue
        with mpmath.workdps(30 + len(str(mk))):
            total += (2 * mpmath.sin(mpmath.pi * mpmath.mpf(r) / mk)) ** 2 * abs(complex(xk)) ** 2
    return float(mpmath.sqrt(total))


def rotation_defect_float(m: Sequence[int], x: np.ndarray, n: int) -> float:
    """Float version of rotation_defect_mp, with r = n mod m_k exact."""
    total = 0.0
    for k in np.nonzero(x)[0]:
        if k < len(m):
            r = n % m[k]
            total += (2.0 * math.sin(math.pi * (r / m[k]))) ** 2 * abs(x[k]) ** 2
    return math.sqrt(total)


def head_basis_defect_float(fold: int, n: int, m: Sequence[int]) -> float:
    """Float version of head_basis_defect_mp for scanning many candidates:
    |S_k(n)| = |sin(pi r / m_k)| / sin(pi / m_k), with r = n mod m_k exact."""
    head = fold + 1
    sums = [0.0] * head
    for level, i, _ in default_alpha(fold):
        mk = m[level - 1]
        r = n % mk
        if r == 0:
            continue
        mag = abs(math.sin(math.pi * float(Fraction(r, mk)))) / (
            math.sin(math.pi * float(Fraction(1, mk))) * float(m[level - 2]))
        sums[i] += mag * mag
    return math.sqrt(max(sums))


def close(a: float, b: float, rel: float = 1e-9, abs_tol: float = 1e-12) -> bool:
    return abs(a - b) <= max(rel * max(abs(a), abs(b)), abs_tol)


# ---------------------------------------------------------------------------
# natural-number sets

def density_recount(els: Sequence[int], horizon: int, window: int) -> dict:
    """The density block of docs/SCHEMAS.md, recounted with numpy cumsums."""
    ind = np.zeros(horizon + 1, dtype=np.int64)
    if len(els):
        ind[np.asarray(els, dtype=np.int64)] = 1
    cums = np.concatenate(([0], np.cumsum(ind)))  # cums[i + 1] == #{e <= i}
    wc = cums[window + 1:] - cums[1:horizon - window + 2]
    ns = np.arange(window, horizon + 1, dtype=np.int64)
    cs = cums[ns + 1] - int(ind[0])  # 0 itself is not counted

    def extremum(sign):
        ratios = cs / ns
        i = int(np.argmax(ratios)) if sign > 0 else int(np.argmin(ratios))
        while True:  # exact integer fix-up of the float ranking
            c0, n0 = int(cs[i]), int(ns[i])
            better = (cs * n0 > c0 * ns) if sign > 0 else (cs * n0 < c0 * ns)
            hits = np.nonzero(better)[0]
            if hits.size == 0:
                return Fraction(c0, n0)
            i = int(hits[0])

    a = np.asarray(els, dtype=np.int64)
    gaps = np.diff(a)
    if len(a):
        syndetic = int(max(a[0], horizon - a[-1], int((gaps - 1).max()) if len(gaps) else 0))
    else:
        syndetic = None
    runs = 1 if len(a) else 0
    run = 1
    for g in gaps.tolist():
        run = run + 1 if g == 1 else 1
        runs = max(runs, run)

    def frac(q: Fraction) -> dict:
        return {"num": q.numerator, "den": q.denominator}

    return {
        "horizon": horizon, "window": window,
        "upperBanach": frac(Fraction(int(wc.max()), window)),
        "lowerBanach": frac(Fraction(int(wc.min()), window)),
        "upperDensity": frac(extremum(+1)),
        "lowerDensity": frac(extremum(-1)),
        "syndeticGap": syndetic,
        "maxRun": runs,
        "maxApLength": longest_progression(els),
        "containsConsecutivePair": bool(np.any(gaps == 1)),
    }


def longest_progression(els: Sequence[int]) -> int:
    """Longest arithmetic progression inside a sorted set.

    table[i, j] is the length of the longest progression whose last two
    terms are a[i], a[j]; row i is filled
    from rows k < i by finding each predecessor 2 a[i] - a[j] with a binary
    search, so memory is one dense n x n table instead of a dict of pairs.
    """
    a = np.asarray(els, dtype=np.int64)
    n = len(a)
    if n <= 2:
        return n
    table = np.full((n, n), 2, dtype=np.int32)
    best = 2
    for i in range(1, n - 1):
        after = a[i + 1:]
        pred = 2 * a[i] - after
        k = np.searchsorted(a, pred)
        kk = np.minimum(k, n - 1)
        ok = (k < i) & (a[kk] == pred)
        row = np.where(ok, table[kk, i] + 1, 2)
        table[i, i + 1:] = row
        best = max(best, int(row.max()))
    return best


def least_pair_window(els: Sequence[int], horizon: int, n: int) -> Optional[int]:
    """Least s in [0, horizon-n] with two elements in (s, s+n], by counting."""
    if horizon < n:
        return None
    ind = np.zeros(horizon + 1, dtype=np.int64)
    if len(els):
        ind[np.asarray(els, dtype=np.int64)] = 1
    cums = np.concatenate(([0], np.cumsum(ind)))
    starts = np.arange(0, horizon - n + 1)
    counts = cums[starts + n + 1] - cums[starts + 1]
    hits = np.nonzero(counts >= 2)[0]
    return int(hits[0]) if hits.size else None


def rotation_return_set(modulus: int, eps: float, horizon: int) -> tuple[set, set]:
    """(members, knife-edge times) of {n : |exp(2 pi i n / m) - 1| < eps}."""
    r = np.arange(modulus)
    d = 2.0 * np.abs(np.sin(np.pi * r / modulus))
    inside = np.nonzero(d < eps - KNIFE_EDGE)[0].tolist()
    edge = np.nonzero(np.abs(d - eps) <= KNIFE_EDGE)[0].tolist()

    def spread(res):
        return {b + x for b in range(0, horizon + 1, modulus) for x in res if b + x <= horizon}

    return spread(inside), spread(edge)


def family_members(spec: dict, horizon: int) -> tuple[set, set]:
    """(members, knife-edge times) of a families config, built with sets."""
    kind = spec["kind"]
    if kind == "explicit":
        return {m for m in spec["members"] if 0 <= m <= horizon}, set()
    if kind == "progression":
        return set(range(spec["start"], horizon + 1, spec["diff"])), set()
    if kind == "multiples":
        return set(range(0, horizon + 1, spec["p"])), set()
    if kind == "ip":
        sums = {0}
        for g in spec["generators"]:
            sums |= {s + g for s in sums}
        return {s for s in sums if 0 < s <= horizon}, set()
    if kind == "rotation-return":
        return rotation_return_set(spec["modulus"], spec["eps"], horizon)
    if kind in ("union", "intersection"):
        parts = [family_members(p, horizon) for p in spec["parts"]]
        members = set(parts[0][0])
        edge = set().union(*(e for _, e in parts))
        for s, _ in parts[1:]:
            members = members | s if kind == "union" else members & s
        return members, edge
    raise ValueError(f"no reference for family kind {kind!r}")
