"""Finite sets of naturals with exact density and structure analytics.

Everything is horizon-relative.  A NatSet answers membership only on
[0, horizon], and every density figure reported for it is an exact rational
computed at that horizon.  Nothing is extrapolated to the infinite limit;
callers who want asymptotics must grow the horizon themselves and watch the
estimates move.
"""

from __future__ import annotations

import math
from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence


class NatSetError(ValueError):
    """Raised on malformed set constructions or invalid query parameters."""


@dataclass(frozen=True, eq=True)
class NatSet:
    """Strictly increasing naturals, all bounded by an explicit horizon.

    Membership is O(log n) via bisection.  Instances are immutable values:
    set algebra returns fresh objects.
    """

    elements: tuple[int, ...]
    horizon: int

    def __post_init__(self) -> None:
        if self.horizon < 0:
            raise NatSetError("horizon must be a natural number")
        prev = -1
        for e in self.elements:
            if e <= prev:
                raise NatSetError("elements must be strictly increasing")
            prev = e
        if self.elements and (self.elements[0] < 0 or self.elements[-1] > self.horizon):
            raise NatSetError("elements must lie in [0, horizon]")

    def __contains__(self, n: int) -> bool:
        i = bisect_left(self.elements, n)
        return i < len(self.elements) and self.elements[i] == n

    def __len__(self) -> int:
        return len(self.elements)

    def __iter__(self):
        return iter(self.elements)

    def count_in(self, lo: int, hi: int) -> int:
        """Number of elements in the closed interval [lo, hi]."""
        return bisect_right(self.elements, hi) - bisect_left(self.elements, lo)

    def restrict(self, horizon: int) -> "NatSet":
        """The same set cut down to a smaller horizon."""
        if horizon >= self.horizon:
            return NatSet(self.elements, horizon) if horizon != self.horizon else self
        cut = bisect_right(self.elements, horizon)
        return NatSet(self.elements[:cut], horizon)

    def union(self, other: "NatSet") -> "NatSet":
        # the result is only complete where both inputs are, so the shorter
        # horizon wins and elements beyond it are dropped
        horizon = min(self.horizon, other.horizon)
        merged = sorted(e for e in set(self.elements) | set(other.elements)
                        if e <= horizon)
        return NatSet(tuple(merged), horizon)

    def intersection(self, other: "NatSet") -> "NatSet":
        horizon = min(self.horizon, other.horizon)
        small, large = (self, other) if len(self) <= len(other) else (other, self)
        kept = tuple(e for e in small.elements if e <= horizon and e in large)
        return NatSet(kept, horizon)

    def to_json_dict(self) -> dict:
        return {"elements": list(self.elements), "horizon": self.horizon}

    @staticmethod
    def from_json_dict(d: dict) -> "NatSet":
        return NatSet(tuple(int(e) for e in d["elements"]), int(d["horizon"]))


def intersects(a: NatSet, b: NatSet) -> bool:
    """True iff the two sets share an element (horizon-bounded evidence)."""
    small, large = (a, b) if len(a) <= len(b) else (b, a)
    return any(e in large for e in small.elements)


# ---------------------------------------------------------------------------
# generators


def _check_horizon(horizon: int) -> None:
    if horizon < 0:
        raise NatSetError("horizon must be a natural number")


@dataclass(frozen=True)
class Explicit:
    """A literal element list, clipped to the horizon at materialization."""

    members: tuple[int, ...]

    def materialize(self, horizon: int) -> NatSet:
        _check_horizon(horizon)
        kept = sorted({m for m in self.members if 0 <= m <= horizon})
        return NatSet(tuple(kept), horizon)


@dataclass(frozen=True)
class ArithmeticProgression:
    """start, start + diff, start + 2*diff, ... up to the horizon."""

    start: int
    diff: int

    def materialize(self, horizon: int) -> NatSet:
        _check_horizon(horizon)
        if self.start < 0 or self.diff < 1:
            raise NatSetError("progression needs start >= 0 and diff >= 1")
        return NatSet(tuple(range(self.start, horizon + 1, self.diff)), horizon)


@dataclass(frozen=True)
class Multiples:
    """All multiples of p, including 0."""

    p: int

    def materialize(self, horizon: int) -> NatSet:
        _check_horizon(horizon)
        if self.p < 1:
            raise NatSetError("p must be >= 1")
        return NatSet(tuple(range(0, horizon + 1, self.p)), horizon)


@dataclass(frozen=True)
class IpClosure:
    """All sums over nonempty sub-collections of the generator list.

    Each generator may appear in a sum at most once.  Materialization is a
    subset-sum sweep bounded by the horizon, so cost is O(len(gens) * horizon)
    regardless of how explosive the unpruned subset lattice would be.
    """

    generators: tuple[int, ...]

    def materialize(self, horizon: int) -> NatSet:
        _check_horizon(horizon)
        if not self.generators:
            raise NatSetError("empty IP generator")
        if any(g < 1 for g in self.generators):
            raise NatSetError("IP generators must be >= 1")
        reachable = {0}
        for g in self.generators:
            fresh = {s + g for s in reachable if s + g <= horizon}
            reachable |= fresh
        reachable.discard(0)
        return NatSet(tuple(sorted(reachable)), horizon)


@dataclass(frozen=True)
class DeltaOf:
    """Positive pairwise differences of a base set."""

    base: NatSet

    def materialize(self, horizon: int) -> NatSet:
        _check_horizon(horizon)
        els = self.base.elements
        diffs = {b - a for i, a in enumerate(els) for b in els[i + 1:] if b - a <= horizon}
        return NatSet(tuple(sorted(diffs)), horizon)


@dataclass(frozen=True)
class RotationReturn:
    """Times n where the rotation by 2*pi/modulus is within eps of closing up.

    Membership means |exp(2*pi*i*n/modulus) - 1| < eps, strictly.  The
    condition only depends on n mod modulus, so materialization enumerates
    accepted residues once and then walks the blocks, which keeps the cost
    proportional to the output even for large moduli.
    """

    modulus: int
    eps: float

    def _accepted_residues(self) -> list[int]:
        m = self.modulus
        if m == 1:
            return [0]
        if self.eps > 2.0:
            return list(range(m))

        # squared gap 2 - 2 cos(2 pi r / m) is rational exactly at the five
        # classic angles; those knife edges get exact comparison, every other
        # angle is irrational so a float test cannot sit on the boundary
        exact_sq = {Fraction(0): Fraction(0),
                    Fraction(1, 6): Fraction(1), Fraction(5, 6): Fraction(1),
                    Fraction(1, 4): Fraction(2), Fraction(3, 4): Fraction(2),
                    Fraction(1, 3): Fraction(3), Fraction(2, 3): Fraction(3),
                    Fraction(1, 2): Fraction(4)}

        def near(r: int) -> bool:
            t = Fraction(r, m)
            if t in exact_sq:
                return exact_sq[t] < Fraction(self.eps) ** 2
            return 2.0 * math.sin(math.pi * (r / m)) < self.eps

        # |lambda^n - 1| = 2 sin(pi r / m) is symmetric about r = m/2, so only
        # residues near 0 and near m need checking.  Overshoot the analytic
        # cutoff by a couple of slots and let the exact test decide.
        half = min(self.eps / 2.0, 1.0)
        cut = min(m - 1, int(m / math.pi * math.asin(half)) + 2)
        accepted = [r for r in range(0, cut + 1) if near(r)]
        accepted += [r for r in range(max(cut + 1, m - cut - 1), m) if near(r)]
        return sorted(set(accepted))

    def materialize(self, horizon: int) -> NatSet:
        _check_horizon(horizon)
        if self.modulus < 1:
            raise NatSetError("modulus must be >= 1")
        if self.eps <= 0:
            raise NatSetError("eps must be positive")
        residues = self._accepted_residues()
        out = []
        base = 0
        while base <= horizon:
            for r in residues:
                n = base + r
                if n > horizon:
                    break
                out.append(n)
            base += self.modulus
        return NatSet(tuple(out), horizon)


@dataclass(frozen=True)
class UnionOf:
    parts: tuple

    def materialize(self, horizon: int) -> NatSet:
        _check_horizon(horizon)
        if not self.parts:
            raise NatSetError("empty union")
        acc = self.parts[0].materialize(horizon)
        for part in self.parts[1:]:
            acc = acc.union(part.materialize(horizon))
        return acc


@dataclass(frozen=True)
class IntersectionOf:
    parts: tuple

    def materialize(self, horizon: int) -> NatSet:
        _check_horizon(horizon)
        if not self.parts:
            raise NatSetError("empty intersection")
        acc = self.parts[0].materialize(horizon)
        for part in self.parts[1:]:
            acc = acc.intersection(part.materialize(horizon))
        return acc


# ---------------------------------------------------------------------------
# density reports


class DensityReport:
    """Exact finite-horizon density and structure statistics for one set.

    Window statistics scan every length-`window` interval [n+1, n+window]
    inside [1, horizon]; prefix statistics scan [1, N] for N from `window` to
    `horizon`.  All four are exact Fractions.  The syndetic gap, when present,
    implies lower_banach >= 1/(gap+1) - 1/window; the 1/window slack is the
    price of measuring with a finite window.

    The longest-progression statistic can cost O(len^2), so it is computed
    lazily on first access and cached.
    """

    def __init__(self, source: NatSet, window: int,
                 upper_banach: Fraction, lower_banach: Fraction,
                 upper_density: Fraction, lower_density: Fraction,
                 syndetic_gap: Optional[int], max_run: int) -> None:
        self.horizon = source.horizon
        self.window = window
        self.upper_banach = upper_banach
        self.lower_banach = lower_banach
        self.upper_density = upper_density
        self.lower_density = lower_density
        self.syndetic_gap = syndetic_gap
        self.max_run = max_run
        self._source = source
        self._max_ap: Optional[int] = None

    @property
    def contains_consecutive_pair(self) -> bool:
        return self.max_run >= 2

    @property
    def max_ap_length(self) -> int:
        if self._max_ap is None:
            self._max_ap = _longest_progression(self._source.elements)
        return self._max_ap

    def to_json_dict(self) -> dict:
        def frac(q: Fraction) -> dict:
            return {"num": q.numerator, "den": q.denominator}

        return {
            "horizon": self.horizon,
            "window": self.window,
            "upperBanach": frac(self.upper_banach),
            "lowerBanach": frac(self.lower_banach),
            "upperDensity": frac(self.upper_density),
            "lowerDensity": frac(self.lower_density),
            "syndeticGap": self.syndetic_gap,
            "maxRun": self.max_run,
            "maxApLength": self.max_ap_length,
            "containsConsecutivePair": self.contains_consecutive_pair,
        }


def _longest_progression(elements: Sequence[int]) -> int:
    """Longest arithmetic progression in the sorted elements, in O(len) memory:
    each is walked once from its first two terms a < b, and d = b - a grows
    with b, so once a + longest * d passes the last element no later b can do better."""
    if len(elements) < 3:
        return len(elements)
    members = set(elements)
    last = elements[-1]
    longest = 2
    for i, a in enumerate(elements):
        for b in elements[i + 1:]:
            d = b - a
            if a + longest * d > last:
                break
            if a - d in members:
                continue
            length = 2
            nxt = b + d
            while nxt in members:
                length += 1
                nxt += d
            longest = max(longest, length)
    return longest


def density_profile(a: NatSet, window: int) -> DensityReport:
    """Exact density report for `a` at the given window size.

    Raises NatSetError when window < 1 or window > horizon.
    """
    if window < 1:
        raise NatSetError("window must be >= 1")
    if window > a.horizon:
        raise NatSetError("window exceeds horizon")

    horizon = a.horizon
    els = a.elements

    # prefix[i] = number of elements <= i, for i in [0, horizon]
    prefix = [0] * (horizon + 2)
    for e in els:
        prefix[e + 1] += 1
    for i in range(1, horizon + 2):
        prefix[i] += prefix[i - 1]

    def count_leq(i: int) -> int:
        return prefix[i + 1]

    # window extrema: counts over [n+1, n+window] for n in [0, horizon-window]
    best_hi, best_lo = -1, window + 1
    for n in range(0, horizon - window + 1):
        c = count_leq(n + window) - count_leq(n)
        if c > best_hi:
            best_hi = c
        if c < best_lo:
            best_lo = c
    upper_banach = Fraction(best_hi, window)
    lower_banach = Fraction(best_lo, window)

    # prefix extrema over [1, N]: compare c/N by cross multiplication to stay
    # exact without building a Fraction per candidate
    zero_adjust = 1 if (els and els[0] == 0) else 0
    hi_c, hi_n = -1, 1
    lo_c, lo_n = 1, 0  # sentinel: 1/0 = +infinity
    for n in range(window, horizon + 1):
        c = count_leq(n) - zero_adjust
        if c * hi_n > hi_c * n:
            hi_c, hi_n = c, n
        if lo_n == 0 or c * lo_n < lo_c * n:
            lo_c, lo_n = c, n
    upper_density = Fraction(hi_c, hi_n)
    lower_density = Fraction(lo_c, lo_n)

    # syndetic gap: least g such that every interval of g+1 consecutive
    # integers inside [0, horizon] meets the set
    if els:
        gap = max(els[0], horizon - els[-1])
        for i in range(1, len(els)):
            gap = max(gap, els[i] - els[i - 1] - 1)
        syndetic_gap: Optional[int] = gap
    else:
        syndetic_gap = None

    max_run = 0
    run = 0
    prev = None
    for e in els:
        run = run + 1 if prev is not None and e == prev + 1 else 1
        max_run = max(max_run, run)
        prev = e

    return DensityReport(a, window, upper_banach, lower_banach,
                         upper_density, lower_density, syndetic_gap, max_run)


# ---------------------------------------------------------------------------
# structure queries


def find_ap(a: NatSet, length: int) -> Optional[tuple[int, int]]:
    """Search for an arithmetic progression of `length` terms inside `a`.

    Returns the lexicographically least witness (start, diff) or None.
    Exhaustive over starts in the set and diffs that fit under the horizon.
    """
    if length < 2:
        raise NatSetError("progression length must be >= 2")
    members = set(a.elements)
    span = length - 1
    for start in a.elements:
        max_d = (a.horizon - start) // span if span else 0
        for d in range(1, max_d + 1):
            if all(start + k * d in members for k in range(1, length)):
                return (start, d)
    return None


def window_pair_witness(a: NatSet, n: int) -> Optional[int]:
    """Least start s with at least two elements of `a` in (s, s+n]."""
    if n < 1:
        raise NatSetError("window length must be >= 1")
    els = a.elements
    # a window holding two elements holds two adjacent ones, so scanning
    # adjacent pairs (lo, hi) suffices; the admissible starts for a pair are
    # s in [hi - n, lo - 1] intersected with [0, horizon - n]
    best: Optional[int] = None
    for i in range(len(els) - 1):
        lo, hi = els[i], els[i + 1]
        s_min = max(0, hi - n)
        s_max = min(lo - 1, a.horizon - n)
        if s_min <= s_max and (best is None or s_min < best):
            best = s_min
    return best


@dataclass(frozen=True)
class CofinitenessReport:
    """Verdict of a head-cutoff surrogate for 'b contains a eventually'."""

    holds: bool
    cutoff: int
    first_violation: Optional[int]

    def __bool__(self) -> bool:
        return self.holds


def cofinite_within(b: NatSet, a: NatSet, cutoff: Optional[int] = None) -> CofinitenessReport:
    """Check that every element of `a` beyond the cutoff lies in `b`.

    The default cutoff is horizon // 2.  This is finite evidence for the
    filter statement 'b is in the cofinite filter generated by a', nothing
    stronger.
    """
    if cutoff is None:
        cutoff = a.horizon // 2
    for e in a.elements:
        if e > cutoff and e not in b:
            return CofinitenessReport(False, cutoff, e)
    return CofinitenessReport(True, cutoff, None)
