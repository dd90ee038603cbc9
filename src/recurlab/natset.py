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
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import compress, count, groupby, repeat
from operator import ne, sub
from typing import Optional, Sequence


class RecurlabError(ValueError):
    """Base of every library error raised on a rejected input value."""


class NatSetError(RecurlabError):
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
        members = set(large.elements)
        return NatSet(tuple(filter(members.__contains__, small.elements)), horizon)

    def to_json_dict(self) -> dict:
        return {"elements": list(self.elements), "horizon": self.horizon}


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
    subset-sum sweep that drops sums past the horizon, so its cost is
    O(len(gens) * size) for a result of size <= min(2**len(gens), horizon).
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


@dataclass(eq=False)
class DensityReport:
    """Exact finite-horizon density and structure statistics for one set.

    Window statistics range over every length-`window` interval
    [n+1, n+window] inside [1, horizon]; prefix statistics over [1, N] for N
    from `window` to `horizon`.  All four are exact Fractions, found from the
    elements alone (see `density_profile`), so the cost does not grow with the
    horizon.  The syndetic gap, when present, implies
    lower_banach >= 1/(gap+1) - 1/window; the 1/window slack is the price of
    measuring with a finite window.

    The longest progression is found on first access and cached: its search
    reads pairs of elements, O(len^2) of them at worst, in O(len) memory.
    """

    source: NatSet
    window: int
    upper_banach: Fraction
    lower_banach: Fraction
    upper_density: Fraction
    lower_density: Fraction
    syndetic_gap: Optional[int]
    max_run: int
    _max_ap: Optional[int] = field(default=None, init=False, repr=False)

    @property
    def horizon(self) -> int:
        return self.source.horizon

    @property
    def contains_consecutive_pair(self) -> bool:
        return self.max_run >= 2

    @property
    def max_ap_length(self) -> int:
        if self._max_ap is None:
            self._max_ap = _longest_progression(self.source.elements)
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
    """Longest arithmetic progression in the sorted elements.

    `longest` starts at the longest run of equal consecutive gaps.  A chain
    with first terms a < b, d = b - a, beats it only if a + longest * d <= last
    and a has `longest` elements after it, so only those pairs are read; the
    inner loops over them run in C (maps over slices, set probes), and the
    scratch is one set and three lists, none longer than the input.  A pair
    goes on only if its third term 2b - a is a member and a - d is not (else
    a chain starting lower already covers it); those chains are walked to
    their end.
    """
    size = len(elements)
    if size < 3:
        return size
    steps = list(map(sub, elements[1:], elements))
    runs = [0, *compress(count(1), map(ne, steps[1:], steps)), len(steps)]
    longest = 1 + max(map(sub, runs[1:], runs))
    members = set(elements)
    doubled = [e + e for e in elements]
    last = elements[-1]
    for i, a in enumerate(elements):
        if i >= size - longest:
            break
        hi = bisect_right(elements, a + (last - a) // longest, i + 1)
        for third in members.intersection(map(sub, doubled[i + 1:hi], repeat(a))):
            d = (third - a) >> 1
            if a - d in members:
                continue
            terms, x = 3, third + d
            while x in members:
                terms, x = terms + 1, x + d
            longest = max(longest, terms)
    return longest


def density_profile(a: NatSet, window: int) -> DensityReport:
    """Exact density report for `a` at the given window size.

    Counts are piecewise constant between elements, so each extremum sits at
    a breakpoint next to an element or at an end of its range; one pass over
    the elements per statistic, with monotone index pointers, finds all four
    in O(len(a)) whatever the horizon.

    Raises NatSetError when window < 1 or window > horizon.
    """
    if window < 1:
        raise NatSetError("window must be >= 1")
    if window > a.horizon:
        raise NatSetError("window exceeds horizon")

    horizon = a.horizon
    els = a.elements
    size = len(els)
    last = horizon - window  # windows are [n+1, n+window] for n in [0, last]
    count_last = size - bisect_right(els, last)
    zero_adjust = 1 if els and els[0] == 0 else 0  # 0 is in no window or prefix

    # window max: sliding right, a count can only drop once the left end
    # passes an element, so the max starts at an element e (n = e - 1) or at
    # n = last.  The window [e, e+window-1] from els[k] holds j - k elements,
    # j the number of elements <= e + window - 1.
    best_hi = count_last
    j = 0
    for k, e in enumerate(els[zero_adjust:bisect_right(els, last + 1)], zero_adjust):
        end = e + window - 1
        while j < size and els[j] <= end:
            j += 1
        if j - k > best_hi:
            best_hi = j - k

    # window min: sliding right, a count can only rise once the right end
    # reaches an element, so the min ends just before an element e
    # (n = e - window - 1) or starts at n = last.  The window [e-window, e-1]
    # below els[k] holds k - j elements, j the number of elements < e - window.
    best_lo = count_last
    j = 0
    above = bisect_left(els, window + 1)
    for k, e in enumerate(els[above:], above):
        start = e - window
        while els[j] < start:
            j += 1
        if k - j < best_lo:
            best_lo = k - j
    upper_banach = Fraction(best_hi, window)
    lower_banach = Fraction(best_lo, window)

    # prefix extrema of count([1, N]) / N over N in [window, horizon]: the
    # ratio falls while N grows between elements, so the max sits at N = window
    # or N = e, and the min at N = e - 1 or N = horizon.  Compare c/N by cross
    # multiplication to stay exact without building a Fraction per candidate.
    first = bisect_right(els, window)
    hi_c, hi_n = first - zero_adjust, window
    for c, n in zip(count(first + 1 - zero_adjust), els[first:]):
        if c * hi_n > hi_c * n:
            hi_c, hi_n = c, n
    lo_c, lo_n = size - zero_adjust, horizon
    for c, e in zip(count(above - zero_adjust), els[above:]):
        if c * lo_n < lo_c * (e - 1):
            lo_c, lo_n = c, e - 1
    upper_density = Fraction(hi_c, hi_n)
    lower_density = Fraction(lo_c, lo_n)

    # syndetic gap: least g such that every interval of g+1 consecutive
    # integers inside [0, horizon] meets the set; max_run: longest stretch of
    # consecutive integers, i.e. one more than the longest run of steps of 1
    steps = list(map(sub, els[1:], els))
    syndetic_gap: Optional[int] = None
    max_run = 0
    if els:
        syndetic_gap = max(els[0], horizon - els[-1], max(steps, default=1) - 1)
        max_run = 1 + max((len(list(run)) for step, run in groupby(steps) if step == 1),
                          default=0)

    return DensityReport(a, window, upper_banach, lower_banach,
                         upper_density, lower_density, syndetic_gap, max_run)


# ---------------------------------------------------------------------------
# structure queries


def window_pair_witness(a: NatSet, n: int) -> Optional[int]:
    """Least start s with at least two elements of `a` in (s, s+n]."""
    if n < 1:
        raise NatSetError("window length must be >= 1")
    els = a.elements
    # a window holding two elements holds two adjacent ones, so scanning
    # adjacent pairs (lo, hi) suffices; the admissible starts for a pair are
    # s in [hi - n, lo - 1] intersected with [0, horizon - n].  The least one,
    # max(0, hi - n), never falls as hi grows, so the first admissible pair wins.
    for lo, hi in zip(els, els[1:]):
        s_min = max(0, hi - n)
        if s_min <= min(lo - 1, a.horizon - n):
            return s_min
    return None


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
        return {"delta": self.delta, "bound": self.bound, "dense": self.dense,
                "period": self.period,
                "witness": list(self.witness) if self.witness else None,
                "fixedPoint": self.fixed_point}


def classify_period_by_density(a: NatSet, window: int, delta: float) -> PeriodClassification:
    if not 0 < delta <= 1:
        raise NatSetError("delta must lie in (0, 1]")
    report = density_profile(a, window)
    bound = math.floor(1.0 / delta)
    dense = report.upper_banach > Fraction(str(delta))
    period = witness = None
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
    steps = set(map(sub, a.elements[1:], a.elements))
    return steps.pop() if len(steps) == 1 else None
