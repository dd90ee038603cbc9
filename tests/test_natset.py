import itertools
import math
import random
import time
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

import recurlab as rl
from recurlab import natset


def brute_density(elements, horizon, window):
    """Exhaustive window/prefix scan with exact fractions."""
    inside = set(elements)
    win_counts = [sum(1 for j in range(n + 1, n + window + 1) if j in inside)
                  for n in range(0, horizon - window + 1)]
    upper_b = max(Fraction(c, window) for c in win_counts)
    lower_b = min(Fraction(c, window) for c in win_counts)
    prefix = [Fraction(sum(1 for j in range(1, n + 1) if j in inside), n)
              for n in range(window, horizon + 1)]
    return upper_b, lower_b, max(prefix), min(prefix)


def horizon_scan_profile(a, window):
    """Oracle: the O(horizon) scan that `density_profile` replaced.  Builds a
    prefix-count list over [0, horizon] and visits every window and prefix;
    returns the four densities, the syndetic gap and the longest run."""
    horizon = a.horizon
    els = a.elements

    # prefix[i] = number of elements <= i, for i in [0, horizon]
    prefix = [0] * (horizon + 2)
    for e in els:
        prefix[e + 1] += 1
    for i in range(1, horizon + 2):
        prefix[i] += prefix[i - 1]

    def count_leq(i):
        return prefix[i + 1]

    # window extrema: counts over [n+1, n+window] for n in [0, horizon-window]
    best_hi, best_lo = -1, window + 1
    for n in range(0, horizon - window + 1):
        c = count_leq(n + window) - count_leq(n)
        if c > best_hi:
            best_hi = c
        if c < best_lo:
            best_lo = c

    # prefix extrema over [1, N], compared exactly by cross multiplication
    zero_adjust = 1 if (els and els[0] == 0) else 0
    hi_c, hi_n = -1, 1
    lo_c, lo_n = 1, 0  # sentinel: 1/0 = +infinity
    for n in range(window, horizon + 1):
        c = count_leq(n) - zero_adjust
        if c * hi_n > hi_c * n:
            hi_c, hi_n = c, n
        if lo_n == 0 or c * lo_n < lo_c * n:
            lo_c, lo_n = c, n

    if els:
        gap = max(els[0], horizon - els[-1])
        for i in range(1, len(els)):
            gap = max(gap, els[i] - els[i - 1] - 1)
    else:
        gap = None

    max_run = run = 0
    prev = None
    for e in els:
        run = run + 1 if prev is not None and e == prev + 1 else 1
        max_run = max(max_run, run)
        prev = e

    return (Fraction(best_hi, window), Fraction(best_lo, window),
            Fraction(hi_c, hi_n), Fraction(lo_c, lo_n), gap, max_run)


def profile_fields(prof):
    return (prof.upper_banach, prof.lower_banach, prof.upper_density,
            prof.lower_density, prof.syndetic_gap, prof.max_run)


class TestNatSet:
    def test_requires_sorted_unique_in_range(self):
        with pytest.raises(rl.NatSetError):
            rl.NatSet((3, 1), 10)
        with pytest.raises(rl.NatSetError):
            rl.NatSet((1, 1), 10)
        with pytest.raises(rl.NatSetError):
            rl.NatSet((1, 11), 10)
        with pytest.raises(rl.NatSetError):
            rl.NatSet((-1, 2), 10)

    def test_membership_and_count(self):
        a = rl.NatSet((0, 3, 5, 9), 10)
        assert 3 in a and 4 not in a
        assert a.count_in(3, 9) == 3
        assert a.count_in(4, 4) == 0
        assert len(a) == 4

    def test_restrict_union_intersection(self):
        a = rl.NatSet((0, 3, 5, 9), 10)
        b = rl.NatSet((3, 4, 9), 9)
        assert a.restrict(5).elements == (0, 3, 5)
        # combined knowledge stops at the shorter horizon
        assert a.union(b).elements == (0, 3, 4, 5, 9)
        assert a.union(b).horizon == 9
        assert rl.NatSet((2, 10), 10).union(b).elements == (2, 3, 4, 9)
        assert a.intersection(b).elements == (3, 9)
        assert rl.NatSet((1,), 5).intersection(rl.NatSet((2,), 5)).elements == ()

    def test_json_round_trip(self):
        a = rl.NatSet((1, 2, 8), 12)
        d = a.to_json_dict()
        assert d == {"elements": [1, 2, 8], "horizon": 12}
        assert rl.NatSet(tuple(d["elements"]), d["horizon"]) == a

    @given(st.sets(st.integers(0, 60), max_size=40), st.integers(0, 60),
           st.sets(st.integers(0, 60), max_size=40), st.integers(0, 60))
    def test_intersection_matches_set_intersection(self, xs, hx, ys, hy):
        a = rl.NatSet(tuple(sorted(x for x in xs if x <= hx)), hx)
        b = rl.NatSet(tuple(sorted(y for y in ys if y <= hy)), hy)
        want = tuple(sorted(e for e in set(a) & set(b) if e <= min(hx, hy)))
        for got in (a.intersection(b), b.intersection(a)):
            assert (got.elements, got.horizon) == (want, min(hx, hy))

    @given(st.sets(st.integers(0, 40), max_size=15), st.integers(0, 40))
    def test_restrict_matches_filter(self, els, h):
        a = rl.NatSet(tuple(sorted(els)), 40)
        assert a.restrict(h).elements == tuple(e for e in sorted(els) if e <= h)


class TestGenerators:
    def test_explicit_clips(self):
        assert rl.Explicit((5, 2, 12, 2)).materialize(10).elements == (2, 5)

    def test_progression_and_multiples(self):
        assert rl.ArithmeticProgression(2, 5).materialize(18).elements == (2, 7, 12, 17)
        assert rl.Multiples(4).materialize(13).elements == (0, 4, 8, 12)

    def test_ip_closure_against_brute_force(self):
        gens = (3, 5, 9, 14)
        horizon = 40
        got = rl.IpClosure(gens).materialize(horizon)
        # oracle: all sums over nonempty index subsets, each generator once
        want = set()
        for r in range(1, len(gens) + 1):
            for combo in itertools.combinations(range(len(gens)), r):
                s = sum(gens[i] for i in combo)
                if s <= horizon:
                    want.add(s)
        assert set(got.elements) == want

    def test_ip_closure_with_repeated_generator(self):
        # two copies of 4 behave as two distinct summands
        got = rl.IpClosure((4, 4)).materialize(10)
        assert got.elements == (4, 8)

    def test_ip_empty_rejected(self):
        with pytest.raises(rl.NatSetError, match="empty IP generator"):
            rl.IpClosure(()).materialize(5)

    def test_delta_of(self):
        base = rl.NatSet((0, 3, 7, 12), 12)
        assert rl.DeltaOf(base).materialize(12).elements == (3, 4, 5, 7, 9, 12)

    def test_delta_of_at_base_horizon(self):
        a = rl.NatSet((0, 3, 7), 10)
        assert rl.DeltaOf(a).materialize(a.horizon) == rl.NatSet((3, 4, 7), 10)

    def test_union_intersection_composites(self):
        u = rl.UnionOf((rl.Multiples(6), rl.Multiples(10)))
        assert u.materialize(30).elements == (0, 6, 10, 12, 18, 20, 24, 30)
        i = rl.IntersectionOf((rl.Multiples(6), rl.Multiples(10)))
        assert i.materialize(60).elements == (0, 30, 60)

    @given(st.integers(1, 9), st.integers(0, 60), st.integers(0, 60))
    def test_materialize_monotone_in_horizon(self, p, h1, h2):
        lo, hi = min(h1, h2), max(h1, h2)
        small = rl.Multiples(p).materialize(lo)
        big = rl.Multiples(p).materialize(hi)
        assert small.elements == big.restrict(lo).elements


class TestRotationReturn:
    def brute(self, modulus, eps, horizon):
        return tuple(n for n in range(horizon + 1)
                     if abs(complex(math.cos(2 * math.pi * n / modulus),
                                    math.sin(2 * math.pi * n / modulus)) - 1) < eps)

    @pytest.mark.parametrize("modulus,eps", [(12, 0.5), (7, 0.9),
                                             (100, 0.05), (100, 1.99)])
    def test_matches_direct_scan(self, modulus, eps):
        horizon = 3 * modulus + 5
        got = rl.RotationReturn(modulus, eps).materialize(horizon)
        want = self.brute(modulus, eps, horizon)
        assert got.elements == want

    def test_boundary_is_strict_at_exact_angles(self):
        # 2 sin(pi * 2/12) equals 1 as a real number, so eps = 1 excludes
        # residues +-2; float sin alone would round the other way
        got = rl.RotationReturn(12, 1.0).materialize(36)
        assert got.elements == tuple(n for n in range(37) if n % 12 in (0, 1, 11))

    def test_eps_two_odd_modulus_accepts_everything(self):
        # odd modulus never reaches the antipode, so the full line comes back
        got = rl.RotationReturn(9, 2.0).materialize(30)
        assert got.elements == tuple(range(31))

    def test_eps_two_even_modulus_drops_antipode(self):
        got = rl.RotationReturn(8, 2.0).materialize(16)
        assert set(range(17)) - set(got.elements) == {4, 12}

    def test_large_modulus_band_structure(self):
        m = 10 ** 6
        eps = 0.01
        horizon = 20 * m
        a = rl.RotationReturn(m, eps).materialize(horizon)
        # band radius: largest r with 2 sin(pi r / m) < eps
        r_max = 0
        while 2 * math.sin(math.pi * (r_max + 1) / m) < eps:
            r_max += 1
        assert a.count_in(0, r_max) == r_max + 1
        assert a.count_in(r_max + 1, m - r_max - 1) == 0
        assert m in a and m + r_max in a and m + r_max + 1 not in a
        prof = rl.density_profile(a, window=m)
        # between band end k*m + r_max and next band start (k+1)*m - r_max
        # there are m - 2*r_max - 1 missing integers
        assert prof.syndetic_gap == m - 2 * r_max - 1

    def test_validation(self):
        with pytest.raises(rl.NatSetError):
            rl.RotationReturn(0, 0.5).materialize(5)
        with pytest.raises(rl.NatSetError):
            rl.RotationReturn(5, 0.0).materialize(5)


class TestDensityProfile:
    def test_multiples_exact_banach(self):
        p = 7
        a = rl.Multiples(p).materialize(7000)
        prof = rl.density_profile(a, window=10 * p)
        # every aligned window of length 10p holds exactly 10 multiples
        assert prof.upper_banach == Fraction(1, p)
        assert prof.lower_banach == Fraction(1, p)
        assert prof.syndetic_gap == p - 1

    def test_prefix_extrema_exclude_zero(self):
        # 0 is in the set but prefix counts run over [1, N]
        a = rl.Multiples(5).materialize(100)
        prof = rl.density_profile(a, window=10)
        # count over [1, N] is floor(N/5): max 2/10 at N = 10, min 2/14 at N = 14
        assert prof.upper_density == Fraction(1, 5)
        assert prof.lower_density == Fraction(1, 7)

    @pytest.mark.parametrize("seed", [11, 23, 57])
    def test_random_sets_match_brute_force(self, seed):
        rng = random.Random(seed)
        horizon = rng.randrange(40, 90)
        els = sorted(rng.sample(range(horizon + 1), rng.randrange(5, 25)))
        window = rng.randrange(3, 15)
        a = rl.NatSet(tuple(els), horizon)
        prof = rl.density_profile(a, window)
        ub, lb, ud, ld = brute_density(els, horizon, window)
        assert prof.upper_banach == ub
        assert prof.lower_banach == lb
        assert prof.upper_density == ud
        assert prof.lower_density == ld

    def test_structure_stats(self):
        a = rl.NatSet((1, 2, 3, 7, 9, 10), 12)
        prof = rl.density_profile(a, 4)
        assert prof.max_run == 3
        assert prof.contains_consecutive_pair
        # missing stretches: {0}, {4,5,6}, {8}, {11,12}
        assert prof.syndetic_gap == 3

    def test_empty_set_profile(self):
        prof = rl.density_profile(rl.NatSet((), 20), 5)
        assert prof.upper_banach == 0
        assert prof.syndetic_gap is None
        assert prof.max_run == 0
        assert prof.max_ap_length == 0

    def test_powers_of_two_have_no_long_progression(self):
        a = rl.Explicit(tuple(2 ** i for i in range(10))).materialize(1024)
        assert prof_ap(a) == 2

    def test_ap_witness_found(self):
        a = rl.ArithmeticProgression(4, 9).materialize(100)
        assert prof_ap(a) == len(a) == 11

    @given(st.sets(st.integers(0, 50), min_size=1, max_size=20),
           st.integers(6, 10))
    def test_banach_brackets_aligned_prefixes(self, els, window):
        horizon = 10 * window
        a = rl.NatSet(tuple(e for e in sorted(els) if e <= horizon), horizon)
        prof = rl.density_profile(a, window)
        for q in range(1, 11):
            n = q * window
            dens = Fraction(a.count_in(1, n), n)
            assert prof.lower_banach <= dens <= prof.upper_banach

    def test_json_shape(self):
        d = rl.density_profile(rl.Multiples(3).materialize(30), 6).to_json_dict()
        assert d["upperBanach"] == {"num": 1, "den": 3}
        assert d["window"] == 6 and d["horizon"] == 30
        assert "maxApLength" in d

    def test_window_validation(self):
        a = rl.Multiples(3).materialize(30)
        with pytest.raises(rl.NatSetError):
            rl.density_profile(a, 0)
        with pytest.raises(rl.NatSetError):
            rl.density_profile(a, 31)


@st.composite
def sets_and_windows(draw, max_horizon=60):
    horizon = draw(st.integers(1, max_horizon))
    els = draw(st.one_of(
        st.sets(st.integers(0, horizon), max_size=horizon + 1),
        # dense sets: the full interval with a few holes
        st.sets(st.integers(0, horizon), max_size=6).map(
            lambda holes: set(range(horizon + 1)) - holes)))
    window = draw(st.integers(1, horizon))
    return rl.NatSet(tuple(sorted(els)), horizon), window


class TestDensitySweep:
    """The breakpoint sweep of `density_profile` against the horizon scan."""

    @given(sets_and_windows())
    def test_matches_horizon_scan(self, case):
        a, window = case
        assert profile_fields(rl.density_profile(a, window)) == \
            horizon_scan_profile(a, window)

    @pytest.mark.parametrize("horizon", [1, 2, 7, 60])
    @pytest.mark.parametrize("shape", ["empty", "zero", "top", "zero-top", "full",
                                       "full-but-zero", "head", "tail"])
    def test_crafted_sets_every_window(self, shape, horizon):
        els = {"empty": (), "zero": (0,), "top": (horizon,), "zero-top": (0, horizon),
               "full": tuple(range(horizon + 1)),
               "full-but-zero": tuple(range(1, horizon + 1)),
               "head": tuple(range(horizon // 2 + 1)),
               "tail": tuple(range(horizon // 2, horizon + 1))}[shape]
        a = rl.NatSet(els, horizon)
        # every window from 1 to the horizon, both ends included
        for window in range(1, horizon + 1):
            assert profile_fields(rl.density_profile(a, window)) == \
                horizon_scan_profile(a, window), window

    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_random_sets_at_larger_horizon(self, seed):
        rng = random.Random(seed)
        horizon = 5000
        for density in (0.002, 0.3, 0.97):
            els = tuple(e for e in range(horizon + 1) if rng.random() < density)
            a = rl.NatSet(els, horizon)
            for window in (1, 37, 1000, horizon):
                assert profile_fields(rl.density_profile(a, window)) == \
                    horizon_scan_profile(a, window)

    def test_ladder_scale_horizon(self):
        # no cost in the horizon: three elements under a 141-digit horizon
        horizon = 10 ** 140
        a = rl.NatSet((5, 10 ** 70, horizon), horizon)
        prof = rl.density_profile(a, 10 ** 69)
        assert prof.upper_banach == Fraction(1, 10 ** 69)
        assert prof.lower_banach == 0
        assert prof.upper_density == Fraction(1, 10 ** 69)
        assert prof.lower_density == Fraction(2, 10 ** 140 - 1)
        assert prof.syndetic_gap == horizon - 10 ** 70 - 1


def prof_ap(a):
    return rl.density_profile(a, 4).max_ap_length


def pair_dp_longest_progression(elements):
    """Oracle: the O(len^2)-memory pair DP, best[(j, d)] = length of the
    progression with gap d ending at position j."""
    if len(elements) < 2:
        return len(elements)
    best = {}
    longest = 2
    for j, ej in enumerate(elements):
        for i in range(j):
            d = ej - elements[i]
            best[(j, d)] = best.get((i, d), 1) + 1
            longest = max(longest, best[(j, d)])
    return longest


@st.composite
def planted_progressions(draw):
    """Noise with one progression planted in it, of length up to 40."""
    noise = draw(st.sets(st.integers(0, 5000), max_size=60))
    start, diff = draw(st.integers(0, 2000)), draw(st.integers(1, 120))
    return noise | set(range(start, start + diff * draw(st.integers(3, 40)), diff))


@st.composite
def equal_gap_runs(draw):
    """A long run of equal gaps with a few elements added on either side of it."""
    start, diff = draw(st.integers(0, 100)), draw(st.integers(1, 9))
    run = range(start, start + diff * draw(st.integers(2, 80)), diff)
    return set(run) | draw(st.sets(st.integers(0, 1000), max_size=8))


class TestLongestProgression:
    @given(st.one_of(st.sets(st.integers(0, 40), max_size=30),
                     st.sets(st.integers(0, 10 ** 6), max_size=40),
                     st.sets(st.integers(0, 400), min_size=40, max_size=120),
                     planted_progressions(), equal_gap_runs(),
                     st.sets(st.integers(0, 10 ** 20), max_size=2)))
    @settings(max_examples=200)
    def test_matches_pair_dp(self, els):
        e = tuple(sorted(els))
        assert natset._longest_progression(e) == pair_dp_longest_progression(e)

    @given(st.one_of(st.sets(st.integers(0, 300), max_size=60), planted_progressions()))
    def test_translation_invariant_past_int64(self, els):
        # exact for ints of any size: shifts of 2^62 and more leave int64
        e = sorted(els)
        want = pair_dp_longest_progression(e)
        for shift in (0, 2 ** 62, 2 ** 70):
            assert natset._longest_progression(tuple(x + shift for x in e)) == want

    def test_progression_hidden_in_noise(self):
        rng = random.Random(3)
        noise = set(rng.sample(range(10 ** 5), 400))
        e = tuple(sorted(noise | set(range(17, 10 ** 5, 1000))))
        assert natset._longest_progression(e) == pair_dp_longest_progression(e) >= 100

    def test_consecutive_pair_is_a_run_of_two(self):
        for els, flag in [((), False), ((4,), False), ((1, 3, 5), False), ((2, 3), True)]:
            prof = rl.density_profile(rl.NatSet(els, 10), 2)
            assert prof.contains_consecutive_pair is flag

    def test_sparse_set_at_huge_horizon(self):
        # cost in the elements only: no progression search walks the horizon
        a = rl.Explicit((1, 10 ** 6, 10 ** 11)).materialize(10 ** 12)
        t0 = time.perf_counter()
        assert prof_ap(a) == 2
        assert natset.window_pair_witness(a, 10 ** 6) == 0
        assert natset.window_pair_witness(a, 10 ** 6 - 1) is None
        b = rl.Explicit((7, 10 ** 11 + 7, 2 * 10 ** 11 + 7, 10 ** 12)).materialize(10 ** 12)
        assert prof_ap(b) == 3
        assert natset.window_pair_witness(b, 10 ** 11 + 1) == 6
        assert natset.window_pair_witness(b, 10 ** 11) is None
        assert time.perf_counter() - t0 < 1.0


class TestWindowPairWitness:
    def brute(self, a, n):
        for s in range(0, a.horizon - n + 1):
            if a.count_in(s + 1, s + n) >= 2:
                return s
        return None

    @pytest.mark.parametrize("seed", range(6))
    def test_matches_brute_force(self, seed):
        rng = random.Random(1000 + seed)
        horizon = rng.randrange(10, 50)
        els = sorted(rng.sample(range(horizon + 1), rng.randrange(0, 8)))
        a = rl.NatSet(tuple(els), horizon)
        for n in range(1, horizon + 1):
            assert natset.window_pair_witness(a, n) == self.brute(a, n), (els, n)

    def test_zero_element_never_counts(self):
        # windows are (s, s+n] with s >= 0, so element 0 can never be paired
        a = rl.NatSet((0, 1), 10)
        assert natset.window_pair_witness(a, 2) is None
        a2 = rl.NatSet((0, 1, 2), 10)
        assert natset.window_pair_witness(a2, 2) == 0

