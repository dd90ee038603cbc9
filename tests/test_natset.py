import itertools
import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

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
        assert rl.intersects(a, b)
        assert not rl.intersects(rl.NatSet((1,), 5), rl.NatSet((2,), 5))

    def test_json_round_trip(self):
        a = rl.NatSet((1, 2, 8), 12)
        assert rl.NatSet.from_json_dict(a.to_json_dict()) == a

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
        assert rl.find_ap(a, 3) is None
        s, d = rl.find_ap(a, 2)
        assert s in a and s + d in a

    def test_ap_witness_found(self):
        a = rl.ArithmeticProgression(4, 9).materialize(100)
        found = rl.find_ap(a, 5)
        assert found is not None
        s, d = found
        assert all(s + i * d in a for i in range(5))

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


class TestLongestProgression:
    @given(st.one_of(st.sets(st.integers(0, 40), max_size=30),
                     st.sets(st.integers(0, 10 ** 6), max_size=40)))
    def test_matches_pair_dp(self, els):
        e = tuple(sorted(els))
        assert natset._longest_progression(e) == pair_dp_longest_progression(e)

    def test_progression_hidden_in_noise(self):
        rng = random.Random(3)
        noise = set(rng.sample(range(10 ** 5), 400))
        e = tuple(sorted(noise | set(range(17, 10 ** 5, 1000))))
        assert natset._longest_progression(e) == pair_dp_longest_progression(e) >= 100

    def test_consecutive_pair_is_a_run_of_two(self):
        for els, flag in [((), False), ((4,), False), ((1, 3, 5), False), ((2, 3), True)]:
            prof = rl.density_profile(rl.NatSet(els, 10), 2)
            assert prof.contains_consecutive_pair is flag


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


class TestCofiniteWithin:
    def test_holds_with_cutoff(self):
        a = rl.Multiples(3).materialize(60)
        b = rl.NatSet(tuple(e for e in a.elements if e >= 12 or e == 3), 60)
        rep = rl.cofinite_within(b, a, cutoff=12)
        assert rep.holds and bool(rep)
        assert rep.first_violation is None

    def test_violation_reported(self):
        a = rl.Multiples(3).materialize(60)
        b = rl.NatSet((0, 3, 6, 12, 18), 60)
        rep = rl.cofinite_within(b, a, cutoff=10)
        assert not rep.holds
        assert rep.first_violation == 15

    def test_default_cutoff_is_half_horizon(self):
        a = rl.Multiples(2).materialize(40)
        rep = rl.cofinite_within(a, a)
        assert rep.holds and rep.cutoff == 20
