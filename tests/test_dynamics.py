import functools
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, strategies as st
from hypothesis.extra import numpy as hnp

import recurlab as rl
from recurlab import dynamics as dyn
from recurlab import perturbed_rotation as pr
from recurlab.natset import ArithmeticProgression, Multiples, NatSet


def rotation_oracle(m, n, eps):
    """Membership of n in the eps-return set of a pure level rotation."""
    folded = min(n % m, m - (n % m)) if n % m else 0
    return 2.0 * math.sin(math.pi * folded / m) < eps


class TestReturnSet:
    def test_matches_trig_formula_on_deep_basis(self, default_op):
        e4 = rl.basis_vec(4, default_op.dim_cap)
        m4 = default_op.modulus.m(4)
        for eps in (0.5, 0.1):
            got = rl.return_set(default_op, e4, eps, 600)
            want = tuple(n for n in range(601) if rotation_oracle(m4, n, eps))
            assert got.elements == want
            assert got.horizon == 600

    def test_membership_flips_exactly_at_the_radius(self, default_op):
        e4 = rl.basis_vec(4, default_op.dim_cap)
        d1 = rl.distance(default_op.power(1, e4).vec, e4)
        assert 1 in rl.return_set(default_op, e4, d1 * (1 + 1e-12), 1).elements
        # strict inequality: the radius itself is excluded
        assert 1 not in rl.return_set(default_op, e4, d1, 1).elements

    def test_orbit_returns_shares_one_displacement_list(self, default_op):
        e4 = rl.basis_vec(4, default_op.dim_cap)
        hits, ds = rl.orbit_returns(default_op, e4, 0.1, 300)
        assert len(ds) == 301
        assert ds[7] == rl.distance(default_op.power(7, e4).vec, e4)
        assert hits == rl.return_set(default_op, e4, 0.1, 300)
        assert hits.elements == tuple(n for n, d in enumerate(ds) if d < 0.1)

    def test_zero_always_returns(self, default_op):
        e4 = rl.basis_vec(4, default_op.dim_cap)
        assert rl.return_set(default_op, e4, 1e-300, 0).elements == (0,)

    def test_validation(self, default_op):
        e4 = rl.basis_vec(4, default_op.dim_cap)
        with pytest.raises(dyn.DynamicsError):
            rl.return_set(default_op, e4, 0.0, 10)
        with pytest.raises(dyn.DynamicsError):
            rl.return_set(default_op, e4, 0.1, -1)


class TestQuasiRigiditySearch:
    def test_pair_returns_at_the_second_deep_modulus(self, default_op):
        cap = default_op.dim_cap
        pair = (rl.basis_vec(1, cap), rl.basis_vec(2, cap))
        cands = pr.lattice_candidates(default_op.modulus, 8, multipliers=(1,),
                                      neighbors=False)
        res = rl.quasi_rigidity_search(default_op, pair, [0.1], cands)
        assert res.found and res.times == (default_op.modulus.m(5),)

    def test_full_head_basis_never_passes(self, default_op):
        cap = default_op.dim_cap
        triple = tuple(rl.basis_vec(i, cap) for i in range(1, 4))
        cands = pr.lattice_candidates(default_op.modulus, 8, multipliers=(1, 2),
                                      neighbors=True, head=64)
        res = rl.quasi_rigidity_search(default_op, triple, [0.3], cands)
        assert not res.found and res.certified

    def test_rotation_part_climbs_the_modulus_ladder(self, default_op):
        rot = default_op.rotation_part()
        cap = default_op.dim_cap
        samples = [rl.basis_vec(i, cap) for i in range(1, 5)]
        cands = pr.lattice_candidates(default_op.modulus, 6, multipliers=(1,),
                                      neighbors=False)
        res = rl.quasi_rigidity_search(rot, samples, [1.0, 0.01, 1e-6], cands)
        assert isinstance(res, rl.QrWitness) and res.found
        assert res.times == (1, default_op.modulus.m(4), default_op.modulus.m(5))
        # m_4 | m_5, so e_4 comes back exactly at both deep times
        assert res.defects[1] == 0.0 and res.defects[2] == 0.0

    def test_perturbed_operator_fails_certified(self, default_op):
        cap = default_op.dim_cap
        samples = [rl.basis_vec(i, cap) for i in range(1, 4)]
        cands = pr.lattice_candidates(default_op.modulus, 12, multipliers=(1, 2, 3),
                                      neighbors=True, head=64)
        res = rl.quasi_rigidity_search(default_op, samples, [1.0, 0.1], cands)
        assert isinstance(res, rl.QrFailure) and not res.found
        assert res.step == 2 and res.eps == 0.1
        assert res.floor == pytest.approx(1.0 / math.pi)
        assert res.certified
        assert res.best_defect > res.floor
        assert res.best_time in cands

    def test_failure_without_head_coverage_is_uncertified(self, default_op):
        e1 = rl.basis_vec(1, default_op.dim_cap)
        res = rl.quasi_rigidity_search(default_op, [e1], [1e-12], [5])
        assert isinstance(res, rl.QrFailure)
        assert res.floor is None and not res.certified
        assert res.best_time == 5

    def test_times_strictly_increase(self, default_op):
        rot = default_op.rotation_part()
        e4 = rl.basis_vec(4, default_op.dim_cap)
        cands = pr.lattice_candidates(default_op.modulus, 6, multipliers=(1,),
                                      neighbors=False)
        res = rl.quasi_rigidity_search(rot, [e4], [1.0, 1.0, 1.0], cands)
        assert list(res.times) == sorted(set(res.times))

    def test_validation(self, default_op):
        e1 = rl.basis_vec(1, default_op.dim_cap)
        with pytest.raises(dyn.DynamicsError):
            rl.quasi_rigidity_search(default_op, [e1], [], [1])
        with pytest.raises(dyn.DynamicsError):
            rl.quasi_rigidity_search(default_op, [e1], [0.5, -0.1], [1])
        with pytest.raises(dyn.DynamicsError):
            rl.quasi_rigidity_search(default_op, [e1], [0.1, 0.5], [1])
        with pytest.raises(dyn.DynamicsError):
            rl.quasi_rigidity_search(default_op, [], [0.5], [1])
        with pytest.raises(dyn.DynamicsError):
            rl.quasi_rigidity_search(default_op, [e1], [0.5], [0, -2])


class TestPeriodClassification:
    def test_multiples_cross_the_threshold(self):
        a = Multiples(5).materialize(1000)
        c = rl.classify_period_by_density(a, 50, 0.1)
        assert c.dense and c.bound == 10
        assert c.period == 5 and c.witness == (5, 10)
        assert not c.fixed_point

    def test_below_threshold_reports_nothing(self):
        a = Multiples(5).materialize(1000)
        c = rl.classify_period_by_density(a, 50, 0.5)
        assert not c.dense and c.bound == 2
        assert c.period is None and c.witness is None

    def test_consecutive_pair_flags_fixed_point(self):
        a = Multiples(1).materialize(60)
        c = rl.classify_period_by_density(a, 12, 0.6)
        assert c.dense and c.period == 1 and c.fixed_point

    def test_json_shape(self):
        a = Multiples(3).materialize(300)
        d = rl.classify_period_by_density(a, 30, 0.25).to_json_dict()
        assert set(d) == {"delta", "bound", "dense", "period", "witness",
                          "fixedPoint"}

    @given(st.sets(st.integers(0, 80), max_size=30), st.integers(1, 80),
           st.sampled_from([0.05, 0.1, 0.25, 0.5, 1.0]))
    def test_witness_is_first_pair_in_window(self, els, window, delta):
        a = NatSet(tuple(sorted(els)), 80)
        c = rl.classify_period_by_density(a, window, delta)
        start = rl.window_pair_witness(a, c.bound + 1)
        if not c.dense or start is None:
            assert c.witness is None and c.period is None
            return
        inside = [e for e in a.elements if start < e <= start + c.bound + 1]
        assert c.witness == (inside[0], inside[1])
        assert c.period == inside[1] - inside[0]

    def test_delta_range_checked(self):
        a = Multiples(2).materialize(100)
        for bad in (0.0, -0.1, 1.0000001):
            with pytest.raises(rl.NatSetError, match=r"delta must lie in \(0, 1\]"):
                rl.classify_period_by_density(a, 10, bad)
        # delta = 1 is legal but nothing exceeds it
        assert not rl.classify_period_by_density(a, 10, 1.0).dense


class TestDetectPeriod:
    def test_progression_and_multiples(self):
        assert rl.detect_period(ArithmeticProgression(3, 7).materialize(100)) == 7
        assert rl.detect_period(Multiples(4).materialize(40)) == 4

    def test_non_progressions(self):
        assert rl.detect_period(NatSet((0, 1, 3), 10)) is None
        assert rl.detect_period(NatSet((5,), 10)) is None
        assert rl.detect_period(NatSet((), 10)) is None


NORM_DIM = 64


@functools.lru_cache(maxsize=None)
def norm_test_operator(kind, p):
    """One operator of each protocol kind on NORM_DIM coordinates."""
    if kind == "diagonal":
        # exact phases mixed with numeric entries of modulus up to 1.63
        return rl.Diagonal(tuple(Fraction(1, k) if k % 3 else (1 + 0.01 * k) * np.exp(1j * k)
                                 for k in range(1, NORM_DIM + 1)), p)
    if kind == "backward-shift":
        return rl.WeightedBackwardShift(1.5 - 0.5j, NORM_DIM, p)
    if kind == "block-permutation":
        return rl.BlockPermutationIsometry(NORM_DIM, p)
    return rl.build_operator(2, dim_cap=NORM_DIM, p=p)


class TestOperatorNormBound:
    def test_stock_operators(self):
        rot = rl.diagonal_rotation([Fraction(1, 3), Fraction(1, 7)])
        assert rot.norm_bound() == 1.0
        damped = rl.Diagonal((0.5 + 0j, 0.25j), 2.0)
        assert damped.norm_bound() == 0.5
        assert rl.WeightedBackwardShift(0.5, 8).norm_bound() == 0.5
        assert rl.BlockPermutationIsometry(16).norm_bound() == 1.0

    def test_perturbed_rotation_bound_is_modest(self, default_op):
        b = default_op.norm_bound()
        assert 1.0 < b < 10.0

    @pytest.mark.parametrize("p", [1.0, 2.0, rl.SUP], ids=["l1", "l2", "sup"])
    @pytest.mark.parametrize("fold", [1, 2, 3])
    def test_perturbed_rotation_bound_within_3x_of_dense_norm(self, fold, p):
        op = rl.build_operator(fold, dim_cap=NORM_DIM, p=p)
        cols = [op.apply(rl.basis_vec(k, NORM_DIM, p)).vec.coords
                for k in range(1, NORM_DIM + 1)]
        m = np.array(cols).T
        # induced norms: largest column sum, spectral norm, largest row sum
        true = {1.0: np.abs(m).sum(axis=0).max(), 2.0: np.linalg.norm(m, 2),
                rl.SUP: np.abs(m).sum(axis=1).max()}[p]
        assert true * (1 - 1e-12) <= op.norm_bound() <= 3 * true

    @pytest.mark.parametrize("p", [1.0, 2.0, rl.SUP], ids=["l1", "l2", "sup"])
    @pytest.mark.parametrize("kind", ["diagonal", "backward-shift", "block-permutation",
                                      "perturbed-rotation"])
    @given(coords=hnp.arrays(np.complex128, NORM_DIM, elements=st.complex_numbers(
        max_magnitude=1e3, allow_nan=False, allow_infinity=False)))
    def test_bounds_apply_on_random_vectors(self, kind, p, coords):
        op = norm_test_operator(kind, p)
        x = rl.Vec(coords, p)
        assert op.apply(x).vec.norm() <= op.norm_bound() * x.norm() * (1 + 1e-12)


class TestPolynomialApply:
    def test_matches_manual_combination(self, default_op):
        x = rl.dyadic_comb(default_op.dim_cap)
        coeffs = [0.25, -1j, 0.5]
        got, _ = rl.polynomial_apply(default_op, coeffs, x)
        t1 = default_op.apply(x).vec
        t2 = default_op.apply(t1).vec
        want = 0.25 * x.coords + (-1j) * t1.coords + 0.5 * t2.coords
        assert np.max(np.abs(got.coords - want)) < 1e-12

    def test_loss_is_coefficient_weighted(self, default_op):
        x = rl.basis_vec(1, default_op.dim_cap)
        _, loss = rl.polynomial_apply(default_op, [0, 3.0], x)
        assert loss == 3.0 * default_op.apply(x).loss
        _, loss0 = rl.polynomial_apply(default_op, [2.0], x)
        assert loss0 == 0.0

    def test_empty_polynomial_rejected(self, default_op):
        with pytest.raises(dyn.DynamicsError):
            rl.polynomial_apply(default_op, [], rl.basis_vec(1, default_op.dim_cap))


class TestCommutantReturnInclusion:
    def test_holds_along_the_rotation_returns(self, default_op):
        e4 = rl.basis_vec(4, default_op.dim_cap)
        rep = rl.commutant_return_inclusion(default_op, [0.25, 0, 0.5], e4,
                                            eps=0.05, horizon=600)
        assert rep.holds and bool(rep)
        assert rep.first_violation is None
        assert rep.checked == 601
        # the tightened radius still catches every full period
        assert rep.return_count == 3
        assert rep.scale > 0.5

    def test_holds_degenerately_for_contractions(self):
        shift = rl.WeightedBackwardShift(0.5, 16)
        x = rl.basis_vec(16, 16)
        rep = rl.commutant_return_inclusion(shift, [1.0, 1.0], x, 0.25, 40)
        assert rep.holds
        assert rep.return_count == 1  # only n = 0 returns at the tight radius

    @pytest.mark.parametrize("den", [2 ** 16 - 1, 70717], ids=["folded", "direct"])
    def test_first_violation_of_an_understated_bound(self, monkeypatch, den):
        # with the norm bound of S = 10 T understated 100-fold, S x leaves eps
        # while x is still within the tight radius: the report names the first
        # such time, thousands of returns in (past the first block of the
        # folded sweep and of the direct one), and counts the returns up to it
        monkeypatch.setattr(rl.Diagonal, "norm_bound", lambda self: 0.01)
        op = rl.diagonal_rotation([Fraction(1, den)])
        x = rl.basis_vec(1, 1)
        rep = rl.commutant_return_inclusion(op, [0, 10.0], x, 5.0, 6000)
        sx, _ = rl.polynomial_apply(op, [0, 10.0], x)
        _, dx = rl.orbit_returns(op, x, 5.0, 6000)
        _, dsx = rl.orbit_returns(op, sx, 5.0, 6000)
        returns = [n for n in range(6001) if dx[n] < 5.0 / rep.scale]
        first = next(n for n in returns if not dsx[n] < 5.0)
        assert not rep.holds and rep.first_violation == first > 5000
        assert rep.return_count == returns.index(first) + 1

    def test_vanishing_polynomial_rejected(self, default_op):
        e1 = rl.basis_vec(1, default_op.dim_cap)
        with pytest.raises(dyn.DynamicsError):
            rl.commutant_return_inclusion(default_op, [0.0], e1, 0.1, 10)

    def test_json_shape(self, default_op):
        e4 = rl.basis_vec(4, default_op.dim_cap)
        rep = rl.commutant_return_inclusion(default_op, [1.0], e4, 0.1, 5)
        d = rep.to_json_dict()
        assert set(d) == {"holds", "firstViolation", "checked", "scale",
                          "returnCount", "sxLoss"}
