import cmath
import math
from fractions import Fraction

import mpmath
import numpy as np
import pytest
from hypothesis import given, strategies as st

import recurlab as rl
from recurlab.opcore import SUP, Moduli, _block_of, int_powers


def iterate(op, n, x):
    loss = 0.0
    for _ in range(n):
        applied = op.apply(x)
        x, loss = applied.vec, loss + applied.loss
    return x, loss


finite_complex = st.complex_numbers(max_magnitude=5.0, allow_nan=False,
                                    allow_infinity=False)


class TestVec:
    def test_norms_by_hand(self):
        x = rl.vec_of([3, 4], dim_cap=4, p=2.0)
        assert x.norm() == 5.0
        assert rl.vec_of([3, 4], dim_cap=4, p=1.0).norm() == 7.0
        assert rl.vec_of([3, -4], dim_cap=4, p=SUP).norm() == 4.0

    def test_basis_and_zero(self):
        e = rl.basis_vec(3, 5)
        assert list(e.coords) == [0, 0, 1, 0, 0]
        assert rl.zero_vec(4).norm() == 0.0
        with pytest.raises(rl.OpcoreError):
            rl.basis_vec(6, 5)

    def test_vec_of_pads_and_rejects_overflow(self):
        x = rl.vec_of([1, 2], dim_cap=4)
        assert x.dim_cap == 4 and x.coords[3] == 0
        with pytest.raises(rl.OpcoreError):
            rl.vec_of([1, 2, 3], dim_cap=2)

    @given(st.lists(finite_complex, min_size=1, max_size=8))
    def test_norm_ordering_across_exponents(self, entries):
        sup_n = rl.vec_of(entries, p=SUP).norm()
        two_n = rl.vec_of(entries, p=2.0).norm()
        one_n = rl.vec_of(entries, p=1.0).norm()
        assert sup_n <= two_n + 1e-12 <= one_n + 1e-9

    @given(st.lists(finite_complex, min_size=1, max_size=8),
           st.lists(finite_complex, min_size=1, max_size=8))
    def test_triangle_inequality(self, a, b):
        n = max(len(a), len(b))
        xa = rl.vec_of(a, dim_cap=n)
        xb = rl.vec_of(b, dim_cap=n)
        both = rl.Vec(xa.coords + xb.coords, 2.0)
        assert both.norm() <= xa.norm() + xb.norm() + 1e-9

    def test_sup_norm_kind_in_json(self):
        assert rl.diagonal_rotation([], 1, p=SUP).descriptor()["normKind"] == "sup"
        assert rl.diagonal_rotation([], 1, p=2.0).descriptor()["normKind"] == 2.0


EXPONENTS = [1.0, 2.0, 3.0, 40.0, 300.0, 2000.0]
# moduli from 1e-300 to 1e300 in a few directions, and zero
wide_entry = st.one_of(st.just(0j), st.builds(
    lambda m, e, u: m * 10.0 ** e * u, st.floats(1, 10), st.integers(-300, 299),
    st.sampled_from([1, -1, 1j, -1j, 0.6 + 0.8j])))
wide_rows = st.integers(1, 8).flatmap(lambda d: st.lists(
    st.lists(wide_entry, min_size=d, max_size=d), min_size=1, max_size=4))


def mp_norm(row, p):
    with mpmath.workdps(40):
        mods = [mpmath.sqrt(mpmath.mpf(z.real) ** 2 + mpmath.mpf(z.imag) ** 2) for z in row]
        return mpmath.fsum(m ** p for m in mods) ** (1 / mpmath.mpf(p))


class TestRowNormsAtExtremeMagnitudes:
    """sum |x|^p leaves the floats for large p or extreme moduli; the norm must not."""

    def test_large_exponent_does_not_underflow(self):
        got = rl.vec_of([0.5, 0.5], 8, 2000.0).norm()
        assert got == pytest.approx(0.5 * 2 ** (1 / 2000), rel=1e-15)

    @given(wide_rows, st.sampled_from(EXPONENTS))
    def test_bounded_by_sup_and_matches_mpmath(self, rows, p):
        xs = np.array(rows, dtype=complex)
        got = rl.opcore.row_norms(xs, p)
        sup = np.abs(xs).max(axis=-1)
        assert (sup * (1 - 1e-15) <= got).all()
        assert (got <= xs.shape[-1] ** (1 / p) * sup * (1 + 1e-15)).all()
        for row, g in zip(rows, got):
            assert float(abs(g - mp_norm(row, p))) <= 1e-12 * g

    @given(wide_rows, st.sampled_from(EXPONENTS))
    def test_rows_of_ordinary_magnitude_keep_their_bits(self, rows, p):
        xs = np.array(rows, dtype=complex)
        with np.errstate(over="ignore"):
            plain = np.linalg.norm(xs, ord=p, axis=-1)
        edge = 2.0 ** (rl.opcore._NORMAL_SPAN / p)
        kept = (1 / edge <= plain) & (plain <= edge)
        assert (rl.opcore.row_norms(xs, p)[kept] == plain[kept]).all()


def unit_phase(num, den, n=1):
    mods = Moduli([num], [den])
    return complex(mods.turns(mods.residues([n])[0])[0, 0])


class TestUnitPhase:
    @given(st.integers(-10 ** 150, 10 ** 150), st.integers(1, 10 ** 150),
           st.integers(0, 10 ** 20))
    def test_matches_exact_fraction_reduction(self, num, den, n):
        # int/int true division of the residue, or within two ulps of it in int64
        want = cmath.exp(2j * math.pi * float(Fraction(n * num, den) % 1))
        assert abs(unit_phase(num, den, n) - want) <= 1e-15

    def test_python_int_residues_give_the_exact_angle(self):
        num, den = 3 * 10 ** 40 + 1, 7 * 10 ** 40 + 3
        assert unit_phase(num, den) == cmath.exp(2j * math.pi * float(Fraction(num, den) % 1))

    def test_whole_turns_are_exactly_one(self):
        assert unit_phase(0, 7) == 1 + 0j
        assert unit_phase(-3 * 10 ** 40, 10 ** 40) == 1 + 0j
        assert unit_phase(5, 7, 7 * 10 ** 30) == 1 + 0j


class TestIntPowers:
    @given(finite_complex, st.integers(0, 100))
    def test_bit_identical_to_complex_pow_up_to_100(self, v, n):
        assert int_powers(v, [n])[0] == v ** n

    @pytest.mark.parametrize("n", [101, 10 ** 40, 10 ** 40 + 1, 2 ** 63 + 3])
    def test_units_keep_their_phase_at_large_n(self, n):
        units = [1 + 0j, -1 + 0j, 1j, -1j]
        op = rl.Diagonal(tuple(units), 2.0)
        got = op.power(n, rl.vec_of([1, 1, 1, 1])).vec.coords.tolist()
        assert got == [u ** (n % 4) for u in units]
        assert int_powers(1j, [n, 0, 101]).tolist() == [1j ** (n % 4), 1, 1j]

    def test_shift_weight_keeps_its_phase(self):
        op = rl.WeightedBackwardShift(1j, 120, 2.0)
        assert op.power(101, rl.basis_vec(120, 120)).vec.coords[18] == 1j

    def test_overflow_is_loud(self):
        with pytest.raises(OverflowError):
            int_powers(2.0, [2000])
        assert int_powers(0.5, [2000])[0] == 0


class TestDiagonal:
    def test_exact_quarter_turn_cycles(self):
        op = rl.diagonal_rotation([Fraction(1, 4)], dim_cap=3)
        e1 = rl.basis_vec(1, 3)
        out = op.power(4, e1).vec
        # (n * 1/4) mod 1 == 0, so the phase factor is exactly 1
        assert out.coords[0] == 1 + 0j
        assert op.power(400000001, e1).vec.coords[0] == op.apply(e1).vec.coords[0]
        assert abs(op.power(2, e1).vec.coords[0] + 1) < 1e-15

    def test_identity_padding(self):
        op = rl.diagonal_rotation([Fraction(1, 3)], dim_cap=4)
        e4 = rl.basis_vec(4, 4)
        assert np.array_equal(op.apply(e4).vec.coords, e4.coords)

    @pytest.mark.parametrize("n", [1, 7, 50, 200])
    def test_power_matches_iteration(self, n):
        op = rl.Diagonal((Fraction(1, 7), Fraction(2, 5), 0.5 + 0.1j, 1 + 0j), 2.0)
        x = rl.vec_of([1, 1j, 2, -1], dim_cap=4)
        fast = op.power(n, x).vec
        slow, _ = iterate(op, n, x)
        assert np.max(np.abs(fast.coords - slow.coords)) < 1e-10

    def test_power_reduces_phases_exactly(self):
        op = rl.Diagonal((Fraction(3, 10 ** 30 + 7), Fraction(-2, 9), Fraction(5), 0.5j), 2.0)
        x = rl.vec_of([1, 1, 1, 1])
        n = 10 ** 45 + 11
        want = [cmath.exp(2j * math.pi * float(n * Fraction(3, 10 ** 30 + 7) % 1)),
                cmath.exp(2j * math.pi * float(n * Fraction(-2, 9) % 1)),
                1 + 0j, 0.5j ** n]
        assert op.power(n, x).vec.coords.tolist() == want

    def test_apply_loss_is_zero(self):
        op = rl.Diagonal((Fraction(1, 2),), 2.0)
        assert op.apply(rl.basis_vec(1, 1)).loss == 0.0



class TestWeightedBackwardShift:
    def test_moves_basis_down(self):
        op = rl.WeightedBackwardShift(0.5, 6, 2.0)
        out = op.apply(rl.basis_vec(5, 6)).vec
        assert out.coords[3] == 0.5
        assert np.count_nonzero(out.coords) == 1

    def test_first_coordinate_leaves(self):
        op = rl.WeightedBackwardShift(2.0, 4, 2.0)
        out = op.apply(rl.basis_vec(1, 4)).vec
        assert np.count_nonzero(out.coords) == 0

    @pytest.mark.parametrize("n", [1, 3, 10])
    def test_power_matches_iteration(self, n):
        op = rl.WeightedBackwardShift(0.5, 8, 2.0)
        x = rl.vec_of([1, 2, 3, 4, 5, 6, 7, 8], dim_cap=8)
        fast = op.power(n, x).vec
        slow, _ = iterate(op, n, x)
        assert np.array_equal(fast.coords, slow.coords)

    def test_nilpotent_at_dim_cap(self):
        op = rl.WeightedBackwardShift(0.9, 5, 2.0)
        x = rl.vec_of([1, 1, 1, 1, 1], dim_cap=5)
        assert op.power(5, x).vec.norm() == 0.0


class TestBlockPermutationIsometry:
    def test_block_layout(self):
        assert _block_of(2) == (2, 2)
        assert _block_of(3) == (3, 4)
        assert _block_of(4) == (3, 4)
        assert _block_of(5) == (5, 8)
        assert _block_of(9) == (9, 16)

    def test_swaps_within_small_block(self):
        op = rl.BlockPermutationIsometry(8, 2.0)
        assert np.argmax(np.abs(op.apply(rl.basis_vec(4, 8)).vec.coords)) == 2
        assert np.argmax(np.abs(op.apply(rl.basis_vec(3, 8)).vec.coords)) == 3

    def test_fixed_points(self):
        op = rl.BlockPermutationIsometry(8, 2.0)
        for k in (1, 2):
            out = op.apply(rl.basis_vec(k, 8)).vec
            assert out.coords[k - 1] == 1

    @pytest.mark.parametrize("n", [1, 5, 64, 200])
    def test_power_matches_iteration_bit_exact(self, n):
        op = rl.BlockPermutationIsometry(16, 2.0)
        x = rl.vec_of([complex(i, -i) for i in range(1, 17)], dim_cap=16)
        fast = op.power(n, x).vec
        slow, _ = iterate(op, n, x)
        assert np.array_equal(fast.coords, slow.coords)

    def test_full_blocks_preserve_norm(self):
        op = rl.BlockPermutationIsometry(16, 2.0)
        x = rl.vec_of([complex(i, 1) for i in range(1, 17)], dim_cap=16)
        assert op.apply(x).vec.norm() == pytest.approx(x.norm(), abs=1e-12)

    def test_straddled_block_reports_loss(self):
        # cap 6 cuts the block [5, 8]; mass pushed past the cap must be
        # dropped and acknowledged
        op = rl.BlockPermutationIsometry(6, 2.0)
        e6 = rl.basis_vec(6, 6)
        applied = op.apply(e6)
        assert applied.vec.norm() == 0.0
        assert applied.loss == pytest.approx(1.0)

    @pytest.mark.parametrize("p", [1.0, 2.0, 3.0, rl.SUP], ids=["l1", "l2", "l3", "sup"])
    def test_evaluator_loss_is_the_dropped_mass(self, p):
        # cap 50 cuts the block [33, 64]: the permutation keeps the norm of
        # everything but the mass it pushes past the cap, which the loss of the
        # evaluator's blocks reports, so ||T^n x||^p + loss^p = ||x||^p (max
        # form for sup)
        op = rl.BlockPermutationIsometry(50, p)
        rs = np.random.RandomState(50)
        samples = [rl.Vec(rs.standard_normal(50) + 1j * rs.standard_normal(50), p),
                   rl.dyadic_comb(50, p), rl.basis_vec(33, 50, p), rl.basis_vec(50, 50, p),
                   rl.basis_vec(1, 50, p)]
        xs = rl.stack(op, samples)
        norms = rl.opcore.row_norms(xs, p)
        times = list(range(200)) + [2 ** 62 + 7, 10 ** 40]
        for block, _ in rl.displacements(op, times, samples):
            loss = op.losses(block, xs)
            kept = rl.opcore.row_norms(op.powers(block.tolist(), xs), p)
            want = np.broadcast_to(norms, kept.shape)
            if p == rl.SUP:
                np.testing.assert_allclose(np.maximum(kept, loss), want, rtol=1e-12, atol=0)
            else:
                np.testing.assert_allclose(kept ** p + loss ** p, want ** p, rtol=1e-12, atol=0)
        assert op.loss(0, samples[0]) == 0.0 and op.loss(60, samples[2]) == 1.0

    def test_power_loss_accumulates_like_iteration(self):
        op = rl.BlockPermutationIsometry(6, 2.0)
        x = rl.vec_of([0, 0, 0, 0, 1, 1], dim_cap=6)
        fast = op.power(3, x)
        _, slow_loss = iterate(op, 3, x)
        assert fast.loss <= slow_loss + 1e-12


class TestKrylovRank:
    def test_vandermonde_three_eigenvalues(self):
        # orbit of a vector touching three distinct unimodular eigenvalues
        # spans exactly a 3-dimensional space, whatever the depth
        op = rl.Diagonal((Fraction(1, 3), Fraction(1, 4), Fraction(1, 5)), 2.0)
        x = rl.vec_of([1, 1, 1], dim_cap=3)
        assert rl.krylov_rank(op, x, depth=1) == 1
        assert rl.krylov_rank(op, x, depth=2) == 2
        assert rl.krylov_rank(op, x, depth=3) == 3
        assert rl.krylov_rank(op, x, depth=12) == 3

    def test_repeated_eigenvalue_collapses(self):
        op = rl.Diagonal((Fraction(1, 3), Fraction(1, 3)), 2.0)
        x = rl.vec_of([1, 1], dim_cap=2)
        assert rl.krylov_rank(op, x, depth=8) == 1

    def test_zero_vector_rank_zero(self):
        op = rl.Diagonal((Fraction(1, 3),), 2.0)
        assert rl.krylov_rank(op, rl.zero_vec(1), depth=4) == 0

    def test_shift_orbit_spans_everything(self):
        d = 12
        op = rl.WeightedBackwardShift(1.0, d, 2.0)
        x = rl.basis_vec(d, d)
        assert rl.krylov_rank(op, x, depth=d) == d
        assert rl.krylov_rank(op, x, depth=5) == 5

    def test_depth_validation(self):
        op = rl.Diagonal((Fraction(1, 3),), 2.0)
        with pytest.raises(rl.OpcoreError):
            rl.krylov_rank(op, rl.basis_vec(1, 1), depth=0)


class TestDistanceAndMixing:
    def test_distance_requires_same_space(self):
        with pytest.raises(rl.OpcoreError):
            rl.distance(rl.basis_vec(1, 3), rl.basis_vec(1, 4))
        with pytest.raises(rl.OpcoreError):
            rl.distance(rl.vec_of([1], p=1.0), rl.vec_of([1], p=2.0))

    def test_dyadic_comb_support(self):
        x = rl.dyadic_comb(40)
        support = [i + 1 for i in np.nonzero(x.coords)[0]]
        assert support == [2, 3, 5, 9, 17, 33]
        assert x.coords[1] == 1.0 and x.coords[4] == 0.25

    @given(st.integers(1, 30))
    def test_diagonal_power_unimodular_preserves_norm(self, n):
        op = rl.Diagonal((Fraction(1, 7), Fraction(3, 8), Fraction(1, 2)), 2.0)
        x = rl.vec_of([1, -2j, 0.5], dim_cap=3)
        assert op.power(n, x).vec.norm() == pytest.approx(x.norm(), rel=1e-12)
