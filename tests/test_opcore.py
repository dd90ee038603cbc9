import cmath
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, strategies as st

import recurlab as rl
from recurlab.opcore import SUP, _block_of, unit_phase


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

    def test_coord_is_one_based(self):
        x = rl.vec_of([1, 2, 3], dim_cap=5)
        assert x.coord(2) == 2
        with pytest.raises(rl.OpcoreError):
            x.coord(0)
        with pytest.raises(rl.OpcoreError):
            x.coord(6)

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
        d = rl.vec_of([1], p=SUP).to_json_dict()
        assert d["normKind"] == "sup"
        assert rl.vec_of([1], p=2.0).to_json_dict()["normKind"] == 2.0


class TestUnitPhase:
    @given(st.integers(-10 ** 150, 10 ** 150), st.integers(1, 10 ** 150))
    def test_matches_exact_fraction_reduction(self, num, den):
        want = cmath.exp(2j * math.pi * float(Fraction(num, den) % 1))
        assert unit_phase(num, den) == want

    def test_whole_turns_are_exactly_one(self):
        assert unit_phase(0, 7) == 1 + 0j
        assert unit_phase(-3 * 10 ** 40, 10 ** 40) == 1 + 0j


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

    def test_unimodular_indices(self):
        op = rl.Diagonal((Fraction(0), 0.5, Fraction(1, 3), -1 + 0j, 0.2j), 2.0)
        got = rl.unimodular_eigen_indices(op)
        assert got.elements == (1, 3, 4)
        assert got.horizon == 5

    def test_unimodular_needs_diagonal(self):
        shift = rl.WeightedBackwardShift(0.5, 4, 2.0)
        with pytest.raises(rl.OpcoreError):
            rl.unimodular_eigen_indices(shift)


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
