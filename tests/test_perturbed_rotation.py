import cmath
import math
import random
from fractions import Fraction

import numpy as np
import pytest

import recurlab as rl
from recurlab import perturbed_rotation as pr


def dense_matrix(op):
    """The operator as an explicit matrix, assembled from its raw data."""
    n = op.dim_cap
    m = np.eye(n, dtype=np.complex128)
    for k in range(1, op.levels + 1):
        mod = op.modulus.m(k)
        m[k - 1, k - 1] = cmath.exp(2j * math.pi * ((1 % mod) / mod))
    for entry in op.grid.entries:
        k = entry.level
        w = 1.0 / float(op.modulus.m(k - 1))
        for j, a in enumerate(entry.alpha):
            m[k - 1, j] += w * a
    return m


class TestModulusLadder:
    def test_head_block_is_unit(self):
        lad = pr.build_modulus_ladder(2, 10)
        assert lad.values[:3] == (1, 1, 1)

    def test_hand_values_default_rule(self):
        lad = pr.build_modulus_ladder(2, 8)
        # factors 2^(k+2) * k^2 starting at k = 3
        assert lad.m(4) == 32 * 9
        assert lad.m(5) == lad.m(4) * 64 * 16
        assert lad.m(6) == lad.m(5) * 128 * 25

    def test_divisibility_chain(self):
        lad = pr.build_modulus_ladder(3, 14)
        for k in range(1, lad.levels):
            assert lad.m(k + 1) % lad.m(k) == 0

    def test_cert_bound_is_exact_tail_sum(self):
        lad = pr.build_modulus_ladder(2, 12)
        for j in range(1, 12):
            want = sum(Fraction(lad.m(j), lad.m(k)) for k in range(j + 1, 13))
            assert lad.cert_bound(j) == want

    def test_cert_bound_decays_dyadically(self):
        lad = pr.build_modulus_ladder(2, 16)
        for j in range(3, 16):
            assert lad.cert_bound(j) <= Fraction(1, 2 ** j)

    def test_coupling_sum_dominates_cert_bound(self):
        lad = pr.build_modulus_ladder(2, 10)
        for j in range(1, 10):
            assert lad.coupling_sum(j) > lad.cert_bound(j)

    def test_extended_continues_by_rule(self):
        lad = pr.build_modulus_ladder(2, 8)
        assert lad.extended_m(8) == lad.m(8)
        assert lad.extended_m(9) == lad.m(8) * lad.growth(8)
        assert lad.extended_m(10) == lad.extended_m(9) * lad.growth(9)

    def test_validation(self):
        with pytest.raises(pr.ConstructionError):
            pr.build_modulus_ladder(0, 8)
        with pytest.raises(pr.ConstructionError):
            pr.build_modulus_ladder(3, 5)
        lad = pr.build_modulus_ladder(2, 8)
        with pytest.raises(pr.ConstructionError):
            lad.m(9)
        with pytest.raises(pr.ConstructionError):
            lad.m(0)


class TestQuantizer:
    def test_coordinate_functional_is_fixed_point(self):
        q = pr.quantize_head_functional((0j, 1 + 0j, 0j), 0.5)
        assert q == (0j, 1 + 0j, 0j)

    def test_dominant_pinned_to_unit_modulus(self):
        q = pr.quantize_head_functional((0.97, 0.2j, 0.1), 0.25)
        assert abs(q[0]) == 1.0

    @pytest.mark.parametrize("mesh", [1.0, 0.5, 0.1, 0.01])
    def test_error_within_half_mesh(self, mesh):
        rng = random.Random(404)
        for _ in range(40):
            raw = [complex(rng.uniform(-1, 1), rng.uniform(-1, 1)) for _ in range(3)]
            top = max(abs(c) for c in raw)
            alpha = tuple(c / top for c in raw)
            q = pr.quantize_head_functional(alpha, mesh)
            err = max(abs(a - b) for a, b in zip(alpha, q))
            assert err <= mesh / 2 + 1e-12
            assert max(abs(c) for c in q) == pytest.approx(1.0, abs=1e-12)

    def test_zero_rejected(self):
        with pytest.raises(pr.ConstructionError):
            pr.quantize_head_functional((0j, 0j), 0.5)


class TestFunctionalGrid:
    def test_default_layout(self):
        grid = pr.build_functional_grid(2)
        per_group = 3
        assert len(grid.entries) == per_group * len(pr.DEFAULT_MESH)
        assert grid.entries[0].level == 4
        assert grid.entries[0].alpha == (1 + 0j, 0j, 0j)
        assert grid.entries[2].level == 6 and grid.entries[2].mesh == 1.0
        assert grid.finest_mesh == float(pr.DEFAULT_MESH[-1])

    def test_meshes_weakly_decrease_along_levels(self):
        grid = pr.build_functional_grid(1, [1, Fraction(1, 3), Fraction(1, 9)])
        meshes = [e.mesh for e in grid.entries]
        assert meshes == sorted(meshes, reverse=True)

    def test_targets_are_quantized_into_every_group(self):
        t = (0.8 + 0.1j, -1.0, 0.2j)
        grid = pr.build_functional_grid(2, [1, Fraction(1, 10)], targets=[t])
        assert len(grid.entries) == 2 * 4
        fine = grid.entries[-1]
        assert max(abs(a - b) for a, b in zip(fine.alpha, t)) <= 0.05 + 1e-12

    def test_duplicate_target_dropped(self):
        # a target equal to a coordinate functional quantizes onto it
        grid = pr.build_functional_grid(2, [1], targets=[(1, 0, 0)])
        assert len(grid.entries) == 3

    def test_validation(self):
        with pytest.raises(pr.ConstructionError):
            pr.build_functional_grid(2, [])
        with pytest.raises(pr.ConstructionError):
            pr.build_functional_grid(2, [1, 1])
        with pytest.raises(pr.ConstructionError):
            pr.build_functional_grid(2, [Fraction(1, 2), 1])
        with pytest.raises(pr.ConstructionError):
            pr.build_functional_grid(2, [1], targets=[(1, 0)])
        # distinct as Fractions, both 0.0 as the floats the entries store
        with pytest.raises(pr.ConstructionError, match="positive"):
            pr.build_functional_grid(2, [Fraction(1, 10 ** 400), Fraction(1, 10 ** 401)])
        with pytest.raises(pr.ConstructionError, match="decreasing"):
            pr.build_functional_grid(2, [Fraction(1, 10), Fraction(1, 10) - Fraction(1, 10 ** 30)])

    def test_norm_equivalence_constants(self):
        assert pr.build_operator(2, p=2.0).norm_equiv_upper() == pytest.approx(math.sqrt(3))
        assert pr.build_operator(2, p=1.0).norm_equiv_upper() == 1.0
        assert pr.build_operator(2, p=rl.SUP).norm_equiv_upper() == 3.0


class TestPhaseSum:
    def brute(self, m, n):
        lam = cmath.exp(2j * math.pi / m)
        return sum(lam ** l for l in range(n))

    @pytest.mark.parametrize("n", [1, 5, 143, 144, 287, 288, 289, 1000])
    def test_matches_term_sum_at_first_deep_level(self, default_op, n):
        m4 = default_op.modulus.m(4)
        got = default_op.phase_sum(4, n)
        want = self.brute(m4, n % m4 if n >= m4 else n)
        if n % m4 == 0:
            assert got == 0j
        else:
            assert abs(got - want) < 1e-9 * max(1.0, abs(want))

    def test_exact_zero_on_full_cycles(self, default_op):
        for k in (4, 5, 6):
            m = default_op.modulus.m(k)
            assert default_op.phase_sum(k, m) == 0j
            assert default_op.phase_sum(k, 7 * m) == 0j

    def test_zero_at_deeper_lattice_times(self, default_op):
        # m_k divides m_j for j >= k, so the sum closes up exactly
        for k in (4, 5):
            for j in range(k, 8):
                assert default_op.phase_sum(k, default_op.modulus.m(j)) == 0j

    def test_magnitude_never_exceeds_term_count(self, default_op):
        for n in (1, 17, 288, 94371, 10 ** 12 + 3, 10 ** 61 + 7):
            for k in range(4, default_op.levels + 1):
                assert abs(default_op.phase_sum(k, n)) <= n * (1 + 1e-12) + 1e-9

    def test_validation(self, default_op):
        with pytest.raises(pr.ConstructionError):
            default_op.phase_sum(3, 5)
        with pytest.raises(pr.ConstructionError):
            default_op.phase_sum(4, 0)


@pytest.fixture(scope="module")
def small_op():
    return pr.build_operator(1, mesh_levels=[1, Fraction(1, 2)], dim_cap=16)


class TestOperatorAction:
    def test_apply_matches_dense_matrix(self, small_op):
        m = dense_matrix(small_op)
        rng = random.Random(7)
        for _ in range(10):
            raw = [complex(rng.uniform(-1, 1), rng.uniform(-1, 1)) for _ in range(16)]
            x = rl.vec_of(raw, dim_cap=16)
            got = small_op.apply(x).vec.coords
            assert np.max(np.abs(got - m @ x.coords)) < 1e-12

    @pytest.mark.parametrize("n", [0, 1, 2, 7, 29, 60])
    def test_power_matches_dense_matrix_power(self, small_op, n):
        m = dense_matrix(small_op)
        x = rl.vec_of([1, -0.5j, 0, 0.25, 1j, 0.1], dim_cap=16)
        got = small_op.power(n, x).vec.coords
        want = np.linalg.matrix_power(m, n) @ x.coords
        assert np.max(np.abs(got - want)) < 1e-8

    def test_power_matches_iterated_apply(self, default_op):
        x = rl.dyadic_comb(default_op.dim_cap)
        y = x
        for n in range(1, 120):
            y = default_op.apply(y).vec
            if n in (1, 2, 17, 100, 119):
                fast = default_op.power(n, x).vec
                assert rl.distance(fast, y) < 1e-10

    def test_first_basis_vector_expansion(self, default_op):
        # e_1 is fixed by the rotation; every grid row starting with 1 feeds
        # level k scaled by 1/m_{k-1}
        out = default_op.apply(rl.basis_vec(1, default_op.dim_cap)).vec
        assert out.coords[0] == 1.0
        assert out.coords[3] == 1.0  # level 4: weight 1/m_3 = 1
        m6 = default_op.modulus.m(6)
        assert out.coords[6] == pytest.approx(1.0 / m6, rel=1e-15)
        assert out.coords[1] == 0 and out.coords[4] == 0

    def test_head_coordinates_never_move(self, default_op):
        x = rl.vec_of([0.3, -1j, 0.7, 0.2, 0.1j], dim_cap=default_op.dim_cap)
        for n in (1, 17, 288):
            y = default_op.power(n, x).vec
            assert np.array_equal(y.coords[:3], x.coords[:3])

    def test_power_zero_is_identity(self, default_op):
        x = rl.dyadic_comb(default_op.dim_cap)
        out = default_op.power(0, x)
        assert np.array_equal(out.vec.coords, x.coords)
        assert out.loss == 0.0

    def test_dimension_and_norm_guards(self, default_op):
        with pytest.raises(pr.ConstructionError):
            default_op.apply(rl.basis_vec(1, default_op.dim_cap + 1))
        with pytest.raises(pr.ConstructionError):
            default_op.apply(rl.basis_vec(1, default_op.dim_cap, p=1.0))
        with pytest.raises(pr.ConstructionError):
            default_op.power(-1, rl.basis_vec(1, default_op.dim_cap))

    def test_rotation_part_matches_power_on_deep_basis(self, default_op):
        rot = default_op.rotation_part()
        e5 = rl.basis_vec(5, default_op.dim_cap)
        for n in (1, 100, default_op.modulus.m(5)):
            a = rot.power(n, e5).vec
            b = default_op.power(n, e5).vec  # no head mass, no perturbation
            assert rl.distance(a, b) < 1e-12

    def test_tail_loss_scales_with_input(self, default_op):
        x = rl.basis_vec(1, default_op.dim_cap)
        small = default_op.apply(x).loss
        big = default_op.apply(rl.Vec(10 * x.coords, x.p)).loss
        assert big == pytest.approx(10 * small, rel=1e-12)
        assert 0 < small < 1e-30


class TestTruncationLoss:
    """`loss` bounds what the truncation drops.

    A deeper build with the same ladder prefix (min_levels) computes the
    coordinates the shallow build discards; past the shallow levels its
    T^n x must have norm at most the shallow loss.
    """

    @pytest.mark.parametrize("p", [1.0, 2.0, rl.SUP], ids=["l1", "l2", "sup"])
    @pytest.mark.parametrize("fold", [1, 2, 3])
    def test_deep_tail_within_shallow_loss(self, fold, p):
        shallow = pr.build_operator(fold, dim_cap=80, p=p)
        levels = shallow.levels
        deep = pr.build_operator(fold, dim_cap=80, p=p, min_levels=levels + 6)
        assert deep.modulus.values[:levels] == shallow.modulus.values
        rs = np.random.RandomState(fold)
        c = np.zeros(80, dtype=np.complex128)
        c[:levels] = rs.standard_normal(levels) + 1j * rs.standard_normal(levels)
        times = set(range(1, 200))
        for j in range(1, levels + 1):
            m = shallow.modulus.m(j)
            times |= {k * m + d for k in (1, 2, 3) for d in (-1, 0, 1) if k * m + d >= 1}
        # e_1 meets its unit coordinate functionals with equality in Holder,
        # so in the 1-norm the bound is attained up to m_L / m_{L+1}
        for x in (rl.Vec(c, p), rl.basis_vec(1, 80, p)):
            for n in sorted(times):
                near, far = shallow.power(n, x), deep.power(n, x)
                assert np.array_equal(near.vec.coords[:levels], far.vec.coords[:levels])
                assert rl.Vec(far.vec.coords[levels:], p).norm() <= near.loss


class TestBuildOperator:
    def test_padding_reaches_min_levels(self):
        op = pr.build_operator(2, mesh_levels=[1, Fraction(1, 2)], min_levels=12)
        assert op.levels == 12
        padded = op.grid.entries[6:]
        assert all(e.mesh == 0.5 for e in padded)
        assert {e.alpha for e in padded} <= {(1 + 0j, 0j, 0j), (0j, 1 + 0j, 0j),
                                             (0j, 0j, 1 + 0j)}

    def test_descriptor_is_reproducible(self):
        a = pr.build_operator(2, targets=[(0.5, 1, 0)], dim_cap=40)
        b = pr.build_operator(2, targets=[(0.5, 1, 0)], dim_cap=40)
        assert a.descriptor() == b.descriptor()
        c = pr.build_operator(2, targets=[(0.5, 0.9, 0)], dim_cap=40)
        assert a.descriptor() != c.descriptor()

    @pytest.mark.parametrize("fold", [1, 2, 3])
    @pytest.mark.parametrize("mesh", [[1], [1, 0.5, 0.1], pr.DEFAULT_MESH])
    @pytest.mark.parametrize("with_targets", [False, True])
    @pytest.mark.parametrize("min_levels", [0, 7, 30])
    def test_parts_follow_from_parameters(self, fold, mesh, with_targets, min_levels):
        head = fold + 1
        targets = [tuple(0.5 ** j * 1j ** j for j in range(head))] if with_targets else []
        op = pr.PerturbedRotation(fold, mesh, targets, 4, 2.0, min_levels)
        assert [e.level for e in op.grid.entries] == list(
            range(head + 1, head + 1 + len(op.grid.entries)))
        assert op.levels == head + len(op.grid.entries) == op.modulus.levels
        assert op.levels >= max(min_levels, fold + 3)
        assert op.modulus.values[:head] == (1,) * head
        assert op.dim_cap >= op.levels

    def test_dim_cap_floor_is_levels(self):
        # a cap below the level count is raised to it
        assert pr.build_operator(2, dim_cap=3).dim_cap == 24
        assert pr.build_operator(2).dim_cap == 24

    @pytest.mark.parametrize("kwargs, digest", [
        ({"fold_n": 1, "p": 1.0}, "84e9eae037cdea88b046e8eed2213c499af2f56e69ffa486c21ac859f492ffc4"),
        ({"fold_n": 1, "p": 2.0}, "0c00be6bd28cfbfe59d1de9250234a6fbee0eb9200931315bca1cb6a0082a491"),
        ({"fold_n": 1, "p": rl.SUP}, "2b6dde88f7c6d7b17f4fe687655efed05d0d72b0e24dc4b25a95420b7653c626"),
        ({"fold_n": 2, "p": 1.0}, "fbcd8f1f892eda87d4743a9dcdd7c17dbbadc2639814793cc0ff557b6aff26c0"),
        ({"fold_n": 2, "p": 2.0}, "21545224c978560d24eba902dfe520025e4c29cb6db84f087ed93e44f8afc2db"),
        ({"fold_n": 2, "p": rl.SUP}, "483cfe8844e0ede6f2cecc87e522f432abea12d6ca2249bd2969b9a6513fea2f"),
        ({"fold_n": 3, "p": 1.0}, "deda4f8d1b534d7895118a83b057a91e019c51e8a1f2c9e20aa3bd9e2aadc6a5"),
        ({"fold_n": 3, "p": 2.0}, "8a0848673718dcf603f0a29b5742cadb6238475efd61b2d4c8d2631f29e13927"),
        ({"fold_n": 3, "p": rl.SUP}, "9fbc8eff5432035d9ca5525ae0c3aad7e88299f1018c425f4d3d74b198e233cc"),
        ({"fold_n": 2, "mesh_levels": [1, 0.5, 0.1]},
         "1fd4e51cd10b68002ac366fd4b0323ce9878eeb856ec4855d778a2a5181b5c77"),
        ({"fold_n": 2, "targets": [(1, 0.5j, 0.25)]},
         "8f0f520cdad79b57a6181ef99101e698ded7133cf53055a2a8fde9853de0f08d"),
        ({"fold_n": 1, "min_levels": 30},
         "97d0e3b753355d532b1b928947ef58127caa671b6caa30054445d7a2468c1fd6"),
        # raised to 24 levels, so the same operator as the fold-2 2-norm default
        ({"fold_n": 2, "dim_cap": 4},
         "21545224c978560d24eba902dfe520025e4c29cb6db84f087ed93e44f8afc2db"),
    ])
    def test_descriptor_hash_is_pinned(self, kwargs, digest):
        # digests of the descriptors before the operator derived its own parts
        assert rl.descriptor_hash(pr.build_operator(**kwargs).descriptor()) == digest


class TestRigidity:
    def test_defect_zero_on_shallow_support(self, default_op):
        x = rl.vec_of([0.5, 1j, -1, 0.25, 0.1], dim_cap=default_op.dim_cap)
        # support lives on levels 1..5; time m_5 rotates each exactly back
        r = pr.rigidity_defect(default_op, 5, [x])
        assert r.defect == 0.0

    def test_defect_below_bound_on_unit_samples(self, default_op):
        samples = [rl.basis_vec(i, default_op.dim_cap) for i in range(1, 4)]
        comb = rl.dyadic_comb(default_op.dim_cap)
        samples.append(rl.Vec(comb.coords / comb.norm(), comb.p))
        for j in range(1, 12):
            r = pr.rigidity_defect(default_op, j, samples)
            assert r.defect <= r.bound + 1e-12
            assert r.bound == pytest.approx(2 * math.pi * float(r.bound_exact))

    def test_bound_exact_includes_unbuilt_tail(self, default_op):
        r = pr.rigidity_defect(default_op, 5, [rl.basis_vec(1, default_op.dim_cap)])
        assert r.bound_exact > default_op.modulus.cert_bound(5)

    def test_sample_space_checked(self, default_op):
        with pytest.raises(pr.ConstructionError):
            pr.rigidity_defect(default_op, 3, [rl.basis_vec(1, default_op.dim_cap + 1)])
        with pytest.raises(pr.ConstructionError):
            pr.rigidity_defect(default_op, 3, [rl.basis_vec(1, default_op.dim_cap, p=1.0)])

    def test_level_range_checked(self, default_op):
        with pytest.raises(pr.ConstructionError):
            pr.rigidity_defect(default_op, 0, [])
        with pytest.raises(pr.ConstructionError):
            pr.rigidity_defect(default_op, default_op.levels, [])


class TestAnnihilator:
    def test_two_basis_vectors(self, default_op):
        cap = default_op.dim_cap
        alpha = pr.annihilating_functional(
            [rl.basis_vec(1, cap), rl.basis_vec(2, cap)], 2)
        assert np.allclose(alpha, [0, 0, 1], atol=1e-12)
        assert alpha[2] == 1.0

    def test_fold_one_pair(self):
        v = rl.vec_of([1, 1], dim_cap=8)
        alpha = pr.annihilating_functional([v], 1)
        # dominant entry normalized to exactly one at the least index
        assert alpha[0] == 1.0
        assert np.allclose(alpha, [1, -1], atol=1e-12)

    def test_mixed_span(self):
        v1 = rl.vec_of([1, 1, 0], dim_cap=8)
        v2 = rl.vec_of([0, 0, 1], dim_cap=8)
        alpha = pr.annihilating_functional([v1, v2], 2)
        assert np.allclose(alpha, [1, -1, 0], atol=1e-12)

    def test_zero_rows_give_first_coordinate(self):
        z = rl.zero_vec(8)
        alpha = pr.annihilating_functional([z, z], 2)
        assert np.allclose(alpha, [1, 0, 0], atol=1e-15)

    @pytest.mark.parametrize("seed", range(5))
    def test_residual_vanishes_on_random_tuples(self, seed):
        rng = random.Random(900 + seed)
        fold = rng.choice([1, 2, 3])
        vecs = [rl.vec_of([complex(rng.gauss(0, 1), rng.gauss(0, 1))
                           for _ in range(fold + 1)], dim_cap=10)
                for _ in range(fold)]
        alpha = pr.annihilating_functional(vecs, fold)
        assert max(abs(c) for c in alpha) == pytest.approx(1.0, abs=1e-9)
        for v in vecs:
            assert abs(np.dot(alpha, v.coords[:fold + 1])) < 1e-9

    def test_wrong_tuple_length(self):
        with pytest.raises(pr.ConstructionError):
            pr.annihilating_functional([rl.basis_vec(1, 4)], 2)


class TestRecurrenceWitness:
    def test_coordinate_annihilator_hits_exact_grid_entries(self, default_op):
        cap = default_op.dim_cap
        vecs = [rl.basis_vec(1, cap), rl.basis_vec(2, cap)]
        points = pr.recurrence_witness(default_op, vecs, grid_tol=0.02)
        exact = [p for p in points if p.grid_distance < 1e-12]
        # one e_3 slot per mesh group
        assert len(exact) == len(pr.DEFAULT_MESH)
        assert [p.level for p in points] == sorted(p.level for p in points)
        for p in exact:
            assert p.return_time == default_op.modulus.m(p.level - 1)
            assert max(p.distances) < 1e-2

    def test_distances_obey_term_bound_audit(self, default_op):
        cap = default_op.dim_cap
        vecs = [rl.vec_of([1, 0.6, -0.3, 0, 0.01], dim_cap=cap),
                rl.vec_of([0.2, -1, 0.4], dim_cap=cap)]
        alpha = pr.annihilating_functional(vecs, 2)
        points = pr.recurrence_witness(default_op, vecs, grid_tol=1.0)
        rot = default_op.rotation_part()
        assert points
        for p in points:
            t = p.return_time
            for i, x in enumerate(vecs):
                head = x.coords[:3]
                terms = []
                for e in default_op.grid.entries:
                    lam = default_op.phase_sum(e.level, t) if t % default_op.modulus.m(e.level) else 0
                    if lam == 0:
                        continue
                    mag = abs(lam) / float(default_op.modulus.m(e.level - 1))
                    terms.append(mag * abs(np.dot(np.asarray(e.alpha), head)))
                rigid = rl.distance(rot.power(t, x).vec, x)
                envelope = rigid + sum(terms)
                assert p.distances[i] <= envelope + 1e-9

    def test_too_fine_tolerance_rejected(self, default_op):
        vecs = [rl.basis_vec(1, default_op.dim_cap),
                rl.basis_vec(2, default_op.dim_cap)]
        with pytest.raises(pr.GridResolutionError, match="finest"):
            pr.recurrence_witness(default_op, vecs, grid_tol=1e-4)

    def test_far_annihilator_needs_seeded_target(self):
        op_plain = pr.build_operator(2, dim_cap=40)
        vecs = [rl.vec_of([1, 0.37, 0], dim_cap=40),
                rl.vec_of([0, 0.11, 1], dim_cap=40)]
        with pytest.raises(pr.GridResolutionError, match="finest"):
            pr.recurrence_witness(op_plain, vecs, grid_tol=0.01)
        alpha = pr.annihilating_functional(vecs, 2)
        op_seeded = pr.build_operator(2, targets=[tuple(alpha)], dim_cap=40)
        points = pr.recurrence_witness(op_seeded, vecs, grid_tol=0.01)
        assert any(p.grid_distance <= 0.01 for p in points)

    def test_witness_point_json_shape(self, default_op):
        vecs = [rl.basis_vec(1, default_op.dim_cap),
                rl.basis_vec(2, default_op.dim_cap)]
        p = pr.recurrence_witness(default_op, vecs, grid_tol=0.02)[0]
        d = p.to_json_dict()
        assert set(d) == {"level", "mesh", "gridDistance", "returnTime", "distances"}
        assert d["returnTime"] == str(p.return_time)


class TestNonRecurrenceScan:
    def test_matches_generic_power_path(self, default_op):
        cap = default_op.dim_cap
        basis = [rl.basis_vec(i, cap) for i in range(1, 4)]
        for n in (1, 288, 577, 294912):
            rep = pr.non_recurrence_scan(default_op, [n])
            direct = max(rl.distance(default_op.power(n, e).vec, e) for e in basis)
            assert rep.min_defect == pytest.approx(direct, rel=1e-12)

    def test_lattice_floor(self, deep_op):
        cands = pr.lattice_candidates(deep_op.modulus, 15, multipliers=(1, 2, 3),
                                      neighbors=True, head=50)
        rep = pr.non_recurrence_scan(deep_op, cands)
        assert rep.min_defect > deep_op.center_defect_floor()
        assert rep.evaluated == len(cands)

    def test_argmin_is_least_on_ties(self, default_op):
        rep = pr.non_recurrence_scan(default_op, [288, 288, 288])
        assert rep.argmin == 288 and rep.evaluated == 1

    def test_empty_candidates_rejected(self, default_op):
        with pytest.raises(pr.ConstructionError):
            pr.non_recurrence_scan(default_op, [])


class TestLatticeCandidates:
    def test_contents(self, default_op):
        got = pr.lattice_candidates(default_op.modulus, 5, multipliers=(1, 2),
                                    neighbors=True, head=3)
        m4, m5 = default_op.modulus.m(4), default_op.modulus.m(5)
        for v in (1, 2, 3, m4, 2 * m4, m4 - 1, m4 + 1, m5, 2 * m5):
            assert v in got
        assert got == sorted(set(got))

    def test_level_bound_checked(self, default_op):
        with pytest.raises(pr.ConstructionError):
            pr.lattice_candidates(default_op.modulus, default_op.levels + 1)


class TestExtremeScale:
    def test_astronomical_exponent_stays_finite(self, deep_op):
        n = 10 ** 61 + 7
        x = rl.dyadic_comb(deep_op.dim_cap)
        out = deep_op.power(n, x)
        assert np.all(np.isfinite(out.vec.coords.view(np.float64)))
        # the perturbation coefficient is bounded by the growth factor at
        # each level, so the result cannot blow past that envelope
        mu = deep_op.norm_equiv_upper() * 3 * x.norm()
        worst = max(deep_op.modulus.growth(k) for k in range(4, deep_op.levels))
        assert out.vec.norm() <= x.norm() + mu * worst

    def test_phase_sum_overflow_is_loud_but_powers_survive(self):
        op = pr.build_operator(1, mesh_levels=[1], min_levels=48, dim_cap=48)
        k = next(k for k in range(5, op.levels + 1)
                 if op.modulus.m(k) > 4 * 10 ** 306)
        n = op.modulus.m(k) // 2 - 1
        with pytest.raises(OverflowError):
            op.phase_sum(k, n)
        # the operator itself only ever needs the ratio, which stays small
        out = op.power(n, rl.basis_vec(1, op.dim_cap))
        assert np.all(np.isfinite(out.vec.coords.view(np.float64)))
