"""Batched `powers(ns, X)` against the per-time closed forms it replaced.

The oracle is the scalar evaluation each operator had before the time axis
was batched, copied here: one time per call, a Python loop over levels,
phases and coordinates, and one int/int division per ratio.  The one
deliberate change is that plain `Diagonal` entries and the shift weight are
raised in the order of CPython's `c_powu` for every n, where the old code
used `complex ** n` (a float exponent past n = 100, which loses the phase of
a unit entry; see `TestIntPowers`).
"""

import cmath
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import recurlab as rl
from recurlab.opcore import CHUNK, _block_of, blocks

P_KINDS = {"l1": 1.0, "l2": 2.0, "l3": 3.0, "sup": rl.SUP}


# ---------------------------------------------------------------------------
# the scalar oracle

def c_powu(v, n):
    r, p = 1 + 0j, complex(v)
    while n:
        if n & 1:
            r = r * p
        n >>= 1
        p = p * p
    return r


def old_diagonal(op, n, x):
    if n == 0:
        return x.coords.copy(), 0.0
    mults = np.ones(op.dim_cap, dtype=np.complex128)
    for i, e in enumerate(op.entries):
        if isinstance(e, Fraction):
            if e.denominator > 1:
                mults[i] = cmath.exp(2j * math.pi * ((n * e.numerator % e.denominator)
                                                      / e.denominator))
        else:
            mults[i] = c_powu(e, n)
    return x.coords * mults, 0.0


def old_shift(op, n, x):
    y = np.zeros(op.dim_cap, dtype=np.complex128)
    if n == 0:
        y[:] = x.coords
    elif n < op.dim_cap:
        y[: op.dim_cap - n] = c_powu(op.weight, n) * x.coords[n:]
    return y, 0.0


def old_block(op, n, x):
    y = np.zeros(op.dim_cap, dtype=np.complex128)
    dropped = np.zeros(op.dim_cap, dtype=np.complex128)
    if n == 0:
        return x.coords.copy(), 0.0
    for k in range(1, op.dim_cap + 1):
        v = x.coords[k - 1]
        if v == 0:
            continue
        if k == 1:
            y[0] += v
            continue
        lo, hi = _block_of(k)
        if hi <= op.dim_cap:
            y[lo + (k - lo + n) % (hi - lo + 1) - 1] += v
        elif k + n <= op.dim_cap:
            y[k + n - 1] += v
        else:
            dropped[k - 1] = v
    return y, rl.Vec(dropped, x.p).norm()


def old_sinc_pi(t):
    return 1.0 if t <= 0.0 else math.sin(math.pi * t) / (math.pi * t)


def old_pert_coeff(op, k, n):
    m = op.modulus.m(k)
    r = n % m
    if r == 0:
        return 0j
    folded = min(r, m - r)
    ratio = min(1.0, old_sinc_pi(folded / m) / old_sinc_pi(1 / m))
    mag = folded / op.modulus.m(k - 1) * ratio
    return mag * cmath.exp(1j * math.pi * ((r - 1) / m))


def old_tail_loss(op, xnorm, n):
    ext = [op.modulus.extended_m(k) for k in range(op.levels, op.levels + 7)]
    total = last = 0.0
    for prev, m_k in zip(ext, ext[1:]):
        last = min(2 * n, m_k) / (2 * prev)
        total += last
    total += last
    return op.norm_equiv_upper() * op.functional_bound * xnorm * total


def old_perturbed(op, n, x):
    if n == 0:
        return x.coords.copy(), 0.0
    y, _ = old_diagonal(op.rotation_part(), n, x)
    head = x.coords[: op.head]
    for entry, k in zip(op.grid.entries, range(op.head + 1, op.levels + 1)):
        c = old_pert_coeff(op, k, n)
        if c:
            y[k - 1] += c * complex(np.asarray(entry.alpha) @ head)
    return y, old_tail_loss(op, x.norm(), n)


def oracle(op, n, x):
    if isinstance(op, rl.PerturbedRotation):
        return old_perturbed(op, n, x)
    if isinstance(op, rl.Diagonal):
        return old_diagonal(op, n, x)
    if isinstance(op, rl.WeightedBackwardShift):
        return old_shift(op, n, x)
    return old_block(op, n, x)


# ---------------------------------------------------------------------------
# operators and times

def build(kind, p):
    if kind.startswith("perturbed"):
        return rl.build_operator(int(kind[-1]), dim_cap=64, p=p)
    if kind == "diagonal":
        return rl.Diagonal((Fraction(1, 7), Fraction(-2, 9), Fraction(3, 10 ** 30 + 7),
                            Fraction(-1, 10 ** 20), Fraction(5), 0.5 + 0.1j, 1j, -1 + 0j,
                            0.99), p)
    if kind == "rotation":
        return rl.diagonal_rotation([Fraction(i, 17) for i in range(16)], 20, p)
    if kind == "shift":
        return rl.WeightedBackwardShift(0.9, 16, p)
    if kind == "shift-complex":
        return rl.WeightedBackwardShift(0.6 + 0.7j, 20, p)
    return rl.BlockPermutationIsometry(int(kind.split("-")[1]), p)


KINDS = ["perturbed-1", "perturbed-2", "perturbed-3", "diagonal", "rotation", "shift",
         "shift-complex", "block-64", "block-50"]
OPS = {(k, pk): build(k, p) for k in KINDS for pk, p in P_KINDS.items()}


def time_pool(op):
    """n = 0, small and chunk-edge times, and ladder-scale c*m_j, m_j +- 1 up to level 23."""
    pool = [0, 1, 2, 3, 7, 99, 100, 101, CHUNK - 1, CHUNK, CHUNK + 1, 10 ** 6 + 3,
            2 ** 62 - 1, 2 ** 62, 2 ** 63 + 5, 10 ** 40]
    ladder = (op.modulus.values[:23] if isinstance(op, rl.PerturbedRotation)
              else (288, 10 ** 30 + 7))
    for m in ladder:
        pool += [m - 1, m, m + 1, 2 * m, 3 * m, 17 * m + 1]
    return sorted(set(n for n in pool if n >= 0))


def vector(op, seed):
    rs = np.random.RandomState(seed)
    kind = seed % 4
    if kind == 0:
        return rl.basis_vec(1 + seed % op.dim_cap, op.dim_cap, op.p)
    if kind == 1:
        return rl.dyadic_comb(op.dim_cap, op.p)
    return rl.Vec(rs.standard_normal(op.dim_cap) + 1j * rs.standard_normal(op.dim_cap), op.p)


def assert_row_close(got, want, scale):
    assert np.max(np.abs(got - want), initial=0.0) <= 1e-12 * scale


# ---------------------------------------------------------------------------
# tests

def stack_of(op, seeds):
    """The vectors `vector(op, seed)` as a list and as the (s, dim_cap) stack."""
    xs = [vector(op, seed) for seed in seeds]
    return xs, rl.stack(op, xs)


@pytest.mark.parametrize("pk", P_KINDS)
@pytest.mark.parametrize("kind", KINDS)
@settings(max_examples=15)
@given(data=st.data())
def test_powers_rows_match_scalar_oracle(kind, pk, data):
    op = OPS[kind, pk]
    pool = time_pool(op)
    ns = data.draw(st.lists(st.sampled_from(pool) | st.integers(0, 3000), max_size=10),
                   label="ns")
    seeds = data.draw(st.lists(st.integers(0, 2 ** 16), min_size=1, max_size=3), label="seeds")
    xs, stacked = stack_of(op, seeds)
    rows = op.powers(ns, stacked)
    assert rows.shape == (len(ns), len(xs), op.dim_cap)
    for n, row in zip(ns, rows):
        for x, got in zip(xs, row):
            want, loss = oracle(op, n, x)
            scale = max(np.max(np.abs(want), initial=0.0),
                        np.max(np.abs(x.coords), initial=0.0))
            assert_row_close(got, want, scale)
            applied = op.power(n, x)
            assert_row_close(applied.vec.coords, want, scale)
            assert applied.loss == loss


@pytest.mark.parametrize("pk", P_KINDS)
@pytest.mark.parametrize("kind", KINDS)
def test_stacked_rows_equal_per_sample_rows(kind, pk):
    # the x-independent rows are built once for the stack and broadcast, and
    # the columns no sample touches are skipped: neither may move a bit
    op = OPS[kind, pk]
    xs, stacked = stack_of(op, [0, 1, 2, 3, 4, 5, 6, 7])
    stacked = np.vstack([stacked, np.zeros(op.dim_cap)])
    ns = time_pool(op)
    rows = op.powers(ns, stacked)
    for i in range(len(stacked)):
        assert np.array_equal(rows[:, i], op.powers(ns, stacked[i:i + 1])[:, 0])


@pytest.mark.parametrize("pk", P_KINDS)
@pytest.mark.parametrize("kind", KINDS)
def test_empty_block_gives_no_rows(kind, pk):
    op = OPS[kind, pk]
    rows = op.powers([], rl.stack(op, [vector(op, 3)]))
    assert rows.shape == (0, 1, op.dim_cap) and rows.dtype == np.complex128
    rows = op.powers([0, 5], rl.stack(op, []))
    assert rows.shape == (2, 0, op.dim_cap)


@pytest.mark.parametrize("pk", P_KINDS)
@pytest.mark.parametrize("kind", KINDS)
def test_displacements_over_more_than_one_chunk(kind, pk):
    op = OPS[kind, pk]
    xs = [vector(op, seed) for seed in (7, 1, 4)]
    ns = list(range(CHUNK + 37))
    got = list(rl.displacements(op, ns, xs))
    assert len(got) == len(ns)
    assert all(len(ds) == len(xs) and all(isinstance(d, float) for d in ds) for ds in got)
    for n, ds in zip(ns, got):
        for x, d in zip(xs, ds):
            want = rl.Vec(oracle(op, n, x)[0] - x.coords, x.p).norm()
            assert abs(d - want) <= 1e-12 * x.norm()
    assert got[0] == [0.0] * len(xs)


@pytest.mark.parametrize("pk", P_KINDS)
@pytest.mark.parametrize("kind", ["perturbed-2", "diagonal"])
@settings(max_examples=20)
@given(seed=st.integers(0, 2 ** 16), ns=st.lists(st.integers(0, 3000), min_size=1, max_size=5))
def test_distance_equals_evaluator_bit_for_bit(kind, pk, seed, ns):
    # Vec.norm, and so distance, takes the evaluator's row norms: a dense
    # vector gets one float for its displacement, whichever path reads it
    op = OPS[kind, pk]
    rs = np.random.RandomState(seed)
    x = rl.Vec(rs.standard_normal(op.dim_cap) + 1j * rs.standard_normal(op.dim_cap), op.p)
    for n, (d,) in zip(ns, rl.displacements(op, ns, [x])):
        assert rl.distance(op.power(n, x).vec, x) == d


@pytest.mark.parametrize("kind", ["perturbed-2", "rotation", "diagonal", "shift", "block-50"])
def test_block_straddling_2_62_matches_scalar_oracle(kind):
    op = OPS[kind, "l2"]
    edge = 2 ** 62
    ns = list(range(1, 30)) + [edge - 1, edge, edge + 1, 10 ** 40, 5, edge - 2]
    assert [len(b) for b in blocks(ns)] == [30, 3, 2]
    xs = [vector(op, seed) for seed in (0, 1, 2)]
    rows = op.powers(ns, rl.stack(op, xs))
    for n, row, ds in zip(ns, rows, rl.displacements(op, ns, xs)):
        for x, got, d in zip(xs, row, ds):
            want = oracle(op, n, x)[0]
            scale = max(np.max(np.abs(want)), np.max(np.abs(x.coords)))
            assert_row_close(got, want, scale)
            assert abs(d - rl.Vec(want - x.coords, x.p).norm()) <= 1e-12 * scale


@pytest.mark.parametrize("kind", ["perturbed-1", "perturbed-2", "perturbed-3"])
def test_times_every_level_divides(kind):
    # Python-int blocks whose residues are all 0, or all 0 on one row: the
    # coefficient rows have nothing, or only some rows, to work on
    op = OPS[kind, "l2"]
    top = op.modulus.m(op.levels)
    xs = [vector(op, seed) for seed in (0, 1, 2)]
    for ns in ([top, 2 * top], [top, top + 1]):
        for n, row in zip(ns, op.powers(ns, rl.stack(op, xs))):
            for x, got in zip(xs, row):
                want = oracle(op, n, x)[0]
                assert_row_close(got, want, max(np.max(np.abs(want)), np.max(np.abs(x.coords))))


def test_overflow_scale_times_stay_finite_and_match():
    # the time of test_phase_sum_overflow_is_loud_but_powers_survive: the
    # folded residue is past float range, only its ratios are not
    op = rl.build_operator(1, mesh_levels=[1], min_levels=48, dim_cap=48)
    k = next(k for k in range(5, op.levels + 1) if op.modulus.m(k) > 4 * 10 ** 306)
    ns = [op.modulus.m(k) // 2 - 1, op.modulus.m(k) // 2 + 1, 5, op.modulus.m(op.levels) - 1]
    xs = [rl.basis_vec(1, 48), rl.dyadic_comb(48)]
    rows = op.powers(ns, rl.stack(op, xs))
    assert np.all(np.isfinite(rows.view(np.float64)))
    for n, row in zip(ns, rows):
        for x, got in zip(xs, row):
            want = oracle(op, n, x)[0]
            assert_row_close(got, want, np.max(np.abs(want)))


def test_head_defects_match_the_scalar_oracle(default_op):
    op = default_op
    ns = [n for n in time_pool(op) if n >= 1]
    alpha = np.array([e.alpha for e in op.grid.entries])
    defects = [max(ds) for ds in rl.displacements(op, ns, op.head_basis())]
    for n, got in zip(ns, defects):
        coeffs = np.array([old_pert_coeff(op, k, n) for k in range(op.head + 1, op.levels + 1)])
        per_entry = np.abs(coeffs[:, None] * alpha)
        want = float(np.max(np.sum(per_entry ** 2, axis=0) ** 0.5))
        assert abs(got - want) <= 1e-12 * max(want, 1e-300)
    scan = rl.non_recurrence_scan(op, ns)
    assert scan.evaluated == len(ns)
    assert scan.min_defect == min(defects)
    assert scan.argmin == ns[defects.index(min(defects))]


def chained_krylov_rank(op, x, depth, tol=1e-9):
    """The slab [x, T x, ..., T^{depth-1} x] by repeated `apply`."""
    rows = [x.coords]
    for _ in range(depth - 1):
        x = op.apply(x).vec
        rows.append(x.coords)
    svals = np.linalg.svd(np.array(rows), compute_uv=False)
    if svals.size == 0 or svals[0] == 0.0:
        return 0
    return int(np.count_nonzero(svals > tol * svals[0]))


KRYLOV_OPS = ([build(f"perturbed-{f}", p) for f in (1, 2, 3) for p in (1.0, 2.0, rl.SUP)]
              + [build("block-64", 2.0), build("shift", 2.0), build("diagonal", 2.0)])


@pytest.mark.parametrize("op", KRYLOV_OPS, ids=lambda op: op.descriptor()["variant"])
def test_krylov_rank_matches_chained_apply(op):
    for seed in range(5):
        x = vector(op, seed)
        for depth in (1, 2, 3, 5, 8, 16, 33, 70):
            assert rl.krylov_rank(op, x, depth) == chained_krylov_rank(op, x, depth)
