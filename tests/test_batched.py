"""Batched `powers(ns, X)` against the per-time closed forms it replaced.

The oracle is the scalar evaluation each operator had before the time axis
was batched, copied here: one time per call, a Python loop over levels,
phases and coordinates, and one int/int division per ratio.  Two changes
are deliberate.  Plain `Diagonal` entries and the shift weight are raised in
the order of CPython's `c_powu` for every n, where the old code used
`complex ** n` (a float exponent past n = 100, which loses the phase of a
unit entry; see `TestIntPowers`).  The perturbed rotation's loss is the tail
bound of `ModulusLadder.tail` written out term by term: the six-term float
sum it replaced was no bound once 2n passed m_{L+6}.
"""

import cmath
import math
import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import recurlab as rl
from recurlab.opcore import CHUNK, CYCLE_CAP, FOLD_BLOCK, _block_of, blocks, row_norms
from test_perturbed_rotation import tail_series

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


def tail_loss(op, xnorm, n):
    """mu * ||x|| times the tail bound written out term by term: each term exactly while
    2n > m_k, then that term plus twice the next, floored at 1 after a saturated term,
    rounded up to a float."""
    ext = op.modulus.extended_m
    k, saturated = op.levels + 1, Fraction(0)
    while 2 * n > ext(k):
        saturated += Fraction(ext(k), 2 * ext(k - 1))
        k += 1
    rest = Fraction(n, ext(k - 1)) + Fraction(2 * n, ext(k))
    bound = saturated + max(rest, 1) if saturated else rest
    up = float(bound) if float(bound) >= bound else math.nextafter(float(bound), math.inf)
    return op.norm_equiv_upper() * op.functional_bound * xnorm * up


def old_perturbed(op, n, x):
    if n == 0:
        return x.coords.copy(), 0.0
    y, _ = old_diagonal(op.rotation_part(), n, x)
    head = x.coords[: op.head]
    for entry, k in zip(op.grid.entries, range(op.head + 1, op.levels + 1)):
        c = old_pert_coeff(op, k, n)
        if c:
            y[k - 1] += c * complex(np.asarray(entry.alpha) @ head)
    return y, tail_loss(op, x.norm(), n)


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
    if kind == "phases":
        return rl.Diagonal((Fraction(1, 7), Fraction(-2, 9), Fraction(5), Fraction(3, 4)), p)
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


@pytest.mark.parametrize("fold", [1, 2, 3])
def test_losses_equal_the_scalar_oracle_bit_for_bit(fold):
    # a block of times gives the one-time loss exactly, and bounds the series past the
    # levels: every time 0..3000, the ladder times, huge times, a shallow operator whose
    # tail saturates, and a 48-level ladder whose tail moduli are far past float range.
    # The loss is the rounded-up tail times mu * ||x||, a product whose rounding may
    # take half an ulp off, 2^-53 of it in the normal range
    rs = np.random.RandomState(fold)
    for op in (OPS[f"perturbed-{fold}", "l2"], rl.build_operator(fold, [1], dim_cap=16),
               rl.build_operator(fold, [1], min_levels=48, dim_cap=48)):
        x = vector(op, 2)
        scale = Fraction(op._mu * x.norm()) * (1 - Fraction(1, 2 ** 53))
        big = [int(v) << int(s)
               for v, s in zip(rs.randint(1, 2 ** 62, 200), rs.randint(0, 400, 200))]
        for ns in (list(range(3001)), time_pool(op), big + [10 ** 299, 10 ** 301, 3 ** 2000]):
            got = op.losses(ns, rl.stack(op, [x]))[:, 0]
            assert got.tolist() == [op.loss(n, x) for n in ns]
            assert all(Fraction(g) >= tail_series(op.modulus, n, op.levels + 1) * scale
                       for n, g in zip(ns, got))


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


def sweep(op, ns, samples):
    """The (times, d) blocks of `displacements`, each stacked into one array."""
    blocks_ = list(rl.displacements(op, ns, samples))
    for times, d in blocks_:
        assert times.ndim == 1 and d.shape == (len(times), len(samples))
        assert d.dtype == np.float64
    if not blocks_:
        return [], np.zeros((0, len(samples)))
    times, d = zip(*blocks_)
    return [int(n) for n in np.concatenate(times)], np.concatenate(d)


@pytest.mark.parametrize("pk", P_KINDS)
@pytest.mark.parametrize("kind", KINDS)
def test_displacements_over_more_than_one_chunk(kind, pk):
    op = OPS[kind, pk]
    xs = [vector(op, seed) for seed in (7, 1, 4)]
    ns = list(range(CHUNK + 37))
    times, got = sweep(op, ns, xs)
    assert times == ns
    loss = op.losses(ns, rl.stack(op, xs))
    for n, ds, ls in zip(ns, got, loss):
        for x, d, l in zip(xs, ds, ls):
            want, want_loss = oracle(op, n, x)
            assert abs(d - rl.Vec(want - x.coords, x.p).norm()) <= 1e-12 * x.norm()
            assert l == want_loss
    assert got[0].tolist() == [0.0] * len(xs)


@pytest.mark.parametrize("pk", P_KINDS)
@pytest.mark.parametrize("kind", ["perturbed-2", "diagonal", "shift", "block-64", "block-50"])
@settings(max_examples=20, deadline=None)
@given(seeds=st.lists(st.integers(0, 2 ** 16), min_size=1, max_size=3),
       ns=st.lists(st.integers(0, 3000) | st.sampled_from([0, 1, 2, 15, 16, 17, 49, 50, 51]),
                   min_size=1, max_size=5))
def test_distance_equals_evaluator_bit_for_bit(kind, pk, seeds, ns):
    # Vec.norm, and so distance, takes the evaluator's row norms, summed in one
    # layout: every sample of a stack gets one float for its displacement,
    # whichever path reads it, though the gathers of the shift and the
    # permutation return the samples innermost
    op = OPS[kind, pk]
    xs = [rl.basis_vec(1, op.dim_cap, op.p), rl.dyadic_comb(op.dim_cap, op.p)] + [
        vector(op, seed) for seed in seeds]
    for stacked in (xs[:1], xs[:2], xs[:3], xs[2:]):
        times, d = sweep(op, ns, stacked)
        assert times == ns
        loss = op.losses(ns, rl.stack(op, stacked))
        for n, ds, ls in zip(ns, d, loss):
            for x, got, l in zip(stacked, ds, ls):
                assert rl.distance(op.power(n, x).vec, x) == got
                assert op.loss(n, x) == l


@pytest.mark.parametrize("kind", ["perturbed-2", "rotation", "diagonal", "shift", "block-50"])
def test_block_straddling_2_62_matches_scalar_oracle(kind):
    op = OPS[kind, "l2"]
    edge = 2 ** 62
    ns = list(range(1, 30)) + [edge - 1, edge, edge + 1, 10 ** 40, 5, edge - 2]
    assert [len(b) for b in blocks(ns)] == [30, 3, 2]
    xs = [vector(op, seed) for seed in (0, 1, 2)]
    rows = op.powers(ns, rl.stack(op, xs))
    times, dists = sweep(op, ns, xs)
    assert times == ns
    for n, row, ds in zip(ns, rows, dists):
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


@pytest.mark.parametrize("min_levels, factor_bits", [(45, 53), (70, 63)])
def test_deep_ladder_times_match_scalar_oracle(min_levels, factor_bits):
    # growth factors past 2^53 (not exact as float digits) and past 2^63 (cut
    # into k^2 and powers of two): ladder-scale rows against the oracle, and
    # multiples of m_L, where every residue is 0, give x back bit for bit
    op = rl.build_operator(2, min_levels=min_levels, dim_cap=min_levels)
    assert rl.ModulusLadder.growth(op.levels - 1) >= 2 ** factor_bits
    top = op.modulus.m(op.levels)
    rng = random.Random(min_levels)
    ns = {top - 1, 10 ** 40} | {rng.randrange(50 * top) for _ in range(40)}
    ns |= {c * m + e for m in op.modulus.values for c in (1, 2, 3) for e in (-1, 0, 1)}
    xs = [rl.basis_vec(1, op.dim_cap), rl.dyadic_comb(op.dim_cap), vector(op, 2)]
    for block in blocks(sorted(n for n in ns if n >= 0)):
        for n, row in zip(block, op.powers(block, rl.stack(op, xs))):
            for x, got in zip(xs, row):
                want = oracle(op, n, x)[0]
                assert_row_close(got, want, max(np.max(np.abs(want)), np.max(np.abs(x.coords))))
    X = rl.stack(op, xs)
    for n in (top, 2 * top, 50 * top):
        assert op.powers([n], X)[0].tobytes() == X.tobytes()


def test_ladder_scale_scan_does_no_python_int_division(monkeypatch, default_op):
    # past 2^62 the kernel reads digits on the ladder: no correctly rounded
    # int/int division of Python-int residues, one per time and level
    op = default_op
    cands = rl.lattice_candidates(op.modulus, 23, (1, 2, 3), True, 200)
    assert max(cands) >= 2 ** 62
    want = rl.non_recurrence_scan(op, cands)
    ratio = rl.opcore.Denominators.ratio

    def int64_only(self, a, cols=slice(None)):
        if a.dtype.hasobject:
            raise AssertionError("Python-int true division on the kernel path")
        return ratio(self, a, cols)

    monkeypatch.setattr(rl.opcore.Denominators, "ratio", int64_only)
    assert rl.non_recurrence_scan(op, cands) == want


def test_head_defects_match_the_scalar_oracle(default_op):
    op = default_op
    ns = [n for n in time_pool(op) if n >= 1]
    alpha = np.array([e.alpha for e in op.grid.entries])
    defects = sweep(op, ns, op.head_basis())[1].max(axis=1).tolist()
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


# ---------------------------------------------------------------------------
# eventually periodic operators: displacements evaluates each distinct power once

CYCLIC = ["rotation", "phases", "shift", "shift-complex", "block-64", "block-50"]
CYCLIC_OPS = {(k, pk): build(k, p) for k in CYCLIC for pk, p in P_KINDS.items()}


def test_stock_cycles():
    assert build("rotation", 2.0).cycle() == (0, 17)
    assert build("phases", 2.0).cycle() == (0, 252)
    assert build("shift", 2.0).cycle() == (16, 1)
    assert build("block-64", 2.0).cycle() == (0, 32)
    assert build("block-50", 2.0).cycle() == (50, 16)
    assert build("diagonal", 2.0).cycle() is None  # plain entries
    assert build("perturbed-2", 2.0).cycle() is None
    start, period = build("perturbed-2", 2.0).rotation_part().cycle()
    assert start == 0 and period > CYCLE_CAP


def cycle_edges(op):
    start, period = op.cycle()
    return [0, 1, max(0, start - 1), start, start + 1, start + period - 1, start + period,
            2 ** 62 - 1, 2 ** 62, 2 ** 62 + 1, 10 ** 40]


@pytest.mark.parametrize("pk", P_KINDS)
@pytest.mark.parametrize("kind", CYCLIC)
@settings(max_examples=20, deadline=None)
@given(data=st.data())
def test_cycle_is_exact_and_folding_is_bit_for_bit(kind, pk, data):
    op = CYCLIC_OPS[kind, pk]
    start, period = op.cycle()
    edges = cycle_edges(op)
    seeds = data.draw(st.lists(st.integers(0, 2 ** 16), min_size=1, max_size=3), label="seeds")
    samples, xs = stack_of(op, seeds)
    n = data.draw(st.sampled_from([e for e in edges if e >= start]) | st.integers(start, 10 ** 45),
                  label="n")
    assert op.powers([n + period], xs).tobytes() == op.powers([n], xs).tobytes()
    times = edges + data.draw(st.lists(st.integers(0, 3000) | st.integers(0, 10 ** 45),
                                       max_size=CHUNK + 10), label="times")
    times = data.draw(st.permutations(times), label="order")
    got_times, got = sweep(op, times, samples)
    assert got_times == times
    want = np.array([one_time_displacements(op, t, xs) for t in times])
    assert got.tobytes() == want.tobytes()
    assert op.losses([n + period], xs).tobytes() == op.losses([n], xs).tobytes()


def one_time_displacements(op, n, xs):
    """row_norms(T^n X - X) from a one-time `powers` call."""
    return row_norms(op.powers([n], xs) - xs, op.p)[0]


@pytest.mark.parametrize("kind", CYCLIC + ["diagonal", "perturbed-2"])
def test_bad_times_raise_before_folding(kind):
    # % would send -1 to period - 1: a negative or non-integral time must still
    # raise the operator's own error, also once the whole cycle is known
    op = build(kind, 2.0)
    x = vector(op, 1)
    warm = list(range(3 * CHUNK))
    for bad in (-1, -(2 ** 70)):
        for ns in ([bad], [3, bad], warm + [bad]):
            with pytest.raises(op.error, match="exponent must be a natural number"):
                list(rl.displacements(op, ns, [x]))
    for bad in (1.5, 2.0, Fraction(3), "4"):
        for ns in ([bad], [3, bad], warm + [bad]):
            with pytest.raises(TypeError):
                list(rl.displacements(op, ns, [x]))


def count_rows(monkeypatch, op):
    """A list that gains the number of times of every `powers` call on op's class."""
    calls = []
    cls = type(op)
    original = cls.powers

    def counted(self, ns, xs):
        ns = list(ns)
        calls.append(len(ns))
        return original(self, ns, xs)

    monkeypatch.setattr(cls, "powers", counted)
    return calls


@pytest.mark.parametrize("kind, rows", [("shift", 17), ("rotation", 17), ("block-64", 32),
                                        ("block-50", 66)])
def test_each_distinct_power_is_evaluated_once(monkeypatch, kind, rows):
    # the shift case is the 20,001-time sweep of the shift inclusion probe:
    # WeightedBackwardShift(0.9, 16) on the dyadic comb; a range is folded
    # without a per-time list, a list FOLD_BLOCK times at a time
    op = build(kind, 2.0)
    for ns in (range(20001), list(range(20001))):
        calls = count_rows(monkeypatch, op)
        got = list(rl.displacements(op, ns, [vector(op, 1)]))
        assert [n for times, _ in got for n in times.tolist()] == list(range(20001))
        assert len(got) <= -(-20001 // FOLD_BLOCK)
        assert sum(calls) <= rows and max(calls) <= CHUNK


@pytest.mark.parametrize("kind", ["shift", "block-50", "perturbed-2"])
def test_sweeps_stay_lazy(kind):
    # a range past sys.maxsize is read block by block, and a bad time raises
    # only once the blocks before it are out
    op = build(kind, 2.0)
    x = vector(op, 1)
    times, d = next(rl.displacements(op, range(10 ** 20), [x]))
    assert times[0] == 0 and d[0, 0] == 0.0
    got = rl.displacements(op, list(range(FOLD_BLOCK)) + [-1], [x])
    assert next(got)[0].tolist()[:CHUNK] == list(range(CHUNK))
    with pytest.raises(op.error, match="exponent must be a natural number"):
        list(got)


@pytest.mark.parametrize("op", [
    rl.Diagonal((Fraction(1, 7), 0.5 + 0.5j, Fraction(2, 3))),
    rl.Diagonal((Fraction(1, 7), Fraction(1, CYCLE_CAP + 1))),
    rl.WeightedBackwardShift(0.9, CYCLE_CAP),
    build("perturbed-2", 2.0)], ids=["plain-entry", "lcm-over-cap", "shift-over-cap", "perturbed"])
def test_uncyclic_or_over_cap_takes_the_direct_path(monkeypatch, op):
    calls = count_rows(monkeypatch, op)
    ns = list(range(300)) * 2
    list(rl.displacements(op, ns, [rl.basis_vec(1, op.dim_cap, op.p)]))
    assert sum(calls) == len(ns)
