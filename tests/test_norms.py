import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from doilab import norms
from doilab.norms import (
    EXACT,
    INF,
    LOWER_BOUND,
    CapacityError,
    ExponentError,
    SearchConfig,
    check_exponent,
    conjugate_exponent,
    dual_map,
    opnorm,
    opnorm_bruteforce,
    opnorm_upper,
    opnorms,
    power_iteration_pq,
    vector_norm,
)

FINITE_P = st.floats(min_value=1.0, max_value=10.0, allow_nan=False)


def small_real_matrix(rng, m=3, n=3):
    return rng.standard_normal((m, n))


# ---------------------------------------------------------------- exponents


def test_check_exponent_accepts_range():
    assert check_exponent(1) == 1.0
    assert check_exponent(INF) == INF
    assert check_exponent(2.5) == 2.5


@pytest.mark.parametrize("bad", [0.5, 0.0, -1.0, math.nan])
def test_check_exponent_rejects(bad):
    with pytest.raises(ExponentError):
        check_exponent(bad)


def test_conjugate_exponent_endpoints():
    assert conjugate_exponent(1.0) == INF
    assert conjugate_exponent(INF) == 1.0
    assert conjugate_exponent(2.0) == 2.0
    assert conjugate_exponent(1.5) == pytest.approx(3.0)


@given(p=st.floats(min_value=1.0 + 1e-6, max_value=50.0))
def test_conjugate_exponent_holder_identity(p):
    ps = conjugate_exponent(p)
    assert 1.0 / p + 1.0 / ps == pytest.approx(1.0, abs=1e-12)


# ------------------------------------------------------------- vector norms


def test_vector_norm_examples():
    assert vector_norm([3, 4], 2) == pytest.approx(5.0)
    assert vector_norm([1, 1, 1], 1) == pytest.approx(3.0)
    assert vector_norm([1, -2j, 2], INF) == pytest.approx(2.0)


def test_vector_norm_empty_rejected():
    with pytest.raises(ValueError):
        vector_norm([], 2)


def test_vector_norm_large_exponent_no_overflow():
    x = np.array([1e200, 2e200])
    assert vector_norm(x, 100.0) == pytest.approx(2e200, rel=1e-6)


@given(
    x=st.lists(st.floats(min_value=-10, max_value=10), min_size=1, max_size=6),
    p=FINITE_P,
)
def test_vector_norm_monotone_in_p(x, p):
    # ||x||_q <= ||x||_p for q >= p on finite vectors
    assert vector_norm(x, p + 1.0) <= vector_norm(x, p) + 1e-9


# -------------------------------------------------------------- exact opnorm


def test_opnorm_identity_2_2():
    est = opnorm(np.eye(2), 2, 2)
    assert est.value == pytest.approx(1.0)
    assert est.certainty == EXACT


def test_opnorm_hadamard_2_2():
    est = opnorm([[1, 1], [1, -1]], 2, 2)
    assert est.value == pytest.approx(math.sqrt(2.0))
    assert est.certainty == EXACT


def test_opnorm_ones_inf_1_matches_sign_oracle():
    S = [[1, 1], [1, 1]]
    est = opnorm(S, INF, 1)
    oracle = opnorm_bruteforce(S, INF, 1)
    assert oracle.value == pytest.approx(4.0)
    assert oracle.certainty == EXACT
    assert est.certainty == LOWER_BOUND
    assert est.value == pytest.approx(4.0, rel=1e-8)


def test_opnorm_diag_1_4():
    est = opnorm([[2, 0], [0, 3]], 1, 4)
    assert est.value == pytest.approx(3.0)
    assert est.certainty == EXACT


def test_opnorm_rejects_empty_and_nonfinite():
    with pytest.raises(ValueError):
        opnorm(np.zeros((0, 0)), 2, 2)
    with pytest.raises(ValueError):
        opnorm([[math.inf]], 2, 2)


# ----------------------------------------------------------- power iteration


def test_power_iteration_identity():
    val, w, label = power_iteration_pq(np.eye(2), 2, 2, [1.0, 1.0])
    assert val == pytest.approx(1.0)


def test_power_iteration_diagonal_p3():
    val, w, _ = power_iteration_pq(np.diag([1.0, 5.0]), 3, 3, [1.0, 1.0])
    assert val == pytest.approx(5.0, rel=1e-6)
    w = np.abs(w)
    # the objective converges much faster than the witness coordinates
    assert w[1] == pytest.approx(1.0, abs=1e-3)
    assert w[0] == pytest.approx(0.0, abs=1e-3)


def test_power_iteration_hadamard_matches_svd():
    val, _, _ = power_iteration_pq([[1, 1], [1, -1]], 2, 2, [1.0, 0.0])
    assert val == pytest.approx(math.sqrt(2.0), abs=1e-8)


def test_power_iteration_zero_matrix():
    val, w, label = power_iteration_pq(np.zeros((2, 2)), 2, 2, [1.0, 0.0])
    assert val == 0.0
    assert "zero_matrix" in label


def test_power_iteration_rejects_unsupported_exponents():
    with pytest.raises(ExponentError):
        power_iteration_pq(np.eye(2), 1, 2, [1.0, 0.0])
    with pytest.raises(ExponentError):
        power_iteration_pq(np.eye(2), 2, INF, [1.0, 0.0])


@settings(deadline=None, max_examples=40)
@given(
    seed=st.integers(min_value=0, max_value=10_000),
    p=st.sampled_from([1.5, 2.0, 3.0, INF]),
    q=st.sampled_from([1.0, 1.5, 2.0, 4.0]),
)
def test_power_iteration_objective_nondecreasing(seed, p, q):
    rng = np.random.default_rng(seed)
    S = rng.standard_normal((3, 3))
    x = np.array([1.0, 1.0, 1.0], dtype=complex)
    x /= vector_norm(x, p)
    pstar = conjugate_exponent(p)
    prev = vector_norm(S @ x, q)
    for _ in range(25):
        z = S.T @ dual_map(S @ x, q)
        xn = dual_map(z, pstar)
        nn = vector_norm(xn, p)
        if nn == 0.0:
            break
        x = xn / nn
        cur = vector_norm(S @ x, q)
        assert cur >= prev - 1e-12 * max(1.0, prev)
        prev = cur


def test_phase_of_subnormal_entry_is_finite():
    # numpy's complex division forms 1/|v|, which overflows at |v| < 1/DBL_MAX
    v = np.array([1.29564e-319 + 0j, 1.0])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        ph = dual_map(v, 1.0)
    assert np.array_equal(np.abs(ph), [1.0, 1.0])


# ------------------------------------- block kernel against the plain loop
# The single-start loop that the block kernel replaced, with its own norm
# and duality map: the kernel must reproduce it bit for bit, row by row.


def _ref_norm(x, p):
    a = np.abs(np.asarray(x)).astype(float)
    if p == INF:
        return float(a.max())
    if p == 1.0:
        return float(a.sum())
    if p == 2.0:
        return float(np.sqrt((a * a).sum()))
    m = a.max()
    if m == 0.0:
        return 0.0
    return float(m * ((a / m) ** p).sum() ** (1.0 / p))


def _ref_dual(v, r):
    a = np.abs(v)
    ph = np.zeros_like(v, dtype=complex)
    nz = a > 0
    ph[nz] = np.conj(v[nz]) / a[nz]
    if r == INF or r == 1.0:
        return ph
    m = a.max()
    if m == 0.0:
        return ph
    return ph * (a / m) ** (r - 1.0)


def _ref_power_iteration(S, p, q, x0, tol, max_iter):
    """(value, witness, label, iterations run) of one start."""
    x = x0 / _ref_norm(x0, p)
    if not np.any(S):
        return 0.0, x, "power_iteration:zero_matrix", 0
    pstar = conjugate_exponent(p)
    best, best_x, label, it = _ref_norm(S @ x, q), x, "power_iteration", 0
    for it in range(1, max_iter + 1):
        xn = _ref_dual(S.T @ _ref_dual(S @ x, q), pstar)
        nn = _ref_norm(xn, p)
        if nn == 0.0:
            break
        x = xn / nn
        val = _ref_norm(S @ x, q)
        if val >= best:
            improved = val - best
            best, best_x = val, x
            if improved < tol * max(best, 1e-300):
                break
        else:
            break
    else:
        label = "power_iteration:max_iter"
    return best, best_x, label, it


def _ref_starts(m, n, cfg):
    starts = [np.ones(n, dtype=complex)]
    for k in range(min(n, max(cfg.multistarts - 1, 0))):
        e = np.zeros(n, dtype=complex)
        e[k] = 1.0
        starts.append(e)
    rng = cfg.rng(m, n)
    while len(starts) < cfg.multistarts:
        starts.append(rng.standard_normal(n) + 1j * rng.standard_normal(n))
    return starts[: max(cfg.multistarts, 1)]


def _ref_opnorm(S, p, q, cfg):
    best = None
    for x0 in _ref_starts(*S.shape, cfg):
        val, w, lab, _ = _ref_power_iteration(S, p, q, x0, cfg.tol, cfg.max_iter)
        if best is None or val > best[0]:
            best = (val, w, lab)
    return best


def _kernel_cases(seed):
    """Real, complex, rectangular, zero-column and zero matrices."""
    rng = np.random.default_rng(seed)
    mats = [
        rng.standard_normal((5, 5)),
        rng.standard_normal((3, 6)) + 1j * rng.standard_normal((3, 6)),
        rng.standard_normal((7, 2)),
        np.zeros((4, 4)),
    ]
    zero_col = rng.standard_normal((6, 6)) + 1j * rng.standard_normal((6, 6))
    zero_col[:, 2] = 0.0
    mats.append(zero_col)
    return [np.asarray(S, dtype=complex) for S in mats]


def _same(a, b):
    (va, wa, la), (vb, wb, lb) = a, b
    return va == vb and wa.tobytes() == wb.tobytes() and la == lb


@pytest.mark.parametrize("p", [1.5, 2.0, 3.0, INF])
@pytest.mark.parametrize("q", [1.0, 1.5, 4.0])
def test_power_block_matches_single_start_loop(p, q):
    rng = np.random.default_rng(17)
    labels_seen, uneven = set(), False
    for S in _kernel_cases(int(rng.integers(1 << 30))):
        for max_iter in (3, 300):
            k = int(rng.integers(1, 13))
            starts = rng.standard_normal((k, S.shape[1])) + 1j * rng.standard_normal((k, S.shape[1]))
            starts[0] = 1.0
            vals, wits, labels = norms._power_block([S], np.zeros(k, int), starts, p, q, 1e-10, max_iter)
            iters = set()
            for r in range(k):
                val, w, lab, it = _ref_power_iteration(S, p, q, starts[r], 1e-10, max_iter)
                assert _same((vals[r], wits[r], labels[r]), (val, w, lab)), (S.shape, max_iter, r)
                assert _same(power_iteration_pq(S, p, q, starts[r], 1e-10, max_iter), (val, w, lab))
                labels_seen.add(lab)
                iters.add(it)
            uneven |= len(iters) > 1
    # every label occurs, and some block has rows that stop at different iterations
    assert labels_seen == {"power_iteration", "power_iteration:max_iter", "power_iteration:zero_matrix"}
    assert uneven


def test_power_block_rows_with_different_matrices():
    S = _kernel_cases(11)[0]
    mats = [S, S * 2.0, S.T @ S]
    rng = np.random.default_rng(2)
    owner = np.array([0, 2, 1, 0, 2, 2])
    starts = rng.standard_normal((6, 5)) + 1j * rng.standard_normal((6, 5))
    vals, wits, labels = norms._power_block(mats, owner, starts, 3.0, 1.5, 1e-10, 300)
    for r, i in enumerate(owner):
        ref = _ref_power_iteration(mats[i], 3.0, 1.5, starts[r], 1e-10, 300)
        assert _same((vals[r], wits[r], labels[r]), ref[:3])


@pytest.mark.parametrize("multistarts, max_iter", [(1, 300), (5, 300), (12, 300), (8, 4)])
def test_opnorm_matches_single_start_loop(multistarts, max_iter):
    cfg = SearchConfig(multistarts=multistarts, max_iter=max_iter, seed=99)
    for S in _kernel_cases(7):
        for p, q in [(3.0, 1.5), (INF, 1.0), (1.5, 4.0), (2.0, 1.0)]:
            est = opnorm(S, p, q, cfg)
            assert est.certainty == LOWER_BOUND
            assert _same((est.value, est.witness, est.method), _ref_opnorm(S, p, q, cfg))


def test_opnorms_equals_opnorm_of_each():
    cfg = SearchConfig(multistarts=6, seed=3)
    rng = np.random.default_rng(8)
    mats = [rng.standard_normal((4, 5)) + 1j * rng.standard_normal((4, 5)) for _ in range(4)]
    mats.append(np.zeros((4, 5)))
    for p, q in [(3.0, 1.5), (2.0, 4.0), (2.0, 2.0), (1.0, 3.0), (1.5, INF)]:
        batch = opnorms(mats, p, q, cfg)
        for S, est in zip(mats, batch):
            one = opnorm(S, p, q, cfg)
            assert (est.value, est.witness.tobytes(), est.method, est.certainty) == (
                one.value, one.witness.tobytes(), one.method, one.certainty)
    assert opnorms([], 3.0, 1.5) == []
    with pytest.raises(ValueError):
        opnorms([np.eye(2), np.eye(3)], 3.0, 1.5)


@settings(deadline=None, max_examples=30)
@given(
    x=st.lists(st.floats(min_value=-1e6, max_value=1e6), min_size=1, max_size=9),
    p=st.sampled_from([1.0, 1.5, 2.0, 3.0, 7.5, INF]),
)
def test_vector_norm_matches_scalar_formula(x, p):
    assert vector_norm(x, p) == _ref_norm(x, p)


# ------------------------------------------------------------- brute force


def test_bruteforce_sign_enumeration_exact():
    est = opnorm_bruteforce([[1, 1], [1, 1]], INF, 1)
    assert est.value == pytest.approx(4.0)
    assert est.certainty == EXACT


def test_bruteforce_identity_inf_inf():
    est = opnorm_bruteforce(np.eye(3), INF, INF)
    assert est.value == pytest.approx(1.0)


def test_bruteforce_grid_approaches_svd():
    est = opnorm_bruteforce([[1, 1], [1, -1]], 2, 2, resolution=720)
    assert est.value >= math.sqrt(2.0) - 1e-4
    assert est.value <= math.sqrt(2.0) + 1e-9
    assert est.certainty == LOWER_BOUND


def test_bruteforce_capacity_errors():
    with pytest.raises(CapacityError):
        opnorm_bruteforce(np.eye(5), 2, 2)
    with pytest.raises(CapacityError):
        opnorm_bruteforce(np.eye(21), INF, 1)
    with pytest.raises(ValueError):
        opnorm_bruteforce(np.eye(2) * 1j, INF, 1)


# --------------------------------------------------------------- invariants


@settings(deadline=None, max_examples=25)
@given(seed=st.integers(min_value=0, max_value=10_000))
def test_exact_branches_dominate_grid(seed):
    rng = np.random.default_rng(seed)
    S = rng.standard_normal((3, 3))
    for p, q in [(1.0, 2.0), (2.0, 2.0), (2.0, INF)]:
        exact = opnorm(S, p, q)
        assert exact.certainty == EXACT
        if p != INF:
            grid = opnorm_bruteforce(S, p, q, resolution=40)
            assert exact.value >= grid.value - 1e-9


@settings(deadline=None, max_examples=20)
@given(
    seed=st.integers(min_value=0, max_value=10_000),
    c=st.floats(min_value=0.1, max_value=10.0),
)
def test_scaling_invariance(seed, c):
    rng = np.random.default_rng(seed)
    S = rng.standard_normal((3, 3))
    cfg = SearchConfig(multistarts=6, seed=7)
    a = opnorm(S, 3, 2, cfg).value
    b = opnorm(c * S, 3, 2, cfg).value
    assert b == pytest.approx(c * a, rel=1e-8)


@settings(deadline=None, max_examples=25)
@given(seed=st.integers(min_value=0, max_value=10_000))
def test_monotonicity_in_q_on_exact_branch(seed):
    rng = np.random.default_rng(seed)
    S = rng.standard_normal((4, 4))
    vals = [opnorm(S, 1, q).value for q in (1.0, 2.0, 4.0, INF)]
    for lo, hi in zip(vals, vals[1:]):
        assert lo >= hi - 1e-12


@settings(deadline=None, max_examples=25)
@given(seed=st.integers(min_value=0, max_value=10_000))
def test_witness_achieves_reported_value(seed):
    rng = np.random.default_rng(seed)
    S = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
    for p, q in [(1.0, 3.0), (2.0, INF), (2.0, 2.0), (3.0, 1.5)]:
        est = opnorm(S, p, q, SearchConfig(multistarts=6))
        assert est.reevaluate(S, p, q) == pytest.approx(est.value, rel=1e-9, abs=1e-12)


@settings(deadline=None, max_examples=25)
@given(
    seed=st.integers(min_value=0, max_value=10_000),
    p=st.sampled_from([1.0, 1.5, 2.0, 3.0, INF]),
)
def test_upper_bound_dominates_lower_bound(seed, p):
    rng = np.random.default_rng(seed)
    S = rng.standard_normal((4, 4))
    lower = opnorm(S, p, p, SearchConfig(multistarts=6)).value
    upper = opnorm_upper(S, p)
    assert upper >= lower - 1e-9 * max(1.0, lower)


def test_upper_bound_exact_at_anchors():
    rng = np.random.default_rng(3)
    S = rng.standard_normal((4, 4))
    assert opnorm_upper(S, 1) == pytest.approx(opnorm(S, 1, 1).value)
    assert opnorm_upper(S, 2) == pytest.approx(opnorm(S, 2, 2).value)
    a = np.abs(S)
    assert opnorm_upper(S, INF) == pytest.approx(a.sum(axis=1).max())
