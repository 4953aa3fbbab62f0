import dataclasses
import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from doilab import norms, schur
from doilab.experiments import ExperimentConfig
from doilab.norms import (
    EXACT,
    INF,
    LOWER_BOUND,
    SEARCH_TOL,
    NormEstimate,
    SearchConfig,
    check_exponent,
    conjugate_exponent,
    dual_map,
    opnorm,
    opnorm_bruteforce,
    opnorm_upper,
    opnorm_uppers,
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
    with pytest.raises(ValueError, match="exponent must lie in"):
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


def test_l2_norm_scales_out_overflow_and_underflow():
    assert vector_norm([1e200, 1e200], 2) == pytest.approx(math.sqrt(2.0) * 1e200, rel=1e-15)
    assert vector_norm([1e-200, 1e-200], 2) == pytest.approx(math.sqrt(2.0) * 1e-200, rel=1e-15)
    assert vector_norm([5e-324], 2) == 5e-324
    assert vector_norm([0.0, 0.0], 2) == 0.0
    for p in (1.5, 2, 3):
        assert vector_norm([math.inf, 1.0], p) == math.inf
    est = opnorm(np.diag([1e200, 1.0]), 1, 2)
    assert (est.value, est.certainty) == (1e200, EXACT)
    # rows whose sum of squares is a finite normal number keep its bits
    a = np.abs(np.random.default_rng(0).standard_normal((6, 7)))
    a[1] *= 1e200
    a[3] *= 1e-200
    a[5] = 0.0
    got = norms._row_norms(a, 2.0)
    plain = [0, 2, 4]
    assert got[plain].tobytes() == np.sqrt((a[plain] * a[plain]).sum(axis=1)).tobytes()
    for i in (1, 3):
        assert got[i] == pytest.approx(np.linalg.norm(a[i] / a[i].max()) * a[i].max(), rel=1e-15)
    assert got[5] == 0.0


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


def _loop_exact_p1(S, q):
    """The per-column loop of the p=1 branch before it became one call."""
    vals = [vector_norm(S[:, k], q) for k in range(S.shape[1])]
    k = int(np.argmax(vals))
    w = np.zeros(S.shape[1], dtype=complex)
    w[k] = 1.0
    return float(vals[k]), w


def _loop_exact_qinf(S, p):
    """The per-row loop of the q=inf branch before it became one call."""
    vals = [vector_norm(S[j, :], conjugate_exponent(p)) for j in range(S.shape[0])]
    j = int(np.argmax(vals))
    return float(vals[j]), norms._lp_dual_witness(S[j, :], p)


def _exact_branch_cases():
    rng = np.random.default_rng(21)
    for m, n in [(1, 1), (3, 3), (4, 9), (9, 4), (17, 16), (33, 40)]:
        for complex_entries in (False, True):
            S = rng.standard_normal((m, n))
            if complex_entries:
                S = S + 1j * rng.standard_normal((m, n))
            if n > 1:
                S[:, n // 2] = 0.0  # a zero column
            for scale in (1.0, 1e150, 1e-150):
                yield S * scale
                yield np.asfortranarray(S * scale)


@pytest.mark.parametrize("r", [1.0, 1.1, 1.5, 2.0, 3.0, 7.0, INF])
def test_exact_branches_match_loops_bit_for_bit(r):
    for S in _exact_branch_cases():
        Sc = np.asarray(S, dtype=complex)
        est = opnorm(S, 1.0, r)
        value, w = _loop_exact_p1(Sc, r)
        assert (est.value, est.witness.tobytes()) == (value, w.tobytes())
        if r == 1.0:
            continue  # opnorm(S, 1, inf) takes the p=1 branch
        est = opnorm(S, r, INF)
        value, w = _loop_exact_qinf(Sc, r)
        assert (est.value, est.witness.tobytes()) == (value, w.tobytes())


def test_opnorm_rejects_empty_and_nonfinite():
    with pytest.raises(ValueError):
        opnorm(np.zeros((0, 0)), 2, 2)
    with pytest.raises(ValueError):
        opnorm([[math.inf]], 2, 2)
    with pytest.raises(ValueError, match="entries must be finite"):
        opnorm_bruteforce([[math.nan, 1.0]], 3, 2)
    with pytest.raises(ValueError, match="entries must be finite"):
        opnorm_bruteforce([[math.inf, 1.0]], INF, 2)
    with pytest.raises(ValueError, match="takes a 2-D matrix"):
        opnorm_bruteforce([1.0, 2.0], 2, 2)


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
    with pytest.raises(ValueError, match="handles 1 < p"):
        power_iteration_pq(np.eye(2), 1, 2, [1.0, 0.0])
    with pytest.raises(ValueError, match="handles 1 < p"):
        power_iteration_pq(np.eye(2), 2, INF, [1.0, 0.0])


def test_power_iteration_rejects_a_zero_start():
    with pytest.raises(ValueError, match="starting vector must be nonzero"):
        power_iteration_pq(np.eye(2), 2, 2, [0.0, 0.0])


def test_reevaluate_of_a_zero_witness_is_zero():
    est = NormEstimate(1.0, LOWER_BOUND, np.zeros(2, dtype=complex), "power_iteration")
    assert est.reevaluate(np.eye(2), 2.0, 3.0) == 0.0


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
        ss = (a * a).sum()
        if 2.0**-1022 <= ss < INF:  # otherwise the max is scaled out below
            return float(np.sqrt(ss))
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
        val, w, lab, _ = _ref_power_iteration(S, p, q, x0, SEARCH_TOL, norms.MAX_ITER)
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
def test_power_block_matches_single_start_loop(p, q, monkeypatch):
    rng = np.random.default_rng(17)
    labels_seen, uneven = set(), False
    for S in _kernel_cases(int(rng.integers(1 << 30))):
        for max_iter in (3, 300):
            monkeypatch.setattr(norms, "MAX_ITER", max_iter)
            k = int(rng.integers(1, 13))
            starts = rng.standard_normal((k, S.shape[1])) + 1j * rng.standard_normal((k, S.shape[1]))
            starts[0] = 1.0
            vals, wits, labels = norms._power_block([S], np.zeros(k, int), starts, p, q)
            iters = set()
            for r in range(k):
                val, w, lab, it = _ref_power_iteration(S, p, q, starts[r], SEARCH_TOL, max_iter)
                assert _same((vals[r], wits[r], labels[r]), (val, w, lab)), (S.shape, max_iter, r)
                assert _same(power_iteration_pq(S, p, q, starts[r]), (val, w, lab))
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
    vals, wits, labels = norms._power_block(mats, owner, starts, 3.0, 1.5)
    for r, i in enumerate(owner):
        ref = _ref_power_iteration(mats[i], 3.0, 1.5, starts[r], SEARCH_TOL, norms.MAX_ITER)
        assert _same((vals[r], wits[r], labels[r]), ref[:3])


def test_matvecs_equal_one_matvec_per_row():
    # a gathered stack of matrices and its transposed view, as a block of
    # several matrices uses them, and one matrix broadcast over the rows
    rng = np.random.default_rng(5)
    mats = [
        np.asarray(_kernel_cases(3)[1], dtype=complex),
        rng.standard_normal((3, 6)) + 1j * rng.standard_normal((3, 6)),
    ]
    own = np.array([0, 0, 1, 1, 1, 0, 1, 0, 0])
    stack = np.stack(mats)[own]
    for ops, n in ((stack, 6), (stack.swapaxes(-1, -2), 3), (mats[1], 6), (mats[1].T, 3)):
        v = rng.standard_normal((len(own), n)) + 1j * rng.standard_normal((len(own), n))
        out = norms._matvecs(ops, v)
        ref = np.array([(ops[i] if ops.ndim == 3 else ops) @ v[i] for i in range(len(own))])
        assert out.tobytes() == ref.tobytes()
        assert norms._matvecs(ops[:0] if ops.ndim == 3 else ops, v[:0]).shape == (0, ops.shape[-2])


@pytest.mark.parametrize("multistarts, max_iter", [(1, 300), (5, 300), (12, 300), (8, 4)])
def test_opnorm_matches_single_start_loop(multistarts, max_iter, monkeypatch):
    monkeypatch.setattr(norms, "MAX_ITER", max_iter)
    cfg = SearchConfig(multistarts=multistarts, seed=99)
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


def test_opnorms_with_per_matrix_configs_equals_opnorm_of_each(monkeypatch):
    monkeypatch.setattr(norms, "MAX_ITER", 200)
    rng = np.random.default_rng(12)
    for n in (2, 4, 9):  # seeded complex Gaussian starts at n < multistarts - 1
        mats = [rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)) for _ in range(4)]
        mats.append(np.zeros((n, n)))
        cfgs = [SearchConfig(multistarts=k, seed=s) for k, s in ((8, 1), (8, 2), (3, 3), (1, 4), (8, 5))]
        for p, q in [(2.0, 1.5), (2.5, 2.0), (3.0, 1.5), (2.0, 2.0), (1.0, 3.0), (1.5, INF)]:
            batch = opnorms(mats, p, q, cfgs)
            for S, c, est in zip(mats, cfgs, batch):
                one = opnorm(S, p, q, c)
                assert (est.value, est.witness.tobytes(), est.method, est.certainty) == (
                    one.value, one.witness.tobytes(), one.method, one.certainty)
    # each matrix iterates from its own starts: at n = 2 one step from the
    # Gaussian starts of two seeds ends at two witnesses
    monkeypatch.setattr(norms, "MAX_ITER", 1)
    S = np.array([[1.0, 2.0j], [0.5, -1.0]])
    a, b = opnorms([S, S], 2.0, 1.5, [SearchConfig(seed=1), SearchConfig(seed=2)])
    assert a.witness.tobytes() != b.witness.tobytes()


@pytest.mark.parametrize("cfgs", [
    [SearchConfig()],
    [SearchConfig()] * 3,
    [],
])
def test_opnorms_rejects_mismatched_configs(cfgs):
    mats = [np.eye(3), np.ones((3, 3))]
    for p, q in [(3.0, 1.5), (1.0, 2.0)]:
        with pytest.raises(ValueError, match=f"{len(cfgs)} search configs for 2 matrices"):
            opnorms(mats, p, q, cfgs)


def test_every_run_searches_with_the_default_config_up_to_max_iter(monkeypatch):
    assert [f.name for f in dataclasses.fields(SearchConfig)] == ["multistarts", "seed"]
    assert SearchConfig() == SearchConfig(multistarts=8, seed=0)
    assert ExperimentConfig().restarts == SearchConfig().multistarts
    assert norms.MAX_ITER == schur.MAX_ITER == 300
    # with the caps lowered, the power iteration stops after MAX_ITER steps
    # (two matvecs each, after the start's one) and the S_1 alternation
    # after MAX_ITER SVDs, on inputs where neither has converged by then
    cap = 5
    monkeypatch.setattr(norms, "MAX_ITER", cap)
    monkeypatch.setattr(schur, "MAX_ITER", cap)
    calls, matvecs = [], norms._matvecs
    monkeypatch.setattr(norms, "_matvecs", lambda ops, v: calls.append(len(v)) or matvecs(ops, v))
    S = _kernel_cases(3)[0]
    est = opnorm(S, 3.0, 1.5, SearchConfig(multistarts=1))
    assert est.method == "power_iteration:max_iter"
    assert calls == [1] * (1 + 2 * cap)
    calls.clear()
    assert power_iteration_pq(S, 3.0, 1.5, np.ones(5))[2] == "power_iteration:max_iter"
    assert len(calls) == 1 + 2 * cap
    svds, svd = [], np.linalg.svd
    monkeypatch.setattr(np.linalg, "svd", lambda a, *args, **kw: svds.append(kw) or svd(a, *args, **kw))
    schur._s1_witness(schur.standard_truncation_mask(32, 32, 32), 1.0)
    assert svds == [{"full_matrices": False}] * cap


# a nonfinite entry, no entries, and arrays that are not 2-D
BAD_MATRICES = {
    "inf": np.array([[np.inf, 1.0]]),
    "nan": np.array([[np.nan, 1.0]]),
    "empty": np.zeros((0, 3)),
    "vector": np.ones(3),
    "scalar": np.array(2.0),
    "3-D": np.ones((2, 2, 2)),
}


@pytest.mark.parametrize("name", BAD_MATRICES)
@pytest.mark.parametrize("p, q", [(2.0, 3.0), (3.0, 3.0), (2.0, 2.0), (1.0, 2.0), (3.0, 1.5), (2.0, INF)])
def test_bad_matrices_are_the_same_value_error_in_every_norm(name, p, q):
    S = BAD_MATRICES[name]
    for norm in (opnorm, opnorm_upper, schur.multiplier_norm):
        with pytest.raises(ValueError, match="takes a 2-D|of an empty|entries must be finite"):
            norm(S, p, q)
    with pytest.raises(ValueError, match="takes a 2-D|of an empty|entries must be finite"):
        opnorm_uppers(S, [])


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
    with pytest.raises(ValueError, match="limited to n <="):
        opnorm_bruteforce(np.eye(5), 2, 2)
    with pytest.raises(ValueError, match="limited to n <="):
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
    upper = opnorm_upper(S, p, p)
    assert upper >= lower - 1e-9 * max(1.0, lower)


# pairs on the p = 1 and q = inf branches, the p = q corners included
ANCHOR_PAIRS = [
    (1.0, 1.0), (1.0, 1.5), (1.0, 2.0), (1.0, 3.0), (1.0, INF),
    (1.5, INF), (2.0, INF), (3.0, INF), (INF, INF),
]


def _anchor_test_matrices():
    """Real and complex matrices of 30 random shapes up to 40 x 40, each
    also F-ordered."""
    rng = np.random.default_rng(3)
    for m, n in rng.integers(1, 41, size=(30, 2)).tolist():
        for S in (rng.standard_normal((m, n)), rng.standard_normal((m, n)) + 1j * rng.standard_normal((m, n))):
            yield S
            yield np.asfortranarray(S)


def test_upper_bound_exact_at_anchors():
    # on the p = 1 and q = inf branches the bound is opnorm's exact value,
    # (1,1) and (inf,inf) included, read from the same column and row norms
    for S in _anchor_test_matrices():
        for (p, q), upper in zip(ANCHOR_PAIRS, opnorm_uppers(S, ANCHOR_PAIRS)):
            assert upper == opnorm(S, p, q).value, (S.shape, p, q)
        # sigma_max of a value-only SVD and of the full SVD may differ by ulps
        assert opnorm_upper(S, 2, 2) == pytest.approx(opnorm(S, 2, 2).value, rel=1e-14)


# Neither side of these comparisons is rounded outward yet (ROADMAP item 2),
# so each fails by some ulps on many matrices of its set; the marker goes
# once item 2 lands, since xfail_strict fails a test that passes
@pytest.mark.xfail(raises=AssertionError, reason="ROADMAP item 2: sigma_max is not rounded up")
def test_the_22_upper_bound_is_at_least_the_full_svd_value():
    rng = np.random.default_rng(0)
    for _ in range(2000):
        m, n = rng.integers(2, 40, size=2).tolist()
        S = rng.standard_normal((m, n)) + 1j * rng.standard_normal((m, n))
        assert opnorm_upper(S, 2, 2) >= opnorm(S, 2, 2).value, ("ROADMAP item 2", S.shape)


@pytest.mark.xfail(raises=AssertionError, reason="ROADMAP item 2: power-iteration values are not rounded down")
def test_a_power_iteration_value_is_at_most_the_exact_upper_bound_on_one_row():
    # at m = 1 the Hoelder row form is the exact norm ||row||_{p*}
    rng = np.random.default_rng(1)
    for _ in range(300):
        S = rng.standard_normal((1, int(rng.integers(2, 6))))
        assert opnorm(S, 3.0, 1.5).value <= opnorm_upper(S, 3.0, 1.5), ("ROADMAP item 2", S)


# ------------------------------------------- p -> q upper bound, p != q

MIXED_PAIRS = [(2.0, 4.0), (3.0, 1.5), (1.5, 3.0), (2.5, 2.0), (2.0, 1.5), (4.0, 2.0)]
SHAPES = [(4, 4), (3, 5), (6, 2), (1, 4), (4, 1)]


def _upper_test_matrices(seed):
    """Complex, real and sparse matrices of every shape in SHAPES."""
    rng = np.random.default_rng(seed)
    for shape in SHAPES:
        yield rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
        yield rng.standard_normal(shape)
        yield rng.standard_normal(shape) * (rng.random(shape) < 0.3)


def _hoelder_test_matrices(seed):
    """A complex rank-one matrix plus 5% complex noise, and a real constant
    matrix, of every shape in SHAPES: the Hoelder forms win on the first,
    and on the second each equals an old anchor in exact arithmetic."""
    rng = np.random.default_rng(seed)
    for shape in SHAPES:
        u = rng.standard_normal((shape[0], 1)) + 1j * rng.standard_normal((shape[0], 1))
        v = rng.standard_normal((1, shape[1])) + 1j * rng.standard_normal((1, shape[1]))
        yield u @ v + 0.05 * (rng.standard_normal(shape) + 1j * rng.standard_normal(shape))
        yield np.full(shape, rng.standard_normal())


@pytest.mark.parametrize("p, q", MIXED_PAIRS)
def test_opnorm_upper_dominates_a_strong_search(p, q, monkeypatch):
    monkeypatch.setattr(norms, "MAX_ITER", 2000)
    cfg = SearchConfig(multistarts=64, seed=5)
    for S in [*_upper_test_matrices(11), *_hoelder_test_matrices(11)]:
        lower = opnorm(S, p, q, cfg).value
        assert opnorm_upper(S, p, q) >= lower * (1.0 - 1e-12)


@pytest.mark.parametrize("p, q", MIXED_PAIRS)
def test_opnorm_upper_dominates_the_grid_oracle(p, q):
    for S in _upper_test_matrices(12):
        if S.shape[1] <= 4:
            grid = opnorm_bruteforce(S, p, q, resolution=32).value
            assert opnorm_upper(S, p, q) >= grid * (1.0 - 1e-12)


@pytest.mark.parametrize("q", [1.0, 1.5, 2.0, 3.0])
def test_opnorm_upper_dominates_sign_enumeration_at_p_inf(q):
    # exact for real S at p = inf: the sup is attained at a sign vector
    rng = np.random.default_rng(13)
    for shape in SHAPES:
        for S in (rng.standard_normal(shape), rng.standard_normal(shape) * (rng.random(shape) < 0.3)):
            exact = opnorm_bruteforce(S, INF, q).value
            assert opnorm_upper(S, INF, q) >= exact * (1.0 - 1e-12)


def test_opnorm_upper_equals_the_exact_branches():
    for S in _upper_test_matrices(14):
        for q in (1.5, 2.0, 3.0, INF):
            assert opnorm_upper(S, 1.0, q) == opnorm(S, 1.0, q).value
        for p in (1.5, 2.0, 3.0):
            assert opnorm_upper(S, p, INF) == opnorm(S, p, INF).value
        assert opnorm_upper(S, 2.0, 2.0) == pytest.approx(opnorm(S, 2.0, 2.0).value, rel=1e-12)


def test_opnorm_upper_closed_forms_off_the_diagonal():
    # the identity attains each embedding norm ||I||_{p->q} = n^max(0, 1/q - 1/p)
    for n in (1, 3, 8):
        for p, q in MIXED_PAIRS:
            assert opnorm_upper(np.eye(n), p, q) == pytest.approx(n ** max(0.0, 1 / q - 1 / p), rel=1e-12)
    # a matrix unit has norm 1 everywhere
    unit = np.zeros((3, 5))
    unit[1, 2] = 1.0
    assert [opnorm_upper(unit, p, q) for p, q in MIXED_PAIRS] == [1.0] * len(MIXED_PAIRS)
    assert opnorm_upper(np.zeros((2, 3)), 3.0, 1.5) == 0.0


def _emb(k, r, s) -> float:
    return float(k) ** max(0.0, 1.0 / s - 1.0 / r)


def _opnorm_upper_with_the_old_anchors(S, p, q) -> float:
    """`opnorm_upper` at 1 < p, q < inf, p != q, as it was before the two
    Hoelder forms: the (2,2) anchor, the (1,q) anchor n^(1-1/p) ||S||_{1->q},
    the (p,inf) anchor m^(1/q) ||S||_{p->inf}, the (inf,1) corner sum
    |s_kj| and both segments, written out from sigma_max (in S's own
    arithmetic) and the exact branches of `opnorm`."""
    m, n = S.shape
    sigma = float(np.linalg.svd(S, compute_uv=False)[0])
    to_inf = opnorm(S, p, INF).value
    bounds = [
        _emb(n, p, 2.0) * sigma * _emb(m, 2.0, q),
        _emb(n, p, 1.0) * opnorm(S, 1.0, q).value,
        to_inf * _emb(m, INF, q),
        float(np.abs(S).sum()),
    ]
    if p == 2.0 and q > 2.0:
        bounds.append(norms.riesz_thorin(sigma, to_inf, 2.0 / q))
    if p < q:
        pt = (1.0 - 1.0 / q) / (1.0 / p - 1.0 / q)
        bounds.append(norms.riesz_thorin(opnorm(S, 1.0, 1.0).value, opnorm(S, pt, INF).value, 1.0 / q))
    return min(bounds)


def _opnorm_upper_without_the_corner_segment(S, p, q) -> float:
    """`opnorm_upper` at 1 < p < q < inf from its other bounds alone: the
    (2,2) anchor, the two Hoelder forms and, at p = 2, the segment to
    (2,inf), written out from sigma_max and per-row `vector_norm`s."""
    m, n = S.shape
    sigma = float(np.linalg.svd(S, compute_uv=False)[0])
    col_q = [vector_norm(col, q) for col in S.T]
    row_pstar = [vector_norm(row, conjugate_exponent(p)) for row in S]
    bounds = [
        _emb(n, p, 2.0) * sigma * _emb(m, 2.0, q),
        vector_norm(col_q, conjugate_exponent(p)),
        vector_norm(row_pstar, q),
    ]
    if p == 2.0:
        bounds.append(sigma ** (2.0 / q) * max(row_pstar) ** (1.0 - 2.0 / q))
    return min(bounds)


HOELDER_PAIRS = [*MIXED_PAIRS, (1.25, 1.5), (1.1, 7.0)]


def test_the_hoelder_forms_never_raise_the_bound_by_more_than_two_ulps():
    # in exact arithmetic they dominate the three anchors they replace; in
    # floating point a form equal to an old anchor (a constant matrix, where
    # 1/p* and 1 - 1/p round differently) can read a few ulps above it
    for S in [*_upper_test_matrices(25), *_hoelder_test_matrices(25)]:
        for p, q in HOELDER_PAIRS:
            old = _opnorm_upper_with_the_old_anchors(S, p, q)
            assert opnorm_upper(S, p, q) <= np.nextafter(np.nextafter(old, INF), INF), (S.shape, p, q)


def test_the_hoelder_forms_lower_the_bound_on_rank_one_plus_noise():
    # equal on the 1 x 4 and 4 x 1 shapes, where each form is an old anchor
    rank_one = [S for S in _hoelder_test_matrices(25) if np.iscomplexobj(S)]
    lower = [opnorm_upper(S, 1.5, 3.0) < _opnorm_upper_with_the_old_anchors(S, 1.5, 3.0) for S in rank_one]
    assert sum(lower) > len(lower) / 2, lower


@pytest.mark.parametrize("p, q", [(1.5, 3.0), (2.0, 3.0), (2.0, 4.0)])
def test_opnorm_upper_corner_segment_lies_between_a_search_and_the_other_anchors(p, q, monkeypatch):
    # the segment from the (1,1) corner to the (pt,inf) edge can only lower
    # the bound, and never below a lower bound
    monkeypatch.setattr(norms, "MAX_ITER", 500)
    cfg = SearchConfig(multistarts=16, seed=6)
    for S in _upper_test_matrices(15):
        upper = opnorm_upper(S, p, q)
        assert opnorm(S, p, q, cfg).value * (1.0 - 1e-12) <= upper <= _opnorm_upper_without_the_corner_segment(S, p, q)


def test_opnorm_upper_corner_segment_is_the_least_bound():
    # on the identity at (1.25,1.5) the segment reads the norm, 1, and each
    # other bound reads 4^(1/6) or more
    assert opnorm_upper(np.eye(4), 1.25, 1.5) == 1.0 < _opnorm_upper_without_the_corner_segment(np.eye(4), 1.25, 1.5)
    # the truncated Hilbert-type matrix at n = 128 (multiplier_norms no
    # longer searches that witness; the bench's floor check still builds it)
    n = 128
    S = schur.standard_truncation_mask(n, n, n) * schur.hilbert_type_witness(n, n)
    assert opnorm_upper(S, 2.0, 4.0) / _opnorm_upper_without_the_corner_segment(S, 2.0, 4.0) == pytest.approx(
        0.977, abs=1e-3
    )


# values of the parent implementation, l_p -> l_p on two seeded complex matrices
P_EQUALS_Q_PINS = {
    (4, 4): ["0x1.8d73af94fa8a1p+2", "0x1.5556d1e38f866p+2", "0x1.3c53d232fa261p+2",
             "0x1.78685a3f71c91p+2", "0x1.0a7bf81d6a7c0p+3"],
    (3, 5): ["0x1.ff2a218d74cc0p+1", "0x1.ddf04083469ecp+1", "0x1.ce24f2ce6877bp+1",
             "0x1.2179e65687838p+2", "0x1.c64cebf424b1ep+2"],
}


def test_opnorm_upper_at_p_equals_q_is_pinned():
    # the sampler and K's scoring call it at p = q: a change in
    # the last bit would change every sampled instance
    rng = np.random.default_rng(21)
    for shape, pins in P_EQUALS_Q_PINS.items():
        S = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
        got = [opnorm_upper(S, p, p) for p in (1.0, 1.5, 2.0, 3.0, INF)]
        assert got == [float.fromhex(h) for h in pins]


# values of the per-pair implementation on the matrices above, one branch of
# `opnorm_upper` each off the diagonal: p = 1, q = inf, p < q (at p = 2 too),
# and p > q
OFF_DIAGONAL_PAIRS = [(1.0, 3.0), (1.5, INF), (1.5, 3.0), (2.0, 4.0), (2.0, 3.0), (3.0, 1.5), (4.0, 2.0)]
OFF_DIAGONAL_PINS = {
    (4, 4): ["0x1.4f5508d014752p+1", "0x1.a8001995c5959p+1", "0x1.0089b227f3fa8p+2", "0x1.2281f97c23e07p+2",
             "0x1.2adf06aca89a2p+2", "0x1.f6237404107a8p+2", "0x1.bf5ac2e23b44ep+2"],
    (3, 5): ["0x1.ecefdc57a8f09p+0", "0x1.3cf933d5ee464p+1", "0x1.836c7463ccb99p+1", "0x1.b37e52075d955p+1",
             "0x1.bc33a760de251p+1", "0x1.6ae13d4b2eadfp+2", "0x1.5988922975de3p+2"],
}


def test_opnorm_upper_off_the_diagonal_is_pinned():
    # Schur-multiplier ratios off (2,2) divide by it
    rng = np.random.default_rng(21)
    for shape, pins in OFF_DIAGONAL_PINS.items():
        S = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
        assert [opnorm_upper(S, p, q) for p, q in OFF_DIAGONAL_PAIRS] == [float.fromhex(h) for h in pins]


# every branch of opnorm_upper: p = q at each anchor and in between, p = 1,
# q = inf (both at once too), p < q, p = 2 < q and p > q
UPPER_PAIRS = [
    (1.0, 1.0), (1.5, 1.5), (2.0, 2.0), (3.0, 3.0), (INF, INF),
    (1.0, 3.0), (1.0, INF), (2.0, INF), *OFF_DIAGONAL_PAIRS[2:], (INF, 1.0),
]


def test_opnorm_uppers_equal_opnorm_upper_at_each_pair_bit_for_bit():
    # the pair-independent parts are computed once and shared by every
    # pair, in either order, and repeated pairs read them again
    for S in _upper_test_matrices(23):
        for pairs in (UPPER_PAIRS, UPPER_PAIRS[::-1], UPPER_PAIRS + UPPER_PAIRS[:3]):
            got = [v.hex() for v in opnorm_uppers(S, pairs)]
            assert got == [opnorm_upper(S, p, q).hex() for p, q in pairs], (S.shape, S.dtype)
    assert opnorm_uppers(np.eye(3), []) == []


def test_opnorm_uppers_take_a_real_matrix_in_real_arithmetic():
    # a real S is not cast to complex: only sigma_max differs from that of
    # its complex copy, by the rounding of LAPACK's real and complex SVDs,
    # and a pair that reads no sigma_max gets the same bits
    eps, moved = np.finfo(float).eps, 0
    for S in _upper_test_matrices(24):
        if np.iscomplexobj(S):
            continue
        real, cplx = opnorm_uppers(S, UPPER_PAIRS), opnorm_uppers(S.astype(complex), UPPER_PAIRS)
        for (p, q), r, c in zip(UPPER_PAIRS, real, cplx):
            if p == 1.0 or q == INF:
                assert r.hex() == c.hex(), (S.shape, p, q)
            else:
                assert abs(r - c) <= 4 * eps * c, (S.shape, p, q)
                moved += r != c
        assert real[UPPER_PAIRS.index((2.0, 2.0))] == np.linalg.norm(S, 2)
    # the two SVDs round differently on some of these matrices
    assert moved > 0
