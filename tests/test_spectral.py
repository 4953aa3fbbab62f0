import itertools
import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from doilab import spectral
from doilab.norms import EXACT, INF, LOWER_BOUND, SearchConfig, opnorm, opnorm_upper
from doilab.spectral import (
    DiagonalizableOperator,
    _diag_scaling_objective,
    _endpoint_scaling,
    _lbfgs,
    _smoothed_log_bound,
    assemble,
    diagonalizability_constant,
    functional_calculus,
    spectral_constant,
    spectral_projection,
)

HADAMARD = np.array([[1.0, 1.0], [1.0, -1.0]]) / math.sqrt(2.0)


def random_operator(seed, n=4, delta=0.2):
    rng = np.random.default_rng(seed)
    lam = rng.uniform(-1.0, 1.0, size=n)
    u = np.eye(n) + delta * (rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)))
    return DiagonalizableOperator(lam, u, np.linalg.inv(u))


# -------------------------------------------------------------------- types


def test_operator_invariants_checked():
    with pytest.raises(ValueError):
        DiagonalizableOperator([1.0, 2.0], np.eye(2), 2 * np.eye(2))


def test_from_u_and_diagonal_constructors():
    op = DiagonalizableOperator.from_u([1.0, -1.0], HADAMARD)
    assert np.allclose(op.u @ op.u_inv, np.eye(2), atol=1e-12)
    d = DiagonalizableOperator.diagonal([3.0, 4.0])
    assert np.allclose(assemble(d), np.diag([3.0, 4.0]))


# ----------------------------------------------------------------- assemble


def test_assemble_diagonal():
    op = DiagonalizableOperator.diagonal([1.0, 2.0])
    assert np.allclose(assemble(op), np.diag([1.0, 2.0]))


def test_assemble_hadamard_gives_swap():
    op = DiagonalizableOperator.from_u([1.0, -1.0], HADAMARD)
    assert np.allclose(assemble(op), np.array([[0.0, 1.0], [1.0, 0.0]]), atol=1e-12)


def test_assemble_zero_spectrum():
    op = random_operator(0)
    zero = DiagonalizableOperator(np.zeros(op.n), op.u, op.u_inv)
    assert np.allclose(assemble(zero), 0.0)


# ------------------------------------------------------- functional calculus


def test_functional_calculus_identity_function():
    op = random_operator(1)
    assert np.allclose(functional_calculus(op, lambda t: t), assemble(op), atol=1e-12)


def test_functional_calculus_abs_diagonal():
    op = DiagonalizableOperator.diagonal([1.0, -1.0])
    assert np.allclose(functional_calculus(op, abs), np.eye(2))


def test_functional_calculus_abs_swap_matrix():
    # |A| for A = [[0,1],[1,0]] is the identity (sqrt of A^H A = I)
    op = DiagonalizableOperator.from_u([1.0, -1.0], HADAMARD)
    assert np.allclose(functional_calculus(op, abs), np.eye(2), atol=1e-12)


@settings(deadline=None, max_examples=25)
@given(
    seed=st.integers(min_value=0, max_value=10_000),
    cf=st.lists(st.floats(min_value=-2, max_value=2), min_size=1, max_size=3),
    cg=st.lists(st.floats(min_value=-2, max_value=2), min_size=1, max_size=3),
)
def test_functional_calculus_is_multiplicative(seed, cf, cg):
    op = random_operator(seed)
    f = np.polynomial.Polynomial(cf)
    g = np.polynomial.Polynomial(cg)
    fg = functional_calculus(op, lambda t: f(t) * g(t))
    assert np.allclose(fg, functional_calculus(op, f) @ functional_calculus(op, g), atol=1e-9)


def test_functional_calculus_indicator_equals_projection():
    op = random_operator(2)
    sigma = [0, 2]
    values = {op.lambdas[i] for i in sigma}
    ind = lambda t: 1.0 if t in values else 0.0
    assert np.allclose(
        functional_calculus(op, ind), spectral_projection(op, sigma), atol=1e-12
    )


# -------------------------------------------------------------- projections


def test_projection_full_and_empty():
    op = random_operator(3)
    assert np.allclose(spectral_projection(op, range(op.n)), np.eye(op.n), atol=1e-12)
    assert np.allclose(spectral_projection(op, []), 0.0)


def test_projection_hadamard_example():
    op = DiagonalizableOperator.from_u([1.0, -1.0], HADAMARD)
    P = spectral_projection(op, [0])
    assert np.allclose(P, 0.5 * np.ones((2, 2)), atol=1e-12)


@settings(deadline=None, max_examples=25)
@given(seed=st.integers(min_value=0, max_value=10_000))
def test_projection_idempotent_and_multiplicative(seed):
    op = random_operator(seed)
    sigma, tau = [0, 1], [1, 3]
    P, Q = spectral_projection(op, sigma), spectral_projection(op, tau)
    assert np.allclose(P @ P, P, atol=1e-9)
    both = sorted(set(sigma) & set(tau))
    assert np.allclose(P @ Q, spectral_projection(op, both), atol=1e-9)


def test_projection_rejects_split_repeated_eigenvalue():
    op = DiagonalizableOperator.diagonal([1.0, 1.0, 2.0])
    with pytest.raises(ValueError):
        spectral_projection(op, [0])  # index 1 shares the eigenvalue


# ------------------------------------------------------- spectral constant


def test_spectral_constant_identity_basis():
    op = DiagonalizableOperator.diagonal([1.0, -3.0, 2.0])
    est = spectral_constant(op, 2.0)
    assert est.value == pytest.approx(1.0)
    assert est.certainty == EXACT


def test_spectral_constant_unitary_p2():
    rng = np.random.default_rng(5)
    q, _ = np.linalg.qr(rng.standard_normal((4, 4)))
    op = DiagonalizableOperator.from_u(np.arange(4.0), q)
    assert spectral_constant(op, 2.0).value == pytest.approx(1.0, abs=1e-9)


def test_spectral_constant_oblique_projection():
    # lambdas (1,-1), U = [[1,1],[0,1]]: the only nontrivial projection is
    # [[1,1],[0,0]], whose largest singular value is sqrt(2)
    u = np.array([[1.0, 1.0], [0.0, 1.0]])
    op = DiagonalizableOperator.from_u([1.0, -1.0], u)
    assert spectral_constant(op, 2.0).value == pytest.approx(math.sqrt(2.0), abs=1e-9)


def _spectral_constant_per_subset(op, p, cfg):
    """spectral_constant with one `opnorm` call per subset, as it was
    before the projections were estimated in blocks."""
    groups = spectral._distinct_eigenvalue_groups(op)
    m = len(groups)
    best, best_arg, all_exact = 1.0, "full spectrum", True

    def try_subset(mask_groups):
        nonlocal best, best_arg, all_exact
        idx = [i for g in mask_groups for i in g]
        if not idx or len(idx) == op.n:
            return
        est = opnorm(spectral_projection(op, idx), p, p, cfg)
        all_exact &= est.certainty == EXACT
        if est.value > best:
            best, best_arg = est.value, f"indices {sorted(idx)}"

    if m <= spectral.EXHAUSTIVE_CAP:
        for r in range(1, m):
            for combo in itertools.combinations(groups, r):
                try_subset(combo)
        return best, EXACT if all_exact else LOWER_BOUND, best_arg
    rng = cfg.rng(0x0537, op.n)
    for _ in range(2**spectral.EXHAUSTIVE_CAP // 4):
        mask = rng.random(m) < 0.5
        try_subset([g for g, keep in zip(groups, mask) if keep])
    return best, LOWER_BOUND, best_arg


@pytest.mark.parametrize("p", [1.0, 1.5, 2.0, 3.0, INF])
def test_spectral_constant_blocks_match_per_subset_loop(p):
    cfg = SearchConfig(multistarts=3, max_iter=50, seed=9)
    ops = [random_operator(seed, n=n, delta=0.5) for seed, n in [(40, 2), (41, 5), (42, 8)]]
    op = random_operator(43, n=6, delta=0.5)
    ops.append(DiagonalizableOperator([0.5, 0.5, -1.0, -1.0, 2.0, 3.0], op.u, op.u_inv))
    if p in (2.0, 3.0):
        ops.append(random_operator(44, n=spectral.EXHAUSTIVE_CAP + 1, delta=0.3))  # sampled subsets
    for op in ops:
        est = spectral_constant(op, p, cfg)
        value, certainty, argument = _spectral_constant_per_subset(op, p, cfg)
        assert (est.value.hex(), est.certainty, est.argument) == (value.hex(), certainty, argument)


# -------------------------------------------------- diagonalizability const


def test_k_identity_basis_is_one():
    op = DiagonalizableOperator.diagonal([1.0, 2.0, -1.0])
    est = diagonalizability_constant(op, 2.0)
    assert est.value == pytest.approx(1.0, abs=1e-9)
    assert est.certainty == "upper_bound"


def test_k_unitary_is_one_at_p2():
    rng = np.random.default_rng(6)
    q, _ = np.linalg.qr(rng.standard_normal((5, 5)))
    op = DiagonalizableOperator.from_u(np.arange(5.0), q)
    assert diagonalizability_constant(op, 2.0).value == pytest.approx(1.0, abs=1e-9)


def test_k_optimizer_finds_trivial_diagonal_rescaling():
    op = DiagonalizableOperator.from_u([1.0, -1.0], np.diag([1.0, 10.0]))
    assert diagonalizability_constant(op, 2.0).value == pytest.approx(1.0, abs=1e-9)


@settings(deadline=None, max_examples=15)
@given(
    seed=st.integers(min_value=0, max_value=10_000),
    p=st.sampled_from([1.0, 1.5, 2.0, 3.0, INF]),
)
def test_nu_below_k(seed, p):
    op = random_operator(seed)
    cfg = SearchConfig(multistarts=6)
    nu = spectral_constant(op, p, cfg).value
    k = diagonalizability_constant(op, p).value
    assert nu <= k + 1e-9


def test_normal_operator_constants_are_one():
    rng = np.random.default_rng(8)
    q, _ = np.linalg.qr(rng.standard_normal((4, 4)))
    op = DiagonalizableOperator.from_u(rng.uniform(-1, 1, 4), q)
    assert spectral_constant(op, 2.0).value == pytest.approx(1.0, abs=1e-9)
    assert diagonalizability_constant(op, 2.0).value == pytest.approx(1.0, abs=1e-9)


def scaled_product(op, d, p):
    """||DU||_p ||U^{-1}D^{-1}||_p for D = diag(d)."""
    return opnorm_upper(d[:, None] * op.u, p, p) * opnorm_upper(op.u_inv / d[None, :], p, p)


@pytest.mark.parametrize("p", [1.0, INF])
@pytest.mark.parametrize("seed", range(5))
def test_k_endpoint_closed_form_is_optimal(seed, p):
    op = random_operator(seed, n=6, delta=0.4)
    est = diagonalizability_constant(op, p)
    m = np.abs(op.u_inv) @ np.abs(op.u)
    closed = m.sum(axis=0).max() if p == 1.0 else m.sum(axis=1).max()
    assert est.certainty == EXACT
    assert est.value == pytest.approx(max(closed, 1.0), rel=1e-12)
    d = _endpoint_scaling(op, p)
    assert est.argument == f"diagonal scaling exp({json.dumps(np.log(d).tolist())})"
    assert scaled_product(op, d, p) == pytest.approx(est.value, rel=1e-12)
    rng = np.random.default_rng(seed)
    for _ in range(100):
        assert scaled_product(op, np.exp(2.0 * rng.standard_normal(op.n)), p) >= est.value * (1 - 1e-12)
        assert scaled_product(op, d * np.exp(0.01 * rng.standard_normal(op.n)), p) >= est.value * (1 - 1e-12)
    assert spectral_constant(op, p).value <= est.value + 1e-9


# K from `_lbfgs`; each is at most old_pin, the value of the coordinate
# descent that preceded it
SOLVER_PINS = {21: 18.965676312778747, 22: 18.29226008297023, 23: 5.204857544059306}


@pytest.mark.parametrize("seed,p,old_pin", [
    (21, 1.5, 19.239824217290593), (22, 3.0, 18.69494340114119), (23, 2.0, 5.252502905540681),
])
def test_k_interior_descent_values_pinned(seed, p, old_pin):
    est = diagonalizability_constant(random_operator(seed, n=6, delta=0.4), p)
    assert est.certainty == "upper_bound"
    assert est.value == pytest.approx(SOLVER_PINS[seed], rel=1e-12)
    assert est.value <= old_pin


@pytest.mark.parametrize("p", [1.5, 2.0, 3.0])
def test_k_smoothed_log_bound_gradient_matches_central_differences(p):
    op = random_operator(31, n=5, delta=0.4)
    f = _smoothed_log_bound(op, p)
    rng = np.random.default_rng(32)
    for _ in range(3):
        x = 0.3 * rng.standard_normal(op.n - 1)
        _, grad = f(x)
        h = 1e-6
        for i in range(x.size):
            e = np.zeros_like(x)
            e[i] = h
            fd = (f(x + e)[0] - f(x - e)[0]) / (2 * h)
            assert grad[i] == pytest.approx(fd, rel=1e-5, abs=1e-7)


@pytest.mark.parametrize("m", [1, 5, 30])
def test_lbfgs_reaches_gradient_tolerance_on_convex_quadratic(monkeypatch, m):
    # with the relative-decrease stop off, only max |g| <= _GTOL ends the run
    monkeypatch.setattr(spectral, "_FTOL", 0.0)
    rng = np.random.default_rng(m)
    q, _ = np.linalg.qr(rng.standard_normal((m, m)))
    a = q @ np.diag(np.geomspace(0.1, 100.0, m)) @ q.T
    x_star = rng.standard_normal(m)

    def fg(x):
        g = a @ (x - x_star)
        return 0.5 * (x - x_star) @ g, g

    x = _lbfgs(fg, np.zeros(m))
    assert np.abs(fg(x)[1]).max() <= spectral._GTOL
    assert np.allclose(x, x_star, atol=1e-5)


@pytest.mark.parametrize("p", [1.5, 2.0, 3.0])
@pytest.mark.parametrize("seed", range(4))
def test_lbfgs_never_ends_above_its_start(seed, p):
    op = random_operator(40 + seed, n=6, delta=0.6)
    f = _smoothed_log_bound(op, p)
    x0 = np.random.default_rng(seed).standard_normal(op.n - 1)
    assert f(_lbfgs(f, x0))[0] <= f(x0)[0]


@pytest.mark.parametrize("p", [1.5, 2.0, 3.0])
@pytest.mark.parametrize("seed", range(3))
def test_k_interior_argument_rescores_to_value(seed, p):
    op = random_operator(seed, n=7, delta=0.5)
    est = diagonalizability_constant(op, p)
    logd = np.array(json.loads(est.argument.removeprefix("diagonal scaling exp(").removesuffix(")")))
    # the argument holds log d at full precision, so it rescores to K exactly
    assert max(_diag_scaling_objective(op, logd, p), 1.0) == est.value
    for start in (np.zeros(op.n), -np.log(np.abs(op.u).max(axis=1))):
        assert est.value <= _diag_scaling_objective(op, start, p)


def test_k_interior_dimension_one_skips_the_solver(monkeypatch):
    def no_solver(*args, **kwargs):
        raise AssertionError("_lbfgs called at n = 1")

    monkeypatch.setattr(spectral, "_lbfgs", no_solver)
    op = DiagonalizableOperator.from_u([0.5], [[3.0 - 4.0j]])
    for p in (1.5, 2.0, 3.0):
        est = diagonalizability_constant(op, p)
        assert (est.value, est.certainty) == (1.0, EXACT)
