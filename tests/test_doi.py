import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from doilab.doi import abs_kernel_constant, commutator_transform, sobolev_weight_norm
from doilab.norms import SearchConfig, opnorm_upper
from doilab.schur import abs_divided_difference, divided_difference_matrix, schur_product, standard_truncation_mask
from doilab.spectral import DiagonalizableOperator, assemble


def random_pair(seed, n=4, delta=0.2):
    rng = np.random.default_rng(seed)
    ops = []
    for _ in range(2):
        lam = rng.uniform(-1.0, 1.0, size=n)
        u = np.eye(n) + delta * (rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)))
        ops.append(DiagonalizableOperator(lam, u, np.linalg.inv(u)))
    S = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    return ops[0], ops[1], S


# ------------------------------------------------------------------- apply
# the discrete double operator integral is applied as `schur_product`


def test_doi_apply_examples():
    rng = np.random.default_rng(0)
    S = rng.standard_normal((3, 3))
    assert np.array_equal(schur_product(np.ones((3, 3)), S), S)
    assert np.array_equal(schur_product(standard_truncation_mask(3, 3, 3), S), np.triu(S))


def test_doi_apply_abs_kernel_kills_antidiagonal():
    phi = abs_divided_difference([1.0, -1.0], [1.0, -1.0])
    S = np.array([[0.0, 1.0], [1.0, 0.0]])
    assert np.allclose(schur_product(phi, S), np.zeros((2, 2)))


def test_doi_apply_consistency_with_diagonal_calculus():
    # with U = V = I, the column-constant mask {f(lambda_j)} acts as
    # S f(A) and the row-constant mask {f(mu_k)} as f(B) S
    rng = np.random.default_rng(1)
    lam = rng.uniform(-1, 1, 3)
    mu = rng.uniform(-1, 1, 3)
    S = rng.standard_normal((3, 3))
    f = np.cos
    col_mask = np.tile(f(lam)[None, :], (3, 1))
    row_mask = np.tile(f(mu)[:, None], (1, 3))
    assert np.allclose(schur_product(col_mask, S), S @ np.diag(f(lam)), atol=1e-10)
    assert np.allclose(schur_product(row_mask, S), np.diag(f(mu)) @ S, atol=1e-10)


# -------------------------------------------------------------- commutators


def test_commutator_identity_function_is_neutral():
    a, b, S = random_pair(2)
    [rep] = commutator_transform(a, b, S, [lambda t: t], 2, 2)
    assert rep.lhs_norm == pytest.approx(rep.rhs_norm, rel=1e-12)
    assert rep.ratio == pytest.approx(1.0, rel=1e-10)
    assert rep.identity_residual <= 1e-10


def test_commutator_normal_equal_operators_abs():
    rng = np.random.default_rng(3)
    q, _ = np.linalg.qr(rng.standard_normal((3, 3)))
    a = DiagonalizableOperator.from_u(rng.uniform(-1, 1, 3), q)
    [rep] = commutator_transform(a, a, np.eye(3), [abs], 2, 2)
    assert rep.lhs_norm <= 1e-12


def test_commutator_identity_residual_2x2():
    a = DiagonalizableOperator.diagonal([1.0, -1.0])
    b = DiagonalizableOperator.diagonal([1.0, -1.0])
    rng = np.random.default_rng(4)
    S = rng.standard_normal((2, 2))
    [rep] = commutator_transform(a, b, S, [abs], 1, 2)
    assert rep.identity_residual <= 1e-10
    assert math.isfinite(rep.ratio)


def test_commutator_report_invariants():
    a, b, S = random_pair(5)
    [rep] = commutator_transform(a, b, S, [abs], 2, 2)
    assert rep.lhs_norm >= 0 and rep.rhs_norm >= 0
    assert rep.identity_residual >= 0
    if rep.rhs_norm >= 1e-10:
        assert rep.ratio * rep.rhs_norm == pytest.approx(rep.lhs_norm, rel=1e-9)
    assert rep.norms_meta["lhs"] == "exact"


@pytest.mark.parametrize("p,q", [(1.0, 2.0), (2.0, 2.0), (2.0, 4.0), (3.0, 1.5)])
def test_commutator_ratio_lower_divides_by_an_upper_bound(p, q):
    a, b, S = random_pair(6, n=5)
    cfg = SearchConfig(multistarts=4, seed=2)
    [rep] = commutator_transform(a, b, S, [abs], p, q, cfg)
    if rep.norms_meta["rhs"] == "exact":
        assert rep.ratio_lower == rep.ratio
    else:
        comm = assemble(b) @ S - S @ assemble(a)
        assert rep.ratio_lower == rep.lhs_norm / opnorm_upper(comm, p, q)
        assert rep.ratio_lower <= rep.ratio


def test_commutator_intertwining_flags_infinite_ratio():
    a = DiagonalizableOperator.diagonal([1.0, 2.0])
    b = DiagonalizableOperator.diagonal([1.0, 2.0])
    [rep] = commutator_transform(a, b, np.eye(2), [abs], 2, 2)
    assert rep.rhs_norm <= 1e-14
    assert rep.ratio == rep.ratio_lower == math.inf


@pytest.mark.parametrize("p,q", [(1.0, 2.0), (2.0, 2.0), (3.0, 1.5)])
def test_transform_of_several_functions_equals_one_function_transforms(p, q):
    a, b, S = random_pair(3, n=5)
    cfg = SearchConfig(multistarts=4, seed=9)
    fs = (abs, lambda t: t, lambda t: np.sin(t))
    reports = commutator_transform(a, b, S, fs, p, q, cfg)
    alone = [commutator_transform(a, b, S, [f], p, q, cfg)[0] for f in fs]
    assert reports == alone
    for f, rep, one in zip(fs, reports, alone):
        assert np.array_equal(rep.phi, one.phi)
        assert np.array_equal(rep.phi, divided_difference_matrix(f, a.lambdas, b.lambdas, 1.0))


@settings(deadline=None, max_examples=30)
@given(seed=st.integers(min_value=0, max_value=10_000))
def test_identity_residual_with_collisions(seed):
    rng = np.random.default_rng(seed)
    n = 4
    lam = rng.uniform(-1, 1, n)
    lam[:2] = lam[0]
    mu = rng.uniform(-1, 1, n)
    mu[0] = lam[0]
    u = np.eye(n) + 0.2 * rng.standard_normal((n, n))
    v = np.eye(n) + 0.2 * rng.standard_normal((n, n))
    a = DiagonalizableOperator(lam, u, np.linalg.inv(u))
    b = DiagonalizableOperator(mu, v, np.linalg.inv(v))
    S = rng.standard_normal((n, n))
    [rep] = commutator_transform(a, b, S, [abs], 2, 2)
    scale = 1.0 + np.abs(S).max()
    assert rep.identity_residual <= 1e-9 * scale


# ---------------------------------------------------------------- constants


def test_sobolev_weight_norm_matches_closed_form():
    # g(t) = 2/(e^|t|+1) is even, so each integral over the line is twice
    # that over [0, inf); beyond t = 40 the integrands are below 1e-34.
    # Composite Simpson with h = 1e-3 errs by far less than 1e-9 here.
    t = np.linspace(0.0, 40.0, 40_001)
    e = np.exp(-t)
    w = np.ones_like(t)
    w[1:-1:2], w[2:-1:2] = 4.0, 2.0
    g2 = 2.0 * (t[1] - t[0]) / 3.0 * (w @ (2.0 * e / (1.0 + e)) ** 2)
    dg2 = 2.0 * (t[1] - t[0]) / 3.0 * (w @ (2.0 * e / (1.0 + e) ** 2) ** 2)
    assert g2 == pytest.approx(8 * math.log(2) - 4, abs=1e-9)
    assert dg2 == pytest.approx(2.0 / 3.0, abs=1e-9)
    assert sobolev_weight_norm() == pytest.approx(math.sqrt(g2) + math.sqrt(dg2), abs=1e-9)


def test_abs_kernel_constant_value():
    expected = 2 + 32 * math.sqrt(2) * (math.sqrt(8 * math.log(2) - 4) + math.sqrt(2.0 / 3.0))
    assert abs_kernel_constant() == pytest.approx(expected, abs=1e-9)
    assert abs_kernel_constant() == pytest.approx(95.20451402378411, abs=1e-9)
