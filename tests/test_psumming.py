import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from doilab import psumming
from doilab.experiments import ExperimentConfig, run_psumming_check
from doilab.norms import INF
from doilab.psumming import (
    PSummingContext,
    lipschitz_commutator_check,
    pi_p_norm,
    psumming_definition_ratio,
    psumming_multiplier_norm,
    sampled_lipschitz_floor,
)
from doilab.schur import schur_product, standard_truncation_mask
from doilab.spectral import DiagonalizableOperator


def random_pair(seed, n=4, delta=0.2):
    rng = np.random.default_rng(seed)
    ops = []
    for _ in range(2):
        lam = rng.uniform(-1.0, 1.0, size=n)
        u = np.eye(n) + delta * rng.standard_normal((n, n))
        ops.append(DiagonalizableOperator(lam, u, np.linalg.inv(u)))
    S = rng.standard_normal((n, n))
    return ops[0], ops[1], S


# ------------------------------------------------------------------ context


def test_context_conjugate_invariant():
    for p in (1.5, 2.0, 3.0, 7.0):
        ctx = PSummingContext(p)
        assert 1.0 / ctx.p + 1.0 / ctx.pstar == pytest.approx(1.0, abs=1e-12)


@pytest.mark.parametrize("bad", [1.0, INF, 0.5])
def test_context_rejects_endpoint_exponents(bad):
    with pytest.raises(ValueError):
        PSummingContext(bad)


# -------------------------------------------------------------------- pi_p


def test_pi_p_norm_examples():
    ctx = PSummingContext(2.0)
    e11 = np.zeros((3, 3))
    e11[0, 0] = 1.0
    assert pi_p_norm(e11, PSummingContext(1.7)) == pytest.approx(1.0)
    assert pi_p_norm(np.ones((2, 2)), ctx) == pytest.approx(2.0)
    assert pi_p_norm(np.diag([3.0, 4.0]), ctx) == pytest.approx(5.0)


@settings(deadline=None, max_examples=30)
@given(
    seed=st.integers(min_value=0, max_value=10_000),
    p=st.sampled_from([1.5, 2.0, 3.0]),
    c=st.floats(min_value=-5.0, max_value=5.0),
)
def test_pi_p_is_a_norm(seed, p, c):
    rng = np.random.default_rng(seed)
    S, T = rng.standard_normal((3, 3)), rng.standard_normal((3, 3))
    ctx = PSummingContext(p)
    assert pi_p_norm(S + T, ctx) <= pi_p_norm(S, ctx) + pi_p_norm(T, ctx) + 1e-12
    assert pi_p_norm(c * S, ctx) == pytest.approx(abs(c) * pi_p_norm(S, ctx), rel=1e-12)


# -------------------------------------------------------- definition ratio


def test_definition_ratio_identity_with_basis():
    ctx = PSummingContext(2.0)
    res = psumming_definition_ratio(np.eye(2), ctx, [np.eye(2)[0], np.eye(2)[1]])
    assert res["lhs"] == pytest.approx(math.sqrt(2.0))
    assert res["weak_norm"] == pytest.approx(1.0)
    assert res["ratio"] == pytest.approx(math.sqrt(2.0))


@settings(deadline=None, max_examples=30)
@given(seed=st.integers(min_value=0, max_value=10_000), p=st.sampled_from([1.5, 2.0, 3.0]))
def test_definition_ratio_canonical_basis_realizes_pi_p(seed, p):
    rng = np.random.default_rng(seed)
    S = rng.standard_normal((3, 3))
    ctx = PSummingContext(p)
    basis = [row for row in np.eye(3)]
    res = psumming_definition_ratio(S, ctx, basis)
    assert res["lhs"] == pytest.approx(pi_p_norm(S, ctx), rel=1e-12)


def test_definition_ratio_zero_matrix_and_empty_collection():
    ctx = PSummingContext(2.0)
    res = psumming_definition_ratio(np.zeros((2, 2)), ctx, [np.eye(2)[0]])
    assert res["lhs"] == 0.0
    with pytest.raises(ValueError):
        psumming_definition_ratio(np.eye(2), ctx, [])


def test_definition_ratio_flags_zero_weak_norm():
    ctx = PSummingContext(2.0)
    res = psumming_definition_ratio(np.eye(2), ctx, [np.zeros(2)])
    assert res["zero_weak_norm"]


# ------------------------------------------------------------- multipliers


def test_psumming_multiplier_norm_examples():
    assert psumming_multiplier_norm(standard_truncation_mask(4, 4, 4)) == 1.0
    assert psumming_multiplier_norm(np.zeros((2, 2))) == 0.0
    m = np.zeros((2, 3))
    m[1, 2] = 7.0
    assert psumming_multiplier_norm(m) == 7.0


@settings(deadline=None, max_examples=30)
@given(seed=st.integers(min_value=0, max_value=10_000), p=st.sampled_from([1.5, 2.0, 3.0]))
def test_multiplier_inequality_exact(seed, p):
    rng = np.random.default_rng(seed)
    M, S = rng.standard_normal((3, 3)), rng.standard_normal((3, 3))
    ctx = PSummingContext(p)
    lhs = pi_p_norm(schur_product(M, S), ctx)
    assert lhs <= psumming_multiplier_norm(M) * pi_p_norm(S, ctx) + 1e-12
    # equality for constant multipliers
    C = np.full((3, 3), 2.5)
    assert pi_p_norm(schur_product(C, S), ctx) == pytest.approx(2.5 * pi_p_norm(S, ctx))


# --------------------------------------------------------------- theorem 7.3


def test_check_identity_function_trivial_instance():
    a = DiagonalizableOperator.diagonal([1.0, -0.5])
    b = DiagonalizableOperator.diagonal([0.3, 0.7])
    S = np.array([[1.0, 2.0], [3.0, 4.0]])
    [res] = lipschitz_commutator_check(a, b, S, [lambda t: t], 1.0, PSummingContext(2.0))
    assert res["lhs"] == pytest.approx(res["rhs"], rel=1e-12)
    assert res["K_A"] == pytest.approx(1.0, abs=1e-9)
    assert res["K_B"] == pytest.approx(1.0, abs=1e-9)
    assert res["satisfied"]


def test_check_abs_antidiagonal_example():
    a = DiagonalizableOperator.diagonal([1.0, -1.0])
    b = DiagonalizableOperator.diagonal([1.0, -1.0])
    S = np.array([[0.0, 1.0], [1.0, 0.0]])
    [res] = lipschitz_commutator_check(a, b, S, [abs], 1.0, PSummingContext(2.0))
    assert res["lhs"] == pytest.approx(0.0, abs=1e-12)
    assert res["rhs"] == pytest.approx(2.0 * math.sqrt(2.0))
    assert res["satisfied"]


def loop_lipschitz_floor(f, a, b):
    pts = np.concatenate([a.lambdas, b.lambdas])
    vals = [complex(f(x)) for x in pts]
    floor = 0.0
    for i in range(pts.size):
        for j in range(pts.size):
            if pts[i] != pts[j]:
                floor = max(floor, abs((vals[i] - vals[j]) / (pts[i] - pts[j])))
    return floor


@pytest.mark.parametrize("seed", range(6))
@pytest.mark.parametrize("f", [abs, lambda t: t * t, lambda t: np.sin(3.0 * t)], ids=["abs", "square", "sin"])
def test_sampled_floor_matches_pairwise_loop(seed, f):
    a, b, _ = random_pair(seed, n=5)
    if seed % 2:  # repeated eigenvalues, within A and shared with B
        a.lambdas[:3] = a.lambdas[0]
        b.lambdas[1] = a.lambdas[0]
    assert sampled_lipschitz_floor(f, a, b) == pytest.approx(loop_lipschitz_floor(f, a, b), rel=1e-12)


def test_check_rejects_lip_below_sampled_floor():
    a = DiagonalizableOperator.diagonal([0.0, 2.0])
    b = DiagonalizableOperator.diagonal([1.0, 3.0])
    floor = sampled_lipschitz_floor(lambda t: 5.0 * t, a, b)
    assert floor == pytest.approx(5.0)
    with pytest.raises(ValueError):
        lipschitz_commutator_check(
            a, b, np.eye(2), [abs, lambda t: 5.0 * t], 1.0, PSummingContext(2.0)
        )


@settings(deadline=None, max_examples=20)
@given(seed=st.integers(min_value=0, max_value=10_000), p=st.sampled_from([1.5, 2.0, 3.0]))
def test_check_random_instances_satisfied(seed, p):
    a, b, S = random_pair(seed)
    ctx = PSummingContext(p)
    for res in lipschitz_commutator_check(a, b, S, (abs, lambda t: t), 1.0, ctx):
        assert res["satisfied"]


@pytest.mark.parametrize("p", [1.5, 2.0, 3.0])
def test_check_of_several_functions_equals_one_function_checks(p):
    a, b, S = random_pair(3, n=5)
    ctx = PSummingContext(p)
    fs = (abs, lambda t: t, lambda t: np.sin(t))
    results = lipschitz_commutator_check(a, b, S, fs, 1.0, ctx)
    assert results == [lipschitz_commutator_check(a, b, S, [f], 1.0, ctx)[0] for f in fs]


def test_psumming_check_computes_each_k_once_per_instance(monkeypatch):
    calls = []
    k = psumming.diagonalizability_constant

    def counted(*args, **kwargs):
        calls.append(args[1])
        return k(*args, **kwargs)

    monkeypatch.setattr(psumming, "diagonalizability_constant", counted)
    cfg = ExperimentConfig(seed=5, dims=[2, 3], pq_pairs=[(1.5, 1.5), (3.0, 3.0)], trials=2)
    rows = run_psumming_check(cfg)
    instances = {(r.p, r.n, r.trial) for r in rows if r.metric == "satisfied_abs"}
    assert len(instances) == 2 * 2 * 2  # every instance sampled, none rejected
    assert len(calls) == 2 * len(instances)
