"""End-to-end acceptance checks, one test per criterion. Each test prints a
single PASS line on success (pytest reports FAIL otherwise)."""

import collections
import math
import time

import numpy as np
import pytest

from doilab import cli
from doilab.experiments import (
    ExperimentConfig,
    run_commutator_ratios,
    run_doi_identity,
    run_psumming_check,
    run_truncation_growth,
)
from doilab.norms import (
    EXACT,
    INF,
    SearchConfig,
    opnorm,
    opnorm_bruteforce,
    power_iteration_pq,
)
from doilab.psumming import PSummingContext, pi_p_norm, psumming_definition_ratio
from doilab.schur import canonicalize_mask, multiplier_norm, repeat_first_column
from doilab.spectral import (
    DiagonalizableOperator,
    diagonalizability_constant,
    spectral_constant,
)


def report(criterion, detail):
    print(f"\nACCEPTANCE {criterion}: PASS  ({detail})")


def test_criterion_1_doi_identity_suite():
    # 500 random instances over n in {2,4,8,16} with >=100 engineered
    # eigenvalue collisions, residual <= 1e-9 * scale, under 10 s
    t0 = time.time()
    cfg = ExperimentConfig(seed=20260801, dims=[2, 4, 8, 16], pq_pairs=[(2.0, 2.0)], trials=125)
    rows = run_doi_identity(cfg)  # raises ViolationError on any bad residual
    elapsed = time.time() - t0
    assert len(rows) == 500
    collisions = sum(1 for r in rows if r.trial % 3 == 1)
    assert collisions >= 100
    assert elapsed < 10.0
    report(1, f"500 instances, {collisions} collisions, max residual "
              f"{max(r.value for r in rows):.3g}, {elapsed:.2f}s")


def test_criterion_2_opnorm_oracle_agreement():
    # 200 random real matrices with n <= 4, under 30 s
    t0 = time.time()
    rng = np.random.default_rng(77)
    cfg = SearchConfig(multistarts=8)
    for _ in range(200):
        m, n = rng.integers(1, 5, size=2)
        S = rng.standard_normal((m, n))
        # exact branch vs exact sign enumeration
        exact = opnorm(S, INF, INF, cfg)
        brute = opnorm_bruteforce(S, INF, INF)
        assert exact.certainty == EXACT and brute.certainty == EXACT
        assert exact.value == pytest.approx(brute.value, rel=1e-6)
        # heuristic branch vs sign enumeration: the real-field value is a
        # lower bound for the complex-field norm the search explores
        heur = opnorm(S, INF, 1, cfg)
        brute = opnorm_bruteforce(S, INF, 1)
        assert heur.value >= brute.value - 1e-4
        # heuristic and exact branches vs grid lower bounds
        grid = opnorm_bruteforce(S, 2, 2, resolution=24)
        assert opnorm(S, 2, 2).value >= grid.value - 1e-9
        grid = opnorm_bruteforce(S, 3, 1.5, resolution=24)
        assert opnorm(S, 3, 1.5, cfg).value >= grid.value - 1e-4
        # heuristic power iteration never exceeds the exact (2,2) value
        val, _, _ = power_iteration_pq(S, 2, 2, np.ones(n))
        assert val <= opnorm(S, 2, 2).value * (1 + 1e-9)
    elapsed = time.time() - t0
    assert elapsed < 30.0
    report(2, f"200 matrices, exact/brute/grid agreement, {elapsed:.2f}s")


def test_criterion_3_psumming_exactness():
    # pi_2 equals the Hilbert-Schmidt (Frobenius/SVD) value to 1e-10 on 100
    # matrices; the canonical-basis construction reproduces pi_p to 1e-9
    rng = np.random.default_rng(101)
    ctx2 = PSummingContext(2.0)
    for _ in range(100):
        m, n = rng.integers(1, 7, size=2)
        S = rng.standard_normal((m, n)) + 1j * rng.standard_normal((m, n))
        hs = math.sqrt(float(np.sum(np.linalg.svd(S, compute_uv=False) ** 2)))
        assert pi_p_norm(S, ctx2) == pytest.approx(hs, abs=1e-10, rel=1e-10)
    for p in (1.5, 2.0, 3.0):
        ctx = PSummingContext(p)
        for _ in range(20):
            S = rng.standard_normal((4, 4))
            basis = [row for row in np.eye(4)]
            res = psumming_definition_ratio(S, ctx, basis)
            assert res["lhs"] == pytest.approx(pi_p_norm(S, ctx), abs=1e-9, rel=1e-9)
    report(3, "pi_2 = Hilbert-Schmidt on 100 matrices, basis construction exact")


def test_criterion_4_lipschitz_commutator_theorem():
    # 500 instances, p in {1.5, 2, 3}, n <= 16, f = abs and identity,
    # all satisfied, under 60 s (run_psumming_check raises on violation)
    t0 = time.time()
    cfg = ExperimentConfig(
        seed=20260802, dims=[4, 8, 16],
        pq_pairs=[(1.5, 1.5), (2.0, 2.0), (3.0, 3.0)], trials=28,
    )
    rows = run_psumming_check(cfg)
    elapsed = time.time() - t0
    sat = [r for r in rows if r.metric.startswith("satisfied")]
    assert len(sat) >= 500
    assert all(r.value == 1.0 for r in sat)
    assert not any(r.metric == "rejection_exhausted" for r in rows)
    assert elapsed < 60.0
    report(4, f"{len(sat)} instances all satisfied, {elapsed:.2f}s")


def test_criterion_5_truncation_dichotomy():
    # dims 2..128 dyadic: (2,2) fitted ln-slope >= 0.1; bounded pairs have
    # range <= 25% of max; under 10 min
    t0 = time.time()
    dims = [2, 4, 8, 16, 32, 64, 128]
    pairs = [(2.0, 2.0), (1.0, 1.0), (1.0, 2.0), (2.0, 4.0), (INF, INF)]
    cfg = ExperimentConfig(seed=20260803, dims=dims, pq_pairs=pairs, trials=1)
    rows = run_truncation_growth(cfg)
    elapsed = time.time() - t0
    slopes = {(r.p, r.q): r.value for r in rows if r.metric == "fit_slope"}
    assert slopes[(2.0, 2.0)] >= 0.1
    values = collections.defaultdict(list)
    for r in rows:
        if r.metric == "multiplier_norm":
            values[(r.p, r.q)].append(r.value)
    for pair in [(1.0, 1.0), (1.0, 2.0), (2.0, 4.0), (INF, INF)]:
        vals = values[pair]
        assert (max(vals) - min(vals)) <= 0.25 * max(vals)
    assert elapsed < 600.0
    report(5, f"(2,2) slope {slopes[(2.0, 2.0)]:.3f} >= 0.1, bounded pairs "
              f"flat within 25%, {elapsed:.1f}s")


def test_criterion_6_commutator_dichotomy():
    # exact pairs: per-n maxima of the normalized ratio over 200 trials are
    # trend-free (range <= 50% of max); (2,2) adversarial ratio grows >= 1.5x
    cfg = ExperimentConfig(
        seed=20260804, dims=[4, 8, 16, 32],
        pq_pairs=[(1.0, 2.0), (1.0, INF), (1.0, 1.0)], trials=200,
    )
    rows = run_commutator_ratios(cfg)
    assert not any(r.metric == "rejection_exhausted" for r in rows)
    maxes = collections.defaultdict(dict)
    for r in rows:
        if r.metric == "normalized_ratio":
            key = (r.p, r.q)
            maxes[key][r.n] = max(maxes[key].get(r.n, 0.0), r.value)
    spreads = {}
    for key, per_n in maxes.items():
        vals = [per_n[n] for n in sorted(per_n)]
        spreads[key] = (max(vals) - min(vals)) / max(vals)
        assert spreads[key] <= 0.5
    adv_cfg = ExperimentConfig(seed=20260804, dims=[4, 64], pq_pairs=[(2.0, 2.0)], trials=1)
    adv = {
        r.n: r.value
        for r in run_commutator_ratios(adv_cfg)
        if r.metric == "adversarial_normalized_ratio"
    }
    growth = adv[64] / adv[4]
    assert growth >= 1.5
    report(6, f"spreads {[round(v, 3) for v in spreads.values()]} <= 0.5, "
              f"adversarial growth {growth:.3f}x >= 1.5x")


def test_criterion_7_schur_exact_cases():
    # 100 random masks: exact branches equal max modulus and are invariant
    # under column repetition; 1000 canonicalizations reconstruct exactly
    rng = np.random.default_rng(303)
    for _ in range(100):
        m, n = rng.integers(1, 7, size=2)
        M = rng.standard_normal((m, n))
        q = rng.choice([1.0, 2.0, 4.0, INF])
        p = rng.choice([1.0, 1.5, 2.0, INF])
        top = float(np.abs(M).max())
        assert multiplier_norm(M, 1.0, q).value == top
        assert multiplier_norm(M, p, INF).value == top
        assert multiplier_norm(repeat_first_column(M), 1.0, q).value == top
    for _ in range(1000):
        k = int(rng.integers(1, 8))
        lam = rng.integers(-3, 4, size=k).astype(float)  # ties/duplicates likely
        mu = rng.integers(-3, 4, size=k).astype(float)
        d = canonicalize_mask(lam, mu)
        mask = (mu[:, None] <= lam[None, :]).astype(float)
        assert np.array_equal(d.reconstruct(k, k), mask)
    report(7, "100 masks exact, column repetition invariant, 1000 reconstructions exact")


def test_criterion_8_constants_chain():
    # nu-hat <= K-hat + 1e-9 on 200 random operators; normal/unitary
    # instances give both constants = 1 within 1e-9
    rng = np.random.default_rng(404)
    cfg = SearchConfig(multistarts=6)
    for i in range(200):
        n = int(rng.integers(2, 7))
        lam = rng.uniform(-1.0, 1.0, size=n)
        if i % 10 == 0:
            lam[: n // 2] = lam[0]  # repeated eigenvalues too
        u = np.eye(n) + 0.3 * (rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)))
        op = DiagonalizableOperator(lam, u, np.linalg.inv(u))
        p = rng.choice([1.0, 1.5, 2.0, 3.0, INF])
        nu = spectral_constant(op, p, cfg).value
        k = diagonalizability_constant(op, p).value
        assert nu <= k + 1e-9
    for seed in range(10):
        g = np.random.default_rng(seed).standard_normal((5, 5))
        qmat, _ = np.linalg.qr(g)
        op = DiagonalizableOperator.from_u(np.arange(5.0), qmat)
        assert spectral_constant(op, 2.0, cfg).value == pytest.approx(1.0, abs=1e-9)
        assert diagonalizability_constant(op, 2.0).value == pytest.approx(1.0, abs=1e-9)
    report(8, "nu-hat <= K-hat on 200 operators, normal instances give 1")


def test_criterion_9_cli_determinism(tmp_path):
    # `doilab all` twice with the same config yields byte-identical CSV
    config = {
        "seed": 424242,
        "dims": [2, 4],
        "pq_pairs": [[1, 2], [2, 2]],
        "trials": 3,
        "output_path": str(tmp_path / "default.csv"),
    }
    cfg_path = tmp_path / "cfg.json"
    import json

    cfg_path.write_text(json.dumps(config))
    out1, out2 = tmp_path / "run1.csv", tmp_path / "run2.csv"
    assert cli.main(["all", "--config", str(cfg_path), "--out", str(out1)]) == 0
    assert cli.main(["all", "--config", str(cfg_path), "--out", str(out2)]) == 0
    b1, b2 = out1.read_bytes(), out2.read_bytes()
    assert b1 == b2 and len(b1) > 0
    report(9, f"`doilab all` byte-identical across runs ({len(b1)} bytes)")
