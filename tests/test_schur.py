import functools
import math
import warnings
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from affinity import set_cpus
from doilab import schur
from doilab.experiments import ExperimentConfig, config_from_dict, run_truncation_growth
from doilab.norms import EXACT, INF, LOWER_BOUND, SearchConfig, opnorm_upper, opnorms
from doilab.schur import (
    StaircaseDescriptor,
    abs_divided_difference,
    canonicalize_mask,
    divided_difference_matrix,
    hilbert_type_witness,
    multiplier_norm,
    multiplier_norms,
    repeat_first_column,
    schur_product,
    standard_truncation_mask,
)

SEQ = st.lists(
    st.integers(min_value=-3, max_value=3).map(float), min_size=1, max_size=6
)


# ------------------------------------------------------------ schur product


def test_schur_product_examples():
    S = np.array([[5.0, 6.0], [7.0, 8.0]])
    assert np.array_equal(schur_product(np.ones((2, 2)), S), S)
    assert np.array_equal(schur_product(np.zeros((2, 2)), S), np.zeros((2, 2)))
    assert np.array_equal(schur_product(np.eye(2), S), np.diag([5.0, 8.0]))


def test_schur_product_shape_mismatch():
    with pytest.raises(ValueError):
        schur_product(np.ones((2, 2)), np.ones((2, 3)))


@settings(deadline=None, max_examples=25)
@given(seed=st.integers(min_value=0, max_value=10_000))
def test_schur_product_associative(seed):
    rng = np.random.default_rng(seed)
    m1, m2, s = (rng.standard_normal((3, 3)) for _ in range(3))
    lhs = schur_product(m1, schur_product(m2, s))
    rhs = schur_product(schur_product(m1, m2), s)
    assert np.allclose(lhs, rhs, rtol=1e-12, atol=1e-15)


# ------------------------------------------------------- divided differences


def test_divided_difference_abs_values():
    # Phi[k, j] = phi(lambda_j, mu_k)
    phi = abs_divided_difference([1.0], [-1.0])
    assert phi[0, 0] == pytest.approx(0.0)
    phi = abs_divided_difference([-2.0], [-1.0])
    assert phi[0, 0] == pytest.approx(-1.0)


def test_divided_difference_diagonal_rules():
    assert abs_divided_difference([2.0], [2.0])[0, 0] == pytest.approx(1.0)
    phi = divided_difference_matrix(abs, [2.0], [2.0], diagonal=0.0)
    assert phi[0, 0] == pytest.approx(0.0)


def test_divided_difference_index_convention():
    lam, mu = [0.0, 2.0], [1.0, 3.0]
    phi = divided_difference_matrix(lambda t: t * t, lam, mu, diagonal=0.0)
    # phi_f(lambda, mu) = lambda + mu for f(t) = t^2
    for k in range(2):
        for j in range(2):
            assert phi[k, j] == pytest.approx(lam[j] + mu[k])


# ---------------------------------------------------------------- truncation


def truncate(S, n):
    return standard_truncation_mask(*S.shape, n) * S


def test_standard_truncation_examples():
    S = np.array([[1.0, 2.0], [3.0, 4.0]])
    assert np.array_equal(truncate(S, 2), [[1.0, 2.0], [0.0, 4.0]])
    assert np.array_equal(truncate(S, 1), [[1.0, 0.0], [0.0, 0.0]])
    upper = np.triu(np.arange(1.0, 10.0).reshape(3, 3))
    assert np.array_equal(truncate(upper, 3), upper)


def test_standard_truncation_idempotent():
    rng = np.random.default_rng(0)
    S = rng.standard_normal((5, 5))
    T = truncate(S, 4)
    assert np.array_equal(truncate(T, 4), T)


# ----------------------------------------------------------- canonicalization


def test_canonicalize_identity_staircase():
    d = canonicalize_mask([3.0, 2.0, 1.0], [3.0, 2.0, 1.0])
    assert d.N == 3
    assert d.row_map == [3, 2, 1]
    assert d.col_map == [3, 2, 1]
    expected = (np.array([3.0, 2.0, 1.0])[:, None] <= np.array([3.0, 2.0, 1.0])[None, :])
    assert np.array_equal(d.reconstruct(3, 3), expected.astype(float))


def test_canonicalize_all_ones_dedups():
    d = canonicalize_mask([1.0, 1.0], [1.0, 1.0])
    assert d.N == 1
    assert np.array_equal(d.reconstruct(2, 2), np.ones((2, 2)))


def test_canonicalize_with_zero_row():
    lam, mu = [2.0, 1.0], [3.0, 0.0]
    d = canonicalize_mask(lam, mu)
    assert d.N == 2
    mask = (np.array(mu)[:, None] <= np.array(lam)[None, :]).astype(float)
    assert np.array_equal(d.reconstruct(2, 2), mask)


def test_reconstruct_unmapped_entries_and_size():
    d = StaircaseDescriptor(2, [1, 2], [2, None, 1])
    assert np.array_equal(d.reconstruct(2, 3), [[1.0, 0.0, 1.0], [1.0, 0.0, 0.0]])
    assert np.array_equal(d.reconstruct(1, 2), [[1.0, 0.0]])
    with pytest.raises(ValueError):
        d.reconstruct(3, 3)


def _canonicalize_by_patterns(lambdas, mus):
    """canonicalize_mask by merging equal row patterns, before it ranked
    the rows by their counts of ones: (N, row_map, col_map)."""
    lambdas = np.asarray(lambdas, dtype=float).ravel()
    mus = np.asarray(mus, dtype=float).ravel()
    mask = mus[:, None] <= lambdas[None, :]
    n_rows, n_cols = mask.shape
    patterns = {}
    for k in range(n_rows):
        if mask[k].any():
            patterns.setdefault(mask[k].tobytes(), int(mask[k].sum()))
    ordered = sorted(patterns, key=lambda key: -patterns[key])
    rank_of = {key: r + 1 for r, key in enumerate(ordered)}
    R = len(ordered)
    N = R + 1 if any(not mask[k].any() for k in range(n_rows)) else max(R, 1)
    row_map = [rank_of[mask[k].tobytes()] if mask[k].any() else N for k in range(n_rows)]
    pattern_rows = [np.frombuffer(key, dtype=bool) for key in ordered]
    col_map = []
    for j in range(n_cols):
        covering = [r + 1 for r, row in enumerate(pattern_rows) if row[j]]
        col_map.append(max(covering) if covering else None)
    return N, row_map, col_map


@settings(deadline=None, max_examples=200)
@given(lam=SEQ, mu=SEQ)
def test_canonicalize_reconstruction_invariant(lam, mu):
    # integer-valued sequences force plenty of ties and duplicates
    d = canonicalize_mask(lam, mu)
    mask = (np.asarray(mu)[:, None] <= np.asarray(lam)[None, :]).astype(float)
    assert d.N <= max(len(lam), len(mu))
    assert np.array_equal(d.reconstruct(len(mu), len(lam)), mask)
    got = (d.N, d.row_map, d.col_map)
    ref = _canonicalize_by_patterns(lam, mu)
    assert got == ref
    assert [type(x) for x in (got[0], *got[1], *got[2])] == [type(x) for x in (ref[0], *ref[1], *ref[2])]


# ------------------------------------------------------- column repetition


def test_repeat_first_column_examples():
    assert np.array_equal(repeat_first_column([[1.0, 2.0]]), [[1.0, 1.0, 2.0]])
    assert np.array_equal(repeat_first_column([[3.0], [4.0]]), [[3.0, 3.0], [4.0, 4.0]])
    assert np.array_equal(
        repeat_first_column([[1.0, 2.0], [3.0, 4.0]]), [[1.0, 1.0, 2.0], [3.0, 3.0, 4.0]]
    )


# ---------------------------------------------------------- multiplier norm


def test_multiplier_norm_all_ones_identity_multiplier():
    est = multiplier_norm(np.ones((3, 3)), 2, 2, SearchConfig(multistarts=6))
    assert est.value == pytest.approx(1.0)


def test_multiplier_norm_exact_branches_are_max_entry():
    rng = np.random.default_rng(4)
    M = rng.uniform(0.0, 1.0, size=(4, 4))
    for p, q in [(1.0, 2.0), (1.0, INF), (2.0, INF), (3.0, INF)]:
        est = multiplier_norm(M, p, q)
        assert est.certainty == EXACT
        assert est.value == np.abs(M).max()


def test_multiplier_norm_rejects_non_finite_masks():
    for bad in (np.inf, -np.inf, np.nan):
        for p, q in [(1.0, 2.0), (2.0, INF), (2.0, 2.0), (3.0, 1.5)]:
            with pytest.raises(ValueError, match="finite"):
                multiplier_norm([[bad, 1.0]], p, q)


@settings(deadline=None, max_examples=20)
@given(seed=st.integers(min_value=0, max_value=10_000))
def test_multiplier_norm_max_entry_floor(seed):
    rng = np.random.default_rng(seed)
    M = rng.standard_normal((3, 3))
    est = multiplier_norm(M, 2, 2, SearchConfig(multistarts=4))
    assert est.value >= np.abs(M).max() - 1e-12


def _pm1_mask(n):
    """A +-1 mask on which the witnesses beat the floor 1 off (2,2)."""
    j = np.arange(n)
    return np.sign(np.sin(1.3 * j[:, None] + 0.7 * j[None, :]))


@pytest.mark.parametrize("p, q, n, value", [
    (2.0, 4.0, 8, "0x1.5a98e3e11603ap+0"),
    (2.0, 4.0, 32, "0x1.312cc1b50571ap+0"),
    (3.0, 1.5, 8, "0x1.127b48a23b095p+1"),
    (3.0, 1.5, 32, "0x1.4583c699852cbp+1"),
])
def test_multiplier_norm_pinned_values(p, q, n, value):
    # reruns must be byte-identical, so a change to the norm search must
    # reproduce these
    est = multiplier_norm(_pm1_mask(n), p, q, SearchConfig(multistarts=8, max_iter=300, seed=11))
    assert est.value == float.fromhex(value)


# -------------------------------- truncation rows off (2,2), benchmark config

TRUNCATION_DIMS = [2, 4, 8, 16, 32, 64, 128]
STRONG_SEARCH = SearchConfig(multistarts=64, max_iter=2000, seed=7)


def _truncation_config(seed):
    """The truncation benchmark's config (2 restarts) at (2,4) and (3,1.5)."""
    return config_from_dict({
        "seed": seed, "dims": TRUNCATION_DIMS, "pq_pairs": [[2, 4], [3, 1.5]],
        "trials": 1, "search": {"restarts": 2},
    })


@functools.lru_cache(maxsize=None)
def _truncation_rows(seed):
    """{(p, q, n): multiplier_norm row}."""
    rows = run_truncation_growth(_truncation_config(seed))
    return {(r.p, r.q, r.n): r for r in rows if r.metric == "multiplier_norm"}


def test_truncation_rows_off_22_are_seed_free_and_monotone():
    # the norm on the n x n staircase is nondecreasing in n (the smaller
    # staircase is a corner of the larger); no witness is random, and at 2
    # restarts neither is any power-iteration start
    values = {seed: {k: r.value for k, r in _truncation_rows(seed).items()} for seed in (20260803, 2777693619)}
    assert values[20260803] == values[2777693619]
    rows = [values[20260803][3.0, 1.5, n] for n in TRUNCATION_DIMS]
    assert all(b >= a for a, b in zip(rows, rows[1:]))


def test_truncation_witness_beats_the_floor_under_a_strong_search():
    # a ratio of two 2-start lower bounds can overestimate: the reported
    # witness must still beat the floor 1 when both norms are re-estimated
    seed, n = 20260803, 4
    row = _truncation_rows(seed)[2.0, 4.0, n]
    M = standard_truncation_mask(n, n, n)
    est = multiplier_norm(M, 2, 4, replace(_truncation_config(seed).search, seed=row.seed_used))
    assert est.value == row.value
    S = est.witness.reshape(M.shape)
    den, num = opnorms([S, M * S], 2, 4, STRONG_SEARCH)
    assert num.value / den.value >= 1.0


def test_multiplier_norm_column_repetition_invariance_exact_branch():
    rng = np.random.default_rng(5)
    M = rng.standard_normal((3, 3))
    assert multiplier_norm(repeat_first_column(M), 1, 2).value == multiplier_norm(M, 1, 2).value


def test_sequence_mask_dominated_by_staircase_on_exact_branch():
    rng = np.random.default_rng(6)
    lam = rng.integers(-2, 3, size=5).astype(float)
    mu = rng.integers(-2, 3, size=5).astype(float)
    mask = (mu[:, None] <= lam[None, :]).astype(float)
    d = canonicalize_mask(lam, mu)
    staircase = standard_truncation_mask(d.N, d.N, d.N)
    assert multiplier_norm(mask, 1, 2).value <= multiplier_norm(staircase, 1, 2).value + 1e-9


def test_truncation_mask_22_growth_lower_bounds():
    cfg = SearchConfig(multistarts=4)
    vals = [
        multiplier_norm(standard_truncation_mask(n, n, n), 2, 2, cfg).value
        for n in (8, 32, 128)
    ]
    assert vals[0] < vals[1] < vals[2]


# ------------------------------------------ (2,2) S_1 alternation and bracket


def _svd_norm(S) -> float:
    return float(np.linalg.svd(S, compute_uv=False)[0])


def _witness_ratio(M, est) -> float:
    """sigma_max(M o S) / sigma_max(S) for the witness S of `est`."""
    S = est.witness.reshape(np.shape(M))
    return _svd_norm(M * S) / _svd_norm(S)


def _complex_masks():
    rng = np.random.default_rng(8)
    for shape in [(1, 5), (5, 1), (3, 7), (9, 4), (12, 12)]:
        yield rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


def test_s1_alternation_two_by_two_staircase_is_exact():
    # ||T_2||_{2->2} = 2/sqrt(3)
    est = multiplier_norm(standard_truncation_mask(2, 2, 2), 2, 2)
    assert abs(est.value - 2.0 / math.sqrt(3.0)) <= 1e-10
    assert (est.certainty, est.method) == (LOWER_BOUND, "s1_alternation")


def test_s1_alternation_value_reevaluates_from_witness_and_beats_floors():
    masks = [standard_truncation_mask(n, n, n) for n in (2, 3, 8, 16, 64)]
    masks += [np.ones((3, 3)), np.eye(4), *_complex_masks()]
    for M in masks:
        est = multiplier_norm(M, 2, 2)
        assert est.value == pytest.approx(_witness_ratio(M, est), rel=1e-12)
        assert est.value >= np.abs(M).max()
        H = hilbert_type_witness(*M.shape)
        if H.any():
            assert est.value >= _svd_norm(M * H) / _svd_norm(H) - 1e-12


@pytest.mark.parametrize("p, q", [(2.0, 4.0), (3.0, 1.5)])
def test_multiplier_norm_value_reevaluates_from_witness_off_22(p, q):
    # a lower bound on ||M o S|| over an upper bound on ||S||
    cfg = SearchConfig(multistarts=2, max_iter=300, seed=3)
    for M in [standard_truncation_mask(8, 8, 8), *_complex_masks()]:
        est = multiplier_norm(M, p, q, cfg)
        S = est.witness.reshape(M.shape)
        [num] = opnorms([M * S], p, q, cfg)
        assert est.value == pytest.approx(num.value / opnorm_upper(S, p, q), rel=1e-12)
        assert est.value >= np.abs(M).max()


def test_s1_alternation_iterates_are_monotone(monkeypatch):
    # every value sum(s) of an iterate's SVD, in order
    values = []
    svd = np.linalg.svd

    def recording_svd(a, *args, **kwargs):
        out = svd(a, *args, **kwargs)
        if kwargs.get("full_matrices") is False:
            values.append(float(out[1].sum()))
        return out

    monkeypatch.setattr(np.linalg, "svd", recording_svd)
    for M in [standard_truncation_mask(32, 32, 32), *_complex_masks()]:
        values.clear()
        multiplier_norm(M, 2, 2, SearchConfig(max_iter=60))
        assert len(values) >= 2
        assert all(b >= a * (1.0 - 1e-12) for a, b in zip(values, values[1:]))


def test_s1_alternation_complex_non_square_masks():
    for M in _complex_masks():
        for p, q in [(2.0, 2.0), (2.0, 4.0), (3.0, 1.5)]:
            est = multiplier_norm(M, p, q)
            assert (est.certainty, est.method) == (LOWER_BOUND, "s1_alternation")
            assert est.witness.size == M.size
    # unimodular diagonal scalings D_a T D_b leave the norm unchanged
    rng = np.random.default_rng(9)
    T = standard_truncation_mask(4, 7, 4)
    a, b = np.exp(2j * np.pi * rng.random(4)), np.exp(2j * np.pi * rng.random(7))
    value = multiplier_norm(T, 2, 2).value
    assert multiplier_norm(a[:, None] * T * b, 2, 2).value == pytest.approx(value, rel=1e-9)


def test_s1_alternation_zero_and_extreme_masks_without_warnings():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for shape in [(1, 1), (3, 3), (2, 5)]:
            est = multiplier_norm(np.zeros(shape), 2, 2)
            assert est.value == 0.0 and est.certainty == LOWER_BOUND
            assert est.upper == 0.0
        # the norm is homogeneous, at scales where u^T M v under- or overflows
        T = standard_truncation_mask(8, 8, 8)
        est = multiplier_norm(T, 2, 2)
        for c in (1e-300, 1e300):
            scaled = multiplier_norm(c * T, 2, 2)
            assert scaled.value / c == pytest.approx(est.value, rel=1e-12)
            assert scaled.upper / c == pytest.approx(est.upper, rel=1e-12)


def test_truncation_22_slope_is_seed_free():
    dims = [2, 4, 8, 16, 32, 64, 128]
    slopes = []
    for seed in (1, 2):
        rows = run_truncation_growth(ExperimentConfig(seed=seed, dims=dims, pq_pairs=[(2.0, 2.0)], trials=1))
        [slope] = [r.value for r in rows if r.metric == "fit_slope"]
        slopes.append(slope)
    assert slopes[0] >= 0.25
    assert slopes[0] == slopes[1]


def _svd_split_upper(M) -> float:
    """Haagerup bound of the split M = (U s^(1/2)) (s^(1/2) Vh): the rows
    of U s^(1/2) and the columns of s^(1/2) Vh factor M, so their largest
    norms bound the (2,2) multiplier norm. This is the bound of the first
    S_1 iterate."""
    U, s, Vh = np.linalg.svd(np.asarray(M), full_matrices=False)
    x = np.sqrt((np.abs(U) ** 2 * s).sum(axis=1).max())
    y = np.sqrt((np.abs(Vh) ** 2 * s[:, None]).sum(axis=0).max())
    return float(x * y)


def _upper_masks():
    yield from (standard_truncation_mask(n, n, n) for n in (1, *TRUNCATION_DIMS))
    yield from _complex_masks()
    yield from (np.diag(d) for d in ([3.0, 1.0, 0.0, 2.5], [2.0, 2.0, 1.0], [0.5]))
    yield from (np.ones(shape) for shape in [(4, 4), (2, 5)])
    yield from (np.zeros(shape) for shape in [(1, 1), (3, 4)])


def test_multiplier_norm_upper_brackets_the_lower_bound():
    for M in _upper_masks():
        est = multiplier_norm(M, 2, 2)
        assert est.upper >= est.value * (1.0 - 1e-12)
    # the alternation converges on the staircases, and its bound with it
    for n in TRUNCATION_DIMS:
        est = multiplier_norm(standard_truncation_mask(n, n, n), 2, 2)
        assert est.upper / est.value - 1.0 <= 1e-4


def test_multiplier_norm_upper_never_exceeds_the_svd_split():
    for M in _upper_masks():
        assert multiplier_norm(M, 2, 2).upper <= _svd_split_upper(M) * (1.0 + 1e-12)


def test_multiplier_norm_upper_closed_forms():
    assert multiplier_norm(np.ones((4, 4)), 2, 2).upper == pytest.approx(1.0, rel=1e-12)
    assert multiplier_norm(np.ones((2, 5)), 2, 2).upper == pytest.approx(1.0, rel=1e-12)
    for d in ([3.0, 1.0, 0.0, 2.5], [2.0, 2.0, 1.0], [0.5]):
        assert multiplier_norm(np.diag(d), 2, 2).upper == pytest.approx(max(d), rel=1e-12)


def test_multiplier_norm_upper_is_rounded_outward():
    # the value is the exact norm max(d) (the max-modulus floor); rounded
    # to nearest, the Haagerup bound came out one ulp below it
    for d in ([3.0, 1.0, 0.0, 2.5], [2.0, 2.0, 1.0]):
        est = multiplier_norm(np.diag(d), 2, 2)
        assert est.value == max(d)
        assert est.upper >= est.value
    for M in _upper_masks():
        est = multiplier_norm(M, 2, 2)
        assert est.upper >= est.value


def test_multiplier_norm_upper_is_certified_past_zero_rows_and_columns():
    # rows 6 and columns 6..9 of this mask are zero, and so are u and v
    # there after the first power step; iterates still certify, so the
    # bound closes on the lower one instead of stopping at the first iterate
    M = standard_truncation_mask(6, 9, 5)
    est = multiplier_norm(M, 2, 2)
    assert est.upper / est.value - 1.0 <= 1e-5
    assert _svd_split_upper(M) / est.value - 1.0 >= 0.3
    # zero rows and columns inside a complex mask
    Z = list(_complex_masks())[4]
    Z[[2, 7]] = 0.0
    Z[:, [0, 5]] = 0.0
    est = multiplier_norm(Z, 2, 2)
    assert est.value * (1.0 - 1e-12) <= est.upper < _svd_split_upper(Z)


def test_multiplier_norm_upper_only_at_22():
    M = standard_truncation_mask(8, 8, 8)
    ests = multiplier_norms(M, [(2.0, 4.0), (3.0, 1.5), (1.0, 2.0), (INF, INF)], SearchConfig(multistarts=2))
    assert [e.upper for e in ests] == [None, None, 1.0, 1.0]


def test_hilbert_type_witness_values():
    h = hilbert_type_witness(3, 3)
    assert h[0, 0] == 0.0
    assert h[1, 0] == 1.0
    assert h[0, 1] == -1.0
    assert h[2, 0] == pytest.approx(0.5)


# ------------------------------------- one witness set shared by every pair


PAIRS = [(2.0, 2.0), (2.0, 4.0), (3.0, 1.5), (1.0, 2.0), (INF, INF)]


def _counting_s1_witness(monkeypatch) -> list:
    """Replace schur._s1_witness by a counting wrapper; returns the call log."""
    calls, witness = [], schur._s1_witness

    def counting(M, cfg, maxmod):
        calls.append(M.shape)
        return witness(M, cfg, maxmod)

    monkeypatch.setattr(schur, "_s1_witness", counting)
    return calls


@pytest.mark.parametrize(
    "M",
    [*(standard_truncation_mask(n, n, n) for n in (2, 8, 32)), list(_complex_masks())[2]],
    ids=["staircase2", "staircase8", "staircase32", "complex3x7"],
)
def test_multiplier_norms_equal_per_pair_multiplier_norm(M):
    # 40 starts exceed n + 1 for every mask here, so each pair's seeded
    # Gaussian starts take part and differ between pairs
    cfgs = [SearchConfig(multistarts=40, max_iter=300, seed=100 + i) for i in range(len(PAIRS))]
    for est, (p, q), cfg in zip(multiplier_norms(M, PAIRS, cfgs), PAIRS, cfgs):
        ref = multiplier_norm(M, p, q, cfg)
        assert (est.value, est.certainty, est.method) == (ref.value, ref.certainty, ref.method)
        assert est.witness.tobytes() == ref.witness.tobytes()


def test_multiplier_norms_builds_the_witness_once_and_only_when_needed(monkeypatch):
    calls = _counting_s1_witness(monkeypatch)
    M = standard_truncation_mask(8, 8, 8)
    multiplier_norms(M, PAIRS, SearchConfig(multistarts=2))
    assert len(calls) == 1
    # exact pairs alone, and a zero mask at any pair, need no witness
    ests = multiplier_norms(M, [(1.0, 2.0), (INF, INF), (1.0, 1.0)])
    assert [e.certainty for e in ests] == [EXACT] * 3
    zero = multiplier_norms(np.zeros((3, 4)), PAIRS)
    assert [e.value for e in zero] == [0.0] * len(PAIRS)
    assert [e.certainty for e in zero] == [LOWER_BOUND, LOWER_BOUND, LOWER_BOUND, EXACT, EXACT]
    assert len(calls) == 1
    assert multiplier_norms(M, []) == []


def test_multiplier_norms_rejects_mismatched_configs():
    M = standard_truncation_mask(4, 4, 4)
    with pytest.raises(ValueError, match="2 search configs for 3 pairs"):
        multiplier_norms(M, PAIRS[:3], [SearchConfig(), SearchConfig()])
    for patch in ({"tol": 1e-6}, {"max_iter": 10}):
        with pytest.raises(ValueError, match="share tol and max_iter"):
            multiplier_norms(M, PAIRS[:2], [SearchConfig(), replace(SearchConfig(), **patch)])
    # a mismatch is an error even where every pair is exact
    with pytest.raises(ValueError, match="share tol and max_iter"):
        multiplier_norms(M, [(1.0, 2.0), (INF, INF)], [SearchConfig(), SearchConfig(tol=1e-6)])


def test_truncation_growth_builds_one_witness_set_per_n(monkeypatch):
    set_cpus(monkeypatch, 1)  # the patch below counts calls in this process only
    calls = _counting_s1_witness(monkeypatch)
    dims = [2, 4, 8]
    cfg = ExperimentConfig(seed=3, dims=dims, pq_pairs=[(2.0, 2.0), (2.0, 4.0), (3.0, 1.5)], trials=1)
    run_truncation_growth(cfg)
    assert calls == [(n, n) for n in dims]


# ------------------------------------ pruned candidates off (2,2) and exact


def _unpruned_multiplier_norm(M, p, q, cfg):
    """`multiplier_norm` off (2,2) with every witness's numerator searched:
    the floor, then conj(W) and the Hilbert-type witness, each replaced
    only by a strictly larger ratio of an `opnorms` numerator over
    `opnorm_upper` of the witness."""
    maxmod = float(np.abs(M).max())
    kj = np.unravel_index(int(np.abs(M).argmax()), M.shape)
    best_value, best_witness = maxmod, np.zeros(M.shape, dtype=complex)
    best_witness[kj] = 1.0
    cands = [schur._s1_witness(M, cfg, maxmod)[0], hilbert_type_witness(*M.shape)]
    for S, num in zip(cands, opnorms([M * S for S in cands], p, q, cfg)):
        den = opnorm_upper(S, p, q)
        r = num.value / den if den > 0.0 else 0.0
        if r > best_value:
            best_value, best_witness = r, S
    return best_value, best_witness.ravel()


@pytest.mark.parametrize(
    "M",
    [*(standard_truncation_mask(n, n, n) for n in TRUNCATION_DIMS), _pm1_mask(8), _pm1_mask(32)],
    ids=[*(f"staircase{n}" for n in TRUNCATION_DIMS), "pm1_8", "pm1_32"],
)
def test_pruned_multiplier_norms_equal_the_unpruned_reference(M):
    pairs = [(2.0, 4.0), (3.0, 1.5)]
    cfg = SearchConfig(multistarts=2, max_iter=300, seed=3)
    for est, (p, q) in zip(multiplier_norms(M, pairs, cfg), pairs):
        value, witness = _unpruned_multiplier_norm(M, p, q, cfg)
        assert (est.value, est.certainty) == (value, LOWER_BOUND)
        assert est.witness.tobytes() == witness.tobytes()


def _counting_opnorm(monkeypatch) -> list:
    """Replace schur.opnorm by a wrapper that logs each searched numerator."""
    mats, search = [], schur.opnorm

    def counting(S, *args):
        mats.append(S)
        return search(S, *args)

    monkeypatch.setattr(schur, "opnorm", counting)
    return mats


def test_multiplier_norms_searches_only_the_witnesses_that_can_beat_the_best_ratio(monkeypatch):
    pairs = [(2.0, 4.0), (3.0, 1.5)]
    cfg = SearchConfig(multistarts=2)
    # at n = 8 the Hilbert-type witness's ratio of upper bounds is below
    # the floor 1 at both pairs; conj(W) is searched at both
    mats = _counting_opnorm(monkeypatch)
    multiplier_norms(standard_truncation_mask(8, 8, 8), pairs, cfg)
    assert len(mats) == 2
    # at n = 32 and (3,1.5) it passes the floor (1.148) but not conj(W)'s
    # certified ratio (1.870), so again only conj(W) is searched
    mats.clear()
    M = standard_truncation_mask(32, 32, 32)
    ests = multiplier_norms(M, pairs, cfg)
    H = hilbert_type_witness(32, 32)
    hilbert = opnorm_upper(M * H, 3.0, 1.5) / opnorm_upper(H, 3.0, 1.5)
    assert 1.0 < hilbert < ests[1].value
    assert hilbert == pytest.approx(1.148, abs=1e-3) and ests[1].value == pytest.approx(1.870, abs=1e-3)
    assert len(mats) == 2
    W = schur._s1_witness(M, cfg, 1.0)[0]
    assert all(e.witness.tobytes() == W.tobytes() for e in ests)


def test_multiplier_norms_prunes_the_hilbert_numerator_at_24_and_n128(monkeypatch):
    # opnorm_upper's (1,1)-(pt,inf) segment puts the Hilbert-type witness's
    # ratio of upper bounds (1.0117) below conj(W)'s certified ratio
    # (1.0247), so only conj(W)'s numerator is searched
    n = 128
    mats = _counting_opnorm(monkeypatch)
    M = standard_truncation_mask(n, n, n)
    [est] = multiplier_norms(M, [(2.0, 4.0)], SearchConfig(multistarts=2))
    H = hilbert_type_witness(n, n)
    hilbert = opnorm_upper(M * H, 2.0, 4.0) / opnorm_upper(H, 2.0, 4.0)
    assert hilbert == pytest.approx(1.0117, abs=1e-4) and est.value == pytest.approx(1.0247, abs=1e-4)
    assert len(mats) == 1
