import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from doilab.norms import EXACT, INF, LOWER_BOUND, SearchConfig
from doilab.schur import (
    MultiplierMask,
    StaircaseDescriptor,
    abs_divided_difference,
    canonicalize_mask,
    divided_difference_matrix,
    hilbert_type_witness,
    multiplier_norm,
    repeat_first_column,
    schur_product,
    sequence_truncation,
    standard_truncation,
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


def test_standard_truncation_examples():
    S = np.array([[1.0, 2.0], [3.0, 4.0]])
    assert np.array_equal(standard_truncation(S, 2), [[1.0, 2.0], [0.0, 4.0]])
    assert np.array_equal(standard_truncation(S, 1), [[1.0, 0.0], [0.0, 0.0]])
    upper = np.triu(np.arange(1.0, 10.0).reshape(3, 3))
    assert np.array_equal(standard_truncation(upper, 3), upper)


def test_standard_truncation_out_of_range():
    with pytest.raises(ValueError):
        standard_truncation(np.ones((2, 2)), 3)


def test_standard_truncation_idempotent():
    rng = np.random.default_rng(0)
    S = rng.standard_normal((5, 5))
    T = standard_truncation(S, 4)
    assert np.array_equal(standard_truncation(T, 4), T)


def test_sequence_truncation_reduces_to_standard():
    # mu_k <= lambda_j becomes k <= j exactly when the equal sequences
    # are increasing
    rng = np.random.default_rng(1)
    S = rng.standard_normal((4, 4))
    seq = [1.0, 2.0, 3.0, 4.0]
    assert np.array_equal(sequence_truncation(S, seq, seq, 4), standard_truncation(S, 4))


def test_sequence_truncation_extremes():
    rng = np.random.default_rng(2)
    S = rng.standard_normal((3, 3))
    assert np.array_equal(sequence_truncation(S, [1.0] * 3, [5.0] * 3, 3), np.zeros((3, 3)))
    assert np.array_equal(sequence_truncation(S, [5.0] * 3, [1.0] * 3, 3), S)


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


@settings(deadline=None, max_examples=200)
@given(lam=SEQ, mu=SEQ)
def test_canonicalize_reconstruction_invariant(lam, mu):
    # integer-valued sequences force plenty of ties and duplicates
    d = canonicalize_mask(lam, mu)
    mask = (np.asarray(mu)[:, None] <= np.asarray(lam)[None, :]).astype(float)
    assert d.N <= max(len(lam), len(mu))
    assert np.array_equal(d.reconstruct(len(mu), len(lam)), mask)


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


def test_multiplier_norm_accepts_mask_type():
    m = MultiplierMask(np.ones((2, 2)))
    assert multiplier_norm(m, 1, 2).value == pytest.approx(1.0)
    with pytest.raises(ValueError):
        MultiplierMask(np.array([[np.inf]]))


@settings(deadline=None, max_examples=20)
@given(seed=st.integers(min_value=0, max_value=10_000))
def test_multiplier_norm_max_entry_floor(seed):
    rng = np.random.default_rng(seed)
    M = rng.standard_normal((3, 3))
    est = multiplier_norm(M, 2, 2, SearchConfig(multistarts=4, ascent_steps=5))
    assert est.value >= np.abs(M).max() - 1e-12


@pytest.mark.parametrize("p, q, n, value", [
    (2.0, 4.0, 8, "0x1.15b070ba0126fp+0"),
    (2.0, 4.0, 32, "0x1.3cd15807cd445p+0"),
    (3.0, 1.5, 8, "0x1.2e7754234d54cp+0"),
    (3.0, 1.5, 32, "0x1.2606df724db84p+0"),
])
def test_multiplier_norm_pinned_values(p, q, n, value):
    # reruns must be byte-identical, so a change to the norm search must
    # reproduce these; on this +-1 mask the ratio ascent beats the floor 1
    j = np.arange(n)
    M = np.sign(np.sin(1.3 * j[:, None] + 0.7 * j[None, :]))
    est = multiplier_norm(M, p, q, SearchConfig(multistarts=8, max_iter=300, seed=11))
    assert est.value == float.fromhex(value)


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
    cfg = SearchConfig(multistarts=4, ascent_steps=5)
    vals = [
        multiplier_norm(standard_truncation_mask(n, n, n), 2, 2, cfg).value
        for n in (8, 32, 128)
    ]
    assert vals[0] < vals[1] < vals[2]


def test_hilbert_type_witness_values():
    h = hilbert_type_witness(3, 3)
    assert h[0, 0] == 0.0
    assert h[1, 0] == 1.0
    assert h[0, 1] == -1.0
    assert h[2, 0] == pytest.approx(0.5)
