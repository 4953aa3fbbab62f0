"""Schur (entrywise) products, divided-difference multiplier matrices,
triangular truncations (standard and sequence-associated), mask
canonicalization to the standard staircase pattern, and multiplier-norm
estimation on l_p -> l_q.

Index convention: multiplier entry (k, j) couples output coordinate k
(the mu side) with input coordinate j (the lambda side).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .norms import (
    EXACT,
    INF,
    LOWER_BOUND,
    NormEstimate,
    SearchConfig,
    check_exponent,
    opnorm,  # noqa: F401  bound here for bench/, which traces schur.opnorm
    opnorms,
)


def schur_product(M, S) -> np.ndarray:
    M = np.asarray(M)
    S = np.asarray(S)
    if M.shape != S.shape:
        raise ValueError(f"shape mismatch: {M.shape} vs {S.shape}")
    return M * S


def divided_difference_matrix(f, lambdas, mus, diagonal) -> np.ndarray:
    """Phi[k, j] = (f(mu_k) - f(lambda_j)) / (mu_k - lambda_j) off the
    coincidence set, `diagonal` on it (1 for the absolute value kernel,
    0 for the plain Lipschitz kernel)."""
    lambdas = np.asarray(lambdas, dtype=complex).ravel()
    mus = np.asarray(mus, dtype=complex).ravel()
    fl = np.array([complex(f(x)) for x in lambdas])
    fm = np.array([complex(f(x)) for x in mus])
    denom = mus[:, None] - lambdas[None, :]
    numer = fm[:, None] - fl[None, :]
    phi = np.full(denom.shape, complex(diagonal))
    nz = denom != 0
    phi[nz] = numer[nz] / denom[nz]
    if not np.all(np.isfinite(phi)):
        raise ValueError("divided difference produced non-finite entries")
    return phi


def abs_divided_difference(lambdas, mus) -> np.ndarray:
    """Divided-difference kernel of f(t) = |t|, diagonal value 1."""
    return divided_difference_matrix(abs, lambdas, mus, diagonal=1.0)


def standard_truncation_mask(n_rows: int, n_cols: int, n: int) -> np.ndarray:
    m = np.zeros((n_rows, n_cols))
    k = np.arange(1, n_rows + 1)
    j = np.arange(1, n_cols + 1)
    m[: n, : n] = ((k[:n, None] <= j[None, :n])).astype(float)
    return m


def standard_truncation(S, n: int) -> np.ndarray:
    """Keep entries (k, j) with k <= j inside the leading n x n block."""
    S = np.asarray(S)
    if not 0 <= n <= min(S.shape):
        raise ValueError(f"n={n} out of range for shape {S.shape}")
    return schur_product(standard_truncation_mask(*S.shape, n), S)


def sequence_mask(lambdas, mus, n: int, shape=None) -> np.ndarray:
    lambdas = np.asarray(lambdas, dtype=float).ravel()
    mus = np.asarray(mus, dtype=float).ravel()
    if lambdas.size < n or mus.size < n:
        raise ValueError("sequences shorter than n")
    shape = shape or (n, n)
    m = np.zeros(shape)
    m[:n, :n] = (mus[:n, None] <= lambdas[None, :n]).astype(float)
    return m


def sequence_truncation(S, lambdas, mus, n: int) -> np.ndarray:
    """Keep entries (k, j) with k, j <= n and mu_k <= lambda_j."""
    S = np.asarray(S)
    if n > min(S.shape):
        raise ValueError(f"n={n} exceeds matrix shape {S.shape}")
    return schur_product(sequence_mask(lambdas, mus, n, S.shape), S)


@dataclass
class StaircaseDescriptor:
    """Embedding of a {mu_k <= lambda_j} mask into the standard n x n
    staircase pattern of size N: entry (k, j) is 1 iff
    row_map[k] <= col_map[j] (None means the column is identically zero)."""

    N: int
    row_map: list
    col_map: list

    def reconstruct(self, n_rows: int, n_cols: int) -> np.ndarray:
        if n_rows > len(self.row_map) or n_cols > len(self.col_map):
            raise ValueError(f"descriptor has {len(self.row_map)} x {len(self.col_map)} entries")
        # None never satisfies r <= c: +inf for a row, -inf for a column
        rows = np.array([INF if r is None else r for r in self.row_map[:n_rows]], dtype=float)
        cols = np.array([-INF if c is None else c for c in self.col_map[:n_cols]], dtype=float)
        return (rows[:, None] <= cols[None, :]).astype(float)


def canonicalize_mask(lambdas, mus) -> StaircaseDescriptor:
    """Reduce the {mu_k <= lambda_j} mask to the standard truncation
    pattern of minimal size N by sorting and merging duplicate rows and
    columns. Rows of the mask are nested (each is an up-set of lambda),
    which makes the rank assignment exact."""
    lambdas = np.asarray(lambdas, dtype=float).ravel()
    mus = np.asarray(mus, dtype=float).ravel()
    mask = mus[:, None] <= lambdas[None, :]
    n_rows, n_cols = mask.shape

    # distinct nonzero row patterns, ordered by decreasing number of ones
    patterns: dict[bytes, int] = {}
    for k in range(n_rows):
        key = mask[k].tobytes()
        if mask[k].any():
            patterns.setdefault(key, int(mask[k].sum()))
    ordered = sorted(patterns, key=lambda key: -patterns[key])
    rank_of = {key: r + 1 for r, key in enumerate(ordered)}
    R = len(ordered)

    has_zero_row = any(not mask[k].any() for k in range(n_rows))
    N = R + 1 if has_zero_row else max(R, 1)

    row_map = []
    for k in range(n_rows):
        if mask[k].any():
            row_map.append(rank_of[mask[k].tobytes()])
        else:
            row_map.append(N)  # below every column rank
    col_map = []
    pattern_rows = [np.frombuffer(key, dtype=bool) for key in ordered]
    for j in range(n_cols):
        covering = [r + 1 for r, row in enumerate(pattern_rows) if row[j]]
        col_map.append(max(covering) if covering else None)
    return StaircaseDescriptor(N, row_map, col_map)


def repeat_first_column(M) -> np.ndarray:
    M = np.asarray(M)
    if M.size == 0:
        raise ValueError("empty matrix")
    return np.concatenate([M[:, :1], M], axis=1)


def hilbert_type_witness(n_rows: int, n_cols: int) -> np.ndarray:
    """h_jk = 1/(j-k) off the diagonal, 0 on it; the classical extremal
    family for triangular truncation."""
    j = np.arange(1, n_rows + 1)[:, None]
    k = np.arange(1, n_cols + 1)[None, :]
    d = j - k
    h = np.zeros((n_rows, n_cols))
    nz = d != 0
    h[nz] = 1.0 / d[nz]
    return h


@dataclass
class MultiplierMask:
    m: np.ndarray
    row_labels: np.ndarray | None = None
    col_labels: np.ndarray | None = None

    def __post_init__(self):
        self.m = np.asarray(self.m)
        if not np.all(np.isfinite(self.m)):
            raise ValueError("mask entries must be finite")


def multiplier_norm(M, p, q, cfg: SearchConfig | None = None) -> NormEstimate:
    """Norm of S -> M * S on L(l_p, l_q). Exact (max modulus) for p=1 or
    q=inf; otherwise the best of the max-modulus floor and ratio ascent
    over a witness library."""
    if isinstance(M, MultiplierMask):
        M = M.m
    M = np.asarray(M)
    p = check_exponent(p)
    q = check_exponent(q)
    if M.size == 0:
        raise ValueError("empty mask")
    maxmod = float(np.abs(M).max())
    kj = np.unravel_index(int(np.abs(M).argmax()), M.shape)
    unit = np.zeros(M.shape, dtype=complex)
    unit[kj] = 1.0
    if p == 1.0 or q == INF:
        return NormEstimate(maxmod, EXACT, unit.ravel(), "exact:max_entry")
    cfg = cfg or SearchConfig()
    best_val, best_S = maxmod, unit
    rng = cfg.rng(0x5C42, M.shape[0], M.shape[1])
    witnesses = [np.ones(M.shape), hilbert_type_witness(*M.shape)]
    for _ in range(max(cfg.multistarts // 8, 1)):
        witnesses.append(rng.standard_normal(M.shape))
    # ||S|| for every witness, then ||M * S|| for every witness, in one block
    ests = opnorms(witnesses + [schur_product(M, S) for S in witnesses], p, q, cfg)
    for S, den, num in zip(witnesses, ests, ests[len(witnesses) :]):
        r = num.value / den.value if den.value != 0.0 else 0.0
        if r > best_val:
            best_val, best_S = r, S
    # gradient-free coordinate ascent around the best witness
    S = np.array(best_S, dtype=complex)
    scale = max(np.abs(S).max(), 1.0)
    for _ in range(cfg.ascent_steps):
        pert = np.array(S)
        hits = rng.integers(0, S.size, size=max(S.size // 8, 1))
        flat = pert.ravel()
        flat[hits] += (rng.standard_normal(hits.size)) * 0.2 * scale
        den, num = opnorms([pert, schur_product(M, pert)], p, q, cfg)
        r = num.value / den.value if den.value != 0.0 else 0.0
        if r > best_val:
            best_val, best_S, S = r, pert, pert
    return NormEstimate(float(best_val), LOWER_BOUND, np.asarray(best_S).ravel(), "ratio_ascent")
