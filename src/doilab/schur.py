"""Schur (entrywise) products, divided-difference multiplier matrices,
the standard triangular truncation mask, canonicalization of
{mu_k <= lambda_j} masks to the standard staircase pattern, and
multiplier-norm estimation on l_p -> l_q.

Index convention: multiplier entry (k, j) couples output coordinate k
(the mu side) with input coordinate j (the lambda side).
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from .norms import (
    EXACT,
    INF,
    LOWER_BOUND,
    NormEstimate,
    SearchConfig,
    check_exponent,
    opnorm,
    opnorm_upper,
    search_configs,
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
    """1 at (k, j) with k <= j inside the leading n x n block, else 0."""
    m = np.zeros((n_rows, n_cols))
    k = np.arange(1, n_rows + 1)
    j = np.arange(1, n_cols + 1)
    m[: n, : n] = ((k[:n, None] <= j[None, :n])).astype(float)
    return m


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
    columns. Rows of the mask are nested (each is an up-set of lambda), so
    a row is determined by its number of ones: its rank among the distinct
    nonzero counts, largest first, is its staircase row, and column j lies
    in as many distinct rows as there are distinct counts covering it."""
    lambdas = np.asarray(lambdas, dtype=float).ravel()
    mus = np.asarray(mus, dtype=float).ravel()
    mask = mus[:, None] <= lambdas[None, :]
    counts = mask.sum(axis=1).tolist()
    rank_of = {c: r + 1 for r, c in enumerate(sorted({c for c in counts if c}, reverse=True))}
    R = len(rank_of)
    N = R + 1 if 0 in counts else max(R, 1)
    row_map = [rank_of.get(c, N) for c in counts]  # a zero row sits below every column rank
    col_map = [len({c for c, hit in zip(counts, col) if hit}) or None for col in mask.T.tolist()]
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


def _svd_ratio(M: np.ndarray, S: np.ndarray) -> float:
    """||M o S|| / ||S|| on l_2, both norms exact (largest singular
    values); 0 when S is zero."""
    den = np.linalg.norm(S, 2)
    return float(np.linalg.norm(M * S, 2) / den) if den > 0.0 else 0.0


def _s1_witness(M: np.ndarray, cfg: SearchConfig, maxmod: float) -> tuple[np.ndarray, float]:
    """(conj(W), upper): conj(W) for the polar factor W of the best iterate
    of an alternation that maximizes ||D_u M D_v||_{S_1} over unit u, v >= 0,
    and the least p=q=2 upper bound that the iterates certify. At p=q=2
    that sup is the multiplier norm (trace-class duality); at other pairs
    conj(W) is a witness without that guarantee.

    From u, v each iteration takes the SVD X = D_u M D_v = U s Vh, whose
    value sum(s) is tr(W* X) = u^T G v for the polar factor W = U Vh and
    G = conj(W) o M, then one bilinear power step on G. The step does not
    lower u^T G v (Cauchy-Schwarz), and ||D_u M D_v||_{S_1} >= |u^T G v|
    for unit complex u, v, with equality of the S_1 norm at |u|, |v|, so the
    value never decreases. The loop stops when it rises by at most
    `cfg.tol` (relative) or after `cfg.max_iter` iterations. Needs
    maxmod = max |M_kj| > 0.

    The same SVD factors M_kj = <x_k, y_j> with x_k = (U s^(1/2))_k / u_k
    and y_j = (s^(1/2) Vh)_j / v_j, taking x_k = 0 on a zero row of M and
    y_j = 0 on a zero column. That needs u_k > 0 on every nonzero row and
    v_j > 0 on every nonzero column; where it holds, Haagerup's
    factorization theorem bounds the norm by max_k ||x_k|| * max_j ||y_j||.
    The first iterate always certifies, and there the bound is the one of
    the split M = (U s^(1/2)) (s^(1/2) Vh). At a stationary point every
    ||x_k||^2 and ||y_j||^2 equals the S_1 value, so the bound meets it."""
    # the iterates of M / maxmod, whose entries have modulus <= 1, neither
    # underflow nor overflow; W does not depend on the scale of M
    A = M / maxmod
    m, n = M.shape
    rows, cols = np.any(A != 0, axis=1), np.any(A != 0, axis=0)
    u = np.full(m, m**-0.5)
    v = np.full(n, n**-0.5)
    value, W, upper = 0.0, np.zeros(M.shape), INF
    for _ in range(cfg.max_iter):
        U, s, Vh = np.linalg.svd(u[:, None] * A * v, full_matrices=False)
        s1 = float(s.sum())
        if s1 > value:
            W = U @ Vh
        ur, vc = u[rows], v[cols]
        if ur.min() > 0.0 and vc.min() > 0.0:
            x = np.sqrt((U * U.conj()).real @ s)[rows] / ur
            y = np.sqrt(s @ (Vh * Vh.conj()).real)[cols] / vc
            upper = min(upper, float(x.max() * y.max()))
        if s1 <= value * (1.0 + cfg.tol):
            break
        value = s1
        G = np.conj(W) * A
        v = np.conj(G.T @ u)
        nv = np.linalg.norm(v)
        if nv == 0.0:
            break
        u = np.conj(G @ v)
        nu = np.linalg.norm(u)
        if nu == 0.0:
            break
        u, v = np.abs(u) / nu, np.abs(v) / nv
    # Outward rounding, so that rounding to nearest cannot leave the bound
    # below the norm. To first order the computed bound is off by r eps from
    # the two length-r = min(m, n) sums under the square roots (halved by
    # them), 3 eps from the single roundings after them, and p(m, n) eps
    # from the SVD, whose factors are exact for a matrix that close to X
    # and orthonormal to that accuracy, with p(m, n) a modest function of
    # m and n (LAPACK Users' Guide, 4.9), taken as max(m, n). That sum is
    # at most 5 max(m, n) eps; the factor 8 leaves room above it.
    return np.conj(W), upper * maxmod * (1.0 + 8 * max(m, n) * np.finfo(float).eps)


def multiplier_norms(M, pairs, cfg: SearchConfig | Sequence[SearchConfig] | None = None) -> list[NormEstimate]:
    """Norm of S -> M * S on L(l_p, l_q) for each (p, q) in pairs. Exact
    (max modulus) for p=1 or q=inf; otherwise a certified lower bound: the
    largest ratio ||M o S|| / ||S|| over three deterministic witnesses,
    taken in this order and replaced only by a strictly larger ratio: the
    max-modulus floor (the matrix unit at a largest entry), conj(W) from
    `_s1_witness` and the Hilbert-type witness. At p=q=2 both norms of a
    ratio are exact SVD norms, the conj(W) ratio is at least the S_1 value
    of the best iterate because ||W|| = 1, and the estimate's `upper` is the
    Haagerup bound of `_s1_witness` (0 for a zero mask). An exact estimate's
    `upper` is its value; the other lower bounds carry none. At other pairs a
    ratio divides an `opnorm` lower bound on ||M o S|| by
    `opnorm_upper(S, p, q)`, and a witness whose ratio of upper bounds
    `opnorm_upper(M o S) / opnorm_upper(S)` is at most the best ratio so far
    cannot beat it and is not searched.

    cfg is one SearchConfig for every pair or a sequence of one per pair,
    all sharing one tol and one max_iter, as in `opnorms`. The witnesses
    depend only on M, tol and max_iter, so they are built once, on the
    first pair that needs them, and every pair is evaluated at the same set.
    Estimates that report the same witness share its array."""
    M = np.asarray(M)
    pairs = [(check_exponent(p), check_exponent(q)) for p, q in pairs]
    cfgs = search_configs(cfg, len(pairs), "multiplier_norms", "pairs")
    if M.size == 0:
        raise ValueError("empty mask")
    if not np.all(np.isfinite(M)):
        raise ValueError("mask entries must be finite")
    maxmod = float(np.abs(M).max())
    kj = np.unravel_index(int(np.abs(M).argmax()), M.shape)
    unit = np.zeros(M.shape, dtype=complex)
    unit[kj] = 1.0
    cands, upper = [], 0.0
    out = []
    for (p, q), c in zip(pairs, cfgs):
        if p == 1.0 or q == INF:
            out.append(NormEstimate(maxmod, EXACT, unit.ravel(), "exact:max_entry", maxmod))
            continue
        if maxmod > 0.0 and not cands:
            W, upper = _s1_witness(M, c, maxmod)
            cands = [W, hilbert_type_witness(*M.shape)]
        best, witness = maxmod, unit
        for S in cands:
            if p == q == 2.0:
                r = _svd_ratio(M, S)
            else:
                den = opnorm_upper(S, p, q)
                if den == 0.0 or opnorm_upper(M * S, p, q) / den <= best:
                    continue
                r = opnorm(M * S, p, q, c).value / den
            if r > best:
                best, witness = r, S
        bound = upper if p == q == 2.0 else None
        out.append(NormEstimate(best, LOWER_BOUND, witness.ravel(), "s1_alternation", bound))
    return out


def multiplier_norm(M, p, q, cfg: SearchConfig | None = None) -> NormEstimate:
    """`multiplier_norms` at the one pair (p, q)."""
    return multiplier_norms(M, [(p, q)], cfg)[0]
