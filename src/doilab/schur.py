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


def multiplier_norm_upper(M) -> float:
    """Upper bound on the l_2 -> l_2 multiplier norm of M from Haagerup's
    factorization theorem: any M_kj = <x_k, y_j> certifies
    max_k ||x_k|| * max_j ||y_j||. The SVD split M = U S Vh takes x_k the
    rows of U S^(1/2) and y_j the columns of S^(1/2) Vh; their norms do not
    depend on which SVD the solver returns."""
    M = np.asarray(M)
    if not np.all(np.isfinite(M)):
        raise ValueError("mask entries must be finite")
    U, s, Vh = np.linalg.svd(M, full_matrices=False)
    x = np.sqrt((np.abs(U) ** 2 * s).sum(axis=1).max())
    y = np.sqrt((np.abs(Vh) ** 2 * s[:, None]).sum(axis=0).max())
    return float(x * y)


def _svd_ratio(M: np.ndarray, S: np.ndarray) -> float:
    """||M o S|| / ||S|| on l_2, both norms exact (largest singular
    values); 0 when S is zero."""
    den = np.linalg.norm(S, 2)
    return float(np.linalg.norm(M * S, 2) / den) if den > 0.0 else 0.0


def _s1_alternation(M: np.ndarray, cfg: SearchConfig, maxmod: float, unit: np.ndarray) -> NormEstimate:
    """(2,2) multiplier norm from below by trace-class duality: the norm is
    the sup of ||D_u M D_v||_{S_1} over unit u, v >= 0.

    From u, v each iteration takes the SVD X = D_u M D_v = U s Vh, whose
    value sum(s) is tr(W* X) = u^T G v for the polar factor W = U Vh and
    G = conj(W) o M, then one bilinear power step on G. The step does not
    lower u^T G v (Cauchy-Schwarz), and ||D_u M D_v||_{S_1} >= |u^T G v|
    for unit complex u, v, with equality of the S_1 norm at |u|, |v|, so the
    value never decreases. The loop stops when it rises by at most
    `cfg.tol` (relative) or after `cfg.max_iter` iterations.

    The reported value is the largest of three ratios of exact norms: the
    max-modulus floor, the Hilbert-type witness and conj(W) of the best
    iterate, which is at least its S_1 value because ||W|| = 1."""
    floor = NormEstimate(maxmod, LOWER_BOUND, unit.ravel(), "s1_alternation")
    if maxmod == 0.0:
        return floor
    # the iterates of M / maxmod, whose entries have modulus <= 1, neither
    # underflow nor overflow; W does not depend on the scale of M
    A = M / maxmod
    m, n = M.shape
    u = np.full(m, m**-0.5)
    v = np.full(n, n**-0.5)
    value, W = 0.0, np.zeros(M.shape)
    for _ in range(cfg.max_iter):
        U, s, Vh = np.linalg.svd(u[:, None] * A * v, full_matrices=False)
        s1 = float(s.sum())
        if s1 > value:
            W = U @ Vh
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
    best = floor
    for S in (hilbert_type_witness(m, n), np.conj(W)):
        r = _svd_ratio(M, S)
        if r > best.value:
            best = NormEstimate(r, LOWER_BOUND, S.ravel(), "s1_alternation")
    return best


def multiplier_norm(M, p, q, cfg: SearchConfig | None = None) -> NormEstimate:
    """Norm of S -> M * S on L(l_p, l_q). Exact (max modulus) for p=1 or
    q=inf; a lower bound by S_1-duality alternation at p=q=2 (see
    `_s1_alternation`); otherwise the best of the max-modulus floor and a
    ratio ascent over a witness library (see `_ratio_ascent`)."""
    M = np.asarray(M)
    p = check_exponent(p)
    q = check_exponent(q)
    if M.size == 0:
        raise ValueError("empty mask")
    if not np.all(np.isfinite(M)):
        raise ValueError("mask entries must be finite")
    maxmod = float(np.abs(M).max())
    kj = np.unravel_index(int(np.abs(M).argmax()), M.shape)
    unit = np.zeros(M.shape, dtype=complex)
    unit[kj] = 1.0
    if p == 1.0 or q == INF:
        return NormEstimate(maxmod, EXACT, unit.ravel(), "exact:max_entry")
    cfg = cfg or SearchConfig()
    if p == q == 2.0:
        return _s1_alternation(M, cfg, maxmod, unit)
    return _ratio_ascent(M, p, q, cfg, maxmod, unit)


# Ascent steps evaluated together in one `opnorms` block. A step after an
# accepted one is wasted work, and the round's 2 * _ASCENT_ROUND matrices
# are held at once, so the size trades block speed-up against peak
# memory: on the staircase masks up to n=128, rounds of 8 keep most of
# the block gain of rounds of 30 at a fifth of their extra memory.
_ASCENT_ROUND = 8


def _ratio_ascent(M, p, q, cfg: SearchConfig, maxmod: float, unit: np.ndarray) -> NormEstimate:
    """The best ratio ||M o S|| / ||S|| over the floor `unit` and a witness
    library (the all-ones and Hilbert-type matrices and random ones), then
    a random-perturbation ascent from the best of them.

    The ascent takes `cfg.ascent_steps` random perturbations of the
    current witness S and accepts each that raises the ratio. A step's
    perturbation does not depend on S, so every step is drawn up front,
    and the ascent runs in rounds: a round perturbs S by the next
    `_ASCENT_ROUND` steps, estimates both norms of all of them in one
    `opnorms` block, and accepts the first that beats the best ratio;
    the next round starts at the step after it. Each block row follows
    the path of a single-start iteration, so the result equals that of
    accepting the steps one at a time.
    """
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
    # random-perturbation ascent around the best witness, in rounds
    S = np.array(best_S, dtype=complex)
    scale = max(np.abs(S).max(), 1.0)
    steps = []
    for _ in range(cfg.ascent_steps):
        hits = rng.integers(0, S.size, size=max(S.size // 8, 1))
        steps.append((hits, rng.standard_normal(hits.size) * 0.2 * scale))
    i = 0
    while i < len(steps):
        perts = []
        for hits, noise in steps[i : i + _ASCENT_ROUND]:
            pert = np.array(S)
            pert.ravel()[hits] += noise  # a repeated index adds once
            perts.append(pert)
        ests = opnorms(perts + [schur_product(M, P) for P in perts], p, q, cfg)
        for j, (den, num) in enumerate(zip(ests, ests[len(perts) :])):
            r = num.value / den.value if den.value != 0.0 else 0.0
            if r > best_val:
                best_val, best_S, S = r, perts[j], perts[j]
                break
        i += j + 1  # past the accepted step, or past the whole round
    return NormEstimate(float(best_val), LOWER_BOUND, np.asarray(best_S).ravel(), "ratio_ascent")
