"""Diagonalizable operators A = U^{-1} diag(lambda) U, their functional
calculus, spectral projections, and the two constants attached to them:
the spectral constant (sup of projection norms) and the diagonalizability
constant (inf of ||U|| ||U^{-1}|| over diagonal rescalings of U).
"""

from __future__ import annotations

import itertools
import json
import math
from dataclasses import dataclass

import numpy as np

from .norms import (
    EXACT,
    INF,
    LOWER_BOUND,
    UPPER_BOUND,
    SearchConfig,
    check_exponent,
    opnorm_upper,
    opnorms,
    riesz_thorin,
)

_INV_TOL = 1e-9
# spectral_constant tries every subset of up to this many distinct
# eigenvalues, and 2**EXHAUSTIVE_CAP // 4 random subsets beyond
EXHAUSTIVE_CAP = 12
# spectral_constant estimates the projections of this many subsets in one
# `opnorms` block; the block's matrices are held at once, so the size
# bounds peak memory
_SUBSET_BLOCK = 64
# K at p = 2: `_lbfgs`'s stopping tolerances, the number of (s, y) pairs it
# keeps, and the halvings after which a line search gives up
_FTOL = 5e-5
_GTOL = 1e-6
_MEMORY = 10
_MAX_HALVINGS = 40


@dataclass
class DiagonalizableOperator:
    """The triple (lambda, U, U^{-1}); the operator itself is assemble()."""

    lambdas: np.ndarray
    u: np.ndarray
    u_inv: np.ndarray

    def __post_init__(self):
        self.lambdas = np.asarray(self.lambdas, dtype=complex).ravel()
        self.u = np.asarray(self.u, dtype=complex)
        self.u_inv = np.asarray(self.u_inv, dtype=complex)
        n = self.lambdas.size
        if self.u.shape != (n, n) or self.u_inv.shape != (n, n):
            raise ValueError("U and U^{-1} must be n x n with n = len(lambda)")
        eye = np.eye(n)
        if (
            np.abs(self.u @ self.u_inv - eye).max() > _INV_TOL
            or np.abs(self.u_inv @ self.u - eye).max() > _INV_TOL
        ):
            raise ValueError("u_inv is not the inverse of u to within 1e-9")

    @property
    def n(self) -> int:
        return self.lambdas.size

    @classmethod
    def from_u(cls, lambdas, u) -> "DiagonalizableOperator":
        u = np.asarray(u, dtype=complex)
        return cls(lambdas, u, np.linalg.inv(u))

    @classmethod
    def diagonal(cls, lambdas) -> "DiagonalizableOperator":
        n = np.asarray(lambdas).size
        eye = np.eye(n, dtype=complex)
        return cls(lambdas, eye, eye)


@dataclass
class ConstantEstimate:
    value: float
    certainty: str
    argument: str


def _similar(op: DiagonalizableOperator, w: np.ndarray) -> np.ndarray:
    """U^{-1} diag(w) U as one matmul: the columns of U^{-1} scaled by w,
    times U. For real w it equals op.u_inv @ np.diag(w) @ op.u bit for bit,
    since the GEMM against diag(w) adds only exact zeros; for complex w the
    two can differ in the last bit, as that GEMM fuses multiply-adds."""
    return (op.u_inv * w) @ op.u


def assemble(op: DiagonalizableOperator) -> np.ndarray:
    return _similar(op, op.lambdas)


def functional_calculus(op: DiagonalizableOperator, f) -> np.ndarray:
    """f(A) = U^{-1} diag(f(lambda_1), ..., f(lambda_n)) U."""
    vals = []
    for lam in op.lambdas:
        try:
            v = f(lam)
        except Exception as exc:
            raise ValueError(f"f undefined at eigenvalue {lam}") from exc
        v = complex(v)
        if not (math.isfinite(v.real) and math.isfinite(v.imag)):
            raise ValueError(f"f non-finite at eigenvalue {lam}")
        vals.append(v)
    return _similar(op, np.asarray(vals, dtype=complex))


def _check_sigma(op: DiagonalizableOperator, sigma) -> frozenset:
    sigma = frozenset(int(i) for i in sigma)
    for i in sigma:
        if not 0 <= i < op.n:
            raise ValueError(f"eigenvalue index {i} out of range")
    for i in sigma:
        for j in range(op.n):
            if op.lambdas[j] == op.lambdas[i] and j not in sigma:
                raise ValueError(
                    "sigma splits a repeated eigenvalue; spectral projections "
                    "are defined on subsets of the spectrum"
                )
    return sigma


def spectral_projection(op: DiagonalizableOperator, sigma) -> np.ndarray:
    """E(sigma) = sum_{j in sigma} U^{-1} P_j U for an index set closed
    under eigenvalue equality."""
    sigma = _check_sigma(op, sigma)
    d = np.zeros(op.n, dtype=complex)
    for i in sigma:
        d[i] = 1.0
    return _similar(op, d)


def _distinct_eigenvalue_groups(op: DiagonalizableOperator):
    groups: dict[complex, list[int]] = {}
    for i, lam in enumerate(op.lambdas):
        groups.setdefault(complex(lam), []).append(i)
    return list(groups.values())


def spectral_constant(op: DiagonalizableOperator, p, cfg: SearchConfig | None = None) -> ConstantEstimate:
    """max over spectrum subsets sigma of ||E(sigma)||_{p->p}; exhaustive
    up to EXHAUSTIVE_CAP distinct eigenvalues, sampled beyond. The
    projections are estimated in `opnorms` blocks of _SUBSET_BLOCK."""
    p = check_exponent(p)
    cfg = cfg or SearchConfig()
    groups = _distinct_eigenvalue_groups(op)
    m = len(groups)
    exhaustive = m <= EXHAUSTIVE_CAP
    if exhaustive:
        subsets = [c for r in range(1, m) for c in itertools.combinations(groups, r)]
    else:
        rng = cfg.rng(0x0537, op.n)
        subsets = [
            [g for g, keep in zip(groups, rng.random(m) < 0.5) if keep]
            for _ in range(2**EXHAUSTIVE_CAP // 4)
        ]
    # sigma = the full spectrum gives the identity, and the empty set 0
    sigmas = [idx for idx in ([i for g in s for i in g] for s in subsets) if 0 < len(idx) < op.n]
    best, best_arg, all_exact = 1.0, "full spectrum", True
    for start in range(0, len(sigmas), _SUBSET_BLOCK):
        block = sigmas[start : start + _SUBSET_BLOCK]
        for idx, est in zip(block, opnorms([spectral_projection(op, idx) for idx in block], p, p, cfg)):
            all_exact &= est.certainty == EXACT
            if est.value > best:
                best, best_arg = est.value, f"indices {sorted(idx)}"
    return ConstantEstimate(best, EXACT if exhaustive and all_exact else LOWER_BOUND, best_arg)


def _diag_scaling_objective(op: DiagonalizableOperator, logd: np.ndarray, p: float) -> float:
    d = np.exp(logd)
    return opnorm_upper(d[:, None] * op.u, p, p) * opnorm_upper(op.u_inv / d[None, :], p, p)


def _endpoint_scaling(op: DiagonalizableOperator, p: float) -> np.ndarray:
    """The optimal diagonal scaling d at p in {1, inf} (Bauer, "Optimally
    scaled matrices", Numer. Math. 5, 1963): the column sums of |U^{-1}| at
    p = 1, the reciprocal row sums of |U| at p = inf.

    Optimality at p = 1: with c the column sums of |U^{-1}|, any positive d
    has ||U^{-1}D^{-1}||_1 = m = max_i c_i / d_i, and every d_i >= c_i / m,
    so ||DU||_1 >= max_j (c|U|)_j / m and the product is at least
    max_j (c|U|)_j = || |U^{-1}||U| ||_1, which d = c attains. The p = inf
    case is the transposed argument.
    """
    if p == 1.0:
        return np.abs(op.u_inv).sum(axis=0)
    return 1.0 / np.abs(op.u).sum(axis=1)


def _scaling_argument(logd: np.ndarray) -> str:
    return f"diagonal scaling exp({json.dumps(logd.tolist())})"


def _log_condition(op: DiagonalizableOperator):
    """x -> (value, gradient) of log(||DU||_2 ||U^{-1}D^{-1}||_2), the log
    of what `_diag_scaling_objective` scores at p = 2, at log d = t = (0, x);
    it does not change under D -> cD, so t_0 is held at 0."""

    def f(x):
        t = np.concatenate(([0.0], x))
        # ||U^{-1}D^{-1}||_2 = 1 / sigma_min(DU), so one SVD gives both
        # 2-norms, and d log sigma / dt_i = |y_i|^2 for its left vector y
        y, s, _ = np.linalg.svd(np.exp(t - t.max())[:, None] * op.u)
        return math.log(s[0] / s[-1]), (np.abs(y[:, 0]) ** 2 - np.abs(y[:, -1]) ** 2)[1:]

    return f


def _lbfgs(fg, x0: np.ndarray) -> np.ndarray:
    """A point where the smooth function with (value, gradient) = fg(x)
    is no higher than at x0, by L-BFGS (Liu and Nocedal, Math. Programming 45,
    1989): the two-loop recursion over the last _MEMORY pairs (s, y),
    scaled by s.y / y.y, and a backtracking line search that halves the
    step until the Armijo condition holds. A pair with s.y <= 0 is not
    kept, and a direction that does not descend is replaced by the steepest
    descent one, the pairs dropped. It stops when max |g| <= _GTOL, when a
    step lowers f by at most _FTOL relative to max(|f|, 1), or when a line
    search halves _MAX_HALVINGS times without success."""
    x = x0
    f, g = fg(x)
    pairs: list = []
    while np.abs(g).max() > _GTOL:
        d = -g
        alphas = []
        for s, y, rho in reversed(pairs):
            alphas.append(rho * (s @ d))
            d -= alphas[-1] * y
        if pairs:
            s, y, rho = pairs[-1]
            d *= (s @ y) / (y @ y)
        for (s, y, rho), a in zip(pairs, reversed(alphas)):
            d += (a - rho * (y @ d)) * s
        slope = g @ d
        if slope >= 0.0:
            pairs.clear()
            d, slope = -g, -(g @ g)
        step = 1.0
        for _ in range(_MAX_HALVINGS):
            f_new, g_new = fg(x + step * d)
            if f_new <= f + 1e-4 * step * slope:
                break
            step *= 0.5
        else:
            return x
        s, y = step * d, g_new - g
        if s @ y > 0.0:
            pairs = [*pairs[1 - _MEMORY :], (s, y, 1.0 / (s @ y))]
        x, f_old, f, g = x + s, f, f_new, g_new
        if f_old - f <= _FTOL * max(abs(f_old), abs(f), 1.0):
            break
    return x


def diagonalizability_constant(op: DiagonalizableOperator, p) -> ConstantEstimate:
    """The infimum K_p over positive diagonal rescalings D of U of
    ||DU|| ||U^{-1}D^{-1}|| on l_p, clipped below at 1.

    At p in {1, inf} this is the closed form || |U^{-1}||U| ||_p, attained
    at the scaling of `_endpoint_scaling`, and the result is exact; so is
    K = 1 at n = 1. At p = 2, log(||DU||_2 ||U^{-1}D^{-1}||_2) is convex in
    log D (Braatz and Morari, SIAM J. Control Optim. 32, 1994). `_lbfgs`, a
    numpy L-BFGS, minimizes it from the better of two starts: no scaling,
    and the row equilibration of U. The best-scoring of the point where it
    stops and the starts is returned, an upper bound whose scaling, in
    `argument`, is its certificate.

    At other p, K_p <= K_e^theta K_2^(1-theta), with e = 1 at p < 2,
    e = inf at p > 2 and theta = |2/p - 1|, so that 1/p = theta/e +
    (1-theta)/2 (Stein, "Interpolation of linear operators", Trans. AMS 83,
    1956): for the scalings D_e and D_2 of the two endpoint results, take
    the analytic family D_e^z D_2^(1-z) U and its inverse. On the lines
    Re z = 0 and 1 the extra factor is a unimodular diagonal, an isometry
    of every l_p, so at z = theta the scaling D_e^theta D_2^(1-theta) gives
    the bound. `argument` holds theta and both endpoint certificates.
    """
    p = check_exponent(p)
    if p == 1.0 or p == INF:
        value = opnorm_upper(np.abs(op.u_inv) @ np.abs(op.u), p, p)
        logd = np.log(_endpoint_scaling(op, p))
        return ConstantEstimate(max(value, 1.0), EXACT, _scaling_argument(logd))
    if op.n == 1:
        return ConstantEstimate(1.0, EXACT, _scaling_argument(np.zeros(1)))
    if p != 2.0:
        e = 1.0 if p < 2.0 else INF
        theta = abs(2.0 / p - 1.0)
        k_e, k_2 = diagonalizability_constant(op, e), diagonalizability_constant(op, 2.0)
        return ConstantEstimate(
            riesz_thorin(k_e.value, k_2.value, theta),
            UPPER_BOUND,
            f"interpolation theta {json.dumps(theta)}; p = {e:g}: {k_e.argument}; p = 2: {k_2.argument}",
        )
    # U is invertible, so no row of |U| is zero
    points = [np.zeros(op.n), -np.log(np.abs(op.u).max(axis=1))]
    scores = [_diag_scaling_objective(op, logd, p) for logd in points]
    start = points[int(np.argmin(scores))]
    x = _lbfgs(_log_condition(op), (start - start[0])[1:])
    points.append(np.concatenate(([0.0], x)))
    scores.append(_diag_scaling_objective(op, points[-1], p))
    best = int(np.argmin(scores))
    # every score is a certified upper bound; K >= 1 clips numerical dust
    return ConstantEstimate(max(scores[best], 1.0), UPPER_BOUND, _scaling_argument(points[best]))
