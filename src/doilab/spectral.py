"""Diagonalizable operators A = U^{-1} diag(lambda) U, their functional
calculus, spectral projections, and the two constants attached to them:
the spectral constant (sup of projection norms) and the diagonalizability
constant (inf of ||U|| ||U^{-1}|| over diagonal rescalings of U).
"""

from __future__ import annotations

import itertools
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
    opnorm,
    opnorm_upper,
    riesz_thorin,
)

_INV_TOL = 1e-9
# spectral_constant tries every subset of up to this many distinct
# eigenvalues, and 2**EXHAUSTIVE_CAP // 4 random subsets beyond
EXHAUSTIVE_CAP = 12

_max = np.maximum.reduce


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


def assemble(op: DiagonalizableOperator) -> np.ndarray:
    return op.u_inv @ np.diag(op.lambdas) @ op.u


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
    return op.u_inv @ np.diag(np.asarray(vals, dtype=complex)) @ op.u


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
    return op.u_inv @ (d[:, None] * op.u)


def _distinct_eigenvalue_groups(op: DiagonalizableOperator):
    groups: dict[complex, list[int]] = {}
    for i, lam in enumerate(op.lambdas):
        groups.setdefault(complex(lam), []).append(i)
    return list(groups.values())


def spectral_constant(op: DiagonalizableOperator, p, cfg: SearchConfig | None = None) -> ConstantEstimate:
    """max over spectrum subsets sigma of ||E(sigma)||_{p->p}; exhaustive
    up to EXHAUSTIVE_CAP distinct eigenvalues, sampled beyond."""
    p = check_exponent(p)
    cfg = cfg or SearchConfig()
    groups = _distinct_eigenvalue_groups(op)
    m = len(groups)
    exhaustive = m <= EXHAUSTIVE_CAP
    best = 1.0  # sigma = full spectrum gives the identity
    best_arg = "full spectrum"
    all_exact = True

    def try_subset(mask_groups):
        nonlocal best, best_arg, all_exact
        idx = [i for g in mask_groups for i in g]
        if not idx or len(idx) == op.n:
            return
        est = opnorm(spectral_projection(op, idx), p, p, cfg)
        if est.certainty != EXACT:
            all_exact = False
        if est.value > best:
            best = est.value
            best_arg = f"indices {sorted(idx)}"

    if exhaustive:
        for r in range(1, m):
            for combo in itertools.combinations(groups, r):
                try_subset(combo)
        certainty = EXACT if all_exact else LOWER_BOUND
    else:
        rng = cfg.rng(0x0537, op.n)
        for _ in range(2**EXHAUSTIVE_CAP // 4):
            mask = rng.random(m) < 0.5
            try_subset([g for g, keep in zip(groups, mask) if keep])
        certainty = LOWER_BOUND
    return ConstantEstimate(best, certainty, best_arg)


class _ScalingSums:
    """Column and row sums of |DU| and of |U^{-1}D^{-1}| for D = diag(exp(logd)),
    and the surrogate objective they give at exponent p.

    Moving one d_i rescales entry i of the row sums of |DU| (`u_row`) and of
    the column sums of |U^{-1}D^{-1}| (`v_col`), and adds a multiple of row
    i of |U| to the column sums of |DU| (`u_col`) and of column i of |U^{-1}|
    to the row sums of |U^{-1}D^{-1}| (`v_row`), so a probe costs O(n)
    instead of the O(n^2) of rebuilding both matrices.
    """

    def __init__(self, abs_u: np.ndarray, abs_v_t: np.ndarray, logd: np.ndarray, p: float):
        # abs_v_t is |U^{-1}| transposed, so that its column i is a contiguous row
        self.p = p
        self.u_rows = list(abs_u)
        self.v_cols = list(abs_v_t)
        u_rowsum = abs_u.sum(axis=1)
        v_colsum = abs_v_t.sum(axis=1)
        d = np.exp(logd)
        self.u_rowsum = u_rowsum.tolist()
        self.v_colsum = v_colsum.tolist()
        self.d = d.tolist()
        self.u_col = d @ abs_u
        self.v_row = (1.0 / d) @ abs_v_t
        # u_row and v_col change in one entry per move; as lists with their
        # two largest entries, the max after a move costs O(1)
        self.u_row = (d * u_rowsum).tolist()
        self.v_col = (v_colsum / d).tolist()
        self._u_row_top = _top2(self.u_row)
        self._v_col_top = _top2(self.v_col)

    def value(self) -> float:
        return _surrogate(
            float(_max(self.u_col)), self._u_row_top[0], self._v_col_top[0], float(_max(self.v_row)), self.p
        )

    def probe(self, i: int, di: float) -> float:
        """The surrogate objective with d_i replaced by di; commit() makes the move."""
        self._u_col = self.u_col + (di - self.d[i]) * self.u_rows[i]
        self._v_row = self.v_row + (1.0 / di - 1.0 / self.d[i]) * self.v_cols[i]
        return _surrogate(
            float(_max(self._u_col)),
            max(di * self.u_rowsum[i], _max_without(self.u_row, self._u_row_top, i)),
            max(self.v_colsum[i] / di, _max_without(self.v_col, self._v_col_top, i)),
            float(_max(self._v_row)),
            self.p,
        )

    def commit(self, i: int, di: float):
        """Make the move of the last probe, which was of d_i = di."""
        self.d[i] = di
        self.u_col = self._u_col
        self.v_row = self._v_row
        self.u_row[i] = di * self.u_rowsum[i]
        self.v_col[i] = self.v_colsum[i] / di
        self._u_row_top = _top2(self.u_row)
        self._v_col_top = _top2(self.v_col)


def _top2(values: list) -> tuple:
    """The two largest of nonnegative values; 0 stands in for the second of one value."""
    top = sorted(values)[-2:]
    return (top[-1], top[0] if len(top) == 2 else 0.0)


def _max_without(values: list, top2: tuple, i: int) -> float:
    """max of values over the indices other than i, given their two largest."""
    return top2[0] if values[i] < top2[0] else top2[1]


def _surrogate(u_n1: float, u_ninf: float, v_n1: float, v_ninf: float, p: float) -> float:
    """The interpolation bound on ||DU|| ||U^{-1}D^{-1}|| from the largest
    column (n1) and row (ninf) sums of |DU| (u) and |U^{-1}D^{-1}| (v), with
    the Schur test sqrt(n1 ninf) in place of the largest singular value;
    crude but cheap and still an upper bound, used only to steer the descent."""
    return riesz_thorin(u_n1, math.sqrt(u_n1 * u_ninf), u_ninf, p) * riesz_thorin(
        v_n1, math.sqrt(v_n1 * v_ninf), v_ninf, p
    )


def _diag_scaling_objective(op: DiagonalizableOperator, logd: np.ndarray, p: float) -> float:
    d = np.exp(logd)
    return opnorm_upper(d[:, None] * op.u, p) * opnorm_upper(op.u_inv / d[None, :], p)


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
    return f"diagonal scaling exp({np.round(logd, 6).tolist()})"


def diagonalizability_constant(op: DiagonalizableOperator, p, *, max_sweeps: int = 12) -> ConstantEstimate:
    """The infimum over positive diagonal rescalings D of U of
    ||DU|| ||U^{-1}D^{-1}|| on l_p, clipped below at 1.

    At p in {1, inf} this is the closed form || |U^{-1}||U| ||_p, attained
    at the scaling of `_endpoint_scaling`, and the result is exact. At
    other p, a coordinate descent over log D on a cheap surrogate, of at
    most `max_sweeps` sweeps from each of two starts (no scaling, and the
    row equilibration of U), picks candidate scalings, each scored with
    the interpolation bound `opnorm_upper`; the result is an upper bound.
    """
    p = check_exponent(p)
    if p == 1.0 or p == INF:
        value = opnorm_upper(np.abs(op.u_inv) @ np.abs(op.u), p)
        logd = np.log(_endpoint_scaling(op, p))
        return ConstantEstimate(max(value, 1.0), EXACT, _scaling_argument(logd))
    n = op.n
    abs_u = np.abs(op.u)
    abs_v_t = np.abs(op.u_inv).T.copy()
    # two starts: no scaling, and the row equilibration of U, which is
    # usually close to optimal (U is invertible, so no row of |U| is zero)
    starts = [np.zeros(n), -np.log(abs_u.max(axis=1))]

    # Descend on the cheap surrogate objective, then score every candidate
    # point with the exact interpolation bound and keep the smallest; each
    # evaluation is a certified upper bound, so the minimum is too.
    descended = [logd0.copy() for logd0 in starts]
    for logd in descended:
        h = 0.5
        for _ in range(max_sweeps):
            # fresh sums each sweep keep the rounding of the O(n) updates
            # from accumulating across sweeps
            sums = _ScalingSums(abs_u, abs_v_t, logd, p)
            val = sums.value()
            improved = False
            for i in range(n):
                for step in (h, -h):
                    logd[i] += step
                    di = math.exp(logd[i])
                    cand = sums.probe(i, di)
                    if cand < val - 1e-12:
                        val = cand
                        improved = True
                        sums.commit(i, di)
                    else:
                        logd[i] -= step
            if not improved:
                if h < 2e-3:
                    break
                h *= 0.5
    best_val = math.inf
    best_logd = np.zeros(n)
    for logd in descended + starts:
        val = _diag_scaling_objective(op, logd, p)
        if val < best_val:
            best_val = val
            best_logd = logd
    best_val = max(best_val, 1.0)  # K_A >= 1 always; clip numerical dust
    return ConstantEstimate(float(best_val), UPPER_BOUND, _scaling_argument(best_logd))
