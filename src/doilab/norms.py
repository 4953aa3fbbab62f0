"""Dense l_p -> l_q operator norms: exact branches, a nonlinear power
method for the general (nonconvex) case, and small brute-force oracles.

Exponents are plain floats; infinity is ``math.inf``. The exact branches
are p=1 (max column q-norm), q=inf (max row p*-norm) and p=q=2 (largest
singular value). Everything else returns a certified lower bound found
by multistart alternating maximization.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

INF = math.inf

EXACT = "exact"
LOWER_BOUND = "lower_bound"
UPPER_BOUND = "upper_bound"


class ExponentError(ValueError):
    """Raised when an exponent is outside [1, inf]."""


class CapacityError(ValueError):
    """Raised when a brute-force mode is asked for a dimension it cannot afford."""


def check_exponent(p) -> float:
    p = float(p)
    if math.isnan(p) or p < 1.0:
        raise ExponentError(f"exponent must lie in [1, inf], got {p}")
    return p


def conjugate_exponent(p) -> float:
    """Hoelder conjugate: 1 <-> inf, otherwise 1/p + 1/p* = 1."""
    p = check_exponent(p)
    if p == 1.0:
        return INF
    if p == INF:
        return 1.0
    return p / (p - 1.0)


def vector_norm(x, p) -> float:
    """(sum |x_j|^p)^(1/p) for finite p, max modulus for p=inf."""
    p = check_exponent(p)
    x = np.asarray(x)
    if x.size == 0:
        raise ValueError("vector_norm of an empty vector")
    a = np.abs(x).astype(float)
    if p == INF:
        return float(a.max())
    if p == 1.0:
        return float(a.sum())
    if p == 2.0:
        return float(np.sqrt((a * a).sum()))
    m = a.max()
    if m == 0.0:
        return 0.0
    # scale out the max to avoid overflow for large p
    return float(m * ((a / m) ** p).sum() ** (1.0 / p))


@dataclass
class SearchConfig:
    """Knobs for the heuristic norm searches; deterministic per seed."""

    multistarts: int = 32
    max_iter: int = 500
    tol: float = 1e-10
    seed: int = 0
    exhaustive_cap: int = 12
    ascent_steps: int = 30

    def rng(self, *salt) -> np.random.Generator:
        return np.random.default_rng([self.seed & 0xFFFFFFFF, *[s & 0xFFFFFFFF for s in salt]])


@dataclass
class NormEstimate:
    value: float
    certainty: str
    witness: np.ndarray
    method: str

    def reevaluate(self, S, p, q) -> float:
        """Ratio ||S w||_q / ||w||_p achieved by the stored witness."""
        wn = vector_norm(self.witness, p)
        if wn == 0.0:
            return 0.0
        return vector_norm(np.asarray(S) @ self.witness, q) / wn


def _phase_conj(v: np.ndarray) -> np.ndarray:
    """Conjugate phase vector; zero where v is zero."""
    a = np.abs(v)
    out = np.zeros_like(v, dtype=complex)
    nz = a > 0
    out[nz] = np.conj(v[nz]) / a[nz]
    return out


def dual_map(v, r) -> np.ndarray:
    """Direction of the entrywise map conj(sign(v)) * |v|^(r-1): the l_r
    duality map up to a positive scalar (the input is rescaled by its max
    modulus to avoid overflow for large exponents).

    For r=1 this is the phase vector, for r=inf it is interpreted as the
    exponent-0 map (phases of the nonzero entries).
    """
    v = np.asarray(v, dtype=complex)
    ph = _phase_conj(v)
    if r == INF or r == 1.0:
        return ph
    a = np.abs(v)
    m = a.max()
    if m == 0.0:
        return ph
    return ph * (a / m) ** (r - 1.0)


def power_iteration_pq(S, p, q, x0, tol=1e-10, max_iter=500):
    """Alternating maximization of ||Sx||_q over the unit p-ball.

    Supports 1 < p <= inf and 1 <= q < inf (the remaining cases have
    closed forms). Each step maximizes the bilinear form over one ball
    while the other argument is fixed, so the objective never decreases.
    Returns (value, witness, method_label).
    """
    p = check_exponent(p)
    q = check_exponent(q)
    if p == 1.0 or q == INF:
        raise ExponentError("power_iteration_pq handles 1 < p <= inf, q < inf")
    S = np.asarray(S, dtype=complex)
    x = np.asarray(x0, dtype=complex)
    xn = vector_norm(x, p)
    if xn == 0.0:
        raise ValueError("starting vector must be nonzero in l_p")
    x = x / xn
    if not np.any(S):
        return 0.0, x, "power_iteration:zero_matrix"
    pstar = conjugate_exponent(p)
    best = vector_norm(S @ x, q)
    best_x = x
    label = "power_iteration"
    for _ in range(max_iter):
        y = S @ x
        u = dual_map(y, q)
        z = S.T @ u
        xn_new = dual_map(z, pstar)
        nn = vector_norm(xn_new, p)
        if nn == 0.0:
            break
        x = xn_new / nn
        val = vector_norm(S @ x, q)
        if val >= best:
            improved = val - best
            best = val
            best_x = x
            if improved < tol * max(best, 1e-300):
                break
        else:
            # alternating maximization cannot decrease; numerical noise only
            break
    else:
        label = "power_iteration:max_iter"
    return best, best_x, label


def _exact_p1(S: np.ndarray, q: float) -> NormEstimate:
    vals = [vector_norm(S[:, k], q) for k in range(S.shape[1])]
    k = int(np.argmax(vals))
    w = np.zeros(S.shape[1], dtype=complex)
    w[k] = 1.0
    return NormEstimate(float(vals[k]), EXACT, w, "exact:p=1")


def _lp_dual_witness(row: np.ndarray, p: float) -> np.ndarray:
    """Unit l_p vector x maximizing |<row, x>|, i.e. achieving ||row||_{p*}."""
    if not np.any(row):
        x = np.zeros_like(row, dtype=complex)
        x[0] = 1.0
        return x
    if p == 1.0:
        k = int(np.argmax(np.abs(row)))
        x = np.zeros_like(row, dtype=complex)
        x[k] = _phase_conj(row[k : k + 1])[0]
        return x
    if p == INF:
        return _phase_conj(row)
    pstar = conjugate_exponent(p)
    x = dual_map(row, pstar)
    return x / vector_norm(x, p)


def _exact_qinf(S: np.ndarray, p: float) -> NormEstimate:
    pstar = conjugate_exponent(p)
    vals = [vector_norm(S[j, :], pstar) for j in range(S.shape[0])]
    j = int(np.argmax(vals))
    w = _lp_dual_witness(S[j, :], p)
    return NormEstimate(float(vals[j]), EXACT, w, "exact:q=inf")


def _exact_22(S: np.ndarray) -> NormEstimate:
    u, s, vh = np.linalg.svd(S)
    return NormEstimate(float(s[0]), EXACT, vh[0, :].conj(), "exact:svd")


def _start_vectors(S: np.ndarray, cfg: SearchConfig):
    n = S.shape[1]
    starts = [np.ones(n, dtype=complex)]
    for k in range(min(n, max(cfg.multistarts - 1, 0))):
        e = np.zeros(n, dtype=complex)
        e[k] = 1.0
        starts.append(e)
    rng = cfg.rng(S.shape[0], n)
    while len(starts) < cfg.multistarts:
        g = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        starts.append(g)
    return starts[: max(cfg.multistarts, 1)]


def opnorm(S, p, q, cfg: SearchConfig | None = None) -> NormEstimate:
    """l_p -> l_q operator norm of S: exact where a closed form exists,
    otherwise the best multistart power-iteration lower bound."""
    p = check_exponent(p)
    q = check_exponent(q)
    S = np.asarray(S, dtype=complex)
    if S.size == 0:
        raise ValueError("opnorm of an empty matrix")
    if not np.all(np.isfinite(S)):
        raise ValueError("matrix entries must be finite")
    if p == 1.0:
        return _exact_p1(S, q)
    if q == INF:
        return _exact_qinf(S, p)
    if p == 2.0 and q == 2.0:
        return _exact_22(S)
    cfg = cfg or SearchConfig()
    best = None
    label = "power_iteration"
    for x0 in _start_vectors(S, cfg):
        if vector_norm(x0, p) == 0.0:
            continue
        val, w, lab = power_iteration_pq(S, p, q, x0, tol=cfg.tol, max_iter=cfg.max_iter)
        if best is None or val > best.value:
            best = NormEstimate(val, LOWER_BOUND, w, lab)
    assert best is not None
    return best


def _sign_vectors(n: int):
    for bits in range(2**n):
        yield np.array([1.0 if bits >> i & 1 else -1.0 for i in range(n)])


def _angular_grid(n: int, resolution: int) -> np.ndarray:
    """Deterministic grid of directions on the Euclidean unit sphere in R^n."""
    if n == 1:
        return np.array([[1.0], [-1.0]])
    axes = []
    for i in range(n - 1):
        hi = 2.0 * math.pi if i == n - 2 else math.pi
        axes.append(np.linspace(0.0, hi, resolution, endpoint=(i == n - 2)))
    grids = np.meshgrid(*axes, indexing="ij")
    thetas = np.stack([g.ravel() for g in grids], axis=1)
    pts = np.empty((thetas.shape[0], n))
    sin_prod = np.ones(thetas.shape[0])
    for i in range(n - 1):
        pts[:, i] = sin_prod * np.cos(thetas[:, i])
        sin_prod = sin_prod * np.sin(thetas[:, i])
    pts[:, n - 1] = sin_prod
    return pts


def opnorm_bruteforce(S, p, q, resolution: int = 64) -> NormEstimate:
    """Independent oracle. Exact for p=inf with real S (sign-vector
    enumeration); otherwise a dense angular-grid lower bound (n <= 4)."""
    p = check_exponent(p)
    q = check_exponent(q)
    S = np.asarray(S)
    n = S.shape[1]
    if p == INF:
        if np.iscomplexobj(S) and np.abs(S.imag).max() > 0:
            raise ValueError("p=inf brute force requires a real matrix")
        if n > 20:
            raise CapacityError("sign enumeration limited to n <= 20")
        Sr = S.real.astype(float)
        best_val, best_x = -1.0, None
        for x in _sign_vectors(n):
            v = vector_norm(Sr @ x, q)
            if v > best_val:
                best_val, best_x = v, x
        return NormEstimate(float(best_val), EXACT, best_x.astype(complex), "bruteforce:signs")
    if n > 4:
        raise CapacityError("grid search limited to n <= 4")
    pts = _angular_grid(n, resolution)
    # p-normalize each direction, evaluate all at once
    pn = np.array([vector_norm(x, p) for x in pts])
    keep = pn > 0
    X = pts[keep] / pn[keep, None]
    Y = np.asarray(S, dtype=complex) @ X.T
    a = np.abs(Y)
    if q == INF:
        vals = a.max(axis=0)
    elif q == 1.0:
        vals = a.sum(axis=0)
    else:
        vals = (a**q).sum(axis=0) ** (1.0 / q)
    i = int(np.argmax(vals))
    return NormEstimate(float(vals[i]), LOWER_BOUND, X[i].astype(complex), "bruteforce:grid")


def riesz_thorin(n1: float, n2: float | None, ninf: float, p: float) -> float:
    """Riesz-Thorin bound on an l_p -> l_p norm from bounds n1, n2, ninf
    on the norms at p = 1, 2, inf (n2 is not read at p in {1, inf})."""
    if p == 1.0:
        return n1
    if p == INF:
        return ninf
    if p == 2.0:
        return n2
    if p < 2.0:
        theta = 2.0 / p - 1.0  # 1/p = theta/1 + (1-theta)/2
        return n1**theta * n2 ** (1.0 - theta)
    theta = 2.0 / p  # 1/p = theta/2
    return n2**theta * ninf ** (1.0 - theta)


def opnorm_upper(S, p) -> float:
    """Upper bound on the l_p -> l_p norm: exact at p in {1, 2, inf},
    Riesz-Thorin interpolation between those anchors otherwise."""
    p = check_exponent(p)
    S = np.asarray(S, dtype=complex)
    a = np.abs(S)
    n1 = float(a.sum(axis=0).max())
    ninf = float(a.sum(axis=1).max())
    n2 = float(np.linalg.svd(S, compute_uv=False)[0]) if 1.0 < p < INF else None
    return riesz_thorin(n1, n2, ninf, p)
