"""Dense l_p -> l_q operator norms: exact branches, a nonlinear power
method for the general (nonconvex) case, and small brute-force oracles.

Exponents are plain floats; infinity is ``math.inf``. The exact branches
are p=1 (max column q-norm), q=inf (max row p*-norm) and p=q=2 (largest
singular value). Everything else returns a certified lower bound found
by multistart alternating maximization.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

INF = math.inf
# least positive (subnormal) double, and least normal double: 1/x is
# finite for every x at or above _NORMAL
_LEAST = 5e-324
_NORMAL = 2.0**-1022

# a search stops once its value rises by less than SEARCH_TOL (relative) or after MAX_ITER steps
SEARCH_TOL = 1e-10
MAX_ITER = 300

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


def _row_norms(a: np.ndarray, p: float) -> np.ndarray:
    """l_p norm of each row of a (k, n) array of moduli: the max modulus
    for p=inf, otherwise (sum a^p)^(1/p) with the row max scaled out to
    avoid overflow and underflow, except at p=2 for rows whose plain sum
    of squares is a finite normal number."""
    if p == INF:
        return a.max(axis=1)
    if p == 1.0:
        return a.sum(axis=1)
    if p == 2.0:
        with np.errstate(over="ignore"):
            ss = (a * a).sum(axis=1)
        out = np.sqrt(ss)
        # a sum that overflowed, or fell below the normal range and lost
        # bits (an all-zero row too), is recomputed with the max scaled out;
        # a row with an infinite entry keeps its infinite norm
        bad = [i for i, s in enumerate(ss.tolist()) if not _NORMAL <= s < INF and a[i].max() < INF]
        if bad:
            out[bad] = _scaled_row_norms(a[bad], p)
        return out
    return _scaled_row_norms(a, p)


def _scaled_row_norms(a: np.ndarray, p: float) -> np.ndarray:
    """(sum a^p)^(1/p) of each row of a, computed as m (sum (a/m)^p)^(1/p)
    with m the row max; inf for a row with an infinite entry."""
    # flooring the max at the least positive double changes no nonzero row
    # and makes an all-zero row come out 0 instead of 0/0
    m = np.maximum.reduce(a, axis=1, initial=_LEAST)
    inf_rows = m == INF
    if inf_rows.any():  # scaling by an infinite max would give inf/inf
        out = np.full(len(a), INF)
        out[~inf_rows] = _scaled_row_norms(a[~inf_rows], p)
        return out
    sums = ((a / m[:, None]) ** p).sum(axis=1)
    # The root is taken with the C library's scalar pow: numpy's SIMD power
    # differs from it in the last bit for some inputs, and reported values
    # must rerun byte-identically.
    root = 1.0 / p
    return m * np.array([s**root for s in sums.tolist()])


def vector_norm(x, p) -> float:
    """(sum |x_j|^p)^(1/p) for finite p, max modulus for p=inf."""
    p = check_exponent(p)
    x = np.asarray(x)
    if x.size == 0:
        raise ValueError("vector_norm of an empty vector")
    return float(_row_norms(np.abs(x).astype(float).reshape(1, -1), p)[0])


@dataclass
class SearchConfig:
    """Knobs for the heuristic norm searches; deterministic per seed. Every run uses SearchConfig()."""

    multistarts: int = 8
    seed: int = 0

    def rng(self, *salt) -> np.random.Generator:
        return np.random.default_rng([self.seed & 0xFFFFFFFF, *[s & 0xFFFFFFFF for s in salt]])


@dataclass
class NormEstimate:
    value: float
    certainty: str
    witness: np.ndarray
    method: str
    # a certified upper bound, where the estimator gives one
    upper: float | None = None

    def reevaluate(self, S, p, q) -> float:
        """Ratio ||S w||_q / ||w||_p achieved by the stored witness."""
        wn = vector_norm(self.witness, p)
        if wn == 0.0:
            return 0.0
        return vector_norm(np.asarray(S) @ self.witness, q) / wn


def _phase_conj(v: np.ndarray, a: np.ndarray) -> np.ndarray:
    """Conjugate phase conj(v)/|v| of each entry of v, given a = |v|; zero
    where v is zero."""
    if np.minimum.reduce(a, axis=None, initial=INF) >= _NORMAL:
        return np.conj(v) / a
    out = np.zeros_like(v, dtype=complex)
    nz = a > 0
    # numpy's complex division multiplies by 1/|v|, which overflows for
    # |v| below 1/DBL_MAX (subnormal entries); divide the parts separately
    # there and keep every other entry as the division rounds it
    with np.errstate(over="ignore", invalid="ignore"):
        out[nz] = np.conj(v[nz]) / a[nz]
        bad = ~np.isfinite(out)
        out[bad] = v.real[bad] / a[bad] - 1j * (v.imag[bad] / a[bad])
    return out


def _dual_rows(v: np.ndarray, a: np.ndarray, r: float) -> np.ndarray:
    """`dual_map` of each row of the (k, n) block v, given a = |v|."""
    ph = _phase_conj(v, a)
    if r == INF or r == 1.0:
        return ph
    m = np.maximum.reduce(a, axis=1, keepdims=True, initial=_LEAST)
    return ph * (a / m) ** (r - 1.0)


def dual_map(v, r) -> np.ndarray:
    """Direction of the entrywise map conj(sign(v)) * |v|^(r-1): the l_r
    duality map up to a positive scalar (the input is rescaled by its max
    modulus to avoid overflow for large exponents).

    For r=1 this is the phase vector, for r=inf it is interpreted as the
    exponent-0 map (phases of the nonzero entries).
    """
    v = np.asarray(v, dtype=complex).reshape(1, -1)
    return _dual_rows(v, np.abs(v), r)[0]


def _matvecs(ops, v) -> np.ndarray:
    """Row i of the result is ops[i] @ v[i], or ops @ v[i] for one matrix
    ops: a stack of gemv calls, which rounds as the single matvec of each
    row does; v @ S.T would be a GEMM and differ in the last bits."""
    return np.matmul(ops, v[:, :, None])[..., 0]


def _power_block(mats, owner, x0, p, q, max_iter):
    """Alternating maximization of ||S x||_q over the unit p-ball for a
    (k, n) block of starts x0, row r iterating with S = mats[owner[r]].

    The matvecs of the active rows run as one batched matmul, and every
    elementwise step runs once on the rows still active. A row leaves at
    the iteration where its own objective stops rising, so each row
    follows exactly the path that a single-start iteration from it would.
    Returns per-row lists of values, witnesses and method labels.
    """
    pstar = conjugate_exponent(p)
    xn = _row_norms(np.abs(x0), p)
    if not np.all(xn != 0.0):
        raise ValueError("starting vector must be nonzero in l_p")
    best_x = x0 / xn[:, None]
    best = np.zeros(len(owner))
    labels = np.full(len(owner), "power_iteration", dtype=object)
    owner = np.asarray(owner)
    zero = np.array([not np.any(S) for S in mats])[owner]
    labels[zero] = "power_iteration:zero_matrix"
    # the active rows: their indices, their best iterates x with values val,
    # y = S x with moduli a, and the matrices ops, one per row where the
    # block holds several (a gathered copy is slower for one matrix)
    act = np.flatnonzero(~zero)
    ops = np.stack(mats)[owner[act]] if len(mats) > 1 else mats[0]
    x = best_x[act]
    y = _matvecs(ops, x)
    a = np.abs(y)
    val = _row_norms(a, q)
    for _ in range(max_iter):
        if act.size == 0:
            break
        z = _matvecs(ops.swapaxes(-1, -2), _dual_rows(y, a, q))
        xd = _dual_rows(z, np.abs(z), pstar)
        nn = _row_norms(np.abs(xd), p)
        if not nn.all():
            out = nn == 0.0
            best[act[out]], best_x[act[out]] = val[out], x[out]
            act, x, val, xd, nn = act[~out], x[~out], val[~out], xd[~out], nn[~out]
            if ops.ndim == 3:
                ops = ops[~out]
        x_new = xd / nn[:, None]
        y = _matvecs(ops, x_new)
        a = np.abs(y)
        val_new = _row_norms(a, q)
        # alternating maximization cannot decrease; a drop is numerical
        # noise, and the row keeps its previous iterate
        up = val_new >= val
        stay = up & ~(val_new - val < SEARCH_TOL * np.maximum(val_new, 1e-300))
        if stay.all():
            x, val = x_new, val_new
        else:
            x, val = np.where(up[:, None], x_new, x), np.where(up, val_new, val)
            out = ~stay
            best[act[out]], best_x[act[out]] = val[out], x[out]
            act, x, val, y, a = act[stay], x[stay], val[stay], y[stay], a[stay]
            if ops.ndim == 3:
                ops = ops[stay]
    else:
        labels[act] = "power_iteration:max_iter"
    best[act], best_x[act] = val, x
    return best.tolist(), list(best_x), labels.tolist()


def power_iteration_pq(S, p, q, x0):
    """Alternating maximization of ||Sx||_q over the unit p-ball, for at most MAX_ITER steps.

    Supports 1 < p <= inf and 1 <= q < inf (the remaining cases have
    closed forms). Each step maximizes the bilinear form over one ball
    while the other argument is fixed, so the objective never decreases.
    Returns (value, witness, method_label).
    """
    p = check_exponent(p)
    q = check_exponent(q)
    if p == 1.0 or q == INF:
        raise ExponentError("power_iteration_pq handles 1 < p <= inf, q < inf")
    x0 = np.asarray(x0, dtype=complex).reshape(1, -1)
    vals, wits, labels = _power_block([np.asarray(S, dtype=complex)], [0], x0, p, q, MAX_ITER)
    return vals[0], wits[0], labels[0]


# The two closed forms that `opnorms` and `opnorm_uppers` both read. The
# rows of a contiguous array sum in the order vector_norm sums one vector;
# a strided one (a transpose, or an F-ordered S) sums in another and moves
# the last bit.
def _col_norms(a: np.ndarray, q: float) -> np.ndarray:
    """q-norm of each column of a = |S|; ||S||_{1->q} is their max."""
    return _row_norms(np.ascontiguousarray(a.T), q)


def _row_dual_norms(a: np.ndarray, p: float) -> np.ndarray:
    """p*-norm of each row of a = |S|; ||S||_{p->inf} is their max."""
    return _row_norms(np.ascontiguousarray(a), conjugate_exponent(p))


def _exact_p1(S: np.ndarray, q: float) -> NormEstimate:
    vals = _col_norms(np.abs(S), q)
    k = int(np.argmax(vals))
    w = np.zeros(S.shape[1], dtype=complex)
    w[k] = 1.0
    return NormEstimate(float(vals[k]), EXACT, w, "exact:p=1")


def _lp_dual_witness(row: np.ndarray, p: float) -> np.ndarray:
    """Unit l_p vector x maximizing |<row, x>|, i.e. achieving ||row||_{p*},
    for 1 < p <= inf (`opnorms` takes p = 1 to the p=1 branch)."""
    if not np.any(row):
        x = np.zeros_like(row, dtype=complex)
        x[0] = 1.0
        return x
    if p == INF:
        return dual_map(row, 1.0)
    pstar = conjugate_exponent(p)
    x = dual_map(row, pstar)
    return x / vector_norm(x, p)


def _exact_qinf(S: np.ndarray, p: float) -> NormEstimate:
    vals = _row_dual_norms(np.abs(S), p)
    j = int(np.argmax(vals))
    w = _lp_dual_witness(S[j, :], p)
    return NormEstimate(float(vals[j]), EXACT, w, "exact:q=inf")


def _exact_22(S: np.ndarray) -> NormEstimate:
    u, s, vh = np.linalg.svd(S)
    return NormEstimate(float(s[0]), EXACT, vh[0, :].conj(), "exact:svd")


def _start_vectors(shape, cfg: SearchConfig) -> np.ndarray:
    """(k, n) block of multistarts for an m x n matrix: the all-ones
    vector, then unit vectors, then complex Gaussians seeded by the shape."""
    m, n = shape
    k = max(cfg.multistarts, 1)
    starts = np.zeros((k, n), dtype=complex)
    starts[0] = 1.0
    e = min(n, k - 1)
    starts[1 : 1 + e, :e] = np.eye(e)
    rng = cfg.rng(m, n)
    for r in range(1 + e, k):
        starts[r] = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    return starts


def check_matrix(S, caller: str, what: str = "matrix") -> np.ndarray:
    """S as an array, or a ValueError naming caller and what S is when S
    is not 2-D, is empty or has an infinite or nan entry."""
    S = np.asarray(S)
    if S.ndim != 2:
        raise ValueError(f"{caller} takes a 2-D {what}, got shape {S.shape}")
    if S.size == 0:
        raise ValueError(f"{caller} of an empty {what}")
    if not np.isfinite(S).all():
        raise ValueError(f"{what} entries must be finite")
    return S


def search_configs(cfg, k: int, caller: str, items: str) -> list[SearchConfig]:
    """One SearchConfig for each of k items: cfg itself k times (the
    default for None), or a sequence of k configs; otherwise a ValueError
    naming caller and items."""
    if cfg is None or isinstance(cfg, SearchConfig):
        return [cfg or SearchConfig()] * k
    cfgs = list(cfg)
    if len(cfgs) != k:
        raise ValueError(f"{caller} got {len(cfgs)} search configs for {k} {items}")
    return cfgs


def opnorms(mats, p, q, cfg: SearchConfig | Sequence[SearchConfig] | None = None) -> list[NormEstimate]:
    """`opnorm` of each matrix in mats, all of one shape. cfg is one
    SearchConfig for every matrix or a sequence of one per matrix; matrix
    i's starts come from its own config. Outside the exact branches, every
    multistart of every matrix runs in one power-iteration block of at most
    MAX_ITER steps, and each matrix keeps its best start."""
    p = check_exponent(p)
    q = check_exponent(q)
    mats = [check_matrix(np.asarray(S, dtype=complex), "opnorm") for S in mats]
    if len({S.shape for S in mats}) > 1:
        raise ValueError("opnorms takes matrices of one shape")
    cfgs = search_configs(cfg, len(mats), "opnorms", "matrices")
    if p == 1.0:
        return [_exact_p1(S, q) for S in mats]
    if q == INF:
        return [_exact_qinf(S, p) for S in mats]
    if p == 2.0 and q == 2.0:
        return [_exact_22(S) for S in mats]
    if not mats:
        return []
    first = _start_vectors(mats[0].shape, cfgs[0])
    starts = [first if c is cfgs[0] else _start_vectors(mats[0].shape, c) for c in cfgs]
    sizes = [len(x) for x in starts]
    owner = np.repeat(np.arange(len(mats)), sizes)
    ends = np.cumsum(sizes).tolist()
    vals, wits, labels = _power_block(mats, owner, np.concatenate(starts), p, q, MAX_ITER)
    out = []
    for lo, hi in zip([0, *ends[:-1]], ends):
        r = max(range(lo, hi), key=vals.__getitem__)  # first best start
        out.append(NormEstimate(vals[r], LOWER_BOUND, wits[r].copy(), labels[r]))
    return out


def opnorm(S, p, q, cfg: SearchConfig | None = None) -> NormEstimate:
    """l_p -> l_q operator norm of S: exact where a closed form exists,
    otherwise the best multistart power-iteration lower bound."""
    return opnorms([S], p, q, cfg)[0]


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
    S = check_matrix(S, "opnorm_bruteforce")
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
    pn = _row_norms(np.abs(pts), p)
    keep = pn > 0
    X = pts[keep] / pn[keep, None]
    vals = _row_norms(np.abs(X @ np.asarray(S, dtype=complex).T), q)
    i = int(np.argmax(vals))
    return NormEstimate(float(vals[i]), LOWER_BOUND, X[i].astype(complex), "bruteforce:grid")


def riesz_thorin(x0: float, x1: float, theta: float) -> float:
    """x0^theta x1^(1-theta): the Riesz-Thorin bound at the point (p, q) with
    (1/p, 1/q) = theta (1/p0, 1/q0) + (1-theta) (1/p1, 1/q1) of a segment
    from bounds x0 at (p0, q0) and x1 at (p1, q1); Stein's theorem gives the
    same form for an analytic family, as in K_p of `spectral`."""
    return x0**theta * x1 ** (1.0 - theta)


def opnorm_uppers(S, pairs) -> list[float]:
    """`opnorm_upper(S, p, q)` at each (p, q) in pairs. |S| and sigma_max
    are computed once for all of them, sigma_max only where some pair off
    the p = 1 and q = inf branches reads it. A real S is taken in float64
    and a complex one in complex128, so sigma_max is the largest singular
    value in S's own arithmetic, the value np.linalg.norm(S, 2) gives."""
    pairs = [(check_exponent(p), check_exponent(q)) for p, q in pairs]
    S = np.asarray(S)
    S = check_matrix(S.astype(complex if np.iscomplexobj(S) else float, copy=False), "opnorm_upper")
    m, n = S.shape
    a = np.abs(S)

    def from_one(q):
        return float(_col_norms(a, q).max())

    def to_inf(p):
        return float(_row_dual_norms(a, p).max())

    sigma = None
    out = []
    for p, q in pairs:
        if p == 1.0:
            out.append(from_one(q))
            continue
        if q == INF:
            out.append(to_inf(p))
            continue
        # every other pair reads sigma_max
        if sigma is None:
            sigma = float(np.linalg.svd(S, compute_uv=False)[0])
        if p == q == 2.0:
            out.append(sigma)
        elif p == q < 2.0:  # 1/p = theta/1 + (1-theta)/2
            out.append(riesz_thorin(from_one(1.0), sigma, 2.0 / p - 1.0))
        elif p == q:  # 1/p = theta/2 + (1-theta)/inf
            out.append(riesz_thorin(sigma, to_inf(INF), 2.0 / p))
        else:
            rows = _row_dual_norms(a, p)
            bounds = [
                # ||I||_{p->2} sigma_max ||I||_{2->q}, with ||I||_{r->s} = k^max(0, 1/s - 1/r) on l^k
                float(n) ** max(0.0, 0.5 - 1.0 / p) * sigma * float(m) ** max(0.0, 1.0 / q - 0.5),
                float(_row_norms(_col_norms(a, q)[None], conjugate_exponent(p))[0]),
                float(_row_norms(rows[None], q)[0]),
            ]
            if p == 2.0 and q > 2.0:
                bounds.append(riesz_thorin(sigma, float(rows.max()), 2.0 / q))
            if p < q:
                pt = (1.0 - 1.0 / q) / (1.0 / p - 1.0 / q)
                bounds.append(riesz_thorin(from_one(1.0), to_inf(pt), 1.0 / q))
            out.append(min(bounds))
    return out


def opnorm_upper(S, p, q) -> float:
    """Certified upper bound on the l_p -> l_q norm of the m x n matrix S.

    On the p = 1 and q = inf branches the anchors are `opnorm`'s exact
    branches themselves, the max column q-norm and max row p*-norm of |S|,
    so the bound equals `opnorm(S, p, q).value` bit for bit there. At
    (2,2) it is sigma_max from LAPACK's value-only SVD, which can differ by
    a few ulps, either way, from `opnorm(S, 2, 2)`, a full SVD; neither is
    rounded outward. At other p = q it is Riesz-Thorin interpolation
    between (2,2) and (1,1) at p < 2, or (inf,inf) at p > 2. At other
    p != q it is the least of
    - the (2,2) anchor ||I||_{p->2} sigma_max ||I||_{2->q};
    - the Hoelder forms ||(||col_j||_q)_j||_{p*} and ||(||row_i||_{p*})_i||_q, from
      ||Sx||_q <= sum_j |x_j| ||col_j||_q and |(Sx)_i| <= ||row_i||_{p*} ||x||_p;
      at p = 1 the first, and at q = inf the second, is the exact branch;
    - at p = 2 < q, Riesz-Thorin on the segment from (2,2) to (2,inf),
      sigma_max^(2/q) ||S||_{2->inf}^(1-2/q), valid for complex scalars;
    - at p < q, Riesz-Thorin on the segment from the (1,1) corner to the
      (pt,inf) edge through (p,q), ||S||_{1->1}^(1/q) ||S||_{pt->inf}^(1-1/q)
      with 1/pt = (1/p - 1/q) / (1 - 1/q), both ends exact branches.
    """
    return opnorm_uppers(S, [(p, q)])[0]
