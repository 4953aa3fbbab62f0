"""Seeded experiment harness reproducing the norm-growth and commutator
dichotomies, with deterministic CSV/JSON output.

Every trial derives its own generator from (seed, experiment label,
p, q, n, trial), so runs are reproducible row by row and experiments can
be executed in any order.
"""

from __future__ import annotations

import json
import math
import zlib
from dataclasses import dataclass, field, replace

import numpy as np

from .norms import EXACT, INF, SearchConfig, opnorm, opnorm_upper
from .schur import abs_divided_difference, multiplier_norm, standard_truncation_mask
from .spectral import DiagonalizableOperator, assemble, diagonalizability_constant
from .doi import commutator_transform
from .psumming import PSummingContext, lipschitz_commutator_check

K_CAP = 4.0
# rejection target per sampled operator; well below K_CAP so the accepted
# K-hat distribution does not drift toward the cap as n grows
K_TARGET = 2.0
CSV_HEADER = "experiment,n,p,q,trial,metric,value,certainty,seed_used"


class ConfigError(ValueError):
    """Bad experiment configuration."""


class ViolationError(RuntimeError):
    """An assertion-bearing experiment produced a violating instance."""

    def __init__(self, message: str, dump: dict):
        super().__init__(message)
        self.dump = dump


@dataclass
class ExperimentConfig:
    seed: int = 12345
    dims: list = field(default_factory=lambda: [2, 4, 8, 16])
    pq_pairs: list = field(default_factory=lambda: [(1.0, 2.0), (1.0, INF), (2.0, 2.0)])
    trials: int = 20
    eps: float = 0.5
    tol: float = 1e-9
    search: SearchConfig = field(default_factory=lambda: SearchConfig(multistarts=8, max_iter=300))
    output_path: str = "results.csv"

    def validate(self):
        if self.trials < 1:
            raise ConfigError("trials must be >= 1")
        if not self.dims:
            raise ConfigError("dims must be nonempty")
        if not 0.0 < self.eps <= 1.0:
            raise ConfigError("eps must lie in (0, 1]")
        if not self.tol > 0.0:
            raise ConfigError("tol must be > 0")


def _parse_exponent(v) -> float:
    if isinstance(v, str) and v.lower() in ("inf", "infinity"):
        return INF
    try:
        v = float(v)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"exponent {v!r} is not a number") from exc
    if not v >= 1.0:  # also rejects nan
        raise ConfigError(f"exponent {v} outside [1, inf]")
    return v


def _parse_int(v, key: str, minimum: int | None = None) -> int:
    if isinstance(v, bool) or not isinstance(v, int) or (minimum is not None and v < minimum):
        kind = "an integer" if minimum is None else f"an integer >= {minimum}"
        raise ConfigError(f"{key} must be {kind}, got {v!r}")
    return v


def _parse_float(v, key: str) -> float:
    if isinstance(v, bool) or not isinstance(v, (int, float)) or not math.isfinite(v):
        raise ConfigError(f"{key} must be a finite number, got {v!r}")
    return float(v)


def _check_keys(d, known: set, where: str):
    if not isinstance(d, dict):
        raise ConfigError(f"{where} must be a JSON object")
    unknown = set(d) - known
    if unknown:
        raise ConfigError(f"unknown {where} keys: {sorted(unknown)}")


def config_from_dict(d: dict) -> ExperimentConfig:
    cfg = ExperimentConfig()
    _check_keys(d, {"seed", "dims", "pq_pairs", "trials", "eps", "tol", "search", "output_path"}, "config")
    if "seed" in d:
        cfg.seed = _parse_int(d["seed"], "seed")
    if "dims" in d:
        if not isinstance(d["dims"], list):
            raise ConfigError("dims must be a list of dimensions")
        cfg.dims = [_parse_int(n, "dims entry", 1) for n in d["dims"]]
    if "pq_pairs" in d:
        pairs = d["pq_pairs"]
        if not isinstance(pairs, list) or not all(isinstance(pq, list) and len(pq) == 2 for pq in pairs):
            raise ConfigError("pq_pairs must be a list of [p, q] pairs")
        cfg.pq_pairs = [(_parse_exponent(a), _parse_exponent(b)) for a, b in pairs]
    if "trials" in d:
        cfg.trials = _parse_int(d["trials"], "trials")
    if "eps" in d:
        cfg.eps = _parse_float(d["eps"], "eps")
    if "tol" in d:
        cfg.tol = _parse_float(d["tol"], "tol")
    if "search" in d:
        s = d["search"]
        _check_keys(s, {"restarts", "max_iter", "iter_tol"}, "search")
        cfg.search = SearchConfig(
            multistarts=_parse_int(s.get("restarts", 8), "search.restarts", 1),
            max_iter=_parse_int(s.get("max_iter", 300), "search.max_iter", 1),
            tol=_parse_float(s.get("iter_tol", 1e-10), "search.iter_tol"),
        )
    if "output_path" in d:
        cfg.output_path = str(d["output_path"])
    cfg.validate()
    return cfg


@dataclass
class ResultRow:
    experiment: str
    n: int
    p: float
    q: float
    trial: int
    metric: str
    value: float
    certainty: str
    seed_used: int


def _fmt_exp(p: float) -> str:
    return "inf" if p == INF else f"{p:.17g}"


def row_to_csv(r: ResultRow) -> str:
    return ",".join(
        [
            r.experiment,
            str(r.n),
            _fmt_exp(r.p),
            _fmt_exp(r.q),
            str(r.trial),
            r.metric,
            f"{r.value:.17g}",
            r.certainty,
            str(r.seed_used),
        ]
    )


def _trial_seed(seed: int, label: str, p: float, q: float, n: int, trial: int) -> int:
    key = f"{label}|{_fmt_exp(p)}|{_fmt_exp(q)}|{n}|{trial}".encode()
    return (seed * 0x9E3779B1 + zlib.crc32(key)) & 0x7FFFFFFF


def _rng(seed_used: int) -> np.random.Generator:
    return np.random.default_rng(seed_used)


def _sort_rows(rows: list) -> list:
    return sorted(
        rows, key=lambda r: (r.experiment, r.n, r.p, r.q, r.trial, r.metric)
    )


def _fit_log(ns, values):
    ns = np.asarray(ns, dtype=float)
    values = np.asarray(values, dtype=float)
    design = np.vstack([np.log(ns), np.ones_like(values)]).T
    coef, *_ = np.linalg.lstsq(design, values, rcond=None)
    resid = float(np.sqrt(np.mean((design @ coef - values) ** 2)))
    return float(coef[0]), float(coef[1]), resid


# ---------------------------------------------------------------- truncation


def run_truncation_growth(cfg: ExperimentConfig) -> list:
    label = "truncation_growth"
    rows = []
    fits = {}
    for p, q in cfg.pq_pairs:
        values = []
        for n in cfg.dims:
            seed_used = _trial_seed(cfg.seed, label, p, q, n, 0)
            est = multiplier_norm(
                standard_truncation_mask(n, n, n), p, q, replace(cfg.search, seed=seed_used)
            )
            values.append(est.value)
            rows.append(
                ResultRow(label, n, p, q, 0, "multiplier_norm", est.value, est.certainty, seed_used)
            )
        slope, intercept, resid = _fit_log(cfg.dims, values)
        fits[(p, q)] = (slope, intercept, resid)
        seed_used = _trial_seed(cfg.seed, label, p, q, 0, 0)
        for metric, value in (
            ("fit_slope", slope),
            ("fit_intercept", intercept),
            ("fit_residual", resid),
        ):
            rows.append(ResultRow(label, 0, p, q, 0, metric, value, "derived", seed_used))
    return _sort_rows(rows)


# --------------------------------------------------------------- commutators


def _sample_controlled_operator(rng, n, p, k_cap=K_TARGET, attempts=60):
    """lambda uniform on [-1, 1]; U = I + delta G rejection-sampled (via
    the interpolation upper bound) so that the diagonalizability constant
    is at most k_cap."""
    lam = rng.uniform(-1.0, 1.0, size=n)
    delta = 0.3 / math.sqrt(n)
    for _ in range(attempts):
        g = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        u = np.eye(n) + delta * g
        try:
            u_inv = np.linalg.inv(u)
        except np.linalg.LinAlgError:
            delta *= 0.7
            continue
        if opnorm_upper(u, p) * opnorm_upper(u_inv, p) <= k_cap:
            return DiagonalizableOperator(lam, u, u_inv)
        delta *= 0.8
    return None


def _adversarial_instance(n: int):
    """Diagonal self-adjoint pair whose absolute-value commutator ratio
    grows with n: the divided-difference mask is (j-k)/(j+k) and the
    commutator witness is the Hilbert matrix 1/(j+k-1)."""
    j = np.arange(1.0, n + 1)
    lam = j / n
    mu = -j / n
    R = 1.0 / (j[None, :] + j[:, None] - 1.0)
    denom = mu[:, None] - lam[None, :]
    S = R / denom
    a = DiagonalizableOperator.diagonal(lam)
    b = DiagonalizableOperator.diagonal(mu)
    return a, b, S


def run_commutator_ratios(cfg: ExperimentConfig) -> list:
    label = "commutator_ratios"
    rows = []
    for p, q in cfg.pq_pairs:
        exact_pair = p == 1.0 or q == INF or (p == 2.0 and q == 2.0)
        for n in cfg.dims:
            if p == 2.0 and q == 2.0:
                seed_used = _trial_seed(cfg.seed, label, p, q, n, 0)
                a, b, S = _adversarial_instance(n)
                rep = commutator_transform(
                    a, b, S, abs, p, q, replace(cfg.search, seed=seed_used),
                    diagonal=1.0, with_constants=False,
                )
                rows.append(
                    ResultRow(
                        label, n, p, q, 0, "adversarial_normalized_ratio",
                        rep.ratio, rep.norms_meta["lhs"], seed_used,
                    )
                )
            for trial in range(cfg.trials):
                seed_used = _trial_seed(cfg.seed, label, p, q, n, trial)
                rng = _rng(seed_used)
                search = replace(cfg.search, seed=seed_used)
                a = _sample_controlled_operator(rng, n, p)
                b = _sample_controlled_operator(rng, n, q)
                if a is None or b is None:
                    rows.append(
                        ResultRow(label, n, p, q, trial, "rejection_exhausted", 1.0, "flagged", seed_used)
                    )
                    continue
                S = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
                k_a = diagonalizability_constant(a, p, search, restarts=2, max_sweeps=6).value
                k_b = diagonalizability_constant(b, q, search, restarts=2, max_sweeps=6).value
                rep = commutator_transform(
                    a, b, S, abs, p, q, search, diagonal=1.0, with_constants=False
                )
                certainty = EXACT if exact_pair else "lower_bound"
                # The random witness concentrates below the extremal ratio as
                # n grows; the single-entry witness S = V^{-1}(C/(mu-lambda))U
                # with C a unit matrix at argmax|phi| achieves the ratio
                # max|phi_f| exactly, so the per-trial estimate is the better
                # of the two.
                phi = np.abs(abs_divided_difference(a.lambdas, b.lambdas))
                phi[b.lambdas[:, None] == a.lambdas[None, :]] = 0.0  # no witness there
                norm_ratio = max(rep.ratio, float(phi.max())) / (k_a * k_b)
                rows.append(
                    ResultRow(label, n, p, q, trial, "normalized_ratio", norm_ratio, certainty, seed_used)
                )
                ctrl = commutator_transform(
                    a, b, S, lambda t: t, p, q, search, diagonal=1.0, with_constants=False
                )
                rows.append(
                    ResultRow(label, n, p, q, trial, "identity_ratio", ctrl.ratio, certainty, seed_used)
                )
    return _sort_rows(rows)


# -------------------------------------------------------------- p=q=2 mixed


def _random_unitary(rng, n):
    g = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    qmat, r = np.linalg.qr(g)
    return qmat * (np.diag(r) / np.abs(np.diag(r)))[None, :]


def run_p2q2_mixed(cfg: ExperimentConfig) -> list:
    label = "p2q2_mixed"
    rows = []
    p = q = 2.0
    for n in cfg.dims:
        for trial in range(cfg.trials):
            seed_used = _trial_seed(cfg.seed, label, p, q, n, trial)
            rng = _rng(seed_used)
            search = replace(cfg.search, seed=seed_used)
            lam = rng.uniform(-1.0, 1.0, size=n)
            mu = rng.uniform(-1.0, 1.0, size=n)
            u = _random_unitary(rng, n)
            v = _random_unitary(rng, n)
            a = DiagonalizableOperator(lam, u, u.conj().T)
            b = DiagonalizableOperator(mu, v, v.conj().T)
            A, B = assemble(a), assemble(b)
            abs_a = a.u_inv @ np.diag(np.abs(lam)) @ a.u
            abs_b = b.u_inv @ np.diag(np.abs(mu)) @ b.u
            lhs = opnorm(abs_b - abs_a, 2.0, 2.0, search)
            mid = b.u @ (B - A) @ a.u_inv
            m1 = opnorm(mid, 2.0, 2.0 - cfg.eps, search)
            m2 = opnorm(mid, 2.0 + cfg.eps, 2.0, search)
            best = min(m1.value, m2.value)
            implied = lhs.value / best if best > 1e-14 else math.inf
            for metric, value, cert in (
                ("lhs_norm", lhs.value, lhs.certainty),
                ("mixed_2_to_2meps", m1.value, m1.certainty),
                ("mixed_2peps_to_2", m2.value, m2.certainty),
                ("implied_constant", implied, "derived"),
            ):
                rows.append(ResultRow(label, n, p, q, trial, metric, value, cert, seed_used))
    return _sort_rows(rows)


# ----------------------------------------------------------------- psumming


def run_psumming_check(cfg: ExperimentConfig) -> list:
    label = "psumming_check"
    rows = []
    ps = sorted({p for p, _ in cfg.pq_pairs if 1.0 < p < INF} | {p for _, p in cfg.pq_pairs if 1.0 < p < INF})
    if not ps:
        ps = [1.5, 2.0, 3.0]
    for p in ps:
        ctx = PSummingContext(p)
        for n in cfg.dims:
            for trial in range(cfg.trials):
                seed_used = _trial_seed(cfg.seed, label, p, p, n, trial)
                rng = _rng(seed_used)
                search = replace(cfg.search, seed=seed_used)
                a = _sample_controlled_operator(rng, n, ctx.pstar)
                b = _sample_controlled_operator(rng, n, ctx.p)
                if a is None or b is None:
                    rows.append(
                        ResultRow(label, n, p, p, trial, "rejection_exhausted", 1.0, "flagged", seed_used)
                    )
                    continue
                S = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
                for tag, f in (("abs", abs), ("identity", lambda t: t)):
                    res = lipschitz_commutator_check(a, b, S, f, 1.0, ctx, search)
                    if not res["satisfied"]:
                        raise ViolationError(
                            "p-summing commutator bound violated",
                            {
                                "p": p, "n": n, "trial": trial, "f": tag,
                                "lhs": res["lhs"], "bound": res["bound"],
                                "lambda": a.lambdas.tolist(), "mu": b.lambdas.tolist(),
                                "seed_used": seed_used,
                            },
                        )
                    tight = res["lhs"] / res["bound"] if res["bound"] > 0 else 0.0
                    rows.append(
                        ResultRow(label, n, p, p, trial, f"satisfied_{tag}", 1.0, "exact", seed_used)
                    )
                    rows.append(
                        ResultRow(label, n, p, p, trial, f"tightness_{tag}", tight, "exact", seed_used)
                    )
    return _sort_rows(rows)


# ------------------------------------------------------------- doi identity


def run_doi_identity(cfg: ExperimentConfig) -> list:
    label = "doi_identity"
    rows = []
    for n in cfg.dims:
        for trial in range(cfg.trials):
            seed_used = _trial_seed(cfg.seed, label, 2.0, 2.0, n, trial)
            rng = _rng(seed_used)
            search = replace(cfg.search, seed=seed_used)
            lam = rng.uniform(-1.0, 1.0, size=n)
            mu = rng.uniform(-1.0, 1.0, size=n)
            collision = trial % 3 == 1 and n >= 2
            if collision:
                lam[: n // 2 + 1] = lam[0]
                mu[0] = lam[0]
            delta = 0.3 / math.sqrt(n)
            u = np.eye(n) + delta * (rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)))
            v = np.eye(n) + delta * (rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)))
            a = DiagonalizableOperator(lam, u, np.linalg.inv(u))
            b = DiagonalizableOperator(mu, v, np.linalg.inv(v))
            S = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
            f = abs if trial % 4 else (lambda t: t)
            rep = commutator_transform(a, b, S, f, 2.0, 2.0, search, diagonal=1.0, with_constants=False)
            scale = 1.0 + np.abs(S).max() * (1.0 + np.abs(assemble(a)).max() + np.abs(assemble(b)).max())
            if rep.identity_residual > cfg.tol * scale:
                raise ViolationError(
                    "DOI identity residual exceeded tolerance",
                    {
                        "n": n, "trial": trial, "residual": rep.identity_residual,
                        "allowed": cfg.tol * scale, "collision": collision,
                        "seed_used": seed_used,
                    },
                )
            rows.append(
                ResultRow(label, n, 2.0, 2.0, trial, "identity_residual", rep.identity_residual, "exact", seed_used)
            )
    return _sort_rows(rows)


RUNNERS = {
    "truncation-growth": run_truncation_growth,
    "commutator-ratios": run_commutator_ratios,
    "p2q2-mixed": run_p2q2_mixed,
    "psumming-check": run_psumming_check,
    "doi-identity": run_doi_identity,
}


def run_all(cfg: ExperimentConfig) -> list:
    rows = []
    for name in sorted(RUNNERS):
        rows.extend(RUNNERS[name](cfg))
    return rows


def rows_to_csv(rows: list) -> str:
    return "\n".join([CSV_HEADER, *[row_to_csv(r) for r in rows]]) + "\n"


def write_outputs(rows: list, cfg: ExperimentConfig, out_path: str | None = None):
    path = out_path or cfg.output_path
    with open(path, "w") as fh:
        fh.write(rows_to_csv(rows))
    summary = {
        "config": {
            "seed": cfg.seed,
            "dims": cfg.dims,
            "pq_pairs": [[_fmt_exp(p), _fmt_exp(q)] for p, q in cfg.pq_pairs],
            "trials": cfg.trials,
            "eps": cfg.eps,
            "tol": cfg.tol,
        },
        "fits": {},
        "row_count": len(rows),
    }
    for r in rows:
        if r.metric.startswith("fit_"):
            summary["fits"].setdefault(f"({_fmt_exp(r.p)},{_fmt_exp(r.q)})", {})[r.metric] = r.value
    with open(path + ".summary.json", "w") as fh:
        json.dump(summary, fh, indent=2, sort_keys=True)
    return path
