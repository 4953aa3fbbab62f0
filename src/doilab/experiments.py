"""Seeded experiment harness reproducing the norm-growth and commutator
dichotomies, with deterministic CSV/JSON output.

Every trial derives its own generator from (seed, experiment label,
p, q, n, trial), so runs are reproducible row by row and experiments can
be executed in any order.
"""

from __future__ import annotations

import json
import math
import os
import sys
import threading
import zlib
from dataclasses import dataclass, field

import numpy as np

from .norms import (
    EXACT, INF, LOWER_BOUND, UPPER_BOUND, SearchConfig, check_exponent, opnorm, opnorm_upper, opnorm_uppers, opnorms,
)
from .schur import multiplier_norms, standard_truncation_mask
from .spectral import DiagonalizableOperator, assemble, diagonalizability_constant, functional_calculus
from .doi import RHS_ZERO_CUTOFF, commutator_transform
from .psumming import PSummingContext, lipschitz_commutator_check

# a sampled operator's bound on K is at most K_TARGET by construction
K_TARGET = 2.0
# MIXED_EPS is the eps of p2q2-mixed's norms from l_2 to l_{2-eps} and from
# l_{2+eps} to l_2; IDENTITY_TOL is doi-identity's bound on the DOI identity
# residual, relative to the scale of the instance
MIXED_EPS = 0.5
IDENTITY_TOL = 1e-9
CSV_HEADER = "experiment,n,p,q,trial,metric,value,certainty,seed_used"


class ConfigError(ValueError):
    """Bad experiment configuration."""


class ViolationError(RuntimeError):
    """An assertion-bearing experiment produced a violating instance."""

    def __init__(self, message: str, dump: dict):
        super().__init__(message)
        self.dump = dump

    def __reduce__(self):
        # the default rebuilds from self.args alone, which lacks `dump`
        return type(self), (self.args[0], self.dump)


@dataclass
class ExperimentConfig:
    seed: int = 12345
    dims: list = field(default_factory=lambda: [2, 4, 8, 16])
    pq_pairs: list = field(default_factory=lambda: [(1.0, 2.0), (1.0, INF), (2.0, 2.0)])
    trials: int = 20
    restarts: int = SearchConfig().multistarts
    output_path: str = "results.csv"


def _parse_exponent(v) -> float:
    """A JSON number that `check_exponent` accepts, or the string "inf" or
    "infinity" in any case; anything else is a ConfigError."""
    if isinstance(v, str):
        if v.lower() in ("inf", "infinity"):
            return INF
        raise ConfigError(f'exponent {v!r} is neither a number nor "inf"')
    if isinstance(v, bool):
        raise ConfigError(f"exponent {v!r} is not a number")
    try:
        return check_exponent(v)
    except (TypeError, ValueError, OverflowError) as exc:  # an integer too large for a float overflows
        raise ConfigError(f"exponent {v!r}: {exc}") from exc


def _parse_int(v, key: str, minimum: int | None = None) -> int:
    if isinstance(v, bool) or not isinstance(v, int) or (minimum is not None and v < minimum):
        kind = "an integer" if minimum is None else f"an integer >= {minimum}"
        raise ConfigError(f"{key} must be {kind}, got {v!r}")
    return v


def _check_keys(d, known: set, where: str):
    if not isinstance(d, dict):
        raise ConfigError(f"{where} must be a JSON object")
    unknown = set(d) - known
    if unknown:
        raise ConfigError(f"unknown {where} keys: {sorted(unknown)}")


def config_from_dict(d: dict) -> ExperimentConfig:
    cfg = ExperimentConfig()
    _check_keys(d, {"seed", "dims", "pq_pairs", "trials", "search", "output_path"}, "config")
    if "seed" in d:
        cfg.seed = _parse_int(d["seed"], "seed")
    if "dims" in d:
        if not isinstance(d["dims"], list) or not d["dims"]:
            raise ConfigError("dims must be a nonempty list of dimensions")
        cfg.dims = [_parse_int(n, "dims entry", 1) for n in d["dims"]]
        if len(set(cfg.dims)) < len(cfg.dims):
            raise ConfigError(f"dims has a duplicate entry: {cfg.dims}")
    if "pq_pairs" in d:
        pairs = d["pq_pairs"]
        if not isinstance(pairs, list) or not all(isinstance(pq, list) and len(pq) == 2 for pq in pairs):
            raise ConfigError("pq_pairs must be a list of [p, q] pairs")
        cfg.pq_pairs = [(_parse_exponent(a), _parse_exponent(b)) for a, b in pairs]
        if len(set(cfg.pq_pairs)) < len(cfg.pq_pairs):
            raise ConfigError(f"pq_pairs has a duplicate pair: {pairs}")
    if "trials" in d:
        cfg.trials = _parse_int(d["trials"], "trials", 1)
    if "search" in d:
        s = d["search"]
        _check_keys(s, {"restarts"}, "search")
        if "restarts" in s:
            cfg.restarts = _parse_int(s["restarts"], "search.restarts", 1)
    if "output_path" in d:
        if not isinstance(d["output_path"], str) or not d["output_path"]:
            raise ConfigError(f"output_path must be a nonempty string, got {d['output_path']!r}")
        cfg.output_path = d["output_path"]
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


@dataclass
class _Trial:
    """One seeded trial: the key of its rows, the norm-search config seeded
    by it, and the one generator its random draws come from."""

    label: str
    n: int
    p: float
    q: float
    trial: int
    seed_used: int
    search: SearchConfig
    rng: np.random.Generator

    def row(self, metric: str, value: float, certainty: str) -> ResultRow:
        return ResultRow(
            self.label, self.n, self.p, self.q, self.trial, metric, value, certainty, self.seed_used
        )


def _trial(cfg: ExperimentConfig, label: str, p: float, q: float, n: int, trial: int) -> _Trial:
    seed_used = _trial_seed(cfg.seed, label, p, q, n, trial)
    return _Trial(
        label, n, p, q, trial, seed_used,
        SearchConfig(cfg.restarts, seed_used), np.random.default_rng(seed_used),
    )


def _trials(cfg: ExperimentConfig, label: str, p: float, q: float):
    """The trials of one (p, q) over dims x trials, dims outermost."""
    for n in cfg.dims:
        for trial in range(cfg.trials):
            yield _trial(cfg, label, p, q, n, trial)


def _certainty(*tags: str) -> str:
    """Tag of a value computed from estimates with these tags: exact when
    all are, otherwise lower_bound. That holds for a lower bound divided by
    exact values or upper bounds; a ratio of two lower bounds is neither a
    lower nor an upper bound, and callers must not tag one with this."""
    return EXACT if all(t == EXACT for t in tags) else LOWER_BOUND


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


def _complex_gaussian(rng, n):
    """n x n standard complex Gaussians, the real part drawn first."""
    return rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))


# ---------------------------------------------------------------- truncation


def _truncation_rows(cfg: ExperimentConfig, n: int) -> list:
    """The rows of one n: one `multiplier_norms` call on the n x n staircase
    holds every pair, each with its own seeded search, so the witness set
    is built once per n."""
    label = "truncation_growth"
    trials = [_trial(cfg, label, p, q, n, 0) for p, q in cfg.pq_pairs]
    ests = multiplier_norms(standard_truncation_mask(n, n, n), cfg.pq_pairs, [t.search for t in trials])
    rows = []
    for t, est in zip(trials, ests):
        rows.append(t.row("multiplier_norm", est.value, est.certainty))
        if est.certainty == LOWER_BOUND and est.upper is not None:
            rows.append(t.row("multiplier_norm_upper", est.upper, UPPER_BOUND))
    return rows


def run_truncation_growth(cfg: ExperimentConfig) -> list:
    """The rows of each n, fanned out over the CPUs largest n first, since
    the largest staircase takes the longest; a failure is thus reported for
    the largest failing n. A lower-bound estimate that carries an upper
    bound (at (2,2), the Haagerup bound of the S_1 alternation) also gets a
    `multiplier_norm_upper` row. The m x m staircase is a corner of the
    n x n one for m <= n, so its norm is at most theirs: each lower-bound
    `multiplier_norm` row at n reports the largest row of its pair at every
    m <= n in dims (the witness of m, zero-padded, certifies it). Each
    pair's norms are fitted against ln n, in `cfg.dims` order, when dims
    has at least two entries."""
    per_n = _fan_out(lambda n: _truncation_rows(cfg, n), sorted(cfg.dims, reverse=True))
    rows = [r for n_rows in per_n for r in n_rows]
    norms = [r for r in rows if r.metric == "multiplier_norm"]
    for r in norms:
        if r.certainty == LOWER_BOUND:
            r.value = max(s.value for s in norms if (s.p, s.q) == (r.p, r.q) and s.n <= r.n)
    if len(cfg.dims) >= 2:
        norm = {(r.p, r.q, r.n): r.value for r in norms}
        for p, q in cfg.pq_pairs:
            fit = _trial(cfg, "truncation_growth", p, q, 0, 0)
            vals = [norm[p, q, n] for n in cfg.dims]
            for metric, value in zip(("fit_slope", "fit_intercept", "fit_residual"), _fit_log(cfg.dims, vals)):
                rows.append(fit.row(metric, value, "derived"))
    return _sort_rows(rows)


# --------------------------------------------------------------- commutators


def _sample_controlled_operator(rng, n, p):
    """lambda uniform on [-1, 1] and U = I + (c / opnorm_upper(G)) G for one
    complex Gaussian G, with c = (K_TARGET - 1) / (K_TARGET + 1) = 1/3.
    Since opnorm_upper bounds the p -> p norm, E = U - I has
    ||E||_p <= c < 1, and the Neumann series gives ||U||_p <= 1 + c and
    ||U^{-1}||_p <= 1 / (1 - c). So U is invertible, and the
    diagonalizability constant K_p <= ||U||_p ||U^{-1}||_p is at most
    (1 + c) / (1 - c) = K_TARGET at every p, interior p included, with
    one draw and one inverse per operator. opnorm_upper is rounded to
    nearest, not outward, so this holds up to a few ulps: K_TARGET is a
    sampling target, not a reported bound."""
    lam = rng.uniform(-1.0, 1.0, size=n)
    g = _complex_gaussian(rng, n)
    c = (K_TARGET - 1.0) / (K_TARGET + 1.0)
    u = np.eye(n) + (c / opnorm_upper(g, p, p)) * g
    return DiagonalizableOperator(lam, u, np.linalg.inv(u))


def _sampled_instance(rng, n: int, pa: float, pb: float):
    """(A, B, S): A sampled at exponent pa, then B at pb, then a complex
    Gaussian S."""
    a = _sample_controlled_operator(rng, n, pa)
    b = _sample_controlled_operator(rng, n, pb)
    return a, b, _complex_gaussian(rng, n)


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


def _commutator_rows(item) -> list:
    """The rows of one (trial, adversarial) item: the adversarial
    instance's ratio, or a sampled instance's normalized and identity
    ratios."""
    t, adversarial = item
    p, q = t.p, t.q
    if adversarial:
        [rep] = commutator_transform(*_adversarial_instance(t.n), [abs], p, q, t.search)
        return [t.row("adversarial_normalized_ratio", rep.ratio, rep.norms_meta["lhs"])]
    a, b, S = _sampled_instance(t.rng, t.n, p, q)
    k_a = diagonalizability_constant(a, p)
    k_b = diagonalizability_constant(b, q)
    rep, ctrl = commutator_transform(a, b, S, [abs, lambda x: x], p, q, t.search)
    # The random witness concentrates below the extremal ratio as
    # n grows; the single-entry witness S = V^{-1}(C/(mu-lambda))U
    # with C a unit matrix at argmax|phi| achieves the ratio
    # max|phi_f| exactly, so the per-trial estimate is the better
    # of the two.
    phi = np.abs(rep.phi)
    phi[b.lambdas[:, None] == a.lambdas[None, :]] = 0.0  # no witness there
    # ratio_lower divides by an upper bound on ||BS - SA|| where that
    # norm has no exact branch, and dividing by a K that is only an
    # upper bound also gives a lower bound
    norm_ratio = max(rep.ratio_lower, float(phi.max())) / (k_a.value * k_b.value)
    # lhs and rhs of the identity control are one matrix: off the
    # exact branches its ratio is one estimate divided by itself
    ctrl_tag = _certainty(*ctrl.norms_meta.values())
    return [
        t.row(
            "normalized_ratio", norm_ratio,
            _certainty(*rep.norms_meta.values(), k_a.certainty, k_b.certainty),
        ),
        t.row("identity_ratio", ctrl.ratio, ctrl_tag if ctrl_tag == EXACT else "derived"),
    ]


def run_commutator_ratios(cfg: ExperimentConfig) -> list:
    """The rows of every trial, fanned out over the CPUs: at (2,2) one
    adversarial trial per n, and a sampled instance per trial at every
    pair."""
    label = "commutator_ratios"
    items = []
    for p, q in cfg.pq_pairs:
        if p == 2.0 and q == 2.0:
            items += [(_trial(cfg, label, p, q, n, 0), True) for n in cfg.dims]
        items += [(t, False) for t in _trials(cfg, label, p, q)]
    return _sort_rows([r for rows in _fan_out(_commutator_rows, items) for r in rows])


# -------------------------------------------------------------- p=q=2 mixed


def _random_unitary(rng, n):
    qmat, r = np.linalg.qr(_complex_gaussian(rng, n))
    return qmat * (np.diag(r) / np.abs(np.diag(r)))[None, :]


def run_p2q2_mixed(cfg: ExperimentConfig) -> list:
    """Per n, every trial's two mixed norms run as one power-iteration block
    per exponent pair, each trial with its own seeded search."""
    rows = []
    for n in cfg.dims:
        trials = [_trial(cfg, "p2q2_mixed", 2.0, 2.0, n, k) for k in range(cfg.trials)]
        lhs, mids = [], []
        for t in trials:
            rng = t.rng
            lam = rng.uniform(-1.0, 1.0, size=n)
            mu = rng.uniform(-1.0, 1.0, size=n)
            u = _random_unitary(rng, n)
            v = _random_unitary(rng, n)
            a = DiagonalizableOperator(lam, u, u.conj().T)
            b = DiagonalizableOperator(mu, v, v.conj().T)
            A, B = assemble(a), assemble(b)
            lhs.append(opnorm(functional_calculus(b, abs) - functional_calculus(a, abs), 2.0, 2.0))
            mids.append(b.u @ (B - A) @ a.u_inv)
        searches = [t.search for t in trials]
        m1s = opnorms(mids, 2.0, 2.0 - MIXED_EPS, searches)
        m2s = opnorms(mids, 2.0 + MIXED_EPS, 2.0, searches)
        for t, lhs_t, mid, m1, m2 in zip(trials, lhs, mids, m1s, m2s):
            best = min(m1.value, m2.value)
            implied = lhs_t.value / best if best > RHS_ZERO_CUTOFF else math.inf
            # any C with lhs <= C min(mixed norms) is at least the exact lhs
            # over the smaller certified upper bound on a mixed norm
            upper = min(opnorm_uppers(mid, [(2.0, 2.0 - MIXED_EPS), (2.0 + MIXED_EPS, 2.0)]))
            implied_lower = lhs_t.value / upper if upper > RHS_ZERO_CUTOFF else math.inf
            rows.append(t.row("lhs_norm", lhs_t.value, lhs_t.certainty))
            rows.append(t.row("mixed_2_to_2meps", m1.value, m1.certainty))
            rows.append(t.row("mixed_2peps_to_2", m2.value, m2.certainty))
            rows.append(t.row("implied_constant", implied, "derived"))
            rows.append(t.row("implied_constant_lower", implied_lower, LOWER_BOUND))
    return _sort_rows(rows)


# ----------------------------------------------------------------- psumming


def _psumming_rows(t: _Trial) -> list:
    """The rows of one trial at p = t.p; a violated bound raises
    `ViolationError` with the instance."""
    ctx = PSummingContext(t.p)
    a, b, S = _sampled_instance(t.rng, t.n, ctx.pstar, ctx.p)
    rows = []
    results = lipschitz_commutator_check(a, b, S, (abs, lambda x: x), ctx)
    for tag, res in zip(("abs", "identity"), results):
        if not res["satisfied"]:
            raise ViolationError(
                "p-summing commutator bound violated",
                {
                    "p": t.p, "n": t.n, "trial": t.trial, "f": tag,
                    "lhs": res["lhs"], "bound": res["bound"],
                    "lambda": a.lambdas.tolist(), "mu": b.lambdas.tolist(),
                    "seed_used": t.seed_used,
                },
            )
        tight = res["lhs"] / res["bound"] if res["bound"] > 0 else 0.0
        rows.append(t.row(f"satisfied_{tag}", 1.0, "exact"))
        # lhs over an upper bound on the bound is a lower bound
        rows.append(t.row(f"tightness_{tag}", tight, _certainty(res["bound_certainty"])))
    return rows


def run_psumming_check(cfg: ExperimentConfig) -> list:
    """The rows of every trial at each interior exponent of the pairs,
    fanned out over the CPUs."""
    ps = sorted({p for pq in cfg.pq_pairs for p in pq if 1.0 < p < INF})
    trials = [t for p in ps for t in _trials(cfg, "psumming_check", p, p)]
    return _sort_rows([r for rows in _fan_out(_psumming_rows, trials) for r in rows])


# ------------------------------------------------------------- doi identity


def run_doi_identity(cfg: ExperimentConfig) -> list:
    rows = []
    for t in _trials(cfg, "doi_identity", 2.0, 2.0):
        rng, n = t.rng, t.n
        lam = rng.uniform(-1.0, 1.0, size=n)
        mu = rng.uniform(-1.0, 1.0, size=n)
        collision = t.trial % 3 == 1 and n >= 2
        if collision:
            lam[: n // 2 + 1] = lam[0]
            mu[0] = lam[0]
        delta = 0.3 / math.sqrt(n)
        a = DiagonalizableOperator.from_u(lam, np.eye(n) + delta * _complex_gaussian(rng, n))
        b = DiagonalizableOperator.from_u(mu, np.eye(n) + delta * _complex_gaussian(rng, n))
        S = _complex_gaussian(rng, n)
        f = abs if t.trial % 4 else (lambda x: x)
        [rep] = commutator_transform(a, b, S, [f], 2.0, 2.0, t.search)
        scale = 1.0 + np.abs(S).max() * (1.0 + np.abs(assemble(a)).max() + np.abs(assemble(b)).max())
        if rep.identity_residual > IDENTITY_TOL * scale:
            raise ViolationError(
                "DOI identity residual exceeded tolerance",
                {
                    "n": n, "trial": t.trial, "residual": rep.identity_residual,
                    "allowed": IDENTITY_TOL * scale, "collision": collision,
                    "seed_used": t.seed_used,
                },
            )
        rows.append(t.row("identity_residual", rep.identity_residual, "exact"))
    return _sort_rows(rows)


RUNNERS = {
    "truncation-growth": run_truncation_growth,
    "commutator-ratios": run_commutator_ratios,
    "p2q2-mixed": run_p2q2_mixed,
    "psumming-check": run_psumming_check,
    "doi-identity": run_doi_identity,
}


# True in every process of a running fan-out, so that a fan-out started
# inside it runs serially and the processes stay one per CPU
_fanned_out = False


def _worker_count(tasks: int) -> int:
    """Processes that `_fan_out` runs its `tasks` tasks in: one per CPU in
    this process's affinity mask, at most one per task. One inside another
    fan-out, and where fork is not safe: off Linux, and while other Python
    threads run, since a lock that one of them holds would stay held in a
    forked child."""
    if _fanned_out or sys.platform != "linux" or threading.active_count() > 1:
        return 1
    return min(tasks, len(os.sched_getaffinity(0)))


def _take(fn, items: list, next_item) -> list:
    """Compute fn(items[i]) for each index i taken from the shared counter
    `next_item` until it passes the last item; returns [(i, result or the
    exception fn raised)]. After a failure this process moves the counter
    past the last item, so that no process starts another."""
    done = []
    while True:
        with next_item.get_lock():
            i = next_item.value
            next_item.value = i + 1
        if i >= len(items):
            return done
        try:
            done.append((i, fn(items[i])))
        except Exception as exc:
            done.append((i, exc))
            with next_item.get_lock():
                next_item.value = len(items)
            return done


def _fan_out_child(fn, items: list, next_item, conn):
    conn.send(_take(fn, items, next_item))
    conn.close()


def _fan_out(fn, items) -> list:
    """[fn(x) for x in items], computed in `_worker_count(len(items))`
    processes: this one and one forked child per further CPU, each taking
    the next item in order when it is free. The items must share no state
    that fn changes (every trial seeds its own generator); then the results
    are those of the loop. Items start in order, so when some fail, every
    item before the first of them has run to its end; that first failure is
    raised, as the loop would raise it. No child outlives the call."""
    global _fanned_out
    items = list(items)
    workers = _worker_count(len(items))
    if workers < 2:
        return [fn(x) for x in items]
    import multiprocessing  # not at module level: about 20 ms and 0.4 MB that a serial run does not need

    ctx = multiprocessing.get_context("fork")
    next_item = ctx.Value("q", 0)
    children = []
    _fanned_out = True  # before the forks, so that the children inherit it
    try:
        for _ in range(workers - 1):
            recv, send = ctx.Pipe(duplex=False)
            child = ctx.Process(target=_fan_out_child, args=(fn, items, next_item, send))
            child.start()
            send.close()  # so that recv sees EOF once the child exits
            children.append((child, recv))
        done = _take(fn, items, next_item)
        for child, recv in children:
            try:
                done += recv.recv()
            except EOFError:
                raise RuntimeError(f"fan-out worker {child.pid} exited without its results") from None
    except BaseException:
        for child, _ in children:
            child.terminate()
        raise
    finally:
        _fanned_out = False
        for child, recv in children:
            child.join()
            recv.close()
    done.sort(key=lambda item: item[0])
    for _, out in done:
        if isinstance(out, Exception):
            raise out
    return [out for _, out in done]


def run_all(cfg: ExperimentConfig) -> list:
    """The rows of every runner, joined in sorted name order. The runners
    share no state, so they are fanned out over the CPUs; the fan-outs
    inside them then run serially."""
    return [r for rows in _fan_out(lambda name: RUNNERS[name](cfg), sorted(RUNNERS)) for r in rows]


def rows_to_csv(rows: list) -> str:
    return "\n".join([CSV_HEADER, *[row_to_csv(r) for r in rows]]) + "\n"


def write_outputs(rows: list, cfg: ExperimentConfig, path: str):
    """Write the CSV to `path` and its summary to `<path>.summary.json`,
    both or neither: each goes to a temporary file in the target directory
    first. Only once both writes have succeeded are the existing summary
    and CSV unlinked, in that order, and the temporary files renamed into
    place, the summary first. A failure before the unlinks leaves the
    previous outputs untouched; one from the first unlink on leaves
    neither output. Either way no temporary file is left. The temporary
    files get short random names and are created by `open`, so the
    outputs get its mode (0o666 less the umask).

    No rename lands on an existing name and no existing file is opened
    for writing: ext4 (with its default `auto_da_alloc`) flushes the new
    file's blocks on either, which made a rerun into the same path take
    tens of milliseconds per output. Without that implicit flush, and with
    no fsync, an output may be missing or empty after a power loss; every
    output can be rebuilt exactly from its config and seed."""
    summary = {
        "config": {
            "seed": cfg.seed,
            "dims": cfg.dims,
            "pq_pairs": [[_fmt_exp(p), _fmt_exp(q)] for p, q in cfg.pq_pairs],
            "trials": cfg.trials,
            "restarts": cfg.restarts,
            "eps": MIXED_EPS,
            "tol": IDENTITY_TOL,
        },
        "fits": {},
        "row_count": len(rows),
    }
    for r in rows:
        if r.metric.startswith("fit_"):
            summary["fits"].setdefault(f"({_fmt_exp(r.p)},{_fmt_exp(r.q)})", {})[r.metric] = r.value
    directory = os.path.dirname(path) or "."
    targets = (path, path + ".summary.json")
    # the files this call made, each a temporary file until it is renamed
    made = []
    try:
        for text in (rows_to_csv(rows), json.dumps(summary, indent=2, sort_keys=True)):
            tmp = os.path.join(directory, f".{os.urandom(6).hex()}.tmp")
            with open(tmp, "x") as fh:
                made.append(tmp)
                fh.write(text)
        for i in (1, 0):
            try:
                os.remove(targets[i])
            except FileNotFoundError:
                pass
        for i in (1, 0):
            os.rename(made[i], targets[i])
            made[i] = targets[i]
    except BaseException:
        for name in made:
            if os.path.exists(name):
                os.remove(name)
        raise
    return path
