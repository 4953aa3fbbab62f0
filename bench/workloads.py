"""The benchmark workloads: the config each one runs, how it calls the
package on one input set, the checks on its CSV output, and the rows that
feed bound_tightness.

Why each workload is in the benchmark (BENCHMARK.json repeats this):
- commutator: criterion-6 shape; the diagonalizability constant K at
  p in {1, 2, inf} takes ~90% of the time and every opnorm is exact.
- truncation: criterion-5 shape plus (3, 1.5); ~99% is opnorm on
  triangular masks up to n=128, and nothing calls the spectral layer.
- psumming: K at interior p only and no opnorm at all, so a change for
  p in {1, inf} must leave it alone.
- cli_default: `doilab all` through cli.main, the only workload through
  config parsing and the CSV/JSON writers; many small power iterations.
"""

from __future__ import annotations

import contextlib
import functools
import io
import json
import math
import time
from dataclasses import dataclass
from typing import Callable

import numpy as np

from doilab import cli, experiments, schur

KNOWN_CERTAINTY = {"exact", "lower_bound", "upper_bound", "derived", "flagged"}


class Checks:
    """Counts output checks and keeps a line for each one that failed.

    `expect` is a correctness check: it holds for every correct output at
    every seed, and a failure makes the run's result incorrect. `target` is
    an acceptance-criterion target on how tight the certified bounds are; a
    looser bound is still a valid one, so a miss is counted in failed_share
    and printed, but it does not make the result incorrect."""

    def __init__(self):
        self.attempted = 0
        self.failures: list = []
        self.targets = 0
        self.missed: list = []

    def expect(self, ok: bool, what: str):
        self.attempted += 1
        if not ok:
            self.failures.append(what)

    def target(self, ok: bool, what: str):
        self.targets += 1
        if not ok:
            self.missed.append(what)

    def failed_share(self) -> float:
        """Failed checks and missed targets over all of them."""
        return (len(self.failures) + len(self.missed)) / (self.attempted + self.targets)


def parse_csv(text: str) -> list:
    """CSV rows as dicts with numeric fields converted; `line` keeps the raw row."""
    lines = text.splitlines()
    if not lines or lines[0] != experiments.CSV_HEADER:
        raise ValueError("CSV header missing or changed")
    rows = []
    for line in lines[1:]:
        experiment, n, p, q, trial, metric, value, certainty, seed_used = line.split(",")
        rows.append({
            "experiment": experiment, "n": int(n), "p": float(p), "q": float(q),
            "trial": int(trial), "metric": metric, "value": float(value),
            "certainty": certainty, "line": line,
        })
    return rows


def instances(rows: list) -> int:
    """Distinct (experiment, n, p, q, trial) inputs behind the rows."""
    return len({(r["experiment"], r["n"], r["p"], r["q"], r["trial"]) for r in rows if r["n"] > 0})


def check_rows(rows: list, checks: Checks):
    """Checks every workload's rows get."""
    for r in rows:
        checks.expect(math.isfinite(r["value"]), f"non-finite value: {r['line']}")
        checks.expect(r["certainty"] in KNOWN_CERTAINTY, f"unknown certainty: {r['line']}")
        checks.expect(r["metric"] != "rejection_exhausted", f"rejection exhausted: {r['line']}")


def _check_commutator(rows: list, checks: Checks):
    for r in rows:
        if r["metric"] == "identity_ratio":
            checks.expect(r["value"] == 1.0, f"identity_ratio != 1: {r['line']}")
        elif r["metric"] == "normalized_ratio":
            # p = 1: ratio <= K_A K_B max|Phi| and max|Phi| <= 1 for |.|
            checks.expect(r["value"] <= 1.0 + 1e-9, f"normalized_ratio > 1: {r['line']}")


@functools.lru_cache(maxsize=None)
def hilbert_floor(n: int) -> float:
    """||T_n o H|| / ||H|| on l_2 for the Hilbert-type witness H, which
    multiplier_norm always tries: a seed-free floor under the (2,2) rows."""
    h = schur.hilbert_type_witness(n, n)
    mask = schur.standard_truncation_mask(n, n, n)
    return float(np.linalg.norm(mask * h, 2) / np.linalg.norm(h, 2))


def _check_truncation(rows: list, checks: Checks):
    for r in rows:
        if r["metric"] == "multiplier_norm":
            checks.expect(r["value"] >= 1.0, f"multiplier_norm < 1: {r['line']}")
            if r["p"] == 1.0 or r["q"] == math.inf:
                checks.expect(r["value"] == 1.0, f"exact pair != 1: {r['line']}")
            if r["p"] == r["q"] == 2.0:
                # dyadic decomposition: ||T_n||_{2->2} <= 1 + log2 n
                checks.expect(r["value"] <= 1.0 + math.log2(r["n"]), f"above 1 + log2 n: {r['line']}")
                checks.expect(
                    r["value"] >= hilbert_floor(r["n"]) * (1.0 - 1e-9),
                    f"below the Hilbert-witness floor {hilbert_floor(r['n'])!r}: {r['line']}",
                )
        elif r["metric"] == "fit_slope" and r["p"] == r["q"] == 2.0:
            # criterion 5: the (2,2) norms grow at least like 0.1 ln n
            checks.target(r["value"] >= 0.1, f"(2,2) fit_slope < 0.1: {r['line']}")


def _check_psumming(rows: list, checks: Checks):
    for r in rows:
        if r["metric"].startswith("satisfied_"):
            checks.expect(r["value"] == 1.0, f"not satisfied: {r['line']}")
        elif r["metric"].startswith("tightness_"):
            checks.expect(0.0 < r["value"] <= 1.0, f"tightness outside (0, 1]: {r['line']}")


# An entry runs the package on one input set: (seed, config path, CSV path)
# -> (CSV text, or None after a non-zero exit; the summary's row_count, or
# None when the entry writes no summary).
Entry = Callable[[int, str, str], tuple]


def _experiment(runner: Callable) -> Entry:
    """Entry through an experiments runner; `runner` maps the parsed config
    to rows and looks the runner up when called, so that a traced run goes
    through the wrapped binding."""

    def call(seed: int, cfg_path: str, csv_path: str) -> tuple:
        with open(cfg_path) as fh:
            cfg = experiments.config_from_dict(json.load(fh))
        return experiments.rows_to_csv(runner(cfg)), None

    return call


def _cli_all(seed: int, cfg_path: str, csv_path: str) -> tuple:
    """Entry through `doilab all` in-process, writing the CSV and its summary."""
    argv = ["all", "--config", cfg_path, "--seed", str(seed), "--out", csv_path]
    with contextlib.redirect_stdout(io.StringIO()):
        code = cli.main(argv)
    if code != 0:
        return None, None
    with open(csv_path + ".summary.json") as fh:
        row_count = json.load(fh)["row_count"]
    with open(csv_path) as fh:
        return fh.read(), row_count


@dataclass(frozen=True)
class Workload:
    name: str
    default_seed: int
    entry: Entry
    # seed -> config file contents
    config: Callable[[int], dict]
    check: Callable[[list, Checks], None]
    # the rows whose mean is bound_tightness: certified values a tighter bound raises
    tight: Callable[[dict], bool]


@dataclass
class SetResult:
    csv: str | None  # None when the call raised or exited non-zero
    seconds: float


def run_set(w: Workload, seed: int, cfg_path: str, csv_path: str, checks: Checks) -> SetResult:
    """The workload on one input set through the package's public entry
    points, then the checks on its output."""
    t0 = time.perf_counter()
    try:
        text, row_count = w.entry(seed, cfg_path, csv_path)
    except Exception as exc:  # a call that raises is a failed check, not a crash
        checks.expect(False, f"{w.name} raised {type(exc).__name__}: {exc}")
        return SetResult(None, time.perf_counter() - t0)
    seconds = time.perf_counter() - t0
    checks.expect(text is not None, f"{w.name} exited non-zero")
    if text is None:
        return SetResult(None, seconds)
    rows = parse_csv(text)
    if row_count is not None:
        checks.expect(row_count == len(rows), f"summary row_count {row_count} != {len(rows)} CSV rows")
    check_rows(rows, checks)
    w.check(rows, checks)
    return SetResult(text, seconds)


def _pairs(*pairs):
    return [["inf" if x == math.inf else x for x in pair] for pair in pairs]


WORKLOADS = {
    w.name: w
    for w in [
        Workload(
            "commutator", 20260804, _experiment(lambda cfg: experiments.run_commutator_ratios(cfg)),
            lambda seed: {
                "seed": seed, "dims": [4, 8, 16, 32],
                "pq_pairs": _pairs((1, 2), (1, math.inf), (1, 1)), "trials": 3,
            },
            _check_commutator,
            lambda r: r["metric"] == "normalized_ratio",
        ),
        Workload(
            "truncation", 20260803, _experiment(lambda cfg: experiments.run_truncation_growth(cfg)),
            lambda seed: {
                "seed": seed, "dims": [2, 4, 8, 16, 32, 64, 128],
                "pq_pairs": _pairs((2, 2), (2, 4), (3, 1.5), (1, 1), (1, 2), (math.inf, math.inf)),
                "trials": 1, "search": {"restarts": 2},
            },
            _check_truncation,
            # both norms exact SVDs, so each value is a certified lower bound
            lambda r: r["metric"] == "multiplier_norm" and r["p"] == r["q"] == 2.0,
        ),
        Workload(
            "psumming", 20260802, _experiment(lambda cfg: experiments.run_psumming_check(cfg)),
            lambda seed: {
                "seed": seed, "dims": [4, 8, 16, 32],
                "pq_pairs": _pairs((1.5, 1.5), (3, 3)), "trials": 2,
            },
            _check_psumming,
            lambda r: r["metric"].startswith("tightness_"),
        ),
        Workload(
            # the default config, with fewer trials so that a run holds many passes
            "cli_default", 12345, _cli_all,
            lambda seed: {"trials": 4},
            lambda rows, checks: None,
            lambda r: r["metric"].startswith("mixed_"),
        ),
    ]
}
