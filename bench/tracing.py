"""Spans around the public functions of each doilab layer, recorded from
outside the package, and the per-layer metrics computed from them.

A module that does `from .norms import opnorm` holds its own binding of
`opnorm`, so the tracer replaces the function in every doilab namespace
that binds it (and in `experiments.RUNNERS`), and puts every binding back
when the traced run of an input set ends.
"""

from __future__ import annotations

import functools
import math
import statistics
import sys
import time

# span name -> (module, function); the runners are added from experiments.RUNNERS
TRACED = {
    "norms.opnorm": ("doilab.norms", "opnorm"),
    "norms.opnorm_upper": ("doilab.norms", "opnorm_upper"),
    "spectral.diagonalizability_constant": ("doilab.spectral", "diagonalizability_constant"),
    "spectral.functional_calculus": ("doilab.spectral", "functional_calculus"),
    "spectral.assemble": ("doilab.spectral", "assemble"),
    "schur.multiplier_norm": ("doilab.schur", "multiplier_norm"),
    "schur.divided_difference_matrix": ("doilab.schur", "divided_difference_matrix"),
    "doi.commutator_transform": ("doilab.doi", "commutator_transform"),
    "psumming.lipschitz_commutator_check": ("doilab.psumming", "lipschitz_commutator_check"),
    "psumming.sampled_lipschitz_floor": ("doilab.psumming", "sampled_lipschitz_floor"),
    "experiments.run_all": ("doilab.experiments", "run_all"),
    "experiments.write_outputs": ("doilab.experiments", "write_outputs"),
    "cli.main": ("doilab.cli", "main"),
}

# What a span keeps of its call besides the times: the branch an opnorm
# took, the exponent of a K computation, the certainty of a multiplier norm.
NOTES = {
    "norms.opnorm": lambda args, kwargs, result: result.method,
    "spectral.diagonalizability_constant": lambda args, kwargs, result: float(
        args[1] if len(args) > 1 else kwargs["p"]
    ),
    "schur.multiplier_norm": lambda args, kwargs, result: result.certainty,
}

# (name, unit, better), in the order BENCHMARK.json lists them
PER_LAYER = [
    ("norms.opnorm.calls", "count", "lower"),
    ("norms.opnorm.self_s", "s", "lower"),
    ("norms.opnorm.call_ms_p50", "ms", "lower"),
    ("norms.opnorm.call_ms_p90", "ms", "lower"),
    ("norms.opnorm.exact_share", "fraction", "higher"),
    ("norms.opnorm.max_iter_share", "fraction", "lower"),
    ("norms.opnorm_upper.calls", "count", "lower"),
    ("norms.opnorm_upper.self_s", "s", "lower"),
    ("spectral.diagonalizability_constant.calls", "count", "lower"),
    ("spectral.diagonalizability_constant.self_s", "s", "lower"),
    ("spectral.diagonalizability_constant.call_ms_p50", "ms", "lower"),
    ("spectral.diagonalizability_constant.call_ms_p90", "ms", "lower"),
    ("spectral.diagonalizability_constant.endpoint_self_s", "s", "lower"),
    ("spectral.diagonalizability_constant.interior_self_s", "s", "lower"),
    ("spectral.diagonalizability_constant.upper_calls", "count", "lower"),
    ("spectral.calculus.self_s", "s", "lower"),
    ("schur.multiplier_norm.calls", "count", "lower"),
    ("schur.multiplier_norm.self_s", "s", "lower"),
    ("schur.multiplier_norm.call_ms_p50", "ms", "lower"),
    ("schur.multiplier_norm.exact_share", "fraction", "higher"),
    ("schur.multiplier_norm.opnorm_calls", "count", "lower"),
    ("schur.divided_difference_matrix.self_s", "s", "lower"),
    ("doi.commutator_transform.calls", "count", "lower"),
    ("doi.commutator_transform.self_s", "s", "lower"),
    ("psumming.lipschitz_commutator_check.calls", "count", "lower"),
    ("psumming.lipschitz_commutator_check.self_s", "s", "lower"),
    ("psumming.sampled_lipschitz_floor.self_s", "s", "lower"),
    ("experiments.runner.self_s", "s", "lower"),
    ("experiments.rejection_attempts", "count", "lower"),
    ("experiments.accept_ratio", "ratio", "higher"),
    ("experiments.write_outputs.self_s", "s", "lower"),
    ("cli.main.self_s", "s", "lower"),
    ("trace.overhead_s", "s", "lower"),
]

# p90 needs ten calls beyond it to mean anything
P90_MIN_CALLS = 100


def traced_functions() -> dict:
    """span name -> the original function, for every layer function."""
    experiments = sys.modules["doilab.experiments"]
    targets = {name: getattr(sys.modules[mod], fn) for name, (mod, fn) in TRACED.items()}
    for fn in experiments.RUNNERS.values():
        targets[f"experiments.{fn.__name__}"] = fn
    return targets


def binding_sites():
    """(namespace, owner label) for every doilab module and the runner table."""
    for modname, module in list(sys.modules.items()):
        if modname == "doilab" or modname.startswith("doilab."):
            yield vars(module), modname.rpartition(".")[2]
    yield sys.modules["doilab.experiments"].RUNNERS, "experiments"


class Tracer:
    """Context manager that records one span per call of a traced function.

    A span is [name, via, start, end, parent, note]: `via` is the module
    whose binding was called and `parent` the index of the enclosing span
    (-1 for none). Spans stay in memory in `self.spans`.
    """

    def __init__(self):
        self.spans: list = []
        self._stack: list = []
        self._undo: list = []

    def _wrap(self, name: str, via: str, fn):
        spans, stack, note = self.spans, self._stack, NOTES.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, via, time.perf_counter(), 0.0, stack[-1] if stack else -1, None]
            stack.append(len(spans))
            spans.append(span)
            try:
                result = fn(*args, **kwargs)
                if note is not None:
                    span[5] = note(args, kwargs, result)
                return result
            finally:
                span[3] = time.perf_counter()
                stack.pop()

        return traced

    def __enter__(self):
        names = {id(fn): name for name, fn in traced_functions().items()}
        try:
            for namespace, via in binding_sites():
                for key, value in list(namespace.items()):
                    name = names.get(id(value))
                    if name is not None:
                        self._undo.append((namespace, key, value))
                        namespace[key] = self._wrap(name, via, value)
        except BaseException:
            self._restore()
            raise
        return self

    def __exit__(self, *exc):
        self._restore()
        return False

    def _restore(self):
        while self._undo:
            namespace, key, value = self._undo.pop()
            namespace[key] = value


def self_times(spans: list) -> list:
    """Each span's duration minus the time its direct children cover."""
    own = [s[3] - s[2] for s in spans]
    for s in spans:
        if s[4] >= 0:
            own[s[4]] -= s[3] - s[2]
    return own


def _set_metrics(spans: list) -> dict:
    """Counts, shares and self times of one traced input set."""
    own = self_times(spans)
    self_s: dict = {}
    calls: dict = {}
    for s, t in zip(spans, own):
        self_s[s[0]] = self_s.get(s[0], 0.0) + t
        calls[s[0]] = calls.get(s[0], 0) + 1

    def share(name, pred):
        picked = [s for s in spans if s[0] == name]
        return sum(1 for s in picked if pred(s[5])) / len(picked) if picked else 0.0

    def via_calls(name, via):
        return sum(1 for s in spans if s[0] == name and s[1] == via)

    k = "spectral.diagonalizability_constant"
    endpoint = sum(t for s, t in zip(spans, own) if s[0] == k and s[5] in (1.0, math.inf))
    return {
        "norms.opnorm.calls": calls.get("norms.opnorm", 0),
        "norms.opnorm.self_s": self_s.get("norms.opnorm", 0.0),
        "norms.opnorm.exact_share": share("norms.opnorm", lambda m: m.startswith("exact")),
        "norms.opnorm.max_iter_share": share("norms.opnorm", lambda m: m.endswith(":max_iter")),
        "norms.opnorm_upper.calls": calls.get("norms.opnorm_upper", 0),
        "norms.opnorm_upper.self_s": self_s.get("norms.opnorm_upper", 0.0),
        f"{k}.calls": calls.get(k, 0),
        f"{k}.self_s": self_s.get(k, 0.0),
        f"{k}.endpoint_self_s": endpoint,
        f"{k}.interior_self_s": self_s.get(k, 0.0) - endpoint,
        f"{k}.upper_calls": via_calls("norms.opnorm_upper", "spectral"),
        "spectral.calculus.self_s": self_s.get("spectral.functional_calculus", 0.0)
        + self_s.get("spectral.assemble", 0.0),
        "schur.multiplier_norm.calls": calls.get("schur.multiplier_norm", 0),
        "schur.multiplier_norm.self_s": self_s.get("schur.multiplier_norm", 0.0),
        "schur.multiplier_norm.exact_share": share("schur.multiplier_norm", lambda c: c == "exact"),
        "schur.multiplier_norm.opnorm_calls": via_calls("norms.opnorm", "schur"),
        "schur.divided_difference_matrix.self_s": self_s.get("schur.divided_difference_matrix", 0.0),
        "doi.commutator_transform.calls": calls.get("doi.commutator_transform", 0),
        "doi.commutator_transform.self_s": self_s.get("doi.commutator_transform", 0.0),
        "psumming.lipschitz_commutator_check.calls": calls.get("psumming.lipschitz_commutator_check", 0),
        "psumming.lipschitz_commutator_check.self_s": self_s.get("psumming.lipschitz_commutator_check", 0.0),
        "psumming.sampled_lipschitz_floor.self_s": self_s.get("psumming.sampled_lipschitz_floor", 0.0),
        "experiments.runner.self_s": sum(
            t for name, t in self_s.items() if name.startswith("experiments.run_")
        ),
        # each rejection-sampling attempt bounds U and U^{-1}
        "experiments.rejection_attempts": via_calls("norms.opnorm_upper", "experiments") / 2,
        "experiments.write_outputs.self_s": self_s.get("experiments.write_outputs", 0.0),
        "cli.main.self_s": self_s.get("cli.main", 0.0),
    }


def _percentile_ms(durations: list, q: int, min_calls: int = 1) -> float:
    """q-th percentile of call durations in ms; 0 when too few calls."""
    if len(durations) < max(min_calls, 2):
        return 0.0
    return statistics.quantiles(durations, n=100, method="inclusive")[q - 1] * 1e3


def layer_metrics(sets: list, accepted: float) -> dict:
    """The PER_LAYER metrics of a traced run but trace.overhead_s, which
    the caller times: means over the traced input sets of per-set values,
    percentiles over every traced call.

    `sets` holds the spans of each traced input set and `accepted` is the
    mean number of sampled operators one input set accepts.
    """
    per_set = [_set_metrics(spans) for spans in sets]
    out = {key: statistics.fmean(m[key] for m in per_set) for key in per_set[0]}

    def durations(name):
        return [s[3] - s[2] for spans in sets for s in spans if s[0] == name]

    opn = durations("norms.opnorm")
    kd = durations("spectral.diagonalizability_constant")
    out["norms.opnorm.call_ms_p50"] = _percentile_ms(opn, 50)
    out["norms.opnorm.call_ms_p90"] = _percentile_ms(opn, 90, P90_MIN_CALLS)
    out["spectral.diagonalizability_constant.call_ms_p50"] = _percentile_ms(kd, 50)
    out["spectral.diagonalizability_constant.call_ms_p90"] = _percentile_ms(kd, 90, P90_MIN_CALLS)
    out["schur.multiplier_norm.call_ms_p50"] = _percentile_ms(durations("schur.multiplier_norm"), 50)
    attempts = out["experiments.rejection_attempts"]
    out["experiments.accept_ratio"] = accepted / attempts if attempts else 0.0
    return {name: out[name] for name, _, _ in PER_LAYER if name in out}


def self_time_shares(sets: list) -> dict:
    """Share of all traced self time spent in each span name."""
    totals: dict = {}
    for spans in sets:
        for s, t in zip(spans, self_times(spans)):
            totals[s[0]] = totals.get(s[0], 0.0) + t
    whole = sum(totals.values()) or 1.0
    return {name: t / whole for name, t in sorted(totals.items(), key=lambda kv: -kv[1])}
