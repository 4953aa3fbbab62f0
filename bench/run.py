"""doilab benchmark: runs one workload as a closed loop and prints its metrics.

    python3 bench/run.py --workload NAME [--seed N] [--seconds S] [--trace 0|1]

Run from the repository root; the package is imported from `src/`. One
process runs one workload: a warm-up on the first input set, then passes
one after another for `--seconds`, with no concurrency. A pass runs the
workload on each of four input sets: `--seed` itself and three seeds
derived from it. Every CSV is checked. Each metric is printed as
`name value unit`, then an environment stamp, and the last line is the
JSON result.

--trace 0 reports the end-to-end metrics. --trace 1 runs each input set
untraced and traced (the traced run first on every other set), and
reports the per-layer metrics from spans recorded around the package's
public functions (see tracing.py); the spans are written to
bench/out/<workload>.trace.json when the run ends.
"""

from __future__ import annotations

import os

# One BLAS thread, set before numpy is first imported: bound values (and so
# the CSV hash) repeat only when the thread count is fixed.
BLAS_THREADS = "1"
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = BLAS_THREADS

import argparse
import hashlib
import json
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy
import scipy

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"
# setup_s is the median of at least SETUP_REPEATS fresh interpreters: one
# after each untraced pass, the rest after the last pass.
SETUP_REPEATS = 6
# Each set-up interpreter is timed against bare interpreter starts
# (`python3 -c pass`, no doilab code) just before and just after it, and
# setup_s is given in seconds of a host on which a bare start takes
# BARE_START_S: the host's speed drifts by tens of percent over minutes,
# and a bare start drifts with it.
BARE_START_S = 0.075
# A pass runs the workload on INPUT_SETS input sets made from --seed, so that
# its time and bound_tightness average over more than one draw.
INPUT_SETS = 4
SETUP_CODE = "import sys; sys.path.insert(0, sys.argv[1]); import doilab.cli; doilab.cli.load_config(sys.argv[2])"

# (name, unit, better); BENCHMARK.json lists the same
END_TO_END = [
    ("setup_s", "s", "lower"),
    ("wall_rel", "ratio", "lower"),
    ("peak_rss_mb", "MB", "lower"),
    ("bound_tightness", "dimensionless", "higher"),
]


def load_package():
    """Import doilab from this checkout's src/, or exit non-zero when it is absent."""
    if not (SRC / "doilab" / "__init__.py").is_file():
        sys.exit(f"error: no doilab sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import doilab

    if Path(doilab.__file__).resolve().parent != SRC / "doilab":
        sys.exit(f"error: imported doilab from {doilab.__file__}, not {SRC}")


def interpreter_seconds(*args: str) -> float:
    """Wall time of a fresh interpreter running `python3 -c <args>`."""
    t0 = time.perf_counter()
    subprocess.run([sys.executable, "-c", *args], check=True)
    return time.perf_counter() - t0


def setup_sample(cfg_path: str) -> tuple:
    """(raw, scaled) set-up time: the wall time of a fresh interpreter that
    imports doilab.cli and parses the config, and that time scaled by
    BARE_START_S over the mean of the bare starts on either side of it."""
    before = interpreter_seconds("pass")
    raw = interpreter_seconds(SETUP_CODE, str(SRC), cfg_path)
    after = interpreter_seconds("pass")
    return raw, raw * BARE_START_S / ((before + after) / 2)


def env_stamp(seeds: list, csvs: list) -> dict:
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": BLAS_THREADS,
        "nproc": len(os.sched_getaffinity(0)),
        "seeds": seeds,
        "csv_sha256": [hashlib.sha256(c.encode()).hexdigest() if c is not None else None for c in csvs],
    }


def reference_seconds() -> float:
    """Time of a fixed mix of interpreter work and small numpy calls that
    uses no doilab code: the unit in which wall_rel measures a pass. It
    runs for ~0.1 s, long enough to average over the host's quick swings
    in speed and short beside an input set."""
    rng = numpy.random.default_rng(0)
    a = rng.standard_normal((32, 32)) + 1j * rng.standard_normal((32, 32))
    acc: dict = {}
    t0 = time.perf_counter()
    for i in range(12000):
        x = a @ a[:, i % 32]
        acc[i % 97] = acc.get(i % 97, 0.0) + float(numpy.abs(x).max())
        for j in range(40):
            acc[j] = acc.get(j, 0.0) + j
    numpy.linalg.svd(a)
    return time.perf_counter() - t0


def input_seeds(seed: int) -> list:
    """The seed itself, then seeds derived from it, one per input set."""
    return [seed, *numpy.random.SeedSequence(seed).generate_state(INPUT_SETS - 1).tolist()]


def measure(w, seed: int, seconds: float, trace: bool, out_dir: Path = OUT) -> tuple:
    """Run workload `w`; returns (lines to print, result dict)."""
    from tracing import PER_LAYER, Tracer, layer_metrics, self_time_shares
    from workloads import Checks, instances, parse_csv, run_set

    out_dir.mkdir(parents=True, exist_ok=True)
    seeds = input_seeds(seed)
    files = []
    for k, s in enumerate(seeds):
        cfg_path = out_dir / f"{w.name}.{k}.config.json"
        cfg_path.write_text(json.dumps(w.config(s)))
        files.append((str(cfg_path), str(out_dir / f"{w.name}.{k}.csv")))
    checks = Checks()
    reference: dict = {}

    def one_set(k):
        r = run_set(w, seeds[k], *files[k], checks)
        if k in reference:
            checks.expect(r.csv == reference[k], f"CSV of input set {k} differs from its first run")
        else:
            reference[k] = r.csv
        return r.seconds

    def traced_set(k):
        with Tracer() as tracer:
            seconds_k = one_set(k)
        spans.append(tracer.spans)
        return seconds_k

    one_set(0)  # warm-up, checked but not timed
    passes, traced_passes, rel, refs, setup, spans = [], [], [], [], [], []
    setup_spent = 0.0

    def add_setup_sample():
        nonlocal setup_spent
        t0 = time.perf_counter()
        setup.append(setup_sample(files[0][0]))
        setup_spent += time.perf_counter() - t0

    # an untraced run needs a second pass so that every input set's CSV is
    # compared; a traced run compares each traced set with its untraced run
    min_passes = 1 if trace else 2
    start = time.perf_counter()
    while True:
        passes.append(0.0)
        traced_passes.append(0.0)
        rel.append(0.0)
        if not trace:
            refs.append(reference_seconds())
        for k in range(len(seeds)):
            # the second of two runs of one set tends to be the faster, so
            # the traced run goes first on every other set
            traced_first = trace and (len(passes) + k) % 2 == 1
            if traced_first:
                traced_passes[-1] += traced_set(k)
            seconds_k = one_set(k)
            passes[-1] += seconds_k
            if trace and not traced_first:
                traced_passes[-1] += traced_set(k)
            if not trace:
                # the host's speed swings by tens of percent within seconds,
                # so each set is measured against the reference loops run
                # just before and just after it
                refs.append(reference_seconds())
                rel[-1] += seconds_k / ((refs[-2] + refs[-1]) / 2)
        # --seconds bounds the passes; the setup interpreters come on top
        elapsed = time.perf_counter() - start - setup_spent
        if not trace:
            add_setup_sample()
        if len(passes) >= min_passes and elapsed * (len(passes) + 1) / len(passes) > seconds:
            break

    per_set = [parse_csv(reference[k]) for k in range(len(seeds)) if reference[k] is not None]
    rows = [r for set_rows in per_set for r in set_rows]
    lines = [
        f"workload {w.name}  seeds {seeds}  input {len(rows)} rows from "
        f"{sum(instances(set_rows) for set_rows in per_set)} instances",
        f"{len(passes)} passes over {len(seeds)} input sets{' (each set also traced)' if trace else ''} "
        f"after 1 warm-up set, {elapsed:.2f} s",
    ]
    lines.append(f"failed_share {checks.failed_share():.6g} fraction  ({len(checks.failures)} of "
                 f"{checks.attempted} checks failed, {len(checks.missed)} of {checks.targets} targets missed)")
    lines += [f"check failed: {f}" for f in list(dict.fromkeys(checks.failures))[:20]]
    lines += [f"target missed: {f}" for f in list(dict.fromkeys(checks.missed))[:20]]

    if trace:
        accepted = 2 * sum(1 for r in rows if r["metric"] in ("normalized_ratio", "satisfied_abs"))
        metrics = layer_metrics(spans, accepted / len(seeds))
        # traced wall_s minus untraced wall_s
        metrics["trace.overhead_s"] = statistics.median(traced_passes) - statistics.median(passes)
        units = {name: unit for name, unit, _ in PER_LAYER}
        (out_dir / f"{w.name}.trace.json").write_text(json.dumps(
            {"fields": ["name", "via", "start", "end", "parent", "note"], "sets": spans}
        ))
        lines.append(f"wall_s {statistics.median(passes)!r} s untraced, "
                     f"{statistics.median(traced_passes)!r} s traced (medians over {len(passes)} passes)")
        shares = self_time_shares(spans)
        lines.append("self_time_share " + json.dumps({k: round(v, 4) for k, v in shares.items()}))
    else:
        tight = [r["value"] for r in rows if w.tight(r)]
        while len(setup) < SETUP_REPEATS:
            add_setup_sample()
        metrics = {
            "setup_s": statistics.median(scaled for _, scaled in setup),
            "wall_rel": statistics.median(rel),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "bound_tightness": statistics.fmean(tight) if tight else 0.0,
        }
        units = {name: unit for name, unit, _ in END_TO_END}
        lines.append(f"wall_s {statistics.median(passes)!r} s  (median of passes {[round(t, 4) for t in passes]})")
        lines.append(f"ref_s {statistics.median(refs)!r} s  (median of {len(refs)} reference loops, "
                     f"{len(seeds) + 1} per pass)")
        lines.append(f"setup_s samples {[round(t, 4) for _, t in setup]}, raw "
                     f"{[round(t, 4) for t, _ in setup]} s (median {statistics.median(t for t, _ in setup)!r} s)")
        lines.append(f"wall_rel of passes {[round(r, 3) for r in rel]}")
        lines.append(f"bound_tightness is the mean of {len(tight)} rows")
    lines += [f"{name} {value!r} {units[name]}" for name, value in metrics.items()]
    lines.append("env " + json.dumps(env_stamp(seeds, [reference[k] for k in range(len(seeds))])))
    result = {
        "correct": not checks.failures,
        "attempted": checks.attempted,
        "failed": len(checks.failures),
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }
    return lines, result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=None, help="default: the workload's own")
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    load_package()
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}")
    w = WORKLOADS[args.workload]
    seed = w.default_seed if args.seed is None else args.seed
    lines, result = measure(w, seed, args.seconds, bool(args.trace))
    print("\n".join(lines))
    print(json.dumps(result), flush=True)
    # the verdict is in the result line; a non-zero exit means no result
    return 0


if __name__ == "__main__":
    sys.exit(main())
