"""Run every workload, each in its own process, untraced and traced, and
print every metric by name with its unit.

    python3 bench/all.py [--seconds S] [--out bench/trajectory/BENCH_<label>.json]

Each workload uses its default seed (20260804 commutator, 20260803
truncation, 20260802 psumming, 12345 cli_default). With --out, the results,
environment stamps and self-time splits are written as one trajectory point.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent


def run_one(workload: str, trace: int, seconds: float) -> dict:
    cmd = [sys.executable, str(BENCH / "run.py"), "--workload", workload,
           "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=BENCH.parent, capture_output=True, text=True)
    lines = proc.stdout.splitlines()
    if not lines or not lines[-1].startswith("{"):
        sys.exit(f"{workload} (trace {trace}) printed no result:\n{proc.stdout}{proc.stderr}")
    out = {"exit_code": proc.returncode, "result": json.loads(lines[-1]), "lines": lines[:-1]}
    for line in lines:
        key, _, rest = line.partition(" ")
        if key in ("env", "self_time_share"):
            out[key] = json.loads(rest)
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--out", default=None, help="write the trajectory point here")
    args = parser.parse_args(argv)
    point = {"seconds": args.seconds, "workloads": {}}
    ok = True
    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    for workload in [w["name"] for w in spec["workloads"]]:
        runs = {f"trace{t}": run_one(workload, t, args.seconds) for t in (0, 1)}
        point["workloads"][workload] = runs
        for name, run in runs.items():
            res = run["result"]
            ok &= res["correct"] and run["exit_code"] == 0
            share = next(line for line in run["lines"] if line.startswith("failed_share "))
            print(f"== {workload} {name}: correct={res['correct']} {share}")
            for metric, m in res["metrics"].items():
                print(f"{workload} {metric} {m['value']:.6g} {m['unit']}")
            if name == "trace0":
                # wall_s is printed but not gated (wall_rel is); see README.md
                wall = next(line for line in run["lines"] if line.startswith("wall_s "))
                print(f"{workload} {wall}")
            if "self_time_share" in run:
                print(f"{workload} self_time_share {json.dumps(run['self_time_share'])}")
    if args.out:
        Path(args.out).write_text(json.dumps(point, indent=1) + "\n")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
