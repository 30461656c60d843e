"""Determinism self-check: the same seed gives the same counts.

    python3 perfbench/determinism.py [--seed 1]
    python3 perfbench/determinism.py --write-golden

Runs every workload twice for :data:`OPS` ops, in two processes with
different ``PYTHONHASHSEED``s, untraced and traced, and requires
identical per-op records (simulated makespans, plan sizes, message
counts, SAT decisions and conflicts, full-spec digests) and identical
count-valued per-layer metrics.  Those counts may therefore be cited as
counts by later changes.  ``--write-golden`` then pins the
configure-cold digests of the golden seed in ``golden.json``.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import harness
import probes

#: Ops per run.
OPS = 8
#: Per-layer metrics that are wall-clock measurements, not counts.
TIMED = {"runtime.delta.plan_fraction", "trace.overhead_ms"}


def counted_metric(name: str) -> bool:
    return not (name.endswith(".ms") or name.endswith("_ms")
                or name in TIMED)


def _run(workload: str, seed: int, trace: int, hash_seed: str,
         out: Path) -> dict:
    env = dict(os.environ, PYTHONHASHSEED=hash_seed)
    command = [
        sys.executable, str(harness.bench_root() / "run.py"),
        "--workload", workload, "--seed", str(seed), "--ops", str(OPS),
        "--trace", str(trace), "--out", str(out),
    ]
    done = subprocess.run(command, capture_output=True, text=True,
                          env=env, timeout=900)
    if done.returncode != 0:
        raise SystemExit(f"{workload} run failed:\n{done.stdout[-3000:]}"
                         f"{done.stderr[-3000:]}")
    return harness.load_results(out)[-1]


def check_workload(workload: str, seed: int,
                   workdir: Path) -> tuple[list[str], dict]:
    problems = []
    runs = {}
    for trace in (0, 1):
        first, second = (
            _run(workload, seed, trace, hash_seed,
                 workdir / f"{workload}-{trace}-{hash_seed}.jsonl")
            for hash_seed in ("1", "2")
        )
        if first["records"] != second["records"]:
            problems.append(f"trace {trace}: per-op records differ")
        if trace:
            for name in probes.PER_LAYER_METRICS:
                if not counted_metric(name):
                    continue
                a = first["metrics"][name]["value"]
                b = second["metrics"][name]["value"]
                if a != b:
                    problems.append(f"per-layer {name}: {a} != {b}")
        runs[trace] = first
    if runs[0]["records"] != runs[1]["records"]:
        problems.append("traced and untraced runs produced different ops")
    return problems, runs[0]


def main(argv: list[str] | None = None) -> int:
    bench = harness.load_benchmark(harness.default_repo() / "BENCHMARK.json")
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--write-golden", action="store_true",
                        help="pin the configure-cold digests of the golden "
                        "seed (run on a commit known to be correct)")
    args = parser.parse_args(argv)

    failed = False
    with tempfile.TemporaryDirectory() as workdir:
        for workload in (w["name"] for w in bench["workloads"]):
            problems, run = check_workload(workload, args.seed, Path(workdir))
            failed |= bool(problems)
            print(f"{workload}: {'IDENTICAL' if not problems else 'DIFFERS'}"
                  f" over {len(run['records'])} ops")
            for problem in problems:
                print(f"  {problem}")
            for index, record in enumerate(run["records"]):
                print(f"  op {index}: {json.dumps(record, sort_keys=True)}")
            if args.write_golden and workload == "configure-cold":
                golden = Path(harness.bench_root() / "golden.json")
                golden.write_text(json.dumps({
                    "seed": args.seed,
                    "configure-cold": [r["digest"] for r in run["records"]],
                }, indent=2) + "\n", encoding="utf-8")
                print(f"  wrote {golden}")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
