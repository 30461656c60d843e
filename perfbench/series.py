"""Run the benchmark over several seeds into result sets for compare.py.

    python3 perfbench/series.py --seeds 1-10 --out-dir perfbench-results
    python3 perfbench/series.py --seeds 1-10 --out-dir perfbench-results \\
        --side base=../parent-checkout --side change=.

Each ``--side LABEL=CHECKOUT`` measures that checkout's ``src`` with
*this* benchmark's code, so both sides run identical benchmark settings;
runs go to ``OUT_DIR/LABEL.jsonl``.  With two sides the order alternates
per seed (base first on even seeds, change first on odd ones), which is
what compare.py's pair rule assumes.  Runs are sequential: two at once
would share the cores being measured.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
import time
from pathlib import Path

import harness


def parse_seeds(text: str) -> list[int]:
    seeds: list[int] = []
    for part in text.split(","):
        if "-" in part:
            low, high = part.split("-", 1)
            seeds.extend(range(int(low), int(high) + 1))
        else:
            seeds.append(int(part))
    return seeds


def main(argv: list[str] | None = None) -> int:
    bench = harness.load_benchmark(harness.default_repo() / "BENCHMARK.json")
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--workloads",
                        default=",".join(w["name"] for w in bench["workloads"]))
    parser.add_argument("--seconds", type=float,
                        default=float(bench["run_seconds"]))
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out-dir", type=Path, required=True)
    parser.add_argument("--side", action="append", default=[],
                        metavar="LABEL=CHECKOUT")
    args = parser.parse_args(argv)

    sides = [tuple(s.split("=", 1)) for s in args.side] or [
        ("this", str(harness.default_repo()))
    ]
    args.out_dir.mkdir(parents=True, exist_ok=True)
    run_py = harness.bench_root() / "run.py"
    failures = 0
    for position, seed in enumerate(parse_seeds(args.seeds)):
        order = sides if position % 2 == 0 else list(reversed(sides))
        for workload in args.workloads.split(","):
            for label, checkout in order:
                out = args.out_dir / f"{label}.jsonl"
                command = [
                    sys.executable, str(run_py), "--workload", workload,
                    "--seed", str(seed), "--seconds", str(args.seconds),
                    "--trace", str(args.trace), "--repo", checkout,
                    "--out", str(out),
                ]
                started = time.monotonic()
                done = subprocess.run(command, capture_output=True,
                                      text=True, timeout=900)
                wall = time.monotonic() - started
                last = done.stdout.strip().splitlines()[-1:] or ["{}"]
                summary = json.loads(last[0]) if last[0].startswith("{") \
                    else {}
                print(f"{label:<8} {workload:<15} seed {seed:<4} "
                      f"exit {done.returncode} "
                      f"correct {summary.get('correct')} "
                      f"wall {wall:.1f}s", flush=True)
                if done.returncode != 0:
                    failures += 1
                    sys.stderr.write(done.stdout[-2000:] + done.stderr[-2000:])
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
