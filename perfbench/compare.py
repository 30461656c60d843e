"""Compare two result sets of the benchmark (or summarise one).

    python3 perfbench/compare.py perfbench-results/base.jsonl \
        perfbench-results/change.jsonl
    python3 perfbench/compare.py perfbench-results/this.jsonl

For each workload and each metric it prints both sides' median and
quartiles.  With two sets, a metric is

* ``REGRESSION`` when the change's median is worse than the base's by
  more than the metric's bound in ``BENCHMARK.json``;
* ``unresolved`` when either side's spread (interquartile distance over
  the median) is wider than the bound, unless every change run beats
  every base run;
* ``WIN`` when the change wins at least 9 of every 10 pairs (runs paired
  by seed; ties count for neither) and the medians differ by more than
  the base's own interquartile distance;
* ``same`` otherwise.

``op_tail_ms`` is only compared when both sides read the same percentile
(``op_tail_percentile`` in each run's provenance); otherwise it is
``unresolved``.

Per-layer metrics (traced runs) have no bound: they are listed with the
pair count and never flagged.  Exits 1 when any metric regressed.
"""

from __future__ import annotations

import argparse
import sys
from collections import defaultdict

import harness


def _values(records: list[dict], workload: str, metric: str) -> dict:
    """seed -> value for one workload/metric (the last run of a seed)."""
    out = {}
    for record in records:
        if record["workload"] == workload and metric in record["metrics"]:
            out[record["seed"]] = record["metrics"][metric]["value"]
    return out


def _tail_percentiles(records: list[dict], workload: str) -> set:
    return {
        record.get("provenance", {}).get("op_tail_percentile")
        for record in records if record["workload"] == workload
    }


def _fmt(values: list[float]) -> str:
    q1, median, q3 = harness.quartiles(values)
    return f"{median:>12.4f} [{q1:.4f}, {q3:.4f}]"


def _better(a: float, b: float, lower: bool) -> bool:
    """True when ``b`` is strictly better than ``a``."""
    return b < a if lower else b > a


def verdict(base: list[float], change: list[float], pairs, spec: dict) -> str:
    bound = spec.get("bound")
    lower = spec.get("better", "lower") == "lower"
    _, base_median, _ = harness.quartiles(base)
    _, change_median, _ = harness.quartiles(change)
    if bound is None:
        return "-"
    worse = (change_median - base_median) if lower \
        else (base_median - change_median)
    if base_median and worse / abs(base_median) > bound:
        return "REGRESSION"
    every_better = all(
        _better(b, c, lower) for b in base for c in change
    )
    if (harness.relative_spread(base) > bound
            or harness.relative_spread(change) > bound) and not every_better:
        return "unresolved"
    wins = sum(1 for b, c in pairs if _better(b, c, lower))
    q1, _, q3 = harness.quartiles(base)
    if pairs and wins >= 0.9 * len(pairs) \
            and abs(change_median - base_median) > (q3 - q1):
        return "WIN"
    return "same"


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("base")
    parser.add_argument("change", nargs="?")
    parser.add_argument("--bench", default=str(
        harness.default_repo() / "BENCHMARK.json"))
    args = parser.parse_args(argv)

    bench = harness.load_benchmark(args.bench)
    specs = {m["name"]: m for m in bench["end_to_end"]}
    specs.update({m["name"]: m for m in bench["per_layer"]})
    base = harness.load_results(args.base)
    change = harness.load_results(args.change) if args.change else None

    names: dict[str, list[str]] = defaultdict(list)
    for record in base + (change or []):
        for metric in record["metrics"]:
            if metric not in names[record["workload"]]:
                names[record["workload"]].append(metric)

    regressions = 0
    for workload in [w["name"] for w in bench["workloads"]]:
        if workload not in names:
            continue
        print(f"== {workload}")
        header = f"  {'metric':<34} {'base median [q1, q3]':>36}"
        if change is not None:
            header += f" {'change median [q1, q3]':>36}  pairs   verdict"
        else:
            header += "  spread  bound"
        print(header)
        for metric in names[workload]:
            spec = specs.get(metric, {})
            a = _values(base, workload, metric)
            if not a:
                continue
            line = f"  {metric:<34} {_fmt(list(a.values())):>36}"
            if change is None:
                bound = spec.get("bound")
                line += f"  {harness.relative_spread(list(a.values())):>6.1%}"
                line += f"  {bound:.0%}" if bound is not None else "     -"
                print(line)
                continue
            b = _values(change, workload, metric)
            if not b:
                continue
            pairs = [(a[s], b[s]) for s in sorted(set(a) & set(b))]
            lower = spec.get("better", "lower") == "lower"
            wins = sum(1 for x, y in pairs if _better(x, y, lower))
            result = verdict(list(a.values()), list(b.values()), pairs, spec)
            if metric == "op_tail_ms" and len(
                _tail_percentiles(base, workload)
                | _tail_percentiles(change, workload)
            ) > 1:
                result = "unresolved (tail percentiles differ)"
            regressions += result == "REGRESSION"
            line += (f" {_fmt(list(b.values())):>36}  "
                     f"{wins:>2}/{len(pairs):<3} {result}")
            print(line)
    return 1 if regressions else 0


if __name__ == "__main__":
    sys.exit(main())
