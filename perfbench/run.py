"""Run one workload of the Engage benchmark and report its metrics.

    python3 perfbench/run.py --workload configure-cold --seed 1 \\
        --seconds 25 --trace 0

Sets the workload up several times (``setup_s`` is the median), then
runs a fixed number of closed-loop ops, whole batches sized so that they
measured about ``--seconds`` with the program the benchmark was written
against (``--ops N`` runs exactly N ops instead), checks every op's
output untimed, and prints each metric by name with its unit.

Every time is taken on a :class:`harness.HostClock` and reported at the
speed of a reference host: the clock runs a fixed probe kernel around
and, on a timer, inside each timed region, and scales the region's wall
time by the reference pass time over the passes' mean.  The raw wall
times are printed too and kept in ``--out`` records.

The last line of standard output is one JSON object: ``correct``,
``attempted``, ``failed`` and ``metrics``
-- the end-to-end metrics with ``--trace 0``, the per-layer metrics with
``--trace 1``.  Exits 1 when any output check failed, 2 when the
program cannot be found.

``--out FILE`` appends the full run record (provenance, per-op samples
and deterministic records) to a result set for ``compare.py``.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import statistics
import sys
import time
from pathlib import Path

import harness

#: Set-ups per run; ``setup_s`` is their median.
SETUPS = 3
#: A run starts no batch after this many times ``--seconds`` of wall
#: time.
WALL_CAP = 1.6


def end_to_end(result: dict) -> dict[str, tuple[float, str]]:
    ms = result["op_ms"] or [0.0]  # no op ran: the run is failed anyway
    seconds = sum(ms) / 1000.0
    attempted = result["attempted"]
    return {
        "setup_s": (statistics.median(result["setup_s"]), "s"),
        "op_p50_ms": (harness.harrell_davis(ms, 50.0), "ms"),
        "op_tail_ms": (harness.harrell_davis(ms, result["tail_p"]), "ms"),
        "nodes_per_s": (result["units"] / seconds if seconds else 0.0,
                        "1/s"),
        "peak_rss_mb": (result["peak_rss_mb"], "MiB"),
        "ops_ok_ratio": ((attempted - result["failed"]) / attempted
                         if attempted else 0.0, "ratio"),
    }


def run_workload(
    name: str,
    seed: int,
    *,
    seconds: float,
    trace: bool,
    ops: int | None = None,
    scale: str = "full",
    setups: int = SETUPS,
) -> dict:
    """Set up and run one workload; returns the raw run (samples, counts,
    problems and, when traced, the span tracer)."""
    from workloads import WORKLOADS

    setup_s, setup_wall_s = [], []
    for _ in range(setups):
        # Rebinding releases the previous set-up before the next one.
        workload = WORKLOADS[name](seed, scale)
        workload.ops = (workload.planned_ops(seconds) if ops is None
                        else ops)
        with harness.HostClock() as clock:
            workload.setup()
        setup_s.append(clock.scaled)
        setup_wall_s.append(clock.elapsed)

    # The memory high-water mark covers the timed ops only: not the
    # set-ups' garbage, nor the untimed checks.
    gc.collect()
    harness.reset_peak_rss()
    probes = None
    if trace:
        import probes as probes_module

        probes = probes_module.Probes(probes_module.SpanTracer())
    result = {
        "workload": name, "seed": seed, "setup_s": setup_s,
        "setup_wall_s": setup_wall_s, "op_ms": [], "wall_ms": [],
        "traced_ms": [], "untraced_ms": [],
        "units": 0, "makespans": [], "records": [], "problems": [],
        "attempted": 0, "failed": 0, "batches": 0,
        "tail_p": workload.tail_percentile,
    }
    limit = min(workload.ops, workload.capacity)
    # The wall-clock cap bounds a run on a host or a program far slower
    # than the one the batch count was sized on.
    wall_deadline = time.perf_counter() + (
        WALL_CAP * seconds if ops is None else math.inf
    )
    index = 0
    raised = False
    while not raised and index < limit \
            and time.perf_counter() < wall_deadline:
        result["batches"] += 1
        for index in range(index, min(index + workload.batch, limit)):
            traced = trace and workload.traced(index)
            clock, problems, raised = _one_op(
                workload, index, result, probes if traced else None
            )
            result["attempted"] += 1
            result["op_ms"].append(clock.scaled * 1000.0)
            result["wall_ms"].append(clock.elapsed * 1000.0)
            (result["traced_ms"] if traced
             else result["untraced_ms"]).append(clock.scaled * 1000.0)
            if problems:
                result["failed"] += 1
                result["problems"].extend(
                    f"op {index}: {problem}" for problem in problems
                )
            if raised:  # the fleet's state is unknown: stop the run
                break
        index += 1
    result["peak_rss_mb"] = harness.peak_rss_mb()
    try:
        result["problems"].extend(
            f"end of run: {problem}" for problem in workload.finish()
        )
    except Exception as exc:  # a check that raises is a failed check
        result["problems"].append(f"end of run: check raised {exc!r}")
    if not result["attempted"]:
        result["problems"].append("no op ran")
    result["tracer"] = probes.tracer if probes is not None else None
    return result


def _one_op(workload, index, result, probes):
    """Time one op on a :class:`harness.HostClock`, then check it
    untimed; returns (the clock, problems, whether the op raised).
    Tracing, when on, is part of the timed op."""
    error = None
    with harness.HostClock() as clock:
        if probes is not None:
            probes.install()
            probes.tracer.op_id = index
            frame = probes.tracer.enter("bench.op")
        try:
            outcome = workload.op(index)
        except Exception as exc:  # a failed op is a result, not a crash
            error = exc
        if probes is not None:
            probes.tracer.exit(frame)
            probes.uninstall()
    if probes is not None:
        probes.tracer.end_op(clock.scale)
    if error is not None:
        return clock, [f"raised {error!r}"], True
    result["units"] += outcome.units
    if outcome.makespan is not None:
        result["makespans"].append(outcome.makespan)
    try:
        problems = workload.check(index, outcome)
    except Exception as exc:  # a check that raises is a failed check
        problems = [f"check raised {exc!r}"]
    result["records"].append(outcome.record)
    return clock, problems, False


def per_layer(result: dict) -> dict[str, tuple[float, str]]:
    import probes as probes_module

    traced, untraced = result["traced_ms"], result["untraced_ms"]
    overhead = (
        statistics.median(traced) - statistics.median(untraced)
        if traced and untraced else 0.0
    )
    values = probes_module.layer_metrics(
        result["tracer"], len(traced),
        makespans=result["makespans"], overhead_ms=overhead,
    )
    return {
        name: (value, probes_module.metric_unit(name))
        for name, value in values.items()
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("configure-cold", "fleet-deploy",
                                 "day2-ops", "day2-reconfigure"))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--ops", type=int, default=None,
                        help="run exactly N ops instead of --seconds")
    parser.add_argument("--scale", choices=("full", "tiny"), default="full")
    parser.add_argument("--repo", type=Path, default=None,
                        help="checkout whose src/ is measured "
                        "(default: the one holding this benchmark)")
    parser.add_argument("--out", default=None,
                        help="append the run record to this result set")
    parser.add_argument("--spans", default=None,
                        help="with --trace 1: write every span here "
                        "(JSON lines)")
    args = parser.parse_args(argv)

    repo = (args.repo or harness.default_repo()).resolve()
    if not harness.add_src_to_path(repo):
        print(f"error: no program at {repo / 'src'} (src/repro missing)",
              file=sys.stderr)
        return 2

    result = run_workload(
        args.workload, args.seed, seconds=args.seconds,
        trace=bool(args.trace), ops=args.ops, scale=args.scale,
    )
    ops = len(result["op_ms"])
    tail_p = result["tail_p"]
    wall_ms = result["wall_ms"] or [0.0]
    info = harness.provenance(repo, seed=args.seed, ops=ops, tail_p=tail_p)
    metrics = per_layer(result) if args.trace else end_to_end(result)

    print(f"workload {args.workload} seed {args.seed} scale {args.scale} "
          f"trace {args.trace}")
    print("provenance " + json.dumps(info, sort_keys=True))
    beyond = harness.samples_beyond(ops, tail_p)
    print(f"ops {ops} in {result['batches']} batches; op_tail_ms is "
          f"p{tail_p:g} with {beyond} samples beyond it")
    if args.trace:
        import probes as probes_module

        print(probes_module.render_table(
            {k: v for k, (v, _) in metrics.items()}, args.workload
        ))
        print(f"traced ops {len(result['traced_ms'])}, untraced ops "
              f"{len(result['untraced_ms'])}; tracing overhead "
              f"{metrics['trace.overhead_ms'][0]:.3f} ms on the op median")
    else:
        for name, (value, unit) in metrics.items():
            print(f"  {name:<14} {value:>14.4f} {unit}")
        print(f"  wall clock: op p50 {statistics.median(wall_ms):.4f} ms, "
              f"set-up {statistics.median(result['setup_wall_s']):.4f} s, "
              f"{sum(wall_ms) / 1000.0:.1f} s of ops "
              "(not scaled to the reference host)")
        if result["makespans"]:
            makespan = statistics.median(result["makespans"])
            print(f"  {'sim_makespan':<14} {makespan:>14.4f} sim_s "
                  "(median over ops; deterministic, not a speed)")
    for problem in result["problems"][:20]:
        print(f"FAILED {problem}")
    correct = not result["problems"] and result["failed"] == 0

    if args.spans and result["tracer"] is not None:
        result["tracer"].write(args.spans)
    if args.out:
        harness.append_result(args.out, {
            "workload": args.workload, "seed": args.seed,
            "seconds": args.seconds, "trace": args.trace,
            "scale": args.scale, "correct": correct,
            "attempted": result["attempted"], "failed": result["failed"],
            "metrics": {k: {"value": v, "unit": u}
                        for k, (v, u) in metrics.items()},
            "provenance": info,
            "samples": {"op_ms": result["op_ms"],
                        "wall_ms": result["wall_ms"],
                        "setup_s": result["setup_s"],
                        "setup_wall_s": result["setup_wall_s"]},
            "records": result["records"],
            "problems": result["problems"],
        })
    print(json.dumps({
        "correct": correct,
        # A run where no op ran counts as one failed attempt.
        "attempted": max(result["attempted"], 1),
        "failed": result["failed"] or int(not result["attempted"]),
        "metrics": {k: {"value": v, "unit": u}
                    for k, (v, u) in metrics.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
