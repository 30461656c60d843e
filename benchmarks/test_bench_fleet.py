"""Fleet-scale configuration: partitioned vs monolithic solving.

On a fleet whose GraphGen hypergraph splits into one component per
machine, solving the components independently and merging the decoded
specs gives a bit-identical specification.  Every configure stage is
linear in graph size, so the recorded monolithic/partitioned ratio sits
near 1x; it is recorded in ``benchmarks/BENCH_fleet.json`` (median of
:data:`REPEATS` runs, with the monolithic stage times), not asserted.
The linearity itself is guarded by a deterministic edge-visit count in
``tests/test_hypergraph.py``.
"""

from __future__ import annotations

import json
import os
import pathlib
import statistics
import time

from repro.config import ConfigurationEngine
from repro.dsl import full_to_json
from repro.library.fleet import FleetTopology, fleet_partial

#: (replicas, machines) -> roughly 512 / 2048 / 4096 graph nodes.
SIZES = ((96, 32), (384, 128), (768, 256))

#: Timed runs per pipeline and size in the serial benchmark.
REPEATS = 3

RESULTS_PATH = pathlib.Path(__file__).parent / "BENCH_fleet.json"


def _cores() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # platforms without CPU affinity
        return os.cpu_count() or 1


def _write_results(serial: dict) -> None:
    RESULTS_PATH.write_text(
        json.dumps(
            {"benchmark": "fleet_configure", "cores": _cores(),
             "serial": serial},
            indent=2,
        ) + "\n",
        encoding="utf-8",
    )


def _timed(engine: ConfigurationEngine, partial):
    start = time.perf_counter()
    result = engine.configure(partial)
    return time.perf_counter() - start, result


def test_partitioned_fleet_speedup(registry):
    mono_engine = ConfigurationEngine(registry)
    part_engine = ConfigurationEngine(registry, partition=True)
    rows = []
    for replicas, machines in SIZES:
        partial = fleet_partial(
            FleetTopology(replicas=replicas, machines=machines)
        )
        mono_runs = [_timed(mono_engine, partial) for _ in range(REPEATS)]
        part_runs = [_timed(part_engine, partial) for _ in range(REPEATS)]
        mono_seconds = statistics.median(t for t, _ in mono_runs)
        part_seconds = statistics.median(t for t, _ in part_runs)
        mono, part = mono_runs[0][1], part_runs[0][1]
        assert full_to_json(part.spec) == full_to_json(mono.spec)
        assert part.partition is not None
        assert part.partition.count == machines
        nodes = len(part.graph)
        stage_ms = {
            stage: round(statistics.median(
                getattr(result.timings, f"{stage}_ms")
                for _, result in mono_runs
            ), 2)
            for stage in (
                "graph", "encode", "solve", "decode", "propagate",
                "typecheck",
            )
        }
        rows.append({
            "replicas": replicas,
            "machines": machines,
            "nodes": nodes,
            "components": part.partition.count,
            "largest_component_nodes": part.partition.largest,
            "monolithic_seconds": round(mono_seconds, 4),
            "partitioned_seconds": round(part_seconds, 4),
            "monolithic_nodes_per_sec": round(nodes / mono_seconds, 1),
            "partitioned_nodes_per_sec": round(nodes / part_seconds, 1),
            "speedup": round(mono_seconds / part_seconds, 2),
            "monolithic_stage_ms": stage_ms,
        })

    _write_results({"repeats": REPEATS, "sizes": rows})
    assert rows[-1]["nodes"] >= 512
