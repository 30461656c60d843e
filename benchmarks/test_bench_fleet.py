"""Fleet-scale configuration: partitioned and parallel solving.

Two claims, one results file (``benchmarks/BENCH_fleet.json``):

* **serial**: on a fleet whose GraphGen hypergraph splits into one
  component per machine, solving the components independently and
  merging the decoded specs gives a bit-identical specification.
  Every configure stage is linear in graph size, so the recorded
  monolithic/partitioned ratio sits near 1x; it is recorded (median
  of :data:`REPEATS` runs, with the monolithic stage times), not
  asserted.  The linearity itself is guarded by a deterministic
  edge-visit count in ``tests/test_hypergraph.py``.
* **parallel**: fanning those components out across a process pool
  (``workers=N``) multiplies partitioned throughput again.  Measures a
  1/2/4/8 worker matrix at 8k nodes (16k/32k and a ~100k stretch run
  are ``slow``-marked), asserts bit-identical output at every worker
  count, and asserts >= 2x at 4 workers over ``workers=1`` -- a floor
  that is only *enforced* when the machine actually has >= 4 cores
  (``cores`` is recorded in the JSON either way, so a single-core run
  still produces honest numbers instead of a vacuous pass).

The file is written read-modify-write so the serial and parallel tests
can run in any order (or alone) without clobbering each other's rows.
"""

from __future__ import annotations

import json
import os
import pathlib
import statistics
import time

import pytest

from repro.config import ConfigurationEngine
from repro.dsl import full_to_json
from repro.library.fleet import FleetTopology, fleet_partial

#: (replicas, machines) -> roughly 512 / 2048 / 4096 graph nodes.
SIZES = ((96, 32), (384, 128), (768, 256))

#: Timed runs per pipeline and size in the serial benchmark.
REPEATS = 3

#: The worker matrix of the parallel benchmark (0 = serial in-process,
#: kept as the equivalence baseline row).
WORKER_MATRIX = (1, 2, 4, 8)

#: (replicas, machines) -> roughly 8192 graph nodes (16 nodes/machine).
PARALLEL_SIZES = ((1536, 512),)

#: Slow-marked extensions: ~16k and ~32k nodes.
PARALLEL_SIZES_SLOW = ((3072, 1024), (6144, 2048))

#: The ~100k-node stretch run (slow-marked; workers 1 and 4 only).
STRETCH_SIZE = (18750, 6250)

#: Floor at 4 workers vs workers=1, enforced only on >=4-core machines.
PARALLEL_SPEEDUP_FLOOR = 2.0

RESULTS_PATH = pathlib.Path(__file__).parent / "BENCH_fleet.json"


def _cores() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # platforms without CPU affinity
        return os.cpu_count() or 1


def _update_results(section: str, payload: dict) -> dict:
    """Merge ``section`` into the shared results file and return it."""
    data: dict = {}
    if RESULTS_PATH.exists():
        try:
            data = json.loads(RESULTS_PATH.read_text(encoding="utf-8"))
        except (json.JSONDecodeError, OSError):
            data = {}
    if "sizes" in data:  # pre-parallel single-section format
        data = {}
    data["benchmark"] = "fleet_configure"
    data["cores"] = _cores()
    data[section] = payload
    RESULTS_PATH.write_text(
        json.dumps(data, indent=2) + "\n", encoding="utf-8"
    )
    return data


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

    _update_results("serial", {"repeats": REPEATS, "sizes": rows})
    assert rows[-1]["nodes"] >= 512


def _bench_worker_matrix(registry, sizes, matrix) -> list[dict]:
    """One row per size: the worker matrix, with equivalence asserted."""
    rows = []
    for replicas, machines in sizes:
        topology = FleetTopology(replicas=replicas, machines=machines)
        partial = fleet_partial(topology)

        serial_engine = ConfigurationEngine(
            registry, partition=True, verify_registry=False
        )
        serial_seconds, serial = _timed(serial_engine, partial)
        expected = full_to_json(serial.spec)
        nodes = len(serial.graph)

        runs = []
        base_seconds = None
        for workers in matrix:
            engine = ConfigurationEngine(
                registry, partition=True, workers=workers,
                verify_registry=False,
            )
            try:
                seconds, result = _timed(engine, partial)
            finally:
                engine.close()
            assert full_to_json(result.spec) == expected, (
                f"workers={workers} output differs from serial "
                f"partitioned at {nodes} nodes"
            )
            assert result.partition is not None
            assert result.partition.workers == workers
            if base_seconds is None:
                base_seconds = seconds
            run_row = {
                "workers": workers,
                "seconds": round(seconds, 4),
                "nodes_per_sec": round(nodes / seconds, 1),
                "speedup_vs_1_worker": round(base_seconds / seconds, 2),
            }
            wire = result.partition.wire
            if wire is not None:
                components = result.partition.components
                run_row["wire_bytes"] = {
                    "reply": wire.reply_bytes,
                    "request": wire.request_bytes,
                    "reply_frames": wire.reply_frames,
                    "largest_reply": wire.largest_reply_bytes,
                }
                run_row["stage_ms"] = {
                    "dispatch": round(wire.dispatch_ms, 2),
                    "recv_wait": round(wire.recv_wait_ms, 2),
                    "encode": round(
                        sum(c.encode_ms for c in components), 2
                    ),
                    "solve": round(
                        sum(c.solve_ms for c in components), 2
                    ),
                    "decode": round(
                        sum(c.decode_ms for c in components), 2
                    ),
                    "propagate": round(
                        sum(c.propagate_ms for c in components), 2
                    ),
                }
            runs.append(run_row)
        rows.append({
            "replicas": replicas,
            "machines": machines,
            "nodes": nodes,
            "components": machines,
            "serial_seconds": round(serial_seconds, 4),
            "serial_nodes_per_sec": round(nodes / serial_seconds, 1),
            "workers": runs,
        })
    return rows


def _finish_parallel(rows: list[dict]) -> None:
    """Merge ``rows`` into the results file and enforce the floor."""
    data: dict = {}
    if RESULTS_PATH.exists():
        try:
            data = json.loads(RESULTS_PATH.read_text(encoding="utf-8"))
        except (json.JSONDecodeError, OSError):
            data = {}
    existing = data.get("parallel", {}).get("sizes", [])
    by_nodes = {row["nodes"]: row for row in existing}
    for row in rows:
        by_nodes[row["nodes"]] = row
    merged = [by_nodes[nodes] for nodes in sorted(by_nodes)]
    # Best observed configure throughput across every pipeline
    # (serial partitioned included) -- the documented nodes/sec ceiling.
    ceiling = max(
        max(run["nodes_per_sec"] for run in row["workers"])
        if row["workers"] else 0.0
        for row in merged
    )
    ceiling = max(
        ceiling, max(row["serial_nodes_per_sec"] for row in merged)
    )
    cores = _cores()
    _update_results("parallel", {
        "speedup_floor_at_4_workers": PARALLEL_SPEEDUP_FLOOR,
        "floor_enforced": cores >= 4,
        "ceiling_nodes_per_sec": ceiling,
        "sizes": merged,
    })
    for row in rows:
        four = next(
            (r for r in row["workers"] if r["workers"] == 4), None
        )
        if four is None:
            continue
        if cores >= 4:
            assert four["speedup_vs_1_worker"] >= PARALLEL_SPEEDUP_FLOOR, (
                f"only {four['speedup_vs_1_worker']}x at 4 workers / "
                f"{row['nodes']} nodes on {cores} cores "
                f"(floor {PARALLEL_SPEEDUP_FLOOR}x): {row}"
            )


def test_parallel_fleet_worker_matrix(registry):
    """The 1/2/4/8 worker matrix at ~8k nodes (acceptance benchmark)."""
    rows = _bench_worker_matrix(registry, PARALLEL_SIZES, WORKER_MATRIX)
    assert rows[0]["nodes"] >= 8192
    _finish_parallel(rows)


@pytest.mark.slow
def test_parallel_fleet_worker_matrix_large(registry):
    """The slow 16k/32k extension of the worker matrix."""
    rows = _bench_worker_matrix(
        registry, PARALLEL_SIZES_SLOW, WORKER_MATRIX
    )
    assert rows[-1]["nodes"] >= 32768
    _finish_parallel(rows)


@pytest.mark.slow
def test_parallel_fleet_stretch_100k(registry):
    """The ~100k-node stretch run (workers 1 and 4 only)."""
    rows = _bench_worker_matrix(registry, (STRETCH_SIZE,), (1, 4))
    assert rows[0]["nodes"] >= 100000
    _finish_parallel(rows)
