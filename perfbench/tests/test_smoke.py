"""Tiny-size smoke tests of the benchmark harness and the traced run.

    python3 -m pytest -q perfbench/tests

Every workload runs a few ops at the ``tiny`` scale (a dozen replicas),
so the whole file takes seconds.  The span-accounting test checks what
the per-layer numbers rest on: spans nest, self times add up to the
traced ops' wall time, and the probes leave the program unpatched.
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
REPO = BENCH.parent
sys.path.insert(0, str(BENCH))

import harness  # noqa: E402

harness.add_src_to_path(REPO)

import compare  # noqa: E402
import probes  # noqa: E402
import run  # noqa: E402

SPEC = json.loads((REPO / "BENCHMARK.json").read_text(encoding="utf-8"))
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


@pytest.mark.parametrize("workload", WORKLOADS)
def test_tiny_run_is_correct_and_reports_every_metric(workload):
    result = run.run_workload(workload, 3, seconds=0, trace=False, ops=4,
                              scale="tiny", setups=1)
    assert result["problems"] == []
    assert result["attempted"] == 4 and result["failed"] == 0
    metrics = run.end_to_end(result)
    assert list(metrics) == [m["name"] for m in SPEC["end_to_end"]]
    for name, (value, unit) in metrics.items():
        assert value > 0, name
        assert unit == next(
            m["unit"] for m in SPEC["end_to_end"] if m["name"] == name
        )


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_run_span_accounting(workload):
    import repro.config.engine as engine
    import repro.drivers.base as drivers

    originals = (engine.propagate, drivers.ResourceDriver.perform)
    result = run.run_workload(workload, 3, seconds=0, trace=True, ops=4,
                              scale="tiny", setups=1)
    assert result["problems"] == []
    # Probes are removed after every traced op.
    assert (engine.propagate, drivers.ResourceDriver.perform) == originals

    tracer = result["tracer"]
    assert tracer.open_spans == 0
    by_id = {span[0]: span for span in tracer.spans}
    roots = [span for span in tracer.spans if span[4] == 0]
    assert {span[1] for span in roots} == {"bench.op"}
    assert len(roots) == len(result["traced_ms"]) > 0
    for span_id, name, start, end, parent, op in tracer.spans:
        assert start <= end
        if parent:
            outer = by_id[parent]
            assert outer[2] <= start and end <= outer[3], name
            assert outer[5] == op
    # Self times partition the root spans' wall time exactly.
    total_self = sum(tracer.self_s.values())
    total_root = sum(end - start for _, _, start, end, _, _ in roots)
    assert math.isclose(total_self, total_root, rel_tol=1e-9)
    # Every traced op's self times were scaled to the reference host.
    assert set(tracer.scaled_self_s) == set(tracer.self_s)
    assert all(value >= -1e-9 for value in tracer.self_s.values())

    metrics = run.per_layer(result)
    assert list(metrics) == [m["name"] for m in SPEC["per_layer"]]
    if workload == "configure-cold":
        assert metrics["config.hypergraph.calls"][0] == 1.0
        assert metrics["runtime.bus.sent"][0] == 0.0
    if workload == "fleet-deploy":
        assert metrics["runtime.bus.sent"][0] > 0
        assert metrics["runtime.coordinator.slave_steps"][0] > 0
        assert metrics["config.hypergraph.calls"][0] == 0.0


def test_host_clock_scales_wall_time_and_restores_the_timer():
    import signal
    import time

    previous = signal.getsignal(signal.SIGALRM)
    with harness.HostClock() as clock:
        end = time.perf_counter() + 0.1
        while time.perf_counter() < end:
            pass
    assert signal.getsignal(signal.SIGALRM) is previous
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
    # Passes before and after the region, and some on the timer inside.
    assert len(clock.passes) > 2 * harness.EDGE_PASSES
    # The passes inside the region are not counted as its time.
    assert 0.05 < clock.elapsed < 0.1
    assert clock.scaled == pytest.approx(clock.elapsed * clock.scale)


def test_run_takes_the_planned_whole_batches():
    import workloads

    day2 = workloads.WORKLOADS["day2-ops"](3, "tiny")
    assert day2.planned_ops(0.1) == day2.batch
    assert day2.planned_ops(30 * day2.batch_seconds) == 30 * day2.batch
    cold = workloads.WORKLOADS["configure-cold"](3, "tiny")
    assert cold.planned_ops(25) == cold.batch * round(25 / cold.batch_seconds)
    result = run.run_workload("configure-cold", 3, seconds=10.0,
                              trace=False, scale="tiny", setups=1)
    assert result["attempted"] == cold.planned_ops(10.0)
    assert result["problems"] == []


def test_harrell_davis_is_a_smooth_percentile():
    samples = [float(i) for i in range(1, 36)]
    assert harness.harrell_davis(samples, 50) == pytest.approx(18.0)
    assert harness.harrell_davis(samples, 70) == pytest.approx(25.0)
    assert harness.harrell_davis([4.0], 85) == 4.0
    # Moving one op across the median moves the estimate a little, not
    # all the way to its neighbour.
    gapped = [1.0] * 17 + [10.0, 20.0] + [30.0] * 16
    shifted = sorted(gapped[:17] + [19.0, 20.0] + gapped[19:])
    move = harness.harrell_davis(shifted, 50) - harness.harrell_davis(
        gapped, 50)
    assert 0 < move < 9.0


def test_tail_percentile_is_pinned_per_workload():
    import workloads

    assert harness.samples_beyond(40, 70) == 12
    for name in WORKLOADS:
        workload = workloads.WORKLOADS[name](1)
        p = workload.tail_percentile
        assert 50 < p < 100 and p % 5 == 0
        ops = workload.planned_ops(SPEC["run_seconds"])
        assert harness.samples_beyond(ops, p) >= 10


def test_fleet_comparison_sees_stale_files_but_not_shared_ones():
    import workloads
    from repro.config import ConfigurationEngine
    from repro.library import standard_registry
    from repro.library.fleet import fleet_partial

    registry = standard_registry()
    spec = ConfigurationEngine(registry).configure(
        fleet_partial(workloads.DAY2_SCALES["tiny"].base)
    ).spec
    a, writers = workloads.deploy_recording_writers(registry, spec)
    b, _ = workloads.deploy_recording_writers(registry, spec)
    checked = workloads.checked_paths(spec, writers)

    def differences():
        return workloads.fingerprint_differences(
            workloads.live_fingerprint(a, checked),
            workloads.live_fingerprint(b, checked),
        )

    assert differences() == []
    host = next(h for h, paths in sorted(writers.items())
                if any(len(ids) > 1 for ids in paths.values()))
    machine = next(m for m in a.infrastructure.network.machines()
                   if m.hostname == host)
    shared = next(path for path, ids in sorted(writers[host].items())
                  if len(ids) > 1)
    machine.fs.write_file(shared, "last writer\n")
    machine.fs.write_file("/etc/left-behind.conf", "removed instance\n")
    assert differences() == []
    own = next(path for path in sorted(checked[host])
               if path.endswith(".properties"))
    machine.fs.write_file(own, "db.url=jdbc:mysql://stale:1/x\n")
    assert differences() == [f"{host}:{own} differs from a fresh deploy"]


def test_day2_reconfigure_runs_and_checks_every_op():
    result = run.run_workload("day2-reconfigure", 3, seconds=0, trace=False,
                              ops=5, scale="tiny", setups=1)
    assert result["attempted"] == 5
    # Failures, if any, are output-check findings, never a crash.
    assert not any("raised" in problem for problem in result["problems"])


def test_layer_table_matches_benchmark_json():
    assert probes.PER_LAYER_METRICS == [m["name"] for m in SPEC["per_layer"]]
    for row in probes.LAYERS:
        for workload in row["on"] + row["bypassed_by"]:
            assert workload in WORKLOADS


def test_compare_verdicts():
    spec = {"bound": 0.1, "better": "lower"}
    base = [100.0, 101.0, 99.0, 100.5, 99.5]
    assert compare.verdict(base, [v * 1.2 for v in base],
                           list(zip(base, [v * 1.2 for v in base])),
                           spec) == "REGRESSION"
    faster = [v * 0.8 for v in base]
    assert compare.verdict(base, faster, list(zip(base, faster)),
                           spec) == "WIN"
    assert compare.verdict(base, base, list(zip(base, base)),
                           spec) == "same"
    noisy = [50.0, 100.0, 150.0, 60.0, 140.0]
    assert compare.verdict(noisy, noisy, list(zip(noisy, noisy)),
                           spec) == "unresolved"


def test_run_without_the_program_fails_without_a_result(tmp_path):
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(REPO / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "fleet-deploy",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert done.returncode != 0
    assert not any(line.startswith("{") for line in done.stdout.splitlines())
