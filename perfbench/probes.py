"""Per-layer tracing for the traced run (``--trace 1``).

The probes wrap the program's public functions at the points where the
pipeline calls them -- module attributes such as
``repro.config.engine.propagate`` and methods such as
``ResourceDriver.perform`` -- and only while a traced op runs: they
are installed before it and removed after, so untraced ops run the
unmodified program.  Each wrapper records a span (name, start, end,
parent span, op id) and the layer's counts.  Spans stay in memory and
are written out at the end when asked.

A layer's self time is its span durations minus the time its child
spans cover.  The op itself is the root span (``bench.op``), so every
traced wall-clock millisecond lands in exactly one layer's self time.
"""

from __future__ import annotations

import functools
import importlib
import json
import statistics
import time
from collections import defaultdict
from typing import Callable

#: One row per layer: its metrics, which end-to-end metrics it should
#: move, the workloads that exercise it, and the workloads that bypass
#: it (where the prediction for a change to the layer is "no change").
LAYERS = [
    {
        "layer": "config.hypergraph",
        "metrics": ["config.hypergraph.ms", "config.hypergraph.calls",
                    "config.hypergraph.nodes"],
        "moves": "op_p50_ms, op_tail_ms, nodes_per_s",
        "on": ["configure-cold"], "bypassed_by": ["fleet-deploy"],
    },
    {
        "layer": "config.constraints",
        "metrics": ["config.constraints.ms", "config.constraints.clauses"],
        "moves": "op_p50_ms, op_tail_ms, nodes_per_s",
        "on": ["configure-cold"], "bypassed_by": ["fleet-deploy"],
    },
    {
        "layer": "sat",
        "metrics": ["sat.solve.ms", "sat.decisions", "sat.conflicts"],
        "moves": "op_p50_ms, op_tail_ms, nodes_per_s (small share)",
        "on": ["configure-cold"], "bypassed_by": ["fleet-deploy"],
    },
    {
        "layer": "config.propagation",
        "metrics": ["config.propagation.ms"],
        "moves": "op_tail_ms first (quadratic)",
        "on": ["configure-cold"], "bypassed_by": ["fleet-deploy"],
    },
    {
        "layer": "config.typecheck",
        "metrics": ["config.typecheck.ms", "config.typecheck.calls"],
        "moves": "op_p50_ms",
        "on": ["configure-cold", "day2-ops"], "bypassed_by": ["fleet-deploy"],
    },
    {
        "layer": "config.partition",
        "metrics": ["config.partition.ms"],
        "moves": "op_p50_ms",
        "on": ["day2-ops"], "bypassed_by": ["fleet-deploy"],
    },
    {
        "layer": "config.engine",
        "metrics": ["config.engine.self_ms"],
        "moves": "op_p50_ms",
        "on": ["configure-cold"], "bypassed_by": ["fleet-deploy", "day2-ops"],
    },
    {
        "layer": "config.session",
        "metrics": ["config.session.ms", "config.session.hit_ratio"],
        "moves": "op_p50_ms",
        "on": ["day2-ops"], "bypassed_by": ["configure-cold"],
    },
    {
        "layer": "dsl.json_spec",
        "metrics": ["dsl.json_spec.ms", "dsl.json_spec.bytes"],
        "moves": "op_p50_ms",
        "on": ["configure-cold"], "bypassed_by": ["day2-ops"],
    },
    {
        "layer": "runtime.scheduler",
        "metrics": ["runtime.scheduler.self_ms",
                    "runtime.scheduler.sim_wait_s"],
        "moves": "op_p50_ms; sim makespan for policy changes",
        "on": ["fleet-deploy", "day2-ops"],
        "bypassed_by": ["configure-cold"],
    },
    {
        "layer": "drivers",
        "metrics": ["drivers.perform.ms", "drivers.perform.calls",
                    "drivers.perform.failed"],
        "moves": "op_p50_ms, nodes_per_s",
        "on": ["fleet-deploy", "day2-ops"],
        "bypassed_by": ["configure-cold"],
    },
    {
        "layer": "runtime.journal",
        "metrics": ["runtime.journal.record.ms", "runtime.journal.records"],
        "moves": "op_p50_ms",
        "on": ["fleet-deploy", "day2-ops"],
        "bypassed_by": ["configure-cold"],
    },
    {
        "layer": "runtime.bus",
        "metrics": ["runtime.bus.send.ms", "runtime.bus.deliver.ms",
                    "runtime.bus.sent", "runtime.bus.delivered",
                    "runtime.bus.retransmits", "runtime.bus.useful_ratio"],
        "moves": "op_p50_ms, nodes_per_s; must not move sim makespan",
        "on": ["fleet-deploy"], "bypassed_by": ["day2-ops", "configure-cold"],
    },
    {
        "layer": "runtime.coordinator",
        "metrics": ["runtime.coordinator.self_ms",
                    "runtime.coordinator.slave_steps"],
        "moves": "op_p50_ms, nodes_per_s; must not move sim makespan",
        "on": ["fleet-deploy"], "bypassed_by": ["day2-ops"],
    },
    {
        "layer": "runtime.delta",
        "metrics": ["runtime.delta.plan.ms", "runtime.delta.execute.ms",
                    "runtime.delta.plan_fraction"],
        "moves": "op_p50_ms",
        "on": ["day2-ops"], "bypassed_by": ["fleet-deploy"],
    },
    {
        "layer": "runtime.reconcile",
        "metrics": ["runtime.reconcile.detect.ms",
                    "runtime.reconcile.plan.ms",
                    "runtime.reconcile.execute.ms",
                    "runtime.reconcile.plan_steps"],
        "moves": "op_tail_ms, sim makespan",
        "on": ["day2-ops"], "bypassed_by": ["fleet-deploy"],
    },
    {
        "layer": "runtime (simulated)",
        "metrics": ["runtime.sim_makespan_s"],
        "moves": "(deterministic per seed; a count, not a speed)",
        "on": ["fleet-deploy", "day2-ops"],
        "bypassed_by": ["configure-cold"],
    },
    {
        "layer": "bench",
        "metrics": ["bench.op.self_ms", "trace.overhead_ms"],
        "moves": "(op time outside every probed layer; tracing cost)",
        "on": ["configure-cold", "fleet-deploy", "day2-ops"],
        "bypassed_by": [],
    },
]

def metric_unit(name: str) -> str:
    """Unit of a per-layer metric: times and counts are per traced op."""
    if name.endswith("_ratio") or name.endswith("_fraction"):
        return "ratio"
    if name == "trace.overhead_ms":
        return "ms"
    if name == "runtime.sim_makespan_s":
        return "sim_s"
    if name.endswith(".ms") or name.endswith("_ms"):
        return "ms/op"
    if name.endswith("_s"):
        return "sim_s/op"
    return "count/op"


PER_LAYER_METRICS = [m for row in LAYERS for m in row["metrics"]]


class _Frame:
    __slots__ = ("span_id", "name", "start", "child")

    def __init__(self, span_id: int, name: str, start: float) -> None:
        self.span_id = span_id
        self.name = name
        self.start = start
        self.child = 0.0


class SpanTracer:
    """In-memory spans plus per-name self/total time and counters.

    ``self_s`` and ``total_s`` are wall seconds; ``scaled_self_s`` is
    ``self_s`` with each op's share scaled to the reference host
    (:meth:`end_op`), as the end-to-end times are.
    """

    def __init__(self) -> None:
        #: (span id, name, start s, end s, parent span id or 0, op id)
        self.spans: list[tuple] = []
        self.self_s: dict[str, float] = defaultdict(float)
        self.total_s: dict[str, float] = defaultdict(float)
        self.scaled_self_s: dict[str, float] = defaultdict(float)
        self._op_self_s: dict[str, float] = defaultdict(float)
        self.counts: dict[str, float] = defaultdict(float)
        self.op_id = -1
        self._stack: list[_Frame] = []
        self._next_id = 1

    def enter(self, name: str) -> _Frame:
        frame = _Frame(self._next_id, name, time.perf_counter())
        self._next_id += 1
        self._stack.append(frame)
        return frame

    def exit(self, frame: _Frame) -> None:
        end = time.perf_counter()
        popped = self._stack.pop()
        if popped is not frame:
            raise RuntimeError(
                f"span {frame.name!r} closed out of order "
                f"(innermost open span is {popped.name!r})"
            )
        duration = end - frame.start
        parent = self._stack[-1] if self._stack else None
        if parent is not None:
            parent.child += duration
        self.self_s[frame.name] += duration - frame.child
        self._op_self_s[frame.name] += duration - frame.child
        self.total_s[frame.name] += duration
        self.spans.append((
            frame.span_id, frame.name, frame.start, end,
            parent.span_id if parent is not None else 0, self.op_id,
        ))

    def end_op(self, scale: float) -> None:
        """Add the self times of the op just traced to ``scaled_self_s``,
        multiplied by that op's host scale (``HostClock.scale``)."""
        for name, seconds in self._op_self_s.items():
            self.scaled_self_s[name] += seconds * scale
        self._op_self_s.clear()

    @property
    def open_spans(self) -> int:
        return len(self._stack)

    def write(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            for span in self.spans:
                span_id, name, start, end, parent, op = span
                handle.write(json.dumps({
                    "id": span_id, "name": name, "start": start,
                    "end": end, "parent": parent, "op": op,
                }) + "\n")


# -- Probe hooks: counts taken at the same boundary as the span ---------------

def _count_graph(tracer, args, before, result):
    tracer.counts["config.hypergraph.calls"] += 1
    tracer.counts["config.hypergraph.nodes"] += len(result)


def _count_constraints(tracer, args, before, result):
    tracer.counts["config.constraints.clauses"] += result[1].clauses


def _solver_before(args):
    stats = args[0].stats
    return stats.decisions, stats.conflicts


def _count_solve(tracer, args, before, result):
    stats = args[0].stats
    tracer.counts["sat.decisions"] += stats.decisions - before[0]
    tracer.counts["sat.conflicts"] += stats.conflicts - before[1]


def _count_typecheck(tracer, args, before, result):
    tracer.counts["config.typecheck.calls"] += 1


def _count_session(tracer, args, before, result):
    cache = result.cache
    tracer.counts["config.session.calls"] += 1
    tracer.counts["config.session.hits"] += (
        int(cache.graph_hit) + int(cache.cnf_hit)
        + int(cache.typecheck_skipped)
    )


def _count_json_in(tracer, args, before, result):
    tracer.counts["dsl.json_spec.bytes"] += len(args[0].encode())


def _count_json_out(tracer, args, before, result):
    tracer.counts["dsl.json_spec.bytes"] += len(result.encode())


def _count_schedule(tracer, args, before, result):
    tracer.counts["runtime.scheduler.sim_wait_s"] += (
        result.makespan_seconds - result.critical_path_seconds
    )


def _count_perform(tracer, args, before, result):
    tracer.counts["drivers.perform.calls"] += 1


def _count_record(tracer, args, before, result):
    tracer.counts["runtime.journal.records"] += 1


def _count_bus_deploy(tracer, args, before, result):
    report = result.report
    tracer.counts["runtime.bus.sent"] += report.bus_stats["total_sent"]
    tracer.counts["runtime.bus.delivered"] += \
        report.bus_stats["total_delivered"]
    tracer.counts["runtime.bus.retransmits"] += report.retransmits


def _count_repair_plan(tracer, args, before, result):
    tracer.counts["runtime.reconcile.plan_steps"] += len(result)


#: (module, class or None, attribute, span, before, after, failure
#: counter).  The span is a span name, or ``("count", counter)`` for a
#: count-only probe: calls too frequent and too small to time without
#: distorting them only bump ``counter``.
PROBES = [
    ("repro.config.engine", None, "generate_graph", "config.hypergraph",
     None, _count_graph, None),
    ("repro.config.session", None, "generate_graph", "config.hypergraph",
     None, _count_graph, None),
    ("repro.config.engine", None, "generate_constraints",
     "config.constraints", None, _count_constraints, None),
    ("repro.config.session", None, "generate_constraints",
     "config.constraints", None, _count_constraints, None),
    ("repro.sat.solver", "CdclSolver", "solve", "sat.solve",
     _solver_before, _count_solve, None),
    ("repro.config.engine", None, "propagate", "config.propagation",
     None, None, None),
    ("repro.config.session", None, "propagate", "config.propagation",
     None, None, None),
    ("repro.config.engine", None, "check_spec", "config.typecheck",
     None, _count_typecheck, None),
    ("repro.config.session", None, "check_spec", "config.typecheck",
     None, _count_typecheck, None),
    ("repro.config.engine", None, "partition_graph", "config.partition",
     None, None, None),
    ("repro.config.engine", None, "merge_component_specs",
     "config.partition", None, None, None),
    ("repro.config.session", None, "partition_graph", "config.partition",
     None, None, None),
    ("repro.config.session", None, "merge_component_specs",
     "config.partition", None, None, None),
    ("repro.config.engine", "ConfigurationEngine", "configure",
     "config.engine", None, None, None),
    ("repro.config.session", "ConfigurationSession", "configure",
     "config.session", None, _count_session, None),
    ("repro.dsl.json_spec", None, "partial_from_json", "dsl.json_spec",
     None, _count_json_in, None),
    ("repro.dsl.json_spec", None, "full_to_json", "dsl.json_spec",
     None, _count_json_out, None),
    ("repro.runtime.scheduler", None, "execute_serial", "runtime.scheduler",
     None, _count_schedule, None),
    ("repro.runtime.scheduler", "DagScheduler", "run", "runtime.scheduler",
     None, _count_schedule, None),
    ("repro.drivers.base", "ResourceDriver", "perform", "drivers.perform",
     None, _count_perform, "drivers.perform.failed"),
    ("repro.runtime.journal", "DeploymentJournal", "record",
     "runtime.journal.record", None, _count_record, None),
    ("repro.runtime.bus", "MessageBus", "send", "runtime.bus.send",
     None, None, None),
    ("repro.runtime.bus", "MessageBus", "deliver_due", "runtime.bus.deliver",
     None, None, None),
    ("repro.runtime.coordinator", "BusCoordinator", "deploy",
     "runtime.coordinator", None, _count_bus_deploy, None),
    ("repro.runtime.coordinator", "SlaveAgent", "step",
     ("count", "runtime.coordinator.slave_steps"), None, None, None),
    ("repro.runtime.delta", None, "plan_delta", "runtime.delta.plan",
     None, None, None),
    ("repro.runtime.delta", None, "execute_delta", "runtime.delta.execute",
     None, None, None),
    ("repro.runtime.reconcile", None, "detect_drift",
     "runtime.reconcile.detect", None, None, None),
    ("repro.runtime.reconcile", None, "plan_repair", "runtime.reconcile.plan",
     None, _count_repair_plan, None),
    ("repro.runtime.reconcile", None, "execute_plan",
     "runtime.reconcile.execute", None, None, None),
]

def _make_wrapper(tracer, fn, span, before, after, failure):
    @functools.wraps(fn)
    def traced(*args, **kwargs):
        state = before(args) if before is not None else None
        frame = tracer.enter(span)
        try:
            result = fn(*args, **kwargs)
        except BaseException:
            tracer.exit(frame)
            if failure is not None:
                tracer.counts[failure] += 1
            raise
        tracer.exit(frame)
        if after is not None:
            after(tracer, args, state, result)
        return result

    return traced


def _make_counter(tracer, fn, counter):
    @functools.wraps(fn)
    def counted(*args, **kwargs):
        tracer.counts[counter] += 1
        return fn(*args, **kwargs)

    return counted


class Probes:
    """Installs every probe onto the loaded program and removes it."""

    def __init__(self, tracer: SpanTracer) -> None:
        self.tracer = tracer
        self._saved: list[tuple[object, str, Callable]] = []
        self._wrapped: list[tuple[object, str, Callable]] = []
        for module_name, cls, attr, span, before, after, failure in PROBES:
            module = importlib.import_module(module_name)
            owner = getattr(module, cls) if cls is not None else module
            # Read through __dict__ so a class keeps its plain function
            # (not a bound or static wrapper) when restored.
            original = vars(owner)[attr]
            if isinstance(span, tuple):
                wrapped = _make_counter(tracer, original, span[1])
            else:
                wrapped = _make_wrapper(
                    tracer, original, span, before, after, failure
                )
            self._saved.append((owner, attr, original))
            self._wrapped.append((owner, attr, wrapped))

    def install(self) -> None:
        for owner, attr, wrapped in self._wrapped:
            setattr(owner, attr, wrapped)

    def uninstall(self) -> None:
        for owner, attr, original in self._saved:
            setattr(owner, attr, original)


def layer_metrics(
    tracer: SpanTracer,
    traced_ops: int,
    *,
    makespans: list[float],
    overhead_ms: float,
) -> dict[str, float]:
    """Every per-layer metric of :data:`PER_LAYER_METRICS`, per traced op."""
    n = max(traced_ops, 1)

    def self_ms(*names: str) -> float:
        return sum(tracer.scaled_self_s.get(name, 0.0) for name in names) \
            * 1000.0 / n

    def count(name: str) -> float:
        return tracer.counts.get(name, 0.0) / n

    def ratio(num: float, den: float) -> float:
        return num / den if den else 0.0

    counts = tracer.counts
    plan_s = tracer.total_s.get("runtime.delta.plan", 0.0)
    execute_s = tracer.total_s.get("runtime.delta.execute", 0.0)
    values = {
        "config.hypergraph.ms": self_ms("config.hypergraph"),
        "config.hypergraph.calls": count("config.hypergraph.calls"),
        "config.hypergraph.nodes": count("config.hypergraph.nodes"),
        "config.constraints.ms": self_ms("config.constraints"),
        "config.constraints.clauses": count("config.constraints.clauses"),
        "sat.solve.ms": self_ms("sat.solve"),
        "sat.decisions": count("sat.decisions"),
        "sat.conflicts": count("sat.conflicts"),
        "config.propagation.ms": self_ms("config.propagation"),
        "config.typecheck.ms": self_ms("config.typecheck"),
        "config.typecheck.calls": count("config.typecheck.calls"),
        "config.partition.ms": self_ms("config.partition"),
        "config.engine.self_ms": self_ms("config.engine"),
        "config.session.ms": self_ms("config.session"),
        "config.session.hit_ratio": ratio(
            counts.get("config.session.hits", 0.0),
            3 * counts.get("config.session.calls", 0.0),
        ),
        "dsl.json_spec.ms": self_ms("dsl.json_spec"),
        "dsl.json_spec.bytes": count("dsl.json_spec.bytes"),
        "runtime.scheduler.self_ms": self_ms("runtime.scheduler"),
        "runtime.scheduler.sim_wait_s": count("runtime.scheduler.sim_wait_s"),
        "drivers.perform.ms": self_ms("drivers.perform"),
        "drivers.perform.calls": count("drivers.perform.calls"),
        "drivers.perform.failed": count("drivers.perform.failed"),
        "runtime.journal.record.ms": self_ms("runtime.journal.record"),
        "runtime.journal.records": count("runtime.journal.records"),
        "runtime.bus.send.ms": self_ms("runtime.bus.send"),
        "runtime.bus.deliver.ms": self_ms("runtime.bus.deliver"),
        "runtime.bus.sent": count("runtime.bus.sent"),
        "runtime.bus.delivered": count("runtime.bus.delivered"),
        "runtime.bus.retransmits": count("runtime.bus.retransmits"),
        "runtime.bus.useful_ratio": ratio(
            counts.get("runtime.bus.delivered", 0.0),
            counts.get("runtime.bus.sent", 0.0),
        ),
        "runtime.coordinator.self_ms": self_ms("runtime.coordinator"),
        "runtime.coordinator.slave_steps":
            count("runtime.coordinator.slave_steps"),
        "runtime.delta.plan.ms": self_ms("runtime.delta.plan"),
        "runtime.delta.execute.ms": self_ms("runtime.delta.execute"),
        "runtime.delta.plan_fraction": ratio(plan_s, plan_s + execute_s),
        "runtime.reconcile.detect.ms": self_ms("runtime.reconcile.detect"),
        "runtime.reconcile.plan.ms": self_ms("runtime.reconcile.plan"),
        "runtime.reconcile.execute.ms": self_ms("runtime.reconcile.execute"),
        "runtime.reconcile.plan_steps": count("runtime.reconcile.plan_steps"),
        "runtime.sim_makespan_s": (
            statistics.median(makespans) if makespans else 0.0
        ),
        "bench.op.self_ms": self_ms("bench.op"),
        "trace.overhead_ms": overhead_ms,
    }
    missing = set(PER_LAYER_METRICS) ^ set(values)
    if missing:
        raise RuntimeError(f"per-layer metric table out of sync: {missing}")
    return values


def render_table(values: dict[str, float], workload: str) -> str:
    """The per-layer table for one workload: value, unit, and whether
    the workload exercises or bypasses the layer."""
    lines = [f"per-layer ({workload}; per traced op):"]
    for row in LAYERS:
        role = (
            "on" if workload in row["on"]
            else "bypassed" if workload in row["bypassed_by"] else "-"
        )
        lines.append(
            f"  {row['layer']:<20} [{role:<8}] moves: {row['moves']}"
        )
        for name in row["metrics"]:
            lines.append(
                f"    {name:<34} {values[name]:>14.4f} {metric_unit(name)}"
            )
    return "\n".join(lines)
