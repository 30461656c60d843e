"""The configuration engine (S4).

Ties the pipeline together: partial installation specification ->
hypergraph (``GraphGen``) -> Boolean constraints (``Generate``) -> SAT
(the CDCL solver) -> port-value propagation -> full installation
specification.  Theorem 1 justifies raising
:class:`~repro.core.errors.UnsatisfiableError` when the solver says no.

Every result carries :class:`PhaseTimings` so callers (benchmarks, the
CLI, :class:`~repro.config.session.ConfigurationSession`) can see where
a query spent its time without re-instrumenting the pipeline.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Optional

from repro.core.errors import ConfigurationError, UnsatisfiableError
from repro.core.instances import InstallSpec, PartialInstallSpec
from repro.core.registry import ResourceTypeRegistry
from repro.core.wellformed import assert_well_formed
from repro.config.constraints import (
    ConstraintStats,
    generate_constraints,
    selected_nodes,
)
from repro.config.hypergraph import ResourceGraph, generate_graph
from repro.config.partition import (
    ComponentStats,
    PartitionInfo,
    merge_component_specs,
    partition_graph,
)
from repro.config.propagation import propagate
from repro.config.typecheck import check_spec
from repro.sat.cnf import CnfFormula
from repro.sat.encodings import ExactlyOneEncoding
from repro.sat.solver import CdclSolver, DpllSolver, SolverStats


@dataclass
class PhaseTimings:
    """Wall-clock milliseconds spent in each pipeline phase."""

    graph_ms: float = 0.0
    #: Connected-component split; 0 on the monolithic path.
    partition_ms: float = 0.0
    encode_ms: float = 0.0
    solve_ms: float = 0.0
    #: Model -> node names -> deployed set and disjunct choices.
    decode_ms: float = 0.0
    #: Port-value propagation, plus merging component specs.
    propagate_ms: float = 0.0
    #: The static re-check of the full specification (0 when disabled
    #: or served from a session's verified-spec cache).
    typecheck_ms: float = 0.0

    @property
    def total_ms(self) -> float:
        return (
            self.graph_ms + self.partition_ms + self.encode_ms
            + self.solve_ms + self.decode_ms + self.propagate_ms
            + self.typecheck_ms
        )


@dataclass
class SessionCacheInfo:
    """Per-call cache outcome, populated by ``ConfigurationSession``."""

    fingerprint: str = ""
    graph_hit: bool = False
    cnf_hit: bool = False
    solver_reused: bool = False
    typecheck_skipped: bool = False


@dataclass
class ConfigurationResult:
    """Everything the engine produced, for inspection and benchmarks."""

    spec: InstallSpec
    graph: ResourceGraph
    #: The monolithic CNF encoding; None on the partitioned path, which
    #: builds one formula per component instead (their aggregated sizes
    #: are in :attr:`constraint_stats` and match the monolithic ones).
    formula: Optional[CnfFormula]
    model: dict[str, bool]
    constraint_stats: ConstraintStats
    solver_stats: SolverStats
    deployed_ids: set[str] = field(default_factory=set)
    timings: PhaseTimings = field(default_factory=PhaseTimings)
    #: Cache outcome when the result came from a session; None otherwise.
    cache: Optional[SessionCacheInfo] = None
    #: Component sizes/timings when the partitioned pipeline ran.
    partition: Optional[PartitionInfo] = None


def canonical_model(
    formula: CnfFormula,
    solver: CdclSolver,
    assumptions=(),
) -> dict[int, bool]:
    """A decode model that does not depend on solver heuristics/history.

    The canonical model is the one found by static-order search: decide
    variables in index order, preferring False.  Because clauses never
    cross connected components, that search decomposes exactly over
    components -- which is what makes partitioned and monolithic decode
    bit-identical (see docs/INTERNALS.md).

    A CDCL run that never conflicted *is* that search: VSIDS ties break
    towards the lowest index while all activities are zero, and saved
    phases start False (a warm conflict-free solver replays its previous
    model under the same assumptions).  Only conflicted runs -- where
    activity bumps and backjump phase flips can reorder decisions -- pay
    a deterministic re-solve.
    """
    if solver.stats.conflicts == 0:
        return solver.model()
    deterministic = CdclSolver(formula, use_vsids=False, use_restarts=False)
    if not deterministic.solve(list(assumptions)):
        raise ConfigurationError(
            "canonical re-solve found no model for a satisfiable formula"
        )
    return deterministic.model()


def raise_unsatisfiable(
    registry: ResourceTypeRegistry,
    partial: PartialInstallSpec,
    graph: ResourceGraph,
    *,
    explain: bool,
    partition: bool = False,
) -> None:
    """Raise the Theorem 1 :class:`UnsatisfiableError`, optionally with a
    minimal-conflict explanation (shared by engine and session).

    ``partition`` selects the component-narrowed MUS computation in
    :mod:`repro.config.explain`; the resulting diagnosis is byte-identical
    to the monolithic one, just cheaper to compute.
    """
    message = (
        "no full installation specification extends the partial "
        f"specification (over {len(graph)} candidate instances)"
    )
    if explain:
        from repro.config.explain import explain_unsat

        explanation = explain_unsat(registry, partial, partition=partition)
        if explanation is not None:
            message += "\n" + explanation.message(graph)
    raise UnsatisfiableError(message)


def emit_config_trace(tracer, timings, cache=None, partition=None) -> None:
    """Emit one span per pipeline phase onto ``tracer``'s ``config`` lane.

    Wall-clock milliseconds are mapped onto the simulated timeline as
    seconds (ms -> s) so the spans are visible at trace scale; the real
    measurement is preserved in each span's ``wall_ms`` argument and in
    the ``config.<phase>_ms`` histograms.  Shared by the engine and the
    session so both produce the same event shape.
    """
    if tracer is None:
        return
    start = tracer.clock.now if tracer.clock is not None else 0.0
    phases = [
        ("configure:graph", timings.graph_ms),
        ("configure:partition", timings.partition_ms),
        ("configure:encode", timings.encode_ms),
        ("configure:solve", timings.solve_ms),
        ("configure:decode", timings.decode_ms),
        ("configure:propagate", timings.propagate_ms),
        ("configure:typecheck", timings.typecheck_ms),
    ]
    if partition is None:
        phases.pop(1)  # monolithic path: keep the original span shape
    for phase, wall_ms in phases:
        duration = wall_ms / 1000.0
        tracer.span(
            phase, category="config", start=start, duration=duration,
            lane="config", wall_ms=round(wall_ms, 3),
        )
        name = phase.split(":", 1)[1]
        tracer.metrics.histogram(f"config.{name}_ms").observe(wall_ms)
        start += duration
    if partition is not None:
        # One span per component on its own sub-lane, so a fleet-sized
        # configure shows where each machine group spent its time.  The
        # component index and node count ride along as args (the span
        # name alone is not machine-filterable in Perfetto).
        start = _emit_component_spans(tracer, partition, start)
        tracer.metrics.histogram("config.components").observe(partition.count)
    if cache is not None:
        tracer.instant(
            "cache", category="config", timestamp=start, lane="config",
            fingerprint=cache.fingerprint, graph_hit=cache.graph_hit,
            cnf_hit=cache.cnf_hit, solver_reused=cache.solver_reused,
            typecheck_skipped=cache.typecheck_skipped,
        )


def _emit_component_spans(tracer, partition, start) -> float:
    """Per-component spans: components ran one after another, so the
    spans are stacked sequentially."""
    component_start = start
    for component in partition.components:
        wall_ms = (
            component.encode_ms + component.solve_ms + component.decode_ms
            + component.propagate_ms + component.typecheck_ms
        )
        duration = wall_ms / 1000.0
        tracer.span(
            f"configure:component[{component.index}]",
            category="config", start=component_start, duration=duration,
            lane="config", wall_ms=round(wall_ms, 3),
            component=component.index, nodes=component.nodes,
            edges=component.edges, pinned=component.pinned,
            decisions=component.decisions, conflicts=component.conflicts,
        )
        tracer.metrics.histogram("config.component_ms").observe(wall_ms)
        component_start += duration
    return component_start


class ConfigurationEngine:
    """Expands partial installation specifications to full ones.

    With ``partition=True`` the pipeline splits the hypergraph into
    connected components after GraphGen and encodes/solves/propagates
    each component independently (:mod:`repro.config.partition`); the
    resulting specification is bit-identical to the monolithic one.
    ``configure(..., partition=...)`` overrides the mode per call.
    Every stage runs in the calling process (see docs/INTERNALS.md,
    "Partitioned configuration", for why there is no process pool).
    """

    def __init__(
        self,
        registry: ResourceTypeRegistry,
        *,
        encoding: ExactlyOneEncoding = ExactlyOneEncoding.PAIRWISE,
        solver: str = "cdcl",
        check_types: bool = True,
        verify_registry: bool = True,
        explain_unsat: bool = True,
        peer_policy: str = "colocate",
        partition: bool = False,
        tracer=None,
    ) -> None:
        if partition and solver == "dpll":
            raise ConfigurationError(
                "partitioned solving requires the cdcl solver (the DPLL "
                "ablation baseline has no canonical decomposition)"
            )
        self._registry = registry
        self._encoding = encoding
        self._solver = solver
        self._check_types = check_types
        self._explain_unsat = explain_unsat
        self._peer_policy = peer_policy
        self._partition = partition
        self._tracer = tracer
        if verify_registry:
            # Memoized on the registry: many engines over one registry
            # pay the full well-formedness sweep once.
            assert_well_formed(registry)

    @property
    def registry(self) -> ResourceTypeRegistry:
        return self._registry

    def configure(
        self,
        partial: PartialInstallSpec,
        *,
        partition: Optional[bool] = None,
    ) -> ConfigurationResult:
        """Compute a full installation specification extending ``partial``.

        Raises :class:`UnsatisfiableError` when no extension exists
        (Theorem 1), and surfaces any propagation or typechecking error.
        ``partition`` overrides the engine's configured mode for this
        call.
        """
        use_partition = self._partition if partition is None else partition
        if use_partition:
            if self._solver == "dpll":
                raise ConfigurationError(
                    "partitioned solving requires the cdcl solver (the "
                    "DPLL ablation baseline has no canonical "
                    "decomposition)"
                )
            return self._configure_partitioned(partial)
        timings = PhaseTimings()
        started = time.perf_counter()
        graph = generate_graph(
            self._registry, partial, peer_policy=self._peer_policy
        )
        ticked = time.perf_counter()
        timings.graph_ms = (ticked - started) * 1000.0
        formula, constraint_stats = generate_constraints(graph, self._encoding)
        started = time.perf_counter()
        timings.encode_ms = (started - ticked) * 1000.0

        engine: CdclSolver | DpllSolver
        if self._solver == "dpll":
            engine = DpllSolver(formula)
        else:
            engine = CdclSolver(formula)
        solved = engine.solve()
        if not solved:
            timings.solve_ms = (time.perf_counter() - started) * 1000.0
            raise_unsatisfiable(
                self._registry, partial, graph, explain=self._explain_unsat
            )
        if isinstance(engine, CdclSolver):
            model = canonical_model(formula, engine)
        else:
            # The DPLL ablation keeps its own (True-first) model; it is
            # never compared bit-for-bit against the partitioned path.
            model = engine.model()
        ticked = time.perf_counter()
        timings.solve_ms = (ticked - started) * 1000.0
        named_model = {
            str(name): value
            for name, value in formula.decode_model(model).items()
        }
        deployed, choices = selected_nodes(graph, named_model)
        started = time.perf_counter()
        timings.decode_ms = (started - ticked) * 1000.0
        spec = propagate(self._registry, graph, deployed, choices)
        ticked = time.perf_counter()
        timings.propagate_ms = (ticked - started) * 1000.0
        if self._check_types:
            check_spec(self._registry, spec)
            timings.typecheck_ms = (time.perf_counter() - ticked) * 1000.0
        emit_config_trace(self._tracer, timings)
        return ConfigurationResult(
            spec=spec,
            graph=graph,
            formula=formula,
            model=named_model,
            constraint_stats=constraint_stats,
            solver_stats=engine.stats,
            deployed_ids=deployed,
            timings=timings,
        )

    def _configure_partitioned(
        self, partial: PartialInstallSpec
    ) -> ConfigurationResult:
        """The component-partitioned pipeline (bit-identical results)."""
        timings = PhaseTimings()
        started = time.perf_counter()
        graph = generate_graph(
            self._registry, partial, peer_policy=self._peer_policy
        )
        ticked = time.perf_counter()
        timings.graph_ms = (ticked - started) * 1000.0
        parts = partition_graph(graph)
        started = time.perf_counter()
        timings.partition_ms = (started - ticked) * 1000.0
        info = PartitionInfo(partition_ms=timings.partition_ms)

        aggregate_constraints = ConstraintStats(0, 0, 0, 0)
        aggregate_solver = SolverStats(components=len(parts.components))
        named_model: dict[str, bool] = {}
        deployed: set[str] = set()
        choices: dict[tuple[str, int], str] = {}
        specs: list[InstallSpec] = []

        for component in parts.components:
            tick = time.perf_counter()
            formula, constraint_stats = generate_constraints(
                component.graph, self._encoding
            )
            encode_done = time.perf_counter()
            solver = CdclSolver(formula)
            if not solver.solve():
                timings.encode_ms += (encode_done - tick) * 1000.0
                timings.solve_ms += (time.perf_counter() - encode_done) * 1000.0
                raise_unsatisfiable(
                    self._registry, partial, graph,
                    explain=self._explain_unsat, partition=True,
                )
            model = canonical_model(formula, solver)
            solve_done = time.perf_counter()
            named = {
                str(name): value
                for name, value in formula.decode_model(model).items()
            }
            component_deployed, component_choices = selected_nodes(
                component.graph, named
            )
            decode_done = time.perf_counter()
            spec = propagate(
                self._registry, component.graph,
                component_deployed, component_choices,
            )
            propagate_done = time.perf_counter()
            if self._check_types:
                check_spec(self._registry, spec)
            typecheck_done = time.perf_counter()

            named_model.update(named)
            deployed |= component_deployed
            choices.update(component_choices)
            specs.append(spec)
            _accumulate_constraint_stats(
                aggregate_constraints, constraint_stats
            )
            _accumulate_solver_stats(aggregate_solver, solver.stats)
            stats = ComponentStats(
                index=component.index,
                nodes=len(component.graph),
                edges=len(component.graph.edges()),
                pinned=len(component.pinned),
                encode_ms=(encode_done - tick) * 1000.0,
                solve_ms=(solve_done - encode_done) * 1000.0,
                decode_ms=(decode_done - solve_done) * 1000.0,
                propagate_ms=(propagate_done - decode_done) * 1000.0,
                typecheck_ms=(typecheck_done - propagate_done) * 1000.0,
                decisions=solver.stats.decisions,
                conflicts=solver.stats.conflicts,
            )
            info.components.append(stats)
            _accumulate_component_timings(timings, stats)

        tick = time.perf_counter()
        spec = merge_component_specs(specs)
        timings.propagate_ms += (time.perf_counter() - tick) * 1000.0
        emit_config_trace(self._tracer, timings, partition=info)
        return ConfigurationResult(
            spec=spec,
            graph=graph,
            formula=None,
            model=named_model,
            constraint_stats=aggregate_constraints,
            solver_stats=aggregate_solver,
            deployed_ids=deployed,
            timings=timings,
            partition=info,
        )


def _accumulate_component_timings(
    timings: PhaseTimings, component: ComponentStats
) -> None:
    """Add one component's per-phase times to the run's totals."""
    timings.encode_ms += component.encode_ms
    timings.solve_ms += component.solve_ms
    timings.decode_ms += component.decode_ms
    timings.propagate_ms += component.propagate_ms
    timings.typecheck_ms += component.typecheck_ms


def _accumulate_constraint_stats(
    total: ConstraintStats, part: ConstraintStats
) -> None:
    """Sum per-component encoding sizes.

    The encoding is edge-local, so the sums equal the monolithic
    formula's sizes exactly.
    """
    total.variables += part.variables
    total.clauses += part.clauses
    total.facts += part.facts
    total.hyperedges += part.hyperedges


def _accumulate_solver_stats(total: SolverStats, part: SolverStats) -> None:
    total.decisions += part.decisions
    total.propagations += part.propagations
    total.conflicts += part.conflicts
    total.learned_clauses += part.learned_clauses
    total.deleted_clauses += part.deleted_clauses
    total.restarts += part.restarts
    total.max_learned_length = max(
        total.max_learned_length, part.max_learned_length
    )
    total.solve_calls += part.solve_calls
