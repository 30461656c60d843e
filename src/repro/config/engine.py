"""The configuration engine (S4).

Ties the pipeline together: partial installation specification ->
hypergraph (``GraphGen``) -> Boolean constraints (``Generate``) -> SAT
(the CDCL solver) -> port-value propagation -> full installation
specification.  Theorem 1 justifies raising
:class:`~repro.core.errors.UnsatisfiableError` when the solver says no.

There is one pipeline, in two halves.  :meth:`ConfigurationEngine._build`
runs GraphGen and encodes the graph as *units* -- the whole graph, or
with ``partition=True`` each of its connected components
(:mod:`repro.config.partition`) -- with the pinned-instance facts as
solver assumptions.  :meth:`ConfigurationEngine._run` solves each unit,
decodes its canonical model, propagates and typechecks, and merges the
unit specs.  :meth:`ConfigurationEngine.configure` is build + run with
nothing kept; :class:`~repro.config.session.ConfigurationSession` keeps
the built entries and their solvers, so a warm call only runs.

Every result carries :class:`PhaseTimings` so callers (benchmarks, the
CLI, sessions) can see where a query spent its time without
re-instrumenting the pipeline.
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
    fact_literals,
    generate_constraints,
    selected_nodes,
)
from repro.config.hypergraph import ResourceGraph, generate_graph
from repro.config.partition import (
    ComponentStats,
    GraphComponent,
    PartitionInfo,
    merge_component_specs,
    partition_graph,
)
from repro.config.propagation import propagate
from repro.config.typecheck import check_spec
from repro.sat.cnf import CnfFormula
from repro.sat.encodings import ExactlyOneEncoding
from repro.sat.solver import CdclSolver, SolverStats


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
    #: The monolithic CNF encoding (pinned-instance facts are solver
    #: assumptions, not clauses); None on the partitioned path, which
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
    #: Component sizes/timings on a partitioned run; None otherwise.
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


class _Unit:
    """One independently solved piece of a configured graph: the whole
    graph, or one connected component of it."""

    __slots__ = (
        "graph", "component", "formula", "assumptions", "encode_ms",
        "solver", "canonical",
    )

    def __init__(
        self,
        graph: ResourceGraph,
        component: Optional[GraphComponent],
        formula: CnfFormula,
        assumptions: list[int],
        encode_ms: float,
    ) -> None:
        self.graph = graph
        #: The partition's component record; None for a whole-graph unit.
        self.component = component
        self.formula = formula
        self.assumptions = assumptions
        #: One-time encoding cost, reported on the building call only.
        self.encode_ms = encode_ms
        #: Built on first solve and kept, so a cached unit re-solves
        #: incrementally (its stats are cumulative across calls).
        self.solver: Optional[CdclSolver] = None
        #: The deterministic-order model, kept once the solver has
        #: conflicted (the assumptions are fixed per unit, so the
        #: canonical model never changes).
        self.canonical: Optional[dict[int, bool]] = None


class _Entry:
    """A generated graph and its encoded units: what one configure needs
    before solving, and what a session caches per key."""

    __slots__ = (
        "graph", "partitioned", "units", "constraint_stats",
        "verified_specs",
    )

    def __init__(self, graph: ResourceGraph, partitioned: bool) -> None:
        self.graph = graph
        self.partitioned = partitioned
        self.units: list[_Unit] = []
        #: Summed over units; the encoding is edge-local, so the sums
        #: equal the whole-graph formula's sizes exactly.
        self.constraint_stats = ConstraintStats(0, 0, 0, 0)
        #: (deployed, choices) outcome -> the propagated (and, when
        #: enabled, typechecked) instances, in topological order; used
        #: by session configure calls only.  The instances are frozen
        #: dataclasses, so reuse is safe; only the InstallSpec container
        #: is rebuilt per call.
        self.verified_specs: dict[tuple, tuple] = {}


class ConfigurationEngine:
    """Expands partial installation specifications to full ones.

    Every call is cold: nothing is kept between calls.
    :class:`~repro.config.session.ConfigurationSession` is the cached
    front end over the same pipeline.  With ``partition=True`` the
    pipeline splits the hypergraph into connected components after
    GraphGen and solves/propagates each one independently
    (:mod:`repro.config.partition`); the resulting specification is
    bit-identical to the monolithic one.  Every stage runs in the
    calling process (see docs/INTERNALS.md, "Partitioned
    configuration", for why there is no process pool).
    """

    def __init__(
        self,
        registry: ResourceTypeRegistry,
        *,
        encoding: ExactlyOneEncoding = ExactlyOneEncoding.PAIRWISE,
        check_types: bool = True,
        verify_registry: bool = True,
        explain_unsat: bool = True,
        peer_policy: str = "colocate",
        partition: bool = False,
        tracer=None,
    ) -> None:
        self._registry = registry
        self._encoding = encoding
        self._check_types = check_types
        self._verify_registry = verify_registry
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

    def configure(self, partial: PartialInstallSpec) -> ConfigurationResult:
        """Compute a full installation specification extending ``partial``.

        Raises :class:`UnsatisfiableError` when no extension exists
        (Theorem 1), and surfaces any propagation or typechecking error.
        """
        timings = PhaseTimings()
        entry = self._build(partial, self._partition, timings)
        result = self._run(partial, entry, entry.units, timings)
        emit_config_trace(self._tracer, timings, partition=result.partition)
        return result

    # -- The pipeline ---------------------------------------------------

    def _build(
        self,
        partial: PartialInstallSpec,
        partitioned: bool,
        timings: PhaseTimings,
    ) -> _Entry:
        """GraphGen, then encode each unit once (the first half)."""
        started = time.perf_counter()
        graph = generate_graph(
            self._registry, partial, peer_policy=self._peer_policy
        )
        ticked = time.perf_counter()
        timings.graph_ms = (ticked - started) * 1000.0
        pieces: list[tuple[ResourceGraph, Optional[GraphComponent]]]
        if partitioned:
            pieces = [
                (component.graph, component)
                for component in partition_graph(graph).components
            ]
            timings.partition_ms = (time.perf_counter() - ticked) * 1000.0
        else:
            pieces = [(graph, None)]
        entry = _Entry(graph, partitioned)
        for unit_graph, component in pieces:
            tick = time.perf_counter()
            formula, constraint_stats = generate_constraints(
                unit_graph, self._encoding, facts_as_assumptions=True
            )
            assumptions = sorted(fact_literals(unit_graph, formula).values())
            encode_ms = (time.perf_counter() - tick) * 1000.0
            entry.units.append(
                _Unit(unit_graph, component, formula, assumptions, encode_ms)
            )
            _accumulate_constraint_stats(
                entry.constraint_stats, constraint_stats
            )
            timings.encode_ms += encode_ms
        return entry

    def _run(
        self,
        partial: PartialInstallSpec,
        entry: _Entry,
        units: list[_Unit],
        timings: PhaseTimings,
        cache: Optional[SessionCacheInfo] = None,
        stats=None,
    ) -> ConfigurationResult:
        """Solve, decode, propagate and typecheck ``units`` of ``entry``,
        then merge their specs (the second half).

        Each unit's solver is built on first use and kept on the unit.
        With a ``cache`` (a session's configure call) the decoded
        outcome is first looked up in the entry's verified-spec memo;
        ``stats`` (a session's :class:`SessionStats`) counts solver
        builds/reuses and typecheck runs/skips.
        """
        named_model: dict[str, bool] = {}
        deployed: set[str] = set()
        choices: dict[tuple[str, int], str] = {}
        outcomes: list[tuple[set[str], dict[tuple[str, int], str]]] = []
        solve_ms: list[float] = []
        decode_ms: list[float] = []
        for unit in units:
            tick = time.perf_counter()
            solver = unit.solver
            if solver is None:
                solver = unit.solver = CdclSolver(unit.formula)
                if stats is not None:
                    stats.solver_builds += 1
            else:
                if cache is not None:
                    cache.solver_reused = True
                if stats is not None:
                    stats.solver_reuses += 1
            if not solver.solve(unit.assumptions):
                raise_unsatisfiable(
                    self._registry, partial, entry.graph,
                    explain=self._explain_unsat,
                    partition=entry.partitioned,
                )
            model = unit.canonical
            if model is None:
                model = canonical_model(
                    unit.formula, solver, unit.assumptions
                )
                if solver.stats.conflicts:
                    unit.canonical = model
            solve_done = time.perf_counter()
            named = {
                str(name): value
                for name, value in unit.formula.decode_model(model).items()
            }
            unit_deployed, unit_choices = selected_nodes(unit.graph, named)
            decode_done = time.perf_counter()
            named_model.update(named)
            deployed |= unit_deployed
            choices.update(unit_choices)
            outcomes.append((unit_deployed, unit_choices))
            solve_ms.append((solve_done - tick) * 1000.0)
            decode_ms.append((decode_done - solve_done) * 1000.0)
            timings.solve_ms += solve_ms[-1]
            timings.decode_ms += decode_ms[-1]

        started = time.perf_counter()
        propagate_ms = [0.0] * len(units)
        typecheck_ms = [0.0] * len(units)
        key = instances = None
        if cache is not None:
            key = (frozenset(deployed), tuple(sorted(choices.items())))
            instances = entry.verified_specs.get(key)
        if instances is not None:
            spec = InstallSpec(instances)
            cache.typecheck_skipped = True
            stats.typecheck_skips += 1
        else:
            specs: list[InstallSpec] = []
            for index, unit in enumerate(units):
                tick = time.perf_counter()
                unit_spec = propagate(
                    self._registry, unit.graph, *outcomes[index]
                )
                propagate_done = time.perf_counter()
                if self._check_types:
                    check_spec(self._registry, unit_spec)
                specs.append(unit_spec)
                propagate_ms[index] = (propagate_done - tick) * 1000.0
                typecheck_ms[index] = (
                    time.perf_counter() - propagate_done
                ) * 1000.0
            # A one-unit run has nothing to merge.
            spec = (
                specs[0] if len(specs) == 1
                else merge_component_specs(specs)
            )
            if key is not None:
                entry.verified_specs[key] = tuple(spec)
            if stats is not None:
                stats.typecheck_runs += 1
        timings.typecheck_ms = sum(typecheck_ms)
        timings.propagate_ms = (
            (time.perf_counter() - started) * 1000.0 - timings.typecheck_ms
        )

        info: Optional[PartitionInfo] = None
        if entry.partitioned:
            info = PartitionInfo(partition_ms=timings.partition_ms)
            solver_stats = SolverStats(components=len(units))
            encoded = cache is None or not cache.cnf_hit
            for index, unit in enumerate(units):
                unit_stats = unit.solver.stats
                info.components.append(
                    ComponentStats(
                        index=unit.component.index,
                        nodes=len(unit.graph),
                        edges=len(unit.graph.edges()),
                        pinned=len(unit.component.pinned),
                        encode_ms=unit.encode_ms if encoded else 0.0,
                        solve_ms=solve_ms[index],
                        propagate_ms=propagate_ms[index],
                        decisions=unit_stats.decisions,
                        conflicts=unit_stats.conflicts,
                        decode_ms=decode_ms[index],
                        typecheck_ms=typecheck_ms[index],
                    )
                )
                _accumulate_solver_stats(solver_stats, unit_stats)
            formula = None
        else:
            (unit,) = units
            solver_stats = unit.solver.stats
            formula = unit.formula
        return ConfigurationResult(
            spec=spec,
            graph=entry.graph,
            formula=formula,
            model=named_model,
            constraint_stats=entry.constraint_stats,
            solver_stats=solver_stats,
            deployed_ids=deployed,
            timings=timings,
            cache=cache,
            partition=info,
        )


def _accumulate_constraint_stats(
    total: ConstraintStats, part: ConstraintStats
) -> None:
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
