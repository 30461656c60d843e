"""Incremental configuration sessions (the warm-query fast path).

The paper's §6.2 evaluation -- and any deployment manager serving
repeated traffic -- runs *families* of near-identical configuration
queries against one fixed resource library: re-planning a deployment,
sweeping a configuration space, answering the same request for many
tenants.  :class:`ConfigurationEngine` treats every call as cold; a
session runs the same pipeline (:mod:`repro.config.engine`) but keeps
what the first half of it builds:

* registry **well-formedness** is verified once and memoized on the
  registry (invalidated when a type is registered);
* the **hypergraph and its CNF encoding** are cached per canonical
  structural fingerprint of the partial specification
  (:mod:`repro.config.fingerprint`); the family-1 facts are
  *assumption literals* rather than unit clauses, so the clause
  database encodes only graph structure;
* one **persistent incremental** :class:`~repro.sat.solver.CdclSolver`
  per cached unit (the whole graph, or one component) answers every
  solve: learned clauses, VSIDS activities, and saved phases survive
  across calls, and each query is just the unit's assumption vector
  over the shared clause database;
* the **propagated specification** is memoized per decoded outcome -- a
  warm call that reproduces an already-verified (deployed, choices) pair
  reuses the frozen :class:`~repro.core.instances.ResourceInstance`
  values instead of re-running value propagation and the static
  re-check, wrapped in a fresh
  :class:`~repro.core.instances.InstallSpec` container so callers that
  mutate their spec (provisioning, upgrades) cannot corrupt the cache.

Results are bit-identical to per-call
:meth:`ConfigurationEngine.configure` output: the same full
specifications and deployed ids, with cache/timing metadata attached.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

from repro.core.errors import ConfigurationError
from repro.core.instances import InstallSpec, PartialInstallSpec
from repro.core.registry import ResourceTypeRegistry
from repro.core.wellformed import assert_well_formed
from repro.config.engine import (
    ConfigurationEngine,
    ConfigurationResult,
    PhaseTimings,
    SessionCacheInfo,
    _Entry,
    emit_config_trace,
)
from repro.config.fingerprint import fingerprint_partial
from repro.sat.encodings import ExactlyOneEncoding

# The pipeline's stage functions, bound here too so per-module probes
# (``perfbench/probes.py``) resolve the same names in both modules.
from repro.config.constraints import generate_constraints  # noqa: F401
from repro.config.hypergraph import generate_graph  # noqa: F401
from repro.config.partition import (  # noqa: F401
    merge_component_specs,
    partition_graph,
)
from repro.config.propagation import propagate  # noqa: F401
from repro.config.typecheck import check_spec  # noqa: F401


@dataclass
class SessionStats:
    """Cumulative cache-hit/miss counters for one session."""

    configure_calls: int = 0
    graph_hits: int = 0
    graph_misses: int = 0
    cnf_hits: int = 0
    cnf_misses: int = 0
    solver_builds: int = 0
    solver_reuses: int = 0
    typecheck_runs: int = 0
    typecheck_skips: int = 0
    evictions: int = 0
    invalidations: int = 0

    @property
    def hit_rate(self) -> float:
        total = self.graph_hits + self.graph_misses
        return self.graph_hits / total if total else 0.0


class ConfigurationSession(ConfigurationEngine):
    """A long-lived, cache-backed front end to the configuration engine.

    Accepts the same options as :class:`ConfigurationEngine` and
    produces bit-identical results; see the module docstring for what
    is amortized across calls.  ``max_entries`` bounds the cache (least
    recently used entries are evicted, keeping memory flat under
    unbounded distinct-query traffic).
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
        max_entries: int = 1024,
        tracer=None,
    ) -> None:
        if max_entries < 1:
            raise ValueError("max_entries must be at least 1")
        super().__init__(
            registry, encoding=encoding, check_types=check_types,
            verify_registry=verify_registry, explain_unsat=explain_unsat,
            peer_policy=peer_policy, partition=partition, tracer=tracer,
        )
        self._max_entries = max_entries
        #: Keyed by (partitioned, fingerprint): the two modes cache
        #: different units (the whole graph, or one per component), so
        #: the monolithic entry of a spec never serves a partitioned
        #: lookup of it, or the reverse.
        self._entries: dict[tuple, _Entry] = {}
        self.stats = SessionStats()
        self._registry_version = registry.version

    def __len__(self) -> int:
        """Number of cached partial-spec structures."""
        return len(self._entries)

    def flush(self) -> None:
        """Drop every cached graph, formula, and solver."""
        self._entries.clear()

    def _revalidate(self) -> None:
        """Flush if the registry changed since the caches were built."""
        if self._registry.version == self._registry_version:
            return
        self.flush()
        self.stats.invalidations += 1
        if self._verify_registry:
            assert_well_formed(self._registry)
        self._registry_version = self._registry.version

    def _entry(
        self,
        partial: PartialInstallSpec,
        partitioned: bool,
        cache: SessionCacheInfo,
        timings: PhaseTimings,
    ) -> _Entry:
        """The cached entry for ``partial`` in the given mode, built on
        a miss (least recently used entries are evicted)."""
        key = (partitioned, cache.fingerprint)
        entry = self._entries.pop(key, None)
        if entry is not None:
            self._entries[key] = entry  # re-insert: LRU refresh
            cache.graph_hit = cache.cnf_hit = True
            self.stats.graph_hits += 1
            self.stats.cnf_hits += 1
            return entry
        entry = self._build(partial, partitioned, timings)
        self.stats.graph_misses += 1
        self.stats.cnf_misses += 1
        self._entries[key] = entry
        if len(self._entries) > self._max_entries:
            del self._entries[next(iter(self._entries))]
            self.stats.evictions += 1
        return entry

    def configure(self, partial: PartialInstallSpec) -> ConfigurationResult:
        """Expand ``partial``, reusing every cache the session holds.

        Semantics match :meth:`ConfigurationEngine.configure`, including
        :class:`~repro.core.errors.UnsatisfiableError` on Theorem 1
        failures.
        """
        self._revalidate()
        self.stats.configure_calls += 1
        timings = PhaseTimings()
        cache = SessionCacheInfo(fingerprint=fingerprint_partial(partial))
        entry = self._entry(partial, self._partition, cache, timings)
        result = self._run(
            partial, entry, entry.units, timings, cache, self.stats
        )
        emit_config_trace(self._tracer, timings, cache, result.partition)
        return result

    def reconfigure_components(
        self,
        partial: PartialInstallSpec,
        instance_ids: Iterable[str],
    ) -> InstallSpec:
        """Re-solve and re-propagate only the components containing
        ``instance_ids``; returns their merged full specification.

        This is the reconcile loop's goal-revalidation path: after a
        machine loss the controller re-derives just the affected slice
        of the goal and checks it still matches what it is about to
        redeploy.  The *cached full-graph partition* is what makes the
        result bit-identical to the matching slice of the full
        specification: generated node ids are numbered globally per
        graph, so configuring a smaller partial from scratch would
        renumber them.  The partitioned entry for ``partial`` is built
        on first use, whichever mode the session configures in.
        """
        wanted = set(instance_ids)
        if not wanted:
            raise ConfigurationError(
                "reconfigure_components needs at least one instance id"
            )
        self._revalidate()
        timings = PhaseTimings()
        cache = SessionCacheInfo(fingerprint=fingerprint_partial(partial))
        entry = self._entry(partial, True, cache, timings)
        affected = []
        covered: set[str] = set()
        for unit in entry.units:
            hit = {iid for iid in wanted if iid in unit.graph}
            if hit:
                affected.append(unit)
                covered |= hit
        missing = wanted - covered
        if missing:
            raise ConfigurationError(
                "reconfigure_components: instances not in the configured "
                f"graph: {sorted(missing)}"
            )
        return self._run(
            partial, entry, affected, timings, stats=self.stats
        ).spec

    def revalidate_instances(
        self,
        partial: PartialInstallSpec,
        spec: InstallSpec,
        instance_ids: Iterable[str],
    ) -> int:
        """Re-derive ``instance_ids`` through the warm per-component
        solvers and insist they still match ``spec``; returns how many
        instances were re-validated.

        The shared goal-drift guard: both the reconcile loop (before
        repairing toward a goal) and the delta planner (before
        deploying a new goal) call this so that no instance is driven
        toward a definition the solver never approved -- a mismatch
        means the spec was mutated since configuration, and acting on
        it would deploy an unverified system, so fail loudly instead.
        """
        wanted = list(instance_ids)
        if not wanted:
            return 0
        fresh = self.reconfigure_components(partial, wanted)
        for instance in fresh:
            if instance.id in spec and instance != spec[instance.id]:
                raise ConfigurationError(
                    f"goal drift: instance {instance.id!r} no longer "
                    "matches its configured definition; refusing to act "
                    "on an unverified goal"
                )
        return len(fresh)
