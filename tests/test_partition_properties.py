"""Component-partitioned configuration equals the monolithic pipeline.

The tentpole property: for every partial installation specification,
a ``partition=True`` engine or session produces the same
full specification, named model, deployed set, and aggregate constraint
sizes as the monolithic path, byte for byte; and on unsatisfiable input
both paths raise :class:`UnsatisfiableError` with the *same* minimal
conflict diagnosis.

Exercised three ways: direct partitioner unit tests, the checked-in
example stacks, and a seeded random fleet corpus (the ``fuzz``-marked
classes run the full ≥200-case corpus; the unmarked smoke subsets keep
tier-1 coverage).
"""

from __future__ import annotations

import pytest

from repro.config import ConfigurationEngine, ConfigurationSession
from repro.config.hypergraph import generate_graph
from repro.config.partition import merge_component_specs, partition_graph
from repro.core import PartialInstallSpec, PartialInstance, as_key
from repro.core.errors import UnsatisfiableError
from repro.dsl import full_to_json, load_resources, partial_from_json
from repro.library import standard_registry
from repro.library.fleet import FleetTopology, fleet_partial

from tests.test_fuzz import conflict_mutant, random_fleet_partial

REGISTRY = standard_registry()

SMOKE_SEEDS = list(range(20))
CORPUS_SEEDS = list(range(200))
MUTANT_SMOKE_SEEDS = list(range(5))
MUTANT_CORPUS_SEEDS = list(range(40))


def assert_equivalent(partial: PartialInstallSpec) -> None:
    """Partitioned output (engine, cold session, warm session) is
    bit-identical to the monolithic engine's."""
    mono = ConfigurationEngine(REGISTRY).configure(partial)
    part = ConfigurationEngine(REGISTRY, partition=True).configure(partial)
    expected = full_to_json(mono.spec)

    assert full_to_json(part.spec) == expected
    assert part.model == mono.model
    assert part.deployed_ids == mono.deployed_ids
    assert part.formula is None
    assert part.partition is not None
    assert part.solver_stats.components == part.partition.count
    assert part.constraint_stats.variables == mono.constraint_stats.variables
    assert part.constraint_stats.clauses == mono.constraint_stats.clauses
    assert part.constraint_stats.hyperedges == (
        mono.constraint_stats.hyperedges
    )

    session = ConfigurationSession(REGISTRY, partition=True)
    cold = session.configure(partial)
    warm = session.configure(partial)
    assert full_to_json(cold.spec) == expected
    assert full_to_json(warm.spec) == expected
    assert cold.model == warm.model == mono.model
    assert warm.cache.graph_hit and warm.cache.solver_reused


def assert_same_diagnosis(partial: PartialInstallSpec) -> None:
    """Both paths refuse with the same Theorem 1 message/diagnosis."""
    with pytest.raises(UnsatisfiableError) as mono_exc:
        ConfigurationEngine(REGISTRY).configure(partial)
    with pytest.raises(UnsatisfiableError) as part_exc:
        ConfigurationEngine(REGISTRY, partition=True).configure(partial)
    with pytest.raises(UnsatisfiableError) as session_exc:
        ConfigurationSession(REGISTRY, partition=True).configure(partial)
    assert str(part_exc.value) == str(mono_exc.value)
    assert str(session_exc.value) == str(mono_exc.value)


def figure2():
    return PartialInstallSpec([
        PartialInstance("server", as_key("Mac-OSX 10.6"),
                        config={"hostname": "demotest"}),
        PartialInstance("tomcat", as_key("Tomcat 6.0.18"),
                        inside_id="server"),
        PartialInstance("openmrs", as_key("OpenMRS 1.8"),
                        inside_id="tomcat"),
    ])


class TestPartitioner:
    """partition_graph: a true partition, machine-aligned on fleets."""

    def test_single_stack_is_one_component(self):
        graph = generate_graph(REGISTRY, figure2())
        parts = partition_graph(graph)
        assert len(parts) == 1
        assert set(parts.components[0].node_ids) == {
            node.instance_id for node in graph.nodes()
        }

    def test_fleet_has_one_component_per_machine(self):
        partial = fleet_partial(FleetTopology(replicas=6, machines=3))
        graph = generate_graph(REGISTRY, partial)
        parts = partition_graph(graph)
        assert len(parts) == 3
        for component in parts.components:
            machines = {
                graph.machine_of(node_id) for node_id in component.node_ids
            }
            assert len(machines) == 1

    def test_components_partition_nodes_and_edges(self):
        partial = fleet_partial(FleetTopology(replicas=5, machines=2))
        graph = generate_graph(REGISTRY, partial)
        parts = partition_graph(graph)
        all_ids = [
            node_id
            for component in parts.components
            for node_id in component.node_ids
        ]
        assert len(all_ids) == len(set(all_ids)) == len(graph)
        assert sum(
            len(component.graph.edges()) for component in parts.components
        ) == len(graph.edges())
        for component in parts.components:
            members = set(component.node_ids)
            for edge in component.graph.edges():
                assert edge.source_id in members
                assert set(edge.targets) <= members

    def test_component_of_covers_every_node(self):
        partial = fleet_partial(FleetTopology(replicas=4, machines=4))
        graph = generate_graph(REGISTRY, partial)
        parts = partition_graph(graph)
        for node in graph.nodes():
            index = parts.component_of[node.instance_id]
            assert node.instance_id in parts.components[index].node_ids

    def test_components_numbered_by_first_appearance(self):
        partial = fleet_partial(FleetTopology(replicas=4, machines=2))
        graph = generate_graph(REGISTRY, partial)
        parts = partition_graph(graph)
        seen: list[int] = []
        for node in graph.nodes():
            index = parts.component_of[node.instance_id]
            if index not in seen:
                seen.append(index)
        assert seen == sorted(seen)

    def test_pinned_sets_are_component_local(self):
        partial = fleet_partial(FleetTopology(replicas=6, machines=3))
        graph = generate_graph(REGISTRY, partial)
        parts = partition_graph(graph)
        pinned = {
            node.instance_id
            for node in graph.nodes()
            if node.from_partial
        }
        assert set().union(
            *(component.pinned for component in parts.components)
        ) == pinned


class TestMergeDeterminism:
    def test_merge_reproduces_global_topological_order(self):
        """The k-way merge of per-component orders equals the global
        Kahn order -- the id sequence of the monolithic spec."""
        partial = fleet_partial(FleetTopology(replicas=6, machines=3))
        mono = ConfigurationEngine(REGISTRY).configure(partial)
        part = ConfigurationEngine(
            REGISTRY, partition=True
        ).configure(partial)
        assert [i.id for i in part.spec] == [i.id for i in mono.spec]

    def test_merge_of_empty_input_is_empty(self):
        assert len(merge_component_specs([])) == 0


class TestEngineContract:
    def test_constructor_mode_sets_result_shape(self):
        mono = ConfigurationEngine(REGISTRY).configure(figure2())
        assert mono.partition is None
        assert mono.formula is not None
        assert mono.solver_stats.components == 1
        part = ConfigurationEngine(
            REGISTRY, partition=True
        ).configure(figure2())
        assert part.partition is not None and part.partition.count == 1
        assert part.formula is None

    def test_partition_info_shape(self):
        partial = fleet_partial(FleetTopology(replicas=6, machines=3))
        result = ConfigurationEngine(
            REGISTRY, partition=True
        ).configure(partial)
        info = result.partition
        assert info.count == 3
        assert info.largest == max(c.nodes for c in info.components)
        assert sum(c.nodes for c in info.components) == len(result.graph)
        assert all(c.decisions >= 0 for c in info.components)
        assert result.timings.partition_ms >= 0.0


#: Four services, each needing exactly one of the runtimes listed, in
#: this order.
CONFLICTING_SERVICES = {
    "P": "AED",
    "Q": "BC",
    "R": "BDA",
    "S": "ECD",
}


def conflicting_registry():
    """The standard library plus :data:`CONFLICTING_SERVICES`.

    On a machine hosting all four services, the CDCL solver's first
    decisions run into a conflict, and the model it then finds (runtimes
    A and C) differs from the canonical static-order one (B and E).
    """
    registry = standard_registry()
    text = "".join(
        f'resource "Runtime-{name}" 1.0 {{ inside "Server" }}\n'
        for name in "ABCDE"
    )
    for service, runtimes in CONFLICTING_SERVICES.items():
        alternatives = " | ".join(f'"Runtime-{r}" 1.0' for r in runtimes)
        text += (
            f'resource "Svc-{service}" 1.0 {{ inside "Server"\n'
            f"  env {alternatives} }}\n"
        )
    load_resources(text, registry)
    return registry


def conflicting_partial(machines: int) -> PartialInstallSpec:
    entries = []
    for index in range(machines):
        machine = f"m{index}"
        entries.append(
            PartialInstance(machine, as_key("Mac-OSX 10.6"),
                            config={"hostname": f"host{index}"})
        )
        entries.extend(
            PartialInstance(f"{service.lower()}{index}",
                            as_key(f"Svc-{service} 1.0"), inside_id=machine)
            for service in CONFLICTING_SERVICES
        )
    return PartialInstallSpec(entries)


class TestConflictedSolve:
    """The deterministic re-solve :func:`canonical_model` runs after a
    conflicted CDCL solve is what keeps every mode bit-identical."""

    def test_every_mode_agrees_when_the_solve_conflicts(self):
        registry = conflicting_registry()
        partial = conflicting_partial(machines=2)
        engine = ConfigurationEngine(registry).configure(partial)
        assert engine.solver_stats.conflicts > 0
        runtimes = {
            iid for iid in engine.deployed_ids if iid.startswith("runtime")
        }
        assert runtimes == {
            "runtime_b", "runtime_e", "runtime_b_2", "runtime_e_2",
        }
        expected = full_to_json(engine.spec)
        for partition in (False, True):
            session = ConfigurationSession(registry, partition=partition)
            cold = session.configure(partial)
            warm = session.configure(partial)
            assert warm.cache.solver_reused
            fresh = ConfigurationEngine(
                registry, partition=partition
            ).configure(partial)
            for result in (fresh, cold, warm):
                assert result.solver_stats.conflicts > 0
                assert full_to_json(result.spec) == expected
                assert result.model == engine.model


class TestExampleEquivalence:
    def test_figure2_openmrs(self):
        assert_equivalent(figure2())

    def test_checked_in_fleet_example(self):
        with open("examples/stacks/fleet.json", encoding="utf-8") as handle:
            assert_equivalent(partial_from_json(handle.read()))

    def test_fleet_example_matches_generator(self):
        """The checked-in example is exactly the default generator
        output (regenerate with ``python -m repro.library.fleet``)."""
        from repro.library.fleet import fleet_spec_json

        with open("examples/stacks/fleet.json", encoding="utf-8") as handle:
            assert handle.read() == fleet_spec_json(FleetTopology())


class TestCorpusSmoke:
    """A tier-1-sized slice of the seeded corpus."""

    def test_generator_covers_both_shapes(self):
        counts = set()
        for seed in range(50):
            graph = generate_graph(REGISTRY, random_fleet_partial(seed))
            counts.add(len(partition_graph(graph)))
        assert 1 in counts
        assert max(counts) >= 3

    @pytest.mark.parametrize("seed", SMOKE_SEEDS)
    def test_equivalent(self, seed):
        assert_equivalent(random_fleet_partial(seed))

    @pytest.mark.parametrize("seed", MUTANT_SMOKE_SEEDS)
    def test_same_diagnosis(self, seed):
        assert_same_diagnosis(conflict_mutant(seed))


@pytest.mark.fuzz
class TestCorpusFull:
    """The full seeded corpus (CI fuzz job; excluded from tier-1)."""

    @pytest.mark.parametrize("seed", CORPUS_SEEDS)
    def test_equivalent(self, seed):
        assert_equivalent(random_fleet_partial(seed))

    @pytest.mark.parametrize("seed", MUTANT_CORPUS_SEEDS)
    def test_same_diagnosis(self, seed):
        assert_same_diagnosis(conflict_mutant(seed))
