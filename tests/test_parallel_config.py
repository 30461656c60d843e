"""Parallel component configuration equals the serial pipelines.

The PR 6 tentpole property: ``configure(partition=True, workers=N)``
-- engine or session, any worker count -- produces the same full
specification, named model, deployed set, and aggregate stats as the
serial partitioned pipeline, byte for byte (and hence as the monolithic
one, by the PR 5 equivalence); UNSAT input raises the *same* Theorem 1
diagnosis no matter which worker hit the conflict; and warm worker
caches never leak state across partial-spec fingerprints.

The ``fuzz``-marked class runs the full 200-seed corpus + 40 conflict
mutants through one persistent engine/session pair; the unmarked tests
keep a tier-1-sized slice (small fleets, 1-2 workers).
"""

from __future__ import annotations

import dataclasses
import io
import json
import multiprocessing
import os
import signal

import pytest

from repro.cli import main
from repro.config import (
    ConfigurationEngine,
    ConfigurationSession,
    RemoteTraceback,
    WorkerPool,
    lpt_assignment,
    resolve_workers,
)
from repro.core import PartialInstallSpec
from repro.core.errors import ConfigurationError, UnsatisfiableError
from repro.dsl import full_to_json
from repro.library import standard_registry
from repro.library.fleet import FleetTopology, fleet_partial
from repro.obs import Tracer

from tests.test_fuzz import conflict_mutant, random_fleet_partial

REGISTRY = standard_registry()

SMOKE_SEEDS = list(range(12))
CORPUS_SEEDS = list(range(200))
MUTANT_SMOKE_SEEDS = list(range(4))
MUTANT_CORPUS_SEEDS = list(range(40))


def small_fleet(replicas: int = 6, machines: int = 3):
    return fleet_partial(
        FleetTopology(replicas=replicas, machines=machines)
    )


def assert_parallel_equivalent(
    partial: PartialInstallSpec,
    engine: ConfigurationEngine,
    session: ConfigurationSession,
) -> None:
    """Parallel output (engine + warm session) is bit-identical to the
    monolithic and serial partitioned engines'."""
    mono = ConfigurationEngine(REGISTRY).configure(partial)
    serial = ConfigurationEngine(REGISTRY, partition=True).configure(partial)
    expected = full_to_json(mono.spec)
    assert full_to_json(serial.spec) == expected

    par = engine.configure(partial)
    assert full_to_json(par.spec) == expected
    assert par.model == mono.model
    assert par.deployed_ids == mono.deployed_ids
    assert par.formula is None
    assert dataclasses.asdict(par.constraint_stats) == dataclasses.asdict(
        serial.constraint_stats
    )
    assert dataclasses.asdict(par.solver_stats) == dataclasses.asdict(
        serial.solver_stats
    )
    assert par.partition is not None
    assert par.partition.workers == engine._workers
    # Placement is deterministic LPT over component node counts.
    expected_workers = lpt_assignment(
        [component.nodes for component in par.partition.components],
        engine._workers,
    )
    for component, worker in zip(par.partition.components, expected_workers):
        assert component.worker == worker
    assert par.partition.wire is not None
    assert par.partition.wire.reply_frames == par.partition.count
    assert par.partition.wire.reply_bytes > 0

    cold = session.configure(partial)
    warm = session.configure(partial)
    assert full_to_json(cold.spec) == expected
    assert full_to_json(warm.spec) == expected
    assert cold.model == warm.model == mono.model
    assert warm.cache.graph_hit and warm.cache.cnf_hit
    assert warm.cache.solver_reused and warm.cache.typecheck_skipped


def assert_parallel_same_diagnosis(
    partial: PartialInstallSpec,
    engine: ConfigurationEngine,
    session: ConfigurationSession,
) -> None:
    """Parallel UNSAT raises the serial Theorem 1 message, byte for
    byte, regardless of which worker hit the conflict."""
    with pytest.raises(UnsatisfiableError) as mono_exc:
        ConfigurationEngine(REGISTRY).configure(partial)
    with pytest.raises(UnsatisfiableError) as engine_exc:
        engine.configure(partial)
    with pytest.raises(UnsatisfiableError) as session_exc:
        session.configure(partial)
    assert str(engine_exc.value) == str(mono_exc.value)
    assert str(session_exc.value) == str(mono_exc.value)


class TestResolveWorkers:
    def test_positive_passthrough(self):
        assert resolve_workers(3) == 3

    def test_zero_means_core_count(self):
        assert resolve_workers(0) >= 1

    def test_negative_rejected(self):
        with pytest.raises(ConfigurationError):
            resolve_workers(-1)


class TestGuardRails:
    def test_workers_require_partition(self):
        with pytest.raises(ConfigurationError):
            ConfigurationEngine(REGISTRY, workers=2)
        with pytest.raises(ConfigurationError):
            ConfigurationSession(REGISTRY, workers=2)
        engine = ConfigurationEngine(REGISTRY)
        with pytest.raises(ConfigurationError):
            engine.configure(small_fleet(), workers=2)
        session = ConfigurationSession(REGISTRY)
        with pytest.raises(ConfigurationError):
            session.configure(small_fleet(), workers=2)

    def test_workers_with_dpll_rejected(self):
        with pytest.raises(ConfigurationError):
            ConfigurationEngine(
                REGISTRY, solver="dpll", partition=True, workers=2
            )

    def test_closed_pool_refuses_work(self):
        pool = WorkerPool(REGISTRY, workers=1)
        pool.close()
        pool.close()  # idempotent
        with pytest.raises(ConfigurationError):
            pool.run_components([])


class TestEngineParallel:
    def test_equivalent_at_one_and_two_workers(self):
        partial = small_fleet()
        for workers in (1, 2):
            with ConfigurationEngine(
                REGISTRY, partition=True, workers=workers
            ) as engine, ConfigurationSession(
                REGISTRY, partition=True, workers=workers
            ) as session:
                assert_parallel_equivalent(partial, engine, session)

    def test_pool_persists_across_calls(self):
        with ConfigurationEngine(
            REGISTRY, partition=True, workers=2
        ) as engine:
            first = engine.configure(small_fleet())
            pool = engine._pool
            assert pool is not None and not pool.closed
            second = engine.configure(small_fleet(replicas=4, machines=2))
            assert engine._pool is pool
        assert pool.closed
        assert first.partition.workers == second.partition.workers == 2

    def test_configure_after_close_reopens_pool(self):
        engine = ConfigurationEngine(REGISTRY, partition=True, workers=1)
        try:
            engine.configure(small_fleet())
            engine.close()
            result = engine.configure(small_fleet())
            assert result.partition.workers == 1
        finally:
            engine.close()

    def test_empty_partial(self):
        with ConfigurationEngine(
            REGISTRY, partition=True, workers=2
        ) as engine:
            result = engine.configure(PartialInstallSpec())
        assert len(result.spec) == 0
        assert result.partition.count == 0
        assert result.solver_stats.components == 0

    def test_per_call_workers_override(self):
        with ConfigurationEngine(REGISTRY, partition=True) as engine:
            serial = engine.configure(small_fleet())
            assert serial.partition.workers == 0
            par = engine.configure(small_fleet(), workers=1)
            assert par.partition.workers == 1
            assert full_to_json(par.spec) == full_to_json(serial.spec)

    def test_parallel_wall_time_recorded(self):
        with ConfigurationEngine(
            REGISTRY, partition=True, workers=1
        ) as engine:
            result = engine.configure(small_fleet())
        assert result.timings.parallel_wall_ms > 0.0

    @pytest.mark.parametrize("seed", MUTANT_SMOKE_SEEDS)
    def test_same_diagnosis(self, seed):
        with ConfigurationEngine(
            REGISTRY, partition=True, workers=2
        ) as engine, ConfigurationSession(
            REGISTRY, partition=True, workers=2
        ) as session:
            assert_parallel_same_diagnosis(
                conflict_mutant(seed), engine, session
            )


class TestSessionWarmWorkers:
    def test_warm_call_skips_everything(self):
        partial = small_fleet()
        with ConfigurationSession(
            REGISTRY, partition=True, workers=2
        ) as session:
            cold = session.configure(partial)
            assert not cold.cache.graph_hit and not cold.cache.cnf_hit
            assert not cold.cache.solver_reused
            warm = session.configure(partial)
            assert warm.cache.graph_hit and warm.cache.cnf_hit
            assert warm.cache.solver_reused and warm.cache.typecheck_skipped
            # The workers skipped re-propagation: the decoded outcome
            # repeated, so no propagate time was spent or shipped back.
            assert all(
                component.propagate_ms == 0.0
                for component in warm.partition.components
            )
            assert full_to_json(warm.spec) == full_to_json(cold.spec)

    def test_fingerprints_never_share_state(self):
        """A,B,A traffic: every answer equals a fresh engine's."""
        fleet_a = small_fleet()
        fleet_b = small_fleet(replicas=4, machines=2)
        expected_a = full_to_json(
            ConfigurationEngine(REGISTRY).configure(fleet_a).spec
        )
        expected_b = full_to_json(
            ConfigurationEngine(REGISTRY).configure(fleet_b).spec
        )
        with ConfigurationSession(
            REGISTRY, partition=True, workers=2
        ) as session:
            assert full_to_json(session.configure(fleet_a).spec) == expected_a
            assert full_to_json(session.configure(fleet_b).spec) == expected_b
            again = session.configure(fleet_a)
            assert full_to_json(again.spec) == expected_a
            assert again.cache.graph_hit and again.cache.solver_reused

    def test_eviction_reaches_the_workers(self):
        fleet_a = small_fleet()
        fleet_b = small_fleet(replicas=4, machines=2)
        with ConfigurationSession(
            REGISTRY, partition=True, workers=1, max_entries=1
        ) as session:
            session.configure(fleet_a)
            pool = session._pool
            fp_a = session.configure(fleet_a).cache.fingerprint
            assert pool.seeded(fp_a)
            session.configure(fleet_b)  # evicts A (parent and workers)
            assert session.stats.evictions == 1
            assert not pool.seeded(fp_a)
            returned = session.configure(fleet_a)  # re-encoded, not stale
            assert not returned.cache.graph_hit
            assert full_to_json(returned.spec) == full_to_json(
                ConfigurationEngine(REGISTRY).configure(fleet_a).spec
            )

    def test_flush_clears_worker_caches(self):
        partial = small_fleet()
        with ConfigurationSession(
            REGISTRY, partition=True, workers=1
        ) as session:
            fingerprint = session.configure(partial).cache.fingerprint
            assert session._pool.seeded(fingerprint)
            session.flush()
            assert not session._pool.seeded(fingerprint)
            cold = session.configure(partial)
            assert not cold.cache.graph_hit and not cold.cache.cnf_hit

    def test_registry_change_recycles_the_pool(self):
        registry = standard_registry()
        partial = small_fleet()
        session = ConfigurationSession(
            registry, partition=True, workers=1
        )
        try:
            session.configure(partial)
            old_pool = session._pool
            # Mutating the registry makes the workers' snapshot stale:
            # the pool must be recycled, not reused.
            from repro.dsl import load_resources

            load_resources(
                'resource "Fresh-Widget" 1.0 driver "null" {\n'
                '  inside "Server" { host -> host }\n'
                '  input host: { hostname: hostname, ip_address: string,\n'
                '                os_user_name: string }\n'
                "}\n",
                registry,
            )
            result = session.configure(partial)
            assert session.stats.invalidations == 1
            assert old_pool.closed
            assert session._pool is not old_pool
            assert full_to_json(result.spec) == full_to_json(
                ConfigurationEngine(standard_registry())
                .configure(partial).spec
            )
        finally:
            session.close()

    def test_mixed_modes_share_one_session(self):
        partial = small_fleet()
        with ConfigurationSession(REGISTRY, partition=True) as session:
            serial = session.configure(partial)
            par = session.configure(partial, workers=1)
            mono = session.configure(partial, partition=False)
            assert serial.partition.workers == 0
            assert par.partition.workers == 1
            assert mono.partition is None
            assert full_to_json(serial.spec) == full_to_json(par.spec)
            assert full_to_json(mono.spec) == full_to_json(par.spec)
            assert len(session) == 3  # three mode-distinct cache entries


class TestLptAssignment:
    def test_uniform_sizes_degenerate_to_round_robin(self):
        assert lpt_assignment([5, 5, 5, 5, 5, 5], 3) == [0, 1, 2, 0, 1, 2]

    def test_largest_first_to_least_loaded(self):
        # Two big components split across the workers; the small ones
        # fill in on whichever worker is lighter at that step.
        assert lpt_assignment([5, 1, 1, 1, 5], 2) == [0, 0, 1, 0, 1]

    def test_deterministic(self):
        sizes = [7, 3, 3, 9, 1, 4, 4, 2]
        assert lpt_assignment(sizes, 3) == lpt_assignment(sizes, 3)

    def test_never_worse_than_round_robin_on_skew(self):
        sizes = [100, 1, 1, 1, 1, 1, 1, 1]
        workers = 4

        def makespan(assignment):
            loads = [0] * workers
            for position, worker in enumerate(assignment):
                loads[worker] += sizes[position]
            return max(loads)

        round_robin = [index % workers for index in range(len(sizes))]
        assert makespan(lpt_assignment(sizes, workers)) <= makespan(
            round_robin
        )

    def test_single_worker_takes_everything(self):
        assert lpt_assignment([3, 1, 2], 1) == [0, 0, 0]

    def test_zero_workers_rejected(self):
        with pytest.raises(ConfigurationError):
            lpt_assignment([1], 0)


@pytest.mark.skipif(
    "fork" not in multiprocessing.get_all_start_methods(),
    reason="poisoning workers via inherited memory needs fork",
)
class TestWorkerFailures:
    def test_remote_traceback_crosses_the_pickle_boundary(
        self, monkeypatch
    ):
        import repro.config.parallel as parallel_module

        def poisoned(graph, encoding, **kwargs):
            raise RuntimeError("poisoned encoding (worker-side)")

        # Patch before the pool exists: forked workers inherit the
        # poisoned function, while the parent never calls it on this
        # path (decode/propagate use the component graph directly).
        monkeypatch.setattr(
            parallel_module, "generate_constraints", poisoned
        )
        with ConfigurationEngine(
            REGISTRY, partition=True, workers=2
        ) as engine:
            with pytest.raises(RuntimeError) as exc:
                engine.configure(small_fleet())
        assert "poisoned encoding (worker-side)" in str(exc.value)
        cause = exc.value.__cause__
        assert isinstance(cause, RemoteTraceback)
        assert "Traceback (most recent call last)" in str(cause)
        assert "poisoned encoding (worker-side)" in str(cause)

    def test_worker_death_reports_in_flight_and_recycles(self):
        partial = small_fleet()
        with ConfigurationEngine(
            REGISTRY, partition=True, workers=1
        ) as engine:
            first = engine.configure(partial)
            pool = engine._pool
            os.kill(pool._processes[0].pid, signal.SIGKILL)
            pool._processes[0].join(timeout=5.0)
            with pytest.raises(ConfigurationError) as exc:
                engine.configure(partial)
            message = str(exc.value)
            assert "worker 0" in message
            assert "in flight" in message
            assert pool.closed
            # The engine starts a fresh pool on the next call instead
            # of deadlocking on the dead worker's pipe.
            again = engine.configure(partial)
            assert engine._pool is not pool
            assert full_to_json(again.spec) == full_to_json(first.spec)

    def test_protocol_desync_mid_collection_recycles_the_pool(self):
        from repro.config import generate_graph
        from repro.config.parallel import _send_frame
        from repro.config.partition import partition_graph

        graph = generate_graph(REGISTRY, small_fleet())
        components = partition_graph(graph).components
        assert len(components) >= 2
        pool = WorkerPool(REGISTRY, workers=2)
        try:
            # An unknown frame kind makes the worker exit (protocol
            # desync defence), so the parent hits EOF mid-collection
            # while the other worker's replies are still pending.
            _send_frame(pool._conns[0], ("bogus",))
            with pytest.raises(ConfigurationError) as exc:
                pool.run_components(components)
            assert "in flight" in str(exc.value)
            assert pool.closed
        finally:
            pool.close()


class TestStreamedCollection:
    def test_parent_decode_overlaps_worker_spans(self):
        """The streamed-collection signature: parent-side decode,
        propagate and typecheck spans of early components sit inside
        other components' worker-side windows on the dispatch
        timeline."""
        tracer = Tracer()
        partial = small_fleet(replicas=12, machines=6)
        with ConfigurationEngine(
            REGISTRY, partition=True, workers=2, tracer=tracer
        ) as engine:
            result = engine.configure(partial)
        assert result.partition.count >= 2
        spans = tracer.spans(category="config")
        assert any(span.name == "configure:dispatch" for span in spans)
        component_spans = [
            span for span in spans
            if span.name.startswith("configure:component[")
        ]
        parent_side = [
            span for span in component_spans
            if span.name.endswith(":decode")
            or span.name.endswith(":propagate")
            or span.name.endswith(":typecheck")
        ]
        worker_side = [
            span for span in component_spans
            if span.name.endswith(":encode") or span.name.endswith(":solve")
        ]
        assert parent_side and worker_side
        # Parent decode started before the last reply arrived...
        recvs = [
            instant for instant in tracer.instants(category="config")
            if instant.name.endswith(":recv")
        ]
        assert len(recvs) == result.partition.count
        last_arrival = max(instant.timestamp for instant in recvs)
        assert min(span.timestamp for span in parent_side) < last_arrival
        # ...and some parent-side span overlaps another component's
        # worker-side span: the parent worked while workers solved.
        assert any(
            parent.args["component"] != worker.args["component"]
            and parent.timestamp < worker.timestamp + worker.duration
            and worker.timestamp < parent.timestamp + parent.duration
            for parent in parent_side
            for worker in worker_side
        )

    def test_warm_session_replies_shrink_to_headers(self):
        # Large enough that model arrays dominate the cold replies.
        partial = small_fleet(replicas=24, machines=6)
        with ConfigurationSession(
            REGISTRY, partition=True, workers=2
        ) as session:
            session.configure(partial)
            cold_wire = session._pool.last_wire
            warm = session.configure(partial)
            warm_wire = session._pool.last_wire
        assert warm.partition.wire is warm_wire
        assert warm_wire.reply_frames == cold_wire.reply_frames
        # Unchanged outcomes ship no model bytes: the whole warm reply
        # stream is a fraction of the cold one.
        assert warm_wire.reply_bytes < cold_wire.reply_bytes / 2
        assert warm_wire.largest_reply_bytes < cold_wire.largest_reply_bytes

    def test_env_var_selects_start_method(self, monkeypatch):
        monkeypatch.setenv("ENGAGE_CONFIG_START_METHOD", "fork")
        pool = WorkerPool(REGISTRY, workers=1)
        try:
            assert pool.start_method == "fork"
        finally:
            pool.close()


@pytest.mark.slow
@pytest.mark.skipif(
    "spawn" not in multiprocessing.get_all_start_methods(),
    reason="spawn start method unavailable",
)
class TestSpawnStartMethod:
    """The macOS/Windows default path: workers built by spawn (fresh
    interpreter, everything pickled) produce bit-identical output and
    the same warm-cache behaviour as fork workers."""

    def test_spawn_engine_bit_identity(self):
        partial = small_fleet()
        expected = full_to_json(
            ConfigurationEngine(REGISTRY).configure(partial).spec
        )
        with ConfigurationEngine(
            REGISTRY, partition=True, workers=2, start_method="spawn"
        ) as engine:
            result = engine.configure(partial)
            assert engine._pool.start_method == "spawn"
            assert full_to_json(result.spec) == expected

    def test_spawn_session_warm_cache(self):
        partial = small_fleet()
        expected = full_to_json(
            ConfigurationEngine(REGISTRY).configure(partial).spec
        )
        with ConfigurationSession(
            REGISTRY, partition=True, workers=2, start_method="spawn"
        ) as session:
            cold = session.configure(partial)
            assert session._pool.start_method == "spawn"
            warm = session.configure(partial)
            assert full_to_json(cold.spec) == expected
            assert full_to_json(warm.spec) == expected
            assert warm.cache.graph_hit and warm.cache.cnf_hit
            assert warm.cache.solver_reused
            assert warm.cache.typecheck_skipped
            assert all(
                component.propagate_ms == 0.0
                for component in warm.partition.components
            )


class TestWorkerTraceSpans:
    def test_component_spans_carry_index_nodes_and_worker(self):
        tracer = Tracer()
        with ConfigurationEngine(
            REGISTRY, partition=True, workers=2, tracer=tracer
        ) as engine:
            result = engine.configure(small_fleet())
        spans = {span.name: span for span in tracer.spans(category="config")}
        expected_workers = lpt_assignment(
            [component.nodes for component in result.partition.components], 2
        )
        for component, worker in zip(
            result.partition.components, expected_workers
        ):
            span = spans[f"configure:component[{component.index}]"]
            assert span.args["component"] == component.index
            assert span.args["nodes"] == component.nodes
            assert span.args["worker"] == component.worker == worker
        # Worker-measured phase sub-spans, deterministically ordered.
        names = [
            span.name
            for span in tracer.spans(category="config")
            if span.name.startswith("configure:component[")
            and span.name.endswith(":solve")
        ]
        assert names == sorted(names)
        assert names  # every component solved somewhere

    def test_serial_component_spans_have_no_worker_arg(self):
        tracer = Tracer()
        ConfigurationEngine(
            REGISTRY, partition=True, tracer=tracer
        ).configure(small_fleet())
        spans = [
            span for span in tracer.spans(category="config")
            if span.name.startswith("configure:component[")
        ]
        assert spans
        for span in spans:
            assert "worker" not in span.args
            assert span.args["component"] >= 0
            assert span.args["nodes"] > 0


class TestCli:
    def _run(self, argv):
        out = io.StringIO()
        code = main(argv, out=out)
        return code, out.getvalue()

    @pytest.fixture
    def fleet_file(self, tmp_path):
        from repro.library.fleet import fleet_spec_json

        path = tmp_path / "fleet.json"
        path.write_text(
            fleet_spec_json(FleetTopology(replicas=6, machines=3)),
            encoding="utf-8",
        )
        return str(path)

    def test_workers_implies_partition(self, fleet_file, tmp_path):
        output = tmp_path / "full.json"
        code, text = self._run([
            "configure", fleet_file, "--workers", "1",
            "-o", str(output),
        ])
        assert code == 0
        assert "on 1 workers" in text
        serial_code, _ = self._run([
            "configure", fleet_file, "--partition",
            "-o", str(tmp_path / "serial.json"),
        ])
        assert serial_code == 0
        assert output.read_text() == (tmp_path / "serial.json").read_text()

    def test_workers_conflict_with_no_partition(self, fleet_file):
        code, text = self._run([
            "configure", fleet_file, "--no-partition", "--workers", "2",
        ])
        assert code == 2
        assert "--workers requires" in text

    def test_stats_json_engine(self, fleet_file, tmp_path):
        stats = tmp_path / "stats.json"
        code, _ = self._run([
            "configure", fleet_file, "--workers", "1",
            "--stats-json", str(stats), "-o", str(tmp_path / "full.json"),
        ])
        assert code == 0
        payload = json.loads(stats.read_text())
        (run,) = payload["runs"]
        assert run["instances"] > 0
        assert run["timings"]["solve_ms"] >= 0.0
        assert run["timings"]["parallel_wall_ms"] > 0.0
        assert run["partition"]["workers"] == 1
        assert run["partition"]["count"] == 3
        assert len(run["partition"]["components"]) == 3
        for component in run["partition"]["components"]:
            assert component["worker"] == 0
            assert component["decode_ms"] >= 0.0
            assert component["recv_ms"] >= 0.0
        wire = run["partition"]["wire"]
        assert wire["reply_frames"] == 3
        assert wire["reply_bytes"] > 0
        assert wire["request_bytes"] > 0
        assert wire["largest_reply_bytes"] <= wire["reply_bytes"]

    def test_stats_json_session_repeat(self, fleet_file, tmp_path):
        stats = tmp_path / "stats.json"
        code, text = self._run([
            "configure", fleet_file, "--session", "--repeat", "2",
            "--workers", "1", "--stats-json", str(stats),
        ])
        assert code == 0
        assert "on 1 workers" in text
        runs = json.loads(stats.read_text())["runs"]
        assert len(runs) == 2
        assert not runs[0]["cache"]["graph_hit"]
        assert runs[1]["cache"]["graph_hit"]
        assert runs[1]["cache"]["solver_reused"]

    def test_stats_json_without_partition(self, fleet_file, tmp_path):
        stats = tmp_path / "stats.json"
        code, _ = self._run([
            "configure", fleet_file,
            "--stats-json", str(stats), "-o", str(tmp_path / "full.json"),
        ])
        assert code == 0
        (run,) = json.loads(stats.read_text())["runs"]
        assert run["partition"] is None
        assert run["constraint_stats"]["clauses"] > 0


class TestCorpusSmoke:
    """A tier-1-sized slice of the parallel equivalence corpus."""

    @pytest.mark.parametrize("seed", SMOKE_SEEDS)
    def test_equivalent(self, seed):
        with ConfigurationEngine(
            REGISTRY, partition=True, workers=2
        ) as engine, ConfigurationSession(
            REGISTRY, partition=True, workers=2
        ) as session:
            assert_parallel_equivalent(
                random_fleet_partial(seed), engine, session
            )


@pytest.mark.fuzz
class TestCorpusFull:
    """The full 200-seed corpus through ONE persistent engine/session
    pair (CI fuzz job; excluded from tier-1) -- long-lived worker pools
    see hundreds of distinct fingerprints without cross-talk."""

    @pytest.fixture(scope="class")
    def parallel_pair(self):
        with ConfigurationEngine(
            REGISTRY, partition=True, workers=4
        ) as engine, ConfigurationSession(
            REGISTRY, partition=True, workers=4
        ) as session:
            yield engine, session

    @pytest.mark.parametrize("seed", CORPUS_SEEDS)
    def test_equivalent(self, seed, parallel_pair):
        engine, session = parallel_pair
        assert_parallel_equivalent(
            random_fleet_partial(seed), engine, session
        )

    @pytest.mark.parametrize("seed", MUTANT_CORPUS_SEEDS)
    def test_same_diagnosis(self, seed, parallel_pair):
        engine, session = parallel_pair
        assert_parallel_same_diagnosis(
            conflict_mutant(seed), engine, session
        )
