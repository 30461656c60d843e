"""The three workloads: configure-cold, fleet-deploy and day2-ops.

Each is a closed loop with one client: the next op starts when the
previous one returns.  Every input is generated from the workload seed
during :meth:`Workload.setup`; the program only sees generated inputs.
The runner times :meth:`Workload.op` and nothing else; output checks
(:meth:`Workload.check`, :meth:`Workload.finish`) run untimed.

Every call into the program goes through a module attribute
(``json_spec.full_to_json``, ``delta.plan_delta``, ...) so the traced
run's probes, which replace those attributes, see it.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import math
import random
from collections import Counter
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Optional

from repro.config import ConfigurationEngine, ConfigurationSession
from repro.core.instances import PartialInstallSpec
from repro.drivers.base import ResourceDriver
from repro.dsl import json_spec
from repro.library import (
    standard_drivers,
    standard_infrastructure,
    standard_registry,
)
from repro.library.fleet import FleetTopology, fleet_partial, fleet_spec_entries
from repro.runtime import delta, reconcile
from repro.runtime.coordinator import BusCoordinator, deployment_fingerprint
from repro.runtime.deploy import DeploymentEngine
from repro.runtime.journal import DeploymentJournal
from repro.runtime.reconcile import RepairOp
from repro.sim.faults import LinkFaultPlan, MachineChurn
from repro.sim.filesystem import VirtualFilesystem, normalize

#: Full-spec digests of the first configure-cold ops of one seed, written
#: by ``determinism.py --write-golden``.
GOLDEN_PATH = Path(__file__).resolve().parent / "golden.json"


@dataclass
class Outcome:
    """What one op produced.

    ``units`` is the op's work for ``nodes_per_s``; ``makespan`` the
    simulated seconds an operator waits (None when nothing deploys);
    ``record`` the deterministic facts the determinism check compares;
    ``payload`` whatever the untimed check needs.
    """

    units: int
    makespan: Optional[float]
    record: dict
    payload: Any = None


def _digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def _sub_seed(seed: int, label: str, index: int) -> int:
    return random.Random(f"{seed}|{label}|{index}").getrandbits(32)


class Workload:
    name = ""
    #: Ops per batch.  A run covers whole batches (configure-cold: one
    #: input of every size stratum per batch).
    batch = 1
    #: Reference-host seconds one batch of the full scale took with the
    #: program this benchmark was written against.  A run of ``seconds``
    #: takes ``round(seconds / batch_seconds)`` batches, so it measured
    #: about ``seconds`` then, and every run, of every later version of
    #: the program too, takes the same ops.
    batch_seconds = 1.0
    #: The percentile ``op_tail_ms`` reports.  It is pinned, not derived
    #: from the op count, so a faster program is compared at the same
    #: rank: each is the highest multiple of 5 that leaves at least ten
    #: ops beyond it in a 25-second run (day2-ops excepted, see there).
    tail_percentile = 90.0

    def __init__(self, seed: int, scale: str = "full") -> None:
        self.seed = seed
        self.scale = scale
        #: Ops the run will take; the runner sets it before setup().
        self.ops = self.batch
        #: Upper bound on ops per run (the size of the generated pool).
        self.capacity = 10**9

    def planned_ops(self, seconds: float) -> int:
        """Ops in a run of ``seconds``: whole batches, at least one."""
        return self.batch * max(1, round(seconds / self.batch_seconds))

    def setup(self) -> None:
        raise NotImplementedError

    def op(self, index: int) -> Outcome:
        raise NotImplementedError

    def check(self, index: int, outcome: Outcome) -> list[str]:
        return []

    def finish(self) -> list[str]:
        return []

    def traced(self, index: int) -> bool:
        """Whether the traced run traces this op.  Half the ops are
        traced, so the untraced half measures the tracing overhead."""
        return index % 2 == 1


# -- configure-cold ------------------------------------------------------------

#: Hand-written: full-spec instances each replica of a stack contributes,
#: by resource name.
REPLICA_INSTANCES = {
    "openmrs": {"Tomcat": 1, "OpenMRS": 1, "MySQL": 1},
    "jasper": {"Tomcat": 1, "JasperReports-Server": 1, "MySQL": 1},
    "django": {"Gunicorn": 1, "Celery": 1, "RabbitMQ": 1, "Redis": 1,
               "Monit": 1},
}
#: Hand-written: instances shared by all replicas on one machine, present
#: when at least one replica of the listed stacks runs there.
MACHINE_SHARED = (
    ("JRE", {"openmrs", "jasper"}),
    ("MySQL-JDBC-Connector", {"jasper"}),
    ("Python-Runtime", {"django"}),
)
MACHINE_RESOURCE = "Ubuntu-Linux"

STACK_MIXES = (
    ("openmrs",), ("jasper",), ("django",),
    ("openmrs", "jasper"), ("openmrs", "django"), ("jasper", "django"),
    ("openmrs", "jasper", "django"),
)


def expected_machine_counts(topology: FleetTopology) -> dict[str, Counter]:
    """Per machine instance id: resource name -> instance count, from the
    tables above and the fleet's round-robin placement."""
    stacks_on: dict[str, list[str]] = {
        f"host{m:03d}": [] for m in range(topology.machines)
    }
    for index in range(topology.replicas):
        host = f"host{index % topology.machines:03d}"
        stacks_on[host].append(topology.stacks[index % len(topology.stacks)])
    expected = {}
    for host, stacks in stacks_on.items():
        counts = Counter({MACHINE_RESOURCE: 1})
        for stack in stacks:
            counts.update(REPLICA_INSTANCES[stack])
        present = set(stacks)
        for resource, needs in MACHINE_SHARED:
            if present & needs:
                counts[resource] += 1
        expected[host] = counts
    return expected


def _van_der_corput(n: int) -> float:
    """The n-th point of the base-2 van der Corput sequence: every prefix
    is spread evenly over [0, 1)."""
    value, denominator = 0.0, 1.0
    while n:
        denominator *= 2.0
        n, bit = divmod(n, 2)
        value += bit / denominator
    return value


@dataclass(frozen=True)
class ColdScale:
    min_nodes: int
    max_nodes: int
    strata: int


COLD_SCALES = {
    "full": ColdScale(min_nodes=250, max_nodes=4100, strata=5),
    "tiny": ColdScale(min_nodes=20, max_nodes=60, strata=2),
}
#: Replicas per machine range over [1.5, 4.5].
PER_MACHINE = (1.5, 4.5)
GOLDEN_RATIO = 0.6180339887498949


class ConfigureCold(Workload):
    """Partial spec JSON -> ConfigurationEngine.configure -> full JSON.

    Sizes are log-uniform between ``min_nodes`` and ``max_nodes``
    full-spec instances, sampled by a fixed stratified design: each batch
    takes one input from each of ``strata`` equal log-width bands, at the
    next van der Corput position within the band; the stack mix cycles
    through all seven non-empty subsets and the replicas-per-machine
    ratio follows a golden-ratio sequence.  Every run therefore covers
    sizes, mixes and densities the same way however many batches it
    completes, which is what keeps the medians steady across seeds.  The
    seed orders the ops of each batch and the stacks of each mix (so
    replica placement and instance names differ); no two inputs repeat.
    An odd stratum count puts the median op mid-band, away from a band
    edge.
    """

    name = "configure-cold"
    batch_seconds = 3.7
    #: Mid-way through the second-largest of five size bands (35 ops).
    tail_percentile = 70.0

    def __init__(self, seed: int, scale: str = "full") -> None:
        super().__init__(seed, scale)
        self.params = COLD_SCALES[scale]
        self.batch = self.params.strata

    def _topologies(self) -> list[FleetTopology]:
        p = self.params
        rng = random.Random(f"{self.seed}|configure-cold")
        low, high = math.log(p.min_nodes), math.log(p.max_nodes)
        width = (high - low) / p.strata
        used = {(2, 1, ("openmrs", "jasper"))}  # the warm-up input
        topologies = []
        self.strata = []
        for cycle in range(math.ceil(self.ops / p.strata)):
            order = list(range(p.strata))
            rng.shuffle(order)
            self.strata.extend(order)
            for stratum in order:
                where = _van_der_corput(cycle + 1)
                target = math.exp(low + (stratum + where) * width)
                mix = list(STACK_MIXES[
                    (cycle + 3 * stratum) % len(STACK_MIXES)
                ])
                rng.shuffle(mix)
                density = (cycle * GOLDEN_RATIO + stratum / p.strata) % 1.0
                per_machine = PER_MACHINE[0] + density * (
                    PER_MACHINE[1] - PER_MACHINE[0]
                )
                per_replica = sum(
                    sum(REPLICA_INSTANCES[s].values()) for s in mix
                ) / len(mix)
                shared = 1 + sum(
                    1 for _, needs in MACHINE_SHARED if needs & set(mix)
                )
                replicas = max(
                    len(mix),
                    round(target / (per_replica + shared / per_machine)),
                )
                machines = max(1, round(replicas / per_machine))
                while (replicas, machines, tuple(mix)) in used:
                    machines += 1
                used.add((replicas, machines, tuple(mix)))
                topologies.append(FleetTopology(
                    replicas=replicas, machines=machines, stacks=tuple(mix),
                ))
        return topologies

    def setup(self) -> None:
        self.registry = standard_registry()
        self.inputs = [
            (topology, json_spec.partial_to_json(fleet_partial(topology)))
            for topology in self._topologies()
        ]
        self.capacity = len(self.inputs)
        self.golden = []
        if self.scale == "full" and GOLDEN_PATH.is_file():
            pinned = json.loads(GOLDEN_PATH.read_text(encoding="utf-8"))
            if pinned["seed"] == self.seed:
                self.golden = pinned["configure-cold"]
        warm = FleetTopology(replicas=2, machines=1,
                             stacks=("openmrs", "jasper"))
        self._configure(json_spec.partial_to_json(fleet_partial(warm)))

    def traced(self, index: int) -> bool:
        # Each size band alternates between traced and untraced every two
        # batches, and consecutive van der Corput positions fall in
        # opposite halves of the band, so both halves cover the same
        # sizes.  They still hold different inputs: the overhead estimate
        # is noisier here than on the other workloads.
        return (self.strata[index] + index // self.batch // 2) % 2 == 1

    def _configure(self, text: str):
        partial = json_spec.partial_from_json(text)
        result = ConfigurationEngine(self.registry).configure(partial)
        return partial, result, json_spec.full_to_json(result.spec)

    def op(self, index: int) -> Outcome:
        topology, text = self.inputs[index]
        partial, result, out = self._configure(text)
        record = {
            "replicas": topology.replicas,
            "machines": topology.machines,
            "stacks": list(topology.stacks),
            "instances": len(result.spec),
            "graph_nodes": len(result.graph),
            "clauses": result.constraint_stats.clauses,
            "decisions": result.solver_stats.decisions,
            "conflicts": result.solver_stats.conflicts,
            "digest": _digest(out),
        }
        return Outcome(len(result.spec), None, record,
                       (topology, partial, result.spec))

    def check(self, index: int, outcome: Outcome) -> list[str]:
        topology, partial, spec = outcome.payload
        problems = []
        for pinned in partial:
            if pinned.id not in spec:
                problems.append(f"pinned instance {pinned.id} missing")
                continue
            instance = spec[pinned.id]
            if instance.key != pinned.key:
                problems.append(f"{pinned.id}: key {instance.key} "
                                f"!= pinned {pinned.key}")
            inside = instance.inside.target.id if instance.inside else None
            if inside != pinned.inside_id:
                problems.append(f"{pinned.id}: inside {inside} "
                                f"!= pinned {pinned.inside_id}")
            for port, value in pinned.config.items():
                if instance.config.get(port) != value:
                    problems.append(f"{pinned.id}: config {port}="
                                    f"{instance.config.get(port)!r} != "
                                    f"pinned {value!r}")
        actual: dict[str, Counter] = {}
        for instance in spec:
            actual.setdefault(instance.machine_id(spec), Counter())[
                instance.key.name
            ] += 1
        if actual != expected_machine_counts(topology):
            problems.append("per-machine instance counts differ from the "
                            "hand-written stack table")
        if index < len(self.golden) \
                and outcome.record["digest"] != self.golden[index]:
            problems.append(f"full-spec digest {outcome.record['digest']} "
                            f"!= golden {self.golden[index]}")
        return problems


# -- fleet-deploy --------------------------------------------------------------

FLEET_SCALES = {
    "full": FleetTopology(replicas=208, machines=64),
    "tiny": FleetTopology(replicas=12, machines=4),
}
LINK_DROP = 0.05
LINK_DUPLICATE = 0.05


class FleetDeploy(Workload):
    """Bus-coordinated deploys of one configured fleet under light,
    seeded link faults (about 5% drop and 5% duplicate)."""

    name = "fleet-deploy"
    batch_seconds = 0.62
    tail_percentile = 75.0  # 40 ops

    def setup(self) -> None:
        self.registry = standard_registry()
        topology = FLEET_SCALES[self.scale]
        self.spec = ConfigurationEngine(self.registry).configure(
            fleet_partial(topology)
        ).spec
        self.machines = len(self.spec.machines())
        infrastructure = standard_infrastructure()
        reference = BusCoordinator(
            self.registry, infrastructure, standard_drivers()
        ).deploy(self.spec)
        self.reference = deployment_fingerprint(infrastructure, reference)
        self._deploy(_sub_seed(self.seed, "warm-up", 0))

    def _deploy(self, fault_seed: int):
        infrastructure = standard_infrastructure()
        faults = LinkFaultPlan(
            fault_seed, drop=LINK_DROP, duplicate=LINK_DUPLICATE
        )
        deployment = BusCoordinator(
            self.registry, infrastructure, standard_drivers(),
            link_faults=faults,
        ).deploy(self.spec)
        return infrastructure, deployment

    def op(self, index: int) -> Outcome:
        infrastructure, deployment = self._deploy(
            _sub_seed(self.seed, "links", index)
        )
        report = deployment.report
        record = {
            "makespan": report.parallel_makespan_seconds,
            "sent": report.bus_stats["total_sent"],
            "delivered": report.bus_stats["total_delivered"],
            "retransmits": report.retransmits,
            "redundant_acks": report.redundant_acks,
            "executions": report.work_executions,
        }
        return Outcome(len(self.spec), report.parallel_makespan_seconds,
                       record, (infrastructure, deployment))

    def check(self, index: int, outcome: Outcome) -> list[str]:
        infrastructure, deployment = outcome.payload
        problems = []
        if not deployment.is_deployed():
            problems.append("fleet not deployed")
        executions = deployment.report.work_executions
        if executions != self.machines:
            problems.append(f"work executions {executions} != machines "
                            f"{self.machines}")
        fingerprint = deployment_fingerprint(infrastructure, deployment)
        outcome.record["fingerprint"] = fingerprint[:16]
        if fingerprint != self.reference:
            problems.append("deployment fingerprint differs from the "
                            "fault-free reference deploy")
        return problems


# -- day2-ops ------------------------------------------------------------------

@dataclass(frozen=True)
class Day2Scale:
    base: FleetTopology
    step: tuple[int, int]
    reconfigure: tuple[int, int]
    churn_rate: float
    churn_losses: int


DAY2_SCALES = {
    "full": Day2Scale(FleetTopology(replicas=208, machines=64),
                      step=(4, 16), reconfigure=(1, 3), churn_rate=0.1,
                      churn_losses=2),
    "tiny": Day2Scale(FleetTopology(replicas=12, machines=4),
                      step=(1, 3), reconfigure=(1, 2), churn_rate=0.25,
                      churn_losses=1),
}
#: One batch of day2-ops.  Four of five ops re-derive the goal, so the
#: median op is a configure-and-transition op well inside that cluster,
#: not at its edge.
DAY2_BATCH = ("resize", "resize", "resize", "resize", "churn")
#: One batch of day2-reconfigure: the same fleet with port moves mixed in.
DAY2_RECONFIGURE_BATCH = (
    "resize", "reconfigure", "resize", "reconfigure", "churn",
)
#: Reconfigure moves one pinned port by this much and back again.  The
#: shifted ranges collide with no other service's port range.
PORT_SHIFT = 500
#: The pinned port a reconfigure moves, per stack.
RECONFIGURED_PORT = {"openmrs": "db", "jasper": "db", "django": "cache"}
#: Plan steps that write an instance's configuration afresh.
REWRITING_OPS = {RepairOp.INSTALL, RepairOp.UPGRADE, RepairOp.RECONFIGURE}


def deploy_recording_writers(registry, spec):
    """Deploy ``spec`` fresh, recording which instances write each file.

    Returns the system and, per hostname, path -> ids of the instances
    that wrote it.
    """
    writing: list[str] = []
    writers: dict[int, dict[str, set[str]]] = {}
    original_perform = ResourceDriver.perform
    original_write = VirtualFilesystem.write_file

    def perform(driver, *args, **kwargs):
        writing.append(driver.context.instance.id)
        try:
            return original_perform(driver, *args, **kwargs)
        finally:
            writing.pop()

    def write_file(fs, path, content):
        if writing:
            writers.setdefault(id(fs), {}).setdefault(
                normalize(path), set()
            ).add(writing[-1])
        return original_write(fs, path, content)

    ResourceDriver.perform = perform
    VirtualFilesystem.write_file = write_file
    try:
        system = DeploymentEngine(
            registry, standard_infrastructure(), standard_drivers()
        ).deploy(spec, journal=DeploymentJournal(spec))
    finally:
        ResourceDriver.perform = original_perform
        VirtualFilesystem.write_file = original_write
    return system, {
        machine.hostname: writers.get(id(machine.fs), {})
        for machine in system.infrastructure.network.machines()
    }


def checked_paths(spec, writers, residents=None) -> dict[str, set[str]]:
    """Per hostname, the files a fleet must hold exactly as a fresh
    deploy of ``spec`` writes them: every path of ``writers`` that one
    instance alone writes.

    Replicas of one service on one machine share paths such as
    ``/etc/my.cnf``; such a file holds whichever instance wrote last, so
    no single deploy order is the reference for it.  ``residents``
    (machine instance id -> resource name -> every instance id that ever
    lived there) widens this to the fleet's history: a path a removed
    replica shared with a survivor is shared too.  Files only removed
    instances wrote are not the running fleet's configuration; like the
    stopped processes they leave, they are not compared.
    """
    residents = residents or {}
    hostnames = {
        instance.config.get("hostname"): instance.id
        for instance in spec if instance.is_machine()
    }

    def alone(hostname: str, iid: str) -> bool:
        lived = residents.get(hostnames.get(hostname), {})
        return len(lived.get(spec[iid].key.name, ())) <= 1

    return {
        hostname: {
            path for path, ids in paths.items()
            if len(ids) == 1 and alone(hostname, next(iter(ids)))
        }
        for hostname, paths in writers.items()
    }


def live_fingerprint(system, checked: dict[str, set[str]]) -> dict:
    """What a transitioned fleet must share with a fresh deploy of its
    goal: driver states, and per machine its running processes (pids
    aside), package database with owners, and the content of the
    ``checked`` files (:func:`checked_paths`)."""
    infrastructure = system.infrastructure
    machines = {}
    for machine in infrastructure.network.machines():
        manager = infrastructure.package_manager(machine)
        fs = machine.fs
        machines[machine.hostname] = {
            "running": sorted(
                (p.name, p.instance_id, sorted(p.listen_ports))
                for p in machine.processes() if p.state.value == "running"
            ),
            "packages": sorted(
                (r.name, r.version, sorted(r.owners), sorted(r.files))
                for r in manager.installed()
            ),
            "files": {
                path: _digest(fs.read_file(path)) if fs.exists(path)
                else None
                for path in sorted(checked.get(machine.hostname, ()))
            },
        }
    return {"states": dict(sorted(system.states().items())),
            "machines": machines}


def fingerprint_differences(live: dict, fresh: dict) -> list[str]:
    """Where two :func:`live_fingerprint` payloads differ, one line per
    differing state, machine section or file."""
    problems = [
        f"{iid}: state {live['states'].get(iid)} != fresh "
        f"{fresh['states'].get(iid)}"
        for iid in sorted(set(live["states"]) | set(fresh["states"]))
        if live["states"].get(iid) != fresh["states"].get(iid)
    ]
    for host in sorted(set(live["machines"]) | set(fresh["machines"])):
        a = live["machines"].get(host)
        b = fresh["machines"].get(host)
        if a is None or b is None:
            problems.append(f"{host}: machine only in the "
                            f"{'fresh' if a is None else 'live'} fleet")
            continue
        for section in ("running", "packages"):
            if a[section] != b[section]:
                problems.append(f"{host}: {section} differ")
        for path in sorted(set(a["files"]) | set(b["files"])):
            if a["files"].get(path) != b["files"].get(path):
                problems.append(f"{host}:{path} differs from a fresh deploy")
    return problems


class Day2Ops(Workload):
    """A live fleet under a seeded mix of resize, reconfigure and churn.

    Resize and reconfigure re-derive the goal through one long-lived
    partitioned ConfigurationSession, then plan and execute a delta
    transition; churn loses machines and runs one reconcile round.

    Each batch is :attr:`kinds` in a seeded order, so every run has
    the same mix.  Resizes step toward the base size (a seeded
    direction when at it), so the fleet stays within one step of its base
    whatever the seed, by steps that follow a van der Corput sequence
    over the step range; reconfigures move 1, 2, 3, 1, ... ports of
    seeded replicas; churn loses up to ``churn_losses`` seeded machines.
    """

    name = "day2-ops"
    kinds = DAY2_BATCH
    batch_seconds = 0.6
    #: 210 ops, of which the slowest fifth are session misses and
    #: full garbage collections of the live fleet's heap.  p95 and p90
    #: fall among those pauses, whose length follows the heap at that
    #: moment, and spread 9-17% across seeds; p85 is the floor of that
    #: cluster, which leaves 30 ops beyond it.
    tail_percentile = 85.0
    batch = len(kinds)

    def __init__(self, seed: int, scale: str = "full") -> None:
        super().__init__(seed, scale)
        self.params = DAY2_SCALES[scale]

    def _partial(self) -> PartialInstallSpec:
        topology = dataclasses.replace(
            self.params.base, replicas=self.replicas
        )
        stacks = topology.stacks
        shifted = {
            f"{RECONFIGURED_PORT[stacks[i % len(stacks)]]}{i:03d}"
            for i, on in self.shifted.items() if on and i < self.replicas
        }
        return PartialInstallSpec(
            dataclasses.replace(
                entry, config={**entry.config,
                               "port": entry.config["port"] + PORT_SHIFT},
            ) if entry.id in shifted else entry
            for entry in fleet_spec_entries(topology)
        )

    def setup(self) -> None:
        self.registry = standard_registry()
        self.replicas = self.params.base.replicas
        self.shifted: dict[int, bool] = {}
        self.resizes = self.reconfigures = 0
        self.session = ConfigurationSession(self.registry, partition=True)
        self.goal_partial = self._partial()
        self.goal = self.session.configure(self.goal_partial).spec
        self.engine = DeploymentEngine(
            self.registry, standard_infrastructure(), standard_drivers()
        )
        self.system = self.engine.deploy(
            self.goal, journal=DeploymentJournal(self.goal)
        )
        self.residents: dict[str, dict[str, set[str]]] = {}
        self._note_residents(self.goal.ids())
        # Warm-up that leaves the fleet as it is: a session hit, a no-op
        # delta plan and a drift scan.
        self.session.configure(self.goal_partial)
        delta.plan_delta(self.system, self.goal)
        reconcile.detect_drift(self.system, goal=self.goal)

    def op(self, index: int) -> Outcome:
        cycle, position = divmod(index, self.batch)
        kinds = random.Random(f"{self.seed}|day2|{cycle}").sample(
            self.kinds, self.batch
        )
        kind = kinds[position]
        rng = random.Random(f"{self.seed}|day2|{index}")
        if kind == "churn":
            return self._churn(rng)
        p = self.params
        before = self.replicas
        changed: list[str] = []
        if kind == "resize":
            low, high = p.step
            self.resizes += 1
            step = low + round((high - low) * _van_der_corput(self.resizes))
            if self.replicas == p.base.replicas:
                sign = rng.choice((-1, 1))
            else:
                sign = 1 if self.replicas < p.base.replicas else -1
            self.replicas += sign * step
        else:
            low, high = p.reconfigure
            count = low + self.reconfigures % (high - low + 1)
            self.reconfigures += 1
            stacks = p.base.stacks
            for i in sorted(rng.sample(range(self.replicas), count)):
                self.shifted[i] = not self.shifted.get(i, False)
                changed.append(
                    f"{RECONFIGURED_PORT[stacks[i % len(stacks)]]}{i:03d}"
                )
        old_goal = self.goal
        old_ids = set(old_goal.ids())
        self.goal_partial = self._partial()
        result = self.session.configure(self.goal_partial)
        self.goal = result.spec
        plan = delta.plan_delta(self.system, self.goal)
        done = delta.execute_delta(self.engine, self.system, plan)
        self.system = done.system
        new_ids = set(self.goal.ids())
        cache = result.cache
        record = {
            "kind": kind,
            "replicas": self.replicas,
            "plan": len(plan),
            "by_op": plan.plan.by_op(),
            "makespan": done.report.makespan_seconds,
            "added": len(new_ids - old_ids),
            "removed": len(old_ids - new_ids),
            "session_hit": [cache.graph_hit, cache.cnf_hit,
                            cache.typecheck_skipped],
        }
        return Outcome(len(plan), done.report.makespan_seconds, record,
                       (kind, before, old_goal, plan, changed))

    def _churn(self, rng: random.Random) -> Outcome:
        churn = MachineChurn(
            self.system, seed=rng.getrandbits(32),
            rate=self.params.churn_rate,
            max_losses_per_round=self.params.churn_losses,
        )
        lost = churn.round(0)
        controller = reconcile.ReconcileController(self.engine, self.system)
        round_ = controller.poll()
        record = {
            "kind": "churn",
            "replicas": self.replicas,
            "lost": len(lost),
            "plan": round_.plan_size,
            "by_op": dict(round_.plan_by_op),
            "makespan": round_.time_to_repair,
            "converged": round_.converged,
        }
        return Outcome(round_.plan_size, round_.time_to_repair, record,
                       ("churn", round_))

    def _note_residents(self, ids) -> None:
        """Remember which machine each of ``ids`` lives on, by resource
        (for :func:`checked_paths`)."""
        for iid in ids:
            instance = self.goal[iid]
            if not instance.is_machine():
                self.residents.setdefault(
                    instance.machine_id(self.goal), {}
                ).setdefault(instance.key.name, set()).add(iid)

    def check(self, index: int, outcome: Outcome) -> list[str]:
        problems = []
        if not self.system.is_deployed():
            problems.append("fleet not deployed after the op")
        journal = self.system.journal
        if journal is None or not journal.is_complete():
            problems.append("journal incomplete after the op")
        kind = outcome.payload[0]
        if kind == "churn":
            round_ = outcome.payload[1]
            if not round_.converged or round_.error:
                problems.append(f"reconcile round did not converge: "
                                f"{round_.error}")
            return problems
        _, before, old_goal, plan, changed = outcome.payload
        old_ids, new_ids = set(old_goal.ids()), set(self.goal.ids())
        self._note_residents(new_ids - old_ids)
        steps = {step.instance_id: step.op for step in plan.plan.steps}
        # A survivor whose resolved inputs changed (an upstream's port
        # moved, say) must be configured again, not merely restarted:
        # its configuration files hold the old values.
        for iid in sorted(old_ids & new_ids):
            if old_goal[iid].inputs != self.goal[iid].inputs \
                    and steps.get(iid) not in REWRITING_OPS:
                problems.append(
                    f"{iid}: inputs changed but the plan "
                    f"{steps[iid].value + 's' if iid in steps else 'skips'}"
                    " it without rewriting its configuration"
                )
        if kind == "resize":
            added, removed = new_ids - old_ids, old_ids - new_ids
            want, unwanted, op = (
                (added, removed, RepairOp.INSTALL)
                if self.replicas > before
                else (removed, added, RepairOp.UNINSTALL)
            )
            if unwanted:
                problems.append("resize both added and removed instances")
            if set(steps) != want or set(steps.values()) != {op}:
                problems.append(
                    f"resize plan is not exactly the diff: {len(steps)} "
                    f"steps for {len(want)} {op.value}s"
                )
        else:
            for iid in changed:
                if steps.get(iid) is not RepairOp.RECONFIGURE:
                    problems.append(f"{iid} not reconfigured by the plan")
                port = self.goal_partial[iid].config["port"]
                if self.system.spec[iid].config.get("port") != port:
                    problems.append(f"{iid} runs with a stale port")
        return problems

    def finish(self) -> list[str]:
        """The live fleet must be indistinguishable from a fresh deploy of
        its final goal, configured from scratch by a fresh engine."""
        fresh_spec = ConfigurationEngine(self.registry).configure(
            self.goal_partial
        ).spec
        problems = []
        if json_spec.full_to_json(fresh_spec) \
                != json_spec.full_to_json(self.goal):
            problems.append("session goal differs from a fresh configure")
        fresh, writers = deploy_recording_writers(self.registry, fresh_spec)
        checked = checked_paths(fresh_spec, writers, self.residents)
        differences = fingerprint_differences(
            live_fingerprint(self.system, checked),
            live_fingerprint(fresh, checked),
        )
        if differences:
            problems.append(
                f"final fleet differs from a fresh deploy of the final "
                f"goal in {len(differences)} places, first: "
                + "; ".join(differences[:5])
            )
        return problems


class Day2Reconfigure(Day2Ops):
    """day2-ops with two port moves in every batch.  A move pins a
    database or cache port of 1-3 replicas to a new value (and back on
    the next move of that replica), so the dependents of the moved
    instance must be configured again."""

    name = "day2-reconfigure"
    kinds = DAY2_RECONFIGURE_BATCH
    batch = len(kinds)


WORKLOADS = {
    w.name: w for w in (ConfigureCold, FleetDeploy, Day2Ops, Day2Reconfigure)
}
