"""Upgrades with backup and rollback (S5.2).

"The user ... provide[s] a partial install specification describing the
desired new state of the system.  This is used to compute a full install
specification for the deployed system.  The current system is then backed
up, and any components that will be removed or that cannot be upgraded
in-place are uninstalled.  The new system is now deployed, per the
install specification, upgrading and adding components as needed.  If the
upgrade fails, the partially installed components are uninstalled and the
old version restored from the backup."

As the paper admits, "all upgrades using this approach experience the
worst case upgrade time" -- the diff is informational; execution is
stop-everything / replace / restart, with machine snapshots as backup.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from repro.core.errors import DeploymentError, UpgradeError
from repro.core.instances import InstallSpec, PartialInstallSpec
from repro.core.registry import ResourceTypeRegistry
from repro.config.engine import ConfigurationEngine
from repro.runtime.deploy import DeployedSystem, DeploymentEngine
from repro.runtime.retry import RetryPolicy
from repro.sim.infrastructure import Infrastructure


@dataclass
class SpecDiff:
    """Instance-level difference between the old and new full specs."""

    added: list[str] = field(default_factory=list)
    removed: list[str] = field(default_factory=list)
    upgraded: list[str] = field(default_factory=list)  # same id, new key
    reconfigured: list[str] = field(default_factory=list)  # same key, new config
    moved: list[str] = field(default_factory=list)  # same key/config, new host
    unchanged: list[str] = field(default_factory=list)

    def to_payload(self) -> dict:
        return {
            "added": list(self.added),
            "removed": list(self.removed),
            "upgraded": list(self.upgraded),
            "reconfigured": list(self.reconfigured),
            "moved": list(self.moved),
            "unchanged": len(self.unchanged),
        }


def diff_specs(old: InstallSpec, new: InstallSpec) -> SpecDiff:
    diff = SpecDiff()
    old_ids = set(old.ids())
    new_ids = set(new.ids())
    diff.added = sorted(new_ids - old_ids)
    diff.removed = sorted(old_ids - new_ids)
    for instance_id in sorted(old_ids & new_ids):
        before = old[instance_id]
        after = new[instance_id]
        if before.key != after.key:
            diff.upgraded.append(instance_id)
        elif before.config != after.config:
            diff.reconfigured.append(instance_id)
        elif (
            not before.is_machine()
            and before.machine_id(old) != after.machine_id(new)
        ):
            # Same key, same config -- but relocated: the old host must
            # lose the instance and the new host gain it.  Comparing
            # key/config alone used to classify this "unchanged" and
            # leave the instance running on the old machine.
            diff.moved.append(instance_id)
        elif before.inputs != after.inputs:
            # Same key, config and host, but an upstream output moved
            # (a database port, say): the instance must be reconfigured
            # with the new inputs, not merely restarted on stale ones.
            # Checked after ``moved`` because a relocated instance's
            # inputs change too, and it must stay classed as moved.
            diff.reconfigured.append(instance_id)
        else:
            diff.unchanged.append(instance_id)
    return diff


def _describe_exception(exc: BaseException) -> str:
    """``"ExceptionType: message"`` -- never empty.

    ``str(exc)`` alone is empty for bare exceptions and silently drops
    the type either way, which left CLI failure output blank exactly
    when the error was least expected."""
    message = str(exc)
    name = type(exc).__name__
    return f"{name}: {message}" if message else name


@dataclass
class UpgradeResult:
    """Outcome of an upgrade attempt.

    ``error`` is a human-readable ``"ExceptionType: message"`` string;
    ``exception`` carries the original exception object for callers
    that need to branch on its type (the CLI names the class in its
    failure line)."""

    succeeded: bool
    rolled_back: bool
    diff: SpecDiff
    system: DeployedSystem
    error: Optional[str] = None
    exception: Optional[BaseException] = None


class UpgradeEngine:
    """Executes the backup / replace / rollback protocol."""

    def __init__(
        self,
        config_engine: ConfigurationEngine,
        deployment_engine: DeploymentEngine,
        *,
        retry_policy: Optional[RetryPolicy] = None,
        jobs: Optional[int] = None,
        jobs_per_host: Optional[int] = None,
    ) -> None:
        self._config = config_engine
        self._deploy = deployment_engine
        #: Applied to every deployment pass the upgrade performs --
        #: including the rollback redeploy, so a transient fault during
        #: recovery does not turn a failed upgrade into a lost system.
        self._retry_policy = retry_policy
        #: Worker bounds forwarded to every deployment pass (stop,
        #: uninstall, redeploy, rollback) -- None keeps them serial.
        self._jobs = jobs
        self._jobs_per_host = jobs_per_host

    def _pass_kwargs(self) -> dict:
        return {
            "policy": self._retry_policy,
            "jobs": self._jobs,
            "jobs_per_host": self._jobs_per_host,
        }

    def upgrade(
        self,
        system: DeployedSystem,
        new_partial: PartialInstallSpec,
        *,
        strategy: str = "replace",
    ) -> UpgradeResult:
        """Upgrade a deployed system to the state described by
        ``new_partial``.  On any failure the machines are restored from
        backup and the old system redeployed; the returned result says
        which happened.

        ``strategy`` selects the execution plan:

        * ``"replace"`` -- the paper's implemented approach: stop and
          uninstall everything, deploy the new specification ("all
          upgrades ... experience the worst case upgrade time").
        * ``"in_place"`` -- the optimisation the paper leaves as future
          work: untouched instances keep running; only changed/removed
          instances and their transitive dependents are stopped,
          replaced, and restarted.
        * ``"delta"`` -- plan synthesis through the delta planner
          (:mod:`repro.runtime.delta`): the same minimal transition as
          ``in_place`` but executed through ``drive_instances`` with a
          write-ahead journal, the DAG scheduler, and retries.  Still
          transactional here (failure rolls back from backup); use
          ``deploy --delta`` for the journalled resume-on-crash path.
        """
        if strategy not in ("replace", "in_place", "delta"):
            raise UpgradeError(f"unknown upgrade strategy: {strategy!r}")
        new_spec = self._config.configure(new_partial).spec
        diff = diff_specs(system.spec, new_spec)

        # Back up every machine (filesystem + package database) before
        # touching anything.
        infrastructure = self._deploy.infrastructure
        backups: dict[str, dict] = {}
        for machine in set(system.machines.values()):
            backups[machine.hostname] = {
                "machine": machine.snapshot(),
                "packages": infrastructure.package_manager(machine).snapshot(),
            }

        old_spec = system.spec
        try:
            if strategy == "replace":
                # Stop and remove the old system (worst-case strategy).
                self._deploy.uninstall(system, **self._pass_kwargs())
                new_system = self._deploy.deploy(
                    new_spec, **self._pass_kwargs()
                )
            elif strategy == "delta":
                from repro.runtime.delta import execute_delta, plan_delta

                delta = plan_delta(system, new_spec)
                new_system = execute_delta(
                    self._deploy, system, delta, **self._pass_kwargs()
                ).system
            else:
                new_system = self._upgrade_in_place(system, new_spec, diff)
            return UpgradeResult(
                succeeded=True,
                rolled_back=False,
                diff=diff,
                system=new_system,
            )
        except Exception as exc:
            rolled_back_system = self._rollback(
                system, old_spec, new_spec, backups
            )
            return UpgradeResult(
                succeeded=False,
                rolled_back=True,
                diff=diff,
                system=rolled_back_system,
                error=_describe_exception(exc),
                exception=exc,
            )

    def _upgrade_in_place(
        self,
        system: DeployedSystem,
        new_spec: InstallSpec,
        diff: SpecDiff,
    ) -> DeployedSystem:
        """Replace only what changed, plus its transitive dependents.

        Guards make the closure necessary: stopping a changed instance
        requires every downstream dependent inactive first, so dependents
        of changed instances stop (and later restart) too, even when
        they themselves are unchanged.
        """
        old_spec = system.spec
        changed = (
            set(diff.upgraded) | set(diff.reconfigured) | set(diff.moved)
        )
        to_remove = set(diff.removed) | changed

        # Downstream closure over the OLD spec: everything that
        # (transitively) depends on a changed/removed instance.
        closure = set(to_remove)
        frontier = list(to_remove)
        while frontier:
            current = frontier.pop()
            for dependent in old_spec.downstream_ids(current):
                if dependent not in closure:
                    closure.add(dependent)
                    frontier.append(dependent)

        # 1. Stop the closure (reverse dependency order, guards hold
        #    because the closure is downstream-closed).
        self._deploy.stop_instances(system, closure, **self._pass_kwargs())
        # 2. Uninstall removed and changed instances.
        self._deploy.uninstall_instances(
            system, to_remove, **self._pass_kwargs()
        )

        # 3. Build the new system, reusing live drivers for everything
        #    that survived (active instances keep running untouched;
        #    stopped-but-unchanged dependents keep their installed state).
        reuse = {
            instance_id: system.driver(instance_id)
            for instance_id in old_spec.ids()
            if instance_id in new_spec
            and instance_id not in to_remove
        }
        new_system = self._deploy.prepare(new_spec, reuse_drivers=reuse)
        # 4. Install what is new/changed and restart the closure, in
        #    dependency order (already-active drivers no-op).
        self._deploy.activate(new_system, **self._pass_kwargs())
        return new_system

    def _rollback(
        self,
        system: DeployedSystem,
        old_spec: InstallSpec,
        new_spec: InstallSpec,
        backups: dict[str, dict],
    ) -> DeployedSystem:
        """Restore machine filesystems and redeploy the old system.

        The failed new-spec deploy may have registered machines the old
        system never had; restoring only the backed-up hosts would
        leave those as ghost hosts on the network, so every machine the
        new spec introduced (no backup recorded for its hostname) is
        deregistered first.  Hosts the delta path retired before
        failing are re-registered so their snapshot restore lands on a
        network-visible machine again.
        """
        infrastructure = self._deploy.infrastructure
        network = infrastructure.network
        for instance in new_spec.machines():
            hostname = instance.config.get("hostname")
            if not hostname:
                host_record = instance.outputs.get("host")
                if isinstance(host_record, dict):
                    hostname = host_record.get("hostname")
            if (
                hostname
                and hostname not in backups
                and network.has_machine(hostname)
            ):
                infrastructure.remove_machine(hostname)
        for machine in set(system.machines.values()):
            backup = backups[machine.hostname]
            if not network.has_machine(machine.hostname):
                network.register_machine(machine)
            machine.restore(backup["machine"])
            infrastructure.package_manager(machine).restore(backup["packages"])
        try:
            return self._deploy.deploy(old_spec, **self._pass_kwargs())
        except DeploymentError as exc:  # pragma: no cover - defensive
            raise UpgradeError(
                f"rollback failed after upgrade failure: {exc}"
            ) from exc
