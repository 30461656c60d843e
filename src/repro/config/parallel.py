"""Parallel component configuration on a persistent process pool.

The component partition (:mod:`repro.config.partition`) makes fleet
configuration embarrassingly parallel: components share no variables, so
encode -> solve for one component never reads another's state.  This
module fans the per-component SAT work out across a pool of long-lived
worker processes while keeping the parent<->worker data path as thin as
the problem allows:

* the **pool** (:class:`WorkerPool`) forks one process per worker; each
  inherits (or, under spawn, is shipped) the resource-type registry and
  the engine options once, then serves any number of ``run`` requests
  over a private pipe;

* the **wire protocol is compact and framed**.  Both directions move
  explicit ``send_bytes`` frames (one pickle per message), so every
  byte that crosses the boundary is counted (:class:`WireStats`).  A
  reply carries the solver model as a *signed-literal array* -- node
  variables are allocated first and in node order by
  ``generate_constraints``, so ``array('i')`` of ``+/-var`` over the
  first ``len(component.graph)`` variables is a complete model as far
  as decoding is concerned -- plus only the fields the parent cannot
  reconstruct (solver counters, encode sizes, phase wall times).  The
  parent performs name decoding, ``selected_nodes``, value propagation
  and typechecking itself from the component graph it already holds
  (:func:`decode_component_model`); named models, deployed sets, and
  propagated instance tuples never cross the boundary.  Warm-path
  replies for unchanged models shrink to a header: the worker remembers
  the literal array it last shipped per cache entry and sends a
  ``MODEL_UNCHANGED`` flag instead of repeating it;

* **assignment is deterministic LPT** (longest processing time):
  components are taken largest-first by node count and placed on the
  least-loaded worker (:func:`lpt_assignment`).  The schedule is
  computed parent-side from component sizes alone, so results never
  depend on runtime scheduling; with ``keep=True`` the
  ``(fingerprint, index) -> worker`` map is sticky across calls, so the
  worker-resident session caches stay warm.  On uniform fleets LPT
  degenerates to round-robin (the old ``index % workers`` layout);

* **collection is streamed**: workers send one framed reply per
  component the moment it is solved, and the parent ``select``\\ s
  across the pipes (:func:`multiprocessing.connection.wait`), decoding,
  propagating and typechecking finished components while slow ones are
  still solving -- parent CPU overlaps worker CPU instead of following
  it.  Outcomes are still aggregated in component-index order, so the
  merged specification, model, and deployed set are bit-identical to
  the serial partitioned pipeline (and hence to the monolithic one);

* **warm worker caches** back configuration sessions: with ``keep=True``
  a worker retains encoding + persistent incremental solver per
  ``(fingerprint, component index)``, so repeated session calls
  re-solve under assumptions without re-encoding or re-pickling the
  component.  Caches are keyed by the partial-spec fingerprint, so
  distinct partial specs can never observe each other's state;

* **failures stay diagnosable**: an UNSAT verdict or a raised error is
  reported per component; worker exceptions carry their formatted
  remote traceback across the pickle boundary
  (:func:`raise_component_error` chains it as the ``__cause__``), and a
  worker dying mid-collection recycles the pool and reports exactly
  which components were in flight instead of deadlocking on pipes that
  still hold replies.

Wire frame layout (all frames are ``pickle.dumps`` payloads moved with
``Connection.send_bytes``):

=============  =========================================================
direction      frame
=============  =========================================================
parent->worker ``("run", fingerprint, keep, batch, force)`` where
               ``batch`` is ``[(index, component-or-None), ...]`` (bare
               indexes once the fingerprint is seeded) and ``force`` is
               a frozenset of indexes that must ship a model even if
               unchanged (the parent lost its decode cache)
parent->worker ``("evict", fingerprint)`` / ``("flush",)`` / ``("stop",)``
worker->parent one reply *per component*:
               ``(index, status, flags, model_bytes, constraint_stats,
               solver_stats, encode_ms, solve_ms, error, traceback)``
               with ``status`` in ``{"sat", "unsat", "need", "error"}``,
               ``flags`` a bitmask of ``ENCODED`` / ``SOLVER_REUSED`` /
               ``MODEL_UNCHANGED``, ``model_bytes`` the signed-literal
               ``array('i')`` bytes (None when unchanged or not sat),
               ``constraint_stats`` a 4-tuple shipped only by calls
               that encoded, and ``solver_stats`` a 9-int tuple
=============  =========================================================
"""

from __future__ import annotations

import heapq
import multiprocessing
import multiprocessing.connection
import os
import pickle
import time
import traceback as traceback_module
import weakref
from array import array
from dataclasses import dataclass, field
from typing import Any, Callable, Iterable, Optional, Sequence

from repro.core.errors import ConfigurationError
from repro.core.registry import ResourceTypeRegistry
from repro.config.constraints import (
    ConstraintStats,
    fact_literals,
    generate_constraints,
    selected_nodes,
)
from repro.config.engine import canonical_model
from repro.config.partition import GraphComponent
from repro.sat.encodings import ExactlyOneEncoding
from repro.sat.solver import CdclSolver, SolverStats

#: Reply flag bits (the ``flags`` field of a reply frame).
ENCODED = 1  #: this call built the encoding (worker-side cache miss)
SOLVER_REUSED = 2  #: a previously built persistent solver answered
MODEL_UNCHANGED = 4  #: model identical to the last one shipped; omitted

#: Environment override for the pool start method (CI spawn smoke leg).
START_METHOD_ENV = "ENGAGE_CONFIG_START_METHOD"


def resolve_workers(workers: int) -> int:
    """Resolve the ``workers`` knob: 0 means one per available core."""
    if workers < 0:
        raise ConfigurationError("workers must be >= 0 (0 = one per core)")
    if workers > 0:
        return workers
    try:
        return max(1, len(os.sched_getaffinity(0)))
    except AttributeError:  # platforms without CPU affinity
        return max(1, os.cpu_count() or 1)


def lpt_assignment(sizes: Sequence[int], workers: int) -> list[int]:
    """Deterministic longest-processing-time component placement.

    Components are taken largest-first (ties broken by position) and
    each goes to the currently least-loaded worker (ties broken by
    lowest worker index), where load is the sum of assigned sizes.
    Returns one worker index per input position.  Depends only on
    ``sizes`` -- never on runtime scheduling -- so any two runs over the
    same partition produce the same placement.  On uniform sizes this
    degenerates to round-robin.
    """
    if workers < 1:
        raise ConfigurationError("lpt_assignment needs at least one worker")
    order = sorted(range(len(sizes)), key=lambda i: (-sizes[i], i))
    loads = [(0, worker) for worker in range(workers)]
    heapq.heapify(loads)
    assignment = [0] * len(sizes)
    for position in order:
        load, worker = heapq.heappop(loads)
        assignment[position] = worker
        heapq.heappush(loads, (load + sizes[position], worker))
    return assignment


@dataclass
class WireStats:
    """Bytes and frames moved over the pipes during one dispatch."""

    reply_frames: int = 0
    reply_bytes: int = 0
    request_bytes: int = 0
    largest_reply_bytes: int = 0
    #: Wall time spent pickling+writing the request frames.
    dispatch_ms: float = 0.0
    #: Wall time the parent spent blocked waiting for replies (the
    #: complement of parent-side decode/propagate work).
    recv_wait_ms: float = 0.0


@dataclass
class ComponentOutcome:
    """Everything known about one component after a pool round-trip.

    Workers fill the solver-side fields (status, model literal bytes,
    stats, encode/solve times); the parent fills the decoded fields
    (``named_model``/``deployed``/``choices``/``instances``) and the
    parent-side timings as replies stream in.  ``status`` is ``"sat"``,
    ``"unsat"``, ``"need"`` (the worker was asked to reuse a cache entry
    it does not hold -- the pool reseeds transparently), or ``"error"``
    (``error`` carries the exception, ``traceback`` the formatted remote
    traceback).
    """

    index: int
    status: str
    worker: int = -1
    #: Signed-literal array bytes for the component's node variables;
    #: None when the model repeated (warm header) or the call failed.
    model: Optional[bytes] = None
    named_model: dict[str, bool] = field(default_factory=dict)
    deployed: frozenset = frozenset()
    choices: dict = field(default_factory=dict)
    instances: Optional[tuple] = None
    constraint_stats: Optional[ConstraintStats] = None
    solver_stats: Optional[SolverStats] = None
    encode_ms: float = 0.0
    solve_ms: float = 0.0
    #: Parent-side name-decode + selected_nodes time.
    decode_ms: float = 0.0
    #: Parent-side propagate time.
    propagate_ms: float = 0.0
    #: Parent-side static re-check time.
    typecheck_ms: float = 0.0
    #: Arrival offset of this reply from dispatch start (streamed
    #: collection), for the overlap trace spans.
    recv_ms: float = 0.0
    #: True when this call built the encoding (a worker-side cache miss).
    encoded: bool = False
    #: True when a previously built persistent solver answered the call.
    solver_reused: bool = False
    #: True when the worker shipped a header instead of the model.
    model_unchanged: bool = False
    error: Optional[BaseException] = None
    #: Formatted remote traceback when ``status == "error"`` inside a
    #: worker (parent-side callback errors raise with a live traceback).
    traceback: Optional[str] = None


class RemoteTraceback(Exception):
    """Carries a worker's formatted traceback into the parent's chain.

    Mirrors :class:`multiprocessing.pool.RemoteTraceback`: re-raising a
    worker exception with this as ``__cause__`` makes the remote frames
    visible in the parent's error report.
    """

    def __init__(self, tb: str) -> None:
        super().__init__(tb)
        self.tb = tb

    def __str__(self) -> str:
        return f"\n{self.tb}"


def raise_component_error(outcome: ComponentOutcome) -> None:
    """Re-raise a component's error, chaining the remote traceback."""
    error = outcome.error
    if error is None:  # pragma: no cover - defensive
        raise ConfigurationError(
            f"component {outcome.index} failed without an exception"
        )
    if outcome.traceback:
        error.__cause__ = RemoteTraceback(outcome.traceback)
    raise error


def decode_component_model(
    component: GraphComponent, model: bytes
) -> tuple[dict[str, bool], set, dict]:
    """Decode a signed-literal array against the component's own graph.

    ``generate_constraints`` allocates one variable per node, in node
    insertion order, *before* any encoding auxiliaries -- so literal
    ``j`` of the array (1-based variable ``j``) is exactly the ``j``-th
    node of ``component.graph``.  The parent holds that graph already,
    which is what lets the wire carry numbers instead of names.
    """
    literals = array("i")
    literals.frombytes(model)
    named: dict[str, bool] = {}
    for position, node in enumerate(component.graph.nodes()):
        named[node.instance_id] = literals[position] > 0
    deployed, choices = selected_nodes(component.graph, named)
    return named, deployed, choices


# -- Worker side ----------------------------------------------------------


def _pack_model(model: dict[int, bool], num_nodes: int) -> bytes:
    """The node-variable slice of ``model`` as signed-literal bytes."""
    return array(
        "i",
        [
            var if model.get(var, False) else -var
            for var in range(1, num_nodes + 1)
        ],
    ).tobytes()


def _pack_solver_stats(stats: SolverStats) -> tuple:
    return (
        stats.decisions, stats.propagations, stats.conflicts,
        stats.learned_clauses, stats.deleted_clauses, stats.restarts,
        stats.max_learned_length, stats.solve_calls, stats.components,
    )


def _unpack_solver_stats(packed: tuple) -> SolverStats:
    return SolverStats(*packed)


def _pack_constraint_stats(stats: ConstraintStats) -> tuple:
    return (stats.variables, stats.clauses, stats.facts, stats.hyperedges)


class _WorkerEntry:
    """Warm per-(fingerprint, component) state held inside a worker."""

    __slots__ = (
        "component", "formula", "constraint_stats", "assumptions",
        "solver", "canonical", "prev_model",
    )

    def __init__(self, component, formula, constraint_stats, assumptions):
        self.component = component
        self.formula = formula
        self.constraint_stats = constraint_stats
        self.assumptions = assumptions
        self.solver: Optional[CdclSolver] = None
        self.canonical: Optional[dict[int, bool]] = None
        #: The literal bytes of the previous reply, so an unchanged
        #: model ships as a bare header instead of being re-pickled.
        self.prev_model: Optional[bytes] = None


def _reply(
    index: int,
    status: str,
    flags: int = 0,
    model: Optional[bytes] = None,
    constraint_stats: Optional[tuple] = None,
    solver_stats: Optional[tuple] = None,
    encode_ms: float = 0.0,
    solve_ms: float = 0.0,
    error: Optional[BaseException] = None,
    tb: Optional[str] = None,
) -> tuple:
    return (
        index, status, flags, model, constraint_stats, solver_stats,
        encode_ms, solve_ms, error, tb,
    )


def _run_cached(
    entries: dict,
    index: int,
    component: Optional[GraphComponent],
    encoding: ExactlyOneEncoding,
    force: bool,
) -> tuple:
    """The session path: assumption-style encoding, persistent solver."""
    entry = entries.get(index)
    encode_ms = 0.0
    flags = 0
    if entry is None:
        if component is None:
            return _reply(index, "need")
        tick = time.perf_counter()
        formula, constraint_stats = generate_constraints(
            component.graph, encoding, facts_as_assumptions=True
        )
        assumptions = sorted(fact_literals(component.graph, formula).values())
        entry = _WorkerEntry(component, formula, constraint_stats, assumptions)
        entries[index] = entry
        encode_ms = (time.perf_counter() - tick) * 1000.0
        flags |= ENCODED

    tick = time.perf_counter()
    if entry.solver is None:
        entry.solver = CdclSolver(entry.formula)
    else:
        flags |= SOLVER_REUSED
    if not entry.solver.solve(entry.assumptions):
        return _reply(
            index, "unsat", flags,
            solver_stats=_pack_solver_stats(entry.solver.stats),
            encode_ms=encode_ms,
            solve_ms=(time.perf_counter() - tick) * 1000.0,
        )
    if entry.solver.stats.conflicts == 0:
        model = entry.solver.model()
    else:
        if entry.canonical is None:
            entry.canonical = canonical_model(
                entry.formula, entry.solver, entry.assumptions
            )
        model = entry.canonical
    packed = _pack_model(model, len(entry.component.graph))
    solve_ms = (time.perf_counter() - tick) * 1000.0

    wire_model: Optional[bytes] = packed
    if packed == entry.prev_model and not force:
        flags |= MODEL_UNCHANGED
        wire_model = None
    else:
        entry.prev_model = packed
    return _reply(
        index, "sat", flags, wire_model,
        constraint_stats=(
            _pack_constraint_stats(entry.constraint_stats)
            if flags & ENCODED else None
        ),
        solver_stats=_pack_solver_stats(entry.solver.stats),
        encode_ms=encode_ms, solve_ms=solve_ms,
    )


def _run_oneshot(
    index: int,
    component: GraphComponent,
    encoding: ExactlyOneEncoding,
) -> tuple:
    """The engine path: unit-fact encoding, throwaway solver -- the exact
    per-component encode/solve sequence of the serial partitioned engine,
    so stats and canonical models match it bit for bit."""
    tick = time.perf_counter()
    formula, constraint_stats = generate_constraints(
        component.graph, encoding
    )
    encode_done = time.perf_counter()
    solver = CdclSolver(formula)
    if not solver.solve():
        return _reply(
            index, "unsat", ENCODED,
            constraint_stats=_pack_constraint_stats(constraint_stats),
            solver_stats=_pack_solver_stats(solver.stats),
            encode_ms=(encode_done - tick) * 1000.0,
            solve_ms=(time.perf_counter() - encode_done) * 1000.0,
        )
    model = canonical_model(formula, solver)
    packed = _pack_model(model, len(component.graph))
    return _reply(
        index, "sat", ENCODED, packed,
        constraint_stats=_pack_constraint_stats(constraint_stats),
        solver_stats=_pack_solver_stats(solver.stats),
        encode_ms=(encode_done - tick) * 1000.0,
        solve_ms=(time.perf_counter() - encode_done) * 1000.0,
    )


def _send_frame(conn, payload: Any) -> int:
    """Pickle ``payload`` into one counted frame."""
    raw = pickle.dumps(payload, protocol=pickle.HIGHEST_PROTOCOL)
    conn.send_bytes(raw)
    return len(raw)


def _safe_send_frame(conn, reply: tuple) -> None:
    """Send ``reply``; degrade unpicklable payloads to structured errors
    instead of hanging the parent on a never-arriving frame."""
    try:
        _send_frame(conn, reply)
    except Exception as exc:  # pragma: no cover - defensive
        _send_frame(conn, _reply(
            reply[0], "error",
            error=ConfigurationError(f"unpicklable worker result: {exc!r}"),
            tb=traceback_module.format_exc(),
        ))


def _worker_main(
    conn,
    worker_index: int,
    encoding: ExactlyOneEncoding,
) -> None:
    """One worker's request loop (runs in the child process).

    Deliberately registry-free: components arrive self-contained and
    the parent owns decode/propagate/typecheck, so nothing worker-side
    needs the resource-type registry -- under ``spawn`` it is never
    even pickled.
    """
    del worker_index
    cache: dict[str, dict[int, _WorkerEntry]] = {}
    while True:
        try:
            message = pickle.loads(conn.recv_bytes())
        except (EOFError, OSError, KeyboardInterrupt):
            break
        kind = message[0]
        if kind == "stop":
            break
        if kind == "flush":
            cache.clear()
            continue
        if kind == "evict":
            cache.pop(message[1], None)
            continue
        if kind != "run":
            # Protocol desync: better to die (the parent recycles the
            # pool and reports in-flight components) than to guess.
            break
        _, fingerprint, keep, batch, force = message
        for index, component in batch:
            try:
                if keep:
                    reply = _run_cached(
                        cache.setdefault(fingerprint, {}), index, component,
                        encoding, index in force,
                    )
                else:
                    reply = _run_oneshot(index, component, encoding)
            except Exception as exc:
                reply = _reply(
                    index, "error", error=exc,
                    tb=traceback_module.format_exc(),
                )
            # One frame per component: the parent starts decoding and
            # propagating this one while we solve the next.
            _safe_send_frame(conn, reply)
    conn.close()


# -- Parent side ----------------------------------------------------------


def _shutdown(processes, conns) -> None:
    """Best-effort pool teardown (also the GC finalizer)."""
    for conn in conns:
        try:
            _send_frame(conn, ("stop",))
        except Exception:
            pass
    for conn in conns:
        try:
            conn.close()
        except Exception:
            pass
    for process in processes:
        process.join(timeout=1.0)
    for process in processes:
        if process.is_alive():  # pragma: no cover - defensive
            process.terminate()
            process.join(timeout=1.0)


class WorkerPool:
    """A persistent pool of configuration worker processes.

    Prefers the ``fork`` start method (workers inherit the registry at
    no serialisation cost); ``start_method`` (or the
    ``ENGAGE_CONFIG_START_METHOD`` environment variable) selects
    ``spawn``/``forkserver`` explicitly, where the registry and options
    are pickled once per worker.  Workers are daemonic and additionally
    reaped by a GC finalizer, so an unclosed pool cannot outlive its
    owner.
    """

    def __init__(
        self,
        registry: ResourceTypeRegistry,
        *,
        workers: int = 0,
        encoding: ExactlyOneEncoding = ExactlyOneEncoding.PAIRWISE,
        start_method: Optional[str] = None,
    ) -> None:
        self.workers = resolve_workers(workers)
        #: The registry mutation counter the workers were built from;
        #: owners recycle the pool when the parent registry moves on.
        self.registry_version = registry.version
        if start_method is None:
            start_method = os.environ.get(START_METHOD_ENV) or None
        if start_method is None:
            available = multiprocessing.get_all_start_methods()
            start_method = "fork" if "fork" in available else None
        context = multiprocessing.get_context(start_method)
        self.start_method = context.get_start_method()
        self._conns = []
        self._processes = []
        for worker_index in range(self.workers):
            parent_conn, child_conn = context.Pipe(duplex=True)
            process = context.Process(
                target=_worker_main,
                args=(child_conn, worker_index, encoding),
                daemon=True,
                name=f"engage-config-worker-{worker_index}",
            )
            process.start()
            child_conn.close()
            self._conns.append(parent_conn)
            self._processes.append(process)
        #: Fingerprints whose components every worker has been sent.
        self._seeded: set[str] = set()
        #: Sticky (fingerprint -> {component index -> worker}) affinity,
        #: so session traffic keeps hitting the worker whose caches are
        #: warm for that component.
        self._assignments: dict[str, dict[int, int]] = {}
        #: Wire accounting of the most recent :meth:`run_components`.
        self.last_wire = WireStats()
        self.closed = False
        self._finalizer = weakref.finalize(
            self, _shutdown, list(self._processes), list(self._conns)
        )

    # -- Dispatch --------------------------------------------------------

    def run_components(
        self,
        components: list[GraphComponent],
        *,
        fingerprint: str = "",
        keep: bool = False,
        force: Iterable[int] = (),
        on_outcome: Optional[Callable[[ComponentOutcome], None]] = None,
    ) -> list[ComponentOutcome]:
        """Run every component and return outcomes in index order.

        With ``keep`` the workers cache encoding + solver under
        ``fingerprint`` (the session path); already-seeded fingerprints
        send bare indexes instead of re-pickling the component graphs.
        ``force`` lists component indexes that must ship a full model
        even if the worker believes it unchanged (the parent lost its
        decode cache for them).

        ``on_outcome`` is the streaming hook: it is invoked once per
        *satisfiable* outcome in arrival order, while other components
        are still solving -- the caller decodes/propagates there to
        overlap parent CPU with worker CPU.  The hook must be idempotent
        per component index (the rare ``"need"`` self-heal re-dispatches
        the batch); an exception it raises is captured as that
        component's ``"error"`` outcome, preserving the lowest-index
        failure semantics of the serial pipeline.
        """
        if self.closed:
            raise ConfigurationError("the worker pool is closed")
        if not components:
            self.last_wire = WireStats()
            return []
        wire = WireStats()
        reuse = keep and fingerprint in self._seeded
        outcomes = self._dispatch(
            components, fingerprint, keep, reuse, frozenset(force),
            on_outcome, wire,
        )
        if keep and any(o.status == "need" for o in outcomes):
            # A worker lost its cache (cannot happen in the mirrored
            # parent/worker lifecycle, but self-heal rather than fail).
            self._seeded.discard(fingerprint)
            outcomes = self._dispatch(
                components, fingerprint, keep, False, frozenset(force),
                on_outcome, wire,
            )
        if keep:
            self._seeded.add(fingerprint)
        self.last_wire = wire
        return outcomes

    def _assignment(
        self, components: list[GraphComponent], fingerprint: str, keep: bool
    ) -> dict[int, int]:
        """The LPT placement, sticky per fingerprint on the session path."""
        if keep:
            cached = self._assignments.get(fingerprint)
            if cached is not None and all(
                component.index in cached for component in components
            ):
                return cached
        sizes = [component.nodes for component in components]
        placed = lpt_assignment(sizes, self.workers)
        assignment = {
            component.index: placed[position]
            for position, component in enumerate(components)
        }
        if keep:
            self._assignments[fingerprint] = assignment
        return assignment

    def _dispatch(
        self, components, fingerprint, keep, reuse, force, on_outcome, wire
    ) -> list[ComponentOutcome]:
        assignment = self._assignment(components, fingerprint, keep)
        batches: list[list[tuple[int, Any]]] = [
            [] for _ in range(self.workers)
        ]
        for component in components:
            payload = None if reuse else component
            batches[assignment[component.index]].append(
                (component.index, payload)
            )

        started = time.perf_counter()
        expected: dict[int, int] = {}
        for worker_index, batch in enumerate(batches):
            if not batch:
                continue
            try:
                wire.request_bytes += _send_frame(
                    self._conns[worker_index],
                    ("run", fingerprint, keep, batch, force),
                )
            except (BrokenPipeError, OSError):
                self._die(worker_index, assignment, received=())
            expected[worker_index] = len(batch)
        wire.dispatch_ms += (time.perf_counter() - started) * 1000.0

        conn_to_worker = {
            self._conns[worker_index]: worker_index
            for worker_index in expected
        }
        outcomes: dict[int, ComponentOutcome] = {}
        while expected:
            tick = time.perf_counter()
            ready = multiprocessing.connection.wait(list(conn_to_worker))
            wire.recv_wait_ms += (time.perf_counter() - tick) * 1000.0
            for conn in ready:
                worker_index = conn_to_worker[conn]
                try:
                    raw = conn.recv_bytes()
                except (EOFError, OSError):
                    self._die(worker_index, assignment, received=outcomes)
                wire.reply_frames += 1
                wire.reply_bytes += len(raw)
                wire.largest_reply_bytes = max(
                    wire.largest_reply_bytes, len(raw)
                )
                outcome = self._unpack_reply(
                    pickle.loads(raw), assignment,
                    (time.perf_counter() - started) * 1000.0,
                )
                outcomes[outcome.index] = outcome
                expected[worker_index] -= 1
                if expected[worker_index] == 0:
                    del expected[worker_index]
                    del conn_to_worker[conn]
                if outcome.status == "sat" and on_outcome is not None:
                    try:
                        on_outcome(outcome)
                    except Exception as exc:
                        # Parent-side decode/propagate/typecheck failed:
                        # record it and keep draining, so the caller can
                        # still pick the lowest-index failure (the one
                        # the serial pipeline would hit first).
                        outcome.status = "error"
                        outcome.error = exc
        return sorted(outcomes.values(), key=lambda outcome: outcome.index)

    @staticmethod
    def _unpack_reply(
        frame: tuple, assignment: dict[int, int], recv_ms: float
    ) -> ComponentOutcome:
        (index, status, flags, model, constraint_stats, solver_stats,
         encode_ms, solve_ms, error, tb) = frame
        return ComponentOutcome(
            index=index,
            status=status,
            worker=assignment.get(index, -1),
            model=model,
            constraint_stats=(
                ConstraintStats(*constraint_stats)
                if constraint_stats is not None else None
            ),
            solver_stats=(
                _unpack_solver_stats(solver_stats)
                if solver_stats is not None else None
            ),
            encode_ms=encode_ms,
            solve_ms=solve_ms,
            recv_ms=recv_ms,
            encoded=bool(flags & ENCODED),
            solver_reused=bool(flags & SOLVER_REUSED),
            model_unchanged=bool(flags & MODEL_UNCHANGED),
            error=error,
            traceback=tb,
        )

    def _die(self, worker_index: int, assignment, received) -> None:
        """A worker vanished mid-round: recycle the pool (the surviving
        pipes still hold undrained replies, so it can never be reused)
        and report exactly which components were in flight."""
        in_flight = sorted(set(assignment) - set(received))
        self.close()
        raise ConfigurationError(
            f"configuration worker {worker_index} exited unexpectedly; "
            f"components in flight: {in_flight}; the worker pool was "
            "recycled -- the next configure call starts a fresh pool"
        ) from None

    # -- Cache hygiene ---------------------------------------------------

    def seeded(self, fingerprint: str) -> bool:
        return fingerprint in self._seeded

    def evict(self, fingerprint: str) -> None:
        """Drop the workers' caches for one fingerprint (LRU eviction)."""
        if self.closed or fingerprint not in self._seeded:
            return
        self._seeded.discard(fingerprint)
        self._assignments.pop(fingerprint, None)
        for worker_index in range(self.workers):
            self._send(worker_index, ("evict", fingerprint))

    def flush(self) -> None:
        """Drop every worker-side cache."""
        if self.closed:
            return
        self._seeded.clear()
        self._assignments.clear()
        for worker_index in range(self.workers):
            self._send(worker_index, ("flush",))

    def _send(self, worker_index: int, message: tuple) -> None:
        try:
            _send_frame(self._conns[worker_index], message)
        except (BrokenPipeError, OSError):
            raise ConfigurationError(
                f"configuration worker {worker_index} is gone (broken pipe)"
            ) from None

    # -- Lifecycle -------------------------------------------------------

    def close(self) -> None:
        """Stop and reap every worker (idempotent)."""
        if self.closed:
            return
        self.closed = True
        self._finalizer.detach()
        _shutdown(self._processes, self._conns)

    def __enter__(self) -> "WorkerPool":
        return self

    def __exit__(self, *_exc) -> None:
        self.close()
