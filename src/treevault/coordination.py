"""Simulated multi-process runtime.

Simulated processes are in-process threads sharing one storage backend;
named barriers, which can carry a small leader broadcast, are the only
cross-process primitives, mirroring the two coordination styles of real
deployments:

* multi-controller: every process runs the same program; process 0 is the
  leader and coordinates through barriers and broadcasts.
* single-controller: a central controller orchestrates and dispatches task
  closures onto worker processes, which perform their own storage I/O.

Protocols are written once against :meth:`SimulatedRuntime.run_program`,
which runs a program on every process or once on the controller; the
mode chooses only where a step runs. A program's context offers
``barrier``, ``leader_broadcast``, ``is_leader`` and ``each(step)``: a
process runs its own part of a per-process step, the controller runs it
on every worker. The controller is its own leader, so its barriers do
nothing and its broadcasts return their payload.

A seeded scheduler injects random delays before storage operations and
barrier arrivals so tests can explore interleavings reproducibly. Crash
schedules kill individual processes at named barriers; a crashed backend
(fault injection), or a failed task of a collective, aborts the barriers
it leaves waiting promptly.
"""

from __future__ import annotations

import enum
import random
import threading
import time
from dataclasses import dataclass
from functools import partial
from typing import Any, Callable, Iterable, Sequence

from .backend import StorageBackend, Store
from .errors import (
    BarrierTimeoutError,
    BroadcastPayloadError,
    CoordinationError,
    PeerFailedError,
    ProcessCrashedError,
    SimulatedCrashError,
    WorkerTaskError,
)

MAX_BROADCAST_BYTES = 1024 * 1024

_POLL_INTERVAL = 0.01


class Mode(enum.Enum):
    MULTI_CONTROLLER = "multi_controller"
    SINGLE_CONTROLLER = "single_controller"


@dataclass
class CrashSchedule:
    """Kill process ``process`` when it reaches a barrier whose name
    contains ``at_barrier_substring``."""

    process: int
    at_barrier_substring: str


def primary_error(errors: Sequence[BaseException]) -> BaseException:
    """The failure to surface when several processes failed: the first
    real error, not a barrier timeout or abort it caused elsewhere."""
    caused = (BarrierTimeoutError, PeerFailedError)
    return next((e for e in errors if not isinstance(e, caused)), errors[0])


class BackgroundTask:
    """Runs ``fn`` on its own thread, or inline when ``sync`` is set.

    ``wait`` joins and then returns the result or re-raises the deferred
    failure; it is idempotent and does the same on every call.
    """

    def __init__(self, fn: Callable[[], Any], name: str, sync: bool = False):
        self._result: Any = None
        self._error: BaseException | None = None
        self._thread: threading.Thread | None = None
        if sync:
            self._run(fn)
        else:
            self._thread = threading.Thread(target=self._run, args=(fn,), name=name)
            self._thread.start()

    def _run(self, fn: Callable[[], Any]) -> None:
        try:
            self._result = fn()
        except BaseException as e:  # noqa: BLE001 - surfaced via wait()
            self._error = e

    def wait(self) -> Any:
        if self._thread is not None:
            self._thread.join()
        if self._error is not None:
            raise self._error
        return self._result

    def done(self) -> bool:
        return self._thread is None or not self._thread.is_alive()


class _Rendezvous:
    """One use of a barrier name: who arrived, and the leader's payload."""

    def __init__(self):
        self.arrived: set[int] = set()
        self.payload: bytes | None = None


class SimulatedRuntime:
    def __init__(
        self,
        process_count: int,
        backend: StorageBackend,
        *,
        mode: Mode = Mode.MULTI_CONTROLLER,
        barrier_timeout: float = 30.0,
        seed: int | None = None,
        jitter: float = 0.0,
        crash_schedule: Sequence[CrashSchedule] = (),
    ):
        if process_count < 1:
            raise CoordinationError("need at least one process")
        self.process_count = process_count
        self.backend = backend
        self.mode = mode
        self.barrier_timeout = barrier_timeout
        if jitter == 0.0 and seed is not None:
            jitter = 0.0005  # seeded runs explore interleavings by default
        self.jitter = jitter
        self._seed = seed
        self._cond = threading.Condition()
        self._barriers: dict[str, _Rendezvous] = {}  # open uses only
        self._dead: set[int] = set()
        self._local = threading.local()  # .failed: its collective's failures
        self._crash_schedule = list(crash_schedule)
        self.contexts = [ProcessContext(self, i) for i in range(process_count)]
        self.controller = ControllerContext(self)

    # -- lifecycle -------------------------------------------------------

    def _mark_dead(self, process: int) -> None:
        with self._cond:
            self._dead.add(process)
            self._cond.notify_all()

    def _check_alive(self, process: int) -> None:
        if self.backend.crashed:
            raise SimulatedCrashError("backend crashed")
        with self._cond:
            if process in self._dead:
                raise ProcessCrashedError(f"process {process} crashed")

    # -- barriers ----------------------------------------------------------

    def barrier(
        self,
        name: str,
        process: int,
        timeout: float | None = None,
        payload: bytes | None = None,
    ) -> bytes | None:
        """Block until all processes arrive at ``name``; returns the
        ``payload`` one of them brought, if any.

        Completes only when every process (live or not) has arrived;
        crashed processes never arrive, so survivors time out. Each use of
        a name is its own rendezvous, dropped when it completes or a waiter
        leaves it by an error; a late arrival then waits alone.
        """
        self._check_alive(process)
        for crash in self._crash_schedule:
            if crash.process == process and crash.at_barrier_substring in name:
                self._mark_dead(process)
                raise ProcessCrashedError(
                    f"process {process} crashed at barrier {name!r}"
                )
        timeout = self.barrier_timeout if timeout is None else timeout
        deadline = time.monotonic() + timeout
        failed = getattr(self._local, "failed", ())
        with self._cond:
            rv = self._barriers.setdefault(name, _Rendezvous())
            if process in rv.arrived:
                raise CoordinationError(
                    f"process {process} arrived twice at barrier {name!r}"
                )
            rv.arrived.add(process)
            if payload is not None:
                rv.payload = payload
            if len(rv.arrived) == self.process_count:
                del self._barriers[name]
                self._cond.notify_all()
            try:
                while len(rv.arrived) < self.process_count:
                    if failed:
                        raise PeerFailedError(
                            f"barrier {name!r} aborted: a peer failed"
                        ) from failed[0]
                    if self.backend.crashed:
                        raise SimulatedCrashError(
                            f"backend crashed while waiting at {name!r}"
                        )
                    if process in self._dead:
                        raise ProcessCrashedError(f"process {process} crashed")
                    remaining = deadline - time.monotonic()
                    if remaining <= 0:
                        missing = sorted(
                            set(range(self.process_count)) - rv.arrived
                        )
                        raise BarrierTimeoutError(
                            f"barrier {name!r} timed out waiting for "
                            f"processes {missing}"
                        )
                    self._cond.wait(min(remaining, _POLL_INTERVAL))
            except BaseException:
                if self._barriers.get(name) is rv:
                    del self._barriers[name]
                raise
            return rv.payload

    # -- broadcast ---------------------------------------------------------

    def _broadcast(self, name: str, process: int, payload: bytes | None) -> bytes:
        if self.mode is not Mode.MULTI_CONTROLLER:
            raise CoordinationError("broadcast requires multi-controller mode")
        # Only the leader's payload travels; followers' are ignored.
        leader_payload = _leader_payload(payload) if process == 0 else None
        return self.barrier(f"{name}/bcast", process, payload=leader_payload)

    # -- execution ---------------------------------------------------------

    def run_program(
        self, fn: Callable[["ProcessContext | ControllerContext"], Any]
    ) -> list[Any]:
        """Run the program ``fn(context)`` on every process (multi-controller)
        or once on the controller (single-controller); returns each run's
        result, the leader's first."""
        if self.mode is Mode.SINGLE_CONTROLLER:
            return [fn(self.controller)]
        return self.run_collective(fn)

    def run_collective(self, fn: Callable[["ProcessContext"], Any]) -> list[Any]:
        """Run ``fn(context)`` concurrently on every process and gather results.

        If any process raised, the most specific failure is re-raised
        (preferring real errors over barrier timeouts caused by them).
        """
        results, errors = self._run_on(range(self.process_count), fn, "simproc")
        if errors:
            raise primary_error([e for _, e in errors])
        return results

    def run_on_workers(
        self,
        task: Callable[["ProcessContext"], Any],
        workers: Sequence[int] | None = None,
    ) -> list[Any]:
        """Dispatch a task closure to worker processes (single-controller).

        Bulk data stays on the workers; only task results return to the
        controller. Worker failures are collected with their indices.
        """
        if self.mode is not Mode.SINGLE_CONTROLLER:
            raise CoordinationError("run_on_workers requires single-controller mode")
        indices = list(range(self.process_count)) if workers is None else list(workers)
        results, failures = self._run_on(indices, task, "simworker")
        if failures:
            raise WorkerTaskError(failures)
        return results

    def _run_on(
        self,
        indices: Iterable[int],
        fn: Callable[["ProcessContext"], Any],
        name: str,
    ) -> tuple[list[Any], list[tuple[int, BaseException]]]:
        """Run ``fn(context)`` on one thread per process index and join them
        all; returns the results in ``indices`` order and the failures as
        (index, error) pairs sorted by index. The first failure aborts the
        peers waiting at a barrier; the next collective starts afresh."""
        failed: list[BaseException] = []
        tasks = [
            (i, BackgroundTask(partial(self._task, fn, failed, i), f"{name}-{i}"))
            for i in indices
        ]
        results: list[Any] = []
        failures: list[tuple[int, BaseException]] = []
        for i, task in tasks:
            try:
                results.append(task.wait())
            except BaseException as e:  # noqa: BLE001 - gathered for the caller
                failures.append((i, e))
        return results, sorted(failures, key=lambda f: f[0])

    def _task(self, fn, failed: list[BaseException], index: int) -> Any:
        self._local.failed = failed
        try:
            return fn(self.contexts[index])
        except BaseException as e:
            failed.append(e)  # waiters poll it every _POLL_INTERVAL
            raise


def _leader_payload(payload: bytes | None) -> bytes:
    if payload is None:
        raise CoordinationError("leader must supply a payload")
    if len(payload) > MAX_BROADCAST_BYTES:
        raise BroadcastPayloadError(
            f"broadcast payload of {len(payload)} bytes exceeds "
            f"{MAX_BROADCAST_BYTES}"
        )
    return bytes(payload)


class ProcessContext:
    """One simulated process: its identity, storage handle, and primitives."""

    def __init__(self, runtime: SimulatedRuntime, index: int):
        self.runtime = runtime
        self.index = index
        self.identity = f"process_{index}"
        seed = runtime._seed
        self._rng = random.Random(None if seed is None else seed * 1000003 + index)
        self.store: Store = runtime.backend.store(self.identity, self.sched_point)

    @property
    def is_leader(self) -> bool:
        return self.index == 0 and self.runtime.mode is Mode.MULTI_CONTROLLER

    def sched_point(self) -> None:
        self.runtime._check_alive(self.index)
        if self.runtime.jitter > 0:
            time.sleep(self._rng.random() * self.runtime.jitter)

    def barrier(self, name: str) -> None:
        self.sched_point()
        self.runtime.barrier(name, self.index)

    def leader_broadcast(self, name: str, payload: bytes | None = None) -> bytes:
        """Leader sends ``payload``; every process returns identical bytes.

        This moves metadata over the (simulated) network: storage counters
        are untouched. Payloads are capped at 1 MiB.
        """
        self.sched_point()
        return self.runtime._broadcast(name, self.index, payload)

    def each(self, step: Callable[["ProcessContext"], Any]) -> list[Any]:
        """Run this process's own part of a per-process step."""
        return [step(self)]


class ControllerContext:
    """The orchestrating endpoint of a single-controller runtime: the one
    instance of a program, and so its leader."""

    index = 0
    is_leader = True

    def __init__(self, runtime: SimulatedRuntime):
        self.runtime = runtime
        self.identity = "controller"
        self.store: Store = runtime.backend.store(self.identity)

    def barrier(self, name: str) -> None:
        """Nothing to wait for: the controller is the only participant."""

    def leader_broadcast(self, name: str, payload: bytes | None = None) -> bytes:
        return _leader_payload(payload)

    def each(self, step: Callable[[ProcessContext], Any]) -> list[Any]:
        """Run a per-process step on every worker, as one collective."""
        return self.runtime.run_collective(step)
