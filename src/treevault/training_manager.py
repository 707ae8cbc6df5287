"""Sequence-of-steps orchestration.

A Checkpointer owns a root directory of step checkpoints named
``step_<8-digit step>`` (zero padded so lexicographic order is numeric
order), tracks which steps are finalized, enforces monotonic step saves,
and applies a keep-last / keep-period retention policy after each
finalized save. Only finalized steps are ever load candidates.

Step discovery runs on the leader only and broadcasts the result, keeping
follower traffic at zero. It costs one shallow listing of the root (its
child names, not every key) plus one commit-marker check per step
directory: 1 ``list`` and S zero-byte ``get_range`` ops for S steps.
"""

from __future__ import annotations

import re
import time
from dataclasses import dataclass
from typing import Any, Mapping, Optional

from . import docio
from .backend import Store
from .coordination import SimulatedRuntime
from .errors import BackendError, GarbageCollectionError, StepError, TreevaultError
from .load_pipeline import LoadOptions, load_checkpoint
from .save_pipeline import (
    CheckpointSaveHandle,
    SaveOptions,
    delete_checkpoint,
    is_finalized,
    save_checkpoint,
)
from .sharding import Mesh, Sharding

_STEP_DIR_RE = re.compile(r"step_(\d{8})$")
_TMP_DIR_RE = re.compile(r"step_\d{8}\.tmp\.[0-9a-f]+$")


def step_dir_name(step: int) -> str:
    if step < 0:
        raise StepError(f"step {step} must be >= 0")
    return f"step_{step:08d}"


def should_save(step: int, save_interval: int) -> bool:
    """Save every n steps: true iff ``step`` is a multiple of the interval."""
    if save_interval < 1:
        raise StepError(f"save interval {save_interval} must be >= 1")
    if step < 0:
        raise StepError(f"step {step} must be >= 0")
    return step % save_interval == 0


@dataclass(frozen=True)
class RetentionPolicy:
    """keep_last newest finalized steps, plus every keep_period-th step."""

    keep_last: int = 1
    keep_period: Optional[int] = None

    def __post_init__(self):
        if self.keep_last < 1:
            raise StepError("keep_last must be >= 1")
        if self.keep_period is not None and self.keep_period < 1:
            raise StepError("keep_period must be >= 1")

    def retained(self, finalized_steps: list[int]) -> set[int]:
        steps = sorted(finalized_steps)
        keep = set(steps[-self.keep_last :])  # keep_last >= 1 keeps the latest
        if self.keep_period is not None:
            keep.update(s for s in steps if s % self.keep_period == 0)
        return keep


def _finalized(steps: dict[int, bool]) -> list[int]:
    """The finalized ones of the known steps, in order."""
    return sorted(s for s, done in steps.items() if done)


def _root_children(store: Store, root: str) -> tuple[list[str], dict[int, bool]]:
    """The root's child names (one shallow listing), and each step's finality."""
    names = [k[len(root) + 1 :] for k in store.list_keys(f"{root}/", shallow=True)]
    steps = {
        int(m.group(1)): is_finalized(store, f"{root}/{name}")
        for name in names
        if (m := _STEP_DIR_RE.match(name))
    }
    return names, steps


def scan_steps(store: Store, root: str) -> dict[int, bool]:
    return _root_children(store, root.rstrip("/"))[1]


def latest_step(runtime: SimulatedRuntime, root: str) -> int | None:
    """Highest finalized step under ``root``.

    The listing runs on the leader (or the controller) only and the result
    is broadcast; followers touch no storage.
    """
    return max(_finalized(_collective_scan(runtime, root)), default=None)


def _collective_scan(runtime: SimulatedRuntime, root: str) -> dict[int, bool]:
    token = f"catalog:{root}:{time.monotonic_ns()}"

    def program(ctx) -> dict[int, bool]:
        payload = None
        if ctx.is_leader:
            payload = docio.dumps_canonical(sorted(scan_steps(ctx.store, root).items()))
        return dict(docio.loads(ctx.leader_broadcast(token, payload)))

    return runtime.run_program(program)[0]


class Checkpointer:
    """Step-level orchestration over one checkpoint root.

    One instance per root per driving context; a second save waits for the
    first. Retention runs automatically once a save is seen to finalize.
    """

    def __init__(
        self,
        runtime: SimulatedRuntime,
        root: str,
        policy: RetentionPolicy | None = None,
        options: SaveOptions | None = None,
    ):
        self.runtime = runtime
        self.root = root.rstrip("/")
        self.policy = policy or RetentionPolicy()
        self.options = options or SaveOptions()
        self._store = runtime.backend.store("driver")
        self._catalog: dict[int, bool] = {}  # known steps, with their finality
        self._pending: tuple[int, CheckpointSaveHandle] | None = None
        self.refresh()

    # -- catalog ------------------------------------------------------------

    def refresh(self) -> None:
        self._catalog = _collective_scan(self.runtime, self.root)

    def all_steps(self) -> list[int]:
        return _finalized(self._catalog)

    def latest_step(self) -> int | None:
        """Highest finalized step in the catalog, without touching storage.

        The catalog is filled at construction, by :meth:`refresh` and by
        each :meth:`wait`; steps finalized by another writer are seen only
        after :meth:`refresh`. The module-level :func:`latest_step` always
        scans storage.
        """
        return max(_finalized(self._catalog), default=None)

    def step_path(self, step: int) -> str:
        return f"{self.root}/{step_dir_name(step)}"

    # -- saving -------------------------------------------------------------

    def save_step(
        self,
        step: int,
        checkpointables: Mapping[str, Any],
        shardings: Mapping[str, Mapping[str, Sharding]] | None = None,
        options: SaveOptions | None = None,
    ) -> CheckpointSaveHandle:
        self.wait()
        latest = self.latest_step()
        if latest is not None and step <= latest:
            raise StepError(
                f"step {step} is not after the latest finalized step {latest}"
            )
        handle = save_checkpoint(
            self.runtime,
            self.step_path(step),
            checkpointables,
            shardings,
            options or self.options,
        )
        self._pending = (step, handle)
        if (options or self.options).sync:
            self.wait()
        return handle

    def wait(self) -> None:
        """Join the in-flight save, register it, and apply retention."""
        if self._pending is None:
            return
        step, handle = self._pending
        self._pending = None
        handle.wait()
        self._catalog[step] = True
        self.garbage_collect()

    # -- loading ------------------------------------------------------------

    def load_step(
        self,
        step: int | None = None,
        abstracts: Mapping[str, Any] | None = None,
        options: LoadOptions | None = None,
        current_mesh: Mesh | None = None,
    ) -> dict[str, Any]:
        if step is None:
            step = self.latest_step()
            if step is None:
                raise StepError(f"no finalized steps under {self.root!r}")
        return load_checkpoint(
            self.runtime, self.step_path(step), abstracts, options, current_mesh
        )

    # -- retention ------------------------------------------------------------

    def garbage_collect(self) -> list[int]:
        """Delete finalized steps outside the retention policy.

        The latest finalized step is never deleted. A step whose deletion
        fails stays listed and the error is surfaced after the remaining
        steps were attempted.
        """
        finalized = _finalized(self._catalog)
        keep = self.policy.retained(finalized)
        deleted: list[int] = []
        failures: dict[int, BaseException] = {}
        for step in finalized:
            if step in keep:
                continue
            try:
                delete_checkpoint(self._store, self.step_path(step))
            except (BackendError, TreevaultError) as e:
                failures[step] = e
                continue
            deleted.append(step)
            del self._catalog[step]
        if failures:
            raise GarbageCollectionError(failures)
        return deleted

    def sweep_tmp(self, max_age_seconds: float = 0.0) -> list[str]:
        """Explicitly remove temp locations of dead saves.

        Covers ``.tmp.<nonce>`` directories and unfinalized step residue
        older than ``max_age_seconds``; never runs automatically, to avoid
        racing an in-flight save. If a shallow listing finds dead
        directories, one full listing supplies their keys and ages; a
        directory with no keys (on ``fs:``) is aged by its own mtime.
        """
        names, steps = _root_children(self._store, self.root)
        dead = {step_dir_name(s) for s, done in steps.items() if not done}
        dead.update(d for d in names if _TMP_DIR_RE.match(d))
        by_dir: dict[str, list[str]] = {}
        for key in self._store.list_keys(f"{self.root}/") if dead else ():
            by_dir.setdefault(key[len(self.root) + 1 :].split("/", 1)[0], []).append(key)
        swept = []
        now = time.time()
        for d in sorted(dead):
            prefix = f"{self.root}/{d}"
            keys = by_dir.get(d) or [prefix]  # an empty directory is its own key
            newest = self._store.backend.newest_mtime(keys)  # None: removed since listed
            if newest is not None and now - newest >= max_age_seconds:
                delete_checkpoint(self._store, prefix, keys)
                swept.append(prefix)
        return swept
