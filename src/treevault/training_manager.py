"""Sequence-of-steps orchestration.

A Checkpointer owns a root directory of step checkpoints named
``step_<8-digit step>`` (zero padded so lexicographic order is numeric
order), tracks which steps are finalized, enforces monotonic step saves,
and applies a keep-last / keep-period retention policy after each
finalized save. Only finalized steps are ever load candidates.

Step discovery lists storage on the leader only and broadcasts the result,
keeping follower traffic at zero.
"""

from __future__ import annotations

import re
import time
from dataclasses import dataclass
from typing import Any, Mapping, Optional

from . import docio
from .backend import Store
from .coordination import Mode, SimulatedRuntime
from .errors import BackendError, GarbageCollectionError, StepError, TreevaultError
from .load_pipeline import LoadOptions, load_checkpoint
from .save_pipeline import (
    COMMIT_FILE,
    CheckpointSaveHandle,
    GLOBAL_METADATA_FILE,
    SaveOptions,
    commit_marker,
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
        keep = set(steps[-self.keep_last :])
        if steps:
            keep.add(steps[-1])  # the latest finalized step always survives
        if self.keep_period is not None:
            keep.update(s for s in steps if s % self.keep_period == 0)
        return keep


class StepCatalog:
    """Known steps under one root, with their finality."""

    def __init__(self, root: str):
        self.root = root.rstrip("/")
        self.steps: dict[int, bool] = {}

    def finalized_steps(self) -> list[int]:
        return sorted(s for s, done in self.steps.items() if done)

    def latest_finalized(self) -> int | None:
        done = self.finalized_steps()
        return done[-1] if done else None

    def rebuild_from_listing(self, keys: list[str], finality_marker: str) -> None:
        self.steps.clear()
        prefix_len = len(self.root) + 1
        for key in keys:
            rest = key[prefix_len:]
            first = rest.split("/", 1)[0]
            m = _STEP_DIR_RE.match(first)
            if not m:
                continue
            step = int(m.group(1))
            self.steps.setdefault(step, False)
            if rest == f"{first}/{finality_marker}":
                self.steps[step] = True


def scan_steps(store: Store, root: str) -> dict[int, bool]:
    """One listing; finality derived from the same listing's marker keys."""
    catalog = StepCatalog(root)
    catalog.rebuild_from_listing(
        store.list_keys(f"{catalog.root}/"), commit_marker(store)
    )
    return dict(catalog.steps)


def latest_step(runtime: SimulatedRuntime, root: str) -> int | None:
    """Highest finalized step under ``root``.

    In multi-controller mode the listing runs on the leader only and the
    result is broadcast; followers touch no storage.
    """
    steps = _collective_scan(runtime, root)
    done = [s for s, ok in steps.items() if ok]
    return max(done) if done else None


def _collective_scan(runtime: SimulatedRuntime, root: str) -> dict[int, bool]:
    if runtime.mode is Mode.SINGLE_CONTROLLER:
        return scan_steps(runtime.controller.store, root)

    token = f"catalog:{root}:{time.monotonic_ns()}"

    def per_process(ctx):
        payload = None
        if ctx.is_leader:
            steps = scan_steps(ctx.store, root)
            payload = docio.dumps_canonical(
                {str(s): ok for s, ok in steps.items()}
            )
        raw = ctx.leader_broadcast(token, payload)
        return {int(s): ok for s, ok in docio.loads(raw).items()}

    return runtime.run_collective(per_process)[0]


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
        self._catalog = StepCatalog(self.root)
        self._pending: tuple[int, CheckpointSaveHandle] | None = None
        self.refresh()

    # -- catalog ------------------------------------------------------------

    def refresh(self) -> None:
        self._catalog.steps = _collective_scan(self.runtime, self.root)

    def all_steps(self) -> list[int]:
        return self._catalog.finalized_steps()

    def latest_step(self) -> int | None:
        return latest_step(self.runtime, self.root)

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
        latest = self._catalog.latest_finalized()
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
        self._catalog.steps[step] = True
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
        finalized = self._catalog.finalized_steps()
        keep = self.policy.retained(finalized)
        deleted: list[int] = []
        failures: dict[int, BaseException] = {}
        for step in finalized:
            if step in keep:
                continue
            try:
                self._delete_prefix(self.step_path(step))
            except (BackendError, TreevaultError) as e:
                failures[step] = e
                continue
            deleted.append(step)
            del self._catalog.steps[step]
        if failures:
            raise GarbageCollectionError(failures)
        return deleted

    def _delete_prefix(self, prefix: str) -> None:
        keys = self._store.list_keys(f"{prefix}/")
        markers = (
            f"{prefix}/{GLOBAL_METADATA_FILE}",
            f"{prefix}/{COMMIT_FILE}",
        )
        # De-finalize first so a crash mid-deletion leaves no half step
        # that still looks loadable.
        for key in sorted(keys, key=lambda k: (k not in markers, k)):
            self._store.delete(key)

    def sweep_tmp(self, max_age_seconds: float = 0.0) -> list[str]:
        """Explicitly remove temp locations of dead saves.

        Covers ``.tmp.<nonce>`` directories and unfinalized step residue
        older than ``max_age_seconds``; never runs automatically, to avoid
        racing an in-flight save.
        """
        keys = self._store.list_keys(f"{self.root}/")
        catalog = StepCatalog(self.root)
        catalog.rebuild_from_listing(keys, commit_marker(self._store))
        prefixes = {
            self.step_path(step) for step, done in catalog.steps.items() if not done
        }
        top_dirs = {key[len(self.root) + 1 :].split("/", 1)[0] for key in keys}
        prefixes.update(
            f"{self.root}/{d}" for d in top_dirs if _TMP_DIR_RE.match(d)
        )
        swept = []
        now = time.time()
        for prefix in sorted(prefixes):
            newest = self._store.backend.newest_mtime(f"{prefix}/")
            if newest is not None and now - newest >= max_age_seconds:
                self._delete_prefix(prefix)
                swept.append(prefix)
        return swept
