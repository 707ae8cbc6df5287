"""Key-value storage backends with instrumentation and fault injection.

Keys are '/'-separated strings. Both backends guarantee atomic per-key puts
(a reader sees the old value or the new value, never a torn write) and keep
exact, monotonic byte/op counters, attributable to a caller identity via
:meth:`StorageBackend.store`.

Chunk payload keys (``.../c.<coords>`` objects and ``.../d/<file_id>``
aggregated data files) are counted separately from metadata keys so tests
can reason about data traffic with metadata excluded.
"""

from __future__ import annotations

import abc
import os
import threading
import time
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Callable, Optional

from .errors import (
    BackendError,
    InjectedFaultError,
    MissingKeyError,
    SimulatedCrashError,
)

OpHook = Optional[Callable[[], None]]


def is_payload_key(key: str) -> bool:
    parts = key.split("/")
    last = parts[-1]
    if last.startswith("c.") and len(last) > 2:
        return True
    return len(parts) >= 2 and parts[-2] == "d" and last.isdigit()


@dataclass
class CounterSnapshot:
    bytes_read: int = 0
    bytes_written: int = 0
    payload_bytes_read: int = 0
    payload_bytes_written: int = 0
    ops: dict[str, int] = field(default_factory=dict)

    def op_count(self, kind: str | None = None) -> int:
        if kind is None:
            return sum(self.ops.values())
        return self.ops.get(kind, 0)

    def minus(self, earlier: "CounterSnapshot") -> "CounterSnapshot":
        ops = {
            k: self.ops.get(k, 0) - earlier.ops.get(k, 0)
            for k in set(self.ops) | set(earlier.ops)
        }
        return CounterSnapshot(
            self.bytes_read - earlier.bytes_read,
            self.bytes_written - earlier.bytes_written,
            self.payload_bytes_read - earlier.payload_bytes_read,
            self.payload_bytes_written - earlier.payload_bytes_written,
            {k: v for k, v in ops.items() if v},
        )

    def record(self, kind: str, key: str, read: int, written: int) -> None:
        self.bytes_read += read
        self.bytes_written += written
        if is_payload_key(key):
            self.payload_bytes_read += read
            self.payload_bytes_written += written
        self.ops[kind] = self.ops.get(kind, 0) + 1

    def to_json(self) -> dict:
        return {
            "bytes_read": self.bytes_read,
            "bytes_written": self.bytes_written,
            "payload_bytes_read": self.payload_bytes_read,
            "payload_bytes_written": self.payload_bytes_written,
            "ops": dict(sorted(self.ops.items())),
        }


@dataclass
class FaultPlan:
    """Injected failures.

    ``crash_after_ops=k`` lets the first k operations succeed and kills the
    whole backend from then on (every later op raises SimulatedCrashError).
    ``fail_put_substring`` / ``fail_delete_substring`` make the first
    matching operation raise a recoverable error instead.
    """

    crash_after_ops: int | None = None
    fail_put_substring: str | None = None
    fail_delete_substring: str | None = None


def _check_range(key: str, offset: int, length: int, size: int) -> None:
    if offset < 0 or length < 0 or offset + length > size:
        raise BackendError(
            f"range [{offset}, {offset + length}) outside key {key!r} "
            f"of size {size}"
        )


class StorageBackend(abc.ABC):
    supports_atomic_rename: bool = False

    def __init__(self):
        self._lock = threading.RLock()
        self._totals = CounterSnapshot()
        self._by_identity: dict[str, CounterSnapshot] = {}
        self._ops_executed = 0
        self._fault = FaultPlan()
        self._crashed = False
        self._gate = threading.Condition()
        self._gate_closed = False

    # -- instrumentation ----------------------------------------------------

    @property
    def crashed(self) -> bool:
        return self._crashed

    def set_fault_plan(self, plan: FaultPlan) -> None:
        with self._lock:
            self._fault = plan

    def clear_fault(self) -> None:
        """Recover a crashed backend (simulates a restart over the same data)."""
        with self._lock:
            self._fault = FaultPlan()
            self._crashed = False
            self._ops_executed = 0

    def set_payload_gate(self, closed: bool) -> None:
        """While closed, puts of chunk-payload keys block."""
        with self._gate:
            self._gate_closed = closed
            self._gate.notify_all()

    def counters(self, identity: str | None = None) -> CounterSnapshot:
        with self._lock:
            if identity is None:
                c = self._totals
            else:
                c = self._by_identity.get(identity, CounterSnapshot())
            return replace(c, ops=dict(c.ops))

    def identities(self) -> list[str]:
        with self._lock:
            return sorted(self._by_identity)

    def op_count(self) -> int:
        with self._lock:
            return self._ops_executed

    # -- op execution -------------------------------------------------------

    def _execute(
        self, identity: str, kind: str, key: str, fn: Callable[[], tuple[int, int]]
    ):
        if kind == "put" and is_payload_key(key):
            with self._gate:
                while self._gate_closed and not self._crashed:
                    self._gate.wait(0.02)
        with self._lock:
            if self._crashed:
                raise SimulatedCrashError(f"backend crashed (op {kind} {key})")
            fault = self._fault
            if (
                fault.crash_after_ops is not None
                and self._ops_executed >= fault.crash_after_ops
            ):
                self._crashed = True
                raise SimulatedCrashError(
                    f"injected crash after {self._ops_executed} ops "
                    f"(op {kind} {key})"
                )
            if (
                kind == "put"
                and fault.fail_put_substring is not None
                and fault.fail_put_substring in key
            ):
                self._fault = replace(fault, fail_put_substring=None)
                raise InjectedFaultError(f"injected write failure for key {key!r}")
            if (
                kind == "delete"
                and fault.fail_delete_substring is not None
                and fault.fail_delete_substring in key
            ):
                self._fault = replace(fault, fail_delete_substring=None)
                raise InjectedFaultError(
                    f"injected delete failure for key {key!r}"
                )
            result, read, written = fn()
            self._totals.record(kind, key, read, written)
            self._by_identity.setdefault(identity, CounterSnapshot()).record(
                kind, key, read, written
            )
            self._ops_executed += 1
            return result

    def store(self, identity: str = "driver", on_op: OpHook = None) -> "Store":
        return Store(self, identity, on_op)

    # -- backend implementations ---------------------------------------------

    @abc.abstractmethod
    def _put(self, key: str, data: bytes) -> None: ...

    @abc.abstractmethod
    def _get(self, key: str) -> bytes: ...

    @abc.abstractmethod
    def _get_range(self, key: str, offset: int, length: int) -> bytes: ...

    @abc.abstractmethod
    def _list(self, prefix: str) -> list[str]: ...

    @abc.abstractmethod
    def _delete(self, key: str) -> None: ...

    @abc.abstractmethod
    def _rename(self, src_prefix: str, dst_prefix: str) -> None: ...

    @abc.abstractmethod
    def _mtime(self, key: str) -> float: ...

    # -- uninstrumented helpers (tests, inspection) ---------------------------

    def dump(self) -> dict[str, bytes]:
        with self._lock:
            return {k: self._get(k) for k in self._list("")}

    def newest_mtime(self, prefix: str) -> float | None:
        with self._lock:
            keys = self._list(prefix)
            return max((self._mtime(k) for k in keys), default=None)


class Store:
    """A backend handle bound to a caller identity.

    ``on_op`` runs before every operation; the simulated runtime uses it to
    inject scheduling jitter and crash points.
    """

    def __init__(self, backend: StorageBackend, identity: str, on_op: OpHook = None):
        self.backend = backend
        self.identity = identity
        self._on_op = on_op

    def _run(self, kind: str, key: str, fn):
        if self._on_op is not None:
            self._on_op()
        return self.backend._execute(self.identity, kind, key, fn)

    def put(self, key: str, data: bytes) -> None:
        def fn():
            self.backend._put(key, data)
            return None, 0, len(data)

        self._run("put", key, fn)

    def get(self, key: str) -> bytes:
        def fn():
            data = self.backend._get(key)
            return data, len(data), 0

        return self._run("get", key, fn)

    def get_range(self, key: str, offset: int, length: int) -> bytes:
        def fn():
            data = self.backend._get_range(key, offset, length)
            return data, len(data), 0

        return self._run("get_range", key, fn)

    def list_keys(self, prefix: str) -> list[str]:
        return self._run("list", prefix, lambda: (self.backend._list(prefix), 0, 0))

    def delete(self, key: str) -> None:
        self._run("delete", key, lambda: (self.backend._delete(key), 0, 0))

    def rename_prefix(self, src: str, dst: str) -> None:
        self._run(
            "rename", src, lambda: (self.backend._rename(src, dst), 0, 0)
        )

    def exists(self, key: str) -> bool:
        try:
            self.get_range(key, 0, 0)
            return True
        except MissingKeyError:
            return False

    def counters(self) -> CounterSnapshot:
        return self.backend.counters(self.identity)


class MemoryBackend(StorageBackend):
    """In-memory key -> bytes map with counters and crash injection."""

    def __init__(self, supports_atomic_rename: bool = False):
        super().__init__()
        self.supports_atomic_rename = supports_atomic_rename
        self._data: dict[str, bytes] = {}
        self._times: dict[str, float] = {}

    def _put(self, key: str, data: bytes) -> None:
        self._data[key] = bytes(data)
        self._times[key] = time.time()

    def _get(self, key: str) -> bytes:
        try:
            return self._data[key]
        except KeyError:
            raise MissingKeyError(f"no such key {key!r}") from None

    def _get_range(self, key: str, offset: int, length: int) -> bytes:
        data = self._get(key)
        _check_range(key, offset, length, len(data))
        return data[offset : offset + length]

    def _list(self, prefix: str) -> list[str]:
        return sorted(k for k in self._data if k.startswith(prefix))

    def _delete(self, key: str) -> None:
        if key not in self._data:
            raise MissingKeyError(f"no such key {key!r}")
        del self._data[key]
        del self._times[key]

    def _rename(self, src_prefix: str, dst_prefix: str) -> None:
        src = src_prefix.rstrip("/")
        dst = dst_prefix.rstrip("/")
        moved = [k for k in self._data if k == src or k.startswith(src + "/")]
        if not moved:
            raise MissingKeyError(f"no keys under {src!r}")
        for k in moved:
            new = dst + k[len(src):]
            self._data[new] = self._data.pop(k)
            self._times[new] = self._times.pop(k)

    def _mtime(self, key: str) -> float:
        try:
            return self._times[key]
        except KeyError:
            raise MissingKeyError(f"no such key {key!r}") from None


class FilesystemBackend(StorageBackend):
    """Keys mapped to files under a root directory. Renames are atomic."""

    supports_atomic_rename = True

    def __init__(self, root: str | os.PathLike):
        super().__init__()
        self.root = Path(root)
        self.root.mkdir(parents=True, exist_ok=True)

    def _path(self, key: str) -> Path:
        parts = [p for p in key.split("/") if p]
        if any(p in (".", "..") for p in parts):
            raise BackendError(f"illegal key {key!r}")
        return self.root.joinpath(*parts)

    def _put(self, key: str, data: bytes) -> None:
        path = self._path(key)
        path.parent.mkdir(parents=True, exist_ok=True)
        tmp = path.with_name(path.name + ".partial")
        tmp.write_bytes(data)
        os.replace(tmp, path)

    def _get(self, key: str) -> bytes:
        try:
            return self._path(key).read_bytes()
        except (FileNotFoundError, IsADirectoryError):
            raise MissingKeyError(f"no such key {key!r}") from None

    def _get_range(self, key: str, offset: int, length: int) -> bytes:
        path = self._path(key)
        try:
            size = path.stat().st_size
        except FileNotFoundError:
            raise MissingKeyError(f"no such key {key!r}") from None
        _check_range(key, offset, length, size)
        with open(path, "rb") as f:
            f.seek(offset)
            return f.read(length)

    def _list(self, prefix: str) -> list[str]:
        out = []
        for dirpath, _, filenames in os.walk(self.root):
            for name in filenames:
                rel = os.path.relpath(os.path.join(dirpath, name), self.root)
                key = rel.replace(os.sep, "/")
                if key.startswith(prefix) and not name.endswith(".partial"):
                    out.append(key)
        return sorted(out)

    def _delete(self, key: str) -> None:
        path = self._path(key)
        try:
            path.unlink()
        except FileNotFoundError:
            raise MissingKeyError(f"no such key {key!r}") from None
        parent = path.parent
        while parent != self.root and not any(parent.iterdir()):
            parent.rmdir()
            parent = parent.parent

    def _rename(self, src_prefix: str, dst_prefix: str) -> None:
        src = self._path(src_prefix.rstrip("/"))
        dst = self._path(dst_prefix.rstrip("/"))
        if not src.exists():
            raise MissingKeyError(f"no keys under {src_prefix!r}")
        dst.parent.mkdir(parents=True, exist_ok=True)
        os.replace(src, dst)

    def _mtime(self, key: str) -> float:
        try:
            return self._path(key).stat().st_mtime
        except FileNotFoundError:
            raise MissingKeyError(f"no such key {key!r}") from None


def make_backend(spec: str) -> StorageBackend:
    """Build a backend from a CLI-style spec: ``mem``, ``mem+rename``, or
    ``fs:<directory>``."""
    if spec == "mem":
        return MemoryBackend()
    if spec == "mem+rename":
        return MemoryBackend(supports_atomic_rename=True)
    if spec.startswith("fs:"):
        return FilesystemBackend(spec[3:])
    raise BackendError(f"unknown backend spec {spec!r}")
