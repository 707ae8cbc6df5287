"""Device mesh and partitioning math.

A mesh is a named multi-axis grid of devices; a partition spec assigns mesh
axes to array dimensions. From those we derive shard grids, per-process
unique-shard ownership (deduplicating replicas), replica groups, and the
even segmenting used to spread replicated writes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

from .errors import DivisibilityError, ShardingError, TopologyError

DeviceId = int
ProcessIndex = int

Range = tuple[int, int]  # (offset, extent)


@dataclass(frozen=True)
class Mesh:
    axis_names: tuple[str, ...]
    axis_sizes: tuple[int, ...]
    devices: tuple[DeviceId, ...]  # row-major over axis sizes
    device_processes: tuple[ProcessIndex, ...]
    replica_axis: Optional[str] = None

    def __post_init__(self):
        if len(self.axis_names) != len(self.axis_sizes):
            raise ShardingError("axis name/size length mismatch")
        if len(set(self.axis_names)) != len(self.axis_names):
            raise ShardingError("duplicate axis names")
        if any(s < 1 for s in self.axis_sizes):
            raise ShardingError("axis sizes must be >= 1")
        n = math.prod(self.axis_sizes)
        if len(self.devices) != n:
            raise ShardingError(
                f"expected {n} devices for axis sizes {self.axis_sizes}, "
                f"got {len(self.devices)}"
            )
        if len(set(self.devices)) != len(self.devices):
            raise ShardingError("device ids must be unique")
        if len(self.device_processes) != n:
            raise ShardingError("device_processes must align with devices")
        procs = set(self.device_processes)
        if procs != set(range(len(procs))):
            raise ShardingError("process indices must be contiguous from 0")
        if self.replica_axis is not None and self.replica_axis not in self.axis_names:
            raise ShardingError(f"unknown replica axis {self.replica_axis!r}")
        by_device = dict(zip(self.devices, self.device_processes))
        object.__setattr__(self, "_process_by_device", by_device)  # frozen

    @classmethod
    def create(
        cls,
        axes: list[tuple[str, int]],
        process_count: int = 1,
        replica_axis: str | None = None,
    ) -> "Mesh":
        """Mesh over devices 0..N-1 split into contiguous per-process blocks."""
        names = tuple(n for n, _ in axes)
        sizes = tuple(int(s) for _, s in axes)
        n = math.prod(sizes)
        if process_count < 1 or n % process_count:
            raise ShardingError(
                f"{process_count} processes cannot evenly own {n} devices"
            )
        per = n // process_count
        return cls(
            axis_names=names,
            axis_sizes=sizes,
            devices=tuple(range(n)),
            device_processes=tuple(i // per for i in range(n)),
            replica_axis=replica_axis,
        )

    @property
    def device_count(self) -> int:
        return len(self.devices)

    @property
    def process_count(self) -> int:
        return max(self.device_processes) + 1

    def axis_index(self, name: str) -> int:
        try:
            return self.axis_names.index(name)
        except ValueError:
            raise ShardingError(f"unknown mesh axis {name!r}") from None

    def coords(self, position: int) -> tuple[int, ...]:
        """Grid coordinates of the device at row-major ``position``."""
        out = []
        for size in reversed(self.axis_sizes):
            out.append(position % size)
            position //= size
        return tuple(reversed(out))

    def process_of(self, device: DeviceId) -> ProcessIndex:
        return self._process_by_device[device]


@dataclass(frozen=True)
class PartitionSpec:
    """Per array dimension: a mesh axis name, or None for replicated."""

    entries: tuple[Optional[str], ...]

    def __post_init__(self):
        named = [e for e in self.entries if e is not None]
        if len(set(named)) != len(named):
            raise ShardingError("a mesh axis may be used at most once")

    @classmethod
    def of(cls, *entries: Optional[str]) -> "PartitionSpec":
        return cls(tuple(entries))


@dataclass(frozen=True)
class Sharding:
    mesh: Mesh
    spec: PartitionSpec
    global_shape: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(
            self, "global_shape", tuple(int(s) for s in self.global_shape)
        )
        if len(self.spec.entries) != len(self.global_shape):
            raise ShardingError(
                f"spec rank {len(self.spec.entries)} != array rank "
                f"{len(self.global_shape)}"
            )
        for axis in self.spec.entries:
            if axis is not None:
                self.mesh.axis_index(axis)

    def check_process_count(self, process_count: int, leaf: str) -> None:
        """Error unless the mesh spans the runtime's ``process_count``."""
        if self.mesh.process_count != process_count:
            raise ShardingError(
                f"sharding of {leaf!r} spans {self.mesh.process_count} "
                f"processes, runtime has {process_count}"
            )

    def check_shape(self, shape: tuple[int, ...]) -> None:
        """Error unless the global shape is the leaf's ``shape``."""
        if self.global_shape != tuple(shape):
            raise ShardingError(
                f"sharding global shape {self.global_shape} does not match "
                f"leaf shape {tuple(shape)}"
            )

    def check_divisible(self) -> None:
        for dim, axis in enumerate(self.spec.entries):
            if axis is None:
                continue
            k = self.mesh.axis_sizes[self.mesh.axis_index(axis)]
            if self.global_shape[dim] % k:
                raise DivisibilityError(
                    f"axis {axis!r} (size {k}) does not divide dimension "
                    f"{dim} (extent {self.global_shape[dim]})"
                )

    def shard_shape(self) -> tuple[int, ...]:
        self.check_divisible()
        out = []
        for dim, axis in enumerate(self.spec.entries):
            if axis is None:
                out.append(self.global_shape[dim])
            else:
                k = self.mesh.axis_sizes[self.mesh.axis_index(axis)]
                out.append(self.global_shape[dim] // k)
        return tuple(out)

    def replication_factor(self) -> int:
        """Number of devices holding each shard range."""
        used = {a for a in self.spec.entries if a is not None}
        return math.prod(
            s for n, s in zip(self.mesh.axis_names, self.mesh.axis_sizes)
            if n not in used
        )


@dataclass(frozen=True)
class Shard:
    device: DeviceId
    ranges: tuple[Range, ...]
    replica_ordinal: int

    @property
    def extents(self) -> tuple[int, ...]:
        return tuple(e for _, e in self.ranges)


@dataclass(frozen=True)
class ReplicaGroup:
    ordinal: int
    devices: frozenset[DeviceId]


def shards_of(sharding: Sharding) -> list[Shard]:
    """One shard per device; replicas of a range get distinct ordinals.

    The replica ordinal enumerates, row-major in mesh axis order, the
    coordinates of the mesh axes the spec does not use; ordinal 0 therefore
    means "first device holding this range".
    """
    sharding.check_divisible()
    mesh = sharding.mesh
    shard = sharding.shard_shape()
    dim_of_axis = {
        a: d for d, a in enumerate(sharding.spec.entries) if a is not None
    }
    unused = [
        i for i, name in enumerate(mesh.axis_names) if name not in dim_of_axis
    ]
    out = []
    for pos, device in enumerate(mesh.devices):
        coords = mesh.coords(pos)
        ranges = []
        for dim, axis in enumerate(sharding.spec.entries):
            if axis is None:
                ranges.append((0, sharding.global_shape[dim]))
            else:
                c = coords[mesh.axis_index(axis)]
                ranges.append((c * shard[dim], shard[dim]))
        ordinal = 0
        for i in unused:
            ordinal = ordinal * mesh.axis_sizes[i] + coords[i]
        out.append(Shard(device, tuple(ranges), ordinal))
    return out


def unique_shards_for_process(
    sharding: Sharding, process: ProcessIndex
) -> list[Shard]:
    """Globally deduplicated shards owned by one process.

    Across all processes the results cover every global index exactly once.
    """
    if not 0 <= process < sharding.mesh.process_count:
        raise ShardingError(f"process {process} out of range")
    return [
        s
        for s in shards_of(sharding)
        if s.replica_ordinal == 0
        and sharding.mesh.process_of(s.device) == process
    ]


def segment_axis(extents: tuple[int, ...]) -> int:
    """Axis used for even segmenting: largest extent, ties to lowest index."""
    if not extents:
        raise ShardingError("cannot segment a rank-0 shard")
    return max(range(len(extents)), key=lambda d: (extents[d], -d))


def replica_segments(
    shard: Shard, n_replicas: int, ordinal: int
) -> tuple[Range, ...] | None:
    """Split a shard into n contiguous segments and return segment `ordinal`.

    The split runs along the largest dimension using ceil-division with a
    short final segment; trailing segments may be empty (None). The union
    over ordinals is the shard's range, pairwise disjoint.
    """
    if not 0 <= ordinal < n_replicas:
        raise ShardingError(f"ordinal {ordinal} outside 0..{n_replicas - 1}")
    if n_replicas == 1:
        return shard.ranges
    axis = segment_axis(shard.extents)
    offset, extent = shard.ranges[axis]
    if extent == 0:
        return shard.ranges if ordinal == 0 else None
    seg = -(-extent // n_replicas)  # ceil
    lo = min(ordinal * seg, extent)
    hi = min(lo + seg, extent)
    if lo == hi:
        return None
    ranges = list(shard.ranges)
    ranges[axis] = (offset + lo, hi - lo)
    return tuple(ranges)


def replica_groups(mesh: Mesh) -> list[ReplicaGroup]:
    """One group of devices per replica-axis coordinate; group 0 is primary."""
    if mesh.replica_axis is None:
        raise ShardingError("mesh has no replica axis")
    axis = mesh.axis_index(mesh.replica_axis)
    groups: dict[int, set[DeviceId]] = {
        i: set() for i in range(mesh.axis_sizes[axis])
    }
    for pos, device in enumerate(mesh.devices):
        groups[mesh.coords(pos)[axis]].add(device)
    return [ReplicaGroup(i, frozenset(groups[i])) for i in sorted(groups)]


def describe_mesh(mesh: Mesh) -> dict:
    return {
        "axes": [[n, s] for n, s in zip(mesh.axis_names, mesh.axis_sizes)],
        "devices": list(mesh.devices),
        "device_processes": list(mesh.device_processes),
    }


def describe_sharding(sharding: Sharding) -> dict:
    """JSON-able descriptor stored in per-process checkpoint metadata."""
    doc = describe_mesh(sharding.mesh)
    doc["spec"] = list(sharding.spec.entries)
    doc["global_shape"] = list(sharding.global_shape)
    return doc


def sharding_from_descriptor(doc: dict, mesh: Mesh) -> Sharding:
    """Rebuild a sharding from its descriptor onto an equal current mesh."""
    validate_topology(doc, mesh)
    return Sharding(
        mesh=mesh,
        spec=PartitionSpec(tuple(doc["spec"])),
        global_shape=tuple(doc["global_shape"]),
    )


def validate_topology(saved: dict, current: Mesh) -> None:
    """Error unless the current device set and process layout match ``saved``.

    No sharding is inferred on mismatch; the caller must supply an abstract
    state with explicit target shardings instead.
    """
    current_doc = describe_mesh(current)
    for key, label in (
        ("axes", "mesh axes"),
        ("devices", "device set"),
        ("device_processes", "process layout"),
    ):
        if saved.get(key) != current_doc[key]:
            raise TopologyError(
                f"saved {label} {saved.get(key)!r} does not match current "
                f"{current_doc[key]!r}; supply an abstract state with target "
                "shardings to load onto a different topology"
            )
