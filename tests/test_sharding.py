import math
import random

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from conftest import sharded, simple_mesh
from oracles import ceil_segments, cover_counts
from treevault import (
    Mesh,
    PartitionSpec,
    Sharding,
    replica_groups,
    replica_segments,
    shards_of,
    unique_shards_for_process,
    validate_topology,
)
from treevault.errors import DivisibilityError, ShardingError, TopologyError
from treevault.sharding import (
    describe_sharding,
    segment_axis,
    sharding_from_descriptor,
)


class TestMesh:
    def test_create(self):
        mesh = Mesh.create([("a", 4), ("b", 2)], process_count=4)
        assert mesh.device_count == 8
        assert mesh.process_count == 4
        assert [d for d in mesh.devices if mesh.process_of(d) == 0] == [0, 1]
        assert mesh.coords(5) == (2, 1)

    @pytest.mark.parametrize(
        "mesh",
        [
            Mesh.create([("a", 4), ("b", 2)], process_count=4),
            Mesh.create([("replica", 2), ("fsdp", 8)], process_count=4, replica_axis="replica"),
            Mesh(("x",), (6,), (11, 3, 7, 0, 5, 9), (1, 0, 2, 2, 0, 1)),
        ],
        ids=["4x2", "replica2xfsdp8", "permuted"],
    )
    def test_process_of_agrees_with_index_lookup(self, mesh):
        for device in mesh.devices:
            expected = mesh.device_processes[mesh.devices.index(device)]
            assert mesh.process_of(device) == expected

    def test_uneven_process_split_rejected(self):
        with pytest.raises(ShardingError):
            Mesh.create([("a", 4)], process_count=3)

    def test_duplicate_axis_rejected(self):
        with pytest.raises(ShardingError):
            Mesh.create([("a", 2), ("a", 2)])

    def test_spec_axis_reuse_rejected(self):
        with pytest.raises(ShardingError):
            PartitionSpec.of("a", "a")


class TestShardsOf:
    def test_paper_grid_16x4(self):
        mesh = Mesh.create([("x", 16), ("y", 4)], process_count=8)
        s = Sharding(mesh, PartitionSpec.of("x", "y"), (256, 64))
        shards = shards_of(s)
        assert len(shards) == 64
        assert all(sh.extents == (16, 16) for sh in shards)
        assert all(sh.replica_ordinal == 0 for sh in shards)
        counts = cover_counts([sh.ranges for sh in shards], (256, 64))
        assert (counts == 1).all()

    def test_fully_replicated(self):
        mesh = simple_mesh(4, 4)
        s = sharded(mesh, (8,))
        shards = shards_of(s)
        assert [sh.ranges for sh in shards] == [((0, 8),)] * 4
        assert sorted(sh.replica_ordinal for sh in shards) == [0, 1, 2, 3]

    def test_divisibility_violation(self):
        mesh = Mesh.create([("x", 4)], process_count=4)
        s = Sharding(mesh, PartitionSpec.of("x", None), (6, 4))
        with pytest.raises(DivisibilityError):
            shards_of(s)

    def test_deterministic(self):
        mesh = Mesh.create([("x", 4), ("y", 2)], process_count=2)
        s = Sharding(mesh, PartitionSpec.of("y", "x"), (4, 8))
        assert shards_of(s) == shards_of(s)


class TestUniqueShards:
    def test_replicated_dedup(self):
        mesh = simple_mesh(4, 4)
        s = sharded(mesh, (8,))
        per_proc = [unique_shards_for_process(s, p) for p in range(4)]
        assert [len(x) for x in per_proc] == [1, 0, 0, 0]

    def test_8x8_grid(self):
        mesh = Mesh.create([("x", 16), ("y", 4)], process_count=8)
        s = Sharding(mesh, PartitionSpec.of("x", "y"), (256, 64))
        for p in range(8):
            assert len(unique_shards_for_process(s, p)) == 8

    def test_single_process_owns_all(self):
        mesh = Mesh.create([("x", 4), ("y", 2)], process_count=1)
        s = Sharding(mesh, PartitionSpec.of("x", "y"), (8, 4))
        assert len(unique_shards_for_process(s, 0)) == 8

    def test_out_of_range_process(self):
        mesh = simple_mesh(2, 2)
        with pytest.raises(ShardingError):
            unique_shards_for_process(sharded(mesh, (4,), "data"), 5)


@st.composite
def mesh_and_sharding(draw):
    n_axes = draw(st.integers(1, 3))
    sizes = draw(
        st.lists(st.sampled_from([1, 2, 2, 4]), min_size=n_axes, max_size=n_axes)
    )
    names = [f"ax{i}" for i in range(n_axes)]
    devices = math.prod(sizes)
    processes = draw(st.sampled_from([p for p in (1, 2, 4, 8) if devices % p == 0]))
    mesh = Mesh.create(list(zip(names, sizes)), process_count=processes)
    rank = draw(st.integers(1, 3))
    used = draw(st.permutations(names))
    entries = []
    shape = []
    for dim in range(rank):
        axis = used[dim] if dim < len(used) and draw(st.booleans()) else None
        entries.append(axis)
        base = draw(st.integers(1, 4))
        k = sizes[names.index(axis)] if axis else 1
        shape.append(base * k)
    return Sharding(mesh, PartitionSpec(tuple(entries)), tuple(shape))


@given(mesh_and_sharding())
@settings(max_examples=100, deadline=None)
def test_exact_cover_property(s):
    ranges = [
        sh.ranges
        for p in range(s.mesh.process_count)
        for sh in unique_shards_for_process(s, p)
    ]
    counts = cover_counts(ranges, s.global_shape)
    assert (counts == 1).all()


class TestReplicaSegments:
    def _shard(self, extent):
        mesh = simple_mesh(1, 1)
        return shards_of(sharded(mesh, (extent,)))[0]

    def test_quarter_of_1024(self):
        seg = replica_segments(self._shard(1024), 4, 1)
        assert seg == ((256, 256),)

    def test_identity_when_one_replica(self):
        shard = self._shard(77)
        assert replica_segments(shard, 1, 0) == shard.ranges

    def test_ceil_division_3331(self):
        sizes = []
        for o in range(4):
            seg = replica_segments(self._shard(10), 4, o)
            sizes.append(0 if seg is None else seg[0][1])
        assert sizes == [3, 3, 3, 1]
        assert [(hi - lo) for lo, hi in ceil_segments(10, 4)] == sizes

    @pytest.mark.parametrize("extent,n", [(10, 4), (8, 4), (1, 3), (5, 8), (64, 2)])
    def test_disjoint_union_matches_oracle(self, extent, n):
        shard = self._shard(extent)
        covered = []
        for o in range(n):
            seg = replica_segments(shard, n, o)
            if seg is not None:
                covered.append(seg)
        counts = cover_counts(covered, (extent,))
        assert (counts == 1).all()
        oracle = [(lo, hi - lo) for lo, hi in ceil_segments(extent, n) if hi > lo]
        assert [c[0] for c in covered] == oracle

    def test_splits_largest_dimension(self):
        mesh = simple_mesh(1, 1)
        shard = shards_of(sharded(mesh, (4, 16)))[0]
        seg = replica_segments(shard, 2, 0)
        assert seg == ((0, 4), (0, 8))
        assert segment_axis((4, 16)) == 1
        assert segment_axis((16, 16)) == 0  # ties to the lowest index

    def test_ordinal_out_of_range(self):
        with pytest.raises(ShardingError):
            replica_segments(self._shard(8), 2, 2)


class TestReplicaGroups:
    def test_4x16(self):
        mesh = Mesh.create(
            [("data", 4), ("fsdp", 16)], process_count=8, replica_axis="data"
        )
        groups = replica_groups(mesh)
        assert len(groups) == 4
        assert all(len(g.devices) == 16 for g in groups)
        assert groups[0].ordinal == 0
        assert sorted(groups[0].devices) == list(range(16))

    def test_size_one_axis(self):
        mesh = Mesh.create([("r", 1), ("f", 4)], process_count=2, replica_axis="r")
        groups = replica_groups(mesh)
        assert len(groups) == 1
        assert groups[0].devices == frozenset(range(4))

    def test_group_covers_each_array_once(self):
        mesh = Mesh.create(
            [("data", 4), ("fsdp", 4)], process_count=4, replica_axis="data"
        )
        s = Sharding(mesh, PartitionSpec.of("fsdp", None), (8, 4))
        for group in replica_groups(mesh):
            ranges = [
                sh.ranges for sh in shards_of(s) if sh.device in group.devices
            ]
            counts = cover_counts(ranges, (8, 4))
            assert (counts == 1).all()

    def test_requires_replica_axis(self):
        with pytest.raises(ShardingError):
            replica_groups(simple_mesh(4, 2))


class TestTopologyValidation:
    def test_same_topology_ok(self):
        mesh = Mesh.create([("x", 8), ("y", 8)], process_count=8)
        s = sharded(mesh, (64, 64), "x", "y")
        validate_topology(describe_sharding(s), mesh)

    def test_changed_device_count(self):
        save_mesh = Mesh.create([("x", 64)], process_count=8)
        load_mesh = Mesh.create([("x", 16)], process_count=8)
        desc = describe_sharding(sharded(save_mesh, (64,), "x"))
        with pytest.raises(TopologyError):
            validate_topology(desc, load_mesh)

    def test_same_count_different_process_layout(self):
        a = Mesh.create([("x", 8)], process_count=2)
        b = Mesh(
            a.axis_names,
            a.axis_sizes,
            a.devices,
            tuple([0, 1] * 4),  # interleaved instead of contiguous
        )
        desc = describe_sharding(sharded(a, (8,), "x"))
        with pytest.raises(TopologyError):
            validate_topology(desc, b)

    def test_descriptor_round_trip(self):
        mesh = Mesh.create([("x", 4), ("y", 2)], process_count=2)
        s = Sharding(mesh, PartitionSpec.of("y", "x"), (4, 8))
        rebuilt = sharding_from_descriptor(describe_sharding(s), mesh)
        assert rebuilt.spec == s.spec
        assert rebuilt.global_shape == s.global_shape
        assert shards_of(rebuilt) == shards_of(s)


def test_replication_factor():
    mesh = Mesh.create([("r", 4), ("f", 4)], process_count=4, replica_axis="r")
    assert sharded(mesh, (16,), "f").replication_factor() == 4
    assert sharded(mesh, (16, 16), "f", "r").replication_factor() == 1
    assert sharded(mesh, (16,)).replication_factor() == 16
