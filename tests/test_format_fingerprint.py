"""Byte identity of the checkpoint format and of the storage traffic.

Each configuration saves a fixed tree, a JSON document and a stateful
iterator, then loads the tree back under a different sharding. Two digests
are compared with values recorded before a refactor:

* ``keys``: sha256 over the sorted (key, sha256(value)) pairs in the
  backend, with the ``.tmp.<nonce>`` suffix normalised;
* ``counters``: sha256 over every identity's counters after the save and
  after the load.

A refactor that must not change the format or the I/O pattern keeps both.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import re

import numpy as np
import pytest

from treevault import (
    CountingIterator,
    DenseArray,
    JsonDocument,
    Mesh,
    PartitionSpec,
    SaveOptions,
    Scalar,
    Sharding,
    SimulatedRuntime,
    Text,
    abstract_of,
    load_checkpoint,
    make_backend,
    save_checkpoint,
    tree_equal,
)
from treevault.coordination import Mode

PATH = "root/step_00000001"
_TMP_RE = re.compile(r"\.tmp\.[0-9a-f]+")


def _tree() -> dict:
    def arange(dtype, nd, shape):
        return DenseArray(dtype, np.arange(int(np.prod(shape))).astype(nd).reshape(shape))

    return {
        "w": arange("f32", np.float32, (8, 6)),
        "b": arange("i32", np.int32, (6,)),
        "e": arange("f32", np.float32, (16, 4)),
        "step": DenseArray("i64", np.array(7, np.int64)),
        "layer": {
            "k": arange("f64", np.float64, (4, 4)),
            "mask": DenseArray("bool", np.arange(12).reshape(3, 4) % 3 == 0),
            "q": arange("u8", np.uint8, (2, 8)),
        },
        "lr": Scalar("f32", 0.5),
        "name": Text("fingerprint"),
    }


def _mesh() -> Mesh:
    return Mesh.create(
        [("replica", 2), ("data", 2)], process_count=2, replica_axis="replica"
    )


def _sharding(mesh: Mesh, shape, *entries) -> Sharding:
    spec = tuple(entries) + (None,) * (len(shape) - len(entries))
    return Sharding(mesh, PartitionSpec(spec), tuple(shape))


def _save_shardings(mesh: Mesh) -> dict:
    return {
        "w": _sharding(mesh, (8, 6), "data"),
        "b": _sharding(mesh, (6,)),
        "layer/k": _sharding(mesh, (4, 4), None, "data"),
        "layer/q": _sharding(mesh, (2, 8), "data"),
    }


def _load_shardings(mesh: Mesh) -> dict:
    return {
        "w": _sharding(mesh, (8, 6), None, "data"),
        "b": _sharding(mesh, (6,), "data"),
        "e": _sharding(mesh, (16, 4), "data"),
        "layer/k": _sharding(mesh, (4, 4), "data"),
        "layer/mask": _sharding(mesh, (3, 4), None, "data"),
    }


CONFIGS = list(
    itertools.product(
        ("multi", "single"),
        ("per_leaf", "aggregated"),
        (False, True),
        (None, 64),
        ("mem", "mem+rename"),
    )
)


def _config_id(config) -> str:
    mode, layout, replica_parallel, subchunk, backend = config
    return (
        f"{mode}-{layout}-rp{int(replica_parallel)}-"
        f"sub{subchunk or 0}-{backend}"
    )


def _counters_json(backend) -> dict:
    return {i: backend.counters(i).to_json() for i in backend.identities()}


def fingerprint(config) -> dict[str, str]:
    mode, layout, replica_parallel, subchunk, spec = config
    backend = make_backend(spec)
    runtime = SimulatedRuntime(
        2,
        backend,
        mode=Mode.SINGLE_CONTROLLER if mode == "single" else Mode.MULTI_CONTROLLER,
        barrier_timeout=10.0,
    )
    mesh = _mesh()
    tree = _tree()
    options = SaveOptions(
        layout=layout,
        subchunk_target_bytes=subchunk,
        replica_parallel=replica_parallel,
        target_file_bytes=200,
    )
    save_checkpoint(
        runtime,
        PATH,
        {
            "model": tree,
            "config": JsonDocument({"lr": 0.5, "tags": ["a", "b"]}),
            "data_iter": CountingIterator(11),
        },
        {"model": _save_shardings(mesh)},
        options,
    ).wait()
    after_save = _counters_json(backend)

    fresh = CountingIterator()
    loaded = load_checkpoint(
        runtime,
        PATH,
        {
            "model": abstract_of(tree, _load_shardings(mesh)),
            "config": None,
            "data_iter": fresh,
        },
    )
    assert tree_equal(loaded["model"], tree)
    assert loaded["config"] == {"lr": 0.5, "tags": ["a", "b"]}
    assert fresh.index == 11
    after_load = _counters_json(backend)

    pairs = sorted(
        (_TMP_RE.sub(".tmp.N", key), hashlib.sha256(value).hexdigest())
        for key, value in backend.dump().items()
    )
    return {
        "keys": hashlib.sha256(json.dumps(pairs).encode()).hexdigest(),
        "counters": hashlib.sha256(
            json.dumps([after_save, after_load], sort_keys=True).encode()
        ).hexdigest(),
    }


# Recorded before the chunk writer staged byte views instead of copies. A
# change here is a format or I/O change and must be stated as one.
GOLDEN: dict[str, dict[str, str]] = {
    "multi-per_leaf-rp0-sub0-mem": {
        "keys": "9ecce48c2699da59fd062e5a6f3763de2e435d6ff2d5bd1b2ec1ec2df633ac45",
        "counters": "532e9a38b6155850a8d5e2cc54bccd5ec5724828269e30c04d90f06a0813c1ff",
    },
    "multi-per_leaf-rp0-sub0-mem+rename": {
        "keys": "a1b3ebc243705ab6914e177575de1d6c6ef3547355552ab98269589c6d8982a0",
        "counters": "6b9b5b60815522f22a5021ef536d1174b98baac4d092ce42143903a4ce054fd2",
    },
    "multi-per_leaf-rp0-sub64-mem": {
        "keys": "7e5a70a8fa93c006960bbbfe8edcf8ab576e818d3d7ea6da65498d5295f53247",
        "counters": "c5fe0f73462513798ccacb98c294995b18eea8640e96723facdd94bc228789bc",
    },
    "multi-per_leaf-rp0-sub64-mem+rename": {
        "keys": "29658f908071ae469555a2fa574d5f8d4215cef2580aa62164a91f063029bf58",
        "counters": "aa603715d65a6be1b263d237fabe86f71d475c89eac575fcecd6c211f2f5479c",
    },
    "multi-per_leaf-rp1-sub0-mem": {
        "keys": "a464ab1ddc6f0bc49228516f157ef5d525fd4ab9bcb72b84d8473317610ae0ce",
        "counters": "b2a2efd5f565890d315ff656619f321cc2ae80dcb804b4b2401b1771e6adad7d",
    },
    "multi-per_leaf-rp1-sub0-mem+rename": {
        "keys": "ab7c12c352098bc24687cea77b51aa0ad96d2763722b4480b11845bd0f2c44b8",
        "counters": "e72ea29438124d3f977470abb38ec98586f8d4e6be6e310f9b11ff103d6d2678",
    },
    "multi-per_leaf-rp1-sub64-mem": {
        "keys": "684fc137393598fa4b2a326adf068119f9248daacfe876c704e02679ef493ba7",
        "counters": "fc17165702d0306e4cfd7127663cee4509b3f653b1709258b60a247aa3daacfb",
    },
    "multi-per_leaf-rp1-sub64-mem+rename": {
        "keys": "8e78a7dc2d06fb57c99b12ff1b9e4e5ec8dd51018c2e9d4fbd8fdecb104638f1",
        "counters": "bdfb9ed8f1723b0e067db612b98ae741b39af1afe0877563917103b165c85652",
    },
    "multi-aggregated-rp0-sub0-mem": {
        "keys": "2fc358fc9fe1cd7dd44367a6a5b56a2bd3c28c161a995d085c4152deb3565d4f",
        "counters": "d5abdc33c36a691a0fcc1ffd2dbd6cc2d0307519824b17aa589ef653b165b53e",
    },
    "multi-aggregated-rp0-sub0-mem+rename": {
        "keys": "dcf3452368cc468d9a195393a5bdb560f57b102a74aa2f4afe13f838993b3213",
        "counters": "74ccc7aefd0f57e197b1ff526ea85cc1d5d11cad61f96d7f5e815dbfe49cb07c",
    },
    "multi-aggregated-rp0-sub64-mem": {
        "keys": "e5665bd3b85b65c73f8a05155fbdaebeda0de2f0f9de55840db8087701eb5ce0",
        "counters": "e02c934c1fb72c44e7e83a95bb8d841fddd453619e538e88f1edbf3f3d87a86e",
    },
    "multi-aggregated-rp0-sub64-mem+rename": {
        "keys": "e577e403e936fde26cc04b8dce1d769c66c1a4f65fd5b950e4643382cbb96455",
        "counters": "c1c6559a51ca79dedd62f310ec844125ce60cadc24efff4c04d7fd49aff55166",
    },
    "multi-aggregated-rp1-sub0-mem": {
        "keys": "fe3247f43e765636f97ed1740ba846b046a6d9d68fe90fea57525c81158c82b4",
        "counters": "6a41573a105436e0ec25aee9bca00c033305bc859d5d737ef4512b52fac75a35",
    },
    "multi-aggregated-rp1-sub0-mem+rename": {
        "keys": "b9d20c423f9be75bc4444a72a7ede38c3a2ac90a723f70c9c344b88c35ae3a1f",
        "counters": "7482d48c166d24bae937afd197ecb2a3a6e7ce5a07179fac38a85616711aa691",
    },
    "multi-aggregated-rp1-sub64-mem": {
        "keys": "28965435f4d661aeebe9646484b461b96c8c348cf845628f43c97405c783cdff",
        "counters": "d0440c8fa659527a222bce29b04cbddd56d46a690e1de9df8f7956fe0e73f608",
    },
    "multi-aggregated-rp1-sub64-mem+rename": {
        "keys": "afc93c55d5ee561f96a43502daa838f93b3a15118cea178571461847b6d67119",
        "counters": "58ab074ab26de3011121774e56c6075eaa6dcdddb9abc35714a5e377fda7fb12",
    },
    "single-per_leaf-rp0-sub0-mem": {
        "keys": "9ecce48c2699da59fd062e5a6f3763de2e435d6ff2d5bd1b2ec1ec2df633ac45",
        "counters": "8f1f8e21a6d6a4cf1466a75450b883b9233d9fc9795d1f82c19de7ead561116e",
    },
    "single-per_leaf-rp0-sub0-mem+rename": {
        "keys": "a1b3ebc243705ab6914e177575de1d6c6ef3547355552ab98269589c6d8982a0",
        "counters": "124c9dc83459ff22f207cfe042e716355f9fe0a220c82a39429a02d146d76661",
    },
    "single-per_leaf-rp0-sub64-mem": {
        "keys": "7e5a70a8fa93c006960bbbfe8edcf8ab576e818d3d7ea6da65498d5295f53247",
        "counters": "c7f2a4269bbddf0a7008edaec70332e1f53497d4e4d0a75925bc9ba418c5f7c3",
    },
    "single-per_leaf-rp0-sub64-mem+rename": {
        "keys": "29658f908071ae469555a2fa574d5f8d4215cef2580aa62164a91f063029bf58",
        "counters": "9b292380cfe650c3e52b3e45c27a4579f7baaa943d94e01f1c9a7b3cb7d0bae2",
    },
    "single-per_leaf-rp1-sub0-mem": {
        "keys": "a464ab1ddc6f0bc49228516f157ef5d525fd4ab9bcb72b84d8473317610ae0ce",
        "counters": "a713ec09029a0e4877f87dbcd86c47125f6c9be26d31f9b76d42151e8beba248",
    },
    "single-per_leaf-rp1-sub0-mem+rename": {
        "keys": "ab7c12c352098bc24687cea77b51aa0ad96d2763722b4480b11845bd0f2c44b8",
        "counters": "0bc23059590174c8bcfbbda50a13588d690d31a0dda907b30b0243442a97d91f",
    },
    "single-per_leaf-rp1-sub64-mem": {
        "keys": "684fc137393598fa4b2a326adf068119f9248daacfe876c704e02679ef493ba7",
        "counters": "4fb0bf559c6b19f58c310364d9de5898fab8b435f525dd318f69cfec45c16fbb",
    },
    "single-per_leaf-rp1-sub64-mem+rename": {
        "keys": "8e78a7dc2d06fb57c99b12ff1b9e4e5ec8dd51018c2e9d4fbd8fdecb104638f1",
        "counters": "5e128e1cab831c5674aa1e480494996e82efaf1894678e70af1bf4de00920602",
    },
    "single-aggregated-rp0-sub0-mem": {
        "keys": "2fc358fc9fe1cd7dd44367a6a5b56a2bd3c28c161a995d085c4152deb3565d4f",
        "counters": "28b5019cfd158e10c73afe623940ad0376c0d0a186812b5bcc2aa33ebd06dd13",
    },
    "single-aggregated-rp0-sub0-mem+rename": {
        "keys": "dcf3452368cc468d9a195393a5bdb560f57b102a74aa2f4afe13f838993b3213",
        "counters": "d0d8dc87986ee9877de87e519ff5ea99f894ab15b956a2257025a51d9c1b6907",
    },
    "single-aggregated-rp0-sub64-mem": {
        "keys": "e5665bd3b85b65c73f8a05155fbdaebeda0de2f0f9de55840db8087701eb5ce0",
        "counters": "2625ba2856ff58fd0e13533bbc896ae874b0dbeec314bef258eab9aaca1b0177",
    },
    "single-aggregated-rp0-sub64-mem+rename": {
        "keys": "e577e403e936fde26cc04b8dce1d769c66c1a4f65fd5b950e4643382cbb96455",
        "counters": "4f1f5cb7c65c9ad20326a64c51331f2ae7fec6720edf2ba098c6476668ce68ce",
    },
    "single-aggregated-rp1-sub0-mem": {
        "keys": "fe3247f43e765636f97ed1740ba846b046a6d9d68fe90fea57525c81158c82b4",
        "counters": "2e745223d66eb5d91044f1aee3caf1190b7a1a636fff103b2cf086c811f9f231",
    },
    "single-aggregated-rp1-sub0-mem+rename": {
        "keys": "b9d20c423f9be75bc4444a72a7ede38c3a2ac90a723f70c9c344b88c35ae3a1f",
        "counters": "9435a078dd3b32f13795781462a2f84886c6f7420475d6162f0eac2d013e8458",
    },
    "single-aggregated-rp1-sub64-mem": {
        "keys": "28965435f4d661aeebe9646484b461b96c8c348cf845628f43c97405c783cdff",
        "counters": "72ec72fc60ce0c6bddeae93c1508b1ec31b689c41da3f541ac31bc4badb63c44",
    },
    "single-aggregated-rp1-sub64-mem+rename": {
        "keys": "afc93c55d5ee561f96a43502daa838f93b3a15118cea178571461847b6d67119",
        "counters": "a16ecf06bce14b8e539ae86586ee07bea3284bdd30601aa74695254e6f0ff5c4",
    },
}


@pytest.mark.parametrize("config", CONFIGS, ids=_config_id)
def test_fingerprint_matches_golden(config):
    assert fingerprint(config) == GOLDEN[_config_id(config)]
