import json

import numpy as np
import pytest

from conftest import make_runtime, sharded, simple_mesh
from oracles import write_safetensors
from treevault import (
    DenseArray,
    FilesystemBackend,
    SaveOptions,
    load_checkpoint,
    save_checkpoint,
)
from treevault.chunkstore import AGGREGATED, PER_LEAF
from treevault.cli import main
from treevault.treemodel import as_tree


@pytest.fixture
def fs_checkpoint(tmp_path, request):
    """A two-process checkpoint on disk, per-leaf unless a test picks the
    layout by indirect parametrization."""
    layout = getattr(request, "param", PER_LEAF)
    backend = FilesystemBackend(tmp_path)
    rt = make_runtime(backend, 2)
    mesh = simple_mesh(2, 2)
    tree = as_tree(
        {
            "w": DenseArray("f32", np.arange(32, dtype=np.float32).reshape(8, 4)),
            "lr": 0.5,
        }
    )
    shardings = {"model": {"w": sharded(mesh, (8, 4), "data")}}
    save_checkpoint(
        rt, "run/step_00000000", {"model": tree}, shardings, SaveOptions(layout=layout)
    ).wait()
    return tmp_path, backend, tree


class TestInspect:
    def test_lists_leaves(self, fs_checkpoint, capsys):
        tmp_path, _, _ = fs_checkpoint
        code = main(["inspect", str(tmp_path / "run/step_00000000")])
        out = capsys.readouterr().out
        assert code == 0
        assert "model/w" in out and "model/lr" in out
        assert "(8,4)" in out and "f32" in out

    def test_counts_rows(self, fs_checkpoint, capsys):
        tmp_path, _, _ = fs_checkpoint
        main(["inspect", str(tmp_path / "run/step_00000000")])
        lines = [
            l for l in capsys.readouterr().out.splitlines() if l.startswith("model/")
        ]
        assert len(lines) == 2

    def test_missing_path_exit_2(self, tmp_path, capsys):
        assert main(["inspect", str(tmp_path / "nope")]) == 2

    def test_reads_no_payload(self, fs_checkpoint, capsys):
        tmp_path, backend, _ = fs_checkpoint
        before = backend.counters().payload_bytes_read
        main(["--backend", f"fs:{tmp_path}", "inspect", "run/step_00000000"])
        assert backend.counters().payload_bytes_read == before


class TestValidate:
    def test_intact_checkpoint_ok(self, fs_checkpoint, capsys):
        tmp_path, _, _ = fs_checkpoint
        assert main(["validate", str(tmp_path / "run/step_00000000")]) == 0
        assert capsys.readouterr().out.startswith("ok:")

    @pytest.mark.parametrize(
        "fs_checkpoint, damage",
        [
            (layout, damage)
            for layout in (PER_LEAF, AGGREGATED)
            for damage in ("delete", "truncate")
        ],
        indirect=["fs_checkpoint"],
    )
    def test_damaged_chunk_detected(self, fs_checkpoint, damage, capsys):
        tmp_path, _, _ = fs_checkpoint
        ckpt = tmp_path / "run/step_00000000"
        assert main(["validate", str(ckpt)]) == 0
        victim = next(
            p
            for p in sorted(ckpt.rglob("*"))
            if p.is_file() and (p.name.startswith("c.") or p.parent.name == "d")
        )
        if damage == "delete":
            victim.unlink()
        else:
            victim.write_bytes(victim.read_bytes()[:-4])
        capsys.readouterr()
        code = main(["validate", str(ckpt)])
        out = capsys.readouterr().out
        assert code == 1
        assert "model/w" in out

    def test_conflicting_process_docs_detected(self, fs_checkpoint, capsys):
        tmp_path, _, _ = fs_checkpoint
        doc_path = tmp_path / "run/step_00000000/process_1/array_metadata.json"
        doc = json.loads(doc_path.read_text())
        doc["arrays"]["model/w"]["dtype"] = "f64"
        doc_path.write_text(json.dumps(doc))
        code = main(["validate", str(tmp_path / "run/step_00000000")])
        out = capsys.readouterr().out
        assert code == 1
        assert "invalid" in out

    def test_missing_path_exit_2(self, tmp_path):
        assert main(["validate", str(tmp_path / "ghost")]) == 2


class TestReshard:
    def test_reshard_to_new_partitions(self, fs_checkpoint, capsys):
        tmp_path, backend, tree = fs_checkpoint
        code = main(
            [
                "reshard",
                str(tmp_path / "run/step_00000000"),
                str(tmp_path / "out/resharded"),
                "--partitions",
                "4,1",
                "--processes",
                "2",
                "--layout",
                "aggregated",
            ]
        )
        assert code == 0
        assert main(["validate", str(tmp_path / "out/resharded")]) == 0

    def test_identity_reshard(self, fs_checkpoint):
        tmp_path, _, _ = fs_checkpoint
        code = main(
            [
                "reshard",
                str(tmp_path / "run/step_00000000"),
                str(tmp_path / "out/same"),
                "--partitions",
                "2,1",
                "--subchunk-target-bytes",
                "64",
            ]
        )
        assert code == 0

    def test_indivisible_target_exit_1(self, fs_checkpoint, capsys):
        tmp_path, _, _ = fs_checkpoint
        code = main(
            [
                "reshard",
                str(tmp_path / "run/step_00000000"),
                str(tmp_path / "out/bad"),
                "--partitions",
                "3,1",
            ]
        )
        assert code == 1
        assert "divide" in capsys.readouterr().err

    def test_select_subset(self, fs_checkpoint):
        tmp_path, _, _ = fs_checkpoint
        code = main(
            [
                "reshard",
                str(tmp_path / "run/step_00000000"),
                str(tmp_path / "out/sub"),
                "--partitions",
                "2,1",
                "--select",
                "w",
            ]
        )
        assert code == 0
        assert main(["validate", str(tmp_path / "out/sub")]) == 0

    def test_safetensors_source(self, tmp_path):
        st = write_safetensors(
            tmp_path / "m.safetensors",
            {"emb": np.arange(32, dtype=np.float32).reshape(8, 4)},
        )
        code = main(
            [
                "reshard",
                str(st),
                str(tmp_path / "out/native"),
                "--partitions",
                "4",
                "--src-layout",
                "safetensors",
            ]
        )
        assert code == 0
        from treevault import Mesh

        backend = FilesystemBackend(tmp_path / "out")
        rt = make_runtime(backend, 1)
        mesh = Mesh.create([("p0", 4)], process_count=1)
        out = load_checkpoint(rt, "native", current_mesh=mesh)
        assert np.array_equal(
            out["model"]["emb"].data,
            np.arange(32, dtype=np.float32).reshape(8, 4),
        )


def model_spec_file(tmp_path, shape=(64, 8)):
    spec = [
        {"path": "layers/0/w", "shape": list(shape), "dtype": "f32", "partition": [None, "fsdp"]},
        {"path": "layers/1/w", "shape": list(shape), "dtype": "f32", "partition": [None, "fsdp"]},
    ]
    path = tmp_path / "model.json"
    path.write_text(json.dumps(spec))
    return str(path)


class TestBench:
    def _run(self, tmp_path, out_name, *flags):
        out = tmp_path / out_name
        code = main(
            [
                "--backend",
                "mem",
                "bench",
                "--model-spec",
                model_spec_file(tmp_path),
                "--json-out",
                str(out),
                "--seed",
                "7",
                *flags,
            ]
        )
        assert code == 0
        return json.loads(out.read_text())

    def test_replica_parallel_spreads_writes(self, tmp_path, capsys):
        flags = ["--processes", "8", "--replicas", "4", "--devices-per-process", "1"]
        single = self._run(tmp_path, "single.json", *flags, "--strategy", "single-slice")
        rp = self._run(tmp_path, "rp.json", *flags, "--strategy", "replica-parallel")
        ratio = (
            single["derived"]["max_payload_bytes_written"]
            / rp["derived"]["max_payload_bytes_written"]
        )
        assert ratio == 4.0

    def test_broadcast_read_ratio(self, tmp_path, capsys):
        flags = ["--processes", "8", "--replicas", "4", "--devices-per-process", "1"]
        direct = self._run(tmp_path, "d.json", *flags, "--load-strategy", "direct")
        bcast = self._run(tmp_path, "b.json", *flags, "--load-strategy", "broadcast")
        ratio = (
            bcast["derived"]["payload_bytes_read_total"]
            / direct["derived"]["payload_bytes_read_total"]
        )
        assert ratio == 0.25

    def test_p1_strategies_coincide(self, tmp_path, capsys):
        flags = ["--processes", "1", "--replicas", "1"]
        a = self._run(tmp_path, "a.json", *flags, "--strategy", "single-slice")
        b = self._run(tmp_path, "b.json", *flags, "--strategy", "replica-parallel")
        assert (
            a["derived"]["payload_bytes_written_per_identity"]
            == b["derived"]["payload_bytes_written_per_identity"]
        )

    def test_report_is_deterministic_given_seed(self, tmp_path, capsys):
        flags = ["--processes", "2", "--replicas", "2"]
        a = self._run(tmp_path, "a.json", *flags)
        b = self._run(tmp_path, "b.json", *flags)
        a.pop("phases_s"), b.pop("phases_s")
        assert a == b

    def test_single_controller_mode(self, tmp_path, capsys):
        report = self._run(
            tmp_path, "s.json", "--processes", "2", "--mode", "single"
        )
        assert report["counters"]["per_identity"]["controller"][
            "payload_bytes_written"
        ] == 0


class TestGc:
    def _populate(self, tmp_path, steps):
        backend = FilesystemBackend(tmp_path)
        rt = make_runtime(backend, 1)
        from treevault import Checkpointer, RetentionPolicy

        cp = Checkpointer(rt, "root", RetentionPolicy(keep_last=100))
        for step in steps:
            cp.save_step(step, {"model": as_tree({"x": float(step)})})
        cp.wait()
        return backend

    def test_policy_applied(self, tmp_path, capsys):
        self._populate(tmp_path, range(10))
        code = main(
            [
                "gc",
                str(tmp_path / "root"),
                "--keep-last",
                "3",
                "--keep-period",
                "4",
            ]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "retained steps: [0, 4, 7, 8, 9]" in out

    def test_sweep_tmp(self, tmp_path, capsys):
        self._populate(tmp_path, [0])
        junk = tmp_path / "root/step_00000005/process_0/model/x/c.0"
        junk.parent.mkdir(parents=True)
        junk.write_bytes(b"dead")
        code = main(
            ["gc", str(tmp_path / "root"), "--keep-last", "5", "--sweep-tmp"]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "step_00000005" in out
        assert not junk.exists()

    def test_missing_root_exit_2(self, tmp_path):
        assert main(["gc", str(tmp_path / "none"), "--keep-last", "1"]) == 2


class TestConfigFile:
    def test_config_supplies_defaults(self, tmp_path, capsys):
        self_dir = tmp_path
        cfg = self_dir / "cfg.json"
        cfg.write_text(json.dumps({"keep_last": 2}))
        backend = FilesystemBackend(tmp_path)
        rt = make_runtime(backend, 1)
        from treevault import Checkpointer, RetentionPolicy

        cp = Checkpointer(rt, "root", RetentionPolicy(keep_last=100))
        for step in range(4):
            cp.save_step(step, {"model": as_tree({"x": float(step)})})
        cp.wait()
        code = main(["--config", str(cfg), "gc", str(tmp_path / "root")])
        out = capsys.readouterr().out
        assert code == 0
        assert "retained steps: [2, 3]" in out

    def test_bad_config_exit_2(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text("[1,2]")
        assert main(["--config", str(cfg), "inspect", "x"]) == 2


def test_usage_error_exits_2():
    with pytest.raises(SystemExit) as e:
        main(["frobnicate"])
    assert e.value.code == 2
