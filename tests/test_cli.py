import hashlib
import json
import os
import pathlib
import shutil
import subprocess
import sys

import numpy as np
import pytest

import sparsepose
from sparsepose.cli import main


def run(args):
    return main([str(a) for a in args])


@pytest.fixture(scope="module")
def scene_dir(tmp_path_factory):
    out = tmp_path_factory.mktemp("cli_scene") / "scene"
    code = run(["make-scene", "--out", out, "--objects", 2, "--bin-mm", 140,
                "--bin-height-mm", 50, "--seed", 3])
    assert code == 0
    return out


class TestMakeScene:
    def test_bundle_files_exist(self, scene_dir):
        for name in ("scene.json", "gt.json", "cam_00.json", "depth_00.png"):
            assert (scene_dir / name).exists()

    def test_deterministic(self, tmp_path):
        a = tmp_path / "a"
        b = tmp_path / "b"
        assert run(["make-scene", "--out", a, "--objects", 1, "--seed", 5]) == 0
        assert run(["make-scene", "--out", b, "--objects", 1, "--seed", 5]) == 0
        assert (a / "scene.json").read_bytes() == (b / "scene.json").read_bytes()
        assert (a / "depth_00.png").read_bytes() == (b / "depth_00.png").read_bytes()

    @pytest.mark.parametrize("flag, value, code", [
        ("--dropout", 2.0, 3), ("--dropout", -0.5, 3), ("--noise-mm", -1.0, 3), ("--seed", -1, 2),
    ])
    def test_bad_flag_writes_no_bundle(self, tmp_path, capsys, flag, value, code):
        out = tmp_path / "scene"
        capsys.readouterr()
        assert run(["make-scene", "--out", out, "--objects", 1, flag, value]) == code
        assert len(capsys.readouterr().err.strip().splitlines()) == 1
        assert not out.exists()


class TestFuse:
    def test_cloud_ply(self, scene_dir, tmp_path):
        out = tmp_path / "fused.ply"
        assert run(["fuse", scene_dir, "--out", out, "--theta-mm", 4.0]) == 0
        from sparsepose.fusion import read_ply

        verts, _, _ = read_ply(out)
        assert len(verts) > 0

    def test_tsdf_dump(self, scene_dir, tmp_path):
        out = tmp_path / "fused.tsdf"
        assert run(["fuse", scene_dir, "--repr", "tsdf", "--out", out, "--theta-mm", 4.0]) == 0
        from sparsepose.tsdf import SparseTsdf

        tsdf = SparseTsdf.load(out)
        assert tsdf.n_blocks > 0
        assert len(tsdf.extract_pbar()) > 0

    def test_tsdf_band_counted_without_extraction(self, scene_dir, tmp_path, capsys, monkeypatch):
        # the count comes from the band test alone; no band centers are built
        from sparsepose.config import PipelineConfig
        from sparsepose.tsdf import SparseTsdf

        calls = []
        extract = SparseTsdf.extract_pbar
        monkeypatch.setattr(SparseTsdf, "extract_pbar", lambda self: calls.append(1) or extract(self))
        out = tmp_path / "fused.tsdf"
        assert run(["fuse", scene_dir, "--repr", "tsdf", "--out", out, "--theta-mm", 4.0]) == 0
        assert calls == []
        tsdf = SparseTsdf.load(out)
        band = len(extract(tsdf))
        seed = PipelineConfig().seed
        assert capsys.readouterr().out == \
            f"sparse tsdf: {tsdf.n_blocks} blocks, {band} band voxels -> {out} (seed={seed})\n"

    def test_tsdf_band_count_without_voxelize(self, tiny_bundle_dir, tmp_path, capsys, monkeypatch):
        # the fine grid has one voxel per band row, so the count needs no grid
        import sparsepose.grid
        import sparsepose.pipeline
        from sparsepose.config import PipelineConfig
        from sparsepose.synthetic import load_scene_bundle

        calls = []
        for module in (sparsepose.grid, sparsepose.pipeline):
            monkeypatch.setattr(module, "voxelize", lambda *a, **k: calls.append(1))
        out = tmp_path / "fused.tsdf"
        capsys.readouterr()
        assert run(["fuse", tiny_bundle_dir, "--repr", "tsdf", "--out", out, "--theta-mm", 4.0]) == 0
        assert calls == []
        line = capsys.readouterr().out
        assert line == f"sparse tsdf: 100 blocks, 29925 band voxels -> {out} (seed=0)\n"
        monkeypatch.undo()
        fine, _, _ = sparsepose.pipeline.build_input_grid(load_scene_bundle(tiny_bundle_dir),
                                                          PipelineConfig(theta=0.004), "tsdf")
        assert f", {len(fine)} band voxels ->" in line

    def test_deterministic_bytes(self, scene_dir, tmp_path):
        a, b = tmp_path / "a.ply", tmp_path / "b.ply"
        run(["fuse", scene_dir, "--out", a, "--theta-mm", 4.0])
        run(["fuse", scene_dir, "--out", b, "--theta-mm", 4.0])
        assert a.read_bytes() == b.read_bytes()

    def test_missing_scene_data_error(self, tmp_path):
        assert run(["fuse", tmp_path / "missing"]) == 3

    def test_cloud_ply_sha_pinned(self, tiny_bundle_dir, tmp_path):
        # the fused cloud's PLY: header, point order and float32 values
        out = tmp_path / "fused.ply"
        assert run(["fuse", tiny_bundle_dir, "--out", out]) == 0
        assert hashlib.sha256(out.read_bytes()).hexdigest() == \
            "c5ac490f30183cdc861d7363a493dcff81c30ef81e889062749e18f28836512d"


class TestTargets:
    def test_csv_dumps(self, scene_dir, tmp_path):
        out = tmp_path / "targets"
        assert run(["targets", scene_dir, "--out", out, "--theta-mm", 4.0, "--seed", 11]) == 0
        coarse = (out / "targets_coarse.csv").read_text().splitlines()
        fine = (out / "targets_fine.csv").read_text().splitlines()
        assert coarse[0] == "# seed=11"
        assert coarse[1] == "vx,vy,vz,H,attention"
        assert fine[1] == "vx,vy,vz,objectness"
        # voxel counts match the grids
        from sparsepose.config import PipelineConfig
        from sparsepose.grid import coarsen
        from sparsepose.pipeline import build_input_grid
        from sparsepose.synthetic import load_scene_bundle

        bundle = load_scene_bundle(scene_dir)
        fine_grid, _, _ = build_input_grid(bundle, PipelineConfig(theta=0.004), "cloud")
        coarse_grid, _ = coarsen(fine_grid, 10)
        assert len(fine) - 2 == len(fine_grid)
        assert len(coarse) - 2 == len(coarse_grid)
        # H values match the target op
        from sparsepose.heatmap import roi_target

        cfg = PipelineConfig(theta=0.004)
        H = roi_target(coarse_grid, bundle.gt, cfg.sigma_c, cfg.sigma_b)
        for line, h in zip(coarse[2:], H):
            assert float(line.split(",")[3]) == pytest.approx(h, abs=1e-8)

    def test_empty_gt_all_zero(self, tmp_path):
        # scene with no objects: build a wall-only bundle by hand
        from sparsepose.camera import DepthImage, save_camera_json, save_depth_png
        from sparsepose.synthetic import default_camera_ring, default_intrinsics

        out = tmp_path / "empty_scene"
        os.makedirs(out / "models")
        intr = default_intrinsics(width=64, height=48, focal=60.0)
        cams = default_camera_ring((-0.05, -0.05, 0.0), (0.05, 0.05, 0.04), n_views=1, intr=intr)
        doc = {
            "seed": 0, "bin_min": [-0.05, -0.05, 0.0], "bin_max": [0.05, 0.05, 0.04],
            "workspace_min": [-0.07, -0.07, -0.02], "workspace_max": [0.07, 0.07, 0.06],
            "noise_sigma": 0.0, "dropout": 0.0, "depth_scale": 5e-5,
            "with_bin_walls": True, "n_views": 1, "models": {}, "instances": [],
        }
        (out / "scene.json").write_text(json.dumps(doc))
        (out / "gt.json").write_text(json.dumps({"objects": []}))
        save_camera_json(out / "cam_00.json", cams[0][0], cams[0][1], 5e-5)
        depth = np.zeros((48, 64))
        depth[20:30, 20:40] = 0.35
        save_depth_png(out / "depth_00.png", DepthImage(depth), 5e-5)
        dump = tmp_path / "targets"
        assert run(["targets", out, "--out", dump, "--theta-mm", 4.0]) == 0
        lines = (dump / "targets_coarse.csv").read_text().splitlines()[2:]
        assert all(float(l.split(",")[3]) == 0.0 for l in lines)


class TestEstimateAndEval:
    def test_oracle_estimate_and_eval(self, scene_dir, tmp_path):
        poses = tmp_path / "poses"
        assert run(["estimate", scene_dir, "--oracle", "--out", poses,
                    "--theta-mm", 3.0, "--seed", 0]) == 0
        doc = json.loads((poses.with_suffix(".json")).read_text())
        assert doc["seed"] == 0
        assert len(doc["poses"]) == 2
        for entry in doc["poses"]:
            assert set(entry) == {"object_id", "class_id", "confidence", "rotation",
                                  "translation", "support", "refined"}
        metrics = tmp_path / "metrics"
        assert run(["eval", scene_dir, poses.with_suffix(".json"), "--out", metrics,
                    "--theta-mm", 3.0]) == 0
        report = json.loads(metrics.with_suffix(".json").read_text())
        assert report["n_objects"] == 2
        for entry in report["per_object"]:
            assert entry["add_s"] < 0.002

    def test_oracle_pose_json_sha_pinned(self, tiny_bundle_dir, tmp_path):
        out = tmp_path / "poses"
        assert run(["estimate", tiny_bundle_dir, "--oracle", "--out", out]) == 0
        assert hashlib.sha256(out.with_suffix(".json").read_bytes()).hexdigest() == \
            "50c3b937eabd7a228bc681126ae9bd10192422667556cb00e348c812f56734dc"

    def test_oracle_pose_json_sha_pinned_tsdf(self, tiny_bundle_dir, tmp_path):
        # the TSDF path: band grid, its votes and ICP against the fused cloud
        out = tmp_path / "poses"
        assert run(["estimate", tiny_bundle_dir, "--oracle", "--repr", "tsdf", "--out", out]) == 0
        assert hashlib.sha256(out.with_suffix(".json").read_bytes()).hexdigest() == \
            "7801d9c851d98681875dbb1d83a6f6be3324eb91f32783527543e9eda3e72cdc"

    def test_oracle_eval_sha_pinned(self, tiny_bundle_dir, tmp_path):
        poses, metrics = tmp_path / "poses", tmp_path / "metrics"
        assert run(["estimate", tiny_bundle_dir, "--oracle", "--out", poses]) == 0
        assert run(["eval", tiny_bundle_dir, poses.with_suffix(".json"), "--out", metrics]) == 0
        assert hashlib.sha256(metrics.with_suffix(".csv").read_bytes()).hexdigest() == \
            "6a9c7a8b1772f7c1634f0084a6e6a10545250c8d40715d119a748ff8326fde63"
        assert hashlib.sha256(metrics.with_suffix(".json").read_bytes()).hexdigest() == \
            "270fc287d1f78da608e3458a312c9ed30e029def7e3132f54449b5d19a9b60e0"

    def test_estimate_without_model_or_oracle_is_config_error(self, scene_dir):
        assert run(["estimate", scene_dir]) == 2

    def test_gt_vs_gt_eval_perfect(self, scene_dir, tmp_path):
        # hand-write poses equal to ground truth
        bundle_gt = json.loads((scene_dir / "gt.json").read_text())
        doc = {"seed": 0, "poses": []}
        for i, obj in enumerate(bundle_gt["objects"]):
            doc["poses"].append({
                "object_id": i, "class_id": obj["class_id"], "confidence": 1.0,
                "rotation": obj["rotation"], "translation": obj["translation"],
                "support": 1, "refined": False,
            })
        poses = tmp_path / "gt_poses.json"
        poses.write_text(json.dumps(doc))
        metrics = tmp_path / "gt_metrics"
        assert run(["eval", scene_dir, poses, "--out", metrics]) == 0
        report = json.loads(metrics.with_suffix(".json").read_text())
        assert report["add_s_auc"] == 1.0
        assert report["ap"] == 1.0
        for entry in report["per_object"]:
            assert entry["add"] == 0.0


GOOD_POSE = {"object_id": 0, "class_id": 1, "confidence": 1.0, "rotation": np.eye(3).ravel().tolist(),
             "translation": [0.0, 0.0, 0.02], "support": 1, "refined": False}


@pytest.mark.parametrize("doc", [
    {"poses": [dict(GOOD_POSE, rotation=[float("nan")] * 9)]},
    {"poses": [dict(GOOD_POSE, translation=[0.0, float("nan"), 0.0])]},
    {"poses": [{k: v for k, v in GOOD_POSE.items() if k != "rotation"}]},
    {"poses": [dict(GOOD_POSE, rotation=[1.0] * 8)]},
    {"poses": [dict(GOOD_POSE, rotation="identity")]},
    {"poses": [[1, 2, 3]]},
    {"poses": 5},
    [GOOD_POSE],
])
def test_malformed_pose_json_exit_code(scene_dir, tmp_path, capsys, doc):
    poses = tmp_path / "poses.json"
    poses.write_text(json.dumps(doc))
    capsys.readouterr()
    assert run(["eval", scene_dir, poses, "--out", tmp_path / "metrics"]) == 3
    err = capsys.readouterr().err
    assert err.startswith("data error:")
    assert len(err.strip().splitlines()) == 1


class TestStats:
    def test_occupancy_csv(self, scene_dir, tmp_path):
        out = tmp_path / "occ.csv"
        assert run(["stats", scene_dir, "--thetas", 8.0, 4.0, "--out", out, "--seed", 2]) == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "# seed=2"
        assert lines[1] == "theta_mm,sparse,dense,ratio"
        assert len(lines) == 4
        dense8 = int(lines[2].split(",")[2])
        dense4 = int(lines[3].split(",")[2])
        assert dense4 > dense8  # finer grid, more dense voxels

    def test_sparse_slope_surface_like(self, scene_dir, tmp_path):
        from oracles import loglog_slope

        out = tmp_path / "occ_slope.csv"
        assert run(["stats", scene_dir, "--thetas", 8.0, 4.0, 2.0, "--out", out]) == 0
        rows = [line.split(",") for line in out.read_text().splitlines()[2:]]
        thetas = [float(r[0]) for r in rows]
        sparse = [int(r[1]) for r in rows]
        slope = loglog_slope([1.0 / t for t in thetas], sparse)
        assert 1.6 <= slope <= 2.4


def test_csv_bytes_pinned(tiny_bundle_dir, tmp_path):
    # the targets, training-trace and occupancy CSVs: seed line, header, rows
    assert run(["targets", tiny_bundle_dir, "--out", tmp_path / "t", "--theta-mm", 4.0, "--seed", 2]) == 0
    assert run(["train-toy", tiny_bundle_dir, "--steps", 2, "--out", tmp_path / "toy.ckpt",
                "--theta-mm", 4.0]) == 0
    assert run(["stats", tiny_bundle_dir, "--thetas", 8.0, 4.0, "--out", tmp_path / "occ.csv"]) == 0
    digests = {p: hashlib.sha256((tmp_path / p).read_bytes()).hexdigest()
               for p in ("t/targets_coarse.csv", "t/targets_fine.csv", "toy_trace.csv", "occ.csv")}
    assert digests == {
        "t/targets_coarse.csv": "036ed722a781e6f2e43ca6c372fe918488039139b07986d93147d5fdc2566b21",
        "t/targets_fine.csv": "5309269fc0856a118951009225af8fb7022d5b99015905df4424cb5ce0205979",
        "toy_trace.csv": "199a7b11da2d4a9c2ef9d75d6612811a7b2af704f566b3119f239184e96f8d3e",
        "occ.csv": "efe9a5f76b782d4222421ae68b4d5ccc6742cae5b67454861d6b65e0e4ee34a2",
    }


class TestTrainToyCli:
    def test_zero_steps_writes_init_checkpoint(self, scene_dir, tmp_path):
        ckpt = tmp_path / "toy.ckpt"
        assert run(["train-toy", scene_dir, "--steps", 0, "--out", ckpt,
                    "--theta-mm", 6.0, "--seed", 1]) == 0
        assert ckpt.exists() and (tmp_path / "toy.ckpt.json").exists()
        trace = (tmp_path / "toy_trace.csv").read_text().splitlines()
        assert trace[0] == "# seed=1"
        assert trace[1] == "step,total,roi,obj,cls,t,rot"
        assert len(trace) == 2

    @pytest.mark.parametrize("flag, value", [("--steps", -3), ("--seed", -1), ("--log-every", -1)])
    def test_bad_flag_writes_no_checkpoint(self, scene_dir, tmp_path, capsys, flag, value):
        ckpt = tmp_path / "toy.ckpt"
        capsys.readouterr()
        assert run(["train-toy", scene_dir, flag, value, "--out", ckpt, "--theta-mm", 4.0]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: " + flag[2:])
        assert len(err.strip().splitlines()) == 1
        assert not ckpt.exists()

    def test_short_train_reproducible_trace(self, scene_dir, tmp_path):
        a, b = tmp_path / "a.ckpt", tmp_path / "b.ckpt"
        for out in (a, b):
            assert run(["train-toy", scene_dir, "--steps", 4, "--out", out,
                        "--theta-mm", 6.0, "--seed", 1]) == 0
        ta = (tmp_path / "a_trace.csv").read_text()
        tb = (tmp_path / "b_trace.csv").read_text()
        assert ta == tb

    def test_estimate_with_checkpoint(self, scene_dir, tmp_path):
        ckpt = tmp_path / "toy.ckpt"
        assert run(["train-toy", scene_dir, "--steps", 2, "--out", ckpt,
                    "--theta-mm", 6.0, "--seed", 1]) == 0
        poses = tmp_path / "poses"
        assert run(["estimate", scene_dir, "--checkpoint", ckpt, "--out", poses,
                    "--theta-mm", 6.0]) == 0
        doc = json.loads(poses.with_suffix(".json").read_text())
        assert "poses" in doc

    def test_truncated_checkpoint_exit_code(self, scene_dir, tmp_path, capsys):
        ckpt = tmp_path / "toy.ckpt"
        assert run(["train-toy", scene_dir, "--steps", 0, "--out", ckpt,
                    "--theta-mm", 6.0, "--seed", 1]) == 0
        blob = ckpt.read_bytes()
        ckpt.write_bytes(blob[: len(blob) // 2])
        capsys.readouterr()
        assert run(["estimate", scene_dir, "--checkpoint", ckpt, "--out", tmp_path / "poses",
                    "--theta-mm", 6.0]) == 3
        err = capsys.readouterr().err
        assert err.startswith("data error:") and "truncated" in err
        assert "Traceback" not in err

    def edited_checkpoint(self, scene_dir, tmp_path, values: dict):
        from sparsepose.config import PipelineConfig
        from sparsepose.pipeline import load_model, save_model

        ckpt = tmp_path / "toy.ckpt"
        assert run(["train-toy", scene_dir, "--steps", 0, "--out", ckpt,
                    "--theta-mm", 6.0, "--seed", 1]) == 0
        model = load_model(ckpt, PipelineConfig())
        params = model.parameters()
        for name, value in values.items():
            params[name].data.flat[0] = value
        save_model(ckpt, model)
        return ckpt

    def test_extreme_head_bias_runs_to_the_end(self, scene_dir, tmp_path):
        # sigmoid(-800) is 0.0, although exp(800) overflows on the way
        ckpt = self.edited_checkpoint(scene_dir, tmp_path,
                                      {"roi.head.bias": -800.0, "obj.obj_head.bias": -800.0})
        poses = tmp_path / "poses"
        assert run(["estimate", scene_dir, "--checkpoint", ckpt, "--out", poses,
                    "--theta-mm", 6.0]) == 0
        assert "poses" in json.loads(poses.with_suffix(".json").read_text())

    @pytest.mark.parametrize("value", [np.inf, np.nan])
    def test_non_finite_parameter_exit_code(self, scene_dir, tmp_path, capsys, value):
        ckpt = self.edited_checkpoint(scene_dir, tmp_path, {"obj.convs.1.kernel": value})
        capsys.readouterr()
        poses = tmp_path / "poses"
        assert run(["estimate", scene_dir, "--checkpoint", ckpt, "--out", poses,
                    "--theta-mm", 6.0]) == 3
        err = capsys.readouterr().err
        assert err.startswith("data error:") and "'obj.convs.1.kernel'" in err
        assert len(err.strip().splitlines()) == 1
        assert not poses.with_suffix(".json").exists()

    def test_flipped_sidecar_names_path_and_shapes(self, scene_dir, tmp_path, capsys):
        # a cloud model read as a TSDF one: its first layer has 4 input channels, not 5
        ckpt = tmp_path / "toy.ckpt"
        assert run(["train-toy", scene_dir, "--steps", 0, "--out", ckpt,
                    "--theta-mm", 6.0, "--seed", 1]) == 0
        sidecar = tmp_path / "toy.ckpt.json"
        sidecar.write_text(sidecar.read_text().replace('"cloud"', '"tsdf"'))
        capsys.readouterr()
        poses = tmp_path / "poses"
        assert run(["estimate", scene_dir, "--checkpoint", ckpt, "--out", poses,
                    "--theta-mm", 6.0]) == 3
        err = capsys.readouterr().err
        assert len(err.strip().splitlines()) == 1
        assert str(ckpt) in err and "(4, 16)" in err and "(5, 16)" in err, err
        assert not poses.with_suffix(".json").exists()

    def test_repr_comes_from_the_checkpoint(self, scene_dir, tmp_path, capsys):
        # a TSDF model runs on the TSDF band grid; --repr may repeat that, not contradict it
        ckpt = tmp_path / "toy.ckpt"
        assert run(["train-toy", scene_dir, "--steps", 0, "--repr", "tsdf", "--out", ckpt,
                    "--theta-mm", 6.0, "--seed", 1]) == 0
        estimate = ["estimate", scene_dir, "--checkpoint", ckpt, "--theta-mm", 6.0, "--out"]
        capsys.readouterr()
        assert run(estimate + [tmp_path / "cloud", "--repr", "cloud"]) == 2
        err = capsys.readouterr().err
        assert err.strip() == "config error: --repr cloud conflicts with the checkpoint's representation tsdf"
        assert not (tmp_path / "cloud.json").exists()
        assert run(estimate + [tmp_path / "own"]) == 0
        assert run(estimate + [tmp_path / "tsdf", "--repr", "tsdf"]) == 0
        assert (tmp_path / "own.json").read_bytes() == (tmp_path / "tsdf.json").read_bytes()

    def test_stray_checkpoint_parameter_exit_code(self, scene_dir, tmp_path, capsys):
        # a checkpoint holding a layer the model does not build would otherwise
        # load and run as another function
        from sparsepose import nn
        from sparsepose.autodiff import Tensor

        ckpt = tmp_path / "toy.ckpt"
        assert run(["train-toy", scene_dir, "--steps", 0, "--out", ckpt,
                    "--theta-mm", 6.0, "--seed", 1]) == 0
        table = {name: Tensor(value) for name, value in nn.load_checkpoint(ckpt).items()}
        table["obj.cond_proj.weight"] = Tensor(np.zeros((16, 16)))
        nn.save_checkpoint(ckpt, table)
        capsys.readouterr()
        poses = tmp_path / "poses"
        assert run(["estimate", scene_dir, "--checkpoint", ckpt, "--out", poses,
                    "--theta-mm", 6.0]) == 3
        err = capsys.readouterr().err
        assert err.strip() == (f"data error: {ckpt}: checkpoint holds parameter 'obj.cond_proj.weight', "
                               "which the model does not have")
        assert not poses.with_suffix(".json").exists()


    def test_untrained_net_on_scene_missing_its_classes(self, tmp_path):
        # the nets score all part classes; this bundle has models for 3 and 4 only,
        # so votes for the other classes cost those votes, not the scene
        from sparsepose.config import PipelineConfig
        from sparsepose.pipeline import build_input_grid, load_model, predicted_votes, staged_forward
        from sparsepose.synthetic import (default_camera_ring, default_intrinsics, export_scene_bundle,
                                          load_scene_bundle, make_primitives, sample_scene)

        lib = {k: v for k, v in make_primitives().items() if v.class_id in (3, 4)}
        bin_min, bin_max = (-0.07, -0.07, 0.0), (0.07, 0.07, 0.05)
        cams = default_camera_ring(bin_min, bin_max, n_views=3, distance=0.38,
                                   intr=default_intrinsics(width=200, height=150, focal=190.0))
        scene = tmp_path / "scene34"
        export_scene_bundle(sample_scene(lib, bin_min, bin_max, n_objects=2, seed=4, cameras=cams),
                            lib, scene)
        ckpt = tmp_path / "toy.ckpt"
        assert run(["train-toy", scene, "--steps", 0, "--out", ckpt, "--theta-mm", 4.0]) == 0

        cfg = PipelineConfig(theta=0.004)
        bundle = load_scene_bundle(scene)
        fine, _, _ = build_input_grid(bundle, cfg, "cloud")
        votes = predicted_votes(staged_forward(load_model(ckpt, cfg), fine, cfg))
        assert not set(votes.class_ids.tolist()) <= set(bundle.models)

        poses = tmp_path / "poses"
        assert run(["estimate", scene, "--checkpoint", ckpt, "--out", poses, "--theta-mm", 4.0]) == 0
        doc = json.loads(poses.with_suffix(".json").read_text())
        assert {p["class_id"] for p in doc["poses"]} <= {3, 4}


@pytest.mark.parametrize("name, doc", [
    ("gt.json", {}),
    ("gt.json", {"objects": [{}]}),
    ("scene.json", None),  # scene.json without n_views
])
def test_malformed_bundle_exit_code(scene_dir, tmp_path, capsys, name, doc):
    bundle = tmp_path / "bundle"
    shutil.copytree(scene_dir, bundle)
    if doc is None:
        doc = json.loads((bundle / name).read_text())
        del doc["n_views"]
    (bundle / name).write_text(json.dumps(doc))
    capsys.readouterr()
    assert run(["estimate", bundle, "--oracle", "--out", tmp_path / "poses", "--theta-mm", 4.0]) == 3
    err = capsys.readouterr().err
    assert err.startswith("data error:") and "malformed scene bundle" in err
    assert len(err.strip().splitlines()) == 1


# every key away from its default, in dump order; dumping it reproduces it byte for byte
_AWAY_FROM_DEFAULTS = """\
[grid]
theta = 0.0035

[camera]
near = 0.1
far = 3.5

[heatmap]
sigma_c = 1.5
sigma_b = 1.0
suppress_beta = 12.5
suppress_epsilon = 0.25
suppress_kappa = 0.4

[objectness]
topk_max = 256

[voting]
dbscan_eps_mult = 3.0
dbscan_min_pts = 4
vote_top_fraction = 0.6

[icp]
icp_iters = 20
icp_corr_mult = 3.5
icp_tol = 1e-06

[train]
seed = 7
steps = 40
warmup_fraction = 0.2
lr = 0.005
momentum = 0.85
train_chamfer_points = 16

"""


class TestDumpConfig:
    def test_roundtrip_through_cli(self, tmp_path):
        out = tmp_path / "cfg.txt"
        assert run(["dump-config", "--out", out]) == 0
        text = out.read_text()
        assert "[grid]" in text and "theta" in text
        out2 = tmp_path / "cfg2.txt"
        assert run(["dump-config", "--config", out, "--out", out2]) == 0
        assert out.read_bytes() == out2.read_bytes()

    @pytest.mark.parametrize("text, sha256", [
        ("", "152c85de26b6bf2d434831881b443357b13597ebd4ed31e27395c2e22f9a8976"),
        (_AWAY_FROM_DEFAULTS, "9016d80cdfadc17b6cc9efbd4459d724f074d52b7e2bbe1e69f64d76b971a190"),
    ], ids=["defaults", "every_key_away"])
    def test_dump_sha_pinned(self, tmp_path, text, sha256):
        # the config file format: section order, key order and value spelling
        src = tmp_path / "in.cfg"
        src.write_text(text)
        out = tmp_path / "out.cfg"
        assert run(["dump-config", "--config", src, "--out", out]) == 0
        assert hashlib.sha256(out.read_bytes()).hexdigest() == sha256

    def test_away_config_moves_every_key(self):
        from dataclasses import fields

        from sparsepose.config import PipelineConfig, parse_config

        away, default = parse_config(_AWAY_FROM_DEFAULTS), PipelineConfig()
        for f in fields(PipelineConfig):
            assert getattr(away, f.name) != getattr(default, f.name), f.name

    def test_bad_config_exit_code(self, tmp_path):
        bad = tmp_path / "bad.cfg"
        bad.write_text("[grid]\nmystery = 1\n")
        assert run(["dump-config", "--config", bad]) == 2

    def test_removed_chamfer_points_key_rejected(self, scene_dir, tmp_path, capsys):
        # [loss] chamfer_points, which no command read, is gone: like any unknown key
        bad = tmp_path / "bad.cfg"
        bad.write_text("[loss]\nchamfer_points = 128\n")
        ckpt = tmp_path / "toy.ckpt"
        for args in (["dump-config"], ["train-toy", scene_dir, "--steps", 1, "--out", ckpt]):
            capsys.readouterr()
            assert run(args + ["--config", bad]) == 2
            err = capsys.readouterr().err
            assert len(err.strip().splitlines()) == 1 and "chamfer_points" in err, err
        assert not ckpt.exists()

    @pytest.mark.parametrize("line", ["tsdf_voxels_per_side = 0", "tsdf_truncation_mult = -1.0",
                                      "tsdf_weight_cap = 0.0"])
    def test_bad_tsdf_key_exit_code(self, scene_dir, tmp_path, capsys, line):
        # the TSDF geometry is TsdfConfig's own: a [tsdf] key is unknown, whatever its value
        bad = tmp_path / "bad.cfg"
        bad.write_text(f"[tsdf]\n{line}\n")
        capsys.readouterr()
        assert run(["fuse", scene_dir, "--repr", "tsdf", "--config", bad,
                    "--out", tmp_path / "x.tsdf"]) == 2
        assert capsys.readouterr().err.startswith(f"config error: unknown config key '{line.split()[0]}'")
        assert run(["dump-config", "--config", bad]) == 2
        assert not (tmp_path / "x.tsdf").exists()


# keys a config file may no longer name, each with the value a default dump wrote
_REMOVED_KEYS = [("heatmap", "attention_reweight = false"), ("network", "scaled_attention = true"),
                 ("icp", "icp_trim = 1.0"), ("icp", "icp_reciprocal = true"), ("icp", "icp_use_pbar = false"),
                 ("train", "train_keep_union_gt = true"), ("train", "train_topk_union_gt = true"),
                 ("tsdf", "tsdf_weight_cap = 64.0"), ("heatmap", "focal_alpha = 4.0"),
                 ("heatmap", "focal_gamma = 2.0"), ("objectness", "obj_gamma = 2.0"),
                 ("objectness", "obj_alpha = 0.25"), ("loss", "lambda_roi = 1.0"), ("loss", "lambda_obj = 3.0"),
                 ("loss", "lambda_cls = 2.0"), ("loss", "lambda_t = 3.0"), ("loss", "lambda_rot = 1.0"),
                 ("loss", "smooth_l1_delta = 0.01"), ("train", "train_rot_lr_mult = 30.0"),
                 ("train", "train_clip_norm = 10.0"), ("objectness", "topk_ratio = 0.5"),
                 ("objectness", "topk_min = 32"), ("grid", "coarse_factor = 10"),
                 ("tsdf", "tsdf_voxels_per_side = 16"), ("tsdf", "tsdf_truncation_mult = 8.0"),
                 ("network", "width = 32"), ("network", "roi_width = 16"), ("network", "heads = 4"),
                 ("network", "window_small = 4"), ("network", "window_medium = 8"),
                 # out-of-range values, once a range error, now an unknown key like any value
                 ("train", "train_clip_norm = 0"), ("loss", "smooth_l1_delta = 0"),
                 ("objectness", "topk_min = -4"), ("objectness", "topk_min = 64\ntopk_max = 32"),
                 ("network", "width = 0"), ("network", "roi_width = 0")]


@pytest.mark.parametrize("section, line", _REMOVED_KEYS + [
    ("voting", "vote_top_fraction = 0.0"),
    ("voting", "dbscan_min_pts = 0"), ("voting", "dbscan_eps_mult = -1.0"),
    ("icp", "icp_corr_mult = 0.0"), ("icp", "icp_iters = -3"), ("icp", "icp_tol = -1.0"),
    ("train", "seed = -1"),
    ("camera", "near = 5"), ("camera", "near = 0.05\nfar = 0.01"),
    ("train", "momentum = 1.5"),
    ("objectness", "topk_max = 0"),
])
def test_bad_voting_or_icp_key_fails_before_any_work(scene_dir, tmp_path, capsys, section, line):
    bad = tmp_path / "bad.cfg"
    bad.write_text(f"[{section}]\n{line}\n")
    capsys.readouterr()
    out = tmp_path / "poses"
    assert run(["estimate", scene_dir, "--oracle", "--config", bad, "--out", out]) == 2
    err = capsys.readouterr().err
    key = line.split()[0]
    removed = (section, line) in _REMOVED_KEYS
    assert err.startswith("config error: " + (f"unknown config key '{key}'" if removed else key))
    assert len(err.strip().splitlines()) == 1
    assert not out.with_suffix(".json").exists()
    assert run(["dump-config", "--config", bad]) == 2


def test_python_dash_m_runs_the_cli(tmp_path):
    src = pathlib.Path(sparsepose.__file__).resolve().parents[1]
    env = dict(os.environ, PYTHONPATH=str(src))
    proc = subprocess.run([sys.executable, "-m", "sparsepose", "dump-config"], cwd=tmp_path,
                          env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert "[icp]" in proc.stdout
