import json
import os

import numpy as np
import pytest

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

    def test_deterministic_bytes(self, scene_dir, tmp_path):
        a, b = tmp_path / "a.ply", tmp_path / "b.ply"
        run(["fuse", scene_dir, "--out", a, "--theta-mm", 4.0])
        run(["fuse", scene_dir, "--out", b, "--theta-mm", 4.0])
        assert a.read_bytes() == b.read_bytes()

    def test_missing_scene_data_error(self, tmp_path):
        assert run(["fuse", tmp_path / "missing"]) == 3


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
        from sparsepose.pipeline import heatmap_params

        H = roi_target(coarse_grid, bundle.gt, heatmap_params(PipelineConfig(theta=0.004)))
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
        from sparsepose.grid import loglog_slope

        out = tmp_path / "occ_slope.csv"
        assert run(["stats", scene_dir, "--thetas", 8.0, 4.0, 2.0, "--out", out]) == 0
        rows = [line.split(",") for line in out.read_text().splitlines()[2:]]
        thetas = [float(r[0]) for r in rows]
        sparse = [int(r[1]) for r in rows]
        slope = loglog_slope([1.0 / t for t in thetas], sparse)
        assert 1.6 <= slope <= 2.4


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


class TestDumpConfig:
    def test_roundtrip_through_cli(self, tmp_path):
        out = tmp_path / "cfg.txt"
        assert run(["dump-config", "--out", out]) == 0
        text = out.read_text()
        assert "[grid]" in text and "theta" in text
        out2 = tmp_path / "cfg2.txt"
        assert run(["dump-config", "--config", out, "--out", out2]) == 0
        assert out.read_bytes() == out2.read_bytes()

    def test_bad_config_exit_code(self, tmp_path):
        bad = tmp_path / "bad.cfg"
        bad.write_text("[grid]\nmystery = 1\n")
        assert run(["dump-config", "--config", bad]) == 2
