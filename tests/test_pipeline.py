import numpy as np
import pytest

from sparsepose.config import PipelineConfig
from sparsepose.grid import coarsen
from sparsepose.heatmap import objectness_target
from sparsepose.metrics import add_s
from sparsepose.pipeline import (
    build_input_grid,
    build_model,
    compute_losses,
    estimate_poses,
    load_model,
    oracle_votes,
    save_model,
    staged_forward,
    train_toy,
    votes_to_poses,
)


def quick_config(**overrides):
    base = dict(
        theta=0.004,
        topk_min=16,
        topk_max=512,
        steps=40,
        warmup_fraction=0.25,
        train_chamfer_points=24,
        chamfer_points=64,
    )
    base.update(overrides)
    return PipelineConfig(**base)


class TestInputGrid:
    def test_cloud_grid_has_four_channels(self, small_bundle):
        cfg = quick_config()
        fine, cloud, tsdf = build_input_grid(small_bundle, cfg, "cloud")
        assert fine.channels == 4
        assert tsdf is None
        assert len(fine) > 0
        assert len(cloud) > 0

    def test_tsdf_grid_has_five_channels(self, small_bundle):
        cfg = quick_config()
        fine, _, tsdf = build_input_grid(small_bundle, cfg, "tsdf")
        assert fine.channels == 5
        assert tsdf is not None
        assert tsdf.n_blocks > 0
        # the sdf channel stays inside the open unit band
        assert np.all(np.abs(fine.features[:, 4]) < 1.0)

    def test_unknown_representation_rejected(self, small_bundle):
        from sparsepose.errors import DataError

        with pytest.raises(DataError):
            build_input_grid(small_bundle, quick_config(), "mesh")


class TestStagedForward:
    def test_shapes_and_selection(self, small_bundle):
        cfg = quick_config()
        model = build_model(cfg, "cloud", seed=0)
        fine, _, _ = build_input_grid(small_bundle, cfg, "cloud")
        out = staged_forward(model, fine, cfg, train=False)
        n_coarse = len(out.coarse)
        assert out.roi_scores.data.shape == (n_coarse,)
        assert np.allclose(out.roi_scores.data, 0.5)  # zero-init head
        n_lift = len(out.lifted_grid)
        assert out.obj_scores.data.shape == (n_lift,)
        assert out.cls_logits.data.shape == (n_lift, 5)
        k = len(out.selected_rows)
        assert cfg.topk_min <= k <= cfg.topk_max
        assert out.offsets.data.shape == (k, 3)
        assert out.rot6d.data.shape == (k, 6)

    def test_untrained_keeps_everything(self, small_bundle):
        # sigmoid(beta (0.5 - eps)) = sigmoid(2) ~ 0.88 > kappa: nothing dropped
        cfg = quick_config()
        model = build_model(cfg, "cloud", seed=0)
        fine, _, _ = build_input_grid(small_bundle, cfg, "cloud")
        out = staged_forward(model, fine, cfg, train=False)
        assert len(out.lifted_grid) == len(fine)

    def test_train_union_includes_positives(self, small_bundle):
        cfg = quick_config()
        model = build_model(cfg, "cloud", seed=0)
        fine, _, _ = build_input_grid(small_bundle, cfg, "cloud")
        out = staged_forward(model, fine, cfg, gt=small_bundle.gt, train=True)
        y_sel = objectness_target(out.selected_grid, small_bundle.gt)
        y_lift = objectness_target(out.lifted_grid, small_bundle.gt)
        assert y_sel.sum() == y_lift.sum()  # every positive voxel was selected

    def test_attention_reweight_flag(self, small_bundle):
        # gating-only is the default; the flag additionally rescales lifted
        # features by the soft attention and still trains end to end
        cfg = quick_config(attention_reweight=True)
        model = build_model(cfg, "cloud", seed=0)
        fine, _, _ = build_input_grid(small_bundle, cfg, "cloud")
        out = staged_forward(model, fine, cfg, gt=small_bundle.gt, train=True)
        rotations = np.asarray([inst.rotation for inst in small_bundle.instances])
        total, breakdown, _ = compute_losses(out, small_bundle.gt, rotations,
                                             small_bundle.models, cfg)
        total.backward()
        assert np.isfinite(breakdown.total)
        grads = [p.grad for p in model.parameters().values() if p.grad is not None]
        assert grads and all(np.all(np.isfinite(g)) for g in grads)


class TestLosses:
    def test_breakdown_finite_and_composite(self, small_bundle):
        cfg = quick_config()
        model = build_model(cfg, "cloud", seed=0)
        fine, _, _ = build_input_grid(small_bundle, cfg, "cloud")
        out = staged_forward(model, fine, cfg, gt=small_bundle.gt, train=True)
        rotations = np.asarray([inst.rotation for inst in small_bundle.instances])
        total, breakdown, parts = compute_losses(out, small_bundle.gt, rotations,
                                                 small_bundle.models, cfg)
        assert np.isfinite(breakdown.total)
        lam = cfg.loss_weights
        expected = (lam[0] * breakdown.roi + lam[1] * breakdown.obj + lam[2] * breakdown.cls
                    + lam[3] * breakdown.t + lam[4] * breakdown.rot)
        assert breakdown.total == pytest.approx(expected, rel=1e-12)

    def test_roi_target_computed_once_per_step(self, small_bundle, monkeypatch):
        from sparsepose import heatmap, pipeline

        calls = []

        def counting(*args):
            calls.append(1)
            return heatmap.roi_target(*args)

        monkeypatch.setattr(pipeline, "roi_target", counting)
        cfg = quick_config()
        model = build_model(cfg, "cloud", seed=0)
        fine, _, _ = build_input_grid(small_bundle, cfg, "cloud")
        out = staged_forward(model, fine, cfg, gt=small_bundle.gt, train=True)
        rotations = np.asarray([inst.rotation for inst in small_bundle.instances])
        compute_losses(out, small_bundle.gt, rotations, small_bundle.models, cfg)
        assert len(calls) == 1
        expected = heatmap.roi_target(out.coarse, small_bundle.gt, pipeline.heatmap_params(cfg))
        assert np.array_equal(out.roi_target, expected)

    def test_backward_reaches_all_heads(self, small_bundle):
        cfg = quick_config()
        model = build_model(cfg, "cloud", seed=0)
        fine, _, _ = build_input_grid(small_bundle, cfg, "cloud")
        out = staged_forward(model, fine, cfg, gt=small_bundle.gt, train=True)
        rotations = np.asarray([inst.rotation for inst in small_bundle.instances])
        total, _, _ = compute_losses(out, small_bundle.gt, rotations, small_bundle.models, cfg)
        total.backward()
        params = model.parameters()
        grads = {name: p.grad for name, p in params.items() if p.grad is not None}
        assert any(name.startswith("roi.") for name in grads)
        assert any(name.startswith("obj.") for name in grads)
        assert any(name.startswith("pose.") for name in grads)


class TestOraclePath:
    def test_oracle_votes_collapse_to_centroids(self, small_bundle):
        cfg = quick_config(theta=0.002)
        fine, _, _ = build_input_grid(small_bundle, cfg, "cloud")
        rotations = np.asarray([inst.rotation for inst in small_bundle.instances])
        votes = oracle_votes(fine, small_bundle.gt, rotations)
        assert len(votes) > 0
        centers = votes.predicted_centers()
        d = np.linalg.norm(centers[:, None, :] - small_bundle.gt.centroids[None], axis=2).min(axis=1)
        assert d.max() < 1e-9

    def test_oracle_estimate_recovers_all_objects(self, small_bundle):
        cfg = quick_config(theta=0.002)
        poses, n_votes = estimate_poses(small_bundle, cfg, oracle=True)
        assert n_votes > 0
        assert len(poses) == small_bundle.gt.n_objects
        matched = set()
        for pose in poses:
            d = np.linalg.norm(small_bundle.gt.centroids - pose.translation, axis=1)
            gi = int(np.argmin(d))
            assert d[gi] < 0.002
            assert pose.class_id == small_bundle.gt.class_ids[gi]
            model = small_bundle.models[pose.class_id]
            inst = small_bundle.instances[gi]
            err = add_s(pose.rotation, pose.translation, inst.rotation, inst.translation, model.cloud)
            assert err < 0.002
            matched.add(gi)
        assert len(matched) == small_bundle.gt.n_objects


class TestTrainToy:
    def test_zero_steps_initialization_checkpoint(self, small_bundle, tmp_path):
        cfg = quick_config()
        model, trace = train_toy(small_bundle, cfg, steps=0)
        assert trace == []
        path = tmp_path / "init.ckpt"
        save_model(path, model)
        again = load_model(path, cfg)
        for (na, pa), (nb, pb) in zip(model.parameters().items(), again.parameters().items()):
            assert na == nb
            assert np.array_equal(pa.data, pb.data)

    def test_short_training_is_deterministic(self, small_bundle):
        cfg = quick_config(steps=6)
        _, trace_a = train_toy(small_bundle, cfg, steps=6)
        _, trace_b = train_toy(small_bundle, cfg, steps=6)
        assert [b.total for b in trace_a] == [b.total for b in trace_b]

    def test_loss_decreases_on_short_run(self, small_bundle):
        # the RoI warm-up only moves one loss part, so compare against the
        # best of the last few joint steps
        cfg = quick_config(steps=80)
        _, trace = train_toy(small_bundle, cfg, steps=80)
        totals = [b.total for b in trace]
        assert min(totals[-5:]) < totals[0]


class TestModelIO:
    def test_checkpoint_metadata_roundtrip(self, small_bundle, tmp_path):
        cfg = quick_config()
        model = build_model(cfg, "tsdf", seed=3)
        path = tmp_path / "m.ckpt"
        save_model(path, model)
        loaded = load_model(path, cfg)
        assert loaded.representation == "tsdf"
        assert loaded.in_channels == 5

    def test_checkpoint_bytes_fixed_for_seed(self, tmp_path):
        import hashlib

        # SHA-256 of the seed-5 default model as written before checkpoint
        # writes went through the atomic temp-file-and-rename path
        model = build_model(PipelineConfig(), "cloud", seed=5)
        path = tmp_path / "m.ckpt"
        save_model(path, model)
        digest = hashlib.sha256(path.read_bytes()).hexdigest()
        assert digest == "869b5014d0888e4b895f0b94775c324d6a24c1d68e8f2c8bdd207f24caa05052"
        assert sorted(p.name for p in tmp_path.iterdir()) == ["m.ckpt", "m.ckpt.json"]

    def test_checkpoint_files_get_umask_mode(self, tmp_path):
        # the atomic temp-file path must leave the mode a plain open() gives
        import os

        umask = os.umask(0o022)
        try:
            path = tmp_path / "m.ckpt"
            save_model(path, build_model(quick_config(), "cloud", seed=3))
        finally:
            os.umask(umask)
        assert (path.stat().st_mode & 0o777) == 0o644
        assert ((tmp_path / "m.ckpt.json").stat().st_mode & 0o777) == 0o644

    @pytest.mark.parametrize("sidecar", [b"{", b"\xff"])
    def test_malformed_metadata_rejected(self, tmp_path, sidecar):
        from sparsepose.errors import DataError

        cfg = quick_config()
        path = tmp_path / "m.ckpt"
        save_model(path, build_model(cfg, "cloud", seed=3))
        (tmp_path / "m.ckpt.json").write_bytes(sidecar)
        with pytest.raises(DataError):
            load_model(path, cfg)

    def test_missing_metadata_rejected(self, small_bundle, tmp_path):
        from sparsepose.errors import DataError

        cfg = quick_config()
        model = build_model(cfg, "cloud", seed=3)
        path = tmp_path / "m.ckpt"
        save_model(path, model)
        (tmp_path / "m.ckpt.json").unlink()
        with pytest.raises(DataError):
            load_model(path, cfg)


class TestEmptyScene:
    def test_empty_scene_empty_poses(self, tmp_path):
        # a bundle whose depth images are all invalid
        import json
        import os

        from sparsepose.camera import DepthImage, save_camera_json, save_depth_png
        from sparsepose.synthetic import default_camera_ring, default_intrinsics, load_scene_bundle

        out = tmp_path / "empty"
        os.makedirs(out / "models", exist_ok=True)
        intr = default_intrinsics(width=64, height=48, focal=60.0)
        cams = default_camera_ring((-0.05, -0.05, 0.0), (0.05, 0.05, 0.04), n_views=1, intr=intr)
        scene_doc = {
            "seed": 0,
            "bin_min": [-0.05, -0.05, 0.0],
            "bin_max": [0.05, 0.05, 0.04],
            "workspace_min": [-0.07, -0.07, -0.02],
            "workspace_max": [0.07, 0.07, 0.06],
            "noise_sigma": 0.0,
            "dropout": 0.0,
            "depth_scale": 5e-5,
            "with_bin_walls": True,
            "n_views": 1,
            "models": {},
            "instances": [],
        }
        (out / "scene.json").write_text(json.dumps(scene_doc))
        (out / "gt.json").write_text(json.dumps({"objects": []}))
        save_camera_json(out / "cam_00.json", cams[0][0], cams[0][1], 5e-5)
        save_depth_png(out / "depth_00.png", DepthImage(np.zeros((48, 64))), 5e-5)
        bundle = load_scene_bundle(out)
        poses, n_votes = estimate_poses(bundle, quick_config(), oracle=True)
        assert poses == []
        assert n_votes == 0
