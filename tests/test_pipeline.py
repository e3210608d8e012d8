import dataclasses
import warnings

import numpy as np
import pytest
from scipy.spatial.transform import Rotation

from sparsepose.autodiff import Tensor
from sparsepose.config import PipelineConfig
from sparsepose.fusion import Workspace
from sparsepose.grid import SparseVoxelGrid, pack_index
from conftest import scene_gt
from oracles import run_carve_targets
from sparsepose.heatmap import MIN_VOTE_CONFIDENCE, objectness_target, voxel_object_assignment
from sparsepose.metrics import add_s
from sparsepose import pipeline
from sparsepose.voting import VoteSet, dbscan, matrix_to_rot6d
from sparsepose.pipeline import (
    N_CLASSES,
    StagedOutput,
    build_input_grid,
    build_model,
    compute_losses,
    estimate_poses,
    load_model,
    oracle_votes,
    predicted_votes,
    save_model,
    scene_structure,
    staged_forward,
    train_toy,
    votes_to_poses,
)


def quick_config(**overrides):
    base = dict(
        theta=0.004,
        topk_max=512,
        steps=40,
        warmup_fraction=0.25,
        train_chamfer_points=24,
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
        assert 0 < k <= cfg.topk_max
        assert np.all(out.obj_scores.data[out.selected_rows] >= MIN_VOTE_CONFIDENCE)
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
        out = staged_forward(model, scene_structure(fine, cfg, small_bundle.gt), cfg, train=True)
        y_sel = objectness_target(out.selected_grid, small_bundle.gt)
        y_lift = objectness_target(out.lifted_grid, small_bundle.gt)
        assert y_sel.sum() == y_lift.sum()  # every positive voxel was selected

    def test_no_row_at_the_floor_runs_no_pose_row(self, small_bundle):
        # sigmoid(-800) scores every row 0: the pose stage runs on no row at
        # estimate, and in training on exactly the ground-truth foreground
        cfg = quick_config()
        model = build_model(cfg, "cloud", seed=0)
        model.obj.obj_head.bias.data[...] = -800.0
        fine, _, _ = build_input_grid(small_bundle, cfg, "cloud")
        out = staged_forward(model, fine, cfg, train=False)
        assert len(out.selected_rows) == 0
        assert out.offsets.data.shape == (0, 3) and out.rot6d.data.shape == (0, 6)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert estimate_poses(small_bundle, cfg, model) == ([], 0)
        scene = scene_structure(fine, cfg, small_bundle.gt)
        out = staged_forward(model, scene, cfg, train=True)
        foreground = np.nonzero(scene.owner[out.lifted_fine_rows] >= 0)[0]
        assert len(foreground) == 367
        assert np.array_equal(out.selected_rows, foreground)
        total, _, _ = compute_losses(out, scene, small_bundle.models, cfg)
        total.backward()
        for name, p in model.parameters().items():
            assert p.grad is not None and np.all(np.isfinite(p.grad)), name


class TestNetworkDtype:
    """The networks compute in float32 (`pipeline.NET_DTYPE`); parameters and
    their gradients stay float64."""

    def training_step(self, model, bundle, cfg):
        """Selected rows and the flattened parameter gradients of one joint
        training step."""
        fine, _, _ = build_input_grid(bundle, cfg, "cloud")
        scene = scene_structure(fine, cfg, bundle.gt)
        params = model.parameters()
        for p in params.values():
            p.grad = None
        out = staged_forward(model, scene, cfg, train=True)
        total, _, _ = compute_losses(out, scene, bundle.models, cfg)
        total.backward()
        return out, params

    def test_training_outputs_float32_gradients_float64(self, small_bundle):
        # a float64 input anywhere in the forward pass (such as float64
        # RoiUNet features concatenated into the lifted set) would upcast
        # the rest of the pass and silently lose the float32 speed
        model = build_model(quick_config(), "cloud", seed=0)
        out, params = self.training_step(model, small_bundle, quick_config())
        for t in (out.roi_scores, out.obj_scores, out.cls_logits, out.offsets, out.rot6d):
            assert t.dtype == np.float32
        assert all(p.grad is not None and p.grad.dtype == np.float64 for p in params.values())

    def test_float32_gradients_match_float64(self, small_bundle, monkeypatch):
        # the gradient check of the float32 path: the float64 path, whose ops
        # the finite-difference tests check, is its reference. A six-step
        # model, because the untrained heads are zero and pass no gradient
        # to the trunks. Measured: 4.8e-7; a broken backward gives order 1.
        cfg = quick_config(steps=6)
        model, _ = train_toy(small_bundle, cfg, steps=6)
        rows, grads = [], []
        for dtype in (np.float32, np.float64):
            monkeypatch.setattr(pipeline, "NET_DTYPE", dtype)
            out, params = self.training_step(model, small_bundle, cfg)
            rows.append(out.selected_rows)
            grads.append(np.concatenate([p.grad.ravel() for p in params.values()]))
        assert np.array_equal(rows[0], rows[1])  # the same rows, so the same loss terms
        assert np.linalg.norm(grads[0] - grads[1]) / np.linalg.norm(grads[1]) < 1e-3


class TestLosses:
    def test_breakdown_finite_and_composite(self, small_bundle):
        cfg = quick_config()
        model = build_model(cfg, "cloud", seed=0)
        fine, _, _ = build_input_grid(small_bundle, cfg, "cloud")
        scene = scene_structure(fine, cfg, small_bundle.gt)
        out = staged_forward(model, scene, cfg, train=True)
        total, breakdown, parts = compute_losses(out, scene, small_bundle.models, cfg)
        assert np.isfinite(breakdown.total)
        lam = pipeline.LOSS_WEIGHTS
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
        scene = scene_structure(fine, cfg, small_bundle.gt)
        compute_losses(staged_forward(model, scene, cfg, train=True), scene, small_bundle.models, cfg)
        assert len(calls) == 1
        expected = heatmap.roi_target(scene.coarse, small_bundle.gt, cfg.sigma_c, cfg.sigma_b)
        assert np.array_equal(scene.roi_target, expected)

    def test_ownership_computed_once_per_step(self, small_bundle, monkeypatch):
        # the top-K union, the objectness, class and pose targets all read one
        # ownership table of the lifted grid
        from sparsepose import heatmap, voting

        calls = []
        original = heatmap.voxel_object_assignment

        def counting(*args):
            calls.append(1)
            return original(*args)

        for module in (heatmap, pipeline, voting):
            if getattr(module, "voxel_object_assignment", None) is original:
                monkeypatch.setattr(module, "voxel_object_assignment", counting)
        cfg = quick_config()
        model = build_model(cfg, "cloud", seed=0)
        fine, _, _ = build_input_grid(small_bundle, cfg, "cloud")
        scene = scene_structure(fine, cfg, small_bundle.gt)
        out = staged_forward(model, scene, cfg, train=True)
        compute_losses(out, scene, small_bundle.models, cfg)
        assert len(calls) == 1
        assert np.array_equal(scene.owner[out.lifted_fine_rows], original(out.lifted_grid, small_bundle.gt))

    def test_backward_reaches_all_heads(self, small_bundle):
        cfg = quick_config()
        model = build_model(cfg, "cloud", seed=0)
        fine, _, _ = build_input_grid(small_bundle, cfg, "cloud")
        scene = scene_structure(fine, cfg, small_bundle.gt)
        total, _, _ = compute_losses(staged_forward(model, scene, cfg, train=True), scene,
                                     small_bundle.models, cfg)
        total.backward()
        params = model.parameters()
        grads = {name: p.grad for name, p in params.items() if p.grad is not None}
        assert any(name.startswith("roi.") for name in grads)
        assert any(name.startswith("obj.") for name in grads)
        assert any(name.startswith("pose.") for name in grads)


class TestSceneStructure:
    """Kernel maps, coarse structure and targets are built once per scene
    and handed to every step."""

    @staticmethod
    def count_builds(monkeypatch):
        from sparsepose import heatmap, nn, voting

        calls = {"kernel_map": 0, "roi_target": 0, "ownership": 0}
        init, target, owner = nn.ConvPairs.__init__, heatmap.roi_target, heatmap.voxel_object_assignment

        def counted(key, fn):
            def wrapper(*args):
                calls[key] += 1
                return fn(*args)
            return wrapper

        monkeypatch.setattr(nn.ConvPairs, "__init__", counted("kernel_map", init))
        monkeypatch.setattr(pipeline, "roi_target", counted("roi_target", target))
        for module in (heatmap, pipeline, voting):
            if getattr(module, "voxel_object_assignment", None) is owner:
                monkeypatch.setattr(module, "voxel_object_assignment", counted("ownership", owner))
        return calls

    @pytest.mark.parametrize("steps", [1, 3])
    def test_train_toy_builds_structure_once(self, small_bundle, monkeypatch, steps):
        # fine, coarse and pooled kernel maps; one RoI target; one ownership table
        calls = self.count_builds(monkeypatch)
        train_toy(small_bundle, quick_config(), steps=steps)
        assert calls == {"kernel_map": 3, "roi_target": 1, "ownership": 1}

    def test_structure_matches_bare_grid(self, small_bundle):
        cfg = quick_config()
        fine, _, _ = build_input_grid(small_bundle, cfg, "cloud")
        for train in (False, True):
            a = staged_forward(build_model(cfg, "cloud", seed=0), fine, cfg, train=train)
            b = staged_forward(build_model(cfg, "cloud", seed=0), scene_structure(fine, cfg), cfg, train=train)
            for name in ("roi_scores", "obj_scores", "cls_logits", "offsets", "rot6d"):
                assert np.array_equal(getattr(a, name).data, getattr(b, name).data)
            assert np.array_equal(a.selected_rows, b.selected_rows)
        # the targets live only on a structure built with ground truth
        from sparsepose import heatmap

        scene = scene_structure(fine, cfg, small_bundle.gt)
        assert scene.gt is small_bundle.gt
        assert np.array_equal(scene.roi_target,
                              heatmap.roi_target(scene.coarse, small_bundle.gt, cfg.sigma_c, cfg.sigma_b))
        assert np.array_equal(scene.owner, voxel_object_assignment(fine, small_bundle.gt))

    def test_training_owner_gathers_lifted_rows(self, small_bundle, monkeypatch):
        # a lifted set that is a strict subset of the fine grid: a zero RoI
        # target adds no coarse voxel to the keep-set
        cfg = quick_config()
        fine, _, _ = build_input_grid(small_bundle, cfg, "cloud")
        scene = scene_structure(fine, cfg, small_bundle.gt)
        scene.roi_target = np.zeros_like(scene.roi_target)
        kept = np.arange(0, len(scene.coarse), 2)
        monkeypatch.setattr(pipeline, "soft_suppress", lambda scores, *gate: (np.zeros(len(scores)), kept))
        out = staged_forward(build_model(cfg, "cloud", seed=0), scene, cfg, train=True)
        assert 0 < len(out.lifted_grid) < len(fine)
        owner = scene.owner[out.lifted_fine_rows]
        assert (owner >= 0).any()
        assert np.array_equal(owner, voxel_object_assignment(out.lifted_grid, small_bundle.gt))


class TestOraclePath:
    def test_oracle_votes_collapse_to_centroids(self, small_bundle):
        cfg = quick_config(theta=0.002)
        fine, _, _ = build_input_grid(small_bundle, cfg, "cloud")
        votes = oracle_votes(fine, small_bundle.gt)
        assert len(votes) > 0
        centers = votes.predicted_centers()
        d = np.linalg.norm(centers[:, None, :] - small_bundle.gt.centroids[None], axis=2).min(axis=1)
        assert d.max() < 1e-9

    def test_oracle_votes_match_brute_force(self):
        # voxel 0: two points of object 0, one of object 1 -> object 0;
        # voxel 1: one point of each, a count tie -> the nearer centroid, 1;
        # voxel 2: object 1 only; voxels 3 and 4 hold no model point
        theta = 0.01
        idx = np.array([[0, 0, 0], [1, 0, 0], [2, 0, 0], [3, 0, 0], [0, 3, 0]])
        fine = SparseVoxelGrid(theta, np.array([0.1, -0.2, 0.0]), idx, np.ones((len(idx), 1)))
        centers = fine.centers()
        jitter = np.array([[0.001, 0.002, -0.003], [-0.002, 0.001, 0.002]])
        clouds = [np.vstack([centers[0] + jitter, centers[1] + jitter[:1]]),
                  np.vstack([centers[0] - jitter[:1], centers[1] - jitter[1:], centers[2] + jitter])]
        centroids = np.stack([centers[1] + [0.0, 0.007, 0.0], centers[1] + [0.0, -0.004, 0.0]])
        rotations = Rotation.from_rotvec([[0.0, 0.0, 0.4], [-0.7, -0.7, 0.0]]).as_matrix()
        gt = scene_gt(centroids, clouds, np.array([3, 1]), rotations)
        votes = oracle_votes(fine, gt)

        rows, owners = [], []
        for i, v in enumerate(idx):
            counts = [int(np.all(np.floor((c - fine.origin) / theta).astype(np.int64) == v, axis=1).sum())
                      for c in clouds]
            if max(counts) == 0:
                continue
            tied = [j for j, c in enumerate(counts) if c == max(counts)]
            rows.append(i)
            owners.append(min(tied, key=lambda j: np.linalg.norm(centroids[j] - centers[i])))
        assert rows == [0, 1, 2] and owners == [0, 1, 1]
        assert np.array_equal(votes.voxel_centers, centers[rows])
        assert np.array_equal(votes.offsets, np.stack([centroids[j] - centers[i] for i, j in zip(rows, owners)]))
        assert np.array_equal(votes.rot6d, np.stack([np.r_[rotations[j][:, 0], rotations[j][:, 1]]
                                                     for j in owners]))
        assert np.array_equal(votes.confidence, np.ones(3))
        assert np.array_equal(votes.class_ids, gt.class_ids[owners])

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

    def test_oracle_estimate_on_tsdf_band(self, small_bundle):
        # the TSDF band grid carries the votes; ICP refines against the fused cloud
        cfg = quick_config(theta=0.002)
        poses, n_votes = estimate_poses(small_bundle, cfg, oracle=True, representation="tsdf")
        assert n_votes > 0
        assert len(poses) >= small_bundle.gt.n_objects
        for inst in small_bundle.instances:
            model = small_bundle.models[inst.class_id]
            cands = [p for p in poses if p.class_id == inst.class_id]
            assert cands
            best = min(add_s(p.rotation, p.translation, inst.rotation, inst.translation, model.cloud)
                       for p in cands)
            assert best < 0.003, f"{model.name}: ADD-S {best*1000:.2f} mm on the TSDF band"

    @pytest.mark.parametrize("bad_rot6d, bad_class", [(np.zeros(6), None), (None, 9)])
    def test_unusable_vote_dropped(self, small_bundle, bad_rot6d, bad_class):
        # one extra, highly confident vote with a degenerate rotation or a class
        # without a model must neither abort the scene nor change the poses
        cfg = quick_config(theta=0.002)
        fine, cloud, _ = build_input_grid(small_bundle, cfg, "cloud")
        votes = oracle_votes(fine, small_bundle.gt)
        extra = VoteSet(
            np.vstack([votes.voxel_centers, votes.voxel_centers[:1]]),
            np.vstack([votes.offsets, votes.offsets[:1]]),
            np.vstack([votes.rot6d, votes.rot6d[:1] if bad_rot6d is None else bad_rot6d]),
            np.r_[votes.confidence, 2.0],
            np.r_[votes.class_ids, votes.class_ids[0] if bad_class is None else bad_class],
        )
        base = votes_to_poses(votes, cloud, small_bundle.models, cfg, small_bundle.workspace)
        out = votes_to_poses(extra, cloud, small_bundle.models, cfg, small_bundle.workspace)
        assert len(out) == len(base) == small_bundle.gt.n_objects
        for p, q in zip(out, base):
            assert np.array_equal(p.rotation, q.rotation)
            assert np.array_equal(p.translation, q.translation)
            assert (p.class_id, p.confidence, p.support, p.refined) == \
                (q.class_id, q.confidence, q.support, q.refined)

    def test_low_objectness_votes_dropped(self, small_bundle, monkeypatch):
        # a tight group of background votes scored just below the floor points
        # at the empty workspace corner: without the floor it makes a pose
        # with no object behind it, with the floor the poses are the oracle's
        cfg = quick_config(theta=0.002)
        fine, cloud, _ = build_input_grid(small_bundle, cfg, "cloud")
        votes = oracle_votes(fine, small_bundle.gt)
        n = 2 * cfg.dbscan_min_pts
        corner = small_bundle.workspace.min_corner + 0.001
        noise = VoteSet(
            np.vstack([votes.voxel_centers, votes.voxel_centers[:n]]),
            np.vstack([votes.offsets, corner - votes.voxel_centers[:n]]),
            np.vstack([votes.rot6d, votes.rot6d[:n]]),
            np.r_[votes.confidence, np.full(n, np.nextafter(pipeline.MIN_VOTE_CONFIDENCE, 0.0))],
            np.r_[votes.class_ids, votes.class_ids[:n]],
        )
        base = votes_to_poses(votes, cloud, small_bundle.models, cfg, small_bundle.workspace)
        out = votes_to_poses(noise, cloud, small_bundle.models, cfg, small_bundle.workspace)
        assert len(out) == len(base) == small_bundle.gt.n_objects
        for p, q in zip(out, base):
            assert np.array_equal(p.rotation, q.rotation)
            assert np.array_equal(p.translation, q.translation)
            assert (p.class_id, p.confidence, p.support) == (q.class_id, q.confidence, q.support)
        monkeypatch.setattr(pipeline, "MIN_VOTE_CONFIDENCE", 0.0)
        unfloored = votes_to_poses(noise, cloud, small_bundle.models, cfg, small_bundle.workspace)
        assert len(unfloored) == len(base) + 1

    def test_cluster_targets_match_isin_carve(self, small_bundle, monkeypatch):
        # three vote clusters: 0 and 1 share one voxel, 2 holds under 50 scene
        # points and so gets no ICP; a stripe of scene points lies outside
        # every cluster's voxels
        cfg = quick_config(theta=0.002)
        class_id = min(small_bundle.models)
        voxels = [[(i, 0, 0) for i in range(20)],
                  [(19, 0, 0)] + [(i, 5, 0) for i in range(19)],
                  [(i, 10, 0) for i in range(6)]]
        centers = np.array([[0.3, 0.0, 0.0], [0.4, 0.0, 0.0], [0.5, 0.0, 0.0]])
        idx = np.array([v for group in voxels for v in group])
        owner = np.repeat(np.arange(3), [len(g) for g in voxels])
        vox_centers = (idx + 0.5) * cfg.theta
        votes = VoteSet(vox_centers, centers[owner] - vox_centers,
                        np.tile(matrix_to_rot6d(np.eye(3)[None]), (len(idx), 1)),
                        np.ones(len(idx)), np.full(len(idx), class_id))
        rng = np.random.default_rng(8)
        per_voxel = np.r_[rng.integers(3, 9, size=40), np.ones(6, dtype=np.int64)]
        outside = [(i, 20, 0) for i in range(10)]
        cells = np.repeat(np.vstack([idx, outside]), np.r_[per_voxel, np.full(10, 4)], axis=0)
        scene = (cells + rng.uniform(0.1, 0.9, size=cells.shape)) * cfg.theta
        scene = scene[rng.permutation(len(scene))]

        trees = []
        monkeypatch.setattr(pipeline, "icp_refine", lambda pose, cloud, tree, **kw: (
            trees.append(tree), (dataclasses.replace(pose, refined=True), []))[1])
        # a workspace anchored at the origin, so the carve's voxels are floor(x / theta)
        poses = votes_to_poses(votes, scene, small_bundle.models, cfg, Workspace(np.zeros(3), np.ones(3)))
        assert [p.refined for p in poses] == [True, True, False]
        assert len(trees) == 2

        labels = dbscan(votes.predicted_centers(), cfg.dbscan_eps, cfg.dbscan_min_pts)
        scene_keys = pack_index(np.floor(scene / cfg.theta).astype(np.int64))
        vote_keys = pack_index(np.floor(vox_centers / cfg.theta).astype(np.int64))
        carved = [scene[np.isin(scene_keys, np.unique(vote_keys[labels == c]))] for c in range(3)]
        assert [len(c) >= 50 for c in carved] == [True, True, False]
        assert not np.isin(scene_keys, vote_keys).all()
        assert np.array_equal(trees[0].data, carved[0])
        assert np.array_equal(trees[1].data, carved[1])
        shared_key = pack_index(np.array([[19, 0, 0]]))[0]
        n_shared = int((scene_keys == shared_key).sum())
        for tree in trees[:2]:
            keys = pack_index(np.floor(tree.data / cfg.theta).astype(np.int64))
            assert (keys == shared_key).sum() == n_shared > 0

    def test_cluster_targets_match_run_carve(self, small_bundle, monkeypatch):
        # oracle votes on a real scene, plus copies of three voxels of the
        # first-listed object voting the second one's center: those voxels
        # are shared by two clusters. Every ICP target equals the run-based
        # carve's.
        cfg = quick_config(theta=0.002)
        fine, cloud, _ = build_input_grid(small_bundle, cfg, "cloud")
        votes = oracle_votes(fine, small_bundle.gt)
        centers = votes.predicted_centers()
        first = [int(np.argmax(np.all(centers == c, axis=1))) for c in np.unique(centers, axis=0)]
        a, b = sorted(first)[:2]
        shared = np.nonzero(np.all(centers == centers[a], axis=1))[0][:3]
        votes = VoteSet(np.vstack([votes.voxel_centers, votes.voxel_centers[shared]]),
                        np.vstack([votes.offsets, centers[b] - votes.voxel_centers[shared]]),
                        np.vstack([votes.rot6d, votes.rot6d[shared]]),
                        np.r_[votes.confidence, votes.confidence[shared]],
                        np.r_[votes.class_ids, np.full(3, votes.class_ids[b])])
        trees = []
        icp = pipeline.icp_refine
        monkeypatch.setattr(pipeline, "icp_refine",
                            lambda *args, **kw: (trees.append(args[2]), icp(*args, **kw))[1])
        votes_to_poses(votes, cloud, small_bundle.models, cfg, small_bundle.workspace)

        labels = dbscan(votes.predicted_centers(), cfg.dbscan_eps, cfg.dbscan_min_pts)
        assert labels[a] != labels[b] and np.all(labels[-3:] == labels[b])
        expected = run_carve_targets(np.asarray(cloud, dtype=np.float64), votes.voxel_centers, labels,
                                     small_bundle.workspace.min_corner, cfg.theta)
        assert len(expected) == small_bundle.gt.n_objects and all(len(t) >= 50 for t in expected)
        assert len(trees) == len(expected)
        for tree, target in zip(trees, expected):
            assert np.array_equal(tree.data, target)
        # the shared voxels' scene points sit in both clusters' targets
        keys = [set(map(tuple, np.floor((t - small_bundle.workspace.min_corner) / cfg.theta)))
                for t in (expected[labels[a]], expected[labels[b]])]
        assert len(keys[0] & keys[1]) >= 1

    def test_small_cluster_keeps_its_aggregate_pose(self, small_bundle, monkeypatch):
        # one object keeps 6 of its oracle votes, so its cluster carves under
        # 50 scene points: it gets no ICP call and keeps the aggregated pose,
        # which exact votes make exact, instead of being pulled by clutter
        cfg = quick_config(theta=0.002)
        fine, cloud, _ = build_input_grid(small_bundle, cfg, "cloud")
        votes = oracle_votes(fine, small_bundle.gt)
        centroids = small_bundle.gt.centroids
        owner = np.argmin(np.linalg.norm(votes.predicted_centers()[:, None] - centroids[None], axis=2), axis=1)
        keep = (owner != 0) | (np.cumsum(owner == 0) <= 6)
        votes = VoteSet(votes.voxel_centers[keep], votes.offsets[keep], votes.rot6d[keep],
                        votes.confidence[keep], votes.class_ids[keep])

        aggregates = votes_to_poses(votes, cloud, small_bundle.models, quick_config(theta=0.002, icp_iters=0),
                                    small_bundle.workspace)
        calls = []
        icp = pipeline.icp_refine
        monkeypatch.setattr(pipeline, "icp_refine", lambda *args, **kw: (calls.append(1), icp(*args, **kw))[1])
        poses = votes_to_poses(votes, cloud, small_bundle.models, cfg, small_bundle.workspace)
        assert len(poses) == small_bundle.gt.n_objects and len(calls) == len(poses) - 1
        i = int(np.argmin([np.linalg.norm(p.translation - centroids[0]) for p in poses]))
        assert [p.refined for p in poses] == [j != i for j in range(len(poses))]
        assert np.array_equal(poses[i].rotation, aggregates[i].rotation)
        assert np.array_equal(poses[i].translation, aggregates[i].translation)
        assert np.allclose(poses[i].rotation, small_bundle.gt.rotations[0], atol=1e-9)
        assert np.allclose(poses[i].translation, small_bundle.gt.translations[0], atol=1e-9)


def _voting_output(fine, gt, votes, keep):
    """A forward-pass output whose selected voxels vote the oracle votes
    `keep` (fields the voting head does not read are left empty)."""
    rows = np.nonzero(voxel_object_assignment(fine, gt) >= 0)[0][keep]
    logits = np.zeros((len(rows), N_CLASSES + 1))
    logits[np.arange(len(rows)), votes.class_ids[keep]] = 5.0
    selected = SparseVoxelGrid(fine.resolution, fine.origin, fine.indices[rows], np.zeros((len(rows), 1)))
    return StagedOutput(
        coarse=None, roi_scores=None, kept_coarse_rows=None, lifted_grid=None,
        lifted_fine_rows=None, obj_scores=Tensor(votes.confidence[keep]), cls_logits=Tensor(logits),
        selected_rows=np.arange(len(rows)), selected_grid=selected,
        offsets=Tensor(votes.offsets[keep]), rot6d=Tensor(votes.rot6d[keep]),
    )


class TestPredictedVotes:
    @pytest.mark.parametrize("field", ["offsets", "rot6d", "obj_scores"])
    def test_non_finite_row_costs_one_vote(self, small_bundle, field):
        # predicted_votes keeps every row; votes_to_poses drops the NaN one and
        # gives the poses of the same output without it
        cfg = quick_config()
        fine, cloud, _ = build_input_grid(small_bundle, cfg, "cloud")
        votes = oracle_votes(fine, small_bundle.gt)
        bad_row = len(votes) // 2
        out = _voting_output(fine, small_bundle.gt, votes, np.arange(len(votes)))
        getattr(out, field).data[bad_row] = np.nan
        clean = _voting_output(fine, small_bundle.gt, votes, np.delete(np.arange(len(votes)), bad_row))
        kept = predicted_votes(out)
        assert len(kept) == len(votes)
        got = votes_to_poses(kept, cloud, small_bundle.models, cfg, small_bundle.workspace)
        base = votes_to_poses(predicted_votes(clean), cloud, small_bundle.models, cfg, small_bundle.workspace)
        assert len(base) > 0
        assert len(got) == len(base)
        for p, q in zip(got, base):
            assert np.array_equal(p.rotation, q.rotation)
            assert np.array_equal(p.translation, q.translation)
            assert (p.class_id, p.confidence, p.support, p.refined) == \
                (q.class_id, q.confidence, q.support, q.refined)


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

    def test_six_step_losses_pinned(self, small_bundle):
        # every loss part of a six-step run (one warm-up step), recorded with
        # the networks computing in float32 at the default BLAS thread count
        expected = [
            (5.917724842018119, 0.1589423234137575, 1.722952358217466, 0.24576683487656106,
             0.011258655250084501, 0.06461580844858833),
            (5.917437046396632, 0.15865452779227093, 1.722952358217466, 0.24576683487656106,
             0.011258655250084501, 0.06461580844858833),
            (5.708394401888136, 0.15821724089120628, 1.593950796272446, 0.2457522831612221,
             0.07077700230275698, 0.06448919894887711),
            (5.224873967948508, 0.15771973848498425, 1.4225306918349383, 0.2457307281371813,
             0.08132155668784677, 0.06413602762080448),
            (4.771212007341215, 0.15716881616048348, 1.232159793162927, 0.2457032231272292,
             0.12100522404716213, 0.06314169329600582),
            (4.377633503683784, 0.1565520660980705, 1.033077793147211, 0.2456692639012958,
             0.18966924778794053, 0.0615017869776666),
        ]
        _, trace = train_toy(small_bundle, quick_config(steps=6), steps=6)
        got = [(b.total, b.roi, b.obj, b.cls, b.t, b.rot) for b in trace]
        np.testing.assert_allclose(np.array(got), np.array(expected), rtol=1e-9, atol=0.0)

    def test_peak_memory_does_not_grow_with_steps(self, small_bundle):
        # one step's graph at a time: the next forward must not run beside
        # the last step's graph and interior gradients
        import tracemalloc

        train_toy(small_bundle, quick_config(), steps=1)  # lazy imports land outside the traced runs
        peaks = {}
        for steps in (1, 3):
            tracemalloc.start()
            try:
                train_toy(small_bundle, quick_config(), steps=steps)
                peaks[steps] = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
        assert peaks[3] <= 1.05 * peaks[1], peaks

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

        # SHA-256 of the seed-5 default model (a one-hidden-layer objectness
        # classifier), the same bytes whichever way the file is written
        model = build_model(PipelineConfig(), "cloud", seed=5)
        path = tmp_path / "m.ckpt"
        save_model(path, model)
        digest = hashlib.sha256(path.read_bytes()).hexdigest()
        assert digest == "11d6f54c588e21c9111bb3613e1a96d645971a5d298b5ad89d3809469dca7a62"
        assert sorted(p.name for p in tmp_path.iterdir()) == ["m.ckpt", "m.ckpt.json"]
        sidecar = hashlib.sha256((tmp_path / "m.ckpt.json").read_bytes()).hexdigest()
        assert sidecar == "230eaf3a01d6ea656378a327059bb2541f7d4b94ceaded0a2c6fbb492517adc2"

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

    def test_loaded_model_forward_records_no_graph(self, small_bundle, tmp_path):
        cfg = quick_config()
        model, _ = train_toy(small_bundle, cfg, steps=2)
        path = tmp_path / "m.ckpt"
        save_model(path, model)
        fine, _, _ = build_input_grid(small_bundle, cfg, "cloud")
        trained = staged_forward(model, fine, cfg)
        loaded = staged_forward(load_model(path, cfg), fine, cfg)
        for name in ("roi_scores", "obj_scores", "cls_logits", "offsets", "rot6d"):
            assert getattr(trained, name)._parents != ()
            assert getattr(loaded, name)._parents == ()
            assert np.array_equal(getattr(loaded, name).data, getattr(trained, name).data)

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
