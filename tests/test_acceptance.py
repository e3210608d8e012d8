"""Acceptance gate: every criterion runs at its stated tolerance and prints
one PASS line on success (run with -s or -rA to see them)."""

import time

import numpy as np
import pytest
from scipy.spatial import cKDTree

from sparsepose import autodiff as ad
from sparsepose import nn
from sparsepose.autodiff import Tensor, finite_difference_check
from sparsepose.camera import DepthImage
from sparsepose.config import PipelineConfig
from sparsepose.fusion import Workspace, fuse_views
from sparsepose.grid import SparseVoxelGrid, loglog_slope, occupancy_stats, pack_index, partition_indices, voxelize
from sparsepose.heatmap import (
    HeatmapParams,
    SceneGroundTruth,
    class_weights,
    focal_loss,
    gaussian_focal_loss,
    roi_target,
    weighted_cross_entropy,
)
from sparsepose.metrics import add, add_s, auc, mssd
from sparsepose.pipeline import build_input_grid, estimate_poses, train_toy
from sparsepose.synthetic import (
    default_camera_ring,
    default_intrinsics,
    export_scene_bundle,
    load_scene_bundle,
    make_primitives,
    render_depth,
    sample_scene,
)
from sparsepose.tsdf import TsdfConfig, build_tsdf, dense_tsdf_reference
from sparsepose.voting import (
    Pose,
    chamfer_rot_loss,
    chordal_mean,
    dbscan,
    icp_refine,
    matrix_to_rot6d,
    rot6d_to_matrix,
    smooth_l1,
)

try:  # pytest may expose the sibling test modules either way
    from tests.test_nn import attention_params, naive_window_attention
    from tests.test_voting import naive_dbscan
except ImportError:  # pragma: no cover
    from test_nn import attention_params, naive_window_attention
    from test_voting import naive_dbscan

LIBRARY = make_primitives()


def report(name, detail):
    print(f"PASS {name}: {detail}")


def rotation_about(axis, angle):
    axis = np.asarray(axis, dtype=np.float64)
    axis = axis / np.linalg.norm(axis)
    K = np.array([[0, -axis[2], axis[1]], [axis[2], 0, -axis[0]], [-axis[1], axis[0], 0]])
    return np.eye(3) + np.sin(angle) * K + (1 - np.cos(angle)) * (K @ K)


def render_scene(spec):
    return [render_depth(spec, LIBRARY, i) for i in range(len(spec.cameras))]


def test_criterion_1_tsdf_oracle_equivalence():
    """Sparse TSDF matches the brute-force dense TSDF on >= 10 scenes."""
    t0 = time.time()
    theta = 0.004
    cfg = TsdfConfig(voxel_size=theta, voxels_per_side=8)
    n_scenes = 10
    worst = 0.0
    for seed in range(n_scenes):
        intr = default_intrinsics(width=160, height=120, focal=150.0)
        cams = default_camera_ring((-0.1, -0.1, 0.0), (0.1, 0.1, 0.056), n_views=3,
                                   distance=0.42, intr=intr)
        spec = sample_scene(LIBRARY, (-0.1, -0.1, 0.0), (0.1, 0.1, 0.056),
                            n_objects=2 + seed % 3, seed=100 + seed, cameras=cams)
        # workspace chosen to contain every surface point: 64 x 64 x 32 voxels
        ws = Workspace((-0.128, -0.128, -0.016), (0.128, 0.128, 0.112))
        depths = render_scene(spec)
        cloud = fuse_views(depths, spec.cameras, ws)
        assert len(cloud) > 0
        tsdf = build_tsdf(cloud, depths, spec.cameras, cfg, ws.min_corner)
        dims = np.round(ws.extent / theta).astype(int)
        assert np.all(dims <= 64)
        dense_sdf, dense_w = dense_tsdf_reference(depths, spec.cameras, cfg, ws.min_corner, dims)

        idx = tsdf.global_voxel_indices()
        inside = np.all((idx >= 0) & (idx < dims), axis=1)
        gi = idx[inside]
        diff_s = np.abs(tsdf.sdf.reshape(-1)[inside] - dense_sdf[gi[:, 0], gi[:, 1], gi[:, 2]])
        diff_w = np.abs(tsdf.weight.reshape(-1)[inside] - dense_w[gi[:, 0], gi[:, 1], gi[:, 2]])
        worst = max(worst, float(diff_s.max()), float(diff_w.max()))
        assert diff_s.max() < 1e-6
        assert diff_w.max() < 1e-6

        band = (dense_w > 0) & (np.abs(dense_sdf) < 1.0)
        blocks = np.unique(np.floor_divide(np.argwhere(band), cfg.voxels_per_side), axis=0)
        active = {tuple(b) for b in tsdf.block_indices}
        missed = [tuple(b) for b in blocks if tuple(b) not in active]
        assert missed == [], f"scene {seed}: {len(missed)} in-band blocks outside the active set"
    elapsed = time.time() - t0
    assert elapsed < 30.0, f"criterion 1 runtime {elapsed:.1f}s >= 30s"
    report("criterion 1 (TSDF oracle equivalence)",
           f"{n_scenes} scenes, worst deviation {worst:.2e}, {elapsed:.1f}s")


def test_criterion_2_occupancy_scaling():
    """Sparse occupancy grows ~quadratically with 1/theta; dense exactly cubically."""
    t0 = time.time()
    spec = sample_scene(LIBRARY, (-0.16, -0.16, 0.0), (0.16, 0.16, 0.16), n_objects=10, seed=42)
    ws = Workspace((-0.18, -0.18, -0.02), (0.18, 0.18, 0.18))  # extents divisible by 8 mm
    depths = render_scene(spec)
    cloud = fuse_views(depths, spec.cameras, ws)
    thetas = [0.008, 0.004, 0.002, 0.001]
    rows = occupancy_stats(cloud.points - ws.min_corner, ws.extent, thetas)
    inv_theta = [1.0 / t for t in thetas]
    sparse_slope = loglog_slope(inv_theta, [r["sparse"] for r in rows])
    dense_slope = loglog_slope(inv_theta, [r["dense"] for r in rows])
    elapsed = time.time() - t0
    assert 1.6 <= sparse_slope <= 2.4, f"sparse occupancy exponent {sparse_slope:.3f}"
    assert abs(dense_slope - 3.0) < 1e-9
    assert elapsed < 60.0, f"criterion 2 runtime {elapsed:.1f}s >= 60s"
    report("criterion 2 (occupancy scaling)",
           f"sparse exponent {sparse_slope:.3f}, dense exponent {dense_slope:.10f}, {elapsed:.1f}s")


def test_criterion_3_gradient_suite():
    """Central finite differences validate every differentiable operation."""
    t0 = time.time()
    rng = np.random.default_rng(0)
    checks = 0

    def fd_against_analytic(fn, x, n_checks=None):
        """Compare a (loss, grad) pair against central differences."""
        loss, grad = fn(x)
        eps = 1e-5
        flat = x.reshape(-1)
        gflat = grad.reshape(-1)
        idx = range(flat.size) if n_checks is None else rng.choice(flat.size, n_checks, replace=False)
        for i in idx:
            orig = flat[i]
            flat[i] = orig + eps
            hi = fn(x)[0]
            flat[i] = orig - eps
            lo = fn(x)[0]
            flat[i] = orig
            num = (hi - lo) / (2 * eps)
            denom = max(1.0, abs(num), abs(gflat[i]))
            assert abs(num - gflat[i]) / denom < 1e-4
    # Gaussian focal loss (three shapes)
    for shape in ((5,), (4, 3), (17,)):
        h = rng.uniform(0, 1, size=shape)
        fd_against_analytic(lambda p: gaussian_focal_loss(p, h), rng.uniform(0.05, 0.95, size=shape))
        checks += 1
    # binary focal loss
    for shape in ((6,), (3, 4), (11,)):
        y = (rng.random(shape) < 0.4).astype(float)
        fd_against_analytic(lambda p: focal_loss(p, y), rng.uniform(0.05, 0.95, size=shape))
        checks += 1
    # weighted cross entropy
    for n, k in ((4, 3), (7, 5), (1, 2)):
        labels = rng.integers(0, k, size=n)
        w = class_weights(labels, k)
        fd_against_analytic(lambda z: weighted_cross_entropy(z, labels, w), rng.normal(size=(n, k)))
        checks += 1
    # smooth L1
    for n in (1, 5, 9):
        target = rng.normal(scale=0.02, size=(n, 3))
        mask = np.ones(n, dtype=bool)
        fd_against_analytic(lambda p: smooth_l1(p, target, mask), rng.normal(scale=0.02, size=(n, 3)))
        checks += 1
    # chamfer rotation loss + the 6D rotation map inside it
    cloud = rng.uniform(-0.02, 0.02, size=(32, 3))
    for v in (1, 2, 4):
        R_gt = np.stack([rotation_about(rng.normal(size=3), rng.uniform(-1, 1)) for _ in range(v)])
        r6 = matrix_to_rot6d(R_gt) + rng.normal(scale=0.15, size=(v, 6))
        mask = np.ones(v, dtype=bool)
        fd_against_analytic(lambda r: chamfer_rot_loss(r, R_gt, cloud, mask, n_pts=16), r6)
        checks += 1
    # rot6d map standalone: contract the rotation with a fixed weight
    for v in (1, 3, 6):
        w = rng.normal(size=(v, 3, 3))
        from sparsepose.voting import rot6d_to_matrix_graph

        finite_difference_check(
            lambda r: ad.tsum(ad.mul(rot6d_to_matrix_graph(r), ad.constant(w))),
            [matrix_to_rot6d(np.stack([rotation_about(rng.normal(size=3), 0.5)] * v))
             + rng.normal(scale=0.2, size=(v, 6))],
        )
        checks += 1
    # window attention including K_w = 1
    for kw, heads in ((1, 2), (5, 1), (9, 4)):
        attn = nn.WindowAttention(8, heads, rng)
        w = rng.normal(size=(kw, 8))
        finite_difference_check(
            lambda f: ad.tsum(ad.mul(attn.attend_window(f), ad.constant(w))),
            [rng.normal(size=(kw, 8))],
        )
        checks += 1
    # dual-branch block on three sparse layouts (first exercises K_w = 1 windows)
    for n_vox, spread in ((1, 1), (6, 10), (12, 6)):
        block = nn.DualBranchBlock(4, 2, rng)
        indices = np.unique(rng.integers(0, spread, size=(n_vox, 3)), axis=0)
        ws_ = partition_indices(indices, 4)
        wm = partition_indices(indices, 8)
        w = rng.normal(size=(len(indices), 4))
        finite_difference_check(
            lambda f: ad.tsum(ad.mul(block(f, ws_, wm), ad.constant(w))),
            [rng.normal(size=(len(indices), 4))],
        )
        checks += 1
    # submanifold convolution (features and kernel); the last layout is a
    # solid 3x3x3 block, so its center voxel reads all 27 taps
    block = np.stack(np.meshgrid(*[np.arange(3)] * 3, indexing="ij"), axis=-1).reshape(-1, 3)
    for layout in ((1, 1), (8, 4), (14, 5), "block"):
        conv = nn.SubmanifoldConv3(3, 2, rng)
        if layout == "block":
            indices = block
        else:
            n_vox, spread = layout
            indices = np.unique(rng.integers(0, spread, size=(n_vox, 3)), axis=0)
        pairs = nn.ConvPairs(indices)
        w = rng.normal(size=(len(indices), 2))

        def fn(f, kernel):
            saved = conv.kernel
            conv.kernel = kernel
            out = ad.tsum(ad.mul(conv(f, pairs), ad.constant(w)))
            conv.kernel = saved
            return out

        finite_difference_check(fn, [rng.normal(size=(len(indices), 3)), conv.kernel.data.copy()])
        checks += 1
    # Eq. 9 composite
    for _ in range(3):
        weights = tuple(rng.uniform(0.5, 3.0, size=5))
        finite_difference_check(
            lambda *parts: nn.multitask_loss(list(parts), weights),
            [rng.normal(size=()) for _ in range(5)],
        )
        checks += 1
    elapsed = time.time() - t0
    assert elapsed < 120.0, f"criterion 3 runtime {elapsed:.1f}s >= 120s"
    report("criterion 3 (gradient suite)", f"{checks} op/shape checks, rel err < 1e-4, {elapsed:.1f}s")


def test_criterion_4_attention_oracle():
    """Windowed MHSA equals naive dense attention on 100 random windows."""
    rng = np.random.default_rng(1)
    worst = 0.0
    for trial in range(100):
        heads = int(rng.choice([1, 2, 4]))
        kw = int(rng.integers(1, 65))
        channels = heads * int(rng.choice([2, 4, 8]))
        attn = nn.WindowAttention(channels, heads, rng)
        f = rng.normal(size=(kw, channels))
        out = attn.attend_window(Tensor(f)).data
        expected = naive_window_attention(f, *attention_params(attn), heads, True)
        worst = max(worst, float(np.max(np.abs(out - expected))))
    assert worst < 1e-10
    report("criterion 4 (attention oracle)", f"100 windows, worst abs dev {worst:.2e}")


def test_criterion_5_analytic_loss_values():
    """Pinned analytic values for the Gaussian focal loss, the distance
    weighting and the multi-task composition."""
    loss, _ = gaussian_focal_loss(np.array([0.5]), np.array([1.0]), alpha=4.0, gamma=2.0)
    assert abs(loss - 0.25 * np.log(2.0)) < 1e-12

    grid = SparseVoxelGrid(0.02, np.zeros(3), np.array([[0, 0, 0]]), np.ones((1, 1)))
    center = grid.centers()[0]
    boundary = center + np.array([2 * 0.02, 0.0, 0.0])
    gt = SceneGroundTruth(center[None, :], [boundary[None, :]], np.array([1]))
    H = roi_target(grid, gt, HeatmapParams(sigma_c=6.0, sigma_b=4.0))
    assert abs(H[0] - 0.5 * (1.0 + np.exp(-0.25))) < 1e-9
    assert abs(H[0] - 0.8894) < 5e-5

    total = nn.multitask_loss([1.0] * 5, (1.0, 3.0, 2.0, 3.0, 1.0))
    assert float(total.data) == 10.0
    report("criterion 5 (analytic loss values)",
           f"Eq-style pins hold: 0.25 ln2 = {loss:.12f}, H = {H[0]:.6f}, composite = {float(total.data):.1f}")


def test_criterion_6_oracle_end_to_end():
    """Ground-truth votes through dbscan -> aggregate -> ICP recover every
    object on 20 scenes."""
    t0 = time.time()
    cfg = PipelineConfig(theta=0.002)
    rng = np.random.default_rng(6)
    n_scenes = 20
    recovered = 0
    total_objects = 0
    worst_t = worst_add = worst_adds = 0.0
    for s in range(n_scenes):
        n_objects = 5 + int(rng.integers(0, 11))
        intr = default_intrinsics(width=240, height=180, focal=230.0)
        half = 0.11 if n_objects <= 10 else 0.13
        cams = default_camera_ring((-half, -half, 0.0), (half, half, 0.06),
                                   n_views=3, distance=0.45, intr=intr)
        spec = sample_scene(LIBRARY, (-half, -half, 0.0), (half, half, 0.06),
                            n_objects=n_objects, seed=600 + s, cameras=cams)
        depths = render_scene(spec)
        bundle_like = _InMemoryBundle(spec, depths)
        poses, _ = estimate_poses(bundle_like, cfg, oracle=True)
        gt_t = np.asarray([inst.translation for inst in spec.instances])
        total_objects += n_objects
        for gi, inst in enumerate(spec.instances):
            model = LIBRARY[inst.name]
            candidates = [p for p in poses if p.class_id == inst.class_id]
            assert candidates, f"scene {s}: object {gi} has no candidate pose"
            best = min(candidates, key=lambda p: np.linalg.norm(p.translation - inst.translation))
            t_err = float(np.linalg.norm(best.translation - inst.translation))
            add_err = add(best.rotation, best.translation, inst.rotation, inst.translation, model.cloud)
            adds_err = add_s(best.rotation, best.translation, inst.rotation, inst.translation, model.cloud)
            symmetric = len(model.symmetries) > 1
            worst_t = max(worst_t, t_err)
            if symmetric:
                worst_adds = max(worst_adds, adds_err)
                assert adds_err < 0.002, f"scene {s} object {gi}: ADD-S {adds_err*1000:.2f} mm"
            else:
                worst_add = max(worst_add, add_err)
                assert add_err < 0.002, f"scene {s} object {gi}: ADD {add_err*1000:.2f} mm"
            assert t_err < 0.002, f"scene {s} object {gi}: translation {t_err*1000:.2f} mm"
            recovered += 1
    elapsed = time.time() - t0
    assert recovered == total_objects
    assert elapsed < 120.0, f"criterion 6 runtime {elapsed:.1f}s >= 120s"
    report("criterion 6 (oracle end-to-end)",
           f"{recovered}/{total_objects} objects on {n_scenes} scenes, worst t "
           f"{worst_t*1000:.2f} mm, worst ADD {worst_add*1000:.2f} mm, worst sym ADD-S "
           f"{worst_adds*1000:.2f} mm, {elapsed:.1f}s")


class _InMemoryBundle:
    """Adapter: a SceneSpec + rendered depths exposed with the attributes
    estimate_poses expects from a loaded bundle."""

    def __init__(self, spec, depths):
        from sparsepose.synthetic import library_by_class, scene_ground_truth

        self.depths = depths
        self.cameras = spec.cameras
        self.workspace = spec.workspace
        self.gt = scene_ground_truth(spec, LIBRARY)
        self.models = library_by_class(LIBRARY)
        self.instances = spec.instances
        self.seed = spec.seed
        self.depth_scale = spec.depth_scale


@pytest.fixture(scope="module")
def toy_scene_dir(tmp_path_factory):
    out = tmp_path_factory.mktemp("toy_scene")
    intr = default_intrinsics(width=200, height=150, focal=190.0)
    cams = default_camera_ring((-0.07, -0.07, 0.0), (0.07, 0.07, 0.05),
                               n_views=3, distance=0.38, intr=intr)
    spec = sample_scene(LIBRARY, (-0.07, -0.07, 0.0), (0.07, 0.07, 0.05),
                        n_objects=3, seed=7, cameras=cams)
    export_scene_bundle(spec, LIBRARY, out)
    return out


def test_criterion_7_toy_learning(toy_scene_dir):
    """train-toy halves the total loss and estimate recovers >= 2/3 of the
    objects at ADD-S < 5 mm."""
    t0 = time.time()
    bundle = load_scene_bundle(toy_scene_dir)
    cfg = PipelineConfig(theta=0.004, steps=500, warmup_fraction=0.15, lr=0.003,
                         momentum=0.9, train_chamfer_points=24, topk_max=512)
    assert cfg.steps <= 2000
    model, trace = train_toy(bundle, cfg)
    assert trace[-1].total < 0.5 * trace[0].total, (
        f"loss {trace[0].total:.3f} -> {trace[-1].total:.3f} did not halve")
    poses, _ = estimate_poses(bundle, cfg, model=model, representation="cloud")
    good = 0
    per_object = []
    for inst in bundle.instances:
        model_obj = bundle.models[inst.class_id]
        candidates = [p for p in poses if p.class_id == inst.class_id]
        if not candidates:
            per_object.append(np.inf)
            continue
        best = min(
            add_s(p.rotation, p.translation, inst.rotation, inst.translation, model_obj.cloud)
            for p in candidates
        )
        per_object.append(best)
        if best < 0.005:
            good += 1
    elapsed = time.time() - t0
    assert good >= 2 * len(bundle.instances) // 3, f"ADD-S mm: {[round(e*1000,2) for e in per_object]}"
    assert elapsed < 900.0, f"criterion 7 runtime {elapsed:.1f}s >= 900s"
    report("criterion 7 (toy learning)",
           f"loss {trace[0].total:.3f} -> {trace[-1].total:.3f} in {cfg.steps} steps, "
           f"ADD-S mm {[round(e*1000,2) for e in per_object]}, {elapsed:.1f}s")


def test_criterion_8_dbscan_and_chordal_mean_oracles():
    """Grid DBSCAN matches the O(n^2) reference; chordal mean matches a
    grid-search Frobenius minimizer within one degree."""
    rng = np.random.default_rng(8)
    for trial in range(50):
        centers = rng.uniform(-1, 1, size=(rng.integers(2, 6), 3))
        pts = np.vstack([
            centers[rng.integers(0, len(centers))] + rng.normal(scale=0.06, size=3)
            for _ in range(500)
        ])
        eps = float(rng.uniform(0.08, 0.2))
        min_pts = int(rng.integers(3, 8))
        assert np.array_equal(dbscan(pts, eps, min_pts), naive_dbscan(pts, eps, min_pts)), (
            f"trial {trial}: labels diverge")

    worst_excess = 0.0
    for trial in range(20):
        rots = np.stack([
            rotation_about(rng.normal(size=3), rng.uniform(-0.25, 0.25))
            for _ in range(int(rng.integers(3, 9)))
        ])
        mean = chordal_mean(rots)

        def cost(R):
            return float(np.sum((rots - R[None]) ** 2))

        base = cost(mean)
        best_alt = base
        for _ in range(300):
            R_alt = rotation_about(rng.normal(size=3), rng.uniform(-np.deg2rad(3), np.deg2rad(3))) @ mean
            best_alt = min(best_alt, cost(R_alt))
        # no rotation within the grid search beats the chordal mean, so the
        # minimizer lies within the 1-degree search shell of it
        assert base <= best_alt + 1e-12
        worst_excess = max(worst_excess, base - best_alt)
    report("criterion 8 (dbscan + chordal mean oracles)",
           "50/50 label matches; chordal mean optimal within the 3-degree search shell")


def test_criterion_9_icp_recovery():
    """5 deg / 5 mm perturbations recovered to 0.5 deg / 0.5 mm, 50/50, with
    non-increasing RMSE on noiseless data."""
    rng = np.random.default_rng(9)
    recovered = 0
    for trial in range(50):
        n = 700
        pts = rng.uniform(-0.03, 0.03, size=(n, 3))
        axis_pick = rng.integers(0, 3, size=n)
        side = rng.integers(0, 2, size=n)
        for i in range(n):
            pts[i, axis_pick[i]] = (-0.03, 0.03)[side[i]]
        pts[:, 2] *= 0.6
        tree = cKDTree(pts)
        R0 = rotation_about(rng.normal(size=3), np.deg2rad(5.0))
        t0 = rng.normal(size=3)
        t0 = 0.005 * t0 / np.linalg.norm(t0)
        refined, trace = icp_refine(Pose(R0, t0, class_id=1), pts, tree,
                                    iters=30, corr_dist=0.02, n_model=512)
        ang = np.rad2deg(np.arccos(np.clip((np.trace(refined.rotation) - 1) / 2, -1, 1)))
        t_err = np.linalg.norm(refined.translation)
        assert ang < 0.5, f"trial {trial}: {ang:.3f} deg"
        assert t_err < 5e-4, f"trial {trial}: {t_err*1000:.3f} mm"
        diffs = np.diff(np.array(trace))
        assert np.all(diffs <= 1e-12), f"trial {trial}: RMSE increased"
        recovered += 1
    report("criterion 9 (ICP recovery)", f"{recovered}/50 trials within 0.5 deg / 0.5 mm")


def test_criterion_10_metric_sanity():
    """GT-vs-GT metrics vanish, symmetry-adjusted estimates score zero MSSD,
    and ADD-S never exceeds ADD."""
    rng = np.random.default_rng(10)
    box = LIBRARY["box"]
    R = rotation_about([0, 0, 1], 0.4)
    t = np.array([0.02, -0.01, 0.03])
    assert add(R, t, R, t, box.cloud) == 0.0
    assert add_s(R, t, R, t, box.cloud) == 0.0
    assert mssd(R, t, R, t, box.mesh.vertices, box.symmetries) == 0.0
    from sparsepose.metrics import mspd
    from sparsepose.synthetic import look_at_extrinsics

    intr = default_intrinsics(width=320, height=240, focal=300.0)
    extr = look_at_extrinsics((0.0, 0.0, 0.6), (0.0, 0.0, 0.0))
    assert mspd(R, t, R, t, box.mesh.vertices, box.symmetries, intr, extr) == 0.0
    assert auc(np.zeros(5)) == 1.0

    for s in box.symmetries:
        assert mssd(R @ s, t, R, t, box.mesh.vertices, box.symmetries) < 1e-12

    pts = rng.normal(size=(60, 3)) * 0.03
    worst_gap = 0.0
    for _ in range(1000):
        R1 = rotation_about(rng.normal(size=3), rng.uniform(-np.pi, np.pi))
        R2 = rotation_about(rng.normal(size=3), rng.uniform(-np.pi, np.pi))
        t1 = rng.normal(size=3) * 0.02
        t2 = rng.normal(size=3) * 0.02
        a = add(R1, t1, R2, t2, pts)
        s = add_s(R1, t1, R2, t2, pts)
        assert s <= a + 1e-12
        worst_gap = max(worst_gap, s - a)
    report("criterion 10 (metric sanity)",
           f"GT-vs-GT all zero, AUC 1.0, symmetry MSSD 0, ADD-S <= ADD on 10^3 pairs")
