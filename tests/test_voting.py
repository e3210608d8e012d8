import numpy as np
import pytest
from scipy.spatial import cKDTree

from sparsepose.errors import DataError, NumericalError
from sparsepose.grid import SparseVoxelGrid
from conftest import scene_gt
from sparsepose.heatmap import voxel_object_assignment
from sparsepose.voting import (
    NOISE,
    Pose,
    VoteSet,
    aggregate_votes,
    chamfer_rot_loss,
    chordal_mean,
    dbscan,
    icp_refine,
    matrix_to_rot6d,
    pose_targets,
    read_pose_json,
    rot6d_to_matrix,
    smooth_l1,
    subsample_rows,
    write_pose_csv,
    write_pose_json,
)


def rotation_about(axis, angle):
    axis = np.asarray(axis, dtype=np.float64)
    axis = axis / np.linalg.norm(axis)
    K = np.array([[0, -axis[2], axis[1]], [axis[2], 0, -axis[0]], [-axis[1], axis[0], 0]])
    return np.eye(3) + np.sin(angle) * K + (1 - np.cos(angle)) * (K @ K)


def naive_dbscan(points, eps, min_pts):
    """Textbook DBSCAN: row-order seeds, BFS expansion in sorted neighbor
    order, distance <= eps, neighborhood counts include the point."""
    pts = np.asarray(points, dtype=np.float64)
    n = len(pts)
    d2 = np.sum((pts[:, None, :] - pts[None, :, :]) ** 2, axis=2)
    neighbors = [np.nonzero(d2[i] <= eps * eps)[0] for i in range(n)]
    core = np.array([len(nb) >= min_pts for nb in neighbors])
    labels = np.full(n, NOISE, dtype=np.int64)
    visited = np.zeros(n, dtype=bool)
    cluster = 0
    for seed in range(n):
        if visited[seed] or not core[seed]:
            continue
        visited[seed] = True
        labels[seed] = cluster
        frontier = [seed]
        while frontier:
            cur = frontier.pop(0)
            for nb in neighbors[cur]:
                if labels[nb] == NOISE:
                    labels[nb] = cluster
                if core[nb] and not visited[nb]:
                    visited[nb] = True
                    labels[nb] = cluster
                    frontier.append(nb)
        cluster += 1
    return labels


class TestPoseTargets:
    def make_scene(self):
        idx = np.array([[0, 0, 0], [4, 4, 4], [9, 9, 9]])
        grid = SparseVoxelGrid(0.01, np.zeros(3), idx, np.ones((3, 1)))
        centers = grid.centers()
        rotations = np.stack([rotation_about([0, 0, 1], 0.3), rotation_about([1, 0, 0], 0.5)])
        gt = scene_gt(np.stack([centers[0], centers[1] + 0.004]), [centers[0][None, :], centers[1][None, :]],
                      np.array([1, 2]), rotations)
        return grid, gt, centers, rotations

    def test_offset_zero_at_centroid(self):
        grid, gt, centers, rotations = self.make_scene()
        owner = voxel_object_assignment(grid, gt)
        t, R, valid = pose_targets(centers, owner, gt)
        assert valid[0] and valid[1] and not valid[2]
        assert np.allclose(t[0], 0.0, atol=1e-15)
        assert np.allclose(t[1], 0.004, atol=1e-12)

    def test_background_masked(self):
        grid, gt, centers, rotations = self.make_scene()
        owner = voxel_object_assignment(grid, gt)
        t, R, valid = pose_targets(centers, owner, gt)
        assert owner[2] == -1 and not valid[2]
        assert np.array_equal(t[2], np.zeros(3)) and np.array_equal(R[2], np.eye(3))

    def test_matches_brute_force_assignment(self):
        rng = np.random.default_rng(0)
        idx = np.unique(rng.integers(0, 15, size=(60, 3)), axis=0)
        grid = SparseVoxelGrid(0.01, np.zeros(3), idx, np.ones((len(idx), 1)))
        clouds = [rng.uniform(0, 0.15, size=(40, 3)) for _ in range(3)]
        gt = scene_gt(np.stack([c.mean(axis=0) for c in clouds]), clouds, np.array([1, 2, 3]))
        owner = voxel_object_assignment(grid, gt)
        t, _, valid = pose_targets(grid.centers(), owner, gt)
        # brute force: voxel owned by the object owning most contained points
        for i, v in enumerate(idx):
            counts = []
            for cloud in clouds:
                inside = np.floor(cloud / 0.01).astype(np.int64)
                counts.append(int(np.sum(np.all(inside == v, axis=1))))
            if sum(counts) == 0:
                assert owner[i] == -1 and not valid[i]
            else:
                best = max(counts)
                winners = [j for j, c in enumerate(counts) if c == best]
                assert owner[i] in winners and valid[i]
                assert np.allclose(t[i], gt.centroids[owner[i]] - grid.centers()[i])

    def test_rotation_of_owner(self):
        grid, gt, centers, rotations = self.make_scene()
        _, R, valid = pose_targets(centers, np.array([1, -1, 0]), gt)
        assert np.array_equal(valid, [True, False, True])
        assert np.allclose(R[0], rotations[1])
        assert np.allclose(R[1], np.eye(3))
        assert np.allclose(R[2], rotations[0])


class TestSmoothL1:
    def test_zero_at_match(self):
        pred = np.ones((4, 3))
        loss, grad = smooth_l1(pred, pred, np.ones(4, dtype=bool))
        assert loss == 0.0
        assert np.array_equal(grad, np.zeros((4, 3)))

    def test_quadratic_regime(self):
        # error 0.005 < delta 0.01: 0.5 * e^2 / delta = 0.00125
        pred = np.array([[0.005, 0.0, 0.0]])
        target = np.zeros((1, 3))
        loss, _ = smooth_l1(pred, target, np.ones(1, dtype=bool), delta=0.01)
        assert loss == pytest.approx(0.00125, abs=1e-12)

    def test_linear_regime(self):
        # error 0.02 >= delta 0.01: |e| - delta/2 = 0.015
        pred = np.array([[0.02, 0.0, 0.0]])
        target = np.zeros((1, 3))
        loss, _ = smooth_l1(pred, target, np.ones(1, dtype=bool), delta=0.01)
        assert loss == pytest.approx(0.015, abs=1e-12)

    def test_mask_excludes_rows(self):
        pred = np.array([[1.0, 1.0, 1.0], [0.0, 0.0, 0.0]])
        target = np.zeros((2, 3))
        mask = np.array([False, True])
        loss, grad = smooth_l1(pred, target, mask)
        assert loss == 0.0
        assert np.array_equal(grad[0], np.zeros(3))

    def test_gradient_finite_difference(self):
        rng = np.random.default_rng(1)
        pred = rng.normal(scale=0.02, size=(6, 3))
        target = rng.normal(scale=0.02, size=(6, 3))
        mask = rng.random(6) < 0.8
        if not mask.any():
            mask[0] = True
        _, grad = smooth_l1(pred, target, mask)
        eps = 1e-7
        num = np.zeros_like(pred)
        for i in range(pred.shape[0]):
            for j in range(3):
                orig = pred[i, j]
                pred[i, j] = orig + eps
                hi = smooth_l1(pred, target, mask)[0]
                pred[i, j] = orig - eps
                lo = smooth_l1(pred, target, mask)[0]
                pred[i, j] = orig
                num[i, j] = (hi - lo) / (2 * eps)
        assert np.max(np.abs(num - grad)) < 1e-6


class TestRot6d:
    def test_identity_encoding(self):
        R = rot6d_to_matrix(np.array([1.0, 0, 0, 0, 1.0, 0]))
        assert np.allclose(R, np.eye(3), atol=1e-15)

    def test_scale_invariance(self):
        R = rot6d_to_matrix(np.array([2.0, 0, 0, 0, 3.0, 0]))
        assert np.allclose(R, np.eye(3), atol=1e-15)

    def test_property_orthonormal_det_one(self):
        rng = np.random.default_rng(2)
        r6 = rng.normal(size=(1000, 6))
        R = rot6d_to_matrix(r6)
        err = np.max(np.abs(np.einsum("nij,nik->njk", R, R) - np.eye(3)[None]), axis=(1, 2))
        assert err.max() < 1e-9
        dets = np.linalg.det(R)
        assert np.max(np.abs(dets - 1.0)) < 1e-9

    def test_encode_decode_roundtrip(self):
        rng = np.random.default_rng(3)
        for _ in range(50):
            R = rotation_about(rng.normal(size=3), rng.uniform(-np.pi, np.pi))
            assert np.allclose(rot6d_to_matrix(matrix_to_rot6d(R)), R, atol=1e-12)

    def test_degenerate_zero_rejected(self):
        with pytest.raises(NumericalError):
            rot6d_to_matrix(np.array([0.0, 0, 0, 0, 1.0, 0]))

    def test_degenerate_parallel_rejected(self):
        with pytest.raises(NumericalError):
            rot6d_to_matrix(np.array([1.0, 0, 0, 2.0, 0, 0]))


def brute_chamfer(a, b):
    d2 = np.sum((a[:, None, :] - b[None, :, :]) ** 2, axis=2)
    return d2.min(axis=1).mean() + d2.min(axis=0).mean()


class TestChamferRotLoss:
    def test_zero_at_exact_rotation(self):
        rng = np.random.default_rng(4)
        R = rotation_about([0, 0, 1], 0.4)
        cloud = rng.uniform(-0.02, 0.02, size=(300, 3))
        loss, grad = chamfer_rot_loss(matrix_to_rot6d(R)[None, :], R[None], cloud,
                                      np.array([True]), n_pts=128)
        assert loss < 1e-20
        assert np.max(np.abs(grad)) < 1e-9

    def test_cylinder_symmetry_near_zero(self):
        # surface points of a cylinder: rotating about its axis is a symmetry,
        # so the chamfer loss stays at sampling-noise level, far below the
        # loss of the same rotation about a non-symmetry axis
        rng = np.random.default_rng(5)
        r, h = 0.01, 0.04
        ang = rng.uniform(0, 2 * np.pi, size=600)
        z = rng.uniform(-h / 2, h / 2, size=600)
        cyl = np.column_stack([r * np.cos(ang), r * np.sin(ang), z])
        R_gt = np.eye(3)
        mask = np.array([True])
        sym = chamfer_rot_loss(matrix_to_rot6d(rotation_about([0, 0, 1], np.deg2rad(25.0)))[None, :],
                               R_gt[None], cyl, mask, n_pts=256)[0]
        non_sym = chamfer_rot_loss(matrix_to_rot6d(rotation_about([1, 0, 0], np.deg2rad(25.0)))[None, :],
                                   R_gt[None], cyl, mask, n_pts=256)[0]
        spacing_sq = (2 * np.pi * r * h) / 256  # ~ mean squared NN spacing of the subsample
        assert sym < spacing_sq
        assert sym < non_sym / 3

    def test_flip_of_asymmetric_shape_matches_brute_force(self):
        # 180-degree flip of an L-shaped cloud: compare against the O(n^2) oracle
        rng = np.random.default_rng(6)
        leg1 = np.column_stack([rng.uniform(0, 0.04, 200), rng.uniform(0, 0.01, 200), rng.uniform(0, 0.01, 200)])
        leg2 = np.column_stack([rng.uniform(0, 0.01, 200), rng.uniform(0, 0.03, 200), rng.uniform(0, 0.01, 200)])
        cloud = np.vstack([leg1, leg2])
        R_gt = np.eye(3)
        R_hat = rotation_about([0, 0, 1], np.pi)
        from sparsepose.voting import subsample_rows

        pts = subsample_rows(cloud, 256)
        expected = brute_chamfer(pts @ R_hat.T, pts @ R_gt.T)
        loss, _ = chamfer_rot_loss(matrix_to_rot6d(R_hat)[None, :], R_gt[None], cloud,
                                   np.array([True]), n_pts=256)
        assert loss == pytest.approx(expected, rel=1e-10)
        assert loss > 1e-5  # flips of an L are far from symmetric

    def test_gradient_finite_difference(self):
        rng = np.random.default_rng(7)
        cloud = rng.uniform(-0.02, 0.02, size=(64, 3))
        R_gt = np.stack([rotation_about(rng.normal(size=3), rng.uniform(-1, 1)) for _ in range(3)])
        r6 = matrix_to_rot6d(R_gt) + rng.normal(scale=0.1, size=(3, 6))
        mask = np.array([True, True, False])
        loss, grad = chamfer_rot_loss(r6, R_gt, cloud, mask, n_pts=32)
        eps = 1e-6
        num = np.zeros_like(r6)
        for i in range(3):
            for j in range(6):
                orig = r6[i, j]
                r6[i, j] = orig + eps
                hi = chamfer_rot_loss(r6, R_gt, cloud, mask, n_pts=32)[0]
                r6[i, j] = orig - eps
                lo = chamfer_rot_loss(r6, R_gt, cloud, mask, n_pts=32)[0]
                r6[i, j] = orig
                num[i, j] = (hi - lo) / (2 * eps)
        denom = np.maximum(1.0, np.maximum(np.abs(grad), np.abs(num)))
        assert np.max(np.abs(grad - num) / denom) < 1e-4
        assert np.max(np.abs(grad[2])) == 0.0  # masked voxel gets no gradient


def loop_chamfer(r6, R_gt, cloud, mask, n_pts):
    """The chamfer rotation loss and its gradient point by point: each nearest
    point is the first of the minimal distances; the 6D map's Jacobian is taken
    by central differences of the rotation contracted with dloss/dR."""
    pts = subsample_rows(cloud, n_pts)
    n, rows = len(pts), np.nonzero(mask)[0]
    loss, grad = 0.0, np.zeros_like(r6)
    for k in rows:
        a, b = pts @ rot6d_to_matrix(r6[k]).T, pts @ R_gt[k].T
        g_a = np.zeros_like(a)
        for i in range(n):
            d = [np.sum((a[i] - b[j]) ** 2) for j in range(n)]
            j = int(np.argmin(d))
            loss += d[j] / n
            g_a[i] += 2.0 * (a[i] - b[j]) / n
        for j in range(n):
            d = [np.sum((a[i] - b[j]) ** 2) for i in range(n)]
            i = int(np.argmin(d))
            loss += d[i] / n
            g_a[i] += 2.0 * (a[i] - b[j]) / n
        g_R = g_a.T @ pts
        for c in range(6):
            step = np.zeros(6)
            step[c] = 1e-6
            hi, lo = rot6d_to_matrix(r6[k] + step), rot6d_to_matrix(r6[k] - step)
            grad[k, c] = np.sum((hi - lo) * g_R) / 2e-6
    return loss / len(rows), grad / len(rows)


def fd_gradient(fn, r6, eps=1e-6):
    num = np.zeros_like(r6)
    for idx in np.ndindex(*r6.shape):
        orig = r6[idx]
        r6[idx] = orig + eps
        hi = fn(r6)
        r6[idx] = orig - eps
        lo = fn(r6)
        r6[idx] = orig
        num[idx] = (hi - lo) / (2 * eps)
    return num


class TestChamferAgainstLoops:
    def check(self, r6, R_gt, cloud, mask, n_pts):
        loss, grad = chamfer_rot_loss(r6, R_gt, cloud, mask, n_pts=n_pts)
        ref_loss, ref_grad = loop_chamfer(r6, R_gt, cloud, mask, n_pts)
        assert loss == pytest.approx(ref_loss, rel=1e-12)
        scale = max(np.max(np.abs(ref_grad)), 1e-300)
        assert np.max(np.abs(grad - ref_grad)) / scale < 1e-6
        num = fd_gradient(lambda r: chamfer_rot_loss(r, R_gt, cloud, mask, n_pts=n_pts)[0], r6)
        assert np.max(np.abs(grad - num)) / scale < 1e-4
        assert np.all(grad[~mask] == 0.0)

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_random_clouds(self, seed):
        rng = np.random.default_rng(40 + seed)
        v, n_pts = 4, (8, 17, 24)[seed]
        cloud = rng.uniform(-0.02, 0.02, size=(int(rng.integers(n_pts, 3 * n_pts)), 3))
        R_gt = np.stack([rotation_about(rng.normal(size=3), rng.uniform(-2, 2)) for _ in range(v)])
        r6 = matrix_to_rot6d(R_gt) + rng.normal(scale=0.3, size=(v, 6))
        mask = np.array([True, False, True, True])
        self.check(r6, R_gt, cloud, mask, n_pts)

    def test_duplicate_points(self):
        # exact ties in both directions: the loss takes the first nearest copy,
        # as the reference does; the copies move together, so the gradient
        # does not depend on which one it goes to
        rng = np.random.default_rng(43)
        base = rng.uniform(-0.02, 0.02, size=(6, 3))
        cloud = np.vstack([base, base[[0, 0, 3]]])
        R_gt = np.stack([rotation_about([1, 2, 0], 0.7), rotation_about([0, 1, 1], -0.4)])
        r6 = matrix_to_rot6d(R_gt) + rng.normal(scale=0.2, size=(2, 6))
        self.check(r6, R_gt, cloud, np.array([True, True]), 64)

    def test_one_point_cloud(self):
        p = np.array([[0.01, -0.02, 0.005]])
        R_gt = rotation_about([0, 0, 1], 0.3)[None]
        r6 = matrix_to_rot6d(rotation_about([1, 0, 0], 0.5))[None, :]
        loss, _ = chamfer_rot_loss(r6, R_gt, p, np.array([True]), n_pts=256)
        assert loss == pytest.approx(2.0 * np.sum((rot6d_to_matrix(r6[0]) @ p[0] - R_gt[0] @ p[0]) ** 2),
                                     rel=1e-12)
        self.check(r6, R_gt, p, np.array([True]), 256)

    def test_all_false_mask(self):
        r6 = np.tile(matrix_to_rot6d(np.eye(3)), (3, 1))
        loss, grad = chamfer_rot_loss(r6, np.tile(np.eye(3), (3, 1, 1)), np.ones((5, 3)),
                                      np.zeros(3, dtype=bool))
        assert loss == 0.0 and grad.shape == (3, 6) and np.all(grad == 0.0)


class TestDbscan:
    def test_two_blobs(self):
        rng = np.random.default_rng(8)
        a = rng.normal(scale=0.002, size=(40, 3))
        b = rng.normal(scale=0.002, size=(40, 3)) + np.array([1.0, 0, 0])
        labels = dbscan(np.vstack([a, b]), eps=0.01, min_pts=5)
        assert set(labels[:40]) == {0}
        assert set(labels[40:]) == {1}

    def test_isolated_points_are_noise(self):
        pts = np.array([[0.0, 0, 0], [1.0, 0, 0], [2.0, 0, 0]])
        labels = dbscan(pts, eps=0.01, min_pts=2)
        assert np.array_equal(labels, [NOISE] * 3)

    def test_matches_naive_reference(self):
        rng = np.random.default_rng(9)
        for trial in range(10):
            n = 200
            centers = rng.uniform(-1, 1, size=(4, 3))
            pts = np.vstack([
                centers[rng.integers(0, 4)] + rng.normal(scale=0.05, size=3) for _ in range(n)
            ])
            eps = 0.12
            min_pts = 4
            mine = dbscan(pts, eps, min_pts)
            ref = naive_dbscan(pts, eps, min_pts)
            assert np.array_equal(mine, ref), f"trial {trial} diverged"

    def test_matches_naive_reference_on_every_edge_kind(self):
        # dbscan links core points per pair of eps cells anchored at the
        # lowest core point: a star where the pair's joint span is within
        # eps, point pairs where it is not; this input needs both, with a
        # cell paired with itself each way
        rng = np.random.default_rng(14)
        eps, min_pts = 0.01, 3
        # a diagonal chain spaced 0.7 eps whose second point, 0.2 on every
        # axis, is the lowest core point: consecutive cells are non-star
        # pairs, and each cell holds three chain points spanning 1.4 eps, so
        # its pair with itself is non-star too; both ends are border points
        step = 0.7 * eps * np.ones(3) / np.sqrt(3)
        chain = 0.2 + np.arange(-1, 29)[:, None] * step
        # two 300-point blobs at spread 1e-4 around cell corners: each spans
        # eight cells whose every pair is a star
        blobs = [0.2 + eps * np.array(c) + rng.normal(scale=1e-4, size=(300, 3))
                 for c in ([10, 40, 10], [30, 40, 10])]
        # a border point 0.8 eps off the chain's middle, and isolated noise
        side = chain[15] + 0.8 * eps * np.array([1.0, -1.0, 0.0]) / np.sqrt(2)
        noise = np.array([[-0.3, -0.3, -0.3], [0.9, -0.2, 0.4]])
        pts = np.vstack(blobs + [chain, side[None], noise])
        pts = pts[rng.permutation(len(pts))]
        labels = dbscan(pts, eps, min_pts)
        assert np.array_equal(labels, naive_dbscan(pts, eps, min_pts))
        counts = cKDTree(pts).query_ball_point(pts, eps, return_length=True)
        assert labels.max() == 2
        assert ((counts < min_pts) & (labels >= 0)).sum() == 3  # the border points
        assert (labels == NOISE).sum() == 2

    def test_clusters_far_from_origin(self):
        # cells anchor at the points, so a set 2,000 m out, past the +-2^20
        # cells of 1 mm around the origin, clusters as it does at the origin
        rng = np.random.default_rng(15)
        pts = np.vstack([rng.normal(scale=2e-4, size=(40, 3)), rng.normal(scale=2e-4, size=(40, 3)) + [0.1, 0, 0]])
        labels = dbscan(pts + 2000.0, eps=0.001, min_pts=5)
        assert labels.max() == 1
        assert np.array_equal(labels, dbscan(pts, eps=0.001, min_pts=5))

    @pytest.mark.parametrize("far", [1048.5755, 5000.0])
    def test_extent_past_the_packable_cells(self, far):
        # core points 2^20 - 1 and about 5e6 cells of 1 mm apart: the cells
        # widen so that they pack, and the labels stay exact
        pts = np.array([[0.0, 0, 0], [0.0005, 0, 0], [far, 0, 0], [far, 0.0009, 0], [far, 0.0009, 0.0009]])
        assert dbscan(pts, eps=0.001, min_pts=2).tolist() == [0, 0, 1, 1, 1]
        assert np.array_equal(dbscan(pts, 0.001, 2), naive_dbscan(pts, 0.001, 2))

    def test_duplicate_heavy_blobs(self):
        # vote-style input: thousands of near-identical points per blob
        rng = np.random.default_rng(10)
        blobs = []
        for k in range(5):
            center = rng.uniform(-0.2, 0.2, size=3)
            blobs.append(center + rng.normal(scale=1e-12, size=(3000, 3)))
        pts = np.vstack(blobs)
        labels = dbscan(pts, eps=0.01, min_pts=5)
        assert len(set(labels)) == 5
        assert NOISE not in set(labels)

    def test_repeated_positions_count_each_row(self):
        # a position repeated min_pts - 1 times is noise, min_pts times core
        eps, min_pts = 0.01, 4
        a, b = np.array([0.0, 0, 0]), np.array([1.0, 0, 0])
        pts = np.vstack([np.tile(a, (min_pts - 1, 1)), np.tile(b, (min_pts, 1))])
        assert dbscan(pts, eps, min_pts).tolist() == [NOISE] * (min_pts - 1) + [0] * min_pts
        assert np.array_equal(dbscan(pts, eps, min_pts), naive_dbscan(pts, eps, min_pts))

    def test_duplicated_border_positions(self):
        # on the x axis: cores at 0 and 0.018, each core only through its
        # neighbours; 0.009, twice, is a border point of both and joins
        # cluster 0, the one whose core row comes first; -0.004 and 0.022,
        # twice each, are border points of one cluster
        eps, min_pts = 0.01, 5
        x = [0.009, 0.022, 0.018, 0.009, -0.004, 0.0, 0.026, -0.004, 0.022, -0.008]
        pts = np.array(x)[:, None] * np.array([1.0, 0, 0])
        labels = dbscan(pts, eps, min_pts)
        assert np.array_equal(labels, naive_dbscan(pts, eps, min_pts))
        assert labels.tolist() == [0, 0, 0, 0, 1, 1, 0, 1, 0, 1]
        counts = cKDTree(pts).query_ball_point(pts, eps, return_length=True)
        assert np.nonzero(counts >= min_pts)[0].tolist() == [2, 5]

    def test_cluster_after_another_clusters_duplicates(self):
        # cluster 1's first row follows every copy of cluster 0's position,
        # and cluster 0's position recurs after it: numbering follows the
        # smallest core row, not the order of distinct positions
        eps, min_pts = 0.01, 3
        a, b, c = np.array([0.0, 0, 0]), np.array([0.5, 0, 0]), np.array([0.5, 0.005, 0])
        pts = np.vstack([np.tile(b, (4, 1)), np.tile(a, (3, 1)), c, np.tile(b, (2, 1)), np.tile(a, (2, 1))])
        labels = dbscan(pts, eps, min_pts)
        assert np.array_equal(labels, naive_dbscan(pts, eps, min_pts))
        assert labels.tolist() == [0] * 4 + [1] * 3 + [0] * 3 + [1] * 2

    @pytest.mark.parametrize("jitter", [0.0, 1e-3])
    def test_vote_heaps_match_naive_reference(self, jitter):
        # heaps of repeated positions, exact or jittered, with stray noise
        # rows; rows shuffled so copies of one position interleave
        rng = np.random.default_rng(16 if jitter else 17)
        eps, min_pts = 0.01, 5
        for trial in range(40):
            heaps = rng.uniform(-0.05, 0.05, size=(int(rng.integers(1, 6)), 3))
            sizes = rng.integers(1, 60, size=len(heaps))
            pts = np.repeat(heaps, sizes, axis=0)
            pts = pts + jitter * rng.normal(size=pts.shape) * (rng.random(len(pts)) < 0.5)[:, None]
            pts = np.vstack([pts, rng.uniform(-0.06, 0.06, size=(int(rng.integers(0, 20)), 3))])
            pts = pts[rng.permutation(len(pts))]
            assert np.array_equal(dbscan(pts, eps, min_pts), naive_dbscan(pts, eps, min_pts)), \
                f"trial {trial}"

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_point_rejected(self, bad):
        pts = np.zeros((4, 3))
        pts[2, 1] = bad
        with pytest.raises(DataError, match="finite"):
            dbscan(pts, eps=0.01, min_pts=2)

    def test_deterministic(self):
        rng = np.random.default_rng(11)
        pts = rng.normal(size=(300, 3))
        a = dbscan(pts, 0.3, 4)
        b = dbscan(pts, 0.3, 4)
        assert np.array_equal(a, b)

    def test_bad_params_rejected(self):
        with pytest.raises(DataError):
            dbscan(np.zeros((3, 3)), eps=-1.0, min_pts=2)


class TestChordalMean:
    def test_single_rotation_identity_map(self):
        R = rotation_about([1, 1, 0], 0.8)
        assert np.allclose(chordal_mean(R[None]), R, atol=1e-12)

    def test_matches_grid_search_frobenius_minimizer(self):
        rng = np.random.default_rng(12)
        for trial in range(20):
            rots = np.stack([
                rotation_about(rng.normal(size=3), rng.uniform(-0.2, 0.2)) for _ in range(6)
            ])
            mean = chordal_mean(rots)
            # grid search around the mean: no nearby rotation does better
            def cost(R):
                return np.sum((rots - R[None]) ** 2)

            base = cost(mean)
            for _ in range(60):
                axis = rng.normal(size=3)
                for ang_deg in (0.5, 1.0, 2.0):
                    R_alt = rotation_about(axis, np.deg2rad(ang_deg)) @ mean
                    assert cost(R_alt) >= base - 1e-12
            # and the mean is within 1 degree of the best grid candidate
            best_angle = 0.0
            best = base
            for _ in range(200):
                axis = rng.normal(size=3)
                ang = rng.uniform(-np.deg2rad(3), np.deg2rad(3))
                R_alt = rotation_about(axis, ang) @ mean
                c = cost(R_alt)
                if c < best:
                    best = c
                    best_angle = abs(ang)
            assert np.rad2deg(best_angle) <= 1.0


class TestAggregateVotes:
    def make_votes(self, centers, offsets, rots, conf, cls):
        return VoteSet(np.asarray(centers, dtype=float), np.asarray(offsets, dtype=float),
                       np.asarray(rots, dtype=float), np.asarray(conf, dtype=float),
                       np.asarray(cls))

    def test_identical_votes_reproduce_pose(self):
        R = rotation_about([0, 1, 0], 0.5)
        r6 = matrix_to_rot6d(R)
        votes = self.make_votes(
            centers=np.tile([0.01, 0.02, 0.03], (5, 1)),
            offsets=np.tile([0.001, -0.002, 0.0], (5, 1)),
            rots=np.tile(r6, (5, 1)),
            conf=np.ones(5),
            cls=np.full(5, 2),
        )
        poses = aggregate_votes(votes, np.zeros(5, dtype=np.int64), top_fraction=0.5)
        assert len(poses) == 1
        assert np.allclose(poses[0].translation, [0.011, 0.018, 0.03], atol=1e-12)
        assert np.allclose(poses[0].rotation, R, atol=1e-12)
        assert poses[0].class_id == 2
        assert poses[0].support == 5

    def test_two_votes_mean_translation(self):
        r6 = matrix_to_rot6d(np.eye(3))
        votes = self.make_votes(
            centers=[[0.0, 0, 0], [0.0, 0, 0]],
            offsets=[[0.001, 0, 0], [-0.001, 0, 0]],
            rots=np.tile(r6, (2, 1)),
            conf=np.ones(2),
            cls=[1, 1],
        )
        poses = aggregate_votes(votes, np.zeros(2, dtype=np.int64), top_fraction=1.0)
        assert np.allclose(poses[0].translation, 0.0, atol=1e-15)

    def test_top_fraction_filters_low_confidence(self):
        r6 = matrix_to_rot6d(np.eye(3))
        votes = self.make_votes(
            centers=[[0, 0, 0], [0, 0, 0], [1, 1, 1], [0, 0, 0]],
            offsets=np.zeros((4, 3)),
            rots=np.tile(r6, (4, 1)),
            conf=[0.9, 0.8, 0.1, 0.7],
            cls=[1, 1, 1, 1],
        )
        poses = aggregate_votes(votes, np.zeros(4, dtype=np.int64), top_fraction=0.5)
        # keeps the two most confident votes, both at the origin
        assert np.allclose(poses[0].translation, 0.0, atol=1e-15)

    def test_class_majority_confidence_weighted(self):
        r6 = matrix_to_rot6d(np.eye(3))
        votes = self.make_votes(
            centers=np.zeros((3, 3)),
            offsets=np.zeros((3, 3)),
            rots=np.tile(r6, (3, 1)),
            conf=[0.4, 0.35, 0.9],
            cls=[1, 1, 3],
        )
        poses = aggregate_votes(votes, np.zeros(3, dtype=np.int64), top_fraction=1.0)
        assert poses[0].class_id == 3  # 0.9 beats 0.4 + 0.35? no: 0.75 < 0.9
        # confidence-weighted majority: class 3 carries more total confidence

    def test_noise_votes_ignored(self):
        r6 = matrix_to_rot6d(np.eye(3))
        votes = self.make_votes(
            centers=np.zeros((3, 3)),
            offsets=np.zeros((3, 3)),
            rots=np.tile(r6, (3, 1)),
            conf=np.ones(3),
            cls=[1, 1, 1],
        )
        labels = np.array([0, 0, NOISE])
        poses = aggregate_votes(votes, labels, top_fraction=1.0)
        assert len(poses) == 1
        assert poses[0].support == 2

    def test_rigid_equivariance(self):
        rng = np.random.default_rng(13)
        n = 30
        centers = rng.uniform(-0.1, 0.1, size=(n, 3))
        offsets = rng.normal(scale=0.005, size=(n, 3))
        rots6 = matrix_to_rot6d(np.stack([
            rotation_about(rng.normal(size=3), rng.uniform(-0.1, 0.1)) for _ in range(n)
        ]))
        conf = rng.uniform(0.5, 1.0, size=n)
        cls = rng.integers(1, 4, size=n)
        votes = self.make_votes(centers, offsets, rots6, conf, cls)
        labels = np.zeros(n, dtype=np.int64)
        base = aggregate_votes(votes, labels, top_fraction=0.5)[0]

        T_R = rotation_about([0.3, -0.5, 1.0], 0.7)
        T_t = np.array([0.05, -0.02, 0.08])
        moved = self.make_votes(
            centers @ T_R.T + T_t,
            offsets @ T_R.T,
            matrix_to_rot6d(np.einsum("ij,njk->nik", T_R, rot6d_to_matrix(rots6))),
            conf,
            cls,
        )
        out = aggregate_votes(moved, labels, top_fraction=0.5)[0]
        assert np.allclose(out.translation, T_R @ base.translation + T_t, atol=1e-9)
        assert np.allclose(out.rotation, T_R @ base.rotation, atol=1e-9)


class TestIcp:
    def make_cloud(self, seed=14, n=800):
        rng = np.random.default_rng(seed)
        # a box-like shell with distinct structure for stable alignment
        pts = rng.uniform(-0.03, 0.03, size=(n, 3))
        axis = rng.integers(0, 3, size=n)
        side = rng.integers(0, 2, size=n)
        for i in range(n):
            pts[i, axis[i]] = (-0.03, 0.03)[side[i]]
        pts[:, 2] *= 0.5
        return pts

    def test_aligned_pose_fixed_point(self):
        cloud = self.make_cloud()
        pose = Pose(np.eye(3), np.zeros(3), class_id=1)
        refined, trace = icp_refine(pose, cKDTree(cloud), cKDTree(cloud), corr_dist=0.01)
        assert np.allclose(refined.rotation, np.eye(3), atol=1e-9)
        assert np.allclose(refined.translation, 0.0, atol=1e-9)

    def test_perturbation_recovery(self):
        rng = np.random.default_rng(15)
        cloud = self.make_cloud()
        tree = cKDTree(cloud)
        for trial in range(10):
            axis = rng.normal(size=3)
            R0 = rotation_about(axis, np.deg2rad(5.0))
            t0 = rng.normal(size=3)
            t0 = 0.005 * t0 / np.linalg.norm(t0)
            pose = Pose(R0, t0, class_id=1)
            refined, trace = icp_refine(pose, tree, tree, iters=30, corr_dist=0.02)
            ang = np.rad2deg(np.arccos(np.clip((np.trace(refined.rotation) - 1) / 2, -1, 1)))
            assert ang < 0.5, f"trial {trial}: {ang} deg"
            assert np.linalg.norm(refined.translation) < 5e-4
            assert refined.refined

    def test_rmse_non_increasing_noiseless(self):
        rng = np.random.default_rng(16)
        cloud = self.make_cloud()
        tree = cKDTree(cloud)
        R0 = rotation_about(rng.normal(size=3), np.deg2rad(5.0))
        pose = Pose(R0, np.array([0.004, -0.003, 0.002]), class_id=1)
        _, trace = icp_refine(pose, tree, tree, iters=30, corr_dist=0.02)
        diffs = np.diff(np.array(trace))
        assert np.all(diffs <= 1e-12)

    def test_empty_overlap_flagged_unrefined(self):
        cloud = self.make_cloud()
        pose = Pose(np.eye(3), np.array([10.0, 0, 0]), class_id=1)  # far outside
        refined, _ = icp_refine(pose, cKDTree(cloud), cKDTree(cloud), corr_dist=0.01)
        assert not refined.refined
        assert np.allclose(refined.translation, [10.0, 0, 0])

    def test_batched_refines_each_object(self):
        cloud = self.make_cloud()
        shift = np.array([0.5, 0.0, 0.0])
        scene = np.vstack([cloud, cloud + shift])
        poses = [
            Pose(np.eye(3), np.array([0.002, 0, 0]), class_id=1),
            Pose(np.eye(3), shift + np.array([0, 0.002, 0]), class_id=1),
        ]
        tree = cKDTree(scene)  # one shared scene tree, independent correspondences per pose
        out = [icp_refine(pose, cKDTree(cloud), tree, corr_dist=0.02)[0] for pose in poses]
        assert np.linalg.norm(out[0].translation) < 5e-4
        assert np.linalg.norm(out[1].translation - shift) < 5e-4

    def test_far_clutter_leaves_pose_bit_identical(self):
        # the target is cropped around the pose once per call and kept in
        # scene order: points appended far away change the scene tree, not the fit
        rng = np.random.default_rng(23)
        cloud = self.make_cloud(seed=24)
        front = cloud[cloud[:, 2] > -0.01]  # a partial, noisy view
        scene = front + rng.normal(scale=3e-4, size=front.shape)
        model_tree, tree = cKDTree(cloud), cKDTree(scene)
        cluttered = cKDTree(np.vstack([scene, rng.uniform(0.2, 0.3, size=(500, 3))]))
        for trial in range(10):
            R0 = rotation_about(rng.normal(size=3), np.deg2rad(5.0))
            t0 = rng.normal(size=3)
            t0 *= 0.005 / np.linalg.norm(t0)
            pose = Pose(R0, t0, class_id=1)
            out, trace = icp_refine(pose, model_tree, tree, corr_dist=0.01)
            far, far_trace = icp_refine(pose, model_tree, cluttered, corr_dist=0.01)
            assert np.array_equal(out.rotation, far.rotation), f"trial {trial}"
            assert np.array_equal(out.translation, far.translation), f"trial {trial}"
            assert trace == far_trace and len(trace) > 1, f"trial {trial}"


class TestPoseIO:
    def test_json_roundtrip(self, tmp_path):
        poses = [
            Pose(rotation_about([0, 0, 1], 0.3), np.array([0.1, 0.2, 0.3]), class_id=2,
                 confidence=0.75, support=12, refined=True)
        ]
        path = tmp_path / "poses.json"
        write_pose_json(path, poses, seed=7)
        loaded = read_pose_json(path)
        assert len(loaded) == 1
        assert np.allclose(loaded[0].rotation, poses[0].rotation)
        assert np.allclose(loaded[0].translation, poses[0].translation)
        assert loaded[0].class_id == 2 and loaded[0].refined

    @pytest.mark.parametrize("rotation, translation", [
        (np.full((3, 3), np.nan), np.zeros(3)),
        (np.eye(3), np.array([0.0, np.inf, 0.0])),
    ])
    def test_non_finite_pose_rejected(self, rotation, translation):
        with pytest.raises(DataError):
            Pose(rotation, translation, class_id=1)

    def test_csv_contains_seed_and_schema(self, tmp_path):
        poses = [Pose(np.eye(3), np.zeros(3), class_id=1)]
        path = tmp_path / "poses.csv"
        write_pose_csv(path, poses, seed=42)
        text = path.read_text()
        lines = text.splitlines()
        assert lines[0] == "# seed=42"
        assert lines[1].startswith("object_id,class_id,confidence,r00")
        assert len(lines) == 3

    def test_csv_bytes_pinned(self, tmp_path):
        # every line, header and data row alike, ends in "\n"
        path = tmp_path / "poses.csv"
        pose = Pose(np.eye(3), np.array([0.1, -0.2, 0.3]), class_id=2, confidence=0.75, refined=True)
        write_pose_csv(path, [pose], seed=3)
        assert path.read_bytes() == (
            b"# seed=3\n"
            b"object_id,class_id,confidence,r00,r01,r02,r10,r11,r12,r20,r21,r22,tx,ty,tz,refined\n"
            b"0,2,0.75,1,0,0,0,1,0,0,0,1,0.10000000000000001,-0.20000000000000001,0.29999999999999999,1\n"
        )
