import numpy as np
import pytest

from conftest import scene_gt
from oracles import dense_voxel_object_assignment
from sparsepose.errors import DataError
from sparsepose.grid import SparseVoxelGrid, voxelize
from sparsepose.heatmap import (
    MIN_VOTE_CONFIDENCE,
    adaptive_topk,
    class_weights,
    focal_loss,
    gaussian_focal_loss,
    objectness_target,
    roi_target,
    soft_suppress,
    voxel_object_assignment,
    weighted_cross_entropy,
)


def grid_from_indices(indices, theta=0.02, origin=(0.0, 0.0, 0.0)):
    idx = np.atleast_2d(np.asarray(indices, dtype=np.int64))
    return SparseVoxelGrid(theta, np.asarray(origin, dtype=np.float64), idx, np.ones((len(idx), 1)))


def fd_gradient(fn, x, eps=1e-6):
    g = np.zeros_like(x)
    flat = x.reshape(-1)
    gf = g.reshape(-1)
    for i in range(flat.size):
        orig = flat[i]
        flat[i] = orig + eps
        hi = fn(x)
        flat[i] = orig - eps
        lo = fn(x)
        flat[i] = orig
        gf[i] = (hi - lo) / (2 * eps)
    return g


class TestRoiTarget:
    def test_empty_gt_all_zero(self):
        grid = grid_from_indices([[0, 0, 0], [1, 1, 1]])
        gt = scene_gt(np.zeros((0, 3)), [], np.zeros(0, dtype=np.int64))
        H = roi_target(grid, gt, 6.0, 4.0)
        assert np.array_equal(H, np.zeros(2))

    def test_voxel_on_centroid_and_surface_scores_one(self):
        grid = grid_from_indices([[0, 0, 0]])
        center = grid.centers()[0]
        gt = scene_gt(center[None, :], [center[None, :]], np.array([1]))
        H = roi_target(grid, gt, 6.0, 4.0)
        assert H[0] == pytest.approx(1.0)

    def test_analytic_distance_weighting(self):
        # voxel at a centroid, nearest boundary point 2 coarse-voxel units away,
        # sigma_c = 6, sigma_b = 4:  H = (1 + exp(-4/16)) / 2 ~ 0.8894
        grid = grid_from_indices([[0, 0, 0]], theta=0.02)
        center = grid.centers()[0]
        boundary = center + np.array([2 * 0.02, 0.0, 0.0])
        gt = scene_gt(center[None, :], [boundary[None, :]], np.array([1]))
        H = roi_target(grid, gt, sigma_c=6.0, sigma_b=4.0)
        expected = 0.5 * (1.0 + np.exp(-4.0 / 16.0))
        assert H[0] == pytest.approx(expected, abs=1e-9)
        assert expected == pytest.approx(0.8894, abs=5e-5)

    def test_range_and_monotonicity(self):
        rng = np.random.default_rng(0)
        grid = grid_from_indices(rng.integers(-10, 10, size=(100, 3)))
        c = rng.uniform(-0.1, 0.1, size=(2, 3))
        clouds = [rng.uniform(-0.1, 0.1, size=(50, 3)) for _ in range(2)]
        gt = scene_gt(c, clouds, np.array([1, 2]))
        sigma_c, sigma_b = 6.0, 4.0
        H = roi_target(grid, gt, sigma_c, sigma_b)
        assert np.all((H >= 0) & (H <= 1))
        # recompute via the definition with explicit min distances
        pos = grid.centers() / grid.resolution
        d_c = np.min(np.linalg.norm(pos[:, None, :] - c[None] / grid.resolution, axis=2), axis=1)
        allpts = np.concatenate(clouds) / grid.resolution
        d_b = np.min(np.linalg.norm(pos[:, None, :] - allpts[None], axis=2), axis=1)
        brute = 0.5 * (np.exp(-d_c**2 / sigma_c**2) + np.exp(-d_b**2 / sigma_b**2))
        assert np.allclose(H, brute, atol=1e-12)


class TestGaussianFocalLoss:
    def test_perfect_positive_limit(self):
        loss, _ = gaussian_focal_loss(np.array([1.0 - 1e-9]), np.array([1.0]))
        assert loss < 1e-6

    def test_perfect_negative_limit(self):
        loss, _ = gaussian_focal_loss(np.array([1e-9]), np.array([0.0]))
        assert loss < 1e-6

    def test_analytic_value(self):
        # H = 1, p = 0.5, gamma = 2: L = 0.25 ln 2
        loss, _ = gaussian_focal_loss(np.array([0.5]), np.array([1.0]), alpha=4.0, gamma=2.0)
        assert loss == pytest.approx(0.25 * np.log(2.0), abs=1e-12)

    def test_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(1)
        p = rng.uniform(0.05, 0.95, size=24)
        h = rng.uniform(0.0, 1.0, size=24)
        _, grad = gaussian_focal_loss(p, h)
        num = fd_gradient(lambda x: gaussian_focal_loss(x, h)[0], p.copy())
        denom = np.maximum(1.0, np.maximum(np.abs(grad), np.abs(num)))
        assert np.max(np.abs(grad - num) / denom) < 1e-6

    def test_shape_mismatch_rejected(self):
        with pytest.raises(DataError):
            gaussian_focal_loss(np.zeros(3), np.zeros(4))


class TestSoftSuppress:
    def test_at_epsilon_half(self):
        a, _ = soft_suppress(np.array([0.3]), beta=10.0, epsilon=0.3, kappa=0.5)
        assert a[0] == pytest.approx(0.5)

    def test_large_beta_step(self):
        a, _ = soft_suppress(np.array([0.299, 0.301]), beta=1e4, epsilon=0.3, kappa=0.5)
        assert a[0] < 1e-4
        assert a[1] > 1 - 1e-4

    def test_analytic_keep(self):
        a, kept = soft_suppress(np.array([0.8]), beta=10.0, epsilon=0.3, kappa=0.5)
        assert a[0] == pytest.approx(1.0 / (1.0 + np.exp(-5.0)), abs=1e-9)
        assert a[0] == pytest.approx(0.99331, abs=5e-6)
        assert list(kept) == [0]

    def test_keep_set_monotone_in_kappa(self):
        rng = np.random.default_rng(2)
        scores = rng.random(200)
        k1 = set(soft_suppress(scores, beta=10.0, epsilon=0.3, kappa=0.3)[1])
        k2 = set(soft_suppress(scores, beta=10.0, epsilon=0.3, kappa=0.7)[1])
        assert k2 <= k1


class TestObjectnessTarget:
    def test_empty_gt(self):
        grid = grid_from_indices([[0, 0, 0]])
        gt = scene_gt(np.zeros((0, 3)), [], np.zeros(0, dtype=np.int64))
        assert np.array_equal(objectness_target(grid, gt), np.zeros(1))

    def test_voxel_with_model_point(self):
        grid = grid_from_indices([[0, 0, 0], [5, 5, 5]], theta=0.02)
        pt = grid.centers()[0]
        gt = scene_gt(pt[None, :], [pt[None, :]], np.array([1]))
        y = objectness_target(grid, gt)
        assert y[0] == 1.0 and y[1] == 0.0

    def test_matches_brute_force(self):
        rng = np.random.default_rng(3)
        pts = rng.uniform(-0.1, 0.1, size=(300, 3))
        fine = voxelize(pts, 0.01, np.array([-0.12] * 3))
        cloud = rng.uniform(-0.1, 0.1, size=(80, 3))
        gt = scene_gt(cloud.mean(axis=0, keepdims=True), [cloud], np.array([1]))
        y = objectness_target(fine, gt)
        occupied = {tuple(v) for v in np.floor((cloud + 0.12) / 0.01).astype(np.int64)}
        brute = np.array([1.0 if tuple(v) in occupied else 0.0 for v in fine.indices])
        assert np.array_equal(y, brute)


class TestFocalLoss:
    def test_perfect_prediction(self):
        y = np.array([1.0, 0.0])
        p = np.array([1.0 - 1e-9, 1e-9])
        loss, _ = focal_loss(p, y)
        assert loss < 1e-6

    def test_analytic_positive(self):
        # y=1, p=0.5: alpha * 0.25 * ln 2 per voxel
        loss, _ = focal_loss(np.array([0.5]), np.array([1.0]), gamma_f=2.0, alpha_f=0.25)
        assert loss == pytest.approx(0.25 * 0.25 * np.log(2.0), abs=1e-12)
        assert loss == pytest.approx(0.04332, abs=5e-6)

    def test_analytic_negative(self):
        # y=0, p=0.5 with one positive elsewhere for normalization
        p = np.array([0.5, 1.0 - 1e-12])
        y = np.array([0.0, 1.0])
        loss, _ = focal_loss(p, y, gamma_f=2.0, alpha_f=0.25)
        assert loss == pytest.approx(0.75 * 0.25 * np.log(2.0), abs=1e-9)
        assert loss == pytest.approx(0.12997, abs=5e-5)  # (1-0.25) * 0.25 * ln 2

    def test_normalized_by_positive_count(self):
        p = np.full(8, 0.5)
        y = np.zeros(8)
        y[:2] = 1.0
        loss, _ = focal_loss(p, y)
        per_pos = 0.25 * 0.25 * np.log(2.0)
        per_neg = 0.75 * 0.25 * np.log(2.0)
        assert loss == pytest.approx((2 * per_pos + 6 * per_neg) / 2, abs=1e-9)

    def test_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(4)
        p = rng.uniform(0.05, 0.95, size=20)
        y = (rng.random(20) < 0.3).astype(float)
        _, grad = focal_loss(p, y)
        num = fd_gradient(lambda x: focal_loss(x, y)[0], p.copy())
        denom = np.maximum(1.0, np.maximum(np.abs(grad), np.abs(num)))
        assert np.max(np.abs(grad - num) / denom) < 1e-6


class TestAdaptiveTopk:
    """The pose rows: those scoring at least MIN_VOTE_CONFIDENCE, the floor
    `votes_to_poses` applies to votes, and at most the k_max best of them."""

    below = np.nextafter(MIN_VOTE_CONFIDENCE, 0.0)

    def test_score_at_the_floor_is_kept(self):
        scores = np.array([MIN_VOTE_CONFIDENCE, self.below, 0.9, self.below, MIN_VOTE_CONFIDENCE])
        assert list(adaptive_topk(scores, k_max=10)) == [0, 2, 4]

    def test_nan_is_never_kept(self):
        scores = np.array([np.nan, 0.9, np.nan, 0.5])
        assert list(adaptive_topk(scores, k_max=10)) == [1, 3]
        assert list(adaptive_topk(scores, k_max=1)) == [1]

    def test_cap_keeps_the_k_max_best(self):
        scores = np.array([0.2, 0.9, 0.4, 0.8, 0.35, 0.6, 0.1])
        assert list(adaptive_topk(scores, k_max=3)) == [1, 3, 5]
        assert list(adaptive_topk(scores, k_max=5)) == [1, 2, 3, 4, 5]

    def test_ties_go_to_smaller_row(self):
        scores = np.array([0.5, 1.0, 1.0, 1.0, 0.5])
        assert list(adaptive_topk(scores, k_max=2)) == [1, 2]

    def test_ties_go_to_smaller_voxel_on_a_sorted_grid(self):
        rng = np.random.default_rng(6)
        idx = np.unique(rng.integers(0, 20, size=(30, 3)), axis=0)  # a grid's rows: sorted, unique
        scores = rng.choice([0.1, 0.5, 0.9], size=len(idx))
        k_max = int((scores == 0.9).sum()) + 2
        assert (scores == 0.5).sum() > 2  # the cap splits the tied 0.5 rows
        # oracle: the rows at or above the floor by (-score, voxel index), the first k_max
        passing = [i for i in range(len(idx)) if scores[i] >= MIN_VOTE_CONFIDENCE]
        order = sorted(passing, key=lambda i: (-scores[i], tuple(idx[i])))
        assert list(adaptive_topk(scores, k_max)) == sorted(order[:k_max])

    def test_nothing_at_the_floor_keeps_no_row(self):
        assert len(adaptive_topk(np.full(6, self.below), k_max=4)) == 0

    def test_empty_input(self):
        assert len(adaptive_topk(np.zeros(0), k_max=4)) == 0


class TestClassWeightsAndWce:
    def test_inverse_frequency_weights(self):
        # frequencies (90, 10): raw inverse-frequency weights N/(K N_c)
        # are (0.5556, 5.0); after mean-1 normalization (0.2, 1.8)
        labels = np.array([0] * 90 + [1] * 10)
        w = class_weights(labels, 2)
        raw = np.array([100 / (2 * 90), 100 / (2 * 10)])
        assert raw == pytest.approx([0.5556, 5.0], abs=5e-4)
        assert np.allclose(w, raw / raw.mean())
        assert w.mean() == pytest.approx(1.0)

    def test_one_hot_correct_logits_vanish(self):
        labels = np.array([0, 1, 2])
        logits = np.eye(3) * 50.0
        loss, _ = weighted_cross_entropy(logits, labels)
        assert loss < 1e-12

    def test_uniform_logits_log_k(self):
        labels = np.array([0, 1, 2, 3])
        logits = np.zeros((4, 4))
        loss, _ = weighted_cross_entropy(logits, labels)
        assert loss == pytest.approx(np.log(4.0), abs=1e-12)

    def test_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(7)
        logits = rng.normal(size=(6, 4))
        labels = rng.integers(0, 4, size=6)
        w = class_weights(labels, 4)
        _, grad = weighted_cross_entropy(logits, labels, w)
        num = fd_gradient(lambda z: weighted_cross_entropy(z, labels, w)[0], logits.copy())
        denom = np.maximum(1.0, np.maximum(np.abs(grad), np.abs(num)))
        assert np.max(np.abs(grad - num) / denom) < 1e-6


class TestVoxelObjectAssignment:
    def test_majority_ownership(self):
        grid = grid_from_indices([[0, 0, 0]], theta=0.1)
        center = grid.centers()[0]
        # object 0 has 1 point in the voxel, object 1 has 3
        c0 = center[None, :]
        c1 = np.tile(center, (3, 1)) + np.array([[0.001, 0, 0], [0, 0.001, 0], [0, 0, 0.001]])
        gt = scene_gt(np.stack([center + 1.0, center]), [c0, c1], np.array([1, 2]))
        owner = voxel_object_assignment(grid, gt)
        assert owner[0] == 1

    def test_background_unassigned(self):
        grid = grid_from_indices([[0, 0, 0], [50, 50, 50]], theta=0.01)
        pt = grid.centers()[0]
        gt = scene_gt(pt[None, :], [pt[None, :]], np.array([1]))
        owner = voxel_object_assignment(grid, gt)
        assert owner[1] == -1

    @staticmethod
    def per_object_reference(grid, gt):
        """One row lookup per object cloud, counts summed column by column."""
        counts = np.zeros((len(grid), gt.n_objects), dtype=np.int64)
        for j, cloud in enumerate(gt.object_clouds):
            rows = grid.row_lookup(np.floor((cloud - grid.origin) / grid.resolution).astype(np.int64))
            rows = rows[rows >= 0]
            counts[:, j] += np.bincount(rows, minlength=len(grid))
        owner = np.full(len(grid), -1, dtype=np.int64)
        for r in np.nonzero(counts.sum(axis=1) > 0)[0]:
            tied = np.nonzero(counts[r] == counts[r].max())[0]
            d = np.linalg.norm(gt.centroids[tied] - grid.centers()[r], axis=1)
            owner[r] = tied[np.argmin(d)]
        return owner

    @staticmethod
    def random_scenes():
        """25 seeded (grid, gt) pairs: a holed 6^3 block, clouds that spill
        past it and, with two or more objects, an equal-count tie."""
        rng = np.random.default_rng(41)
        theta = 0.01
        for trial in range(25):
            # a 6^3 block with holes; clouds spill past it, so some points miss
            cells = np.stack(np.meshgrid(*[np.arange(6)] * 3, indexing="ij"), axis=-1).reshape(-1, 3)
            cells = cells[rng.random(len(cells)) < 0.6]
            grid = grid_from_indices(cells, theta=theta, origin=(0.1, -0.2, 0.05))
            m = int(rng.integers(1, 6))
            clouds = []
            for _ in range(m):
                lo = rng.uniform(-0.01, 0.04, size=3)
                clouds.append(grid.origin + lo + rng.uniform(0, 0.04, size=(int(rng.integers(1, 60)), 3)))
            # equal-count ties: two objects with the same points in one voxel
            if m >= 2:
                tie = grid.centers()[0] + rng.uniform(-0.004, 0.004, size=(3, 3))
                clouds[0] = np.vstack([clouds[0], tie])
                clouds[1] = np.vstack([clouds[1], tie])
            centroids = np.stack([c.mean(axis=0) for c in clouds])
            yield grid, scene_gt(centroids, clouds, rng.integers(1, 5, size=m))

    def test_matches_per_object_reference(self):
        for trial, (grid, gt) in enumerate(self.random_scenes()):
            owner = voxel_object_assignment(grid, gt)
            assert np.array_equal(owner, self.per_object_reference(grid, gt)), f"trial {trial}"
            assert (owner >= 0).any() and (owner < 0).any()

    @staticmethod
    def equidistant_scenes():
        """25 seeded (grid, gt, row) triples on an exact binary lattice: two
        to five objects put the same points, and only those, into the voxel
        at `row` and have centroids exactly 0.5 m from its center, so count
        and distance both tie there."""
        rng = np.random.default_rng(43)
        theta = 0.25
        for trial in range(25):
            cells = np.stack(np.meshgrid(*[np.arange(4)] * 3, indexing="ij"), axis=-1).reshape(-1, 3)
            cells = cells[rng.random(len(cells)) < 0.6]
            grid = grid_from_indices(cells, theta=theta)
            m = int(rng.integers(2, 6))
            tie_row = int(rng.integers(len(cells)))
            center = grid.centers()[tie_row]
            tie = center + rng.uniform(-0.1, 0.1, size=(int(rng.integers(1, 4)), 3))
            away = rng.choice([-0.5, 0.5], size=m)[:, None] * np.eye(3)[rng.integers(0, 3, size=m)]
            extra = [rng.uniform(-0.1, 1.1, size=(int(rng.integers(1, 30)), 3)) for _ in range(m)]
            clouds = [np.vstack([tie, e[np.any(np.floor(e / theta) != cells[tie_row], axis=1)]]) for e in extra]
            yield grid, scene_gt(center + away, clouds, rng.integers(1, 5, size=m)), tie_row

    def test_matches_dense_table(self):
        # the pair counts pick the owner the dense (voxels x objects) table
        # picked, equal counts at equal centroid distances included
        for trial, (grid, gt) in enumerate(self.random_scenes()):
            assert np.array_equal(voxel_object_assignment(grid, gt),
                                  dense_voxel_object_assignment(grid, gt)), f"trial {trial}"
        for trial, (grid, gt, tie_row) in enumerate(self.equidistant_scenes()):
            owner = voxel_object_assignment(grid, gt)
            assert np.array_equal(owner, dense_voxel_object_assignment(grid, gt)), f"trial {trial}"
            dist = np.linalg.norm(gt.centroids - grid.centers()[tie_row], axis=1)
            assert np.all(dist == 0.5)
            assert owner[tie_row] == 0

    def test_objectness_is_ownership(self):
        for trial, (grid, gt) in enumerate(self.random_scenes()):
            y = objectness_target(grid, gt)
            assert np.array_equal(y, (voxel_object_assignment(grid, gt) >= 0).astype(np.float64)), f"trial {trial}"
