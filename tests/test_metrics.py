import numpy as np
import pytest

from sparsepose.errors import DataError
from sparsepose.metrics import add, add_s, auc, evaluate_scene, match_poses, mspd, mssd, recall_curve, write_metric_csv
from sparsepose.synthetic import default_intrinsics, look_at_extrinsics, make_primitives
from sparsepose.voting import Pose


def rotation_about(axis, angle):
    axis = np.asarray(axis, dtype=np.float64)
    axis = axis / np.linalg.norm(axis)
    K = np.array([[0, -axis[2], axis[1]], [axis[2], 0, -axis[0]], [-axis[1], axis[0], 0]])
    return np.eye(3) + np.sin(angle) * K + (1 - np.cos(angle)) * (K @ K)


def z_rotations(steps):
    return [rotation_about([0, 0, 1], 2 * np.pi * k / steps) for k in range(steps)]


class TestAdd:
    def test_identical_poses_zero(self):
        rng = np.random.default_rng(0)
        pts = rng.normal(size=(100, 3))
        R = rotation_about([1, 0, 0], 0.4)
        t = np.array([0.1, 0.2, 0.3])
        assert add(R, t, R, t, pts) == 0.0

    def test_pure_translation_is_norm(self):
        rng = np.random.default_rng(1)
        pts = rng.normal(size=(50, 3))
        e = np.array([0.003, -0.004, 0.012])
        assert add(np.eye(3), e, np.eye(3), np.zeros(3), pts) == pytest.approx(np.linalg.norm(e), rel=1e-12)

    def test_rotation_matches_brute_force(self):
        # 90-degree z-rotation of a unit-square cloud
        pts = np.array([[1.0, 0, 0], [0, 1.0, 0], [-1.0, 0, 0], [0, -1.0, 0]])
        R = rotation_about([0, 0, 1], np.pi / 2)
        brute = np.mean([np.linalg.norm(R @ p - p) for p in pts])
        assert add(R, np.zeros(3), np.eye(3), np.zeros(3), pts) == pytest.approx(brute, rel=1e-12)

    def test_empty_model_rejected(self):
        with pytest.raises(DataError):
            add(np.eye(3), np.zeros(3), np.eye(3), np.zeros(3), np.zeros((0, 3)))


class TestAddS:
    def test_identical_poses_zero(self):
        rng = np.random.default_rng(2)
        pts = rng.normal(size=(80, 3))
        assert add_s(np.eye(3), np.zeros(3), np.eye(3), np.zeros(3), pts) == 0.0

    def test_cylinder_axis_rotation_near_zero(self):
        rng = np.random.default_rng(3)
        ang = rng.uniform(0, 2 * np.pi, size=2000)
        z = rng.uniform(-0.02, 0.02, size=2000)
        cyl = np.column_stack([0.01 * np.cos(ang), 0.01 * np.sin(ang), z])
        R = rotation_about([0, 0, 1], 0.7)
        err = add_s(R, np.zeros(3), np.eye(3), np.zeros(3), cyl)
        # below the sampling spacing of the cloud
        assert err < np.sqrt((2 * np.pi * 0.01 * 0.04) / 2000)

    def test_adds_never_exceeds_add(self):
        rng = np.random.default_rng(4)
        pts = rng.normal(size=(60, 3)) * 0.03
        for _ in range(1000):
            R1 = rotation_about(rng.normal(size=3), rng.uniform(-np.pi, np.pi))
            R2 = rotation_about(rng.normal(size=3), rng.uniform(-np.pi, np.pi))
            t1 = rng.normal(size=3) * 0.01
            t2 = rng.normal(size=3) * 0.01
            assert add_s(R1, t1, R2, t2, pts) <= add(R1, t1, R2, t2, pts) + 1e-12


class TestAuc:
    def test_all_zero_errors(self):
        assert auc(np.zeros(10)) == 1.0

    def test_all_beyond_max(self):
        assert auc(np.full(10, 0.5), max_threshold=0.1) == 0.0

    def test_single_error_at_half_max(self):
        assert auc(np.array([0.05]), max_threshold=0.1, steps=100) == pytest.approx(0.5, abs=1e-2)

    def test_step_function_integral(self):
        # errors at 0.025 and 0.075: accuracy ramps 0 -> 0.5 -> 1.0
        val = auc(np.array([0.025, 0.075]), max_threshold=0.1, steps=100)
        expected = (0.5 * 50 + 1.0 * 25 + 0.0 * 25 + 0.5 * 0) / 100  # piecewise count
        # brute force:
        ths = 0.1 * np.arange(1, 101) / 100
        brute = np.mean([(np.array([0.025, 0.075]) < t).mean() for t in ths])
        assert val == pytest.approx(brute, rel=1e-12)

    def test_inf_errors_count_as_misses(self):
        assert auc(np.array([0.0, np.inf])) == pytest.approx(0.5)


class TestMssd:
    def test_exact_pose_zero(self):
        lib = make_primitives()
        m = lib["box"]
        R = rotation_about([0, 1, 0], 0.3)
        t = np.array([0.05, 0.0, 0.02])
        assert mssd(R, t, R, t, m.mesh.vertices, m.symmetries) == 0.0

    def test_symmetry_adjusted_estimate_zero(self):
        lib = make_primitives()
        m = lib["box"]
        R_gt = rotation_about([1, 1, 0], 0.5)
        t = np.array([0.01, 0.02, 0.03])
        s = m.symmetries[1]  # 90-degree z-rotation
        R_est = R_gt @ s
        assert mssd(R_est, t, R_gt, t, m.mesh.vertices, m.symmetries) < 1e-12

    def test_identity_set_reduces_to_max_vertex_distance(self):
        rng = np.random.default_rng(5)
        verts = rng.normal(size=(40, 3)) * 0.02
        R = rotation_about([0, 0, 1], 0.2)
        brute = np.max([np.linalg.norm(R @ v - v) for v in verts])
        assert mssd(R, np.zeros(3), np.eye(3), np.zeros(3), verts, [np.eye(3)]) == pytest.approx(brute, rel=1e-12)

    def test_cylinder_36_step_attained_at_nearest_step(self):
        # estimate rotated 10 degrees about the axis: with 36 steps of 10
        # degrees, the nearest symmetry cancels the rotation exactly
        rng = np.random.default_rng(6)
        ang = rng.uniform(0, 2 * np.pi, size=300)
        z = rng.uniform(-0.02, 0.02, size=300)
        verts = np.column_stack([0.01 * np.cos(ang), 0.01 * np.sin(ang), z])
        syms = z_rotations(36)
        R_est = rotation_about([0, 0, 1], np.deg2rad(10.0))
        val = mssd(R_est, np.zeros(3), np.eye(3), np.zeros(3), verts, syms)
        brute = min(
            np.max(np.linalg.norm(verts @ R_est.T - (verts @ s.T), axis=1))
            for s in syms
        )
        assert val == pytest.approx(brute, rel=1e-12)
        assert val < 1e-12  # 10 degrees is exactly one symmetry step

    def test_enlarging_symmetry_set_never_increases(self):
        rng = np.random.default_rng(7)
        verts = rng.normal(size=(30, 3)) * 0.02
        R_est = rotation_about(rng.normal(size=3), 0.4)
        small = z_rotations(4)
        large = z_rotations(12)  # superset group containing the 4-step set
        v_small = mssd(R_est, np.zeros(3), np.eye(3), np.zeros(3), verts, small)
        v_large = mssd(R_est, np.zeros(3), np.eye(3), np.zeros(3), verts, large)
        assert v_large <= v_small + 1e-15

    def test_rigid_invariance(self):
        rng = np.random.default_rng(8)
        verts = rng.normal(size=(25, 3)) * 0.02
        R_est = rotation_about(rng.normal(size=3), 0.3)
        t_est = rng.normal(size=3) * 0.01
        R_gt = rotation_about(rng.normal(size=3), -0.2)
        t_gt = rng.normal(size=3) * 0.01
        syms = z_rotations(4)
        base = mssd(R_est, t_est, R_gt, t_gt, verts, syms)
        T_R = rotation_about([1, 2, 3], 0.9)
        T_t = np.array([0.1, -0.2, 0.05])
        moved = mssd(T_R @ R_est, T_R @ t_est + T_t, T_R @ R_gt, T_R @ t_gt + T_t, verts, syms)
        assert moved == pytest.approx(base, rel=1e-9)


class TestMspd:
    def setup_camera(self):
        intr = default_intrinsics(width=320, height=240, focal=300.0)
        extr = look_at_extrinsics((0.0, 0.0, 0.6), (0.0, 0.0, 0.0))
        return intr, extr

    def test_exact_pose_zero(self):
        lib = make_primitives()
        m = lib["tube"]
        intr, extr = self.setup_camera()
        R = rotation_about([0, 1, 0], 0.2)
        t = np.array([0.0, 0.0, 0.02])
        assert mspd(R, t, R, t, m.mesh.vertices, m.symmetries, intr, extr) == 0.0

    def test_symmetry_zero(self):
        lib = make_primitives()
        m = lib["box"]
        intr, extr = self.setup_camera()
        R_gt = rotation_about([0, 0, 1], 0.3)
        t = np.array([0.0, 0.0, 0.01])
        R_est = R_gt @ m.symmetries[2]
        assert mspd(R_est, t, R_gt, t, m.mesh.vertices, m.symmetries, intr, extr) < 1e-9

    def test_translation_along_ray_small_mspd(self):
        # moving the object along the view ray changes pixels little but
        # moves vertices a lot: MSPD must be much smaller than MSSD in pixels
        lib = make_primitives()
        m = lib["box"]
        intr, extr = self.setup_camera()
        t_gt = np.array([0.0, 0.0, 0.0])
        t_est = np.array([0.0, 0.0, 0.05])  # toward the camera ray direction
        v_mssd = mssd(np.eye(3), t_est, np.eye(3), t_gt, m.mesh.vertices, [np.eye(3)])
        v_mspd = mspd(np.eye(3), t_est, np.eye(3), t_gt, m.mesh.vertices, [np.eye(3)], intr, extr)
        assert v_mssd == pytest.approx(0.05, rel=1e-9)
        assert v_mspd < 30.0  # pixels; pure depth shift projects to small drift


class TestRecallAndMatching:
    def test_recall_curve_monotone(self):
        errors = np.array([0.01, 0.02, 0.5, np.inf])
        th = np.array([0.015, 0.1, 1.0])
        r = recall_curve(errors, th)
        assert np.all(np.diff(r) >= 0)
        assert r[0] == pytest.approx(0.25)
        assert r[-1] == pytest.approx(0.75)  # inf never counts

    def test_match_poses_greedy_by_confidence(self):
        gt_cls = [1, 1]
        gt_t = np.array([[0.0, 0, 0], [0.1, 0, 0]])
        est = [
            Pose(np.eye(3), np.array([0.001, 0, 0]), class_id=1, confidence=0.9),
            Pose(np.eye(3), np.array([0.099, 0, 0]), class_id=1, confidence=0.8),
        ]
        matched = match_poses(est, gt_cls, gt_t)
        assert list(matched) == [0, 1]

    def test_match_respects_class(self):
        gt_cls = [2]
        est = [Pose(np.eye(3), np.zeros(3), class_id=1, confidence=0.9)]
        matched = match_poses(est, gt_cls, np.zeros((1, 3)))
        assert list(matched) == [-1]

    def test_evaluate_scene_gt_vs_gt(self):
        lib = make_primitives()
        from sparsepose.synthetic import Instance

        instances = [
            Instance(1, "box", rotation_about([0, 0, 1], 0.2), np.array([0.0, 0.0, 0.01])),
            Instance(4, "tube", rotation_about([1, 0, 0], 0.4), np.array([0.05, 0.0, 0.015])),
        ]
        estimates = [
            Pose(inst.rotation, inst.translation, class_id=inst.class_id, confidence=1.0)
            for inst in instances
        ]
        models = {m.class_id: m for m in lib.values()}
        intr = default_intrinsics(width=320, height=240, focal=300.0)
        extr = look_at_extrinsics((0.0, 0.0, 0.5), (0.0, 0.0, 0.0))
        report = evaluate_scene(estimates, instances, models, camera=(intr, extr))
        for entry in report["per_object"]:
            assert entry["add"] == pytest.approx(0.0, abs=1e-12)
            assert entry["add_s"] == pytest.approx(0.0, abs=1e-12)
            assert entry["mssd"] == pytest.approx(0.0, abs=1e-12)
            assert entry["mspd"] == pytest.approx(0.0, abs=1e-9)
        assert report["add_s_auc"] == 1.0
        assert report["ap"] == 1.0
        assert report["ap25"] == 1.0
        assert report["ap25mm"] == 1.0


class TestMetricCsv:
    def test_bytes_pinned(self, tmp_path):
        # every line ends in "\n"; a missing MSPD (no camera) prints as inf
        report = {"per_object": [{"class_id": 3, "matched": 0, "add": 0.00032, "add_s": 0.00031,
                                  "mssd": 0.0004, "mspd": np.inf}]}
        path = tmp_path / "metrics.csv"
        write_metric_csv(path, report, seed=3)
        assert path.read_bytes() == (b"# seed=3\nobject_id,class_id,matched,add_m,add_s_m,mssd_m,mspd_px\n"
                                     b"0,3,0,0.00032,0.00031,0.0004,inf\n")
