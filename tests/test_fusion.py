import struct

import numpy as np
import pytest

from sparsepose.camera import CameraIntrinsics, DepthImage
from sparsepose.errors import DataError
from sparsepose.fusion import Workspace, fuse_views, read_ply, write_ply_mesh, write_ply_points
from sparsepose.grid import voxelize

from oracles import identity_extrinsics


def single_pixel_view(u=4, v=3, d=1.0):
    intr = CameraIntrinsics(fx=4.0, fy=4.0, cx=4.0, cy=3.0, width=8, height=6)
    depth = np.zeros((6, 8))
    depth[v, u] = d
    return DepthImage(depth), (intr, identity_extrinsics())


WS = Workspace((-5.0, -5.0, -5.0), (5.0, 5.0, 5.0))


class TestFuseViews:
    def test_single_view_single_pixel(self):
        depth, cam = single_pixel_view()
        cloud = fuse_views([depth], [cam], WS)
        assert cloud.shape == (1, 3) and cloud.dtype == np.float64

    def test_duplicate_views_double_points(self):
        depth, cam = single_pixel_view()
        cloud = fuse_views([depth, depth], [cam, cam], WS)
        assert len(cloud) == 2  # vanilla union, no dedup
        assert np.array_equal(cloud[0], cloud[1])

    def test_empty_result_is_value_not_error(self):
        depth = DepthImage(np.zeros((6, 8)))
        intr = CameraIntrinsics(fx=4.0, fy=4.0, cx=4.0, cy=3.0, width=8, height=6)
        cloud = fuse_views([depth], [(intr, identity_extrinsics())], WS)
        assert cloud.shape == (0, 3)

    def test_workspace_crop(self):
        depth, cam = single_pixel_view(d=1.0)
        tight = Workspace((-0.1, -0.1, 0.0), (0.1, 0.1, 0.5))  # point at z=1 is outside
        cloud = fuse_views([depth], [cam], tight)
        assert len(cloud) == 0

    def test_all_points_inside_workspace(self):
        rng = np.random.default_rng(5)
        intr = CameraIntrinsics(fx=40.0, fy=40.0, cx=16.0, cy=12.0, width=32, height=24)
        depth = DepthImage(rng.uniform(0.3, 2.0, size=(24, 32)))
        ws = Workspace((-0.5, -0.5, 0.2), (0.5, 0.5, 1.2))
        cloud = fuse_views([depth], [(intr, identity_extrinsics())], ws)
        assert ws.contains(cloud).all()

    def test_mismatched_lengths_rejected(self):
        depth, cam = single_pixel_view()
        with pytest.raises(DataError):
            fuse_views([depth, depth], [cam], WS)

    def test_three_view_scene_count_matches_renderer(self):
        # every rendered valid pixel back-projects inside the workspace, so
        # the fused count equals the renderer's valid-pixel total
        from sparsepose.synthetic import make_primitives, render_depth, sample_scene

        lib = make_primitives()
        spec = sample_scene(lib, (-0.07, -0.07, 0.0), (0.07, 0.07, 0.05), n_objects=3, seed=4)
        depths = [render_depth(spec, lib, i) for i in range(3)]
        cloud = fuse_views(depths, spec.cameras, spec.workspace)
        expected = sum(int((d.values > 0).sum()) for d in depths)
        assert len(cloud) == expected

    def test_view_permutation_same_voxel_set(self):
        rng = np.random.default_rng(9)
        intr = CameraIntrinsics(fx=40.0, fy=40.0, cx=16.0, cy=12.0, width=32, height=24)
        views = []
        for _ in range(3):
            d = np.zeros((24, 32))
            mask = rng.random((24, 32)) < 0.3
            d[mask] = rng.uniform(0.3, 2.0, size=int(mask.sum()))
            views.append(DepthImage(d))
        cams = [(intr, identity_extrinsics())] * 3
        ws = Workspace((-2.0, -2.0, 0.0), (2.0, 2.0, 3.0))
        a = fuse_views(views, cams, ws)
        b = fuse_views(views[::-1], cams, ws)
        ga = voxelize(a, 0.01, ws.min_corner)
        gb = voxelize(b, 0.01, ws.min_corner)
        assert np.array_equal(ga.indices, gb.indices)


class TestPly:
    def test_points_roundtrip(self, tmp_path):
        rng = np.random.default_rng(1)
        pts = rng.normal(size=(100, 3)).astype(np.float32).astype(np.float64)
        path = tmp_path / "c.ply"
        write_ply_points(path, pts)
        verts, faces, props = read_ply(path)
        assert faces is None
        assert props == ["x", "y", "z"]
        assert np.allclose(verts, pts, atol=1e-7)

    def test_points_with_scalar(self, tmp_path):
        pts = np.array([[0.0, 0.5, 1.0]])
        path = tmp_path / "c.ply"
        write_ply_points(path, pts, scalar=np.array([0.25]), scalar_name="sdf")
        verts, _, props = read_ply(path)
        assert props == ["x", "y", "z", "sdf"]
        assert verts[0, 3] == pytest.approx(0.25)

    def test_mesh_roundtrip(self, tmp_path):
        verts = np.array([[0, 0, 0], [1, 0, 0], [0, 1, 0]], dtype=np.float64)
        faces = np.array([[0, 1, 2]])
        path = tmp_path / "m.ply"
        write_ply_mesh(path, verts, faces)
        v2, f2, _ = read_ply(path)
        assert np.allclose(v2[:, :3], verts)
        assert np.array_equal(f2, faces)

    def test_deterministic_bytes(self, tmp_path):
        pts = np.array([[0.1, 0.2, 0.3], [0.4, 0.5, 0.6]])
        p1, p2 = tmp_path / "a.ply", tmp_path / "b.ply"
        write_ply_points(p1, pts)
        write_ply_points(p2, pts)
        assert p1.read_bytes() == p2.read_bytes()

    def test_rejected_scalar_leaves_existing_file(self, tmp_path):
        path = tmp_path / "c.ply"
        write_ply_points(path, np.zeros((2, 3)))
        before = path.read_bytes()
        with pytest.raises(DataError):
            write_ply_points(path, np.ones((3, 3)), scalar=np.ones(2))
        assert path.read_bytes() == before
        assert sorted(p.name for p in tmp_path.iterdir()) == ["c.ply"]

    def test_mesh_face_bytes(self, tmp_path):
        # per face: u8 count 3, then three little-endian int32 vertex indices
        path = tmp_path / "m.ply"
        write_ply_mesh(path, np.zeros((3, 3)), np.array([[0, 1, 2], [2, 1, 0]]))
        body = path.read_bytes().split(b"end_header\n", 1)[1]
        assert body[36:] == b"".join(struct.pack("<B3i", 3, *f) for f in ([0, 1, 2], [2, 1, 0]))

    def test_not_ply_rejected(self, tmp_path):
        path = tmp_path / "x.ply"
        path.write_bytes(b"garbage")
        with pytest.raises(DataError):
            read_ply(path)
