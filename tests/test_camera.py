import shutil
import struct
import zlib

import numpy as np
import pytest

from sparsepose.camera import (
    CameraExtrinsics,
    CameraIntrinsics,
    DepthImage,
    backproject,
    load_camera_json,
    load_depth_png,
    project,
    save_camera_json,
    save_depth_png,
)
from sparsepose.cli import main
from sparsepose.errors import DataError

from oracles import identity_extrinsics


def simple_camera(width=8, height=6, fx=4.0, fy=4.0):
    return CameraIntrinsics(fx=fx, fy=fy, cx=(width - 1) / 2.0, cy=(height - 1) / 2.0,
                            width=width, height=height)


def rotation_about(axis, angle):
    axis = np.asarray(axis, dtype=np.float64)
    axis = axis / np.linalg.norm(axis)
    K = np.array([[0, -axis[2], axis[1]], [axis[2], 0, -axis[0]], [-axis[1], axis[0], 0]])
    return np.eye(3) + np.sin(angle) * K + (1 - np.cos(angle)) * (K @ K)


class TestIntrinsics:
    def test_invalid_focal_rejected(self):
        with pytest.raises(DataError):
            CameraIntrinsics(fx=-1.0, fy=1.0, cx=0.0, cy=0.0, width=4, height=4)

    def test_principal_point_outside_rejected(self):
        with pytest.raises(DataError):
            CameraIntrinsics(fx=1.0, fy=1.0, cx=10.0, cy=0.0, width=4, height=4)


class TestExtrinsics:
    def test_non_orthonormal_rejected(self):
        with pytest.raises(DataError):
            CameraExtrinsics(np.eye(3) * 1.001, np.zeros(3))

    def test_reflection_rejected(self):
        R = np.diag([1.0, 1.0, -1.0])
        with pytest.raises(DataError):
            CameraExtrinsics(R, np.zeros(3))


class TestBackproject:
    def test_principal_ray(self):
        intr = CameraIntrinsics(fx=4.0, fy=4.0, cx=4.0, cy=3.0, width=8, height=6)
        depth = np.zeros((6, 8))
        depth[3, 4] = 1.0  # the pixel at the principal point
        pts = backproject(DepthImage(depth), intr, identity_extrinsics())
        assert pts.shape == (1, 3)
        assert np.allclose(pts[0], [0.0, 0.0, 1.0], atol=1e-15)

    def test_zero_depth_emits_nothing(self):
        intr = simple_camera()
        pts = backproject(DepthImage(np.zeros((6, 8))), intr, identity_extrinsics())
        assert pts.shape == (0, 3)

    def test_unit_focal_offset_pixel(self):
        # pixel one focal length right of the principal point at depth 2
        # lands at x = z * (u - cx) / fx = 2, y = 0.   [analytic K^-1 [u v 1] d]
        intr = CameraIntrinsics(fx=4.0, fy=4.0, cx=2.0, cy=3.0, width=8, height=8)
        depth = np.zeros((8, 8))
        depth[3, 6] = 2.0  # u = cx + fx = 6, v = cy
        pts = backproject(DepthImage(depth), intr, identity_extrinsics())
        assert np.allclose(pts, [[2.0, 0.0, 2.0]], atol=1e-12)

    def test_out_of_range_depth_skipped(self):
        intr = CameraIntrinsics(fx=4.0, fy=4.0, cx=4.0, cy=3.0, width=8, height=6)
        depth = np.zeros((6, 8))
        depth[3, 4] = 0.01   # below near
        depth[2, 4] = 100.0  # beyond far
        pts = backproject(DepthImage(depth), intr, identity_extrinsics())
        assert pts.shape == (0, 3)

    def test_dimension_mismatch_rejected(self):
        intr = simple_camera()
        with pytest.raises(DataError):
            backproject(DepthImage(np.ones((4, 4))), intr, identity_extrinsics())


class TestProject:
    def test_optical_axis_point(self):
        intr = simple_camera()
        pix, z, ok = project(np.array([0.0, 0.0, 1.0]), intr, identity_extrinsics())
        assert np.allclose(pix, [intr.cx, intr.cy])
        assert z == pytest.approx(1.0)
        assert ok

    def test_behind_camera_flagged(self):
        intr = simple_camera()
        _, z, ok = project(np.array([0.0, 0.0, -1.0]), intr, identity_extrinsics())
        assert z == pytest.approx(-1.0)
        assert not ok

    def test_roundtrip_random_views(self):
        rng = np.random.default_rng(11)
        intr = CameraIntrinsics(fx=400.0, fy=380.0, cx=320.0, cy=240.0, width=640, height=480)
        for _ in range(10):
            R = rotation_about(rng.normal(size=3), rng.uniform(-np.pi, np.pi))
            extr = CameraExtrinsics(R, rng.normal(size=3))
            depth = np.zeros((480, 640))
            vs = rng.integers(0, 480, size=50)
            us = rng.integers(0, 640, size=50)
            ds = rng.uniform(0.2, 3.0, size=50)
            depth[vs, us] = ds
            img = DepthImage(depth)
            pts = backproject(img, intr, extr)
            pix, z, ok = project(pts, intr, extr)
            vv, uu = np.nonzero(depth > 0)
            order = np.lexsort((uu, vv))
            assert ok.all()
            assert np.max(np.abs(pix - np.stack([uu[order], vv[order]], axis=1))) < 1e-6
            assert np.max(np.abs(z - depth[vv[order], uu[order]])) < 1e-9


class TestDepthImage:
    def test_negative_rejected(self):
        with pytest.raises(DataError):
            DepthImage(np.full((2, 2), -1.0))

    def test_nonfinite_rejected(self):
        with pytest.raises(DataError):
            DepthImage(np.array([[np.inf, 0.0], [0.0, 0.0]]))


def png_bytes(raw, filters):
    """A 16-bit grayscale PNG of `raw` whose row r is PNG-filtered with type
    filters[r] (0 None, 1 Sub, 2 Up, 3 Average, 4 Paeth; 2 bytes per pixel),
    as libpng-based encoders write them."""
    lines = raw.astype(">u2").view(np.uint8).reshape(raw.shape[0], -1).astype(np.int64)
    prev = np.zeros(lines.shape[1], dtype=np.int64)
    stream = b""
    for line, ftype in zip(lines, filters):
        a = np.concatenate([[0, 0], line[:-2]])  # left neighbour byte
        b = prev                                  # byte above
        c = np.concatenate([[0, 0], prev[:-2]])  # above-left
        p = a + b - c
        paeth = np.where((abs(p - a) <= abs(p - b)) & (abs(p - a) <= abs(p - c)), a,
                         np.where(abs(p - b) <= abs(p - c), b, c))
        pred = {1: a, 2: b, 3: (a + b) // 2, 4: paeth}.get(ftype, 0)
        stream += bytes([ftype]) + ((line - pred) & 0xFF).astype(np.uint8).tobytes()
        prev = line

    def chunk(tag, payload):
        return struct.pack(">I", len(payload)) + tag + payload + struct.pack(">I", zlib.crc32(tag + payload))

    ihdr = struct.pack(">IIBBBBB", raw.shape[1], raw.shape[0], 16, 0, 0, 0, 0)
    return (b"\x89PNG\r\n\x1a\n" + chunk(b"IHDR", ihdr) + chunk(b"IDAT", zlib.compress(stream))
            + chunk(b"IEND", b""))


class TestDepthPng:
    @pytest.mark.parametrize("filters", [1, 2, 3, 4, "mixed"])
    def test_filter_types_decoded_exactly(self, tmp_path, filters):
        # the writer emits only type 0; other encoders use all five
        raw = np.random.default_rng(41).integers(0, 65536, size=(9, 13))
        raw[0, :4] = [0, 65535, 255, 256]
        rows = [r % 5 for r in range(len(raw))] if filters == "mixed" else [filters] * len(raw)
        path = tmp_path / "d.png"
        path.write_bytes(png_bytes(raw, rows))
        assert np.array_equal(load_depth_png(path, scale=0.001).values, raw * 0.001)

    def test_unknown_filter_type_exits_3(self, tiny_bundle_dir, tmp_path, capsys):
        bundle = tmp_path / "bundle"
        shutil.copytree(tiny_bundle_dir, bundle)
        raw = load_depth_png(bundle / "depth_00.png", scale=1.0).values.astype(np.int64)
        (bundle / "depth_00.png").write_bytes(png_bytes(raw, [0] * (len(raw) - 1) + [5]))
        capsys.readouterr()
        assert main(["fuse", str(bundle), "--out", str(tmp_path / "fused.ply")]) == 3
        err = capsys.readouterr().err
        assert "unsupported PNG filter type 5" in err and len(err.strip().splitlines()) == 1

    def test_scale_conversion(self, tmp_path):
        img = DepthImage(np.array([[1.0, 0.0], [0.5, 2.0]]))
        path = tmp_path / "d.png"
        save_depth_png(path, img, scale=0.001)
        loaded = load_depth_png(path, scale=0.001)
        assert loaded.values[0, 0] == pytest.approx(1.0)  # raw 1000 at 1 mm scale

    def test_roundtrip_identical(self, tmp_path):
        rng = np.random.default_rng(3)
        raw = rng.integers(0, 65536, size=(33, 47))
        img = DepthImage(raw * 0.001)
        path = tmp_path / "d.png"
        save_depth_png(path, img, scale=0.001)
        loaded = load_depth_png(path, scale=0.001)
        assert np.array_equal(loaded.values, img.values)

    def test_full_range(self, tmp_path):
        img = DepthImage(np.array([[65.535]]))
        path = tmp_path / "d.png"
        save_depth_png(path, img, scale=0.001)
        assert load_depth_png(path, scale=0.001).values[0, 0] == pytest.approx(65.535)

    def test_out_of_range_rejected(self, tmp_path):
        with pytest.raises(DataError):
            save_depth_png(tmp_path / "d.png", DepthImage(np.array([[66.0]])), scale=0.001)

    def test_malformed_file_rejected(self, tmp_path):
        path = tmp_path / "bad.png"
        path.write_bytes(b"not a png at all")
        with pytest.raises(DataError):
            load_depth_png(path, scale=0.001)

    def test_wrong_bit_depth_rejected(self, tmp_path):
        # 8-bit grayscale PNG built by hand
        import struct
        import zlib

        ihdr = struct.pack(">IIBBBBB", 1, 1, 8, 0, 0, 0, 0)
        raw = zlib.compress(b"\x00\x7f")

        def chunk(tag, payload):
            return struct.pack(">I", len(payload)) + tag + payload + struct.pack(
                ">I", zlib.crc32(tag + payload) & 0xFFFFFFFF)

        blob = b"\x89PNG\r\n\x1a\n" + chunk(b"IHDR", ihdr) + chunk(b"IDAT", raw) + chunk(b"IEND", b"")
        path = tmp_path / "8bit.png"
        path.write_bytes(blob)
        with pytest.raises(DataError):
            load_depth_png(path, scale=0.001)


class TestCameraJson:
    def test_roundtrip(self, tmp_path):
        intr = CameraIntrinsics(fx=400.0, fy=380.0, cx=320.0, cy=240.0, width=640, height=480)
        extr = CameraExtrinsics(rotation_about([0, 1, 0], 0.3), np.array([0.5, 0.0, -0.25]))
        path = tmp_path / "cam.json"
        save_camera_json(path, intr, extr, depth_scale=5e-5)
        intr2, extr2, scale = load_camera_json(path)
        assert intr2 == intr
        assert np.allclose(extr2.matrix(), extr.matrix(), atol=1e-15)
        assert scale == 5e-5

    def test_missing_file(self, tmp_path):
        with pytest.raises(DataError):
            load_camera_json(tmp_path / "absent.json")
