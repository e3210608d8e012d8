import concurrent.futures
import hashlib
import os
import re
import struct
import sys
import tracemalloc

import numpy as np
import pytest

from sparsepose.camera import CameraExtrinsics, CameraIntrinsics, DepthImage
from sparsepose.errors import DataError
from sparsepose.fusion import Workspace, fuse_views
from sparsepose import tsdf as tsdf_module
from sparsepose.tsdf import SparseTsdf, TsdfConfig, activate_blocks, build_tsdf

from oracles import dense_tsdf_reference, global_voxel_indices, identity_extrinsics, loglog_slope


def block_slot(tsdf, block_index):
    """Slot of a block index in a SparseTsdf's sorted block table."""
    (slot,) = np.flatnonzero((tsdf.block_indices == block_index).all(axis=1))
    return slot


def flat_depth_camera(d=0.5, width=64, height=48, focal=64.0):
    intr = CameraIntrinsics(fx=focal, fy=focal, cx=(width - 1) / 2.0, cy=(height - 1) / 2.0,
                            width=width, height=height)
    depth = DepthImage(np.full((height, width), d))
    return depth, intr, identity_extrinsics()


class TestConfig:
    def test_block_size_identity(self):
        cfg = TsdfConfig(voxel_size=0.002, voxels_per_side=16)
        assert cfg.block_size == pytest.approx(16 * 0.002)

    def test_default_truncation_is_eight_voxels(self):
        cfg = TsdfConfig(voxel_size=0.003)
        assert cfg.truncation == pytest.approx(0.024)


class TestConstruction:
    def test_blocks_sorted_by_key(self):
        blocks = np.array([[1, 0, 0], [0, 0, 0], [0, -2, 5], [-3, 4, 0]])
        tsdf = SparseTsdf(TsdfConfig(voxel_size=0.004, voxels_per_side=4), blocks, np.zeros(3))
        assert tsdf.block_indices.dtype == np.int64
        assert tsdf.block_indices.tolist() == sorted(blocks.tolist())

    def test_empty_block_set(self):
        tsdf = SparseTsdf(TsdfConfig(voxel_size=0.004, voxels_per_side=4), np.zeros((0, 3)), np.zeros(3))
        assert tsdf.n_blocks == 0 and tsdf.sdf.shape == (0, 4, 4, 4)

    def test_repeated_block_rejected(self):
        # a repeated block would give band_grid repeated voxel indices
        blocks = np.array([[0, 0, 0], [1, 0, 0], [0, 0, 0]])
        with pytest.raises(DataError, match=re.escape("block (0, 0, 0) appears more than once")):
            SparseTsdf(TsdfConfig(voxel_size=0.004, voxels_per_side=4), blocks, np.zeros(3))


class TestActivateBlocks:
    def test_single_point_dilates_to_27(self):
        cfg = TsdfConfig(voxel_size=0.002, voxels_per_side=16)
        blocks = activate_blocks(np.array([[0.016, 0.016, 0.016]]), cfg, np.zeros(3))
        assert len(blocks) == 27
        assert (blocks.min(axis=0) == [-1, -1, -1]).all()
        assert (blocks.max(axis=0) == [1, 1, 1]).all()

    def test_empty_cloud_empty_set(self):
        cfg = TsdfConfig(voxel_size=0.002)
        blocks = activate_blocks(np.zeros((0, 3)), cfg, np.zeros(3))
        assert len(blocks) == 0

    def test_plane_spanning_blocks(self):
        # points spanning a 4x4 block sheet: 16 surface blocks, dilation
        # bounded by 6x6x3
        cfg = TsdfConfig(voxel_size=0.002, voxels_per_side=16)
        B = cfg.block_size
        xs, ys = np.meshgrid(np.arange(4) * B + B / 2, np.arange(4) * B + B / 2)
        pts = np.column_stack([xs.ravel(), ys.ravel(), np.full(16, B / 2)])
        blocks = activate_blocks(pts, cfg, np.zeros(3))
        surface = {tuple(b) for b in np.floor(pts / B).astype(int)}
        assert len(surface) == 16
        assert len(blocks) <= 6 * 6 * 3
        got = {tuple(b) for b in blocks}
        brute = set()
        for b in surface:
            for dx in (-1, 0, 1):
                for dy in (-1, 0, 1):
                    for dz in (-1, 0, 1):
                        brute.add((b[0] + dx, b[1] + dy, b[2] + dz))
        assert got == brute


class TestIntegration:
    def test_on_surface_voxel_phi_zero(self):
        depth, intr, extr = flat_depth_camera(d=0.5)
        cfg = TsdfConfig(voxel_size=0.004, voxels_per_side=8, truncation=0.04)
        # voxel centered exactly at z = 0.5 on the optical axis
        origin = np.array([-0.016, -0.016, 0.5 - 0.002])
        tsdf = SparseTsdf(cfg, np.array([[0, 0, 0]]), origin)
        tsdf.integrate_view(depth, intr, extr)
        slot = block_slot(tsdf, [0, 0, 0])
        # local voxel (4, 4, 0) sits at origin + (4.5*0.004, 4.5*0.004, 0.002)
        assert tsdf.weight[slot][4, 4, 0] == 1.0
        # z of that voxel = 0.5, d = 0.5 -> phi = 0
        assert abs(tsdf.sdf[slot][4, 4, 0]) < 1e-12

    def test_clamp_at_positive_truncation(self):
        depth, intr, extr = flat_depth_camera(d=0.5)
        cfg = TsdfConfig(voxel_size=0.004, voxels_per_side=8, truncation=0.04)
        origin = np.array([-0.016, -0.016, 0.5 - 2 * 0.04 - 0.002])  # s = 2 tau
        tsdf = SparseTsdf(cfg, np.array([[0, 0, 0]]), origin)
        tsdf.integrate_view(depth, intr, extr)
        slot = block_slot(tsdf, [0, 0, 0])
        assert tsdf.sdf[slot][4, 4, 0] == pytest.approx(1.0)

    def test_halfway_in_band(self):
        # camera at origin looking +z, d = 0.5 everywhere, voxel at z=0.48,
        # tau = 0.04 -> phi = (0.5 - 0.48) / 0.04 = 0.5
        depth, intr, extr = flat_depth_camera(d=0.5)
        cfg = TsdfConfig(voxel_size=0.004, voxels_per_side=8, truncation=0.04)
        origin = np.array([-0.016, -0.016, 0.48 - 0.002])
        tsdf = SparseTsdf(cfg, np.array([[0, 0, 0]]), origin)
        tsdf.integrate_view(depth, intr, extr)
        slot = block_slot(tsdf, [0, 0, 0])
        assert tsdf.sdf[slot][4, 4, 0] == pytest.approx(0.5, abs=1e-12)

    def test_deep_behind_surface_skipped(self):
        depth, intr, extr = flat_depth_camera(d=0.5)
        cfg = TsdfConfig(voxel_size=0.004, voxels_per_side=8, truncation=0.04)
        origin = np.array([-0.016, -0.016, 0.5 + 2 * 0.04])  # s = -2 tau: skip
        tsdf = SparseTsdf(cfg, np.array([[0, 0, 0]]), origin)
        tsdf.integrate_view(depth, intr, extr)
        slot = block_slot(tsdf, [0, 0, 0])
        assert tsdf.weight[slot].max() == 0.0

    def test_weight_cap(self):
        depth, intr, extr = flat_depth_camera(d=0.5)
        cfg = TsdfConfig(voxel_size=0.004, voxels_per_side=8, truncation=0.04, weight_cap=3.0)
        origin = np.array([-0.016, -0.016, 0.5 - 0.002])
        tsdf = SparseTsdf(cfg, np.array([[0, 0, 0]]), origin)
        for _ in range(5):
            tsdf.integrate_view(depth, intr, extr)
        slot = block_slot(tsdf, [0, 0, 0])
        assert tsdf.weight[slot][4, 4, 0] == 3.0


class TestExtractPbar:
    def test_untouched_tsdf_empty(self):
        cfg = TsdfConfig(voxel_size=0.004, voxels_per_side=8)
        tsdf = SparseTsdf(cfg, np.array([[0, 0, 0]]), np.zeros(3))
        assert tsdf.extract_pbar().shape == (0, 4)

    def test_fully_clamped_band_excluded(self):
        depth, intr, extr = flat_depth_camera(d=1.0)
        cfg = TsdfConfig(voxel_size=0.004, voxels_per_side=8, truncation=0.01)
        # all voxels far in front of the surface: phi clamps to exactly 1
        tsdf = SparseTsdf(cfg, np.array([[0, 0, 0]]), np.array([-0.016, -0.016, 0.2]))
        tsdf.integrate_view(depth, intr, extr)
        slot = block_slot(tsdf, [0, 0, 0])
        assert tsdf.weight[slot].max() > 0
        assert tsdf.extract_pbar().shape == (0, 4)

    def test_band_rows_carry_sdf_channel(self):
        depth, intr, extr = flat_depth_camera(d=0.5)
        cfg = TsdfConfig(voxel_size=0.004, voxels_per_side=8, truncation=0.04)
        origin = np.array([-0.016, -0.016, 0.48])
        tsdf = SparseTsdf(cfg, np.array([[0, 0, 0]]), origin)
        tsdf.integrate_view(depth, intr, extr)
        pbar = tsdf.extract_pbar()
        assert pbar.shape[1] == 4
        assert np.all(np.abs(pbar[:, 3]) < 1.0)
        assert len(pbar) > 0


def box_scene_views(n_views=3):
    """Small synthetic multi-view setup used by the oracle tests; low-res
    cameras keep the dense reference quick."""
    from sparsepose.synthetic import default_camera_ring, make_box_mesh, rasterize_depth

    tris = make_box_mesh((0.05, 0.04, 0.03)).triangles() + np.array([0.0, 0.0, 0.017])
    intr = CameraIntrinsics(fx=120.0, fy=120.0, cx=79.5, cy=59.5, width=160, height=120)
    cams = [
        (intr, extr)
        for _, extr in default_camera_ring((-0.06, -0.06, 0.0), (0.06, 0.06, 0.05),
                                           n_views=n_views, distance=0.35)
    ]
    depths = [DepthImage(rasterize_depth(tris, intr, extr)) for intr, extr in cams]
    return depths, cams


BOX_WS = Workspace((-0.064, -0.064, 0.0), (0.064, 0.064, 0.064))


def box_scene_tsdf(cfg):
    depths, cams = box_scene_views()
    cloud = fuse_views(depths, cams, BOX_WS, near=0.05, far=2.0)
    assert len(cloud) > 0
    return build_tsdf(cloud, depths, cams, cfg, BOX_WS.min_corner, near=0.05, far=2.0)


def assert_matches_dense(tsdf):
    cfg = tsdf.cfg
    depths, cams = box_scene_views()
    dims = np.ceil(BOX_WS.extent / cfg.voxel_size).astype(int)
    dense_sdf, dense_w = dense_tsdf_reference(depths, cams, cfg, BOX_WS.min_corner, dims,
                                              near=0.05, far=2.0)

    # every active sparse voxel agrees with the dense reference
    idx = global_voxel_indices(tsdf)
    sparse_sdf = tsdf.sdf.reshape(-1)
    sparse_w = tsdf.weight.reshape(-1)
    inside = np.all((idx >= 0) & (idx < dims), axis=1)
    gi = idx[inside]
    assert np.max(np.abs(sparse_sdf[inside] - dense_sdf[gi[:, 0], gi[:, 1], gi[:, 2]])) < 1e-6
    assert np.max(np.abs(sparse_w[inside] - dense_w[gi[:, 0], gi[:, 1], gi[:, 2]])) < 1e-6

    # no in-band voxel exists outside the active blocks
    band = (dense_w > 0) & (np.abs(dense_sdf) < 1.0)
    band_idx = np.argwhere(band)
    blocks = np.floor_divide(band_idx, cfg.voxels_per_side)
    active = {tuple(b) for b in tsdf.block_indices}
    missing = [tuple(b) for b in np.unique(blocks, axis=0) if tuple(b) not in active]
    assert missing == []


def full_grid_centers(tsdf):
    """Every voxel center by the full-grid formula, (n_blocks * L^3, 3)."""
    L = tsdf.cfg.voxels_per_side
    base = tsdf.block_indices.astype(np.float64) * tsdf.cfg.block_size
    ll = np.arange(L)
    local = np.stack(np.meshgrid(ll, ll, ll, indexing="ij"), axis=-1).reshape(-1, 3)
    local = (local.astype(np.float64) + 0.5) * tsdf.cfg.voxel_size
    return (tsdf.origin + base[:, None, :] + local[None, :, :]).reshape(-1, 3)


def full_grid_pbar(tsdf):
    """extract_pbar by the full-grid formula: every voxel center at once."""
    sdf = tsdf.sdf.reshape(-1)
    keep = (tsdf.weight.reshape(-1) > 0) & (np.abs(sdf) < 1.0)
    return np.hstack([full_grid_centers(tsdf)[keep], sdf[keep][:, None]])


class TestDenseOracle:
    def test_sparse_matches_dense_and_band_covered(self):
        tsdf = box_scene_tsdf(TsdfConfig(voxel_size=0.004, voxels_per_side=8))
        assert_matches_dense(tsdf)

    def test_view_order_invariance(self):
        ws = Workspace((-0.064, -0.064, 0.0), (0.064, 0.064, 0.064))
        cfg = TsdfConfig(voxel_size=0.004, voxels_per_side=8)
        depths, cams = box_scene_views()
        cloud = fuse_views(depths, cams, ws, near=0.05, far=2.0)
        a = build_tsdf(cloud, depths, cams, cfg, ws.min_corner, near=0.05, far=2.0)
        b = build_tsdf(cloud, depths[::-1], cams[::-1], cfg, ws.min_corner, near=0.05, far=2.0)
        assert np.max(np.abs(a.sdf - b.sdf)) < 1e-9
        assert np.array_equal(a.weight, b.weight)


class TestDumpFormat:
    def test_roundtrip(self, tmp_path):
        depth, intr, extr = flat_depth_camera(d=0.5)
        cfg = TsdfConfig(voxel_size=0.004, voxels_per_side=8, truncation=0.04)
        tsdf = SparseTsdf(cfg, np.array([[0, 0, 0], [1, 0, 0]]), np.array([-0.016, -0.016, 0.48]))
        tsdf.integrate_view(depth, intr, extr)
        path = tmp_path / "x.tsdf"
        tsdf.dump(path)
        loaded = SparseTsdf.load(path)
        assert np.array_equal(loaded.block_indices, tsdf.block_indices)
        assert np.allclose(loaded.sdf, tsdf.sdf, atol=1e-7)  # float32 payload
        assert np.allclose(loaded.weight, tsdf.weight, atol=1e-7)
        assert loaded.cfg.voxels_per_side == 8

    def test_deterministic_bytes(self, tmp_path):
        cfg = TsdfConfig(voxel_size=0.004, voxels_per_side=4)
        tsdf = SparseTsdf(cfg, np.array([[0, 0, 0]]), np.zeros(3))
        p1, p2 = tmp_path / "a.tsdf", tmp_path / "b.tsdf"
        tsdf.dump(p1)
        tsdf.dump(p2)
        assert p1.read_bytes() == p2.read_bytes()

    def small_dump(self, tmp_path):
        rng = np.random.default_rng(3)
        cfg = TsdfConfig(voxel_size=0.004, voxels_per_side=4)
        tsdf = SparseTsdf(cfg, np.array([[1, 0, 0], [0, 0, 0], [0, -2, 5]]), np.array([0.1, -0.2, 0.3]))
        tsdf.sdf[:] = rng.uniform(-1, 1, size=tsdf.sdf.shape)
        tsdf.weight[:] = rng.integers(0, 64, size=tsdf.weight.shape)
        path = tmp_path / "x.tsdf"
        tsdf.dump(path)
        return tsdf, path

    def test_bytes_match_documented_layout(self, tmp_path):
        tsdf, path = self.small_dump(tmp_path)
        cfg = tsdf.cfg
        expected = b"SPTSDF01" + struct.pack("<dIdddddd", cfg.block_size, 4, cfg.voxel_size,
                                             cfg.truncation, cfg.weight_cap, 0.1, -0.2, 0.3)
        expected += struct.pack("<q", 3)
        for i in range(3):
            expected += struct.pack("<3q", *tsdf.block_indices[i])
            pairs = np.stack([tsdf.sdf[i].reshape(-1), tsdf.weight[i].reshape(-1)], axis=1)
            expected += pairs.astype("<f4").tobytes()
        assert path.read_bytes() == expected

    @pytest.mark.parametrize("keep", [0, 7, 20, 75, 76, 100, 76 + 24 + 8 * 64 - 1, -1])
    def test_truncated_dump_rejected(self, tmp_path, keep):
        _, path = self.small_dump(tmp_path)
        blob = path.read_bytes()
        path.write_bytes(blob[:keep])
        with pytest.raises(DataError):
            SparseTsdf.load(path)

    def test_padded_dump_rejected(self, tmp_path):
        _, path = self.small_dump(tmp_path)
        path.write_bytes(path.read_bytes() + b"\0" * 8)
        with pytest.raises(DataError):
            SparseTsdf.load(path)

    def test_block_named_twice_rejected(self, tmp_path):
        tsdf, path = self.small_dump(tmp_path)
        blob = bytearray(path.read_bytes())
        # the third block's index names the second block again
        struct.pack_into("<3q", blob, 76 + 2 * (24 + 8 * 64), *tsdf.block_indices[1])
        path.write_bytes(bytes(blob))
        with pytest.raises(DataError, match=re.escape(f"{path}: block (0, 0, 0) appears more than once")):
            SparseTsdf.load(path)

    def test_missing_dump_rejected(self, tmp_path):
        with pytest.raises(DataError):
            SparseTsdf.load(tmp_path / "absent.tsdf")


class TestChunkedWalk:
    def test_many_chunks_match_dense(self):
        # 180 blocks of 8^3 voxels: more than one chunk, not a multiple of it
        tsdf = box_scene_tsdf(TsdfConfig(voxel_size=0.002, voxels_per_side=8))
        per_chunk = tsdf_module._CHUNK_VOXELS // 8**3
        assert tsdf.n_blocks > per_chunk and tsdf.n_blocks % per_chunk != 0
        assert_matches_dense(tsdf)
        assert np.array_equal(tsdf.extract_pbar(), full_grid_pbar(tsdf))

    @pytest.mark.parametrize("workers", [1, 4])
    def test_block_larger_than_chunk(self, monkeypatch, workers):
        # one block per chunk, integrated by a pool of one worker or of two
        cfg = TsdfConfig(voxel_size=0.004, voxels_per_side=8)
        whole = box_scene_tsdf(cfg)
        monkeypatch.setattr(tsdf_module, "_CHUNK_VOXELS", 100)  # L^3 = 512 >= chunk
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(workers)), raising=False)
        pools = []

        class RecordingPool(concurrent.futures.ThreadPoolExecutor):
            def __init__(self, max_workers):
                pools.append(max_workers)
                super().__init__(max_workers)

        monkeypatch.setattr(concurrent.futures, "ThreadPoolExecutor", RecordingPool)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)  # hand the GIL over often, so the chunks interleave
        try:
            one_block = box_scene_tsdf(cfg)
        finally:
            sys.setswitchinterval(interval)
        assert pools == [min(workers, 2)] * 3  # one pool per view, two workers at most
        assert [stop - b0 for b0, stop in one_block._chunks()] == [1] * one_block.n_blocks
        assert_matches_dense(one_block)
        assert np.array_equal(one_block.sdf, whole.sdf)
        assert np.array_equal(one_block.weight, whole.weight)
        assert np.array_equal(one_block.extract_pbar(), whole.extract_pbar())
        assert np.array_equal(one_block.extract_pbar(), full_grid_pbar(one_block))

    @pytest.mark.parametrize("origin", [
        [-0.016, -0.016, -1.0],  # behind the camera
        [5.0, 0.0, 0.5],         # in front, outside the image
    ])
    def test_view_that_hits_no_voxel(self, origin):
        depth, intr, extr = flat_depth_camera(d=0.5)
        cfg = TsdfConfig(voxel_size=0.004, voxels_per_side=8, truncation=0.04)
        tsdf = SparseTsdf(cfg, np.array([[0, 0, 0], [0, 0, 1]]), np.array(origin))
        tsdf.integrate_view(depth, intr, extr)
        assert not tsdf.weight.any() and not tsdf.sdf.any()
        assert tsdf.extract_pbar().shape == (0, 4)

    def test_no_blocks(self):
        depth, intr, extr = flat_depth_camera(d=0.5)
        cfg = TsdfConfig(voxel_size=0.004, voxels_per_side=8)
        tsdf = SparseTsdf(cfg, np.zeros((0, 3), dtype=np.int64), np.zeros(3))
        tsdf.integrate_view(depth, intr, extr)
        assert tsdf.n_blocks == 0 and list(tsdf._chunks()) == []
        assert tsdf.extract_pbar().shape == (0, 4)

    def test_integration_memory_bounded_by_chunk(self):
        # 256 blocks of 16^3 voxels in front of a flat wall: 1 M voxels, whose
        # full-grid center array alone takes 25 MB
        depth, intr, extr = flat_depth_camera(d=0.5)
        cfg = TsdfConfig(voxel_size=0.002, voxels_per_side=16)
        bx, by = np.meshgrid(np.arange(-8, 8), np.arange(-8, 8), indexing="ij")
        blocks = np.column_stack([bx.ravel(), by.ravel(), np.zeros(bx.size, dtype=np.int64)])
        tsdf = SparseTsdf(cfg, blocks, np.array([0.0, 0.0, 0.49]))
        centers_bytes = tsdf.sdf.size * 3 * 8
        tracemalloc.start()
        try:
            tsdf.integrate_view(depth, intr, extr)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert tsdf.weight.any()
        assert peak < centers_bytes / 4

    def test_integration_memory_bounded_on_many_cores(self, monkeypatch):
        # the worker cap, not the host's core count, bounds the temporaries
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(8)), raising=False)
        self.test_integration_memory_bounded_by_chunk()


class TestPinnedDump:
    def test_dump_sha256_of_fixed_scene(self, tmp_path):
        # 180 blocks of 8^3 voxels from the three-view box scene; the digest
        # pins sdf, weight and block order of the whole integration path
        tsdf = box_scene_tsdf(TsdfConfig(voxel_size=0.002, voxels_per_side=8))
        assert tsdf.n_blocks == 180
        path = tmp_path / "box.tsdf"
        tsdf.dump(path)
        digest = hashlib.sha256(path.read_bytes()).hexdigest()
        assert digest == "eeb5e6227a37f12701c792dca50076434e605ff28d7543984d02d5501878cc32"


def row_major_integrate(tsdf, depth, intr, extr, near, far):
    """integrate_view by the row-major full-grid formula: (n, 3) centers,
    (c - t) @ R, round then int64 cast, 2-D image index. Updates tsdf in
    place."""
    L = tsdf.cfg.voxels_per_side
    tau = tsdf.cfg.truncation
    base = tsdf.block_indices.astype(np.float64) * tsdf.cfg.block_size
    ll = np.arange(L)
    local = np.stack(np.meshgrid(ll, ll, ll, indexing="ij"), axis=-1).reshape(-1, 3)
    local = (local.astype(np.float64) + 0.5) * tsdf.cfg.voxel_size
    centers = (tsdf.origin + base[:, None, :] + local[None, :, :]).reshape(-1, 3)
    cam_pts = (centers - extr.translation) @ extr.rotation
    z = cam_pts[:, 2]
    with np.errstate(divide="ignore", invalid="ignore"):
        u = np.round(intr.fx * cam_pts[:, 0] / z + intr.cx).astype(np.int64)
        v = np.round(intr.fy * cam_pts[:, 1] / z + intr.cy).astype(np.int64)
    rows = np.flatnonzero((z > 0) & (u >= 0) & (u < intr.width) & (v >= 0) & (v < intr.height))
    d = depth.values[v[rows], u[rows]]
    s = d - z[rows]
    ok = (d > 0) & (d >= near) & (d <= far) & (s >= -tau)
    rows = rows[ok]
    phi = np.clip(s[ok] / tau, -1.0, 1.0)
    flat_sdf = tsdf.sdf.reshape(-1)
    flat_w = tsdf.weight.reshape(-1)
    w_old = flat_w[rows]
    flat_sdf[rows] = (w_old * flat_sdf[rows] + phi) / (w_old + 1.0)
    flat_w[rows] = np.minimum(w_old + 1.0, tsdf.cfg.weight_cap)


class TestCoordinateRowLayout:
    def test_bit_identical_to_row_major_formula(self):
        # multi-chunk box scene, plus a view from inside the workspace: the
        # voxels behind it have z <= 0 and most in front fall off its image
        from sparsepose.synthetic import look_at_extrinsics

        cfg = TsdfConfig(voxel_size=0.002, voxels_per_side=8)
        blocks = box_scene_tsdf(cfg).block_indices
        depths, cams = box_scene_views()
        views = [(d, intr, extr, 0.33, 0.37) for d, (intr, extr) in zip(depths, cams)]
        intr = CameraIntrinsics(fx=40.0, fy=40.0, cx=31.5, cy=23.5, width=64, height=48)
        ramp = np.tile(np.linspace(0.0, 0.1, intr.width), (intr.height, 1))
        views.append((DepthImage(ramp), intr, look_at_extrinsics((0.0, 0.0, 0.03), (1.0, 0.2, 0.03)),
                      0.01, 0.08))
        new = SparseTsdf(cfg, blocks, BOX_WS.min_corner)
        old = SparseTsdf(cfg, blocks, BOX_WS.min_corner)
        assert new.n_blocks > tsdf_module._CHUNK_VOXELS // 8**3
        for depth, intr, extr, near, far in views:
            before = old.weight.copy()
            new.integrate_view(depth, intr, extr, near=near, far=far)
            row_major_integrate(old, depth, intr, extr, near, far)
            assert (old.weight != before).any()
            assert np.array_equal(new.sdf, old.sdf)
            assert np.array_equal(new.weight, old.weight)

    def test_depth_shape_must_match_intrinsics(self):
        depth, intr, extr = flat_depth_camera(d=0.5)
        tsdf = SparseTsdf(TsdfConfig(voxel_size=0.004, voxels_per_side=8), np.array([[0, 0, 0]]),
                          np.array([-0.016, -0.016, 0.48]))
        with pytest.raises(DataError):
            tsdf.integrate_view(DepthImage(depth.values[:, 1:]), intr, extr)

    def test_build_tsdf_integrates_each_view_once(self, monkeypatch):
        # perfbench's per-view tsdf.integrate_view spans rely on this call pattern
        calls = []
        integrate = SparseTsdf.integrate_view

        def spy(self, depth, *args, **kwargs):
            calls.append(depth)
            integrate(self, depth, *args, **kwargs)

        monkeypatch.setattr(SparseTsdf, "integrate_view", spy)
        depths, cams = box_scene_views()
        cloud = fuse_views(depths, cams, BOX_WS, near=0.05, far=2.0)
        build_tsdf(cloud, depths, cams, TsdfConfig(voxel_size=0.004, voxels_per_side=8),
                   BOX_WS.min_corner, near=0.05, far=2.0)
        assert [id(d) for d in calls] == [id(d) for d in depths]


class TestScaling:
    def test_band_voxel_count_slope(self):
        # surface-dominated scenes: the in-band voxel count grows ~ (1/theta)^2
        ws = Workspace((-0.064, -0.064, 0.0), (0.064, 0.064, 0.064))
        depths, cams = box_scene_views()
        counts = []
        thetas = [0.008, 0.004, 0.002]
        for theta in thetas:
            cfg = TsdfConfig(voxel_size=theta, voxels_per_side=8)
            cloud = fuse_views(depths, cams, ws, near=0.05, far=2.0)
            tsdf = build_tsdf(cloud, depths, cams, cfg, ws.min_corner, near=0.05, far=2.0)
            counts.append(len(tsdf.extract_pbar()))
        slope = loglog_slope([1.0 / t for t in thetas], counts)
        assert 1.6 <= slope <= 2.4


def load_bench_workloads():
    """perfbench/workloads.py, which holds the benchmark's scene specs."""
    import importlib.util
    import pathlib

    path = pathlib.Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("bench_workloads", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.fixture(scope="module")
def bench_fuse_bundles(tmp_path_factory):
    """The four fuse_tsdf benchmark scenes of seeds 0 and 1, exported and
    loaded back as the benchmark does."""
    from sparsepose.synthetic import export_scene_bundle, load_scene_bundle

    workloads = load_bench_workloads()
    bundles = []
    for seed in (0, 1):
        lib, specs = workloads.scene_specs("fuse_tsdf", seed)
        for name, spec in specs:
            out = tmp_path_factory.mktemp(f"fuse_{seed}") / name
            export_scene_bundle(spec, lib, out)
            bundles.append(load_scene_bundle(out))
    return bundles


def assert_band_grid_matches_voxelize(tsdf):
    from sparsepose.grid import voxelize

    grid = tsdf.band_grid()
    ref = voxelize(tsdf.extract_pbar(), tsdf.cfg.voxel_size, tsdf.origin)
    assert grid.resolution == ref.resolution
    assert np.array_equal(grid.origin, ref.origin)
    assert grid.indices.dtype == ref.indices.dtype and grid.indices.shape == ref.indices.shape
    assert np.array_equal(grid.indices, ref.indices)
    assert grid.features.shape == ref.features.shape
    assert np.array_equal(grid.features, ref.features)
    return grid


class TestBandGrid:
    def test_box_scene(self):
        tsdf = box_scene_tsdf(TsdfConfig(voxel_size=0.002, voxels_per_side=8))
        assert tsdf.n_blocks == 180
        assert len(assert_band_grid_matches_voxelize(tsdf)) > 0

    def test_bench_fuse_scenes(self, bench_fuse_bundles):
        from sparsepose.config import PipelineConfig
        from sparsepose.grid import voxelize
        from sparsepose.pipeline import build_input_grid

        cfg = PipelineConfig()
        assert len(bench_fuse_bundles) == 8
        for bundle in bench_fuse_bundles:
            fine, _, tsdf = build_input_grid(bundle, cfg, "tsdf")
            ref = voxelize(tsdf.extract_pbar(), cfg.theta, bundle.workspace.min_corner)
            assert len(fine) > 0
            assert np.array_equal(fine.indices, ref.indices)
            assert np.array_equal(fine.features, ref.features)

    def test_block_larger_than_chunk(self, monkeypatch):
        monkeypatch.setattr(tsdf_module, "_CHUNK_VOXELS", 100)
        tsdf = box_scene_tsdf(TsdfConfig(voxel_size=0.004, voxels_per_side=8))
        assert [stop - b0 for b0, stop in tsdf._chunks()] == [1] * tsdf.n_blocks
        assert len(assert_band_grid_matches_voxelize(tsdf)) > 0

    @pytest.mark.parametrize("L", [1, 5, 8, 16])
    def test_voxels_per_side(self, L):
        tsdf = box_scene_tsdf(TsdfConfig(voxel_size=0.004, voxels_per_side=L))
        assert len(assert_band_grid_matches_voxelize(tsdf)) > 0

    def test_negative_block_indices(self):
        # the origin sits inside the scene, so the band spans blocks on both
        # sides of zero along every axis
        depths, cams = box_scene_views()
        cfg = TsdfConfig(voxel_size=0.004, voxels_per_side=5)
        cloud = fuse_views(depths, cams, BOX_WS, near=0.05, far=2.0)
        origin = np.array([0.0, 0.0, 0.02])
        tsdf = build_tsdf(cloud, depths, cams, cfg, origin, near=0.05, far=2.0)
        grid = assert_band_grid_matches_voxelize(tsdf)
        assert (grid.indices < 0).any(axis=0).all() and (grid.indices > 0).any(axis=0).all()

    def test_empty_tsdf(self):
        tsdf = SparseTsdf(TsdfConfig(voxel_size=0.004, voxels_per_side=8), np.zeros((0, 3)), np.zeros(3))
        grid = assert_band_grid_matches_voxelize(tsdf)
        assert grid.indices.shape == (0, 3) and grid.indices.dtype == np.int64
        assert grid.features.shape == (0, 5)

    def test_blocks_without_band(self):
        # observed, but every voxel clamps to phi = 1: blocks and weights, no band
        depth, intr, extr = flat_depth_camera(d=1.0)
        cfg = TsdfConfig(voxel_size=0.004, voxels_per_side=8, truncation=0.01)
        tsdf = SparseTsdf(cfg, np.array([[0, 0, 0], [0, 1, 0]]), np.array([-0.016, -0.016, 0.2]))
        tsdf.integrate_view(depth, intr, extr)
        assert tsdf.weight.max() > 0 and len(tsdf.band_rows()) == 0
        grid = assert_band_grid_matches_voxelize(tsdf)
        assert grid.indices.shape == (0, 3) and grid.indices.dtype == np.int64
        assert grid.features.shape == (0, 5)

    @pytest.mark.parametrize("L, x, fits", [
        (8, 2**17 - 1, True), (8, 2**17, False), (5, -209715, True),
        (5, 209715, False),  # the first voxel packs, the block's far corner does not
    ])
    def test_packable_range(self, L, x, fits):
        from sparsepose.grid import voxelize

        tsdf = SparseTsdf(TsdfConfig(voxel_size=0.004, voxels_per_side=L), np.array([[x, 0, 0]]), np.zeros(3))
        tsdf.weight[:] = 1.0
        tsdf.sdf[:] = 0.5
        if fits:
            assert len(assert_band_grid_matches_voxelize(tsdf)) == L**3
        else:
            with pytest.raises(DataError):
                tsdf.band_grid()
            with pytest.raises(DataError):
                voxelize(tsdf.extract_pbar(), tsdf.cfg.voxel_size, tsdf.origin)

    def test_band_rows_is_the_band_test(self):
        tsdf = box_scene_tsdf(TsdfConfig(voxel_size=0.004, voxels_per_side=8))
        keep = (tsdf.weight.reshape(-1) > 0) & (np.abs(tsdf.sdf.reshape(-1)) < 1.0)
        assert np.array_equal(tsdf.band_rows(), np.flatnonzero(keep))


class TestIntegrationUnderRaisingErrstate:
    def test_camera_plane_through_active_blocks(self):
        # the CLI runs every command with floating-point errors raising. A
        # camera at a voxel center puts a layer of voxels on its image plane
        # (z == 0), where x / z is inf or NaN; the masked pixel index is
        # computed on those lanes too, and must raise nothing
        cfg = TsdfConfig(voxel_size=0.002, voxels_per_side=8)
        blocks = box_scene_tsdf(cfg).block_indices
        new = SparseTsdf(cfg, blocks, BOX_WS.min_corner)
        old = SparseTsdf(cfg, blocks, BOX_WS.min_corner)
        block = np.array([4, 4, 1])  # holds the box center, amid the active blocks
        assert (new.block_indices == block).all(axis=1).any()
        eye = BOX_WS.min_corner + block * cfg.block_size + 0.5 * cfg.voxel_size
        extr = CameraExtrinsics(np.eye(3), eye)
        depth, intr, _ = flat_depth_camera(d=0.03)
        z = full_grid_centers(new)[:, 2] - eye[2]
        assert (z == 0).sum() > 1 and (z < 0).any() and (z > 0).any()
        with np.errstate(over="raise", divide="raise", invalid="raise"):
            new.integrate_view(depth, intr, extr)
        row_major_integrate(old, depth, intr, extr, 0.0, np.inf)
        assert old.weight.any()
        assert np.array_equal(new.sdf, old.sdf)
        assert np.array_equal(new.weight, old.weight)
