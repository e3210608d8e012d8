"""Hash-blocked sparse truncated signed distance field.

The workspace is tiled into coarse blocks of B = L * theta meters; only
blocks touched by the observed surface (plus their 26-neighborhood, so the
truncation band stays representable) are allocated. Each block holds an
L^3 voxel payload of (normalized signed distance, accumulated weight).
"""

from __future__ import annotations

import os
import struct
from dataclasses import dataclass

import numpy as np

from .camera import CameraExtrinsics, CameraIntrinsics, DepthImage
from .errors import DataError
from .grid import STENCIL, SparseVoxelGrid, find_rows, lattice_index, pack_index, unpack_index
from .ioutil import atomic_write_bytes, read_file

# magic, block_size, voxels_per_side, voxel_size, truncation, weight_cap,
# origin[3], block_count; the dump layout is described in SparseTsdf
_HEADER = struct.Struct("<8sdIddddddq")


def _block_dtype(L: int) -> np.dtype:
    return np.dtype([("index", "<i8", (3,)), ("pairs", "<f4", (L * L * L, 2))])


# Voxels per integration / extraction step: whole blocks, about 2^15
# voxels (8 blocks at L = 16), so a step's temporaries stay in cache.
_CHUNK_VOXELS = 1 << 15

# integrate_view's chunk threads: each holds about 1.7 MB of temporaries, and
# only two were measured (a fifth faster on two cores); more would outgrow
# the chunk memory bound without a measured gain.
_MAX_WORKERS = 2


@dataclass(frozen=True)
class TsdfConfig:
    """Block/voxel geometry and integration constants.

    block size B = voxels_per_side * voxel_size holds exactly; truncation
    defaults to 8 voxel sizes.
    """

    voxel_size: float
    voxels_per_side: int = 16
    truncation: float | None = None
    weight_cap: float = 64.0

    def __post_init__(self):
        if self.voxel_size <= 0:
            raise DataError(f"voxel size must be positive, got {self.voxel_size}")
        if self.voxels_per_side < 1:
            raise DataError("voxels_per_side must be >= 1")
        if self.truncation is None:
            object.__setattr__(self, "truncation", 8.0 * self.voxel_size)
        if self.truncation <= 0:
            raise DataError(f"truncation must be positive, got {self.truncation}")
        if self.weight_cap <= 0:
            raise DataError("weight cap must be positive")

    @property
    def block_size(self) -> float:
        return self.voxels_per_side * self.voxel_size


def activate_blocks(points: np.ndarray, cfg: TsdfConfig, origin) -> np.ndarray:
    """Blocks intersected by the fused surface points (N, 3), dilated by
    their 26-neighborhood so the +-truncation band around the surface fits.

    Returns (n, 3) int64 block indices, lexicographically sorted. Empty
    clouds activate nothing.
    """
    origin = np.asarray(origin, dtype=np.float64).reshape(3)
    if len(points) == 0:
        return np.zeros((0, 3), dtype=np.int64)
    surf = np.unique(pack_index(lattice_index(points, origin, cfg.block_size)))
    dilated = unpack_index(surf)[:, None, :] + STENCIL[None, :, :]
    keys = np.unique(pack_index(dilated.reshape(-1, 3)))
    return unpack_index(keys)


class SparseTsdf:
    """Active blocks, each named once, sorted by packed block key (a
    repeated block raises DataError); block slot i holds an L^3
    payload of (sdf, weight) voxels in `sdf[i]` and `weight[i]`.

    sdf is the normalized truncated signed distance in [-1, 1]; weight counts
    capped observations. Blocks are fixed at construction (activation step);
    their payloads are independent array slices, so concurrent reads with
    exclusive per-block writes are safe. integrate_view relies on this: its
    worker threads each write a disjoint chunk of blocks.
    """

    def __init__(self, cfg: TsdfConfig, block_indices: np.ndarray, origin):
        self.cfg = cfg
        self.origin = np.asarray(origin, dtype=np.float64).reshape(3)
        keys = np.sort(pack_index(block_indices))
        self.block_indices = unpack_index(keys)
        if np.any(keys[1:] == keys[:-1]):
            twice = self.block_indices[1:][keys[1:] == keys[:-1]][0]
            raise DataError(f"block {tuple(twice.tolist())} appears more than once")
        L = cfg.voxels_per_side
        n = len(self.block_indices)
        self.sdf = np.zeros((n, L, L, L), dtype=np.float64)
        self.weight = np.zeros((n, L, L, L), dtype=np.float64)
        self._local = np.indices((L, L, L)).reshape(3, -1)  # (3, L^3) in local lex order

    @property
    def n_blocks(self) -> int:
        return len(self.block_indices)

    def _chunks(self):
        """(first, stop) block ranges of about _CHUNK_VOXELS voxels each, at
        least one block per range, covering every block in slot order."""
        step = max(1, _CHUNK_VOXELS // self.cfg.voxels_per_side**3)
        for b0 in range(0, self.n_blocks, step):
            yield b0, min(b0 + step, self.n_blocks)

    def _center_parts(self, blocks: np.ndarray, local: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """World center of voxel (b, l) is corners[:, b] + offsets[..., l], as
        coordinate rows: corners (3, n) = origin + corner offset of the (n, 3)
        block indices, offsets the in-block center offsets of local indices."""
        corners = (self.origin + blocks.astype(np.float64) * self.cfg.block_size).T
        return corners, (local + 0.5) * self.cfg.voxel_size

    def integrate_view(
        self,
        depth: DepthImage,
        intr: CameraIntrinsics,
        extr: CameraExtrinsics,
        near: float = 0.0,
        far: float = np.inf,
    ) -> None:
        """Fuse one depth view into every active voxel (weighted average).

        For each voxel center v: project into the view, read d at the nearest
        pixel, form s = d - z and the normalized value clamp(s / tau, -1, 1).
        Updates are skipped for invalid pixels, points behind the camera and
        s < -tau (deep behind the surface, standard space carving guard).

        The blocks are walked in chunks of about _CHUNK_VOXELS voxels, so the
        temporaries of one chunk are bounded by the chunk, not by the grid.
        Centers are (3, n) coordinate rows projected as R^T @ (c - t); pixels
        are rounded and bounds-tested in float, one take on the flat image
        reads every lane (off-image lanes at pixel 0) and only the lanes that
        pass are updated. sdf and weight match the row-major full-grid
        formula bit for bit.

        Chunks run on a pool of _MAX_WORKERS threads, fewer if this process
        may use fewer CPUs or there are fewer chunks: each chunk writes only
        its own slice of sdf and weight, and numpy releases the GIL inside
        each ufunc, so two chunks overlap. A lane's arithmetic does not
        depend on the thread that runs it, so the result is the same bit for
        bit. The chunk body works in place and drops each buffer before the
        next large one, so the temporaries of both workers together stay
        about two chunks' worth whatever the host's core count.
        """
        if depth.values.shape != (intr.height, intr.width):
            raise DataError(f"depth shape {depth.values.shape} does not match intrinsics")
        tau = self.cfg.truncation
        corners, local = self._center_parts(self.block_indices, self._local)
        t = extr.translation[:, None]

        def integrate_chunk(b0: int, b1: int) -> None:
            centers = (corners[:, b0:b1, None] + local[:, None, :]).reshape(3, -1)
            centers -= t
            u, v, z = extr.rotation.T @ centers  # u, v hold x, y until the pixel overwrites them
            del centers
            # off-image lanes hold inf and NaN; the float pixel index is exact below 2^53
            with np.errstate(divide="ignore", invalid="ignore"):
                np.multiply(intr.fx, u, out=u)
                u /= z
                u += intr.cx
                np.rint(u, out=u)
                np.multiply(intr.fy, v, out=v)
                v /= z
                v += intr.cy
                np.rint(v, out=v)
                inside = (z > 0) & (u >= 0) & (u < intr.width) & (v >= 0) & (v < intr.height)
                v *= intr.width  # v becomes the flat pixel index
                v += u
                v[~inside] = 0.0
            d = depth.values.take(v.astype(np.int64))
            s = np.subtract(d, z, out=z)
            rows = np.flatnonzero(inside & (d > 0) & (d >= near) & (d <= far) & (s >= -tau))
            del d, inside
            phi = np.clip(s[rows] / tau, -1.0, 1.0)
            sdf, w = self.sdf[b0:b1].reshape(-1), self.weight[b0:b1].reshape(-1)  # chunk views
            w_old = w[rows]
            sdf[rows] = (w_old * sdf[rows] + phi) / (w_old + 1.0)
            w[rows] = np.minimum(w_old + 1.0, self.cfg.weight_cap)

        chunks = list(self._chunks())
        cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1
        workers = max(1, min(cpus, len(chunks), _MAX_WORKERS))
        from concurrent.futures import ThreadPoolExecutor  # deferred: keeps package import light
        with ThreadPoolExecutor(workers) as pool:
            list(pool.map(integrate_chunk, *zip(*chunks)))  # list() re-raises a chunk's exception

    def band_rows(self) -> np.ndarray:
        """Ascending flat rows (slot * L^3 + local) of the band, w > 0 and
        |sdf| < 1, tested chunk by chunk so temporaries stay chunk-sized."""
        L3 = self.cfg.voxels_per_side**3
        kept = [np.flatnonzero((self.weight[b0:b1] > 0) & (np.abs(self.sdf[b0:b1]) < 1.0)) + b0 * L3
                for b0, b1 in self._chunks()]
        return np.concatenate(kept) if kept else np.zeros(0, dtype=np.int64)

    def extract_pbar(self) -> np.ndarray:
        """Enriched representation: rows (x, y, z, sdf) of the band voxels
        in band_rows order. Centers match the full-grid center formula bit for
        bit. For readers of band points; the fine grid comes from band_grid."""
        rows = self.band_rows()
        corners, local = self._center_parts(self.block_indices, self._local)
        b, l = np.divmod(rows, self.cfg.voxels_per_side**3)
        return np.hstack([(corners[:, b] + local[:, l]).T, self.sdf.reshape(-1)[rows][:, None]])

    def band_grid(self) -> SparseVoxelGrid:
        """The band as a sparse grid at voxel_size anchored at origin, equal
        to voxelize(extract_pbar(), voxel_size, origin). Each band voxel holds
        one point: one sort of the packed keys orders the rows, and features
        are voxelize's for one point (center offset, log1p(1), sdf). A center
        offset depends on the global index alone along each axis, so it is
        tabulated over the index span with the same expressions."""
        L, h = self.cfg.voxels_per_side, self.cfg.voxel_size
        rows = self.band_rows()
        keys = self._voxel_keys(rows)
        order = np.argsort(keys, kind="stable")  # keys are unique; runs arrive nearly sorted
        idx = unpack_index(keys[order])
        features = np.empty((len(rows), 5))
        if len(rows):
            g = np.arange(idx.min(), idx.max() + 1)
            corners, local = self._center_parts(np.stack([g // L] * 3, axis=1), g % L)
            offset = (corners + local - (self.origin[:, None] + (g + 0.5) * h)) / h  # row per axis
            features[:, :3] = offset.reshape(-1).take(idx - g[0] + np.arange(3) * len(g))
        features[:, 3] = np.log1p(1.0)
        features[:, 4] = self.sdf.reshape(-1).take(rows[order])
        return SparseVoxelGrid(h, self.origin, idx, features)

    def _voxel_keys(self, rows: np.ndarray) -> np.ndarray:
        """Packed global index block * L + local of flat voxel rows: a
        per-block base key plus a per-voxel local offset. Checking each
        block's far corner keeps every sum inside the key's fields."""
        L = self.cfg.voxels_per_side
        b, l = np.divmod(rows, L**3)
        base = self.block_indices * L
        pack_index(base + (L - 1))
        return pack_index(base)[b] + (pack_index(self._local.T) - pack_index(np.zeros(3)))[l]

    # -- binary dump ---------------------------------------------------------
    # Layout (little-endian):
    #   magic "SPTSDF01" (8 bytes)
    #   float64 block_size, int32 voxels_per_side, float64 voxel_size,
    #   float64 truncation, float64 weight_cap, float64 origin[3],
    #   int64 block_count
    #   per block: int64 index[3], then L^3 pairs of float32 (sdf, weight)
    #   in local lexicographic voxel order.
    # A file whose length differs from header + block_count * (24 + 8 L^3),
    # or that names one block twice, is rejected.

    MAGIC = b"SPTSDF01"

    def dump(self, path) -> None:
        L = self.cfg.voxels_per_side
        blob = np.zeros(_HEADER.size + self.n_blocks * _block_dtype(L).itemsize, dtype=np.uint8)
        _HEADER.pack_into(blob, 0, self.MAGIC, self.cfg.block_size, L, self.cfg.voxel_size,
                          self.cfg.truncation, self.cfg.weight_cap, *self.origin, self.n_blocks)
        blocks = blob[_HEADER.size:].view(_block_dtype(L))
        blocks["index"] = self.block_indices
        blocks["pairs"][..., 0] = self.sdf.reshape(self.n_blocks, -1)
        blocks["pairs"][..., 1] = self.weight.reshape(self.n_blocks, -1)
        atomic_write_bytes(path, blob)

    @classmethod
    def load(cls, path) -> "SparseTsdf":
        return read_file(path, "sparse TSDF dump", lambda blob: cls._parse(path, blob))

    @classmethod
    def _parse(cls, path, blob: bytes) -> "SparseTsdf":
        if len(blob) < _HEADER.size or blob[:8] != cls.MAGIC:
            raise DataError(f"{path}: not a sparse TSDF dump")
        _, block_size, L, voxel_size, trunc, cap, ox, oy, oz, n_blocks = _HEADER.unpack_from(blob)
        cfg = TsdfConfig(voxel_size=voxel_size, voxels_per_side=L, truncation=trunc, weight_cap=cap)
        if abs(cfg.block_size - block_size) > 1e-12:
            raise DataError(f"{path}: inconsistent block size in header")
        if n_blocks < 0 or len(blob) != _HEADER.size + n_blocks * (24 + 8 * L**3):
            raise DataError(f"{path}: {len(blob)} bytes do not hold the {n_blocks} blocks "
                            f"of {L}^3 voxels the header declares (truncated or padded)")
        blocks = np.frombuffer(blob, dtype=_block_dtype(L), count=n_blocks, offset=_HEADER.size)
        try:
            out = cls(cfg, blocks["index"], (ox, oy, oz))
        except DataError as e:
            raise DataError(f"{path}: {e}") from None
        slots = find_rows(pack_index(out.block_indices), pack_index(blocks["index"]))
        out.sdf[slots] = blocks["pairs"][..., 0].reshape(-1, L, L, L)
        out.weight[slots] = blocks["pairs"][..., 1].reshape(-1, L, L, L)
        return out


def build_tsdf(
    points: np.ndarray,
    depths,
    cams,
    cfg: TsdfConfig,
    origin,
    near: float = 0.0,
    far: float = np.inf,
) -> SparseTsdf:
    """Activate blocks from the fused cloud's points, then integrate every
    view."""
    blocks = activate_blocks(points, cfg, origin)
    tsdf = SparseTsdf(cfg, blocks, origin)
    for depth, (intr, extr) in zip(depths, cams):
        tsdf.integrate_view(depth, intr, extr, near=near, far=far)
    return tsdf
