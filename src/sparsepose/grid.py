"""Attributed sparse voxel sets: voxelization, coarsening, window
partitioning and occupancy statistics.

Voxel indices are int64 triples with floor quantization (lower-inclusive),
kept unique and lexicographically sorted so that every downstream selection
is deterministic. Their packed int64 keys are grouped into runs by
`group_rows` (rows gathered by `run_rows`), looked up by `find_rows` and
given their 27 `STENCIL` neighbours by `neighbor_rows`: one copy of each rule.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DataError


# The 27 offsets of the 3x3x3 neighbourhood in lexicographic order; offset o
# and offset 26 - o are mirror images.
STENCIL = np.array(
    [[dx, dy, dz] for dx in (-1, 0, 1) for dy in (-1, 0, 1) for dz in (-1, 0, 1)],
    dtype=np.int64,
)


# Cells lattice_index accepts per axis: +-PACK_RANGE, what pack_index's
# default 21 bits hold.
PACK_RANGE = 1 << 20


def pack_index(indices: np.ndarray, bits: int = 21) -> np.ndarray:
    """Bit-pack integer 3D indices into one int64 key per row.

    21 bits per axis with an offset shift covers +-2^20 (about +-1e6), so
    collisions are impossible across any realistic workspace.
    """
    idx = np.asarray(indices, dtype=np.int64).reshape(-1, 3)
    offset = np.int64(1) << (bits - 1)
    limit = np.int64(1) << bits
    shifted = idx + offset
    if shifted.size and (shifted.min() < 0 or shifted.max() >= limit):
        raise DataError("voxel index outside packable range (+-2^20)")
    return (shifted[:, 0] << (2 * bits)) | (shifted[:, 1] << bits) | shifted[:, 2]


def lattice_index(points: np.ndarray, origin, size: float) -> np.ndarray:
    """Floor index (N, 3) int64 of each point in the lattice of cells of edge
    `size` anchored at `origin`. An index outside the packable range (+-2^20)
    raises DataError before the cast, which would otherwise wrap it."""
    offset = np.asarray(points, dtype=np.float64).reshape(-1, 3) - origin
    if offset.size and not np.abs(offset).max() < PACK_RANGE * size:
        raise DataError(f"cell size {size} puts an index outside the packable range (+-2^20)")
    return np.floor(offset / size).astype(np.int64)


def unpack_index(keys: np.ndarray, bits: int = 21) -> np.ndarray:
    keys = np.asarray(keys, dtype=np.int64).reshape(-1)
    offset = np.int64(1) << (bits - 1)
    mask = (np.int64(1) << bits) - 1
    x = (keys >> (2 * bits)) & mask
    y = (keys >> bits) & mask
    z = keys & mask
    return np.stack([x, y, z], axis=1) - offset


@dataclass(frozen=True)
class SparseVoxelGrid:
    """Sparse set of attributed voxels at one resolution.

    indices: (N, 3) int64, unique, lexicographically sorted.
    features: (N, C) float64, C >= 1.
    """

    resolution: float
    origin: np.ndarray
    indices: np.ndarray
    features: np.ndarray

    def __post_init__(self):
        origin = np.asarray(self.origin, dtype=np.float64).reshape(3)
        idx = np.asarray(self.indices, dtype=np.int64).reshape(-1, 3)
        feat = np.asarray(self.features, dtype=np.float64)
        if feat.ndim != 2:
            raise DataError(f"features must be 2D (N, C), got shape {feat.shape}")
        if self.resolution <= 0:
            raise DataError(f"voxel size must be positive, got {self.resolution}")
        if feat.shape[0] != idx.shape[0]:
            raise DataError("indices / features row count mismatch")
        if feat.shape[1] < 1:
            raise DataError("features need at least one channel")
        object.__setattr__(self, "origin", origin)
        object.__setattr__(self, "indices", idx)
        object.__setattr__(self, "features", feat)

    def __len__(self) -> int:
        return self.indices.shape[0]

    @property
    def channels(self) -> int:
        return self.features.shape[1]

    def centers(self, rows=slice(None)) -> np.ndarray:
        """World-frame voxel centers, meters: of every voxel, or of `rows`."""
        return self.origin + (self.indices[rows].astype(np.float64) + 0.5) * self.resolution

    def keys(self) -> np.ndarray:
        return pack_index(self.indices)

    def row_lookup(self, query_indices: np.ndarray) -> np.ndarray:
        """Row of each query index, or -1 when absent (keys are sorted
        because indices are lex-sorted)."""
        return find_rows(self.keys(), pack_index(query_indices))


def group_rows(keys: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Runs of equal keys: (order, starts, counts) where `order` is the
    stable ascending sort of the rows, so rows stay ascending within a run,
    and run r is rows order[starts[r] : starts[r] + counts[r]]."""
    keys = np.asarray(keys).reshape(-1)
    order = np.argsort(keys, kind="stable")
    s = keys[order]
    starts = np.flatnonzero(np.r_[s.size > 0, s[1:] != s[:-1]])
    return order, starts, np.diff(starts, append=s.size)


def run_rows(order: np.ndarray, starts: np.ndarray, counts: np.ndarray, runs) -> np.ndarray:
    """Rows of the chosen runs of a `group_rows` result, run after run:
    order[starts[r] : starts[r] + counts[r]] for r in `runs`, repeats allowed."""
    lo, run = starts[runs], counts[runs]
    first = np.cumsum(run) - run
    return order[np.arange(run.sum()) + np.repeat(lo - first, run)]


def neighbor_rows(indices: np.ndarray) -> np.ndarray:
    """(n, 27) rows of the unique index set `indices` (any order): [i, o] is
    the row of `indices[i] + STENCIL[o]`, or n where absent; so [i, o] == j
    exactly when [j, 26 - o] == i."""
    idx = np.asarray(indices, dtype=np.int64).reshape(-1, 3)
    n = idx.shape[0]
    keys = pack_index(idx)
    order = np.argsort(keys)
    wanted = pack_index((idx[:, None, :] + STENCIL[None, :, :]).reshape(-1, 3))
    # an absent neighbor (-1) reads the last entry of the appended order: n
    return np.append(order, n)[find_rows(keys[order], wanted)].reshape(n, 27)


def find_rows(sorted_keys: np.ndarray, query: np.ndarray) -> np.ndarray:
    """Position of each query key in the ascending `sorted_keys`, or -1
    where the key is absent."""
    if sorted_keys.size == 0:
        return np.full(np.shape(query), -1, dtype=np.int64)
    pos = np.minimum(np.searchsorted(sorted_keys, query), sorted_keys.size - 1)
    return np.where(sorted_keys[pos] == query, pos, -1)


def voxelize(points: np.ndarray, resolution: float, origin) -> SparseVoxelGrid:
    """Quantize points (N_p, 3+k) into a sparse voxel grid, k in {0, 1}.

    Per-voxel feature vector: [mean point offset from the voxel center in
    units of the voxel size (3), log(1 + point count) (1), mean of the extra
    channel when present (1)] -> C in {4, 5}.
    """
    pts = np.asarray(points, dtype=np.float64)
    if pts.ndim != 2 or pts.shape[1] not in (3, 4):
        raise DataError(f"points must be (N, 3) or (N, 4), got {pts.shape}")
    origin = np.asarray(origin, dtype=np.float64).reshape(3)
    has_extra = pts.shape[1] == 4
    n_channels = 5 if has_extra else 4
    if pts.shape[0] == 0:
        return SparseVoxelGrid(resolution, origin, np.zeros((0, 3), dtype=np.int64), np.zeros((0, n_channels)))
    xyz = pts[:, :3]
    idx = lattice_index(xyz, origin, resolution)
    order, starts, counts = group_rows(pack_index(idx))
    xyz_s = xyz[order]
    sums = np.add.reduceat(xyz_s, starts, axis=0)
    means = sums / counts[:, None]
    uniq_idx = idx[order[starts]]
    centers = origin + (uniq_idx.astype(np.float64) + 0.5) * resolution
    offset_feat = (means - centers) / resolution
    count_feat = np.log1p(counts.astype(np.float64))[:, None]
    feats = [offset_feat, count_feat]
    if has_extra:
        extra_s = pts[order, 3]
        extra_mean = np.add.reduceat(extra_s, starts) / counts
        feats.append(extra_mean[:, None])
    features = np.hstack(feats)

    # reduceat groups arrive sorted by packed key == lexicographic by (x,y,z)
    return SparseVoxelGrid(resolution, origin, uniq_idx, features)


def coarsen(grid: SparseVoxelGrid, factor: int = 10) -> tuple[SparseVoxelGrid, np.ndarray]:
    """Pool a grid by an integer factor: coarse index = floor(v / factor),
    coarse feature = mean of child features.

    Returns (coarse grid, parent_row) where parent_row[i] is the coarse row
    of fine voxel i.
    """
    if int(factor) != factor or factor < 2:
        raise DataError(f"coarsening factor must be an integer >= 2, got {factor}")
    factor = int(factor)
    coarse_idx = np.floor_divide(grid.indices, factor)
    if len(grid) == 0:
        empty = SparseVoxelGrid(grid.resolution * factor, grid.origin,
                                np.zeros((0, 3), dtype=np.int64), np.zeros((0, grid.channels)))
        return empty, np.zeros(0, dtype=np.int64)
    order, starts, counts = group_rows(pack_index(coarse_idx))
    feat_sums = np.add.reduceat(grid.features[order], starts, axis=0)
    coarse_feat = feat_sums / counts[:, None]
    uniq = coarse_idx[order][starts]
    coarse = SparseVoxelGrid(grid.resolution * factor, grid.origin, uniq, coarse_feat)
    parent_row = np.empty(len(grid), dtype=np.int64)
    parent_row[order] = np.repeat(np.arange(len(starts), dtype=np.int64), counts)
    return coarse, parent_row


def partition_indices(indices: np.ndarray, window: int) -> list[np.ndarray]:
    """Partition voxel indices into non-overlapping cubic windows of `window`
    voxels (window of v = floor(v / window)), batched by population: one
    (G, K_w) table of member rows per population K_w, in ascending K_w, its
    windows in lexicographic order and each row ascending. Every voxel lands
    in exactly one window and window populations are dynamic.
    """
    if int(window) != window or window < 1:
        raise DataError(f"window size must be an integer >= 1, got {window}")
    indices = np.asarray(indices, dtype=np.int64).reshape(-1, 3)
    order, starts, counts = group_rows(pack_index(np.floor_divide(indices, int(window))))
    return [run_rows(order, starts, counts, runs).reshape(runs.size, -1)
            for runs in (np.flatnonzero(counts == kw) for kw in np.unique(counts))]


def occupancy_stats(points: np.ndarray, workspace_extent, resolutions) -> list[dict]:
    """Sparse vs dense voxel counts of a point set over a resolution sweep.

    dense count = prod(ceil(extent / theta)); ratio = sparse / dense.
    """
    pts = np.asarray(points, dtype=np.float64).reshape(-1, 3)
    extent = np.asarray(workspace_extent, dtype=np.float64).reshape(3)
    rows = []
    for theta in resolutions:
        if pts.shape[0]:
            sparse = len(np.unique(pack_index(lattice_index(pts, 0.0, theta))))
        else:
            sparse = 0
        dense = int(np.prod(np.ceil(extent / theta)))
        rows.append({
            "theta_mm": theta * 1000.0,
            "sparse": int(sparse),
            "dense": dense,
            "ratio": sparse / dense if dense else 0.0,
        })
    return rows


def occupancy_table(rows: list[dict]) -> tuple[str, list[str]]:
    """Occupancy statistics as a CSV header and one line per resolution."""
    return "theta_mm,sparse,dense,ratio", [f"{r['theta_mm']:.6g},{r['sparse']},{r['dense']},{r['ratio']:.9g}"
                                           for r in rows]
