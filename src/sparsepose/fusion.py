"""Multi-view depth fusion into a single world-frame point cloud.

The vanilla input path: per-view back-projection, workspace cropping, plain
union (no deduplication; that happens implicitly at voxelization).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .camera import DEFAULT_FAR, DEFAULT_NEAR, CameraExtrinsics, CameraIntrinsics, DepthImage, backproject
from .errors import DataError
from .ioutil import atomic_write_bytes, read_file


@dataclass(frozen=True)
class Workspace:
    """Axis-aligned observation volume, meters. Inclusive min, exclusive max."""

    min_corner: np.ndarray
    max_corner: np.ndarray

    def __post_init__(self):
        lo = np.asarray(self.min_corner, dtype=np.float64).reshape(3)
        hi = np.asarray(self.max_corner, dtype=np.float64).reshape(3)
        object.__setattr__(self, "min_corner", lo)
        object.__setattr__(self, "max_corner", hi)
        if not np.all(hi > lo):
            raise DataError(f"workspace max {hi} must exceed min {lo} on every axis")

    @property
    def extent(self) -> np.ndarray:
        return self.max_corner - self.min_corner

    def contains(self, points: np.ndarray) -> np.ndarray:
        p = np.atleast_2d(np.asarray(points, dtype=np.float64))
        return np.all((p >= self.min_corner) & (p < self.max_corner), axis=1)


def fuse_views(
    depths: list[DepthImage],
    cams: list[tuple[CameraIntrinsics, CameraExtrinsics]],
    workspace: Workspace,
    near: float = DEFAULT_NEAR,
    far: float = DEFAULT_FAR,
) -> np.ndarray:
    """Back-project every view and concatenate, cropped to the workspace:
    the world-frame cloud as (N, 3) float64 meters.

    Point order is deterministic: view-major, then row-major within a view.
    No valid points is a legitimate outcome and yields an empty (0, 3) cloud.
    """
    if len(depths) != len(cams) or len(depths) < 1:
        raise DataError(f"need equally many depths and cameras (>= 1), got {len(depths)} / {len(cams)}")
    chunks = []
    for depth, (intr, extr) in zip(depths, cams):
        pts = backproject(depth, intr, extr, near=near, far=far)
        chunks.append(pts[workspace.contains(pts)])
    return np.concatenate(chunks, axis=0)


# ---------------------------------------------------------------------------
# PLY (binary little-endian) for cloud inspection and model meshes
# ---------------------------------------------------------------------------


def write_ply_points(path, points: np.ndarray, scalar: np.ndarray | None = None, scalar_name: str = "value") -> None:
    """Binary little-endian PLY of a point cloud, optional per-point scalar."""
    pts = np.asarray(points, dtype="<f4").reshape(-1, 3)
    header = ["ply", "format binary_little_endian 1.0", f"element vertex {len(pts)}"]
    header += ["property float x", "property float y", "property float z"]
    if scalar is not None:
        s = np.asarray(scalar, dtype="<f4").reshape(-1, 1)
        if len(s) != len(pts):
            raise DataError("scalar length must match point count")
        header.append(f"property float {scalar_name}")
        pts = np.hstack([pts, s])
    header += ["end_header"]
    atomic_write_bytes(path, ("\n".join(header) + "\n").encode("ascii") + pts.tobytes())


# one PLY triangle: the vertex count 3, then three vertex indices
_FACE = np.dtype([("n", "u1"), ("v", "<i4", (3,))])


def write_ply_mesh(path, vertices: np.ndarray, faces: np.ndarray) -> None:
    """Binary little-endian PLY triangle mesh."""
    verts = np.asarray(vertices, dtype="<f4").reshape(-1, 3)
    tris = np.asarray(faces, dtype=np.int64).reshape(-1, 3)
    header = [
        "ply",
        "format binary_little_endian 1.0",
        f"element vertex {len(verts)}",
        "property float x",
        "property float y",
        "property float z",
        f"element face {len(tris)}",
        "property list uchar int vertex_indices",
        "end_header",
    ]
    face_rows = np.zeros(len(tris), dtype=_FACE)
    face_rows["n"] = 3
    face_rows["v"] = tris
    atomic_write_bytes(path, ("\n".join(header) + "\n").encode("ascii") + verts.tobytes() + face_rows.tobytes())


def read_ply(path) -> tuple[np.ndarray, np.ndarray | None, list[str]]:
    """Read a binary little-endian PLY written by this module.

    Returns (vertex table (N, P) float64, faces (F, 3) int64 or None,
    vertex property names). A body that is not exactly the declared vertices
    and triangles, or a face index outside the vertex table, raises
    DataError.
    """
    return read_file(path, "PLY file", lambda blob: _parse_ply(path, blob))


def _parse_ply(path, blob: bytes):
    end = blob.find(b"end_header\n")
    if not blob.startswith(b"ply") or end < 0:
        raise DataError(f"{path}: not a PLY file")
    header_lines = blob[:end].decode("ascii").splitlines()
    if "format binary_little_endian 1.0" not in header_lines:
        raise DataError(f"{path}: only binary little-endian PLY supported")
    n_vert = n_face = 0
    props: list[str] = []
    element = None
    for line in header_lines:
        parts = line.split()
        if not parts:
            continue
        if parts[0] == "element":
            element = parts[1]
            if element == "vertex":
                n_vert = int(parts[2])
            elif element == "face":
                n_face = int(parts[2])
        elif parts[0] == "property" and element == "vertex":
            if parts[1] != "float":
                raise DataError(f"{path}: unsupported vertex property type {parts[1]}")
            props.append(parts[2])
    body = blob[end + len(b"end_header\n"):]
    vert_bytes = n_vert * len(props) * 4
    if min(n_vert, n_face) < 0 or len(body) != vert_bytes + n_face * _FACE.itemsize:
        raise DataError(f"{path}: {len(body)} bytes after the header do not hold the {n_vert} vertices "
                        f"and {n_face} faces it declares (truncated or padded)")
    verts = np.frombuffer(body, dtype="<f4", count=n_vert * len(props)).reshape(n_vert, len(props))
    if not n_face:
        return verts.astype(np.float64), None, props
    rows = np.frombuffer(body, dtype=_FACE, offset=vert_bytes)
    if np.any(rows["n"] != 3):
        raise DataError(f"{path}: only triangle faces supported")
    if rows["v"].min() < 0 or rows["v"].max() >= n_vert:
        raise DataError(f"{path}: face vertex index outside the {n_vert} vertices")
    return verts.astype(np.float64), rows["v"].astype(np.int64), props
