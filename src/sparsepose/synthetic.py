"""Synthetic bin scenes with exact ground truth.

Primitive part meshes, collision-free pose sampling inside a bin, z-buffer
depth rendering with optional sensor noise, and a documented on-disk scene
bundle:

    scene.json   bin/workspace geometry, instances, noise, model metadata
    cam_XX.json  per-view intrinsics + 4x4 camera-to-world extrinsics
    depth_XX.png 16-bit depth (scale factor recorded in the JSONs)
    gt.json      per-object class, rotation, translation, centroid
    models/*.ply canonical part meshes
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .camera import (CameraExtrinsics, CameraIntrinsics, DepthImage, check_rotation, load_camera_json,
                     load_depth_png, save_camera_json, save_depth_png)
from .errors import DataError
from .fusion import Workspace, read_ply, write_ply_mesh
from .heatmap import SceneGroundTruth
from .ioutil import json_document, read_file, write_json

CLOUD_POINTS = 2048
_CLOUD_SEED_BASE = 1000


@dataclass(frozen=True)
class Mesh:
    vertices: np.ndarray  # (V, 3) meters
    faces: np.ndarray     # (F, 3) int

    def __post_init__(self):
        v = np.asarray(self.vertices, dtype=np.float64).reshape(-1, 3)
        f = np.asarray(self.faces, dtype=np.int64).reshape(-1, 3)
        object.__setattr__(self, "vertices", v)
        object.__setattr__(self, "faces", f)

    def triangles(self) -> np.ndarray:
        return self.vertices[self.faces]

    def areas(self) -> np.ndarray:
        tri = self.triangles()
        return 0.5 * np.linalg.norm(np.cross(tri[:, 1] - tri[:, 0], tri[:, 2] - tri[:, 0]), axis=1)

    def surface_centroid(self) -> np.ndarray:
        """Area-weighted centroid of the triangle surface."""
        tri = self.triangles()
        areas = self.areas()
        centers = tri.mean(axis=1)
        return (centers * areas[:, None]).sum(axis=0) / areas.sum()

    def aabb(self) -> tuple[np.ndarray, np.ndarray]:
        return self.vertices.min(axis=0), self.vertices.max(axis=0)


def sample_surface(mesh: Mesh, n: int, seed: int) -> np.ndarray:
    """Uniform-by-area surface samples, deterministic per seed."""
    rng = np.random.default_rng(seed)
    areas = mesh.areas()
    tri = mesh.triangles()
    chosen = rng.choice(len(tri), size=n, p=areas / areas.sum())
    r1 = np.sqrt(rng.random(n))
    r2 = rng.random(n)
    a, b, c = tri[chosen, 0], tri[chosen, 1], tri[chosen, 2]
    return (1 - r1)[:, None] * a + (r1 * (1 - r2))[:, None] * b + (r1 * r2)[:, None] * c


def _z_rotations(steps: int) -> list[np.ndarray]:
    out = []
    for k in range(steps):
        ang = 2.0 * np.pi * k / steps
        c, s = np.cos(ang), np.sin(ang)
        out.append(np.array([[c, -s, 0.0], [s, c, 0.0], [0.0, 0.0, 1.0]]))
    return out


# ---------------------------------------------------------------------------
# Primitive meshes
# ---------------------------------------------------------------------------


def make_box_mesh(extents) -> Mesh:
    """Axis-aligned box centered at the origin: 8 vertices, 12 triangles."""
    ex = np.asarray(extents, dtype=np.float64).reshape(3) / 2.0
    signs = np.array([[x, y, z] for x in (-1, 1) for y in (-1, 1) for z in (-1, 1)], dtype=np.float64)
    verts = signs * ex
    faces = np.array(
        [
            [0, 1, 3], [0, 3, 2],  # x = -ex
            [4, 6, 7], [4, 7, 5],  # x = +ex
            [0, 4, 5], [0, 5, 1],  # y = -ey
            [2, 3, 7], [2, 7, 6],  # y = +ey
            [0, 2, 6], [0, 6, 4],  # z = -ez
            [1, 5, 7], [1, 7, 3],  # z = +ez
        ],
        dtype=np.int64,
    )
    return Mesh(verts, faces)


def _extrude_polygon(poly_xz: np.ndarray, cap_tris: np.ndarray, width: float) -> Mesh:
    """Prism from a simple polygon in the x-z plane extruded along y."""
    n = len(poly_xz)
    half = width / 2.0
    front = np.column_stack([poly_xz[:, 0], np.full(n, -half), poly_xz[:, 1]])
    back = np.column_stack([poly_xz[:, 0], np.full(n, half), poly_xz[:, 1]])
    verts = np.vstack([front, back])
    faces = []
    for tri in cap_tris:
        a, b, c = (int(t) for t in tri)
        faces.append([a, c, b])             # front cap
        faces.append([a + n, b + n, c + n])  # back cap
    for i in range(n):
        j = (i + 1) % n
        faces.append([i, j, j + n])
        faces.append([i, j + n, i + n])
    return Mesh(verts, np.asarray(faces, dtype=np.int64))


def make_l_bracket_mesh(leg_a: float = 0.04, leg_b: float = 0.03, thickness: float = 0.012, width: float = 0.02) -> Mesh:
    """L-shaped profile extruded along y; no rotational symmetry."""
    poly = np.array(
        [
            [0.0, 0.0],
            [leg_a, 0.0],
            [leg_a, thickness],
            [thickness, thickness],
            [thickness, leg_b],
            [0.0, leg_b],
        ]
    )
    cap = np.array([[0, 1, 2], [0, 2, 3], [0, 3, 4], [0, 4, 5]], dtype=np.int64)
    mesh = _extrude_polygon(poly, cap, width)
    lo, hi = mesh.aabb()
    return Mesh(mesh.vertices - (lo + hi) / 2.0, mesh.faces)


def make_notched_cylinder_mesh(
    radius: float = 0.012,
    height: float = 0.036,
    notch_depth: float = 0.004,
    notch_height: float = 0.008,
    notch_segments: int = 3,
    segments: int = 36,
) -> Mesh:
    """Cylinder with a rectangular rim notch (an angular sector of the top
    band recessed to a smaller radius). Centered at the origin, axis = z."""
    z0, z1, z2 = -height / 2.0, height / 2.0 - notch_height, height / 2.0
    r_in = radius - notch_depth
    ang = 2.0 * np.pi * np.arange(segments) / segments
    cs = np.column_stack([np.cos(ang), np.sin(ang)])
    notched = np.zeros(segments, dtype=bool)
    notched[:notch_segments] = True

    verts: list[np.ndarray] = []
    faces: list[list[int]] = []

    def vid(p) -> int:
        verts.append(np.asarray(p, dtype=np.float64))
        return len(verts) - 1

    bottom_center = vid([0.0, 0.0, z0])
    top_center = vid([0.0, 0.0, z2])
    ring_b = [vid([radius * c, radius * s, z0]) for c, s in cs]
    ring_m_out = [vid([radius * c, radius * s, z1]) for c, s in cs]
    # top ring radius depends on whether the segment sits in the notch; the
    # vertex at angle k belongs to segments k-1 and k, so both variants exist
    ring_t_out = [vid([radius * c, radius * s, z2]) for c, s in cs]
    ring_m_in = [vid([r_in * c, r_in * s, z1]) for c, s in cs]
    ring_t_in = [vid([r_in * c, r_in * s, z2]) for c, s in cs]

    for k in range(segments):
        j = (k + 1) % segments
        # bottom cap and lower wall are full-radius everywhere
        faces.append([bottom_center, ring_b[j], ring_b[k]])
        faces.append([ring_b[k], ring_b[j], ring_m_out[j]])
        faces.append([ring_b[k], ring_m_out[j], ring_m_out[k]])
        if not notched[k]:
            faces.append([ring_m_out[k], ring_m_out[j], ring_t_out[j]])
            faces.append([ring_m_out[k], ring_t_out[j], ring_t_out[k]])
            faces.append([top_center, ring_t_out[k], ring_t_out[j]])
        else:
            # ledge annulus at z1, inner wall, recessed top cap
            faces.append([ring_m_in[k], ring_m_in[j], ring_m_out[j]])
            faces.append([ring_m_in[k], ring_m_out[j], ring_m_out[k]])
            faces.append([ring_m_in[k], ring_t_in[j], ring_m_in[j]])
            faces.append([ring_m_in[k], ring_t_in[k], ring_t_in[j]])
            faces.append([top_center, ring_t_in[k], ring_t_in[j]])
        if notched[k] != notched[k - 1]:
            # radial wall closing the notch side at angle k
            faces.append([ring_m_in[k], ring_m_out[k], ring_t_out[k]])
            faces.append([ring_m_in[k], ring_t_out[k], ring_t_in[k]])
        if notched[k] != notched[j]:
            faces.append([ring_m_in[j], ring_t_out[j], ring_m_out[j]])
            faces.append([ring_m_in[j], ring_t_in[j], ring_t_out[j]])
    return Mesh(np.asarray(verts), np.asarray(faces, dtype=np.int64))


def make_tube_mesh(r_out: float = 0.010, r_in: float = 0.006, height: float = 0.030, segments: int = 36) -> Mesh:
    """Hollow cylinder (pipe): outer/inner walls plus two annular caps."""
    z0, z1 = -height / 2.0, height / 2.0
    ang = 2.0 * np.pi * np.arange(segments) / segments
    cs = np.column_stack([np.cos(ang), np.sin(ang)])
    verts = []
    for r, z in ((r_out, z0), (r_out, z1), (r_in, z0), (r_in, z1)):
        for c, s in cs:
            verts.append([r * c, r * s, z])
    verts = np.asarray(verts, dtype=np.float64)
    ob, ot, ib, it_ = 0, segments, 2 * segments, 3 * segments
    faces = []
    for k in range(segments):
        j = (k + 1) % segments
        faces += [[ob + k, ob + j, ot + j], [ob + k, ot + j, ot + k]]          # outer wall
        faces += [[ib + k, it_ + j, ib + j], [ib + k, it_ + k, it_ + j]]       # inner wall
        faces += [[ot + k, ot + j, it_ + j], [ot + k, it_ + j, it_ + k]]       # top annulus
        faces += [[ob + k, ib + j, ob + j], [ob + k, ib + k, ib + j]]          # bottom annulus
    return Mesh(verts, np.asarray(faces, dtype=np.int64))


@dataclass(frozen=True)
class ObjectModel:
    """A known part: mesh, canonical surface cloud, declared symmetry set."""

    class_id: int
    name: str
    mesh: Mesh
    cloud: np.ndarray                 # (>= 2000, 3) canonical surface samples
    symmetries: list = field(default_factory=list)  # rotations mapping the model onto itself

    def __post_init__(self):
        if len(self.cloud) < 3:
            raise DataError("canonical cloud too small")
        syms = [np.asarray(s, dtype=np.float64).reshape(3, 3) for s in self.symmetries]
        if not syms:
            syms = [np.eye(3)]
        object.__setattr__(self, "symmetries", syms)

    @cached_property
    def diameter(self) -> float:
        """Largest vertex-to-vertex distance; computed on first access."""
        v = self.mesh.vertices
        d2 = np.sum((v[:, None, :] - v[None, :, :]) ** 2, axis=2)
        return float(np.sqrt(d2.max()))

    @cached_property
    def centroid(self) -> np.ndarray:
        """The mesh's surface centroid (zero for a canonical-frame model up
        to rounding), read-only; computed on first access."""
        c = self.mesh.surface_centroid()
        c.flags.writeable = False
        return c

    @cached_property
    def cloud_tree(self):
        """KD-tree over the canonical cloud, the ICP model; built on first access."""
        from scipy.spatial import cKDTree  # deferred: keeps package import light
        return cKDTree(self.cloud)


def _model(class_id: int, name: str, mesh: Mesh, symmetries) -> ObjectModel:
    # canonical frame: surface centroid at the origin, so an object-center
    # estimate doubles as the pose translation
    centered = Mesh(mesh.vertices - mesh.surface_centroid(), mesh.faces)
    cloud = sample_surface(centered, CLOUD_POINTS, seed=_CLOUD_SEED_BASE + class_id)
    return ObjectModel(class_id, name, centered, cloud, symmetries)


def make_primitives() -> dict[str, ObjectModel]:
    """The part library: box, L-bracket, notched cylinder, tube.

    Symmetry sets by construction: the box footprint is square (4-element
    group about z), the two cylindrical parts carry the continuous axis
    symmetry discretized to 36 steps, the bracket only the identity.
    """
    return {
        "box": _model(1, "box", make_box_mesh((0.04, 0.04, 0.02)), _z_rotations(4)),
        "l_bracket": _model(2, "l_bracket", make_l_bracket_mesh(), [np.eye(3)]),
        "notched_cylinder": _model(3, "notched_cylinder", make_notched_cylinder_mesh(), _z_rotations(36)),
        "tube": _model(4, "tube", make_tube_mesh(), _z_rotations(36)),
    }


# ---------------------------------------------------------------------------
# Scene sampling
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Instance:
    class_id: int
    name: str
    rotation: np.ndarray   # (3, 3)
    translation: np.ndarray  # (3,)


@dataclass(frozen=True)
class SceneSpec:
    bin_min: np.ndarray
    bin_max: np.ndarray
    workspace: Workspace
    instances: list
    cameras: list            # [(CameraIntrinsics, CameraExtrinsics)]
    noise_sigma: float = 0.0
    dropout: float = 0.0
    seed: int = 0
    depth_scale: float = 5e-5
    with_bin_walls: bool = True


def random_rotation(rng: np.random.Generator) -> np.ndarray:
    """Uniform random rotation via a normalized random quaternion."""
    q = rng.normal(size=4)
    q /= np.linalg.norm(q)
    w, x, y, z = q
    return np.array(
        [
            [1 - 2 * (y * y + z * z), 2 * (x * y - w * z), 2 * (x * z + w * y)],
            [2 * (x * y + w * z), 1 - 2 * (x * x + z * z), 2 * (y * z - w * x)],
            [2 * (x * z - w * y), 2 * (y * z + w * x), 1 - 2 * (x * x + y * y)],
        ]
    )


def aabb_gap(lo1, hi1, lo2, hi2) -> float:
    """Largest axis separation between two AABBs (negative = overlap)."""
    return float(np.max(np.maximum(lo2 - hi1, lo1 - hi2)))


def sample_scene(
    library: dict[str, ObjectModel],
    bin_min,
    bin_max,
    n_objects: int,
    seed: int,
    cameras=None,
    noise_sigma: float = 0.0,
    dropout: float = 0.0,
    min_gap: float = 0.001,
    max_trials: int = 10000,
) -> SceneSpec:
    """Rejection-sample collision-free object poses inside the bin.

    Objects are accepted when their rotated-mesh AABB fits in the bin and
    keeps at least `min_gap` separation from every earlier AABB (resting
    contact at gap 0 is allowed when min_gap = 0). Deterministic per seed.
    """
    if n_objects < 1:
        raise DataError("need at least one object")
    if not 0.0 <= dropout <= 1.0:
        raise DataError(f"dropout must lie in [0, 1], got {dropout}")
    if not noise_sigma >= 0.0:
        raise DataError(f"noise_sigma must be >= 0, got {noise_sigma}")
    bin_min = np.asarray(bin_min, dtype=np.float64).reshape(3)
    bin_max = np.asarray(bin_max, dtype=np.float64).reshape(3)
    rng = np.random.default_rng(seed)
    names = sorted(library.keys())
    placed: list[Instance] = []
    boxes: list[tuple[np.ndarray, np.ndarray]] = []
    for _ in range(n_objects):
        model = library[names[int(rng.integers(len(names)))]]
        for trial in range(max_trials):
            R = random_rotation(rng)
            rotated = model.mesh.vertices @ R.T
            lo, hi = rotated.min(axis=0), rotated.max(axis=0)
            slack = (bin_max - hi) - (bin_min - lo)
            if np.any(slack <= 0):
                continue
            t = bin_min - lo + rng.random(3) * slack
            ok = all(aabb_gap(lo + t, hi + t, b_lo, b_hi) >= min_gap for b_lo, b_hi in boxes)
            if ok:
                placed.append(Instance(model.class_id, model.name, R, t))
                boxes.append((lo + t, hi + t))
                break
        else:
            raise DataError(f"pose sampling failed after {max_trials} trials (bin too tight)")
    margin = 0.02
    workspace = Workspace(bin_min - margin, bin_max + margin)
    if cameras is None:
        cameras = default_camera_ring(bin_min, bin_max)
    return SceneSpec(
        bin_min=bin_min,
        bin_max=bin_max,
        workspace=workspace,
        instances=placed,
        cameras=list(cameras),
        noise_sigma=noise_sigma,
        dropout=dropout,
        seed=seed,
    )


def look_at_extrinsics(eye, target, up_hint=(0.0, 0.0, 1.0)) -> CameraExtrinsics:
    """Camera-to-world transform looking from eye toward target (CV axes:
    x right, y down, z forward)."""
    eye = np.asarray(eye, dtype=np.float64)
    f = np.asarray(target, dtype=np.float64) - eye
    f = f / np.linalg.norm(f)
    up = np.asarray(up_hint, dtype=np.float64)
    r = np.cross(f, up)
    if np.linalg.norm(r) < 1e-9:
        r = np.cross(f, np.array([0.0, 1.0, 0.0]))
    r = r / np.linalg.norm(r)
    d = np.cross(f, r)
    R = np.column_stack([r, d, f])
    return CameraExtrinsics(R, eye)


def default_intrinsics(width: int = 640, height: int = 480, focal: float = 580.0) -> CameraIntrinsics:
    return CameraIntrinsics(fx=focal, fy=focal, cx=(width - 1) / 2.0, cy=(height - 1) / 2.0,
                            width=width, height=height)


def default_camera_ring(
    bin_min,
    bin_max,
    n_views: int = 3,
    arc_deg: float = 60.0,
    elevation_deg: float = 55.0,
    distance: float = 0.55,
    intr: CameraIntrinsics | None = None,
) -> list[tuple[CameraIntrinsics, CameraExtrinsics]]:
    """n views on an arc above the bin, all aimed at the bin center."""
    bin_min = np.asarray(bin_min, dtype=np.float64)
    bin_max = np.asarray(bin_max, dtype=np.float64)
    center = (bin_min + bin_max) / 2.0
    intr = intr or default_intrinsics()
    el = np.deg2rad(elevation_deg)
    cams = []
    if n_views == 1:
        azimuths = [0.0]
    else:
        azimuths = np.deg2rad(np.linspace(-arc_deg / 2.0, arc_deg / 2.0, n_views))
    for az in azimuths:
        eye = center + distance * np.array([np.cos(el) * np.cos(az), np.cos(el) * np.sin(az), np.sin(el)])
        cams.append((intr, look_at_extrinsics(eye, center)))
    return cams


# ---------------------------------------------------------------------------
# Rendering
# ---------------------------------------------------------------------------


def bin_wall_triangles(bin_min, bin_max) -> np.ndarray:
    """Floor plus four side walls as triangle soup (T, 3, 3)."""
    lo = np.asarray(bin_min, dtype=np.float64)
    hi = np.asarray(bin_max, dtype=np.float64)
    x0, y0, z0 = lo
    x1, y1, z1 = hi
    quads = [
        # floor
        [(x0, y0, z0), (x1, y0, z0), (x1, y1, z0), (x0, y1, z0)],
        # side walls
        [(x0, y0, z0), (x0, y1, z0), (x0, y1, z1), (x0, y0, z1)],
        [(x1, y0, z0), (x1, y1, z0), (x1, y1, z1), (x1, y0, z1)],
        [(x0, y0, z0), (x1, y0, z0), (x1, y0, z1), (x0, y0, z1)],
        [(x0, y1, z0), (x1, y1, z0), (x1, y1, z1), (x0, y1, z1)],
    ]
    tris = []
    for a, b, c, d in quads:
        tris.append([a, b, c])
        tris.append([a, c, d])
    return np.asarray(tris, dtype=np.float64)


def scene_triangles(spec: SceneSpec, library: dict[str, ObjectModel]) -> np.ndarray:
    """World-frame triangle soup of all instances plus the bin walls."""
    chunks = []
    for inst in spec.instances:
        mesh = library[inst.name].mesh
        tri = mesh.triangles() @ inst.rotation.T + inst.translation
        chunks.append(tri)
    if spec.with_bin_walls:
        chunks.append(bin_wall_triangles(spec.bin_min, spec.bin_max))
    if not chunks:
        return np.zeros((0, 3, 3))
    return np.concatenate(chunks, axis=0)


# Bounding-box pixels per rasterization step, whole triangles at a time, so
# temporaries stay bounded (one triangle's box at most fills the image).
_CHUNK_PIXELS = 1 << 16


def rasterize_depth(triangles: np.ndarray, intr: CameraIntrinsics, extr: CameraExtrinsics) -> np.ndarray:
    """Z-buffer rasterization of a world triangle soup.

    Pixels whose center falls inside a projected triangle get the
    perspective-correct ray/plane intersection depth, so back-projected
    points land exactly on the triangle plane. Triangles reaching behind the
    camera are skipped (desk scenes keep cameras outside the geometry).

    One pass over all triangles: their bounding-box pixels form one flat list,
    walked in chunks of about _CHUNK_PIXELS; each inside pixel's elementwise
    (BLAS-free) ray/plane depth enters the z-buffer through np.minimum.at.
    """
    H, W = intr.height, intr.width
    zbuf = np.full(H * W, np.inf)
    pts = np.asarray(triangles, dtype=np.float64).reshape(-1, 3)
    cam = ((pts - extr.translation) @ extr.rotation).reshape(-1, 3, 3)
    cam = cam[np.all(cam[:, :, 2] > 1e-9, axis=1)]
    u = (intr.fx * cam[:, :, 0] / cam[:, :, 2] + intr.cx).T  # (3, n): one row per vertex
    v = (intr.fy * cam[:, :, 1] / cam[:, :, 2] + intr.cy).T
    u0 = np.clip(np.ceil(u.min(axis=0)), 0, W).astype(np.int64)
    v0 = np.clip(np.ceil(v.min(axis=0)), 0, H).astype(np.int64)
    cols = np.maximum(np.clip(np.floor(u.max(axis=0)), -1, W - 1).astype(np.int64) - u0 + 1, 0)
    counts = cols * np.maximum(np.clip(np.floor(v.max(axis=0)), -1, H - 1).astype(np.int64) - v0 + 1, 0)
    du, dv = np.roll(u, -1, axis=0) - u, np.roll(v, -1, axis=0) - v  # edge i: vertex i to i + 1
    n = np.cross(cam[:, 1] - cam[:, 0], cam[:, 2] - cam[:, 0]).T
    c = n[0] * cam[:, 0, 0] + n[1] * cam[:, 0, 1] + n[2] * cam[:, 0, 2]
    ends = np.cumsum(counts)
    first = ends - counts
    t0 = 0
    while t0 < len(counts):
        t1 = max(t0 + 1, int(np.searchsorted(ends, first[t0] + _CHUNK_PIXELS, side="right")))
        t = np.repeat(np.arange(t0, t1), counts[t0:t1])
        row, col = np.divmod(np.arange(first[t0], ends[t1 - 1]) - first[t], cols[t])
        gu, gv = u0[t] + col, v0[t] + row
        pos = neg = True
        for i in range(3):
            e = du[i][t] * (gv - v[i][t]) - dv[i][t] * (gu - u[i][t])
            pos, neg = pos & (e >= 0), neg & (e <= 0)
        inside = np.flatnonzero(pos | neg)
        t, gu, gv = t[inside], gu[inside], gv[inside]
        denom = (gu - intr.cx) / intr.fx * n[0][t] + (gv - intr.cy) / intr.fy * n[1][t] + n[2][t]
        good = np.abs(denom) > 1e-15
        lam = c[t[good]] / denom[good]
        front = lam > 0
        np.minimum.at(zbuf, (gv * W + gu)[good][front], lam[front])
        t0 = t1
    zbuf[~np.isfinite(zbuf)] = 0.0
    return zbuf.reshape(H, W)


def render_depth(spec: SceneSpec, library: dict[str, ObjectModel], view: int) -> DepthImage:
    """Render one view, then apply the spec's sensor noise (additive Gaussian
    plus pixel dropout), deterministic per (scene seed, view)."""
    intr, extr = spec.cameras[view]
    depth = rasterize_depth(scene_triangles(spec, library), intr, extr)
    if spec.noise_sigma > 0 or spec.dropout > 0:
        rng = np.random.default_rng((spec.seed, 7919, view))
        valid = depth > 0
        if spec.noise_sigma > 0:
            depth[valid] = np.maximum(depth[valid] + rng.normal(0.0, spec.noise_sigma, int(valid.sum())), 0.0)
        if spec.dropout > 0:
            drop = valid & (rng.random(depth.shape) < spec.dropout)
            depth[drop] = 0.0
    return DepthImage(depth)


# ---------------------------------------------------------------------------
# Ground truth and scene bundles
# ---------------------------------------------------------------------------


def scene_ground_truth(spec: SceneSpec, library: dict[str, ObjectModel]) -> SceneGroundTruth:
    """Exact ground truth: transformed surface centroids and model clouds,
    and the instance poses."""
    centroids, clouds, class_ids, rotations, translations = [], [], [], [], []
    for inst in spec.instances:
        model = library[inst.name]
        centroids.append(inst.rotation @ model.mesh.surface_centroid() + inst.translation)
        clouds.append(model.cloud @ inst.rotation.T + inst.translation)
        class_ids.append(inst.class_id)
        rotations.append(inst.rotation)
        translations.append(inst.translation)
    return SceneGroundTruth(centroids, clouds, class_ids, rotations, translations)


def export_scene_bundle(spec: SceneSpec, library: dict[str, ObjectModel], out_dir) -> None:
    """Write the full scene bundle (depths, cameras, ground truth, models)."""
    os.makedirs(out_dir, exist_ok=True)
    models_dir = os.path.join(out_dir, "models")
    os.makedirs(models_dir, exist_ok=True)
    used = sorted({inst.name for inst in spec.instances})
    model_meta = {}
    for name in used:
        model = library[name]
        write_ply_mesh(os.path.join(models_dir, f"{name}.ply"), model.mesh.vertices, model.mesh.faces)
        model_meta[str(model.class_id)] = {
            "name": name,
            "ply": f"models/{name}.ply",
            "symmetries": [[float(x) for x in s.reshape(-1)] for s in model.symmetries],
            "cloud_points": CLOUD_POINTS,
            "cloud_seed": _CLOUD_SEED_BASE + model.class_id,
        }
    scene_doc = {
        "seed": spec.seed,
        "bin_min": [float(x) for x in spec.bin_min],
        "bin_max": [float(x) for x in spec.bin_max],
        "workspace_min": [float(x) for x in spec.workspace.min_corner],
        "workspace_max": [float(x) for x in spec.workspace.max_corner],
        "noise_sigma": spec.noise_sigma,
        "dropout": spec.dropout,
        "depth_scale": spec.depth_scale,
        "with_bin_walls": spec.with_bin_walls,
        "n_views": len(spec.cameras),
        "models": model_meta,
        "instances": [
            {
                "class_id": inst.class_id,
                "name": inst.name,
                "rotation": [float(x) for x in inst.rotation.reshape(-1)],
                "translation": [float(x) for x in inst.translation],
            }
            for inst in spec.instances
        ],
    }
    write_json(os.path.join(out_dir, "scene.json"), scene_doc)
    gt = scene_ground_truth(spec, library)
    gt_doc = {
        "objects": [
            {
                "class_id": int(cid),
                "centroid": [float(x) for x in centroid],
                "rotation": [float(x) for x in inst.rotation.reshape(-1)],
                "translation": [float(x) for x in inst.translation],
            }
            for cid, centroid, inst in zip(gt.class_ids, gt.centroids, spec.instances)
        ]
    }
    write_json(os.path.join(out_dir, "gt.json"), gt_doc)
    for i, (intr, extr) in enumerate(spec.cameras):
        save_camera_json(os.path.join(out_dir, f"cam_{i:02d}.json"), intr, extr, spec.depth_scale)
        depth = render_depth(spec, library, i)
        save_depth_png(os.path.join(out_dir, f"depth_{i:02d}.png"), depth, spec.depth_scale)


@dataclass(frozen=True)
class SceneBundle:
    """A scene bundle loaded back from disk."""

    depths: list
    cameras: list
    workspace: Workspace
    gt: SceneGroundTruth
    models: dict            # class id -> ObjectModel
    seed: int
    depth_scale: float

    @property
    def instances(self) -> list[Instance]:
        """The ground-truth objects as instances, built from `gt` and `models`."""
        return [Instance(int(cid), self.models[int(cid)].name, R, t)
                for cid, R, t in zip(self.gt.class_ids, self.gt.rotations, self.gt.translations)]


def load_scene_bundle(path) -> SceneBundle:
    scene_doc = read_file(os.path.join(path, "scene.json"), "scene bundle", json_document)
    try:
        depth_scale = float(scene_doc["depth_scale"])
        models: dict[int, ObjectModel] = {}
        for cid_str, meta in scene_doc.get("models", {}).items():
            verts, faces, _ = read_ply(os.path.join(path, meta["ply"]))
            mesh = Mesh(verts[:, :3], faces)
            cloud = sample_surface(mesh, int(meta["cloud_points"]), seed=int(meta["cloud_seed"]))
            models[int(cid_str)] = ObjectModel(
                class_id=int(cid_str),
                name=meta["name"],
                mesh=mesh,
                cloud=cloud,
                symmetries=[np.asarray(s, dtype=np.float64).reshape(3, 3) for s in meta["symmetries"]],
            )
        depths, cameras = [], []
        for i in range(int(scene_doc["n_views"])):
            intr, extr, cam_scale = load_camera_json(os.path.join(path, f"cam_{i:02d}.json"))
            depths.append(load_depth_png(os.path.join(path, f"depth_{i:02d}.png"), cam_scale))
            cameras.append((intr, extr))
        gt_path = os.path.join(path, "gt.json")
        gt_doc = read_file(gt_path, "ground truth", json_document)
        centroids, clouds, class_ids, rotations, translations = [], [], [], [], []
        for i, obj in enumerate(gt_doc["objects"]):
            cid = int(obj["class_id"])
            R = check_rotation(obj["rotation"], f"{gt_path}: object {i} rotation")
            t = np.asarray(obj["translation"], dtype=np.float64)
            if cid not in models:
                raise DataError(f"{gt_path}: object references unknown class {cid}")
            centroids.append(np.asarray(obj["centroid"], dtype=np.float64))
            clouds.append(models[cid].cloud @ R.T + t)
            class_ids.append(cid)
            rotations.append(R)
            translations.append(t)
        gt = SceneGroundTruth(centroids, clouds, class_ids, rotations, translations)
        workspace = Workspace(
            np.asarray(scene_doc["workspace_min"], dtype=np.float64),
            np.asarray(scene_doc["workspace_max"], dtype=np.float64),
        )
        return SceneBundle(
            depths=depths,
            cameras=cameras,
            workspace=workspace,
            gt=gt,
            models=models,
            seed=int(scene_doc["seed"]),
            depth_scale=depth_scale,
        )
    except (AttributeError, KeyError, TypeError, ValueError) as exc:
        # a missing or mistyped field in scene.json or gt.json
        raise DataError(f"{path}: malformed scene bundle ({type(exc).__name__}: {exc})") from exc
