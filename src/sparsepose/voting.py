"""Per-voxel voting 6D pose recovery.

Foreground voxels vote with a translation offset to their object's center
and a 6D rotation; votes cluster with DBSCAN in predicted-center space, each
cluster's most confident votes are averaged (chordal mean for rotations) and
a final point-to-point ICP against the scene cloud polishes every pose.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .camera import check_rotation
from .errors import DataError, NumericalError
from .grid import PACK_RANGE, group_rows, lattice_index, neighbor_rows, pack_index, run_rows
from .heatmap import SceneGroundTruth
from .ioutil import json_document, read_file, write_csv, write_json


@dataclass(frozen=True)
class VoteSet:
    """Per-voxel pose votes: centers, translation offsets (meters), rotations
    in the 6D encoding, confidences and class ids."""

    voxel_centers: np.ndarray  # (K, 3)
    offsets: np.ndarray        # (K, 3)
    rot6d: np.ndarray          # (K, 6)
    confidence: np.ndarray     # (K,)
    class_ids: np.ndarray      # (K,)

    def __post_init__(self):
        c = np.asarray(self.voxel_centers, dtype=np.float64).reshape(-1, 3)
        t = np.asarray(self.offsets, dtype=np.float64).reshape(-1, 3)
        r = np.asarray(self.rot6d, dtype=np.float64).reshape(-1, 6)
        conf = np.asarray(self.confidence, dtype=np.float64).reshape(-1)
        cls = np.asarray(self.class_ids, dtype=np.int64).reshape(-1)
        n = c.shape[0]
        if not (t.shape[0] == r.shape[0] == conf.shape[0] == cls.shape[0] == n):
            raise DataError("vote arrays must have consistent row counts")
        for name, arr in (("voxel_centers", c), ("offsets", t), ("rot6d", r),
                          ("confidence", conf), ("class_ids", cls)):
            object.__setattr__(self, name, arr)

    def __len__(self) -> int:
        return self.voxel_centers.shape[0]

    def predicted_centers(self) -> np.ndarray:
        return self.voxel_centers + self.offsets


@dataclass
class Pose:
    """One estimated rigid transform with bookkeeping."""

    rotation: np.ndarray    # (3, 3), orthonormal det +1
    translation: np.ndarray  # (3,), meters
    class_id: int
    confidence: float = 1.0
    support: int = 1
    refined: bool = False

    def __post_init__(self):
        self.rotation = check_rotation(self.rotation, "pose rotation")
        self.translation = np.asarray(self.translation, dtype=np.float64).reshape(3)
        if not np.isfinite(self.translation).all():
            raise DataError("pose translation must be finite")


def pose_targets(centers: np.ndarray, owner: np.ndarray, gt: SceneGroundTruth):
    """Per-voxel supervision from an ownership table (`owner[i]` is the
    object owning the voxel centered at `centers[i]`, -1 for background): the
    offset to the owner's centroid, the owner's rotation and a validity mask
    (background voxels are masked out of both losses and keep a zero offset
    and the identity). Returns (t (K,3), R (K,3,3), valid (K,))."""
    valid = owner >= 0
    t = np.zeros((len(owner), 3))
    R = np.tile(np.eye(3), (len(owner), 1, 1))
    t[valid] = gt.centroids[owner[valid]] - centers[valid]
    R[valid] = gt.rotations[owner[valid]]
    return t, R, valid


def smooth_l1(pred: np.ndarray, target: np.ndarray, mask: np.ndarray, delta: float = 0.01):
    """Huber loss on per-coordinate errors, summed over coordinates, mean
    over valid voxels. Returns (loss, dloss/dpred)."""
    p = np.asarray(pred, dtype=np.float64)
    t = np.asarray(target, dtype=np.float64)
    m = np.asarray(mask, dtype=bool).reshape(-1)
    if p.shape != t.shape or p.shape[0] != m.shape[0]:
        raise DataError("smooth_l1 shape mismatch")
    n_valid = max(1, int(m.sum()))
    e = p - t
    abs_e = np.abs(e)
    quad = abs_e < delta
    per = np.where(quad, 0.5 * e**2 / delta, abs_e - 0.5 * delta)
    loss = float(per[m].sum() / n_valid)
    grad = np.where(quad, e / delta, np.sign(e)) / n_valid
    grad[~m] = 0.0
    return loss, grad


# ---------------------------------------------------------------------------
# 6D rotation representation
# ---------------------------------------------------------------------------


def rot6d_frames(r6: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Gram-Schmidt map of (K, 6) encodings to (K, 3, 3) rotations, plus the
    (K,) mask of rows where it is defined: |a1| and |u2| finite and >= 1e-9,
    u2 = a2 - (b1.a2) b1 (non-finite rows, and rows whose norm overflows,
    fail). Other rows are meaningless."""
    a1, a2 = r6[:, :3], r6[:, 3:]
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        n1 = np.linalg.norm(a1, axis=1)
        b1 = a1 / n1[:, None]
        u2 = a2 - np.sum(b1 * a2, axis=1, keepdims=True) * b1
        n2 = np.linalg.norm(u2, axis=1)
        b2 = u2 / n2[:, None]
        b3 = np.cross(b1, b2)
    return np.stack([b1, b2, b3], axis=2), (n1 >= 1e-9) & (n2 >= 1e-9) & np.isfinite(n1 + n2)


def rot6d_to_matrix(r6: np.ndarray) -> np.ndarray:
    """Gram-Schmidt map from the 6D encoding to SO(3).

    b1 = normalize(a1), b2 = normalize(a2 - (b1.a2) b1), b3 = b1 x b2;
    columns (b1, b2, b3). Degenerate inputs (zero or parallel halves) raise.
    """
    r = np.asarray(r6, dtype=np.float64)
    single = r.ndim == 1
    r = np.atleast_2d(r)
    if r.shape[1] != 6:
        raise DataError(f"6D rotation encoding must have 6 components, got {r.shape}")
    R, ok = rot6d_frames(r)
    if not ok.all():
        raise NumericalError("degenerate 6D rotation: near-zero first triple or (near-)parallel triples")
    return R[0] if single else R


def matrix_to_rot6d(R: np.ndarray) -> np.ndarray:
    """Inverse encoding: the first two columns of the rotation matrix."""
    R = np.asarray(R, dtype=np.float64)
    single = R.ndim == 2
    R = R.reshape(-1, 3, 3)
    out = np.concatenate([R[:, :, 0], R[:, :, 1]], axis=1)
    return out[0] if single else out


def subsample_rows(points: np.ndarray, n: int) -> np.ndarray:
    """Deterministic subsample: evenly spaced rows of the canonical order."""
    pts = np.asarray(points, dtype=np.float64)
    if len(pts) <= n:
        return pts
    sel = np.floor(np.linspace(0, len(pts) - 1, n)).astype(np.int64)
    return pts[sel]


def _rot6d_frames_vjp(r6: np.ndarray, R: np.ndarray, gR: np.ndarray) -> np.ndarray:
    """Pull a gradient on the (K, 3, 3) frames R = rot6d_frames(r6) back to
    the (K, 6) encodings (rows where the map is defined)."""
    a1, a2 = r6[:, :3], r6[:, 3:]
    b1, b2 = R[:, :, 0], R[:, :, 1]
    g1 = gR[:, :, 0] + np.cross(b2, gR[:, :, 2])          # b3 = b1 x b2
    g2 = gR[:, :, 1] + np.cross(gR[:, :, 2], b1)
    n1 = np.linalg.norm(a1, axis=1, keepdims=True)
    proj = np.sum(b1 * a2, axis=1, keepdims=True)
    n2 = np.linalg.norm(a2 - proj * b1, axis=1, keepdims=True)
    gu = (g2 - b2 * np.sum(b2 * g2, axis=1, keepdims=True)) / n2  # b2 = u2 / n2
    bu = np.sum(b1 * gu, axis=1, keepdims=True)
    g1 = g1 - proj * gu - bu * a2                          # u2 = a2 - (b1.a2) b1
    ga1 = (g1 - b1 * np.sum(b1 * g1, axis=1, keepdims=True)) / n1  # b1 = a1 / n1
    return np.concatenate([ga1, gu - bu * b1], axis=1)


def chamfer_rot_loss(r6: np.ndarray, R_gt: np.ndarray, model_points: np.ndarray,
                     mask: np.ndarray, n_pts: int = 256):
    """Symmetric squared chamfer distance between the predicted and ground
    truth placements of the (translation-free) model cloud, mean over valid
    voxels. Returns (loss, dloss/dr6); each nearest-point term sends its
    gradient to its first argmin, masked rows get none."""
    r6 = np.asarray(r6, dtype=np.float64)
    m = np.asarray(mask, dtype=bool).reshape(-1)
    pts = subsample_rows(model_points, n_pts)
    if pts.shape[0] == 0:
        raise DataError("chamfer loss needs a nonempty model cloud")
    grad = np.zeros_like(r6)
    if not m.any():
        return 0.0, grad
    V, n = int(m.sum()), pts.shape[0]
    R = rot6d_frames(r6[m])[0]                                    # (V, 3, 3)
    A = pts[None, :, :] @ np.transpose(R, (0, 2, 1))              # (V, n, 3)
    B = np.einsum("vij,nj->vni", np.asarray(R_gt)[m], pts)       # (V, n, 3)
    # pairwise squared distances via |a|^2 + |b|^2 - 2 a.b
    a_sq = np.sum(A * A, axis=2, keepdims=True)
    b_sq = np.sum(B * B, axis=2)[:, None, :]
    d2 = a_sq - (A @ np.swapaxes(B, 1, 2)) * 2.0 + b_sq           # (V, n, n)
    fwd = np.sum(np.min(d2, axis=2), axis=1) * (1.0 / n)          # A -> B
    bwd = np.sum(np.min(d2, axis=1), axis=1) * (1.0 / n)          # B -> A
    loss = float(np.sum(fwd + bwd) * (1.0 / V))
    v = np.arange(V)[:, None]
    near_b, near_a = np.argmin(d2, axis=2), np.argmin(d2, axis=1)
    gA = A - B[v, near_b]
    np.add.at(gA, (v, near_a), A[v, near_a] - B)
    gR = np.swapaxes(gA, 1, 2) @ pts * (2.0 / (V * n))            # A = pts R^T
    grad[m] = _rot6d_frames_vjp(r6[m], R, gR)
    return loss, grad


# ---------------------------------------------------------------------------
# DBSCAN
# ---------------------------------------------------------------------------

NOISE = -1


def dbscan(points: np.ndarray, eps: float, min_pts: int) -> np.ndarray:
    """Density-based clustering; labels are cluster ids (0..) or -1 (noise).

    Semantics match the textbook algorithm: neighborhoods use distance <=
    eps and include the point itself; core points need min_pts neighbors;
    clusters are the connected components of core points, numbered by their
    smallest core row; border points join the lowest-numbered cluster with a
    core point in range. Deterministic given the canonical point ordering.

    Core-core edges are collected cell-wise: every cell of core points is
    tested with itself and its `grid.neighbor_rows` cells at once. A pair
    whose joint span is within eps is linked by a star instead of all its
    pairs, so heaps of near-duplicate points (vote blobs) stay cheap.
    """
    pts = np.asarray(points, dtype=np.float64).reshape(-1, 3)
    if eps <= 0 or min_pts < 1:
        raise DataError("dbscan needs eps > 0 and min_pts >= 1")
    from scipy.spatial import cKDTree  # deferred: keeps package import light
    labels = np.full(len(pts), NOISE, dtype=np.int64)
    counts = cKDTree(pts).query_ball_point(pts, eps, return_length=True)
    core = counts >= min_pts
    core_rows = np.nonzero(core)[0]
    if core_rows.size == 0:
        return labels

    cpts = pts[core_rows]
    # cells of edge eps anchored at the points, wider only where their extent
    # would not pack: every pair within eps still lies in neighbouring cells
    size = max(eps, float(np.ptp(cpts, axis=0).max()) / (PACK_RANGE - 2))
    cell_idx = lattice_index(cpts, cpts.min(axis=0), size)
    order, starts, sizes = group_rows(pack_index(cell_idx))  # rows ascending within a cell
    lo_of = np.minimum.reduceat(cpts[order], starts, axis=0)  # per-cell bounding boxes
    hi_of = np.maximum.reduceat(cpts[order], starts, axis=0)
    nbr = neighbor_rows(cell_idx[order[starts]])
    # every neighbouring cell pair (k, o) once, with o >= k: a cell pairs with itself
    k, tap = np.nonzero((nbr >= np.arange(len(starts))[:, None]) & (nbr < len(starts)))
    o = nbr[k, tap]
    gap = np.maximum(np.maximum(lo_of[k], lo_of[o]) - np.minimum(hi_of[k], hi_of[o]), 0.0)
    near = np.sum(gap * gap, axis=1) <= eps * eps
    k, o = k[near], o[near]
    span = np.maximum(hi_of[k], hi_of[o]) - np.minimum(lo_of[k], lo_of[o])
    star = np.sum(span * span, axis=1) <= eps * eps  # every pair within eps: a star suffices
    src = [np.repeat(order[starts[k[star]]], sizes[k[star]] + sizes[o[star]])]
    dst = [run_rows(order, starts, sizes, np.stack([k[star], o[star]], axis=1).reshape(-1))]
    for ka, kb in zip(k[~star], o[~star]):
        a, b = (order[starts[c]:starts[c] + sizes[c]] for c in (ka, kb))
        ii, jj = np.nonzero(np.sum((cpts[a][:, None] - cpts[b][None]) ** 2, axis=2) <= eps * eps)
        src.append(a[ii])
        dst.append(b[jj])
    m = len(cpts)
    src, dst = np.concatenate(src), np.concatenate(dst)
    from scipy.sparse import coo_matrix  # deferred: keeps package import light
    from scipy.sparse.csgraph import connected_components
    graph = coo_matrix((np.ones(src.size), (src, dst)), shape=(m, m))
    n_comp, comp = connected_components(graph, directed=False)
    # number clusters by their smallest core row (core_rows is ascending)
    first = np.full(n_comp, m)
    np.minimum.at(first, comp, np.arange(m))
    labels[core_rows] = np.argsort(np.argsort(first))[comp]

    border_rows = np.nonzero(~core & (counts > 1))[0]
    if border_rows.size:
        core_tree = cKDTree(cpts)
        near = core_tree.query_ball_point(pts[border_rows], eps)
        core_labels = labels[core_rows]
        for row, neighbors in zip(border_rows, near):
            if neighbors:
                labels[row] = core_labels[np.asarray(neighbors)].min()
    return labels


# ---------------------------------------------------------------------------
# Vote aggregation
# ---------------------------------------------------------------------------


def chordal_mean(rotations: np.ndarray) -> np.ndarray:
    """SO(3) projection of the arithmetic rotation mean (polar projection
    with determinant correction); minimizes summed Frobenius distance."""
    R = np.asarray(rotations, dtype=np.float64).reshape(-1, 3, 3)
    if len(R) == 0:
        raise DataError("chordal mean of an empty rotation set")
    M = R.mean(axis=0)
    U, _, Vt = np.linalg.svd(M)
    d = np.sign(np.linalg.det(U @ Vt))
    if d == 0:
        raise NumericalError("degenerate rotation mean")
    return U @ np.diag([1.0, 1.0, d]) @ Vt


def aggregate_votes(votes: VoteSet, labels: np.ndarray, top_fraction: float = 0.5) -> list[Pose]:
    """Collapse each cluster into one pose from its most confident votes.

    Per cluster: keep the top `top_fraction` votes by confidence (at least
    one), average predicted centers for the translation, chordal-mean the
    rotations, pick the class by confidence-weighted majority. Noise votes
    are ignored. Clusters are processed in ascending label order.
    """
    if not (0.0 < top_fraction <= 1.0):
        raise DataError("top_fraction must lie in (0, 1]")
    labels = np.asarray(labels, dtype=np.int64).reshape(-1)
    if labels.shape[0] != len(votes):
        raise DataError("labels must align with votes")
    poses: list[Pose] = []
    centers = votes.predicted_centers()
    for cluster in np.unique(labels[labels >= 0]):
        rows = np.nonzero(labels == cluster)[0]
        order = rows[np.argsort(-votes.confidence[rows], kind="stable")]
        keep = order[: max(1, int(np.ceil(top_fraction * len(order))))]
        t = centers[keep].mean(axis=0)
        R = chordal_mean(rot6d_to_matrix(votes.rot6d[keep]))
        cls_ids = votes.class_ids[keep]
        conf = votes.confidence[keep]
        classes = np.unique(cls_ids)
        weights = np.array([conf[cls_ids == c].sum() for c in classes])
        class_id = int(classes[np.argmax(weights)])
        poses.append(
            Pose(
                rotation=R,
                translation=t,
                class_id=class_id,
                confidence=float(conf.mean()),
                support=int(len(rows)),
            )
        )
    return poses


# ---------------------------------------------------------------------------
# ICP refinement
# ---------------------------------------------------------------------------


def _kabsch(src: np.ndarray, dst: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Least-squares rigid transform aligning src onto dst."""
    mu_s = src.mean(axis=0)
    mu_d = dst.mean(axis=0)
    H = (src - mu_s).T @ (dst - mu_d)
    U, _, Vt = np.linalg.svd(H)
    d = np.sign(np.linalg.det(Vt.T @ U.T))
    R = Vt.T @ np.diag([1.0, 1.0, d]) @ U.T
    return R, mu_d - R @ mu_s


def icp_refine(
    pose: Pose,
    model_tree: cKDTree,
    scene_tree: cKDTree,
    iters: int = 30,
    corr_dist: float = 0.01,
    tol: float = 1e-3,
) -> tuple[Pose, list[float]]:
    """Point-to-point ICP registering the scene target to one object model.

    `model_tree` is a KD-tree over the model's canonical cloud (model frame),
    `scene_tree` one over the target scene points. The target is cropped once
    per call to the scene points within max|model| + 2 corr_dist of the pose
    translation, in scene order. Each iteration maps those points into the
    model frame as (s - t) @ R, finds each one's nearest model point in one
    query (matches beyond corr_dist are dropped) and applies the Kabsch
    update that aligns the matched model points, moved by the pose, onto
    their scene points. Matching the partial view to the complete model
    leaves hidden model faces unmatched instead of dragging the pose toward
    surfaces they have no counterpart on (Besl & McKay 1992). Stops at the
    iteration cap or when the relative RMSE change drops below tol.

    Fewer than 3 correspondences leaves the pose unrefined (refined=False).
    Returns the pose and the per-iteration RMSE trace over the kept set.
    """
    model = model_tree.data
    radius = float(np.linalg.norm(model, axis=1).max()) + 2.0 * corr_dist
    crop = np.sort(np.asarray(scene_tree.query_ball_point(pose.translation, radius), dtype=np.intp))
    scene = scene_tree.data[crop]
    R, t = pose.rotation.copy(), pose.translation.copy()
    trace: list[float] = []
    refined = False
    for _ in range(iters):
        dist, idx = model_tree.query((scene - t) @ R, distance_upper_bound=corr_dist)
        ok = np.isfinite(dist)
        if np.count_nonzero(ok) < 3:
            break
        src = model[idx[ok]] @ R.T + t
        dst = scene[ok]
        rmse = float(np.sqrt(np.mean(np.sum((src - dst) ** 2, axis=1))))
        if trace and abs(trace[-1] - rmse) <= tol * max(trace[-1], 1e-12):
            trace.append(rmse)
            refined = True
            break
        trace.append(rmse)
        dR, dt = _kabsch(src, dst)
        R = dR @ R
        t = dR @ t + dt
        refined = True
    return (
        Pose(rotation=R, translation=t, class_id=pose.class_id,
             confidence=pose.confidence, support=pose.support, refined=refined),
        trace,
    )


# ---------------------------------------------------------------------------
# Pose table I/O
# ---------------------------------------------------------------------------

POSE_CSV_COLUMNS = (
    "object_id,class_id,confidence,"
    "r00,r01,r02,r10,r11,r12,r20,r21,r22,tx,ty,tz,refined"
)


def write_pose_csv(path, poses: list[Pose], seed: int) -> None:
    write_csv(path, seed, POSE_CSV_COLUMNS, (
        f"{i},{p.class_id},{p.confidence:.9g},"
        + ",".join(f"{x:.17g}" for x in np.r_[p.rotation.reshape(-1), p.translation]) + f",{int(p.refined)}"
        for i, p in enumerate(poses)))


def write_pose_json(path, poses: list[Pose], seed: int | None = None) -> None:
    doc = {
        "seed": seed,
        "poses": [
            {
                "object_id": i,
                "class_id": int(p.class_id),
                "confidence": float(p.confidence),
                "rotation": [float(x) for x in p.rotation.reshape(-1)],
                "translation": [float(x) for x in p.translation],
                "support": int(p.support),
                "refined": bool(p.refined),
            }
            for i, p in enumerate(poses)
        ],
    }
    write_json(path, doc)


def read_pose_json(path) -> list[Pose]:
    return read_file(path, "pose JSON", _poses_from_blob)


def _poses_from_blob(blob: bytes) -> list[Pose]:
    return [
        Pose(
            rotation=np.asarray(entry["rotation"], dtype=np.float64).reshape(3, 3),
            translation=np.asarray(entry["translation"], dtype=np.float64),
            class_id=int(entry["class_id"]),
            confidence=float(entry.get("confidence", 1.0)),
            support=int(entry.get("support", 1)),
            refined=bool(entry.get("refined", False)),
        )
        for entry in json_document(blob).get("poses", [])
    ]
