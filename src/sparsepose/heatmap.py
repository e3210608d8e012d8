"""Targets, losses and selection mechanics for the two heatmap stages.

Stage one scores coarse voxels against object centers and boundaries with a
Gaussian distance weighting, trains with a Gaussian focal loss and prunes
background through a sigmoid soft-attention gate. Stage two scores fine
voxels with a binary objectness target and focal loss, and keeps for the
pose stage the rows at or above one objectness floor (at most a capped
number of the best), then classifies per voxel with a class-weighted cross
entropy; the heatmap features reach the classifier only through its input
rows.

All five task losses (these three and `voting`'s translation and rotation
losses) return (scalar, gradient w.r.t. the prediction): each is checked
against finite differences and enters the graph as one `from_loss_fn` node.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DataError
from .grid import SparseVoxelGrid, lattice_index

_CLAMP = 1e-6

# The objectness floor: a fine row scoring below it gets no pose row and
# casts no vote. A trained model scores its background rows far below it and
# its foreground rows far above; background votes would form clusters with no
# object behind them or join an object's cluster. Oracle votes score 1, an
# untrained model's rows 0.5.
MIN_VOTE_CONFIDENCE = 0.3


@dataclass(frozen=True)
class SceneGroundTruth:
    """The one per-object record of a scene: centroids, world-frame model
    clouds, class ids (0 is background) and the poses x_world = R x + t."""

    centroids: np.ndarray                 # (m, 3) meters
    object_clouds: list[np.ndarray]       # m clouds, world frame
    class_ids: np.ndarray                 # (m,) int, >= 1
    rotations: np.ndarray                 # (m, 3, 3)
    translations: np.ndarray              # (m, 3) meters

    def __post_init__(self):
        c = np.asarray(self.centroids, dtype=np.float64).reshape(-1, 3)
        ids = np.asarray(self.class_ids, dtype=np.int64).reshape(-1)
        clouds = [np.asarray(o, dtype=np.float64).reshape(-1, 3) for o in self.object_clouds]
        R = np.asarray(self.rotations, dtype=np.float64).reshape(-1, 3, 3)
        t = np.asarray(self.translations, dtype=np.float64).reshape(-1, 3)
        if not (len(clouds) == c.shape[0] == ids.shape[0] == R.shape[0] == t.shape[0]):
            raise DataError("centroids / clouds / class ids / poses count mismatch")
        for o in clouds:
            if o.shape[0] == 0:
                raise DataError("object clouds must be nonempty")
        if ids.size and ids.min() < 1:
            raise DataError("object class ids must be >= 1 (0 is background)")
        object.__setattr__(self, "centroids", c)
        object.__setattr__(self, "object_clouds", clouds)
        object.__setattr__(self, "class_ids", ids)
        object.__setattr__(self, "rotations", R)
        object.__setattr__(self, "translations", t)

    @property
    def n_objects(self) -> int:
        return self.centroids.shape[0]

    def all_points(self) -> np.ndarray:
        if not self.object_clouds:
            return np.zeros((0, 3))
        return np.concatenate(self.object_clouds, axis=0)


def roi_target(grid: SparseVoxelGrid, gt: SceneGroundTruth, sigma_c: float,
               sigma_b: float) -> np.ndarray:
    """Coarse-stage target: the average of two Gaussian falloffs, one with
    spread `sigma_c` on the distance to the nearest object center, one with
    spread `sigma_b` on the distance to the nearest model surface point.
    Distances and spreads are in coarse-voxel units, so the spreads stay
    resolution-independent. Empty scenes yield all zeros.
    """
    n = len(grid)
    if gt.n_objects == 0 or n == 0:
        return np.zeros(n)
    from scipy.spatial import cKDTree  # deferred: keeps package import light
    pos = grid.centers() / grid.resolution
    centers = gt.centroids / grid.resolution
    boundary = gt.all_points() / grid.resolution
    d_center = cKDTree(centers).query(pos)[0]
    d_boundary = cKDTree(boundary).query(pos)[0]
    return 0.5 * (
        np.exp(-(d_center**2) / sigma_c**2)
        + np.exp(-(d_boundary**2) / sigma_b**2)
    )


def _focal_penalty(pred, target, gamma: float, weights):
    """What both focal losses share. With p the prediction clamped into
    (0, 1) and (w_pos, w_neg) = weights(target), returns the target, the
    per-voxel penalties -w_pos (1-p)^gamma log p and -w_neg p^gamma log(1-p),
    their derivatives in p, and the mask of predictions the clamp leaves
    alone (the only ones with a gradient)."""
    pred = np.asarray(pred, dtype=np.float64)
    p = np.clip(pred, _CLAMP, 1.0 - _CLAMP)
    y = np.asarray(target, dtype=np.float64)
    if p.shape != y.shape:
        raise DataError(f"prediction shape {p.shape} != target shape {y.shape}")
    w_pos, w_neg = weights(y)
    penalty = (-w_pos * (1.0 - p) ** gamma * np.log(p), -w_neg * p**gamma * np.log(1.0 - p))
    slope = (-w_pos * ((1.0 - p) ** gamma / p - gamma * (1.0 - p) ** (gamma - 1.0) * np.log(p)),
             -w_neg * (gamma * p ** (gamma - 1.0) * np.log(1.0 - p) - p**gamma / (1.0 - p)))
    return y, penalty, slope, (pred > _CLAMP) & (pred < 1.0 - _CLAMP)


def gaussian_focal_loss(pred: np.ndarray, target: np.ndarray, alpha: float = 4.0, gamma: float = 2.0):
    """Gaussian focal loss, mean over voxels; returns (loss, dloss/dpred).

    Per voxel: -H (1-p)^gamma log p - (1-H)^alpha p^gamma log(1-p) with
    predictions clamped into (0, 1).
    """
    h, (pos, neg), (dpos, dneg), live = _focal_penalty(pred, target, gamma, lambda h: (h, (1.0 - h) ** alpha))
    n = max(1, h.size)
    return float((pos + neg).sum() / n), np.where(live, (dpos + dneg) / n, 0.0)


def soft_suppress(pred: np.ndarray, beta: float, epsilon: float,
                  kappa: float) -> tuple[np.ndarray, np.ndarray]:
    """Sigmoid soft-attention gate over heatmap scores.

    a_i = sigmoid(beta * (h_i - epsilon)); returns (a, kept rows with
    a > kappa).
    """
    h = np.asarray(pred, dtype=np.float64)
    a = 1.0 / (1.0 + np.exp(-beta * (h - epsilon)))
    kept = np.nonzero(a > kappa)[0]
    return a, kept


def voxel_object_assignment(grid: SparseVoxelGrid, gt: SceneGroundTruth) -> np.ndarray:
    """Object index owning each voxel, -1 for background.

    A voxel belongs to the object with the most model points inside it; ties
    go to the object whose centroid is nearest to the voxel center.
    """
    owner = np.full(len(grid), -1, dtype=np.int64)
    if gt.n_objects == 0 or len(grid) == 0:
        return owner
    n, m = len(grid), gt.n_objects
    objects = np.repeat(np.arange(m), [len(cloud) for cloud in gt.object_clouds])
    rows = grid.row_lookup(lattice_index(gt.all_points(), grid.origin, grid.resolution))
    inside = rows >= 0
    counts = np.bincount(rows[inside] * m + objects[inside], minlength=n * m).reshape(n, m)
    occupied = counts.sum(axis=1) > 0
    if not occupied.any():
        return owner
    best = counts[occupied].max(axis=1)
    tied = counts[occupied] == best[:, None]
    dist = np.linalg.norm(grid.centers()[occupied][:, None, :] - gt.centroids[None, :, :], axis=2)
    dist = np.where(tied, dist, np.inf)
    owner[occupied] = np.argmin(dist, axis=1)
    return owner


def objectness_target(grid: SparseVoxelGrid, gt: SceneGroundTruth) -> np.ndarray:
    """Binary target: 1 on every voxel some object owns, that is every voxel
    holding a model point."""
    return (voxel_object_assignment(grid, gt) >= 0).astype(np.float64)


def focal_loss(pred: np.ndarray, target: np.ndarray, gamma_f: float = 2.0, alpha_f: float = 0.25):
    """Binary focal loss summed over voxels, normalized by max(1, positives).

    Returns (loss, dloss/dpred).
    """
    y, (pos, neg), (dpos, dneg), live = _focal_penalty(pred, target, gamma_f,
                                                       lambda y: (alpha_f, 1.0 - alpha_f))
    n_pos = max(1.0, float(y.sum()))
    loss = float((y * pos + (1.0 - y) * neg).sum() / n_pos)
    return loss, np.where(live, (y * dpos + (1.0 - y) * dneg) / n_pos, 0.0)


def adaptive_topk(scores: np.ndarray, k_max: int) -> np.ndarray:
    """The rows whose score is at least MIN_VOTE_CONFIDENCE, at most the
    `k_max` best of them, in ascending order; NaN never passes, and ties
    break toward the smaller row. The rows of a sorted grid are in
    voxel-index order, so there a tie goes to the lexicographically smaller
    voxel.
    """
    scores = np.asarray(scores, dtype=np.float64).reshape(-1)
    rows = np.nonzero(scores >= MIN_VOTE_CONFIDENCE)[0]
    if rows.size > k_max:
        rows = np.sort(rows[np.argsort(-scores[rows], kind="stable")[:k_max]])
    return rows


def class_weights(labels: np.ndarray, n_classes: int) -> np.ndarray:
    """Inverse-frequency class weights, mean-1 normalized over present classes.

    Raw weight for class c with count N_c out of N samples across K present
    classes is N / (K * N_c); absent classes get weight 0.
    """
    y = np.asarray(labels, dtype=np.int64).reshape(-1)
    counts = np.bincount(y, minlength=n_classes).astype(np.float64)
    present = counts > 0
    k = max(1, int(present.sum()))
    w = np.zeros(n_classes)
    w[present] = y.size / (k * counts[present])
    mean_w = w[present].mean() if present.any() else 1.0
    return w / mean_w if mean_w > 0 else w


def weighted_cross_entropy(logits: np.ndarray, labels: np.ndarray, weights: np.ndarray | None = None):
    """Class-weighted cross entropy over rows, mean reduction weighted by the
    per-sample class weight. Returns (loss, dloss/dlogits).

    weights defaults to inverse class frequency in the batch, mean-1
    normalized.
    """
    z = np.asarray(logits, dtype=np.float64)
    y = np.asarray(labels, dtype=np.int64).reshape(-1)
    if z.ndim != 2 or z.shape[0] != y.shape[0]:
        raise DataError(f"logits {z.shape} incompatible with {y.shape[0]} labels")
    n, k = z.shape
    if y.size and (y.min() < 0 or y.max() >= k):
        raise DataError("labels out of range for logit width")
    if weights is None:
        weights = class_weights(y, k)
    w = np.asarray(weights, dtype=np.float64)[y]
    zmax = z.max(axis=1, keepdims=True)
    ez = np.exp(z - zmax)
    softmax = ez / ez.sum(axis=1, keepdims=True)
    logp = (z - zmax) - np.log(ez.sum(axis=1, keepdims=True))
    n_eff = max(1, n)
    loss = float(-(w * logp[np.arange(n), y]).sum() / n_eff)
    grad = softmax * w[:, None]
    grad[np.arange(n), y] -= w
    return loss, grad / n_eff
