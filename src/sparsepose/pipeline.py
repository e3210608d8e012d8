"""End-to-end wiring: input representations, the staged two-heatmap forward
pass, the toy training loop and the voting-based pose estimation path.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from . import nn
from .autodiff import Tensor
from .config import PipelineConfig
from .errors import DataError
from .fusion import Workspace, fuse_views
from .grid import SparseVoxelGrid, coarsen, find_rows, lattice_index, pack_index, voxelize
from .heatmap import (
    MIN_VOTE_CONFIDENCE,
    SceneGroundTruth,
    adaptive_topk,
    focal_loss,
    gaussian_focal_loss,
    roi_target,
    soft_suppress,
    voxel_object_assignment,
    weighted_cross_entropy,
)
from .ioutil import json_document, read_file, write_json
from .synthetic import SceneBundle
from .tsdf import SparseTsdf, TsdfConfig, build_tsdf
from .voting import (
    VoteSet,
    aggregate_votes,
    chamfer_rot_loss,
    dbscan,
    icp_refine,
    matrix_to_rot6d,
    pose_targets,
    rot6d_frames,
    smooth_l1,
)

N_CLASSES = 4  # part library size; background is class 0
# Channels of the objectness and pose trunks, of the RoI trunk, and attention heads.
WIDTH, ROI_WIDTH, HEADS = 32, 16, 4

# The dtype the three networks compute in. Their convolutions are BLAS-bound,
# and float32 halves that work; parameters, checkpoints, losses, targets and
# votes stay float64.
NET_DTYPE = np.float32

# The weights of the five task losses: RoI, objectness, class, translation, rotation.
LOSS_WEIGHTS = (1.0, 3.0, 2.0, 3.0, 1.0)


def fuse_bundle(bundle: SceneBundle, cfg: PipelineConfig) -> np.ndarray:
    """The bundle's fused world-frame cloud, (N, 3) meters."""
    return fuse_views(bundle.depths, bundle.cameras, bundle.workspace, near=cfg.near, far=cfg.far)


def fuse_tsdf(bundle: SceneBundle, cfg: PipelineConfig, cloud: np.ndarray) -> SparseTsdf:
    """The bundle's TSDF, at voxelize's voxel size (theta) and origin (workspace corner)."""
    return build_tsdf(cloud, bundle.depths, bundle.cameras, TsdfConfig(voxel_size=cfg.theta),
                      bundle.workspace.min_corner, near=cfg.near, far=cfg.far)


def build_input_grid(bundle: SceneBundle, cfg: PipelineConfig, representation: str = "cloud"):
    """Fuse the views and build the fine grid at theta: the voxelized raw
    cloud, or the TSDF band grid with its signed-distance channel.

    Returns (fine grid, fused cloud, tsdf or None).
    """
    cloud = fuse_bundle(bundle, cfg)
    if representation == "cloud":
        return voxelize(cloud, cfg.theta, bundle.workspace.min_corner), cloud, None
    if representation != "tsdf":
        raise DataError(f"unknown representation '{representation}' (use cloud or tsdf)")
    tsdf = fuse_tsdf(bundle, cfg, cloud)
    return tsdf.band_grid(), cloud, tsdf


@dataclass
class PipelineModel(nn.Module):
    """The three networks; parameters are named `roi.*`, `obj.*`, `pose.*`."""

    roi: nn.RoiUNet
    obj: nn.ObjectnessNet
    pose: nn.PoseNet
    in_channels: int
    representation: str


def build_model(cfg: PipelineConfig, representation: str, seed: int | None = None) -> PipelineModel:
    in_channels = 4 if representation == "cloud" else 5
    rng = np.random.default_rng(cfg.seed if seed is None else seed)
    roi = nn.RoiUNet(in_channels, ROI_WIDTH, rng)
    obj = nn.ObjectnessNet(in_channels + ROI_WIDTH, WIDTH, N_CLASSES, rng)
    pose = nn.PoseNet(WIDTH, WIDTH, HEADS, rng)
    return PipelineModel(roi, obj, pose, in_channels, representation)


def save_model(path, model: PipelineModel) -> None:
    nn.save_checkpoint(path, model.parameters())
    meta = {"in_channels": model.in_channels, "representation": model.representation}
    write_json(str(path) + ".json", meta)


def load_model(path, cfg: PipelineConfig) -> PipelineModel:
    """The inference model saved at `path`. Its parameters need no
    gradient, so a forward pass on it records no graph and frees each
    activation once the next layer has used it."""
    representation = read_file(str(path) + ".json", "checkpoint metadata",
                               lambda blob: json_document(blob)["representation"])
    model = build_model(cfg, representation)
    params = model.parameters()
    nn.assign_parameters(params, path)
    for p in params.values():
        p.requires_grad = False
    return model


@dataclass
class SceneStructure:
    """What `staged_forward` needs of one scene that no step changes: the
    fine grid and its kernel map; the coarse grid, each fine voxel's coarse
    row (`parent_row`) and its kernel map; `RoiUNet`'s pooling of the coarse
    grid (`pool_row`) and the pooled grid's kernel map. Built with ground
    truth it is the one home of the training targets: it keeps `gt`, the
    coarse RoI target and the fine grid's ownership table.

    Hold it only for the calls on one scene (a training run, one estimate):
    the fine kernel map alone is 27 int64 per voxel.
    """

    fine: SparseVoxelGrid
    fine_pairs: nn.ConvPairs
    coarse: SparseVoxelGrid
    parent_row: np.ndarray
    coarse_pairs: nn.ConvPairs
    pool_row: np.ndarray
    pool_pairs: nn.ConvPairs
    gt: SceneGroundTruth | None = None
    roi_target: np.ndarray | None = None
    owner: np.ndarray | None = None


def scene_structure(fine: SparseVoxelGrid, cfg: PipelineConfig,
                    gt: SceneGroundTruth | None = None) -> SceneStructure:
    """Coarsen the fine grid twice and build the three kernel maps; with
    `gt`, also the RoI target and the fine-grid ownership table."""
    if len(fine) == 0:
        raise DataError("staged forward on an empty grid")
    coarse, parent_row = coarsen(fine)
    pooled, pool_row = coarsen(coarse, nn.RoiUNet.pool_factor)
    return SceneStructure(
        fine=fine,
        fine_pairs=nn.ConvPairs(fine.indices),
        coarse=coarse,
        parent_row=parent_row,
        coarse_pairs=nn.ConvPairs(coarse.indices),
        pool_row=pool_row,
        pool_pairs=nn.ConvPairs(pooled.indices),
        gt=gt,
        roi_target=None if gt is None else roi_target(coarse, gt, cfg.sigma_c, cfg.sigma_b),
        owner=None if gt is None else voxel_object_assignment(fine, gt),
    )


@dataclass
class StagedOutput:
    """The predictions of one forward pass; the targets stay on the
    `SceneStructure`."""

    coarse: SparseVoxelGrid
    roi_scores: Tensor
    kept_coarse_rows: np.ndarray
    lifted_grid: SparseVoxelGrid       # indices of the surviving fine voxels
    lifted_fine_rows: np.ndarray
    obj_scores: Tensor
    cls_logits: Tensor
    selected_rows: np.ndarray          # rows into the lifted grid
    selected_grid: SparseVoxelGrid
    offsets: Tensor
    rot6d: Tensor


def _light_grid(reference: SparseVoxelGrid, indices: np.ndarray) -> SparseVoxelGrid:
    return SparseVoxelGrid(reference.resolution, reference.origin, indices,
                           np.zeros((len(indices), 1)))


def staged_forward(
    model: PipelineModel,
    fine: SparseVoxelGrid | SceneStructure,
    cfg: PipelineConfig,
    train: bool = False,
) -> StagedOutput:
    """RoI scoring on the coarse grid, soft suppression, feature lifting,
    objectness scoring, pose regression on the rows at or above the
    objectness floor (at most `topk_max` of the best; none is a valid
    result).
    The networks compute in NET_DTYPE: the grid features are cast to it on
    the way in.

    `fine` is a grid or its `SceneStructure`; a grid gets a structure without
    targets. The lifted and selected sets are row subsets of the fine grid,
    so their kernel maps derive from the fine one.

    With `train` on a structure built with ground truth, the keep- and
    pose-row selections are unioned with ground-truth foreground so the
    downstream heads always see supervision while the heatmaps are still
    warming up.
    """
    scene = fine if isinstance(fine, SceneStructure) else scene_structure(fine, cfg)
    fine, coarse, parent_row = scene.fine, scene.coarse, scene.parent_row
    roi_scores, roi_trunk = model.roi(ad.constant(coarse.features, NET_DTYPE), scene.coarse_pairs,
                                      scene.pool_row, scene.pool_pairs)
    _, kept = soft_suppress(roi_scores.data, cfg.suppress_beta, cfg.suppress_epsilon, cfg.suppress_kappa)
    train = train and scene.gt is not None
    if train:
        kept = np.union1d(kept, np.nonzero(scene.roi_target > cfg.suppress_kappa)[0])
    keep_mask = np.zeros(len(coarse), dtype=bool)
    keep_mask[kept] = True
    fine_rows = np.nonzero(keep_mask[parent_row])[0]
    if fine_rows.size == 0:
        # degenerate suppression: keep everything rather than fail
        fine_rows = np.arange(len(fine))
    lifted_idx = fine.indices[fine_rows]
    lifted_feats = ad.concat([ad.constant(fine.features[fine_rows], NET_DTYPE),
                              ad.gather_rows(roi_trunk, parent_row[fine_rows])], axis=1)
    lifted_pairs = scene.fine_pairs.subset(fine_rows)
    obj_scores, cls_logits, obj_trunk = model.obj(lifted_pairs, lifted_feats)
    selected = adaptive_topk(obj_scores.data, cfg.topk_max)
    if train:
        selected = np.union1d(selected, np.nonzero(scene.owner[fine_rows] >= 0)[0])
    selected_idx = lifted_idx[selected]
    selected_feats = ad.gather_rows(obj_trunk, selected)
    offsets, rot6d = model.pose(selected_idx, lifted_pairs.subset(selected), selected_feats)
    return StagedOutput(
        coarse=coarse,
        roi_scores=roi_scores,
        kept_coarse_rows=kept,
        lifted_grid=_light_grid(fine, lifted_idx),
        lifted_fine_rows=fine_rows,
        obj_scores=obj_scores,
        cls_logits=cls_logits,
        selected_rows=selected,
        selected_grid=_light_grid(fine, selected_idx),
        offsets=offsets,
        rot6d=rot6d,
    )


def multi_class_chamfer(rot6d: Tensor, R_target: np.ndarray, labels: np.ndarray, models: dict,
                        n_pts: int) -> Tensor:
    """Chamfer rotation loss across classes as one graph node: per-class
    single-cloud losses combined proportionally to their voxel counts (mean
    over the foreground voxels, those whose class label is not 0; none gives a constant 0).

    The per-class chamfer is divided by the squared object diameter, making
    the rotation part dimensionless and commensurate with the other task
    losses (raw squared meters are ~1e-4 for desk-scale parts and starve the
    rotation head under a shared SGD step).
    """
    n_valid = int((labels > 0).sum())
    if n_valid == 0:
        return ad.constant(0.0)

    def loss(r6):
        total, grad = 0.0, np.zeros_like(r6)
        for cid, n_c in zip(*np.unique(labels[labels > 0], return_counts=True)):
            model = models[int(cid)]
            part, g = chamfer_rot_loss(r6, R_target, model.cloud, labels == cid, n_pts=n_pts)
            scale = n_c / n_valid / model.diameter**2
            total, grad = total + part * scale, grad + g * scale
        return total, grad

    return ad.from_loss_fn(rot6d, loss)


@dataclass
class LossBreakdown:
    total: float
    roi: float
    obj: float
    cls: float
    t: float
    rot: float


def compute_losses(
    out: StagedOutput,
    scene: SceneStructure,
    models: dict,
    cfg: PipelineConfig,
) -> tuple[Tensor, LossBreakdown, dict]:
    """All five task losses of one forward pass plus the Eq-style weighted
    total as a graph node.

    `out` must come from `staged_forward(model, scene, cfg, train=True)` on
    a `scene` built with ground truth, which holds every target: the RoI
    target, and the ownership table whose row gathers give objectness, class
    labels (0 = background) and the selected rows' pose targets.
    """
    H = scene.roi_target
    l_roi = ad.from_loss_fn(out.roi_scores, lambda p: gaussian_focal_loss(p, H))

    owner = scene.owner[out.lifted_fine_rows]
    y = (owner >= 0).astype(np.float64)
    l_obj = ad.from_loss_fn(out.obj_scores, lambda p: focal_loss(p, y))

    labels = np.r_[0, scene.gt.class_ids][owner + 1]  # owner -1 gathers class 0, background
    l_cls = ad.from_loss_fn(out.cls_logits, lambda z: weighted_cross_entropy(z, labels))

    t_target, R_target, valid = pose_targets(out.selected_grid.centers(), owner[out.selected_rows], scene.gt)
    l_t = ad.from_loss_fn(out.offsets, lambda p: smooth_l1(p, t_target, valid))
    l_rot = multi_class_chamfer(out.rot6d, R_target, labels[out.selected_rows], models,
                                cfg.train_chamfer_points)

    total = nn.multitask_loss([l_roi, l_obj, l_cls, l_t, l_rot], LOSS_WEIGHTS)
    breakdown = LossBreakdown(
        total=float(total.data),
        roi=float(l_roi.data),
        obj=float(l_obj.data),
        cls=float(l_cls.data),
        t=float(l_t.data),
        rot=float(l_rot.data),
    )
    parts = {"roi": l_roi, "obj": l_obj, "cls": l_cls, "t": l_t, "rot": l_rot}
    return total, breakdown, parts


def train_toy(
    bundle: SceneBundle,
    cfg: PipelineConfig,
    steps: int | None = None,
    representation: str = "cloud",
    log_every: int = 0,
) -> tuple[PipelineModel, list[LossBreakdown]]:
    """Overfit the toy networks on one scene.

    The RoI head trains alone for the first `warmup_fraction` of steps, then
    all heads train jointly on the weighted multi-task total. The returned
    trace records the full weighted total at every step.
    """
    steps = cfg.steps if steps is None else steps
    model = build_model(cfg, representation, seed=cfg.seed)
    fine, _, _ = build_input_grid(bundle, cfg, representation)
    scene = scene_structure(fine, cfg, bundle.gt)
    params = model.parameters()
    opt = nn.SGD(params, lr=cfg.lr, momentum=cfg.momentum,
                 lr_scales={"pose.r_head": 30.0}, clip_norm=10.0)
    warmup = int(np.floor(cfg.warmup_fraction * steps))
    trace: list[LossBreakdown] = []
    for step in range(steps):
        out = staged_forward(model, scene, cfg, train=True)
        total, breakdown, parts = compute_losses(out, scene, bundle.models, cfg)
        trace.append(breakdown)
        opt.zero_grad()
        if step < warmup:
            ad.mul(parts["roi"], ad.constant(LOSS_WEIGHTS[0])).backward()
        else:
            total.backward()
        opt.step()
        del out, total, parts  # the next forward must not run beside this step's graph
        if log_every and step % log_every == 0:
            print(f"step {step:5d}  total {breakdown.total:.4f}  roi {breakdown.roi:.4f}  "
                  f"obj {breakdown.obj:.4f}  cls {breakdown.cls:.4f}  t {breakdown.t:.4f}  "
                  f"rot {breakdown.rot:.6f}")
    return model, trace


def oracle_votes(fine: SparseVoxelGrid, gt: SceneGroundTruth) -> VoteSet:
    """Ground-truth targets dressed up as predictions: every foreground voxel
    votes its exact offset and rotation with confidence 1."""
    owner = voxel_object_assignment(fine, gt)
    rows = np.nonzero(owner >= 0)[0]
    centers = fine.centers(rows)
    offsets, R, _ = pose_targets(centers, owner[rows], gt)
    return VoteSet(
        voxel_centers=centers,
        offsets=offsets,
        rot6d=matrix_to_rot6d(R),
        confidence=np.ones(rows.size),
        class_ids=gt.class_ids[owner[rows]],
    )


def predicted_votes(out: StagedOutput) -> VoteSet:
    """Votes from a forward pass, one per selected row; class = argmax over
    foreground class logits, confidence = objectness score. `VoteSet` holds
    them in float64 whatever dtype the networks ran in. Rows a degenerate
    output spoils are dropped later, by `votes_to_poses`."""
    logits = out.cls_logits.data[out.selected_rows]
    return VoteSet(
        voxel_centers=out.selected_grid.centers(),
        offsets=out.offsets.data,
        rot6d=out.rot6d.data,
        confidence=out.obj_scores.data[out.selected_rows],
        class_ids=1 + np.argmax(logits[:, 1:], axis=1),
    )


def votes_to_poses(votes: VoteSet, scene_points: np.ndarray, models: dict, cfg: PipelineConfig,
                   workspace: Workspace):
    """Cluster, aggregate and ICP-refine a vote set into a pose list.

    Votes point at object centers; the canonical-frame translation is
    recovered per pose as t = center - R @ canonical_centroid (zero for
    centroid-centered models).

    The clusters double as instance indexing: each pose is refined against
    the scene points that fall into its own cluster's voxels, so adjacent
    objects and bin walls cannot capture correspondences. A cluster whose
    target has under 50 points is too small to register against: its pose
    stays the aggregate, with refined=False.

    The targets are carved by voxel (theta voxels anchored at the workspace
    corner): each scene point's voxel key is looked up once, by `find_rows`,
    among the sorted distinct voxels of the votes, and a cluster's target is
    the scene points, in scene order, whose voxel is one of its votes'. A
    voxel shared by two clusters goes to both.

    This is the one place that judges a vote. Votes that cannot make a pose
    are dropped before clustering: a predicted center outside the
    `workspace` (non-finite included), a non-finite confidence or one below
    MIN_VOTE_CONFIDENCE, a class with no model in `models`, or a rotation
    rot6d_to_matrix rejects (non-finite included). So a degenerate output
    row costs that vote, not the scene.
    """
    usable = (workspace.contains(votes.predicted_centers()) & np.isfinite(votes.confidence)
              & (votes.confidence >= MIN_VOTE_CONFIDENCE)
              & np.isin(votes.class_ids, list(models)) & rot6d_frames(votes.rot6d)[1])
    if not usable.all():
        votes = VoteSet(votes.voxel_centers[usable], votes.offsets[usable], votes.rot6d[usable],
                        votes.confidence[usable], votes.class_ids[usable])
    if len(votes) == 0:
        return []
    labels = dbscan(votes.predicted_centers(), cfg.dbscan_eps, cfg.dbscan_min_pts)
    poses = aggregate_votes(votes, labels, cfg.vote_top_fraction)
    for pose in poses:
        pose.translation = pose.translation - pose.rotation @ models[pose.class_id].centroid

    scene = np.asarray(scene_points, dtype=np.float64).reshape(-1, 3)
    if len(scene) == 0:
        return poses
    from scipy.spatial import cKDTree  # deferred: keeps package import light
    vote_keys = pack_index(lattice_index(votes.voxel_centers, workspace.min_corner, cfg.theta))
    voxels, vote_voxel = np.unique(vote_keys, return_inverse=True)
    # -1 (no vote's voxel) reads the last slot of `own`, which stays False
    scene_voxel = find_rows(voxels, pack_index(lattice_index(scene, workspace.min_corner, cfg.theta)))
    for i, cid in enumerate(np.unique(labels[labels >= 0])):
        own = np.zeros(len(voxels) + 1, dtype=bool)
        own[vote_voxel[labels == cid]] = True
        target = scene[own[scene_voxel]]
        if len(target) >= 50:
            poses[i], _ = icp_refine(poses[i], models[poses[i].class_id].cloud_tree, cKDTree(target),
                                     iters=cfg.icp_iters, corr_dist=cfg.icp_corr_dist,
                                     tol=cfg.icp_tol)
    return poses


def estimate_poses(
    bundle: SceneBundle,
    cfg: PipelineConfig,
    model: PipelineModel | None = None,
    oracle: bool = False,
    representation: str = "cloud",
):
    """Full inference: fuse, stage the heatmaps (or take oracle votes),
    cluster and refine. Returns (pose list, vote count)."""
    fine, cloud, _ = build_input_grid(bundle, cfg, representation)
    if len(fine) == 0:
        return [], 0
    if oracle:
        votes = oracle_votes(fine, bundle.gt)
    else:
        if model is None:
            raise DataError("estimate needs a trained model or oracle mode")
        # a degenerate model's overflow leaves non-finite rows; votes_to_poses drops them
        with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
            out = staged_forward(model, fine, cfg, train=False)
        votes = predicted_votes(out)
    poses = votes_to_poses(votes, cloud, bundle.models, cfg, bundle.workspace)
    return poses, len(votes)
