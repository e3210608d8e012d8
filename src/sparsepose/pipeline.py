"""End-to-end wiring: input representations, the staged two-heatmap forward
pass, the toy training loop and the voting-based pose estimation path.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass

import numpy as np
from scipy.spatial import cKDTree

from . import autodiff as ad
from . import nn
from .autodiff import Tensor
from .config import PipelineConfig
from .errors import DataError
from .fusion import FusedPointCloud, fuse_views
from .grid import SparseVoxelGrid, coarsen, pack_index, voxelize
from .heatmap import (
    HeatmapParams,
    SceneGroundTruth,
    adaptive_topk,
    focal_loss,
    gaussian_focal_loss,
    objectness_target,
    roi_target,
    soft_suppress,
    voxel_object_assignment,
    weighted_cross_entropy,
)
from .ioutil import atomic_write_text
from .synthetic import SceneBundle
from .tsdf import TsdfConfig, build_tsdf
from .voting import (
    VoteSet,
    aggregate_votes,
    attach_rotations,
    chamfer_rot_loss_graph,
    dbscan,
    icp_refine,
    matrix_to_rot6d,
    pose_targets,
    smooth_l1,
)

N_CLASSES = 4  # part library size; background is class 0


def heatmap_params(cfg: PipelineConfig) -> HeatmapParams:
    return HeatmapParams(
        sigma_c=cfg.sigma_c,
        sigma_b=cfg.sigma_b,
        alpha=cfg.focal_alpha,
        gamma=cfg.focal_gamma,
        beta=cfg.suppress_beta,
        epsilon=cfg.suppress_epsilon,
        kappa=cfg.suppress_kappa,
    )


def fuse_bundle(bundle: SceneBundle, cfg: PipelineConfig) -> FusedPointCloud:
    return fuse_views(bundle.depths, bundle.cameras, bundle.workspace, near=cfg.near, far=cfg.far)


def build_input_grid(bundle: SceneBundle, cfg: PipelineConfig, representation: str = "cloud"):
    """Fuse the views and voxelize either the raw cloud or the TSDF band
    points (with their signed-distance channel) at the pipeline resolution.

    Returns (fine grid, fused cloud, tsdf or None).
    """
    cloud = fuse_bundle(bundle, cfg)
    origin = bundle.workspace.min_corner
    if representation == "cloud":
        pts = cloud.points
        tsdf = None
    elif representation == "tsdf":
        tsdf_cfg = TsdfConfig(
            voxel_size=cfg.theta,
            voxels_per_side=cfg.tsdf_voxels_per_side,
            truncation=cfg.tsdf_truncation_mult * cfg.theta,
            weight_cap=cfg.tsdf_weight_cap,
        )
        tsdf = build_tsdf(cloud, bundle.depths, bundle.cameras, tsdf_cfg, origin,
                          near=cfg.near, far=cfg.far)
        pts = tsdf.extract_pbar()
    else:
        raise DataError(f"unknown representation '{representation}' (use cloud or tsdf)")
    fine = voxelize(pts, cfg.theta, origin)
    return fine, cloud, tsdf


@dataclass
class PipelineModel:
    roi: nn.RoiUNet
    obj: nn.ObjectnessNet
    pose: nn.PoseNet
    in_channels: int
    representation: str

    def parameters(self):
        from collections import OrderedDict

        out = OrderedDict()
        for prefix, module in (("roi.", self.roi), ("obj.", self.obj), ("pose.", self.pose)):
            for name, p in module.parameters().items():
                p.name = prefix + name
                out[prefix + name] = p
        return out


def build_model(cfg: PipelineConfig, representation: str, seed: int | None = None) -> PipelineModel:
    in_channels = 4 if representation == "cloud" else 5
    rng = np.random.default_rng(cfg.seed if seed is None else seed)
    roi = nn.RoiUNet(in_channels, cfg.roi_width, rng)
    obj = nn.ObjectnessNet(in_channels + cfg.roi_width, cfg.width, N_CLASSES, rng)
    pose = nn.PoseNet(cfg.width, cfg.width, cfg.heads, rng, scaled=cfg.scaled_attention)
    return PipelineModel(roi, obj, pose, in_channels, representation)


def save_model(path, model: PipelineModel) -> None:
    nn.save_checkpoint(path, model.parameters())
    meta = {"in_channels": model.in_channels, "representation": model.representation}
    atomic_write_text(str(path) + ".json", json.dumps(meta, indent=2, sort_keys=True) + "\n")


def load_model(path, cfg: PipelineConfig) -> PipelineModel:
    meta_path = str(path) + ".json"
    if not os.path.exists(meta_path):
        raise DataError(f"missing checkpoint metadata {meta_path}")
    try:
        with open(meta_path) as f:
            representation = json.load(f)["representation"]
    except (ValueError, KeyError, TypeError) as exc:  # ValueError covers JSON and UTF-8 decoding
        raise DataError(f"malformed checkpoint metadata {meta_path}: {exc}") from exc
    model = build_model(cfg, representation)
    nn.assign_parameters(model.parameters(), nn.load_checkpoint(path))
    return model


@dataclass
class StagedOutput:
    """Everything the losses and the voting head need from one forward pass."""

    coarse: SparseVoxelGrid
    roi_scores: Tensor
    attention: np.ndarray
    kept_coarse_rows: np.ndarray
    lifted_grid: SparseVoxelGrid       # indices of the surviving fine voxels
    lifted_fine_rows: np.ndarray
    obj_scores: Tensor
    cls_logits: Tensor
    selected_rows: np.ndarray          # rows into the lifted grid
    selected_grid: SparseVoxelGrid
    offsets: Tensor
    rot6d: Tensor
    roi_target: np.ndarray | None = None  # coarse-grid RoI target when computed in training


def _light_grid(reference: SparseVoxelGrid, indices: np.ndarray) -> SparseVoxelGrid:
    return SparseVoxelGrid(reference.resolution, reference.origin, indices,
                           np.zeros((len(indices), 1)))


def staged_forward(
    model: PipelineModel,
    fine: SparseVoxelGrid,
    cfg: PipelineConfig,
    gt: SceneGroundTruth | None = None,
    train: bool = False,
) -> StagedOutput:
    """RoI scoring on the coarse grid, soft suppression, feature lifting,
    objectness scoring + adaptive topK, pose regression on the survivors.

    In training mode the keep- and topK-selections are optionally unioned
    with ground-truth foreground so the downstream heads always see
    supervision while the heatmaps are still warming up.
    """
    if len(fine) == 0:
        raise DataError("staged forward on an empty grid")
    hp = heatmap_params(cfg)
    coarse, parent_row = coarsen(fine, cfg.coarse_factor)
    roi_scores, roi_trunk = model.roi(coarse)
    attention, kept = soft_suppress(roi_scores.data, hp)
    target = roi_target(coarse, gt, hp) if train and gt is not None else None
    if target is not None and cfg.train_keep_union_gt:
        kept = np.union1d(kept, np.nonzero(target > hp.kappa)[0])
    keep_mask = np.zeros(len(coarse), dtype=bool)
    keep_mask[kept] = True
    fine_rows = np.nonzero(keep_mask[parent_row])[0]
    if fine_rows.size == 0:
        # degenerate suppression: keep everything rather than fail
        fine_rows = np.arange(len(fine))
    lifted_idx = fine.indices[fine_rows]
    lifted_feats = ad.concat(
        [ad.constant(fine.features[fine_rows]), ad.gather_rows(roi_trunk, parent_row[fine_rows])],
        axis=1,
    )
    if cfg.attention_reweight:
        gate = ad.sigmoid(ad.mul(ad.sub(roi_scores, ad.constant(hp.epsilon)), ad.constant(hp.beta)))
        gate_rows = ad.reshape(ad.gather_rows(gate, parent_row[fine_rows]), (len(fine_rows), 1))
        lifted_feats = ad.mul(lifted_feats, gate_rows)
    obj_scores, cls_logits, obj_trunk = model.obj(lifted_idx, lifted_feats)
    lifted_grid = _light_grid(fine, lifted_idx)
    selected, _ = adaptive_topk(obj_scores.data, lifted_idx, cfg.topk_ratio, cfg.topk_min, cfg.topk_max)
    if train and gt is not None and cfg.train_topk_union_gt:
        positive = np.nonzero(objectness_target(lifted_grid, gt) > 0)[0]
        selected = np.union1d(selected, positive)
    selected_idx = lifted_idx[selected]
    selected_feats = ad.gather_rows(obj_trunk, selected)
    offsets, rot6d = model.pose(selected_idx, selected_feats, cfg.window_small, cfg.window_medium)
    return StagedOutput(
        coarse=coarse,
        roi_scores=roi_scores,
        attention=attention,
        kept_coarse_rows=kept,
        lifted_grid=lifted_grid,
        lifted_fine_rows=fine_rows,
        obj_scores=obj_scores,
        cls_logits=cls_logits,
        selected_rows=selected,
        selected_grid=_light_grid(fine, selected_idx),
        offsets=offsets,
        rot6d=rot6d,
        roi_target=target,
    )


def multi_class_chamfer(rot6d: Tensor, R_target: np.ndarray, owner: np.ndarray,
                        class_ids: np.ndarray, models: dict, valid: np.ndarray,
                        n_pts: int, normalize: bool = True) -> Tensor:
    """Chamfer rotation loss across classes: per-class single-cloud losses
    combined proportionally to their voxel counts (mean over valid voxels).

    With `normalize` the per-class chamfer is divided by the squared object
    diameter, making the rotation part dimensionless and commensurate with
    the other task losses (raw squared meters are ~1e-4 for desk-scale parts
    and starve the rotation head under a shared SGD step).
    """
    valid = np.asarray(valid, dtype=bool)
    n_valid = int(valid.sum())
    if n_valid == 0:
        return ad.constant(0.0)
    owner_class = np.where(owner >= 0, class_ids[np.maximum(owner, 0)], -1)
    total = None
    for cid in np.unique(owner_class[valid & (owner_class > 0)]):
        mask = valid & (owner_class == cid)
        n_c = int(mask.sum())
        if n_c == 0:
            continue
        model = models[int(cid)]
        part = chamfer_rot_loss_graph(rot6d, R_target, model.cloud, mask, n_pts=n_pts)
        scale = n_c / n_valid
        if normalize:
            scale /= model.diameter**2
        term = ad.mul(part, ad.constant(scale))
        total = term if total is None else ad.add(total, term)
    return total if total is not None else ad.constant(0.0)


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
    gt: SceneGroundTruth,
    instance_rotations: np.ndarray,
    models: dict,
    cfg: PipelineConfig,
    chamfer_points: int | None = None,
) -> tuple[Tensor, LossBreakdown, dict]:
    """All five task losses of one forward pass plus the Eq-style weighted
    total as a graph node.

    `out` must come from `staged_forward(..., gt=gt, train=True)`: the RoI
    target is read from `out.roi_target`, computed there from the same `gt`.
    """
    H = out.roi_target
    l_roi = ad.from_loss_fn(out.roi_scores, lambda p: gaussian_focal_loss(p, H, cfg.focal_alpha, cfg.focal_gamma))

    y = objectness_target(out.lifted_grid, gt)
    l_obj = ad.from_loss_fn(out.obj_scores, lambda p: focal_loss(p, y, cfg.obj_gamma, cfg.obj_alpha))

    owner_lifted = voxel_object_assignment(out.lifted_grid, gt)
    labels = np.where(owner_lifted >= 0, gt.class_ids[np.maximum(owner_lifted, 0)], 0)
    l_cls = ad.from_loss_fn(out.cls_logits, lambda z: weighted_cross_entropy(z, labels))

    t_target, R_eye, valid, owner_sel = pose_targets(out.selected_grid, gt)
    R_target = attach_rotations(R_eye, owner_sel, instance_rotations)
    l_t = ad.from_loss_fn(out.offsets, lambda p: smooth_l1(p, t_target, valid, cfg.smooth_l1_delta))
    n_pts = cfg.chamfer_points if chamfer_points is None else chamfer_points
    l_rot = multi_class_chamfer(out.rot6d, R_target, owner_sel, gt.class_ids, models, valid, n_pts)

    total = nn.multitask_loss([l_roi, l_obj, l_cls, l_t, l_rot], cfg.loss_weights)
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
    gt = bundle.gt
    instance_rotations = np.asarray([inst.rotation for inst in bundle.instances]).reshape(-1, 3, 3)
    params = model.parameters()
    opt = nn.SGD(params, lr=cfg.lr, momentum=cfg.momentum,
                 lr_scales={"pose.r_head": cfg.train_rot_lr_mult},
                 clip_norm=cfg.train_clip_norm)
    warmup = int(np.floor(cfg.warmup_fraction * steps))
    trace: list[LossBreakdown] = []
    for step in range(steps):
        out = staged_forward(model, fine, cfg, gt=gt, train=True)
        total, breakdown, parts = compute_losses(
            out, gt, instance_rotations, bundle.models, cfg, chamfer_points=cfg.train_chamfer_points
        )
        trace.append(breakdown)
        opt.zero_grad()
        if step < warmup:
            ad.mul(parts["roi"], ad.constant(cfg.lambda_roi)).backward()
        else:
            total.backward()
        opt.step()
        if log_every and step % log_every == 0:
            print(f"step {step:5d}  total {breakdown.total:.4f}  roi {breakdown.roi:.4f}  "
                  f"obj {breakdown.obj:.4f}  cls {breakdown.cls:.4f}  t {breakdown.t:.4f}  "
                  f"rot {breakdown.rot:.6f}")
    return model, trace


def trace_csv(trace: list[LossBreakdown], seed: int) -> str:
    lines = [f"# seed={seed}", "step,total,roi,obj,cls,t,rot"]
    for i, b in enumerate(trace):
        lines.append(f"{i},{b.total:.9g},{b.roi:.9g},{b.obj:.9g},{b.cls:.9g},{b.t:.9g},{b.rot:.9g}")
    return "\n".join(lines) + "\n"


def oracle_votes(fine: SparseVoxelGrid, gt: SceneGroundTruth, instance_rotations: np.ndarray) -> VoteSet:
    """Ground-truth targets dressed up as predictions: every foreground voxel
    votes its exact offset and rotation with confidence 1."""
    owner = voxel_object_assignment(fine, gt)
    rows = np.nonzero(owner >= 0)[0]
    if rows.size == 0:
        return VoteSet(np.zeros((0, 3)), np.zeros((0, 3)), np.zeros((0, 6)), np.zeros(0), np.zeros(0, dtype=np.int64))
    centers = fine.centers()[rows]
    own = owner[rows]
    offsets = gt.centroids[own] - centers
    rot6d = matrix_to_rot6d(instance_rotations[own])
    return VoteSet(
        voxel_centers=centers,
        offsets=offsets,
        rot6d=rot6d,
        confidence=np.ones(rows.size),
        class_ids=gt.class_ids[own],
    )


def predicted_votes(out: StagedOutput) -> VoteSet:
    """Votes from a trained forward pass; class = argmax over foreground
    class logits, confidence = objectness score."""
    logits = out.cls_logits.data[out.selected_rows]
    fg = logits[:, 1:]
    class_ids = 1 + np.argmax(fg, axis=1)
    return VoteSet(
        voxel_centers=out.selected_grid.centers(),
        offsets=out.offsets.data,
        rot6d=out.rot6d.data,
        confidence=out.obj_scores.data[out.selected_rows],
        class_ids=class_ids,
    )


def votes_to_poses(votes: VoteSet, scene_points: np.ndarray, models: dict, cfg: PipelineConfig,
                   origin=None):
    """Cluster, aggregate and ICP-refine a vote set into a pose list.

    Votes point at object centers; the canonical-frame translation is
    recovered per pose as t = center - R @ canonical_centroid (zero for
    centroid-centered models).

    The clusters double as instance indexing: each pose is refined against
    the scene points that fall into its own cluster's voxels, so adjacent
    objects and bin walls cannot capture correspondences. Clusters too small
    to carve a stable target fall back to the full cloud.
    """
    if len(votes) == 0:
        return []
    labels = dbscan(votes.predicted_centers(), cfg.dbscan_eps, cfg.dbscan_min_pts)
    poses = aggregate_votes(votes, labels, cfg.vote_top_fraction)
    for pose in poses:
        centroid = models[pose.class_id].mesh.surface_centroid()
        pose.translation = pose.translation - pose.rotation @ centroid

    scene = np.asarray(scene_points, dtype=np.float64).reshape(-1, 3)
    if len(scene) == 0:
        return poses
    base = np.zeros(3) if origin is None else np.asarray(origin, dtype=np.float64)
    scene_keys = pack_index(np.floor((scene - base) / cfg.theta).astype(np.int64))
    vote_keys = pack_index(np.floor((votes.voxel_centers - base) / cfg.theta).astype(np.int64))
    cluster_ids = np.unique(labels[labels >= 0])
    refined: list = []
    full_tree = None
    for pose, cid in zip(poses, cluster_ids):
        member_keys = np.unique(vote_keys[labels == cid])
        mask = np.isin(scene_keys, member_keys)
        target = scene[mask]
        if len(target) >= 50:
            tree = cKDTree(target)
        else:
            if full_tree is None:
                full_tree = cKDTree(scene)
            tree = full_tree
        out, _ = icp_refine(pose, models[pose.class_id].cloud, tree,
                            iters=cfg.icp_iters, corr_dist=cfg.icp_corr_dist,
                            tol=cfg.icp_tol, trim=cfg.icp_trim,
                            reciprocal=cfg.icp_reciprocal)
        refined.append(out)
    return refined


def estimate_poses(
    bundle: SceneBundle,
    cfg: PipelineConfig,
    model: PipelineModel | None = None,
    oracle: bool = False,
    representation: str = "cloud",
):
    """Full inference: fuse, stage the heatmaps (or take oracle votes),
    cluster and refine. Returns (pose list, vote count)."""
    fine, cloud, tsdf = build_input_grid(bundle, cfg, representation)
    if len(fine) == 0:
        return [], 0
    if oracle:
        rotations = np.asarray([inst.rotation for inst in bundle.instances]).reshape(-1, 3, 3)
        votes = oracle_votes(fine, bundle.gt, rotations)
    else:
        if model is None:
            raise DataError("estimate needs a trained model or oracle mode")
        out = staged_forward(model, fine, cfg, train=False)
        votes = predicted_votes(out)
    scene_points = cloud.points
    if cfg.icp_use_pbar and tsdf is not None:
        # near-zero-crossing band voxels stand in for the observed surface
        pbar = tsdf.extract_pbar()
        near = pbar[np.abs(pbar[:, 3]) < 0.25]
        if len(near) >= 100:
            scene_points = near[:, :3]
    poses = votes_to_poses(votes, scene_points, bundle.models, cfg,
                           origin=bundle.workspace.min_corner)
    return poses, len(votes)
