#!/usr/bin/env python3
"""The staged heatmap mechanics on real targets.

Voxelizes a fused scene, builds the coarse grid (10x), scores it with the
center+boundary distance weighting, gates it through the sigmoid soft
suppression, lifts the survivors back to fine resolution and applies the
objectness target plus the objectness floor that picks the pose rows. Losses are evaluated on synthetic
predictions to show their scales.
"""

import numpy as np

from sparsepose.config import PipelineConfig
from sparsepose.grid import SparseVoxelGrid, coarsen
from sparsepose.heatmap import (
    MIN_VOTE_CONFIDENCE,
    adaptive_topk,
    focal_loss,
    gaussian_focal_loss,
    objectness_target,
    roi_target,
    soft_suppress,
)
from sparsepose.pipeline import build_input_grid
from sparsepose.synthetic import export_scene_bundle, load_scene_bundle, make_primitives, sample_scene
import tempfile

library = make_primitives()
spec = sample_scene(library, (-0.08, -0.08, 0.0), (0.08, 0.08, 0.05), n_objects=3, seed=3)
bundle_dir = tempfile.mkdtemp(prefix="sparsepose_scene_")
export_scene_bundle(spec, library, bundle_dir)
bundle = load_scene_bundle(bundle_dir)

cfg = PipelineConfig(theta=0.002)
fine, _, _ = build_input_grid(bundle, cfg, "cloud")
coarse, parent = coarsen(fine)
print(f"fine grid:   {len(fine)} voxels at {cfg.theta*1000:.0f} mm, {fine.channels} channels")
print(f"coarse grid: {len(coarse)} voxels at {coarse.resolution*1000:.0f} mm\n")

# -- stage one: RoI target, Gaussian focal loss, soft suppression -------------
H = roi_target(coarse, bundle.gt, cfg.sigma_c, cfg.sigma_b)
print(f"RoI target: H in [{H.min():.3f}, {H.max():.3f}], mean {H.mean():.3f}")
pred = np.clip(H + 0.15 * np.random.default_rng(0).normal(size=H.shape), 0.02, 0.98)
loss, grad = gaussian_focal_loss(pred, H)
print(f"Gaussian focal loss of a noisy prediction: {loss:.4f} (|grad| max {np.abs(grad).max():.4f})")

attention, kept = soft_suppress(H, cfg.suppress_beta, cfg.suppress_epsilon,
                                cfg.suppress_kappa)
print(f"soft suppression at kappa={cfg.suppress_kappa}: keeps {len(kept)}/{len(coarse)} coarse voxels")

# -- lifting ------------------------------------------------------------------
# the rows staged_forward lifts: fine voxels whose coarse parent survived,
# widened with the parent's features
keep_mask = np.zeros(len(coarse), dtype=bool)
keep_mask[kept] = True
rows = np.nonzero(keep_mask[parent])[0]
lifted = SparseVoxelGrid(fine.resolution, fine.origin, fine.indices[rows],
                         np.hstack([fine.features[rows], coarse.features[parent[rows]]]))
print(f"lifted fine voxels: {len(lifted)} ({lifted.channels} channels after enrichment)\n")

# -- stage two: objectness + the objectness floor -----------------------------
y = objectness_target(lifted, bundle.gt)
print(f"objectness positives: {int(y.sum())}/{len(lifted)}")
pred_obj = np.clip(y * 0.8 + 0.1, 1e-6, 1 - 1e-6)
loss_obj, _ = focal_loss(pred_obj, y)
print(f"focal loss of a decent prediction: {loss_obj:.4f}")

scores = pred_obj + 0.01 * np.random.default_rng(1).normal(size=len(lifted))
selected = adaptive_topk(scores, cfg.topk_max)
frac_fg = y[selected].mean() if len(selected) else 0.0
n_above = int((scores >= MIN_VOTE_CONFIDENCE).sum())
print(f"objectness floor {MIN_VOTE_CONFIDENCE}: {n_above} rows at or above it, K={len(selected)} pose rows "
      f"(at most {cfg.topk_max}); {100*frac_fg:.1f}% of them are foreground")
