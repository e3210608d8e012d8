#!/usr/bin/env python3
"""Hash-blocked sparse TSDF fusion.

Activates only the blocks touched by the observed surface, integrates every
view with truncated signed distances and weighted averaging, and extracts
the enriched band representation (x, y, z, sdf). A brute-force dense TSDF
over the full workspace verifies the sparse structure voxel by voxel; it
and the global voxel index come from the test oracles in tests/oracles.py.
"""

import sys
from pathlib import Path

import numpy as np

from sparsepose.fusion import Workspace, fuse_views
from sparsepose.synthetic import default_camera_ring, default_intrinsics, make_primitives, render_depth, sample_scene
from sparsepose.tsdf import TsdfConfig, build_tsdf

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "tests"))
from oracles import dense_tsdf_reference, global_voxel_indices  # noqa: E402

library = make_primitives()
intr = default_intrinsics(width=160, height=120, focal=150.0)
cams = default_camera_ring((-0.1, -0.1, 0.0), (0.1, 0.1, 0.056), n_views=3, distance=0.42, intr=intr)
spec = sample_scene(library, (-0.1, -0.1, 0.0), (0.1, 0.1, 0.056), n_objects=3, seed=2, cameras=cams)
depths = [render_depth(spec, library, i) for i in range(3)]

workspace = Workspace((-0.128, -0.128, -0.016), (0.128, 0.128, 0.112))
theta = 0.004
cfg = TsdfConfig(voxel_size=theta, voxels_per_side=8)
print(f"block size B = {cfg.block_size*1000:.0f} mm, truncation = {cfg.truncation*1000:.0f} mm "
      f"(8 voxel sizes)\n")

cloud = fuse_views(depths, spec.cameras, workspace)
tsdf = build_tsdf(cloud, depths, spec.cameras, cfg, workspace.min_corner)
pbar = tsdf.extract_pbar()

dims = np.round(workspace.extent / theta).astype(int)
dense_count = int(np.prod(dims))
print(f"active blocks:      {tsdf.n_blocks}")
print(f"allocated voxels:   {tsdf.n_blocks * cfg.voxels_per_side**3} vs {dense_count} dense")
print("                    (this demo workspace is tiny so block overhead dominates;")
print("                     allocation stays ~quadratic in 1/theta while dense grids cube,")
print("                     see demo 06 for the asymptotics)")
print(f"band voxels (Pbar): {len(pbar)} rows of (x, y, z, sdf), |sdf| < 1 strictly")

# -- dense reference ----------------------------------------------------------
dense_sdf, dense_w = dense_tsdf_reference(depths, spec.cameras, cfg, workspace.min_corner, dims)
idx = global_voxel_indices(tsdf)
inside = np.all((idx >= 0) & (idx < dims), axis=1)
gi = idx[inside]
dev = np.abs(tsdf.sdf.reshape(-1)[inside] - dense_sdf[gi[:, 0], gi[:, 1], gi[:, 2]]).max()
print(f"\nsparse vs dense reference ({dims.tolist()} grid): max deviation {dev:.2e}")

band = (dense_w > 0) & (np.abs(dense_sdf) < 1.0)
blocks = np.unique(np.floor_divide(np.argwhere(band), cfg.voxels_per_side), axis=0)
active = {tuple(b) for b in tsdf.block_indices}
missed = sum(1 for b in blocks if tuple(b) not in active)
print(f"in-band blocks missing from the sparse activation: {missed}")
