#!/usr/bin/env python3
"""Overfit the toy networks on one scene end to end, over one or more seeds.

Runs the staged pipeline in training mode (RoI warm-up, then the joint
five-part objective), then estimates poses with the trained weights and
scores them. The scene and config are those of criterion 7.

    07_train_toy.py [steps] [seeds]

`steps` defaults to 120, which keeps the demo short; criterion 7 trains 500.
`seeds` (default 1) trains once per model seed 0..seeds-1 and then reports
the spread: each object's median and range of ADD-S, how many seeds pass
criterion 7's rule (two of three objects under 5 mm) and the final-loss
range. One seed of 500 steps takes about a minute on two cores. Training
bits depend on the BLAS thread count and on the dtype the networks compute
in, so both are printed with the table.
"""

import os
import sys
import tempfile
import time

import numpy as np

from sparsepose.config import PipelineConfig
from sparsepose.metrics import add_s
from sparsepose.pipeline import NET_DTYPE, estimate_poses, train_toy
from sparsepose.synthetic import default_camera_ring, default_intrinsics, export_scene_bundle, load_scene_bundle, make_primitives, sample_scene

steps = int(sys.argv[1]) if len(sys.argv) > 1 else 120
n_seeds = int(sys.argv[2]) if len(sys.argv) > 2 else 1

library = make_primitives()
intr = default_intrinsics(width=200, height=150, focal=190.0)
cams = default_camera_ring((-0.07, -0.07, 0.0), (0.07, 0.07, 0.05), n_views=3,
                           distance=0.38, intr=intr)
spec = sample_scene(library, (-0.07, -0.07, 0.0), (0.07, 0.07, 0.05), n_objects=3,
                    seed=7, cameras=cams)
bundle_dir = tempfile.mkdtemp(prefix="sparsepose_toy_")
export_scene_bundle(spec, library, bundle_dir)
bundle = load_scene_bundle(bundle_dir)
objects = bundle.instances


def best_add_s(poses, inst) -> float:
    """ADD-S of the best pose of the object's class, inf if there is none."""
    cloud = bundle.models[inst.class_id].cloud
    return min((add_s(p.rotation, p.translation, inst.rotation, inst.translation, cloud)
                for p in poses if p.class_id == inst.class_id), default=np.inf)


print(f"training {steps} steps at theta = 4 mm over {n_seeds} seed(s) "
      f"(warm-up: first {int(PipelineConfig().warmup_fraction * steps)} steps train the RoI head alone)\n")
losses, errors, passes = [], [], 0
for seed in range(n_seeds):
    cfg = PipelineConfig(theta=0.004, steps=steps, seed=seed)
    t0 = time.time()
    model, trace = train_toy(bundle, cfg, log_every=max(1, steps // 10) if n_seeds == 1 else 0)
    poses, n_votes = estimate_poses(bundle, cfg, model=model, representation="cloud")
    err = [best_add_s(poses, inst) * 1000 for inst in objects]
    good = sum(e < 5.0 for e in err)
    passes += good >= 2 * len(objects) // 3
    losses.append(trace[-1].total)
    errors.append(err)
    print(f"seed {seed}: {time.time() - t0:.0f}s, loss {trace[0].total:.3f} -> {trace[-1].total:.3f}, "
          f"ADD-S mm {', '.join(f'{e:.2f}' for e in err)}, {good} objects < 5 mm, "
          f"{len(poses)} poses from {n_votes} votes")

errors = np.asarray(errors)
print()
for gi, inst in enumerate(objects):
    col = errors[:, gi]
    print(f"object {gi} ({bundle.models[inst.class_id].name}): ADD-S median {np.median(col):.2f} mm, "
          f"range {col.min():.2f}-{col.max():.2f} mm")
print(f"{passes}/{n_seeds} seeds pass (>= 2 of {len(objects)} objects < 5 mm); "
      f"final loss {min(losses):.3f}-{max(losses):.3f}; "
      f"OPENBLAS_NUM_THREADS={os.environ.get('OPENBLAS_NUM_THREADS', 'unset')}; "
      f"networks in {np.dtype(NET_DTYPE).name}")
