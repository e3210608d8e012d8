"""Command line entry point.

Subcommands wire the pipeline end to end on scene bundles:

    make-scene  generate a synthetic bin scene bundle
    fuse        multi-view fusion to a PLY cloud or a sparse TSDF dump
    targets     dump heatmap/objectness/attention targets as CSV
    train-toy   overfit the toy networks on one scene
    estimate    voting + ICP pose estimation (trained model or --oracle)
    eval        pose metrics against the bundle ground truth
    stats       sparse vs dense occupancy over a resolution sweep

Exit codes: 0 success, 2 config error, 3 data error, 4 numerical failure.
"""

from __future__ import annotations

import argparse
import math
import os
import sys

import numpy as np

from .config import PipelineConfig, dump_config, load_config
from .errors import ConfigError, DataError, NumericalError
from .ioutil import atomic_write_text, write_csv
from .fusion import write_ply_points
from .grid import coarsen, occupancy_stats, occupancy_table
from .heatmap import objectness_target, roi_target, soft_suppress
from .metrics import evaluate_scene, write_metric_csv, write_metric_json
from .pipeline import (
    build_input_grid,
    estimate_poses,
    fuse_bundle,
    fuse_tsdf,
    load_model,
    save_model,
    train_toy,
)
from .synthetic import export_scene_bundle, load_scene_bundle, make_primitives, sample_scene
from .voting import read_pose_json, write_pose_csv, write_pose_json


def _add_common(p: argparse.ArgumentParser):
    p.add_argument("--config", help="pipeline config file (plain-text sections)")
    p.add_argument("--seed", type=int, default=None, help="seed override, echoed in outputs")
    p.add_argument("--theta-mm", type=float, default=None, help="voxel size override, millimeters")


def _config_from(args) -> PipelineConfig:
    overrides = {}
    if args.seed is not None:
        overrides["seed"] = args.seed
    if getattr(args, "theta_mm", None) is not None:
        overrides["theta"] = args.theta_mm / 1000.0
    if getattr(args, "steps", None) is not None:
        overrides["steps"] = args.steps
    return load_config(args.config, overrides)


def cmd_make_scene(args) -> int:
    cfg = _config_from(args)
    library = make_primitives()
    half = args.bin_mm / 2000.0
    spec = sample_scene(
        library,
        bin_min=(-half, -half, 0.0),
        bin_max=(half, half, args.bin_height_mm / 1000.0),
        n_objects=args.objects,
        seed=cfg.seed,
        noise_sigma=args.noise_mm / 1000.0,
        dropout=args.dropout,
    )
    export_scene_bundle(spec, library, args.out)
    print(f"scene bundle written to {args.out} (seed={cfg.seed}, objects={args.objects})")
    return 0


def cmd_fuse(args) -> int:
    cfg = _config_from(args)
    bundle = load_scene_bundle(args.scene)
    if args.repr == "cloud":
        cloud = fuse_bundle(bundle, cfg)
        out = args.out or os.path.join(args.scene, "fused.ply")
        write_ply_points(out, cloud)
        print(f"fused {len(cloud)} points -> {out} (seed={cfg.seed})")
    else:
        tsdf = fuse_tsdf(bundle, cfg, fuse_bundle(bundle, cfg))
        out = args.out or os.path.join(args.scene, "fused.tsdf")
        tsdf.dump(out)
        print(f"sparse tsdf: {tsdf.n_blocks} blocks, {len(tsdf.band_rows())} band voxels -> {out} (seed={cfg.seed})")
    return 0


def cmd_targets(args) -> int:
    cfg = _config_from(args)
    bundle = load_scene_bundle(args.scene)
    fine, _, _ = build_input_grid(bundle, cfg, "cloud")
    coarse, _ = coarsen(fine)
    H = roi_target(coarse, bundle.gt, cfg.sigma_c, cfg.sigma_b)
    attention, _ = soft_suppress(H, cfg.suppress_beta, cfg.suppress_epsilon, cfg.suppress_kappa)
    y = objectness_target(fine, bundle.gt)
    out_dir = args.out or args.scene
    os.makedirs(out_dir, exist_ok=True)
    write_csv(os.path.join(out_dir, "targets_coarse.csv"), cfg.seed, "vx,vy,vz,H,attention",
              (f"{i},{j},{k},{h:.9g},{a:.9g}" for (i, j, k), h, a in zip(coarse.indices, H, attention)))
    write_csv(os.path.join(out_dir, "targets_fine.csv"), cfg.seed, "vx,vy,vz,objectness",
              (f"{i},{j},{k},{v:.0f}" for (i, j, k), v in zip(fine.indices, y)))
    print(f"targets written to {out_dir}: {len(coarse)} coarse voxels, {len(fine)} fine voxels (seed={cfg.seed})")
    return 0


def cmd_train_toy(args) -> int:
    cfg = _config_from(args)
    if args.log_every < 0:
        raise ConfigError(f"log-every must be 0 (no log) or above, got {args.log_every}")
    bundle = load_scene_bundle(args.scene)
    model, trace = train_toy(bundle, cfg, representation=args.repr, log_every=args.log_every)
    out = args.out or os.path.join(args.scene, "toy.ckpt")
    save_model(out, model)
    write_csv(os.path.splitext(out)[0] + "_trace.csv", cfg.seed, "step,total,roi,obj,cls,t,rot",
              (f"{i},{b.total:.9g},{b.roi:.9g},{b.obj:.9g},{b.cls:.9g},{b.t:.9g},{b.rot:.9g}"
               for i, b in enumerate(trace)))
    if trace:
        print(f"trained {cfg.steps} steps: total loss {trace[0].total:.4f} -> {trace[-1].total:.4f} (seed={cfg.seed})")
    else:
        print(f"initialization checkpoint written (0 steps, seed={cfg.seed})")
    print(f"checkpoint -> {out}")
    return 0


def cmd_estimate(args) -> int:
    cfg = _config_from(args)
    bundle = load_scene_bundle(args.scene)
    model, representation = None, args.repr or "cloud"
    if not args.oracle:
        if not args.checkpoint:
            raise ConfigError("estimate needs --checkpoint or --oracle")
        model = load_model(args.checkpoint, cfg)
        if args.repr not in (None, model.representation):
            raise ConfigError(f"--repr {args.repr} conflicts with the checkpoint's representation "
                              f"{model.representation}")
        representation = model.representation
    poses, n_votes = estimate_poses(bundle, cfg, model=model, oracle=args.oracle,
                                    representation=representation)
    out = args.out or os.path.join(args.scene, "poses")
    write_pose_csv(out + ".csv", poses, seed=cfg.seed)
    write_pose_json(out + ".json", poses, seed=cfg.seed)
    print(f"{len(poses)} poses from {n_votes} votes -> {out}.csv/.json (seed={cfg.seed})")
    return 0


def cmd_eval(args) -> int:
    cfg = _config_from(args)
    bundle = load_scene_bundle(args.scene)
    poses = read_pose_json(args.poses)
    report = evaluate_scene(poses, bundle.instances, bundle.models,
                            camera=bundle.cameras[0] if bundle.cameras else None)
    out = args.out or os.path.join(args.scene, "metrics")
    write_metric_csv(out + ".csv", report, seed=cfg.seed)
    write_metric_json(out + ".json", report, seed=cfg.seed)
    print(
        f"evaluated {report['n_detections']} detections vs {report['n_objects']} objects: "
        f"ADD-S AUC {report['add_s_auc']:.3f}, AP {report['ap']:.3f} (seed={cfg.seed})"
    )
    return 0


def cmd_stats(args) -> int:
    cfg = _config_from(args)
    for theta in args.thetas:
        if not 0.0 < theta < math.inf:
            raise ConfigError(f"--thetas must be finite and above 0 millimeters, got {theta}")
    bundle = load_scene_bundle(args.scene)
    cloud = fuse_bundle(bundle, cfg)
    thetas = [t / 1000.0 for t in args.thetas]
    rows = occupancy_stats(cloud - bundle.workspace.min_corner, bundle.workspace.extent, thetas)
    out = args.out or os.path.join(args.scene, "occupancy.csv")
    write_csv(out, cfg.seed, *occupancy_table(rows))
    for r in rows:
        print(f"theta {r['theta_mm']:6.2f} mm: sparse {r['sparse']:9d}  dense {r['dense']:12d}  ratio {r['ratio']:.5f}")
    print(f"occupancy table -> {out} (seed={cfg.seed})")
    return 0


def cmd_dump_config(args) -> int:
    cfg = _config_from(args)
    text = dump_config(cfg)
    if args.out:
        atomic_write_text(args.out, text)
        print(f"config -> {args.out}")
    else:
        sys.stdout.write(text)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="sparsepose",
                                     description="Depth-only multi-view 6D pose estimation toolkit")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("make-scene", help="generate a synthetic scene bundle")
    _add_common(p)
    p.add_argument("--out", required=True)
    p.add_argument("--objects", type=int, default=3)
    p.add_argument("--bin-mm", type=float, default=200.0, help="bin footprint, millimeters")
    p.add_argument("--bin-height-mm", type=float, default=60.0)
    p.add_argument("--noise-mm", type=float, default=0.0)
    p.add_argument("--dropout", type=float, default=0.0)
    p.set_defaults(func=cmd_make_scene)

    p = sub.add_parser("fuse", help="fuse depth views into a cloud or TSDF")
    _add_common(p)
    p.add_argument("scene")
    p.add_argument("--repr", choices=("cloud", "tsdf"), default="cloud")
    p.add_argument("--out")
    p.set_defaults(func=cmd_fuse)

    p = sub.add_parser("targets", help="dump per-voxel training targets")
    _add_common(p)
    p.add_argument("scene")
    p.add_argument("--out")
    p.set_defaults(func=cmd_targets)

    p = sub.add_parser("train-toy", help="overfit the toy networks on one scene")
    _add_common(p)
    p.add_argument("scene")
    p.add_argument("--steps", type=int, default=None)
    p.add_argument("--repr", choices=("cloud", "tsdf"), default="cloud")
    p.add_argument("--out")
    p.add_argument("--log-every", type=int, default=0)
    p.set_defaults(func=cmd_train_toy)

    p = sub.add_parser("estimate", help="estimate 6D poses")
    _add_common(p)
    p.add_argument("scene")
    p.add_argument("--checkpoint")
    p.add_argument("--oracle", action="store_true", help="feed ground-truth targets as predictions")
    p.add_argument("--repr", choices=("cloud", "tsdf"), default=None,
                   help="input representation; a checkpoint's own by default, else cloud")
    p.add_argument("--out")
    p.set_defaults(func=cmd_estimate)

    p = sub.add_parser("eval", help="score estimated poses against ground truth")
    _add_common(p)
    p.add_argument("scene")
    p.add_argument("poses", help="pose JSON produced by estimate")
    p.add_argument("--out")
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("stats", help="occupancy statistics over resolutions")
    _add_common(p)
    p.add_argument("scene")
    p.add_argument("--thetas", type=float, nargs="+", default=[8.0, 4.0, 2.0, 1.0],
                   help="voxel sizes in millimeters")
    p.add_argument("--out")
    p.set_defaults(func=cmd_stats)

    p = sub.add_parser("dump-config", help="print the effective configuration")
    _add_common(p)
    p.add_argument("--out")
    p.set_defaults(func=cmd_dump_config)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        # a float overflow or an invalid value the code does not expect ends
        # the run; code that expects one says so with its own errstate
        with np.errstate(over="raise", divide="raise", invalid="raise"):
            return args.func(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except DataError as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return 3
    except (NumericalError, FloatingPointError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
