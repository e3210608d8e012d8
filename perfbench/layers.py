"""Which package calls the traced run wraps, and how the spans become the
per-layer metrics named in BENCHMARK.json."""

from __future__ import annotations

import os
import statistics

from sparsepose import autodiff, fusion, grid, heatmap, nn, pipeline, synthetic, tsdf, voting

from tracer import Tracer


def install(tracer: Tracer) -> None:
    """Wrap each module's public entry points. Span names are the metric
    prefixes."""
    ctx = tracer.context

    def count(key, fn):
        return lambda info, args, kwargs, result: info.__setitem__(key, fn(args, result))

    def staged(info, args, kwargs, out):
        info.update(coarse=len(out.coarse), kept=len(out.kept_coarse_rows),
                    lifted=len(out.lifted_grid), selected=len(out.selected_rows))

    def icp(info, args, kwargs, result):
        pose, rmse = result
        info.update(iters=len(rmse), refined=int(pose.refined),
                    full_cloud=int(args[2].n == ctx.get("scene_points")))

    def dbscan(info, args, kwargs, labels):
        info.update(points=len(args[0]), clusters=int(labels.max()) + 1 if len(labels) else 0)

    def activate(info, args, kwargs, blocks):
        info.update(blocks=len(blocks), voxels=len(blocks) * args[1].voxels_per_side ** 3)

    fn = tracer.patch_function
    fn(synthetic, "load_scene_bundle", "synthetic.load_scene_bundle")
    fn(fusion, "fuse_views", "fusion.fuse_views", count("points", lambda a, r: len(r)))
    fn(grid, "voxelize", "grid.voxelize", count("voxels", lambda a, r: len(r)))
    fn(grid, "coarsen", "grid.coarsen", count("voxels", lambda a, r: len(r[0])))
    fn(tsdf, "activate_blocks", "tsdf.activate_blocks", activate)
    fn(heatmap, "roi_target", "heatmap.roi_target")
    fn(heatmap, "objectness_target", "heatmap.objectness_target")
    fn(heatmap, "voxel_object_assignment", "heatmap.voxel_object_assignment")
    fn(voting, "pose_targets", "voting.pose_targets")
    fn(voting, "dbscan", "voting.dbscan", dbscan)
    fn(voting, "aggregate_votes", "voting.aggregate_votes")
    fn(voting, "icp_refine", "voting.icp_refine", icp)
    fn(autodiff, "segment_sum", "autodiff.segment_sum")
    fn(pipeline, "build_input_grid", "pipeline.build_input_grid")
    fn(pipeline, "staged_forward", "pipeline.staged_forward", staged)
    fn(pipeline, "compute_losses", "pipeline.compute_losses")
    fn(pipeline, "oracle_votes", "pipeline.oracle_votes")
    # votes_to_poses builds its full-cloud KD-tree from scene_points; the
    # ICP probe compares tree sizes against it
    fn(pipeline, "votes_to_poses", "pipeline.votes_to_poses",
       pre=lambda args: ctx.__setitem__("scene_points", len(args[1])))

    m = tracer.patch_method
    for cls in (nn.SubmanifoldConv3, nn.RoiUNet, nn.ObjectnessNet, nn.PoseNet, nn.DualBranchBlock):
        m(cls, "__call__", f"nn.{cls.__name__}")
    m(nn.ConvPairs, "__init__", "nn.ConvPairs")
    m(nn.SGD, "step", "nn.SGD.step")
    m(autodiff.Tensor, "backward", "autodiff.backward")
    m(tsdf.SparseTsdf, "integrate_view", "tsdf.integrate_view", faults=True)
    m(tsdf.SparseTsdf, "extract_pbar", "tsdf.extract_pbar", count("rows", lambda a, r: len(r)))
    m(tsdf.SparseTsdf, "dump", "tsdf.dump", count("bytes", lambda a, r: os.path.getsize(a[1])))


def _mean(values) -> float:
    return statistics.fmean(values) if values else 0.0


def _info(spans, key) -> list:
    return [s.info[key] for s in spans if key in s.info]


def _warm_ops(tracer: Tracer, primary: str, skip_ops: int) -> list[dict]:
    return [op for op in tracer.ops[skip_ops:] if op["kind"] == primary]


def top_level_split(tracer: Tracer, primary: str, skip_ops: int = 0) -> dict[str, float]:
    """Milliseconds per step or scene of each span opened directly inside an
    operation: how one operation splits into its top-level calls."""
    ops = _warm_ops(tracer, primary, skip_ops)
    ids = {op["id"] for op in ops}
    units = sum(op["units"] for op in ops) or 1
    out: dict[str, float] = {}
    for s in tracer.spans:
        if s.op in ids and s.parent is None:
            out[s.name] = out.get(s.name, 0.0) + s.ms / units
    return out


def per_layer(tracer: Tracer, primary: str, skip_ops: int = 0) -> dict[str, float]:
    """Per-layer figures from the spans of the primary operations (training
    calls or scenes), leaving out the first `skip_ops` operations (the cold
    pass). `.ms` is the mean wall time per call including child spans,
    `.calls` the calls per step or scene."""
    ops = _warm_ops(tracer, primary, skip_ops)
    spans = tracer.by_name({op["id"] for op in ops})
    units = sum(op["units"] for op in ops) or 1
    out: dict[str, float] = {}
    for name, group in spans.items():
        out[f"{name}.ms"] = _mean([s.ms for s in group])
        out[f"{name}.calls"] = len(group) / units

    def share(name, num, den):
        group = spans.get(name, [])
        total = sum(_info(group, den))
        return sum(_info(group, num)) / total if total else 0.0

    out["heatmap.kept_share"] = share("pipeline.staged_forward", "kept", "coarse")
    out["heatmap.selected_share"] = share("pipeline.staged_forward", "selected", "lifted")
    dbs = spans.get("voting.dbscan", [])
    out["voting.dbscan.points"] = _mean(_info(dbs, "points"))
    out["voting.dbscan.clusters"] = _mean(_info(dbs, "clusters"))
    icps = spans.get("voting.icp_refine", [])
    out["voting.icp_refine.iters"] = _mean(_info(icps, "iters"))
    out["voting.icp_refine.refined_share"] = _mean(_info(icps, "refined"))
    out["voting.icp_refine.full_cloud_share"] = _mean(_info(icps, "full_cloud"))
    act = spans.get("tsdf.activate_blocks", [])
    out["tsdf.blocks"] = _mean(_info(act, "blocks"))
    out["tsdf.active_voxels"] = _mean(_info(act, "voxels"))
    out["tsdf.band_share"] = (sum(_info(spans.get("tsdf.extract_pbar", []), "rows"))
                              / max(sum(_info(act, "voxels")), 1))
    views = spans.get("tsdf.integrate_view", [])
    for key in ("minflt", "cpu_ms", "nivcsw"):
        out[f"tsdf.integrate_view.{key}"] = statistics.median(_info(views, key)) if views else 0.0
    out["tsdf.dump.bytes"] = _mean(_info(spans.get("tsdf.dump", []), "bytes"))
    out["fusion.fuse_views.points"] = _mean(_info(spans.get("fusion.fuse_views", []), "points"))
    out["grid.fine_voxels"] = _mean(_info(spans.get("grid.voxelize", []), "voxels"))
    out["grid.coarse_voxels"] = _mean(_info(spans.get("grid.coarsen", []), "voxels"))

    # the process's first view, cold, against the median view
    first = next((s for s in tracer.spans if s.name == "tsdf.integrate_view"), None)
    out["tsdf.integrate_view.first_ms"] = first.ms if first else 0.0
    for key in ("minflt", "cpu_ms", "nivcsw"):
        out[f"tsdf.integrate_view.first_{key}"] = first.info[key] if first else 0.0
    loads = tracer.by_name().get("synthetic.load_scene_bundle", [])
    out["synthetic.load_scene_bundle.ms"] = _mean([s.ms for s in loads])

    out["trace.coverage_share"] = statistics.median(
        tracer.top_level_ms(op) / ((op["end"] - op["start"]) * 1000.0) for op in ops) if ops else 0.0
    return out
