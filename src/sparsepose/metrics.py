"""Pose error metrics: ADD, ADD-S, accuracy-threshold AUC, and the
symmetry-aware MSSD / MSPD with recall grids.

All distances are meters except MSPD, which measures reprojected pixel
distances.
"""

from __future__ import annotations

import numpy as np

from .camera import CameraExtrinsics, CameraIntrinsics, project
from .errors import DataError
from .ioutil import write_csv, write_json

# Recall threshold grids (BOP-style conventions).
MSSD_REL_THRESHOLDS = np.arange(0.05, 0.501, 0.05)          # fractions of the object diameter
MSPD_PX_THRESHOLDS = np.arange(5.0, 50.01, 5.0)             # pixels, scaled by width/640
MSSD_MM_THRESHOLDS = np.arange(0.005, 0.0501, 0.005)        # absolute meters (labeled variant)


def add(R_est, t_est, R_gt, t_gt, points) -> float:
    """Mean distance between the two placements of the model points."""
    pts = np.asarray(points, dtype=np.float64).reshape(-1, 3)
    if len(pts) == 0:
        raise DataError("ADD needs a nonempty model cloud")
    a = pts @ np.asarray(R_est).T + np.asarray(t_est)
    b = pts @ np.asarray(R_gt).T + np.asarray(t_gt)
    return float(np.linalg.norm(a - b, axis=1).mean())


def add_s(R_est, t_est, R_gt, t_gt, points) -> float:
    """Symmetry-tolerant variant: mean nearest-point distance from the
    ground-truth placement to the estimated placement."""
    pts = np.asarray(points, dtype=np.float64).reshape(-1, 3)
    if len(pts) == 0:
        raise DataError("ADD-S needs a nonempty model cloud")
    a = pts @ np.asarray(R_est).T + np.asarray(t_est)
    b = pts @ np.asarray(R_gt).T + np.asarray(t_gt)
    from scipy.spatial import cKDTree  # deferred: keeps package import light
    return float(cKDTree(a).query(b)[0].mean())


def auc(errors, max_threshold: float = 0.1, steps: int = 100) -> float:
    """Accuracy-threshold integral: mean accuracy over `steps` thresholds
    k * max / steps, k = 1..steps. Missing detections enter as +inf."""
    e = np.asarray(errors, dtype=np.float64).reshape(-1)
    if e.size == 0:
        return 0.0
    thresholds = max_threshold * np.arange(1, steps + 1) / steps
    acc = (e[None, :] < thresholds[:, None]).mean(axis=1)
    return float(acc.mean())


def _symmetric_max_distance(R_est, t_est, R_gt, t_gt, vertices, symmetries, name: str, view) -> float:
    """Min over the symmetry set of the max distance between the estimated
    and the symmetry-adjusted ground-truth vertex placements, each mapped
    through `view` (identity for MSSD, the pixel projection for MSPD)."""
    v = np.asarray(vertices, dtype=np.float64).reshape(-1, 3)
    if len(v) == 0:
        raise DataError(f"{name} needs model vertices")
    syms = list(symmetries) if len(symmetries) else [np.eye(3)]
    est = view(v @ np.asarray(R_est).T + np.asarray(t_est))
    best = np.inf
    R_gt = np.asarray(R_gt)
    t_gt = np.asarray(t_gt)
    for s in syms:
        gt = view((v @ np.asarray(s).T) @ R_gt.T + t_gt)
        best = min(best, float(np.linalg.norm(est - gt, axis=1).max()))
    return best


def mssd(R_est, t_est, R_gt, t_gt, vertices, symmetries) -> float:
    """Maximum symmetry-aware surface distance: min over the symmetry set of
    the max vertex distance between the estimate and the symmetry-adjusted
    ground truth."""
    return _symmetric_max_distance(R_est, t_est, R_gt, t_gt, vertices, symmetries, "MSSD", lambda p: p)


def mspd(R_est, t_est, R_gt, t_gt, vertices, symmetries,
         intr: CameraIntrinsics, extr: CameraExtrinsics) -> float:
    """MSSD's projected twin: distances measured in pixels after projecting
    both placements into the camera."""
    return _symmetric_max_distance(R_est, t_est, R_gt, t_gt, vertices, symmetries, "MSPD",
                                   lambda p: project(p, intr, extr)[0])


def recall_curve(errors, thresholds) -> np.ndarray:
    """Fraction of objects with error < threshold, per threshold. Missing
    detections (inf) never count."""
    e = np.asarray(errors, dtype=np.float64).reshape(-1)
    th = np.asarray(thresholds, dtype=np.float64)
    if e.size == 0:
        return np.zeros(th.shape)
    return (e[None, :] < th[:, None]).mean(axis=1)


def match_poses(estimates, gt_class_ids, gt_translations):
    """Greedy class-aware assignment of estimates to ground-truth objects.

    Estimates are consumed in descending confidence; each takes the nearest
    (by centroid distance) unmatched ground-truth object of its class.
    Returns, per ground-truth object, the matched estimate index or -1.
    """
    gt_cls = np.asarray(gt_class_ids, dtype=np.int64).reshape(-1)
    gt_t = np.asarray(gt_translations, dtype=np.float64).reshape(-1, 3)
    matched = np.full(len(gt_cls), -1, dtype=np.int64)
    order = np.argsort([-p.confidence for p in estimates], kind="stable")
    for ei in order:
        est = estimates[ei]
        candidates = np.nonzero((gt_cls == est.class_id) & (matched < 0))[0]
        if candidates.size == 0:
            continue
        d = np.linalg.norm(gt_t[candidates] - est.translation, axis=1)
        matched[candidates[np.argmin(d)]] = ei
    return matched


def evaluate_scene(estimates, instances, models, camera=None) -> dict:
    """Per-object and aggregate metrics for one scene.

    `instances` are the ground-truth objects (class id, rotation,
    translation), such as a bundle's instances; `models` maps class id ->
    ObjectModel. Unmatched objects contribute +inf errors (so AUC and
    recalls drop).
    """
    matched = match_poses(estimates, [inst.class_id for inst in instances],
                          [inst.translation for inst in instances])
    per_object = []
    for gi, inst in enumerate(instances):
        model = models[int(inst.class_id)]
        R, t = inst.rotation, inst.translation
        entry = {
            "class_id": int(inst.class_id),
            "matched": int(matched[gi]),
            "add": np.inf,
            "add_s": np.inf,
            "mssd": np.inf,
            "mspd": np.inf,
            "diameter": model.diameter,
        }
        if matched[gi] >= 0:
            est = estimates[int(matched[gi])]
            entry["add"] = add(est.rotation, est.translation, R, t, model.cloud)
            entry["add_s"] = add_s(est.rotation, est.translation, R, t, model.cloud)
            entry["mssd"] = mssd(est.rotation, est.translation, R, t, model.mesh.vertices, model.symmetries)
            if camera is not None:
                entry["mspd"] = mspd(est.rotation, est.translation, R, t,
                                     model.mesh.vertices, model.symmetries, camera[0], camera[1])
        per_object.append(entry)
    adds = np.array([p["add"] for p in per_object])
    add_ss = np.array([p["add_s"] for p in per_object])
    mssds = np.array([p["mssd"] for p in per_object])
    diameters = np.array([p["diameter"] for p in per_object])
    with np.errstate(invalid="ignore"):
        rel = np.where(diameters > 0, mssds / diameters, np.inf)
    report = {
        "per_object": per_object,
        "n_objects": len(per_object),
        "n_detections": len(estimates),
        "add_auc": auc(adds),
        "add_s_auc": auc(add_ss),
        "mssd_recall": recall_curve(rel, MSSD_REL_THRESHOLDS).tolist(),
        "mssd_mm_recall": recall_curve(mssds, MSSD_MM_THRESHOLDS).tolist(),
    }
    report["ap"] = float(np.mean(report["mssd_recall"]))
    report["ap25"] = float(report["mssd_recall"][int(np.argmin(np.abs(MSSD_REL_THRESHOLDS - 0.25)))])
    report["ap25mm"] = float(report["mssd_mm_recall"][int(np.argmin(np.abs(MSSD_MM_THRESHOLDS - 0.025)))])
    if camera is not None:
        mspds = np.array([p["mspd"] for p in per_object])
        ratio = camera[0].width / 640.0
        report["mspd_recall"] = recall_curve(mspds, MSPD_PX_THRESHOLDS * ratio).tolist()
    # per-class rows (table-style): mean recalls restricted to each class
    per_class = {}
    for cid in sorted({p["class_id"] for p in per_object}):
        rows = [i for i, p in enumerate(per_object) if p["class_id"] == cid]
        entry = {
            "n_objects": len(rows),
            "mssd": float(np.mean(recall_curve(rel[rows], MSSD_REL_THRESHOLDS))),
            "mssd_mm": float(np.mean(recall_curve(mssds[rows], MSSD_MM_THRESHOLDS))),
        }
        if camera is not None:
            entry["mspd"] = float(np.mean(recall_curve(mspds[rows], MSPD_PX_THRESHOLDS * ratio)))
        per_class[int(cid)] = entry
    report["per_class"] = per_class
    return report


def write_metric_csv(path, report: dict, seed: int) -> None:
    write_csv(path, seed, "object_id,class_id,matched,add_m,add_s_m,mssd_m,mspd_px", (
        f"{i},{e['class_id']},{e['matched']},{e['add']:.9g},{e['add_s']:.9g},{e['mssd']:.9g},{e['mspd']:.9g}"
        for i, e in enumerate(report["per_object"])))


def write_metric_json(path, report: dict, seed: int | None = None) -> None:
    doc = dict(report)
    doc["seed"] = seed
    doc["per_object"] = [
        {k: (None if isinstance(v, float) and not np.isfinite(v) else v) for k, v in entry.items()}
        for entry in report["per_object"]
    ]
    write_json(path, doc)
