"""The three benchmark workloads, one per user path.

Each workload generates its scene bundles from the workload seed (in a child
process, cached on disk), loads them back with ``load_scene_bundle`` as the
CLI does, and times one operation at a time:

* ``train_toy``       one training call (its wall time / steps is the step
                      time), followed by a forward-only pass on the trained
                      model;
* ``oracle_estimate`` one scene through ``estimate_poses(oracle=True)``;
* ``fuse_tsdf``       one scene through ``build_input_grid(..., "tsdf")`` and
                      ``SparseTsdf.dump``.

Correctness checks run after each operation, outside its timed region.

Every call into the package goes through the module attribute
(``pipeline.train_toy``, ``synthetic.load_scene_bundle``), so a tracer that
replaces those attributes sees the call.
"""

from __future__ import annotations

import hashlib
import os
import statistics
import time

import numpy as np

from sparsepose import metrics, pipeline, synthetic, tsdf
from sparsepose.config import PipelineConfig
from sparsepose.voting import write_pose_json


def sha256_file(path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as f:
        for chunk in iter(lambda: f.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()


def combined_digest(digests) -> str:
    return hashlib.sha256("".join(digests).encode()).hexdigest()


# ---------------------------------------------------------------------------
# Inputs
# ---------------------------------------------------------------------------

# Criterion 6 draws its object counts from default_rng(6). The counts stay
# fixed for every workload seed so that all seeds carry the same amount of
# work; the seed moves the scene seeds, which change classes and poses.
_ORACLE_COUNTS = [5 + int(n) for n in np.random.default_rng(6).integers(0, 11, size=20)]
FUSE_SCENES = 4


def scene_specs(workload: str, seed: int):
    """(name, SceneSpec) pairs of one workload. Seed 0 gives the criterion-7
    scene, the criterion-6 set and fuse scenes 0..3."""
    lib = synthetic.make_primitives()
    specs = []
    if workload == "train_toy":
        intr = synthetic.default_intrinsics(width=200, height=150, focal=190.0)
        lo, hi = (-0.07, -0.07, 0.0), (0.07, 0.07, 0.05)
        cams = synthetic.default_camera_ring(lo, hi, n_views=3, distance=0.38, intr=intr)
        specs.append(("scene", synthetic.sample_scene(lib, lo, hi, n_objects=3, seed=7 + seed, cameras=cams)))
    elif workload == "oracle_estimate":
        intr = synthetic.default_intrinsics(width=240, height=180, focal=230.0)
        for s, n_objects in enumerate(_ORACLE_COUNTS):
            half = 0.11 if n_objects <= 10 else 0.13
            lo, hi = (-half, -half, 0.0), (half, half, 0.06)
            cams = synthetic.default_camera_ring(lo, hi, n_views=3, distance=0.45, intr=intr)
            spec = synthetic.sample_scene(lib, lo, hi, n_objects=n_objects, seed=600 + 20 * seed + s,
                                          cameras=cams)
            specs.append((f"scene_{s:02d}", spec))
    elif workload == "fuse_tsdf":
        for k in range(FUSE_SCENES):
            spec = synthetic.sample_scene(lib, (-0.1, -0.1, 0.0), (0.1, 0.1, 0.06), n_objects=10,
                                          seed=FUSE_SCENES * seed + k)
            specs.append((f"scene_{k}", spec))
    else:
        raise ValueError(f"unknown workload {workload}")
    return lib, specs


def generate(workload: str, seed: int, out_dir: str) -> None:
    lib, specs = scene_specs(workload, seed)
    for name, spec in specs:
        synthetic.export_scene_bundle(spec, lib, os.path.join(out_dir, name))


def bundle_dirs(input_dir: str) -> list[str]:
    return [os.path.join(input_dir, d) for d in sorted(os.listdir(input_dir))
            if os.path.isdir(os.path.join(input_dir, d))]


# ---------------------------------------------------------------------------
# Workloads
# ---------------------------------------------------------------------------


class Workload:
    """Shared bookkeeping: operation samples, pass times and checks."""

    op_kind = "scene"

    def __init__(self, dirs: list[str], work_dir: str):
        self.dirs = dirs
        self.work_dir = work_dir
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []

    def check(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.failures) < 20:
                self.failures.append(what)

    def setup(self) -> None:
        self.bundles = [synthetic.load_scene_bundle(d) for d in self.dirs]

    def warmup(self) -> None:
        raise NotImplementedError

    def run_pass(self, tracer=None) -> tuple[float, list[float]]:
        """One pass over the input; returns (pass seconds, op milliseconds)."""
        raise NotImplementedError

    def _timed(self, tracer, kind, fn, units=1):
        op = tracer.begin_op(kind, units) if tracer is not None else None
        t0 = time.perf_counter()
        result = fn()
        dt = time.perf_counter() - t0
        if op is not None:
            tracer.end_op(op)
        return result, dt

    def summary(self) -> dict:
        """Workload-specific figures printed next to the end-to-end metrics."""
        return {}


class TrainToy(Workload):
    """Criterion-7 training plus the forward pass of `estimate --checkpoint`."""

    op_kind = "train"
    # Long enough for the loss to fall on every scene: over the first ten
    # steps it may still rise above the first step's loss (the repository's
    # own short-run test compares only after 80 steps)
    steps = 24

    def __init__(self, dirs, work_dir):
        super().__init__(dirs, work_dir)
        self.cfg = PipelineConfig(theta=0.004, warmup_fraction=0.15, lr=0.003, momentum=0.9,
                                  train_chamfer_points=24, topk_max=512)
        self.infer_ms: list[float] = []
        self.loss_ratios: list[float] = []
        self.first_trace = None

    def setup(self) -> None:
        super().setup()
        # train_toy builds its own model; set-up time counts one build, the
        # first thing `estimate --checkpoint` does before loading weights
        pipeline.build_model(self.cfg, "cloud")

    def warmup(self) -> None:
        pipeline.train_toy(self.bundles[0], self.cfg, steps=1)

    def run_pass(self, tracer=None):
        bundle = self.bundles[0]
        t0 = time.perf_counter()
        (model, trace), dt = self._timed(
            tracer, "train", lambda: pipeline.train_toy(bundle, self.cfg, steps=self.steps), self.steps)
        totals = np.array([b.total for b in trace])
        self._check_trace(totals)
        fine, _, _ = pipeline.build_input_grid(bundle, self.cfg, "cloud")
        out, di = self._timed(tracer, "infer", lambda: pipeline.staged_forward(model, fine, self.cfg, train=False))
        self.infer_ms.append(di * 1000.0)
        self.check(bool(np.all(np.isfinite(out.offsets.data)) and np.all(np.isfinite(out.rot6d.data))),
                   "non-finite forward-only output")
        return time.perf_counter() - t0, [dt * 1000.0 / self.steps]

    def _check_trace(self, totals: np.ndarray) -> None:
        ok = bool(np.all(np.isfinite(totals))) and totals[-1] < totals[0]
        if self.first_trace is None:
            self.first_trace = totals
        else:
            # BLAS threading may move the last digits, so compare with a tolerance
            ok = ok and np.allclose(totals, self.first_trace, rtol=1e-9, atol=0.0)
        self.loss_ratios.append(float(totals[-1] / totals[0]))
        self.check(ok, f"loss trace {totals[0]:.6g} -> {totals[-1]:.6g}")

    def summary(self):
        return {
            "train_loss_ratio": (self.loss_ratios[-1] if self.loss_ratios else float("nan"), "ratio"),
            "infer_forward_ms_p50": (statistics.median(self.infer_ms) if self.infer_ms else float("nan"), "ms"),
        }


class OracleEstimate(Workload):
    """Criterion-6 oracle estimation: every object must land within 2 mm of
    translation and 2 mm of ADD (ADD-S for symmetric parts)."""

    tolerance = 0.002

    def __init__(self, dirs, work_dir):
        super().__init__(dirs, work_dir)
        self.cfg = PipelineConfig(theta=0.002)
        self.reference = None
        self.objects = 0
        self.recovered = 0
        self.votes = 0
        self.poses = 0
        self.digest = ""

    def warmup(self) -> None:
        pipeline.estimate_poses(self.bundles[0], self.cfg, oracle=True)

    def run_pass(self, tracer=None):
        t0 = time.perf_counter()
        ops, results = [], []
        for bundle in self.bundles:
            (poses, n_votes), dt = self._timed(
                tracer, "scene", lambda b=bundle: pipeline.estimate_poses(b, self.cfg, oracle=True))
            ops.append(dt * 1000.0)
            results.append((poses, n_votes))
        pass_s = time.perf_counter() - t0
        self._check_pass(results)
        return pass_s, ops

    def _check_pass(self, results) -> None:
        flat = [np.concatenate([np.r_[p.rotation.reshape(-1), p.translation] for p in poses] or [np.zeros(0)])
                for poses, _ in results]
        if self.reference is not None:
            for i, arr in enumerate(flat):
                self.check(np.array_equal(arr, self.reference[i]), f"scene {i}: poses differ between passes")
            return
        self.reference = flat
        digests = []
        for i, ((poses, n_votes), bundle) in enumerate(zip(results, self.bundles)):
            ok = True
            for inst in bundle.instances:
                self.objects += 1
                if self._recovered(poses, inst, bundle.models[inst.class_id]):
                    self.recovered += 1
                else:
                    ok = False
            self.check(ok, f"scene {i}: an object misses the criterion-6 tolerances")
            self.votes += n_votes
            self.poses += len(poses)
            path = os.path.join(self.work_dir, f"poses_{i:02d}.json")
            write_pose_json(path, poses, seed=self.cfg.seed)
            digests.append(sha256_file(path))
        self.digest = combined_digest(digests)

    def _recovered(self, poses, inst, model) -> bool:
        candidates = [p for p in poses if p.class_id == inst.class_id]
        if not candidates:
            return False
        best = min(candidates, key=lambda p: np.linalg.norm(p.translation - inst.translation))
        t_err = float(np.linalg.norm(best.translation - inst.translation))
        err_fn = metrics.add_s if len(model.symmetries) > 1 else metrics.add
        err = err_fn(best.rotation, best.translation, inst.rotation, inst.translation, model.cloud)
        return t_err < self.tolerance and err < self.tolerance

    def summary(self):
        return {
            "oracle_recall": (self.recovered / max(self.objects, 1), "share"),
            "oracle_votes": (self.votes, "count"),
            "oracle_poses": (self.poses, "count"),
            "pose_json_sha256": (self.digest, "sha256"),
        }


class FuseTsdf(Workload):
    """`fuse --repr tsdf`: every dump must reload through SparseTsdf.load
    with arrays identical to the float32 payload that was written."""

    def __init__(self, dirs, work_dir):
        super().__init__(dirs, work_dir)
        self.cfg = PipelineConfig()
        self.digests: list[str] | None = None

    def _fuse(self, bundle, path):
        _, _, grid = pipeline.build_input_grid(bundle, self.cfg, "tsdf")
        grid.dump(path)
        return grid

    def warmup(self) -> None:
        self._fuse(self.bundles[0], os.path.join(self.work_dir, "warmup.tsdf"))

    def run_pass(self, tracer=None):
        t0 = time.perf_counter()
        ops, digests = [], []
        for i, bundle in enumerate(self.bundles):
            path = os.path.join(self.work_dir, f"scene_{i}.tsdf")
            grid, dt = self._timed(tracer, "scene", lambda b=bundle, p=path: self._fuse(b, p))
            ops.append(dt * 1000.0)
            digest = sha256_file(path)
            if self.digests is None:
                self._check_reload(grid, path, i)
            else:
                self.check(digest == self.digests[i], f"scene {i}: dump bytes differ between passes")
            digests.append(digest)
        pass_s = time.perf_counter() - t0
        if self.digests is None:
            self.digests = digests
        return pass_s, ops

    def _check_reload(self, grid, path, i) -> None:
        back = tsdf.SparseTsdf.load(path)
        ok = (np.array_equal(back.block_indices, grid.block_indices)
              and np.array_equal(back.sdf, grid.sdf.astype(np.float32).astype(np.float64))
              and np.array_equal(back.weight, grid.weight.astype(np.float32).astype(np.float64)))
        self.check(ok, f"scene {i}: dump does not reload to identical arrays")

    def summary(self):
        return {"tsdf_dump_sha256": (combined_digest(self.digests or []), "sha256")}


WORKLOADS = {"train_toy": TrainToy, "oracle_estimate": OracleEstimate, "fuse_tsdf": FuseTsdf}
