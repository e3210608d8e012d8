"""Reference implementations the tests and demos check the package against.

No command runs these, so they live beside the tests rather than in
`sparsepose`: the brute-force dense TSDF and the global voxel index of a
sparse one (criterion 1), the log-log slope and CSV of occupancy statistics
(criterion 2), the central finite-difference gradient check (criterion 3),
and single-window attention built from generic autodiff ops with its
softmax and transpose nodes (criteria 3 and 4). Demos load this file by path.
"""

from __future__ import annotations

import math

import numpy as np

from sparsepose import autodiff as ad
from sparsepose.autodiff import Tensor, _accumulate
from sparsepose.camera import CameraExtrinsics
from sparsepose.errors import NumericalError
from sparsepose.grid import occupancy_table, unpack_index
from sparsepose.tsdf import TsdfConfig


def identity_extrinsics() -> CameraExtrinsics:
    return CameraExtrinsics(np.eye(3), np.zeros(3))


# -- criterion 1: sparse TSDF against a dense one ---------------------------


def dense_tsdf_reference(
    depths,
    cams,
    cfg: TsdfConfig,
    origin,
    dims,
    near: float = 0.0,
    far: float = np.inf,
) -> tuple[np.ndarray, np.ndarray]:
    """Brute-force dense TSDF over a full dims[0] x dims[1] x dims[2] grid.

    Same per-voxel update rule as the sparse structure, looped over every
    voxel of the workspace; serves as the equivalence oracle for small grids.
    Returns (sdf, weight) arrays of shape dims.
    """
    origin = np.asarray(origin, dtype=np.float64).reshape(3)
    dims = tuple(int(d) for d in dims)
    gx, gy, gz = np.meshgrid(np.arange(dims[0]), np.arange(dims[1]), np.arange(dims[2]), indexing="ij")
    centers = origin + (np.stack([gx, gy, gz], axis=-1).reshape(-1, 3) + 0.5) * cfg.voxel_size
    sdf = np.zeros(len(centers))
    weight = np.zeros(len(centers))
    for depth, (intr, extr) in zip(depths, cams):
        cam_pts = (centers - extr.translation) @ extr.rotation
        z = cam_pts[:, 2]
        ok = z > 0
        with np.errstate(divide="ignore", invalid="ignore"):
            u = np.round(intr.fx * cam_pts[:, 0] / z + intr.cx).astype(np.int64)
            v = np.round(intr.fy * cam_pts[:, 1] / z + intr.cy).astype(np.int64)
        ok &= (u >= 0) & (u < intr.width) & (v >= 0) & (v < intr.height)
        d = np.zeros_like(z)
        d[ok] = depth.values[v[ok], u[ok]]
        ok &= (d > 0) & (d >= near) & (d <= far)
        s = d - z
        ok &= s >= -cfg.truncation
        phi = np.clip(s / cfg.truncation, -1.0, 1.0)
        w_old = weight[ok]
        sdf[ok] = (w_old * sdf[ok] + phi[ok]) / (w_old + 1.0)
        weight[ok] = np.minimum(w_old + 1.0, cfg.weight_cap)
    return sdf.reshape(dims), weight.reshape(dims)


def global_voxel_indices(tsdf) -> np.ndarray:
    """(n_blocks * L^3, 3) global voxel indices of a SparseTsdf at
    resolution voxel_size."""
    return unpack_index(tsdf._voxel_keys(np.arange(tsdf.sdf.size)))


# -- criterion 2: occupancy scaling ----------------------------------------


def occupancy_csv(rows: list[dict]) -> str:
    """CSV text for occupancy statistics: `occupancy_table` as lines."""
    header, lines = occupancy_table(rows)
    return "\n".join([header, *lines]) + "\n"


def loglog_slope(x, y) -> float:
    """Least-squares slope of log(y) against log(x)."""
    lx = np.log(np.asarray(x, dtype=np.float64))
    ly = np.log(np.asarray(y, dtype=np.float64))
    lx = lx - lx.mean()
    return float(np.dot(lx, ly - ly.mean()) / np.dot(lx, lx))


# -- criteria 3 and 4: gradients and window attention ----------------------


def softmax_lastaxis(a: Tensor) -> Tensor:
    """Numerically stable softmax along the last axis."""
    shifted = a.data - a.data.max(axis=-1, keepdims=True)
    e = np.exp(shifted)
    val = e / e.sum(axis=-1, keepdims=True)

    def backward(g):
        dot = (g * val).sum(axis=-1, keepdims=True)
        _accumulate(a, val * (g - dot))

    return Tensor(val, parents=(a,), backward=backward)


def transpose(a: Tensor, axes) -> Tensor:
    axes = tuple(axes)
    inv = np.argsort(axes)

    def backward(g):
        _accumulate(a, g.transpose(inv))

    return Tensor(a.data.transpose(axes), parents=(a,), backward=backward)


def attend_window(attn, f: Tensor) -> Tensor:
    """Reference attention of the nn.WindowAttention `attn` over one window,
    built from generic autodiff ops: f (K_w, C) -> (K_w, C); K_w is dynamic
    and may be 1."""
    kw, h, d = f.data.shape[0], attn.heads, attn.head_dim
    q = transpose(ad.reshape(attn.proj_q(f), (kw, h, d)), (1, 0, 2))
    k = transpose(ad.reshape(attn.proj_k(f), (kw, h, d)), (1, 0, 2))
    v = transpose(ad.reshape(attn.proj_v(f), (kw, h, d)), (1, 0, 2))
    logits = ad.mul(ad.matmul(q, transpose(k, (0, 2, 1))), ad.constant(1.0 / math.sqrt(d), f.dtype))
    z = ad.matmul(softmax_lastaxis(logits), v)  # (h, kw, d)
    return attn.proj_out(ad.reshape(transpose(z, (1, 0, 2)), (kw, h * d)))


def finite_difference_check(fn, arrays, eps=1e-5, rtol=1e-4) -> float:
    """Central finite-difference check of `fn(*tensors) -> scalar Tensor`.

    Returns the worst relative error over every element of every input;
    raises NumericalError when it exceeds rtol.
    """
    tensors = [Tensor(np.array(a, dtype=np.float64), requires_grad=True) for a in arrays]
    out = fn(*tensors)
    out.backward()
    worst = 0.0
    for t in tensors:
        analytic = np.zeros_like(t.data) if t.grad is None else t.grad
        flat = t.data.reshape(-1)
        gflat = analytic.reshape(-1)
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + eps
            hi = float(fn(*tensors).data)
            flat[i] = orig - eps
            lo = float(fn(*tensors).data)
            flat[i] = orig
            numeric = (hi - lo) / (2.0 * eps)
            denom = max(1.0, abs(numeric), abs(gflat[i]))
            rel = abs(numeric - gflat[i]) / denom
            worst = max(worst, rel)
    if worst > rtol:
        raise NumericalError(f"gradient check failed: rel err {worst:.3e} > {rtol:.1e}")
    return worst
