"""Network blocks on the autodiff core: linear/layernorm plumbing, windowed
multi-head self-attention with the dual small/medium branch fusion,
submanifold sparse convolution, the three toy task networks, SGD and
checkpoint I/O.

The networks never build a kernel map: the caller hands each one the
`ConvPairs` of its index sets (`grid.neighbor_rows`), built once per scene by
`ConvPairs(indices)` and derived for row subsets by `ConvPairs.subset`.

Two layers are hand-written graph nodes. Submanifold convolution walks its
kernel map in blocks of _CHUNK_ROWS voxels, so its memory does not grow
with 27 times the input. Window attention projects q/k/v once over all rows,
then one node attends inside every window of a jagged partition (never
padded), batching windows of equal population, so the whole stack stays
fully sparse.

Parameters are float64 (the optimizer, checkpoints and gradient checks
work on them); every layer computes in the dtype of its input, casting each
parameter to it on use.
"""

from __future__ import annotations

import math
import struct
from collections import OrderedDict

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .errors import DataError, NumericalError
from .grid import neighbor_rows, partition_indices
from .ioutil import atomic_write_bytes, read_file


class Module:
    """Named-parameter container; submodules are discovered by attribute.
    Every Tensor attribute is a parameter, whether or not it needs a
    gradient (an inference model's do not)."""

    def parameters(self) -> "OrderedDict[str, Tensor]":
        out: OrderedDict[str, Tensor] = OrderedDict()
        self._collect("", out)
        return out

    def _collect(self, prefix: str, out: OrderedDict):
        for key, value in vars(self).items():
            name = f"{prefix}{key}"
            if isinstance(value, Tensor):
                value.name = name
                out[name] = value
            elif isinstance(value, Module):
                value._collect(name + ".", out)
            elif isinstance(value, (list, tuple)):
                for i, item in enumerate(value):
                    if isinstance(item, Module):
                        item._collect(f"{name}.{i}.", out)


def _init_uniform(rng: np.random.Generator, shape, fan_in: int) -> np.ndarray:
    bound = 1.0 / np.sqrt(max(1, fan_in))
    return rng.uniform(-bound, bound, size=shape)


class Linear(Module):
    def __init__(self, in_dim: int, out_dim: int, rng: np.random.Generator,
                 bias: bool = True, zero_init: bool = False):
        if zero_init:
            w = np.zeros((in_dim, out_dim))
        else:
            w = _init_uniform(rng, (in_dim, out_dim), in_dim)
        self.weight = ad.parameter(w)
        self.bias = ad.parameter(np.zeros(out_dim)) if bias else None

    def __call__(self, x: Tensor) -> Tensor:
        out = ad.matmul(x, ad.cast(self.weight, x.dtype))
        if self.bias is not None:
            out = ad.add(out, ad.cast(self.bias, x.dtype))
        return out


class LayerNorm(Module):
    def __init__(self, dim: int, eps: float = 1e-5):
        self.gamma = ad.parameter(np.ones(dim))
        self.beta = ad.parameter(np.zeros(dim))
        self.eps = eps

    def __call__(self, x: Tensor) -> Tensor:
        m = ad.tmean(x, axis=-1, keepdims=True)
        centered = ad.sub(x, m)
        var = ad.tmean(ad.mul(centered, centered), axis=-1, keepdims=True)
        inv = ad.pow_const(ad.add(var, ad.constant(self.eps, x.dtype)), -0.5)
        scaled = ad.mul(ad.mul(centered, inv), ad.cast(self.gamma, x.dtype))
        return ad.add(scaled, ad.cast(self.beta, x.dtype))


# ---------------------------------------------------------------------------
# Windowed multi-head self-attention and the dual-branch block
# ---------------------------------------------------------------------------


class WindowAttention(Module):
    """Multi-head self-attention inside each window of a jagged partition:
    q/k/v projections, per-head scaled dot product, head concat, output
    projection C -> C. The logits are divided by sqrt(head dim).
    """

    def __init__(self, channels: int, heads: int, rng: np.random.Generator):
        if channels % heads != 0:
            raise DataError(f"channels {channels} not divisible by heads {heads}")
        self.channels = channels
        self.heads = heads
        self.head_dim = channels // heads
        self.proj_q = Linear(channels, channels, rng)
        self.proj_k = Linear(channels, channels, rng)
        self.proj_v = Linear(channels, channels, rng)
        self.proj_out = Linear(channels, channels, rng, bias=False)

    def __call__(self, features: Tensor, windows) -> Tensor:
        """Apply per-window attention over the `grid.partition_indices`
        batches `windows`, (G, K_w) row tables of equal-population windows
        (every row in exactly one window); rows keep their order.

        The q/k/v projections run once over all rows. One graph node then
        attends inside every window, one batch at a time in plain numpy,
        never padded; the backward pass applies the softmax-attention
        gradient per batch.
        """
        if not windows:
            return features
        z = _window_attention(self.proj_q(features), self.proj_k(features), self.proj_v(features),
                              windows, self.heads, 1.0 / math.sqrt(self.head_dim))
        return self.proj_out(z)


def _window_attention(q: Tensor, k: Tensor, v: Tensor, groups, heads: int, scale: float) -> Tensor:
    """Softmax attention of projected rows (n, C) inside windows, as one
    graph node. `groups` holds (G, K_w) row tables of equal-population
    windows that together cover every row once; `scale`, a Python float so
    that it takes the rows' dtype, multiplies the logits."""
    n, c = q.data.shape
    d = c // heads

    def split(values, rows):  # (G, K_w) rows -> (G, heads, K_w, d)
        return np.take(values, rows, axis=0).reshape(*rows.shape, heads, d).transpose(0, 2, 1, 3)

    def merge(values, rows, into):  # inverse of split, written into `into`
        into[rows.reshape(-1)] = values.transpose(0, 2, 1, 3).reshape(-1, c)

    saved = []
    z = np.zeros((n, c), dtype=q.dtype)
    for rows in groups:
        qg, kg, vg = split(q.data, rows), split(k.data, rows), split(v.data, rows)
        logits = (qg @ kg.transpose(0, 1, 3, 2)) * scale
        e = np.exp(logits - logits.max(axis=-1, keepdims=True))
        attn = e / e.sum(axis=-1, keepdims=True)
        merge(attn @ vg, rows, z)
        saved.append((rows, qg, kg, vg, attn))

    def backward(g):
        dq, dk, dv = (np.zeros((n, c), dtype=g.dtype) for _ in range(3))
        for rows, qg, kg, vg, attn in saved:
            gz = split(g, rows)
            merge(attn.transpose(0, 1, 3, 2) @ gz, rows, dv)
            ga = gz @ vg.transpose(0, 1, 3, 2)
            gl = attn * (ga - (ga * attn).sum(axis=-1, keepdims=True)) * scale
            merge(gl @ kg, rows, dq)
            merge(gl.transpose(0, 1, 3, 2) @ qg, rows, dk)
        ad._accumulate(q, dq)
        ad._accumulate(k, dk)
        ad._accumulate(v, dv)

    return Tensor(z, parents=(q, k, v), backward=backward)


class DualBranchBlock(Module):
    """Two window-attention branches (small and medium windows) fused by a
    linear 2C -> C projection, residual add and layer norm."""

    def __init__(self, channels: int, heads: int, rng: np.random.Generator):
        self.small = WindowAttention(channels, heads, rng)
        self.medium = WindowAttention(channels, heads, rng)
        self.fuse = Linear(2 * channels, channels, rng)
        self.norm = LayerNorm(channels)

    def __call__(self, features: Tensor, windows_small, windows_medium) -> Tensor:
        z_small = self.small(features, windows_small)
        z_medium = self.medium(features, windows_medium)
        fused = self.fuse(ad.concat([z_small, z_medium], axis=1))
        return self.norm(ad.add(features, fused))


# ---------------------------------------------------------------------------
# Submanifold sparse convolution
# ---------------------------------------------------------------------------


class ConvPairs:
    """Kernel map of a 3x3x3 stencil over a fixed sparse index set.

    `nbr = grid.neighbor_rows(indices)`, `n` where a neighbor is inactive:
    row `n` of a padded feature matrix is all zeros, so one fancy-index
    gather reads every tap of every voxel. Reusable across layers on the same
    index set; `subset` derives the map of a row subset without a search.
    """

    def __init__(self, indices: np.ndarray):
        self.nbr = neighbor_rows(indices)

    def __len__(self) -> int:
        return self.nbr.shape[0]

    def subset(self, rows: np.ndarray) -> "ConvPairs":
        """Kernel map of the index set `indices[rows]` (rows unique, in any
        order), equal to `ConvPairs(indices[rows])`: the neighbors of a
        subset voxel are its neighbors in the full set that are also in the
        subset, renumbered; every other row, and the full set's zero row,
        maps to the subset's zero row."""
        rows = np.asarray(rows, dtype=np.int64).reshape(-1)
        remap = np.full(len(self) + 1, rows.size, dtype=np.int64)
        remap[rows] = np.arange(rows.size)
        derived = ConvPairs.__new__(ConvPairs)
        derived.nbr = np.take(remap, np.take(self.nbr, rows, axis=0))
        return derived


# Rows of the kernel map gathered per block: the (_CHUNK_ROWS, 27 C) column
# block stays small (about 1.7 MB at C = 32) whatever the voxel count.
_CHUNK_ROWS = 256


def _pad(values: np.ndarray) -> np.ndarray:
    """(n, C) rows plus the all-zero row n that inactive neighbors read."""
    return np.concatenate([values, np.zeros((1, values.shape[1]), dtype=values.dtype)], axis=0)


def _gather_cols(padded: np.ndarray, nbr: np.ndarray) -> np.ndarray:
    """Rows of a padded matrix read through kernel-map rows `nbr` (m, 27)
    into (m, 27 C) columns. `np.take` copies the same rows as `padded[nbr]`
    in well under half the time."""
    return np.take(padded, nbr, axis=0).reshape(nbr.shape[0], -1)


class SubmanifoldConv3(Module):
    """3x3x3 sparse convolution evaluated only at active voxels, reading only
    active neighbors; the active set never dilates.

    One graph node per call, walking the kernel map in blocks of _CHUNK_ROWS
    voxels, so the full (n, 27 C) column matrix is never built or kept.
    Forward gathers each block's 27 neighbor rows into `cols`
    (block, 27 C_in) and multiplies them by the (27 C_in, C_out) reshaped
    kernel. Backward gathers the output gradient the same way into `gcols`
    (block, 27 C_out). The submanifold neighbor relation is symmetric
    (`nbr[i, o] == j` exactly when `nbr[j, 26 - o] == i`), so
    `dx[block] = gcols stack_o K[26 - o]^T` and `x[block]^T gcols`
    accumulates the kernel gradient with its taps mirrored: one gather per
    block serves both gradients.
    """

    def __init__(self, in_dim: int, out_dim: int, rng: np.random.Generator):
        self.kernel = ad.parameter(_init_uniform(rng, (27, in_dim, out_dim), 27 * in_dim))
        self.bias = ad.parameter(np.zeros(out_dim))
        self.in_dim = in_dim
        self.out_dim = out_dim

    def __call__(self, x: Tensor, pairs: ConvPairs) -> Tensor:
        kernel, bias, nbr = ad.cast(self.kernel, x.dtype), ad.cast(self.bias, x.dtype), pairs.nbr
        n, c_in, c_out = nbr.shape[0], self.in_dim, self.out_dim
        padded = _pad(x.data)
        weights = kernel.data.reshape(-1, c_out)
        value = np.empty((n, c_out), dtype=x.dtype)
        for s in range(0, n, _CHUNK_ROWS):
            value[s : s + _CHUNK_ROWS] = _gather_cols(padded, nbr[s : s + _CHUNK_ROWS]) @ weights
        value += bias.data

        def backward(g):
            padded = _pad(g)
            mirrored = kernel.data[::-1].transpose(0, 2, 1).reshape(-1, c_in)
            dx = np.empty((n, c_in), dtype=g.dtype)
            dk = np.zeros((c_in, 27 * c_out), dtype=g.dtype)
            for s in range(0, n, _CHUNK_ROWS):
                gcols = _gather_cols(padded, nbr[s : s + _CHUNK_ROWS])
                dx[s : s + _CHUNK_ROWS] = gcols @ mirrored
                dk += x.data[s : s + _CHUNK_ROWS].T @ gcols
                del gcols  # free the block before the next gather
            # column block o of dk is x^T g[nbr[:, o]], the gradient of tap 26 - o
            ad._accumulate(kernel, dk.reshape(c_in, 27, c_out)[:, ::-1].transpose(1, 0, 2))
            ad._accumulate(bias, g.sum(axis=0))
            ad._accumulate(x, dx)

        return Tensor(value, parents=(x, kernel, bias), backward=backward)


# ---------------------------------------------------------------------------
# Pooling for the toy U-Net (mean pool down; copying up is a row gather)
# ---------------------------------------------------------------------------


def mean_pool(x: Tensor, parent_row: np.ndarray, n_parents: int) -> Tensor:
    counts = np.bincount(parent_row, minlength=n_parents).astype(np.float64)
    summed = ad.scatter_add_rows(x, parent_row, n_parents)
    return ad.mul(summed, ad.constant(1.0 / np.maximum(counts, 1.0)[:, None], x.dtype))


# ---------------------------------------------------------------------------
# Toy task networks
# ---------------------------------------------------------------------------


class RoiUNet(Module):
    """Two-level U-Net of residual submanifold convolutions over the coarse
    grid; emits per-voxel foreground scores and the trunk features that get
    lifted downstream. Zero-initialized head, so an untrained net scores
    exactly 0.5 everywhere.

    The caller passes the grid's features, its kernel map `pairs`, and the
    structure of its coarsening by `pool_factor`: the pooled row of each
    grid voxel (`pool_row`) and the pooled grid's kernel map
    (`pool_pairs`)."""

    pool_factor = 2

    def __init__(self, in_dim: int, width: int, rng: np.random.Generator):
        self.in_proj = Linear(in_dim, width, rng)
        self.conv1 = SubmanifoldConv3(width, width, rng)
        self.conv2 = SubmanifoldConv3(width, width, rng)
        self.down_conv = SubmanifoldConv3(width, width, rng)
        self.up_fuse = Linear(2 * width, width, rng)
        self.out_conv = SubmanifoldConv3(width, width, rng)
        self.head = Linear(width, 1, rng, zero_init=True)
        self.width = width

    def __call__(self, features: Tensor, pairs: ConvPairs, pool_row: np.ndarray,
                 pool_pairs: ConvPairs) -> tuple[Tensor, Tensor]:
        x = self.in_proj(features)
        x = ad.relu(self.conv1(x, pairs))
        x = ad.add(x, ad.relu(self.conv2(x, pairs)))
        down = mean_pool(x, pool_row, len(pool_pairs))
        down = ad.relu(self.down_conv(down, pool_pairs))
        up = ad.gather_rows(down, pool_row)
        x = ad.add(x, self.up_fuse(ad.concat([x, up], axis=1)))
        x = ad.add(x, ad.relu(self.out_conv(x, pairs)))
        scores = ad.sigmoid(ad.reshape(self.head(x), (len(pairs),)))
        return scores, x


class ObjectnessNet(Module):
    """Fine-stage feature extractor: three submanifold convolutions, an
    objectness head and a one-hidden-layer classifier. The heatmap features
    enter with the input rows, through in_proj."""

    def __init__(self, in_dim: int, width: int, n_classes: int, rng: np.random.Generator):
        self.in_proj = Linear(in_dim, width, rng)
        self.convs = [SubmanifoldConv3(width, width, rng) for _ in range(3)]
        self.obj_head = Linear(width, 1, rng, zero_init=True)
        self.cls_hidden = Linear(width, width, rng)
        self.cls_out = Linear(width, n_classes + 1, rng, zero_init=True)
        self.width = width

    def __call__(self, pairs: ConvPairs, features: Tensor) -> tuple[Tensor, Tensor, Tensor]:
        n = len(pairs)
        x = self.in_proj(features)
        for conv in self.convs:
            x = ad.add(x, ad.relu(conv(x, pairs)))
        obj = ad.sigmoid(ad.reshape(self.obj_head(x), (n,)))
        hidden = ad.relu(self.cls_hidden(x))
        logits = self.cls_out(hidden)
        return obj, logits, x


# Identity in the 6D rotation encoding: first two rotation matrix columns.
ROT6D_IDENTITY = np.array([1.0, 0.0, 0.0, 0.0, 1.0, 0.0])


class PoseNet(Module):
    """Pose regression head: [submanifold conv -> dual-branch transformer
    block] x 2, then parallel translation-offset and 6D-rotation branches.
    Zero-initialized heads, so an untrained net predicts zero offsets and the
    identity rotation. Both blocks attend within the same small and medium
    windows, `windows` voxels per side."""

    windows = (4, 8)

    def __init__(self, in_dim: int, width: int, heads: int, rng: np.random.Generator):
        self.in_proj = Linear(in_dim, width, rng)
        self.conv1 = SubmanifoldConv3(width, width, rng)
        self.block1 = DualBranchBlock(width, heads, rng)
        self.conv2 = SubmanifoldConv3(width, width, rng)
        self.block2 = DualBranchBlock(width, heads, rng)
        self.t_head = Linear(width, 3, rng, zero_init=True)
        self.r_head = Linear(width, 6, rng, zero_init=True)
        self.width = width

    def __call__(self, indices: np.ndarray, pairs: ConvPairs, features: Tensor) -> tuple[Tensor, Tensor]:
        windows_small, windows_medium = (partition_indices(indices, w) for w in self.windows)
        x = self.in_proj(features)
        x = ad.add(x, ad.relu(self.conv1(x, pairs)))
        x = self.block1(x, windows_small, windows_medium)
        x = ad.add(x, ad.relu(self.conv2(x, pairs)))
        x = self.block2(x, windows_small, windows_medium)
        offsets = self.t_head(x)
        rot6d = ad.add(self.r_head(x), ad.constant(ROT6D_IDENTITY, x.dtype))
        return offsets, rot6d


# ---------------------------------------------------------------------------
# Multi-task loss, optimizer, checkpoints
# ---------------------------------------------------------------------------


def multitask_loss(parts, weights) -> Tensor:
    """Weighted sum of the five task losses (RoI, objectness, class,
    translation, rotation)."""
    if len(parts) != 5 or len(weights) != 5:
        raise DataError("multitask loss expects five parts and five weights")
    total = None
    for part, lam in zip(parts, weights):
        term = ad.mul(ad.constant(part), ad.constant(float(lam)))
        total = term if total is None else ad.add(total, term)
    return total


class SGD:
    """Classical momentum SGD: v <- mu v + g, p <- p - lr v.

    `lr_scales` maps parameter-name prefixes to learning-rate multipliers
    (heads whose losses live on very different scales need it under a shared
    step size). `clip_norm` rescales the global gradient norm when exceeded.
    """

    def __init__(self, params: "OrderedDict[str, Tensor]", lr: float, momentum: float = 0.0,
                 lr_scales: dict | None = None, clip_norm: float | None = None):
        self.params = params
        self.lr = lr
        self.momentum = momentum
        self.lr_scales = dict(lr_scales or {})
        self.clip_norm = clip_norm
        self.velocity = {name: np.zeros_like(p.data) for name, p in params.items()}

    def zero_grad(self):
        for p in self.params.values():
            p.grad = None

    def _scale_for(self, name: str) -> float:
        for prefix, scale in self.lr_scales.items():
            if name.startswith(prefix):
                return scale
        return 1.0

    def step(self):
        """One update; a non-finite gradient raises NumericalError before any
        parameter moves."""
        live = [(name, p) for name, p in self.params.items() if p.grad is not None]
        for name, p in live:
            if not np.all(np.isfinite(p.grad)):
                raise NumericalError(f"non-finite gradient for parameter '{name}'")
        if self.clip_norm is not None:
            sq = 0.0
            for _, p in live:
                sq += float(np.sum(p.grad**2))
            norm = np.sqrt(sq)
            if norm > self.clip_norm:
                factor = self.clip_norm / norm
                for _, p in live:
                    p.grad = p.grad * factor
        for name, p in live:
            v = self.velocity[name]
            v *= self.momentum
            v += p.grad
            p.data = p.data - self.lr * self._scale_for(name) * v


CHECKPOINT_MAGIC = b"SPCKPT01"


def save_checkpoint(path, params: "OrderedDict[str, Tensor]") -> None:
    """Named parameter table: versioned header, then per entry the name,
    shape and float64 little-endian payload. Written atomically."""
    chunks = [CHECKPOINT_MAGIC, struct.pack("<I", len(params))]
    for name, p in params.items():
        encoded = name.encode("utf-8")
        chunks.append(struct.pack("<H", len(encoded)) + encoded)
        chunks.append(struct.pack(f"<B{p.data.ndim}q", p.data.ndim, *p.data.shape))
        chunks.append(np.ascontiguousarray(p.data, dtype="<f8").tobytes())
    atomic_write_bytes(path, b"".join(chunks))


def load_checkpoint(path) -> "OrderedDict[str, np.ndarray]":
    """Read a checkpoint written by `save_checkpoint`; a missing, truncated
    or otherwise malformed file, or a non-finite parameter, raises DataError."""
    return read_file(path, "checkpoint", lambda blob: _parse_checkpoint(path, blob))


def _parse_checkpoint(path, blob: bytes) -> "OrderedDict[str, np.ndarray]":
    if blob[:8] != CHECKPOINT_MAGIC:
        raise DataError(f"{path}: not a checkpoint file")
    pos = 8

    def take(size: int) -> bytes:
        nonlocal pos
        if pos + size > len(blob):
            raise DataError(f"{path}: checkpoint truncated at byte {len(blob)} (needs {pos + size})")
        chunk = blob[pos : pos + size]
        pos += size
        return chunk

    def unpack(fmt: str) -> tuple:
        return struct.unpack(fmt, take(struct.calcsize(fmt)))

    (count,) = unpack("<I")
    out: OrderedDict[str, np.ndarray] = OrderedDict()
    for _ in range(count):
        (name_len,) = unpack("<H")
        name = take(name_len).decode("utf-8")
        (ndim,) = unpack("<B")
        shape = unpack(f"<{ndim}q")
        if any(dim < 0 for dim in shape):
            raise DataError(f"{path}: negative dimension in shape {shape} of '{name}'")
        payload = take(8 * math.prod(shape))
        out[name] = np.frombuffer(payload, dtype="<f8").reshape(shape).copy()
        if not np.isfinite(out[name]).all():
            raise DataError(f"{path}: parameter '{name}' has a non-finite value")
    if pos != len(blob):
        raise DataError(f"{path}: {len(blob) - pos} trailing bytes after the last parameter")
    return out


def assign_parameters(params: "OrderedDict[str, Tensor]", path) -> None:
    """Set `params` from the checkpoint at `path`, which must hold each of
    them at its shape and nothing else."""
    table = load_checkpoint(path)
    for name in table:
        if name not in params:
            raise DataError(f"{path}: checkpoint holds parameter '{name}', which the model does not have")
    for name, p in params.items():
        if name not in table:
            raise DataError(f"{path}: checkpoint missing parameter '{name}'")
        if table[name].shape != p.data.shape:
            raise DataError(f"{path}: checkpoint parameter '{name}' has shape {table[name].shape}, "
                            f"the model needs {p.data.shape}")
        p.data = table[name].astype(np.float64)
