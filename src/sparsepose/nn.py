"""Network blocks on the autodiff core: linear/layernorm plumbing, windowed
multi-head self-attention with the dual small/medium branch fusion,
submanifold sparse convolution, the three toy task networks, SGD and
checkpoint I/O.

Windows are processed as a jagged collection (never padded) so the whole
stack stays fully sparse.
"""

from __future__ import annotations

import math
import struct
from collections import OrderedDict

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .errors import DataError, NumericalError
from .grid import SparseVoxelGrid, pack_index, partition_indices
from .ioutil import atomic_write_bytes

_STENCIL = np.array(
    [[dx, dy, dz] for dx in (-1, 0, 1) for dy in (-1, 0, 1) for dz in (-1, 0, 1)],
    dtype=np.int64,
)


class Module:
    """Named-parameter container; submodules are discovered by attribute."""

    def parameters(self) -> "OrderedDict[str, Tensor]":
        out: OrderedDict[str, Tensor] = OrderedDict()
        self._collect("", out)
        return out

    def _collect(self, prefix: str, out: OrderedDict):
        for key, value in vars(self).items():
            name = f"{prefix}{key}"
            if isinstance(value, Tensor) and value.requires_grad:
                value.name = name
                out[name] = value
            elif isinstance(value, Module):
                value._collect(name + ".", out)
            elif isinstance(value, (list, tuple)):
                for i, item in enumerate(value):
                    if isinstance(item, Module):
                        item._collect(f"{name}.{i}.", out)
                    elif isinstance(item, Tensor) and item.requires_grad:
                        item.name = f"{name}.{i}"
                        out[f"{name}.{i}"] = item


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
        out = ad.matmul(x, self.weight)
        if self.bias is not None:
            out = ad.add(out, self.bias)
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
        inv = ad.pow_const(ad.add(var, ad.constant(self.eps)), -0.5)
        return ad.add(ad.mul(ad.mul(centered, inv), self.gamma), self.beta)


# ---------------------------------------------------------------------------
# Windowed multi-head self-attention and the dual-branch block
# ---------------------------------------------------------------------------


class WindowAttention(Module):
    """Self-attention inside one window: q/k/v projections, per-head scaled
    dot product, head concat, output projection C -> C.

    `scaled` divides the logits by sqrt(head dim); switching it off restores
    the plain dot product.
    """

    def __init__(self, channels: int, heads: int, rng: np.random.Generator, scaled: bool = True):
        if channels % heads != 0:
            raise DataError(f"channels {channels} not divisible by heads {heads}")
        self.channels = channels
        self.heads = heads
        self.head_dim = channels // heads
        self.scaled = scaled
        self.proj_q = Linear(channels, channels, rng)
        self.proj_k = Linear(channels, channels, rng)
        self.proj_v = Linear(channels, channels, rng)
        self.proj_out = Linear(channels, channels, rng, bias=False)

    def attend_batch(self, f: Tensor, groups: int, kw: int) -> Tensor:
        """Attention over `groups` windows of identical population kw,
        stacked as (groups * kw, C) rows."""
        h, d = self.heads, self.head_dim
        q = ad.transpose(ad.reshape(self.proj_q(f), (groups, kw, h, d)), (0, 2, 1, 3))
        k = ad.transpose(ad.reshape(self.proj_k(f), (groups, kw, h, d)), (0, 2, 1, 3))
        v = ad.transpose(ad.reshape(self.proj_v(f), (groups, kw, h, d)), (0, 2, 1, 3))
        logits = ad.matmul(q, ad.transpose(k, (0, 1, 3, 2)))
        if self.scaled:
            logits = ad.mul(logits, ad.constant(1.0 / np.sqrt(d)))
        attn = ad.softmax_lastaxis(logits)
        z = ad.matmul(attn, v)  # (groups, h, kw, d)
        z = ad.reshape(ad.transpose(z, (0, 2, 1, 3)), (groups * kw, h * d))
        return self.proj_out(z)

    def attend_window(self, f: Tensor) -> Tensor:
        """f: (K_w, C) -> (K_w, C); K_w is dynamic and may be 1."""
        return self.attend_batch(f, 1, f.data.shape[0])

    def __call__(self, features: Tensor, windows) -> Tensor:
        """Apply per-window attention over a jagged window partition and
        restore the original row order.

        Windows are never padded; equal-population windows are batched into
        one attention call so small windows stay cheap.
        """
        if not windows:
            return features
        by_size: dict[int, list] = {}
        for _, rows in windows:
            by_size.setdefault(len(rows), []).append(rows)
        outs = []
        perm = []
        for kw in sorted(by_size):
            group = by_size[kw]
            rows_cat = np.concatenate(group)
            perm.append(rows_cat)
            f = ad.gather_rows(features, rows_cat)
            outs.append(self.attend_batch(f, len(group), kw))
        perm = np.concatenate(perm)
        inverse = np.empty_like(perm)
        inverse[perm] = np.arange(perm.size)
        return ad.gather_rows(ad.concat(outs, axis=0), inverse)


class DualBranchBlock(Module):
    """Two window-attention branches (small and medium windows) fused by a
    linear 2C -> C projection, residual add and layer norm."""

    def __init__(self, channels: int, heads: int, rng: np.random.Generator, scaled: bool = True):
        self.small = WindowAttention(channels, heads, rng, scaled=scaled)
        self.medium = WindowAttention(channels, heads, rng, scaled=scaled)
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

    `nbr[i, o]` is the row of the active voxel at `indices[i] + _STENCIL[o]`,
    or `n` when that neighbor is inactive; row `n` of a padded feature matrix
    is all zeros, so one fancy-index gather reads every tap of every voxel.
    Offset `o` and offset `26 - o` are mirror images, so `nbr[i, o] == j`
    exactly when `nbr[j, 26 - o] == i`. Reusable across layers on the same
    index set.
    """

    def __init__(self, indices: np.ndarray):
        idx = np.asarray(indices, dtype=np.int64).reshape(-1, 3)
        n = idx.shape[0]
        keys = pack_index(idx)
        order = np.argsort(keys)
        keys_sorted = keys[order]
        wanted = pack_index((idx[:, None, :] + _STENCIL[None, :, :]).reshape(-1, 3))
        pos = np.minimum(np.searchsorted(keys_sorted, wanted), max(0, n - 1))
        self.nbr = np.where(keys_sorted[pos] == wanted, order[pos], n).reshape(n, 27)


def _pad_gather(values: np.ndarray, nbr: np.ndarray) -> np.ndarray:
    """(n, C) rows read through a kernel map into (n, 27 * C) columns; an
    inactive neighbor (index n) reads a zero row."""
    padded = np.concatenate([values, np.zeros((1, values.shape[1]))], axis=0)
    return padded[nbr].reshape(nbr.shape[0], nbr.shape[1] * values.shape[1])


class SubmanifoldConv3(Module):
    """3x3x3 sparse convolution evaluated only at active voxels, reading only
    active neighbors; the active set never dilates.

    One graph node per call. Forward gathers the 27 neighbor rows of every
    voxel through the kernel map into `cols` (n, 27 C_in) and applies the
    kernel as a single GEMM with the (27 C_in, C_out) reshaped weights.
    Backward: `dK = cols^T g`; `dx` is the same gather-GEMM applied to the
    output gradient with the mirrored stencil, `stack_o K[26 - o]^T`, which
    is exact because the submanifold neighbor relation is symmetric.
    """

    def __init__(self, in_dim: int, out_dim: int, rng: np.random.Generator):
        self.kernel = ad.parameter(_init_uniform(rng, (27, in_dim, out_dim), 27 * in_dim))
        self.bias = ad.parameter(np.zeros(out_dim))
        self.in_dim = in_dim
        self.out_dim = out_dim

    def __call__(self, x: Tensor, pairs: ConvPairs) -> Tensor:
        kernel, bias, nbr = self.kernel, self.bias, pairs.nbr
        cols = _pad_gather(x.data, nbr)
        out = Tensor(cols @ kernel.data.reshape(-1, self.out_dim) + bias.data,
                     parents=(x, kernel, bias))

        def backward(g):
            if kernel.requires_grad:
                ad._accumulate(kernel, (cols.T @ g).reshape(kernel.data.shape))
            ad._accumulate(bias, g.sum(axis=0))
            if x.requires_grad:
                mirrored = kernel.data[::-1].transpose(0, 2, 1).reshape(-1, self.in_dim)
                ad._accumulate(x, _pad_gather(g, nbr) @ mirrored)

        out._backward = backward if out.requires_grad else None
        return out


def identity_kernel(dim: int) -> np.ndarray:
    """Kernel whose center tap is the identity (27, dim, dim)."""
    k = np.zeros((27, dim, dim))
    k[13] = np.eye(dim)
    return k


# ---------------------------------------------------------------------------
# Pooling helpers for the toy U-Net (mean pool down, copy up)
# ---------------------------------------------------------------------------


def pool_structure(indices: np.ndarray, factor: int = 2):
    """Parent indices (unique, lex-sorted) and the fine-row -> parent-row map
    for an integer coarsening of a sparse index set."""
    idx = np.asarray(indices, dtype=np.int64).reshape(-1, 3)
    parent = np.floor_divide(idx, factor)
    keys = pack_index(parent)
    uniq, inverse = np.unique(keys, return_inverse=True)
    from .grid import unpack_index

    return unpack_index(uniq), inverse


def mean_pool(x: Tensor, parent_row: np.ndarray, n_parents: int) -> Tensor:
    counts = np.bincount(parent_row, minlength=n_parents).astype(np.float64)
    summed = ad.scatter_add_rows(x, parent_row, n_parents)
    return ad.mul(summed, ad.constant(1.0 / np.maximum(counts, 1.0)[:, None]))


def unpool(x: Tensor, parent_row: np.ndarray) -> Tensor:
    return ad.gather_rows(x, parent_row)


# ---------------------------------------------------------------------------
# Toy task networks
# ---------------------------------------------------------------------------


class RoiUNet(Module):
    """Two-level U-Net of residual submanifold convolutions over the coarse
    grid; emits per-voxel foreground scores and the trunk features that get
    lifted downstream. Zero-initialized head, so an untrained net scores
    exactly 0.5 everywhere."""

    def __init__(self, in_dim: int, width: int, rng: np.random.Generator):
        self.in_proj = Linear(in_dim, width, rng)
        self.conv1 = SubmanifoldConv3(width, width, rng)
        self.conv2 = SubmanifoldConv3(width, width, rng)
        self.down_conv = SubmanifoldConv3(width, width, rng)
        self.up_fuse = Linear(2 * width, width, rng)
        self.out_conv = SubmanifoldConv3(width, width, rng)
        self.head = Linear(width, 1, rng, zero_init=True)
        self.width = width

    def __call__(self, grid: SparseVoxelGrid) -> tuple[Tensor, Tensor]:
        pairs = ConvPairs(grid.indices)
        x = self.in_proj(Tensor(grid.features))
        x = ad.relu(self.conv1(x, pairs))
        x = ad.add(x, ad.relu(self.conv2(x, pairs)))
        parent_idx, parent_row = pool_structure(grid.indices, 2)
        down = mean_pool(x, parent_row, len(parent_idx))
        down_pairs = ConvPairs(parent_idx)
        down = ad.relu(self.down_conv(down, down_pairs))
        up = unpool(down, parent_row)
        x = ad.add(x, self.up_fuse(ad.concat([x, up], axis=1)))
        x = ad.add(x, ad.relu(self.out_conv(x, pairs)))
        scores = ad.sigmoid(ad.reshape(self.head(x), (len(grid),)))
        return scores, x


class ObjectnessNet(Module):
    """Fine-stage feature extractor: three submanifold convolutions, an
    objectness head and a classifier conditioned on the heatmap features via
    an additive projected bias."""

    def __init__(self, in_dim: int, width: int, n_classes: int, rng: np.random.Generator):
        self.in_proj = Linear(in_dim, width, rng)
        self.convs = [SubmanifoldConv3(width, width, rng) for _ in range(3)]
        self.obj_head = Linear(width, 1, rng, zero_init=True)
        self.cls_hidden = Linear(width, width, rng)
        self.cond_proj = Linear(width, width, rng, bias=False)
        self.cls_out = Linear(width, n_classes + 1, rng, zero_init=True)
        self.width = width

    def __call__(self, indices: np.ndarray, features: Tensor) -> tuple[Tensor, Tensor, Tensor]:
        n = len(indices)
        pairs = ConvPairs(indices)
        x = self.in_proj(features)
        for conv in self.convs:
            x = ad.add(x, ad.relu(conv(x, pairs)))
        obj = ad.sigmoid(ad.reshape(self.obj_head(x), (n,)))
        hidden = ad.relu(ad.add(self.cls_hidden(x), self.cond_proj(x)))
        logits = self.cls_out(hidden)
        return obj, logits, x


# Identity in the 6D rotation encoding: first two rotation matrix columns.
ROT6D_IDENTITY = np.array([1.0, 0.0, 0.0, 0.0, 1.0, 0.0])


class PoseNet(Module):
    """Pose regression head: [submanifold conv -> dual-branch transformer
    block] x 2, then parallel translation-offset and 6D-rotation branches.
    Zero-initialized heads, so an untrained net predicts zero offsets and the
    identity rotation."""

    def __init__(self, in_dim: int, width: int, heads: int, rng: np.random.Generator, scaled: bool = True):
        self.in_proj = Linear(in_dim, width, rng)
        self.conv1 = SubmanifoldConv3(width, width, rng)
        self.block1 = DualBranchBlock(width, heads, rng, scaled=scaled)
        self.conv2 = SubmanifoldConv3(width, width, rng)
        self.block2 = DualBranchBlock(width, heads, rng, scaled=scaled)
        self.t_head = Linear(width, 3, rng, zero_init=True)
        self.r_head = Linear(width, 6, rng, zero_init=True)
        self.width = width

    def __call__(self, indices: np.ndarray, features: Tensor, w_small: int, w_medium: int) -> tuple[Tensor, Tensor]:
        pairs = ConvPairs(indices)
        windows_small = partition_indices(indices, w_small)
        windows_medium = partition_indices(indices, w_medium)
        x = self.in_proj(features)
        x = ad.add(x, ad.relu(self.conv1(x, pairs)))
        x = self.block1(x, windows_small, windows_medium)
        x = ad.add(x, ad.relu(self.conv2(x, pairs)))
        x = self.block2(x, windows_small, windows_medium)
        offsets = self.t_head(x)
        rot6d = ad.add(self.r_head(x), ad.constant(ROT6D_IDENTITY))
        return offsets, rot6d


# ---------------------------------------------------------------------------
# Multi-task loss, optimizer, checkpoints
# ---------------------------------------------------------------------------

DEFAULT_LOSS_WEIGHTS = (1.0, 3.0, 2.0, 3.0, 1.0)


def multitask_loss(parts, weights=DEFAULT_LOSS_WEIGHTS) -> Tensor:
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
        if self.clip_norm is not None:
            sq = 0.0
            for name, p in self.params.items():
                if p.grad is None:
                    continue
                if not np.all(np.isfinite(p.grad)):
                    raise NumericalError(f"non-finite gradient for parameter '{name}'")
                sq += float(np.sum(p.grad**2))
            norm = np.sqrt(sq)
            if norm > self.clip_norm:
                factor = self.clip_norm / norm
                for p in self.params.values():
                    if p.grad is not None:
                        p.grad = p.grad * factor
        for name, p in self.params.items():
            if p.grad is None:
                continue
            if not np.all(np.isfinite(p.grad)):
                raise NumericalError(f"non-finite gradient for parameter '{name}'")
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
    or otherwise malformed file raises DataError."""
    try:
        with open(path, "rb") as f:
            blob = f.read()
    except OSError as exc:
        raise DataError(f"cannot read checkpoint {path}: {exc}") from exc
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
        try:
            name = take(name_len).decode("utf-8")
        except UnicodeDecodeError as exc:
            raise DataError(f"{path}: corrupt parameter name at byte {pos - name_len}") from exc
        (ndim,) = unpack("<B")
        shape = unpack(f"<{ndim}q")
        if any(dim < 0 for dim in shape):
            raise DataError(f"{path}: negative dimension in shape {shape} of '{name}'")
        payload = take(8 * math.prod(shape))
        out[name] = np.frombuffer(payload, dtype="<f8").reshape(shape).copy()
    if pos != len(blob):
        raise DataError(f"{path}: {len(blob) - pos} trailing bytes after the last parameter")
    return out


def assign_parameters(params: "OrderedDict[str, Tensor]", table: "OrderedDict[str, np.ndarray]") -> None:
    for name, p in params.items():
        if name not in table:
            raise DataError(f"checkpoint missing parameter '{name}'")
        if table[name].shape != p.data.shape:
            raise DataError(f"checkpoint shape mismatch for '{name}'")
        p.data = table[name].astype(np.float64)
