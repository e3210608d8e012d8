#!/usr/bin/env python3
"""The dual-branch sparse transformer block.

Partitions a sparse voxel set into small and medium cubic windows, runs
multi-head self-attention independently per window (jagged, never padded),
fuses the two branches with a linear projection + residual + layer norm,
and verifies the whole thing against a dense per-window oracle and central
finite differences. The generic-op window attention and the finite-difference
check come from the test oracles in tests/oracles.py.
"""

import sys
from pathlib import Path

import numpy as np

from sparsepose import autodiff as ad
from sparsepose import nn
from sparsepose.autodiff import Tensor
from sparsepose.grid import partition_indices

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "tests"))
from oracles import attend_window, finite_difference_check  # noqa: E402

rng = np.random.default_rng(0)
indices = np.unique(rng.integers(0, 16, size=(120, 3)), axis=0)
n = len(indices)
channels, heads = 16, 4
features = rng.normal(size=(n, channels))

# each partition comes as batches: one (windows, population) row table per population
windows_small = partition_indices(indices, 4)
windows_medium = partition_indices(indices, 8)
small_rows = [rows for table in windows_small for rows in table]
sizes_small = [len(rows) for rows in small_rows]
print(f"{n} voxels -> {len(small_rows)} small windows (populations {sizes_small[:6]}...) "
      f"and {sum(len(table) for table in windows_medium)} medium windows")

block = nn.DualBranchBlock(channels, heads, rng)
out = block(Tensor(features), windows_small, windows_medium)
print(f"block output: {out.data.shape}, heads={heads}, head dim={channels//heads}\n")

# -- oracle: dense attention per window ---------------------------------------
def dense_attention(attn, f):
    C = f.shape[1]
    D = C // attn.heads
    q = f @ attn.proj_q.weight.data + attn.proj_q.bias.data
    k = f @ attn.proj_k.weight.data + attn.proj_k.bias.data
    v = f @ attn.proj_v.weight.data + attn.proj_v.bias.data
    z = np.zeros_like(f)
    for h in range(attn.heads):
        sl = slice(h * D, (h + 1) * D)
        logits = q[:, sl] @ k[:, sl].T / np.sqrt(D)
        w = np.exp(logits - logits.max(axis=1, keepdims=True))
        w /= w.sum(axis=1, keepdims=True)
        z[:, sl] = w @ v[:, sl]
    return z @ attn.proj_out.weight.data

worst = 0.0
for rows in small_rows:
    got = attend_window(block.small, Tensor(features[rows])).data
    worst = max(worst, np.abs(got - dense_attention(block.small, features[rows])).max())
print(f"windowed attention vs dense oracle over {len(small_rows)} windows: "
      f"max deviation {worst:.2e}")

# -- singleton window: attention collapses to the value path ------------------
single = rng.normal(size=(1, channels))
got = attend_window(block.small, Tensor(single)).data
expected = (single @ block.small.proj_v.weight.data + block.small.proj_v.bias.data) \
    @ block.small.proj_out.weight.data
print(f"K_w = 1 degenerate window: |out - MLP_v @ W| = {np.abs(got-expected).max():.2e}")

# -- gradient check through the whole block ------------------------------------
small_idx = indices[:12]
ws_s = partition_indices(small_idx, 4)
ws_m = partition_indices(small_idx, 8)
w = rng.normal(size=(len(small_idx), channels))
worst_rel = finite_difference_check(
    lambda f: ad.tsum(ad.mul(block(f, ws_s, ws_m), ad.constant(w))),
    [features[:12]],
    eps=1e-5,
    rtol=1e-4,
)
print(f"finite-difference gradient check through the block: worst rel err {worst_rel:.2e}")
