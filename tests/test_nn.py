import re

import numpy as np
import pytest

from sparsepose import autodiff as ad
from sparsepose import nn
from sparsepose.autodiff import Tensor
from sparsepose.errors import DataError, NumericalError
from sparsepose.grid import SparseVoxelGrid, coarsen, partition_indices
from sparsepose.pipeline import LOSS_WEIGHTS
from conftest import dict_neighbor_rows
from oracles import attend_window, finite_difference_check


def naive_window_attention(f, Wq, bq, Wk, bk, Wv, bv, Wo, heads, scaled):
    """Dense per-window attention oracle with explicit loops over heads."""
    kw, C = f.shape
    D = C // heads
    q = f @ Wq + bq
    k = f @ Wk + bk
    v = f @ Wv + bv
    z = np.zeros((kw, C))
    for h in range(heads):
        qh = q[:, h * D : (h + 1) * D]
        kh = k[:, h * D : (h + 1) * D]
        vh = v[:, h * D : (h + 1) * D]
        logits = np.zeros((kw, kw))
        for i in range(kw):
            for j in range(kw):
                logits[i, j] = np.dot(qh[i], kh[j])
        if scaled:
            logits /= np.sqrt(D)
        attn = np.exp(logits - logits.max(axis=1, keepdims=True))
        attn /= attn.sum(axis=1, keepdims=True)
        z[:, h * D : (h + 1) * D] = attn @ vh
    return z @ Wo


def attention_params(attn: nn.WindowAttention):
    return (
        attn.proj_q.weight.data,
        attn.proj_q.bias.data,
        attn.proj_k.weight.data,
        attn.proj_k.bias.data,
        attn.proj_v.weight.data,
        attn.proj_v.bias.data,
        attn.proj_out.weight.data,
    )


class TestWindowAttention:
    def test_single_voxel_window(self):
        # K_w = 1: softmax of a single logit is 1, output = MLP_v(f) @ W
        rng = np.random.default_rng(0)
        attn = nn.WindowAttention(8, 2, rng)
        f = rng.normal(size=(1, 8))
        out = attend_window(attn, Tensor(f))
        Wv, bv = attn.proj_v.weight.data, attn.proj_v.bias.data
        expected = (f @ Wv + bv) @ attn.proj_out.weight.data
        assert np.allclose(out.data, expected, atol=1e-12)

    def test_identical_rows_uniform_attention(self):
        rng = np.random.default_rng(1)
        attn = nn.WindowAttention(8, 2, rng)
        f = np.tile(rng.normal(size=(1, 8)), (2, 1))
        out = attend_window(attn, Tensor(f))
        assert np.allclose(out.data[0], out.data[1], atol=1e-12)

    @pytest.mark.parametrize("heads", [1, 2, 4])
    def test_matches_dense_oracle(self, heads):
        rng = np.random.default_rng(2 + heads)
        attn = nn.WindowAttention(8, heads, rng)
        for kw in (1, 2, 7, 33):
            f = rng.normal(size=(kw, 8))
            out = attend_window(attn, Tensor(f))
            expected = naive_window_attention(f, *attention_params(attn), heads, True)
            assert np.max(np.abs(out.data - expected)) < 1e-10

    def test_row_permutation_equivariance(self):
        rng = np.random.default_rng(7)
        attn = nn.WindowAttention(8, 2, rng)
        f = rng.normal(size=(6, 8))
        perm = rng.permutation(6)
        out = attend_window(attn, Tensor(f)).data
        out_p = attend_window(attn, Tensor(f[perm])).data
        assert np.allclose(out_p, out[perm], atol=1e-12)

    def test_channels_not_divisible_rejected(self):
        with pytest.raises(DataError):
            nn.WindowAttention(10, 4, np.random.default_rng(0))

    def test_gradients(self):
        rng = np.random.default_rng(8)
        attn = nn.WindowAttention(4, 2, rng)
        w = rng.normal(size=(3, 4))

        def fn(f, wq, wv):
            # swap the projection weights for the checked tensors
            saved_q, saved_v = attn.proj_q.weight, attn.proj_v.weight
            attn.proj_q.weight = wq
            attn.proj_v.weight = wv
            out = ad.tsum(ad.mul(attend_window(attn, f), ad.constant(w)))
            attn.proj_q.weight, attn.proj_v.weight = saved_q, saved_v
            return out

        finite_difference_check(
            fn,
            [rng.normal(size=(3, 4)), rng.normal(size=(4, 4)), rng.normal(size=(4, 4))],
        )

    def test_windowed_apply_restores_row_order(self):
        rng = np.random.default_rng(9)
        attn = nn.WindowAttention(8, 2, rng)
        indices = np.array([[0, 0, 0], [9, 9, 9], [1, 0, 0], [8, 9, 9]])
        windows = partition_indices(indices, 4)
        f = rng.normal(size=(4, 8))
        out = attn(Tensor(f), windows).data
        # rows 0 and 2 share a window, rows 1 and 3 the other
        a = attend_window(attn, Tensor(f[[0, 2]])).data
        b = attend_window(attn, Tensor(f[[1, 3]])).data
        assert np.allclose(out[[0, 2]], a, atol=1e-12)
        assert np.allclose(out[[1, 3]], b, atol=1e-12)


class TestWindowedApply:
    """The one-node window attention of `WindowAttention.__call__` against
    the generic-op reference `attend_window`."""

    # cubic windows of side 4 holding 1, 2, 2 and 5 voxels
    INDICES = np.array([[0, 0, 0], [4, 0, 0], [5, 0, 0], [0, 4, 0], [0, 5, 1],
                        [8, 0, 0], [9, 0, 0], [10, 0, 0], [11, 0, 0], [8, 1, 0]])

    def windows(self, rng):
        perm = rng.permutation(len(self.INDICES))
        windows = partition_indices(self.INDICES[perm], 4)
        assert [table.shape for table in windows] == [(1, 1), (2, 2), (1, 5)]
        return windows

    def test_matches_per_window_reference(self):
        rng = np.random.default_rng(45)
        attn = nn.WindowAttention(8, 2, rng)
        windows = self.windows(rng)
        f = rng.normal(size=(len(self.INDICES), 8))
        out = attn(Tensor(f), windows).data
        for table in windows:
            for rows in table:
                expected = attend_window(attn, Tensor(f[rows])).data
                assert np.max(np.abs(out[rows] - expected)) < 1e-12

    def test_gradients_through_attention_node(self):
        rng = np.random.default_rng(46)
        attn = nn.WindowAttention(4, 2, rng)
        windows = self.windows(rng)
        n = len(self.INDICES)
        w = rng.normal(size=(n, 4))
        lins = (attn.proj_q, attn.proj_k, attn.proj_v, attn.proj_out)

        def fn(f, *weights):
            saved = [lin.weight for lin in lins]
            for lin, weight in zip(lins, weights):
                lin.weight = weight
            out = ad.tsum(ad.mul(attn(f, windows), ad.constant(w)))
            for lin, weight in zip(lins, saved):
                lin.weight = weight
            return out

        finite_difference_check(
            fn, [rng.normal(size=(n, 4))] + [lin.weight.data.copy() for lin in lins])


class TestDualBranchBlock:
    def test_zero_weights_reduce_to_layernorm(self):
        rng = np.random.default_rng(10)
        block = nn.DualBranchBlock(8, 2, rng)
        for attn in (block.small, block.medium):
            for lin in (attn.proj_q, attn.proj_k, attn.proj_v, attn.proj_out):
                lin.weight.data = np.zeros_like(lin.weight.data)
        block.fuse.weight.data = np.zeros_like(block.fuse.weight.data)
        indices = np.arange(15).reshape(5, 3)
        f = rng.normal(size=(5, 8))
        out = block(Tensor(f), partition_indices(indices, 4), partition_indices(indices, 8))
        expected = block.norm(Tensor(f)).data
        assert np.allclose(out.data, expected, atol=1e-12)

    def test_single_voxel_branches_degenerate_identically(self):
        rng = np.random.default_rng(11)
        block = nn.DualBranchBlock(8, 2, rng)
        indices = np.array([[3, 3, 3]])
        f = rng.normal(size=(1, 8))
        zs = block.small(Tensor(f), partition_indices(indices, 4)).data
        zm = block.medium(Tensor(f), partition_indices(indices, 8)).data
        # same formula on the same single-element window (different weights)
        Wv, bv = block.small.proj_v.weight.data, block.small.proj_v.bias.data
        assert np.allclose(zs, (f @ Wv + bv) @ block.small.proj_out.weight.data, atol=1e-12)
        Wv, bv = block.medium.proj_v.weight.data, block.medium.proj_v.bias.data
        assert np.allclose(zm, (f @ Wv + bv) @ block.medium.proj_out.weight.data, atol=1e-12)

    def test_matches_composed_oracle(self):
        rng = np.random.default_rng(12)
        block = nn.DualBranchBlock(8, 2, rng)
        indices = np.unique(rng.integers(0, 12, size=(20, 3)), axis=0)
        n = len(indices)
        f = rng.normal(size=(n, 8))
        out = block(Tensor(f), partition_indices(indices, 4), partition_indices(indices, 8)).data

        def branch(attn, window):
            z = np.zeros((n, 8))
            for table in partition_indices(indices, window):
                for rows in table:
                    z[rows] = naive_window_attention(f[rows], *attention_params(attn), 2, True)
            return z

        cat = np.hstack([branch(block.small, 4), branch(block.medium, 8)])
        fused = cat @ block.fuse.weight.data + block.fuse.bias.data
        x = f + fused
        mu = x.mean(axis=1, keepdims=True)
        var = ((x - mu) ** 2).mean(axis=1, keepdims=True)
        expected = (x - mu) / np.sqrt(var + block.norm.eps) * block.norm.gamma.data + block.norm.beta.data
        assert np.max(np.abs(out - expected)) < 1e-10

    def test_gradients_through_block(self):
        rng = np.random.default_rng(13)
        block = nn.DualBranchBlock(4, 2, rng)
        indices = np.unique(rng.integers(0, 10, size=(6, 3)), axis=0)
        n = len(indices)
        w = rng.normal(size=(n, 4))
        ws = partition_indices(indices, 4)
        wm = partition_indices(indices, 8)
        finite_difference_check(
            lambda f: ad.tsum(ad.mul(block(f, ws, wm), ad.constant(w))),
            [rng.normal(size=(n, 4))],
        )


def dense_conv3_oracle(indices, feats, kernel, bias):
    """Dense 3D convolution restricted to active voxels (the submanifold
    contract): brute-force loops over the 3^3 stencil."""
    idx_map = {tuple(v): i for i, v in enumerate(indices)}
    n, cin = feats.shape
    cout = kernel.shape[-1]
    out = np.tile(bias, (n, 1))
    offsets = [(dx, dy, dz) for dx in (-1, 0, 1) for dy in (-1, 0, 1) for dz in (-1, 0, 1)]
    for i, v in enumerate(indices):
        for o, off in enumerate(offsets):
            nb = (v[0] + off[0], v[1] + off[1], v[2] + off[2])
            j = idx_map.get(nb)
            if j is not None:
                out[i] += feats[j] @ kernel[o]
    return out


class TestSubmanifoldConv:
    def test_identity_kernel_preserves_features(self):
        rng = np.random.default_rng(14)
        conv = nn.SubmanifoldConv3(6, 6, rng)
        conv.kernel.data = np.zeros((27, 6, 6))
        conv.kernel.data[13] = np.eye(6)  # center tap only
        conv.bias.data = np.zeros(6)
        indices = np.unique(rng.integers(0, 8, size=(30, 3)), axis=0)
        f = rng.normal(size=(len(indices), 6))
        out = conv(Tensor(f), nn.ConvPairs(indices))
        assert np.allclose(out.data, f, atol=1e-12)

    def test_isolated_voxel_center_tap_only(self):
        rng = np.random.default_rng(15)
        conv = nn.SubmanifoldConv3(4, 3, rng)
        indices = np.array([[0, 0, 0]])
        f = rng.normal(size=(1, 4))
        out = conv(Tensor(f), nn.ConvPairs(indices))
        expected = f @ conv.kernel.data[13] + conv.bias.data
        assert np.allclose(out.data, expected, atol=1e-12)

    def test_matches_dense_oracle(self):
        rng = np.random.default_rng(16)
        conv = nn.SubmanifoldConv3(5, 4, rng)
        indices = np.unique(rng.integers(0, 10, size=(120, 3)), axis=0)
        f = rng.normal(size=(len(indices), 5))
        out = conv(Tensor(f), nn.ConvPairs(indices))
        expected = dense_conv3_oracle(indices, f, conv.kernel.data, conv.bias.data)
        assert np.max(np.abs(out.data - expected)) < 1e-10

    def test_active_set_never_grows(self):
        rng = np.random.default_rng(17)
        conv = nn.SubmanifoldConv3(3, 3, rng)
        indices = np.unique(rng.integers(0, 6, size=(20, 3)), axis=0)
        out = conv(Tensor(rng.normal(size=(len(indices), 3))), nn.ConvPairs(indices))
        assert out.data.shape == (len(indices), 3)

    def test_gradients(self):
        rng = np.random.default_rng(18)
        conv = nn.SubmanifoldConv3(3, 2, rng)
        indices = np.unique(rng.integers(0, 4, size=(8, 3)), axis=0)
        pairs = nn.ConvPairs(indices)
        w = rng.normal(size=(len(indices), 2))

        def fn(f, kernel):
            saved = conv.kernel
            conv.kernel = kernel
            out = ad.tsum(ad.mul(conv(f, pairs), ad.constant(w)))
            conv.kernel = saved
            return out

        finite_difference_check(fn, [rng.normal(size=(len(indices), 3)), conv.kernel.data.copy()])

    def test_full_block_all_taps_match_dense_oracle(self):
        # a solid 3x3x3 block: the center voxel reads all 27 taps
        rng = np.random.default_rng(40)
        conv = nn.SubmanifoldConv3(4, 6, rng)
        conv.bias.data = rng.normal(size=6)
        indices = np.stack(np.meshgrid(*[np.arange(3)] * 3, indexing="ij"), axis=-1).reshape(-1, 3)
        indices = indices[rng.permutation(len(indices))]
        pairs = nn.ConvPairs(indices)
        center = int(np.nonzero((indices == 1).all(axis=1))[0][0])
        assert np.all(pairs.nbr[center] < len(indices))
        f = rng.normal(size=(len(indices), 4))
        out = conv(Tensor(f), pairs)
        expected = dense_conv3_oracle(indices, f, conv.kernel.data, conv.bias.data)
        assert np.max(np.abs(out.data - expected)) < 1e-10

    def test_gradients_unequal_channels(self):
        rng = np.random.default_rng(41)
        conv = nn.SubmanifoldConv3(2, 5, rng)
        indices = np.unique(rng.integers(0, 3, size=(12, 3)), axis=0)
        pairs = nn.ConvPairs(indices)
        w = rng.normal(size=(len(indices), 5))

        def fn(f, kernel, bias):
            saved = conv.kernel, conv.bias
            conv.kernel, conv.bias = kernel, bias
            out = ad.tsum(ad.mul(conv(f, pairs), ad.constant(w)))
            conv.kernel, conv.bias = saved
            return out

        finite_difference_check(
            fn, [rng.normal(size=(len(indices), 2)), conv.kernel.data.copy(), rng.normal(size=5)]
        )

    @pytest.mark.parametrize("chunk", [1, 7])
    def test_blocked_walk_matches_dense_oracle(self, monkeypatch, chunk):
        # blocks of 1 and 7 kernel-map rows; 7 does not divide the row count
        monkeypatch.setattr(nn, "_CHUNK_ROWS", chunk)
        rng = np.random.default_rng(47)
        conv = nn.SubmanifoldConv3(3, 4, rng)
        conv.bias.data = rng.normal(size=4)
        indices = np.unique(rng.integers(0, 5, size=(60, 3)), axis=0)
        assert len(indices) % 7 != 0
        f = rng.normal(size=(len(indices), 3))
        out = conv(Tensor(f), nn.ConvPairs(indices))
        expected = dense_conv3_oracle(indices, f, conv.kernel.data, conv.bias.data)
        assert np.max(np.abs(out.data - expected)) < 1e-10

    @pytest.mark.parametrize("chunk", [1, 7])
    def test_blocked_walk_gradients(self, monkeypatch, chunk):
        monkeypatch.setattr(nn, "_CHUNK_ROWS", chunk)
        rng = np.random.default_rng(48)
        conv = nn.SubmanifoldConv3(2, 3, rng)
        indices = np.unique(rng.integers(0, 3, size=(16, 3)), axis=0)
        pairs = nn.ConvPairs(indices)
        w = rng.normal(size=(len(indices), 3))

        def fn(f, kernel, bias):
            saved = conv.kernel, conv.bias
            conv.kernel, conv.bias = kernel, bias
            out = ad.tsum(ad.mul(conv(f, pairs), ad.constant(w)))
            conv.kernel, conv.bias = saved
            return out

        finite_difference_check(
            fn, [rng.normal(size=(len(indices), 2)), conv.kernel.data.copy(), rng.normal(size=3)]
        )

    def test_forward_backward_peak_memory(self):
        # n = 4096 voxels at C = 32: one (n, 27 C) float64 matrix is 28 MB
        import tracemalloc

        rng = np.random.default_rng(49)
        n, c = 4096, 32
        conv = nn.SubmanifoldConv3(c, c, rng)
        indices = np.stack(np.meshgrid(*[np.arange(16)] * 3, indexing="ij"), axis=-1).reshape(-1, 3)
        pairs = nn.ConvPairs(indices)
        x = ad.parameter(rng.normal(size=(n, c)))
        full_cols = n * 27 * c * 8
        tracemalloc.start()
        try:
            ad.tsum(conv(x, pairs)).backward()
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert x.grad.shape == (n, c) and conv.kernel.grad.shape == (27, c, c)
        assert peak < full_cols / 4

    def test_empty_index_set(self):
        rng = np.random.default_rng(42)
        conv = nn.SubmanifoldConv3(3, 4, rng)
        pairs = nn.ConvPairs(np.zeros((0, 3), dtype=np.int64))
        assert pairs.nbr.shape == (0, 27)
        x = ad.parameter(np.zeros((0, 3)))
        out = conv(x, pairs)
        assert out.data.shape == (0, 4)
        ad.tsum(out).backward()
        assert x.grad.shape == (0, 3)
        assert np.array_equal(conv.kernel.grad, np.zeros((27, 3, 4)))

    @pytest.mark.parametrize("share", [1.0, 0.6, 0.1, 0.0])
    @pytest.mark.parametrize("order", ["sorted", "shuffled"])
    def test_subset_matches_kernel_map_of_subset(self, share, order):
        rng = np.random.default_rng(44)
        indices = np.unique(rng.integers(-6, 7, size=(600, 3)), axis=0)
        rows = np.sort(rng.choice(len(indices), size=int(round(share * len(indices))), replace=False))
        if order == "shuffled":
            rows = rng.permutation(rows)
        derived = nn.ConvPairs(indices).subset(rows)
        assert derived.nbr.dtype == np.int64
        assert np.array_equal(derived.nbr, nn.ConvPairs(indices[rows]).nbr)

    def test_subset_of_subset_matches(self):
        rng = np.random.default_rng(45)
        indices = np.unique(rng.integers(-6, 7, size=(600, 3)), axis=0)
        outer = np.nonzero(rng.random(len(indices)) < 0.7)[0]
        inner = np.nonzero(rng.random(len(outer)) < 0.4)[0]
        derived = nn.ConvPairs(indices).subset(outer).subset(inner)
        assert np.array_equal(derived.nbr, nn.ConvPairs(indices[outer][inner]).nbr)

    def test_kernel_map_matches_dict_lookup(self):
        rng = np.random.default_rng(43)
        indices = np.unique(rng.integers(-3, 4, size=(80, 3)), axis=0)
        indices = indices[rng.permutation(len(indices))]
        assert np.array_equal(nn.ConvPairs(indices).nbr, dict_neighbor_rows(indices))


class TestToyNets:
    def make_grid(self, seed=19, n=60, channels=4):
        rng = np.random.default_rng(seed)
        idx = np.unique(rng.integers(0, 12, size=(n, 3)), axis=0)
        feats = rng.normal(size=(len(idx), channels))
        return SparseVoxelGrid(0.02, np.zeros(3), idx, feats)

    def roi_structure(self, grid):
        """RoiUNet's kernel maps and pooling rows for `grid`."""
        pooled, pool_row = coarsen(grid, nn.RoiUNet.pool_factor)
        return nn.ConvPairs(grid.indices), pool_row, nn.ConvPairs(pooled.indices)

    def test_roi_unet_zero_init_head_scores_half(self):
        grid = self.make_grid()
        net = nn.RoiUNet(4, 16, np.random.default_rng(20))
        scores, trunk = net(Tensor(grid.features), *self.roi_structure(grid))
        assert np.allclose(scores.data, 0.5)
        assert trunk.data.shape == (len(grid), 16)

    def test_objectness_shapes_and_init(self):
        grid = self.make_grid(channels=20)
        net = nn.ObjectnessNet(20, 32, 4, np.random.default_rng(21))
        obj, logits, trunk = net(nn.ConvPairs(grid.indices), Tensor(grid.features))
        assert np.allclose(obj.data, 0.5)
        assert logits.data.shape == (len(grid), 5)
        assert trunk.data.shape == (len(grid), 32)

    def test_pose_net_zero_init_outputs(self):
        grid = self.make_grid(channels=32)
        net = nn.PoseNet(32, 32, 4, np.random.default_rng(22))
        offsets, rot6d = net(grid.indices, nn.ConvPairs(grid.indices), Tensor(grid.features), 4, 8)
        assert offsets.data.shape == (len(grid), 3)
        assert rot6d.data.shape == (len(grid), 6)
        assert np.allclose(offsets.data, 0.0)
        assert np.allclose(rot6d.data, nn.ROT6D_IDENTITY)

    def test_forward_deterministic(self):
        grid = self.make_grid()
        a = nn.RoiUNet(4, 16, np.random.default_rng(23))
        b = nn.RoiUNet(4, 16, np.random.default_rng(23))
        sa, _ = a(Tensor(grid.features), *self.roi_structure(grid))
        sb, _ = b(Tensor(grid.features), *self.roi_structure(grid))
        assert np.array_equal(sa.data, sb.data)


class TestMultitaskLoss:
    def test_all_zero(self):
        out = nn.multitask_loss([0.0] * 5, LOSS_WEIGHTS)
        assert float(out.data) == 0.0

    def test_unit_parts_default_weights(self):
        # weights (1, 3, 2, 3, 1) sum to 10
        out = nn.multitask_loss([1.0] * 5, LOSS_WEIGHTS)
        assert float(out.data) == pytest.approx(10.0)

    def test_weighted_sum_oracle(self):
        rng = np.random.default_rng(24)
        parts = rng.normal(size=5)
        weights = rng.uniform(0.5, 2.0, size=5)
        out = nn.multitask_loss(list(parts), tuple(weights))
        assert float(out.data) == pytest.approx(float(np.dot(parts, weights)), rel=1e-12)

    def test_gradient_is_lambda(self):
        parts = [Tensor(np.float64(0.3), requires_grad=True) for _ in range(5)]
        weights = LOSS_WEIGHTS
        out = nn.multitask_loss(parts, weights)
        out.backward()
        for p, lam in zip(parts, weights):
            assert p.grad == pytest.approx(lam)

    def test_wrong_arity_rejected(self):
        with pytest.raises(DataError):
            nn.multitask_loss([1.0] * 4, LOSS_WEIGHTS)


class TestSGD:
    def test_zero_grad_no_move(self):
        p = ad.parameter(np.array([1.0, 2.0]), name="w")
        opt = nn.SGD({"w": p}, lr=0.1)
        opt.step()
        assert np.array_equal(p.data, [1.0, 2.0])

    def test_plain_step(self):
        p = ad.parameter(np.array([1.0]), name="w")
        opt = nn.SGD({"w": p}, lr=0.1, momentum=0.0)
        p.grad = np.array([1.0])
        opt.step()
        assert p.data[0] == pytest.approx(0.9)

    def test_momentum_recurrence(self):
        # v1 = g1, p1 = p0 - lr v1; v2 = mu v1 + g2, p2 = p1 - lr v2
        p = ad.parameter(np.array([0.0]), name="w")
        opt = nn.SGD({"w": p}, lr=0.1, momentum=0.9)
        p.grad = np.array([1.0])
        opt.step()
        p.grad = np.array([2.0])
        opt.step()
        v1 = 1.0
        v2 = 0.9 * v1 + 2.0
        assert p.data[0] == pytest.approx(-0.1 * v1 - 0.1 * v2)

    def test_nan_gradient_names_parameter(self):
        p = ad.parameter(np.array([0.0]), name="layer.weight")
        opt = nn.SGD({"layer.weight": p}, lr=0.1)
        p.grad = np.array([np.nan])
        with pytest.raises(NumericalError, match="layer.weight"):
            opt.step()

    @pytest.mark.parametrize("clip_norm", [None, 1.0])
    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_gradient_raises_before_any_update(self, clip_norm, bad):
        a = ad.parameter(np.array([1.0, 2.0]), name="a")
        b = ad.parameter(np.array([3.0]), name="b")
        opt = nn.SGD({"a": a, "b": b}, lr=0.1, momentum=0.9, clip_norm=clip_norm)
        a.grad, b.grad = np.array([0.5, 0.5]), np.array([bad])
        with pytest.raises(NumericalError, match="'b'"):
            opt.step()
        assert np.array_equal(a.data, [1.0, 2.0]) and np.array_equal(b.data, [3.0])
        assert np.array_equal(opt.velocity["a"], [0.0, 0.0])

    def test_clip_rescales_global_norm(self):
        a = ad.parameter(np.array([0.0]), name="a")
        b = ad.parameter(np.array([0.0]), name="b")
        opt = nn.SGD({"a": a, "b": b}, lr=1.0, clip_norm=1.0)
        a.grad, b.grad = np.array([3.0]), np.array([4.0])
        opt.step()
        assert a.data[0] == pytest.approx(-0.6) and b.data[0] == pytest.approx(-0.8)


class TestCheckpoint:
    def test_roundtrip(self, tmp_path):
        rng = np.random.default_rng(25)
        net = nn.ObjectnessNet(6, 8, 3, rng)
        params = net.parameters()
        path = tmp_path / "net.ckpt"
        nn.save_checkpoint(path, params)
        table = nn.load_checkpoint(path)
        assert set(table) == set(params)
        for name in params:
            assert np.array_equal(table[name], params[name].data)

    def test_assign_shape_mismatch_rejected(self, tmp_path):
        rng = np.random.default_rng(26)
        a = nn.Linear(3, 4, rng)
        b = nn.Linear(3, 5, rng)
        path = tmp_path / "lin.ckpt"
        nn.save_checkpoint(path, a.parameters())
        with pytest.raises(DataError, match=r"has shape \(3, 4\), the model needs \(3, 5\)"):
            nn.assign_parameters(b.parameters(), path)

    def test_assign_stray_parameter_rejected(self, tmp_path):
        # a checkpoint of a larger model: its extra parameter would go unused
        rng = np.random.default_rng(29)
        a = nn.Linear(3, 4, rng)
        b = nn.Linear(3, 4, rng, bias=False)
        before = b.weight.data.copy()
        path = tmp_path / "lin.ckpt"
        nn.save_checkpoint(path, a.parameters())
        with pytest.raises(DataError, match=re.escape(
                f"{path}: checkpoint holds parameter 'bias', which the model does not have")):
            nn.assign_parameters(b.parameters(), path)
        assert np.array_equal(b.weight.data, before)  # nothing assigned

    def test_not_checkpoint_rejected(self, tmp_path):
        path = tmp_path / "x.ckpt"
        path.write_bytes(b"garbage")
        with pytest.raises(DataError):
            nn.load_checkpoint(path)

    def test_truncated_checkpoint_rejected(self, tmp_path):
        path = tmp_path / "net.ckpt"
        nn.save_checkpoint(path, nn.ObjectnessNet(6, 8, 3, np.random.default_rng(27)).parameters())
        blob = path.read_bytes()
        for cut in (len(blob) // 2, 13, len(blob) - 1):
            path.write_bytes(blob[:cut])
            with pytest.raises(DataError, match="truncated"):
                nn.load_checkpoint(path)

    def test_trailing_bytes_rejected(self, tmp_path):
        path = tmp_path / "lin.ckpt"
        nn.save_checkpoint(path, nn.Linear(2, 3, np.random.default_rng(28)).parameters())
        path.write_bytes(path.read_bytes() + b"\0")
        with pytest.raises(DataError, match="trailing"):
            nn.load_checkpoint(path)

    def test_missing_checkpoint_rejected(self, tmp_path):
        with pytest.raises(DataError):
            nn.load_checkpoint(tmp_path / "absent.ckpt")
