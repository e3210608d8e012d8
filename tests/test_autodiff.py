import numpy as np
import pytest

from sparsepose import autodiff as ad
from sparsepose import nn
from sparsepose.autodiff import Tensor
from sparsepose.errors import DataError, NumericalError

from oracles import finite_difference_check, softmax_lastaxis, transpose


def scalarize(t):
    """Reduce any tensor to a scalar with fixed weights so FD checks hit
    every output element."""
    rng = np.random.default_rng(99)
    w = rng.normal(size=t.data.shape)
    return ad.tsum(ad.mul(t, ad.constant(w)))


class TestForwardValues:
    def test_add_mul_matmul_against_numpy(self):
        rng = np.random.default_rng(0)
        a = rng.normal(size=(4, 5))
        b = rng.normal(size=(5, 3))
        c = rng.normal(size=(4, 3))
        out = ad.add(ad.matmul(Tensor(a), Tensor(b)), Tensor(c))
        assert np.allclose(out.data, a @ b + c)

    def test_softmax_rows_sum_to_one(self):
        rng = np.random.default_rng(1)
        x = rng.normal(size=(6, 9)) * 10
        s = softmax_lastaxis(Tensor(x))
        assert np.allclose(s.data.sum(axis=-1), 1.0, atol=1e-12)

    def test_matmul_matches_naive_loops(self):
        rng = np.random.default_rng(2)
        a = rng.normal(size=(3, 4))
        b = rng.normal(size=(4, 2))
        naive = np.zeros((3, 2))
        for i in range(3):
            for j in range(2):
                for k in range(4):
                    naive[i, j] += a[i, k] * b[k, j]
        assert np.allclose(ad.matmul(Tensor(a), Tensor(b)).data, naive, atol=1e-12)

    def test_relu(self):
        x = Tensor(np.array([-1.0, 0.5, 2.0]))
        assert np.array_equal(ad.relu(x).data, [0.0, 0.5, 2.0])

    def test_backward_requires_scalar(self):
        x = Tensor(np.ones(3), requires_grad=True)
        with pytest.raises(DataError):
            ad.mul(x, x).backward()


class TestGradients:
    def test_elementwise_chain(self):
        rng = np.random.default_rng(3)
        finite_difference_check(
            lambda a, b: ad.tsum(ad.mul(ad.sigmoid(a),
                                        ad.mul(b, ad.pow_const(ad.add(ad.mul(b, b), ad.constant(1.0)), -1.0)))),
            [rng.normal(size=(3, 4)) * 0.5, rng.normal(size=(3, 4))],
        )

    def test_broadcast_add(self):
        rng = np.random.default_rng(4)
        finite_difference_check(
            lambda a, b: scalarize(ad.add(a, b)),
            [rng.normal(size=(5, 3)), rng.normal(size=(3,))],
        )

    def test_broadcast_mul_keepdims(self):
        rng = np.random.default_rng(5)
        finite_difference_check(
            lambda a, b: scalarize(ad.mul(a, b)),
            [rng.normal(size=(4, 1)), rng.normal(size=(4, 6))],
        )

    def test_div_pow(self):
        rng = np.random.default_rng(6)
        finite_difference_check(
            lambda a, b: ad.tsum(ad.mul(ad.pow_const(a, 3.0),
                                        ad.pow_const(ad.add(ad.mul(b, b), ad.constant(0.5)), -1.0))),
            [rng.normal(size=(3, 3)), rng.normal(size=(3, 3))],
        )

    def test_matmul_2d(self):
        rng = np.random.default_rng(7)
        finite_difference_check(
            lambda a, b: scalarize(ad.matmul(a, b)),
            [rng.normal(size=(4, 3)), rng.normal(size=(3, 5))],
        )

    def test_matmul_batched_broadcast(self):
        rng = np.random.default_rng(8)
        finite_difference_check(
            lambda a, b: scalarize(ad.matmul(a, b)),
            [rng.normal(size=(1, 4, 3)), rng.normal(size=(6, 3, 2))],
        )

    def test_softmax(self):
        rng = np.random.default_rng(9)
        finite_difference_check(
            lambda a: scalarize(softmax_lastaxis(a)),
            [rng.normal(size=(2, 3, 5))],
        )

    def test_reductions(self):
        rng = np.random.default_rng(10)
        finite_difference_check(lambda a: ad.tsum(ad.tmean(a, axis=1)), [rng.normal(size=(3, 7))])
        finite_difference_check(
            lambda a: ad.tsum(ad.tmean(a, axis=0, keepdims=True)), [rng.normal(size=(4, 2))]
        )

    def test_sigmoid_of_pow_half(self):
        rng = np.random.default_rng(12)
        finite_difference_check(
            lambda a: ad.tsum(ad.sigmoid(ad.pow_const(ad.add(ad.mul(a, a), ad.constant(0.1)), 0.5))),
            [rng.normal(size=(4, 4))],
        )

    def test_reshape_transpose_concat_narrow(self):
        rng = np.random.default_rng(13)

        def fn(a, b):
            x = ad.reshape(a, (2, 6))
            y = transpose(ad.reshape(b, (2, 6)), (1, 0))
            z = ad.concat([x, transpose(y, (1, 0))], axis=0)
            return scalarize(z)

        finite_difference_check(fn, [rng.normal(size=(3, 4)), rng.normal(size=(12,))])

    def test_gather_scatter(self):
        rng = np.random.default_rng(14)
        rows = np.array([0, 2, 2, 1, 0])

        def fn(a):
            g = ad.gather_rows(a, rows)
            return scalarize(ad.scatter_add_rows(g, np.array([1, 0, 1, 2, 2]), 3))

        finite_difference_check(fn, [rng.normal(size=(3, 4))])

    def test_gather_scatter_adjoint(self):
        # <scatter(x), y> == <x, gather(y)> for matching index maps
        rng = np.random.default_rng(15)
        rows = rng.integers(0, 8, size=20)
        x = rng.normal(size=(20, 5))
        y = rng.normal(size=(8, 5))
        lhs = np.sum(ad.scatter_add_rows(Tensor(x), rows, 8).data * y)
        rhs = np.sum(x * y[rows])
        assert lhs == pytest.approx(rhs, rel=1e-12)

    def test_accumulation_over_reuse(self):
        x = Tensor(np.array([2.0]), requires_grad=True)
        y = ad.add(ad.mul(x, x), ad.mul(x, ad.constant(3.0)))  # x^2 + 3x
        ad.tsum(y).backward()
        assert x.grad[0] == pytest.approx(2 * 2.0 + 3.0)
        assert y.grad is None  # the sweep frees an interior gradient once it is passed on

    def test_gradcheck_failure_detected(self):
        # a deliberately wrong backward should trip the checker
        def broken(a):
            out = Tensor(a.data * 2.0, parents=(a,))

            def backward(g):
                from sparsepose.autodiff import _accumulate

                _accumulate(a, g * 3.0)  # wrong: claims d/da = 3

            out._backward = backward
            return ad.tsum(out)

        with pytest.raises(NumericalError):
            finite_difference_check(broken, [np.ones(3)])


class TestLossWrapper:
    def test_from_loss_fn_chains_gradient(self):
        from sparsepose.heatmap import gaussian_focal_loss

        rng = np.random.default_rng(16)
        target = rng.uniform(0, 1, size=10)
        x = Tensor(rng.uniform(0.1, 0.9, size=10), requires_grad=True)
        pred = ad.sigmoid(x)
        loss = ad.from_loss_fn(pred, lambda p: gaussian_focal_loss(p, target))
        loss.backward()
        eps = 1e-6
        num = np.zeros(10)
        for i in range(10):
            orig = x.data[i]
            x.data[i] = orig + eps
            hi = gaussian_focal_loss(1 / (1 + np.exp(-x.data)), target)[0]
            x.data[i] = orig - eps
            lo = gaussian_focal_loss(1 / (1 + np.exp(-x.data)), target)[0]
            x.data[i] = orig
            num[i] = (hi - lo) / (2 * eps)
        assert np.max(np.abs(num - x.grad)) < 1e-6


def _conv_node(x, kernel, bias):
    conv = nn.SubmanifoldConv3(2, 3, np.random.default_rng(0))
    conv.kernel, conv.bias = kernel, bias
    return conv(x, nn.ConvPairs(np.array([[0, 0, 0], [0, 0, 1], [1, 1, 1], [3, 0, 0]])))


# Every op that builds its node through the Tensor constructor, plus the two
# hand-written nodes in nn and the oracles' softmax and transpose: (input
# shapes, op over the input tensors).
GRAPH_NODES = {
    "add": ([(3, 4), (4,)], ad.add),
    "sub": ([(3, 4), (3, 1)], ad.sub),
    "mul": ([(3, 4), (3, 4)], ad.mul),
    "pow_const": ([(3, 4)], lambda a: ad.pow_const(a, -0.5)),
    "sigmoid": ([(3, 4)], ad.sigmoid),
    "relu": ([(3, 4)], ad.relu),
    "matmul": ([(2, 3, 4), (4, 2)], ad.matmul),
    "tsum_all": ([(3, 4)], ad.tsum),
    "tsum_axis": ([(3, 4)], lambda a: ad.tsum(a, axis=0)),
    "tsum_keepdims": ([(3, 4)], lambda a: ad.tsum(a, axis=1, keepdims=True)),
    "softmax_lastaxis": ([(3, 4)], softmax_lastaxis),
    "reshape": ([(3, 4)], lambda a: ad.reshape(a, (2, 6))),
    "transpose": ([(2, 3, 4)], lambda a: transpose(a, (2, 0, 1))),
    "concat": ([(3, 4), (3, 2)], lambda a, b: ad.concat([a, b], axis=1)),
    "gather_rows": ([(3, 4)], lambda a: ad.gather_rows(a, [2, 0, 2])),
    "scatter_add_rows": ([(4, 2)], lambda a: ad.scatter_add_rows(a, [0, 2, 2, 1], 3)),
    "from_loss_fn": ([(3, 4)], lambda a: ad.from_loss_fn(a, lambda p: (float((p**2).sum()), 2 * p))),
    "window_attention": ([(4, 4)] * 3,
                         lambda q, k, v: nn._window_attention(q, k, v, [np.array([[0, 3], [1, 2]])], 2, 0.5)),
    "submanifold_conv3": ([(4, 2), (27, 2, 3), (3,)], _conv_node),
}


class TestEmptyRows:
    def test_segment_sum_of_no_rows_is_zero(self):
        out = ad.segment_sum(np.zeros((0, 2)), [], 3)
        assert out.shape == (3, 2) and np.array_equal(out, np.zeros((3, 2)))

    def test_gather_rows_of_no_rows_backward(self):
        a = ad.parameter(np.ones((3, 2)))
        out = ad.gather_rows(a, [])
        assert out.data.shape == (0, 2)
        ad.tsum(out).backward()
        assert np.array_equal(a.grad, np.zeros((3, 2)))

    def test_scatter_add_rows_of_no_rows_backward(self):
        a = ad.parameter(np.ones((0, 2)))
        out = ad.scatter_add_rows(a, [], 3)
        assert np.array_equal(out.data, np.zeros((3, 2)))
        ad.tsum(out).backward()
        assert a.grad.shape == (0, 2)


class TestGraphNodeGate:
    @staticmethod
    def inputs(shapes, param=None):
        rng = np.random.default_rng(5)
        return [ad.parameter(rng.uniform(0.5, 1.5, size=s)) if i == param else Tensor(rng.uniform(0.5, 1.5, size=s))
                for i, s in enumerate(shapes)]

    @pytest.mark.parametrize("name", sorted(GRAPH_NODES))
    def test_constant_inputs_build_no_graph(self, name):
        shapes, op = GRAPH_NODES[name]
        out = op(*self.inputs(shapes))
        assert not out.requires_grad
        assert out._parents == ()
        assert out._backward is None

    @pytest.mark.parametrize("name", sorted(GRAPH_NODES))
    def test_backward_reaches_the_one_parameter(self, name):
        shapes, op = GRAPH_NODES[name]
        for param in range(len(shapes)):
            tensors = self.inputs(shapes, param)
            out = op(*tensors)
            assert out.requires_grad and out._backward is not None
            scalarize(out).backward()
            for i, t in enumerate(tensors):
                if i == param:
                    assert t.grad is not None and t.grad.shape == t.data.shape
                    assert np.all(np.isfinite(t.grad)) and np.any(t.grad != 0)
                else:
                    assert t.grad is None
