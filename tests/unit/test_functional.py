"""nn.functional operations not covered by the loss/layer tests."""

import numpy as np
import pytest

from repro.nn import functional as F
from repro.tensor import Tensor

from tests.conftest import assert_grad_close, numeric_gradient


class TestLinear:
    def test_values(self, rng):
        x = Tensor(rng.random((3, 4), dtype=np.float32))
        w = Tensor(rng.random((2, 4), dtype=np.float32))
        b = Tensor(rng.random(2, dtype=np.float32))
        out = F.linear(x, w, b)
        np.testing.assert_allclose(
            out.data, x.data @ w.data.T + b.data, rtol=1e-5
        )

    def test_no_bias(self, rng):
        x = Tensor(rng.random((3, 4), dtype=np.float32))
        w = Tensor(rng.random((2, 4), dtype=np.float32))
        np.testing.assert_allclose(
            F.linear(x, w).data, x.data @ w.data.T, rtol=1e-5
        )


class TestActivationsFunctional:
    def test_leaky_relu_gradcheck(self, rng):
        x = Tensor(rng.standard_normal(8).astype(np.float32), requires_grad=True)

        def fn():
            return (F.leaky_relu(x, 0.1) ** 2).sum()

        fn().backward()
        assert_grad_close(x.grad, numeric_gradient(fn, x))

    def test_softmax_gradcheck(self, rng):
        x = Tensor(rng.random((2, 4)).astype(np.float32), requires_grad=True)
        target = rng.random((2, 4)).astype(np.float32)

        def fn():
            return ((F.softmax(x) - Tensor(target)) ** 2).sum()

        fn().backward()
        assert_grad_close(x.grad, numeric_gradient(fn, x))

    def test_softmax_invariant_to_shift(self, rng):
        x = rng.random((3, 5)).astype(np.float32)
        a = F.softmax(Tensor(x)).data
        b = F.softmax(Tensor(x + 100.0)).data
        np.testing.assert_allclose(a, b, rtol=1e-4, atol=1e-6)

    def test_relu_tanh_sigmoid_wrappers(self, rng):
        x = Tensor(rng.standard_normal(5).astype(np.float32))
        np.testing.assert_allclose(F.relu(x).data, np.maximum(x.data, 0))
        np.testing.assert_allclose(F.tanh(x).data, np.tanh(x.data), rtol=1e-5)
        np.testing.assert_allclose(
            F.sigmoid(x).data, 1 / (1 + np.exp(-x.data)), rtol=1e-5
        )


class TestDropoutFunctional:
    def test_not_training_identity(self, rng):
        x = Tensor(rng.random(10, dtype=np.float32))
        assert F.dropout(x, 0.5, training=False) is x

    def test_expected_value_preserved(self, rng):
        x = Tensor(np.ones(20_000, dtype=np.float32))
        out = F.dropout(x, 0.3, training=True, rng=rng)
        assert out.data.mean() == pytest.approx(1.0, abs=0.05)

    def test_grad_masked(self, rng):
        x = Tensor(np.ones(100, dtype=np.float32), requires_grad=True)
        out = F.dropout(x, 0.5, training=True, rng=rng)
        out.sum().backward()
        # Gradient is zero exactly where the activation was dropped.
        dropped = out.data == 0
        assert (x.grad[dropped] == 0).all()
        assert (x.grad[~dropped] == 2.0).all()

    def test_p_one_drops_everything(self, rng):
        x = Tensor(rng.random((4, 5), dtype=np.float32), requires_grad=True)
        out = F.dropout(x, 1.0, training=True, rng=rng)
        assert np.array_equal(out.data, np.zeros((4, 5), dtype=np.float32))
        out.sum().backward()
        assert np.array_equal(x.grad, np.zeros((4, 5), dtype=np.float32))

    def test_module_p_one_drops_everything(self):
        from repro.nn import Dropout

        drop = Dropout(1.0)
        drop.train()
        out = drop(Tensor(np.ones((3, 3), dtype=np.float32)))
        assert not np.isnan(out.data).any()
        assert (out.data == 0).all()

    @pytest.mark.parametrize("p", [-0.1, 1.5])
    def test_p_out_of_range_rejected(self, p):
        x = Tensor(np.ones(4, dtype=np.float32))
        with pytest.raises(ValueError, match="dropout probability"):
            F.dropout(x, p, training=True)
        with pytest.raises(ValueError, match="dropout probability"):
            F.dropout(x, p, training=False)


class TestShapeHelpers:
    def test_pad2d_wrapper(self, rng):
        x = Tensor(rng.random((1, 1, 2, 2), dtype=np.float32))
        assert F.pad2d(x, 1, 1).shape == (1, 1, 4, 4)

    def test_cat_wrapper(self, rng):
        a = Tensor(rng.random((2, 3), dtype=np.float32))
        b = Tensor(rng.random((2, 2), dtype=np.float32))
        assert F.cat([a, b], axis=1).shape == (2, 5)
