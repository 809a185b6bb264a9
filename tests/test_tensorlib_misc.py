"""Coverage for remaining tensorlib surface: constructors, shaping, guards."""

import numpy as np
import pytest

from repro.tensorlib import Tensor

from tests.gradcheck import gradcheck
from tests.helpers import scatter_rows

RNG = np.random.default_rng(13)


class TestConstructors:
    def test_zeros_ones(self):
        z = Tensor.zeros(2, 3)
        o = Tensor.ones(4)
        assert z.shape == (2, 3) and (z.numpy() == 0).all()
        assert o.shape == (4,) and (o.numpy() == 1).all()

    def test_as_tensor_passthrough(self):
        x = Tensor([1.0])
        assert Tensor.as_tensor(x) is x
        y = Tensor.as_tensor([2.0])
        assert isinstance(y, Tensor)


class TestShapingAndIndexing:
    def test_swapaxes_grad(self):
        x = Tensor(RNG.standard_normal((2, 3, 4)), requires_grad=True)
        gradcheck(lambda t: (t[0].swapaxes(0, 2) ** 2).sum(), [x])

    def test_reshape_accepts_tuple(self):
        x = Tensor(RNG.standard_normal(12))
        assert x.reshape((3, 4)).shape == (3, 4)
        assert x.reshape(3, 4).shape == (3, 4)

    def test_transpose_default_reverses(self):
        x = Tensor(RNG.standard_normal((2, 3, 4)))
        assert x.transpose().shape == (4, 3, 2)

    def test_concat_axis1(self):
        a = Tensor(RNG.standard_normal((2, 3)), requires_grad=True)
        b = Tensor(RNG.standard_normal((2, 5)), requires_grad=True)
        out = Tensor.concat([a, b], axis=1)
        assert out.shape == (2, 8)
        gradcheck(
            lambda t: (Tensor.concat([t[0], t[1]], axis=1) ** 2).sum(), [a, b]
        )

    def test_scatter_rows_empty_index(self):
        values = Tensor(np.zeros((0, 4)))
        out = scatter_rows(3, np.array([], dtype=int), values)
        assert out.shape == (3, 4)
        assert (out.numpy() == 0).all()

    def test_gather_rows_repeated_index_grad_accumulates(self):
        x = Tensor(RNG.standard_normal((3, 2)), requires_grad=True)
        x[np.array([1, 1, 1])].sum().backward()
        np.testing.assert_allclose(x.grad[1], [3.0, 3.0])
        np.testing.assert_allclose(x.grad[0], 0.0)


class TestGuards:
    def test_item_on_multielement_raises(self):
        with pytest.raises(ValueError):
            Tensor([1.0, 2.0]).item()

    def test_pow_requires_scalar_exponent(self):
        with pytest.raises(TypeError):
            Tensor([2.0]) ** Tensor([3.0])

    def test_rsub_rdiv(self):
        x = Tensor([2.0], requires_grad=True)
        assert (3 - x).item() == pytest.approx(1.0)
        assert (8 / x).item() == pytest.approx(4.0)

    def test_sub_grad(self):
        x = Tensor([5.0], requires_grad=True)
        y = Tensor([3.0], requires_grad=True)
        (x - y).sum().backward()
        assert x.grad[0] == pytest.approx(1.0)
        assert y.grad[0] == pytest.approx(-1.0)

    def test_repr_mentions_grad(self):
        assert "requires_grad" in repr(Tensor([1.0], requires_grad=True))
        assert "requires_grad" not in repr(Tensor([1.0]))

    def test_mean_over_axis_tuple(self):
        x = Tensor(RNG.standard_normal((2, 3, 4)))
        out = x.mean(axis=(0, 2))
        np.testing.assert_allclose(
            out.numpy(), x.numpy().mean(axis=(0, 2)), atol=1e-12
        )

    def test_gradcheck_rejects_non_scalar(self):
        x = Tensor(RNG.standard_normal(3), requires_grad=True)
        with pytest.raises(ValueError):
            gradcheck(lambda t: t[0] * 2, [x])
