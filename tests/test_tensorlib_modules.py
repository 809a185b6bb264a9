"""Tests for functional composites, modules and optimizers."""

import numpy as np
import pytest

from repro.tensorlib import (
    Adam,
    Embedding,
    LayerNorm,
    Linear,
    Module,
    Parameter,
    Tensor,
    functional as F,
)

from tests.gradcheck import gradcheck
from tests.helpers import SGD

RNG = np.random.default_rng(11)


class TestFunctional:
    def test_softmax_rows_sum_to_one(self):
        x = Tensor(RNG.standard_normal((4, 7)))
        probs = F.softmax(x).numpy()
        np.testing.assert_allclose(probs.sum(axis=-1), np.ones(4), atol=1e-12)
        assert (probs >= 0).all()

    def test_softmax_is_shift_invariant(self):
        x = RNG.standard_normal((3, 5))
        a = F.softmax(Tensor(x)).numpy()
        b = F.softmax(Tensor(x + 100.0)).numpy()
        np.testing.assert_allclose(a, b, atol=1e-12)

    def test_softmax_gradcheck(self):
        x = Tensor(RNG.standard_normal((3, 4)), requires_grad=True)
        weights = RNG.standard_normal((3, 4))
        gradcheck(lambda t: (F.softmax(t[0]) * weights).sum(), [x])

    def test_cross_entropy_uniform_logits(self):
        logits = Tensor(np.zeros((5, 8)), requires_grad=True)
        loss = F.cross_entropy(logits, np.zeros(5, dtype=int))
        assert loss.item() == pytest.approx(np.log(8))

    def test_cross_entropy_gradcheck(self):
        logits = Tensor(RNG.standard_normal((4, 3)), requires_grad=True)
        targets = np.array([0, 2, 1, 1])
        gradcheck(lambda t: F.cross_entropy(t[0], targets), [logits])

    def test_cross_entropy_shape_validation(self):
        with pytest.raises(ValueError):
            F.cross_entropy(Tensor(np.zeros((2, 3, 4))), np.zeros(2, dtype=int))
        with pytest.raises(ValueError):
            F.cross_entropy(Tensor(np.zeros((2, 3))), np.zeros(3, dtype=int))

    def test_layer_norm_normalizes(self):
        x = Tensor(RNG.standard_normal((10, 16)) * 5 + 3)
        out = F.layer_norm(x, Tensor(np.ones(16)), Tensor(np.zeros(16)))
        np.testing.assert_allclose(out.numpy().mean(axis=-1), 0, atol=1e-9)
        np.testing.assert_allclose(out.numpy().std(axis=-1), 1, atol=1e-3)

    def test_layer_norm_gradcheck(self):
        x = Tensor(RNG.standard_normal((3, 5)), requires_grad=True)
        w = Tensor(RNG.standard_normal(5), requires_grad=True)
        b = Tensor(RNG.standard_normal(5), requires_grad=True)
        gradcheck(lambda t: (F.layer_norm(t[0], t[1], t[2]) ** 2).sum(),
                  [x, w, b])

    def test_causal_mask(self):
        mask = F.attention_scores_mask(4, causal=True)
        assert mask[0, 1] == -1e9
        assert mask[1, 0] == 0
        assert (np.diag(mask) == 0).all()
        assert (F.attention_scores_mask(4, causal=False) == 0).all()


class TestModules:
    def test_linear_shapes_and_grad(self):
        layer = Linear(8, 4, rng=RNG)
        x = Tensor(RNG.standard_normal((10, 8)), requires_grad=True)
        out = layer(x)
        assert out.shape == (10, 4)
        out.sum().backward()
        assert layer.weight.grad.shape == (8, 4)
        assert layer.bias.grad.shape == (4,)

    def test_linear_no_bias(self):
        layer = Linear(4, 4, bias=False, rng=RNG)
        assert layer.bias is None
        assert len(layer.parameters()) == 1

    def test_embedding_lookup_and_bounds(self):
        emb = Embedding(10, 4, rng=RNG)
        out = emb(np.array([[1, 2], [3, 4]]))
        assert out.shape == (2, 2, 4)
        with pytest.raises(IndexError):
            emb(np.array([10]))

    def test_layernorm_module(self):
        norm = LayerNorm(6)
        x = Tensor(RNG.standard_normal((4, 6)))
        out = norm(x)
        np.testing.assert_allclose(out.numpy().mean(axis=-1), 0, atol=1e-9)

    def test_named_parameters_nested(self):
        class Net(Module):
            def __init__(self):
                super().__init__()
                self.fc1 = Linear(4, 4, rng=RNG)
                self.fc2 = Linear(4, 2, rng=RNG)

            def forward(self, x):
                return self.fc2(self.fc1(x))

        names = [name for name, _ in Net().named_parameters()]
        assert names == ["fc1.weight", "fc1.bias", "fc2.weight", "fc2.bias"]

    def test_state_dict_round_trip(self):
        src = Linear(5, 3, rng=RNG)
        dst = Linear(5, 3, rng=np.random.default_rng(99))
        dst.load_state_dict(src.state_dict())
        x = Tensor(RNG.standard_normal((2, 5)))
        np.testing.assert_allclose(src(x).numpy(), dst(x).numpy())

    def test_state_dict_mismatch_raises(self):
        layer = Linear(5, 3, rng=RNG)
        with pytest.raises(KeyError):
            layer.load_state_dict({"weight": np.zeros((5, 3))})

    def test_state_dict_shape_mismatch_raises(self):
        layer = Linear(5, 3, rng=RNG)
        state = layer.state_dict()
        state["weight"] = np.zeros((3, 5))
        with pytest.raises(ValueError):
            layer.load_state_dict(state)

    def test_zero_grad_clears(self):
        layer = Linear(3, 3, rng=RNG)
        layer(Tensor(np.ones((2, 3)), requires_grad=True)).sum().backward()
        assert layer.weight.grad is not None
        layer.zero_grad()
        assert layer.weight.grad is None


class TestOptim:
    def _quadratic_setup(self):
        target = np.array([1.0, -2.0, 3.0])
        param = Parameter(np.zeros(3))
        return target, param

    def test_sgd_converges_on_quadratic(self):
        target, param = self._quadratic_setup()
        opt = SGD([param], lr=0.1)
        for _ in range(200):
            opt.zero_grad()
            loss = ((param - Tensor(target)) ** 2).sum()
            loss.backward()
            opt.step()
        np.testing.assert_allclose(param.data, target, atol=1e-4)

    def test_sgd_momentum_converges(self):
        target, param = self._quadratic_setup()
        opt = SGD([param], lr=0.05, momentum=0.9)
        for _ in range(200):
            opt.zero_grad()
            ((param - Tensor(target)) ** 2).sum().backward()
            opt.step()
        np.testing.assert_allclose(param.data, target, atol=1e-3)

    def test_adam_converges_on_quadratic(self):
        target, param = self._quadratic_setup()
        opt = Adam([param], lr=0.1)
        for _ in range(400):
            opt.zero_grad()
            ((param - Tensor(target)) ** 2).sum().backward()
            opt.step()
        np.testing.assert_allclose(param.data, target, atol=1e-3)

    def test_step_skips_params_without_grad(self):
        param = Parameter(np.ones(2))
        before = param.data.copy()
        SGD([param], lr=0.5).step()
        np.testing.assert_allclose(param.data, before)

    def test_validation(self):
        param = Parameter(np.ones(1))
        with pytest.raises(ValueError):
            SGD([], lr=0.1)
        with pytest.raises(ValueError):
            SGD([param], lr=0)
        with pytest.raises(ValueError):
            SGD([param], lr=0.1, momentum=1.0)
        with pytest.raises(ValueError):
            Adam([param], lr=-1)
