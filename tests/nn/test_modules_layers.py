"""Tests for Module/Parameter registration, layers and recurrent cells."""

from __future__ import annotations

import numpy as np
import pytest

from repro.nn import (
    GRU,
    GRUCell,
    Activation,
    Dropout,
    Embedding,
    GaussianHead,
    Linear,
    MLP,
    Module,
    Parameter,
    Sequential,
    Tensor,
    no_grad,
)
from repro.core.inference import _sigmoid_np
from repro.utils import RandomState


class TinyNet(Module):
    def __init__(self):
        super().__init__()
        self.layer1 = Linear(4, 3, rng=RandomState(0))
        self.layer2 = Linear(3, 2, rng=RandomState(1))
        self.scale = Parameter(np.ones(1))

    def forward(self, x):
        return self.layer2(self.layer1(x).tanh()) * self.scale


class TestModule:
    def test_parameter_registration(self):
        net = TinyNet()
        names = [name for name, _ in net.named_parameters()]
        assert "scale" in names
        assert "layer1.weight" in names and "layer2.bias" in names

    def test_num_parameters(self):
        net = TinyNet()
        expected = 4 * 3 + 3 + 3 * 2 + 2 + 1
        assert net.num_parameters() == expected

    def test_train_eval_propagates(self):
        net = TinyNet()
        net.eval()
        assert all(not m.training for m in net.modules())
        net.train()
        assert all(m.training for m in net.modules())

    def test_zero_grad_clears_all(self):
        net = TinyNet()
        out = net(Tensor(np.ones((2, 4))))
        out.sum().backward()
        assert any(p.grad is not None for p in net.parameters())
        net.zero_grad()
        assert all(p.grad is None for p in net.parameters())

    def test_state_dict_roundtrip(self):
        net1, net2 = TinyNet(), TinyNet()
        net2.load_state_dict(net1.state_dict())
        for (_, p1), (_, p2) in zip(net1.named_parameters(), net2.named_parameters()):
            np.testing.assert_allclose(p1.data, p2.data)

    def test_load_state_dict_strict_missing_key(self):
        net = TinyNet()
        state = net.state_dict()
        state.pop("scale")
        with pytest.raises(KeyError):
            net.load_state_dict(state)

    def test_load_state_dict_shape_mismatch(self):
        net = TinyNet()
        state = net.state_dict()
        state["scale"] = np.ones(5)
        with pytest.raises(ValueError):
            net.load_state_dict(state)

    def test_forward_not_implemented(self):
        with pytest.raises(NotImplementedError):
            Module()(1)


class TestLinearEmbedding:
    def test_linear_shape_and_bias(self):
        layer = Linear(4, 3, rng=RandomState(0))
        out = layer(Tensor(np.ones((5, 4))))
        assert out.shape == (5, 3)

    def test_linear_without_bias(self):
        layer = Linear(4, 3, bias=False, rng=RandomState(0))
        assert layer.bias is None
        assert len(layer.parameters()) == 1

    def test_linear_rejects_bad_dims(self):
        with pytest.raises(ValueError):
            Linear(0, 3)

    def test_embedding_lookup_matches_weight_rows(self):
        emb = Embedding(10, 4, rng=RandomState(0))
        idx = np.array([[1, 2], [3, 4]])
        out = emb(idx)
        assert out.shape == (2, 2, 4)
        np.testing.assert_allclose(out.data[0, 0], emb.weight.data[1])

    def test_embedding_rejects_out_of_range(self):
        emb = Embedding(5, 2)
        with pytest.raises(IndexError):
            emb(np.array([5]))

    def test_embedding_gradient_flows_to_rows(self):
        emb = Embedding(6, 3, rng=RandomState(0))
        out = emb(np.array([2, 2, 4]))
        out.sum().backward()
        grad = emb.weight.grad
        np.testing.assert_allclose(grad[2], 2 * np.ones(3))
        np.testing.assert_allclose(grad[4], np.ones(3))
        np.testing.assert_allclose(grad[0], np.zeros(3))


class TestMLPSequentialActivation:
    def test_mlp_shapes(self):
        mlp = MLP((4, 8, 2), rng=RandomState(0))
        assert mlp(Tensor(np.ones((3, 4)))).shape == (3, 2)
        assert mlp.in_dim == 4 and mlp.out_dim == 2

    def test_mlp_requires_two_dims(self):
        with pytest.raises(ValueError):
            MLP((4,))

    def test_mlp_final_activation(self):
        mlp = MLP((2, 2), final_activation="sigmoid", rng=RandomState(0))
        out = mlp(Tensor(np.random.default_rng(0).normal(size=(5, 2))))
        assert ((out.data > 0) & (out.data < 1)).all()

    def test_sequential_order(self):
        seq = Sequential(Linear(2, 2, rng=RandomState(0)), Activation("relu"))
        assert len(seq) == 2
        out = seq(Tensor(np.ones((1, 2))))
        assert (out.data >= 0).all()

    def test_activation_unknown_name(self):
        with pytest.raises(ValueError):
            Activation("swish")

    def test_dropout_layer_respects_eval(self):
        layer = Dropout(0.9, rng=RandomState(0))
        layer.eval()
        x = Tensor(np.ones((4, 4)))
        np.testing.assert_allclose(layer(x).data, x.data)


class TestGaussianHead:
    def test_output_shapes_and_logvar_clipping(self):
        head = GaussianHead(8, 3, rng=RandomState(0))
        mu, logvar = head(Tensor(np.random.default_rng(0).normal(size=(5, 8)) * 100))
        assert mu.shape == (5, 3) and logvar.shape == (5, 3)
        assert (logvar.data <= GaussianHead.LOGVAR_MAX).all()
        assert (logvar.data >= GaussianHead.LOGVAR_MIN).all()

    def test_deterministic_sample_returns_mean(self):
        head = GaussianHead(4, 2, rng=RandomState(0))
        mu = Tensor(np.ones((3, 2)))
        logvar = Tensor(np.zeros((3, 2)))
        sample = head.sample(mu, logvar, deterministic=True)
        np.testing.assert_allclose(sample.data, mu.data)

    def test_stochastic_sample_differs_from_mean(self):
        head = GaussianHead(4, 2, rng=RandomState(0))
        mu = Tensor(np.zeros((3, 2)))
        logvar = Tensor(np.zeros((3, 2)))
        sample = head.sample(mu, logvar, rng=RandomState(1), deterministic=False)
        assert not np.allclose(sample.data, 0.0)


class TestRecurrent:
    def test_gru_cell_step_shape(self):
        cell = GRUCell(4, 6, rng=RandomState(0))
        h = cell.step(np.ones((3, 4)), np.zeros((3, 6)))
        assert h.shape == (3, 6)

    def test_gru_sequence_shapes(self):
        gru = GRU(4, 6, rng=RandomState(0))
        outputs, final = gru(Tensor(np.random.default_rng(0).normal(size=(2, 5, 4))))
        assert outputs.shape == (2, 5, 6)
        assert final.shape == (2, 6)
        np.testing.assert_allclose(outputs.data[:, -1, :], final.data)

    def test_gru_initial_state_used(self):
        gru = GRU(3, 4, rng=RandomState(0))
        x = Tensor(np.zeros((1, 1, 3)))
        h0 = Tensor(np.ones((1, 4)))
        out_with, _ = gru(x, h0=h0)
        out_without, _ = gru(x)
        assert not np.allclose(out_with.data, out_without.data)

    def test_gru_mask_carries_hidden_state(self):
        gru = GRU(3, 4, rng=RandomState(0))
        x = Tensor(np.random.default_rng(0).normal(size=(1, 3, 3)))
        mask = np.array([[True, False, False]])
        outputs, final = gru(x, mask=mask)
        # After the first step the mask is False, so the hidden state must not change.
        np.testing.assert_allclose(outputs.data[0, 0], outputs.data[0, 2])
        np.testing.assert_allclose(final.data[0], outputs.data[0, 0])

    def test_gru_gradients_flow_to_all_parameters(self):
        gru = GRU(3, 4, rng=RandomState(0))
        out, _ = gru(Tensor(np.random.default_rng(0).normal(size=(2, 4, 3))))
        out.sum().backward()
        for param in gru.parameters():
            assert param.grad is not None

    def test_sigmoid_np_bitwise_equals_tensor_sigmoid(self):
        sample = np.random.default_rng(13).normal(scale=25.0, size=1_000_000)
        edges = np.array([700.0, -700.0, 60.0, -60.0, 0.0, -0.0, np.nan, -np.nan])
        x = np.concatenate([sample, edges])
        # Bit patterns, so signed zeros and the sign of NaN count too.
        np.testing.assert_array_equal(
            _sigmoid_np(x).view(np.uint64), Tensor(x).sigmoid().data.view(np.uint64)
        )

    @pytest.mark.parametrize("rows", [1, 992])
    def test_gru_cell_step_bitwise_equals_forward(self, rows):
        """One serving step is one step of the sequence kernel, bit for bit."""
        gru = GRU(48, 48, rng=RandomState(3))
        cell = gru.cell
        gen = np.random.default_rng(rows)
        cell.b_ih.data[:] = gen.normal(size=cell.b_ih.data.shape)
        cell.b_hh.data[:] = gen.normal(size=cell.b_hh.data.shape)
        x = gen.normal(scale=2.0, size=(rows, 48))
        h = np.tanh(gen.normal(size=(rows, 48)))
        with no_grad():
            _, reference = gru(Tensor(x[:, None, :]), h0=Tensor(h))
        np.testing.assert_array_equal(
            cell.step(x, h).view(np.uint64), reference.data.view(np.uint64)
        )

    def test_gru_rejects_bad_dims(self):
        with pytest.raises(ValueError):
            GRUCell(0, 4)
