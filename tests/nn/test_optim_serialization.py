"""Tests for optimisers, gradient clipping, initialisers and checkpointing."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra import numpy as hnp

from repro.nn import (
    Adam,
    Linear,
    Module,
    Parameter,
    SGD,
    Tensor,
    clip_grad_norm,
    load_checkpoint,
    load_state_dict,
    save_checkpoint,
    save_state_dict,
)
from repro.nn import init as nn_init
from repro.utils import RandomState
from tests.reference import PerParameterAdam


def quadratic_loss(param: Parameter) -> Tensor:
    """(p - 3)^2 summed — minimised at p == 3."""
    diff = param - Tensor(np.full(param.shape, 3.0))
    return (diff * diff).sum()


class TestSGD:
    def test_converges_on_quadratic(self):
        param = Parameter(np.zeros(4))
        optimizer = SGD([param], lr=0.1)
        for _ in range(100):
            optimizer.zero_grad()
            quadratic_loss(param).backward()
            optimizer.step()
        np.testing.assert_allclose(param.data, np.full(4, 3.0), atol=1e-3)

    def test_momentum_accelerates(self):
        plain = Parameter(np.zeros(1))
        momentum = Parameter(np.zeros(1))
        opt_plain = SGD([plain], lr=0.01)
        opt_momentum = SGD([momentum], lr=0.01, momentum=0.9)
        for _ in range(20):
            for param, opt in ((plain, opt_plain), (momentum, opt_momentum)):
                opt.zero_grad()
                quadratic_loss(param).backward()
                opt.step()
        assert abs(momentum.data[0] - 3.0) < abs(plain.data[0] - 3.0)

    def test_weight_decay_shrinks_parameters(self):
        param = Parameter(np.ones(3) * 10.0)
        optimizer = SGD([param], lr=0.1, weight_decay=1.0)
        optimizer.zero_grad()
        (param * 0.0).sum().backward()
        optimizer.step()
        assert (param.data < 10.0).all()

    def test_rejects_invalid_arguments(self):
        with pytest.raises(ValueError):
            SGD([Parameter(np.zeros(1))], lr=0.0)
        with pytest.raises(ValueError):
            SGD([Parameter(np.zeros(1))], lr=0.1, momentum=1.5)
        with pytest.raises(ValueError):
            SGD([], lr=0.1)


class TestAdam:
    def test_converges_on_quadratic(self):
        param = Parameter(np.zeros(4))
        optimizer = Adam([param], lr=0.2)
        for _ in range(200):
            optimizer.zero_grad()
            quadratic_loss(param).backward()
            optimizer.step()
        np.testing.assert_allclose(param.data, np.full(4, 3.0), atol=1e-2)

    def test_skips_parameters_without_grad(self):
        with_grad = Parameter(np.zeros(2))
        without_grad = Parameter(np.ones(2))
        optimizer = Adam([with_grad, without_grad], lr=0.1)
        optimizer.zero_grad()
        quadratic_loss(with_grad).backward()
        optimizer.step()
        np.testing.assert_allclose(without_grad.data, np.ones(2))
        assert not np.allclose(with_grad.data, 0.0)

    def test_rejects_invalid_betas(self):
        with pytest.raises(ValueError):
            Adam([Parameter(np.zeros(1))], lr=0.1, betas=(1.0, 0.999))

    def test_in_place_step_matches_reference_formula(self):
        """The buffered in-place update equals the textbook Adam update."""
        rng = np.random.default_rng(0)
        data = rng.normal(size=(4, 3))
        param = Parameter(data.copy())
        optimizer = Adam([param], lr=0.05, betas=(0.9, 0.999), eps=1e-8, weight_decay=0.01)

        ref = data.copy()
        m = np.zeros_like(ref)
        v = np.zeros_like(ref)
        for t in range(1, 4):
            grad = rng.normal(size=ref.shape)
            param.grad = grad.copy()
            optimizer.step()
            g = grad + 0.01 * ref
            m = 0.9 * m + 0.1 * g
            v = 0.999 * v + 0.001 * g**2
            ref = ref - 0.05 * (m / (1 - 0.9**t)) / (np.sqrt(v / (1 - 0.999**t)) + 1e-8)
            np.testing.assert_allclose(param.data, ref, atol=1e-12)

    def test_step_does_not_replace_parameter_array(self):
        """In-place updates keep the same underlying ndarray object."""
        param = Parameter(np.ones(3))
        optimizer = Adam([param], lr=0.1)
        before = param.data
        param.grad = np.ones(3)
        optimizer.step()
        assert param.data is before

    def test_rejects_repeated_parameter_and_mixed_dtypes(self):
        shared = Parameter(np.zeros(2))
        with pytest.raises(ValueError, match="more than once"):
            Adam([shared, Parameter(np.ones(3)), shared], lr=0.1)
        with pytest.raises(ValueError, match="one parameter dtype"):
            Adam([Parameter(np.zeros(2)), Parameter(np.zeros(2, dtype=np.float32))], lr=0.1)


def _bits(array: np.ndarray) -> np.ndarray:
    return np.ascontiguousarray(array, dtype=np.float64).view(np.uint64)


@settings(max_examples=40, deadline=None)
@given(
    shapes=st.lists(
        hnp.array_shapes(min_dims=1, max_dims=3, min_side=1, max_side=4), min_size=1, max_size=6
    ),
    weight_decay=st.sampled_from([0.0, 0.01]),
    seed=st.integers(0, 2**16),
    data=st.data(),
)
def test_flat_adam_is_bitwise_the_per_parameter_oracle(shapes, weight_decay, seed, data):
    """Five steps of the flat Adam equal the per-parameter update bit for bit.

    Random shapes (size 1 and 3-D included) and, at each step, a random
    subset of parameters without a gradient, which splits the flat update
    into several spans.  Parameters and the moments of ``state_dict()`` are
    compared as ``uint64``; a parameter the oracle never updated holds zero
    moments in the flat buffers.
    """
    rng = np.random.default_rng(seed)
    flat_params = [Parameter(rng.normal(size=shape)) for shape in shapes]
    oracle_params = [Parameter(p.data.copy()) for p in flat_params]
    flat = Adam(flat_params, lr=0.05, weight_decay=weight_decay)
    oracle = PerParameterAdam(oracle_params, lr=0.05, weight_decay=weight_decay)
    for _ in range(5):
        without_grad = data.draw(st.lists(st.booleans(), min_size=len(shapes), max_size=len(shapes)))
        for p, q, skip in zip(flat_params, oracle_params, without_grad):
            grad = None if skip else rng.normal(size=p.shape) * rng.choice([1e-3, 1.0, 1e3])
            p.grad = None if grad is None else grad.copy()
            q.grad = None if grad is None else grad.copy()
        flat.step()
        oracle.step()

    state = flat.state_dict()
    assert set(state["arrays"]) == {"m", "v"} and state["extra"] == {"t": 5}
    offset = 0
    for p, q in zip(flat_params, oracle_params):
        np.testing.assert_array_equal(_bits(p.data), _bits(q.data))
        m, v = (state["arrays"][key][offset : offset + p.size].reshape(p.shape) for key in "mv")
        offset += p.size
        zeros = np.zeros(p.shape)
        expected_m, expected_v = oracle.state.get(id(q), (zeros, zeros))[:2]
        np.testing.assert_array_equal(_bits(m), _bits(expected_m))
        np.testing.assert_array_equal(_bits(v), _bits(expected_v))


class TestClipGradNorm:
    def test_clips_large_gradients(self):
        param = Parameter(np.zeros(3))
        param.grad = np.array([3.0, 4.0, 0.0])
        norm = clip_grad_norm([param], max_norm=1.0)
        assert norm == pytest.approx(5.0)
        np.testing.assert_allclose(np.linalg.norm(param.grad), 1.0, atol=1e-9)

    def test_leaves_small_gradients_untouched(self):
        param = Parameter(np.zeros(2))
        param.grad = np.array([0.1, 0.1])
        clip_grad_norm([param], max_norm=10.0)
        np.testing.assert_allclose(param.grad, [0.1, 0.1])

    def test_handles_no_gradients(self):
        assert clip_grad_norm([Parameter(np.zeros(2))], max_norm=1.0) == 0.0


class TestInitialisers:
    def test_xavier_uniform_bound(self):
        rng = RandomState(0)
        weights = nn_init.xavier_uniform((100, 50), rng=rng)
        bound = np.sqrt(6.0 / 150)
        assert np.abs(weights).max() <= bound + 1e-12

    def test_xavier_normal_std(self):
        rng = RandomState(0)
        weights = nn_init.xavier_normal((500, 500), rng=rng)
        assert weights.std() == pytest.approx(np.sqrt(2.0 / 1000), rel=0.1)

    def test_orthogonal_columns(self):
        rng = RandomState(0)
        q = nn_init.orthogonal((6, 6), rng=rng)
        np.testing.assert_allclose(q @ q.T, np.eye(6), atol=1e-8)

    def test_zeros(self):
        np.testing.assert_allclose(nn_init.zeros((3, 2)), np.zeros((3, 2)))

    def test_fans_require_shape(self):
        with pytest.raises(ValueError):
            nn_init.xavier_uniform(())


class TestSerialization:
    def test_state_dict_roundtrip(self, tmp_path):
        state = {"a.weight": np.arange(6, dtype=np.float64).reshape(2, 3), "b": np.zeros(4)}
        path = save_state_dict(state, tmp_path / "ckpt.npz", metadata={"epoch": 3})
        loaded, metadata = load_state_dict(path)
        assert metadata == {"epoch": 3}
        np.testing.assert_allclose(loaded["a.weight"], state["a.weight"])
        np.testing.assert_allclose(loaded["b"], state["b"])

    def test_checkpoint_restores_module(self, tmp_path):
        model1 = Linear(4, 3, rng=RandomState(0))
        model2 = Linear(4, 3, rng=RandomState(99))
        save_checkpoint(model1, tmp_path / "model.npz", metadata={"note": "test"})
        metadata = load_checkpoint(model2, tmp_path / "model.npz")
        assert metadata["note"] == "test"
        np.testing.assert_allclose(model1.weight.data, model2.weight.data)

    def test_missing_suffix_resolved(self, tmp_path):
        model = Linear(2, 2, rng=RandomState(0))
        save_checkpoint(model, tmp_path / "weights")
        load_checkpoint(model, tmp_path / "weights")
