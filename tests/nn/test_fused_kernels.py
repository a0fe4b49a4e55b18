"""Gradient-parity suite: fused sequence kernels vs the per-step graph path.

Every kernel in :mod:`repro.nn.fused` promises to be numerically
interchangeable with the composite autograd formulation it replaces (kept in
``tests/reference.py``).  These tests drive both paths from identical
inputs/weights over random shapes — including ragged masks and rows with zero
valid steps — and require forward values and every gradient to agree to
tight absolute tolerance.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.nn import (
    GRU,
    Tensor,
    fused_gaussian_kl,
    fused_linear,
    fused_masked_nll,
    fused_reparameterize,
    fused_successor_nll,
    gru_sequence,
    log_softmax,
    masked_log_softmax,
    no_grad,
    sequence_nll,
)
from repro.nn.layers import Embedding
from repro.roadnet import RoadNetwork
from repro.utils.rng import RandomState
from tests import reference

ATOL = 1e-9


def assert_close(actual, expected, label=""):
    np.testing.assert_allclose(actual, expected, atol=ATOL, rtol=0.0, err_msg=label)


# --------------------------------------------------------------------------- #
# GRU
# --------------------------------------------------------------------------- #
def _run_gru(gru, fused, x_data, h0_data, mask, out_mult, hn_mult):
    for p in gru.parameters():
        p.zero_grad()
    x = Tensor(x_data, requires_grad=True)
    h0 = Tensor(h0_data, requires_grad=True)
    if fused:
        outputs, h_n = gru(x, h0=h0, mask=mask)
    else:
        outputs, h_n = reference.gru_forward(gru, x, h0=h0, mask=mask)
    loss = (outputs * Tensor(out_mult)).sum() + (h_n * Tensor(hn_mult)).sum()
    loss.backward()
    grads = {name: p.grad.copy() for name, p in gru.named_parameters()}
    return outputs.data, h_n.data, x.grad, h0.grad, grads


MASK_CASES = ["none", "ragged", "zero_rows", "all_false"]


def _make_mask(case, rng, batch, time):
    if case == "none":
        return None
    if case == "ragged":
        lengths = rng.integers(1, time + 1, size=batch)
        return np.arange(time)[None, :] < lengths[:, None]
    if case == "zero_rows":
        mask = rng.random((batch, time)) > 0.4
        mask[0] = False  # a zero-length sequence inside the batch
        return mask
    return np.zeros((batch, time), dtype=bool)


class TestGRUSequenceParity:
    @pytest.mark.parametrize("mask_case", MASK_CASES)
    @pytest.mark.parametrize("shape", [(1, 1, 2, 3), (4, 7, 3, 5), (2, 11, 6, 4)])
    def test_matches_per_step_graph(self, mask_case, shape):
        batch, time, in_dim, hidden = shape
        rng = np.random.default_rng(batch * 100 + time)
        gru = GRU(in_dim, hidden, rng=RandomState(0))
        x = rng.normal(size=(batch, time, in_dim))
        h0 = rng.normal(size=(batch, hidden))
        mask = _make_mask(mask_case, rng, batch, time)
        out_mult = rng.normal(size=(batch, time, hidden))
        hn_mult = rng.normal(size=(batch, hidden))

        ref = _run_gru(gru, False, x, h0, mask, out_mult, hn_mult)
        got = _run_gru(gru, True, x, h0, mask, out_mult, hn_mult)
        for label, a, b in zip(
            ("outputs", "h_n", "dx", "dh0"), ref[:4], got[:4]
        ):
            assert_close(b, a, label)
        for name in ref[4]:
            assert_close(got[4][name], ref[4][name], name)

    def test_no_grad_skips_graph(self):
        gru = GRU(3, 4, rng=RandomState(1))
        x = Tensor(np.random.default_rng(0).normal(size=(2, 5, 3)))
        with no_grad():
            outputs, h_n = gru(x)
        assert outputs._backward is None and not outputs.requires_grad
        np.testing.assert_allclose(outputs.data[:, -1, :], h_n.data)

    def test_direct_kernel_rejects_empty_time(self):
        gru = GRU(3, 4, rng=RandomState(2))
        cell = gru.cell
        with pytest.raises(ValueError):
            gru_sequence(
                Tensor(np.zeros((2, 0, 3))),
                Tensor(np.zeros((2, 4))),
                cell.w_ih,
                cell.w_hh,
                cell.b_ih,
                cell.b_hh,
            )
        with pytest.raises(ValueError):
            gru(Tensor(np.zeros((2, 0, 3))))


# --------------------------------------------------------------------------- #
# embedding gather
# --------------------------------------------------------------------------- #
class TestEmbeddingGatherParity:
    @pytest.mark.parametrize("idx_shape", [(6,), (3, 5), (2, 4, 3)])
    def test_matches_index_select(self, idx_shape):
        rng = np.random.default_rng(7)
        emb = Embedding(11, 4, rng=RandomState(4))
        idx = rng.integers(0, 11, size=idx_shape)
        mult = rng.normal(size=idx_shape + (4,))

        emb.weight.zero_grad()
        (emb(idx) * Tensor(mult)).sum().backward()
        fused_grad = emb.weight.grad.copy()

        emb.weight.zero_grad()
        (emb.weight.index_select(idx) * Tensor(mult)).sum().backward()
        assert_close(fused_grad, emb.weight.grad, "embedding grad")

    def test_duplicate_indices_accumulate(self):
        emb = Embedding(5, 3, rng=RandomState(5))
        out = emb(np.array([2, 2, 2, 0]))
        out.sum().backward()
        np.testing.assert_allclose(emb.weight.grad[2], np.full(3, 3.0))
        np.testing.assert_allclose(emb.weight.grad[0], np.ones(3))
        np.testing.assert_allclose(emb.weight.grad[1], np.zeros(3))


# --------------------------------------------------------------------------- #
# fused NLL (full-vocabulary + sparse successor)
# --------------------------------------------------------------------------- #
class TestFusedMaskedNLLParity:
    @pytest.mark.parametrize("flat_logits", [False, True])
    @pytest.mark.parametrize("with_valid", [False, True])
    def test_matches_graph_path(self, flat_logits, with_valid):
        """``(batch, time, V)`` logits as the unconstrained decoders pass them,
        ``(N, V)`` as RP-VAE does."""
        rng = np.random.default_rng(11)
        batch, time, vocab = 4, 6, 13
        logits_data = rng.normal(size=(batch, time, vocab)) * 3
        targets = rng.integers(0, vocab, size=(batch, time))
        valid = (rng.random((batch, time)) > 0.3) if with_valid else None
        mult = rng.normal(size=(batch, time))
        if flat_logits:
            logits_data = logits_data.reshape(-1, vocab)
            targets, mult = targets.reshape(-1), mult.reshape(-1)
            valid = None if valid is None else valid.reshape(-1)

        ref_logits = Tensor(logits_data, requires_grad=True)
        ref = sequence_nll(log_softmax(ref_logits, axis=-1), targets, mask=valid, reduction="none")
        (ref * Tensor(mult)).sum().backward()

        got_logits = Tensor(logits_data, requires_grad=True)
        got = fused_masked_nll(got_logits, targets, valid_mask=valid)
        (got * Tensor(mult)).sum().backward()

        assert_close(got.data, ref.data, "nll forward")
        assert_close(got_logits.grad, ref_logits.grad, "dlogits")


def _successor_nll(fused, hidden_data, weight_data, bias_data, transition, inputs, targets, valid, mult):
    """Forward and gradients of the successor NLL, fused or the dense reference.

    The reference is the composite dense decoder: ``hidden @ weight + bias``
    through ``masked_log_softmax`` over each input's successors, then
    ``sequence_nll``.
    """
    hidden = Tensor(hidden_data, requires_grad=True)
    weight = Tensor(weight_data, requires_grad=True)
    bias = Tensor(bias_data, requires_grad=True)
    if fused:
        succ_idx, succ_valid = reference.build_successor_table(transition)
        nll = fused_successor_nll(
            hidden,
            weight,
            bias,
            succ_idx[inputs],
            succ_valid[inputs],
            targets,
            transition[inputs, targets],
            valid_mask=valid,
        )
    else:
        log_probs = masked_log_softmax(hidden @ weight + bias, transition[inputs], axis=-1)
        nll = sequence_nll(log_probs, targets, mask=valid, reduction="none")
    (nll * Tensor(mult)).sum().backward()
    return nll.data, hidden.grad, weight.grad, bias.grad


class TestFusedSuccessorNLLParity:
    def test_matches_dense_masked_path(self):
        rng = np.random.default_rng(13)
        vocab, hidden_dim = 19, 5
        transition = rng.random((vocab, vocab)) > 0.7
        # Every segment has a successor, and column 0 is a candidate of every row.
        transition[:, 0] = True

        batch, time = 5, 7
        inputs = rng.integers(0, vocab, size=(batch, time))
        inputs[2] = inputs[1]  # two rows over the same segments share every column
        lengths = rng.integers(1, time + 1, size=batch)
        valid = np.arange(time)[None, :] < lengths[:, None]  # padded rows
        valid[0] = False  # a zero-length row
        targets = np.array(
            [[rng.choice(np.flatnonzero(transition[s])) for s in row] for row in inputs]
        )
        # One valid step enters a segment that is not a successor.
        bad = (1, 0)
        valid[bad] = True
        targets[bad] = np.flatnonzero(~transition[inputs[bad]])[0]
        args = (
            rng.normal(size=(batch, time, hidden_dim)),
            rng.normal(size=(hidden_dim, vocab)),
            rng.normal(size=vocab),
            transition,
            inputs,
            targets,
            valid,
            rng.normal(size=(batch, time)),
        )

        got = _successor_nll(True, *args)
        ref = _successor_nll(False, *args)
        # A disallowed target scores ~1e9, where float64 resolves 1.2e-7: its
        # forward is checked in test_disallowed_target_scores_like_dense_path
        # on exactly representable inputs.
        allowed = np.ones_like(valid)
        allowed[bad] = False
        assert got[0][bad] > 1e8 and ref[0][bad] > 1e8
        assert_close(got[0][allowed], ref[0][allowed], "nll forward")
        for label, a, b in zip(("dhidden", "dweight", "dbias"), got[1:], ref[1:]):
            assert_close(a, b, label)

    def test_disallowed_target_scores_like_dense_path(self):
        """An anomalous transition gets the huge NEG_INF-derived NLL and the
        same gradient as the dense masked path (softmax term only — the
        disallowed target itself contributes no onehot gradient)."""
        vocab, hidden_dim = 6, 3
        transition = np.zeros((vocab, vocab), dtype=bool)
        transition[:, 1:3] = True
        inputs = np.array([[0]])
        targets = np.array([[3]])  # not a successor
        # Zero weights keep every logit exactly 0, so both paths are exact.
        args = (
            np.random.default_rng(0).normal(size=(1, 1, hidden_dim)),
            np.zeros((hidden_dim, vocab)),
            np.zeros(vocab),
            transition,
            inputs,
            targets,
            np.array([[True]]),
            np.ones((1, 1)),
        )
        got = _successor_nll(True, *args)
        ref = _successor_nll(False, *args)
        assert got[0][0, 0] > 1e8
        for label, a, b in zip(("nll forward", "dhidden", "dweight", "dbias"), got, ref):
            assert_close(a, b, label)
        # The disallowed target column itself carries no gradient.
        assert got[3][3] == 0.0 and not got[2][:, 3].any()

    def test_degenerate_valid_row_raises(self):
        """A valid step off a dead end is rejected, naming the segment, by the
        check every caller of the kernel runs first; a padded one is not."""
        network = RoadNetwork(name="spur")
        for node, (x, y) in enumerate([(0, 0), (100, 0), (200, 0)]):
            network.add_intersection(node, x, y)
        network.add_bidirectional_road(0, 1)  # segments 0 and 1
        network.add_segment(1, 2)  # segment 2: a one-way spur into a dead end
        graph = network.compiled()
        current, following = np.array([[0, 2]]), np.array([[2, 1]])
        with pytest.raises(ValueError, match=r"\bsegment 2\b.*no successor"):
            graph.step_candidates(current, following, valid=np.array([[True, True]]))
        _, cand_valid, allowed = graph.step_candidates(
            current, following, valid=np.array([[True, False]])
        )
        assert not cand_valid[0, 1].any()
        assert allowed.tolist() == [[True, False]]


# --------------------------------------------------------------------------- #
# fused linear / KL / reparameterisation
# --------------------------------------------------------------------------- #
class TestFusedPrimitivesParity:
    def test_fused_linear_matches_composite(self):
        rng = np.random.default_rng(17)
        x_data = rng.normal(size=(3, 5, 4))
        w_data = rng.normal(size=(4, 6))
        b_data = rng.normal(size=(6,))
        mult = rng.normal(size=(3, 5, 6))

        x1 = Tensor(x_data, requires_grad=True)
        w1 = Tensor(w_data, requires_grad=True)
        b1 = Tensor(b_data, requires_grad=True)
        ((x1 @ w1 + b1) * Tensor(mult)).sum().backward()

        x2 = Tensor(x_data, requires_grad=True)
        w2 = Tensor(w_data, requires_grad=True)
        b2 = Tensor(b_data, requires_grad=True)
        (fused_linear(x2, w2, b2) * Tensor(mult)).sum().backward()

        assert_close(x2.grad, x1.grad, "dx")
        assert_close(w2.grad, w1.grad, "dW")
        assert_close(b2.grad, b1.grad, "db")

    def test_fused_gaussian_kl_matches_composite(self):
        rng = np.random.default_rng(19)
        mu_data = rng.normal(size=(7, 4))
        lv_data = rng.normal(size=(7, 4))
        mult = rng.normal(size=(7,))

        mu1 = Tensor(mu_data, requires_grad=True)
        lv1 = Tensor(lv_data, requires_grad=True)
        kl_ref = (lv1.exp() + mu1 * mu1 - 1.0 - lv1).sum(axis=-1) * 0.5
        (kl_ref * Tensor(mult)).sum().backward()

        mu2 = Tensor(mu_data, requires_grad=True)
        lv2 = Tensor(lv_data, requires_grad=True)
        kl_got = fused_gaussian_kl(mu2, lv2)
        (kl_got * Tensor(mult)).sum().backward()

        assert_close(kl_got.data, kl_ref.data, "kl forward")
        assert_close(mu2.grad, mu1.grad, "dmu")
        assert_close(lv2.grad, lv1.grad, "dlogvar")

    def test_fused_reparameterize_matches_composite(self):
        rng = np.random.default_rng(23)
        mu_data = rng.normal(size=(5, 3))
        lv_data = rng.normal(size=(5, 3))
        eps = rng.normal(size=(5, 3))
        mult = rng.normal(size=(5, 3))

        mu1 = Tensor(mu_data, requires_grad=True)
        lv1 = Tensor(lv_data, requires_grad=True)
        z_ref = mu1 + (lv1 * 0.5).exp() * Tensor(eps)
        (z_ref * Tensor(mult)).sum().backward()

        mu2 = Tensor(mu_data, requires_grad=True)
        lv2 = Tensor(lv_data, requires_grad=True)
        z_got = fused_reparameterize(mu2, lv2, eps)
        (z_got * Tensor(mult)).sum().backward()

        assert_close(z_got.data, z_ref.data, "sample forward")
        assert_close(mu2.grad, mu1.grad, "dmu")
        assert_close(lv2.grad, lv1.grad, "dlogvar")


# --------------------------------------------------------------------------- #
# end-to-end: CausalTAD fused vs graph gradients
# --------------------------------------------------------------------------- #
class TestModelLevelParity:
    def test_causal_tad_gradients_match(self):
        from repro.core import RPVAE, TGVAE, CausalTAD, CausalTADConfig
        from repro.roadnet import generate_grid_city
        from repro.trajectory.dataset import encode_batch
        from repro.trajectory.types import MapMatchedTrajectory

        network = generate_grid_city(4, 4)
        config = CausalTADConfig.tiny(network.num_segments)
        # Two models from one seed: identical weights and random streams.
        fused = CausalTAD(config, network=network, rng=RandomState(7))
        graph = CausalTAD(config, network=network, rng=RandomState(7))
        graph.load_state_dict(fused.state_dict())

        transition = network.transition_mask()
        rng = np.random.default_rng(8)
        walks = []
        for ride in range(6):
            segments = [int(rng.integers(network.num_segments))]
            for _ in range(rng.integers(3, 12)):
                successors = np.flatnonzero(transition[segments[-1]])
                if successors.size == 0:
                    break
                segments.append(int(rng.choice(successors)))
            walks.append(MapMatchedTrajectory(trajectory_id=f"w{ride}", segments=segments))
        batch = encode_batch(walks, network.num_segments)

        def backward(model, tg_forward, rp_forward):
            model.train()
            model.zero_grad()
            out = tg_forward(model.tg_vae, batch, model.road_graph, deterministic_latent=True)
            rp = rp_forward(model.rp_vae, batch)
            (out.loss + rp.loss).backward()
            return {name: p.grad.copy() for name, p in model.named_parameters()
                    if p.grad is not None}

        fused_grads = backward(fused, TGVAE.forward, RPVAE.forward)
        graph_grads = backward(graph, reference.tg_vae_forward, reference.rp_vae_forward)
        assert set(fused_grads) == set(graph_grads)
        for name in graph_grads:
            np.testing.assert_allclose(
                fused_grads[name], graph_grads[name], atol=1e-8, rtol=0.0, err_msg=name
            )

    @pytest.mark.parametrize(
        "variant_kwargs",
        [
            dict(variational=False),
            dict(beta=2.0, factor_gamma=0.5),
            dict(num_mixture_components=3, time_aware=True),
        ],
        ids=["sae", "factor", "gm_time"],
    )
    def test_seq2seq_gradients_match(self, variant_kwargs):
        from repro.baselines import DetectorConfig
        from repro.baselines.seq2seq import Seq2SeqVAEModel, Seq2SeqVariant
        from repro.trajectory.dataset import encode_batch
        from repro.trajectory.types import MapMatchedTrajectory

        num_segments = 23
        config = DetectorConfig.tiny(num_segments)
        variant = Seq2SeqVariant(**variant_kwargs)
        fused = Seq2SeqVAEModel(config, variant, rng=RandomState(5))
        graph = Seq2SeqVAEModel(config, variant, rng=RandomState(5))
        graph.load_state_dict(fused.state_dict())

        rng = np.random.default_rng(6)
        walks = [
            MapMatchedTrajectory(
                trajectory_id=f"w{ride}",
                segments=[int(s) for s in rng.integers(0, num_segments, size=rng.integers(2, 10))],
            )
            for ride in range(5)
        ]
        batch = encode_batch(walks, num_segments)

        def backward(model, forward):
            model.train()
            model.zero_grad()
            out = forward(model, batch)
            out.loss.backward()
            grads = {name: p.grad.copy() for name, p in model.named_parameters()
                     if p.grad is not None}
            return out.per_trajectory_nll, grads

        fused_nll, fused_grads = backward(fused, Seq2SeqVAEModel.forward)
        graph_nll, graph_grads = backward(graph, reference.seq2seq_forward)
        np.testing.assert_allclose(fused_nll, graph_nll, atol=ATOL, rtol=0.0)
        assert set(fused_grads) == set(graph_grads)
        for name in graph_grads:
            np.testing.assert_allclose(
                fused_grads[name], graph_grads[name], atol=1e-8, rtol=0.0, err_msg=name
            )
