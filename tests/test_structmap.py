"""Structural-map regression, combined loss wiring, and cold starts."""

import numpy as np
import pytest

from tglink.errors import ContractError, ValidationError
from tglink.events import make_batches
from tglink.features import (
    FeatureStandardizer,
    StructuralFeatureVector,
    WindowFeatures,
    structural_feature_matrix,
)
from tglink.graphs import Graph, aggregate_window
from tglink.model import MemoryStore, train_epoch
from tglink.nn import Adam, grad_check
from tglink.structmap import (
    StructMapParams,
    StructMapTrainer,
    cold_start,
    fit_window_standardizer,
    structmap_forward,
    structmap_loss,
    structmap_loss_backward,
)

from helpers import fresh_state, random_stream, tiny_model

D_S = 6  # 4 topology features + d_p=2 walk probabilities in the tiny config


def make_params(alpha=1.0, seed=0):
    return StructMapParams(D_S, 4, hidden=5, alpha=alpha, rng=np.random.default_rng(seed))


def identity_scaler():
    return FeatureStandardizer(np.zeros(D_S), np.ones(D_S))


def window_row(g, node):
    """Raw feature row of one node (zero when absent), as cold starts receive it."""
    return structural_feature_matrix(g, 2, [node])[1][0]


class TestStructMapForward:
    def test_exactly_three_layers(self):
        sm = make_params()
        assert len(sm.mlp.weights) == 3
        assert sm.mlp.spec.hidden_dims == (5, 5)

    def test_zero_weights_zero_prediction(self):
        sm = make_params()
        for w in sm.mlp.weights:
            w.values[:] = 0.0
        for b in sm.mlp.biases:
            b.values[:] = 0.0
        fv = StructuralFeatureVector(np.ones(D_S), standardized=True)
        assert structmap_forward(sm, fv) == pytest.approx(np.zeros(4))

    def test_zero_features_bias_path(self):
        sm = make_params(seed=3)
        fv = StructuralFeatureVector(np.zeros(D_S), standardized=True)
        out = structmap_forward(sm, fv)
        manual, _ = sm.forward(np.zeros((1, D_S)))
        assert out == pytest.approx(manual[0])

    def test_rejects_unstandardized(self):
        sm = make_params()
        with pytest.raises(ContractError):
            structmap_forward(sm, StructuralFeatureVector(np.ones(D_S)))

    def test_negative_alpha_rejected(self):
        with pytest.raises(ValidationError):
            make_params(alpha=-0.5)

    def test_gradient_check(self):
        for trial in range(20):
            rng = np.random.default_rng(600 + trial)
            sm = StructMapParams(D_S, 4, 5, 1.0, rng)
            feats = rng.normal(size=(3, D_S))
            targets = rng.normal(size=(3, 4))
            for _, p in sm.parameters():
                p.zero_grad()
            _, cache = structmap_loss(sm, feats, targets)
            structmap_loss_backward(sm, cache, scale=1.0)

            def loss_only():
                loss, _ = structmap_loss(sm, feats, targets)
                return loss

            report = grad_check(loss_only, sm.parameters(), eps=1e-5, tolerance=1e-4)
            assert report.passed(1e-4), report.failures[:3]


class TestStructMapLoss:
    def test_perfect_prediction_zero_loss(self):
        sm = make_params(seed=1)
        feats = np.random.default_rng(0).normal(size=(2, D_S))
        pred, _ = sm.forward(feats)
        loss, _ = structmap_loss(sm, feats, pred)
        assert loss == 0.0

    def test_hand_computed_mse(self):
        sm = make_params(seed=2)
        for w in sm.mlp.weights:
            w.values[:] = 0.0
        for b in sm.mlp.biases:
            b.values[:] = 0.0
        targets = np.array([[1.0, 2.0, 0.0, 0.0], [0.0, 0.0, 3.0, 0.0]])
        loss, _ = structmap_loss(sm, np.zeros((2, D_S)), targets)
        assert loss == pytest.approx((1 + 4 + 9) / 8.0, abs=1e-12)

    def test_target_gradient_sign(self):
        sm = make_params(seed=4)
        feats = np.random.default_rng(1).normal(size=(2, D_S))
        targets = np.zeros((2, 4))
        loss, cache = structmap_loss(sm, feats, targets)
        d_targets = structmap_loss_backward(sm, cache, scale=1.0)
        pred, _ = sm.forward(feats)
        assert d_targets == pytest.approx(-2.0 * (pred - targets) / targets.size)

    def test_row_count_mismatch(self):
        sm = make_params()
        with pytest.raises(ContractError):
            structmap_loss(sm, np.zeros((2, D_S)), np.zeros((3, 4)))


class TestDetachedTargets:
    def test_tgn_gradients_untouched_by_structmap_backward(self):
        model = tiny_model(seed=11)
        sm = make_params(seed=5)
        feats = np.random.default_rng(2).normal(size=(3, D_S))
        targets = np.random.default_rng(3).normal(size=(3, 4))
        for _, p in model.parameters():
            p.zero_grad()
        for _, p in sm.parameters():
            p.zero_grad()
        _, cache = structmap_loss(sm, feats, targets)
        structmap_loss_backward(sm, cache, scale=1.0)
        for name, p in model.parameters():
            assert np.all(p.grad == 0.0), name
        assert any(np.any(p.grad != 0) for _, p in sm.parameters())


class TestAlphaZero:
    def _run(self, with_structmap: bool, coupled=False, alpha=0.0):
        rng = np.random.default_rng(0)
        stream = random_stream(rng, 8, 60, span=20.0)
        model = tiny_model(seed=12, span=20.0)
        trainer = None
        params = model.parameters()
        if with_structmap:
            features = WindowFeatures(stream, 0.25, 20.0, model.config.d_p)
            _, rows = fit_window_standardizer(features, make_batches(stream, 15))
            sm = StructMapParams(model.config.d_s, model.config.d_m, 5, alpha, np.random.default_rng(99))
            trainer = StructMapTrainer(sm, rows, coupled)
            params = params + sm.parameters()
        opt = Adam(params, lr=1e-2)
        state = fresh_state(model, 8)
        stats = train_epoch(stream, state, model, opt, 15, 1, np.random.default_rng(7), trainer)
        return model.state_dict(), stats

    def test_alpha_zero_leaves_tgn_trajectory_bitwise(self):
        bare, stats_bare = self._run(with_structmap=False)
        with_sm, stats_sm = self._run(with_structmap=True, alpha=0.0)
        for k in bare:
            assert np.array_equal(np.array(bare[k]), np.array(with_sm[k])), k
        assert stats_bare.total_losses == stats_sm.total_losses

    def test_alpha_changes_structmap_only_when_detached(self):
        bare, _ = self._run(with_structmap=False)
        with_sm, _ = self._run(with_structmap=True, alpha=2.5)
        for k in bare:
            assert np.array_equal(np.array(bare[k]), np.array(with_sm[k])), k

    def test_coupled_mode_changes_tgn_trajectory(self):
        bare, _ = self._run(with_structmap=False)
        coupled, _ = self._run(with_structmap=True, alpha=2.5, coupled=True)
        assert any(
            not np.array_equal(np.array(bare[k]), np.array(coupled[k])) for k in bare
        )

    def test_total_loss_decomposition(self):
        _, stats = self._run(with_structmap=True, alpha=0.6)
        for tot, tlp, sm in zip(stats.total_losses, stats.tlp_losses, stats.structmap_losses):
            assert tot == pytest.approx(tlp + 0.6 * sm, abs=1e-9)


class TestColdStart:
    def _window(self):
        g = Graph()
        g.add_edge(0, 1)
        g.add_edge(1, 2)
        return g

    def test_isolated_unseen_node_gets_bias_path(self):
        model_dm = 4
        sm = make_params(seed=6)
        store = MemoryStore(5, model_dm)
        scaler = identity_scaler()
        applied = cold_start(store, 4, window_row(self._window(), 4), 3.0, scaler, sm)
        assert applied
        expected = structmap_forward(
            sm, StructuralFeatureVector(np.zeros(D_S), standardized=True)
        )
        assert store.memory[4] == pytest.approx(expected)
        assert store.last_update[4] == 3.0

    def test_identical_neighborhoods_identical_memories(self):
        sm = make_params(seed=7)
        store = MemoryStore(6, 4)
        g = Graph()
        g.add_edge(0, 2)
        g.add_edge(1, 2)  # nodes 0 and 1 both have the single neighbor 2
        scaler = identity_scaler()
        cold_start(store, 0, window_row(g, 0), 1.0, scaler, sm)
        cold_start(store, 1, window_row(g, 1), 1.0, scaler, sm)
        assert np.array_equal(store.memory[0], store.memory[1])

    def test_idempotent(self):
        sm = make_params(seed=8)
        store = MemoryStore(3, 4)
        scaler = identity_scaler()
        assert cold_start(store, 2, window_row(self._window(), 2), 1.0, scaler, sm)
        snap = store.memory[2].copy()
        assert not cold_start(store, 2, window_row(self._window(), 2), 5.0, scaler, sm)
        assert np.array_equal(store.memory[2], snap)
        assert store.last_update[2] == 1.0

    def test_seen_node_untouched(self):
        sm = make_params(seed=9)
        store = MemoryStore(3, 4)
        store.memory[1] = 7.0
        store.last_update[1] = 2.0
        assert not cold_start(store, 1, window_row(self._window(), 1), 5.0, identity_scaler(), sm)
        assert np.all(store.memory[1] == 7.0)

    def test_cold_start_beats_zero_init_on_structured_task(self):
        # train structmap against true memories, then check its predictions
        # land closer to those memories than the zero vector does
        rng = np.random.default_rng(21)
        stream = random_stream(rng, 10, 150, span=30.0)
        model = tiny_model(seed=13, span=30.0)
        features = WindowFeatures(stream, 0.2, 30.0, model.config.d_p)
        scaler, rows = fit_window_standardizer(features, make_batches(stream, 25))
        sm = StructMapParams(model.config.d_s, model.config.d_m, 8, 1.0, np.random.default_rng(5))
        trainer = StructMapTrainer(sm, rows)
        opt = Adam(model.parameters() + sm.parameters(), lr=5e-3)
        for _ in range(15):
            state = fresh_state(model, 10)
            train_epoch(stream, state, model, opt, 25, 1, np.random.default_rng(3), trainer)
        model.flush_pending(state)
        final = state.store.memory
        wg = aggregate_window(stream, stream.end_time + 1e-9, 0.2, 30.0)
        _, raw = structural_feature_matrix(wg, model.config.d_p, list(range(10)))
        preds, _ = sm.forward(scaler.apply(raw))
        d_cold = np.linalg.norm(preds - final, axis=1).mean()
        d_zero = np.linalg.norm(final, axis=1).mean()
        assert d_cold < d_zero


class TestStandardizerFitting:
    def test_fit_over_batches(self):
        rng = np.random.default_rng(5)
        stream = random_stream(rng, 8, 80, span=10.0)
        features = WindowFeatures(stream, 0.3, 10.0, 2)
        scaler, _ = fit_window_standardizer(features, make_batches(stream, 20))
        assert scaler.mean.shape == (D_S,)
        assert np.all(scaler.sigma >= 1e-8)
