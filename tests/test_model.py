"""Neighbor cache, messages, memory updates, embedding, training, accounting."""

import copy

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from tglink.errors import ContractError, DivergenceError
from tglink.events import EventBatch, EventStream, make_batches
from tglink.model import (
    MemoryStore,
    ModelConfig,
    NeighborCache,
    RunState,
    TgnModel,
    bce_loss,
    backward_batch,
    count_parameters,
    forward_batch,
    stream_batches,
    train_epoch,
)
from tglink.nn import Adam, MlpSpec

from helpers import copy_state, fresh_state, grad_check, random_stream, tiny_model
from oracles import DequeNeighborCache


def single_batch(src, dst, ts, num_nodes, d_e=0, feats=None):
    n = len(src)
    feat = np.asarray(feats, dtype=float) if feats is not None else np.empty((n, d_e))
    stream = EventStream(
        np.array(src, np.int64), np.array(dst, np.int64), np.array(ts, float), feat, num_nodes
    )
    return stream, EventBatch(stream, 0, n)


@st.composite
def cache_runs(draw):
    """A small stream cut into batches.

    Few nodes make a node appear more than k times in one batch, and
    timestamps drawn from six values make ties common.
    """
    k = draw(st.integers(1, 5))
    d_e = draw(st.integers(0, 2))
    n = draw(st.integers(2, 6))
    m = draw(st.integers(1, 40))
    events = st.lists(st.integers(0, n - 1), min_size=m, max_size=m)
    src = np.array(draw(events), dtype=np.int64)
    shift = np.array(draw(st.lists(st.integers(1, n - 1), min_size=m, max_size=m)))
    ts = np.sort(draw(st.lists(st.integers(0, 5), min_size=m, max_size=m))) * 0.37
    feat = draw(
        st.lists(st.floats(-10, 10, allow_subnormal=False), min_size=m * d_e, max_size=m * d_e)
    )
    stream = EventStream(src, (src + shift) % n, ts, np.reshape(feat, (m, d_e)), n)
    batches, lo = [], 0
    while lo < m:
        hi = min(m, lo + draw(st.integers(1, 15)))
        batches.append(EventBatch(stream, lo, hi))
        lo = hi
    return k, d_e, n, batches


def assert_cache_matches(cache: NeighborCache, oracle: DequeNeighborCache, n: int) -> None:
    ids, times, feat, mask = cache.gather(np.arange(n))
    for u in range(n):
        recent = oracle.recent(u)
        filled = len(recent)
        assert mask[u].tolist() == [j < filled for j in range(cache.k)]
        assert ids[u, :filled].tolist() == [e[0] for e in recent]
        assert times[u, :filled].tobytes() == np.array([e[1] for e in recent]).tobytes()
        for j, e in enumerate(recent):
            assert feat[u, j].tobytes() == np.asarray(e[2], dtype=np.float64).tobytes()
        # Empty slots are +0 exactly, not merely equal to zero.
        assert not ids[u, filled:].any()
        assert times[u, filled:].tobytes() == bytes(times[u, filled:].nbytes)
        assert feat[u, filled:].tobytes() == bytes(feat[u, filled:].nbytes)


def assert_same_cache(a: NeighborCache, b: NeighborCache) -> None:
    for name in ("ids", "times", "feat", "count"):
        assert getattr(a, name).tobytes() == getattr(b, name).tobytes(), name


def _pinned_run():
    """k = 1, d_e = 2, a one-event batch, then node 0 four times at tied times."""
    feat = np.arange(10, dtype=np.float64).reshape(5, 2) / 3
    stream = EventStream([0, 0, 0, 1, 2], [1, 2, 1, 0, 0], [0, 0, 0.37, 0.37, 0.74], feat, 3)
    return 1, 2, 3, [EventBatch(stream, 0, 1), EventBatch(stream, 1, 5)]


class TestNeighborCache:
    @given(run=cache_runs())
    @example(run=_pinned_run())
    @settings(max_examples=150, deadline=None)
    def test_matches_deque_oracle(self, run):
        k, d_e, n, batches = run
        cache, oracle = NeighborCache(n, k, d_e), DequeNeighborCache(n, k, d_e)
        assert_cache_matches(cache, oracle, n)
        for batch in batches:
            cache.insert_batch(batch)
            oracle.insert_batch(batch)
            assert_cache_matches(cache, oracle, n)


class TestComputeMessages:
    def test_zeroed_mlp_gives_zero_messages(self):
        model = tiny_model()
        for w in model.message_mlp.weights:
            w.values[:] = 0.0
        for b in model.message_mlp.biases:
            b.values[:] = 0.0
        _, batch = single_batch([0, 1], [1, 2], [1.0, 2.0], 5)
        store = MemoryStore(5, model.config.d_m)
        msgs = model.compute_messages(batch, store)
        assert msgs.values == pytest.approx(np.zeros_like(msgs.values))

    def test_zero_inputs_through_relu(self):
        # zero memories, zero features, and zeroed time-encoding columns:
        # every pre-activation is 0, so ReLU and the output head emit 0
        model = tiny_model()
        d_m, d_t = model.config.d_m, model.config.d_t
        model.message_mlp.weights[0].values[2 * d_m : 2 * d_m + d_t, :] = 0.0
        for b in model.message_mlp.biases:
            b.values[:] = 0.0
        _, batch = single_batch([0], [1], [0.0], 3)
        msgs = model.compute_messages(batch, MemoryStore(3, d_m))
        assert msgs.values == pytest.approx(np.zeros((2, d_m)), abs=1e-15)

    def test_one_event_one_message_per_endpoint(self):
        model = tiny_model()
        _, batch = single_batch([3], [1], [2.5], 5)
        msgs = model.compute_messages(batch, MemoryStore(5, model.config.d_m))
        assert msgs.nodes.tolist() == [1, 3]
        assert msgs.timestamps.tolist() == [2.5, 2.5]

    def test_keep_latest_reduction(self):
        model = tiny_model()
        store = MemoryStore(6, model.config.d_m)
        store.memory[:] = np.random.default_rng(0).normal(size=store.memory.shape)
        _, batch3 = single_batch([0, 0, 0], [1, 2, 3], [1.0, 2.0, 3.0], 6)
        msgs = model.compute_messages(batch3, store)
        _, latest_only = single_batch([0], [3], [3.0], 6)
        latest = model.compute_messages(latest_only, store)
        i = msgs.nodes.tolist().index(0)
        assert msgs.values[i] == pytest.approx(latest.values[latest.nodes.tolist().index(0)])
        assert msgs.timestamps[i] == 3.0

    def test_capacity_error(self):
        model = tiny_model()
        _, batch = single_batch([0], [4], [1.0], 5)
        with pytest.raises(ContractError):
            model.compute_messages(batch, MemoryStore(3, model.config.d_m))


class TestUpdateMemory:
    def test_empty_messages_noop(self):
        model = tiny_model()
        store = MemoryStore(4, model.config.d_m)
        from tglink.model import Messages

        before = store.snapshot()
        model.update_memory(store, Messages([], np.zeros((0, model.config.d_m)), np.zeros(0)))
        assert np.array_equal(store.memory, before[0])

    def test_first_event_sets_last_update(self):
        model = tiny_model()
        store = MemoryStore(5, model.config.d_m)
        _, batch = single_batch([0], [1], [3.25], 5)
        model.update_memory(store, model.compute_messages(batch, store))
        assert store.last_update[0] == 3.25
        assert store.last_update[1] == 3.25
        assert store.last_update[2] == -np.inf

    def test_replay_one_per_batch_vs_single_batch(self):
        model = tiny_model()
        num_nodes = 6
        events = ([0, 0, 0], [1, 2, 3], [1.0, 2.0, 3.0])

        s1 = MemoryStore(num_nodes, model.config.d_m)
        for s, d, t in zip(*events):
            _, b = single_batch([s], [d], [t], num_nodes)
            model.update_memory(s1, model.compute_messages(b, s1))

        s2 = MemoryStore(num_nodes, model.config.d_m)
        _, batch = single_batch(*events, num_nodes)
        model.update_memory(s2, model.compute_messages(batch, s2))

        assert np.array_equal(s1.last_update, s2.last_update)
        # the first event's endpoints see identical inputs either way; later
        # nodes legitimately differ (single-batch messages read pre-batch
        # partner memory, replay reads updated partner memory)
        assert s1.memory[1] == pytest.approx(s2.memory[1])
        assert not np.allclose(s1.memory[0], s2.memory[0])

    def test_divergence_detection(self):
        model = tiny_model()
        store = MemoryStore(4, model.config.d_m)
        from tglink.model import Messages

        bad = Messages([0], np.array([[np.nan] * model.config.d_m]), np.array([1.0]))
        with pytest.raises(DivergenceError):
            model.update_memory(store, bad)

    def test_untouched_nodes_stay_zero(self):
        model = tiny_model()
        rng = np.random.default_rng(1)
        stream = random_stream(rng, 8, 30)
        state = fresh_state(model, 12)  # nodes 8..11 never appear
        for batch in make_batches(stream, 5):
            model.flush_pending(state)
            state.pending = batch
            state.cache.insert_batch(batch)
        model.flush_pending(state)
        assert np.all(state.store.memory[8:] == 0.0)
        assert np.all(state.store.last_update[8:] == -np.inf)

    def test_last_update_monotone_over_run(self):
        model = tiny_model()
        rng = np.random.default_rng(3)
        stream = random_stream(rng, 6, 40)
        state = fresh_state(model, 6)
        prev = state.store.last_update.copy()
        for batch in make_batches(stream, 4):
            model.flush_pending(state)
            assert np.all(state.store.last_update >= prev)
            prev = state.store.last_update.copy()
            state.pending = batch
            state.cache.insert_batch(batch)


class TestEmbed:
    def test_fresh_node_is_query_projection(self):
        model = tiny_model()
        state = fresh_state(model, 4)
        emb = model.embed([2], 5.0, state.store, state.cache)
        att = model.attention
        enc, _ = model.time_enc.forward(np.array([5.0]))  # never seen -> dt = t
        q_in = np.concatenate([np.zeros((1, model.config.d_m)), enc], axis=1)
        q = q_in @ att.w_q.values + att.b_q.values
        expected = (
            np.concatenate([q, np.zeros((1, model.config.d_att))], axis=1) @ att.w_o.values
            + att.b_o.values
        )
        assert emb == pytest.approx(expected)

    def test_single_neighbor_full_weight(self):
        model = tiny_model()
        state = fresh_state(model, 4)
        _, batch = single_batch([0], [1], [1.0], 4)
        state.pending = batch
        state.cache.insert_batch(batch)
        model.flush_pending(state)
        # node 0 has exactly one cached neighbor: attention output equals the
        # projected value of that neighbor
        emb = model.embed([0], 2.0, state.store, state.cache)
        att = model.attention
        cfg = model.config
        q_enc, _ = model.time_enc.forward(np.array([2.0 - 1.0]))
        q_in = np.concatenate([state.store.memory[[0]], q_enc], axis=1)
        q = q_in @ att.w_q.values + att.b_q.values
        k_enc, _ = model.time_enc.forward(np.array([1.0]))
        kv_in = np.concatenate([state.store.memory[[1]], k_enc], axis=1)
        v = kv_in @ att.w_v.values + att.b_v.values
        expected = np.concatenate([q, v], axis=1) @ att.w_o.values + att.b_o.values
        assert emb == pytest.approx(expected)

    def test_embedding_time_contract(self):
        model = tiny_model()
        state = fresh_state(model, 4)
        _, batch = single_batch([0], [1], [5.0], 4)
        state.pending = batch
        model.flush_pending(state)
        with pytest.raises(ContractError):
            model.embed([0], 4.0, state.store, state.cache)


class TestScoring:
    def test_zero_decoder_gives_half(self):
        model = tiny_model()
        for w in model.decoder.weights:
            w.values[:] = 0.0
        for b in model.decoder.biases:
            b.values[:] = 0.0
        rng = np.random.default_rng(0)
        stream = random_stream(rng, 6, 6)
        batch = EventBatch(stream, 0, 6)
        negs = rng.integers(0, 6, size=(6, 2))
        fwd = forward_batch(model, batch, negs, fresh_state(model, 6))
        probs = np.concatenate([fwd.pos_probs, fwd.neg_probs.reshape(-1)])
        assert probs == pytest.approx(np.full(18, 0.5))
        assert fwd.tlp_loss == pytest.approx(np.log(2))
        assert bce_loss(probs, np.repeat([1.0, 0.0], [6, 12])) == pytest.approx(np.log(2))

    def test_bce_near_zero_when_confident(self):
        eps = 1e-9
        scores = np.array([1 - eps, eps, 1 - eps])
        labels = np.array([1.0, 0.0, 1.0])
        assert bce_loss(scores, labels) < 1e-8

    def test_forward_batch_loss_matches_bce(self):
        model = tiny_model(seed=4)
        rng = np.random.default_rng(0)
        stream = random_stream(rng, 6, 12)
        state = fresh_state(model, 6)
        batch = make_batches(stream, 12)[0]
        negs = np.zeros((12, 2), dtype=np.int64)
        fwd = forward_batch(model, batch, negs, state)
        probs = np.concatenate([fwd.pos_probs, fwd.neg_probs.reshape(-1)])
        labels = np.concatenate([np.ones(12), np.zeros(24)])
        assert fwd.tlp_loss == pytest.approx(bce_loss(probs, labels), abs=1e-9)


class TestLeakageGuard:
    def test_predictions_independent_of_later_application(self):
        rng = np.random.default_rng(11)
        model = tiny_model(seed=2)
        stream = random_stream(rng, 7, 24)
        batches = make_batches(stream, 6)
        state = fresh_state(model, 7)
        for b in batches[:2]:
            model.flush_pending(state)
            state.pending = b
            state.cache.insert_batch(b)
        model.flush_pending(state)
        target = batches[2]
        negs = np.zeros((len(target), 1), dtype=np.int64)
        before = forward_batch(model, target, negs, copy_state(model, state))
        # apply the batch, then confirm the recorded predictions were not a
        # function of that application
        after_state = copy_state(model, state)
        after_state.pending = target
        after_state.cache.insert_batch(target)
        model.flush_pending(after_state)
        again = forward_batch(model, target, negs, copy_state(model, state))
        assert np.array_equal(before.pos_probs, again.pos_probs)
        assert np.array_equal(before.neg_probs, again.neg_probs)


class TestStreamBatches:
    """The one batch protocol: step i sees exactly batches < i, then batch i is queued."""

    def _setup(self):
        model = tiny_model(seed=3)
        stream = random_stream(np.random.default_rng(12), 7, 30)
        return model, make_batches(stream, 6), fresh_state(model, 7)

    def test_step_sees_exactly_the_earlier_batches(self):
        model, batches, state = self._setup()
        seen = []

        def step(batch, flush_record):
            assert state.pending is None and flush_record is None
            seen.append((batch, state.store.snapshot(), copy.deepcopy(state.cache)))

        stream_batches(model, state, batches, step)
        assert [b for b, _, _ in seen] == batches
        assert state.pending is batches[-1]
        # Reference: apply each earlier batch eagerly, insert it into a fresh cache.
        store = MemoryStore(7, model.config.d_m)
        cache = NeighborCache(7, model.config.num_neighbors, model.config.d_e)
        for batch, (memory, last_update), got_cache in seen:
            assert np.array_equal(memory, store.memory)
            assert np.array_equal(last_update, store.last_update)
            assert_same_cache(got_cache, cache)
            model.update_memory(store, model.compute_messages(batch, store))
            cache.insert_batch(batch)
        assert_same_cache(state.cache, cache)

    def test_flush_record_when_caches_wanted(self):
        model, batches, state = self._setup()
        records = []
        stream_batches(model, state, batches, lambda b, rec: records.append(rec), want_caches=True)
        assert records[0] is None
        assert all(rec is not None for rec in records[1:])

    def test_step_divergence_carries_batch_index(self):
        model, batches, state = self._setup()

        def step(batch, _):
            if batch is batches[2]:
                raise DivergenceError("non-finite loss")

        with pytest.raises(DivergenceError) as exc:
            stream_batches(model, state, batches, step)
        assert exc.value.batch_index == 2
        assert str(exc.value) == "batch 2: non-finite loss"
        # The failing batch is neither queued nor inserted.
        assert state.pending is None
        assert state.cache.count.sum() == 2 * batches[1].stop

    def test_flush_divergence_carries_next_batch_index(self):
        model, batches, state = self._setup()

        def step(batch, _):
            if batch is batches[1]:
                for _, p in model.updater.parameters():
                    p.values[:] = np.nan

        with np.errstate(invalid="ignore"), pytest.raises(DivergenceError) as exc:
            stream_batches(model, state, batches, step)
        assert exc.value.batch_index == 2


class TestTrainEpoch:
    def test_lr_zero_keeps_params_updates_memory(self):
        model = tiny_model(seed=5)
        rng = np.random.default_rng(0)
        stream = random_stream(rng, 6, 10)
        state = fresh_state(model, 6)
        before = {k: v.copy() for k, v in model.state_dict().items()}
        opt = Adam([model], lr=0.0)
        train_epoch(stream, state, model, opt, 10, 1, np.random.default_rng(1))
        model.flush_pending(state)
        after = model.state_dict()
        for k in before:
            assert np.array_equal(before[k], np.array(after[k]))
        assert np.any(state.store.memory != 0.0)

    def test_same_seed_same_losses(self):
        def run():
            model = tiny_model(seed=6)
            rng = np.random.default_rng(0)
            stream = random_stream(rng, 8, 40)
            state = fresh_state(model, 8)
            opt = Adam([model], lr=1e-2)
            return train_epoch(stream, state, model, opt, 8, 2, np.random.default_rng(3)).total_losses

        assert run() == run()

    def test_divergence_carries_batch_index(self):
        model = tiny_model(seed=7)
        model.decoder.weights[-1].values[:] = 1e308
        rng = np.random.default_rng(0)
        stream = random_stream(rng, 6, 20)
        state = fresh_state(model, 6)
        opt = Adam([model], lr=1e-3)
        with np.errstate(over="ignore"), pytest.raises(DivergenceError) as exc:
            train_epoch(stream, state, model, opt, 5, 1, np.random.default_rng(1))
        assert exc.value.batch_index == 0

    def test_training_loss_drops_below_random_guess(self):
        rng = np.random.default_rng(10)
        stream = random_stream(rng, 10, 200, span=50.0)
        model = tiny_model(seed=8, span=50.0)
        opt = Adam([model], lr=5e-3)
        means = []
        for _ in range(10):
            state = fresh_state(model, 10)
            stats = train_epoch(stream, state, model, opt, 25, 1, np.random.default_rng(4))
            means.append(stats.mean_tlp)
        assert min(means[3:]) < np.log(2)


class TestEndToEndGradient:
    def test_micro_stream_full_gradient(self):
        # 5 nodes, 8 events, both loss terms; every parameter (model and
        # structural map) checked against central differences at 1e-3
        from tglink.features import FeatureStandardizer, structural_feature_matrix
        from tglink.graphs import aggregate_window
        from tglink.structmap import StructMapParams, structmap_loss, structmap_loss_backward

        rng = np.random.default_rng(42)
        stream = random_stream(rng, 5, 8, span=10.0)
        model = tiny_model(seed=9)
        sm = StructMapParams(model.config.d_s, model.config.d_m, 5, alpha=0.7, rng=np.random.default_rng(10))
        batches = make_batches(stream, 4)

        state = fresh_state(model, 5)
        state.pending = batches[0]
        state.cache.insert_batch(batches[0])
        base = copy_state(model, state)
        target_batch = batches[1]
        negs = np.array([[int(d)] for d in (target_batch.dst + 2) % 5], dtype=np.int64)

        wg = aggregate_window(stream, target_batch.batch_start_time, 0.5, 10.0)
        nodes = sorted(set(target_batch.src.tolist()) | set(target_batch.dst.tolist()))
        _, raw = structural_feature_matrix(wg, model.config.d_p, nodes)
        scaler = FeatureStandardizer(np.zeros(model.config.d_s), np.ones(model.config.d_s))
        feats = scaler.apply(raw)

        # analytic pass: flush + predict + structmap regression on frozen targets
        work = copy_state(model, base)
        flush_rec = model.flush_pending(work, want_caches=True)
        fwd = forward_batch(model, target_batch, negs, work, want_caches=True)
        targets = work.store.memory[np.array(nodes)].copy()
        sm_loss, sm_cache = structmap_loss(sm, feats, targets)
        params = model.parameters() + sm.parameters()
        for _, p in params:
            p.grad.fill(0.0)
        dmem = backward_batch(model, fwd, 5)
        structmap_loss_backward(sm, sm_cache, scale=sm.alpha)
        model.flush_backward(flush_rec, dmem)

        def loss_only():
            w = copy_state(model, base)
            model.flush_pending(w)
            f = forward_batch(model, target_batch, negs, w)
            l_sm, _ = structmap_loss(sm, feats, targets)
            return f.tlp_loss + sm.alpha * l_sm

        report = grad_check(loss_only, params, eps=1e-5, tolerance=1e-3)
        assert report.passed(1e-3), (report.max_rel_error, report.failures[:5])
        assert report.checked == sum(p.size for _, p in params)


class TestCountParameters:
    def test_actual_equals_closed_form_random_configs(self):
        rng = np.random.default_rng(0)
        for _ in range(10):
            cfg = ModelConfig(
                d_m=int(rng.integers(2, 12)),
                d_t=int(rng.integers(1, 8)),
                d_att=int(rng.integers(2, 12)),
                d_n=int(rng.integers(2, 12)),
                d_e=int(rng.integers(0, 4)),
                message_hidden=tuple(int(x) for x in rng.integers(2, 16, rng.integers(1, 3))),
                decoder_hidden=tuple(int(x) for x in rng.integers(2, 16, rng.integers(1, 3))),
                num_neighbors=int(rng.integers(1, 6)),
            )
            model = TgnModel(cfg, span=5.0, rng=np.random.default_rng(1))
            report = count_parameters(model, num_nodes=100)
            for comp in report.components:
                forms = report.closed_forms[comp.name]
                assert comp.weights == forms["weights"], comp.name
                assert comp.biases == forms["biases"], comp.name

    def test_memory_entries_exact(self):
        model = tiny_model()
        report = count_parameters(model, num_nodes=123)
        assert report.memory_entries == 123 * model.config.d_m

    def test_memory_scales_linearly_in_n(self):
        model = tiny_model()
        r1 = count_parameters(model, num_nodes=500)
        r2 = count_parameters(model, num_nodes=1000)
        assert r2.memory_entries == 2 * r1.memory_entries
        assert r2.trainable_total == r1.trainable_total

    def test_memory_fraction_dominates_at_scale(self):
        cfg = ModelConfig(d_m=100, d_t=8, d_att=32, d_n=32, message_hidden=(64,), decoder_hidden=(64,))
        model = TgnModel(cfg, span=1.0, rng=np.random.default_rng(0))
        from tglink.structmap import StructMapParams

        sm = StructMapParams(cfg.d_s, cfg.d_m, cfg.structmap_hidden, 1.0, np.random.default_rng(1))
        report = count_parameters(model, num_nodes=10_000, structmap=sm)
        assert report.memory_fraction > 0.9

    def test_mlp_spec_closed_form(self):
        spec = MlpSpec(7, (11, 13), 3)
        assert spec.weight_count() == 7 * 11 + 11 * 13 + 13 * 3
        assert spec.bias_count() == 11 + 13 + 3
