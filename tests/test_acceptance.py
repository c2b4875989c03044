"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -s` to see the per-criterion lines.
Everything is seeded; the suite is deterministic end to end.
"""

import time

import numpy as np
import pytest

from tglink.events import GeneratorSpec, generate_synthetic, make_batches
from tglink.features import (
    FeatureStandardizer,
    correlate_distances,
    structural_feature_matrix,
)
from tglink.graphs import aggregate_static
from tglink.model import (
    MemoryStore,
    ModelConfig,
    NeighborCache,
    RunState,
    TgnModel,
    backward_batch,
    count_parameters,
    forward_batch,
)
from tglink.nn import (
    Adam,
    AttentionReadout,
    GruCell,
    Mlp,
    MlpSpec,
    Tensor,
    TimeEncoder,
)
from tglink.rngs import child_rng
from tglink.splitting import louvain, make_transfer_split, modularity
from tglink.structmap import StructMapParams, structmap_loss, structmap_loss_backward
from tglink.transfer import (
    TrainConfig,
    TransferScenario,
    compute_ranking_metrics,
    fit,
    run_experiment,
    run_transfer,
)

from helpers import (
    BENCHMARK,
    BENCHMARK_SEEDS,
    copy_state,
    fresh_state,
    grad_check,
    random_stream,
    tiny_model,
)
from oracles import (
    RefGraph,
    betweenness_oracle,
    closeness_oracle,
    clustering_oracle,
    modularity_oracle,
    random_graph,
    rank_oracle,
    rwpe_oracle,
)

def report(criterion: int, label: str) -> None:
    print(f"\n[ACCEPTANCE] criterion {criterion} ({label}): PASS")


class TestCriterion1Gradients:
    """Every layer passes finite differences at <1e-4; end-to-end <1e-3."""

    def _check(self, params, loss_and_grad, loss_only, tol=1e-4):
        for _, p in params:
            p.grad.fill(0.0)
        loss_and_grad()
        rep = grad_check(loss_only, params, eps=1e-5, tolerance=tol)
        assert rep.passed(tol), rep.failures[:3]
        return rep.max_rel_error

    def test_all_layers_and_end_to_end(self):
        t0 = time.perf_counter()
        worst = 0.0

        for trial in range(20):  # MLP (also covers the decoder shape) and structmap
            rng = np.random.default_rng(1000 + trial)
            for spec in (MlpSpec(5, (7,), 3), MlpSpec(8, (6,), 1), MlpSpec(6, (5, 5), 4)):
                mlp = Mlp(spec, rng)
                x = Tensor(rng.normal(size=(3, spec.input_dim)))
                proj = rng.normal(size=(3, spec.output_dim))

                def fwd_bwd():
                    out, cache = mlp.forward(x.values)
                    x.accumulate(mlp.backward(cache, proj))

                def loss():
                    return float((mlp.forward(x.values)[0] * proj).sum())

                worst = max(worst, self._check(mlp.parameters() + [("x", x)], fwd_bwd, loss))

        for trial in range(20):  # GRU
            rng = np.random.default_rng(2000 + trial)
            gru = GruCell(12, 8, rng)
            h = Tensor(rng.normal(size=(3, 8)))
            x = Tensor(rng.normal(size=(3, 12)))
            proj = rng.normal(size=(3, 8))

            def fwd_bwd():
                out, cache = gru.forward(h.values, x.values)
                dh, dx = gru.backward(cache, proj)
                h.accumulate(dh)
                x.accumulate(dx)

            def loss():
                return float((gru.forward(h.values, x.values)[0] * proj).sum())

            worst = max(worst, self._check(gru.parameters() + [("h", h), ("x", x)], fwd_bwd, loss))

        for trial in range(20):  # time encoder
            rng = np.random.default_rng(3000 + trial)
            enc = TimeEncoder(5, span=float(rng.uniform(0.5, 30)))
            dt = Tensor(rng.uniform(0, 10, size=6))
            proj = rng.normal(size=(6, 5))

            def fwd_bwd():
                out, cache = enc.forward(dt.values)
                dt.accumulate(enc.backward(cache, proj))

            def loss():
                return float((enc.forward(dt.values)[0] * proj).sum())

            worst = max(worst, self._check(enc.parameters() + [("dt", dt)], fwd_bwd, loss))

        for trial in range(20):  # attention readout (projections + masked softmax)
            rng = np.random.default_rng(4000 + trial)
            att = AttentionReadout(4, 6, 5, 3, rng)
            q_in = Tensor(rng.normal(size=(3, 4)))
            kv_in = Tensor(rng.normal(size=(3, 2, 6)))
            mask = rng.random((3, 2)) < 0.7
            proj = rng.normal(size=(3, 3))

            def fwd_bwd():
                out, cache = att.forward(q_in.values, kv_in.values, mask)
                dq, dkv = att.backward(cache, proj)
                q_in.accumulate(dq)
                kv_in.accumulate(dkv)

            def loss():
                return float((att.forward(q_in.values, kv_in.values, mask)[0] * proj).sum())

            worst = max(
                worst, self._check(att.parameters() + [("q", q_in), ("kv", kv_in)], fwd_bwd, loss)
            )

        for trial in range(20):  # structmap regression loss
            rng = np.random.default_rng(5000 + trial)
            sm = StructMapParams(6, 4, 5, 1.0, rng)
            feats = rng.normal(size=(3, 6))
            targets = rng.normal(size=(3, 4))

            def fwd_bwd():
                _, cache = structmap_loss(sm, feats, targets)
                structmap_loss_backward(sm, cache, scale=1.0)

            def loss():
                return structmap_loss(sm, feats, targets)[0]

            worst = max(worst, self._check(sm.parameters(), fwd_bwd, loss))

        end_to_end = self._end_to_end_micro_check()
        elapsed = time.perf_counter() - t0
        assert elapsed < 60.0, f"criterion 1 exceeded runtime budget: {elapsed:.1f}s"
        report(1, f"gradients: layers max rel {worst:.2e}, end-to-end {end_to_end:.2e}, {elapsed:.1f}s")

    def _end_to_end_micro_check(self) -> float:
        rng = np.random.default_rng(42)
        stream = random_stream(rng, 5, 8, span=10.0)
        model = tiny_model(seed=9)
        sm = StructMapParams(
            model.config.d_s, model.config.d_m, 5, alpha=0.7, rng=np.random.default_rng(10)
        )
        batches = make_batches(stream, 4)
        state = fresh_state(model, 5)
        state.pending = batches[0]
        state.cache.insert_batch(batches[0])
        base = copy_state(model, state)
        target_batch = batches[1]
        negs = np.array([[int(d)] for d in (target_batch.dst + 2) % 5], dtype=np.int64)

        from tglink.graphs import aggregate_window

        wg = aggregate_window(stream, target_batch.batch_start_time, 0.5, 10.0)
        nodes = sorted(set(target_batch.src.tolist()) | set(target_batch.dst.tolist()))
        _, raw = structural_feature_matrix(wg, model.config.d_p, nodes)
        scaler = FeatureStandardizer(np.zeros(model.config.d_s), np.ones(model.config.d_s))
        feats = scaler.apply(raw)

        work = copy_state(model, base)
        flush_rec = model.flush_pending(work, want_caches=True)
        fwd = forward_batch(model, target_batch, negs, work, want_caches=True)
        targets = work.store.memory[np.array(nodes)].copy()
        _, sm_cache = structmap_loss(sm, feats, targets)
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

        rep = grad_check(loss_only, params, eps=1e-5, tolerance=1e-3)
        assert rep.passed(1e-3), (rep.max_rel_error, rep.failures[:5])
        assert rep.checked == sum(p.size for _, p in params)
        return rep.max_rel_error


class TestCriterion2ParameterAccounting:
    def test_closed_forms_and_memory_fraction(self):
        t0 = time.perf_counter()
        rng = np.random.default_rng(0)
        for _ in range(10):
            cfg = ModelConfig(
                d_m=int(rng.integers(2, 16)),
                d_t=int(rng.integers(1, 9)),
                d_att=int(rng.integers(2, 16)),
                d_n=int(rng.integers(2, 16)),
                d_e=int(rng.integers(0, 4)),
                message_hidden=tuple(int(x) for x in rng.integers(2, 20, rng.integers(1, 3))),
                decoder_hidden=tuple(int(x) for x in rng.integers(2, 20, rng.integers(1, 3))),
                structmap_hidden=int(rng.integers(2, 16)),
            )
            model = TgnModel(cfg, span=5.0, rng=np.random.default_rng(1))
            sm = StructMapParams(cfg.d_s, cfg.d_m, cfg.structmap_hidden, 1.0, np.random.default_rng(2))
            rep = count_parameters(model, num_nodes=int(rng.integers(10, 10_000)), structmap=sm)
            for comp in rep.components:
                forms = rep.closed_forms[comp.name]
                assert comp.weights == forms["weights"], comp.name
                assert comp.biases == forms["biases"], comp.name
            assert rep.memory_entries == rep.num_nodes * cfg.d_m

        big = ModelConfig(d_m=100, d_t=8, d_att=32, d_n=32, message_hidden=(64,), decoder_hidden=(64,))
        model = TgnModel(big, span=1.0, rng=np.random.default_rng(0))
        sm = StructMapParams(big.d_s, big.d_m, big.structmap_hidden, 1.0, np.random.default_rng(1))
        rep = count_parameters(model, num_nodes=10_000, structmap=sm)
        assert max(max(big.message_hidden), max(big.decoder_hidden), big.structmap_hidden) <= 128
        assert rep.memory_fraction > 0.9
        elapsed = time.perf_counter() - t0
        assert elapsed < 30.0
        report(2, f"parameter accounting: memory fraction {rep.memory_fraction:.4f}, {elapsed:.1f}s")


class TestCriterion3Oracles:
    def test_feature_oracles_and_louvain(self):
        t0 = time.perf_counter()
        rng = np.random.default_rng(31)
        for trial in range(200):
            n = int(rng.integers(2, 13))
            g = random_graph(rng, n, float(rng.uniform(0.1, 0.8)))
            nodes, mat = structural_feature_matrix(g, d_p=4)
            ref = RefGraph.of(g)
            bc = betweenness_oracle(g)
            cc = closeness_oracle(g)
            cl = clustering_oracle(g)
            for row, u in enumerate(nodes):
                assert mat[row, 0] == ref.degree(u)
                assert abs(mat[row, 1] - bc[u]) < 1e-9
                assert abs(mat[row, 2] - cc[u]) < 1e-9
                assert abs(mat[row, 3] - cl[u]) < 1e-9
                walk = rwpe_oracle(g, u, 4)
                assert np.all(np.abs(mat[row, 4:] - walk) < 1e-9)

        agreements = []
        for seed in range(20):
            spec = GeneratorSpec(
                num_communities=2, nodes_per_community=20, num_events=2000, p_in=0.9, p_out=0.1
            )
            stream = generate_synthetic(spec, child_rng(seed, "planted"))
            graph = aggregate_static(stream)
            asg = louvain(graph, child_rng(seed, "louvain"))
            assert abs(asg.modularity - modularity(graph, asg.community_of)) < 1e-9
            assert abs(asg.modularity - modularity_oracle(graph, asg.community_of)) < 1e-9
            planted = {u: u // 20 for u in range(40)}
            majority = {}
            for c, members in asg.members().items():
                labels = [planted[u] for u in members]
                majority[c] = max(set(labels), key=labels.count)
            hits = sum(
                1
                for u in graph.ids.tolist()
                if majority[asg.community_of[u]] == planted[u]
            )
            agreements.append(hits / 40.0)
        assert all(a >= 0.9 for a in agreements), agreements
        elapsed = time.perf_counter() - t0
        assert elapsed < 120.0, f"criterion 3 exceeded runtime budget: {elapsed:.1f}s"
        report(3, f"oracle equivalence: 200 graphs exact, louvain agreement min {min(agreements):.2f}, {elapsed:.1f}s")


class TestCriterion4LeakageGuard:
    def test_fifty_random_micro_streams(self):
        t0 = time.perf_counter()
        for trial in range(50):
            rng = np.random.default_rng(4000 + trial)
            num_nodes = int(rng.integers(4, 9))
            stream = random_stream(rng, num_nodes, int(rng.integers(12, 30)))
            model = tiny_model(seed=trial)
            batches = make_batches(stream, 5)
            state = fresh_state(model, num_nodes)
            for b in batches[:-1]:
                model.flush_pending(state)
                state.pending = b
                state.cache.insert_batch(b)
            model.flush_pending(state)
            target = batches[-1]
            negs = np.zeros((len(target), 1), dtype=np.int64)
            before = forward_batch(model, target, negs, copy_state(model, state))
            # apply the batch, then recompute the pre-application predictions
            applied = copy_state(model, state)
            applied.pending = target
            applied.cache.insert_batch(target)
            model.flush_pending(applied)
            again = forward_batch(model, target, negs, copy_state(model, state))
            assert np.array_equal(before.pos_probs, again.pos_probs)
            assert np.array_equal(before.neg_probs, again.neg_probs)
        elapsed = time.perf_counter() - t0
        report(4, f"leakage guard: 50 micro-streams exact, {elapsed:.1f}s")


class TestCriterion5Correlation:
    def test_oracle_match_and_trained_positive_correlation(self):
        t0 = time.perf_counter()
        from oracles import pearson_oracle, spearman_oracle

        rng = np.random.default_rng(9)
        mem = rng.normal(size=(30, 7))
        feats = mem @ rng.normal(size=(7, 4)) + 0.5 * rng.normal(size=(30, 4))
        r_p, r_s = correlate_distances(mem, feats, 10**6, np.random.default_rng(4))
        d_m, d_f = [], []
        for i in range(30):
            for j in range(i + 1, 30):
                d_m.append(float(np.linalg.norm(mem[i] - mem[j])))
                d_f.append(float(np.linalg.norm(feats[i] - feats[j])))
        assert abs(r_p - pearson_oracle(d_m, d_f)) < 1e-12
        assert abs(r_s - spearman_oracle(d_m, d_f)) < 1e-12

        # trained synthetic task: both correlations clear the qualitative bar
        seed = BENCHMARK_SEEDS[0]
        stream = generate_synthetic(BENCHMARK.generator, child_rng(seed, "generate"))
        graph = aggregate_static(stream)
        split = make_transfer_split(
            stream, louvain(graph, child_rng(seed, "louvain")), 0.25, allow_two_way=True
        )
        trained = fit(split.train, None, BENCHMARK.model, BENCHMARK.train, seed)
        seen = np.flatnonzero(trained.store.last_update != -np.inf)
        g_train = aggregate_static(split.train)
        _, f_train = structural_feature_matrix(g_train, BENCHMARK.model.d_p, [int(x) for x in seen])
        r_p2, r_s2 = correlate_distances(
            trained.store.memory[seen], f_train, 100_000, child_rng(seed, "pairs")
        )
        assert r_p2 > 0.05 and r_s2 > 0.05, (r_p2, r_s2)
        elapsed = time.perf_counter() - t0
        report(5, f"correlation: oracle exact, trained r_p={r_p2:.3f} r_s={r_s2:.3f}, {elapsed:.1f}s")


class TestCriterion6TransferOrderings:
    def test_h1_h2_margins(self, benchmark_sweep):
        sweep, elapsed = benchmark_sweep
        rows = np.array(
            [
                [
                    r.records["no_warm_start"].mean_eval_loss,
                    r.records["warm_start"].mean_eval_loss,
                    r.records["structural_mapping"].mean_eval_loss,
                ]
                for r in sweep.results
            ]
        )
        assert rows.shape == (5, 3)
        assert not np.isnan(rows).any()
        d_warm = rows[:, 0] - rows[:, 1]
        d_sm = rows[:, 0] - rows[:, 2]

        def sem(d):
            return float(d.std(ddof=1) / np.sqrt(len(d)))

        # H1: no_warm_start strictly worse than warm_start, >= 1 pooled SE
        assert d_warm.mean() > 0
        assert d_warm.mean() >= sem(d_warm), (d_warm.mean(), sem(d_warm))
        # H2: structural_mapping at or below no_warm_start, >= 1 pooled SE
        assert d_sm.mean() > 0
        assert d_sm.mean() >= sem(d_sm), (d_sm.mean(), sem(d_sm))
        assert elapsed < 900.0, f"criterion 6 exceeded runtime budget: {elapsed:.1f}s"
        report(
            6,
            "transfer orderings: H1 margin "
            f"{d_warm.mean():.4f} ({d_warm.mean() / sem(d_warm):.1f} SE), H2 margin "
            f"{d_sm.mean():.4f} ({d_sm.mean() / sem(d_sm):.1f} SE), {elapsed:.0f}s",
        )


@pytest.fixture(scope="module")
def small_trained():
    cfg = ModelConfig(
        d_m=6, d_t=4, d_att=6, d_n=6, message_hidden=(8,), decoder_hidden=(8,),
        num_neighbors=3, d_p=2, structmap_hidden=8, window_fraction=0.05,
    )
    train_stream = random_stream(np.random.default_rng(0), 12, 150, span=50.0)
    trained = fit(train_stream, None, cfg, TrainConfig(batch_size=30, lr=3e-3, epochs=2), seed=5)
    test_stream = random_stream(np.random.default_rng(9), 10, 120, span=40.0)
    return trained, test_stream


class TestCriterion7ScenarioDegeneracies:
    def test_warm_fraction_zero_bitwise(self, small_trained):
        trained, test_stream = small_trained
        a = run_transfer(trained, test_stream, TransferScenario("no_warm_start"), seed=3, batch_size=30)
        b = run_transfer(
            trained, test_stream, TransferScenario("warm_start", finetune_fraction=0.0),
            seed=3, batch_size=30,
        )
        assert a.batch_tlp_loss == b.batch_tlp_loss
        assert a.mrr == b.mrr and a.hits == b.hits
        assert b.optimizer_steps == 0

    def test_alpha_zero_bitwise(self):
        from tglink.nn import Adam
        from tglink.model import train_epoch
        from tglink.features import WindowFeatures
        from tglink.structmap import StructMapTrainer, fit_window_standardizer

        def run(with_sm: bool):
            rng = np.random.default_rng(0)
            stream = random_stream(rng, 8, 60, span=20.0)
            model = tiny_model(seed=12, span=20.0)
            trainer = None
            sets = [model]
            if with_sm:
                features = WindowFeatures(stream, 0.25, 20.0, model.config.d_p)
                _, rows = fit_window_standardizer(features, make_batches(stream, 15))
                sm = StructMapParams(model.config.d_s, model.config.d_m, 5, 0.0, np.random.default_rng(99))
                trainer = StructMapTrainer(sm, rows)
                sets.append(sm)
            opt = Adam(sets, lr=1e-2)
            state = fresh_state(model, 8)
            train_epoch(stream, state, model, opt, 15, 1, np.random.default_rng(7), trainer)
            return model.state_dict()

        bare, with_sm = run(False), run(True)
        for key in bare:
            assert np.array_equal(np.array(bare[key]), np.array(with_sm[key])), key

    def test_structural_mapping_zero_steps(self, small_trained, benchmark_sweep):
        trained, test_stream = small_trained
        rec = run_transfer(
            trained, test_stream, TransferScenario("structural_mapping"), seed=6, batch_size=30
        )
        assert rec.optimizer_steps == 0
        sweep, _ = benchmark_sweep
        for res in sweep.results:
            assert res.records["structural_mapping"].optimizer_steps == 0
        report(7, "scenario degeneracies: warm(0) bitwise, alpha=0 bitwise, zero steps")


class TestCriterion8Determinism:
    def test_identical_seeds_identical_metrics(self, benchmark_sweep):
        cfg = ModelConfig(
            d_m=6, d_t=4, d_att=6, d_n=6, message_hidden=(8,), decoder_hidden=(8,),
            num_neighbors=3, d_p=2, structmap_hidden=8, window_fraction=0.05,
        )
        train_stream = random_stream(np.random.default_rng(2), 10, 100, span=30.0)
        test_stream = random_stream(np.random.default_rng(3), 8, 80, span=30.0)
        trained = fit(train_stream, None, cfg, TrainConfig(batch_size=25, lr=3e-3, epochs=2), seed=7)
        a = run_transfer(trained, test_stream, TransferScenario("warm_start"), seed=11, batch_size=25)
        b = run_transfer(trained, test_stream, TransferScenario("warm_start"), seed=11, batch_size=25)
        da, db = a.to_dict(), b.to_dict()
        da.pop("timing")
        db.pop("timing")
        assert da == db

        sweep, _ = benchmark_sweep
        assert len(sweep.dispersion) == 3
        nonzero = [s for s in sweep.dispersion.values() if s["loss_std"] > 0]
        assert nonzero, sweep.dispersion
        report(8, "determinism: identical records (sans timing); sweep dispersion nonzero")


class TestCriterion9RankingMetrics:
    def test_thousand_random_score_sets(self):
        rng = np.random.default_rng(99)
        # mix continuous scores with heavy tie mass, including all-equal rows
        pos = np.concatenate([rng.random(400), np.round(rng.random(400), 1), np.full(200, 0.5)])
        neg = np.concatenate(
            [
                rng.random((400, 9)),
                np.round(rng.random((400, 9)), 1),
                np.full((200, 9), 0.5),
            ],
            axis=0,
        )
        mrr, hits, ranks = compute_ranking_metrics(pos, neg, ks=(1, 3, 5, 9))
        expected = np.array([rank_oracle(p, list(n)) for p, n in zip(pos, neg)])
        assert np.array_equal(ranks, expected)
        assert mrr == (1.0 / expected).mean()
        for k in (1, 3, 5, 9):
            assert hits[k] == (expected <= k).mean()
        assert hits[1] <= hits[3] <= hits[5] <= hits[9]
        report(9, "ranking metrics: 1000 score sets exact vs oracle, ties included")
