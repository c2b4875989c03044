"""Transfer scenarios, ranking metrics, and seed sweeps."""

import math

import numpy as np
import pytest

from tglink import features, transfer
from tglink.errors import ContractError, ValidationError
from tglink.events import EventStream, GeneratorSpec, make_batches
from tglink.features import WindowFeatures, structural_feature_matrix
from tglink.graphs import aggregate_window
from tglink.model import ModelConfig
from tglink.structmap import StructMapParams, StructMapTrainer, fit_window_standardizer
from tglink.transfer import (
    ExperimentConfig,
    MetricsRecord,
    TrainConfig,
    TransferScenario,
    compute_ranking_metrics,
    fit,
    run_experiment,
    run_transfer,
    seed_sweep,
)

from helpers import random_stream
from oracles import rank_oracle

SMALL_MODEL = ModelConfig(
    d_m=6,
    d_t=4,
    d_att=6,
    d_n=6,
    message_hidden=(8,),
    decoder_hidden=(8,),
    num_neighbors=4,
    d_p=2,
    structmap_hidden=8,
    window_fraction=0.05,
)
SMALL_TRAIN = TrainConfig(batch_size=25, lr=3e-3, epochs=2)


@pytest.fixture(scope="module")
def trained_small():
    rng = np.random.default_rng(0)
    train_stream = random_stream(rng, 12, 150, span=50.0)
    return fit(train_stream, None, SMALL_MODEL, SMALL_TRAIN, seed=5)


@pytest.fixture(scope="module")
def test_stream_small():
    return random_stream(np.random.default_rng(9), 10, 120, span=40.0)


class TestRankingMetrics:
    def test_true_above_all(self):
        mrr, hits, ranks = compute_ranking_metrics(
            np.array([0.9]), np.array([[0.1, 0.2, 0.3]]), ks=(1, 2)
        )
        assert ranks[0] == 1.0
        assert mrr == 1.0
        assert hits == {1: 1.0, 2: 1.0}

    def test_all_ties_average_rank(self):
        # 9 candidates in total, all tied: rank (1 + 9) / 2 = 5
        mrr, hits, ranks = compute_ranking_metrics(
            np.array([0.5]), np.full((1, 8), 0.5), ks=(1, 5)
        )
        assert ranks[0] == 5.0
        assert mrr == pytest.approx(0.2)
        assert hits[5] == 1.0 and hits[1] == 0.0

    def test_hits_non_decreasing_in_k(self):
        rng = np.random.default_rng(0)
        mrr, hits, _ = compute_ranking_metrics(
            rng.random(50), rng.random((50, 10)), ks=(1, 3, 5, 10)
        )
        values = [hits[k] for k in (1, 3, 5, 10)]
        assert values == sorted(values)
        assert 0 < mrr <= 1

    def test_matches_rank_oracle_on_1000_random_sets(self):
        rng = np.random.default_rng(123)
        # quantized scores force plenty of exact ties
        pos = np.round(rng.random(1000), 1)
        neg = np.round(rng.random((1000, 7)), 1)
        mrr, hits, ranks = compute_ranking_metrics(pos, neg, ks=(1, 3, 7))
        expected = np.array([rank_oracle(p, list(n)) for p, n in zip(pos, neg)])
        assert np.array_equal(ranks, expected)
        assert mrr == (1.0 / expected).mean()
        for k in (1, 3, 7):
            assert hits[k] == (expected <= k).mean()

    def test_bad_shapes(self):
        with pytest.raises(ValidationError):
            compute_ranking_metrics(np.array([0.5]), np.zeros((1, 0)))
        with pytest.raises(ValidationError):
            compute_ranking_metrics(np.array([0.5]), np.array([[0.4]]), ks=(0,))


class TestScenarioValidation:
    def test_unknown_kind(self):
        with pytest.raises(ValidationError):
            TransferScenario("finetune_everything")

    def test_fraction_bounds(self):
        with pytest.raises(ValidationError):
            TransferScenario("warm_start", finetune_fraction=1.0)

    def test_structmap_scenario_requires_structmap(self, test_stream_small):
        rng = np.random.default_rng(1)
        cfg = ModelConfig(
            d_m=6, d_t=4, d_att=6, d_n=6, message_hidden=(8,), decoder_hidden=(8,),
            num_neighbors=4, d_p=2, use_structmap=False,
        )
        bare = fit(random_stream(rng, 10, 80, span=20.0), None, cfg, SMALL_TRAIN, seed=1)
        with pytest.raises(ContractError):
            run_transfer(bare, test_stream_small, TransferScenario("structural_mapping"), seed=2)


class TestScenarioDegeneracies:
    def test_warm_start_fraction_zero_equals_no_warm_start(self, trained_small, test_stream_small):
        a = run_transfer(
            trained_small, test_stream_small, TransferScenario("no_warm_start"), seed=3,
            batch_size=30,
        )
        b = run_transfer(
            trained_small,
            test_stream_small,
            TransferScenario("warm_start", finetune_fraction=0.0),
            seed=3,
            batch_size=30,
        )
        assert a.batch_tlp_loss == b.batch_tlp_loss
        assert a.mrr == b.mrr
        assert a.hits == b.hits
        assert b.optimizer_steps == 0

    def test_zero_weight_structmap_is_zero_init_with_fresh_clock(
        self, trained_small, test_stream_small
    ):
        zeroed = fit(
            random_stream(np.random.default_rng(0), 12, 150, span=50.0),
            None,
            SMALL_MODEL,
            SMALL_TRAIN,
            seed=5,
        )
        for w in zeroed.structmap.mlp.weights:
            w.values[:] = 0.0
        for b in zeroed.structmap.mlp.biases:
            b.values[:] = 0.0
        a = run_transfer(
            zeroed, test_stream_small, TransferScenario("no_warm_start"), seed=4, batch_size=30
        )
        b = run_transfer(
            zeroed, test_stream_small, TransferScenario("structural_mapping"), seed=4,
            batch_size=30,
        )
        # cold starts write zero vectors, so only last_update initialization
        # distinguishes the runs; losses stay close but not identical
        assert b.cold_starts > 0
        assert abs(a.mean_eval_loss - b.mean_eval_loss) < 0.05
        assert b.optimizer_steps == 0

    def test_structural_mapping_takes_zero_optimizer_steps(
        self, trained_small, test_stream_small
    ):
        rec = run_transfer(
            trained_small, test_stream_small, TransferScenario("structural_mapping"), seed=6,
            batch_size=30,
        )
        assert rec.optimizer_steps == 0
        assert rec.cold_starts == test_stream_small.num_nodes

    def test_warm_start_regions_do_not_overlap(self, trained_small, test_stream_small):
        rec = run_transfer(
            trained_small,
            test_stream_small,
            TransferScenario("warm_start", finetune_fraction=0.25),
            seed=7,
            batch_size=20,
        )
        assert rec.finetune_event_range[1] == rec.eval_event_range[0]
        assert rec.finetune_event_range[1] == int(0.25 * len(test_stream_small))
        assert rec.optimizer_steps == len(rec.finetune_batch_loss)
        assert rec.finetune_cutoff_time <= rec.eval_time_range[0] or np.isclose(
            rec.finetune_cutoff_time, rec.eval_time_range[0]
        )

    def test_memory_only_warm_start_matches_no_warm_start_suffix(
        self, trained_small, test_stream_small
    ):
        frozen = run_transfer(
            trained_small,
            test_stream_small,
            TransferScenario("warm_start", finetune_fraction=0.25, finetune_parameters=False),
            seed=8,
            batch_size=30,
        )
        plain = run_transfer(
            trained_small, test_stream_small, TransferScenario("no_warm_start"), seed=8,
            batch_size=30,
        )
        assert frozen.optimizer_steps == 0
        # with no parameter updates the memory trajectory matches the plain
        # run, so the shared suffix gives identical ranking outcomes
        n_skip = len(plain.batch_tlp_loss) - len(frozen.batch_tlp_loss)
        assert frozen.batch_tlp_loss == plain.batch_tlp_loss[n_skip:]

    def test_zero_finetune_lr_equals_frozen_parameters(self, trained_small, test_stream_small):
        def warm(finetune_parameters: bool, **lr):
            scenario = TransferScenario(
                "warm_start", finetune_fraction=0.25, finetune_parameters=finetune_parameters
            )
            return run_transfer(
                trained_small, test_stream_small, scenario, seed=8, batch_size=30, **lr
            )

        zero_lr, frozen = warm(True, finetune_lr=0.0), warm(False)
        assert zero_lr.optimizer_steps > 0
        assert zero_lr.mrr == frozen.mrr
        assert zero_lr.hits == frozen.hits
        assert zero_lr.batch_tlp_loss == frozen.batch_tlp_loss
        assert zero_lr.batch_structmap_loss == frozen.batch_structmap_loss
        assert zero_lr.batch_total_loss == frozen.batch_total_loss

    def test_records_are_deterministic(self, trained_small, test_stream_small):
        a = run_transfer(
            trained_small, test_stream_small, TransferScenario("warm_start"), seed=11,
            batch_size=25,
        )
        b = run_transfer(
            trained_small, test_stream_small, TransferScenario("warm_start"), seed=11,
            batch_size=25,
        )
        assert a.batch_tlp_loss == b.batch_tlp_loss
        assert a.finetune_batch_loss == b.finetune_batch_loss
        assert a.mrr == b.mrr

    def test_total_loss_decomposition_under_structmap(self, trained_small, test_stream_small):
        rec = run_transfer(
            trained_small, test_stream_small, TransferScenario("structural_mapping"), seed=12,
            batch_size=30,
        )
        for tot, tlp, sm in zip(
            rec.batch_total_loss, rec.batch_tlp_loss, rec.batch_structmap_loss
        ):
            assert tot == pytest.approx(tlp + rec.alpha * sm, abs=1e-9)


class TestWindowFeaturesComputedOnce:
    """Every caller shares one computation per batch window, bit for bit."""

    @pytest.fixture
    def computed(self, monkeypatch):
        """Graph sizes of every window matrix computed while the test runs."""
        calls = []
        original = features.structural_feature_matrix

        def counting(g, d_p=4, nodes=None):
            calls.append(g.num_nodes)
            return original(g, d_p, nodes)

        monkeypatch.setattr(features, "structural_feature_matrix", counting)
        return calls

    def test_training_computes_each_batch_window_once(self, computed, monkeypatch):
        stream = random_stream(np.random.default_rng(0), 12, 150, span=50.0)
        after_standardizer = []
        original = transfer.fit_window_standardizer

        def noting(*args):
            out = original(*args)
            after_standardizer.append(len(computed))
            return out

        monkeypatch.setattr(transfer, "fit_window_standardizer", noting)
        trained = fit(stream, None, SMALL_MODEL, SMALL_TRAIN, seed=5)
        n_batches = len(make_batches(stream, SMALL_TRAIN.batch_size))
        assert len(trained.epoch_history) == 2
        assert after_standardizer == [n_batches]
        # Both epochs reuse the standardizer's rows: the trainer misses 0.
        assert len(computed) == n_batches

    def test_structural_mapping_computes_each_eval_window_once(self, trained_small, computed):
        base = random_stream(np.random.default_rng(9), 10, 119, span=40.0)
        # The last event brings a new node, so the window just after the last
        # batch is read for its cold start.
        stream = EventStream(
            np.append(base.src, 0),
            np.append(base.dst, 10),
            np.append(base.timestamps, 41.0),
            np.empty((120, 0)),
            11,
        )
        rec = run_transfer(
            trained_small, stream, TransferScenario("structural_mapping"), seed=2, batch_size=30
        )
        assert rec.cold_starts == 11
        assert len(computed) == math.ceil(120 / 30) + 1

    def test_memoised_rows_equal_uncached_calls(self):
        stream = random_stream(np.random.default_rng(3), 12, 150, span=50.0)
        engine = WindowFeatures(stream, 0.1, 50.0, 2)
        batches = make_batches(stream, 25)
        uncached = []
        for batch in batches:
            t = batch.batch_start_time
            g = aggregate_window(stream, t, 0.1, 50.0)
            nodes = sorted(set(g.nodes()) | set(batch.src.tolist()) | set(batch.dst.tolist()))
            uncached.append(structural_feature_matrix(g, 2, nodes)[1])
            got_nodes, got = engine.batch_rows(batch)
            assert got_nodes.tolist() == nodes
            assert np.array_equal(got, uncached[-1])
            some = [11, 0, 99, 5]  # in any order, absent nodes included
            assert np.array_equal(engine.rows(t, some), structural_feature_matrix(g, 2, some)[1])

        scaler, rows = fit_window_standardizer(WindowFeatures(stream, 0.1, 50.0, 2), batches)
        want = features.FeatureStandardizer.fit(np.concatenate(uncached, axis=0))
        assert np.array_equal(scaler.mean, want.mean) and np.array_equal(scaler.sigma, want.sigma)
        params = StructMapParams(6, 4, 5, 1.0, np.random.default_rng(0))
        trainer = StructMapTrainer(params, rows)
        for batch, raw in zip(batches, uncached):
            assert np.array_equal(trainer.batch_features(batch)[1], want.apply(raw))


class TestFit:
    def test_early_stopping_restores_best(self):
        rng = np.random.default_rng(2)
        train_stream = random_stream(rng, 12, 120, span=30.0)
        val_stream = random_stream(np.random.default_rng(3), 8, 60, span=30.0)
        trained = fit(
            train_stream,
            val_stream,
            SMALL_MODEL,
            TrainConfig(batch_size=30, lr=5e-3, epochs=6, patience=1),
            seed=4,
        )
        val_losses = [e["val_loss"] for e in trained.epoch_history]
        assert len(val_losses) <= 6
        assert "val_mrr" in trained.epoch_history[0]

    def test_empty_stream_rejected(self):
        from tglink.events import EventStream

        empty = EventStream(
            np.empty(0, np.int64), np.empty(0, np.int64), np.empty(0), np.empty((0, 0)), 0
        )
        with pytest.raises(ValidationError):
            fit(empty, None, SMALL_MODEL, SMALL_TRAIN, seed=0)

    def test_fit_deterministic(self):
        def run():
            stream = random_stream(np.random.default_rng(7), 10, 90, span=25.0)
            return fit(stream, None, SMALL_MODEL, SMALL_TRAIN, seed=9).model.state_dict()

        a, b = run(), run()
        for k in a:
            assert np.array_equal(np.array(a[k]), np.array(b[k])), k


def tiny_experiment(num_events=900, epochs=2) -> ExperimentConfig:
    return ExperimentConfig(
        generator=GeneratorSpec(
            num_communities=2, nodes_per_community=15, num_events=num_events, p_in=0.92, p_out=0.08
        ),
        model=SMALL_MODEL,
        train=TrainConfig(batch_size=50, lr=3e-3, epochs=epochs),
        eval_negatives=10,
        hits_ks=(1, 5),
    )


class TestExperimentAndSweep:
    def test_run_experiment_produces_three_records(self):
        res = run_experiment(tiny_experiment(), seed=3)
        assert set(res.records) == {"no_warm_start", "warm_start", "structural_mapping"}
        assert res.records["structural_mapping"].cold_starts > 0
        assert res.records["warm_start"].optimizer_steps > 0

    def test_sweep_requires_two_seeds(self):
        with pytest.raises(ValidationError):
            seed_sweep(tiny_experiment(), [1])

    def test_duplicate_seed_zero_dispersion(self):
        report = seed_sweep(tiny_experiment(num_events=600, epochs=1), [5, 5])
        for stats in report.dispersion.values():
            assert stats["loss_std"] == 0.0
            assert stats["loss_min"] == stats["loss_max"]

    def test_distinct_seeds_nonzero_dispersion(self):
        report = seed_sweep(tiny_experiment(num_events=600, epochs=1), [1, 2])
        assert any(stats["loss_std"] > 0 for stats in report.dispersion.values())
        payload = report.to_dict()
        assert len(payload["per_seed"]) == 2
