"""The traced run sees every call: span counts against independent counts.

Run with `python3 -m pytest -q perfbench`.
"""

from __future__ import annotations

import json
import math
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import pytest  # noqa: E402

import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from tglink import model, transfer  # noqa: E402
from tglink.events import GeneratorSpec  # noqa: E402
from tglink.transfer import TrainConfig  # noqa: E402

TINY = workloads.Workload(
    name="tiny",
    why="test",
    generator=GeneratorSpec(num_communities=2, nodes_per_community=12, num_events=700),
    model=workloads.WORKLOADS["desk"].model,
    train=TrainConfig(batch_size=40, lr=3e-3, epochs=2, train_negatives=2),
    scenarios=workloads.SCENARIOS,
    inputs=1,
)
SEED = 3


def _batches(n: int, size: int) -> int:
    return math.ceil(n / size)


def _cold_start_batches(stream, size: int) -> int:
    """Evaluation batches holding some node's first event (one window each)."""
    seen: set[int] = set()
    batches = set()
    for i in range(len(stream)):
        for node in (int(stream.src[i]), int(stream.dst[i])):
            if node not in seen:
                seen.add(node)
                batches.add(i // size)
    return len(batches)


@pytest.fixture(scope="module")
def traced(tmp_path_factory):
    work = tmp_path_factory.mktemp("work")
    untraced = workloads.run_pass(TINY, SEED, work)
    tracer = tracing.Tracer()
    with tracer:
        p = workloads.run_pass(TINY, SEED, work)
    return untraced, p, tracer


def test_counts_match_independent_counts(traced):
    untraced, p, tracer = traced
    assert not p.failures
    split = workloads.setup(TINY, SEED)[0]
    assert split.val is None, "the tiny input must split two ways"
    train, test = split.train, split.test
    bs = TINY.train.batch_size
    epochs = p.epochs_run
    b_train = _batches(len(train), bs)
    b_test = _batches(len(test), bs)
    n_ft = math.floor(0.2 * len(test))
    b_ft = _batches(n_ft, bs)
    b_ws_eval = _batches(len(test) - n_ft, bs)
    n_nodes = test.num_nodes

    calls = {name: st.calls for name, st in tracer.stats.items()}
    forwards = epochs * b_train + b_test + (b_ft + b_ws_eval) + b_test
    steps = epochs * b_train + b_ft
    expected = {
        "features.structural_feature_matrix": b_train + b_train + b_test + n_nodes,
        "features.node_features": n_nodes,
        "structmap.cold_start": n_nodes,
        "structmap.fit_window_standardizer": 1,
        "structmap.StructMapTrainer.batch_features": epochs * b_train,
        "graphs.aggregate_window": 2 * b_train + b_test + _cold_start_batches(test, bs),
        "model.train_epoch": epochs,
        "model.forward_batch": forwards,
        "model.TgnModel.embed_pairs": forwards,
        "model.TgnModel.compute_messages": forwards,
        "model.TgnModel.flush_pending": epochs * (b_train + 1) + (b_test + 1) * 2 + b_ft + b_ws_eval + 1,
        "model.NeighborCache.insert_batch": forwards,
        "model.backward_batch": steps,
        "model.TgnModel.flush_backward": steps,
        "nn.Adam.step": steps,
        "events.sample_negatives": epochs * b_train + len(TINY.scenarios) + b_ft,
        "nn.AttentionReadout.forward": forwards,
        "nn.GruCell.forward": forwards,
        "nn.TimeEncoder.forward": 3 * forwards,
        "nn.Mlp.decoder.forward": forwards,
        "nn.Mlp.message_mlp.forward": forwards,
        "nn.Mlp.structmap.forward": epochs * b_train + b_test + n_nodes,
        "nn.Mlp.structmap.backward": epochs * b_train,
        "transfer.fit": 1,
        "checkpoint.save_checkpoint": 1,
        "checkpoint.load_checkpoint": 1,
        "events.generate_synthetic": 1,
        "splitting.louvain": 1,
        "splitting.make_transfer_split": 1,
    }
    for kind in TINY.scenarios:
        expected[f"transfer.run_transfer.{kind}"] = 1
        expected[f"transfer.evaluate_stream.{kind}"] = 1
    assert {k: calls.get(k, 0) for k in expected} == expected

    stats = tracer.stats
    assert stats["structmap.StructMapTrainer.batch_features"].counts["misses"] == b_train
    assert stats["structmap.cold_start"].counts["written"] == n_nodes
    assert stats["model.NeighborCache.insert_batch"].counts["events"] == (
        epochs * len(train) + 3 * len(test)
    )
    assert len(stats["transfer.eval_batch.no_warm_start"].samples_ns) == b_test - 1
    assert len(stats["transfer.eval_batch.warm_start"].samples_ns) == b_ws_eval - 1
    assert len(stats["model.train_epoch"].samples_ns) == epochs


def test_self_time_excludes_children(traced):
    _, _, tracer = traced
    for name, st in tracer.stats.items():
        if st.calls:
            assert 0 <= st.self_ns <= st.total_ns, name
    fwd = tracer.stats["model.forward_batch"]
    assert fwd.self_ns <= fwd.total_ns - tracer.stats["model.TgnModel.embed_pairs"].total_ns


def test_tracing_changes_no_output(traced):
    untraced, p, _ = traced
    assert untraced.digests == p.digests
    assert set(p.digests) == {"stream", "fit", *TINY.scenarios}


def test_untraced_run_carries_no_wrappers():
    tracing.assert_clean()
    before = {m.__name__: dict(vars(m)) for m in tracing.tglink_modules()}
    with tracing.Tracer():
        assert transfer.forward_batch is model.forward_batch
        assert getattr(transfer.forward_batch, "__perfbench_traced__", False)
        with pytest.raises(AssertionError):
            tracing.assert_clean()
    tracing.assert_clean()
    after = {m.__name__: dict(vars(m)) for m in tracing.tglink_modules()}
    for name, namespace in before.items():
        assert all(after[name][k] is v for k, v in namespace.items()), name


def test_every_binding_site_is_patched():
    with tracing.Tracer():
        for module_name, path, _, _ in tracing.SPECS:
            if "." in path:
                continue
            module = sys.modules[module_name]
            for site in tracing.tglink_modules():
                bound = vars(site).get(path)
                if bound is not None and bound.__module__ == module.__name__:
                    assert getattr(bound, "__perfbench_traced__", False), f"{site.__name__}.{path}"


def test_benchmark_json_matches_the_benchmark():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [m["name"] for m in spec["per_layer"]] == list(run.per_layer_units())
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.per_layer_units()
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END_UNITS
    listed = {w["name"]: w["why"] for w in spec["workloads"]}
    assert listed == {name: workloads.WORKLOADS[name].why for name in listed}


def test_reference_seconds_scale_cpu_seconds_by_the_sampled_speed():
    speed = workloads.HostSpeed()
    speed.times = [float(t) for t in range(20)]
    speed.kernel_s = [speed.REF_KERNEL_S] * 10 + [2 * speed.REF_KERNEL_S] * 10
    assert speed.factor(0.0, 9.0) == 1.0
    assert speed.factor(10.0, 19.0) == 0.5
    # A window with too few samples widens to the nearest MIN_SAMPLES.
    assert speed.factor(9.5, 9.6) == pytest.approx(1 / 1.5)
    span = workloads.Clock().span(workloads.Clock.start())
    assert span.ref_s == span.cpu_s


def test_timed_run_stops_its_sampler(tmp_path):
    import threading

    passes, setups, kernel_s = run.timed_run(TINY, SEED, 0.0, tmp_path)
    assert kernel_s and len(setups) >= run.MIN_SETUPS
    assert all(p.spans["pipeline"].ref_s > 0 for p in passes)
    assert not [t for t in threading.enumerate() if t.name == "host-speed"]
