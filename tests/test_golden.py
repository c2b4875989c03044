"""Golden digests: SHA-256 pins of outputs that must not change by a bit.

Run-against-run determinism tests cannot see a silent change of bits that
stays inside the acceptance margins; these pins can. They cover raw window
features of the desk train stream, the trained state `fit` returns (model
parameters, final memory and neighbor cache) and every record (minus
wall-clock timing) plus the training history of the acceptance benchmark,
seed 1.

A different numpy or BLAS build may legitimately change the last bits, so the
pins are keyed by numpy version and BLAS name, and an unpinned platform skips
with that reason. To print the digests of the current platform (for example
to pin a new one, or to re-pin after a deliberate numeric change):

    PYTHONPATH=src python tests/test_golden.py
"""

from __future__ import annotations

import hashlib
import json

import numpy as np
import pytest

from tglink.events import generate_synthetic, make_batches
from tglink.features import structural_feature_matrix
from tglink.graphs import aggregate_static, aggregate_window
from tglink.rngs import child_rng
from tglink.splitting import louvain, make_transfer_split
from tglink.transfer import fit

from helpers import BENCHMARK, BENCHMARK_SEEDS

PINS = {
    ("2.4.6", "scipy-openblas"): {
        "window_features": "9471227276fdf46b57e256200324c91ab6ebc3f8cbaec9caf1ffc982d6ef9beb",
        "fit": "228808eee45d8db4c410cbf4763b4dcac1cafa0c15ae0a782948ec5aa0a1c8fe",
        "record.no_warm_start": "f880269e026803d730cd6f466786291dc8efe33c6371d8139a111ac5e5d889cb",
        "record.warm_start": "918adc2cea75982968d9287fb8263fe95a5d271c2d80113f541dd800ebfc3e8f",
        "record.structural_mapping": "a2bd153893e1ef66fc330d0e5f89a7f494c8cf8a088990dca9ae6f9ddcbb0a20",
        "epoch_history": "e660d67c71677a43f8be3de3a11577914199419e67e9b981f051a7f6bbed27c2",
    },
}

# Five evenly spaced train batches, each at the benchmark's window fraction
# and at a ten times wider one, where Brandes sees longer shortest paths.
WINDOW_BATCHES = 5
WINDOW_FRACTIONS = (BENCHMARK.model.window_fraction, 10 * BENCHMARK.model.window_fraction)


def platform() -> tuple[str, str]:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]["name"]
    except (TypeError, KeyError):
        blas = "unknown"
    return np.__version__, blas


def _sha(payload) -> str:
    return hashlib.sha256(json.dumps(payload, sort_keys=True).encode()).hexdigest()


def seed_one_split():
    seed = BENCHMARK_SEEDS[0]
    stream = generate_synthetic(BENCHMARK.generator, child_rng(seed, "generate"))
    assignment = louvain(aggregate_static(stream), child_rng(seed, "louvain"))
    return make_transfer_split(
        stream, assignment, BENCHMARK.balance_tolerance, allow_two_way=BENCHMARK.allow_two_way
    )


def window_features_digest() -> str:
    train = seed_one_split().train
    batches = make_batches(train, BENCHMARK.train.batch_size)
    picks = np.linspace(0, len(batches) - 1, WINDOW_BATCHES).astype(int)
    h = hashlib.sha256()
    for i in picks:
        for w in WINDOW_FRACTIONS:
            g = aggregate_window(train, batches[i].batch_start_time, w, train.time_span)
            nodes, mat = structural_feature_matrix(g, BENCHMARK.model.d_p)
            h.update(np.asarray(nodes, dtype=np.int64).tobytes())
            h.update(np.ascontiguousarray(mat).tobytes())
    return h.hexdigest()


def fit_digest() -> str:
    """Parameters, final memory and neighbor cache of the seed-1 `fit`."""
    split = seed_one_split()
    trained = fit(
        split.train,
        split.val,
        BENCHMARK.model,
        BENCHMARK.train,
        BENCHMARK_SEEDS[0],
        config_hash=BENCHMARK.config_hash,
        eval_negatives=BENCHMARK.eval_negatives,
        ks=BENCHMARK.hits_ks,
    )
    return _sha(
        {
            "params": trained.model.state_dict(),
            "memory": trained.store.to_dict(),
            "neighbor_cache": trained.cache.to_dict(),
        }
    )


def sweep_digests(result) -> dict[str, str]:
    """One digest per scenario record (minus `timing`) and one of the history."""
    out = {}
    for kind, record in result.records.items():
        d = record.to_dict()
        d.pop("timing")
        out[f"record.{kind}"] = _sha(d)
    out["epoch_history"] = _sha(result.train_history)
    return out


@pytest.fixture(scope="module")
def pins() -> dict[str, str]:
    key = platform()
    if key not in PINS:
        pytest.skip(f"no golden pins for numpy {key[0]} with BLAS {key[1]}")
    return PINS[key]


def test_window_features_pinned(pins):
    assert window_features_digest() == pins["window_features"]


def test_fit_pinned(pins):
    assert fit_digest() == pins["fit"]


def test_benchmark_seed_one_pinned(pins, benchmark_sweep):
    sweep, _ = benchmark_sweep
    result = sweep.results[0]
    assert result.seed == BENCHMARK_SEEDS[0] and result.error is None
    got = sweep_digests(result)
    assert got == {k: v for k, v in pins.items() if k not in ("window_features", "fit")}


if __name__ == "__main__":
    from tglink.transfer import run_experiment

    digests = {"window_features": window_features_digest(), "fit": fit_digest()}
    digests.update(sweep_digests(run_experiment(BENCHMARK, BENCHMARK_SEEDS[0])))
    print(f"{platform()!r}: {json.dumps(digests, indent=4)},")
