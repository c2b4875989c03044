"""Shared builders for model-level and acceptance tests."""

from __future__ import annotations

import numpy as np

from tglink.events import EventStream, GeneratorSpec
from tglink.model import MemoryStore, ModelConfig, NeighborCache, RunState, TgnModel
from tglink.transfer import ExperimentConfig, TrainConfig

# The desk-scale transfer benchmark: two planted communities of 50 nodes,
# ~3000 intra-community events each after the Louvain split.
BENCHMARK_SEEDS = [1, 2, 3, 4, 5]
BENCHMARK = ExperimentConfig(
    generator=GeneratorSpec(
        num_communities=2,
        nodes_per_community=50,
        num_events=6600,
        p_in=0.9,
        p_out=0.1,
        pref_attach=1.0,
        time_span=1000.0,
    ),
    model=ModelConfig(
        d_m=16,
        d_t=8,
        d_att=16,
        d_n=16,
        message_hidden=(32,),
        decoder_hidden=(32,),
        num_neighbors=2,
        structmap_hidden=64,
        alpha=1.0,
        window_fraction=0.01,
    ),
    train=TrainConfig(batch_size=50, lr=3e-3, epochs=5, train_negatives=3),
    eval_negatives=20,
    finetune_lr=3e-4,
    allow_two_way=True,
)

TINY_CONFIG = ModelConfig(
    d_m=4,
    d_t=3,
    d_att=4,
    d_n=4,
    message_hidden=(5,),
    decoder_hidden=(5,),
    num_neighbors=3,
    d_p=2,
    structmap_hidden=5,
)


def random_stream(
    rng: np.random.Generator, num_nodes: int, num_events: int, span: float = 10.0, d_e: int = 0
) -> EventStream:
    src = rng.integers(0, num_nodes, num_events)
    dst = (src + 1 + rng.integers(0, num_nodes - 1, num_events)) % num_nodes
    ts = np.sort(rng.uniform(0, span, num_events))
    feat = rng.normal(size=(num_events, d_e)) if d_e else np.empty((num_events, 0))
    return EventStream(src, dst, ts, feat, num_nodes)


def tiny_model(seed: int = 0, span: float = 10.0, config: ModelConfig = TINY_CONFIG) -> TgnModel:
    return TgnModel(config, span, np.random.default_rng(seed))


def fresh_state(model: TgnModel, num_nodes: int) -> RunState:
    return RunState(
        MemoryStore(num_nodes, model.config.d_m),
        NeighborCache(num_nodes, model.config.num_neighbors, model.config.d_e),
    )


def copy_state(model: TgnModel, state: RunState) -> RunState:
    clone = RunState(
        MemoryStore.from_dict(state.store.to_dict()),
        NeighborCache.from_dict(state.cache.to_dict()),
        state.pending,
    )
    return clone
