"""Shared builders and the finite-difference gradient check for the tests."""

from __future__ import annotations

import copy
from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from tglink.errors import ValidationError
from tglink.events import EventStream, GeneratorSpec
from tglink.model import MemoryStore, ModelConfig, NeighborCache, RunState, TgnModel
from tglink.nn import Adam, ParamSet, Tensor
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
        copy.deepcopy(state.cache),
        state.pending,
    )
    return clone


def assert_views(owner: ParamSet) -> None:
    """Every tensor of `owner` still reads and writes the owner's two buffers."""
    for name, p in owner.parameters():
        assert np.shares_memory(p.values, owner.flat_values), name
        assert np.shares_memory(p.grad, owner.flat_grad), name


def assert_step_reaches_layers(owner: ParamSet, layers) -> None:
    """One Adam step with all-one gradients lowers every value the layers read.

    The tensors are fetched from the layers themselves, not from the owner's
    list, so a tensor that was rebound away from the buffers shows up as
    unchanged.
    """
    tensors = [p for layer in layers for _, p in layer.parameters()]
    before = [p.values.copy() for p in tensors]
    opt = Adam([owner], lr=0.01)
    owner.flat_grad.fill(1.0)
    opt.step()
    for p, old in zip(tensors, before):
        assert np.all(p.values < old)


def model_layers(model: TgnModel) -> tuple:
    return (model.time_enc, model.message_mlp, model.updater, model.attention, model.decoder)


@dataclass
class GradCheckFailure:
    param: str
    index: tuple[int, ...]
    analytic: float
    numeric: float
    rel_error: float


@dataclass
class GradCheckReport:
    max_rel_error: float
    checked: int
    failures: list[GradCheckFailure] = field(default_factory=list)

    def passed(self, tolerance: float) -> bool:
        return self.max_rel_error < tolerance


def grad_check(
    loss_fn: Callable[[], float],
    params: Sequence[tuple[str, Tensor]],
    eps: float = 1e-5,
    tolerance: float = 1e-4,
    denom_floor: float = 1e-4,
) -> GradCheckReport:
    """Central-difference check of the gradients currently stored in `params`.

    Callers run one forward+backward to populate `.grad`, then hand over a
    pure re-evaluation closure. Relative error per coordinate is
    |analytic - numeric| / max(|analytic|, |numeric|, denom_floor).
    """
    if eps <= 0:
        raise ValidationError("grad_check eps must be positive")
    max_rel = 0.0
    checked = 0
    failures: list[GradCheckFailure] = []
    for name, p in params:
        flat = p.values.reshape(-1)
        gflat = p.grad.reshape(-1)
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + eps
            f_plus = loss_fn()
            flat[i] = orig - eps
            f_minus = loss_fn()
            flat[i] = orig
            numeric = (f_plus - f_minus) / (2.0 * eps)
            analytic = gflat[i]
            rel = abs(analytic - numeric) / max(abs(analytic), abs(numeric), denom_floor)
            checked += 1
            if rel > max_rel:
                max_rel = rel
            if rel >= tolerance:
                failures.append(
                    GradCheckFailure(
                        name,
                        np.unravel_index(i, p.values.shape),
                        float(analytic),
                        float(numeric),
                        float(rel),
                    )
                )
    return GradCheckReport(max_rel, checked, failures)
