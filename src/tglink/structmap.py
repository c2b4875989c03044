"""Regression from structural features to memory embeddings.

A three-layer MLP maps standardized topological feature vectors to memory
vectors. During training it chases the live memory rows of the nodes in each
batch's trailing window graph (plus the batch endpoints) under an
alpha-weighted mean-squared-error term; at test time it cold-starts the
memory rows of nodes never seen before.

Targets are detached by default: the regression follows the memory without
pushing gradients back into it. A coupled mode exists for studying what
happens when it does.
"""

from __future__ import annotations

import logging

import numpy as np

from .errors import ContractError, ValidationError
from .features import FeatureStandardizer, StructuralFeatureVector, WindowFeatures
from .nn import Mlp, MlpSpec, Tensor

log = logging.getLogger(__name__)


class StructMapParams:
    """Three affine layers (two hidden) from feature space to memory space."""

    def __init__(
        self,
        feature_dim: int,
        memory_dim: int,
        hidden: int,
        alpha: float,
        rng: np.random.Generator,
    ):
        if alpha < 0:
            raise ValidationError(f"alpha must be non-negative, got {alpha}")
        if hidden < 1:
            raise ValidationError("structmap hidden width must be >= 1")
        self.alpha = float(alpha)
        self.mlp = Mlp(
            MlpSpec(feature_dim, (hidden, hidden), memory_dim), rng, name="structmap"
        )

    @property
    def feature_dim(self) -> int:
        return self.mlp.spec.input_dim

    @property
    def memory_dim(self) -> int:
        return self.mlp.spec.output_dim

    @property
    def hidden(self) -> int:
        return self.mlp.spec.hidden_dims[0]

    def parameters(self) -> list[tuple[str, Tensor]]:
        return self.mlp.parameters()

    def state_dict(self) -> dict:
        return {name: p.values.tolist() for name, p in self.parameters()}

    def load_state_dict(self, state: dict) -> None:
        for name, p in self.parameters():
            p.values = np.array(state[name], dtype=np.float64).reshape(p.values.shape)

    def copy(self) -> "StructMapParams":
        clone = StructMapParams(
            self.feature_dim, self.memory_dim, self.hidden, self.alpha, np.random.default_rng(0)
        )
        clone.load_state_dict(self.state_dict())
        return clone

    def forward(self, features_std: np.ndarray) -> tuple[np.ndarray, list]:
        return self.mlp.forward(np.atleast_2d(features_std))

    def backward(self, cache: list, dout: np.ndarray) -> np.ndarray:
        return self.mlp.backward(cache, dout)


def structmap_forward(params: StructMapParams, features: StructuralFeatureVector) -> np.ndarray:
    """Predicted memory vector for one standardized feature vector."""
    if not features.standardized:
        raise ContractError("structmap input must be standardized features")
    out, _ = params.forward(features.values)
    return out[0]


def structmap_loss(
    params: StructMapParams, features_std: np.ndarray, target_memories: np.ndarray
) -> tuple[float, tuple]:
    """Mean squared error between predictions and (constant) memory targets."""
    features_std = np.atleast_2d(np.asarray(features_std, dtype=np.float64))
    targets = np.atleast_2d(np.asarray(target_memories, dtype=np.float64))
    if features_std.shape[0] != targets.shape[0]:
        raise ContractError("feature/target row counts differ")
    pred, cache = params.forward(features_std)
    diff = pred - targets
    mse = float((diff * diff).mean())
    return mse, (cache, diff)


def structmap_loss_backward(
    params: StructMapParams, loss_cache: tuple, scale: float = 1.0
) -> np.ndarray:
    """Accumulate d(scale * mse)/d params; returns d(loss)/d targets.

    The returned target gradient is what coupled mode feeds back into the
    memory path; detached mode discards it.
    """
    cache, diff = loss_cache
    dpred = scale * 2.0 * diff / diff.size
    params.backward(cache, dpred)
    return -dpred


BatchRows = dict[tuple[int, int], tuple[np.ndarray, np.ndarray]]


class StructMapTrainer:
    """Per-batch regression bookkeeping used inside the training loop.

    For each batch it regresses the standardized window rows of the batch
    (window nodes plus endpoints, see `WindowFeatures.batch_rows`) onto those
    nodes' current memory rows. Feature rows do not depend on parameters, so
    they are computed once per fit: `rows` is the dict that
    `fit_window_standardizer` returns, already standardized and keyed by
    batch slice, and every epoch reads it. A batch outside it is an error.
    """

    def __init__(
        self,
        params: StructMapParams,
        rows: BatchRows,
        coupled: bool = False,
    ):
        self.params = params
        self.coupled = coupled
        self._rows = rows

    def batch_features(self, batch) -> tuple[np.ndarray, np.ndarray]:
        return self._rows[(batch.start, batch.stop)]

    def loss_for_batch(self, batch, state) -> tuple[float, tuple, np.ndarray]:
        nodes, feats = self.batch_features(batch)
        targets = state.store.memory[nodes]
        loss, cache = structmap_loss(self.params, feats, targets)
        return loss, cache, nodes

    def backward(self, loss_cache: tuple) -> np.ndarray:
        return structmap_loss_backward(self.params, loss_cache, scale=self.params.alpha)

    def zero_grad(self) -> None:
        for _, p in self.params.parameters():
            p.zero_grad()


def fit_window_standardizer(features: WindowFeatures, batches) -> tuple[FeatureStandardizer, BatchRows]:
    """Fit feature statistics over every batch's window rows.

    Returns the rows too, standardized in place after the fit and keyed by
    batch slice, for `StructMapTrainer` to read instead of computing them
    again.
    """
    per_batch = [features.batch_rows(batch) for batch in batches]
    if not per_batch:
        raise ValidationError("cannot fit a standardizer on an empty stream")
    standardizer = FeatureStandardizer.fit(np.concatenate([raw for _, raw in per_batch], axis=0))
    for _, raw in per_batch:
        standardizer.apply(raw, out=raw)
    rows = {(batch.start, batch.stop): nodes_raw for batch, nodes_raw in zip(batches, per_batch)}
    return standardizer, rows


def cold_start(
    store,
    node: int,
    raw: np.ndarray,
    t: float,
    standardizer: FeatureStandardizer,
    sm_params: StructMapParams,
) -> bool:
    """Initialize one never-seen node's memory row from its raw window features.

    The structural map runs on this one row: a one-row product is not bitwise
    equal to the same row inside a stacked one, so rows are not batched.
    Idempotent: a node that already has state is left alone (audit-logged).
    Returns True when the row was written.
    """
    if store.seen(node):
        log.info("cold_start skipped: node %d already initialized", node)
        return False
    std = standardizer.apply_vector(StructuralFeatureVector(raw))
    store.memory[node] = structmap_forward(sm_params, std)
    store.last_update[node] = t
    return True
