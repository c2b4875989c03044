"""Transfer-learning harness: training driver, scenarios, metrics, sweeps.

Three deployment protocols are implemented against a model trained on a
node-disjoint graph:

* ``no_warm_start``  - stream the test graph with zero-initialized memory.
* ``warm_start``     - fine-tune on the leading fraction of test events, then
                       freeze and evaluate the remainder.
* ``structural_mapping`` - no gradient updates; every node is cold-started at
                       first appearance from its window-graph features.

Evaluation negatives are drawn once per (seed, stream), independent of the
scenario, so comparisons between scenarios are paired.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

from .errors import ContractError, DivergenceError, ValidationError
from .events import EventBatch, EventStream, GeneratorSpec, generate_synthetic, make_batches, sample_negatives
from .graphs import aggregate_static
from .features import FeatureStandardizer, WindowFeatures
from .model import (
    MemoryStore,
    ModelConfig,
    NeighborCache,
    RunState,
    TgnModel,
    bce_loss,
    forward_batch,
    stream_batches,
    train_batches,
    train_epoch,
)
from .nn import Adam
from .rngs import child_rng
from .splitting import louvain, make_transfer_split
from .structmap import StructMapParams, StructMapTrainer, cold_start, fit_window_standardizer, structmap_loss

SCENARIO_KINDS = ("no_warm_start", "warm_start", "structural_mapping")


@dataclass(frozen=True)
class TransferScenario:
    """Declarative description of one deployment protocol."""

    kind: str
    finetune_fraction: float = 0.20
    alpha: float | None = None
    window_fraction: float | None = None
    finetune_parameters: bool = True

    def __post_init__(self):
        if self.kind not in SCENARIO_KINDS:
            raise ValidationError(f"unknown scenario kind {self.kind!r}")
        if not (0.0 <= self.finetune_fraction < 1.0):
            raise ValidationError("finetune_fraction must be in [0, 1)")
        if self.window_fraction is not None and not (0 < self.window_fraction <= 1):
            raise ValidationError("window_fraction must be in (0, 1]")


@dataclass
class MetricsRecord:
    """Per-batch loss curves and aggregate ranking metrics for one run."""

    scenario: str
    seed: int
    config_hash: str = ""
    batch_total_loss: list[float] = field(default_factory=list)
    batch_tlp_loss: list[float] = field(default_factory=list)
    batch_structmap_loss: list[float] = field(default_factory=list)
    finetune_batch_loss: list[float] = field(default_factory=list)
    mrr: float = 0.0
    hits: dict[int, float] = field(default_factory=dict)
    eval_event_range: tuple[int, int] = (0, 0)
    eval_time_range: tuple[float, float] = (0.0, 0.0)
    finetune_event_range: tuple[int, int] = (0, 0)
    finetune_cutoff_time: float | None = None
    optimizer_steps: int = 0
    cold_starts: int = 0
    alpha: float = 0.0
    num_eval_events: int = 0
    wall_clock_seconds: float = 0.0

    @property
    def mean_eval_loss(self) -> float:
        return float(np.mean(self.batch_tlp_loss)) if self.batch_tlp_loss else float("nan")

    @property
    def mean_total_loss(self) -> float:
        return float(np.mean(self.batch_total_loss)) if self.batch_total_loss else float("nan")

    def to_dict(self) -> dict:
        return {
            "scenario": self.scenario,
            "seed": self.seed,
            "config_hash": self.config_hash,
            "mrr": self.mrr,
            "hits": {str(k): v for k, v in sorted(self.hits.items())},
            "mean_eval_loss": self.mean_eval_loss,
            "mean_total_loss": self.mean_total_loss,
            "batch_total_loss": self.batch_total_loss,
            "batch_tlp_loss": self.batch_tlp_loss,
            "batch_structmap_loss": self.batch_structmap_loss,
            "finetune_batch_loss": self.finetune_batch_loss,
            "eval_event_range": list(self.eval_event_range),
            "eval_time_range": list(self.eval_time_range),
            "finetune_event_range": list(self.finetune_event_range),
            "finetune_cutoff_time": self.finetune_cutoff_time,
            "optimizer_steps": self.optimizer_steps,
            "cold_starts": self.cold_starts,
            "alpha": self.alpha,
            "num_eval_events": self.num_eval_events,
            "timing": {"wall_clock_seconds": self.wall_clock_seconds},
        }


def compute_ranking_metrics(
    pos_scores: np.ndarray, neg_scores: np.ndarray, ks: tuple[int, ...] = (1, 5, 10)
) -> tuple[float, dict[int, float], np.ndarray]:
    """MRR and Hits@K with optimistic-pessimistic averaged ranks on ties.

    rank = average of the best rank (ties broken in favor) and worst rank
    (ties broken against) = 1 + #greater + #equal/2.
    """
    if any(k < 1 for k in ks):
        raise ValidationError("Hits@K cutoffs must be >= 1")
    pos = np.asarray(pos_scores, dtype=np.float64)
    neg = np.asarray(neg_scores, dtype=np.float64)
    if neg.ndim != 2 or neg.shape[0] != pos.shape[0] or neg.shape[1] < 1:
        raise ValidationError("neg_scores must be (num_events, k >= 1)")
    greater = (neg > pos[:, None]).sum(axis=1)
    equal = (neg == pos[:, None]).sum(axis=1)
    ranks = 1.0 + greater + equal / 2.0
    mrr = float((1.0 / ranks).mean())
    hits = {int(k): float((ranks <= k).mean()) for k in ks}
    return mrr, hits, ranks


@dataclass(frozen=True)
class TrainConfig:
    batch_size: int = 100
    lr: float = 1e-3
    epochs: int = 10
    patience: int = 5
    train_negatives: int = 1

    def __post_init__(self):
        if self.batch_size < 1 or self.epochs < 0 or self.train_negatives < 1:
            raise ValidationError("invalid training configuration")
        if self.lr < 0 or self.patience < 0:
            raise ValidationError("invalid training configuration")


@dataclass
class TrainedModel:
    """Everything needed to deploy: parameters, feature scaler, final memory."""

    model: TgnModel
    structmap: StructMapParams | None
    standardizer: FeatureStandardizer | None
    config: ModelConfig
    train_span: float
    store: MemoryStore
    epoch_history: list[dict] = field(default_factory=list)
    seed: int = 0
    config_hash: str = ""

    def clone_models(self) -> tuple[TgnModel, StructMapParams | None]:
        model = self.model.copy()
        sm = self.structmap.copy() if self.structmap is not None else None
        return model, sm


def _fresh_state(model: TgnModel, num_nodes: int) -> RunState:
    cfg = model.config
    return RunState(
        MemoryStore(num_nodes, cfg.d_m),
        NeighborCache(num_nodes, cfg.num_neighbors, cfg.d_e),
    )


def _draw_eval_negatives(
    stream: EventStream, k: int, rng: np.random.Generator
) -> np.ndarray:
    """One negative matrix for the whole stream, independent of batching."""
    if len(stream) == 0:
        return np.zeros((0, k), dtype=np.int64)
    whole = EventBatch(stream, 0, len(stream))
    return sample_negatives(whole, stream.num_nodes, k, rng)


@dataclass(frozen=True)
class StructMapDeployment:
    """What the structural_mapping scenario adds to a streaming evaluation.

    Each node is cold-started from its window features just before its first
    event enters the memory, and every batch logs the structural regression
    loss, weighted by `alpha`. Windows span `window_fraction * train_span`.
    """

    params: StructMapParams
    standardizer: FeatureStandardizer
    alpha: float
    window_fraction: float
    train_span: float


def _cold_start_batch(
    state: RunState,
    batch: EventBatch,
    structmap: StructMapDeployment,
    features: WindowFeatures,
    record: MetricsRecord,
) -> None:
    """Initialize the batch's never-seen nodes before the batch is queued.

    A node's first event triggers its cold start: just before that event
    enters the memory, the row is predicted from the node's features on the
    window ending where the next batch starts (just after the last event for
    the stream's last batch), which contains the node's first edges. The row
    timestamp is the node's first event time, so elapsed times stay
    non-negative and last_update stays monotone.
    """
    stream = batch.stream
    first_seen: dict[int, float] = {}
    for i in range(batch.start, batch.stop):
        t = float(stream.timestamps[i])
        for n in (int(stream.src[i]), int(stream.dst[i])):
            if not state.store.seen(n) and n not in first_seen:
                first_seen[n] = t
    if not first_seen:
        return
    window_end = (
        float(stream.timestamps[batch.stop])
        if batch.stop < len(stream)
        else np.nextafter(batch.batch_end_time, np.inf)
    )
    nodes = sorted(first_seen)
    raw = features.rows(window_end, nodes)
    for n, row in zip(nodes, raw):
        if cold_start(state.store, n, row, first_seen[n], structmap.standardizer, structmap.params):
            record.cold_starts += 1


def evaluate_stream(
    model: TgnModel,
    stream: EventStream,
    batches: list[EventBatch],
    state: RunState,
    negatives: np.ndarray,
    ks: tuple[int, ...],
    record: MetricsRecord,
    structmap: StructMapDeployment | None = None,
) -> None:
    """Stream batches without gradients, appending metrics to `record`.

    `structmap` turns on cold starts of newly appearing nodes and per-batch
    structural-regression loss logging. Both read the batch's window through
    one `WindowFeatures`, so each window is computed once for the two. Cold
    starts cover the nodes of `batches` only, not those of a batch already
    pending in `state`; only `run_transfer` sets `structmap`, and it always
    passes a fresh state.
    """
    features = (
        WindowFeatures(stream, structmap.window_fraction, structmap.train_span, model.config.d_p)
        if structmap is not None
        else None
    )
    all_pos: list[np.ndarray] = []
    all_neg: list[np.ndarray] = []

    def step(batch: EventBatch, _) -> None:
        negs = negatives[batch.start : batch.stop]
        fwd = forward_batch(model, batch, negs, state)
        # Per-batch loss is the training objective on this batch: BCE over
        # positives and one seeded negative each (the first column). The full
        # negative set serves the ranking metrics.
        probs = np.concatenate([fwd.pos_probs, fwd.neg_probs[:, 0]])
        labels = np.concatenate([np.ones(len(batch)), np.zeros(len(batch))])
        batch_loss = bce_loss(probs, labels)
        if not np.isfinite(batch_loss):
            raise DivergenceError("non-finite evaluation loss")
        sm_loss = 0.0
        total = batch_loss
        if structmap is not None:
            nodes, raw = features.batch_rows(batch)
            sm_loss, _ = structmap_loss(
                structmap.params,
                structmap.standardizer.apply(raw, out=raw),
                state.store.memory[nodes],
            )
            total = batch_loss + structmap.alpha * sm_loss
            _cold_start_batch(state, batch, structmap, features, record)
        record.batch_tlp_loss.append(float(batch_loss))
        record.batch_structmap_loss.append(float(sm_loss))
        record.batch_total_loss.append(float(total))
        all_pos.append(fwd.pos_probs)
        all_neg.append(fwd.neg_probs)

    stream_batches(model, state, batches, step)
    model.flush_pending(state)
    if all_pos:
        mrr, hits, _ = compute_ranking_metrics(
            np.concatenate(all_pos), np.concatenate(all_neg, axis=0), ks
        )
        record.mrr = mrr
        record.hits = hits
        record.num_eval_events = int(sum(len(p) for p in all_pos))


def fit(
    train_stream: EventStream,
    val_stream: EventStream | None,
    model_config: ModelConfig,
    train_config: TrainConfig,
    seed: int,
    config_hash: str = "",
    eval_negatives: int = 20,
    ks: tuple[int, ...] = (1, 5, 10),
) -> TrainedModel:
    """Train on one stream with optional early stopping on validation loss.

    The validation stream is node-disjoint, so validation runs are streaming
    evaluations from a fresh zero memory, mirroring deployment.
    """
    if len(train_stream) == 0:
        raise ValidationError("cannot train on an empty stream")
    span = max(train_stream.time_span, 1e-12)
    model = TgnModel(model_config, span, child_rng(seed, "tgn-init"))

    structmap = None
    standardizer = None
    sm_trainer = None
    batches = make_batches(train_stream, train_config.batch_size)
    if model_config.use_structmap:
        features = WindowFeatures(
            train_stream, model_config.window_fraction, span, model_config.d_p
        )
        standardizer, rows = fit_window_standardizer(features, batches)
        structmap = StructMapParams(
            model_config.d_s,
            model_config.d_m,
            model_config.structmap_hidden,
            model_config.alpha,
            child_rng(seed, "structmap-init"),
        )
        sm_trainer = StructMapTrainer(structmap, rows, coupled=model_config.coupled_structmap)

    optimizer = Adam([model] + ([structmap] if structmap else []), lr=train_config.lr)
    train_rng = child_rng(seed, "train-negatives")
    val_negs = None
    if val_stream is not None and len(val_stream) > 0:
        val_negs = _draw_eval_negatives(val_stream, eval_negatives, child_rng(seed, "val-negatives"))

    history: list[dict] = []
    best_val = np.inf
    best_snapshot = None
    bad_epochs = 0
    final_store = MemoryStore(train_stream.num_nodes, model_config.d_m)
    for epoch in range(train_config.epochs):
        state = _fresh_state(model, train_stream.num_nodes)
        stats = train_epoch(
            train_stream,
            state,
            model,
            optimizer,
            train_config.batch_size,
            train_config.train_negatives,
            train_rng,
            sm_trainer,
        )
        model.flush_pending(state)
        final_store = state.store
        entry = {
            "epoch": epoch,
            "mean_total_loss": stats.mean_total,
            "mean_tlp_loss": stats.mean_tlp,
            "mean_structmap_loss": float(np.mean(stats.structmap_losses)),
            "batch_total_loss": [float(x) for x in stats.total_losses],
            "batch_tlp_loss": [float(x) for x in stats.tlp_losses],
            "batch_structmap_loss": [float(x) for x in stats.structmap_losses],
        }
        if val_negs is not None:
            rec = MetricsRecord(scenario="validation", seed=seed)
            evaluate_stream(
                model,
                val_stream,
                make_batches(val_stream, train_config.batch_size),
                _fresh_state(model, val_stream.num_nodes),
                val_negs,
                ks,
                rec,
            )
            entry["val_loss"] = rec.mean_eval_loss
            entry["val_mrr"] = rec.mrr
            if rec.mean_eval_loss < best_val - 1e-12:
                best_val = rec.mean_eval_loss
                best_snapshot = (
                    [s.flat_values.copy() for s in optimizer.sets],
                    state.store.snapshot(),
                )
                bad_epochs = 0
            else:
                bad_epochs += 1
        history.append(entry)
        if val_negs is not None and bad_epochs > train_config.patience:
            break

    if best_snapshot is not None:
        for s, values in zip(optimizer.sets, best_snapshot[0]):
            s.flat_values[:] = values
        final_store.restore(best_snapshot[1])

    return TrainedModel(
        model=model,
        structmap=structmap,
        standardizer=standardizer,
        config=model_config,
        train_span=span,
        store=final_store,
        epoch_history=history,
        seed=seed,
        config_hash=config_hash,
    )


def run_transfer(
    trained: TrainedModel,
    test_stream: EventStream,
    scenario: TransferScenario,
    seed: int,
    eval_negatives: int = 20,
    ks: tuple[int, ...] = (1, 5, 10),
    batch_size: int = 100,
    finetune_lr: float | None = None,
) -> MetricsRecord:
    """Deploy a trained model on a node-disjoint stream under one scenario.

    The test stream lives in its own dense node space and starts from a fresh
    zero memory. Metrics cover only the scenario's evaluation region.
    """
    if len(test_stream) == 0:
        raise ValidationError("empty test stream")
    t_start = time.perf_counter()
    model, structmap = trained.clone_models()
    record = MetricsRecord(
        scenario=scenario.kind, seed=seed, config_hash=trained.config_hash
    )
    state = _fresh_state(model, test_stream.num_nodes)
    negatives = _draw_eval_negatives(
        test_stream, eval_negatives, child_rng(seed, "transfer-eval-negatives")
    )

    n_events = len(test_stream)
    eval_start = 0
    if scenario.kind == "warm_start":
        n_ft = int(np.floor(scenario.finetune_fraction * n_events))
        eval_start = n_ft
        if n_ft > 0:
            ft_batches = make_batches(test_stream, batch_size, 0, n_ft)
            record.finetune_cutoff_time = float(test_stream.timestamps[n_ft - 1])
            record.finetune_event_range = (0, n_ft)
            if scenario.finetune_parameters:
                optimizer = Adam([model], lr=3e-4 if finetune_lr is None else finetune_lr)
                ft_rng = child_rng(seed, "finetune-negatives")
                stats = train_batches(model, optimizer, state, ft_batches, 1, ft_rng)
                record.finetune_batch_loss = stats.tlp_losses
                record.optimizer_steps = optimizer.steps
            else:
                # Frozen parameters: the batches only build memory and neighbors.
                stream_batches(model, state, ft_batches, lambda batch, flush_record: None)
    elif scenario.kind == "structural_mapping":
        if structmap is None or trained.standardizer is None:
            raise ContractError(
                "structural_mapping scenario requires a model trained with the structural map"
            )

    deployment = None
    if scenario.kind == "structural_mapping":
        alpha = scenario.alpha if scenario.alpha is not None else structmap.alpha
        w = scenario.window_fraction or trained.config.window_fraction
        record.alpha = alpha
        deployment = StructMapDeployment(
            structmap, trained.standardizer, alpha, w, trained.train_span
        )

    eval_batches = make_batches(test_stream, batch_size, eval_start)
    if not eval_batches:
        raise ValidationError("scenario leaves no events to evaluate")
    record.eval_event_range = (eval_start, n_events)
    record.eval_time_range = (
        float(test_stream.timestamps[eval_start]),
        float(test_stream.timestamps[-1]),
    )
    if record.eval_event_range[0] < record.finetune_event_range[1]:
        raise ContractError(
            f"evaluation starts at event {record.eval_event_range[0]}, inside the "
            f"fine-tuning range ending at {record.finetune_event_range[1]}"
        )
    evaluate_stream(
        model,
        test_stream,
        eval_batches,
        state,
        negatives,
        ks,
        record,
        structmap=deployment,
    )
    record.wall_clock_seconds = time.perf_counter() - t_start
    return record


@dataclass(frozen=True)
class ExperimentConfig:
    """Full pipeline settings: generate -> split -> train -> three transfers."""

    generator: GeneratorSpec = GeneratorSpec()
    model: ModelConfig = ModelConfig()
    train: TrainConfig = TrainConfig()
    balance_tolerance: float = 0.25
    allow_two_way: bool = True
    eval_negatives: int = 20
    hits_ks: tuple[int, ...] = (1, 5, 10)
    finetune_fraction: float = 0.20
    finetune_lr: float | None = None
    config_hash: str = ""


@dataclass
class ExperimentResult:
    seed: int
    records: dict[str, MetricsRecord]
    split_balance: dict
    modularity: float
    train_history: list[dict]
    error: str | None = None


def default_scenarios(cfg: ExperimentConfig) -> list[TransferScenario]:
    return [
        TransferScenario("no_warm_start"),
        TransferScenario("warm_start", finetune_fraction=cfg.finetune_fraction),
        TransferScenario("structural_mapping"),
    ]


def run_experiment(cfg: ExperimentConfig, seed: int) -> ExperimentResult:
    """Generate, split, train, and run the three scenarios for one seed."""
    stream = generate_synthetic(cfg.generator, child_rng(seed, "generate"))
    graph = aggregate_static(stream)
    assignment = louvain(graph, child_rng(seed, "louvain"))
    split = make_transfer_split(
        stream, assignment, cfg.balance_tolerance, allow_two_way=cfg.allow_two_way
    )
    trained = fit(
        split.train,
        split.val,
        cfg.model,
        cfg.train,
        seed,
        config_hash=cfg.config_hash,
        eval_negatives=cfg.eval_negatives,
        ks=cfg.hits_ks,
    )
    records = {}
    for scenario in default_scenarios(cfg):
        records[scenario.kind] = run_transfer(
            trained,
            split.test,
            scenario,
            seed,
            eval_negatives=cfg.eval_negatives,
            ks=cfg.hits_ks,
            batch_size=cfg.train.batch_size,
            finetune_lr=cfg.finetune_lr,
        )
    return ExperimentResult(
        seed=seed,
        records=records,
        split_balance=split.balance,
        modularity=assignment.modularity,
        train_history=trained.epoch_history,
    )


@dataclass
class SweepReport:
    seeds: list[int]
    results: list[ExperimentResult]
    dispersion: dict[str, dict[str, float]]

    def to_dict(self) -> dict:
        return {
            "seeds": self.seeds,
            "dispersion": self.dispersion,
            "per_seed": [
                {
                    "seed": r.seed,
                    "error": r.error,
                    "records": {k: v.to_dict() for k, v in r.records.items()},
                }
                for r in self.results
            ],
        }


def seed_sweep(cfg: ExperimentConfig, seeds: list[int]) -> SweepReport:
    """Run the full pipeline per seed and summarize dispersion.

    A diverging run is recorded with its error and excluded from the summary
    rather than aborting the sweep.
    """
    if len(seeds) < 2:
        raise ValidationError("seed sweep needs at least 2 seeds")
    results: list[ExperimentResult] = []
    for seed in seeds:
        try:
            results.append(run_experiment(cfg, seed))
        except DivergenceError as err:
            results.append(
                ExperimentResult(
                    seed=seed,
                    records={},
                    split_balance={},
                    modularity=float("nan"),
                    train_history=[],
                    error=str(err),
                )
            )
    dispersion: dict[str, dict[str, float]] = {}
    for kind in SCENARIO_KINDS:
        losses = [
            r.records[kind].mean_eval_loss for r in results if r.error is None and kind in r.records
        ]
        mrrs = [r.records[kind].mrr for r in results if r.error is None and kind in r.records]
        if not losses:
            continue
        dispersion[kind] = {
            "loss_mean": float(np.mean(losses)),
            "loss_std": float(np.std(losses, ddof=1)) if len(losses) > 1 else 0.0,
            "loss_min": float(np.min(losses)),
            "loss_max": float(np.max(losses)),
            "mrr_mean": float(np.mean(mrrs)),
            "mrr_std": float(np.std(mrrs, ddof=1)) if len(mrrs) > 1 else 0.0,
            "runs": len(losses),
        }
    return SweepReport(seeds=list(seeds), results=results, dispersion=dispersion)
