"""Memory-based temporal link prediction model.

Five pieces cooperate per edge batch: a per-node memory store, a message MLP
over [own memory || other memory || elapsed-time encoding || edge features],
a GRU memory updater, a trainable cosine time encoder, and an attention
readout over each node's recent neighbors, topped by an MLP link decoder.

Batch semantics: predictions for a batch always read strictly pre-batch
state. The batch's own events are stored as "pending" and applied to the
memory at the start of the next batch (with the parameters current at that
point, i.e. after the previous optimizer step). Applying them lazily keeps
the observable state identical to an eager end-of-batch update while letting
gradients reach the message MLP and the GRU through the flush recomputation.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields

import numpy as np

from .errors import ContractError, DivergenceError, ValidationError
from .events import EventBatch, EventStream, make_batches, sample_negatives
from .features import feature_dim
from .nn import AttentionReadout, GruCell, Mlp, MlpSpec, Tensor, TimeEncoder, sigmoid

NEVER_SEEN = -np.inf


@dataclass(frozen=True)
class ModelConfig:
    """Architecture dimensions and structural-map settings."""

    d_m: int = 32
    d_t: int = 8
    d_att: int = 32
    d_n: int = 32
    d_e: int = 0
    message_hidden: tuple[int, ...] = (64,)
    decoder_hidden: tuple[int, ...] = (64,)
    num_neighbors: int = 10
    d_p: int = 4
    use_structmap: bool = True
    structmap_hidden: int = 64
    alpha: float = 1.0
    window_fraction: float = 0.01
    coupled_structmap: bool = False

    def __post_init__(self):
        for name in ("d_m", "d_t", "d_att", "d_n", "num_neighbors", "d_p"):
            if getattr(self, name) < 1:
                raise ValidationError(f"{name} must be >= 1")
        if self.d_e < 0:
            raise ValidationError("d_e must be >= 0")
        if not (0 < self.window_fraction <= 1):
            raise ValidationError("window_fraction must be in (0, 1]")
        if self.alpha < 0:
            raise ValidationError("alpha must be >= 0")

    @property
    def d_s(self) -> int:
        return feature_dim(self.d_p)

    @property
    def message_input_dim(self) -> int:
        return 2 * self.d_m + self.d_t + self.d_e

    @property
    def kv_input_dim(self) -> int:
        return self.d_m + self.d_e + self.d_t

    @property
    def query_input_dim(self) -> int:
        return self.d_m + self.d_t

    def to_dict(self) -> dict:
        """Every field; tuples become lists, as JSON writes them."""
        out = {f.name: getattr(self, f.name) for f in fields(self)}
        return {k: list(v) if isinstance(v, tuple) else v for k, v in out.items()}

    @classmethod
    def from_dict(cls, d: dict) -> "ModelConfig":
        return cls(**{k: tuple(v) if isinstance(v, list) else v for k, v in d.items()})


class MemoryStore:
    """Per-node memory vectors and last-update timestamps.

    Never-seen nodes have an all-zero row and a -inf last-update sentinel.
    For elapsed-time encoding the sentinel reads as "never updated since the
    time origin", i.e. dt = t, so freshness is visible to the time encoder
    rather than masquerading as a just-updated node.
    """

    def __init__(self, num_nodes: int, d_m: int):
        self.memory = np.zeros((num_nodes, d_m))
        self.last_update = np.full(num_nodes, NEVER_SEEN)

    @property
    def num_nodes(self) -> int:
        return self.memory.shape[0]

    @property
    def d_m(self) -> int:
        return self.memory.shape[1]

    def seen(self, node: int) -> bool:
        return self.last_update[node] != NEVER_SEEN

    def elapsed(self, nodes: np.ndarray, t: np.ndarray) -> np.ndarray:
        lu = self.last_update[nodes]
        return np.where(lu == NEVER_SEEN, t, t - lu)

    def snapshot(self) -> tuple[np.ndarray, np.ndarray]:
        return self.memory.copy(), self.last_update.copy()

    def restore(self, snap: tuple[np.ndarray, np.ndarray]) -> None:
        self.memory = snap[0].copy()
        self.last_update = snap[1].copy()

    def to_dict(self) -> dict:
        """Plain lists for strict JSON: a never-seen row's -inf sentinel is written as None."""
        last_update = [None if t == NEVER_SEEN else t for t in self.last_update.tolist()]
        return {"memory": self.memory.tolist(), "last_update": last_update}

    @classmethod
    def from_dict(cls, d: dict) -> "MemoryStore":
        """Reads None, or the -inf that older checkpoints held, as never seen."""
        mem = np.array(d["memory"], dtype=np.float64)
        store = cls(mem.shape[0], mem.shape[1] if mem.ndim == 2 else 0)
        store.memory = mem
        last_update = [NEVER_SEEN if t is None else t for t in d["last_update"]]
        store.last_update = np.array(last_update, dtype=np.float64)
        return store


def endpoint_order(batch: EventBatch) -> tuple[np.ndarray, np.ndarray]:
    """(owner, other) per endpoint in event order, src before dst.

    Event i is entries 2i (src, dst) and 2i + 1 (dst, src).
    """
    owners = np.stack([batch.src, batch.dst], axis=1).reshape(-1)
    others = np.stack([batch.dst, batch.src], axis=1).reshape(-1)
    return owners, others


class NeighborCache:
    """Per-node ring buffer of the k most recent (neighbor, time, features).

    TGN's last-neighbor loader: `ids`, `times` and `feat` hold k slots per
    node and `count[u]` is how many entries node u has ever received. Its
    j-th most recent entry sits in slot `(count[u] - 1 - j) % k`; slots that
    never received an entry stay exactly zero.
    """

    def __init__(self, num_nodes: int, k: int, d_e: int):
        if k < 1:
            raise ValidationError("neighbor cache size must be >= 1")
        self.k = k
        self.d_e = d_e
        self.ids = np.zeros((num_nodes, k), dtype=np.int64)
        self.times = np.zeros((num_nodes, k))
        self.feat = np.zeros((num_nodes, k, d_e))
        self.count = np.zeros(num_nodes, dtype=np.int64)

    def insert_batch(self, batch: EventBatch) -> None:
        """Append each event to src's buffer, then to dst's, in stream order.

        Only each node's last k appends survive, and those land in distinct
        slots, so the writes replay the sequential order exactly.
        """
        owners, others = endpoint_order(batch)
        order = np.argsort(owners, kind="stable")
        owner = owners[order]
        nodes, first, appends = np.unique(owner, return_index=True, return_counts=True)
        rank = np.arange(len(owner)) - np.repeat(first, appends)
        keep = rank >= np.repeat(appends - self.k, appends)
        pos, u = order[keep], owner[keep]
        slot = (self.count[u] + rank[keep]) % self.k
        self.ids[u, slot] = others[pos]
        self.times[u, slot] = batch.timestamps[pos // 2]
        self.feat[u, slot] = batch.edge_feat[pos // 2]
        self.count[nodes] += appends

    def gather(self, nodes: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """(ids, times, feat, mask) per node, most recent first; empty slots are 0."""
        c = self.count[nodes][:, None]
        back = np.arange(self.k)
        flat = nodes[:, None] * self.k + (c - 1 - back) % self.k
        return (
            self.ids.reshape(-1)[flat],
            self.times.reshape(-1)[flat],
            self.feat.reshape(self.ids.size, self.d_e)[flat],
            back < c,
        )

    def copy(self) -> "NeighborCache":
        clone = NeighborCache(0, self.k, self.d_e)
        clone.ids = self.ids.copy()
        clone.times = self.times.copy()
        clone.feat = self.feat.copy()
        clone.count = self.count.copy()
        return clone

    def to_dict(self) -> dict:
        """Each node's entries oldest first, as [id, t, feat] triples."""
        ids, times, feat, _ = self.gather(np.arange(len(self.count)))
        ids, times, feat = ids.tolist(), times.tolist(), feat.tolist()
        return {
            "k": self.k,
            "d_e": self.d_e,
            "buffers": [
                [[ids[u][j], times[u][j], feat[u][j]] for j in range(n - 1, -1, -1)]
                for u, n in enumerate(np.minimum(self.count, self.k).tolist())
            ],
        }

    @classmethod
    def from_dict(cls, d: dict) -> "NeighborCache":
        cache = cls(len(d["buffers"]), int(d["k"]), int(d["d_e"]))
        for u, buf in enumerate(d["buffers"]):
            buf = buf[-cache.k :]
            for slot, (n, t, f) in enumerate(buf):
                cache.ids[u, slot] = int(n)
                cache.times[u, slot] = float(t)
                cache.feat[u, slot] = np.array(f, dtype=np.float64)
            cache.count[u] = len(buf)
        return cache


@dataclass
class Messages:
    """Per-node reduced messages for one batch (keep-latest reduction)."""

    nodes: np.ndarray  # (P,) sorted
    values: np.ndarray  # (P, d_m)
    timestamps: np.ndarray  # (P,)
    caches: tuple | None = None


@dataclass
class RunState:
    """Mutable streaming state owned by one training or evaluation loop."""

    store: MemoryStore
    cache: NeighborCache
    pending: EventBatch | None = None


class TgnModel:
    """Bundles the five components plus the link decoder."""

    def __init__(self, config: ModelConfig, span: float, rng: np.random.Generator):
        self.config = config
        self.train_span = float(span)
        self.time_enc = TimeEncoder(config.d_t, span=max(span, 1e-12))
        self.message_mlp = Mlp(
            MlpSpec(config.message_input_dim, config.message_hidden, config.d_m),
            rng,
            name="message_mlp",
        )
        self.updater = GruCell(config.d_m, config.d_m, rng, name="updater")
        self.attention = AttentionReadout(
            config.query_input_dim, config.kv_input_dim, config.d_att, config.d_n, rng
        )
        self.decoder = Mlp(
            MlpSpec(2 * config.d_n, config.decoder_hidden, 1), rng, name="decoder"
        )

    def parameters(self) -> list[tuple[str, Tensor]]:
        out: list[tuple[str, Tensor]] = []
        out.extend(self.time_enc.parameters())
        out.extend(self.message_mlp.parameters())
        out.extend(self.updater.parameters())
        out.extend(self.attention.parameters())
        out.extend(self.decoder.parameters())
        return out

    def zero_grad(self) -> None:
        for _, p in self.parameters():
            p.zero_grad()

    def state_dict(self) -> dict:
        return {name: p.values.tolist() for name, p in self.parameters()}

    def load_state_dict(self, state: dict) -> None:
        for name, p in self.parameters():
            p.values = np.array(state[name], dtype=np.float64).reshape(p.values.shape)

    def copy(self) -> "TgnModel":
        clone = TgnModel(self.config, self.train_span, np.random.default_rng(0))
        clone.load_state_dict(self.state_dict())
        return clone

    # ----- messages and memory -----

    def compute_messages(
        self, batch: EventBatch, store: MemoryStore, want_caches: bool = False
    ) -> Messages:
        """Raw message per endpoint, reduced to the most recent per node.

        Message input for node u in event (u, v, t, e) is
        [mem_u || mem_v || time_encode(t - last_update_u) || e] read from the
        pre-update memory.
        """
        hi = max(int(batch.src.max()), int(batch.dst.max()))
        if hi >= store.num_nodes:
            raise ContractError(f"event endpoint {hi} >= store capacity {store.num_nodes}")
        # The last entry per node wins.
        owners, others = endpoint_order(batch)
        selfs, from_end = np.unique(owners[::-1], return_index=True)
        pos = len(owners) - 1 - from_end
        rows = pos // 2
        others = others[pos]
        ts = batch.timestamps[rows]
        dt = store.elapsed(selfs, ts)
        enc, enc_cache = self.time_enc.forward(dt)
        x = np.concatenate(
            [store.memory[selfs], store.memory[others], enc, batch.edge_feat[rows]], axis=1
        )
        msg, mlp_cache = self.message_mlp.forward(x)
        caches = (enc_cache, mlp_cache) if want_caches else None
        return Messages(selfs, msg, ts, caches)

    def update_memory(
        self, store: MemoryStore, messages: Messages, want_caches: bool = False
    ) -> tuple | None:
        """Apply messages through the GRU; raises DivergenceError on non-finite."""
        if len(messages.nodes) == 0:
            return None
        idx = np.asarray(messages.nodes, dtype=np.int64)
        h = store.memory[idx]
        h_new, gru_cache = self.updater.forward(h, messages.values)
        if not np.all(np.isfinite(h_new)):
            raise DivergenceError("non-finite memory after update")
        store.memory[idx] = h_new
        store.last_update[idx] = messages.timestamps
        return gru_cache if want_caches else None

    def flush_pending(self, state: RunState, want_caches: bool = False):
        """Apply the previous batch's events to the memory (lazy update)."""
        if state.pending is None:
            return None
        messages = self.compute_messages(state.pending, state.store, want_caches)
        gru_cache = self.update_memory(state.store, messages, want_caches)
        state.pending = None
        if want_caches:
            return (messages, gru_cache)
        return None

    def flush_backward(self, flush_record, dmem: np.ndarray) -> None:
        """Route memory gradients through the last flush into GRU/message MLP."""
        if flush_record is None:
            return
        messages, gru_cache = flush_record
        dh_new = dmem[messages.nodes]
        if not np.any(dh_new):
            return
        _, dmsg = self.updater.backward(gru_cache, dh_new)
        dx = self.message_mlp.backward(messages.caches[1], dmsg)
        d_enc = dx[:, 2 * self.config.d_m : 2 * self.config.d_m + self.config.d_t]
        self.time_enc.backward(messages.caches[0], d_enc)

    # ----- embedding and scoring -----

    def embed_pairs(
        self,
        nodes: np.ndarray,
        times: np.ndarray,
        store: MemoryStore,
        cache: NeighborCache,
        want_caches: bool = False,
    ) -> tuple[np.ndarray, tuple | None]:
        """Embeddings for (node, time) instances against current state."""
        cfg = self.config
        nodes = np.asarray(nodes, dtype=np.int64)
        times = np.asarray(times, dtype=np.float64)
        m = len(nodes)
        nbr_ids, nbr_t, nbr_feat, mask = cache.gather(nodes)
        nbr_dt = np.where(mask, times[:, None] - nbr_t, 0.0)
        q_dt = store.elapsed(nodes, times)
        q_enc, q_tc = self.time_enc.forward(q_dt)
        k_enc_flat, k_tc = self.time_enc.forward(nbr_dt.reshape(-1))
        k_enc = k_enc_flat.reshape(m, cache.k, cfg.d_t)
        q_in = np.concatenate([store.memory[nodes], q_enc], axis=1)
        kv_in = np.concatenate([store.memory[nbr_ids], nbr_feat, k_enc], axis=2)
        emb, att_cache = self.attention.forward(q_in, kv_in, mask)
        caches = (nodes, nbr_ids, mask, q_tc, k_tc, att_cache) if want_caches else None
        return emb, caches

    def embed_backward(self, caches: tuple, d_emb: np.ndarray, num_nodes: int) -> np.ndarray:
        """Backprop embeddings; returns d(loss)/d(memory) as an (N, d_m) array."""
        cfg = self.config
        nodes, nbr_ids, mask, q_tc, k_tc, att_cache = caches
        dq_in, dkv_in = self.attention.backward(att_cache, d_emb)
        d_mem_q = dq_in[:, : cfg.d_m]
        self.time_enc.backward(q_tc, dq_in[:, cfg.d_m :])
        d_kv_mem = dkv_in[..., : cfg.d_m]
        d_k_enc = dkv_in[..., cfg.d_m + cfg.d_e :]
        self.time_enc.backward(k_tc, d_k_enc.reshape(-1, cfg.d_t))
        dmem = np.zeros((num_nodes, cfg.d_m))
        np.add.at(dmem, nodes, d_mem_q)
        if mask.any():
            np.add.at(dmem, nbr_ids[mask], d_kv_mem[mask])
        return dmem

    def embed(
        self, nodes, t: float, store: MemoryStore, cache: NeighborCache
    ) -> np.ndarray:
        """Embed a node list at a common time against pre-batch state."""
        nodes = np.asarray(nodes, dtype=np.int64)
        lu = store.last_update[nodes]
        lu = lu[lu != NEVER_SEEN]
        if lu.size and t < lu.max():
            raise ContractError("embedding time precedes an involved last_update")
        emb, _ = self.embed_pairs(nodes, np.full(len(nodes), float(t)), store, cache)
        return emb

    def score_links(self, src_emb: np.ndarray, dst_emb: np.ndarray) -> np.ndarray:
        """Link probability per row pair."""
        if src_emb.shape != dst_emb.shape:
            raise ContractError("src/dst embedding shapes differ")
        logits, _ = self.decoder.forward(np.concatenate([src_emb, dst_emb], axis=1))
        return sigmoid(logits[:, 0])


def bce_loss(scores: np.ndarray, labels: np.ndarray, eps: float = 1e-12) -> float:
    """Binary cross-entropy averaged over all rows (positives and negatives)."""
    p = np.clip(np.asarray(scores, dtype=np.float64), eps, 1.0 - eps)
    y = np.asarray(labels, dtype=np.float64)
    return float(-(y * np.log(p) + (1.0 - y) * np.log(1.0 - p)).mean())


@dataclass
class BatchForward:
    """Forward pass artifacts for one batch (prediction side only)."""

    batch: EventBatch
    negatives: np.ndarray  # (B, k)
    tlp_loss: float
    pos_probs: np.ndarray  # (B,)
    neg_probs: np.ndarray  # (B, k)
    embed_caches: tuple | None = None
    decoder_cache: list | None = None
    probs: np.ndarray | None = None
    labels: np.ndarray | None = None


def forward_batch(
    model: TgnModel,
    batch: EventBatch,
    negatives: np.ndarray,
    state: RunState,
    want_caches: bool = False,
) -> BatchForward:
    """Embed endpoints and negatives at event timestamps; score and BCE."""
    b = len(batch)
    k = negatives.shape[1]
    nodes = np.concatenate([batch.src, batch.dst, negatives.reshape(-1)])
    times = np.concatenate([batch.timestamps, batch.timestamps, np.repeat(batch.timestamps, k)])
    emb, emb_caches = model.embed_pairs(nodes, times, state.store, state.cache, want_caches)
    src_e = emb[:b]
    dst_e = emb[b : 2 * b]
    neg_e = emb[2 * b :]
    dec_in = np.concatenate(
        [
            np.concatenate([src_e, dst_e], axis=1),
            np.concatenate([np.repeat(src_e, k, axis=0), neg_e], axis=1),
        ],
        axis=0,
    )
    logits, dec_cache = model.decoder.forward(dec_in)
    z = logits[:, 0]
    labels = np.concatenate([np.ones(b), np.zeros(b * k)])
    # Stable BCE from logits: mean(softplus(z) - y*z).
    loss = float((np.logaddexp(0.0, z) - labels * z).mean())
    probs = sigmoid(z)
    return BatchForward(
        batch=batch,
        negatives=negatives,
        tlp_loss=loss,
        pos_probs=probs[:b],
        neg_probs=probs[b:].reshape(b, k),
        embed_caches=emb_caches if want_caches else None,
        decoder_cache=dec_cache if want_caches else None,
        probs=probs if want_caches else None,
        labels=labels if want_caches else None,
    )


def backward_batch(model: TgnModel, fwd: BatchForward, num_nodes: int) -> np.ndarray:
    """Backprop the TLP loss; returns d(loss)/d(memory) over all nodes."""
    b = len(fwd.batch)
    k = fwd.negatives.shape[1]
    d_n = model.config.d_n
    dz = (fwd.probs - fwd.labels) / len(fwd.labels)
    d_dec_in = model.decoder.backward(fwd.decoder_cache, dz[:, None])
    d_pos = d_dec_in[:b]
    d_neg = d_dec_in[b:].reshape(b, k, 2 * d_n)
    d_src = d_pos[:, :d_n] + d_neg[:, :, :d_n].sum(axis=1)
    d_dst = d_pos[:, d_n:]
    d_neg_e = d_neg[:, :, d_n:].reshape(b * k, d_n)
    d_emb = np.concatenate([d_src, d_dst, d_neg_e], axis=0)
    return model.embed_backward(fwd.embed_caches, d_emb, num_nodes)


@dataclass
class EpochStats:
    total_losses: list[float] = field(default_factory=list)
    tlp_losses: list[float] = field(default_factory=list)
    structmap_losses: list[float] = field(default_factory=list)

    @property
    def mean_total(self) -> float:
        return float(np.mean(self.total_losses)) if self.total_losses else float("nan")

    @property
    def mean_tlp(self) -> float:
        return float(np.mean(self.tlp_losses)) if self.tlp_losses else float("nan")


def stream_batches(
    model: TgnModel, state: RunState, batches: list[EventBatch], step, want_caches: bool = False
) -> None:
    """The batch protocol every per-batch loop runs: training, replay, evaluation.

    Per batch: apply the pending batch to the memory, call
    `step(batch, flush_record)` on strictly pre-batch state, then queue the
    batch for the next flush and extend the neighbor cache. This is the one
    place a batch enters the state, so no batch can reach its own
    predictions. `flush_record` is the flush's backward cache when
    `want_caches`, else None. The last batch stays pending. A DivergenceError
    in a batch's flush or step is re-raised with that batch's index.
    """
    for bi, batch in enumerate(batches):
        try:
            flush_record = model.flush_pending(state, want_caches=want_caches)
            step(batch, flush_record)
        except DivergenceError as err:
            raise DivergenceError(str(err), batch_index=bi) from None
        state.pending = batch
        state.cache.insert_batch(batch)


def train_batches(
    model: TgnModel,
    optimizer,
    state: RunState,
    batches: list[EventBatch],
    negatives: int,
    rng: np.random.Generator,
    structmap_trainer=None,
) -> EpochStats:
    """One optimizer step per batch, in order; training and fine-tuning share it.

    Per batch: sample `negatives` per event, predict from pre-batch state,
    backprop (optionally with the alpha-weighted structural regression)
    through the predictions and the flush that built the pre-batch memory,
    and step the optimizer.
    """
    stats = EpochStats()
    # A batch's arrays stay alive until the next batch replaces them, as in a
    # plain loop. Freed all at once when each step returns, they let malloc
    # trim the heap, and the next batch faults its pages back in: about four
    # times the page faults and a quarter more CPU per wide_neighbors epoch.
    negs = fwd = dmem = sm_cache = None

    def step(batch: EventBatch, flush_rec) -> None:
        nonlocal negs, fwd, dmem, sm_cache
        num_nodes = batch.stream.num_nodes
        negs = sample_negatives(batch, num_nodes, negatives, rng)
        fwd = forward_batch(model, batch, negs, state, want_caches=True)
        total = fwd.tlp_loss
        sm_loss = 0.0
        sm_cache = None
        sm_nodes = None
        if structmap_trainer is not None:
            sm_loss, sm_cache, sm_nodes = structmap_trainer.loss_for_batch(batch, state)
            alpha = structmap_trainer.params.alpha
            if alpha != 0.0:
                total = total + alpha * sm_loss
        if not np.isfinite(total):
            raise DivergenceError("non-finite training loss")

        model.zero_grad()
        if structmap_trainer is not None:
            structmap_trainer.zero_grad()
        dmem = backward_batch(model, fwd, num_nodes)
        if structmap_trainer is not None and structmap_trainer.params.alpha != 0.0:
            d_targets = structmap_trainer.backward(sm_cache)
            if structmap_trainer.coupled:
                np.add.at(dmem, np.array(sm_nodes, dtype=np.int64), d_targets)
        model.flush_backward(flush_rec, dmem)
        optimizer.step()
        stats.tlp_losses.append(fwd.tlp_loss)
        stats.structmap_losses.append(float(sm_loss))
        stats.total_losses.append(float(total))

    stream_batches(model, state, batches, step, want_caches=True)
    return stats


def train_epoch(
    stream: EventStream,
    state: RunState,
    model: TgnModel,
    optimizer,
    batch_size: int,
    train_negatives: int,
    rng: np.random.Generator,
    structmap_trainer=None,
) -> EpochStats:
    """One chronological pass over `stream` in batches of `batch_size`."""
    return train_batches(
        model, optimizer, state, make_batches(stream, batch_size), train_negatives, rng, structmap_trainer
    )


# ----- parameter accounting -----


@dataclass
class ComponentCount:
    name: str
    weights: int
    biases: int

    @property
    def total(self) -> int:
        return self.weights + self.biases


@dataclass
class ParameterReport:
    """Actual counts, closed-form predictions, and the memory-store share."""

    num_nodes: int
    d_m: int
    components: list[ComponentCount]
    closed_forms: dict[str, dict[str, int]]
    reference_forms: dict[str, int]
    memory_entries: int

    @property
    def trainable_total(self) -> int:
        return sum(c.total for c in self.components)

    @property
    def memory_fraction(self) -> float:
        return self.memory_entries / (self.memory_entries + self.trainable_total)

    def to_dict(self) -> dict:
        return {
            "num_nodes": self.num_nodes,
            "d_m": self.d_m,
            "memory_entries": self.memory_entries,
            "trainable_total": self.trainable_total,
            "memory_fraction": self.memory_fraction,
            "components": {
                c.name: {"weights": c.weights, "biases": c.biases, "total": c.total}
                for c in self.components
            },
            "closed_forms": self.closed_forms,
            "reference_forms": self.reference_forms,
        }

    def as_table(self) -> str:
        lines = [f"{'component':<22}{'weights':>12}{'biases':>10}{'total':>12}"]
        for c in self.components:
            lines.append(f"{c.name:<22}{c.weights:>12}{c.biases:>10}{c.total:>12}")
        lines.append(f"{'trainable total':<22}{'':>12}{'':>10}{self.trainable_total:>12}")
        lines.append(f"{'memory entries':<22}{'':>12}{'':>10}{self.memory_entries:>12}")
        lines.append(f"memory fraction of all entries: {self.memory_fraction:.4f}")
        return "\n".join(lines)


def _mlp_forms(input_dim: int, hidden: tuple[int, ...], output_dim: int) -> dict[str, int]:
    spec = MlpSpec(input_dim, hidden, output_dim)
    return {"weights": spec.weight_count(), "biases": spec.bias_count()}


def count_parameters(model: TgnModel, num_nodes: int, structmap=None) -> ParameterReport:
    """Per-component accounting with closed forms and paper-style references.

    `reference_forms` restates the accounting with node-embedding dims in the
    message input and an MLP memory updater over [memory || edge features],
    the alternative convention for the same architecture family; those are
    reported, not asserted against the instantiated counts.
    """
    cfg = model.config

    def actual(parameters) -> ComponentCount:
        w = sum(p.size for name, p in parameters if p.values.ndim >= 2 or name.endswith("omega"))
        b = sum(p.size for name, p in parameters if p.values.ndim == 1 and not name.endswith("omega"))
        return w, b

    components = []
    for name, params in (
        ("time_encoder", model.time_enc.parameters()),
        ("message_mlp", model.message_mlp.parameters()),
        ("memory_updater", model.updater.parameters()),
        ("attention_readout", model.attention.parameters()),
        ("decoder", model.decoder.parameters()),
    ):
        w, b = actual(params)
        components.append(ComponentCount(name, w, b))
    if structmap is not None:
        w, b = actual(structmap.parameters())
        components.append(ComponentCount("structmap", w, b))

    closed = {
        "time_encoder": {"weights": cfg.d_t, "biases": cfg.d_t},
        "message_mlp": _mlp_forms(cfg.message_input_dim, cfg.message_hidden, cfg.d_m),
        "memory_updater": {
            "weights": 3 * (cfg.d_m * cfg.d_m + cfg.d_m * cfg.d_m),
            "biases": 3 * cfg.d_m,
        },
        "attention_readout": {
            "weights": cfg.query_input_dim * cfg.d_att
            + 2 * cfg.kv_input_dim * cfg.d_att
            + 2 * cfg.d_att * cfg.d_n,
            "biases": 3 * cfg.d_att + cfg.d_n,
        },
        "decoder": _mlp_forms(2 * cfg.d_n, cfg.decoder_hidden, 1),
    }
    if structmap is not None:
        closed["structmap"] = _mlp_forms(
            structmap.feature_dim, (structmap.hidden, structmap.hidden), structmap.memory_dim
        )

    reference = {
        "message_mlp_embedding_inputs": MlpSpec(
            2 * cfg.d_n + cfg.d_e, cfg.message_hidden, cfg.d_m
        ).weight_count(),
        "memory_updater_as_mlp": MlpSpec(
            cfg.d_m + cfg.d_e, cfg.message_hidden, cfg.d_m
        ).weight_count(),
        "decoder": MlpSpec(2 * cfg.d_n, cfg.decoder_hidden, 1).weight_count(),
        "memory_store": num_nodes * cfg.d_m,
    }

    return ParameterReport(
        num_nodes=num_nodes,
        d_m=cfg.d_m,
        components=components,
        closed_forms=closed,
        reference_forms=reference,
        memory_entries=num_nodes * cfg.d_m,
    )
