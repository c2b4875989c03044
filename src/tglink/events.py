"""Continuous-time interaction streams.

A stream is an ordered sequence of timestamped edge-addition events over a
dense node index space, starting from an empty graph. This module covers CSV
ingestion and export, chronological batching, uniform negative sampling, and
a seeded synthetic generator with planted communities and degree-correlated
node activity.

Only edge additions are modeled; node deletions and feature updates have no
representation.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import ParseError, ValidationError

class EventStream:
    """An immutable, time-sorted sequence of events over nodes 0..N-1.

    Column-oriented (numpy arrays) so batching and aggregation are cheap.
    `node_labels` retains the pre-reindexing identity of each dense node id,
    when one exists.
    """

    def __init__(
        self,
        src: np.ndarray,
        dst: np.ndarray,
        timestamps: np.ndarray,
        edge_feat: np.ndarray,
        num_nodes: int,
        node_labels: tuple[str, ...] | None = None,
    ):
        self.src = np.asarray(src, dtype=np.int64)
        self.dst = np.asarray(dst, dtype=np.int64)
        self.timestamps = np.asarray(timestamps, dtype=np.float64)
        feat = np.asarray(edge_feat, dtype=np.float64)
        if feat.ndim == 1:
            feat = feat.reshape(len(self.src), -1) if len(self.src) else feat.reshape(0, 0)
        self.edge_feat = feat
        self.num_nodes = int(num_nodes)
        self.node_labels = node_labels
        self._validate()

    def _validate(self) -> None:
        n = len(self.src)
        if not (len(self.dst) == len(self.timestamps) == self.edge_feat.shape[0] == n):
            raise ValidationError("event columns have mismatched lengths")
        if n == 0:
            return
        if np.any(self.src == self.dst):
            bad = int(np.argmax(self.src == self.dst))
            raise ValidationError(f"self-loop at event {bad}")
        if np.any(self.timestamps[1:] < self.timestamps[:-1]):
            raise ValidationError("events are not sorted by timestamp")
        if np.any(self.timestamps < 0):
            raise ValidationError("timestamps must be non-negative")
        hi = max(int(self.src.max()), int(self.dst.max()))
        lo = min(int(self.src.min()), int(self.dst.min()))
        if lo < 0 or hi >= self.num_nodes:
            raise ValidationError("node id outside [0, num_nodes)")
        if self.node_labels is not None and len(self.node_labels) != self.num_nodes:
            raise ValidationError("node_labels length must equal num_nodes")

    @property
    def d_e(self) -> int:
        return self.edge_feat.shape[1]

    @property
    def start_time(self) -> float:
        return float(self.timestamps[0]) if len(self) else 0.0

    @property
    def end_time(self) -> float:
        return float(self.timestamps[-1]) if len(self) else 0.0

    @property
    def time_span(self) -> float:
        return self.end_time - self.start_time

    def __len__(self) -> int:
        return len(self.src)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, EventStream):
            return NotImplemented
        return (
            self.num_nodes == other.num_nodes
            and np.array_equal(self.src, other.src)
            and np.array_equal(self.dst, other.dst)
            and np.array_equal(self.timestamps, other.timestamps)
            and np.array_equal(self.edge_feat, other.edge_feat)
        )

    def subset(self, indices: np.ndarray) -> "EventStream":
        """Row subset in stream order, same node index space."""
        return EventStream(
            self.src[indices],
            self.dst[indices],
            self.timestamps[indices],
            self.edge_feat[indices],
            self.num_nodes,
            self.node_labels,
        )


@dataclass(frozen=True)
class EventBatch:
    """A contiguous, non-empty slice [start, stop) of an EventStream."""

    stream: EventStream
    start: int
    stop: int

    def __post_init__(self):
        if not (0 <= self.start < self.stop <= len(self.stream)):
            raise ValidationError(f"empty or out-of-range batch [{self.start}, {self.stop})")

    def __len__(self) -> int:
        return self.stop - self.start

    @property
    def batch_start_time(self) -> float:
        return float(self.stream.timestamps[self.start])

    @property
    def batch_end_time(self) -> float:
        return float(self.stream.timestamps[self.stop - 1])

    @property
    def src(self) -> np.ndarray:
        return self.stream.src[self.start : self.stop]

    @property
    def dst(self) -> np.ndarray:
        return self.stream.dst[self.start : self.stop]

    @property
    def timestamps(self) -> np.ndarray:
        return self.stream.timestamps[self.start : self.stop]

    @property
    def edge_feat(self) -> np.ndarray:
        return self.stream.edge_feat[self.start : self.stop]


def make_batches(
    stream: EventStream, batch_size: int, start: int = 0, stop: int | None = None
) -> list[EventBatch]:
    """Consecutive non-overlapping batches covering events [start, stop) in order.

    `stop` defaults to the end of the stream. All batches hold `batch_size`
    events except possibly the last. An empty range yields an empty list.
    """
    if batch_size < 1:
        raise ValidationError(f"batch_size must be >= 1, got {batch_size}")
    stop = len(stream) if stop is None else stop
    return [EventBatch(stream, lo, min(lo + batch_size, stop)) for lo in range(start, stop, batch_size)]


def sample_negatives(
    batch: EventBatch, num_nodes: int, k: int, rng: np.random.Generator
) -> np.ndarray:
    """Per event, k uniform node ids from [0, num_nodes) excluding the true dst.

    Sampling is uniform over all nodes (the source itself may be drawn) and
    with replacement within the k draws. Deterministic given the generator.
    """
    if k < 1:
        raise ValidationError(f"negative count k must be >= 1, got {k}")
    if num_nodes < 2:
        raise ValidationError(f"cannot sample negatives with num_nodes={num_nodes}")
    dst = batch.dst
    draws = rng.integers(0, num_nodes - 1, size=(len(batch), k))
    # Shift draws at or above the excluded destination up by one.
    return np.where(draws >= dst[:, None], draws + 1, draws)


@dataclass(frozen=True)
class GeneratorSpec:
    """Planted-community growth-stream generator settings.

    Nodes activate over the leading portion of the stream and attach
    preferentially (weight 1 + strength*degree), so degrees are heavy-tailed
    and node activity correlates with degree; topological features therefore
    carry signal about interaction dynamics. Endpoints fall inside the same
    community with probability p_in/(p_in + p_out).
    """

    num_communities: int = 2
    nodes_per_community: int = 25
    num_events: int = 2000
    p_in: float = 0.9
    p_out: float = 0.1
    pref_attach: float = 1.0
    time_span: float = 1000.0

    def __post_init__(self):
        if self.num_communities < 2:
            raise ValidationError("need at least 2 communities")
        if self.nodes_per_community < 2:
            raise ValidationError("need at least 2 nodes per community")
        if self.num_events < 0:
            raise ValidationError("num_events must be non-negative")
        if not (self.p_in > self.p_out >= 0):
            raise ValidationError(f"require p_in > p_out >= 0, got {self.p_in} <= {self.p_out}")
        if self.pref_attach < 0:
            raise ValidationError("pref_attach must be non-negative")
        if self.time_span <= 0:
            raise ValidationError("time_span must be positive")

    @property
    def num_nodes(self) -> int:
        return self.num_communities * self.nodes_per_community


# New nodes arrive over this leading fraction of the stream; afterwards the
# communities are mature, which is the transfer regime of interest.
ARRIVAL_FRACTION = 0.3
# Each newcomer wires this many initial edges, spaced tens of events apart,
# so young nodes stay visible in trailing windows while they are young.
ARRIVAL_BURST = 3
ARRIVAL_FOLLOWUP_GAP = (30, 120)
_SEED_NODES_PER_COMMUNITY = 2


def generate_synthetic(spec: GeneratorSpec, rng: np.random.Generator) -> EventStream:
    """Grow a stream with planted communities and heavy-tailed activity.

    Each community starts from two seed nodes; the rest activate one by one,
    evenly spread over the leading portion of the stream, wiring a burst of
    first edges to preferentially sampled partners. Remaining events connect
    already-active nodes, again preferentially.
    """
    n = spec.num_nodes
    per = spec.nodes_per_community
    community = np.arange(n) // per
    if spec.num_events == 0:
        return EventStream(
            np.empty(0, np.int64), np.empty(0, np.int64), np.empty(0), np.empty((0, 0)), n
        )

    times = np.sort(rng.uniform(0.0, spec.time_span, size=spec.num_events))
    intra_prob = spec.p_in / (spec.p_in + spec.p_out)
    degree = np.zeros(n)
    active = np.zeros(n, dtype=bool)
    for c in range(spec.num_communities):
        active[c * per : c * per + _SEED_NODES_PER_COMMUNITY] = True

    # arrivals alternate communities so all of them grow together
    pending = [
        c * per + j
        for j in range(_SEED_NODES_PER_COMMUNITY, per)
        for c in range(spec.num_communities)
    ]
    arrival_window = max(1, int(ARRIVAL_FRACTION * spec.num_events))
    arrival_at = {}
    for idx, node in enumerate(pending):
        arrival_at.setdefault(
            min((idx * arrival_window) // max(len(pending), 1), spec.num_events - 1), []
        ).append(node)

    def pick(weights: np.ndarray, allowed: np.ndarray) -> int:
        w = weights * allowed
        total = w.sum()
        if total <= 0:
            w = allowed.astype(float)
            total = w.sum()
        return int(rng.choice(n, p=w / total))

    src = np.empty(spec.num_events, np.int64)
    dst = np.empty(spec.num_events, np.int64)
    newcomers: list[int] = []
    scheduled: dict[int, list[int]] = {n_at: list(nodes) for n_at, nodes in arrival_at.items()}
    for i in range(spec.num_events):
        for node in scheduled.pop(i, ()):
            newcomers.append(node)
            if not active[node]:
                # space the remaining first edges out so the node is still
                # young when they happen
                at = i
                for _ in range(ARRIVAL_BURST - 1):
                    at += int(rng.integers(*ARRIVAL_FOLLOWUP_GAP))
                    if at < spec.num_events:
                        scheduled.setdefault(at, []).append(node)
        w = 1.0 + spec.pref_attach * degree
        if newcomers:
            v = newcomers.pop(0)
            active[v] = True
            same = community == community[v]
            allowed = active & (same if rng.random() < intra_prob else ~same)
            allowed[v] = False
            u = pick(w, allowed)
            if rng.random() < 0.5:
                u, v = v, u
        else:
            u = pick(w, active)
            same = community == community[u]
            allowed = active & (same if rng.random() < intra_prob else ~same)
            allowed[u] = False
            v = pick(w, allowed)
        src[i], dst[i] = u, v
        degree[u] += 1.0
        degree[v] += 1.0
    return EventStream(src, dst, times, np.empty((spec.num_events, 0)), n)


@dataclass(frozen=True)
class IngestionConfig:
    """CSV ingestion settings. `has_header` is 'auto', 'yes' or 'no'."""

    has_header: str = "auto"
    delimiter: str = ","
    comment_prefix: str = "#"

    def __post_init__(self):
        if self.has_header not in ("auto", "yes", "no"):
            raise ValidationError(f"has_header must be auto/yes/no, got {self.has_header!r}")
        if not self.delimiter:
            # A config file's values are stripped, so a tab or space arrives empty.
            raise ValidationError("delimiter must not be empty")


def _looks_like_header(parts: list[str]) -> bool:
    try:
        float(parts[2])
    except ValueError:
        return True
    return False


def load_csv(path: str | Path, config: IngestionConfig = IngestionConfig()) -> EventStream:
    """Load `src,dst,timestamp[,f0,f1,...]` rows into a dense-indexed stream.

    Original ids (arbitrary strings) are mapped to 0..N-1 by first appearance
    in time-sorted order; the mapping is retained on the stream. Lines whose
    first non-blank character is the comment prefix are skipped.
    """
    rows: list[tuple[str, str, float, tuple[float, ...], int]] = []
    d_e: int | None = None
    saw_data = False
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.strip()
            if not line or line.startswith(config.comment_prefix):
                continue
            parts = [p.strip() for p in line.split(config.delimiter)]
            if len(parts) < 3:
                raise ParseError(f"expected at least 3 columns, got {len(parts)}", lineno)
            if not saw_data:
                if config.has_header == "yes" or (
                    config.has_header == "auto" and _looks_like_header(parts)
                ):
                    saw_data = True
                    continue
                saw_data = True
            try:
                ts = float(parts[2])
            except ValueError:
                raise ParseError(f"bad timestamp {parts[2]!r}", lineno) from None
            try:
                feats = tuple(float(p) for p in parts[3:])
            except ValueError:
                raise ParseError("bad feature value", lineno) from None
            if ts < 0:
                raise ValidationError(f"line {lineno}: negative timestamp {ts}")
            if parts[0] == parts[1]:
                raise ValidationError(f"line {lineno}: self-loop on node {parts[0]!r}")
            if d_e is None:
                d_e = len(feats)
            elif len(feats) != d_e:
                raise ValidationError(
                    f"line {lineno}: expected {d_e} feature columns, got {len(feats)}"
                )
            rows.append((parts[0], parts[1], ts, feats, lineno))

    if not rows:
        return EventStream(
            np.empty(0, np.int64), np.empty(0, np.int64), np.empty(0), np.empty((0, 0)), 0
        )

    order = np.argsort([r[2] for r in rows], kind="stable")
    ids: dict[str, int] = {}
    for i in order:
        for label in (rows[i][0], rows[i][1]):
            if label not in ids:
                ids[label] = len(ids)
    src = np.array([ids[rows[i][0]] for i in order], np.int64)
    dst = np.array([ids[rows[i][1]] for i in order], np.int64)
    ts = np.array([rows[i][2] for i in order])
    feat = (
        np.array([rows[i][3] for i in order], np.float64)
        if d_e
        else np.empty((len(rows), 0))
    )
    labels = tuple(sorted(ids, key=ids.get))
    return EventStream(src, dst, ts, feat, len(ids), labels)


def write_csv(stream: EventStream, path: str | Path, header_comment: str | None = None) -> None:
    """Write a stream using dense ids; inverse of load_csv up to re-indexing."""
    with open(path, "w", encoding="utf-8") as fh:
        if header_comment:
            fh.write(f"# {header_comment}\n")
        cols = ["src", "dst", "timestamp"] + [f"f{i}" for i in range(stream.d_e)]
        fh.write(",".join(cols) + "\n")
        for i in range(len(stream)):
            row = [str(int(stream.src[i])), str(int(stream.dst[i])), repr(float(stream.timestamps[i]))]
            row.extend(repr(float(x)) for x in stream.edge_feat[i])
            fh.write(",".join(row) + "\n")
