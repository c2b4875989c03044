"""Static projections of event streams.

Two projections are used: the full weighted aggregate (edge weight = event
multiplicity) that community detection runs on, and unweighted simple graphs
over a trailing time window, from which structural node features are read.
Both are `Graph`s: undirected graphs over dense indices in CSR form.
"""

from __future__ import annotations

import numpy as np

from .errors import ContractError, ValidationError
from .events import EventStream


class Graph:
    """Undirected simple graph over dense indices, in CSR form.

    Index i stands for node id `ids[i]`; ids ascend. The neighbors of i are
    `indices[indptr[i]:indptr[i + 1]]`, ascending, and `weights` holds the
    float weight of each of those entries. Every edge appears in both rows.
    """

    def __init__(self, ids: np.ndarray, indptr: np.ndarray, indices: np.ndarray, weights: np.ndarray):
        self.ids = ids
        self.indptr = indptr
        self.indices = indices
        self.weights = weights

    @classmethod
    def from_edges(cls, src, dst, weights=None, nodes=()) -> "Graph":
        """Graph of the undirected pairs (src[i], dst[i]) plus isolated `nodes`.

        Repeats of a pair merge into one edge. Its weight is the sum of
        `weights` over the repeats, or their number when `weights` is None.
        """
        src = np.asarray(src, dtype=np.int64)
        dst = np.asarray(dst, dtype=np.int64)
        loops = src == dst
        if loops.any():
            raise ValidationError(f"self-loop on node {int(src[loops.argmax()])}")
        ids = np.unique(np.concatenate([src, dst, np.asarray(nodes, dtype=np.int64)]))
        n = len(ids)
        a = np.searchsorted(ids, src)
        b = np.searchsorted(ids, dst)
        # Pack each pair (lo, hi) into one integer so np.unique merges repeats.
        packed = np.minimum(a, b) * n + np.maximum(a, b)
        if weights is None:
            packed, counts = np.unique(packed, return_counts=True)
            w = counts.astype(np.float64)
        else:
            packed, inverse = np.unique(packed, return_inverse=True)
            w = np.bincount(inverse.reshape(-1), np.asarray(weights, np.float64), len(packed))
        lo, hi = np.divmod(packed, max(n, 1))
        rows = np.concatenate([lo, hi])
        cols = np.concatenate([hi, lo])
        order = np.argsort(rows * n + cols)
        indptr = np.zeros(n + 1, dtype=np.int64)
        np.cumsum(np.bincount(rows, minlength=n), out=indptr[1:])
        return cls(ids, indptr, cols[order], np.concatenate([w, w])[order])

    @property
    def num_nodes(self) -> int:
        return len(self.ids)

    @property
    def num_edges(self) -> int:
        return len(self.indices) // 2

    def entry_rows(self) -> np.ndarray:
        """The row index of each entry of `indices`."""
        return np.repeat(np.arange(self.num_nodes), np.diff(self.indptr))


def aggregate_static(stream: EventStream) -> Graph:
    """Weighted aggregate of a whole stream; weight(u,v) = event count."""
    if len(stream) == 0:
        raise ValidationError("cannot aggregate an empty stream")
    return Graph.from_edges(stream.src, stream.dst)


def aggregate_window(stream: EventStream, t: float, w: float, train_span: float) -> Graph:
    """Simple graph of edges with timestamp in [t - w*train_span, t).

    `w` is the window fraction and `train_span` the reference span it scales;
    duplicate node pairs collapse to one edge of weight 1.0. An empty window
    is fine and yields an empty graph.
    """
    if not (0 < w <= 1):
        raise ContractError(f"window fraction must be in (0, 1], got {w}")
    if train_span <= 0:
        raise ContractError(f"train_span must be positive, got {train_span}")
    ts = stream.timestamps
    first = int(np.searchsorted(ts, t - w * train_span, side="left"))
    last = int(np.searchsorted(ts, t, side="left"))
    g = Graph.from_edges(stream.src[first:last], stream.dst[first:last])
    g.weights.fill(1.0)
    return g
