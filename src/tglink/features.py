"""Structural node features and feature-space diagnostics.

Features per node: degree, exact Brandes betweenness (undirected pair count),
Wasserman-Faust component-normalized closeness, local clustering coefficient,
and random-walk return probabilities for steps 1..d_p. A node absent from the
graph gets the all-zero vector; "no recent activity" is itself signal.

Betweenness is unnormalized and closeness component-normalized because window
graphs are routinely disconnected.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ContractError, CorrelationUndefinedError, ValidationError
from .graphs import Graph, aggregate_window

TOPOLOGY_FEATURES = ("degree", "betweenness", "closeness", "clustering")
SIGMA_FLOOR = 1e-8


def feature_dim(d_p: int) -> int:
    return len(TOPOLOGY_FEATURES) + d_p


def feature_names(d_p: int) -> tuple[str, ...]:
    return TOPOLOGY_FEATURES + tuple(f"rwpe{k}" for k in range(1, d_p + 1))


@dataclass(frozen=True)
class StructuralFeatureVector:
    """One node's feature vector; `standardized` records which space it is in."""

    values: np.ndarray
    standardized: bool = False

    def __post_init__(self):
        object.__setattr__(self, "values", np.asarray(self.values, dtype=np.float64))


def _betweenness_closeness(adj: list[list[int]]) -> tuple[np.ndarray, np.ndarray]:
    """Brandes betweenness and Wasserman-Faust closeness from one BFS per source.

    Closeness is ((r-1)/(n-1)) * ((r-1)/sum of distances) over the r nodes a
    source reaches, read from the source's BFS as it finishes. Plain Python
    lists and floats: the same IEEE operations in the same order as the
    numpy-array formulation (kept in tests/oracles.py), several times faster.
    """
    n = len(adj)
    betweenness = [0.0] * n
    closeness = [0.0] * n
    for s in range(n):
        dist = [-1] * n
        sigma = [0.0] * n
        preds: list[list[int]] = [[] for _ in range(n)]
        dist[s] = 0
        sigma[s] = 1.0
        order = [s]
        total = 0
        # `order` is the BFS queue: the loop also visits what it appends.
        for v in order:
            d_next = dist[v] + 1
            sigma_v = sigma[v]
            for w in adj[v]:
                if dist[w] < 0:
                    dist[w] = d_next
                    total += d_next
                    order.append(w)
                if dist[w] == d_next:
                    sigma[w] += sigma_v
                    preds[w].append(v)
        r = len(order)
        if r > 1:
            closeness[s] = ((r - 1) / (n - 1)) * ((r - 1) / float(total))
        delta = [0.0] * n
        for w in reversed(order):
            sigma_w = sigma[w]
            coeff = 1.0 + delta[w]
            for v in preds[w]:
                delta[v] += sigma[v] / sigma_w * coeff
            if w != s:
                betweenness[w] += delta[w]
    return np.array(betweenness) / 2.0, np.array(closeness)


def _clustering(adj_sets: list[set[int]]) -> np.ndarray:
    n = len(adj_sets)
    out = np.zeros(n)
    for u in range(n):
        deg = len(adj_sets[u])
        if deg < 2:
            continue
        nbrs = sorted(adj_sets[u])
        tri = 0
        for i in range(len(nbrs)):
            for j in range(i + 1, len(nbrs)):
                if nbrs[j] in adj_sets[nbrs[i]]:
                    tri += 1
        out[u] = tri / (deg * (deg - 1) / 2.0)
    return out


def _rwpe(adj: list[list[int]], d_p: int) -> np.ndarray:
    """Return probabilities of walks of length 1..d_p (diagonal of P^k)."""
    n = len(adj)
    out = np.zeros((n, d_p))
    if n == 0 or d_p == 0:
        return out
    p = np.zeros((n, n))
    for u in range(n):
        if adj[u]:
            p[u, adj[u]] = 1.0 / len(adj[u])
    walk = np.eye(n)
    for step in range(d_p):
        walk = walk @ p
        out[:, step] = np.diag(walk)
    return out


def structural_feature_matrix(
    g: Graph, d_p: int = 4, nodes: list[int] | None = None
) -> tuple[list[int], np.ndarray]:
    """Raw features for `nodes` (default: all graph nodes, sorted).

    Rows for nodes not present in the graph are zero. One Brandes/BFS sweep
    serves betweenness and closeness together.
    """
    present = g.nodes()
    index = {u: i for i, u in enumerate(present)}
    adj = [[index[v] for v in g.neighbors(u)] for u in present]
    adj_sets = [set(a) for a in adj]

    betweenness, closeness = _betweenness_closeness(adj)
    clustering = _clustering(adj_sets)
    rwpe = _rwpe(adj, d_p)
    degree = np.array([len(a) for a in adj], dtype=np.float64)

    if nodes is None:
        nodes = present
    mat = np.zeros((len(nodes), feature_dim(d_p)))
    for row, u in enumerate(nodes):
        i = index.get(u)
        if i is None:
            continue
        mat[row, 0] = degree[i]
        mat[row, 1] = betweenness[i]
        mat[row, 2] = closeness[i]
        mat[row, 3] = clustering[i]
        mat[row, 4:] = rwpe[i]
    return list(nodes), mat


class WindowFeatures:
    """Raw feature rows on the trailing windows of one stream: the one engine.

    The window ending at `t_end` is `aggregate_window(stream, t_end,
    window_fraction, train_span)`. Its full matrix, one row per node present,
    comes from one `structural_feature_matrix` call and is kept until rows of
    a window with another end are asked for. Rows of absent nodes are zero.
    Selecting rows from the full matrix equals asking
    `structural_feature_matrix` for them bit for bit, since it computes every
    present node either way.
    """

    def __init__(self, stream, window_fraction: float, train_span: float, d_p: int):
        self.stream = stream
        self.window_fraction = window_fraction
        self.train_span = train_span
        self.d_p = d_p
        self._t_end: float | None = None
        self._present = np.zeros(0, dtype=np.int64)
        self._matrix = np.zeros((0, feature_dim(d_p)))

    def _load(self, t_end: float) -> None:
        if t_end == self._t_end:
            return
        g = aggregate_window(self.stream, t_end, self.window_fraction, self.train_span)
        present, self._matrix = structural_feature_matrix(g, self.d_p)
        self._present = np.array(present, dtype=np.int64)
        self._t_end = t_end

    def rows(self, t_end: float, nodes) -> np.ndarray:
        """Raw rows of `nodes` (any order) on the window ending at `t_end`."""
        self._load(t_end)
        nodes = np.asarray(nodes, dtype=np.int64)
        at = np.searchsorted(self._present, nodes)
        hit = at < len(self._present)
        hit[hit] = self._present[at[hit]] == nodes[hit]
        out = np.zeros((len(nodes), self._matrix.shape[1]))
        out[hit] = self._matrix[at[hit]]
        return out

    def batch_rows(self, batch) -> tuple[np.ndarray, np.ndarray]:
        """Regression rows of a batch on the window ending at its start.

        The rows cover every node of the window plus the batch endpoints
        (zero rows when absent), sorted, so the structural map sees the whole
        activity spectrum it must cover at cold-start time.
        """
        t_end = batch.batch_start_time
        self._load(t_end)
        nodes = np.union1d(self._present, np.concatenate([batch.src, batch.dst]))
        return nodes, self.rows(t_end, nodes)


def node_features(g: Graph, v: int, d_p: int = 4) -> StructuralFeatureVector:
    """Raw feature vector for one node (zero vector if absent from g).

    Nothing in tglink calls this; `WindowFeatures` serves every caller. It
    stays because the benchmark's tracer (perfbench/tracing.py) binds it.
    """
    _, mat = structural_feature_matrix(g, d_p, nodes=[v])
    return StructuralFeatureVector(mat[0], standardized=False)


class FeatureStandardizer:
    """Per-column affine standardizer fitted on training features only."""

    def __init__(self, mean: np.ndarray, sigma: np.ndarray):
        self.mean = np.asarray(mean, dtype=np.float64)
        self.sigma = np.maximum(np.asarray(sigma, dtype=np.float64), SIGMA_FLOOR)
        if self.mean.shape != self.sigma.shape:
            raise ValidationError("mean/sigma shape mismatch")

    @classmethod
    def fit(cls, features: np.ndarray) -> "FeatureStandardizer":
        features = np.asarray(features, dtype=np.float64)
        if features.ndim != 2 or features.shape[0] < 2:
            raise ValidationError("standardizer fit needs a matrix with >= 2 rows")
        return cls(features.mean(axis=0), features.std(axis=0))

    def apply(self, raw: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
        """(raw - mean) / sigma; `out=raw` standardizes a float64 array in place."""
        raw = np.asarray(raw, dtype=np.float64)
        if raw.shape[-1] != self.mean.shape[0]:
            raise ValidationError(
                f"feature dim {raw.shape[-1]} != standardizer dim {self.mean.shape[0]}"
            )
        out = np.subtract(raw, self.mean, out=out)
        return np.divide(out, self.sigma, out=out)

    def apply_vector(self, fv: StructuralFeatureVector) -> StructuralFeatureVector:
        if fv.standardized:
            raise ContractError("feature vector is already standardized")
        return StructuralFeatureVector(self.apply(fv.values), standardized=True)

    def to_dict(self) -> dict:
        return {"mean": self.mean.tolist(), "sigma": self.sigma.tolist()}

    @classmethod
    def from_dict(cls, d: dict) -> "FeatureStandardizer":
        return cls(np.array(d["mean"]), np.array(d["sigma"]))


def average_ranks(x: np.ndarray) -> np.ndarray:
    """Ranks (1-based) with ties given the average of their positions."""
    x = np.asarray(x, dtype=np.float64)
    order = np.argsort(x, kind="stable")
    ranks = np.empty(len(x))
    i = 0
    while i < len(x):
        j = i
        while j + 1 < len(x) and x[order[j + 1]] == x[order[i]]:
            j += 1
        ranks[order[i : j + 1]] = (i + j) / 2.0 + 1.0
        i = j + 1
    return ranks


def _pearson(a: np.ndarray, b: np.ndarray) -> float:
    a = a - a.mean()
    b = b - b.mean()
    denom = np.sqrt((a * a).sum() * (b * b).sum())
    if denom == 0:
        raise CorrelationUndefinedError("zero variance in a distance list")
    return float((a * b).sum() / denom)


def sample_distinct_pairs(
    n: int, sample_pairs: int, rng: np.random.Generator
) -> np.ndarray:
    """Distinct unordered index pairs; all of them when few enough."""
    total = n * (n - 1) // 2
    if sample_pairs >= total:
        idx = np.arange(total)
    else:
        idx = np.sort(rng.choice(total, size=sample_pairs, replace=False))
    # Decode linear index over the upper triangle (row-major, i < j).
    rows = np.searchsorted(np.cumsum(np.arange(n - 1, 0, -1)), idx, side="right")
    offsets = idx - np.concatenate(([0], np.cumsum(np.arange(n - 1, 0, -1))))[rows]
    cols = rows + 1 + offsets
    return np.stack([rows, cols], axis=1)


def correlate_distances(
    memory: np.ndarray,
    features: np.ndarray,
    sample_pairs: int,
    rng: np.random.Generator,
) -> tuple[float, float]:
    """Pearson/Spearman correlation between pairwise distances in two spaces.

    Euclidean distances are computed over the same sampled node pairs in the
    memory space and the feature space; Spearman uses average ranks for ties.
    """
    memory = np.asarray(memory, dtype=np.float64)
    features = np.asarray(features, dtype=np.float64)
    if memory.shape[0] != features.shape[0]:
        raise ContractError("memory and feature matrices must cover the same nodes")
    n = memory.shape[0]
    if n < 3:
        raise ContractError(f"need at least 3 nodes, got {n}")
    if sample_pairs < 1:
        raise ContractError("sample_pairs must be >= 1")
    pairs = sample_distinct_pairs(n, sample_pairs, rng)
    d_mem = np.linalg.norm(memory[pairs[:, 0]] - memory[pairs[:, 1]], axis=1)
    d_feat = np.linalg.norm(features[pairs[:, 0]] - features[pairs[:, 1]], axis=1)
    r_pearson = _pearson(d_mem, d_feat)
    r_spearman = _pearson(average_ranks(d_mem), average_ranks(d_feat))
    return r_pearson, r_spearman
