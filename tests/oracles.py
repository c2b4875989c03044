"""Independent brute-force oracles for the test suite.

Everything here deliberately avoids the package's algorithms: shortest paths
are enumerated by DFS over Floyd-Warshall distances, walks are enumerated
recursively, partitions exhaustively, and ranks by pairwise counting. Slow,
but trustworthy on small inputs. The exceptions are former implementations
kept as the bitwise references for faster ports of them. The graph oracles
read a `tglink.graphs.Graph` only through `RefGraph.of`, a dict-of-dict copy.
"""

from __future__ import annotations

import itertools
from collections import deque

import numpy as np

from tglink.errors import DivergenceError, ValidationError
from tglink.events import EventBatch
from tglink.graphs import Graph


class RefGraph:
    """Undirected simple graph, dict-of-dict adjacency with float weights.

    The form `tglink.graphs.Graph` had before its CSR form, kept as the
    reference the CSR form is checked against and the form the oracles read.
    """

    def __init__(self):
        self._adj: dict[int, dict[int, float]] = {}

    @classmethod
    def of(cls, g: Graph) -> "RefGraph":
        """A copy of `g`, read entry by entry from its CSR arrays."""
        ref = cls()
        ids = g.ids.tolist()
        for i, u in enumerate(ids):
            ref.add_node(u)
            for e in range(int(g.indptr[i]), int(g.indptr[i + 1])):
                ref._adj[u][ids[int(g.indices[e])]] = float(g.weights[e])
        return ref

    def add_node(self, u: int) -> None:
        self._adj.setdefault(u, {})

    def add_edge(self, u: int, v: int, weight: float = 1.0) -> None:
        if u == v:
            raise ValidationError(f"self-loop on node {u}")
        row_u = self._adj.setdefault(u, {})
        row_v = self._adj.setdefault(v, {})
        row_u[v] = row_u.get(v, 0.0) + weight
        row_v[u] = row_v.get(u, 0.0) + weight

    def has_edge(self, u: int, v: int) -> bool:
        return v in self._adj.get(u, {})

    def nodes(self) -> list[int]:
        return sorted(self._adj)

    def neighbors(self, u: int) -> list[int]:
        return sorted(self._adj.get(u, {}))

    def degree(self, u: int) -> int:
        return len(self._adj.get(u, {}))

    def weight(self, u: int, v: int) -> float:
        return self._adj.get(u, {}).get(v, 0.0)

    def edges(self) -> list[tuple[int, int, float]]:
        out = []
        for u in self.nodes():
            for v, w in sorted(self._adj[u].items()):
                if u < v:
                    out.append((u, v, w))
        return out

    def edge_set(self) -> set[tuple[int, int]]:
        return {(u, v) for u, v, _ in self.edges()}


def random_graph(rng: np.random.Generator, n: int, p: float) -> Graph:
    """G(n, p) on nodes 0..n-1; isolated nodes stay in the graph."""
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < p]
    src, dst = zip(*pairs) if pairs else ((), ())
    return Graph.from_edges(src, dst, nodes=range(n))


def floyd_warshall(g: RefGraph, nodes: list[int]) -> np.ndarray:
    n = len(nodes)
    index = {u: i for i, u in enumerate(nodes)}
    dist = np.full((n, n), np.inf)
    np.fill_diagonal(dist, 0.0)
    for u, v, _ in g.edges():
        dist[index[u], index[v]] = 1.0
        dist[index[v], index[u]] = 1.0
    for k in range(n):
        for i in range(n):
            for j in range(n):
                if dist[i, k] + dist[k, j] < dist[i, j]:
                    dist[i, j] = dist[i, k] + dist[k, j]
    return dist


def _all_shortest_paths(adj: list[list[int]], dist: np.ndarray, s: int, t: int) -> list[list[int]]:
    """Every shortest s-t path, by DFS along strictly distance-decreasing steps."""
    if not np.isfinite(dist[s, t]) or s == t:
        return []
    paths = []

    def walk(u: int, trail: list[int]):
        if u == t:
            paths.append(trail[:])
            return
        for w in adj[u]:
            if dist[w, t] == dist[u, t] - 1:
                trail.append(w)
                walk(w, trail)
                trail.pop()

    walk(s, [s])
    return paths


# The numpy-array Brandes sweep and closeness that tglink.features used before
# its list port, kept verbatim: the port must match them bit for bit.
def _brandes_and_distances(
    adj: list[list[int]],
) -> tuple[np.ndarray, list[np.ndarray]]:
    """Betweenness for all nodes plus per-source BFS distance arrays."""
    n = len(adj)
    betweenness = np.zeros(n)
    dists: list[np.ndarray] = []
    for s in range(n):
        dist = np.full(n, -1, dtype=np.int64)
        sigma = np.zeros(n)
        preds: list[list[int]] = [[] for _ in range(n)]
        dist[s] = 0
        sigma[s] = 1.0
        order: list[int] = []
        queue = deque([s])
        while queue:
            v = queue.popleft()
            order.append(v)
            for w in adj[v]:
                if dist[w] < 0:
                    dist[w] = dist[v] + 1
                    queue.append(w)
                if dist[w] == dist[v] + 1:
                    sigma[w] += sigma[v]
                    preds[w].append(v)
        delta = np.zeros(n)
        for w in reversed(order):
            for v in preds[w]:
                delta[v] += sigma[v] / sigma[w] * (1.0 + delta[w])
            if w != s:
                betweenness[w] += delta[w]
        dists.append(dist)
    return betweenness / 2.0, dists


def _closeness(dists: list[np.ndarray], n: int) -> np.ndarray:
    """Wasserman-Faust closeness: ((r-1)/(n-1)) * ((r-1)/sum of distances)."""
    out = np.zeros(n)
    if n <= 1:
        return out
    for u in range(n):
        reach = dists[u] >= 0
        r = int(reach.sum())
        total = float(dists[u][reach].sum())
        if r > 1 and total > 0:
            out[u] = ((r - 1) / (n - 1)) * ((r - 1) / total)
    return out


def betweenness_oracle(g: Graph) -> dict[int, float]:
    """Sum over unordered pairs of the fraction of shortest paths through v."""
    g = RefGraph.of(g)
    nodes = g.nodes()
    index = {u: i for i, u in enumerate(nodes)}
    adj = [[index[v] for v in g.neighbors(u)] for u in nodes]
    dist = floyd_warshall(g, nodes)
    n = len(nodes)
    bc = np.zeros(n)
    for s in range(n):
        for t in range(s + 1, n):
            paths = _all_shortest_paths(adj, dist, s, t)
            if not paths:
                continue
            through = np.zeros(n)
            for path in paths:
                for v in path[1:-1]:
                    through[v] += 1
            bc += through / len(paths)
    return {nodes[i]: float(bc[i]) for i in range(n)}


def closeness_oracle(g: Graph) -> dict[int, float]:
    g = RefGraph.of(g)
    nodes = g.nodes()
    dist = floyd_warshall(g, nodes)
    n = len(nodes)
    out = {}
    for i, u in enumerate(nodes):
        reach = np.isfinite(dist[i])
        r = int(reach.sum())
        total = float(dist[i][reach].sum())
        if n > 1 and r > 1 and total > 0:
            out[u] = ((r - 1) / (n - 1)) * ((r - 1) / total)
        else:
            out[u] = 0.0
    return out


def clustering_oracle(g: Graph) -> dict[int, float]:
    g = RefGraph.of(g)
    out = {}
    for u in g.nodes():
        nbrs = g.neighbors(u)
        deg = len(nbrs)
        if deg < 2:
            out[u] = 0.0
            continue
        links = sum(
            1
            for a, b in itertools.combinations(nbrs, 2)
            if g.has_edge(a, b)
        )
        out[u] = links / (deg * (deg - 1) / 2)
    return out


def rwpe_oracle(g: Graph, v: int, d_p: int) -> list[float]:
    """Return probabilities by explicit enumeration of all walks from v."""
    g = RefGraph.of(g)
    out = []
    for steps in range(1, d_p + 1):
        total = 0.0

        def walk(u: int, remaining: int, prob: float):
            nonlocal total
            if remaining == 0:
                if u == v:
                    total += prob
                return
            nbrs = g.neighbors(u)
            if not nbrs:
                return
            for w in nbrs:
                walk(w, remaining - 1, prob / len(nbrs))

        walk(v, steps, 1.0)
        out.append(total)
    return out


def _dense_adjacency(g: Graph) -> tuple[list[int], np.ndarray]:
    g = RefGraph.of(g)
    nodes = g.nodes()
    n = len(nodes)
    index = {u: i for i, u in enumerate(nodes)}
    a = np.zeros((n, n))
    for u, v, w in g.edges():
        a[index[u], index[v]] = w
        a[index[v], index[u]] = w
    return nodes, a


def modularity_oracle(g: Graph, community_of: dict[int, int]) -> float:
    """Dense-matrix Newman modularity with A_uu = 2 * loop weight."""
    nodes, a = _dense_adjacency(g)
    n = len(nodes)
    two_m = a.sum()
    if two_m == 0:
        return 0.0
    k = a.sum(axis=1)
    q = 0.0
    for i in range(n):
        for j in range(n):
            if community_of[nodes[i]] == community_of[nodes[j]]:
                q += a[i, j] - k[i] * k[j] / two_m
    return q / two_m


def all_partitions(items: list[int]):
    """Every set partition, via restricted-growth strings."""
    n = len(items)
    if n == 0:
        yield {}
        return

    def rec(i: int, rgs: list[int], mx: int):
        if i == n:
            yield dict(zip(items, rgs))
            return
        for c in range(mx + 2):
            rgs.append(c)
            yield from rec(i + 1, rgs, max(mx, c))
            rgs.pop()

    yield from rec(0, [], -1)


def restricted_growth_strings(n: int) -> np.ndarray:
    """Every restricted-growth string of length n, one per row.

    Rows come in the order `all_partitions` yields the partitions: string
    s extends to s + [c] for c = 0..max(s)+1, children in ascending c.
    """
    rgs = np.zeros((1, min(n, 1)), dtype=np.int8)
    top = np.zeros(1, dtype=np.int8)
    for _ in range(1, n):
        fan = top.astype(np.int64) + 2
        parent = np.repeat(np.arange(len(rgs)), fan)
        c = (np.arange(len(parent)) - np.repeat(np.cumsum(fan) - fan, fan)).astype(np.int8)
        rgs = np.column_stack([rgs[parent], c])
        top = np.maximum(top[parent], c)
    return rgs


def best_partition_modularity_loop(g: Graph) -> tuple[float, dict[int, int]]:
    """The best partition by `modularity_oracle` over `all_partitions`."""
    best_q = -np.inf
    best = None
    for part in all_partitions(RefGraph.of(g).nodes()):
        q = modularity_oracle(g, part)
        if q > best_q:
            best_q, best = q, part
    return best_q, best


def best_partition_modularity(g: Graph) -> tuple[float, dict[int, int]]:
    """`best_partition_modularity_loop`, vectorised over restricted-growth strings.

    Each partition's sum runs over the same (i, j) terms in the same order
    as `modularity_oracle`, so the maximum and its partition agree bit for bit.
    """
    nodes, a = _dense_adjacency(g)
    n = len(nodes)
    parts = restricted_growth_strings(n)
    q = np.zeros(len(parts))
    two_m = a.sum()
    if two_m != 0:
        k = a.sum(axis=1)
        for i in range(n):
            for j in range(n):
                q += np.where(parts[:, i] == parts[:, j], a[i, j] - k[i] * k[j] / two_m, 0.0)
        q /= two_m
    best = int(np.argmax(q))
    return float(q[best]), dict(zip(nodes, parts[best].tolist()))


def pearson_oracle(x: list[float], y: list[float]) -> float:
    n = len(x)
    mx = sum(x) / n
    my = sum(y) / n
    num = sum((a - mx) * (b - my) for a, b in zip(x, y))
    den = (sum((a - mx) ** 2 for a in x) * sum((b - my) ** 2 for b in y)) ** 0.5
    return num / den


def rank_by_counting(values: list[float]) -> list[float]:
    """Average ranks computed by O(n^2) comparisons, no sorting."""
    out = []
    for v in values:
        less = sum(1 for w in values if w < v)
        equal = sum(1 for w in values if w == v)
        out.append(less + (equal + 1) / 2.0)
    return out


def spearman_oracle(x: list[float], y: list[float]) -> float:
    return pearson_oracle(rank_by_counting(x), rank_by_counting(y))


def rank_oracle(true_score: float, neg_scores: list[float]) -> float:
    """Average of the optimistic and pessimistic rank of the true score."""
    optimistic = 1 + sum(1 for s in neg_scores if s > true_score)
    pessimistic = 1 + sum(1 for s in neg_scores if s >= true_score)
    return (optimistic + pessimistic) / 2.0


class DequeNeighborCache:
    """Per-node ring buffer of the k most recent (neighbor, time, features).

    The list-of-deques `NeighborCache` that the ring-array one replaced,
    kept as the bitwise reference for its gather and insert order.
    """

    def __init__(self, num_nodes: int, k: int, d_e: int):
        if k < 1:
            raise ValidationError("neighbor cache size must be >= 1")
        self.k = k
        self.d_e = d_e
        self._buffers: list[deque] = [deque(maxlen=k) for _ in range(num_nodes)]

    def insert_batch(self, batch: EventBatch) -> None:
        for i in range(batch.start, batch.stop):
            s = int(batch.stream.src[i])
            d = int(batch.stream.dst[i])
            t = float(batch.stream.timestamps[i])
            feat = batch.stream.edge_feat[i]
            self._buffers[s].append((d, t, feat))
            self._buffers[d].append((s, t, feat))

    def recent(self, node: int) -> list[tuple[int, float, np.ndarray]]:
        """Most recent first."""
        return list(reversed(self._buffers[node]))


class PerTensorAdam:
    """Adam over a (name, Tensor) list, one tensor at a time.

    The optimizer `tglink.nn.Adam` replaced with one fused update per
    parameter set, kept as the bitwise reference for it.
    """

    def __init__(self, params, lr=1e-3, beta1=0.9, beta2=0.999, eps=1e-8):
        self.params = list(params)
        self.lr = lr
        self.beta1 = beta1
        self.beta2 = beta2
        self.eps = eps
        self.t = 0
        self.m = [np.zeros_like(p.values) for _, p in self.params]
        self.v = [np.zeros_like(p.values) for _, p in self.params]

    def step(self) -> None:
        for name, p in self.params:
            if not np.all(np.isfinite(p.grad)):
                raise DivergenceError(f"non-finite gradient in {name}")
        self.t += 1
        correct1 = 1.0 - self.beta1**self.t
        correct2 = 1.0 - self.beta2**self.t
        for i, (_, p) in enumerate(self.params):
            g = p.grad
            self.m[i] = self.beta1 * self.m[i] + (1.0 - self.beta1) * g
            self.v[i] = self.beta2 * self.v[i] + (1.0 - self.beta2) * g * g
            m_hat = self.m[i] / correct1
            v_hat = self.v[i] / correct2
            p.values -= self.lr * m_hat / (np.sqrt(v_hat) + self.eps)
