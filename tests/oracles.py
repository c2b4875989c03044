"""Independent brute-force oracles for the test suite.

Everything here deliberately avoids the package's algorithms: shortest paths
are enumerated by DFS over Floyd-Warshall distances, walks are enumerated
recursively, partitions exhaustively, and ranks by pairwise counting. Slow,
but trustworthy on small inputs. The exception is a former implementation
kept as the bitwise reference for a faster port of it.
"""

from __future__ import annotations

import itertools
from collections import deque

import numpy as np

from tglink.graphs import Graph


def random_graph(rng: np.random.Generator, n: int, p: float) -> Graph:
    g = Graph()
    for u in range(n):
        g.add_node(u)
    for u in range(n):
        for v in range(u + 1, n):
            if rng.random() < p:
                g.add_edge(u, v)
    return g


def floyd_warshall(g: Graph, nodes: list[int]) -> np.ndarray:
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


def modularity_oracle(g: Graph, community_of: dict[int, int]) -> float:
    """Dense-matrix Newman modularity with A_uu = 2 * loop weight."""
    nodes = g.nodes()
    n = len(nodes)
    index = {u: i for i, u in enumerate(nodes)}
    a = np.zeros((n, n))
    for u, v, w in g.edges():
        a[index[u], index[v]] = w
        a[index[v], index[u]] = w
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


def best_partition_modularity(g: Graph) -> tuple[float, dict[int, int]]:
    best_q = -np.inf
    best = None
    for part in all_partitions(g.nodes()):
        q = modularity_oracle(g, part)
        if q > best_q:
            best_q, best = q, part
    return best_q, best


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
