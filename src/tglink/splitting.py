"""Community detection and node-disjoint transfer splits.

Louvain is implemented directly (local moves + coarsening) so the per-phase
modularity sequence can be logged and asserted monotone, and so node visit
order is owned by a seeded generator. The split assigns whole communities to
train/val/test groups greedily by node count; events crossing groups are
dropped and each sub-stream is re-indexed into its own dense node space.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import SplitError, ValidationError
from .events import EventStream
from .graphs import Graph

_GAIN_EPS = 1e-12


def modularity(graph: Graph, community_of: dict[int, int]) -> float:
    """Newman modularity of an assignment on a weighted undirected graph.

    Uses the convention A_uu = 2 * loop weight, degree k_u = sum_v A_uv.
    Kept independent of the Louvain internals so results can be re-checked.
    """
    nodes = graph.ids.tolist()
    if not nodes:
        return 0.0
    missing = [u for u in nodes if u not in community_of]
    if missing:
        raise ValidationError(f"nodes without a community: {missing[:5]}")
    rows = graph.entry_rows()
    degree = np.bincount(rows, graph.weights, len(nodes))
    two_m = float(degree.sum())
    if two_m == 0:
        return 0.0
    _, com = np.unique([community_of[u] for u in nodes], return_inverse=True)
    same = com[rows] == com[graph.indices]
    total = np.bincount(com, degree).tolist()
    internal = np.bincount(com[rows[same]], graph.weights[same], len(total)).tolist()
    # One term per community, in ascending label order.
    q = 0.0
    for c in range(len(total)):
        q += internal[c] / two_m - (total[c] / two_m) ** 2
    return q


@dataclass
class CommunityAssignment:
    """Result of community detection plus the per-phase modularity log."""

    community_of: dict[int, int]
    modularity: float
    phase_modularity: tuple[float, ...] = ()

    @property
    def num_communities(self) -> int:
        return len(set(self.community_of.values()))

    def members(self) -> dict[int, list[int]]:
        out: dict[int, list[int]] = {}
        for u in sorted(self.community_of):
            out.setdefault(self.community_of[u], []).append(u)
        return out


def _one_level(g: Graph, loops: np.ndarray, rng: np.random.Generator) -> tuple[list[int], bool]:
    """Local-move phase: greedy modularity moves until none improves.

    `loops[i]` is the self-loop weight of supernode i, which counts twice
    in its degree.
    """
    n = g.num_nodes
    com = list(range(n))
    k = np.bincount(g.entry_rows(), g.weights, n) + 2.0 * loops
    tot = k.copy()
    two_m = float(k.sum())
    if two_m == 0:
        return com, False
    bounds = g.indptr.tolist()
    nbrs = g.indices.tolist()
    weights = g.weights.tolist()
    moved_any = False
    improved = True
    while improved:
        improved = False
        for i in rng.permutation(n):
            i = int(i)
            old = com[i]
            link_w: dict[int, float] = {}
            for e in range(bounds[i], bounds[i + 1]):
                c = com[nbrs[e]]
                link_w[c] = link_w.get(c, 0.0) + weights[e]
            tot[old] -= k[i]
            best_c, best_gain = old, link_w.get(old, 0.0) - tot[old] * k[i] / two_m
            for c in sorted(link_w):
                if c == old:
                    continue
                gain = link_w[c] - tot[c] * k[i] / two_m
                if gain > best_gain + _GAIN_EPS:
                    best_c, best_gain = c, gain
            tot[best_c] += k[i]
            com[i] = best_c
            if best_c != old:
                improved = True
                moved_any = True
    return com, moved_any


def _coarsen(
    g: Graph, loops: np.ndarray, com: list[int]
) -> tuple[Graph, np.ndarray, np.ndarray]:
    """One supernode per community, numbered in ascending label order.

    Returns the supernode graph, its loop weights and each node's supernode.
    """
    _, supernode = np.unique(com, return_inverse=True)
    n = int(supernode.max()) + 1
    rows = g.entry_rows()
    upper = rows < g.indices  # each edge once
    a = supernode[rows[upper]]
    b = supernode[g.indices[upper]]
    w = g.weights[upper]
    inside = a == b
    new_loops = np.bincount(supernode, loops, n) + np.bincount(a[inside], w[inside], n)
    coarse = Graph.from_edges(a[~inside], b[~inside], w[~inside], nodes=np.arange(n))
    return coarse, new_loops, supernode


def louvain(graph: Graph, rng: np.random.Generator) -> CommunityAssignment:
    """Louvain community detection, deterministic given the generator.

    Iterates local moves and coarsening until no move improves modularity.
    The reported modularity is recomputed on the input graph and the phase
    sequence is asserted non-decreasing. Edge weights are event counts, so
    every weight sum is exact in any order.
    """
    if graph.num_nodes == 0:
        raise ValidationError("louvain requires at least one node")
    nodes = graph.ids.tolist()
    level, loops = graph, np.zeros(graph.num_nodes)
    # assignment[i] = current supernode of original node i (by position)
    assignment = np.arange(len(nodes))

    def induced() -> dict[int, int]:
        return dict(zip(nodes, assignment.tolist()))

    q_prev = modularity(graph, induced())
    phase_log: list[float] = []
    while True:
        com, moved = _one_level(level, loops, rng)
        if not moved:
            break
        level, loops, supernode = _coarsen(level, loops, com)
        assignment = supernode[assignment]
        q = modularity(graph, induced())
        if q < q_prev - 1e-9:
            raise AssertionError(f"modularity decreased across phase: {q_prev} -> {q}")
        phase_log.append(q)
        if q - q_prev < _GAIN_EPS:
            break
        q_prev = q

    # Renumber communities by their smallest node; nodes ascend.
    label: dict[int, int] = {}
    final = {u: label.setdefault(c, len(label)) for u, c in induced().items()}
    return CommunityAssignment(final, modularity(graph, final), tuple(phase_log))


GROUP_NAMES = ("train", "val", "test")


@dataclass
class TransferSplit:
    """Node-disjoint sub-streams plus the bookkeeping of how they were made.

    `val` is None in the two-group fallback used when only two communities
    exist. Node sets contain exactly the nodes retained in each sub-stream;
    `node_maps` give original-id -> sub-stream dense id.
    """

    train: EventStream
    val: EventStream | None
    test: EventStream
    node_sets: dict[str, frozenset[int]]
    node_maps: dict[str, dict[int, int]]
    group_of_community: dict[int, str]
    dropped_events: int
    balance: dict[str, object] = field(default_factory=dict)
    warnings: tuple[str, ...] = ()

    def stream(self, group: str) -> EventStream | None:
        return {"train": self.train, "val": self.val, "test": self.test}[group]


def _reindex(stream: EventStream, keep: np.ndarray) -> tuple[EventStream, dict[int, int]]:
    src = stream.src[keep]
    dst = stream.dst[keep]
    mapping: dict[int, int] = {}
    for a, b in zip(src, dst):
        for u in (int(a), int(b)):
            if u not in mapping:
                mapping[u] = len(mapping)
    labels = None
    if stream.node_labels is not None:
        labels = tuple(stream.node_labels[u] for u in sorted(mapping, key=mapping.get))
    else:
        labels = tuple(str(u) for u in sorted(mapping, key=mapping.get))
    sub = EventStream(
        np.array([mapping[int(u)] for u in src], np.int64),
        np.array([mapping[int(u)] for u in dst], np.int64),
        stream.timestamps[keep],
        stream.edge_feat[keep],
        len(mapping),
        labels,
    )
    return sub, mapping


def make_transfer_split(
    stream: EventStream,
    assignment: CommunityAssignment,
    balance_tolerance: float = 0.25,
    allow_two_way: bool = False,
) -> TransferSplit:
    """Assign communities to train/val/test greedily by node count.

    Each community goes whole to the group currently holding the fewest
    nodes (ties resolved train < val < test). Cross-group events are dropped.
    With exactly two communities the split fails unless `allow_two_way`, in
    which case only train and test are produced and `val` is None.
    """
    members = assignment.members()
    groups = list(GROUP_NAMES)
    if len(members) < 3:
        if len(members) == 2 and allow_two_way:
            groups = ["train", "test"]
        else:
            raise SplitError(
                f"need at least 3 communities to build a 3-way split, got {len(members)}"
                + ("" if allow_two_way else " (two-way fallback disabled)")
            )

    order = sorted(members, key=lambda c: (-len(members[c]), c))
    counts = {g: 0 for g in groups}
    group_of_community: dict[int, str] = {}
    node_group: dict[int, str] = {}
    for c in order:
        g = min(groups, key=lambda name: (counts[name], groups.index(name)))
        group_of_community[c] = g
        counts[g] += len(members[c])
        for u in members[c]:
            node_group[u] = g

    src_groups = np.array([node_group.get(int(u), "?") for u in stream.src])
    dst_groups = np.array([node_group.get(int(u), "?") for u in stream.dst])
    same = src_groups == dst_groups
    dropped = int(len(stream) - same.sum())

    subs: dict[str, EventStream] = {}
    maps: dict[str, dict[int, int]] = {}
    sets: dict[str, frozenset[int]] = {}
    for g in groups:
        keep = np.flatnonzero(same & (src_groups == g))
        if len(keep) == 0:
            raise SplitError(f"group {g!r} has no events")
        subs[g], maps[g] = _reindex(stream, keep)
        sets[g] = frozenset(maps[g])

    warnings: list[str] = []
    sizes = {g: len(sets[g]) for g in groups}
    ratio = max(sizes.values()) / max(1, min(sizes.values()))
    if ratio > 1.0 + balance_tolerance:
        warnings.append(
            f"node-count ratio {ratio:.3f} exceeds tolerance {1.0 + balance_tolerance:.3f};"
            " best-effort split retained"
        )
    balance = {
        "node_counts": sizes,
        "node_ratio": ratio,
        "time_intervals": {
            g: [subs[g].start_time, subs[g].end_time] for g in groups
        },
        "community_sizes": {int(c): len(members[c]) for c in sorted(members)},
    }
    return TransferSplit(
        train=subs["train"],
        val=subs.get("val"),
        test=subs["test"],
        node_sets=sets,
        node_maps=maps,
        group_of_community=group_of_community,
        dropped_events=dropped,
        balance=balance,
        warnings=tuple(warnings),
    )
