"""Community detection and transfer-split construction."""

import numpy as np
import pytest

from tglink.errors import SplitError, ValidationError
from tglink.events import EventStream, GeneratorSpec, generate_synthetic
from tglink.graphs import Graph, aggregate_static
from tglink.splitting import CommunityAssignment, louvain, make_transfer_split, modularity

from oracles import (
    RefGraph,
    best_partition_modularity,
    best_partition_modularity_loop,
    modularity_oracle,
    random_graph,
)


def clique(nodes) -> list[tuple[int, int]]:
    return [(u, v) for i, u in enumerate(nodes) for v in nodes[i + 1 :]]


def graph_of(pairs, weights=None, nodes=()) -> Graph:
    src, dst = zip(*pairs) if pairs else ((), ())
    return Graph.from_edges(src, dst, weights, nodes)


class TestAggregateStatic:
    def test_counts_multiplicity(self):
        stream = EventStream(
            np.array([0, 1, 1]), np.array([1, 0, 2]), np.array([1.0, 2.0, 3.0]),
            np.empty((3, 0)), 3,
        )
        g = RefGraph.of(aggregate_static(stream))
        assert g.weight(0, 1) == 2
        assert g.weight(1, 2) == 1

    def test_single_event(self):
        stream = EventStream(
            np.array([0]), np.array([1]), np.array([1.0]), np.empty((1, 0)), 2
        )
        g = RefGraph.of(aggregate_static(stream))
        assert g.edges() == [(0, 1, 1.0)]

    def test_weight_conservation(self):
        stream = generate_synthetic(
            GeneratorSpec(num_events=2000, nodes_per_community=15), np.random.default_rng(0)
        )
        g = RefGraph.of(aggregate_static(stream))
        assert sum(w for _, _, w in g.edges()) == len(stream)

    def test_empty_stream_rejected(self):
        empty = EventStream(
            np.empty(0, np.int64), np.empty(0, np.int64), np.empty(0), np.empty((0, 0)), 0
        )
        with pytest.raises(ValidationError):
            aggregate_static(empty)


class TestModularity:
    def test_matches_matrix_oracle_on_random_graphs(self):
        rng = np.random.default_rng(4)
        for trial in range(30):
            n = int(rng.integers(3, 11))
            pairs, weights = [], []
            for u in range(n):
                for v in range(u + 1, n):
                    if rng.random() < 0.4:
                        pairs.append((u, v))
                        weights.append(float(rng.integers(1, 4)))
            g = graph_of(pairs, weights, nodes=range(n))
            part = {u: int(rng.integers(0, 3)) for u in range(n)}
            assert modularity(g, part) == pytest.approx(
                modularity_oracle(g, part), abs=1e-12
            )

    def test_missing_node_raises(self):
        with pytest.raises(ValidationError):
            modularity(graph_of([(0, 1)]), {0: 0})


class TestLouvain:
    def test_two_cliques_bridge(self):
        g = graph_of(clique([0, 1, 2, 3, 4]) + clique([5, 6, 7, 8, 9]) + [(4, 5)])
        asg = louvain(g, np.random.default_rng(0))
        assert asg.num_communities == 2
        groups = asg.members()
        assert sorted(map(sorted, groups.values())) == [[0, 1, 2, 3, 4], [5, 6, 7, 8, 9]]
        # exhaustive check over all 115975 partitions of 10 nodes
        best_q, _ = best_partition_modularity(g)
        assert asg.modularity == pytest.approx(best_q, abs=1e-9)

    def test_edgeless_graph(self):
        g = graph_of([], nodes=range(4))
        asg = louvain(g, np.random.default_rng(0))
        assert asg.num_communities == 4
        assert asg.modularity == 0.0

    def test_k5_single_community(self):
        g = graph_of(clique([0, 1, 2, 3, 4]))
        asg = louvain(g, np.random.default_rng(1))
        assert asg.num_communities == 1
        best_q, best = best_partition_modularity(g)
        assert len(set(best.values())) == 1
        assert asg.modularity == pytest.approx(best_q, abs=1e-9)

    def test_reported_modularity_matches_recomputation(self):
        stream = generate_synthetic(
            GeneratorSpec(num_events=1500, nodes_per_community=20), np.random.default_rng(7)
        )
        g = aggregate_static(stream)
        asg = louvain(g, np.random.default_rng(7))
        assert asg.modularity == pytest.approx(modularity(g, asg.community_of), abs=1e-9)
        assert asg.modularity == pytest.approx(
            modularity_oracle(g, asg.community_of), abs=1e-9
        )

    def test_edge_weights_are_event_counts(self):
        # The same pairs with counts as weights, repeated or weighted.
        pairs = [(0, 1), (1, 2), (2, 0), (2, 3), (3, 4), (4, 5), (5, 3)]
        counts = [3, 1, 2, 1, 2, 2, 1]
        repeated = graph_of([p for p, c in zip(pairs, counts) for _ in range(c)])
        weighted = graph_of(pairs, [float(c) for c in counts])
        a = louvain(repeated, np.random.default_rng(0))
        b = louvain(weighted, np.random.default_rng(0))
        assert a == b
        assert a.community_of == {0: 0, 1: 0, 2: 0, 3: 1, 4: 1, 5: 1}

    def test_phase_log_non_decreasing(self):
        stream = generate_synthetic(
            GeneratorSpec(num_communities=4, num_events=2000, nodes_per_community=12),
            np.random.default_rng(8),
        )
        asg = louvain(aggregate_static(stream), np.random.default_rng(8))
        log = asg.phase_modularity
        assert all(log[i] <= log[i + 1] + 1e-12 for i in range(len(log) - 1))

    def test_deterministic_given_seed(self):
        g = aggregate_static(
            generate_synthetic(GeneratorSpec(num_events=800), np.random.default_rng(2))
        )
        a = louvain(g, np.random.default_rng(42))
        b = louvain(g, np.random.default_rng(42))
        assert a.community_of == b.community_of
        assert a.modularity == b.modularity

    def test_planted_recovery(self):
        spec = GeneratorSpec(
            num_communities=2, nodes_per_community=20, num_events=2000, p_in=0.9, p_out=0.1
        )
        stream = generate_synthetic(spec, np.random.default_rng(3))
        asg = louvain(aggregate_static(stream), np.random.default_rng(3))
        planted = {u: u // 20 for u in range(40)}
        agreement = _planted_agreement(asg, planted, 40)
        assert agreement >= 0.9


class TestPartitionOracles:
    """The vectorised best-partition oracle equals the loop one bit for bit."""

    def test_k5(self):
        g = graph_of(clique([0, 1, 2, 3, 4]))
        assert best_partition_modularity(g) == best_partition_modularity_loop(g)

    def test_small_random_graphs(self):
        rng = np.random.default_rng(11)
        for trial in range(15):
            g = random_graph(rng, int(rng.integers(0, 8)), float(rng.uniform(0.2, 0.7)))
            assert best_partition_modularity(g) == best_partition_modularity_loop(g)

    def test_weighted_graphs(self):
        rng = np.random.default_rng(12)
        for trial in range(5):
            n = int(rng.integers(3, 8))
            pairs = [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < 0.5]
            weights = rng.integers(1, 5, len(pairs)).astype(float)
            g = graph_of(pairs, weights, nodes=range(n))
            assert best_partition_modularity(g) == best_partition_modularity_loop(g)


def _planted_agreement(asg: CommunityAssignment, planted: dict[int, int], n: int) -> float:
    """Fraction of nodes whose community maps to its majority planted label."""
    majority = {}
    for c, members in asg.members().items():
        labels = [planted[u] for u in members if u in planted]
        majority[c] = max(set(labels), key=labels.count)
    hits = sum(
        1 for u in range(n) if u in asg.community_of and majority[asg.community_of[u]] == planted[u]
    )
    return hits / n


def _planted_stream(num_communities=3, per=10, events=1500, seed=0):
    spec = GeneratorSpec(
        num_communities=num_communities,
        nodes_per_community=per,
        num_events=events,
        p_in=0.95,
        p_out=0.05,
    )
    return generate_synthetic(spec, np.random.default_rng(seed))


class TestTransferSplit:
    def test_three_equal_communities(self):
        stream = _planted_stream()
        asg = CommunityAssignment({u: u // 10 for u in range(30)}, 0.5)
        split = make_transfer_split(stream, asg)
        # one community per group; retained node sets stay within it
        assert sorted(split.group_of_community.values()) == ["test", "train", "val"]
        groups = [split.node_sets[g] for g in ("train", "val", "test")]
        for g, nodes in zip(("train", "val", "test"), groups):
            community = {c for c, grp in split.group_of_community.items() if grp == g}.pop()
            assert nodes <= {u for u in range(30) if u // 10 == community}
            assert len(nodes) >= 8
        for a in range(3):
            for b in range(a + 1, 3):
                assert not (groups[a] & groups[b])

    def test_two_communities_fails_without_fallback(self):
        stream = _planted_stream(num_communities=2)
        asg = CommunityAssignment({u: u // 10 for u in range(20)}, 0.5)
        with pytest.raises(SplitError):
            make_transfer_split(stream, asg)

    def test_two_way_fallback(self):
        stream = _planted_stream(num_communities=2)
        asg = CommunityAssignment({u: u // 10 for u in range(20)}, 0.5)
        split = make_transfer_split(stream, asg, allow_two_way=True)
        assert split.val is None
        assert split.train is not None and split.test is not None
        assert not (split.node_sets["train"] & split.node_sets["test"])

    def test_six_community_invariants(self):
        stream = _planted_stream(num_communities=6, per=8, events=3000, seed=5)
        asg = louvain(aggregate_static(stream), np.random.default_rng(5))
        assert asg.num_communities >= 3
        split = make_transfer_split(stream, asg, balance_tolerance=0.25)
        sizes = [len(split.node_sets[g]) for g in ("train", "val", "test")]
        assert max(sizes) <= 1.25 * min(sizes) or split.warnings
        seen_events = 0
        for g in ("train", "val", "test"):
            sub = split.stream(g)
            seen_events += len(sub)
            assert len(sub) > 0
            assert sub.time_span >= 0
            # every event inside the group's node set via the recorded map
            inverse = {v: k for k, v in split.node_maps[g].items()}
            originals = {inverse[int(u)] for u in np.concatenate([sub.src, sub.dst])}
            assert originals <= set(split.node_sets[g])
            # re-indexed and time sorted
            assert sub.src.max() < sub.num_nodes
            assert np.all(np.diff(sub.timestamps) >= 0)
        assert seen_events + split.dropped_events == len(stream)

    def test_node_sets_cover_only_retained_nodes(self):
        stream = _planted_stream(num_communities=3, per=6, events=400, seed=9)
        asg = louvain(aggregate_static(stream), np.random.default_rng(9))
        if asg.num_communities < 3:
            pytest.skip("generator did not produce 3 detectable communities")
        split = make_transfer_split(stream, asg)
        for g in ("train", "val", "test"):
            sub = split.stream(g)
            used = set(np.concatenate([sub.src, sub.dst]).tolist())
            assert used == set(split.node_maps[g].values())
            assert len(split.node_sets[g]) == sub.num_nodes
