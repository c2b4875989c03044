"""Window aggregation, structural features, standardization, correlations."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tglink import features
from tglink.errors import ContractError, CorrelationUndefinedError, ValidationError
from tglink.events import EventStream, GeneratorSpec, generate_synthetic
from tglink.features import (
    FeatureStandardizer,
    _betweenness_closeness,
    _clustering,
    _rwpe,
    average_ranks,
    correlate_distances,
    node_features,
    structural_feature_matrix,
)
from tglink.graphs import Graph, aggregate_static, aggregate_window

from oracles import (
    RefGraph,
    _brandes_and_distances,
    _closeness,
    betweenness_oracle,
    clustering_oracle,
    closeness_oracle,
    pearson_oracle,
    random_graph,
    rwpe_oracle,
    spearman_oracle,
)


def window_edge_set(stream, lo: float, hi: float) -> set[tuple[int, int]]:
    """Brute force: the sorted node pairs of every event with lo <= t < hi."""
    return {
        (min(int(s), int(d)), max(int(s), int(d)))
        for s, d, t in zip(stream.src, stream.dst, stream.timestamps)
        if lo <= t < hi
    }


@st.composite
def edge_lists(draw):
    """Pairs over a few node ids, with repeats, plus extra isolated ids."""
    ids = draw(st.lists(st.integers(-5, 40), min_size=2, max_size=9, unique=True))
    pair = st.tuples(st.sampled_from(ids), st.sampled_from(ids)).filter(lambda p: p[0] != p[1])
    pairs = draw(st.lists(pair, max_size=25))
    weights = draw(st.lists(st.integers(1, 4), min_size=len(pairs), max_size=len(pairs)))
    isolated = draw(st.lists(st.sampled_from(ids), max_size=3))
    return pairs, [float(w) for w in weights], isolated


class TestGraph:
    """The CSR graph against the dict-of-dict reference: nodes, neighbor order, weights."""

    @staticmethod
    def assert_same(g: Graph, ref: RefGraph):
        ids = g.ids.tolist()
        assert ids == ref.nodes()
        assert g.num_edges == len(ref.edges())
        for i, u in enumerate(ids):
            lo, hi = g.indptr[i], g.indptr[i + 1]
            assert [ids[j] for j in g.indices[lo:hi]] == ref.neighbors(u)
            assert g.weights[lo:hi].tolist() == [ref.weight(u, v) for v in ref.neighbors(u)]

    @given(edge_lists())
    @settings(max_examples=200, deadline=None)
    def test_counts_and_weights_match_reference(self, case):
        pairs, weights, isolated = case
        src = [u for u, _ in pairs]
        dst = [v for _, v in pairs]
        counted, weighted = RefGraph(), RefGraph()
        for u in isolated:
            counted.add_node(u)
            weighted.add_node(u)
        for (u, v), w in zip(pairs, weights):
            counted.add_edge(u, v)
            weighted.add_edge(u, v, w)
        self.assert_same(Graph.from_edges(src, dst, nodes=isolated), counted)
        self.assert_same(Graph.from_edges(src, dst, weights, isolated), weighted)

    def test_self_loop_rejected(self):
        with pytest.raises(ValidationError, match="self-loop on node 3"):
            Graph.from_edges([0, 3], [1, 3])


class TestAggregateWindow:
    @given(
        st.lists(st.tuples(st.integers(0, 6), st.integers(1, 6), st.integers(0, 12)), max_size=30),
        st.integers(-2, 14),
        st.sampled_from([0.05, 0.1, 0.25, 0.5, 1.0]),
    )
    @settings(max_examples=200, deadline=None)
    def test_edges_match_brute_force(self, events, t, w):
        """Integer timestamps tie often; narrow windows hold zero or one event."""
        events = sorted(events, key=lambda e: e[2])
        src = np.array([u for u, _, _ in events], np.int64)
        dst = (src + np.array([d for _, d, _ in events], np.int64)) % 7
        ts = np.array([e[2] for e in events], np.float64)
        stream = EventStream(src, dst, ts, np.empty((len(events), 0)), 7)
        g = aggregate_window(stream, float(t), w, 10.0)
        ref = RefGraph()
        for u, v in window_edge_set(stream, t - w * 10.0, t):
            ref.add_edge(u, v)
        TestGraph.assert_same(g, ref)

    def test_window_bounds(self):
        stream = generate_synthetic(GeneratorSpec(num_events=500), np.random.default_rng(0))
        g = aggregate_window(stream, t=500.0, w=0.01, train_span=1000.0)
        assert RefGraph.of(g).edge_set() == window_edge_set(stream, 490.0, 500.0)

    def test_before_first_event(self):
        stream = generate_synthetic(GeneratorSpec(num_events=100), np.random.default_rng(0))
        g = aggregate_window(stream, t=stream.start_time - 1.0, w=0.5, train_span=100.0)
        assert g.num_nodes == 0 and g.num_edges == 0

    def test_full_window_matches_static_aggregate(self):
        stream = generate_synthetic(GeneratorSpec(num_events=800), np.random.default_rng(1))
        g = aggregate_window(
            stream, t=stream.end_time + 1e-9, w=1.0, train_span=stream.end_time + 1.0
        )
        assert RefGraph.of(g).edge_set() == RefGraph.of(aggregate_static(stream)).edge_set()

    def test_bad_fraction(self):
        stream = generate_synthetic(GeneratorSpec(num_events=10), np.random.default_rng(0))
        with pytest.raises(ContractError):
            aggregate_window(stream, 1.0, 0.0, 100.0)
        with pytest.raises(ContractError):
            aggregate_window(stream, 1.0, 0.5, 0.0)


def star4(nodes=()) -> Graph:
    return Graph.from_edges([0, 0, 0], [1, 2, 3], nodes=nodes)


class TestNodeFeatures:
    def test_star_center(self):
        fv = node_features(star4(), 0, d_p=4)
        degree, betweenness, closeness, clustering = fv.values[:4]
        assert degree == 3
        assert betweenness == pytest.approx(3.0)  # 3 leaf pairs, all through hub
        assert closeness == pytest.approx(1.0)
        assert clustering == 0.0
        rwpe = fv.values[4:]
        assert rwpe[0] == 0.0
        assert rwpe[1] == pytest.approx(1.0)  # out to a leaf and straight back

    def test_star_leaf(self):
        fv = node_features(star4(), 1, d_p=2)
        assert fv.values[0] == 1
        assert fv.values[1] == 0.0
        assert fv.values[2] == pytest.approx(0.6)  # (3/3) * (3/5)
        assert fv.values[4] == 0.0
        assert fv.values[5] == pytest.approx(1.0 / 3.0)  # hub fans out over 3 leaves

    def test_absent_node_zero_vector(self):
        fv = node_features(star4(), 99, d_p=4)
        assert np.all(fv.values == 0.0)
        assert not fv.standardized

    def test_isolated_node_zero_vector(self):
        fv = node_features(star4(nodes=[7]), 7, d_p=4)
        assert np.all(fv.values == 0.0)

    def test_k4_symmetry(self):
        g = Graph.from_edges([0, 0, 0, 1, 1, 2], [1, 2, 3, 2, 3, 3])
        for u in range(4):
            fv = node_features(g, u, d_p=3)
            assert fv.values[3] == pytest.approx(1.0)  # clustering
            assert fv.values[1] == pytest.approx(0.0)  # betweenness

    def test_matches_oracles_on_random_graphs(self):
        rng = np.random.default_rng(77)
        for trial in range(40):
            n = int(rng.integers(2, 13))
            g = random_graph(rng, n, float(rng.uniform(0.1, 0.7)))
            nodes, mat = structural_feature_matrix(g, d_p=4)
            ref = RefGraph.of(g)
            bc = betweenness_oracle(g)
            cc = closeness_oracle(g)
            cl = clustering_oracle(g)
            for row, u in enumerate(nodes):
                assert mat[row, 0] == ref.degree(u)
                assert mat[row, 1] == pytest.approx(bc[u], abs=1e-9)
                assert mat[row, 2] == pytest.approx(cc[u], abs=1e-9)
                assert mat[row, 3] == pytest.approx(cl[u], abs=1e-9)
                assert mat[row, 4:] == pytest.approx(rwpe_oracle(g, u, 4), abs=1e-9)

    def test_rwpe_bounds_and_first_step(self):
        rng = np.random.default_rng(5)
        for _ in range(20):
            g = random_graph(rng, int(rng.integers(2, 10)), 0.5)
            _, mat = structural_feature_matrix(g, d_p=5)
            rwpe = mat[:, 4:]
            assert np.all(rwpe >= 0) and np.all(rwpe <= 1)
            assert np.all(rwpe[:, 0] == 0.0)

    def test_permutation_equivariance(self):
        rng = np.random.default_rng(13)
        for _ in range(10):
            n = int(rng.integers(3, 10))
            g = random_graph(rng, n, 0.5)
            perm = rng.permutation(n)
            edges = RefGraph.of(g).edges()
            h = Graph.from_edges(
                [perm[u] for u, _, _ in edges], [perm[v] for _, v, _ in edges], nodes=perm
            )
            for u in range(n):
                a = node_features(g, u, d_p=4).values
                b = node_features(h, int(perm[u]), d_p=4).values
                assert a == pytest.approx(b, abs=1e-12)


@st.composite
def shaped_graphs(draw) -> Graph:
    """Stars, paths, trees, matchings (isolated edges), random and pendant graphs.

    A pendant graph is a random graph with leaves hung on random nodes, so a
    leaf's parent carries a dependency summed over many shortest paths. Node
    labels are a random permutation, so a hub or a leaf's parent may have any
    index, and up to three isolated nodes are added. Sizes 0 and 1 give the
    empty and the one-node graph.
    """
    kind = draw(st.sampled_from(["star", "path", "tree", "matching", "random", "pendant"]))
    # Random graphs go larger: their path counts make the float order matter.
    n = draw(st.integers(0, 30 if kind in ("random", "pendant") else 12))
    if kind == "star":
        edges = [(0, v) for v in range(1, n)]
    elif kind == "path":
        edges = [(v, v + 1) for v in range(n - 1)]
    elif kind == "tree":
        edges = [(draw(st.integers(0, v - 1)), v) for v in range(1, n)]
    elif kind == "matching":
        edges = [(v, v + 1) for v in range(0, n - 1, 2)]
    else:
        rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
        p = draw(st.floats(0.05, 0.5))
        edges = [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < p]
        if kind == "pendant" and n:
            # Each pendant hangs on an earlier node: a core node or another pendant.
            hung = draw(st.integers(0, 20))
            edges += [(int(rng.integers(v)), v) for v in range(n, n + hung)]
            n += hung
    isolated = draw(st.integers(0, 3))
    label = draw(st.permutations(range(n + isolated)))
    return Graph.from_edges(
        [label[u] for u, _ in edges], [label[v] for _, v in edges], nodes=label
    )


class TestBrandesListPort:
    """The list sweep equals the numpy-array Brandes it replaced, bit for bit.

    The array sweep runs a BFS from every source, leaves included, so it is
    also the reference for the leaves that reuse their parent's sweep.
    """

    @given(shaped_graphs())
    @settings(max_examples=300, deadline=None)
    def test_bitwise_against_array_sweep(self, g):
        ref = RefGraph.of(g)
        present = ref.nodes()
        index = {u: i for i, u in enumerate(present)}
        adj = [[index[v] for v in ref.neighbors(u)] for u in present]
        ref_bc, dists = _brandes_and_distances(adj)
        ref_cc = _closeness(dists, len(adj))
        bc, cc = _betweenness_closeness(adj)
        assert np.array_equal(bc, ref_bc)
        assert np.array_equal(cc, ref_cc)

        d_p = 3
        ref = np.zeros((len(adj), 4 + d_p))
        ref[:, 0] = [len(a) for a in adj]
        ref[:, 1] = ref_bc
        ref[:, 2] = ref_cc
        ref[:, 3] = _clustering([set(a) for a in adj])
        ref[:, 4:] = _rwpe(adj, d_p)
        nodes, mat = structural_feature_matrix(g, d_p)
        assert nodes == present
        assert np.array_equal(mat, ref)


def csr_adj(g: Graph) -> list[list[int]]:
    return [g.indices[g.indptr[i] : g.indptr[i + 1]].tolist() for i in range(g.num_nodes)]


class TestLeafReuse:
    """A leaf whose neighbor has degree >= 2 gets no BFS of its own."""

    @staticmethod
    def sweep_sources(adj: list[list[int]]) -> list[int]:
        sources: list[int] = []
        real = features._sweep

        def counting(adj, s):
            sources.append(s)
            return real(adj, s)

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(features, "_sweep", counting)
            _betweenness_closeness(adj)
        return sources

    @pytest.mark.parametrize(
        "src, dst, sweeps",
        [
            ([0, 0, 0, 0, 0], [1, 2, 3, 4, 5], 1),  # star of 6: only the hub
            ([0, 1, 2, 3], [1, 2, 3, 4], 3),  # path of 5: the inner three
            ([0], [1], 2),  # isolated edge: both ends keep their sweep
        ],
    )
    def test_small_graphs(self, src, dst, sweeps):
        adj = csr_adj(Graph.from_edges(src, dst))
        assert len(self.sweep_sources(adj)) == sweeps

    @given(shaped_graphs())
    @settings(max_examples=100, deadline=None)
    def test_one_sweep_per_non_reusing_source(self, g):
        adj = csr_adj(g)
        sources = self.sweep_sources(adj)
        leaves = sum(1 for a in adj if len(a) == 1 and len(adj[a[0]]) >= 2)
        assert len(sources) == len(set(sources)) == len(adj) - leaves


class TestStandardizer:
    def test_two_point_column(self):
        s = FeatureStandardizer.fit(np.array([[1.0], [3.0]]))
        assert s.apply(np.array([[1.0], [3.0]])).ravel() == pytest.approx([-1.0, 1.0])

    def test_constant_column_floored(self):
        s = FeatureStandardizer.fit(np.array([[5.0], [5.0], [5.0]]))
        out = s.apply(np.array([[5.0]]))
        assert out.ravel() == pytest.approx([0.0])

    def test_fit_requires_two_rows(self):
        with pytest.raises(ValidationError):
            FeatureStandardizer.fit(np.array([[1.0, 2.0]]))

    def test_random_matrix_recomputation(self):
        rng = np.random.default_rng(0)
        mat = rng.normal(2.0, 3.0, size=(100, 9))
        s = FeatureStandardizer.fit(mat)
        out = s.apply(mat)
        assert out.mean(axis=0) == pytest.approx(np.zeros(9), abs=1e-9)
        assert out.std(axis=0) == pytest.approx(np.ones(9), abs=1e-9)

    def test_single_row_matches_matrix(self):
        rng = np.random.default_rng(2)
        mat = rng.normal(1.0, 4.0, size=(12, 5))
        s = FeatureStandardizer.fit(mat)
        whole = s.apply(mat)
        for i, row in enumerate(mat):
            assert np.array_equal(s.apply(row), whole[i])

    def test_round_trip(self):
        s = FeatureStandardizer.fit(np.random.default_rng(1).normal(size=(20, 4)))
        s2 = FeatureStandardizer.from_dict(s.to_dict())
        assert np.array_equal(s.mean, s2.mean)
        assert np.array_equal(s.sigma, s2.sigma)


class TestAverageRanks:
    @given(st.lists(st.integers(-5, 5), min_size=1, max_size=30))
    @settings(max_examples=50, deadline=None)
    def test_matches_counting_oracle(self, values):
        xs = [float(v) for v in values]
        from oracles import rank_by_counting

        assert average_ranks(np.array(xs)).tolist() == pytest.approx(rank_by_counting(xs))


class TestCorrelateDistances:
    def test_identity(self):
        rng = np.random.default_rng(0)
        m = rng.normal(size=(12, 5))
        r_p, r_s = correlate_distances(m, m.copy(), 1000, np.random.default_rng(1))
        assert r_p == pytest.approx(1.0, abs=1e-12)
        assert r_s == pytest.approx(1.0, abs=1e-12)

    def test_isometry_invariance(self):
        rng = np.random.default_rng(3)
        feats = rng.normal(size=(15, 6))
        q, _ = np.linalg.qr(rng.normal(size=(6, 6)))
        rotated = feats @ q + rng.normal(size=(1, 6))
        r_p, r_s = correlate_distances(rotated, feats, 10_000, np.random.default_rng(2))
        assert r_p == pytest.approx(1.0, abs=1e-9)
        assert r_s == pytest.approx(1.0, abs=1e-9)

    def test_matches_all_pairs_oracle(self):
        rng = np.random.default_rng(9)
        mem = rng.normal(size=(20, 7))
        feats = mem @ rng.normal(size=(7, 4)) + 0.3 * rng.normal(size=(20, 4))
        r_p, r_s = correlate_distances(mem, feats, 10_000, np.random.default_rng(4))
        d_m, d_f = [], []
        for i in range(20):
            for j in range(i + 1, 20):
                d_m.append(float(np.linalg.norm(mem[i] - mem[j])))
                d_f.append(float(np.linalg.norm(feats[i] - feats[j])))
        assert len(d_m) == 190
        assert r_p == pytest.approx(pearson_oracle(d_m, d_f), abs=1e-12)
        assert r_s == pytest.approx(spearman_oracle(d_m, d_f), abs=1e-12)

    def test_sampled_pairs_distinct_and_deterministic(self):
        rng = np.random.default_rng(0)
        mem = rng.normal(size=(40, 3))
        feats = rng.normal(size=(40, 3))
        a = correlate_distances(mem, feats, 50, np.random.default_rng(7))
        b = correlate_distances(mem, feats, 50, np.random.default_rng(7))
        assert a == b

    def test_zero_variance_raises(self):
        mem = np.ones((5, 2))
        feats = np.random.default_rng(0).normal(size=(5, 2))
        with pytest.raises(CorrelationUndefinedError):
            correlate_distances(mem, feats, 100, np.random.default_rng(0))

    def test_mismatched_rows(self):
        with pytest.raises(ContractError):
            correlate_distances(np.zeros((4, 2)), np.zeros((5, 2)), 10, np.random.default_rng(0))

    def test_too_few_nodes(self):
        with pytest.raises(ContractError):
            correlate_distances(np.zeros((2, 2)), np.zeros((2, 2)), 10, np.random.default_rng(0))
