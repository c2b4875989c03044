"""Window aggregation, structural features, standardization, correlations."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tglink.errors import ContractError, CorrelationUndefinedError, ValidationError
from tglink.events import GeneratorSpec, generate_synthetic
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


class TestAggregateWindow:
    def test_window_bounds(self):
        stream = generate_synthetic(GeneratorSpec(num_events=500), np.random.default_rng(0))
        g = aggregate_window(stream, t=500.0, w=0.01, train_span=1000.0)
        assert g.window_lo == pytest.approx(490.0)
        assert g.window_hi == 500.0
        ts = stream.timestamps
        in_window = (ts >= 490.0) & (ts < 500.0)
        expected = {
            tuple(sorted((int(s), int(d))))
            for s, d in zip(stream.src[in_window], stream.dst[in_window])
        }
        assert g.edge_set() == expected

    def test_before_first_event(self):
        stream = generate_synthetic(GeneratorSpec(num_events=100), np.random.default_rng(0))
        g = aggregate_window(stream, t=stream.start_time - 1.0, w=0.5, train_span=100.0)
        assert g.num_nodes == 0 and g.num_edges == 0

    def test_full_window_matches_static_aggregate(self):
        stream = generate_synthetic(GeneratorSpec(num_events=800), np.random.default_rng(1))
        g = aggregate_window(
            stream, t=stream.end_time + 1e-9, w=1.0, train_span=stream.end_time + 1.0
        )
        assert g.edge_set() == aggregate_static(stream).edge_set()

    def test_bad_fraction(self):
        stream = generate_synthetic(GeneratorSpec(num_events=10), np.random.default_rng(0))
        with pytest.raises(ContractError):
            aggregate_window(stream, 1.0, 0.0, 100.0)
        with pytest.raises(ContractError):
            aggregate_window(stream, 1.0, 0.5, 0.0)


def star4() -> Graph:
    g = Graph()
    for leaf in (1, 2, 3):
        g.add_edge(0, leaf)
    return g


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
        g = star4()
        g.add_node(7)
        fv = node_features(g, 7, d_p=4)
        assert np.all(fv.values == 0.0)

    def test_k4_symmetry(self):
        g = Graph()
        for u in range(4):
            for v in range(u + 1, 4):
                g.add_edge(u, v)
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
            bc = betweenness_oracle(g)
            cc = closeness_oracle(g)
            cl = clustering_oracle(g)
            for row, u in enumerate(nodes):
                assert mat[row, 0] == g.degree(u)
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
            h = Graph()
            for u in range(n):
                h.add_node(int(perm[u]))
            for u, v, _ in g.edges():
                h.add_edge(int(perm[u]), int(perm[v]))
            for u in range(n):
                a = node_features(g, u, d_p=4).values
                b = node_features(h, int(perm[u]), d_p=4).values
                assert a == pytest.approx(b, abs=1e-12)


@st.composite
def shaped_graphs(draw) -> Graph:
    """Stars, paths, trees, matchings (isolated edges) and random graphs.

    Node labels are a random permutation, so a hub or a leaf's parent may
    have any index, and up to three isolated nodes are added. Sizes 0 and 1
    give the empty and the one-node graph.
    """
    kind = draw(st.sampled_from(["star", "path", "tree", "matching", "random"]))
    # Random graphs go larger: their path counts make the float order matter.
    n = draw(st.integers(0, 30 if kind == "random" else 12))
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
    isolated = draw(st.integers(0, 3))
    label = draw(st.permutations(range(n + isolated)))
    g = Graph()
    for v in range(n + isolated):
        g.add_node(label[v])
    for u, v in edges:
        g.add_edge(label[u], label[v])
    return g


class TestBrandesListPort:
    """The list sweep equals the numpy-array Brandes it replaced, bit for bit."""

    @given(shaped_graphs())
    @settings(max_examples=300, deadline=None)
    def test_bitwise_against_array_sweep(self, g):
        present = g.nodes()
        index = {u: i for i, u in enumerate(present)}
        adj = [[index[v] for v in g.neighbors(u)] for u in present]
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

    def test_vector_api_flags(self):
        from tglink.features import StructuralFeatureVector

        s = FeatureStandardizer.fit(np.array([[0.0, 1.0], [2.0, 3.0]]))
        fv = StructuralFeatureVector(np.array([1.0, 2.0]))
        std = s.apply_vector(fv)
        assert std.standardized
        with pytest.raises(ContractError):
            s.apply_vector(std)

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
