"""Event stream ingestion, batching, sampling, and generation."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tglink.errors import ParseError, ValidationError
from tglink.events import (
    EventBatch,
    EventStream,
    GeneratorSpec,
    IngestionConfig,
    generate_synthetic,
    load_csv,
    make_batches,
    sample_negatives,
    write_csv,
)


def _stream_of(n_events, num_nodes=10, rng=None):
    rng = rng or np.random.default_rng(0)
    src = rng.integers(0, num_nodes, n_events)
    dst = (src + 1 + rng.integers(0, num_nodes - 1, n_events)) % num_nodes
    ts = np.sort(rng.uniform(0, 100, n_events))
    return EventStream(src, dst, ts, np.empty((n_events, 0)), num_nodes)


class TestLoadCsv:
    def test_sorts_by_timestamp(self, tmp_path):
        f = tmp_path / "s.csv"
        f.write_text("a,b,1.0\nb,c,2.0\na,c,1.5\n")
        stream = load_csv(f)
        assert len(stream) == 3
        assert stream.num_nodes == 3
        assert stream.timestamps.tolist() == [1.0, 1.5, 2.0]
        # dense ids assigned by first appearance in time order
        assert stream.node_labels == ("a", "b", "c")
        assert stream.src.tolist() == [0, 0, 1]
        assert stream.dst.tolist() == [1, 2, 2]

    def test_self_loop_rejected(self, tmp_path):
        f = tmp_path / "s.csv"
        f.write_text("a,b,1.0\nx,x,4.0\n")
        with pytest.raises(ValidationError, match="line 2"):
            load_csv(f)

    def test_malformed_row_names_line(self, tmp_path):
        f = tmp_path / "s.csv"
        f.write_text("a,b,1.0\na,c,notatime\n")
        with pytest.raises(ParseError, match="line 2"):
            load_csv(f)

    def test_inconsistent_feature_arity(self, tmp_path):
        f = tmp_path / "s.csv"
        f.write_text("a,b,1.0,0.5\na,c,2.0\n")
        with pytest.raises(ValidationError, match="feature"):
            load_csv(f)

    def test_header_and_comments_skipped(self, tmp_path):
        f = tmp_path / "s.csv"
        f.write_text("# a comment\nsrc,dst,timestamp\na,b,1.0\n")
        stream = load_csv(f)
        assert len(stream) == 1

    def test_explicit_no_header(self, tmp_path):
        f = tmp_path / "s.csv"
        f.write_text("1,2,3.0\n")
        stream = load_csv(f, IngestionConfig(has_header="no"))
        assert len(stream) == 1

    def test_ties_keep_ingestion_order(self, tmp_path):
        f = tmp_path / "s.csv"
        f.write_text("a,b,5.0\nc,d,5.0\ne,f,1.0\n")
        stream = load_csv(f)
        assert stream.node_labels == ("e", "f", "a", "b", "c", "d")
        assert stream.src.tolist() == [0, 2, 4]

    def test_round_trip_10k(self, tmp_path):
        stream = generate_synthetic(
            GeneratorSpec(num_events=10_000, nodes_per_community=40), np.random.default_rng(5)
        )
        f = tmp_path / "rt.csv"
        write_csv(stream, f)
        loaded = load_csv(f)
        # loading re-indexes ids by first appearance: equal up to a bijection
        assert np.array_equal(loaded.timestamps, stream.timestamps)
        assert np.array_equal(loaded.edge_feat, stream.edge_feat)
        mapping: dict[int, int] = {}
        for orig, new in zip(
            np.concatenate([stream.src, stream.dst]),
            np.concatenate([loaded.src, loaded.dst]),
        ):
            assert mapping.setdefault(int(orig), int(new)) == int(new)
        assert len(set(mapping.values())) == len(mapping)
        # a second round trip is exact: ids are already in canonical order
        f2 = tmp_path / "rt2.csv"
        write_csv(loaded, f2)
        assert load_csv(f2) == loaded

    def test_load_deterministic(self, tmp_path):
        f = tmp_path / "s.csv"
        write_csv(_stream_of(200), f)
        assert load_csv(f) == load_csv(f)


class TestBatches:
    def test_sizes(self):
        batches = make_batches(_stream_of(10), 4)
        assert [len(b) for b in batches] == [4, 4, 2]
        # An event range [start, stop) is cut the same way.
        ranged = make_batches(_stream_of(10), 4, 3, 9)
        assert [(b.start, b.stop) for b in ranged] == [(3, 7), (7, 9)]
        assert [(b.start, b.stop) for b in make_batches(_stream_of(10), 4, 3)] == [(3, 7), (7, 10)]

    def test_oversized_batch(self):
        batches = make_batches(_stream_of(10), 100)
        assert [len(b) for b in batches] == [10]

    def test_empty_stream(self):
        empty = EventStream(
            np.empty(0, np.int64), np.empty(0, np.int64), np.empty(0), np.empty((0, 0)), 0
        )
        assert make_batches(empty, 5) == []

    def test_bad_batch_size(self):
        with pytest.raises(ValidationError):
            make_batches(_stream_of(10), 0)

    def test_reconstruction_1000(self):
        stream = _stream_of(1000)
        batches = make_batches(stream, 200)
        assert len(batches) == 5
        src = np.concatenate([b.src for b in batches])
        ts = np.concatenate([b.timestamps for b in batches])
        assert np.array_equal(src, stream.src)
        assert np.array_equal(ts, stream.timestamps)

    @given(n=st.integers(1, 300), size=st.integers(1, 50))
    @settings(max_examples=40, deadline=None)
    def test_reconstruction_property(self, n, size):
        stream = _stream_of(n)
        batches = make_batches(stream, size)
        assert sum(len(b) for b in batches) == n
        assert all(len(b) == size for b in batches[:-1])
        dst = np.concatenate([b.dst for b in batches])
        assert np.array_equal(dst, stream.dst)

    def test_batch_time_bounds(self):
        stream = _stream_of(100)
        for b in make_batches(stream, 7):
            assert b.batch_start_time <= b.timestamps.min()
            assert b.batch_end_time >= b.timestamps.max()


class TestNegativeSampling:
    def test_only_candidate(self):
        stream = EventStream(
            np.array([0]), np.array([1]), np.array([1.0]), np.empty((1, 0)), 2
        )
        batch = EventBatch(stream, 0, 1)
        negs = sample_negatives(batch, 2, 1, np.random.default_rng(0))
        assert negs.tolist() == [[0]]

    def test_determinism(self):
        stream = _stream_of(50)
        batch = EventBatch(stream, 0, 50)
        a = sample_negatives(batch, 10, 5, np.random.default_rng(9))
        b = sample_negatives(batch, 10, 5, np.random.default_rng(9))
        assert np.array_equal(a, b)

    def test_too_few_nodes(self):
        stream = EventStream(
            np.array([0]), np.array([1]), np.array([1.0]), np.empty((1, 0)), 2
        )
        with pytest.raises(ValidationError):
            sample_negatives(EventBatch(stream, 0, 1), 1, 1, np.random.default_rng(0))

    @given(seed=st.integers(0, 2**32 - 1))
    @settings(max_examples=30, deadline=None)
    def test_never_returns_positive(self, seed):
        rng = np.random.default_rng(seed)
        stream = _stream_of(60, num_nodes=7, rng=np.random.default_rng(seed))
        batch = EventBatch(stream, 0, 60)
        negs = sample_negatives(batch, 7, 4, rng)
        assert np.all(negs != batch.dst[:, None])
        assert negs.min() >= 0 and negs.max() < 7

    def test_uniform_within_3_sigma(self):
        # seeded, hence deterministic: 1e4 events x k=20 draws over 49 candidates
        num_nodes, k, n_events = 50, 20, 10_000
        rng = np.random.default_rng(1234)
        src = np.zeros(n_events, np.int64)
        dst = np.full(n_events, 1, np.int64)
        stream = EventStream(src, dst, np.arange(n_events, dtype=float), np.empty((n_events, 0)), num_nodes)
        negs = sample_negatives(EventBatch(stream, 0, n_events), num_nodes, k, rng)
        counts = np.bincount(negs.ravel(), minlength=num_nodes)
        assert counts[1] == 0
        total = n_events * k
        p = 1.0 / (num_nodes - 1)
        expected = total * p
        sigma = np.sqrt(total * p * (1 - p))
        others = np.delete(counts, 1)
        assert np.all(np.abs(others - expected) <= 3 * sigma)


class TestGenerator:
    def test_zero_events(self):
        spec = GeneratorSpec(num_events=0)
        stream = generate_synthetic(spec, np.random.default_rng(0))
        assert len(stream) == 0
        assert stream.num_nodes == spec.num_nodes

    def test_determinism(self):
        spec = GeneratorSpec(num_events=500, nodes_per_community=10)
        a = generate_synthetic(spec, np.random.default_rng(3))
        b = generate_synthetic(spec, np.random.default_rng(3))
        assert a == b

    def test_invalid_probabilities(self):
        with pytest.raises(ValidationError):
            GeneratorSpec(p_in=0.1, p_out=0.5)

    def test_mostly_intra_community(self):
        spec = GeneratorSpec(
            num_communities=2, nodes_per_community=20, num_events=2000, p_in=0.9, p_out=0.1
        )
        stream = generate_synthetic(spec, np.random.default_rng(11))
        same = (stream.src // 20) == (stream.dst // 20)
        assert same.mean() > 0.8

    def test_activity_correlates_with_degree(self):
        spec = GeneratorSpec(num_events=3000, pref_attach=2.0)
        stream = generate_synthetic(spec, np.random.default_rng(2))
        counts = np.bincount(
            np.concatenate([stream.src, stream.dst]), minlength=spec.num_nodes
        )
        # heavy-tailed: the busiest decile sees several times the median load
        assert np.sort(counts)[-5:].mean() > 3 * np.median(counts)
