"""Fixtures shared across test modules."""

import time

import pytest

from tglink.transfer import seed_sweep

from helpers import BENCHMARK, BENCHMARK_SEEDS


@pytest.fixture(scope="session")
def benchmark_sweep():
    """The acceptance benchmark's five-seed sweep, run once per session."""
    t0 = time.perf_counter()
    sweep = seed_sweep(BENCHMARK, BENCHMARK_SEEDS)
    return sweep, time.perf_counter() - t0
