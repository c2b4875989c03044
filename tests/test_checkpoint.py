"""Checkpoint round trips."""

import json

import numpy as np

from tglink.checkpoint import load_checkpoint, save_checkpoint
from tglink.transfer import TrainConfig, fit

from helpers import TINY_CONFIG, random_stream


def test_round_trip_is_byte_stable_and_creates_directories(tmp_path):
    stream = random_stream(np.random.default_rng(0), 8, 60, span=20.0)
    trained = fit(stream, None, TINY_CONFIG, TrainConfig(batch_size=10, epochs=1), seed=1)
    first = tmp_path / "runs" / "a" / "ckpt.json"
    save_checkpoint(trained, first)
    loaded = load_checkpoint(first)
    second = tmp_path / "ckpt.json"
    save_checkpoint(loaded, second)
    assert first.read_bytes() == second.read_bytes()
    assert json.dumps(loaded.cache.to_dict()) == json.dumps(trained.cache.to_dict())
    assert sorted(p.name for p in first.parent.iterdir()) == ["ckpt.json"]
