"""Checkpoint round trips."""

import json

import numpy as np
import pytest

from tglink.checkpoint import load_checkpoint, save_checkpoint
from tglink.errors import ValidationError
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


def test_version_one_loads_without_its_optimizer_and_rng_state(tmp_path):
    stream = random_stream(np.random.default_rng(1), 8, 60, span=20.0)
    trained = fit(stream, None, TINY_CONFIG, TrainConfig(batch_size=10, epochs=1), seed=2)
    current = tmp_path / "v2.json"
    save_checkpoint(trained, current)
    payload = json.loads(current.read_text())
    assert payload["version"] == 2
    assert "optimizer_state" not in payload and "rng_state" not in payload
    # A version-1 file carried two more keys that nothing reads.
    payload.update(version=1, optimizer_state={"t": 6, "m": [], "v": []}, rng_state={"state": 1})
    old = tmp_path / "v1.json"
    old.write_text(json.dumps(payload, sort_keys=True))
    resaved = tmp_path / "resaved.json"
    save_checkpoint(load_checkpoint(old), resaved)
    assert resaved.read_bytes() == current.read_bytes()
    payload["version"] = 3
    old.write_text(json.dumps(payload))
    with pytest.raises(ValidationError):
        load_checkpoint(old)
