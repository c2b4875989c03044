"""Checkpoint round trips."""

import json

import numpy as np
import pytest

from tglink.checkpoint import load_checkpoint, save_checkpoint
from tglink.errors import ValidationError
from tglink.model import ModelConfig
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
    current = tmp_path / "v3.json"
    save_checkpoint(trained, current)
    payload = json.loads(current.read_text())
    assert payload["version"] == 3
    assert "optimizer_state" not in payload and "rng_state" not in payload
    # A version-1 file carried two more keys that nothing reads.
    payload.update(version=1, optimizer_state={"t": 6, "m": [], "v": []}, rng_state={"state": 1})
    old = tmp_path / "v1.json"
    old.write_text(json.dumps(payload, sort_keys=True))
    resaved = tmp_path / "resaved.json"
    save_checkpoint(load_checkpoint(old), resaved)
    assert resaved.read_bytes() == current.read_bytes()
    payload["version"] = 4
    old.write_text(json.dumps(payload))
    with pytest.raises(ValidationError):
        load_checkpoint(old)


def test_model_config_dict_bytes_are_pinned():
    text = json.dumps(ModelConfig(d_e=2, message_hidden=(8, 4)).to_dict(), sort_keys=True)
    assert text == (
        '{"alpha": 1.0, "coupled_structmap": false, "d_att": 32, "d_e": 2, "d_m": 32, '
        '"d_n": 32, "d_p": 4, "d_t": 8, "decoder_hidden": [64], "message_hidden": [8, 4], '
        '"num_neighbors": 10, "structmap_hidden": 64, "use_structmap": true, '
        '"window_fraction": 0.01}'
    )
    assert ModelConfig.from_dict(json.loads(text)) == ModelConfig(d_e=2, message_hidden=(8, 4))


def _reject_constant(name):
    raise AssertionError(f"non-standard JSON constant {name}")


def test_never_seen_rows_round_trip_as_strict_json(tmp_path):
    stream = random_stream(np.random.default_rng(2), 8, 60, span=20.0)
    trained = fit(stream, None, TINY_CONFIG, TrainConfig(batch_size=10, epochs=1), seed=3)
    trained.store.memory[5] = 0.0
    trained.store.last_update[5] = -np.inf
    current = tmp_path / "ckpt.json"
    save_checkpoint(trained, current)
    payload = json.loads(current.read_text(), parse_constant=_reject_constant)
    assert payload["memory"]["last_update"][5] is None
    loaded = load_checkpoint(current)
    np.testing.assert_array_equal(loaded.store.last_update, trained.store.last_update)
    assert not loaded.store.seen(5) and loaded.store.seen(0)
    # Version 2 wrote the sentinel as the non-standard -Infinity; such files still load.
    payload["version"] = 2
    payload["memory"]["last_update"][5] = -np.inf
    old = tmp_path / "v2.json"
    old.write_text(json.dumps(payload, sort_keys=True))
    assert "-Infinity" in old.read_text()
    resaved = tmp_path / "resaved.json"
    save_checkpoint(load_checkpoint(old), resaved)
    assert resaved.read_bytes() == current.read_bytes()
