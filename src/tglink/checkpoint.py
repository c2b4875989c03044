"""Versioned JSON checkpoints.

A checkpoint bundles model parameters, the structural-map head, the feature
standardizer, the final training-time memory, the per-epoch history and the
run's config hash. Floats survive the JSON round trip exactly (repr-based
encoding), and the file is strict JSON: since version 3 a never-seen node's
last-update sentinel is written as null. Versions 1 and 2 wrote it as the
non-standard -Infinity; they still load. Versions 1 to 3 also held the final
training neighbor cache, and version 1 optimizer and RNG state. Nothing read
them, and loading ignores them.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

from .errors import ValidationError
from .features import FeatureStandardizer
from .model import MemoryStore, ModelConfig, TgnModel
from .structmap import StructMapParams
from .transfer import TrainedModel

FORMAT = "tglink-checkpoint"
VERSION = 4


def atomic_write_text(path: Path, text: str) -> None:
    """Write `text` through a sibling temporary file, creating parent directories."""
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_name(path.name + ".tmp")
    tmp.write_text(text, encoding="utf-8")
    tmp.replace(path)


def save_checkpoint(trained: TrainedModel, path: str | Path) -> None:
    payload = {
        "format": FORMAT,
        "version": VERSION,
        "config": trained.config.to_dict(),
        "config_hash": trained.config_hash,
        "seed": trained.seed,
        "train_span": trained.train_span,
        "params": trained.model.state_dict(),
        "structmap": trained.structmap.state_dict() if trained.structmap else None,
        "structmap_alpha": trained.structmap.alpha if trained.structmap else None,
        "standardizer": trained.standardizer.to_dict() if trained.standardizer else None,
        "memory": trained.store.to_dict(),
        "epoch_history": trained.epoch_history,
    }
    atomic_write_text(Path(path), json.dumps(payload, sort_keys=True))


def load_checkpoint(path: str | Path) -> TrainedModel:
    payload = json.loads(Path(path).read_text(encoding="utf-8"))
    if payload.get("format") != FORMAT:
        raise ValidationError(f"{path}: not a {FORMAT} file")
    if payload.get("version") not in (1, 2, 3, VERSION):
        raise ValidationError(f"{path}: unsupported checkpoint version {payload.get('version')}")
    config = ModelConfig.from_dict(payload["config"])
    span = float(payload["train_span"])
    model = TgnModel(config, span, np.random.default_rng(0))
    model.load_state_dict(payload["params"])
    structmap = None
    if payload["structmap"] is not None:
        structmap = StructMapParams(
            config.d_s,
            config.d_m,
            config.structmap_hidden,
            float(payload["structmap_alpha"]),
            np.random.default_rng(0),
        )
        structmap.load_state_dict(payload["structmap"])
    standardizer = (
        FeatureStandardizer.from_dict(payload["standardizer"])
        if payload["standardizer"] is not None
        else None
    )
    return TrainedModel(
        model=model,
        structmap=structmap,
        standardizer=standardizer,
        config=config,
        train_span=span,
        store=MemoryStore.from_dict(payload["memory"]),
        epoch_history=payload["epoch_history"],
        seed=int(payload["seed"]),
        config_hash=payload.get("config_hash", ""),
    )
