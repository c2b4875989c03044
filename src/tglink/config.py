"""Run configuration: flat key=value files, flag overrides, content hashing.

A RunConfig holds the component dataclasses (the ExperimentConfig with its
generator, model and training settings, the CSV IngestionConfig) and the
seed. Its flat `key = value` names are derived from the components' own
fields: a field keeps its name, ingestion fields get the prefix `csv_`, and
the fields in EXCLUDED have no key. Config files, flags and `to_flat_dict`
all read that one key table and one value parser, and each component is
built once from all of its values, so every subcommand validates the whole
configuration. The content hash covers the flat values (not I/O paths), is
stamped into every output artifact, and two runs with equal hash and seed
produce identical metric files.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, fields, is_dataclass, replace
from functools import reduce
from pathlib import Path

from .errors import ValidationError
from .events import GeneratorSpec, IngestionConfig
from .transfer import ExperimentConfig

# Component fields with no flat key: the edge-feature width comes from the
# stream, the comment prefix is fixed and the config hash is computed.
EXCLUDED = frozenset({"d_e", "comment_prefix", "config_hash"})


@dataclass(frozen=True)
class RunConfig:
    # The flat defaults that differ from the components' own defaults.
    experiment: ExperimentConfig = ExperimentConfig(
        generator=GeneratorSpec(nodes_per_community=50, num_events=6000), finetune_lr=3e-4
    )
    ingestion: IngestionConfig = IngestionConfig()
    seed: int = 0

    def to_flat_dict(self) -> dict[str, str]:
        out: dict[str, str] = {}
        for key, path in KEYS.items():
            val = reduce(getattr, path, self)
            if isinstance(val, tuple):
                out[key] = ",".join(str(v) for v in val)
            elif isinstance(val, bool):
                out[key] = "true" if val else "false"
            elif isinstance(val, float):
                out[key] = repr(val)
            else:
                out[key] = str(val)
        return out

    def content_hash(self) -> str:
        lines = [f"{k}={v}" for k, v in sorted(self.to_flat_dict().items())]
        return hashlib.sha256("\n".join(lines).encode("utf-8")).hexdigest()[:16]


def _key_paths(obj, path: tuple[str, ...] = (), prefix: str = "") -> dict[str, tuple[str, ...]]:
    out: dict[str, tuple[str, ...]] = {}
    for f in fields(obj):
        val = getattr(obj, f.name)
        if is_dataclass(val):
            sub_prefix = "csv_" if isinstance(val, IngestionConfig) else prefix
            out.update(_key_paths(val, path + (f.name,), sub_prefix))
        elif f.name not in EXCLUDED:
            out[prefix + f.name] = path + (f.name,)
    return out


# Flat key -> attribute path from a RunConfig, e.g. "d_m" -> ("experiment", "model", "d_m").
KEYS = _key_paths(RunConfig())
_KINDS = {key: type(reduce(getattr, path, RunConfig())) for key, path in KEYS.items()}
_BOOLS = {"true": True, "yes": True, "1": True, "false": False, "no": False, "0": False}


def component_keys(*path: str) -> list[str]:
    """The flat keys of the component at `path`, e.g. component_keys("experiment", "model")."""
    return [key for key, p in KEYS.items() if p[:-1] == path]


def parse_value(key: str, raw: str):
    """Parse a file or flag value for `key`; raises ValidationError naming the key."""
    if key not in KEYS:
        raise ValidationError(f"unknown config key {key!r}")
    kind = _KINDS[key]
    raw = raw.strip()
    try:
        if kind is tuple:
            return tuple(int(x) for x in raw.split(",")) if raw else ()
        if kind is bool:
            return _BOOLS[raw.lower()]
        return kind(raw)
    except (KeyError, ValueError):
        raise ValidationError(f"bad {kind.__name__} value for {key}: {raw!r}") from None


def load_config_file(path: str | Path) -> dict[str, str]:
    """Flat `key = value` lines; '#' comments and blank lines ignored."""
    out: dict[str, str] = {}
    for lineno, raw in enumerate(Path(path).read_text(encoding="utf-8").splitlines(), 1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ValidationError(f"{path}:{lineno}: expected key=value, got {line!r}")
        key, _, value = line.partition("=")
        out[key.strip()] = value.strip()
    return out


def _rebuild(obj, path: tuple[str, ...], values: dict[tuple[str, ...], object]):
    # One `replace` per component, so its checks see all of its new values at once.
    changes = {}
    for f in fields(obj):
        val = getattr(obj, f.name)
        if is_dataclass(val):
            changes[f.name] = _rebuild(val, path + (f.name,), values)
        elif path + (f.name,) in values:
            changes[f.name] = values[path + (f.name,)]
    return replace(obj, **changes)


def build_run_config(
    file_values: dict[str, str] | None = None, overrides: dict[str, object] | None = None
) -> RunConfig:
    """Defaults -> config file -> explicit overrides (flags win)."""
    values = {key: parse_value(key, raw) for key, raw in (file_values or {}).items()}
    for key, value in (overrides or {}).items():
        if value is None:
            continue
        if key not in KEYS:
            raise ValidationError(f"unknown config key {key!r}")
        values[key] = value
    return _rebuild(RunConfig(), (), {KEYS[key]: value for key, value in values.items()})
