"""Spans around tglink's public functions and methods, installed from outside.

A `Tracer` replaces each traced callable with a wrapper that records one span
per call: calls, inclusive time, self time (inclusive time minus the time of
the spans it directly contains) and the work counts the callable reports.
Functions are patched at every binding site: the defining module and every
`tglink` module that imported the name, found by identity. `uninstall`
restores the originals, and `assert_clean` proves no wrapper is left.

Nothing here changes what the program computes; the wrappers only read
arguments and results.
"""

from __future__ import annotations

import functools
import sys
import time
from collections import defaultdict
from dataclasses import dataclass, field
from typing import Callable

_MARK = "__perfbench_traced__"


def _rows(a) -> int:
    """Leading rows of an array-like, counting all but the last axis for N-d input."""
    shape = getattr(a, "shape", None)
    if shape is None:
        return len(a)
    if len(shape) <= 1:
        return int(shape[0]) if shape else 1
    return int(a.size // shape[-1]) if shape[-1] else 0


@dataclass
class Stat:
    calls: int = 0
    total_ns: int = 0
    self_ns: int = 0
    counts: dict[str, float] = field(default_factory=lambda: defaultdict(float))
    samples_ns: list[int] = field(default_factory=list)


# Each spec: (module, attribute path, span name, counter).
# A span name with "{}" is filled from the call (Mlp name, scenario kind).
# A counter maps (args, result) to {count name: amount}.
Counter = Callable[[tuple, object], dict]


def _graph_counts(args, g) -> dict:
    return {"nodes": g.num_nodes, "edges": g.num_edges}


def _sfm_counts(args, result) -> dict:
    return {"graph_nodes": args[0].num_nodes, "rows": len(result[0])}


def _written(args, result) -> dict:
    return {"written": int(bool(result))}


def _first_arg_rows(args, result) -> dict:
    return {"rows": _rows(args[1])}


def _last_arg_rows(args, result) -> dict:
    return {"rows": _rows(args[2])}


def _events(args, result) -> dict:
    return {"events": len(args[1])}


SPECS: list[tuple[str, str, str, Counter | None]] = [
    ("tglink.events", "generate_synthetic", "events.generate_synthetic", None),
    ("tglink.events", "sample_negatives", "events.sample_negatives", None),
    ("tglink.graphs", "aggregate_static", "graphs.aggregate_static", None),
    ("tglink.graphs", "aggregate_window", "graphs.aggregate_window", _graph_counts),
    ("tglink.splitting", "louvain", "splitting.louvain", None),
    ("tglink.splitting", "make_transfer_split", "splitting.make_transfer_split", None),
    ("tglink.features", "structural_feature_matrix", "features.structural_feature_matrix", _sfm_counts),
    ("tglink.features", "node_features", "features.node_features", None),
    ("tglink.structmap", "fit_window_standardizer", "structmap.fit_window_standardizer", None),
    ("tglink.structmap", "StructMapTrainer.batch_features", "structmap.StructMapTrainer.batch_features", None),
    ("tglink.structmap", "cold_start", "structmap.cold_start", _written),
    ("tglink.model", "train_epoch", "model.train_epoch", None),
    ("tglink.model", "forward_batch", "model.forward_batch", None),
    ("tglink.model", "backward_batch", "model.backward_batch", None),
    ("tglink.model", "TgnModel.flush_backward", "model.TgnModel.flush_backward", None),
    ("tglink.model", "TgnModel.flush_pending", "model.TgnModel.flush_pending", None),
    ("tglink.model", "TgnModel.compute_messages", "model.TgnModel.compute_messages", None),
    ("tglink.model", "TgnModel.update_memory", "model.TgnModel.update_memory", None),
    ("tglink.model", "TgnModel.embed_pairs", "model.TgnModel.embed_pairs", _first_arg_rows),
    ("tglink.model", "NeighborCache.insert_batch", "model.NeighborCache.insert_batch", _events),
    ("tglink.nn", "TimeEncoder.forward", "nn.TimeEncoder.forward", _first_arg_rows),
    ("tglink.nn", "TimeEncoder.backward", "nn.TimeEncoder.backward", _last_arg_rows),
    ("tglink.nn", "AttentionReadout.forward", "nn.AttentionReadout.forward", _first_arg_rows),
    ("tglink.nn", "AttentionReadout.backward", "nn.AttentionReadout.backward", _last_arg_rows),
    ("tglink.nn", "GruCell.forward", "nn.GruCell.forward", _first_arg_rows),
    ("tglink.nn", "GruCell.backward", "nn.GruCell.backward", _last_arg_rows),
    ("tglink.nn", "Mlp.forward", "nn.Mlp.{}.forward", _first_arg_rows),
    ("tglink.nn", "Mlp.backward", "nn.Mlp.{}.backward", _last_arg_rows),
    ("tglink.nn", "Adam.step", "nn.Adam.step", None),
    ("tglink.transfer", "fit", "transfer.fit", None),
    ("tglink.transfer", "evaluate_stream", "transfer.evaluate_stream.{}", None),
    ("tglink.transfer", "run_transfer", "transfer.run_transfer.{}", None),
    ("tglink.checkpoint", "save_checkpoint", "checkpoint.save_checkpoint", None),
    ("tglink.checkpoint", "load_checkpoint", "checkpoint.load_checkpoint", None),
]


def _label(name: str, args: tuple, kwargs: dict) -> str:
    """Fill a templated span name from the call's arguments."""
    if "{}" not in name:
        return name
    if name.startswith("nn.Mlp"):
        return name.format(args[0].name)
    if name.startswith("transfer.run_transfer"):
        scenario = args[2] if len(args) > 2 else kwargs["scenario"]
        return name.format(scenario.kind)
    record = args[6] if len(args) > 6 else kwargs["record"]
    return name.format(record.scenario)


class Tracer:
    """Collects spans while installed; a fresh Tracer per traced pass."""

    def __init__(self):
        self.stats: dict[str, Stat] = defaultdict(Stat)
        # Each open span is [name, ns covered by its direct children, names of those children].
        self._stack: list[list] = []
        self._patched: list[tuple[object, str, object]] = []
        # Start of the previous forward_batch inside the open evaluate_stream.
        self._last_eval_forward: int | None = None
        self._eval_scenario: str | None = None

    # ----- recording -----

    def _enter(self, name: str) -> list:
        frame = [name, 0, set()]
        self._stack.append(frame)
        if name.startswith("transfer.evaluate_stream."):
            self._eval_scenario = name.rsplit(".", 1)[1]
            self._last_eval_forward = None
        return frame

    def _exit(self, frame: list, start_ns: int, end_ns: int) -> None:
        self._stack.pop()
        duration = end_ns - start_ns
        name = frame[0]
        if self._stack:
            parent = self._stack[-1]
            parent[1] += duration
            parent[2].add(name)
        stat = self.stats[name]
        stat.calls += 1
        stat.total_ns += duration
        stat.self_ns += duration - frame[1]
        if name == "model.train_epoch":
            stat.samples_ns.append(duration)
        elif name == "structmap.StructMapTrainer.batch_features":
            stat.counts["misses"] += "features.structural_feature_matrix" in frame[2]
        elif name.startswith("transfer.evaluate_stream."):
            self._eval_scenario = None

    def _note_forward(self, start_ns: int) -> None:
        """One deployment batch = the interval between consecutive forwards."""
        if self._eval_scenario is None:
            return
        if self._last_eval_forward is not None:
            key = f"transfer.eval_batch.{self._eval_scenario}"
            self.stats[key].samples_ns.append(start_ns - self._last_eval_forward)
        self._last_eval_forward = start_ns

    def _wrap(self, fn, name: str, counter: Counter | None):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            label = _label(name, args, kwargs)
            frame = tracer._enter(label)
            start = time.perf_counter_ns()
            if label == "model.forward_batch":
                tracer._note_forward(start)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._exit(frame, start, time.perf_counter_ns())
            if counter is not None:
                counts = tracer.stats[label].counts
                for key, amount in counter(args, result).items():
                    counts[key] += amount
            return result

        setattr(traced, _MARK, True)
        return traced

    # ----- installation -----

    def install(self) -> None:
        if self._patched:
            raise RuntimeError("tracer already installed")
        try:
            for module_name, path, name, counter in SPECS:
                module = sys.modules[module_name]
                if "." in path:
                    cls_name, attr = path.split(".")
                    owner = getattr(module, cls_name)
                    original = owner.__dict__[attr]
                    self._set(owner, attr, self._wrap(original, name, counter), original)
                    continue
                original = getattr(module, path)
                wrapper = self._wrap(original, name, counter)
                for site in binding_sites(original):
                    self._set(site, path, wrapper, original)
        except BaseException:
            self.uninstall()
            raise

    def _set(self, owner, attr: str, wrapper, original) -> None:
        setattr(owner, attr, wrapper)
        self._patched.append((owner, attr, original))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        self._patched.clear()

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.uninstall()


def tglink_modules() -> list:
    return [m for n, m in sorted(sys.modules.items()) if n.startswith("tglink") and m is not None]


def binding_sites(fn) -> list:
    """Every loaded tglink module whose globals bind `fn` (by identity)."""
    return [m for m in tglink_modules() if any(v is fn for v in vars(m).values())]


def assert_clean() -> None:
    """Raise if any tglink module or class still holds a tracing wrapper."""
    for module in tglink_modules():
        for name, value in vars(module).items():
            if getattr(value, _MARK, False):
                raise AssertionError(f"{module.__name__}.{name} is still traced")
            if isinstance(value, type) and value.__module__ == module.__name__:
                for attr, member in vars(value).items():
                    if getattr(member, _MARK, False):
                        raise AssertionError(f"{module.__name__}.{name}.{attr} is still traced")
