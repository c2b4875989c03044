"""The benchmark's workloads and one pass of the tglink pipeline over them.

A pass runs what the CLI walkthrough runs: generate -> Louvain split ->
`fit` -> `save_checkpoint`/`load_checkpoint` -> `run_transfer` for each
scenario, timing each stage and checking its output. Every tglink function is
called through its module, so a tracer installed on the module sees the call.
"""

from __future__ import annotations

import bisect
import hashlib
import json
import math
import os
import statistics
import threading
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from tglink import checkpoint, events, graphs, splitting, transfer
from tglink.events import GeneratorSpec
from tglink.model import ModelConfig
from tglink.rngs import child_rng
from tglink.transfer import TrainConfig, TransferScenario

SCENARIOS = ("no_warm_start", "warm_start", "structural_mapping")


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    generator: GeneratorSpec
    model: ModelConfig
    train: TrainConfig
    scenarios: tuple[str, ...]
    # Distinct input seeds per run; every one is run at least once. Timings
    # and MRR vary from input to input, so a cheap workload takes several.
    inputs: int


# Harness settings of the acceptance suite, shared by every workload.
FINETUNE_LR = 3e-4
EVAL_NEGATIVES = 20
HITS_KS = (1, 5, 10)
BALANCE_TOLERANCE = 0.25


# The acceptance suite's desk-scale model (tests/test_acceptance.py BENCHMARK).
_DESK_MODEL = ModelConfig(
    d_m=16,
    d_t=8,
    d_att=16,
    d_n=16,
    message_hidden=(32,),
    decoder_hidden=(32,),
    num_neighbors=2,
    structmap_hidden=64,
    alpha=1.0,
    window_fraction=0.01,
)
_DESK_TRAIN = TrainConfig(batch_size=50, lr=3e-3, epochs=2, train_negatives=3)
_SCALED_STREAM = GeneratorSpec(num_communities=2, nodes_per_community=400, num_events=40_000)

WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="desk",
            why="acceptance-suite scale; tiny graphs and batches, so fixed per-call cost dominates and no layer does",
            generator=GeneratorSpec(num_communities=2, nodes_per_community=50, num_events=6600),
            model=_DESK_MODEL,
            train=_DESK_TRAIN,
            scenarios=SCENARIOS,
            inputs=12,
        ),
        Workload(
            name="scaled",
            why="2x400 nodes, 40k events; window features, structmap and graphs do most of the work",
            generator=_SCALED_STREAM,
            model=_DESK_MODEL,
            train=_DESK_TRAIN,
            scenarios=SCENARIOS,
            inputs=1,
        ),
        Workload(
            name="wide_neighbors",
            why="scaled stream, default model with k=10 and no structural map; neighbor gather and attention dominate",
            generator=_SCALED_STREAM,
            model=ModelConfig(use_structmap=False),
            train=TrainConfig(batch_size=200, lr=3e-3, epochs=1, train_negatives=3),
            scenarios=SCENARIOS[:2],
            inputs=2,
        ),
    )
}


def input_seed(run_seed: int, index: int) -> int:
    """Seed of the run's `index`-th input; a run's inputs depend on its seed only."""
    return run_seed * 1000 + index


# ----- output checks -----


class CheckFailed(Exception):
    pass


def _require(cond: bool, what: str) -> None:
    if not cond:
        raise CheckFailed(what)


def record_digest(record) -> str:
    """SHA-256 of every record field except the wall-clock `timing` object."""
    d = record.to_dict()
    d.pop("timing")
    return hashlib.sha256(json.dumps(d, sort_keys=True).encode()).hexdigest()


def check_record(record, workload: Workload, test_stream) -> None:
    _require(0.0 < record.mrr <= 1.0, f"mrr {record.mrr} outside (0, 1]")
    hits = [record.hits[k] for k in sorted(record.hits)]
    _require(all(0.0 <= h <= 1.0 for h in hits), f"hits outside [0, 1]: {hits}")
    _require(all(a <= b for a, b in zip(hits, hits[1:])), f"Hits@K decreases in K: {hits}")
    n = len(test_stream)
    batch = workload.train.batch_size
    if record.scenario == "structural_mapping":
        _require(
            record.cold_starts == test_stream.num_nodes,
            f"cold_starts {record.cold_starts} != test nodes {test_stream.num_nodes}",
        )
    if record.scenario == "warm_start":
        steps = math.ceil(math.floor(0.2 * n) / batch)
        _require(record.optimizer_steps == steps, f"optimizer_steps {record.optimizer_steps} != {steps}")
    for i, (total, tlp, sm) in enumerate(
        zip(record.batch_total_loss, record.batch_tlp_loss, record.batch_structmap_loss)
    ):
        _require(
            abs(total - (tlp + record.alpha * sm)) <= 1e-9,
            f"batch {i}: total {total} != tlp {tlp} + alpha * structmap {sm}",
        )


def check_fit(trained, loaded) -> str:
    """Checks the trained model and its checkpoint round trip; returns their digest."""
    history = trained.epoch_history
    _require(len(history) >= 1, "no epoch ran")
    _require(
        all(np.isfinite(e["mean_total_loss"]) for e in history), "non-finite training loss"
    )
    _require(loaded.model.state_dict() == trained.model.state_dict(), "checkpoint changed the parameters")
    _require(np.array_equal(loaded.store.memory, trained.store.memory), "checkpoint changed the memory")
    digest = hashlib.sha256()
    digest.update(json.dumps(history, sort_keys=True).encode())
    digest.update(json.dumps(trained.model.state_dict(), sort_keys=True).encode())
    if trained.structmap is not None:
        digest.update(json.dumps(trained.structmap.state_dict(), sort_keys=True).encode())
    return digest.hexdigest()


def stream_digest(stream) -> str:
    h = hashlib.sha256()
    for a in (stream.src, stream.dst, stream.timestamps):
        h.update(np.ascontiguousarray(a).tobytes())
    return h.hexdigest()


# ----- clocks -----


@dataclass(frozen=True)
class Span:
    """One timed stage in wall seconds, main-thread CPU seconds and reference seconds."""

    wall_s: float
    cpu_s: float
    ref_s: float


class HostSpeed:
    """Samples how fast the benchmark's core runs, from a thread of its own.

    On a shared host the same work takes up to half as long again in one
    ten-second spell as in the next (the host's clock, a neighbour on the
    core), and CPU time does not see it. Every `INTERVAL_S` seconds a daemon
    thread times a fixed kernel in its own thread CPU time: an interpreted
    loop and small numpy matmuls with tanh, about equal in time, the two
    kinds of work tglink does. Nothing of tglink runs in the kernel, so a
    change to tglink cannot move it.

    A stage's reference seconds are its CPU seconds × `REF_KERNEL_S` ÷ the
    mean kernel time sampled during the stage: the time the stage takes with
    the core at the speed at which the kernel takes `REF_KERNEL_S`, its median
    on a shared 2-vCPU Intel Xeon host.
    """

    REF_KERNEL_S = 3.3e-4
    INTERVAL_S = 0.04
    MIN_SAMPLES = 8

    def __init__(self):
        self.times: list[float] = []
        self.kernel_s: list[float] = []
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._sample, name="host-speed", daemon=True)

    def __enter__(self) -> "HostSpeed":
        self._thread.start()
        return self

    def __exit__(self, *exc) -> None:
        self._stop.set()
        self._thread.join()

    def _sample(self) -> None:
        rng = np.random.default_rng(0)
        a = rng.standard_normal((32, 32))
        x = rng.standard_normal((64, 32))
        while not self._stop.wait(self.INTERVAL_S):
            t, c = time.perf_counter(), time.thread_time()
            acc = 0
            for i in range(1500):
                acc += i * i
            y = x
            for _ in range(15):
                y = np.tanh(y @ a * 0.1)
            kernel_s = time.thread_time() - c
            # `factor` reads len(kernel_s) samples, so `times` grows first.
            self.times.append(t)
            self.kernel_s.append(kernel_s)

    def factor(self, t0: float, t1: float) -> float:
        """REF_KERNEL_S ÷ the mean kernel time in [t0, t1], widened to MIN_SAMPLES samples."""
        n = len(self.kernel_s)
        if n == 0:
            raise RuntimeError("the host-speed sampler has taken no sample yet")
        lo, hi = bisect.bisect_left(self.times, t0, 0, n), bisect.bisect_right(self.times, t1, 0, n)
        while hi - lo < min(self.MIN_SAMPLES, n):
            lo, hi = max(0, lo - 1), min(n, hi + 1)
        return self.REF_KERNEL_S / statistics.fmean(self.kernel_s[lo:hi])


class Clock:
    """Times stages; reference seconds need a running `HostSpeed`, else they equal CPU seconds.

    CPU time is the main thread's: the benchmark runs tglink on one thread
    (BLAS is pinned to one), so on an idle machine it equals wall time, and
    unlike wall time it leaves out the spells in which the host runs
    something else on the benchmark's core.
    """

    def __init__(self, speed: HostSpeed | None = None):
        self.speed = speed

    @staticmethod
    def start() -> tuple[float, float]:
        return time.perf_counter(), time.thread_time()

    def span(self, start: tuple[float, float]) -> Span:
        t1, c1 = time.perf_counter(), time.thread_time()
        t0, c0 = start
        cpu = c1 - c0
        return Span(t1 - t0, cpu, cpu * self.speed.factor(t0, t1) if self.speed else cpu)


# ----- one pass -----


@dataclass
class PassResult:
    seed: int
    train_events: int = 0
    test_events: int = 0
    epochs_run: int = 0
    checkpoint_bytes: int = 0
    # "setup", "fit", "pipeline" (fit to the last record) and "transfer.<scenario>".
    spans: dict[str, Span] = field(default_factory=dict)
    mrr: dict[str, float] = field(default_factory=dict)
    digests: dict[str, str] = field(default_factory=dict)
    attempted: int = 0
    failures: list[str] = field(default_factory=list)


def setup(workload: Workload, seed: int, clock: Clock = Clock()):
    """Generate, aggregate, run Louvain and split; returns (split, span)."""
    start = clock.start()
    stream = events.generate_synthetic(workload.generator, child_rng(seed, "generate"))
    assignment = splitting.louvain(graphs.aggregate_static(stream), child_rng(seed, "louvain"))
    split = splitting.make_transfer_split(
        stream, assignment, BALANCE_TOLERANCE, allow_two_way=True
    )
    return split, clock.span(start)


def run_pass(workload: Workload, seed: int, work_dir: Path, clock: Clock = Clock()) -> PassResult:
    """Set up, train, round-trip the checkpoint and deploy under each scenario.

    The "pipeline" span runs from `fit` to the last scenario's record. Stage
    failures (an exception or a failed output check) are recorded, not
    raised, so one bad stage cannot hide the others' numbers. Checks run
    after the timed region.
    """
    split, setup_span = setup(workload, seed, clock)
    res = PassResult(seed=seed, spans={"setup": setup_span})
    res.train_events, res.test_events = len(split.train), len(split.test)
    ckpt = work_dir / f"checkpoint-{os.getpid()}.json"
    res.attempted += 1
    pipeline = clock.start()
    try:
        trained = transfer.fit(
            split.train, split.val, workload.model, workload.train, seed, eval_negatives=EVAL_NEGATIVES
        )
        res.spans["fit"] = clock.span(pipeline)
        checkpoint.save_checkpoint(trained, ckpt)
        res.checkpoint_bytes = ckpt.stat().st_size
        loaded = checkpoint.load_checkpoint(ckpt)
    except Exception:
        res.failures.append(f"fit: {traceback.format_exc(limit=3)}")
        return res
    finally:
        ckpt.unlink(missing_ok=True)
    records = {}
    for kind in workload.scenarios:
        res.attempted += 1
        start = clock.start()
        try:
            records[kind] = transfer.run_transfer(
                loaded,
                split.test,
                TransferScenario(kind),
                seed,
                EVAL_NEGATIVES,
                HITS_KS,
                workload.train.batch_size,
                FINETUNE_LR,
            )
        except Exception:
            res.failures.append(f"{kind}: {traceback.format_exc(limit=3)}")
        res.spans[f"transfer.{kind}"] = clock.span(start)
    res.spans["pipeline"] = clock.span(pipeline)

    res.epochs_run = len(trained.epoch_history)
    res.digests["stream"] = stream_digest(split.train) + stream_digest(split.test)
    try:
        res.digests["fit"] = check_fit(trained, loaded)
    except CheckFailed as err:
        res.failures.append(f"fit: {err}")
    for kind, record in records.items():
        try:
            check_record(record, workload, split.test)
        except CheckFailed as err:
            res.failures.append(f"{kind}: {err}")
            continue
        res.mrr[kind] = record.mrr
        res.digests[kind] = record_digest(record)
    return res
