"""tglink benchmark: run one workload for one seed and print one JSON result.

    python3 perfbench/run.py --workload desk --seed 1 --seconds 10 --trace 0

With `--trace 0` the run repeats whole pipeline passes (set-up, `fit`,
checkpoint round trip, every scenario's `run_transfer`) for `--seconds`,
cycling through the workload's input seeds, and reports the end-to-end
metrics as medians over passes. With `--trace 1` it alternates an untraced
and a traced pass on the first input seed and reports the per-layer metrics
of the traced passes (medians) and the tracing overhead.

Every pass checks its outputs; a digest of each stage's deterministic output
must agree across passes, across traced and untraced runs, and across
processes (remembered in `.perfbench/digests.json`). The last line of
standard output is the JSON result; details go to `.perfbench/`. The exit
code is 0 only when every check passed.
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
# BLAS threads for this process; set before numpy loads. One thread keeps
# the small matmuls steady on a shared machine and never exceeds nproc.
BLAS_THREADS = 1
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
MIN_SETUPS = 3

END_TO_END_UNITS = {
    "setup_s": "s",
    "train_events_per_s": "events/s",
    "deploy_events_per_s": "events/s",
    "deploy_events_per_s.no_warm_start": "events/s",
    "deploy_events_per_s.warm_start": "events/s",
    "pipeline_s": "s",
    "peak_rss_mb": "MiB",
    "mrr.no_warm_start": "1",
}


def median(xs) -> float | None:
    """Median, or None when every pass that would supply a value failed."""
    xs = list(xs)
    return float(statistics.median(xs)) if xs else None


# ----- environment stamp -----


def src_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        h.update(path.relative_to(ROOT).as_posix().encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def git_commit() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=30
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() or None


def blas_threads() -> int | None:
    """Thread count OpenBLAS reports at run time, when numpy bundles OpenBLAS."""
    import ctypes

    import numpy as np

    libs = sorted((Path(np.__file__).parent.parent / "numpy.libs").glob("*openblas*"))
    for lib_path in libs:
        lib = ctypes.CDLL(str(lib_path))
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def environment(loadavg: tuple[float, float, float]) -> dict:
    import numpy as np

    return {
        "git_commit": git_commit(),
        "src_sha256": src_digest(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "nproc": os.cpu_count(),
        "loadavg_at_start": list(loadavg),
        "blas_threads_env": {v: os.environ[v] for v in BLAS_ENV},
        "blas_threads": blas_threads(),
    }


# ----- determinism across passes and processes -----


class DigestBook:
    """Stage digests per (workload settings, source tree, input seed), kept on disk."""

    def __init__(self, path: Path, workload, src_sha: str):
        self.path = path
        settings = hashlib.sha256(repr(workload).encode()).hexdigest()
        self.prefix = f"{workload.name}:{settings[:16]}:{src_sha[:16]}:"
        self.book = json.loads(path.read_text()) if path.exists() else {}

    def check(self, passes) -> list[str]:
        mismatches = []
        for p in passes:
            known = self.book.setdefault(f"{self.prefix}{p.seed}", {})
            for stage, digest in p.digests.items():
                if known.setdefault(stage, digest) != digest:
                    mismatches.append(f"{stage}: seed {p.seed} output differs from an earlier run")
        return mismatches

    def save(self) -> None:
        tmp = self.path.with_name(self.path.name + f".{os.getpid()}.tmp")
        tmp.write_text(json.dumps(self.book, sort_keys=True, indent=0))
        tmp.replace(self.path)


# ----- the two kinds of run -----


def warm_up(w, work_dir: Path, clock) -> None:
    """One untimed pass on a small stream with the workload's model and batch.

    It lets lazy set-up finish (imports, BLAS, the allocator's thresholds) so
    the first timed pass is not slower than the rest.
    """
    from dataclasses import replace

    from workloads import run_pass

    small = replace(w.generator, nodes_per_community=25, num_events=2000)
    run_pass(replace(w, generator=small), 0, work_dir, clock)


def timed_run(w, seed: int, seconds: float, work_dir: Path):
    from workloads import Clock, HostSpeed, input_seed, run_pass, setup

    with HostSpeed() as speed:
        clock = Clock(speed)
        warm_up(w, work_dir, clock)
        passes = []
        t0 = time.perf_counter()
        # Whole cycles over the inputs, so that each input weighs the same.
        while len(passes) < w.inputs or len(passes) % w.inputs or time.perf_counter() - t0 < seconds:
            passes.append(run_pass(w, input_seed(seed, len(passes) % w.inputs), work_dir, clock))
        setups = [p.spans["setup"] for p in passes]
        while len(setups) < MIN_SETUPS:
            setups.append(setup(w, input_seed(seed, 0), clock)[1])
    return passes, setups, speed.kernel_s


def end_to_end(w, passes, setups, kernel_s) -> tuple[dict, dict]:
    """(gated metrics, reported-only metrics), medians over passes.

    Times are reference seconds (`workloads.HostSpeed`): main-thread CPU
    seconds scaled to a fixed speed of the core, so that neither another
    tenant taking the core nor the host's drifting speed moves them. The CPU
    and wall-clock figures are reported beside them.

    `deploy_events_per_s` pools the workload's scenarios, so it takes in the
    structural-mapping transfer where a workload runs it; every workload runs
    `no_warm_start` and `warm_start`, and they are gated one by one too. The
    structural-mapping rate and every scenario's MRR are reported alongside.
    """
    ok = [p for p in passes if not p.failures]
    first_per_input = {p.seed: p for p in reversed(ok)}.values()
    transfers = [f"transfer.{kind}" for kind in w.scenarios]

    def figures(clock: str) -> dict:
        def t(p, span):
            return getattr(p.spans[span], clock)

        return {
            "setup_s": median(getattr(s, clock) for s in setups),
            "train_events_per_s": median(p.train_events * p.epochs_run / t(p, "fit") for p in ok),
            "deploy_events_per_s": median(
                p.test_events * len(transfers) / sum(t(p, k) for k in transfers) for p in ok
            ),
            **{
                f"deploy_events_per_s.{kind}": median(p.test_events / t(p, f"transfer.{kind}") for p in ok)
                for kind in ("no_warm_start", "warm_start")
            },
            "pipeline_s": median(t(p, "pipeline") for p in ok),
        }

    metrics = figures("ref_s")
    metrics["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    metrics["mrr.no_warm_start"] = median(p.mrr["no_warm_start"] for p in first_per_input)
    extra = {"passes": len(passes), "inputs": len(first_per_input)}
    deciles = statistics.quantiles(kernel_s, n=10)
    for q, i in (("p10", 0), ("p50", 4), ("p90", 8)):
        extra[f"host_speed.kernel_ms.{q}"] = 1e3 * deciles[i]
    extra["host_speed.samples"] = len(kernel_s)
    if "structural_mapping" in w.scenarios:
        extra["deploy_events_per_s.structural_mapping"] = median(
            p.test_events / p.spans["transfer.structural_mapping"].ref_s for p in ok
        )
    for kind in w.scenarios:
        extra[f"mrr.{kind}"] = median(p.mrr[kind] for p in first_per_input)
    for clock in ("cpu_s", "wall_s"):
        for name, value in figures(clock).items():
            extra[f"{clock[:-2]}.{name}"] = value
    attempted = sum(p.attempted for p in passes)
    extra["failed_share"] = sum(len(p.failures) for p in passes) / attempted
    return metrics, extra


def traced_run(w, seed: int, seconds: float, work_dir: Path):
    """Alternates untraced and traced passes on the first input.

    The host-speed sampler runs here too, so that the tracing overhead is a
    difference of reference seconds; its kernel adds about 1.5% to the
    wall-clock spans.
    """
    import tracing
    from workloads import Clock, HostSpeed, input_seed, run_pass

    untraced, traced, samples = [], [], []
    with HostSpeed() as speed:
        clock = Clock(speed)
        warm_up(w, work_dir, clock)
        t0 = time.perf_counter()
        while not traced or time.perf_counter() - t0 < seconds:
            tracing.assert_clean()
            untraced.append(run_pass(w, input_seed(seed, 0), work_dir, clock))
            tracer = tracing.Tracer()
            with tracer:
                traced.append(run_pass(w, input_seed(seed, 0), work_dir, clock))
            tracing.assert_clean()
            samples.append(layer_metrics(tracer, traced[-1]))
    layers = {name: median(s[name] for s in samples) for name in samples[0]}
    base = median(p.spans["pipeline"].ref_s for p in untraced)
    layers["trace.overhead_s"] = median(p.spans["pipeline"].ref_s for p in traced) - base
    layers["trace.overhead_share"] = layers["trace.overhead_s"] / base
    details = {
        "untraced_pipeline_s": [dataclasses.asdict(p.spans["pipeline"]) for p in untraced],
        "traced_pipeline_s": [dataclasses.asdict(p.spans["pipeline"]) for p in traced],
        "epoch_s": [x / 1e9 for x in tracer.stats["model.train_epoch"].samples_ns],
        "top_self_s": top_self(tracer),
    }
    return untraced + traced, layers, details


# ----- per-layer metrics -----

NN_LAYERS = ("TimeEncoder", "AttentionReadout", "GruCell", "Mlp.message_mlp", "Mlp.decoder", "Mlp.structmap")


def per_layer_units() -> dict[str, str]:
    """Every per-layer metric the traced run reports, with its unit."""
    from workloads import SCENARIOS

    units = {
        "events.generate_synthetic.s": "s",
        "events.sample_negatives.calls": "count",
        "events.sample_negatives.s": "s",
        "graphs.aggregate_static.s": "s",
        "splitting.louvain.s": "s",
        "splitting.make_transfer_split.s": "s",
        "graphs.aggregate_window.calls": "count",
        "graphs.aggregate_window.self_s": "s",
        "graphs.aggregate_window.nodes": "count",
        "graphs.aggregate_window.edges": "count",
        "features.structural_feature_matrix.calls": "count",
        "features.structural_feature_matrix.self_s": "s",
        "features.structural_feature_matrix.graph_nodes": "count",
        "features.structural_feature_matrix.rows": "count",
        "features.node_features.calls": "count",
        "structmap.fit_window_standardizer.s": "s",
        "structmap.StructMapTrainer.batch_features.calls": "count",
        "structmap.StructMapTrainer.batch_features.misses": "count",
        "structmap.StructMapTrainer.batch_features.self_s": "s",
        "structmap.StructMapTrainer.batch_features.hit_ratio": "1",
        "structmap.cold_start.calls": "count",
        "structmap.cold_start.written": "count",
        "structmap.cold_start.self_s": "s",
        "structmap.cold_start.written_ratio": "1",
        "model.train_epoch.calls": "count",
        "model.train_epoch.s": "s",
        "model.train_epoch.first_s": "s",
        "model.train_epoch.last_s": "s",
        "model.forward_batch.calls": "count",
        "model.forward_batch.s": "s",
        "model.forward_batch.self_s": "s",
        "model.backward_batch.calls": "count",
        "model.backward_batch.s": "s",
        "model.backward_batch.self_s": "s",
        "model.TgnModel.flush_backward.calls": "count",
        "model.TgnModel.flush_backward.s": "s",
        "model.TgnModel.embed_pairs.calls": "count",
        "model.TgnModel.embed_pairs.rows": "count",
        "model.TgnModel.embed_pairs.self_s": "s",
        "model.TgnModel.flush_pending.calls": "count",
        "model.TgnModel.flush_pending.self_s": "s",
        "model.TgnModel.compute_messages.self_s": "s",
        "model.TgnModel.update_memory.self_s": "s",
        "model.NeighborCache.insert_batch.calls": "count",
        "model.NeighborCache.insert_batch.events": "count",
        "model.NeighborCache.insert_batch.s": "s",
    }
    for layer in NN_LAYERS:
        for direction in ("forward", "backward"):
            units[f"nn.{layer}.{direction}.calls"] = "count"
            units[f"nn.{layer}.{direction}.rows"] = "count"
            units[f"nn.{layer}.{direction}.s"] = "s"
    units["nn.Adam.step.calls"] = "count"
    units["nn.Adam.step.s"] = "s"
    units["transfer.fit.s"] = "s"
    for kind in SCENARIOS:
        units[f"transfer.evaluate_stream.{kind}.s"] = "s"
        units[f"transfer.run_transfer.{kind}.s"] = "s"
    for kind in SCENARIOS:
        units[f"transfer.eval_batch_ms.{kind}.p50"] = "ms"
        units[f"transfer.eval_batch_ms.{kind}.p90"] = "ms"
        units[f"transfer.eval_batch_ms.{kind}.n"] = "count"
    units["checkpoint.save_checkpoint.s"] = "s"
    units["checkpoint.save_checkpoint.bytes"] = "bytes"
    units["checkpoint.load_checkpoint.s"] = "s"
    units["trace.overhead_s"] = "s"
    units["trace.overhead_share"] = "1"
    return units


def _quantile_ms(samples_ns: list[int], q: float) -> float:
    if not samples_ns:
        return 0.0
    if len(samples_ns) == 1:
        return samples_ns[0] / 1e6
    cuts = statistics.quantiles(samples_ns, n=100, method="inclusive")
    return cuts[round(q * 100) - 1] / 1e6


def layer_metrics(tracer, p) -> dict[str, float]:
    """One traced pass's per-layer metrics (everything but trace.*)."""
    stats = tracer.stats
    out: dict[str, float] = {}
    for name in per_layer_units():
        if name.startswith("trace."):
            continue
        span, _, field = name.rpartition(".")
        stat = stats.get(span)
        if field == "bytes":
            value = float(p.checkpoint_bytes)
        elif name.startswith("transfer.eval_batch_ms."):
            kind = span.rsplit(".", 1)[1]
            samples = stats[f"transfer.eval_batch.{kind}"].samples_ns
            value = float(len(samples)) if field == "n" else _quantile_ms(samples, {"p50": 0.5, "p90": 0.9}[field])
        elif stat is None:
            value = 0.0
        elif field == "calls":
            value = float(stat.calls)
        elif field == "s":
            value = stat.total_ns / 1e9
        elif field == "self_s":
            value = stat.self_ns / 1e9
        elif field == "first_s":
            value = stat.samples_ns[0] / 1e9
        elif field == "last_s":
            value = stat.samples_ns[-1] / 1e9
        elif field == "hit_ratio":
            value = 1.0 - stat.counts["misses"] / stat.calls
        elif field == "written_ratio":
            value = stat.counts["written"] / stat.calls
        else:
            value = float(stat.counts[field])
        out[name] = value
    return out


def top_self(tracer, n: int = 8) -> list[list]:
    ranked = sorted(tracer.stats.items(), key=lambda kv: -kv[1].self_ns)
    return [[name, st.self_ns / 1e9] for name, st in ranked[:n] if st.calls]


# ----- entry point -----


def main(argv=None) -> int:
    loadavg = os.getloadavg()
    if not (ROOT / "src" / "tglink" / "__init__.py").is_file():
        print(f"perfbench: no tglink sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    for var in BLAS_ENV:
        os.environ[var] = str(min(BLAS_THREADS, os.cpu_count() or 1))
    sys.path.insert(0, str(ROOT / "src"))
    import tracing
    from workloads import WORKLOADS

    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    w = WORKLOADS[args.workload]
    work_dir = ROOT / ".perfbench"
    work_dir.mkdir(exist_ok=True)
    env = environment(loadavg)
    tracing.assert_clean()
    if args.trace:
        passes, metrics, details = traced_run(w, args.seed, args.seconds, work_dir)
        units = per_layer_units()
    else:
        passes, setups, kernel_s = timed_run(w, args.seed, args.seconds, work_dir)
        tracing.assert_clean()
        metrics, details = end_to_end(w, passes, setups, kernel_s)
        units = END_TO_END_UNITS

    book = DigestBook(work_dir / "digests.json", w, env["src_sha256"])
    failures = [f for p in passes for f in p.failures] + book.check(passes)
    book.save()
    attempted = sum(p.attempted for p in passes)
    failed = min(attempted, len(failures))

    report = {
        "workload": w.name,
        "why": w.why,
        "seed": args.seed,
        "trace": args.trace,
        "environment": env,
        "metrics": metrics,
        "details": details,
        "passes": [
            {k: v for k, v in dataclasses.asdict(p).items() if k != "digests"} for p in passes
        ],
        "failures": failures,
    }
    out = work_dir / f"{w.name}-seed{args.seed}-trace{args.trace}.json"
    out.write_text(json.dumps(report, indent=1, sort_keys=True))
    print(f"environment {json.dumps(env, sort_keys=True)}")
    for name, value in metrics.items():
        print(f"{name:58s} {value!s:>20} {units[name]}")
    for name, value in details.items():
        if not isinstance(value, list):
            print(f"{name:58s} {value!s:>20} (reported, not gated)")
    for f in failures:
        print(f"FAILED {f}", file=sys.stderr)
    result = {
        "correct": not failures,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in units},
    }
    print(json.dumps(result))
    return 0 if not failures else 1


if __name__ == "__main__":
    sys.exit(main())
