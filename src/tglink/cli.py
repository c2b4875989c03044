"""Command-line interface.

Subcommands: generate, split, features, train, transfer, analyze,
seed-sweep, params. Settings come from a flat key=value config file with
flag overrides; every artifact is written atomically and stamped with the
resolved config's content hash.

Exit codes: 0 success, 1 validation/contract failures, 2 usage, 3 training
divergence.
"""

from __future__ import annotations

import argparse
import json
import logging
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np

from . import __version__
from .checkpoint import atomic_write_text, load_checkpoint, save_checkpoint
from .config import (
    KEYS,
    RunConfig,
    build_run_config,
    component_keys,
    load_config_file,
    parse_value,
)
from .errors import DivergenceError, TglinkError, ValidationError
from .events import EventStream, generate_synthetic, load_csv, make_batches, write_csv
from .features import WindowFeatures, correlate_distances, feature_names, structural_feature_matrix
from .graphs import aggregate_static
from .model import count_parameters
from .rngs import child_rng
from .splitting import louvain, make_transfer_split
from .transfer import TransferScenario, fit, run_transfer, seed_sweep

log = logging.getLogger("tglink")


def _write_json(path: Path, payload: dict, cfg_hash: str) -> None:
    payload = {"config_hash": cfg_hash, **payload}
    atomic_write_text(path, json.dumps(payload, indent=2, sort_keys=True) + "\n")


def _write_csv_rows(path: Path, header: list[str], rows: list[list], cfg_hash: str) -> None:
    lines = [f"# config_hash={cfg_hash}", ",".join(header)]
    for row in rows:
        lines.append(",".join(repr(x) if isinstance(x, float) else str(x) for x in row))
    atomic_write_text(path, "\n".join(lines) + "\n")


def _load_stream(path: str, cfg: RunConfig) -> EventStream:
    return load_csv(path, cfg.ingestion)


def _resolve_config(args: argparse.Namespace) -> RunConfig:
    file_values = load_config_file(args.config) if getattr(args, "config", None) else None
    overrides = {
        name: getattr(args, name)
        for name in KEYS
        if hasattr(args, name) and getattr(args, name) is not None
    }
    return build_run_config(file_values, overrides)


def _flag_type(key: str):
    """The config file's value parser, with its errors made argparse usage errors."""

    def parse(raw: str):
        try:
            return parse_value(key, raw)
        except ValidationError as err:
            raise argparse.ArgumentTypeError(str(err)) from None

    return parse


def _add_config_args(p: argparse.ArgumentParser, keys: list[str]) -> None:
    for key in keys:
        p.add_argument("--" + key.replace("_", "-"), default=None, type=_flag_type(key))


_MODEL_ARGS = component_keys("experiment", "model")
_TRAIN_ARGS = component_keys("experiment", "train")
_GEN_ARGS = component_keys("experiment", "generator")
_TRANSFER_ARGS = ["finetune_fraction", "finetune_lr", "eval_negatives", "hits_ks"]


def _cmd_generate(args) -> int:
    cfg = _resolve_config(args)
    stream = generate_synthetic(cfg.experiment.generator, child_rng(cfg.seed, "generate"))
    out = Path(args.out)
    out.parent.mkdir(parents=True, exist_ok=True)
    write_csv(stream, out, header_comment=f"config_hash={cfg.content_hash()}")
    _write_json(
        out.with_suffix(".meta.json"),
        {
            "num_events": len(stream),
            "num_nodes": stream.num_nodes,
            "time_span": stream.time_span,
            "seed": cfg.seed,
        },
        cfg.content_hash(),
    )
    log.info("wrote %s (%d events, %d nodes)", out, len(stream), stream.num_nodes)
    return 0


def _cmd_split(args) -> int:
    cfg = _resolve_config(args)
    stream = _load_stream(args.input, cfg)
    graph = aggregate_static(stream)
    assignment = louvain(graph, child_rng(cfg.seed, "louvain"))
    exp = cfg.experiment
    split = make_transfer_split(
        stream, assignment, exp.balance_tolerance, allow_two_way=exp.allow_two_way
    )
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    written = {}
    for group in ("train", "val", "test"):
        sub = split.stream(group)
        if sub is None:
            continue
        path = out_dir / f"{group}.csv"
        write_csv(sub, path, header_comment=f"config_hash={cfg.content_hash()}")
        written[group] = str(path)
    labels = stream.node_labels or tuple(str(i) for i in range(stream.num_nodes))
    _write_json(
        out_dir / "split.json",
        {
            "modularity": assignment.modularity,
            "phase_modularity": list(assignment.phase_modularity),
            "community_of": {labels[u]: c for u, c in assignment.community_of.items()},
            "group_of_community": {str(c): g for c, g in split.group_of_community.items()},
            "balance": split.balance,
            "dropped_events": split.dropped_events,
            "warnings": list(split.warnings),
            "files": written,
        },
        cfg.content_hash(),
    )
    log.info("split written to %s (dropped %d cross-group events)", out_dir, split.dropped_events)
    return 0


def _cmd_features(args) -> int:
    cfg = _resolve_config(args)
    stream = _load_stream(args.input, cfg)
    span = max(stream.time_span, 1e-12)
    config = cfg.experiment.model
    names = list(feature_names(config.d_p))
    features = WindowFeatures(stream, config.window_fraction, span, config.d_p)
    rows: list[list] = []
    for bi, batch in enumerate(make_batches(stream, cfg.experiment.train.batch_size)):
        # One row per batch endpoint, on the window ending at the batch start.
        nodes = sorted(set(batch.src.tolist()) | set(batch.dst.tolist()))
        mat = features.rows(batch.batch_start_time, nodes)
        for node, vec in zip(nodes, mat):
            rows.append([bi, node] + [float(x) for x in vec])
    _write_csv_rows(Path(args.out), ["batch", "node"] + names, rows, cfg.content_hash())
    log.info("wrote %d feature rows to %s", len(rows), args.out)
    return 0


def _cmd_train(args) -> int:
    cfg = _resolve_config(args)
    exp = cfg.experiment
    train_stream = _load_stream(args.train_csv, cfg)
    val_stream = _load_stream(args.val_csv, cfg) if args.val_csv else None
    trained = fit(
        train_stream,
        val_stream,
        replace(exp.model, d_e=train_stream.d_e),
        exp.train,
        cfg.seed,
        config_hash=cfg.content_hash(),
        eval_negatives=exp.eval_negatives,
        ks=exp.hits_ks,
    )
    save_checkpoint(trained, args.out)
    curve_rows = []
    for entry in trained.epoch_history:
        for bi, (tot, tlp, sm) in enumerate(
            zip(
                entry["batch_total_loss"],
                entry["batch_tlp_loss"],
                entry["batch_structmap_loss"],
            )
        ):
            curve_rows.append([entry["epoch"], bi, tot, tlp, sm])
    _write_csv_rows(
        Path(args.out).with_suffix(".losses.csv"),
        ["epoch", "batch", "total_loss", "tlp_loss", "structmap_loss"],
        curve_rows,
        cfg.content_hash(),
    )
    last = trained.epoch_history[-1] if trained.epoch_history else {}
    log.info(
        "trained %d epochs; final mean loss %.4f -> %s",
        len(trained.epoch_history),
        last.get("mean_total_loss", float("nan")),
        args.out,
    )
    return 0


def _cmd_transfer(args) -> int:
    cfg = _resolve_config(args)
    trained = load_checkpoint(args.checkpoint)
    test_stream = _load_stream(args.test_csv, cfg)
    exp = cfg.experiment
    scenario = TransferScenario(
        kind=args.scenario,
        finetune_fraction=exp.finetune_fraction,
        window_fraction=exp.model.window_fraction,
    )
    record = run_transfer(
        trained,
        test_stream,
        scenario,
        cfg.seed,
        eval_negatives=exp.eval_negatives,
        ks=exp.hits_ks,
        batch_size=exp.train.batch_size,
        finetune_lr=exp.finetune_lr,
    )
    out = Path(args.out)
    _write_json(out, record.to_dict(), cfg.content_hash())
    rows = [
        [bi, tot, tlp, sm]
        for bi, (tot, tlp, sm) in enumerate(
            zip(record.batch_total_loss, record.batch_tlp_loss, record.batch_structmap_loss)
        )
    ]
    _write_csv_rows(
        out.with_suffix(".losses.csv"),
        ["batch", "total_loss", "tlp_loss", "structmap_loss"],
        rows,
        cfg.content_hash(),
    )
    log.info(
        "%s: eval loss %.4f, MRR %.4f over %d events",
        args.scenario,
        record.mean_eval_loss,
        record.mrr,
        record.num_eval_events,
    )
    return 0


def _cmd_analyze(args) -> int:
    cfg = _resolve_config(args)
    trained = load_checkpoint(args.checkpoint)
    stream = _load_stream(args.stream_csv, cfg)
    graph = aggregate_static(stream)
    seen = np.flatnonzero(trained.store.last_update != -np.inf)
    _, feats = structural_feature_matrix(graph, cfg.experiment.model.d_p, [int(n) for n in seen])
    memory = trained.store.memory[seen]
    r_p, r_s = correlate_distances(
        memory, feats, args.sample_pairs, child_rng(cfg.seed, "analyze-pairs")
    )
    _write_json(
        Path(args.out),
        {
            "r_pearson": r_p,
            "r_spearman": r_s,
            "nodes": int(seen.size),
            "sample_pairs": args.sample_pairs,
        },
        cfg.content_hash(),
    )
    log.info("distance correlation: pearson=%.4f spearman=%.4f", r_p, r_s)
    return 0


def _cmd_seed_sweep(args) -> int:
    cfg = _resolve_config(args)
    seeds = [int(s) for s in args.seeds.split(",")]
    report = seed_sweep(replace(cfg.experiment, config_hash=cfg.content_hash()), seeds)
    _write_json(Path(args.out), report.to_dict(), cfg.content_hash())
    for kind, stats in report.dispersion.items():
        log.info(
            "%s: loss %.4f +/- %.4f over %d runs",
            kind,
            stats["loss_mean"],
            stats["loss_std"],
            stats["runs"],
        )
    return 0


def _cmd_params(args) -> int:
    cfg = _resolve_config(args)
    from .model import TgnModel
    from .structmap import StructMapParams

    config = cfg.experiment.model
    model = TgnModel(config, span=1.0, rng=np.random.default_rng(0))
    sm = None
    if config.use_structmap:
        sm = StructMapParams(
            config.d_s, config.d_m, config.structmap_hidden, config.alpha, np.random.default_rng(0)
        )
    report = count_parameters(model, args.n, sm)
    print(report.as_table())
    if args.out:
        _write_json(Path(args.out), report.to_dict(), cfg.content_hash())
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="tglink",
        description="Temporal link prediction with structural-feature transfer.",
    )
    parser.add_argument("--version", action="version", version=f"tglink {__version__}")
    parser.add_argument("-v", "--verbose", action="store_true")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("generate", help="write a synthetic event stream CSV")
    p.add_argument("--config")
    p.add_argument("--out", required=True)
    p.add_argument("--seed", type=int, default=None)
    _add_config_args(p, _GEN_ARGS)
    p.set_defaults(func=_cmd_generate)

    p = sub.add_parser("split", help="Louvain split into disjoint train/val/test")
    p.add_argument("--config")
    p.add_argument("--input", required=True)
    p.add_argument("--out-dir", required=True)
    p.add_argument("--seed", type=int, default=None)
    _add_config_args(p, ["balance_tolerance", "allow_two_way"])
    p.set_defaults(func=_cmd_split)

    p = sub.add_parser("features", help="dump per-batch window features to CSV")
    p.add_argument("--config")
    p.add_argument("--input", required=True)
    p.add_argument("--out", required=True)
    _add_config_args(p, ["batch_size", "window_fraction", "d_p"])
    p.set_defaults(func=_cmd_features)

    p = sub.add_parser("train", help="train a model on a stream CSV")
    p.add_argument("--config")
    p.add_argument("--train-csv", required=True)
    p.add_argument("--val-csv")
    p.add_argument("--out", required=True)
    p.add_argument("--seed", type=int, default=None)
    _add_config_args(p, _MODEL_ARGS + _TRAIN_ARGS + ["eval_negatives", "hits_ks"])
    p.set_defaults(func=_cmd_train)

    p = sub.add_parser("transfer", help="run one transfer scenario from a checkpoint")
    p.add_argument("--config")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--test-csv", required=True)
    p.add_argument(
        "--scenario",
        required=True,
        choices=["no_warm_start", "warm_start", "structural_mapping"],
    )
    p.add_argument("--out", required=True)
    p.add_argument("--seed", type=int, default=None)
    _add_config_args(p, _TRANSFER_ARGS + ["batch_size", "window_fraction"])
    p.set_defaults(func=_cmd_transfer)

    p = sub.add_parser("analyze", help="memory-vs-feature distance correlation")
    p.add_argument("--config")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--stream-csv", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--sample-pairs", type=int, default=10000)
    p.add_argument("--seed", type=int, default=None)
    _add_config_args(p, ["d_p"])
    p.set_defaults(func=_cmd_analyze)

    p = sub.add_parser("seed-sweep", help="full pipeline across seeds + dispersion")
    p.add_argument("--config")
    p.add_argument("--seeds", required=True, help="comma-separated seed list")
    p.add_argument("--out", required=True)
    _add_config_args(p, _GEN_ARGS + _MODEL_ARGS + _TRAIN_ARGS + _TRANSFER_ARGS)
    p.set_defaults(func=_cmd_seed_sweep)

    p = sub.add_parser("params", help="parameter accounting table")
    p.add_argument("--config")
    p.add_argument("--n", type=int, required=True, help="node count for the memory store")
    p.add_argument("--out")
    _add_config_args(p, _MODEL_ARGS)
    p.set_defaults(func=_cmd_params)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    logging.basicConfig(
        level=logging.DEBUG if args.verbose else logging.INFO,
        format="%(levelname)s %(name)s: %(message)s",
        stream=sys.stderr,
    )
    try:
        return args.func(args)
    except DivergenceError as err:
        log.error("divergence: %s", err)
        return 3
    except TglinkError as err:
        log.error("%s", err)
        return 1


if __name__ == "__main__":
    sys.exit(main())
