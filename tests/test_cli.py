"""End-to-end command-line pipeline: artifacts, hashes, determinism, exit codes."""

import argparse
import json

import numpy as np
import pytest

from tglink.cli import build_parser, main
from tglink.config import RunConfig, build_run_config, load_config_file
from tglink.errors import ValidationError

FAST_FLAGS = [
    "--d-m", "6", "--d-t", "4", "--d-att", "6", "--d-n", "6",
    "--message-hidden", "8", "--decoder-hidden", "8", "--structmap-hidden", "8",
    "--num-neighbors", "4", "--d-p", "2", "--batch-size", "40", "--epochs", "2",
]


@pytest.fixture(scope="module")
def pipeline(tmp_path_factory):
    """generate -> split -> train once for the read-only CLI tests."""
    root = tmp_path_factory.mktemp("pipe")
    stream = root / "stream.csv"
    assert main([
        "generate", "--out", str(stream), "--num-events", "900",
        "--nodes-per-community", "15", "--seed", "3",
    ]) == 0
    assert main([
        "split", "--input", str(stream), "--out-dir", str(root / "split"), "--seed", "3",
    ]) == 0
    assert main([
        "train", "--train-csv", str(root / "split" / "train.csv"),
        "--out", str(root / "ckpt.json"), "--seed", "3", *FAST_FLAGS,
    ]) == 0
    return root


def test_generate_writes_meta(pipeline):
    meta = json.loads((pipeline / "stream.meta.json").read_text())
    assert meta["num_events"] == 900
    assert meta["num_nodes"] == 30
    assert "config_hash" in meta


def test_split_sidecar(pipeline):
    sidecar = json.loads((pipeline / "split" / "split.json").read_text())
    assert sidecar["modularity"] > 0
    assert sidecar["dropped_events"] >= 0
    assert set(sidecar["files"]) >= {"train", "test"}
    assert sidecar["balance"]["node_counts"]


def test_transfer_all_scenarios(pipeline):
    for scenario in ("no_warm_start", "warm_start", "structural_mapping"):
        out = pipeline / f"{scenario}.json"
        rc = main([
            "transfer", "--checkpoint", str(pipeline / "ckpt.json"),
            "--test-csv", str(pipeline / "split" / "test.csv"),
            "--scenario", scenario, "--out", str(out), "--seed", "3",
            "--batch-size", "40", "--eval-negatives", "10",
        ])
        assert rc == 0
        record = json.loads(out.read_text())
        assert record["num_eval_events"] > 0
        assert 0 < record["mrr"] <= 1
        assert out.with_suffix(".losses.csv").exists()


def test_analyze(pipeline):
    out = pipeline / "corr.json"
    rc = main([
        "analyze", "--checkpoint", str(pipeline / "ckpt.json"),
        "--stream-csv", str(pipeline / "split" / "train.csv"),
        "--out", str(out), "--seed", "3", "--d-p", "2",
    ])
    assert rc == 0
    payload = json.loads(out.read_text())
    assert -1 <= payload["r_pearson"] <= 1
    assert payload["nodes"] > 3


def test_features_dump(pipeline, tmp_path):
    out = tmp_path / "features.csv"
    rc = main([
        "features", "--input", str(pipeline / "stream.csv"), "--out", str(out),
        "--batch-size", "100", "--d-p", "2", "--window-fraction", "0.05",
    ])
    assert rc == 0
    lines = out.read_text().splitlines()
    assert lines[0].startswith("# config_hash=")
    assert lines[1].split(",")[:2] == ["batch", "node"]
    assert len(lines) > 10


def test_params_table(capsys):
    rc = main(["params", "--n", "10000", "--d-m", "100"])
    assert rc == 0
    out = capsys.readouterr().out
    assert "memory fraction" in out
    assert "memory_updater" in out


def test_train_twice_byte_identical_curves(tmp_path, pipeline):
    args = [
        "train", "--train-csv", str(pipeline / "split" / "train.csv"), "--seed", "3",
        *FAST_FLAGS,
    ]
    assert main(args + ["--out", str(tmp_path / "a.json")]) == 0
    assert main(args + ["--out", str(tmp_path / "b.json")]) == 0
    a = (tmp_path / "a.losses.csv").read_bytes()
    b = (tmp_path / "b.losses.csv").read_bytes()
    assert a == b
    # checkpoints match too, byte for byte
    assert (tmp_path / "a.json").read_bytes() == (tmp_path / "b.json").read_bytes()


def test_hash_consistency_across_pipeline(tmp_path):
    """One config file drives every stage; all artifacts carry its hash."""
    cfg_file = tmp_path / "run.cfg"
    cfg_file.write_text(
        "\n".join([
            "num_events = 600",
            "nodes_per_community = 12",
            "d_m = 6", "d_t = 4", "d_att = 6", "d_n = 6",
            "message_hidden = 8", "decoder_hidden = 8", "structmap_hidden = 8",
            "num_neighbors = 4", "d_p = 2",
            "batch_size = 40", "epochs = 1",
            "eval_negatives = 8",
            "seed = 11",
        ])
    )
    expected = build_run_config(load_config_file(cfg_file)).content_hash()
    stream = tmp_path / "s.csv"
    assert main(["generate", "--config", str(cfg_file), "--out", str(stream)]) == 0
    assert main(["split", "--config", str(cfg_file), "--input", str(stream), "--out-dir", str(tmp_path / "sp")]) == 0
    assert main(["train", "--config", str(cfg_file), "--train-csv", str(tmp_path / "sp" / "train.csv"), "--out", str(tmp_path / "ck.json")]) == 0
    assert main([
        "transfer", "--config", str(cfg_file), "--checkpoint", str(tmp_path / "ck.json"),
        "--test-csv", str(tmp_path / "sp" / "test.csv"), "--scenario", "no_warm_start",
        "--out", str(tmp_path / "m.json"),
    ]) == 0
    assert main([
        "analyze", "--config", str(cfg_file), "--checkpoint", str(tmp_path / "ck.json"),
        "--stream-csv", str(tmp_path / "sp" / "train.csv"), "--out", str(tmp_path / "c.json"),
    ]) == 0

    hashes = set()
    for name in ("s.meta.json", "sp/split.json", "m.json", "c.json"):
        hashes.add(json.loads((tmp_path / name).read_text())["config_hash"])
    hashes.add(json.loads((tmp_path / "ck.json").read_text())["config_hash"])
    for name in ("s.csv", "sp/train.csv", "m.losses.csv", "ck.losses.csv"):
        first = (tmp_path / name).read_text().splitlines()[0]
        hashes.add(first.split("config_hash=")[1])
    assert hashes == {expected}


def test_transfer_metrics_deterministic(pipeline, tmp_path):
    args = [
        "transfer", "--checkpoint", str(pipeline / "ckpt.json"),
        "--test-csv", str(pipeline / "split" / "test.csv"),
        "--scenario", "warm_start", "--seed", "3", "--batch-size", "40",
    ]
    assert main(args + ["--out", str(tmp_path / "x.json")]) == 0
    assert main(args + ["--out", str(tmp_path / "y.json")]) == 0
    x = json.loads((tmp_path / "x.json").read_text())
    y = json.loads((tmp_path / "y.json").read_text())
    x.pop("timing")
    y.pop("timing")
    assert x == y
    assert (tmp_path / "x.losses.csv").read_bytes() == (tmp_path / "y.losses.csv").read_bytes()


def test_seed_sweep_cli(tmp_path):
    out = tmp_path / "sweep.json"
    rc = main([
        "seed-sweep", "--seeds", "1,2", "--out", str(out),
        "--num-events", "500", "--nodes-per-community", "10",
        "--epochs", "1", *FAST_FLAGS[:-2],  # drop epochs flag, set above
    ])
    assert rc == 0
    payload = json.loads(out.read_text())
    assert payload["seeds"] == [1, 2]
    assert set(payload["dispersion"]) == {"no_warm_start", "warm_start", "structural_mapping"}


def test_validation_error_exit_code(tmp_path):
    bad = tmp_path / "bad.csv"
    bad.write_text("x,x,1.0\n")
    rc = main(["split", "--input", str(bad), "--out-dir", str(tmp_path / "o")])
    assert rc == 1


def test_usage_error_exit_code():
    with pytest.raises(SystemExit) as exc:
        main(["transfer", "--bogus-flag"])
    assert exc.value.code == 2


def test_unknown_config_key_rejected(tmp_path):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("not_a_key = 5\n")
    with pytest.raises(ValidationError):
        build_run_config(load_config_file(cfg))


def test_whitespace_delimiter_from_file_is_a_validation_error(tmp_path, pipeline):
    """A file value is stripped, so a tab delimiter arrives empty and must exit 1."""
    cfg = tmp_path / "tab.cfg"
    cfg.write_text("csv_delimiter = \t\n")
    rc = main([
        "features", "--config", str(cfg), "--input", str(pipeline / "stream.csv"),
        "--out", str(tmp_path / "features.csv"),
    ])
    assert rc == 1
    assert not (tmp_path / "features.csv").exists()


def test_config_hash_stable():
    assert RunConfig().content_hash() == RunConfig().content_hash()
    assert RunConfig(seed=1).content_hash() != RunConfig(seed=2).content_hash()


# Content hashes are stamped into every artifact; these literals pin the flat
# key set and the value strings that feed them.
HASH_PINS = [
    ({}, {}, "5d741e85dd15891f"),
    (
        {
            "message_hidden": "16, 8", "hits_ks": "1,3", "coupled_structmap": "yes",
            "use_structmap": "false", "csv_delimiter": ";",
        },
        {"seed": 7},
        "ee8731be5567438f",
    ),
    (
        {"decoder_hidden": "", "finetune_lr": "0.0", "alpha": "0.5"},
        {"p_in": 0.6, "p_out": 0.2, "lr": 0.01},
        "3c017ae896f6505f",
    ),
    (
        {
            "csv_has_header": "no", "num_events": "900", "nodes_per_community": "15",
            "p_in": "0.05", "p_out": "0.01",
        },
        {"window_fraction": 0.05},
        "ce335fdb99829858",
    ),
]


@pytest.mark.parametrize("file_values,overrides,expected", HASH_PINS)
def test_content_hash_pins(file_values, overrides, expected):
    assert build_run_config(file_values, overrides).content_hash() == expected


MODEL_FLAGS = {
    "d_m", "d_t", "d_att", "d_n", "message_hidden", "decoder_hidden", "num_neighbors",
    "use_structmap", "structmap_hidden", "d_p", "alpha", "window_fraction", "coupled_structmap",
}
TRAIN_FLAGS = {"batch_size", "lr", "epochs", "patience", "train_negatives"}
GEN_FLAGS = {
    "num_communities", "nodes_per_community", "num_events", "p_in", "p_out", "pref_attach",
    "time_span",
}
TRANSFER_FLAGS = {"finetune_fraction", "finetune_lr", "eval_negatives", "hits_ks"}
SUBCOMMAND_DESTS = {
    "generate": {"config", "out", "seed"} | GEN_FLAGS,
    "split": {"config", "input", "out_dir", "seed", "balance_tolerance", "allow_two_way"},
    "features": {"config", "input", "out", "batch_size", "window_fraction", "d_p"},
    "train": {"config", "train_csv", "val_csv", "out", "seed", "eval_negatives", "hits_ks"}
    | MODEL_FLAGS
    | TRAIN_FLAGS,
    "transfer": {
        "config", "checkpoint", "test_csv", "scenario", "out", "seed", "batch_size",
        "window_fraction",
    }
    | TRANSFER_FLAGS,
    "analyze": {"config", "checkpoint", "stream_csv", "out", "sample_pairs", "seed", "d_p"},
    "seed-sweep": {"config", "seeds", "out"} | GEN_FLAGS | MODEL_FLAGS | TRAIN_FLAGS
    | TRANSFER_FLAGS,
    "params": {"config", "n", "out"} | MODEL_FLAGS,
}


def test_subcommand_flag_sets():
    parser = build_parser()
    sub = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    dests = {
        name: {a.dest for a in p._actions if a.dest != "help"} for name, p in sub.choices.items()
    }
    assert dests == SUBCOMMAND_DESTS


def _config_file(tmp_path, text):
    path = tmp_path / "run.cfg"
    path.write_text(text)
    return path


def test_bad_bool_is_rejected_by_flag_and_file(tmp_path):
    with pytest.raises(SystemExit) as exc:
        main(["params", "--n", "10", "--use-structmap", "flase"])
    assert exc.value.code == 2
    cfg = _config_file(tmp_path, "use_structmap = flase\n")
    with pytest.raises(ValidationError, match="use_structmap"):
        build_run_config(load_config_file(cfg))
    assert main(["params", "--n", "10", "--config", str(cfg)]) == 1


def test_empty_tuple_parses_the_same_from_flag_and_file(tmp_path):
    args = build_parser().parse_args(["params", "--n", "10", "--message-hidden", ""])
    assert args.message_hidden == ()
    cfg = _config_file(tmp_path, "message_hidden =\n")
    assert build_run_config(load_config_file(cfg)).experiment.model.message_hidden == ()


def test_bad_int_names_its_key(tmp_path):
    with pytest.raises(SystemExit) as exc:
        main(["params", "--n", "10", "--d-m", "abc"])
    assert exc.value.code == 2
    cfg = _config_file(tmp_path, "d_m = abc\n")
    with pytest.raises(ValidationError, match="d_m"):
        build_run_config(load_config_file(cfg))
    assert main(["params", "--n", "10", "--config", str(cfg)]) == 1


def test_every_subcommand_validates_the_whole_config(pipeline, tmp_path):
    cfg = _config_file(tmp_path, "d_m = 0\n")
    rc = main([
        "split", "--config", str(cfg), "--input", str(pipeline / "stream.csv"),
        "--out-dir", str(tmp_path / "split"),
    ])
    assert rc == 1
    assert not (tmp_path / "split").exists()


def test_generator_probabilities_are_checked_together():
    generator = build_run_config({"p_in": "0.05", "p_out": "0.01"}).experiment.generator
    assert (generator.p_in, generator.p_out) == (0.05, 0.01)
    with pytest.raises(ValidationError, match="p_in > p_out"):
        build_run_config({"p_in": "0.05", "p_out": "0.05"})
