"""End-to-end tests of the command-line interface, run in-process."""

import itertools
import json
import os
import subprocess
import sys
import types
from pathlib import Path

import numpy as np
import pytest

from advclf.cli import (
    ARCH_PRESETS,
    GRAPH_OPTIONS,
    REFERENCE_ROWS,
    SYNTH_OPTIONS,
    THEORY_OPTIONS,
    TRAIN_OPTIONS,
    _resolve,
    build_parser,
    load_config_file,
    main,
    open_fraction,
)

OPTION_TABLES = {
    "train": TRAIN_OPTIONS, "graph": GRAPH_OPTIONS, "theory": THEORY_OPTIONS, "synth": SYNTH_OPTIONS,
}


def run_cli(capsys, argv):
    """Exit code, stdout and stderr; argparse's rejection of a flag value counts as its exit code."""
    try:
        code = main(argv)
    except SystemExit as exc:
        code = exc.code
    out, err = capsys.readouterr()
    return code, out, err


def json_payload(stdout):
    """Parse the JSON object that ends the command output (tables may precede it)."""
    start = stdout.index("{")
    return json.loads(stdout[start:])


def small_train_args(**overrides):
    base = {
        "--synth": None,
        "--synth-n": "300",
        "--synth-ir": "4",
        "--batch-size": "8",
        "--pretrain-iters": "10",
        "--train-iters": "5",
        "--gen-arch": "4",
        "--seed": "0",
    }
    base.update(overrides)
    argv = ["train"]
    for key, value in base.items():
        argv.append(key)
        if value is not None:
            argv.append(value)
    return argv


def fail_if_called(*args, **kwargs):
    raise AssertionError("called before the run's inputs were checked")


def write_clique_edges(path, size=6):
    lines = []
    for block in (range(size), range(size, 2 * size)):
        lines.extend(f"{u} {v}" for u, v in itertools.combinations(block, 2))
    path.write_text("\n".join(lines) + "\n")


# --- argument handling ---


def test_no_subcommand_exits_2(capsys):
    with pytest.raises(SystemExit) as exc:
        main([])
    assert exc.value.code == 2


def test_unknown_flag_exits_2(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["train", "--nope"])
    assert exc.value.code == 2


def test_bad_arch_string_exits_2(capsys):
    # ConfigError subclasses ValueError, so argparse rejects the value itself
    with pytest.raises(SystemExit) as exc:
        main(["train", "--synth", "--gen-arch", "64,x"])
    assert exc.value.code == 2


def test_unknown_reference_exits_2(capsys):
    with pytest.raises(SystemExit) as exc:
        main(small_train_args() + ["--reference", "bogus"])
    assert exc.value.code == 2


def test_train_requires_exactly_one_source(capsys, tmp_path):
    code, _, err = run_cli(capsys, ["train"])
    assert code == 2
    assert "--data or --synth" in err
    csv = tmp_path / "d.csv"
    csv.write_text("a,label\n1,0\n")
    code, _, err = run_cli(capsys, ["train", "--data", str(csv), "--synth"])
    assert code == 2
    assert "--data or --synth" in err


def test_train_missing_data_file_exits_1(capsys, tmp_path):
    code, _, err = run_cli(capsys, ["train", "--data", str(tmp_path / "absent.csv")])
    assert code == 1
    assert err.startswith("error:")


# --- train subcommand ---


def test_train_synth_report_shape(capsys):
    code, out, _ = run_cli(capsys, small_train_args())
    assert code == 0
    report = json_payload(out)
    assert set(report) == {
        "config", "data", "models", "trace_summary", "checkpoints", "wall_clock_sec",
    }
    assert set(report["models"]) == {
        "adversarial", "pretrain_baseline", "undersample_baseline", "oversample_baseline",
    }
    for entry in report["models"].values():
        assert set(entry) == {"validation", "test"}
        assert 0.0 <= entry["test"]["auc"] <= 1.0
    assert report["config"]["gen_arch"] == [4]
    assert report["config"]["source"]["synth_n"] == 300
    assert report["data"]["n_train"] == 180  # 60% of 300


def test_train_zero_adversarial_iters_matches_baseline(capsys):
    code, out, _ = run_cli(capsys, small_train_args(**{"--train-iters": "0"}))
    assert code == 0
    report = json_payload(out)
    assert report["models"]["adversarial"] == report["models"]["pretrain_baseline"]


def test_train_report_deterministic(capsys, tmp_path):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    assert main(small_train_args(**{"--out-report": str(a)})) == 0
    assert main(small_train_args(**{"--out-report": str(b)})) == 0
    capsys.readouterr()
    ra, rb = json.loads(a.read_text()), json.loads(b.read_text())
    ra.pop("wall_clock_sec"), rb.pop("wall_clock_sec")
    assert json.dumps(ra, sort_keys=True) == json.dumps(rb, sort_keys=True)


def test_train_trace_csv(capsys, tmp_path):
    trace = tmp_path / "trace.csv"
    code, _, _ = run_cli(capsys, small_train_args(**{"--out-trace": str(trace)}))
    assert code == 0
    lines = trace.read_text().strip().splitlines()
    assert lines[0] == "iteration,phase,d_loss,g_loss,weight_entropy,weight_min,weight_max"
    phases = [line.split(",")[1] for line in lines[1:]]
    assert phases.count("pretrain") == 10
    assert phases.count("adversarial") == 5


def test_train_eval_every_checkpoints(capsys):
    code, out, _ = run_cli(capsys, small_train_args(**{"--eval-every": "2"}))
    assert code == 0
    report = json_payload(out)
    assert [c["iteration"] for c in report["checkpoints"]] == [2, 4]
    assert all(0.0 <= c["val_auc"] <= 1.0 for c in report["checkpoints"])


def test_train_negative_eval_every_exits_2(capsys):
    code, out, err = run_cli(capsys, small_train_args(**{"--eval-every": "-3"}))
    assert code == 2
    assert out == ""
    assert "argument --eval-every: expected an integer >= 0, got '-3'" in err


def test_train_reference_table(capsys):
    code, out, _ = run_cli(capsys, small_train_args() + ["--reference", "pen_digits"])
    assert code == 0
    assert "informational only" in out
    report = json_payload(out)
    assert report["reference_row"]["name"] == "pen_digits"
    assert report["reference_row"]["published"] == REFERENCE_ROWS["pen_digits"]


def test_train_on_csv_written_by_synth(capsys, tmp_path):
    csv = tmp_path / "data.csv"
    code, out, _ = run_cli(capsys, ["synth", "--n", "400", "--ir", "4", "--dim", "2", "--out", str(csv)])
    assert code == 0
    assert "positives=80 negatives=320" in out
    assert csv.read_text(encoding="utf-8").splitlines()[0] == "f0,f1,label"
    code, out, _ = run_cli(
        capsys,
        ["train", "--data", str(csv), "--batch-size", "8",
         "--pretrain-iters", "5", "--train-iters", "2", "--gen-arch", "4"],
    )
    assert code == 0
    report = json_payload(out)
    assert report["config"]["source"] == str(csv)
    assert report["data"]["n_features"] == 2


# --- config files ---


def test_config_file_and_cli_precedence(capsys, tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("# comment\nbatch-size = 8\ntrain-iters = 3\nlambda = 0.5\nsynth = yes\n"
                   "synth-n = 300\nsynth-ir = 4\ngen-arch = 4\npretrain-iters = 5\n")
    code, out, _ = run_cli(capsys, ["train", "--config", str(cfg), "--train-iters", "2"])
    assert code == 0
    report = json_payload(out)
    assert report["config"]["batch_size"] == 8  # from file
    assert report["config"]["train_iters"] == 2  # CLI wins
    assert report["config"]["lam"] == 0.5  # lambda alias normalized


def test_config_file_unknown_key(capsys, tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("bogus_key = 1\n")
    code, _, err = run_cli(capsys, ["train", "--config", str(cfg), "--synth"])
    assert code == 2
    assert "bogus_key" in err


def test_config_file_bad_value(capsys, tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("batch-size = peanuts\n")
    code, _, err = run_cli(capsys, ["train", "--config", str(cfg), "--synth"])
    assert code == 2
    assert "config key batch_size: cannot parse 'peanuts'" in err


@pytest.mark.parametrize("argv,reason", [
    (["synth", "--out", "x.csv", "--seed", "-1"], "argument --seed: expected an integer >= 0, got '-1'"),
    (["train", "--synth", "--gen-arch", "0"],
     "argument --gen-arch: generator hidden widths must be positive, got '0'"),
    (["train", "--synth", "--eta-d", "nan"], "argument --eta-d: expected a finite number, got 'nan'"),
    (["synth", "--out", "x.csv", "--config", "seed = -1"],
     "error: config key seed: expected an integer >= 0, got '-1'"),
    (["train", "--synth", "--config", "eta_d = nan"], "error: config key eta_d: expected a finite number, got 'nan'"),
    (["graph", "--edges", "e.txt", "--config", "gen-arch = 0"],
     "error: config key gen_arch: generator hidden widths must be positive, got '0'"),
])
def test_rejected_value_reason_reaches_the_user(capsys, tmp_path, monkeypatch, argv, reason):
    """A converter's ConfigError text is the message, from a flag or a config file, with exit 2."""
    monkeypatch.chdir(tmp_path)
    if "--config" in argv:
        at = argv.index("--config") + 1
        (tmp_path / "run.cfg").write_text(argv[at] + "\n")
        argv = [*argv[:at], "run.cfg", *argv[at + 1:]]
    code, out, err = run_cli(capsys, argv)
    assert code == 2
    assert out == ""
    assert reason in err
    assert "invalid" not in err and "cannot parse" not in err


def test_config_file_unknown_reference_exits_2_before_training(capsys, tmp_path, monkeypatch):
    """argparse's choices cover only the flag; the file's value is checked before any model trains."""
    monkeypatch.setattr("advclf.cli.train", fail_if_called)
    cfg = tmp_path / "run.cfg"
    cfg.write_text("reference = bogus\n")
    code, out, err = run_cli(capsys, small_train_args() + ["--config", str(cfg)])
    assert code == 2
    assert out == ""
    assert "unknown reference row 'bogus'" in err


def test_config_file_missing_or_malformed(tmp_path):
    from advclf.errors import ConfigError

    with pytest.raises(ConfigError, match="no such config"):
        load_config_file(tmp_path / "absent.cfg")
    bad = tmp_path / "bad.cfg"
    bad.write_text("just words\n")
    with pytest.raises(ConfigError, match="key=value"):
        load_config_file(bad)


@pytest.mark.parametrize("command,key", [(c, k) for c, table in OPTION_TABLES.items() for k in table])
def test_config_file_key_resolves_like_its_flag(tmp_path, command, key):
    option = OPTION_TABLES[command][key]
    flag = option.flags[0] if option.flags else "--" + key.replace("_", "-")
    file_key = "lambda" if key == "lam" else key.replace("_", "-")
    if option.const is not None:  # --synth and --no-standardize take no value
        flag_argv, text = [flag], "yes" if option.const else "no"
    else:
        # 7 suits every setting but the fractions, which must lie strictly between 0 and 1
        text = option.choices[0] if option.choices else "0.7" if option.convert is open_fraction else "7"
        flag_argv = [flag, text]
    cfg = tmp_path / "run.cfg"
    cfg.write_text(f"{file_key} = {text}\n")
    parser = build_parser()
    from_flag = _resolve(parser.parse_args([command, *flag_argv]), OPTION_TABLES[command])[key]
    from_file = _resolve(parser.parse_args([command, "--config", str(cfg)]), OPTION_TABLES[command])[key]
    assert from_flag == from_file != option.default


@pytest.mark.parametrize("source", ["flag", "config"])
@pytest.mark.parametrize("argv", [
    ["train", "--synth"],
    ["graph", "--edges", "edges.txt"],
    ["theory", "--k", "3", "--p-plus", "random"],
    ["synth", "--out", "data.csv"],
], ids=lambda argv: argv[0])
def test_negative_seed_exits_2(capsys, tmp_path, monkeypatch, argv, source):
    """numpy rejects a negative seed; the option table rejects it first, from a flag or a file."""
    monkeypatch.chdir(tmp_path)
    write_clique_edges(tmp_path / "edges.txt")
    if source == "flag":
        argv = argv + ["--seed", "-1"]
    else:
        (tmp_path / "run.cfg").write_text("seed = -1\n")
        argv = argv + ["--config", "run.cfg"]
    code, out, err = run_cli(capsys, argv)
    assert code == 2
    assert out == ""
    assert "seed" in err
    assert not (tmp_path / "data.csv").exists()


CHECKED_BEFORE_READING = [
    (["train", "--data", "data.csv", "--batch-size", "0"], "batch_size must be >= 1"),
    (["graph", "--edges", "edges.txt", "--batch-size", "0"], "batch_size must be >= 1"),
    (["train", "--data", "data.csv", "--eval-every", "-1"],
     "argument --eval-every: expected an integer >= 0, got '-1'"),
    (["graph", "--edges", "edges.txt", "--dim", "0"], "argument --dim: expected an integer >= 1, got '0'"),
    (["graph", "--edges", "edges.txt", "--test-frac", "1.5"],
     "argument --test-frac: expected a number strictly between 0 and 1, got '1.5'"),
    (["graph", "--edges", "edges.txt", "--labels", "labels.txt", "--label-shuffles", "0"],
     "argument --label-shuffles: expected an integer >= 1, got '0'"),
    (["graph", "--edges", "edges.txt", "--labels", "labels.txt", "--label-train-frac", "1.5"],
     "argument --label-train-frac: expected a number strictly between 0 and 1, got '1.5'"),
]


@pytest.mark.parametrize("argv,message", CHECKED_BEFORE_READING,
                         ids=[f"argv{i}" for i in range(len(CHECKED_BEFORE_READING))])
def test_settings_checked_before_data_is_read(capsys, monkeypatch, argv, message):
    for loader in ("load_csv", "load_edge_list", "load_node_labels"):
        monkeypatch.setattr(f"advclf.cli.{loader}", fail_if_called)
    code, out, err = run_cli(capsys, argv)
    assert code == 2
    assert out == ""
    assert message in err


@pytest.mark.parametrize("argv,flag", [
    (["train", "--data", "data.csv"], "--out-report"),
    (["train", "--data", "data.csv"], "--out-trace"),
    (["graph", "--edges", "edges.txt", "--labels", "labels.txt"], "--out-report"),
    (["graph", "--edges", "edges.txt", "--labels", "labels.txt"], "--out-embeddings"),
])
def test_missing_output_directory_exits_1_before_data_is_read(capsys, tmp_path, monkeypatch, argv, flag):
    """Writing the side file after the run would lose the whole run, its report included."""
    monkeypatch.chdir(tmp_path)
    for loader in ("load_csv", "load_edge_list", "load_node_labels"):
        monkeypatch.setattr(f"advclf.cli.{loader}", fail_if_called)
    code, out, err = run_cli(capsys, argv + [flag, "missing/out.txt"])
    assert code == 1
    assert out == ""
    assert "cannot write missing/out.txt: no such directory missing" in err


# --- synth subcommand ---


def test_synth_requires_out(capsys):
    code, _, err = run_cli(capsys, ["synth", "--n", "100", "--ir", "4"])
    assert code == 2
    assert "--out" in err


def test_synth_benchmark_scale_counts(capsys, tmp_path):
    out_file = tmp_path / "big.csv"
    code, out, _ = run_cli(
        capsys, ["synth", "--n", "10992", "--ir", "9.4", "--out", str(out_file)]
    )
    assert code == 0
    assert "positives=1057 negatives=9935" in out


def test_synth_same_seed_byte_identical(capsys, tmp_path):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    assert main(["synth", "--n", "200", "--ir", "4", "--seed", "9", "--out", str(a)]) == 0
    assert main(["synth", "--n", "200", "--ir", "4", "--seed", "9", "--out", str(b)]) == 0
    capsys.readouterr()
    assert a.read_bytes() == b.read_bytes()


def test_synth_invalid_spec_exits_2(capsys, tmp_path):
    code, _, err = run_cli(
        capsys, ["synth", "--n", "10", "--ir", "100", "--out", str(tmp_path / "x.csv")]
    )
    assert code == 2
    assert "minority" in err


# --- theory subcommand ---


def test_theory_lambda_zero_recovers_target(capsys):
    code, out, _ = run_cli(capsys, ["theory", "--k", "3", "--lam", "0", "--p-plus", "0.7,0.2,0.1"])
    assert code == 0
    payload = json_payload(out)
    assert set(payload) == {"lambda", "k", "p_plus", "minimizer", "residual", "converged"}
    assert payload["converged"] is True
    assert payload["residual"] < 1e-4
    np.testing.assert_allclose(payload["minimizer"], [0.7, 0.2, 0.1], atol=1e-4)


def test_theory_uniform_default(capsys):
    code, out, _ = run_cli(capsys, ["theory", "--k", "4"])
    assert code == 0
    payload = json_payload(out)
    assert payload["p_plus"] == [0.25, 0.25, 0.25, 0.25]
    np.testing.assert_allclose(payload["minimizer"], [0.25] * 4, atol=1e-6)


def test_theory_lambda_alias(capsys):
    code, out, _ = run_cli(capsys, ["theory", "--k", "2", "--lambda", "0.3"])
    assert code == 0
    assert json_payload(out)["lambda"] == 0.3


def test_theory_random_p_plus_seeded(capsys):
    code, out1, _ = run_cli(capsys, ["theory", "--k", "3", "--p-plus", "random", "--seed", "3"])
    assert code == 0
    code, out2, _ = run_cli(capsys, ["theory", "--k", "3", "--p-plus", "random", "--seed", "3"])
    assert code == 0
    assert out1 == out2


@pytest.mark.parametrize(
    "argv",
    [
        ["theory", "--k", "1"],
        ["theory", "--k", "3", "--p-plus", "0.5,x,0.2"],
        ["theory", "--k", "3", "--p-plus", "0.5,0.5"],
        ["theory", "--k", "2", "--p-plus", "0.9,-0.1"],
        ["theory", "--k", "2", "--p-plus", "0.9,0.5"],
    ],
)
def test_theory_bad_inputs_exit_2(capsys, argv):
    code, _, err = run_cli(capsys, argv)
    assert code == 2
    assert err.startswith("error:")


def test_theory_out_file(capsys, tmp_path):
    dest = tmp_path / "result.json"
    code, out, _ = run_cli(capsys, ["theory", "--k", "2", "--out", str(dest)])
    assert code == 0
    assert json.loads(dest.read_text()) == json_payload(out)


# --- graph subcommand ---


GRAPH_ARGS = [
    "--test-frac", "0.2", "--dim", "4", "--batch-size", "8",
    "--pretrain-iters", "30", "--train-iters", "5",
    "--eta-d", "0.5", "--eta-g", "0.001", "--gen-arch", "4", "--seed", "1",
]


@pytest.mark.parametrize("argv", [
    ["graph", "--edges", "edges.txt", "--labels", "labels.txt", *GRAPH_ARGS,
     "--label-train-frac", "nan", "--out-report", "out"],
    ["graph", "--edges", "edges.txt", *GRAPH_ARGS, "--eta-d", "nan", "--out-report", "out"],
    ["synth", "--sep", "nan", "--out", "out"],
    small_train_args(**{"--synth-sep": "nan", "--out-report": "out"}),
    small_train_args(**{"--eta-d": "nan", "--out-report": "out"}),
    small_train_args(**{"--lam": "nan", "--out-report": "out"}),
    small_train_args(**{"--gamma": "nan", "--out-report": "out"}),
    ["theory", "--tol", "nan", "--out", "out"],
])
def test_non_finite_float_setting_exits_2(capsys, tmp_path, monkeypatch, argv):
    monkeypatch.chdir(tmp_path)
    write_clique_edges(tmp_path / "edges.txt")
    (tmp_path / "labels.txt").write_text("".join(f"{i} {int(i >= 6)}\n" for i in range(12)))
    code, out, err = run_cli(capsys, argv)
    assert code == 2
    assert out == ""
    assert not (tmp_path / "out").exists()


def test_graph_requires_edges(capsys):
    code, _, err = run_cli(capsys, ["graph"])
    assert code == 2
    assert "--edges" in err


def test_graph_end_to_end(capsys, tmp_path):
    edges = tmp_path / "edges.txt"
    write_clique_edges(edges)
    emb_file = tmp_path / "emb.csv"
    code, out, _ = run_cli(
        capsys,
        ["graph", "--edges", str(edges), "--out-embeddings", str(emb_file)] + GRAPH_ARGS,
    )
    assert code == 0
    report = json_payload(out)
    assert report["graph"]["n_nodes"] == 12
    assert report["graph"]["n_edges"] == 30
    assert report["graph"]["n_test_edges"] == 6
    assert set(report["link_prediction"]) >= {"accuracy", "macro_f1", "auc"}
    assert report["config"]["dim"] == 4
    assert "node_classification" not in report
    assert len(emb_file.read_text().strip().splitlines()) == 12


def test_graph_with_labels_adds_section(capsys, tmp_path):
    edges = tmp_path / "edges.txt"
    write_clique_edges(edges)
    labels = tmp_path / "labels.txt"
    labels.write_text("".join(f"{i} {int(i >= 6)}\n" for i in range(12)))
    code, out, _ = run_cli(
        capsys,
        ["graph", "--edges", str(edges), "--labels", str(labels), "--label-shuffles", "3"]
        + GRAPH_ARGS,
    )
    assert code == 0
    report = json_payload(out)
    assert report["node_classification"]["n_shuffles"] == 3
    assert 0.0 <= report["node_classification"]["macro_f1_mean"] <= 1.0


def test_graph_zero_label_shuffles_exits_2(capsys, tmp_path, monkeypatch):
    """No shuffle means no F1 to average; the report would carry NaN. Caught before training."""
    monkeypatch.setattr("advclf.cli.train_graph", fail_if_called)
    edges = tmp_path / "edges.txt"
    write_clique_edges(edges)
    labels = tmp_path / "labels.txt"
    labels.write_text("".join(f"{i} {int(i >= 6)}\n" for i in range(12)))
    code, out, err = run_cli(
        capsys,
        ["graph", "--edges", str(edges), "--labels", str(labels), "--label-shuffles", "0"]
        + GRAPH_ARGS,
    )
    assert code == 2
    assert out == ""
    assert "argument --label-shuffles: expected an integer >= 1, got '0'" in err


@pytest.mark.parametrize("option,value,code,message", [
    ("--labels", "absent.txt", 1, "no such file"),
    ("--label-train-frac", "1.0", 2,
     "argument --label-train-frac: expected a number strictly between 0 and 1, got '1.0'"),
    ("--label-train-frac", "1.5", 2,
     "argument --label-train-frac: expected a number strictly between 0 and 1, got '1.5'"),
])
def test_graph_label_probe_inputs_fail_before_training(capsys, tmp_path, monkeypatch, option, value,
                                                       code, message):
    monkeypatch.setattr("advclf.cli.train_graph", fail_if_called)
    monkeypatch.chdir(tmp_path)
    write_clique_edges(tmp_path / "edges.txt")
    (tmp_path / "labels.txt").write_text("".join(f"{i} {int(i >= 6)}\n" for i in range(12)))
    argv = ["graph", "--edges", "edges.txt", "--labels", "labels.txt"] + GRAPH_ARGS + [option, value]
    got, out, err = run_cli(capsys, argv)
    assert got == code
    assert out == ""
    assert message in err


def test_graph_report_deterministic(capsys, tmp_path):
    edges = tmp_path / "edges.txt"
    write_clique_edges(edges)
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    assert main(["graph", "--edges", str(edges), "--out-report", str(a)] + GRAPH_ARGS) == 0
    assert main(["graph", "--edges", str(edges), "--out-report", str(b)] + GRAPH_ARGS) == 0
    capsys.readouterr()
    ra, rb = json.loads(a.read_text()), json.loads(b.read_text())
    ra.pop("wall_clock_sec"), rb.pop("wall_clock_sec")
    assert ra == rb


def test_graph_missing_edges_file_exits_1(capsys, tmp_path):
    code, _, err = run_cli(capsys, ["graph", "--edges", str(tmp_path / "absent.txt")])
    assert code == 1
    assert "no such file" in err


@pytest.mark.parametrize("line,node_id", [
    ("0 9223372036854775808", 9223372036854775808),  # beyond int64: the per-token parse reads it
    ("3000000000 4000000000", 4000000000),  # in int64, but its pair keys would wrap
])
def test_graph_node_id_beyond_pair_key_range_exits_1(capsys, tmp_path, line, node_id):
    """An id whose pair keys int64 cannot hold is a data error naming it, not a traceback."""
    edges = tmp_path / "edges.txt"
    edges.write_text(f"0 1\n{line}\n")
    code, out, err = run_cli(capsys, ["graph", "--edges", str(edges)])
    assert code == 1
    assert out == ""
    assert err == f"error: node id {node_id} is too large: pair keys hold node ids up to 3037000498\n"


@pytest.mark.parametrize("test_frac,held_out", [("0.01", 0), ("0.99", 30)])
def test_graph_test_frac_without_test_or_training_edges_exits_1(capsys, tmp_path, test_frac,
                                                               held_out):
    """The split fails before training: 30 clique edges hold out none or all of them."""
    edges = tmp_path / "edges.txt"
    write_clique_edges(edges)
    argv = ["graph", "--edges", str(edges)] + GRAPH_ARGS + ["--test-frac", test_frac]
    code, out, err = run_cli(capsys, argv)
    assert code == 1
    assert out == ""
    assert f"holds out {held_out} of 30 edges" in err


# --- presets ---


def test_arch_presets_echoed(capsys):
    code, out, _ = run_cli(capsys, small_train_args(**{"--gen-arch": "deep"}))
    assert code == 0
    assert json_payload(out)["config"]["gen_arch"] == list(ARCH_PRESETS["deep"])


# --- allocator pin ---


THEORY_ARGV = ["theory", "--k", "3", "--lam", "0.1", "--max-iters", "200"]


def test_main_pins_both_malloc_thresholds(capsys, monkeypatch):
    calls = []

    def mallopt(param, value):
        calls.append((param, value))
        return 1

    monkeypatch.setattr("advclf.cli.ctypes.CDLL", lambda name: types.SimpleNamespace(mallopt=mallopt))
    code, out, _ = run_cli(capsys, THEORY_ARGV)
    assert code == 0 and json_payload(out)["k"] == 3
    assert calls == [(-3, 4 << 20), (-1, 16 << 20)]  # M_MMAP_THRESHOLD, M_TRIM_THRESHOLD


def test_main_runs_without_mallopt(capsys, monkeypatch):
    expected = run_cli(capsys, THEORY_ARGV)
    monkeypatch.setattr("advclf.cli.ctypes.CDLL", lambda name: types.SimpleNamespace())
    assert run_cli(capsys, THEORY_ARGV) == expected
    code, _, err = run_cli(capsys, ["theory", "--k", "1"])
    assert code == 2 and "k must be >= 2" in err


def test_graph_stdout_same_with_and_without_the_pin(tmp_path):
    """Fresh processes, so the unpinned run never had the thresholds set."""
    write_clique_edges(tmp_path / "edges.txt")
    argv = ["graph", "--edges", "edges.txt", *GRAPH_ARGS]
    unpinned = (
        "import sys, types; import advclf.cli as cli;"
        " cli.ctypes.CDLL = lambda name: types.SimpleNamespace(); sys.exit(cli.main(sys.argv[1:]))"
    )
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    reports = []
    for launch in (["-m", "advclf"], ["-c", unpinned]):
        done = subprocess.run([sys.executable, *launch, *argv], cwd=tmp_path, env=env,
                              capture_output=True, text=True, timeout=120)
        assert done.returncode == 0, done.stderr
        report = json.loads(done.stdout)
        report.pop("wall_clock_sec")
        reports.append(json.dumps(report, sort_keys=True))
    assert reports[0] == reports[1]
