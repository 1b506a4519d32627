"""End-to-end tests of the command-line interface, run in-process."""

import argparse
import contextlib
import itertools
import json
import os
import re
import subprocess
import sys
import tracemalloc
import types
from pathlib import Path

import numpy as np
import pytest

from advclf.adversarial import predict, train
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
from advclf.data import LabeledDataset, SplitSpec, save_csv, split_rows
from advclf.metrics import auc_roc

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


def fresh_process_env():
    """os.environ with this checkout's src first on PYTHONPATH, for advclf run in a fresh process."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    return {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}


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
    # the converter raises argparse's ArgumentTypeError, so argparse rejects the value itself
    with pytest.raises(SystemExit) as exc:
        main(["train", "--synth", "--gen-arch", "64,x"])
    assert exc.value.code == 2


def test_unknown_reference_exits_2(capsys):
    with pytest.raises(SystemExit) as exc:
        main(small_train_args() + ["--reference", "bogus"])
    assert exc.value.code == 2


def test_train_help_names_every_reference_row(capsys):
    code, out, _ = run_cli(capsys, ["train", "--help"])
    assert code == 0
    for name in REFERENCE_ROWS:
        assert name in out


def test_readme_names_exactly_the_flags_the_parser_defines():
    """Each `advclf <command>` section names only that command's flags; the README as a whole names them all."""
    parser = build_parser()
    (subs,) = (action for action in parser._actions if isinstance(action, argparse._SubParsersAction))
    defined = {
        command: {flag for action in sub._actions for flag in action.option_strings if flag.startswith("--")}
        for command, sub in subs.choices.items()
    }
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")

    def named(text):
        return set(re.findall(r"(?<![\w-])--[a-z][a-z0-9-]*", text))

    sections = re.findall(r"^### `advclf (\w+)`(.*?)(?=^##)", readme, flags=re.M | re.S)
    assert [command for command, _ in sections] == list(defined)
    for command, section in sections:
        assert named(section) <= defined[command], command
    # pip's flag under Install is the one that is not advclf's
    assert named(readme) - {"--no-build-isolation"} == set().union(*defined.values())


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


@pytest.mark.parametrize("standardize", [[], ["--no-standardize"]], ids=["standardized", "raw"])
@pytest.mark.parametrize("seed", ["9301", "9302"])
def test_last_checkpoint_is_the_reported_validation_auc(capsys, monkeypatch, seed, standardize):
    """With --eval-every dividing --train-iters, the last checkpoint scores the model the report scores.

    Its val_auc equals models.adversarial.validation.auc bit for bit, and
    both equal the model's AUC on the validation rows of the table as the
    model saw it, after the standardisation.
    """
    trained = {}

    def keep_train(config, data, **kwargs):
        trained["data"], trained["result"] = data, train(config, data, **kwargs)
        return trained["result"]

    monkeypatch.setattr("advclf.cli.train", keep_train)
    argv = small_train_args(**{"--synth-n": "1000", "--eval-every": "5", "--seed": seed}) + standardize
    code, out, _ = run_cli(capsys, argv)
    assert code == 0
    report = json_payload(out)
    assert [c["iteration"] for c in report["checkpoints"]] == [5]
    data, disc = trained["data"], trained["result"][0]
    _, val_rows, _ = split_rows(data.labels, SplitSpec(seed=int(seed)))
    fresh = auc_roc(predict(disc, data.features[val_rows]), data.labels[val_rows])
    assert report["checkpoints"][-1]["val_auc"] == report["models"]["adversarial"]["validation"]["auc"] == fresh


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


def test_label_column_and_positive_label_pick_the_labels(capsys, tmp_path):
    """A 'y' column of yes/no, named by flags or by a config file, trains as a 'label' column of 1/0."""
    rng = np.random.default_rng(9501)
    x = rng.standard_normal((300, 3))
    y = rng.random(300) < 0.2
    x[y, 0] += 2.0

    def write(path, column, yes, no):
        rows = [f"{a!r},{yes if lab else no},{b!r},{c!r}" for (a, b, c), lab in zip(x.tolist(), y)]
        path.write_text(f"f0,{column},f1,f2\n" + "".join(row + "\n" for row in rows))
        return str(path)

    plain = write(tmp_path / "plain.csv", "label", "1", "0")
    named = write(tmp_path / "named.csv", "y", "yes", "no")
    (tmp_path / "run.cfg").write_text("label-column = y\npositive-label = yes\n")
    common = ["--batch-size", "8", "--pretrain-iters", "10", "--train-iters", "5", "--gen-arch", "4",
              "--eval-every", "5", "--seed", "9502"]
    reports = []
    for argv in (["--data", plain], ["--data", named, "--label-column", "y", "--positive-label", "yes"],
                 ["--data", named, "--config", str(tmp_path / "run.cfg")]):
        code, out, err = run_cli(capsys, ["train", *argv, *common])
        assert code == 0, err
        report = json_payload(out)
        del report["config"]["source"], report["wall_clock_sec"]
        reports.append(report)
    assert reports[0]["data"]["train_pos"] == round(0.6 * y.sum())
    assert reports[0] == reports[1] == reports[2]


def test_train_single_class_csv_prints_one_error_line(tmp_path):
    """A fresh process, so any warning the loader gave would reach stderr beside the error."""
    csv = tmp_path / "one_class.csv"
    csv.write_text("x,label\n" + "".join(f"{i}.5,0\n" for i in range(40)))
    env = fresh_process_env()
    done = subprocess.run([sys.executable, "-m", "advclf", "train", "--data", str(csv)], env=env,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 1
    assert done.stdout == ""
    assert done.stderr == "error: stratified split needs >= 4 positive samples, have 0\n"


def test_train_split_part_without_a_class_exits_1_before_training(capsys, monkeypatch):
    """3 positives would split 2/1/0: the test part would have none, and its AUC would fail after the whole run."""
    monkeypatch.setattr("advclf.cli.train", fail_if_called)
    code, out, err = run_cli(capsys, ["train", "--synth", "--synth-n", "124", "--synth-ir", "40"])
    assert code == 1
    assert out == ""
    assert "error: stratified split needs >= 4 positive samples, have 3" in err


def test_train_csv_without_a_feature_column_exits_1(capsys, tmp_path, monkeypatch):
    monkeypatch.setattr("advclf.cli.train", fail_if_called)
    csv = tmp_path / "data.csv"
    csv.write_text("label\n" + "".join(f"{int(i % 4 == 0)}\n" for i in range(40)))
    code, out, err = run_cli(capsys, ["train", "--data", str(csv)])
    assert code == 1
    assert out == ""
    assert f"error: {csv}: no feature column besides 'label'" in err


def test_train_csv_naming_the_label_column_twice_exits_1(capsys, tmp_path, monkeypatch):
    monkeypatch.setattr("advclf.cli.train", fail_if_called)
    csv = tmp_path / "data.csv"
    csv.write_text("a,label,label\n" + "".join(f"{i},{int(i % 4 == 0)},{int(i % 4 == 0)}\n" for i in range(40)))
    code, out, err = run_cli(capsys, ["train", "--data", str(csv)])
    assert code == 1
    assert out == ""
    assert f"error: {csv}: column 'label' named more than once in header ['a', 'label', 'label']" in err


def test_train_csv_of_blank_lines_exits_1(capsys, tmp_path, monkeypatch):
    monkeypatch.setattr("advclf.cli.train", fail_if_called)
    csv = tmp_path / "data.csv"
    csv.write_text("\n  \n\t\n")
    code, out, err = run_cli(capsys, ["train", "--data", str(csv)])
    assert code == 1
    assert out == ""
    assert err == f"error: {csv}: empty file\n"


TRAIN_FAULT_ARGS = ["--synth", "--synth-n", "300", "--synth-ir", "4", "--batch-size", "8",
                    "--pretrain-iters", "5", "--train-iters", "5"]


@pytest.mark.parametrize("argv,overflows,message", [
    (["train", *TRAIN_FAULT_ARGS, "--eta-d", "1e300"], False,
     "adversarial iteration 1: degenerate generator: raw batch weights underflowed to zero"),
    (["train", *TRAIN_FAULT_ARGS, "--eta-d", "1.7e308"], True,
     "pretraining iteration 1: non-finite discriminator loss"),
    (["graph", "--edges", "edges.txt", "--eta-d", "1e300"], False,
     "pretraining iteration 1: non-finite discriminator loss"),
    (["graph", "--edges", "edges.txt", "--eta-d", "1e300", "--pretrain-iters", "0"], False,
     "adversarial iteration 0: non-finite generator loss"),
], ids=["train-adversarial", "train-pretraining", "graph-pretraining", "graph-adversarial"])
def test_training_fault_names_its_loop_and_iteration(capsys, tmp_path, monkeypatch, argv, overflows, message):
    """A step's TrainingError reaches the user prefixed with the loop and the iteration it failed in."""
    monkeypatch.chdir(tmp_path)
    write_clique_edges(tmp_path / "edges.txt")
    with pytest.warns(RuntimeWarning, match="overflow") if overflows else contextlib.nullcontext():
        code, out, err = run_cli(capsys, argv)
    assert code == 1
    assert out == ""
    assert err == f"error: {message}\n"


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
    assert "config key batch_size: expected an integer >= 1, got 'peanuts'" in err


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
    # text that does not parse gets the message of a value out of range
    (["synth", "--out", "x.csv", "--seed", "x"], "argument --seed: expected an integer >= 0, got 'x'"),
    (["graph", "--edges", "e.txt", "--dim", "1.5"], "argument --dim: expected an integer >= 1, got '1.5'"),
    (["graph", "--edges", "e.txt", "--test-frac", "half"],
     "argument --test-frac: expected a number strictly between 0 and 1, got 'half'"),
    (["theory", "--lam", "small"], "argument --lam/--lambda: expected a finite number, got 'small'"),
    (["train", "--synth", "--config", "seed = x"],
     "error: config key seed: expected an integer >= 0, got 'x'"),
    (["graph", "--edges", "e.txt", "--config", "label-shuffles = many"],
     "error: config key label_shuffles: expected an integer >= 1, got 'many'"),
    (["graph", "--edges", "e.txt", "--config", "label-train-frac = most"],
     "error: config key label_train_frac: expected a number strictly between 0 and 1, got 'most'"),
    (["train", "--synth", "--config", "eta-g = fast"],
     "error: config key eta_g: expected a finite number, got 'fast'"),
    # the plain integer settings, each with the bound its config class or command enforces
    (["train", "--synth", "--batch-size", "x"], "argument --batch-size: expected an integer >= 1, got 'x'"),
    (["train", "--synth", "--config", "pretrain-iters = -1"],
     "error: config key pretrain_iters: expected an integer >= 0, got '-1'"),
    (["graph", "--edges", "e.txt", "--train-iters", "1.5"],
     "argument --train-iters: expected an integer >= 0, got '1.5'"),
    (["train", "--synth", "--synth-n", "2"], "argument --synth-n: expected an integer >= 3, got '2'"),
    (["train", "--synth", "--config", "synth-dim = 0"],
     "error: config key synth_dim: expected an integer >= 1, got '0'"),
    (["theory", "--k", "1"], "argument --k: expected an integer >= 2, got '1'"),
    (["theory", "--k", "many"], "argument --k: expected an integer >= 2, got 'many'"),
    (["theory", "--config", "k = 1"], "error: config key k: expected an integer >= 2, got '1'"),
    (["synth", "--out", "x.csv", "--n", "2"], "argument --n: expected an integer >= 3, got '2'"),
    (["synth", "--out", "x.csv", "--config", "dim = two"],
     "error: config key dim: expected an integer >= 1, got 'two'"),
    (["train", "--synth", "--reference", "bogus"],
     "argument --reference: expected one of letter_img, mammography, pen_digits, protein_homo, webpage,"
     " got 'bogus'"),
    (["train", "--config", "synth = maybe"], "error: config key synth: expected a boolean, got 'maybe'"),
    # the config reader's own rejections: a key set twice, in either spelling, and unknown keys as spelled
    (["train", "--synth", "--config", "seed = 1\nseed = 2"],
     "error: run.cfg line 2: key 'seed' repeats 'seed' of line 1"),
    (["train", "--synth", "--config", "lam = 0.5\n# lambda is lam\nlambda = 0.7"],
     "error: run.cfg line 3: key 'lambda' repeats 'lam' of line 1"),
    (["train", "--synth", "--config", "batch-size = 8\nbatch_size = 8"],
     "error: run.cfg line 2: key 'batch_size' repeats 'batch-size' of line 1"),
    (["synth", "--out", "x.csv", "--config", "lambda = 1\nsynth-dim = 2"],
     "error: unknown config keys: ['lambda', 'synth-dim']"),
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


# every option whose value a converter checks, through a flag and through a config file; the two options that
# take no value as a flag (--synth, --no-standardize) are checked through the config file only
CONVERTED_OPTIONS = [
    (command, key, source)
    for command, table in OPTION_TABLES.items()
    for key, option in table.items() if option.convert is not str
    for source in (("config",) if option.const is not None else ("flag", "config"))
]


@pytest.mark.parametrize("command,key,source", CONVERTED_OPTIONS)
def test_every_converter_rejects_with_its_own_reason(capsys, tmp_path, monkeypatch, command, key, source):
    """Text the converter rejects exits 2 with the converter's reason, from a flag or a config file.

    A converter that raised anything but ArgumentTypeError would show argparse's "invalid ... value"
    for a flag, and a traceback for a config file.
    """
    monkeypatch.chdir(tmp_path)
    option = OPTION_TABLES[command][key]
    if source == "flag":
        flags = option.flags or ("--" + key.replace("_", "-"),)
        argv, prefix = [command, flags[0], "bogus"], f"argument {'/'.join(flags)}: "
    else:
        (tmp_path / "run.cfg").write_text(f"{key} = bogus\n")
        argv, prefix = [command, "--config", "run.cfg"], f"error: config key {key}: "
    code, out, err = run_cli(capsys, argv)
    assert code == 2
    assert out == ""
    assert prefix in err and err.endswith(", got 'bogus'\n")
    assert "invalid" not in err


def test_config_file_unknown_reference_exits_2_before_training(capsys, tmp_path, monkeypatch):
    """The file's value takes the flag's check, before any model trains."""
    monkeypatch.setattr("advclf.cli.train", fail_if_called)
    cfg = tmp_path / "run.cfg"
    cfg.write_text("reference = bogus\n")
    code, out, err = run_cli(capsys, small_train_args() + ["--config", str(cfg)])
    assert code == 2
    assert out == ""
    assert f"config key reference: expected one of {', '.join(sorted(REFERENCE_ROWS))}, got 'bogus'" in err


def test_config_file_missing_or_malformed(capsys, tmp_path):
    from advclf.errors import ConfigError

    with pytest.raises(ConfigError, match="no such config"):
        load_config_file(tmp_path / "absent.cfg")
    # a directory is no config file either: exit 2 with the missing file's reason, not 1 with an OS error
    cfg_dir = tmp_path / "cfgdir"
    cfg_dir.mkdir()
    for cfg in (tmp_path / "absent.cfg", cfg_dir):
        code, out, err = run_cli(capsys, small_train_args() + ["--config", str(cfg)])
        assert code == 2
        assert out == ""
        assert f"error: no such config file: {cfg}" in err
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
        # 7 suits every setting but the fractions, which must lie strictly between 0 and 1,
        # and reference, which must name a row
        text = "pen_digits" if key == "reference" else "0.7" if option.convert is open_fraction else "7"
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
    (["train", "--data", "data.csv", "--batch-size", "0"],
     "argument --batch-size: expected an integer >= 1, got '0'"),
    (["graph", "--edges", "edges.txt", "--batch-size", "0"],
     "argument --batch-size: expected an integer >= 1, got '0'"),
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


@pytest.mark.parametrize("argv,flag", [
    (["train", "--data", "data.csv"], "--out-report"),
    (["train", "--synth"], "--out-trace"),
    (["graph", "--edges", "edges.txt", "--labels", "labels.txt"], "--out-embeddings"),
    (["synth"], "--out"),
    (["theory"], "--out"),
])
def test_output_path_that_is_a_directory_exits_1_before_data_is_read(capsys, tmp_path, monkeypatch, argv,
                                                                    flag):
    """Its parent exists, but the file cannot be written: found before the run, not after it."""
    monkeypatch.chdir(tmp_path)
    (tmp_path / "outdir").mkdir()
    for name in ("load_csv", "load_edge_list", "load_node_labels", "synth_gaussian_imbalanced", "train",
                 "train_graph", "minimize_generator"):
        monkeypatch.setattr(f"advclf.cli.{name}", fail_if_called)
    code, out, err = run_cli(capsys, argv + [flag, "outdir"])
    assert code == 1
    assert out == ""
    assert err == "error: cannot write outdir: it is a directory\n"


@pytest.mark.parametrize("argv,message", [
    (["train", "--synth", "--out-report", "same.out", "--out-trace", "./same.out"],
     "--out-report and --out-trace both name ./same.out"),
    (["graph", "--edges", "edges.txt", "--labels", "labels.txt", "--out-report", "same.out",
      "--out-embeddings", "same.out"], "--out-embeddings and --out-report both name same.out"),
    (["train", "--data", "same.out", "--out-report", "./same.out"], "--data and --out-report both name ./same.out"),
    (["graph", "--edges", "same.out", "--out-embeddings", "same.out"],
     "--edges and --out-embeddings both name same.out"),
    (["graph", "--edges", "edges.txt", "--labels", "same.out", "--out-report", "same.out"],
     "--labels and --out-report both name same.out"),
])
def test_two_outputs_that_name_one_file_exit_1_before_data_is_read(capsys, tmp_path, monkeypatch, argv,
                                                                   message):
    """The file written last would silently replace the other, or the output the input it was read from."""
    monkeypatch.chdir(tmp_path)
    for name in ("load_csv", "load_edge_list", "load_node_labels", "synth_gaussian_imbalanced", "train",
                 "train_graph"):
        monkeypatch.setattr(f"advclf.cli.{name}", fail_if_called)
    code, out, err = run_cli(capsys, argv)
    assert code == 1
    assert out == ""
    assert err == f"error: {message}\n"
    assert not (tmp_path / "same.out").exists()


def test_output_that_names_the_config_file_exits_1_and_leaves_it(capsys, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    monkeypatch.setattr("advclf.cli.minimize_generator", fail_if_called)
    (tmp_path / "c.cfg").write_text("seed = 3\n")
    code, out, err = run_cli(capsys, ["theory", "--config", "c.cfg", "--out", "c.cfg"])
    assert code == 1
    assert out == ""
    assert err == "error: --config and --out both name c.cfg\n"
    assert (tmp_path / "c.cfg").read_text() == "seed = 3\n"


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
    assert set(payload) == {"lambda", "k", "p_plus", "minimizer", "residual"}
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
        ["theory", "--lam", "-1", "--out", "out"],
        ["theory", "--k", "3", "--p-plus", "0.5,x,0.2"],
        ["theory", "--k", "3", "--p-plus", "0.5,0.5"],
        ["theory", "--k", "2", "--p-plus", "0.9,-0.1"],
        ["theory", "--k", "2", "--p-plus", "0.9,0.5"],
    ],
)
def test_theory_bad_inputs_exit_2(capsys, tmp_path, monkeypatch, argv):
    monkeypatch.chdir(tmp_path)
    code, _, err = run_cli(capsys, argv)
    assert code == 2
    assert err.startswith("error:")
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("p_plus", ["nan,0.5,0.5", "0.5,0.5,nan"])
def test_theory_nan_p_plus_names_the_flag(capsys, p_plus):
    code, out, err = run_cli(capsys, ["theory", "--k", "3", "--p-plus", p_plus])
    assert code == 2
    assert out == ""
    assert err == "error: --p-plus entries must be positive and sum to 1\n"


def test_theory_out_file(capsys, tmp_path):
    dest = tmp_path / "result.json"
    code, out, _ = run_cli(capsys, ["theory", "--k", "2", "--out", str(dest)])
    assert code == 0
    assert json.loads(dest.read_text()) == json_payload(out)


@pytest.mark.parametrize("argv", [
    *(["theory", "--lam", lam] for lam in ("0", "5e-324", "1e-300", "2000", "1e6", "1e300", "1.7e308")),
    ["theory", "--k", "1000", "--lam", "1e308"],
], ids=lambda argv: " ".join(argv[1:]))
def test_theory_runs_at_every_finite_lambda(capsys, argv):
    """0.5^2001 underflows to 0, and lam * log p overflows at lam 1e308; neither may stop the run or warn."""
    code, out, err = run_cli(capsys, argv)
    assert (code, err) == (0, "")
    p = np.asarray(json_payload(out)["minimizer"])
    assert np.all(np.isfinite(p)) and abs(float(p.sum()) - 1.0) <= 1e-12



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
    ["theory", "--lam", "nan", "--out", "out"],
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


def test_failed_allocation_exits_1_with_one_error_line(capsys, tmp_path, monkeypatch):
    """numpy's MemoryError, as a table too large for memory raises it, is a runtime fault like any other."""
    message = "Unable to allocate 44.7 GiB for an array with shape (3000000000, 2) and data type float64"

    def out_of_memory(*args, **kwargs):
        raise MemoryError(message)

    monkeypatch.setattr("advclf.cli.train_graph", out_of_memory)
    edges = tmp_path / "edges.txt"
    write_clique_edges(edges)
    code, out, err = run_cli(capsys, ["graph", "--edges", str(edges)] + GRAPH_ARGS)
    assert code == 1
    assert out == ""
    assert err == f"error: {message}\n"


HUGE = "100000000000000000000"  # past int64: no array dimension reaches it


@pytest.mark.parametrize("argv,reason", [
    (["theory", "--k", HUGE], "Maximum allowed dimension exceeded"),
    (["synth", "--n", HUGE, "--out", "x.csv"], "array is too big;"),
    (["train", "--synth", "--synth-dim", HUGE], "Maximum allowed dimension exceeded"),
    (["train", "--synth", "--synth-n", "300", "--batch-size", HUGE], "Maximum allowed dimension exceeded"),
], ids=["theory-k", "synth-n", "train-synth-dim", "train-batch-size"])
def test_size_no_array_can_hold_exits_1_with_one_error_line(capsys, tmp_path, monkeypatch, argv, reason):
    """numpy raises ValueError, not MemoryError, for such a shape; it is the same runtime fault."""
    monkeypatch.chdir(tmp_path)
    code, out, err = run_cli(capsys, argv)
    assert code == 1
    assert out == ""
    assert err.startswith(f"error: cannot allocate: {reason}") and err.count("\n") == 1
    assert not (tmp_path / "x.csv").exists()


def test_other_value_errors_still_raise(tmp_path, monkeypatch):
    """Only numpy's two size errors exit 1; any other ValueError is a fault and keeps its traceback."""
    def broken(*args, **kwargs):
        raise ValueError("operands could not be broadcast together")

    monkeypatch.setattr("advclf.cli.train_graph", broken)
    edges = tmp_path / "edges.txt"
    write_clique_edges(edges)
    with pytest.raises(ValueError, match="broadcast"):
        main(["graph", "--edges", str(edges)] + GRAPH_ARGS)


@pytest.mark.parametrize("option,value,code,message", [
    ("--labels", "absent.txt", 1, "no such file"),
    ("--labels", "one_class.txt", 1,
     "error: one_class.txt: one class only; the label probes need at least two"),
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
    (tmp_path / "one_class.txt").write_text("".join(f"{i} 0\n" for i in range(12)))
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


def small_csv_text(n=60):
    """A headered CSV, label column first, with a shifted minority of one in four rows."""
    rng = np.random.default_rng(3)
    rows = ["label,f0,f1"]
    for i in range(n):
        label = int(i % 4 == 0)
        rows.append(",".join([str(label), *(repr(float(v)) for v in rng.normal(label, 1.0, 2))]))
    return "\n".join(rows) + "\n"


BOM_CASES = {
    "edges.txt": ["graph", "--edges", "edges.txt", *GRAPH_ARGS],
    "labels.txt": ["graph", "--edges", "edges.txt", "--labels", "labels.txt", "--label-shuffles", "2",
                   *GRAPH_ARGS],
    "data.csv": ["train", "--data", "data.csv", "--batch-size", "8",
                 "--pretrain-iters", "5", "--train-iters", "2", "--gen-arch", "4"],
    "run.cfg": ["train", "--synth", "--config", "run.cfg",
                "--pretrain-iters", "5", "--train-iters", "2", "--gen-arch", "4"],
}


def bom_case_texts(tmp_path):
    """The text of each file BOM_CASES reads."""
    edges = tmp_path / "edges.txt"
    write_clique_edges(edges)
    return {
        "edges.txt": edges.read_text(encoding="utf-8"),
        "labels.txt": "".join(f"{i} {int(i >= 6)}\n" for i in range(12)),
        "data.csv": small_csv_text(),
        "run.cfg": "batch-size = 8\nsynth-n = 200\n",
    }


@pytest.mark.parametrize("name", list(BOM_CASES))
def test_leading_byte_order_mark_gives_the_same_report(capsys, tmp_path, monkeypatch, name):
    """Excel's "CSV UTF-8" and Notepad start a file with U+FEFF; every text reader drops it."""
    texts = bom_case_texts(tmp_path)
    reports = []
    for bom in ("", "\ufeff"):
        run_dir = tmp_path / f"run{len(reports)}"
        run_dir.mkdir()
        for file_name, text in texts.items():
            prefix = bom if file_name == name else ""
            (run_dir / file_name).write_text(prefix + text, encoding="utf-8")
        monkeypatch.chdir(run_dir)
        code, out, err = run_cli(capsys, BOM_CASES[name])
        assert code == 0, err
        report = json_payload(out)
        report.pop("wall_clock_sec")
        reports.append(report)
    assert reports[0] == reports[1]


@pytest.mark.parametrize("name,byte", [("data.csv", b"\xe9"), ("edges.txt", b"\xff"),
                                       ("labels.txt", b"\xe9"), ("run.cfg", b"\xff")])
def test_input_that_is_not_utf8_is_an_error_naming_the_file(capsys, tmp_path, monkeypatch, name, byte):
    """A Latin-1 byte midway through a file ends the run with an error line, not a traceback.

    A config file is a setting, so it exits 2; a data file exits 1.
    """
    for file_name, text in bom_case_texts(tmp_path).items():
        raw = text.encode("utf-8")
        if file_name == name:
            cut = raw.index(b"\n", len(raw) // 2) + 1
            raw = raw[:cut] + byte + raw[cut:]
        (tmp_path / file_name).write_bytes(raw)
    monkeypatch.chdir(tmp_path)
    code, out, err = run_cli(capsys, BOM_CASES[name])
    assert code == (2 if name == "run.cfg" else 1)
    assert out == ""
    assert err.startswith(f"error: {name}: not UTF-8 text (") and err.count("\n") == 1


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


THEORY_ARGV = ["theory", "--k", "3", "--lam", "0.1"]


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
    assert code == 2 and "argument --k: expected an integer >= 2, got '1'" in err


def test_graph_stdout_same_with_and_without_the_pin(tmp_path):
    """Fresh processes, so the unpinned run never had the thresholds set."""
    write_clique_edges(tmp_path / "edges.txt")
    argv = ["graph", "--edges", "edges.txt", *GRAPH_ARGS]
    unpinned = (
        "import sys, types; import advclf.cli as cli;"
        " cli.ctypes.CDLL = lambda name: types.SimpleNamespace(); sys.exit(cli.main(sys.argv[1:]))"
    )
    env = fresh_process_env()
    reports = []
    for launch in (["-m", "advclf"], ["-c", unpinned]):
        done = subprocess.run([sys.executable, *launch, *argv], cwd=tmp_path, env=env,
                              capture_output=True, text=True, timeout=120)
        assert done.returncode == 0, done.stderr
        report = json.loads(done.stdout)
        report.pop("wall_clock_sec")
        reports.append(json.dumps(report, sort_keys=True))
    assert reports[0] == reports[1]


def test_train_holds_one_table(capsys, tmp_path):
    """advclf train's traced peak stays near its one table: about 1.64 tables here.

    Two tables at once, as when the loader joins per-block parts or the
    split copies rows while the loaded table is alive, gave about 2.23.
    """
    rng = np.random.default_rng(83)
    n, d = 20_000, 16
    features = rng.standard_normal((n, d)) * rng.uniform(0.5, 20.0, d) + rng.uniform(-50.0, 50.0, d)
    data = LabeledDataset(features, (rng.random(n) < 0.05).astype(np.int64))
    save_csv(tmp_path / "big.csv", data)
    argv = ["train", "--data", str(tmp_path / "big.csv"), "--pretrain-iters", "2", "--train-iters", "3",
            "--eval-every", "1"]
    tracemalloc.start()
    try:
        code, out, _ = run_cli(capsys, argv)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert code == 0 and json_payload(out)["data"]["n_train"] == 12_000
    assert peak < 1.8 * (data.features.nbytes + data.labels.nbytes)
