"""Command-line entry points.

Subcommands: train (tabular), graph (node embeddings), theory (idealized
weight-distribution solver), synth (dataset generator). Options resolve as
command line > config file > built-in default; config files are flat
key=value lines.
"""

import argparse
import ctypes
import functools
import json
import math
import sys
import time
from dataclasses import asdict, fields, replace
from pathlib import Path
from typing import Callable, NamedTuple

import numpy as np

from .adversarial import TrainConfig, predict, train
from .data import (
    SplitSpec,
    SynthSpec,
    load_csv,
    oversample_minority,
    save_csv,
    split_dataset,
    standardize,
    synth_gaussian_imbalanced,
    undersample_majority,
)
from .errors import ConfigError, DataError, MetricsError, TrainingError
from .graph import (
    check_probe_settings,
    link_predict_eval,
    load_edge_list,
    load_node_labels,
    node_classification_eval,
    save_embeddings_csv,
    split_edges,
    train_graph,
)
from .metrics import evaluate_binary
from .theory import TheoryConfig, fixed_point_residual, minimize_generator

# Published benchmark rows for side-by-side orientation. The upstream
# preprocessing and split protocol are unspecified, so reproductions can
# differ by several points; never gate tests or CI on these numbers.
REFERENCE_ROWS = {
    "pen_digits": {"accuracy": 0.9636, "auc": 0.9722, "precision": 0.7981, "f1": 0.8095},
    "letter_img": {"accuracy": 0.9835, "auc": 0.9751, "precision": 0.8925, "f1": 0.7155},
    "webpage": {"accuracy": 0.9894, "auc": 0.9734, "precision": 0.8889, "f1": 0.7643},
    "mammography": {"accuracy": 0.9830, "auc": 0.9360, "precision": 0.6667, "f1": 0.5366},
    "protein_homo": {"accuracy": 0.9969, "auc": 0.9801, "precision": 0.9212, "f1": 0.8043},
}

ARCH_PRESETS = {"shallow": (64, 32, 32), "deep": (10, 8, 8, 6, 6, 6)}


def _parse_arch(text):
    key = text.strip().lower()
    if key in ARCH_PRESETS:
        return ARCH_PRESETS[key]
    try:
        dims = tuple(int(tok) for tok in key.split(",") if tok.strip())
    except ValueError:
        raise ConfigError(
            f"generator architecture must be 'shallow', 'deep' or comma-separated ints, got {text!r}"
        ) from None
    if not dims or any(d < 1 for d in dims):
        raise ConfigError(f"generator hidden widths must be positive, got {text!r}")
    return dims


def _parse_bool(text):
    low = text.strip().lower()
    if low in ("1", "true", "yes", "on"):
        return True
    if low in ("0", "false", "no", "off"):
        return False
    raise ConfigError(f"expected a boolean, got {text!r}")


def nonnegative_int(text):
    # for seeds too: numpy's SeedSequence rejects a negative seed with a bare ValueError
    value = int(text)
    if value < 0:
        raise ConfigError(f"expected an integer >= 0, got {text!r}")
    return value


def positive_int(text):
    value = int(text)
    if value < 1:
        raise ConfigError(f"expected an integer >= 1, got {text!r}")
    return value


def open_fraction(text):
    value = float(text)
    if not 0.0 < value < 1.0:
        raise ConfigError(f"expected a number strictly between 0 and 1, got {text!r}")
    return value


def finite_float(text):
    value = float(text)
    if not math.isfinite(value):
        raise ConfigError(f"expected a finite number, got {text!r}")
    return value


class Option(NamedTuple):
    """One setting of a subcommand: build_parser makes its flag, _resolve its value."""

    default: object = None
    convert: Callable = str  # parses the flag's text and the config file's alike
    help: str | None = None
    flags: tuple = ()  # flag names, when not the key's own --key-name
    const: object = None  # if set, the flag takes no value and stores this one
    choices: list | None = None  # checked by argparse for the flag only


def load_config_file(path):
    """Flat key=value lines; '#' comments; dashes in keys normalize to underscores."""
    path = Path(path)
    if not path.exists():
        raise ConfigError(f"no such config file: {path}")
    out = {}
    for lineno, line in enumerate(path.read_text(encoding="utf-8").splitlines(), start=1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        if "=" not in stripped:
            raise ConfigError(f"{path} line {lineno}: expected key=value, got {stripped!r}")
        key, value = stripped.split("=", 1)
        key = key.strip().replace("-", "_")
        if key == "lambda":
            key = "lam"
        out[key] = value.strip()
    return out


def _resolve(args, table):
    """Merge CLI values (argparse defaults are all None), config file, defaults."""
    file_values = load_config_file(args.config) if args.config else {}
    unknown = set(file_values) - set(table)
    if unknown:
        raise ConfigError(f"unknown config keys: {sorted(unknown)}")
    opts = {}
    for key, option in table.items():
        cli_value = getattr(args, key)
        if cli_value is not None:
            opts[key] = cli_value
        elif key in file_values:
            try:
                opts[key] = option.convert(file_values[key])
            except ConfigError as exc:
                raise ConfigError(f"config key {key}: {exc}") from None
            except ValueError:
                raise ConfigError(f"config key {key}: cannot parse {file_values[key]!r}") from None
        else:
            opts[key] = option.default
    return opts


def _train_config(opts):
    """TrainConfig from its like-named settings; built before any data is read, as it checks them."""
    return TrainConfig(**{f.name: opts[f.name] for f in fields(TrainConfig)})


def _check_out_dirs(opts):
    """Raise before any data is read, not after the run, if an output file's directory is missing."""
    for key, path in opts.items():
        if (key == "out" or key.startswith("out_")) and path and not Path(path).parent.is_dir():
            raise DataError(f"cannot write {path}: no such directory {Path(path).parent}")


def _trace_summary(trace):
    return {
        "final_d_loss": trace.d_loss[-1] if trace.d_loss else None,
        "final_g_loss": trace.g_loss[-1] if trace.g_loss else None,
        "final_weight_entropy": trace.weight_entropy[-1] if trace.weight_entropy else None,
    }


def _dump_report(report, out_path):
    text = json.dumps(report, indent=2, sort_keys=True)
    print(text)
    if out_path:
        Path(out_path).write_text(text + "\n", encoding="utf-8")


def _write_trace_csv(path, trace):
    cols = "iteration,phase,d_loss,g_loss,weight_entropy,weight_min,weight_max"
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(cols + "\n")
        for i, loss in enumerate(trace.pretrain_d_loss):
            fh.write(f"{i},pretrain,{loss!r},,,,\n")
        rows = zip(trace.d_loss, trace.g_loss, trace.weight_entropy, trace.weight_min, trace.weight_max)
        for i, (d, g, ent, lo, hi) in enumerate(rows):
            fh.write(f"{i},adversarial,{d!r},{g!r},{ent!r},{lo!r},{hi!r}\n")


# A dataclass's class attributes are its field defaults; the option tables read them from there.
TRAIN_OPTIONS = {
    "seed": Option(TrainConfig.seed, nonnegative_int),
    "data": Option(help="CSV with a header row and a label column"),
    "label_column": Option("label"),
    "positive_label": Option("1"),
    "synth": Option(False, _parse_bool, "train on a generated Gaussian dataset instead of --data",
                    const=True),
    "synth_n": Option(SynthSpec.n_total, int),
    "synth_ir": Option(SynthSpec.imbalance_ratio, finite_float),
    "synth_dim": Option(SynthSpec.dim, int),
    "synth_sep": Option(SynthSpec.class_separation, finite_float),
    "batch_size": Option(TrainConfig.batch_size, int),
    "pretrain_iters": Option(TrainConfig.pretrain_iters, int),
    "train_iters": Option(TrainConfig.train_iters, int),
    "eta_d": Option(TrainConfig.eta_d, finite_float),
    "eta_g": Option(TrainConfig.eta_g, finite_float),
    "gamma": Option(TrainConfig.gamma, finite_float),
    "lam": Option(TrainConfig.lam, finite_float, flags=("--lam", "--lambda")),
    "gen_arch": Option(ARCH_PRESETS["shallow"], _parse_arch,
                       "'shallow', 'deep' or comma-separated hidden widths"),
    "standardize": Option(True, _parse_bool, flags=("--no-standardize",), const=False),
    "eval_every": Option(0, nonnegative_int, "validation AUC checkpoint interval"),
    "reference": Option(help="print a published benchmark row next to this run",
                        choices=sorted(REFERENCE_ROWS)),
    "out_report": Option(help="write the JSON report here as well as stdout"),
    "out_trace": Option(help="write per-iteration losses as CSV"),
}


def cmd_train(args):
    opts = _resolve(args, TRAIN_OPTIONS)
    if bool(opts["data"]) == bool(opts["synth"]):
        raise ConfigError("provide exactly one of --data or --synth")
    # argparse's choices cover only the flag, not a config file's value
    reference = opts["reference"]
    if reference and reference not in REFERENCE_ROWS:
        raise ConfigError(f"unknown reference row {reference!r}; choices: {sorted(REFERENCE_ROWS)}")
    config = _train_config(opts)
    _check_out_dirs(opts)
    started = time.monotonic()
    if opts["synth"]:
        spec = SynthSpec(
            n_total=opts["synth_n"],
            imbalance_ratio=opts["synth_ir"],
            dim=opts["synth_dim"],
            class_separation=opts["synth_sep"],
            seed=opts["seed"],
        )
        data = synth_gaussian_imbalanced(spec)
    else:
        data = load_csv(opts["data"], opts["label_column"], opts["positive_label"])
    train_set, val_set, test_set = split_dataset(data, SplitSpec(seed=opts["seed"]))
    if opts["standardize"]:
        (train_set, val_set, test_set), _, _ = standardize(train_set, val_set, test_set)

    def val_auc_checkpoint(iteration, disc):
        report = evaluate_binary(predict(disc, val_set.features), val_set.labels)
        return {"iteration": int(iteration), "val_auc": report.auc}

    adv_disc, _, trace = train(
        config,
        train_set,
        gen_spec=opts["gen_arch"],
        checkpoint=(opts["eval_every"], val_auc_checkpoint) if opts["eval_every"] else None,
    )
    resample_seeds = np.random.SeedSequence(opts["seed"]).spawn(2)
    baselines = {
        "pretrain_baseline": train_set,
        "undersample_baseline": undersample_majority(
            train_set, np.random.default_rng(resample_seeds[0])
        ),
        "oversample_baseline": oversample_minority(
            train_set, np.random.default_rng(resample_seeds[1])
        ),
    }
    # a baseline is the warm-up alone, run for the adversarial run's total step count
    warmup_only = replace(config, pretrain_iters=config.pretrain_iters + config.train_iters, train_iters=0)
    models = {"adversarial": adv_disc}
    for name, fit_set in baselines.items():
        models[name], _, _ = train(warmup_only, fit_set, opts["gen_arch"])
    evaluations = {}
    for name, disc in models.items():
        evaluations[name] = {
            "validation": asdict(evaluate_binary(predict(disc, val_set.features), val_set.labels)),
            "test": asdict(evaluate_binary(predict(disc, test_set.features), test_set.labels)),
        }
    report = {
        "config": {
            **asdict(config),
            **{k: opts[k] for k in ("standardize", "eval_every")},
            "gen_arch": list(opts["gen_arch"]),
            "source": opts["data"] if opts["data"] else {
                "synth_n": opts["synth_n"],
                "synth_ir": opts["synth_ir"],
                "synth_dim": opts["synth_dim"],
                "synth_sep": opts["synth_sep"],
            },
        },
        "data": {
            "n_train": train_set.n,
            "n_val": val_set.n,
            "n_test": test_set.n,
            "n_features": train_set.n_features,
            "train_pos": train_set.n_pos,
            "train_neg": train_set.n_neg,
        },
        "models": evaluations,
        "trace_summary": _trace_summary(trace),
        "checkpoints": trace.checkpoints,
        "wall_clock_sec": round(time.monotonic() - started, 3),
    }
    if reference:
        published = REFERENCE_ROWS[reference]
        ours = evaluations["adversarial"]["test"]
        print(f"reference comparison ({reference}), informational only:")
        print(f"  {'metric':<10} {'published':>10} {'this run':>10} {'delta':>8}")
        for metric, pub in published.items():
            got = ours[metric]
            print(f"  {metric:<10} {pub:>10.4f} {got:>10.4f} {got - pub:>+8.4f}")
        print("  expect agreement only to within about ±0.05: the published runs'")
        print("  preprocessing and splits are unspecified. Never a gating check.")
        report["reference_row"] = {"name": reference, "published": published}
    if opts["out_trace"]:
        _write_trace_csv(opts["out_trace"], trace)
    _dump_report(report, opts["out_report"])
    return 0


GRAPH_OPTIONS = {
    "seed": Option(0, nonnegative_int),
    "edges": Option(help="edge list file, two integer ids per line"),
    "labels": Option(help="optional node label file for classification probes"),
    "test_frac": Option(0.1, open_fraction),
    "dim": Option(20, positive_int),
    "batch_size": Option(1024, int),
    "pretrain_iters": Option(200, int),
    "train_iters": Option(500, int),
    "eta_d": Option(1e-3, finite_float),
    "eta_g": Option(1e-5, finite_float),
    "gamma": Option(1e-3, finite_float),
    "lam": Option(0.1, finite_float, flags=("--lam", "--lambda")),
    "gen_arch": Option(ARCH_PRESETS["shallow"], _parse_arch),
    "label_train_frac": Option(0.9, open_fraction),
    "label_shuffles": Option(10, positive_int),
    "out_embeddings": Option(),
    "out_report": Option(),
}


def cmd_graph(args):
    opts = _resolve(args, GRAPH_OPTIONS)
    if not opts["edges"]:
        raise ConfigError("--edges is required")
    config = _train_config(opts)
    _check_out_dirs(opts)
    started = time.monotonic()
    graph = load_edge_list(opts["edges"])
    train_edges, test_pos, test_neg = split_edges(graph, opts["test_frac"], opts["seed"])
    if opts["labels"]:
        # a bad label file or probe setting fails here, not after training
        node_labels = load_node_labels(opts["labels"], n_nodes=graph.n_nodes)
        check_probe_settings(node_labels, graph.n_nodes, opts["label_train_frac"], opts["label_shuffles"])
    disc, _, trace = train_graph(
        config, graph, train_edges, dim=opts["dim"], gen_hidden=opts["gen_arch"]
    )
    link_report = link_predict_eval(disc, test_pos, test_neg)
    report = {
        "config": {
            **asdict(config),
            **{k: opts[k] for k in ("dim", "test_frac")},
            "gen_arch": list(opts["gen_arch"]),
            "edges": opts["edges"],
        },
        "graph": {
            "n_nodes": graph.n_nodes,
            "n_edges": graph.n_edges,
            "n_train_edges": len(train_edges),
            "n_test_edges": len(test_pos),
        },
        "link_prediction": asdict(link_report),
        "trace_summary": _trace_summary(trace),
        "wall_clock_sec": round(time.monotonic() - started, 3),
    }
    if opts["labels"]:
        report["node_classification"] = node_classification_eval(
            disc.embeddings,
            node_labels,
            train_frac=opts["label_train_frac"],
            n_shuffles=opts["label_shuffles"],
            seed=opts["seed"],
        )
    if opts["out_embeddings"]:
        save_embeddings_csv(opts["out_embeddings"], disc.embeddings)
    _dump_report(report, opts["out_report"])
    return 0


THEORY_OPTIONS = {
    "seed": Option(0, nonnegative_int),
    "k": Option(3, int, "number of support points"),
    "lam": Option(TheoryConfig.lam, finite_float, flags=("--lam", "--lambda")),
    "p_plus": Option("uniform", str, "'uniform', 'random' or comma-separated probabilities"),
    "max_iters": Option(TheoryConfig.max_iters, int),
    "tol": Option(TheoryConfig.tol, finite_float),
    "out": Option(help="write the JSON result here as well as stdout"),
}


def _build_p_plus(spec, k, seed):
    if spec == "uniform":
        return np.full(k, 1.0 / k)
    if spec == "random":
        return np.random.default_rng(seed).dirichlet(np.ones(k))
    try:
        values = np.array([float(tok) for tok in spec.split(",") if tok.strip()])
    except ValueError:
        raise ConfigError(f"--p-plus must be 'uniform', 'random' or comma floats, got {spec!r}") from None
    if len(values) != k:
        raise ConfigError(f"--p-plus lists {len(values)} entries but k = {k}")
    if np.any(values <= 0) or abs(values.sum() - 1.0) > 1e-6:
        raise ConfigError("--p-plus entries must be positive and sum to 1")
    return values / values.sum()


def cmd_theory(args):
    opts = _resolve(args, THEORY_OPTIONS)
    if opts["k"] < 2:
        raise ConfigError("k must be >= 2")
    p_plus = _build_p_plus(opts["p_plus"], opts["k"], opts["seed"])
    config = TheoryConfig(**{f.name: opts[f.name] for f in fields(TheoryConfig)})
    _check_out_dirs(opts)
    result = minimize_generator(p_plus, config)
    payload = {
        "lambda": opts["lam"],
        "k": opts["k"],
        "p_plus": [float(v) for v in p_plus],
        "minimizer": [float(v) for v in result.p],
        "residual": fixed_point_residual(result.p, p_plus, opts["lam"]),
        "converged": result.converged,
    }
    _dump_report(payload, opts["out"])
    return 0


SYNTH_OPTIONS = {
    "seed": Option(SynthSpec.seed, nonnegative_int),
    "n": Option(SynthSpec.n_total, int),
    "ir": Option(SynthSpec.imbalance_ratio, finite_float),
    "dim": Option(SynthSpec.dim, int),
    "sep": Option(SynthSpec.class_separation, finite_float),
    "out": Option(),
}


def cmd_synth(args):
    opts = _resolve(args, SYNTH_OPTIONS)
    if not opts["out"]:
        raise ConfigError("--out is required")
    spec = SynthSpec(
        n_total=opts["n"],
        imbalance_ratio=opts["ir"],
        dim=opts["dim"],
        class_separation=opts["sep"],
        seed=opts["seed"],
    )
    _check_out_dirs(opts)
    data = synth_gaussian_imbalanced(spec)
    save_csv(opts["out"], data)
    print(f"wrote {opts['out']}: positives={data.n_pos} negatives={data.n_neg}")
    return 0


def _flag_type(convert):
    """convert as an argparse type: a ConfigError's reason becomes argparse's message."""

    @functools.wraps(convert)
    def parse(text):
        try:
            return convert(text)
        except ConfigError as exc:
            raise argparse.ArgumentTypeError(str(exc)) from None

    return parse


def build_parser():
    parser = argparse.ArgumentParser(
        prog="advclf",
        description="Adversarially re-weighted training for imbalanced binary classification.",
    )
    subs = parser.add_subparsers(dest="command", required=True)
    for name, help_text, table, func in (
        ("train", "train on tabular data against three baselines", TRAIN_OPTIONS, cmd_train),
        ("graph", "learn node embeddings from an edge list", GRAPH_OPTIONS, cmd_graph),
        ("theory", "solve the idealized weight-distribution problem numerically", THEORY_OPTIONS,
         cmd_theory),
        ("synth", "write a synthetic imbalanced CSV dataset", SYNTH_OPTIONS, cmd_synth),
    ):
        sub = subs.add_parser(name, help=help_text)
        sub.add_argument("--config", help="flat key=value settings file")
        for key, option in table.items():
            flags = option.flags or ("--" + key.replace("_", "-"),)
            kind = {"type": _flag_type(option.convert), "choices": option.choices}
            if option.const is not None:
                kind = {"action": "store_const", "const": option.const}
            sub.add_argument(*flags, dest=key, help=option.help, **kind)
        sub.set_defaults(func=func)
    return parser


# glibc's mallopt parameter numbers, from malloc.h
_M_TRIM_THRESHOLD = -1
_M_MMAP_THRESHOLD = -3


def _pin_allocator():
    """Keep freed blocks under 4 MiB in the process instead of returning them to the OS.

    A graph step allocates and frees numpy temporaries of 0.25-1 MB. By
    default glibc raises its mmap threshold as it goes and trims the heap
    top, so those pages go back to the OS and are faulted in again on the
    next step. Fixed thresholds (mmap from 4 MiB, trim beyond 16 MiB of free
    heap top) stop that churn. A no-op where the C library has no mallopt.
    """
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (AttributeError, OSError, TypeError):
        return
    mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
    mallopt.restype = ctypes.c_int
    mallopt(_M_MMAP_THRESHOLD, 4 << 20)
    mallopt(_M_TRIM_THRESHOLD, 16 << 20)


def main(argv=None):
    _pin_allocator()
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (DataError, TrainingError, MetricsError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
