"""Command-line entry points.

Subcommands: train (tabular), graph (node embeddings), theory (idealized
weight-distribution solver), synth (dataset generator). Options resolve as
command line > config file > built-in default; config files are flat
key=value lines.
"""

import argparse
import ctypes
import json
import math
import sys
import time
from dataclasses import asdict, fields
from pathlib import Path
from typing import Callable, NamedTuple

import numpy as np

from .adversarial import TrainConfig, predict, train
from .data import (
    SplitSpec,
    SynthSpec,
    _data_lines,
    _line_blocks,
    column_statistics,
    load_csv,
    oversample_minority,
    save_csv,
    split_rows,
    synth_gaussian_imbalanced,
    undersample_majority,
)
from .errors import ConfigError, DataError, TrainingError
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
from .metrics import _class_counts, auc_roc, evaluate_binary
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

REFERENCE_NAMES = ", ".join(sorted(REFERENCE_ROWS))

ARCH_PRESETS = {"shallow": (64, 32, 32), "deep": (10, 8, 8, 6, 6, 6)}


def _parse_arch(text):
    key = text.strip().lower()
    if key in ARCH_PRESETS:
        return ARCH_PRESETS[key]
    try:
        dims = tuple(int(tok) for tok in key.split(",") if tok.strip())
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"generator architecture must be 'shallow', 'deep' or comma-separated ints, got {text!r}"
        ) from None
    if not dims or any(d < 1 for d in dims):
        raise argparse.ArgumentTypeError(f"generator hidden widths must be positive, got {text!r}")
    return dims


def _parse_bool(text):
    low = text.strip().lower()
    if low in ("1", "true", "yes", "on"):
        return True
    if low in ("0", "false", "no", "off"):
        return False
    raise argparse.ArgumentTypeError(f"expected a boolean, got {text!r}")


def _bounded(parse, within, what):
    """A converter: parse(text) if it parses and lies within the bound, else ArgumentTypeError naming what."""

    def convert(text):
        try:
            value = parse(text)
        except ValueError:
            pass
        else:
            if within(value):
                return value
        raise argparse.ArgumentTypeError(f"expected {what}, got {text!r}")

    return convert


def _int_at_least(low):
    return _bounded(int, lambda v: v >= low, f"an integer >= {low}")


# for seeds too: numpy's SeedSequence rejects a negative seed with a bare ValueError
nonnegative_int = _int_at_least(0)
positive_int = _int_at_least(1)
open_fraction = _bounded(float, lambda v: 0.0 < v < 1.0, "a number strictly between 0 and 1")
finite_float = _bounded(float, math.isfinite, "a finite number")


class Option(NamedTuple):
    """One setting of a subcommand: build_parser makes its flag, _resolve its value."""

    default: object = None
    convert: Callable = str  # an argparse type; _resolve applies it to the config file's text too
    help: str | None = None
    flags: tuple = ()  # flag names, when not the key's own --key-name
    const: object = None  # if set, the flag takes no value and stores this one


def load_config_file(path):
    """Flat key=value lines, '#' comments: {normalized key: (spelling, line number, value)}; no key twice."""
    path = Path(path)
    if not path.is_file():
        raise ConfigError(f"no such config file: {path}")
    out = {}
    try:
        for start, _, lines in _line_blocks(path):
            for lineno, line in _data_lines(lines, start):
                stripped = line.strip()
                if "=" not in stripped:
                    raise ConfigError(f"{path} line {lineno}: expected key=value, got {stripped!r}")
                spelled, value = (part.strip() for part in stripped.split("=", 1))
                key = spelled.replace("-", "_")
                if key == "lambda":
                    key = "lam"
                if key in out:  # in either spelling: '-' or '_', lam or lambda
                    raise ConfigError(f"{path} line {lineno}: key {spelled!r} repeats {out[key][0]!r} of line "
                                      f"{out[key][1]}")
                out[key] = spelled, lineno, value
    except DataError as exc:  # the reader's: a config file that is not UTF-8 is a bad setting
        raise ConfigError(str(exc)) from None
    return out


def _resolve(args, table):
    """Merge CLI values (argparse defaults are all None), config file, defaults."""
    file_values = load_config_file(args.config) if args.config else {}
    unknown = set(file_values) - set(table)
    if unknown:
        raise ConfigError(f"unknown config keys: {sorted(file_values[key][0] for key in unknown)}")
    opts = {}
    for key, option in table.items():
        cli_value = getattr(args, key)
        if cli_value is not None:
            opts[key] = cli_value
        elif key in file_values:
            try:
                opts[key] = option.convert(file_values[key][2])
            except argparse.ArgumentTypeError as exc:
                raise ConfigError(f"config key {key}: {exc}") from None
        else:
            opts[key] = option.default
    return opts


def _config(cls, opts):
    """cls from its like-named settings; built before any data is read, as it checks them."""
    return cls(**{f.name: opts[f.name] for f in fields(cls)})


def _synth_spec(opts, prefix):
    """SynthSpec from the settings prefix + n, ir, dim and sep, and seed."""
    n, ir, dim, sep = (opts[prefix + key] for key in ("n", "ir", "dim", "sep"))
    return SynthSpec(n_total=n, imbalance_ratio=ir, dim=dim, class_separation=sep, seed=opts["seed"])


def _check_out_dirs(opts, config):
    """Raise before any data is read, not after the run, for output paths that cannot name distinct files.

    An output path may name neither another output nor an input: --data, --edges, --labels or --config.
    """
    key_of = {Path(path).resolve(): key for key, path in {**opts, "config": config}.items()
              if key in ("data", "edges", "labels", "config") and path}
    for key, path in opts.items():
        if (key == "out" or key.startswith("out_")) and path:
            if Path(path).is_dir():
                raise DataError(f"cannot write {path}: it is a directory")
            if not Path(path).parent.is_dir():
                raise DataError(f"cannot write {path}: no such directory {Path(path).parent}")
            other = key_of.setdefault(Path(path).resolve(), key)
            if other != key:  # the file written last would silently replace the other
                raise DataError(f"--{other.replace('_', '-')} and --{key.replace('_', '-')} both name {path}")


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
def _train_config_options(batch_size=TrainConfig.batch_size, eta_d=TrainConfig.eta_d, eta_g=TrainConfig.eta_g,
                          gamma=TrainConfig.gamma):
    """The settings of the adversarial loop and its generator, which train and graph share.

    The defaults a command sets are arguments here; the rest are TrainConfig's.
    """
    return {
        "batch_size": Option(batch_size, positive_int),
        "pretrain_iters": Option(TrainConfig.pretrain_iters, nonnegative_int),
        "train_iters": Option(TrainConfig.train_iters, nonnegative_int),
        "eta_d": Option(eta_d, finite_float),
        "eta_g": Option(eta_g, finite_float),
        "gamma": Option(gamma, finite_float),
        "lam": Option(TrainConfig.lam, finite_float, flags=("--lam", "--lambda")),
        "gen_arch": Option(ARCH_PRESETS["shallow"], _parse_arch,
                           "'shallow', 'deep' or comma-separated hidden widths"),
    }


TRAIN_OPTIONS = {
    "seed": Option(TrainConfig.seed, nonnegative_int),
    "data": Option(help="CSV with a header row and a label column"),
    "label_column": Option("label"),
    "positive_label": Option("1"),
    "synth": Option(False, _parse_bool, "train on a generated Gaussian dataset instead of --data",
                    const=True),
    "synth_n": Option(SynthSpec.n_total, _int_at_least(3)),
    "synth_ir": Option(SynthSpec.imbalance_ratio, finite_float),
    "synth_dim": Option(SynthSpec.dim, positive_int),
    "synth_sep": Option(SynthSpec.class_separation, finite_float),
    **_train_config_options(),
    "standardize": Option(True, _parse_bool, flags=("--no-standardize",), const=False),
    "eval_every": Option(0, nonnegative_int, "validation AUC checkpoint interval"),
    "reference": Option(None, _bounded(str, REFERENCE_ROWS.__contains__, "one of " + REFERENCE_NAMES),
                        "print a published benchmark row next to this run: one of " + REFERENCE_NAMES),
    "out_report": Option(help="write the JSON report here as well as stdout"),
    "out_trace": Option(help="write per-iteration losses as CSV"),
}


def cmd_train(args):
    opts = _resolve(args, TRAIN_OPTIONS)
    if bool(opts["data"]) == bool(opts["synth"]):
        raise ConfigError("provide exactly one of --data or --synth")
    config = _config(TrainConfig, opts)
    _check_out_dirs(opts, args.config)
    started = time.monotonic()
    if opts["synth"]:
        data = synth_gaussian_imbalanced(_synth_spec(opts, "synth_"))
    else:
        data = load_csv(opts["data"], opts["label_column"], opts["positive_label"])
    # one table from here on: the split parts and the baselines are row indices into it
    train_rows, val_rows, test_rows = split_rows(data.labels, SplitSpec(seed=opts["seed"]))
    train_labels, val_labels, test_labels = (data.labels[rows] for rows in (train_rows, val_rows, test_rows))
    if opts["standardize"]:
        # the whole table in place, by the training rows' statistics
        mean, std = column_statistics(data.features, train_rows)
        data.features -= mean
        data.features /= std
    val_features = data.features[val_rows]  # after the standardisation: every checkpoint and the report score it

    def val_auc_checkpoint(iteration, disc):
        return {"iteration": int(iteration), "val_auc": auc_roc(predict(disc, val_features), val_labels)}

    resample_seeds = np.random.SeedSequence(opts["seed"]).spawn(2)
    # warm-up-only baselines on resampled training rows; train fits the pretraining-only one itself, first
    baselines = {
        "undersample_baseline": train_rows[
            undersample_majority(train_labels, np.random.default_rng(resample_seeds[0]))
        ],
        "oversample_baseline": train_rows[
            oversample_minority(train_labels, np.random.default_rng(resample_seeds[1]))
        ],
    }
    adv_disc, _, trace, baseline_discs = train(
        config,
        data,
        gen_spec=opts["gen_arch"],
        checkpoint=(opts["eval_every"], val_auc_checkpoint) if opts["eval_every"] else None,
        baselines=baselines.values(),
        rows=train_rows,
    )
    models = {"adversarial": adv_disc, **dict(zip(["pretrain_baseline", *baselines], baseline_discs))}
    parts = {"validation": (val_features, val_labels), "test": (data.features[test_rows], test_labels)}
    evaluations = {name: {part: evaluate_binary(predict(disc, x), labels) for part, (x, labels) in parts.items()}
                   for name, disc in models.items()}
    train_pos, train_neg = _class_counts(train_labels)
    report = {
        "config": {
            **asdict(config),
            **{k: opts[k] for k in ("standardize", "eval_every")},
            "gen_arch": list(opts["gen_arch"]),
            "source": opts["data"] or {
                key: opts[key] for key in ("synth_n", "synth_ir", "synth_dim", "synth_sep")
            },
        },
        "data": {
            "n_train": len(train_rows),
            "n_val": len(val_rows),
            "n_test": len(test_rows),
            "n_features": data.n_features,
            "train_pos": train_pos,
            "train_neg": train_neg,
        },
        "models": evaluations,
        "trace_summary": _trace_summary(trace),
        "checkpoints": trace.checkpoints,
        "wall_clock_sec": round(time.monotonic() - started, 3),
    }
    reference = opts["reference"]
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
    **_train_config_options(batch_size=1024, eta_d=1e-3, eta_g=1e-5, gamma=1e-3),
    "label_train_frac": Option(0.9, open_fraction),
    "label_shuffles": Option(10, positive_int),
    "out_embeddings": Option(),
    "out_report": Option(),
}


def cmd_graph(args):
    opts = _resolve(args, GRAPH_OPTIONS)
    if not opts["edges"]:
        raise ConfigError("--edges is required")
    config = _config(TrainConfig, opts)
    _check_out_dirs(opts, args.config)
    started = time.monotonic()
    graph = load_edge_list(opts["edges"])
    train_edges, test_pos, test_neg = split_edges(graph, opts["test_frac"], opts["seed"])
    if opts["labels"]:
        # a bad label file or probe setting fails here, not after training
        node_labels = load_node_labels(opts["labels"], n_nodes=graph.n_nodes)
        if node_labels.shape[1] < 2:
            raise DataError(f"{opts['labels']}: one class only; the label probes need at least two")
        check_probe_settings(node_labels, graph.n_nodes, opts["label_train_frac"], opts["label_shuffles"])
    disc, _, trace = train_graph(
        config, graph, train_edges, dim=opts["dim"], gen_hidden=opts["gen_arch"]
    )
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
        "link_prediction": link_predict_eval(disc, test_pos, test_neg),
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
    "k": Option(3, _int_at_least(2), "number of support points"),
    "lam": Option(TheoryConfig.lam, finite_float, flags=("--lam", "--lambda")),
    "p_plus": Option("uniform", str, "'uniform', 'random' or comma-separated probabilities"),
    "max_iters": Option(TheoryConfig.max_iters, positive_int),
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
    if not (np.all(values > 0) and abs(values.sum() - 1.0) <= 1e-6):
        raise ConfigError("--p-plus entries must be positive and sum to 1")
    return values / values.sum()


def cmd_theory(args):
    opts = _resolve(args, THEORY_OPTIONS)
    p_plus = _build_p_plus(opts["p_plus"], opts["k"], opts["seed"])
    config = _config(TheoryConfig, opts)
    _check_out_dirs(opts, args.config)
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
    "n": Option(SynthSpec.n_total, _int_at_least(3)),
    "ir": Option(SynthSpec.imbalance_ratio, finite_float),
    "dim": Option(SynthSpec.dim, positive_int),
    "sep": Option(SynthSpec.class_separation, finite_float),
    "out": Option(),
}


def cmd_synth(args):
    opts = _resolve(args, SYNTH_OPTIONS)
    if not opts["out"]:
        raise ConfigError("--out is required")
    spec = _synth_spec(opts, "")
    _check_out_dirs(opts, args.config)
    data = synth_gaussian_imbalanced(spec)
    save_csv(opts["out"], data)
    n_pos, n_neg = _class_counts(data.labels)
    print(f"wrote {opts['out']}: positives={n_pos} negatives={n_neg}")
    return 0


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
            kind = {"type": option.convert}
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


# numpy raises these ValueErrors, not MemoryError, for a shape whose byte count no address can reach
_UNALLOCATABLE = ("Maximum allowed dimension exceeded", "array is too big;")


def main(argv=None):
    _pin_allocator()
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (DataError, TrainingError, OSError, MemoryError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except ValueError as exc:
        if not str(exc).startswith(_UNALLOCATABLE):  # any other ValueError is a fault of the program
            raise
        print(f"error: cannot allocate: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
