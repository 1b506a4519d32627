"""Command-line entry points.

Subcommands: train (tabular), graph (node embeddings), theory (idealized
weight-distribution solver), synth (dataset generator). Options resolve as
command line > config file > built-in default; config files are flat
key=value lines.
"""

import argparse
import json
import sys
import time
from pathlib import Path

import numpy as np

from .adversarial import TrainConfig, predict, train, train_pretrain_only
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
    if isinstance(text, tuple):
        return text
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
    if isinstance(text, bool):
        return text
    low = str(text).strip().lower()
    if low in ("1", "true", "yes", "on"):
        return True
    if low in ("0", "false", "no", "off"):
        return False
    raise ConfigError(f"expected a boolean, got {text!r}")


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


def _resolve(args, schema):
    """Merge CLI values (argparse defaults are all None), config file, defaults."""
    file_values = load_config_file(args.config) if getattr(args, "config", None) else {}
    unknown = set(file_values) - set(schema)
    if unknown:
        raise ConfigError(f"unknown config keys: {sorted(unknown)}")
    opts = {}
    for key, (convert, default) in schema.items():
        cli_value = getattr(args, key, None)
        if cli_value is not None:
            opts[key] = cli_value
        elif key in file_values:
            try:
                opts[key] = convert(file_values[key])
            except (ValueError, TypeError):
                raise ConfigError(f"config key {key}: cannot parse {file_values[key]!r}") from None
        else:
            opts[key] = default
    return opts


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


TRAIN_SCHEMA = {
    "data": (str, None),
    "label_column": (str, "label"),
    "positive_label": (str, "1"),
    "synth": (_parse_bool, False),
    "synth_n": (int, 5000),
    "synth_ir": (float, 50.0),
    "synth_dim": (int, 2),
    "synth_sep": (float, 2.0),
    "seed": (int, 0),
    "batch_size": (int, 64),
    "pretrain_iters": (int, 200),
    "train_iters": (int, 500),
    "eta_d": (float, 0.05),
    "eta_g": (float, 0.05),
    "gamma": (float, None),
    "lam": (float, 0.1),
    "gen_arch": (_parse_arch, ARCH_PRESETS["shallow"]),
    "standardize": (_parse_bool, True),
    "eval_every": (int, 0),
    "reference": (str, None),
    "out_report": (str, None),
    "out_trace": (str, None),
}


def cmd_train(args):
    opts = _resolve(args, TRAIN_SCHEMA)
    if bool(opts["data"]) == bool(opts["synth"]):
        raise ConfigError("provide exactly one of --data or --synth")
    # argparse's choices cover only the flag, not a config file's value
    reference = opts["reference"]
    if reference and reference not in REFERENCE_ROWS:
        raise ConfigError(f"unknown reference row {reference!r}; choices: {sorted(REFERENCE_ROWS)}")
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
    config = TrainConfig(
        batch_size=opts["batch_size"],
        pretrain_iters=opts["pretrain_iters"],
        train_iters=opts["train_iters"],
        eta_d=opts["eta_d"],
        eta_g=opts["eta_g"],
        gamma=opts["gamma"],
        lam=opts["lam"],
        seed=opts["seed"],
    )

    def val_auc_checkpoint(iteration, disc):
        report = evaluate_binary(predict(disc, val_set.features), val_set.labels)
        return {"iteration": int(iteration), "val_auc": report.auc}

    adv_disc, _, trace = train(
        config,
        train_set,
        gen_spec=opts["gen_arch"],
        checkpoint_every=opts["eval_every"],
        checkpoint_fn=val_auc_checkpoint if opts["eval_every"] else None,
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
    models = {"adversarial": adv_disc}
    for name, fit_set in baselines.items():
        models[name], _ = train_pretrain_only(config, fit_set)
    evaluations = {}
    for name, disc in models.items():
        evaluations[name] = {
            "validation": evaluate_binary(predict(disc, val_set.features), val_set.labels).to_dict(),
            "test": evaluate_binary(predict(disc, test_set.features), test_set.labels).to_dict(),
        }
    report = {
        "config": {
            **{k: opts[k] for k in (
                "seed", "batch_size", "pretrain_iters", "train_iters",
                "eta_d", "eta_g", "lam", "standardize", "eval_every",
            )},
            "gamma": config.gamma,
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
        "trace_summary": {
            "final_d_loss": trace.d_loss[-1] if trace.d_loss else None,
            "final_g_loss": trace.g_loss[-1] if trace.g_loss else None,
            "final_weight_entropy": trace.weight_entropy[-1] if trace.weight_entropy else None,
        },
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


GRAPH_SCHEMA = {
    "edges": (str, None),
    "labels": (str, None),
    "test_frac": (float, 0.1),
    "dim": (int, 20),
    "seed": (int, 0),
    "batch_size": (int, 1024),
    "pretrain_iters": (int, 200),
    "train_iters": (int, 500),
    "eta_d": (float, 1e-3),
    "eta_g": (float, 1e-5),
    "gamma": (float, 1e-3),
    "lam": (float, 0.1),
    "gen_arch": (_parse_arch, ARCH_PRESETS["shallow"]),
    "label_train_frac": (float, 0.9),
    "label_shuffles": (int, 10),
    "out_embeddings": (str, None),
    "out_report": (str, None),
}


def cmd_graph(args):
    opts = _resolve(args, GRAPH_SCHEMA)
    if not opts["edges"]:
        raise ConfigError("--edges is required")
    started = time.monotonic()
    graph = load_edge_list(opts["edges"])
    train_edges, test_pos, test_neg = split_edges(graph, opts["test_frac"], opts["seed"])
    if opts["labels"]:
        # a bad label file or probe setting fails here, not after training
        node_labels = load_node_labels(opts["labels"], n_nodes=graph.n_nodes)
        check_probe_settings(node_labels, graph.n_nodes, opts["label_train_frac"], opts["label_shuffles"])
    config = TrainConfig(
        batch_size=opts["batch_size"],
        pretrain_iters=opts["pretrain_iters"],
        train_iters=opts["train_iters"],
        eta_d=opts["eta_d"],
        eta_g=opts["eta_g"],
        gamma=opts["gamma"],
        lam=opts["lam"],
        seed=opts["seed"],
    )
    disc, _, trace = train_graph(
        config, graph, train_edges, dim=opts["dim"], gen_hidden=opts["gen_arch"]
    )
    link_report = link_predict_eval(disc, test_pos, test_neg)
    report = {
        "config": {
            **{k: opts[k] for k in (
                "seed", "batch_size", "pretrain_iters", "train_iters",
                "eta_d", "eta_g", "gamma", "lam", "dim", "test_frac",
            )},
            "gen_arch": list(opts["gen_arch"]),
            "edges": opts["edges"],
        },
        "graph": {
            "n_nodes": graph.n_nodes,
            "n_edges": graph.n_edges,
            "n_train_edges": len(train_edges),
            "n_test_edges": len(test_pos),
        },
        "link_prediction": link_report.to_dict(),
        "trace_summary": {
            "final_d_loss": trace.d_loss[-1] if trace.d_loss else None,
            "final_weight_entropy": trace.weight_entropy[-1] if trace.weight_entropy else None,
        },
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


THEORY_SCHEMA = {
    "k": (int, 3),
    "lam": (float, 0.0),
    "p_plus": (str, "uniform"),
    "seed": (int, 0),
    "max_iters": (int, 200_000),
    "step": (float, 1.0),
    "tol": (float, 1e-12),
    "out": (str, None),
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
    opts = _resolve(args, THEORY_SCHEMA)
    if opts["k"] < 2:
        raise ConfigError("k must be >= 2")
    p_plus = _build_p_plus(opts["p_plus"], opts["k"], opts["seed"])
    config = TheoryConfig(
        lam=opts["lam"], max_iters=opts["max_iters"], step=opts["step"], tol=opts["tol"]
    )
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


SYNTH_SCHEMA = {
    "n": (int, 5000),
    "ir": (float, 50.0),
    "dim": (int, 2),
    "sep": (float, 2.0),
    "seed": (int, 0),
    "out": (str, None),
}


def cmd_synth(args):
    opts = _resolve(args, SYNTH_SCHEMA)
    if not opts["out"]:
        raise ConfigError("--out is required")
    spec = SynthSpec(
        n_total=opts["n"],
        imbalance_ratio=opts["ir"],
        dim=opts["dim"],
        class_separation=opts["sep"],
        seed=opts["seed"],
    )
    data = synth_gaussian_imbalanced(spec)
    save_csv(opts["out"], data)
    print(f"wrote {opts['out']}: positives={data.n_pos} negatives={data.n_neg}")
    return 0


def _add_common(sub):
    sub.add_argument("--config", help="flat key=value settings file")
    sub.add_argument("--seed", type=int)


def build_parser():
    parser = argparse.ArgumentParser(
        prog="advclf",
        description="Adversarially re-weighted training for imbalanced binary classification.",
    )
    subs = parser.add_subparsers(dest="command", required=True)

    p_train = subs.add_parser("train", help="train on tabular data against three baselines")
    _add_common(p_train)
    p_train.add_argument("--data", help="CSV with a header row and a label column")
    p_train.add_argument("--label-column")
    p_train.add_argument("--positive-label")
    p_train.add_argument("--synth", action="store_const", const=True, default=None,
                         help="train on a generated Gaussian dataset instead of --data")
    p_train.add_argument("--synth-n", type=int)
    p_train.add_argument("--synth-ir", type=float)
    p_train.add_argument("--synth-dim", type=int)
    p_train.add_argument("--synth-sep", type=float)
    p_train.add_argument("--batch-size", type=int)
    p_train.add_argument("--pretrain-iters", type=int)
    p_train.add_argument("--train-iters", type=int)
    p_train.add_argument("--eta-d", type=float)
    p_train.add_argument("--eta-g", type=float)
    p_train.add_argument("--gamma", type=float)
    p_train.add_argument("--lam", "--lambda", dest="lam", type=float)
    p_train.add_argument("--gen-arch", type=_parse_arch,
                         help="'shallow', 'deep' or comma-separated hidden widths")
    p_train.add_argument("--no-standardize", action="store_const", const=False,
                         dest="standardize", default=None)
    p_train.add_argument("--eval-every", type=int, help="validation AUC checkpoint interval")
    p_train.add_argument("--reference", choices=sorted(REFERENCE_ROWS),
                         help="print a published benchmark row next to this run")
    p_train.add_argument("--out-report", help="write the JSON report here as well as stdout")
    p_train.add_argument("--out-trace", help="write per-iteration losses as CSV")
    p_train.set_defaults(func=cmd_train)

    p_graph = subs.add_parser("graph", help="learn node embeddings from an edge list")
    _add_common(p_graph)
    p_graph.add_argument("--edges", help="edge list file, two integer ids per line")
    p_graph.add_argument("--labels", help="optional node label file for classification probes")
    p_graph.add_argument("--test-frac", type=float)
    p_graph.add_argument("--dim", type=int)
    p_graph.add_argument("--batch-size", type=int)
    p_graph.add_argument("--pretrain-iters", type=int)
    p_graph.add_argument("--train-iters", type=int)
    p_graph.add_argument("--eta-d", type=float)
    p_graph.add_argument("--eta-g", type=float)
    p_graph.add_argument("--gamma", type=float)
    p_graph.add_argument("--lam", "--lambda", dest="lam", type=float)
    p_graph.add_argument("--gen-arch", type=_parse_arch)
    p_graph.add_argument("--label-train-frac", type=float)
    p_graph.add_argument("--label-shuffles", type=int)
    p_graph.add_argument("--out-embeddings")
    p_graph.add_argument("--out-report")
    p_graph.set_defaults(func=cmd_graph)

    p_theory = subs.add_parser(
        "theory", help="solve the idealized weight-distribution problem numerically"
    )
    _add_common(p_theory)
    p_theory.add_argument("--k", type=int, help="number of support points")
    p_theory.add_argument("--lam", "--lambda", dest="lam", type=float)
    p_theory.add_argument("--p-plus", help="'uniform', 'random' or comma-separated probabilities")
    p_theory.add_argument("--max-iters", type=int)
    p_theory.add_argument("--step", type=float)
    p_theory.add_argument("--tol", type=float)
    p_theory.add_argument("--out", help="write the JSON result here as well as stdout")
    p_theory.set_defaults(func=cmd_theory)

    p_synth = subs.add_parser("synth", help="write a synthetic imbalanced CSV dataset")
    _add_common(p_synth)
    p_synth.add_argument("--n", type=int)
    p_synth.add_argument("--ir", type=float)
    p_synth.add_argument("--dim", type=int)
    p_synth.add_argument("--sep", type=float)
    p_synth.add_argument("--out")
    p_synth.set_defaults(func=cmd_synth)
    return parser


def main(argv=None):
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
