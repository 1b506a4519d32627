"""Adversarial re-weighting for imbalanced binary classification.

A generator network assigns a weight distribution over majority-class
samples; the discriminator trains against the re-weighted batches and is
the final classifier. Subpackages cover tabular training, node-embedding
learning on graphs, and a numerical solver for the idealized
weight-distribution problem.
"""

from .adversarial import (
    TrainConfig,
    TrainTrace,
    predict,
    train,
    train_pretrain_only,
)
from .data import (
    LabeledDataset,
    SplitSpec,
    SynthSpec,
    load_csv,
    save_csv,
    split_dataset,
    standardize,
    synth_gaussian_imbalanced,
)
from .errors import ConfigError, DataError, MetricsError, TrainingError
from .metrics import MetricsReport, auc_roc, evaluate_binary
from .theory import TheoryConfig, fixed_point_residual, minimize_generator

__version__ = "0.1.0"

__all__ = [
    "ConfigError",
    "DataError",
    "LabeledDataset",
    "MetricsError",
    "MetricsReport",
    "SplitSpec",
    "SynthSpec",
    "TheoryConfig",
    "TrainConfig",
    "TrainTrace",
    "TrainingError",
    "auc_roc",
    "evaluate_binary",
    "fixed_point_residual",
    "load_csv",
    "minimize_generator",
    "predict",
    "save_csv",
    "split_dataset",
    "standardize",
    "synth_gaussian_imbalanced",
    "train",
    "train_pretrain_only",
]
