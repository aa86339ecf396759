"""Synthetic perinatal cohorts, record linkage, and label-noise-aware training."""

__version__ = "0.1.0"

from .bench import (
    BenchmarkConfig,
    BenchmarkReport,
    Corpus,
    build_corpus,
    calibrate_noise,
    derive_seed,
    repeated_benchmark,
)
from .linkage import LinkSet, MatchCandidate, derive_noisy_labels, link_accuracy, match_newborns
from .metrics import auc, pr_auc
from .net import Batch, ModelParams, NetDims, backward, forward, init_params, predict_probs
from .noise import CorruptionMatrix, corruption_layer, estimate_corruption_matrix
from .records import (
    CodeVocabulary,
    DatasetSplit,
    Label,
    LabeledExample,
    PatientRecord,
    Visit,
    load_examples,
    load_records,
    save_examples,
    save_records,
)
from .synth import ClericalNoiseModel, SynthConfig, build_datasets, generate_cohort
from .train import TrainConfig, TrainMethod, plan_epochs, train

__all__ = [
    "BenchmarkConfig",
    "BenchmarkReport",
    "Batch",
    "ClericalNoiseModel",
    "CodeVocabulary",
    "Corpus",
    "CorruptionMatrix",
    "DatasetSplit",
    "Label",
    "LabeledExample",
    "LinkSet",
    "MatchCandidate",
    "ModelParams",
    "NetDims",
    "PatientRecord",
    "SynthConfig",
    "TrainConfig",
    "TrainMethod",
    "Visit",
    "auc",
    "backward",
    "build_corpus",
    "build_datasets",
    "calibrate_noise",
    "corruption_layer",
    "derive_noisy_labels",
    "derive_seed",
    "estimate_corruption_matrix",
    "forward",
    "generate_cohort",
    "init_params",
    "link_accuracy",
    "load_examples",
    "load_records",
    "match_newborns",
    "plan_epochs",
    "pr_auc",
    "predict_probs",
    "repeated_benchmark",
    "save_examples",
    "save_records",
    "train",
]
