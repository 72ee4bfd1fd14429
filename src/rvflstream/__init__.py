"""Streaming class-incremental learning with random-feature ensembles.

An ensemble of deep random-feature networks whose output heads are the
only trained parameters. Heads update in closed form from one batch at
a time under a forward-looking regularizer whose strength can be fixed
or chosen adaptively per batch, and the package ships the surrounding
benchmark harness: boundary-free task streams, continual-learning
metrics, baselines, and a config-driven runner.
"""

from .errors import ConfigError, ContractError, FormatError, NumericalFailure
from .learners import (
    BASELINE_KINDS,
    AdaptiveKTrace,
    ContinualModel,
    RegStyle,
    SubLearnerState,
    compute_adaptive_k,
    fit_baseline,
    step_kf,
    step_kf_bayes,
    step_ridge,
)
from .metrics import (
    AccuracyMatrix,
    ImmediateMetrics,
    Targets,
    TraceSeries,
    compute_acc,
    compute_bwt,
    compute_fwt,
    immediate_accuracy,
    immediate_kl,
    immediate_metrics,
    immediate_regret,
)
from .network import (
    ACTIVATIONS,
    FeatureBatch,
    NetworkConfig,
    RandomWeights,
    extract_features,
    fuse_probs,
    init_random_weights,
    softmax,
)
from .solvers import (
    OfflineSolution,
    offline_kf_fit,
    offline_ridge_fit,
    solve_spd,
    woodbury_update,
)
from .stream import (
    BatchStream,
    LabeledDataset,
    StreamBatch,
    Task,
    TaskSplitSpec,
    batchify,
    load_csv_features,
    load_idx,
    make_gaussian_dataset,
    one_hot,
    split_class_incremental,
)
from .runner import (
    RunConfig,
    RunReport,
    bake_synthetic,
    compare_styles,
    emit_report,
    load_config,
    run_experiment,
    validate_config,
    with_seed_offset,
)

__version__ = "0.1.0"

__all__ = [
    "ACTIVATIONS",
    "AccuracyMatrix",
    "AdaptiveKTrace",
    "BASELINE_KINDS",
    "BatchStream",
    "ConfigError",
    "ContinualModel",
    "ContractError",
    "FeatureBatch",
    "FormatError",
    "ImmediateMetrics",
    "LabeledDataset",
    "NetworkConfig",
    "NumericalFailure",
    "OfflineSolution",
    "RandomWeights",
    "RegStyle",
    "RunConfig",
    "RunReport",
    "StreamBatch",
    "SubLearnerState",
    "Task",
    "TaskSplitSpec",
    "Targets",
    "TraceSeries",
    "bake_synthetic",
    "batchify",
    "compare_styles",
    "compute_acc",
    "compute_adaptive_k",
    "compute_bwt",
    "compute_fwt",
    "emit_report",
    "extract_features",
    "fit_baseline",
    "fuse_probs",
    "immediate_accuracy",
    "immediate_kl",
    "immediate_metrics",
    "immediate_regret",
    "init_random_weights",
    "load_config",
    "load_csv_features",
    "load_idx",
    "make_gaussian_dataset",
    "offline_kf_fit",
    "offline_ridge_fit",
    "one_hot",
    "run_experiment",
    "softmax",
    "solve_spd",
    "split_class_incremental",
    "step_kf",
    "step_kf_bayes",
    "step_ridge",
    "validate_config",
    "with_seed_offset",
    "woodbury_update",
]
