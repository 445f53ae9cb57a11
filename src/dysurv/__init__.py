"""Discrete-time survival estimation with a conditional VAE over static
and longitudinal covariates, plus censoring-aware evaluation."""

from .autodiff import Param, Tape, finite_difference_check
from .data import (
    FeatureSchema,
    QuantileTransform,
    SubjectRecord,
    SurvivalDataset,
    TimeGrid,
    apply_quantile_transform,
    build_time_grid,
    discretize,
    fit_quantile_transform,
    generate_synthetic,
    load_csv,
    save_dataset_csv,
    split_dataset,
)
from .errors import (
    CheckpointCorruptError,
    CheckpointIncompatibleError,
    ConfigError,
    ContractError,
    DomainError,
    DySurvError,
    MetricUndefinedError,
    NoCheckpointError,
    NumericalError,
    ParseError,
    ReferentialError,
    ReproducibilityError,
    SchemaError,
    SearchFailureError,
    WeightDegeneracyError,
)
from .metrics import (
    EvalReport,
    HorizonReport,
    StepFunction,
    SurvivalCurves,
    binomial_ll,
    brier_ipcw,
    concordance_td,
    evaluate_all,
    horizon_binary_metrics,
    horizon_labels,
    integrated_bll,
    integrated_brier,
    km_estimator,
    permutation_importance,
)
from .model import (
    DySurvParams,
    ModelConfig,
    condition_matrix,
    init_dysurv_params,
    loss_total,
    predict_risk_batch,
)
from .pipeline import PreparedData, Predictor, dataset_to_arrays, prepare_splits
from .training import (
    AdamState,
    Checkpoint,
    GridSearchResult,
    GridSearchSpace,
    History,
    MultiSeedReport,
    SplitArrays,
    SplitRecord,
    TrainConfig,
    adam_step,
    fit,
    gradient_check,
    grid_search,
    load_checkpoint,
    multi_seed_report,
    save_checkpoint,
)

__version__ = "0.1.0"
