"""Treatment-effect estimation with propensity-aware neural outcome models.

Three architectures (dragonnet, tarnet, nednet) share a small numpy
training stack; a fluctuation parameter can target the training loss at
the average-effect functional; downstream estimators (plug-in, A-IPTW,
TMLE and the trained-fluctuation plug-in) run over trimmed propensity
scores.  `bench` replicates experiments over seeds and compares methods.
"""

from types import ModuleType as _ModuleType

from .blas import blas_threads  # sets OpenBLAS to one thread for the process
from .bench import (
    DEFAULT_GRID,
    DEFAULT_TRUNCATION_LEVELS,
    ExperimentConfig,
    ExperimentResult,
    GridResult,
    ImprovementStats,
    RunResult,
    SummaryRow,
    SummaryTable,
    compare_methods,
    emit_report,
    emit_sweep_report,
    format_summary,
    format_truncation_table,
    load_report,
    make_dataset,
    paired_headline_errors,
    run_experiment,
    run_grid,
    run_replication,
    subsample_sweep,
    summarize,
    truncation_sweep,
)
from .datagen import (
    Dataset,
    SplitIndices,
    SplitSpec,
    gen_dgp_ihdp_like,
    gen_dgp_irrelevant,
    gen_dgp_lin,
    load_csv,
    split,
    write_csv,
)
from .errors import (
    ConfigError,
    EstimationError,
    IngestionError,
    NumericDomainError,
    NumericError,
    ShapeError,
    TrainingDivergedError,
    UsageError,
)
from .estimators import (
    ESTIMATOR_TAGS,
    TAG_AIPTW,
    TAG_Q,
    TAG_TMLE,
    TAG_TREG,
    EstimateReport,
    InfluenceValues,
    TrimResult,
    apply_estimators,
    diff_in_means,
    influence_curve,
    overlap_flag,
    propensity_accuracy,
    psi_aiptw,
    psi_q,
    psi_tmle,
    psi_treg,
    stationary_epsilon,
    trim,
)
from .models import (
    ARCHITECTURES,
    FittedModel,
    Scaler,
    load_checkpoint,
    save_checkpoint,
)
from .objectives import (
    LossBreakdown,
    cross_entropy_term,
    h_values,
    select_observed,
    squared_error_term,
    treg_term,
)
from .train import TrainConfig, train_architecture, train_dragonnet

__version__ = "0.1.0"

# Every public name imported above; the submodules themselves are not exported.
__all__ = [name for name, value in globals().items()
           if not name.startswith("_") and not isinstance(value, _ModuleType)]
