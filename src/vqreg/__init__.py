"""Variational quantum regression toolkit: amplitude-encoded data tables,
a cosine-parameterized regression map whose angles are the model weights,
exact/shot/noisy/shadow cost estimation, and bootstrap-ensemble training."""

from .circuit import (
    PhaseVector,
    WeightVector,
    analytic_cost,
    analytic_gradient,
    apply_regression_map,
    phases_from_cosines,
    phases_to_weights,
    regression_map_state,
)
from .data import (
    BootstrapPlan,
    DigitizedTable,
    RawTable,
    StandardizedTable,
    SyntheticSpec,
    bootstrap_batch,
    build_power_features,
    digitize,
    generate_linear_synthetic,
    load_csv,
    power_feature_table,
    save_csv,
    save_results_json,
    standardize,
)
from .encoders import (
    COMPACT_BINARY,
    ONE_HOT,
    EncodingLayout,
    PreparedState,
    chain_angles,
    compact_from_exact_values,
    make_layout,
    memory_free_compact,
    prepare_compact_with_memory,
    prepare_exact,
    prepare_one_hot_chain,
)
from .measurement import (
    CostEstimate,
    ModelMetrics,
    ShadowConfig,
    ShotBudget,
    exact_expectation,
    model_metrics,
    operator_identity_check,
    pauli_shadow_estimate,
    required_shots,
    shadow_snapshot_budget,
    shot_estimate_compact,
    shot_estimate_one_hot,
)
from .resources import ResourceEstimate, estimate, shot_cost_ratio, sweep_shot_cost_ratio
from .statevector import StateVector, sample_bitstrings
from .trainer import (
    EnsembleResult,
    FitResult,
    RegularizationParams,
    TrainConfig,
    fit,
    fit_ensemble,
    fit_nonlinear_sin_demo,
    fit_raw_table,
    nelder_mead,
)

__version__ = "0.1.0"
