"""domex: source-free multi-source domain expansion for dense classifiers.

Given several classifiers pre-trained on separate source domains and an
unlabelled sample of a new domain, the package aligns the models' predictive
behaviour on the new domain while preserving what each learned originally,
then fuses them into a single classifier covering all domains at once. The
original training data is never touched.
"""

from .errors import (
    ConfigError,
    DomexError,
    InputError,
    NumericError,
    ParameterError,
    ParseError,
)
from .expansion import (
    EnsembleState,
    Hyperparams,
    WeightVector,
    bias_loss,
    compute_weights,
    expand,
    mean_entropy,
    overall_loss,
    preservation_loss,
)
from .fusion import (
    EvaluationReport,
    PredictionBatch,
    accuracy,
    evaluate_expanded,
    expanded_accuracy,
    fuse,
    fuse_baseline,
    fuse_m1,
    fuse_m2,
    format_results_table,
    softmax_outputs,
)
from .nn import (
    DenseLayer,
    ForwardCache,
    MlpModel,
    OptimizerState,
    backward,
    cross_entropy,
    cross_entropy_gradient,
    finite_diff_gradient,
    fit_classifier,
    forward_logits,
    init_mlp,
    load_model,
    log_softmax,
    save_model,
    sgd_step,
    softmax_temperature,
    softmax_temperature_backward,
)

__version__ = "0.1.0"

__all__ = [
    "ConfigError",
    "DomexError",
    "InputError",
    "NumericError",
    "ParameterError",
    "ParseError",
    "EnsembleState",
    "Hyperparams",
    "WeightVector",
    "bias_loss",
    "compute_weights",
    "expand",
    "mean_entropy",
    "overall_loss",
    "preservation_loss",
    "EvaluationReport",
    "PredictionBatch",
    "accuracy",
    "evaluate_expanded",
    "expanded_accuracy",
    "fuse",
    "fuse_baseline",
    "fuse_m1",
    "fuse_m2",
    "format_results_table",
    "softmax_outputs",
    "DenseLayer",
    "ForwardCache",
    "MlpModel",
    "OptimizerState",
    "backward",
    "cross_entropy",
    "cross_entropy_gradient",
    "finite_diff_gradient",
    "fit_classifier",
    "forward_logits",
    "init_mlp",
    "load_model",
    "log_softmax",
    "save_model",
    "sgd_step",
    "softmax_temperature",
    "softmax_temperature_backward",
    "__version__",
]
