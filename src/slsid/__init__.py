"""Stochastic realization and identification of linear switched systems
with independent, identically distributed switching.

The pipeline: simulate (or load) a switched time series, estimate the
word-indexed output/input covariances, realize a minimal innovation-form
model from them by a switched Ho-Kalman step plus a per-mode gain/variance
equation, and validate through the one-step-ahead innovation predictor.
"""
from .algebra import (
    EMPTY_WORD,
    Selection,
    Word,
    WordIndexedMatrixTable,
    build_hankel,
    enumerate_words,
    required_words,
    word_probability,
)
from .covariance import (
    CovarianceTable,
    empirical_covariances,
    exact_covariances,
)
from .errors import (
    ConfigError,
    DimensionError,
    InsufficientDataError,
    InvalidModeError,
    InvalidProbabilityError,
    MissingMarkovParameterError,
    ModelInvalidError,
    NoSelectionFoundError,
    NonConvergenceError,
    NotFullRankError,
    NotIsomorphicError,
    NumericalError,
    SingularHankelError,
    SlsidError,
    UndefinedBfrError,
)
from .identify import (
    IdentConfig,
    ValidationReport,
    bfr,
    identify,
    predict,
    resolve_p,
    resolve_selections,
    validate_model,
)
from .model import (
    DeterministicModel,
    InnovationModel,
    SwitchedModel,
    find_isomorphism,
    markov_parameter,
    model_from_dict,
    stability_margin,
    transform_model,
)
from .realize import (
    associated_dlss,
    associated_slss,
    covariance_realization,
    ho_kalman,
    input_state_second_moment,
    iter_full_rank_selections,
    lambda_ydyd,
    psi_uy,
    state_second_moment,
)
from .simulate import Dataset, SimConfig, load_series_csv, sample_switching, simulate

__version__ = "0.1.0"

__all__ = [
    "__version__",
    # algebra
    "Word", "EMPTY_WORD", "Selection", "WordIndexedMatrixTable",
    "word_probability", "enumerate_words", "required_words", "build_hankel",
    # model
    "DeterministicModel", "SwitchedModel", "InnovationModel",
    "model_from_dict", "markov_parameter", "stability_margin",
    "transform_model", "find_isomorphism",
    # simulate
    "Dataset", "SimConfig", "simulate", "sample_switching", "load_series_csv",
    # covariance
    "CovarianceTable", "empirical_covariances", "exact_covariances",
    # realize
    "state_second_moment", "input_state_second_moment", "ho_kalman",
    "associated_dlss", "associated_slss", "psi_uy", "lambda_ydyd",
    "covariance_realization", "iter_full_rank_selections",
    # identify
    "IdentConfig", "identify", "resolve_selections", "resolve_p", "predict", "bfr",
    "ValidationReport", "validate_model",
    # errors
    "SlsidError", "ConfigError", "InvalidModeError", "InvalidProbabilityError",
    "DimensionError", "ModelInvalidError", "MissingMarkovParameterError",
    "InsufficientDataError", "UndefinedBfrError", "NumericalError",
    "SingularHankelError", "NonConvergenceError", "NotFullRankError",
    "NoSelectionFoundError", "NotIsomorphicError",
]
