"""Implicit regression over the basis {1, x, y, x*y}.

Rotation and non-response analysis for bivariate data with random error
in both coordinates: constancy detection, bidirectional prediction,
fit-quality geometry, and the ranked model comparison.
"""

from .compare import (
    BOYLE_MODEL_TEXTS,
    COMPARISON_MODEL_TEXTS,
    BoyleSummary,
    ComparisonReport,
    ModelRow,
    boyle_plot_data,
    boyle_summary,
    build_comparison,
    render_csv,
    render_json,
    render_markdown,
)
from .dataio import Dataset, boyle_dataset, read_csv, write_csv
from .errors import (
    DataFormatError,
    DegenerateDataError,
    DomainError,
    ImplicitRegressionError,
    InsufficientDataError,
    IntegrityError,
    ParseError,
    SingularDesignError,
    UnsupportedModelError,
)
from .fitcore import (
    Coefficient,
    FitResult,
    constancy_index,
    fit_ols,
    reduce_model_trace,
    self_weighting_mean,
)
from .formula import ModelSpec, Term, eval_term, format_model, parse_model
from .implicit import Prediction, predict
from .metrics import (
    RankDirection,
    SquareSums,
    rank_models,
    relative_height,
    separation_angle,
)
from .simulate import SimulationConfig, generate

__version__ = "0.1.0"

__all__ = [
    "BOYLE_MODEL_TEXTS",
    "COMPARISON_MODEL_TEXTS",
    "BoyleSummary",
    "Coefficient",
    "ComparisonReport",
    "DataFormatError",
    "Dataset",
    "DegenerateDataError",
    "DomainError",
    "FitResult",
    "ImplicitRegressionError",
    "InsufficientDataError",
    "IntegrityError",
    "ModelRow",
    "ModelSpec",
    "ParseError",
    "Prediction",
    "RankDirection",
    "SimulationConfig",
    "SingularDesignError",
    "SquareSums",
    "Term",
    "UnsupportedModelError",
    "boyle_dataset",
    "boyle_plot_data",
    "boyle_summary",
    "build_comparison",
    "constancy_index",
    "eval_term",
    "fit_ols",
    "format_model",
    "generate",
    "parse_model",
    "predict",
    "rank_models",
    "read_csv",
    "reduce_model_trace",
    "relative_height",
    "render_csv",
    "render_json",
    "render_markdown",
    "self_weighting_mean",
    "separation_angle",
    "write_csv",
]
