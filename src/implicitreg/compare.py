"""Model comparison pipeline: the fixed seven-model table and the
three-model Boyle verification.

The comparison list is frozen: three rotations over {1, x, y, x*y}
(reported after p-value reduction), the two standard one-axis models,
and the two non-response forms.  Each row carries R^2 (see ``FitResult``
for which one), both residual standard errors, the separation angle, the
height reading, and an average rank per metric.
"""

from __future__ import annotations

import io
import json
import math
from dataclasses import dataclass, field

import numpy as np

from .dataio import Dataset, boyle_dataset
from .errors import ImplicitRegressionError
from .fitcore import (ALPHA, BasisQR, FitResult, constancy_index, reduce_models,
                      self_weighting_mean)
from .formula import format_model, parse_model
from .implicit import SOLVE_ERRSTATE, predict, solve_error, solve_fits
from .metrics import (
    RankDirection,
    pairwise_square_sums,
    rank_models,
    relative_height,
    row_square_sums,
    separation_angle,
    square_sums,
    standard_error,
)

COMPARISON_MODEL_TEXTS = (
    "y ~ 1 + x + x*y",
    "x ~ 1 + y + x*y",
    "x*y ~ 1 + x + y",
    "y ~ 1 + 1/x",
    "y ~ 1 + x + x^2",
    "1 ~ x + y + x*y",
    "1 ~ x*y",
)
# the first three are rotations and get backward elimination
_N_ROTATIONS = 3

BOYLE_MODEL_TEXTS = (
    "1 ~ x + y + x*y",
    "y ~ 1 + x + x^2",
    "y ~ 1 + 1/x",
)
# both lists are fixed, so they are parsed once; each text is canonical
# (format_model gives it back), so a row named by its fitted spec prints it
_COMPARISON_SPECS = tuple(parse_model(text) for text in COMPARISON_MODEL_TEXTS)
_BOYLE_SPECS = tuple(parse_model(text) for text in BOYLE_MODEL_TEXTS)

_METRIC_DIRECTIONS = {
    "r_squared": RankDirection.DESCENDING_BETTER,
    "se_y": RankDirection.ASCENDING_BETTER,
    "se_x": RankDirection.ASCENDING_BETTER,
    "theta_t": RankDirection.NEAREST_90_BETTER,
    "height": RankDirection.ASCENDING_BETTER,
}
_DIAGNOSTIC_NAMES = ("undefined_y", "undefined_x", "complex_x")
# the height reading every report uses and prints
HEIGHT_VARIANT = "projection"


@dataclass(frozen=True)
class ModelRow:
    """One fitted model's report line, from the row sweep to every renderer.

    ``theta_t`` and ``height`` are None when the triangle is degenerate
    (perfect or null fit); standard errors are None when too few solves
    are defined.  ``model_rows`` builds every command's rows: it names a
    row by the text it is given and keeps the fitted text in ``reduced``
    where backward elimination changed it; ``build_comparison`` fills
    ``ranks``.  A model that could not be fit or solved keeps its ``error``
    message, and its metrics and diagnostics are None.
    """

    model: str
    reduced: str | None = None
    r_squared: float | None = None
    se_y: float | None = None
    se_x: float | None = None
    theta_t: float | None = None
    height: float | None = None
    undefined_y: int | None = None
    undefined_x: int | None = None
    complex_x: int | None = None
    ranks: dict[str, float | None] = field(default_factory=dict)
    error: str | None = None

    @property
    def metrics(self) -> dict[str, float | None]:
        """The five ranked metrics, keyed as in the JSON reports."""
        return {name: getattr(self, name) for name in _METRIC_DIRECTIONS}

    @property
    def diagnostics(self) -> dict[str, int | None]:
        return {name: getattr(self, name) for name in _DIAGNOSTIC_NAMES}


@dataclass(frozen=True)
class ComparisonReport:
    n: int
    x_label: str
    y_label: str
    seed: int | None
    rows: tuple[ModelRow, ...]


def model_rows(fits: list, data: Dataset, names) -> tuple[list[ModelRow], list]:
    """The unranked row of each of ``fits`` on ``data``, named ``names[i]``,
    with the fitted text in ``reduced`` where it differs; and the errors of
    the rows that failed, in row order.  A row fails with its error in
    ``fits``, with its fit's ``solve_error`` (taken before the pass), or
    when its square sums or ``predict`` raise; it keeps the message in
    ``error``, and its metrics and diagnostics are None.

    One pass over the row blocks solves the other fits with ``solve_fits``
    under one ``np.errstate`` per block, for y into a (fits, rows) buffer
    that ``row_square_sums`` reduces into each fit's SSE_y and SSM_y, then
    for x into the same buffer.  The sums and the complex x-solves add up
    over the blocks, so on data of more than one block a square sum is a
    sum of block sums.  An undefined solve is NaN and makes its fit's SSE
    NaN; such a fit is solved again by ``predict`` into n-row arrays, which
    raises where no solve is defined, and ``pairwise_square_sums`` drops
    its rows pairwise.
    """
    errors = [fit if isinstance(fit, ImplicitRegressionError) else solve_error(fit)
              for fit in fits]
    live = [i for i, error in enumerate(errors) if error is None]
    live_fits = [fits[i] for i in live]
    # per sum (SSE, SSM), axis (y, x) and live fit
    sums = np.zeros((2, 2, len(live)))
    complex_x = np.zeros(len(live), dtype=np.intp)
    for x, y in data.row_blocks():
        est = np.empty((len(live), x.size))
        with np.errstate(**SOLVE_ERRSTATE):
            for a, (obs, (mean, _, _)) in enumerate(zip((y, x), data.axis_sums)):
                complex_x += np.count_nonzero(solve_fits(live_fits, x, y, 1 - a, est), axis=1)
                sums[:, a] += row_square_sums(obs, est, mean)
    sse, ssm = sums
    rows: list = [None] * len(fits)
    for k, i in enumerate(live):
        fit = fits[i]
        axis_sse, n_defs = sse[:, k].tolist(), (data.n, data.n)
        try:
            if any(map(math.isnan, axis_sse)):
                n_defs, axis_sse, stacked = pairwise_square_sums(data, predict(fit, data))
            else:
                stacked = square_sums(data.n, data.axis_sums, axis_sse, ssm[:, k].tolist())
        except ImplicitRegressionError as exc:
            errors[i] = exc
            continue
        se_y, se_x = (standard_error(axis, n_def, fit.spec.n_coefficients)
                      for axis, n_def in zip(axis_sse, n_defs))
        fitted = format_model(fit.spec)
        rows[i] = ModelRow(
            model=names[i], reduced=None if fitted == names[i] else fitted,
            r_squared=fit.r_squared, se_y=se_y, se_x=se_x,
            theta_t=stacked and separation_angle(stacked),
            height=stacked and relative_height(stacked),
            undefined_y=data.n - n_defs[0], undefined_x=data.n - n_defs[1],
            complex_x=int(complex_x[k]))
    rows = [row or ModelRow(name, error=str(error)) for row, name, error in zip(rows, names, errors)]
    return rows, [error for error in errors if error is not None]


def _rank_rows(rows: list[ModelRow]) -> None:
    """Fill each row's rank dict in the JSON key order; undefined metrics get a None rank."""
    for row in rows:
        row.ranks.update(dict.fromkeys(_METRIC_DIRECTIONS))
    for metric, direction in _METRIC_DIRECTIONS.items():
        defined = {i: v for i, row in enumerate(rows) if (v := getattr(row, metric)) is not None}
        if defined:
            ranked = rank_models(list(defined.values()), direction).tolist()
            for i, rank in zip(defined, ranked):
                rows[i].ranks[metric] = rank


def build_comparison(data: Dataset, seed: int | None = None) -> ComparisonReport:
    """Fit the frozen model list and assemble the ranked comparison.

    The rotations are reduced in lockstep (``reduce_models``), and the rows
    come from ``model_rows``.  A model that cannot be fit or solved (e.g.
    ``1/x`` at x = 0) becomes a row with None metrics and its ``error``
    message, ranked around; only when every model fails is the first
    model's error raised.
    """
    fits = BasisQR(data).fits(_COMPARISON_SPECS)
    fits[:_N_ROTATIONS] = [reduced for reduced, _ in reduce_models(fits[:_N_ROTATIONS])]
    rows, errors = model_rows(fits, data, COMPARISON_MODEL_TEXTS)
    if len(errors) == len(rows):
        raise errors[0]
    _rank_rows(rows)
    return ComparisonReport(n=data.n, x_label=data.x_label, y_label=data.y_label, seed=seed,
                            rows=tuple(rows))


def _fmt(value: float | None, spec: str) -> str:
    return "n/a" if value is None else format(value, spec)


def _fmt_rank(rank: float | None) -> str:
    # ranks are whole or half numbers, which "g" prints as "2" and "6.5"
    return "-" if rank is None else format(rank, "g")


def render_markdown(report: ComparisonReport) -> str:
    out = io.StringIO()
    out.write(
        f"Comparison over {report.n} observations "
        f"({report.x_label}, {report.y_label})\n\n"
    )
    out.write("| Model | Reduced | R^2 (rank) | SE_y (rank) | SE_x (rank) "
              "| theta_T (rank) | h (rank) | undef y/x | complex x |\n")
    out.write("|---|---|---|---|---|---|---|---|---|\n")
    for row in report.rows:
        out.write(
            f"| {row.model} | {row.reduced or '-'} "
            f"| {_fmt(row.r_squared, '.4f')} ({_fmt_rank(row.ranks['r_squared'])}) "
            f"| {_fmt(row.se_y, '.4g')} ({_fmt_rank(row.ranks['se_y'])}) "
            f"| {_fmt(row.se_x, '.4g')} ({_fmt_rank(row.ranks['se_x'])}) "
            f"| {_fmt(row.theta_t, '.2f')} ({_fmt_rank(row.ranks['theta_t'])}) "
            f"| {_fmt(row.height, '.5g')} ({_fmt_rank(row.ranks['height'])}) "
            f"| {'n/a' if row.error else f'{row.undefined_y}/{row.undefined_x}'} "
            f"| {_fmt(row.complex_x, 'd')} |\n"
        )
    out.write(
        f"\nheight variant: {HEIGHT_VARIANT}; "
        f"elimination threshold: {ALPHA:g}"
    )
    if report.seed is not None:
        out.write(f"; generator seed: {report.seed}")
    out.write("\n")
    return out.getvalue()


def render_csv(report: ComparisonReport) -> str:
    cols = ["model", "reduced", *_METRIC_DIRECTIONS,
            *(f"rank_{name}" for name in _METRIC_DIRECTIONS), *_DIAGNOSTIC_NAMES]
    lines = [",".join(cols)]
    for row in report.rows:
        lines.append(",".join([
            row.model,
            row.reduced or "",
            *(_fmt(value, ".10g") for value in row.metrics.values()),
            *(_fmt_rank(row.ranks[name]) for name in _METRIC_DIRECTIONS),
            *(_fmt(count, "d") for count in row.diagnostics.values()),
        ]))
    footer = (f"# height_variant={HEIGHT_VARIANT} alpha={ALPHA:g}"
              + (f" seed={report.seed}" if report.seed is not None else ""))
    lines.append(footer)
    return "\n".join(lines) + "\n"


def report_to_dict(report: ComparisonReport) -> dict:
    """Schema-stable dict: the same keys for every dataset."""
    return {
        "dataset": {
            "n": report.n,
            "x_label": report.x_label,
            "y_label": report.y_label,
        },
        "settings": {
            "alpha": ALPHA,
            "height_variant": HEIGHT_VARIANT,
            "seed": report.seed,
        },
        "models": [
            {
                "model": row.model,
                "reduced": row.reduced,
                "metrics": row.metrics,
                "ranks": row.ranks,
                "diagnostics": row.diagnostics,
            }
            for row in report.rows
        ],
    }


def render_json(report: ComparisonReport) -> str:
    return json.dumps(report_to_dict(report), indent=2) + "\n"


@dataclass(frozen=True)
class BoyleSummary:
    n: int
    constancy_volume: float
    constancy_pressure: float
    constancy_product: float
    product_estimate: float  # self-weighting mean of volume*pressure
    rows: tuple[ModelRow, ...]
    # the data and the fit behind each row; boyle_plot_data solves them for
    # its overlays
    data: Dataset = field(repr=False, compare=False)
    fits: tuple[FitResult, ...] = field(repr=False, compare=False)


def boyle_summary() -> BoyleSummary:
    """Constancy indices and model geometry for the bundled Boyle data."""
    data = boyle_dataset()
    product = data.x * data.y
    fits = BasisQR(data).fits(_BOYLE_SPECS)
    rows, errors = model_rows(fits, data, BOYLE_MODEL_TEXTS)
    if errors:
        raise errors[0]
    return BoyleSummary(
        n=data.n,
        constancy_volume=constancy_index(data.x),
        constancy_pressure=constancy_index(data.y),
        constancy_product=constancy_index(product),
        product_estimate=self_weighting_mean(product),
        rows=tuple(rows),
        data=data,
        fits=tuple(fits),
    )


def boyle_summary_to_dict(summary: BoyleSummary) -> dict:
    return {
        "n": summary.n,
        "constancy": {
            "volume": summary.constancy_volume,
            "pressure": summary.constancy_pressure,
            "product": summary.constancy_product,
        },
        "product_estimate": summary.product_estimate,
        "height_variant": HEIGHT_VARIANT,
        "models": [
            {"model": row.model, "theta_t": row.theta_t, "height": row.height,
             **row.diagnostics}
            for row in summary.rows
        ],
    }


_BOYLE_FILE_TAGS = dict(zip(BOYLE_MODEL_TEXTS, ("nonresponse", "quadratic", "inverse")))


def boyle_plot_data(summary: BoyleSummary) -> dict[str, str]:
    """Plot-ready CSV payloads keyed by filename.

    Per model: (x, y, y_hat) overlay triplets, from the y-solves of the
    fits of ``summary``.  Per variable (volume, pressure, product):
    histogram bins.
    """
    data = summary.data
    files: dict[str, str] = {}
    for row, fit in zip(summary.rows, summary.fits):
        lines = [f"{data.x_label},{data.y_label},estimated_{data.y_label}"]
        for x, y, yh in zip(data.x, data.y, predict(fit, data).y_hat):
            yh_txt = "" if not np.isfinite(yh) else f"{yh:.6f}"
            lines.append(f"{x:.6f},{y:.6f},{yh_txt}")
        files[f"overlay_{_BOYLE_FILE_TAGS[row.model]}.csv"] = "\n".join(lines) + "\n"

    for name, values in (
        ("volume", data.x),
        ("pressure", data.y),
        ("product", data.x * data.y),
    ):
        counts, edges = np.histogram(values, bins="sturges")
        lines = ["bin_left,bin_right,count"]
        lines.extend(
            f"{edges[i]:.6f},{edges[i + 1]:.6f},{int(c)}"
            for i, c in enumerate(counts)
        )
        files[f"hist_{name}.csv"] = "\n".join(lines) + "\n"
    return files
