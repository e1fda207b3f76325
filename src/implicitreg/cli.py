"""Command-line interface.

Subcommands: ``simulate``, ``fit``, ``compare``, ``boyle``, ``constancy``.
Exit codes: 0 on success (also when the reader of stdout stops early), 1 on
runtime/data failures or a label stdout cannot encode, 2 on usage errors.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import sys
from pathlib import Path

from .compare import (
    HEIGHT_VARIANT,
    _fmt,
    boyle_plot_data,
    boyle_summary,
    boyle_summary_to_dict,
    build_comparison,
    model_rows,
    render_csv,
    render_json,
    render_markdown,
)
from .dataio import read_csv, write_csv
from .errors import ImplicitRegressionError, ParseError
from .fitcore import ALPHA, constancy_index, fit_ols, reduce_model_trace, self_weighting_mean
from .formula import format_model, parse_model
from .simulate import SimulationConfig, generate


def _model_arg(text: str):
    try:
        return parse_model(text)
    except ParseError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


def _nonneg_float(text: str) -> float:
    value = float(text)
    if not 0.0 <= value < float("inf"):
        raise argparse.ArgumentTypeError("must be finite and non-negative")
    return value


def _int_at_least(low: int):
    def integer(text: str) -> int:
        value = int(text)
        if value < low:
            raise argparse.ArgumentTypeError(f"must be at least {low}")
        return value
    return integer


def _vars_arg(text: str) -> list[str]:
    names = [v.strip() for v in text.split(",") if v.strip()]
    if not names:
        raise argparse.ArgumentTypeError("no variables requested")
    for name in names:
        if name not in ("x", "y", "xy"):
            raise argparse.ArgumentTypeError(
                f"unknown variable {name!r} (choose from x, y, xy)"
            )
    return names


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="implicitreg",
        description="Implicit regression: rotation and non-response analysis "
                    "for bivariate data with error in both coordinates.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_sim = sub.add_parser("simulate", help="generate an inverse-law sample")
    p_sim.add_argument("--n", type=_int_at_least(1), default=50)
    p_sim.add_argument("--sigma", type=_nonneg_float, default=1.0)
    p_sim.add_argument("--seed", type=_int_at_least(0), default=0)
    p_sim.add_argument("--out", type=Path, default=None,
                       help="write the sample as CSV")

    p_fit = sub.add_parser("fit", help="fit one model to a dataset")
    p_fit.add_argument("--model", type=_model_arg, required=True,
                       help='model text, e.g. "1 ~ x + y + x*y"')
    p_fit.add_argument("--data", type=Path, required=True)
    p_fit.add_argument("--reduce", action="store_true",
                       help=f"drop insignificant predictors (p > {ALPHA:g})")
    p_fit.add_argument("--format", choices=("text", "json"), default="text")

    p_cmp = sub.add_parser("compare", help="ranked seven-model comparison")
    p_cmp.add_argument("--data", type=Path, required=True)
    p_cmp.add_argument("--format", choices=("markdown", "csv", "json"),
                       default="markdown")

    p_boyle = sub.add_parser("boyle", help="verify Boyle's law on the bundled data")
    p_boyle.add_argument("--format", choices=("text", "json"), default="text")
    p_boyle.add_argument("--plot-data-dir", type=Path, default=None,
                         help="write overlay triplets and histogram bins here")

    p_con = sub.add_parser("constancy", help="constancy indices of x, y, xy")
    p_con.add_argument("--data", type=Path, required=True)
    p_con.add_argument("--vars", type=_vars_arg, default=["x", "y", "xy"],
                       help="comma-separated subset of x,y,xy")
    return parser


def _cmd_simulate(args) -> int:
    data = generate(SimulationConfig(n=args.n, sigma=args.sigma, seed=args.seed))
    if args.out is not None:
        args.out.write_bytes(write_csv(data, decimals=10))
    print(f"constancy(x) = {constancy_index(data.x):.6f}")
    print(f"constancy(y) = {constancy_index(data.y):.6f}")
    print(f"constancy(xy) = {constancy_index(data.x * data.y):.6f}")
    return 0


def _cmd_fit(args) -> int:
    data = read_csv(args.data)
    fit = fit_ols(args.model, data)
    trace = []
    if args.reduce:
        fit, trace = reduce_model_trace(fit)
    (row,), errors = model_rows([fit], data, [format_model(fit.spec)])
    if errors:
        raise errors[0]

    if args.format == "json":
        payload = {
            "model": format_model(args.model),
            "reduced": format_model(fit.spec) if args.reduce else None,
            "reduction": [
                {"dropped": coef.label, "p_value": coef.p_value} for coef in trace
            ],
            "n": fit.n,
            "coefficients": [
                {
                    "term": coef.label,
                    "estimate": coef.estimate,
                    "std_error": coef.std_error,
                    "t_stat": coef.t_stat,
                    "p_value": coef.p_value,
                }
                for coef in fit.coefficients
            ],
            "metrics": row.metrics,
            "diagnostics": row.diagnostics,
        }
        print(json.dumps(payload, indent=2))
        return 0

    for coef in trace:
        print(f"dropped {coef.label} (p = {coef.p_value:.4f})")
    if trace:
        print()
    print(f"model: {format_model(fit.spec)}")
    print(f"n = {fit.n}, residual dof = {fit.residual_dof}")
    print(f"{'term':<12}{'estimate':>16}{'std error':>14}{'t':>12}{'p':>10}")
    for coef in fit.coefficients:
        print(f"{coef.label:<12}{coef.estimate:>16.8g}{coef.std_error:>14.4g}"
              f"{coef.t_stat:>12.4g}{coef.p_value:>10.4f}")
    print()
    print(f"R^2 = {row.r_squared:.6f}")
    print(f"SE_y = {_fmt(row.se_y, '.6g')}, SE_x = {_fmt(row.se_x, '.6g')}")
    print(f"theta_T = {_fmt(row.theta_t, '.2f')} degrees, "
          f"h = {_fmt(row.height, '.5g')}")
    print(f"undefined solves: y={row.undefined_y}, "
          f"x={row.undefined_x}; complex x solves: {row.complex_x}")
    return 0


def _cmd_compare(args) -> int:
    data = read_csv(args.data)
    report = build_comparison(data)
    for row in report.rows:
        if row.error is not None:
            print(f"warning: {row.model}: {row.error}", file=sys.stderr)
    renderer = {"markdown": render_markdown, "csv": render_csv,
                "json": render_json}[args.format]
    sys.stdout.write(renderer(report))
    return 0


def _cmd_boyle(args) -> int:
    summary = boyle_summary()
    if args.plot_data_dir is not None:
        args.plot_data_dir.mkdir(parents=True, exist_ok=True)
        for filename, content in boyle_plot_data(summary).items():
            (args.plot_data_dir / filename).write_text(content)

    if args.format == "json":
        print(json.dumps(boyle_summary_to_dict(summary), indent=2))
        return 0

    print(f"Boyle pressure-volume verification ({summary.n} observations)")
    print()
    print(f"constancy(volume)          = {summary.constancy_volume:.7f}")
    print(f"constancy(pressure)        = {summary.constancy_pressure:.7f}")
    print(f"constancy(volume*pressure) = {summary.constancy_product:.7f}")
    print(f"estimated constant (self-weighting mean of the product) = "
          f"{summary.product_estimate:.4f}")
    print()
    print(f"{'model':<20}{'theta_T':>10}{'h':>12}{'complex x':>12}{'undef y/x':>12}")
    for row in summary.rows:
        print(f"{row.model:<20}{_fmt(row.theta_t, '.2f'):>10}"
              f"{_fmt(row.height, '.5f'):>12}{row.complex_x:>12}"
              f"{f'{row.undefined_y}/{row.undefined_x}':>12}")
    print()
    print(f"height variant: {HEIGHT_VARIANT}")
    return 0


def _cmd_constancy(args) -> int:
    data = read_csv(args.data)
    values = {"x": data.x, "y": data.y, "xy": data.x * data.y}
    for name in args.vars:
        v = values[name]
        print(f"{name}: constancy_index = {constancy_index(v):.6f}, "
              f"self_weighting_mean = {self_weighting_mean(v):.6f}")
    return 0


_COMMANDS = {
    "simulate": _cmd_simulate,
    "fit": _cmd_fit,
    "compare": _cmd_compare,
    "boyle": _cmd_boyle,
    "constancy": _cmd_constancy,
}


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        code = _COMMANDS[args.command](args)
        sys.stdout.flush()
        return code
    except BrokenPipeError:
        # the reader stopped early (``| head``), which is not a failure;
        # stdout goes to devnull so the interpreter's exit flush stays quiet
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 0
    except (ImplicitRegressionError, OSError, UnicodeEncodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def entrypoint() -> None:
    """Run ``main`` on the command line and exit with its status."""
    # the ~2e4 objects the imports leave, numpy's mostly, live until exit;
    # frozen, no collection walks them, the interpreter's final ones
    # included, which took ~20 ms of a cold command
    gc.freeze()
    raise SystemExit(main())


if __name__ == "__main__":
    entrypoint()
