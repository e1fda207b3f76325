"""Golden outputs: every report the CLI prints, pinned byte for byte.

The files under ``tests/golden/`` hold the output of ``compare`` (json,
csv, markdown), ``fit --reduce`` (text, json), ``fit`` of the quadratic
model (text, json) and ``constancy`` on the seed-7, sigma-5, n=50 sample
written by ``simulate --out``, with ``simulate``'s own stdout; of
``compare`` (all three formats) on that sample with its first x set to 0,
where the 1/x model becomes an ``n/a`` row, and of ``fit`` of ``1 ~ x*y``
(text, json) there, whose y-solve at x = 0 is undefined; and of ``boyle``
(text, json and the six ``--plot-data-dir`` files).  A refactor must leave them
unchanged.  When an output is meant to change, regenerate them with

    PYTHONPATH=src python tests/test_golden.py

and review the diff.
"""

import contextlib
import io
import json
import sys
import tempfile
from pathlib import Path

import pytest
from scipy.special import stdtr

from implicitreg.cli import main

GOLDEN_DIR = Path(__file__).resolve().parent / "golden"
SAMPLE_ARGS = ("--n", "50", "--sigma", "5", "--seed", "7")
FIT_ARGS = ("fit", "--model", "1 ~ x + y + x*y", "--reduce")
QUADRATIC_ARGS = ("fit", "--model", "y ~ 1 + x + x^2")
X0_FIT_ARGS = ("fit", "--model", "1 ~ x*y")


def _stdout_of(*argv) -> bytes:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(list(argv))
    assert code == 0, f"{argv} exited {code}"
    return out.getvalue().encode()


def render_outputs(workdir: Path) -> dict[str, bytes]:
    """Every pinned output, keyed by its file name under ``golden/``."""
    sample = workdir / "sample.csv"
    plots = workdir / "plots"
    x_zero = workdir / "sample_x0.csv"
    outputs = {"simulate.txt": _stdout_of("simulate", *SAMPLE_ARGS, "--out", str(sample)),
               "sample.csv": sample.read_bytes()}
    header, first, *rest = sample.read_text().splitlines(keepends=True)
    x_zero.write_text("".join([header, "0," + first.split(",", 1)[1], *rest]))
    for fmt, ext in (("json", "json"), ("csv", "csv"), ("markdown", "md")):
        outputs[f"compare.{ext}"] = _stdout_of(
            "compare", "--data", str(sample), "--format", fmt)
        outputs[f"compare_x0.{ext}"] = _stdout_of(
            "compare", "--data", str(x_zero), "--format", fmt)
    outputs["fit_reduce.txt"] = _stdout_of(*FIT_ARGS, "--data", str(sample))
    outputs["fit_reduce.json"] = _stdout_of(
        *FIT_ARGS, "--data", str(sample), "--format", "json")
    outputs["fit_quadratic.txt"] = _stdout_of(*QUADRATIC_ARGS, "--data", str(sample))
    outputs["fit_quadratic.json"] = _stdout_of(
        *QUADRATIC_ARGS, "--data", str(sample), "--format", "json")
    outputs["fit_x0.txt"] = _stdout_of(*X0_FIT_ARGS, "--data", str(x_zero))
    outputs["fit_x0.json"] = _stdout_of(*X0_FIT_ARGS, "--data", str(x_zero), "--format", "json")
    outputs["constancy.txt"] = _stdout_of("constancy", "--data", str(sample))
    outputs["boyle.txt"] = _stdout_of("boyle")
    outputs["boyle.json"] = _stdout_of(
        "boyle", "--format", "json", "--plot-data-dir", str(plots))
    for path in sorted(plots.iterdir()):
        outputs[f"boyle_plots/{path.name}"] = path.read_bytes()
    return outputs


GOLDEN_NAMES = sorted(
    str(p.relative_to(GOLDEN_DIR)) for p in GOLDEN_DIR.rglob("*") if p.is_file()
)


@pytest.fixture(scope="module")
def outputs(tmp_path_factory):
    return render_outputs(tmp_path_factory.mktemp("golden"))


def test_golden_set_is_complete(outputs):
    assert sorted(outputs) == GOLDEN_NAMES


@pytest.mark.parametrize("name", GOLDEN_NAMES)
def test_output_matches_golden(outputs, name):
    assert outputs[name] == (GOLDEN_DIR / name).read_bytes()


@pytest.mark.parametrize("name", ["fit_reduce.json", "fit_quadratic.json"])
def test_golden_p_values_match_stdtr(name):
    """The pinned p-values come from the package's own t tail; each lies
    within 1e-13 (relative) of scipy's on the pinned t statistic."""
    report = json.loads((GOLDEN_DIR / name).read_text())
    dof = report["n"] - len(report["coefficients"])
    for coef in report["coefficients"]:
        expected = float(2.0 * stdtr(dof, -abs(coef["t_stat"])))
        assert coef["p_value"] == pytest.approx(expected, rel=1e-13), coef["term"]


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as tmp:
        for name, content in render_outputs(Path(tmp)).items():
            target = GOLDEN_DIR / name
            target.parent.mkdir(parents=True, exist_ok=True)
            target.write_bytes(content)
            print(f"wrote {target.relative_to(GOLDEN_DIR.parent)}", file=sys.stderr)
