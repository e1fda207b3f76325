import hashlib
import io
import json
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

import implicitreg
from implicitreg import DegenerateDataError, SimulationConfig, Term, generate, read_csv, write_csv
from implicitreg import compare, implicit
from implicitreg.cli import main

GOLDEN = Path(__file__).parent / "golden"
SAMPLE = str(GOLDEN / "sample.csv")


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def sim_csv(tmp_path, sigma=5.0, seed=12345, n=50):
    path = tmp_path / f"sim_{sigma}_{seed}.csv"
    path.write_bytes(write_csv(generate(SimulationConfig(n=n, sigma=sigma, seed=seed)), decimals=12))
    return path


def scaled_csv(tmp_path, source, k):
    """``source`` with both columns times 2^k: the products are exact, and
    %.17g round-trips them."""
    header, *lines = source.read_text().splitlines()
    path = tmp_path / f"{source.stem}_2e{k}.csv"
    path.write_text("\n".join([header] + [
        ",".join(f"{float(v) * 2.0 ** k:.17g}" for v in line.split(",")) for line in lines]))
    return path


def with_lines(text, lines):
    """``text`` with each 1-based line number in ``lines`` passed through
    its function."""
    out = text.split("\n")
    for number, edit in lines.items():
        out[number - 1] = edit(out[number - 1])
    return "\n".join(out)


def x_zero(line):
    return "0," + line.split(",", 1)[1]


def noiseless_csv(tmp_path):
    path = tmp_path / "exact.csv"
    t = np.arange(1.0, 11.0)
    rows = "\n".join(f"{200.0 / ti:.12f},{20.0 * ti:.12f}" for ti in t)
    path.write_text("x,y\n" + rows + "\n")
    return path


class TestSimulateCommand:
    def test_writes_file_and_reports_constancy(self, tmp_path, capsys):
        out = tmp_path / "d.csv"
        code, stdout, _ = run_cli(
            capsys, "simulate", "--n", "50", "--sigma", "5", "--seed", "7",
            "--out", str(out),
        )
        assert code == 0
        assert len(out.read_text().splitlines()) == 51
        assert "constancy(x) = " in stdout
        assert "constancy(xy) = " in stdout

    def test_noiseless_constancy_is_one(self, tmp_path, capsys):
        code, stdout, _ = run_cli(
            capsys, "simulate", "--n", "50", "--sigma", "0", "--seed", "1"
        )
        assert code == 0
        assert "constancy(xy) = 1.000000" in stdout

    def test_negative_sigma_is_usage_error(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["simulate", "--sigma", "-1"])
        assert excinfo.value.code == 2

    def test_negative_seed_is_usage_error(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["simulate", "--seed", "-1"])
        assert excinfo.value.code == 2
        stderr = capsys.readouterr().err
        assert "--seed: must be at least 0" in stderr
        assert "Traceback" not in stderr

    def test_zero_n_is_usage_error(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["simulate", "--n", "0"])
        assert excinfo.value.code == 2
        assert "--n: must be at least 1" in capsys.readouterr().err

    @pytest.mark.parametrize("sigma", ["nan", "inf", "NaN", "1e309"])
    def test_non_finite_sigma_is_usage_error(self, capsys, sigma):
        with pytest.raises(SystemExit) as excinfo:
            main(["simulate", "--sigma", sigma])
        assert excinfo.value.code == 2
        stderr = capsys.readouterr().err
        assert "--sigma: must be finite and non-negative" in stderr
        assert "Traceback" not in stderr

    def test_overflowing_sigma_is_runtime_error(self, capsys):
        code, stdout, stderr = run_cli(capsys, "simulate", "--sigma", "1e308")
        assert code == 1
        assert stdout == ""
        assert stderr == "error: sigma = 1e+308 overflows the sample\n"

    def test_same_seed_same_file(self, tmp_path, capsys):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        run_cli(capsys, "simulate", "--seed", "3", "--out", str(a))
        run_cli(capsys, "simulate", "--seed", "3", "--out", str(b))
        assert a.read_bytes() == b.read_bytes()


class TestFitCommand:
    def test_noiseless_inverse_coefficient(self, tmp_path, capsys):
        data = noiseless_csv(tmp_path)
        code, stdout, _ = run_cli(
            capsys, "fit", "--model", "1 ~ x*y", "--data", str(data),
            "--format", "json",
        )
        assert code == 0
        payload = json.loads(stdout)
        (coef,) = payload["coefficients"]
        assert coef["term"] == "x*y"
        assert coef["estimate"] == pytest.approx(1.0 / 4000.0, abs=1e-8)

    def test_reduce_drops_interaction(self, tmp_path, capsys):
        data = sim_csv(tmp_path)
        code, stdout, _ = run_cli(
            capsys, "fit", "--model", "y ~ 1 + x + x*y", "--data", str(data),
            "--reduce",
        )
        assert code == 0
        assert "dropped x*y" in stdout
        assert "model: y ~ 1 + x" in stdout

    def test_reduction_trace_in_json(self, tmp_path, capsys):
        data = sim_csv(tmp_path)
        code, stdout, _ = run_cli(
            capsys, "fit", "--model", "y ~ 1 + x + x*y", "--data", str(data),
            "--reduce", "--format", "json",
        )
        assert code == 0
        payload = json.loads(stdout)
        assert set(payload["metrics"]) == {
            "r_squared", "se_y", "se_x", "theta_t", "height",
        }
        assert payload["reduced"] == "y ~ 1 + x"
        assert payload["reduction"][0]["dropped"] == "x*y"
        assert payload["reduction"][0]["p_value"] > 0.05

    def test_bad_model_text_is_usage_error(self, tmp_path, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["fit", "--model", "z ~ x", "--data", "whatever.csv"])
        assert excinfo.value.code == 2

    def test_missing_data_file_is_runtime_error(self, capsys):
        code, _, stderr = run_cli(
            capsys, "fit", "--model", "y ~ 1 + x", "--data", "no_such_file.csv"
        )
        assert code == 1
        assert "error" in stderr

    def test_text_output_has_metrics(self, tmp_path, capsys):
        data = sim_csv(tmp_path)
        code, stdout, _ = run_cli(
            capsys, "fit", "--model", "1 ~ x + y + x*y", "--data", str(data)
        )
        assert code == 0
        for token in ("R^2 =", "SE_y =", "theta_T =", "undefined solves"):
            assert token in stdout

    def test_mixed_square_and_reciprocal_fails_unless_reduced(self, tmp_path, capsys):
        # the final fit decides the x-solve: y ~ 1 + x^2 + 1/x has no closed
        # form, but its reduction drops x^2 and solves
        data = tmp_path / "sigma1.csv"
        run_cli(capsys, "simulate", "--n", "50", "--sigma", "1", "--seed", "1",
                "--out", str(data))
        argv = ("fit", "--model", "y ~ 1 + x^2 + 1/x", "--data", str(data))
        assert run_cli(capsys, *argv) == (
            1, "", "error: y ~ 1 + x^2 + 1/x mixes x^2 and 1/x; no closed-form x solve\n")
        code, stdout, stderr = run_cli(capsys, *argv, "--reduce")
        assert (code, stderr) == (0, "")
        assert "dropped x^2 (p = 0.7864)" in stdout.splitlines()


def test_fit_whose_axis_sse_overflows_is_runtime_error(tmp_path, capsys):
    # 1 ~ y on simulate's n = 6, sigma = 1, seed 0 sample scaled by 2^506:
    # every x-solve is undefined, so its SSE_y is summed pairwise, where it
    # overflows; the command fails with one error line instead of SE_y = inf
    path = tmp_path / "t.csv"
    run_cli(capsys, "simulate", "--n", "6", "--sigma", "1", "--seed", "0", "--out", str(path))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, stdout, stderr = run_cli(capsys, "fit", "--model", "1 ~ y", "--data",
                                       str(scaled_csv(tmp_path, path, 506)))
    assert (code, stdout) == (1, "")
    assert stderr == "error: square sums overflow the float range\n"


def _no_defined_solve(fits, x, y, axis, est):
    est.fill(np.nan)
    return np.zeros(est.shape, dtype=bool)


@pytest.mark.parametrize("argv", [("fit", "--model", "1 ~ x*y"), ("boyle",)],
                         ids=["fit", "boyle"])
def test_a_model_with_no_defined_solve_fails_the_command(tmp_path, capsys, monkeypatch,
                                                         argv):
    # fit and boyle take their rows from the row sweep, which solves such a
    # model again with predict and raises predict's error for the first one
    monkeypatch.setattr(compare, "solve_fits", _no_defined_solve)
    monkeypatch.setattr(implicit, "solve_fits", _no_defined_solve)
    data = ("--data", str(sim_csv(tmp_path))) if argv[0] == "fit" else ()
    code, stdout, stderr = run_cli(capsys, *argv, *data)
    model = argv[2] if argv[0] == "fit" else compare.BOYLE_MODEL_TEXTS[0]
    assert (code, stdout) == (1, "")
    assert stderr == f"error: every solve of {model} hit a singular denominator\n"


class TestCompareCommand:
    def test_markdown_default(self, tmp_path, capsys):
        data = sim_csv(tmp_path)
        code, stdout, _ = run_cli(capsys, "compare", "--data", str(data))
        assert code == 0
        assert stdout.count("|") > 20
        assert "1 ~ x + y + x*y" in stdout

    def test_json_rank_sums(self, tmp_path, capsys):
        data = sim_csv(tmp_path)
        code, stdout, _ = run_cli(
            capsys, "compare", "--data", str(data), "--format", "json"
        )
        payload = json.loads(stdout)
        assert len(payload["models"]) == 7
        for metric in ("r_squared", "se_y", "se_x", "theta_t", "height"):
            assert sum(m["ranks"][metric] for m in payload["models"]) == pytest.approx(28.0)

    def test_csv_format(self, tmp_path, capsys):
        data = sim_csv(tmp_path)
        code, stdout, _ = run_cli(
            capsys, "compare", "--data", str(data), "--format", "csv"
        )
        assert code == 0
        assert stdout.splitlines()[0].startswith("model,reduced,")

    @pytest.mark.parametrize("fmt", ["markdown", "csv", "json"])
    def test_failed_model_warns_and_exits_zero(self, tmp_path, capsys, fmt):
        path = tmp_path / "zero_x.csv"
        path.write_text("x,y\n0,5.1\n1,3.9\n2,3.2\n3,2.1\n4,0.8\n5,0.1\n")
        code, stdout, stderr = run_cli(
            capsys, "compare", "--data", str(path), "--format", fmt
        )
        assert code == 0
        assert stderr == "warning: y ~ 1 + 1/x: 1/x is undefined at x = 0\n"
        if fmt == "json":
            r_squared = [m["metrics"]["r_squared"] for m in json.loads(stdout)["models"]]
            assert sum(v is not None for v in r_squared) == 6
            assert r_squared[3] is None

    def test_warnings_follow_row_order(self, tmp_path, capsys, monkeypatch):
        # the 1/x fit fails at x = 0, and the x rotation (as reduced) and
        # 1 ~ x*y take a solve error, one before it and one after
        solve_error = compare.solve_error

        def failing_two(fit):
            if fit.spec.response is Term.X or str(fit.spec) == "1 ~ x*y":
                return DegenerateDataError("no solve")
            return solve_error(fit)

        monkeypatch.setattr(compare, "solve_error", failing_two)
        path = tmp_path / "zero_x.csv"
        path.write_text("x,y\n0,5.1\n1,3.9\n2,3.2\n3,2.1\n4,0.8\n5,0.1\n")
        code, stdout, stderr = run_cli(capsys, "compare", "--data", str(path))
        assert code == 0
        assert stderr.splitlines() == [
            "warning: x ~ 1 + y + x*y: no solve",
            "warning: y ~ 1 + 1/x: 1/x is undefined at x = 0",
            "warning: 1 ~ x*y: no solve",
        ]
        assert sum(line.endswith("| n/a | n/a |") for line in stdout.splitlines()) == 3

    def test_sample_whose_square_sums_overflow_is_runtime_error(self, tmp_path, capsys):
        # the golden sample scaled by 2^502: every row's square sums add up
        # past the float range, so every row fails
        path = scaled_csv(tmp_path, Path(SAMPLE), 502)
        code, stdout, stderr = run_cli(capsys, "compare", "--data", str(path))
        assert code == 1
        assert stdout == ""
        assert stderr == "error: square sums overflow the float range\n"

    def test_sample_at_2e502_reduces_as_at_scale_1(self, tmp_path, capsys):
        # simulate's n = 30, sigma = 1, seed 7 sample scaled by 2^502: the
        # covariance of y ~ 1 + x + x*y takes sigma^2 out by a power of two
        # and does not overflow, so x*y is kept; only x*y ~ 1 + x + y, whose
        # response's sum of squares overflows, is an error row
        path = tmp_path / "s.csv"
        run_cli(capsys, "simulate", "--n", "30", "--sigma", "1", "--seed", "7", "--out", str(path))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            reports = [run_cli(capsys, "compare", "--data", str(source), "--format", "json")
                       for source in (path, scaled_csv(tmp_path, path, 502))]
        assert [(code, stderr) for code, _, stderr in reports] == [(0, ""), (
            0, "warning: x*y ~ 1 + x + y: the sum of squares of x*y overflows\n")]
        want, got = ({m["model"]: m for m in json.loads(stdout)["models"]}
                     for _, stdout, _ in reports)
        assert set(got.pop("x*y ~ 1 + x + y")["metrics"].values()) == {None}
        assert want.pop("x*y ~ 1 + x + y")["reduced"] == "x*y ~ 1"
        assert {k: m["reduced"] for k, m in got.items()} == {k: m["reduced"] for k, m in want.items()}
        assert want["y ~ 1 + x + x*y"]["reduced"] is None

    def test_sample_x0_at_2e503_prints_one_error_line(self, tmp_path, capsys):
        # the sums of squares of the axes overflow there, with no warning
        # before the command's single error line
        source = tmp_path / "sample_x0.csv"
        source.write_text(with_lines(Path(SAMPLE).read_text(), {2: x_zero}))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, stdout, stderr = run_cli(capsys, "compare", "--data",
                                           str(scaled_csv(tmp_path, source, 503)))
        assert (code, stdout) == (1, "")
        assert stderr == "error: the sum of squares of y overflows\n"


class TestInputEncoding:
    @pytest.mark.parametrize("command", [
        ("compare",), ("constancy",), ("fit", "--model", "y ~ 1 + x"),
    ])
    def test_invalid_utf8_is_runtime_error(self, tmp_path, capsys, command):
        path = tmp_path / "latin1.csv"
        path.write_bytes(b"x,y\n1,2\n3,\xe94\n5,6\n7,8\n")
        code, stdout, stderr = run_cli(capsys, *command, "--data", str(path))
        assert code == 1
        assert stdout == ""
        assert stderr == "error: line 3: invalid UTF-8 byte 0xe9\n"

    def test_byte_order_mark_stays_out_of_the_label(self, tmp_path, capsys):
        path = tmp_path / "bom.csv"
        path.write_bytes(b"\xef\xbb\xbf" + write_csv(generate(SimulationConfig(n=20, seed=3))))
        code, stdout, _ = run_cli(capsys, "compare", "--data", str(path), "--format", "json")
        assert code == 0
        assert json.loads(stdout)["dataset"]["x_label"] == "x"

    def test_labels_stdout_cannot_encode_are_runtime_error(self, tmp_path, capsys,
                                                           monkeypatch):
        # markdown prints the labels; csv prints none and json escapes them
        path = tmp_path / "utf8.csv"
        path.write_bytes("température,pression\n1,2\n3,4\n5,6\n7,8.5\n".encode())
        raw = io.BytesIO()
        monkeypatch.setattr(sys, "stdout", io.TextIOWrapper(raw, encoding="ascii"))
        assert main(["compare", "--data", str(path)]) == 1
        sys.stdout.flush()
        assert raw.getvalue() == b""
        stderr = capsys.readouterr().err
        assert stderr.startswith("error: 'ascii' codec can't encode character '\\xe9'")
        assert stderr.count("\n") == 1
        for fmt in ("csv", "json"):
            assert main(["compare", "--data", str(path), "--format", fmt]) == 0


class TestBoyleCommand:
    def test_constancy_and_geometry(self, capsys):
        code, stdout, _ = run_cli(capsys, "boyle")
        assert code == 0
        assert "constancy(volume*pressure) = 0.9999878" in stdout
        assert "1 ~ x + y + x*y" in stdout
        assert "height variant: projection" in stdout

    def test_json_payload(self, capsys):
        code, stdout, _ = run_cli(capsys, "boyle", "--format", "json")
        payload = json.loads(stdout)
        assert payload["constancy"]["product"] == pytest.approx(0.9999878, abs=1e-4)
        models = {m["model"]: m for m in payload["models"]}
        assert models["y ~ 1 + x + x^2"]["complex_x"] == 3

    def test_plot_data_dir(self, tmp_path, capsys):
        plot_dir = tmp_path / "plots"
        code, _, _ = run_cli(capsys, "boyle", "--plot-data-dir", str(plot_dir))
        assert code == 0
        names = sorted(p.name for p in plot_dir.iterdir())
        assert names == [
            "hist_pressure.csv",
            "hist_product.csv",
            "hist_volume.csv",
            "overlay_inverse.csv",
            "overlay_nonresponse.csv",
            "overlay_quadratic.csv",
        ]
        overlay = (plot_dir / "overlay_nonresponse.csv").read_text().splitlines()
        assert overlay[0] == "volume,pressure,estimated_pressure"
        assert len(overlay) == 26

    def test_plot_data_dir_fits_each_model_once(self, tmp_path, capsys, monkeypatch):
        fitted = []
        fits = compare.BasisQR.fits

        def counting_fits(basis, specs):
            fitted.append(list(specs))
            return fits(basis, specs)

        loads = []
        boyle_dataset = compare.boyle_dataset

        def counting_load():
            loads.append(1)
            return boyle_dataset()

        monkeypatch.setattr(compare.BasisQR, "fits", counting_fits)
        monkeypatch.setattr(compare, "boyle_dataset", counting_load)
        code, _, _ = run_cli(capsys, "boyle", "--plot-data-dir", str(tmp_path / "plots"))
        assert code == 0
        # the three models in one call
        assert [len(specs) for specs in fitted] == [3]
        # the overlays and histograms reuse the data the summary fitted
        assert len(loads) == 1


class TestClosedOutputPipe:
    """A reader that stops early (``implicitreg boyle | true``) ends the
    command quietly, with buffered and with unbuffered stdout."""

    @pytest.mark.parametrize("unbuffered", [False, True])
    @pytest.mark.parametrize("command", ["boyle", "compare"])
    def test_no_error_when_reader_closes(self, tmp_path, command, unbuffered):
        argv = ["boyle"] if command == "boyle" else [
            "compare", "--data", str(sim_csv(tmp_path)), "--format", "json"]
        env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
        env["PYTHONPATH"] = str(Path(implicitreg.__file__).resolve().parents[1])
        if unbuffered:
            env["PYTHONUNBUFFERED"] = "1"
        proc = subprocess.Popen([sys.executable, "-m", "implicitreg.cli", *argv], env=env,
                                stdout=subprocess.PIPE, stderr=subprocess.PIPE)
        proc.stdout.close()
        stderr = proc.stderr.read()
        proc.stderr.close()
        assert proc.wait(timeout=60) == 0
        assert stderr == b""


def test_cli_import_leaves_scipy_stats_and_linalg_unloaded():
    """Importing the CLI loads neither scipy.stats nor scipy.linalg: either
    would double the CLI's start-up time."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(Path(implicitreg.__file__).resolve().parents[1])
    script = ("import sys, implicitreg.cli; "
              "print(sorted(m for m in sys.modules "
              "if m.startswith(('scipy.stats', 'scipy.linalg'))))")
    out = subprocess.run([sys.executable, "-c", script], env=env, check=True,
                         capture_output=True, text=True, timeout=60).stdout
    assert out.strip() == "[]"


_EXIT_PROBE = """
import atexit, gc, sys
from implicitreg.cli import entrypoint
atexit.register(lambda: print("frozen:", gc.get_freeze_count() > 0, file=sys.stderr))
entrypoint()
"""


@pytest.mark.parametrize("argv, code", [
    (["compare", "--format", "json", "--data", SAMPLE], 0),
    (["compare", "--data", "no_such_file.csv"], 1),
    (["compare", "--no-such-option"], 2),
    (["--help"], 0),
    (["compare"], 2),
    # markdown prints the labels, which an ASCII stdout cannot encode; JSON
    # escapes them
    (["PYTHONIOENCODING=ascii", "compare", "--data", "utf8.csv"], 1),
    (["PYTHONIOENCODING=ascii", "compare", "--data", "utf8.csv", "--format", "json"], 0),
    (["PYTHONIOENCODING=utf-8", "compare", "--data", "utf8.csv"], 0),
])
def test_entrypoint_freezes_the_heap_and_keeps_the_exit_path(argv, code, tmp_path):
    """``entrypoint`` freezes the import-time heap before it runs a command,
    and still exits as ``main`` says, through atexit handlers (which an
    ``os._exit`` would skip) and the flush of stdout: a failure prints one
    error line and nothing to stdout.  A leading NAME=value sets the
    command's environment, as in a shell."""
    (tmp_path / "utf8.csv").write_text(
        with_lines(Path(SAMPLE).read_text(), {1: lambda _: "température,pression"}),
        encoding="utf-8")
    env = dict(os.environ, PYTHONPATH=str(Path(implicitreg.__file__).resolve().parents[1]))
    env.update(arg.split("=", 1) for arg in argv if "=" in arg)
    proc = subprocess.run([sys.executable, "-c", _EXIT_PROBE, *(a for a in argv if "=" not in a)],
                          env=env, cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode == code
    *lines, last = proc.stderr.splitlines()
    assert last == "frozen: True"
    assert bool(proc.stdout) == (code == 0)
    if code == 1:
        assert len(lines) == 1 and lines[0].startswith("error: "), lines
    if argv[-1] == SAMPLE:
        assert proc.stdout == (GOLDEN / "compare.json").read_text()


_MODULE_PROBE = """
import contextlib, io, json, sys
if json.loads(sys.argv[3]):
    sys.modules["scipy"] = None  # from here on, any scipy import raises ImportError
from implicitreg.cli import main

roots = set(json.loads(sys.argv[2]))
loaded = []
for argv in json.loads(sys.argv[1]):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse's --help and usage errors
            code = exc.code
    loaded.append([code, sorted(m for m in sys.modules if m.split('.')[0] in roots),
                   out.getvalue(), err.getvalue()])
print(json.dumps(loaded))
"""


def _probe_modules(runs, roots, block_scipy=True, cwd=None):
    """Run ``main`` on each argv in turn in one fresh interpreter, one that
    turns every warning into an error and cannot import scipy if
    ``block_scipy``; after each, its exit code, the loaded modules under the
    package names ``roots``, its stdout and its stderr."""
    env = dict(os.environ, PYTHONPATH=str(Path(implicitreg.__file__).resolve().parents[1]))
    proc = subprocess.run([sys.executable, "-W", "error", "-c", _MODULE_PROBE, json.dumps(runs),
                           json.dumps(roots), json.dumps(block_scipy)],
                          env=env, cwd=cwd, capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout)


def _models(report):
    return {m["model"]: m for m in json.loads(report)["models"]}


# The CLI's console cases, each run through ``main`` in one fresh interpreter
# that cannot import scipy and turns any warning into an error: a name, the
# argv (its files are in the case directory), the exit status and the stderr
# lines (of a usage error, the last line; argparse prints the usage above
# it).  A failing command prints nothing; the other stdouts and the files
# written are checked after the run.
CONSOLE_CASES = [
    # a 2e5-row sample (25 row blocks): its report from the writer's LF file,
    # its CRLF twin, a twin with one mixed-fraction row, which is read field
    # by field, that row's decimal twin, and a twin with x = 0 on five rows
    # in five blocks
    ("big", ["simulate", "--n", "200000", "--sigma", "5", "--seed", "7", "--out", "big.csv"],
     0, []),
    ("lf", ["compare", "--data", "big.csv", "--format", "json"], 0, []),
    ("crlf", ["compare", "--data", "big_crlf.csv", "--format", "json"], 0, []),
    ("fraction", ["compare", "--data", "big_frac.csv", "--format", "json"], 0, []),
    ("decimal", ["compare", "--data", "big_dec.csv", "--format", "json"], 0, []),
    ("x0", ["compare", "--data", "big_x0.csv", "--format", "json"], 0,
     ["warning: y ~ 1 + 1/x: 1/x is undefined at x = 0"]),
    # every |t| there exceeds 300
    ("reduce", ["fit", "--model", "1 ~ x + y + x*y", "--reduce", "--data", "big.csv",
                "--format", "json"], 0, []),
    # noise past 2^53 in the first and fourth of seven row blocks, which the
    # writer's "%" template writes
    ("wide", ["simulate", "--n", "50000", "--sigma", "2e15", "--seed", "2", "--out", "wide.csv"],
     0, []),
    ("boyle_csv",
     ["compare", "--data", str(Path(implicitreg.__file__).with_name("data") / "boyle.csv"),
      "--format", "json"], 0, []),
    # the golden sample scaled by 2^250 and 2^510: first the sum of squares
    # of x*y overflows, then the basis columns themselves
    ("2e250", ["compare", "--data", "sample_2e250.csv", "--format", "json"], 0,
     ["warning: x*y ~ 1 + x + y: the sum of squares of x*y overflows"]),
    ("2e510", ["compare", "--data", "sample_2e510.csv"], 1,
     ["error: a basis column of y ~ 1 + x + x*y overflows"]),
    # simulate's n = 6, sigma = 1, seed 2 sample with x = 0 on its first five
    # rows, scaled by 2^506
    ("top", ["fit", "--model", "1 ~ x*y + x^2", "--data", "n6_x0_2e506.csv"], 1,
     ["error: the estimates of 1 ~ x*y + x^2 overflow the float range"]),
    # a parse error names the leftmost unknown token, not the intercept the
    # non-response form may not have
    ("parse", ["fit", "--model", "1 ~ 1 + z", "--data", SAMPLE], 2,
     ["implicitreg fit: error: argument --model: unknown term 'z' (at position 8)"]),
]


def test_console_cases(tmp_path):
    big = write_csv(generate(SimulationConfig(n=200_000, sigma=5.0, seed=7)), decimals=10)
    (tmp_path / "big_crlf.csv").write_bytes(big.replace(b"\n", b"\r\n"))
    for name, line in [("big_frac", "29 2/16,1 1/3"), ("big_dec", "29.125,1.3333333333333333")]:
        (tmp_path / f"{name}.csv").write_text(with_lines(big.decode(), {1001: lambda _: line}))
    (tmp_path / "big_x0.csv").write_text(
        with_lines(big.decode(), dict.fromkeys((2, 40_000, 80_000, 120_000, 160_000), x_zero)))
    for k in (250, 510):
        scaled_csv(tmp_path, Path(SAMPLE), k)
    n6 = tmp_path / "n6_x0.csv"
    n6.write_text(with_lines(write_csv(generate(SimulationConfig(n=6, sigma=1.0, seed=2)),
                                       decimals=10).decode(), dict.fromkeys(range(2, 7), x_zero)))
    scaled_csv(tmp_path, n6, 506)

    results = _probe_modules([argv for _, argv, _, _ in CONSOLE_CASES], [], cwd=tmp_path)
    out = {}
    for (name, _, code, stderr), (got, _, stdout, err) in zip(CONSOLE_CASES, results):
        lines = err.splitlines()
        assert (got, lines[-1:] if code == 2 else lines) == (code, stderr), name
        assert code == 0 or stdout == "", name
        out[name] = stdout

    assert hashlib.sha256((tmp_path / "big.csv").read_bytes()).hexdigest() == (
        "8142e3752bbdc806ccd6be01bba379138d7343ddafc83bec9625eca85295993a")
    assert out["crlf"] == out["lf"] and out["fraction"] == out["decimal"]
    lf, crlf = (read_csv(tmp_path / name) for name in ("big.csv", "big_crlf.csv"))
    assert (crlf.x.tobytes(), crlf.y.tobytes()) == (lf.x.tobytes(), lf.y.tobytes())
    x0 = _models(out["x0"])
    assert x0["1 ~ x*y"]["diagnostics"]["undefined_y"] == 5
    assert x0["y ~ 1 + 1/x"]["diagnostics"] == dict.fromkeys(
        ("undefined_y", "undefined_x", "complex_x"))
    assert json.loads(out["reduce"])["reduction"] == []
    wide = generate(SimulationConfig(n=50_000, sigma=2e15, seed=2))
    assert (tmp_path / "wide.csv").read_bytes().decode() == "x,y\n" + "".join(
        f"{x:.10f},{y:.10f}\n" for x, y in zip(wide.x.tolist(), wide.y.tolist()))
    scaled, want = _models(out["2e250"]), _models((GOLDEN / "compare.json").read_text())
    assert set(scaled.pop("x*y ~ 1 + x + y")["metrics"].values()) == {None}
    assert {k: m["reduced"] for k, m in scaled.items()} == {k: want[k]["reduced"] for k in scaled}


def test_no_command_loads_scipy(tmp_path):
    """Every command runs where scipy cannot be imported, fit too: its
    p-values come from the package's own t tail, and every output the golden
    files pin keeps its bytes."""
    (tmp_path / "sample_x0.csv").write_text(with_lines(Path(SAMPLE).read_text(), {2: x_zero}))
    fits = [("fit_reduce", ["fit", "--model", "1 ~ x + y + x*y", "--reduce", "--data", SAMPLE]),
            ("fit_quadratic", ["fit", "--model", "y ~ 1 + x + x^2", "--data", SAMPLE]),
            ("fit_x0", ["fit", "--model", "1 ~ x*y", "--data", "sample_x0.csv"])]
    runs = {
        "simulate.txt": ["simulate", "--n", "50", "--sigma", "5", "--seed", "7", "--out", "s.csv"],
        **{f"compare{suffix}.{ext}": ["compare", "--data", data, "--format", fmt]
           for suffix, data in (("", SAMPLE), ("_x0", "sample_x0.csv"))
           for fmt, ext in (("markdown", "md"), ("csv", "csv"), ("json", "json"))},
        **{f"{name}.{ext}": [*argv, "--format", fmt]
           for name, argv in fits for fmt, ext in (("text", "txt"), ("json", "json"))},
        "constancy.txt": ["constancy", "--data", SAMPLE],
        "boyle.txt": ["boyle"],
        "boyle.json": ["boyle", "--format", "json", "--plot-data-dir", "plots"],
    }
    results = _probe_modules(list(runs.values()), [], cwd=tmp_path)
    assert [code for code, *_ in results] == [0] * len(runs)
    assert {name: stdout for name, (_, _, stdout, _) in zip(runs, results)} == {
        name: (GOLDEN / name).read_text() for name in runs}
    assert (tmp_path / "s.csv").read_bytes() == (GOLDEN / "sample.csv").read_bytes()
    plots = GOLDEN / "boyle_plots"
    assert {p.name: p.read_bytes() for p in (tmp_path / "plots").iterdir()} == {
        p.name: p.read_bytes() for p in plots.iterdir()}


def test_only_fit_loads_scipy(tmp_path):
    """Where scipy is installed, no command loads it, fit included: the name
    is from when fit's p-values loaded scipy.special.  The blocked test above
    shows that no command needs scipy; this one, that none imports it when it
    can, as a fallback would, which would cost start-up time."""
    runs = [
        ["simulate", "--n", "50", "--sigma", "5", "--seed", "7", "--out", str(tmp_path / "s.csv")],
        *(["compare", "--data", SAMPLE, "--format", fmt] for fmt in ("markdown", "csv", "json")),
        ["boyle", "--plot-data-dir", str(tmp_path / "plots")],
        ["constancy", "--data", SAMPLE],
        ["fit", "--model", "1 ~ x + y + x*y", "--reduce", "--data", SAMPLE],
    ]
    for argv, (code, modules, *_) in zip(runs, _probe_modules(runs, ["scipy"], block_scipy=False)):
        assert (code, modules) == (0, []), argv


def test_cli_import_loads_neither_dataclasses_nor_importlib_resources():
    """The records are plain classes, and only the Boyle loader imports
    importlib.resources (and tempfile with it), so a cold compare loads
    neither, and prints the golden JSON.  ``-S`` keeps out the ``.pth`` files
    of site-packages, which may import either at start-up, so numpy's
    directory goes on the path."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        str(Path(module.__file__).resolve().parents[1]) for module in (implicitreg, np))
    proc = subprocess.run([sys.executable, "-S", "-X", "importtime", "-m", "implicitreg.cli",
                           "compare", "--data", SAMPLE, "--format", "json"],
                          env=env, check=True, capture_output=True, text=True, timeout=60)
    imported = {line.rsplit("|", 1)[-1].strip() for line in proc.stderr.splitlines()}
    assert "implicitreg" in imported
    assert not {"dataclasses", "importlib.resources"} & imported
    assert proc.stdout == (GOLDEN / "compare.json").read_text()


def test_decimal_csv_loads_neither_hashlib_nor_fractions():
    """Only the Boyle checksum needs hashlib and only a fraction field needs
    fractions (and decimal, which it imports), so compare, constancy and fit
    on a decimal CSV load none of them."""
    runs = [["compare", "--data", SAMPLE, "--format", "json"],
            ["constancy", "--data", SAMPLE],
            ["fit", "--model", "1 ~ x + y + x*y", "--reduce", "--data", SAMPLE, "--format", "json"]]
    roots = ["hashlib", "_hashlib", "fractions", "decimal", "_decimal"]
    for argv, (code, modules, *_) in zip(runs, _probe_modules(runs, roots)):
        assert (code, modules) == (0, []), argv


class TestConstancyCommand:
    def test_noiseless_product(self, tmp_path, capsys):
        data = noiseless_csv(tmp_path)
        code, stdout, _ = run_cli(
            capsys, "constancy", "--data", str(data), "--vars", "xy"
        )
        assert code == 0
        assert "xy: constancy_index = 1.000000" in stdout
        assert "self_weighting_mean = 4000.000000" in stdout

    def test_all_three_vars_by_default(self, tmp_path, capsys):
        data = sim_csv(tmp_path)
        code, stdout, _ = run_cli(capsys, "constancy", "--data", str(data))
        assert code == 0
        for name in ("x:", "y:", "xy:"):
            assert name in stdout

    def test_empty_var_list_is_usage_error(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["constancy", "--data", "d.csv", "--vars", ","])
        assert excinfo.value.code == 2
        assert "--vars: no variables requested" in capsys.readouterr().err

    def test_unknown_var_is_usage_error(self, tmp_path, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["constancy", "--data", "d.csv", "--vars", "t"])
        assert excinfo.value.code == 2
