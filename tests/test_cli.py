import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import implicitreg
from implicitreg import DegenerateDataError, SimulationConfig, Term, generate, write_csv
from implicitreg import compare
from implicitreg.cli import main


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def sim_csv(tmp_path, sigma=5.0, seed=12345, n=50):
    path = tmp_path / f"sim_{sigma}_{seed}.csv"
    path.write_bytes(write_csv(generate(SimulationConfig(n=n, sigma=sigma, seed=seed)), decimals=12))
    return path


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
        # the 1/x fit fails at x = 0, and the solves of the x rotation (as
        # reduced) and of 1 ~ x*y are made to fail, one before it and one after
        predict = compare.predict

        def predict_failing_two(fit, data):
            if fit.spec.response is Term.X or str(fit.spec) == "1 ~ x*y":
                raise DegenerateDataError("no solve")
            return predict(fit, data)

        monkeypatch.setattr(compare, "predict", predict_failing_two)
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
        fit = compare.BasisQR.fit

        def counting_fit(basis, spec):
            fitted.append(spec)
            return fit(basis, spec)

        loads = []
        boyle_dataset = compare.boyle_dataset

        def counting_load():
            loads.append(1)
            return boyle_dataset()

        monkeypatch.setattr(compare.BasisQR, "fit", counting_fit)
        monkeypatch.setattr(compare, "boyle_dataset", counting_load)
        code, _, _ = run_cli(capsys, "boyle", "--plot-data-dir", str(tmp_path / "plots"))
        assert code == 0
        assert len(fitted) == 3
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


_MODULE_PROBE = """
import contextlib, io, json, sys
from implicitreg.cli import main

roots = set(json.loads(sys.argv[2]))
loaded = []
for argv in json.loads(sys.argv[1]):
    with contextlib.redirect_stdout(io.StringIO()):
        code = main(argv)
    loaded.append([code, sorted(m for m in sys.modules if m.split('.')[0] in roots)])
print(json.dumps(loaded))
"""


def _probe_modules(runs, roots):
    """Run ``main`` on each argv in turn in one fresh interpreter; after each,
    its exit code and the loaded modules under the package names ``roots``."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(Path(implicitreg.__file__).resolve().parents[1])
    out = subprocess.run([sys.executable, "-c", _MODULE_PROBE, json.dumps(runs), json.dumps(roots)],
                         env=env, check=True, capture_output=True, text=True, timeout=60).stdout
    return json.loads(out)


def test_only_fit_loads_scipy(tmp_path):
    """compare, boyle, constancy and simulate print no p-value, so they run
    without scipy; fit prints p-values and loads scipy.special for them."""
    sample = str(tmp_path / "sample.csv")
    scipy_free = [
        ["simulate", "--n", "50", "--sigma", "5", "--seed", "7", "--out", sample],
        *(["compare", "--data", sample, "--format", fmt] for fmt in ("markdown", "csv", "json")),
        ["boyle", "--plot-data-dir", str(tmp_path / "plots")],
        ["constancy", "--data", sample],
    ]
    fit = ["fit", "--model", "1 ~ x + y + x*y", "--reduce", "--data", sample]
    *before_fit, after_fit = _probe_modules([*scipy_free, fit], ["scipy"])
    for argv, (code, modules) in zip(scipy_free, before_fit):
        assert (code, modules) == (0, []), argv
    assert after_fit[0] == 0
    assert "scipy.special" in after_fit[1]


def test_decimal_csv_loads_neither_hashlib_nor_fractions():
    """Only the Boyle checksum needs hashlib and only a fraction field needs
    fractions (and decimal, which it imports), so compare and constancy on a
    decimal CSV load none of them.  fit reads no fraction either; its
    p-values load scipy.special, whose numpy.random import brings hashlib."""
    sample = str(Path(__file__).parent / "golden" / "sample.csv")
    decimal_only = [["compare", "--data", sample, "--format", "json"],
                    ["constancy", "--data", sample]]
    fit = ["fit", "--model", "1 ~ x + y + x*y", "--reduce", "--data", sample]
    roots = ["hashlib", "_hashlib", "fractions", "decimal", "_decimal"]
    *before_fit, after_fit = _probe_modules([*decimal_only, fit], roots)
    for argv, (code, modules) in zip(decimal_only, before_fit):
        assert (code, modules) == (0, []), argv
    assert after_fit[0] == 0
    assert not {"fractions", "decimal", "_decimal"} & set(after_fit[1])


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
