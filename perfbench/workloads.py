"""The benchmark's three workloads and the correctness gate every op passes.

Each workload draws its inputs from the benchmark seed, out of a pool of
generator seeds whose outputs ``reference.json`` holds (recorded by
``record_reference.py``).  All samples are the simulation of the paper at
sigma = 5.
"""

from __future__ import annotations

import importlib
import json
import os
import random
import subprocess
import sys
import time
from contextlib import nullcontext
from pathlib import Path

import implicitreg
from implicitreg import (
    SimulationConfig,
    build_comparison,
    constancy_index,
    generate,
    read_csv,
    render_json,
    write_csv,
)

import calibrate
import tracing

HERE = Path(__file__).resolve().parent
REFERENCE_PATH = HERE / "reference.json"
TRACED_CLI = HERE / "traced_cli.py"

SIGMA = 5.0
SMALL_N = 50
LARGE_N = 200_000
STUDY_SEEDS = 100
# 17 decimals round-trip every float64, so a sample read back from CSV is
# bit-identical to the generated one and shares its reference
CSV_DECIMALS = 17
# metrics may move by this much (relative) before an op counts as failed;
# ranks, reductions and solve diagnostics must match exactly.  The 2e5-row
# rotations have near-singular solves: going from one BLAS thread to two
# moves their heights and standard errors by up to 6.4e-7 relative.
RTOL = 1e-5
ATOL = 1e-12

METRIC_KEYS = ("r_squared", "se_y", "se_x", "theta_t", "height")
DIAGNOSTIC_KEYS = ("undefined_y", "undefined_x", "complex_x")
NON_RESPONSE = "1 ~ x + y + x*y"


def _blas_threads() -> int | None:
    """Threads of the OpenBLAS bundled with numpy, or None if not found."""
    import ctypes
    import glob

    import numpy

    libs = glob.glob(os.path.join(os.path.dirname(numpy.__file__), os.pardir,
                                  "numpy.libs", "libscipy_openblas*"))
    try:
        return int(ctypes.CDLL(libs[0]).scipy_openblas_get_num_threads64_())
    except (IndexError, OSError, AttributeError):
        return None


def provenance() -> dict:
    import platform

    import implicitreg
    import numpy
    import scipy

    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "implicitreg": implicitreg.__version__,
        "blas_threads": _blas_threads(),
        "nproc": len(os.sched_getaffinity(0)),
    }


def load_reference() -> dict:
    with open(REFERENCE_PATH) as fh:
        return json.load(fh)


def canonical_rows(report: dict) -> list[list]:
    """``render_json`` output reduced to the values the gate compares."""
    return [
        [m["model"], m["reduced"],
         [m["metrics"][k] for k in METRIC_KEYS],
         [m["ranks"][k] for k in METRIC_KEYS],
         [m["diagnostics"][k] for k in DIAGNOSTIC_KEYS]]
        for m in report["models"]
    ]


def _close(a, b) -> bool:
    if a is None or b is None:
        return a is None and b is None
    return abs(a - b) <= RTOL * max(abs(a), abs(b)) + ATOL


def check_report(report: dict, expected: list[list]) -> list[str]:
    """Problems with one rendered comparison; empty when it passes."""
    rows = canonical_rows(report)
    problems = []
    for col, key in enumerate(METRIC_KEYS):
        ranks = [row[3][col] for row in rows if row[3][col] is not None]
        k = len(ranks)
        if sum(ranks) != k * (k + 1) / 2:
            problems.append(f"{key} ranks sum to {sum(ranks)} over {k} rows")
    if len(rows) != len(expected):
        return problems + [f"{len(rows)} rows, expected {len(expected)}"]
    for got, want in zip(rows, expected):
        model = want[0]
        if got[:2] != want[:2]:
            problems.append(f"{model}: model/reduction {got[:2]} != {want[:2]}")
        for key, g, w in zip(METRIC_KEYS, got[2], want[2]):
            if not _close(g, w):
                problems.append(f"{model}: {key} {g!r} != {w!r}")
        if got[3] != want[3]:
            problems.append(f"{model}: ranks {got[3]} != {want[3]}")
        if got[4] != want[4]:
            problems.append(f"{model}: diagnostics {got[4]} != {want[4]}")
    return problems


class Workload:
    """One closed loop.

    ``setup()`` makes the inputs, ``items()`` is one pass over them (the
    exact counts of a traced run are per pass), ``run(item, tracer)`` is
    the timed op and returns its payload, the CPU seconds of any child
    process and that child's peak RSS in KiB, and ``check(item, payload)``
    lists what is wrong with one op's output.  ``kernel()`` is the
    calibration kernel: the same op done by the frozen copy of the package.
    """

    name = ""
    in_process = True
    setup_ref_s: float  # the frozen copy's set-up time in reference seconds

    def __init__(self, seed: int, reference: dict, workdir: Path):
        self.seed = seed
        self.reference = reference
        self.workdir = workdir

    def check_pass(self, items, payloads) -> list[str]:
        """What is wrong with a whole pass; nothing unless overridden."""
        return []


def _span(tracer, name):
    return tracer.span(name) if tracer is not None else nullcontext({})


def _child_env(package_parent: Path) -> dict:
    """This process's environment with ``package_parent`` first on PYTHONPATH."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(package_parent), os.environ.get("PYTHONPATH")) if p)
    return env


def _baseline():
    """The frozen copy of the package the kernels run (see ``calibrate.py``)."""
    if str(calibrate.BASELINE_DIR) not in sys.path:
        sys.path.append(str(calibrate.BASELINE_DIR))
    return importlib.import_module("implicitreg_base")


class CliCompare(Workload):
    """A cold ``python -m implicitreg.cli compare --format json`` per op."""

    name = "cli_compare_n50"
    in_process = False
    setup_ref_s = 2.6

    def setup(self):
        self.gen_seed = random.Random(self.seed).choice(sorted(self.reference["n50"], key=int))
        data = generate(SimulationConfig(n=SMALL_N, sigma=SIGMA, seed=int(self.gen_seed)))
        self.csv_path = self.workdir / "sample.csv"
        self.csv_path.write_bytes(write_csv(data, decimals=CSV_DECIMALS))
        # the package this process imported: src/implicitreg, or the frozen
        # copy in a ``--frozen`` set-up probe
        self.module = f"{implicitreg.__name__}.cli"
        self.env = _child_env(Path(implicitreg.__file__).resolve().parent.parent)
        self.command = ["compare", "--format", "json", "--data", str(self.csv_path)]

    def items(self):
        return [self.gen_seed]

    def kernel(self):
        env = _child_env(calibrate.BASELINE_DIR)
        argv = [sys.executable, "-m", "implicitreg_base.cli", *self.command]

        def work(item):
            proc = subprocess.Popen(argv, stdout=subprocess.DEVNULL, env=env, cwd=HERE.parent)
            code, usage = calibrate.wait_child(proc, calibrate.CHILD_TIMEOUT_S)
            if code != 0:
                raise RuntimeError(f"frozen CLI exited {code}")
            return usage.ru_utime + usage.ru_stime

        return calibrate.Kernel("frozen cli compare", ref_s=1.3, work=work)

    def run(self, item, tracer):
        spans_path = self.workdir / "spans.json"
        if tracer is None:
            argv = [sys.executable, "-m", self.module, *self.command]
        else:
            argv = [sys.executable, "-X", "importtime", str(TRACED_CLI),
                    str(spans_path), *self.command]
        out_path, err_path = self.workdir / "stdout", self.workdir / "stderr"
        with open(out_path, "wb") as out, open(err_path, "wb") as err:
            start = time.perf_counter()
            proc = subprocess.Popen(argv, stdout=out, stderr=err,
                                    env=self.env, cwd=HERE.parent)
            code, usage = calibrate.wait_child(proc, calibrate.CHILD_TIMEOUT_S)
            wall = time.perf_counter() - start
        stdout, stderr = out_path.read_text(), err_path.read_text()
        if tracer is not None and code == 0:
            spans = json.loads(spans_path.read_text())
            tracer.absorb(spans)
            imports = tracing.import_breakdown(stderr)
            for name, value in imports.items():
                tracer.add_value(name, value)
            main_s = tracing.totals(spans).get("cli.main", {}).get("s", 0.0)
            tracer.add_value("cli.interpreter_s", wall - imports["cli.import_s"] - main_s)
        return (code, stdout, stderr), usage.ru_utime + usage.ru_stime, usage.ru_maxrss

    def check(self, item, payload):
        code, stdout, stderr = payload
        if code != 0:
            return [f"exit code {code}: {stderr.strip()[-300:]}"]
        return check_report(json.loads(stdout), self.reference["n50"][item]["rows"])

    def describe(self):
        return f"{self.name}: generator seed {self.gen_seed}, n={SMALL_N}, sigma={SIGMA:g}"


class Compare200k(Workload):
    """In process: read_csv(bytes) -> build_comparison -> render_json."""

    name = "compare_n200k"
    setup_ref_s = 3.5

    def setup(self):
        self.gen_seed = random.Random(self.seed).choice(sorted(self.reference["n200k"], key=int))
        data = generate(SimulationConfig(n=LARGE_N, sigma=SIGMA, seed=int(self.gen_seed)))
        self.csv = write_csv(data, decimals=CSV_DECIMALS)

    def items(self):
        return [self.gen_seed]

    def kernel(self):
        base = _baseline()

        def work(item):
            base.render_json(base.build_comparison(base.read_csv(self.csv)))
            return 0.0

        return calibrate.Kernel("frozen read_csv/build_comparison/render_json", ref_s=2.0,
                                work=work)

    def run(self, item, tracer):
        with _span(tracer, "dataio.read_csv") as attrs:
            data = read_csv(self.csv)
            attrs["rows"] = data.n
        with _span(tracer, "compare.build_comparison"):
            report = build_comparison(data)
        with _span(tracer, "compare.render"):
            text = render_json(report)
        return text, 0.0, 0

    def check(self, item, payload):
        return check_report(json.loads(payload), self.reference["n200k"][item]["rows"])

    def describe(self):
        return f"{self.name}: generator seed {self.gen_seed}, n={LARGE_N}, sigma={SIGMA:g}"


class Study(Workload):
    """The criterion-5 loop: generate -> build_comparison -> 3 constancy indices."""

    name = "study_n50"
    setup_ref_s = 1.1

    def setup(self):
        pool = sorted(self.reference["n50"], key=int)
        self.window = random.Random(self.seed).sample(pool, STUDY_SEEDS)

    def items(self):
        return self.window

    def kernel(self):
        base = _baseline()

        def work(item):
            data = base.generate(base.SimulationConfig(n=SMALL_N, sigma=SIGMA, seed=int(item)))
            base.build_comparison(data)
            for values in (data.x, data.y, data.x * data.y):
                base.constancy_index(values)
            return 0.0

        return calibrate.Kernel("frozen generate/build_comparison/constancy", ref_s=0.005,
                                work=work)

    def run(self, item, tracer):
        with _span(tracer, "simulate.generate"):
            data = generate(SimulationConfig(n=SMALL_N, sigma=SIGMA, seed=int(item)))
        with _span(tracer, "compare.build_comparison"):
            report = build_comparison(data)
        constancy = (constancy_index(data.x), constancy_index(data.y),
                     constancy_index(data.x * data.y))
        return (report, constancy), 0.0, 0

    def check(self, item, payload):
        report, constancy = payload
        want = self.reference["n50"][item]
        problems = check_report(json.loads(render_json(report)), want["rows"])
        for var, got, ref in zip(("x", "y", "xy"), constancy, want["constancy"]):
            if not _close(got, ref):
                problems.append(f"constancy({var}) {got!r} != {ref!r}")
        return problems

    def check_pass(self, items, payloads):
        """Acceptance criterion 5 over the pass's seeds."""
        r2_first = se_y_top2 = ordered = 0
        for report, (c_x, c_y, c_xy) in payloads:
            ranks = next(r.ranks for r in report.rows if r.model == NON_RESPONSE)
            r2_first += ranks["r_squared"] == 1.0
            se_y_top2 += ranks["se_y"] is not None and ranks["se_y"] <= 2.0
            ordered += c_xy > c_y > c_x
        n = len(payloads)
        problems = []
        if r2_first < 0.90 * n:
            problems.append(f"non-response ranks first on R^2 in {r2_first}/{n} seeds")
        if se_y_top2 < 0.90 * n:
            problems.append(f"non-response in the SE_y top two in {se_y_top2}/{n} seeds")
        if ordered < 0.95 * n:
            problems.append(f"constancy ordering xy > y > x in {ordered}/{n} seeds")
        return problems

    def describe(self):
        return (f"{self.name}: {len(self.window)} generator seeds per pass "
                f"(first {self.window[:3]}), n={SMALL_N}, sigma={SIGMA:g}")


WORKLOADS = {cls.name: cls for cls in (CliCompare, Compare200k, Study)}
