#!/usr/bin/env python3
"""implicitreg benchmark: one closed-loop workload per invocation.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; the package is imported from ``src/``.
Workloads (one caller, no added threads, BLAS pinned to one thread):

* ``cli_compare_n50`` - a cold ``python -m implicitreg.cli compare
  --format json`` subprocess per op on an n = 50 sample;
* ``compare_n200k`` - in process, ``read_csv`` -> ``build_comparison`` ->
  ``render_json`` on a 2e5-row sample;
* ``study_n50`` - in process, the criterion-5 loop ``generate`` ->
  ``build_comparison`` -> three ``constancy_index`` calls, one seed per op.

The CLI's ``fit`` and ``boyle`` commands have no workload: at the commit
this benchmark was defined they raise TypeError (they subscript
``MetricSet``).

Times are reported in reference seconds: each op's wall and CPU time is
scaled by the speed of the machine at that moment, measured by timing the
same op done by a frozen copy of the package right before and after it
(see ``calibrate.py``); raw wall-clock figures are printed as comment
lines.  Set-up (from the script's first line: the package import, the
inputs and one checked warm-up op) runs in this process and once more in
a fresh ``--setup-probe`` subprocess, with a set-up by the frozen copy
(``--setup-probe --frozen``) before and after that probe; ``setup_s`` is
the median of the two over the median of the frozen ones, times the
workload's ``setup_ref_s``.  ``peak_rss_mib`` is the peak RSS of the
CLI's child processes, or of this process through set-up (before the
frozen copy is loaded) for the in-process workloads.  Every op is checked
against ``reference.json``.

With ``--trace 0`` the last stdout line reports the end-to-end metrics of
untraced ops.  With ``--trace 1`` passes alternate between untraced and
traced, and the last line reports per-layer metrics: times are reference
seconds per op over the traced ops, counts are per pass (one sweep of the
workload's inputs) and must repeat exactly in every traced pass.  Spans
of the first two traced passes are written to ``.perfbench_work/``.
Exit status: 0 when every check passed, 1 when one failed, 2 when the
checkout has no package to measure.
"""

import time

_PROCESS_START = time.perf_counter()

import argparse  # noqa: E402
import importlib  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

import tracing  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK_ROOT = ROOT / ".perfbench_work"
SETUP_PROBES = 1
PROBE_TIMEOUT_S = 150.0
SPAN_PASSES_WRITTEN = 2
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

# per-layer metric -> (span name, field of tracing.totals); times are per op
LAYER_TIMES = {
    "cli.main_s": ("cli.main", "s"),
    "dataio.read_csv_s": ("dataio.read_csv", "s"),
    "formula.parse_model_s": ("formula.parse_model", "s"),
    "fitcore.fit_ols_s": ("fitcore.fit_ols", "s"),
    "fitcore.reduce_model_self_s": ("fitcore.reduce_model", "self_s"),
    "implicit.predict_s": ("implicit.predict", "s"),
    "implicit.predict_y_s": ("implicit.predict_y", "s"),
    "implicit.x_solve_s": ("implicit.predict", "self_s"),
    "metrics.square_sums_s": ("metrics.joint_square_sums", "s"),
    "metrics.rank_models_s": ("metrics.rank_models", "s"),
    "compare.build_comparison_s": ("compare.build_comparison", "s"),
    "compare.self_s": ("compare.build_comparison", "self_s"),
    "compare.model_metrics_self_s": ("compare.model_metrics", "self_s"),
    "compare.render_s": ("compare.render", "s"),
    "simulate.generate_s": ("simulate.generate", "s"),
}
# measured outside spans (tracer values), seconds per op
LAYER_VALUES = ("cli.import_s", "cli.import_scipy_s", "cli.import_numpy_s",
                "cli.interpreter_s")
# exact counts per pass
LAYER_COUNTS = {
    "dataio.rows": ("dataio.read_csv", "rows"),
    "formula.parse_model_calls": ("formula.parse_model", "calls"),
    "fitcore.fit_ols_calls": ("fitcore.fit_ols", "calls"),
    "fitcore.refits": ("fitcore.fit_ols", "refits"),
    "fitcore.design_bytes": ("fitcore.fit_ols", "design_bytes"),
    "implicit.solves": ("implicit.predict", "solves"),
    "implicit.complex_x": ("implicit.predict", "complex_x"),
    "implicit.undefined": ("implicit.predict", "undefined"),
    "metrics.rank_calls": ("metrics.rank_models", "calls"),
}
COUNT_UNITS = {"fitcore.design_bytes": "B"}


def pin_blas_threads() -> None:
    """One BLAS thread for this process and every child it starts.

    On a small shared machine a second OpenBLAS thread spin-waits beside
    the caller, which makes times depend on the neighbours' load.  Must
    run before numpy is first imported.
    """
    for var in BLAS_THREAD_VARS:
        os.environ[var] = "1"


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true",
                        help="set up once, print the set-up time and exit")
    parser.add_argument("--frozen", action="store_true",
                        help="with --setup-probe: set up with the frozen copy "
                             "of the package, to scale set-up time by")
    args = parser.parse_args(argv)
    if args.frozen and not args.setup_probe:
        parser.error("--frozen only goes with --setup-probe")
    return args


class Loop:
    """Op records and failures of one run."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0  # ops
        self.run_failures = 0  # checks over many ops: pass tallies, count repeats
        self.problems: list[str] = []
        self.clear_timings()

    @property
    def correct(self) -> bool:
        return self.failed == 0 and self.run_failures == 0

    def clear_timings(self) -> None:
        self.records: list[tuple] = []  # (traced, wall, cpu, calibration block)
        self.child_rss_kib = 0

    def fail(self, message: str) -> None:
        if len(self.problems) < 10:
            self.problems.append(message)

    def op(self, workload, item, calibration=None, tracer=None):
        """Run, time and check one op; returns its payload or None.

        Without a calibration the op is checked but not recorded (warm-up).
        """
        self.attempted += 1
        start, cpu_start = time.perf_counter(), time.process_time()
        try:
            payload, child_cpu, child_rss = workload.run(item, tracer)
        except Exception:
            self.failed += 1
            self.fail(f"op on {item} raised:\n{traceback.format_exc()}")
            return None
        wall = time.perf_counter() - start
        cpu = time.process_time() - cpu_start + child_cpu
        try:
            problems = workload.check(item, payload)
        except Exception:
            problems = [f"check raised:\n{traceback.format_exc()}"]
        if problems:
            self.failed += 1
            self.fail(f"op on {item}: " + "; ".join(problems[:5]))
        if calibration is not None:
            self.records.append((tracer is not None, wall, cpu, calibration.block))
            calibration.sample(item)
        if tracer is None:
            self.child_rss_kib = max(self.child_rss_kib, child_rss)
        return payload

    def scaled(self, calibration) -> dict:
        """Recorded ops as (wall, cpu) in reference seconds, keyed by traced."""
        out = {False: [], True: []}
        for traced, wall, cpu, block in self.records:
            f_wall, f_cpu = calibration.factors(block)
            out[traced].append((wall * f_wall, cpu * f_cpu))
        return out


def run_pass(loop, workload, items, calibration, tracer=None):
    payloads = [loop.op(workload, item, calibration, tracer) for item in items]
    if None in payloads:
        return
    try:
        problems = workload.check_pass(items, payloads)
    except Exception:
        problems = [f"pass check raised:\n{traceback.format_exc()}"]
    for problem in problems:
        loop.fail(f"pass: {problem}")
    if problems:
        loop.run_failures += 1


def probe_setup(args, loop, frozen=False) -> float:
    """Set up once more in a fresh process; its warm-up op counts as an attempt."""
    argv = [sys.executable, str(Path(__file__)), "--workload", args.workload,
            "--seed", str(args.seed), "--seconds", "0", "--setup-probe"]
    if frozen:
        argv.append("--frozen")
    out = subprocess.run(argv, capture_output=True, text=True, cwd=ROOT,
                         timeout=PROBE_TIMEOUT_S)
    try:
        setup_s = json.loads(out.stdout.splitlines()[-1])["setup_s"]
    except (IndexError, ValueError, KeyError):
        raise RuntimeError(f"set-up probe printed no result ({out.returncode}):\n"
                           f"{out.stderr}") from None
    loop.attempted += 1
    if out.returncode != 0:
        loop.failed += 1
        loop.fail(f"set-up probe: {out.stderr.strip()[-1000:]}")
    return setup_s


def end_to_end(loop, workload, setups, frozen_setups, setup_rss_kib, calibration) -> dict:
    ops = loop.scaled(calibration)[False]
    walls = [wall for wall, _ in ops]
    rss_kib = setup_rss_kib if workload.in_process else loop.child_rss_kib
    print(f"# set-up: raw wall-clock {[round(t, 4) for t in setups]} s, "
          f"frozen copy {[round(t, 4) for t in frozen_setups]} s")
    setup_s = (statistics.median(setups) / statistics.median(frozen_setups)
               * workload.setup_ref_s)
    return {
        "setup_s": (setup_s, "s"),
        "op_s_p50": (statistics.median(walls), "s"),
        "ops_per_s": (len(walls) / sum(walls), "1/s"),
        "cpu_s_per_op": (sum(cpu for _, cpu in ops) / len(ops), "s"),
        "peak_rss_mib": (rss_kib / 1024.0, "MiB"),
    }


def per_layer(loop, traced_passes, calibration) -> dict:
    """Per-layer metrics from the traced passes.

    ``traced_passes`` is [(totals, values, first op record, end), ...]; a
    pass's span times are scaled by the mean wall factor of its ops.
    """
    scales = []
    for _, _, first, end in traced_passes:
        factors = [calibration.factors(block)[0]
                   for _, _, _, block in loop.records[first:end]]
        scales.append(sum(factors) / len(factors))
    n_ops = sum(end - first for _, _, first, end in traced_passes)
    out = {}
    for metric, (span, field) in LAYER_TIMES.items():
        total = sum(t.get(span, {}).get(field, 0.0) * k
                    for (t, _, _, _), k in zip(traced_passes, scales))
        out[metric] = (total / n_ops, "s")
    for metric in LAYER_VALUES:
        total = sum(v.get(metric, 0.0) * k
                    for (_, v, _, _), k in zip(traced_passes, scales))
        out[metric] = (total / n_ops, "s")

    counts = [{metric: t.get(span, {}).get(field, 0)
               for metric, (span, field) in LAYER_COUNTS.items()}
              for t, _, _, _ in traced_passes]
    if any(c != counts[0] for c in counts[1:]):
        loop.run_failures += 1
        loop.fail(f"exact counts differ between traced passes: {counts}")
    for metric, value in counts[0].items():
        out[metric] = (value, COUNT_UNITS.get(metric, "count"))

    ops = loop.scaled(calibration)
    overhead = (statistics.median(wall for wall, _ in ops[True])
                / statistics.median(wall for wall, _ in ops[False]))
    out["trace.overhead_frac"] = (overhead - 1.0, "ratio")
    return out


def measure(args, workload, loop, calibration) -> tuple[list, list]:
    """The timed loop; returns (traced pass totals, spans to write)."""
    items = workload.items()
    tracer = tracing.Tracer() if args.trace else None
    traced_passes, written = [], []
    deadline = time.perf_counter() + args.seconds
    pass_no = 0
    while (time.perf_counter() < deadline
           or (args.trace and (pass_no < 4 or not traced_passes))):
        traced = bool(args.trace) and pass_no % 2 == 1
        pass_no += 1
        if not traced:
            run_pass(loop, workload, items, calibration)
            continue
        first = len(loop.records)
        undo = tracing.install(tracer, tracing.PACKAGE_WRAPS) if workload.in_process else []
        try:
            run_pass(loop, workload, items, calibration, tracer)
        finally:
            tracing.uninstall(undo)
        spans, values = tracer.take()
        traced_passes.append((tracing.totals(spans), values, first, len(loop.records)))
        if len(written) < SPAN_PASSES_WRITTEN:
            written.append(spans)
    return traced_passes, written


def report(args, workload, loop, calibration, metrics, provenance, reference) -> None:
    print(f"# provenance: {json.dumps(provenance)}")
    print(f"# reference recorded at commit {reference['recorded_with']['commit']}")
    print(f"# {workload.describe()}; benchmark seed {args.seed}")
    kernel = calibration.kernel
    kernel_walls = [wall for wall, _ in calibration.samples]
    print(f"# calibration kernel {kernel.name}: {len(kernel_walls)} samples, "
          f"median {statistics.median(kernel_walls):.6g} s wall "
          f"(reference {kernel.ref_s:g} s)")
    for traced in (False, True):
        walls = [wall for t, wall, _, _ in loop.records if t == traced]
        if walls:
            print(f"# {'traced' if traced else 'untraced'} ops: {len(walls)} "
                  f"in {sum(walls):.3f} s of op time; raw wall-clock p50 "
                  f"{statistics.median(walls):.6g} s")
    untraced = sorted(wall for wall, _ in loop.scaled(calibration)[False])
    if not args.trace and len(untraced) >= 100:
        p90 = statistics.quantiles(untraced, n=10)[-1]
        print(f"# op_s_p90 {p90:.6g} s (reference) over {len(untraced)} ops")
    for problem in loop.problems:
        print(f"# FAILED {problem}")
    for name, (value, unit) in metrics.items():
        print(f"{workload.name} {name} {value:.6g} {unit}")
    print(json.dumps({
        "correct": loop.correct,
        "attempted": loop.attempted,
        "failed": loop.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "implicitreg" / "__init__.py").is_file():
        print(f"error: no implicitreg package under {SRC}; run from a checkout "
              "of the repository", file=sys.stderr)
        return 2
    pin_blas_threads()
    import calibrate

    if args.frozen:
        # workloads import ``implicitreg``; give them the frozen copy
        sys.path.append(str(calibrate.BASELINE_DIR))
        sys.modules["implicitreg"] = importlib.import_module("implicitreg_base")
        package_dir = calibrate.BASELINE_DIR / "implicitreg_base"
    else:
        sys.path.insert(0, str(SRC))
        package_dir = SRC / "implicitreg"
    import implicitreg
    import workloads

    if Path(implicitreg.__file__).resolve().parent != package_dir:
        print(f"error: imported implicitreg from {implicitreg.__file__}, "
              f"not from {SRC}", file=sys.stderr)
        return 2
    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from "
              f"{', '.join(workloads.WORKLOADS)}", file=sys.stderr)
        return 2

    reference = workloads.load_reference()
    WORK_ROOT.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=WORK_ROOT))
    try:
        workload = workloads.WORKLOADS[args.workload](args.seed, reference, workdir)
        loop = Loop()
        workload.setup()
        loop.op(workload, workload.items()[0])  # warm-up, checked
        setup_s = time.perf_counter() - _PROCESS_START
        if args.setup_probe:
            print(json.dumps({"setup_s": setup_s}))
            for problem in loop.problems:
                print(f"FAILED {problem}", file=sys.stderr)
            return 0 if loop.correct else 1
        setup_rss_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        setups, frozen_setups = [setup_s], []
        if not args.trace:
            for _ in range(SETUP_PROBES):
                frozen_setups.append(probe_setup(args, loop, frozen=True))
                setups.append(probe_setup(args, loop))
            frozen_setups.append(probe_setup(args, loop, frozen=True))
        calibration = calibrate.Calibration(workload.kernel())
        calibration.sample(workload.items()[0])

        loop.clear_timings()  # the warm-up op stays counted as attempted
        traced_passes, written = measure(args, workload, loop, calibration)
        if args.trace:
            metrics = per_layer(loop, traced_passes, calibration)
            spans_path = WORK_ROOT / f"spans-{args.workload}-seed{args.seed}.json"
            spans_path.write_text(json.dumps({"workload": args.workload,
                                              "seed": args.seed, "passes": written}))
        else:
            metrics = end_to_end(loop, workload, setups, frozen_setups, setup_rss_kib,
                                 calibration)
        report(args, workload, loop, calibration, metrics, workloads.provenance(), reference)
        return 0 if loop.correct else 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
