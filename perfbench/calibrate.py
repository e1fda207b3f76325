"""Machine-speed calibration: a frozen copy of the package timed beside each op.

On a small shared host the speed of a core drifts by half within seconds
as neighbours' load comes and goes, and user and system CPU time drift
with it.  That moves every op of a run alike, so the run-to-run spread of
raw times says more about the neighbours than about the program.

``baseline/implicitreg_base`` is a byte-for-byte copy of ``src/implicitreg``
at the commit that defined this benchmark.  After every op the benchmark
runs the same op on the same input with that copy (the workload's
kernel), so the two see the same machine within a second or so of each
other.  An op's time is reported in reference seconds:

    wall_ref = wall * kernel.ref_s / (mean kernel wall just before and after)

and CPU time alike, by the kernel's CPU time.  A change to the program
moves ``wall`` and leaves the frozen copy alone, so it shows in full;
drift of the machine moves both.  ``ref_s`` is a round figure near the
kernel's typical time on the 2-vCPU shared VM where the benchmark was
defined, so at that commit reference seconds read close to seconds there.
Set-up time is scaled by the run's median kernel time.
Generic kernels (a pure Python loop, numpy calls, a bare interpreter
start) were tried first and tracked the ops too loosely when the host was
busy.
"""

from __future__ import annotations

import os
import select
import subprocess
import time
from pathlib import Path

BASELINE_DIR = Path(__file__).resolve().parent / "baseline"
CHILD_TIMEOUT_S = 120.0


def wait_child(proc: subprocess.Popen, timeout: float):
    """Reap ``proc``; returns (exit code, its own resource usage)."""
    pidfd = os.pidfd_open(proc.pid)
    try:
        ready, _, _ = select.select([pidfd], [], [], timeout)
    finally:
        os.close(pidfd)
    if not ready:
        proc.kill()
        os.wait4(proc.pid, 0)
        proc.returncode = -9
        raise TimeoutError(f"{proc.args[:4]} ran longer than {timeout} s")
    _, status, usage = os.wait4(proc.pid, 0)
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, usage


class Kernel:
    """The workload's op done by the frozen copy.

    ``work(item)`` does it and returns the CPU seconds of any child
    process; ``run(item)`` returns its (wall, CPU) seconds.
    """

    def __init__(self, name: str, ref_s: float, work):
        self.name, self.ref_s, self.work = name, ref_s, work

    def run(self, item) -> tuple[float, float]:
        start, cpu_start = time.perf_counter(), time.process_time()
        child_cpu = self.work(item)
        return time.perf_counter() - start, time.process_time() - cpu_start + child_cpu


class Calibration:
    """Kernel samples of one run and the scale factors they give.

    ``samples[i]`` is the i-th (wall, CPU) sample; an op recorded while
    ``block`` is i lies between samples i and i + 1 and is scaled by their
    mean.
    """

    def __init__(self, kernel: Kernel):
        self.kernel = kernel
        self.samples: list[tuple[float, float]] = []

    @property
    def block(self) -> int:
        return len(self.samples) - 1

    def sample(self, item) -> None:
        self.samples.append(self.kernel.run(item))

    def factors(self, block: int) -> tuple[float, float]:
        """(wall, CPU) scale factors for what lies after sample ``block``."""
        around = self.samples[block:block + 2]
        wall = sum(w for w, _ in around) / len(around)
        cpu = sum(c for _, c in around) / len(around)
        return self.kernel.ref_s / wall, self.kernel.ref_s / cpu
