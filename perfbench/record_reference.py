"""Record the outputs the benchmark's correctness gate compares against.

Run from the repository root, at the commit whose outputs are the
reference:

    python3 perfbench/record_reference.py

Rewrites ``perfbench/reference.json``.  For every generator seed of the
two pools it stores the seven-model comparison of the sigma = 5 sample,
reduced to the values ``workloads.check_report`` compares, and for the
n = 50 pool the constancy indices of x, y and x*y.  The large samples go
through ``write_csv``/``read_csv`` first, as in the benchmark.
"""

import json
import subprocess
import sys
from pathlib import Path

from run import pin_blas_threads

HERE = Path(__file__).resolve().parent
pin_blas_threads()  # results are recorded under the benchmark's BLAS setting
sys.path.insert(0, str(HERE.parent / "src"))

from implicitreg import (  # noqa: E402
    SimulationConfig,
    build_comparison,
    constancy_index,
    generate,
    read_csv,
    render_json,
    write_csv,
)

import workloads as wl  # noqa: E402

SMALL_POOL = range(200)
LARGE_POOL = range(8)


def _rows(data) -> list:
    return wl.canonical_rows(json.loads(render_json(build_comparison(data))))


def _commit() -> str:
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=HERE.parent,
                             capture_output=True, text=True, check=True)
    except (OSError, subprocess.CalledProcessError):
        return "unknown"
    return out.stdout.strip()


def main() -> None:
    small = {}
    for seed in SMALL_POOL:
        data = generate(SimulationConfig(n=wl.SMALL_N, sigma=wl.SIGMA, seed=seed))
        small[str(seed)] = {
            "rows": _rows(data),
            "constancy": [constancy_index(data.x), constancy_index(data.y),
                          constancy_index(data.x * data.y)],
        }
    large = {}
    for seed in LARGE_POOL:
        data = generate(SimulationConfig(n=wl.LARGE_N, sigma=wl.SIGMA, seed=seed))
        large[str(seed)] = {"rows": _rows(read_csv(write_csv(data, decimals=wl.CSV_DECIMALS)))}

    recorded = {**wl.provenance(), "commit": _commit(), "sigma": wl.SIGMA}
    # one generator seed per line keeps the file reviewable in a diff
    lines = ["{", f'"recorded_with": {json.dumps(recorded)},']
    for key, pool, last in (("n50", small, False), ("n200k", large, True)):
        lines.append(f'"{key}": {{')
        entries = [f"{json.dumps(seed)}: {json.dumps(entry, separators=(',', ':'))}"
                   for seed, entry in pool.items()]
        lines.append(",\n".join(entries))
        lines.append("}" if last else "},")
    lines.append("}")
    wl.REFERENCE_PATH.write_text("\n".join(lines) + "\n")


if __name__ == "__main__":
    main()
