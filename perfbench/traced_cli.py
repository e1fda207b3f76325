"""Run ``implicitreg.cli.main`` once with the benchmark's spans installed.

Usage (``src`` on PYTHONPATH, run under ``python -X importtime`` so the
caller can split the import cost):

    python -X importtime perfbench/traced_cli.py SPANS_OUT compare --format json --data FILE

Writes the recorded spans as JSON to SPANS_OUT and exits with the CLI's
exit code.  The CLI's own output goes to stdout unchanged.
"""

import json
import sys

import tracing

import implicitreg.cli as cli


def main() -> int:
    spans_out, argv = sys.argv[1], sys.argv[2:]
    tracer = tracing.Tracer()
    undo = tracing.install(tracer, tracing.PACKAGE_WRAPS + tracing.CLI_WRAPS)
    try:
        with tracer.span("cli.main"):
            code = cli.main(argv)
    finally:
        tracing.uninstall(undo)
    spans, _ = tracer.take()
    with open(spans_out, "w") as fh:
        json.dump(spans, fh)
    return code


if __name__ == "__main__":
    sys.exit(main())
