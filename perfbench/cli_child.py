"""Traced `qsign` CLI process: times the import, installs the tracer's
wrappers, runs `qsign.cli.main(argv)` and writes spans and work counts.

Usage: python3 perfbench/cli_child.py SPAN_FILE OP_ID QSIGN_ARGS...
The exit code is the CLI's own.
"""

import json
import sys
from time import perf_counter_ns

from tracer import Tracer


def main() -> int:
    span_file, op_id, argv = sys.argv[1], int(sys.argv[2]), sys.argv[3:]
    start = perf_counter_ns()
    import qsign.cli

    import_ns = perf_counter_ns() - start
    tracer = Tracer()
    tracer.install()
    tracer.begin_op(op_id)
    try:
        code = qsign.cli.main(argv)
        sys.stdout.flush()
    finally:
        tracer.uninstall()
        payload = {"import_ns": import_ns, "spans": tracer.spans, "counts": tracer.end_op()}
        with open(span_file, "w", encoding="utf-8") as fh:
            json.dump(payload, fh)
    return code


if __name__ == "__main__":
    sys.exit(main())
