"""`python -m primelattice ARGS` with the span tracer installed.

Usage: python perfbench/tracedcli.py ARGS...  (with primelattice importable)

The CLI's own stdout and exit code pass through unchanged; the trace goes
to stderr as one final line starting with TRACE_MARKER.
"""

from __future__ import annotations

import json
import sys

from tracer import Tracer

TRACE_MARKER = "PERFBENCH_TRACE "


def main() -> int:
    import primelattice.cli

    tracer = Tracer()
    tracer.install()
    try:
        # what `python -m primelattice` runs, minus its sys.exit
        code = primelattice.cli.run(sys.argv[1:])
    finally:
        tracer.uninstall()
    print(TRACE_MARKER + json.dumps(tracer.report()), file=sys.stderr)
    return code


if __name__ == "__main__":
    sys.exit(main())
