"""Run one palcensus command with every public function traced.

    python3 bench/launch.py SPANS_FILE ARG...

Installs the same wrappers as the traced library workloads, calls
``palcensus.cli.main(ARG...)`` and writes the recorded spans as JSON to
SPANS_FILE on the way out, whatever the exit status.  Standard output and
the exit code are the command's own.
"""

import json
import sys
from pathlib import Path

import tracing


def main() -> int:
    spans_file, argv = Path(sys.argv[1]), sys.argv[2:]
    tracer = tracing.Tracer()
    tracing.install(tracer)
    import palcensus.cli

    try:
        return palcensus.cli.main(argv)
    finally:
        spans_file.write_text(json.dumps(tracer.spans))


if __name__ == "__main__":
    sys.exit(main())
