"""Run one dtofsim CLI command with the benchmark's wrappers installed.

Usage: python3 perfbench/cli_shim.py SPANS_FILE COMMAND [ARGS...]

Installs the tracer, calls ``dtofsim.cli.main(argv)`` inside a ``cli.main``
span and writes the spans as JSON to SPANS_FILE before exiting with the
command's exit code.  Untraced runs use ``python -m dtofsim.cli``.
"""

import json
import os
import sys

sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))

from perfbench.tracer import Tracer  # noqa: E402

import dtofsim.cli  # noqa: E402


def main() -> int:
    spans_file, argv = sys.argv[1], sys.argv[2:]
    tracer = Tracer(spans=True)
    with tracer.installed():
        code = tracer.span("cli.main", dtofsim.cli.main, argv)
    with open(spans_file, "w", encoding="utf-8") as fh:
        json.dump(tracer.spans, fh)
    return code


if __name__ == "__main__":
    sys.exit(main())
