"""Run the palettebox command line with span tracing, for traced benchmark runs.

Usage: python3 perfbench/trace_cli.py SPANS_JSON <palettebox arguments...>

Behaves like ``python -m palettebox.cli <arguments>`` and additionally
writes the spans of the call to SPANS_JSON.
"""

import json
import sys

import tracing


def main() -> int:
    spans_path, argv = sys.argv[1], sys.argv[2:]
    from palettebox import cli

    tracer = tracing.Tracer()
    try:
        with tracer:
            code = cli.main(argv)
    finally:
        with open(spans_path, "w") as fh:
            json.dump(tracer.spans(), fh)
    return code


if __name__ == "__main__":
    sys.exit(main())
