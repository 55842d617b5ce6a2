"""Run the roundness CLI with layer spans recorded.

Usage: python traced_cli.py SPANS_FILE CLI_ARGS...

Same entry point as `python -m roundness.cli CLI_ARGS...`; on exit the spans
are written to SPANS_FILE as JSON. Spans from `--jobs` worker processes stay
in those workers and are not collected.
"""

import json
import sys

from spans import Tracer


def main() -> int:
    spans_file, argv = sys.argv[1], sys.argv[2:]
    import roundness.cli

    tracer = Tracer()
    tracer.install()
    try:
        return roundness.cli.main(argv)
    finally:
        tracer.uninstall()
        with open(spans_file, "w", encoding="utf-8") as fh:
            json.dump(tracer.spans, fh)


if __name__ == "__main__":
    sys.exit(main())
