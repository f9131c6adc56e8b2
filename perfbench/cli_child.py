"""Run one pqgeo CLI command with the span recorder installed.

Usage: python perfbench/cli_child.py SPANS_JSON COMMAND [ARGS...]

Wraps the library functions under the names ``pqgeo.cli`` imported them
by, runs ``pqgeo.cli.main`` on the remaining arguments, writes the spans
and counters to SPANS_JSON and exits with the command's exit code.
Needs ``src`` on PYTHONPATH, as ``python -m pqgeo.cli`` does.
"""

import json
import sys

from spans import CLI_WRAPS, Tracer


def main(argv):
    spans_path, command = argv[0], argv[1:]
    tracer = Tracer()
    tracer.install(CLI_WRAPS)
    from pqgeo import cli
    try:
        code = cli.main(command)
    finally:
        tracer.uninstall()
    with open(spans_path, "w") as handle:
        json.dump({"spans": tracer.spans, "counts": tracer.counts[None]},
                  handle)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
