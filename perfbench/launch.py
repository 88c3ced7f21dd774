"""Run ``twodof.cli.main`` with the layer wrappers installed.

    python perfbench/launch.py <stats.json> <twodof arguments...>

Used by the traced cli-match workload in place of ``python -m twodof.cli``:
it writes the per-layer stats of the call to <stats.json> and exits with
the CLI's exit code.
"""

import json
import sys

import tracing
import twodof.cli


def main() -> int:
    stats_path, argv = sys.argv[1], sys.argv[2:]
    tracer = tracing.install()
    tracer.active = True
    try:
        return twodof.cli.main(argv)
    finally:
        tracer.active = False
        with open(stats_path, "w") as fh:
            json.dump(tracer.export(), fh)


if __name__ == "__main__":
    sys.exit(main())
