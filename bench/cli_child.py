"""Run `resilient-cluster` once with the package's public functions wrapped.

    python3 bench/cli_child.py SPANS_FILE certify --input FILE

Times a fresh import of ``resilient_cluster.cli``, installs the wrappers of
``spans.py``, runs ``cli.main`` on the remaining arguments under a
``cli.main`` span and writes the import time and the spans to SPANS_FILE.
The exit code and stdout are the CLI's own.
"""

import json
import sys
import time
from pathlib import Path


def main() -> int:
    spans_file, *argv = sys.argv[1:]
    started = time.perf_counter()
    from resilient_cluster import cli

    startup_s = time.perf_counter() - started
    import spans

    tracer = spans.Tracer()
    spans.install(tracer)
    try:
        return tracer.call("cli.main", cli.main, (argv,), {}, None, None)
    finally:
        Path(spans_file).write_text(json.dumps({"startup_s": startup_s, "spans": tracer.spans}))


if __name__ == "__main__":
    sys.exit(main())
