"""``repro serve`` with the benchmark's wrappers installed.

``python3 perfbench/serve_traced.py <repro serve arguments>``: installs the
wire, service, job and graph-build wrappers (``tracing.py``) in this, the
server process, runs ``repro.cli.main(["serve", ...])`` until the server
drains (its stdin is closed), then prints the recorded spans as one
``SPANS [...]`` line on stdout.
"""

from __future__ import annotations

import json
import sys

from common import add_import_paths


def main() -> int:
    add_import_paths()
    import repro.cli
    import tracing

    tracer = tracing.Tracer()
    tracing.install_build(tracer)
    tracing.install_net(tracer)
    tracing.install_service(tracer)
    tracing.install_jobs(tracer)
    try:
        code = repro.cli.main(["serve", *sys.argv[1:]])
    finally:
        tracer.restore()
    print("SPANS " + json.dumps(tracer.spans), flush=True)
    return code


if __name__ == "__main__":
    sys.exit(main())
