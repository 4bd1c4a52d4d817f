"""Run ``repro-netneutrality serve`` with the tracing wrappers installed.

Usage (from the repository root, with ``src`` on ``PYTHONPATH``)::

    python3 perfbench/serve_launcher.py [serve options...]

The options are passed to ``repro.cli.main(["serve", ...])`` unchanged.
When the server has drained after SIGTERM, the tracer's totals are printed
as one JSON line on stdout, after the server's own banner.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from tracing import Tracer, install  # noqa: E402  (benchmark-local module)


def main(argv: list[str]) -> int:
    from repro import cli
    from repro.cache import all_cache_stats

    tracer = Tracer()
    install(tracer, service=True)
    code = cli.main(["serve", *argv])
    print(json.dumps({"trace": tracer.report(), "caches": all_cache_stats()}),
          flush=True)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
