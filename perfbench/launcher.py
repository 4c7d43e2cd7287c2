"""Start ``repro server`` / ``repro cluster`` with the layer wrappers installed.

Usage (from the checkout root)::

    python3 perfbench/launcher.py server CONFIG --spans PREFIX
    python3 perfbench/launcher.py cluster CONFIG --spans PREFIX

The serving process is the one the CLI starts, from the same config; the
only difference is that :func:`tracing.install_server` wraps each layer's
entry points first.  Each serving process (every cluster worker included)
keeps its spans in memory and writes ``PREFIX-<pid>.json`` when SIGTERM
has drained it.
"""

from __future__ import annotations

import argparse
import functools
import os
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from common import require_source  # noqa: E402


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("mode", choices=("server", "cluster"))
    parser.add_argument("config")
    parser.add_argument("--spans", required=True, help="span file prefix")
    args = parser.parse_args(argv)
    require_source()
    import tracing
    from repro.server import load_config

    config = load_config(args.config)
    if args.mode == "cluster":
        from repro.cluster import run_cluster, supervisor

        # Workers are spawned processes: each installs its own wrappers.
        supervisor.worker_entry = functools.partial(
            tracing.traced_worker_entry, args.spans
        )
        run_cluster(config)
        return 0
    from repro.server import serve_forever

    log = tracing.SpanLog()
    tracing.install_server(log)
    try:
        serve_forever(config)
    finally:
        log.dump(f"{args.spans}-{os.getpid()}.json")
    return 0


if __name__ == "__main__":
    sys.exit(main())
