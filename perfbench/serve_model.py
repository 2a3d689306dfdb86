"""Serve one model directory over loopback for the HTTP workload.

Started by the benchmark as its own process, so the server and its
worker hold the model and the benchmark's client holds none of it::

    python3 perfbench/serve_model.py MODEL_DIR

Runs ``QueryServer`` with one worker process on a free port, prints one
JSON line ``{"port": ..., "began": ...}`` (``began`` is the wall-clock
time just before the server was constructed) and serves until SIGTERM,
then drains and exits.
"""

from __future__ import annotations

import json
import sys
import time
from pathlib import Path


def main() -> int:
    model = sys.argv[1]
    sys.path.insert(0, str(Path.cwd() / "src"))
    from repro.serve import QueryServer, ServeConfig

    began = time.time()
    server = QueryServer(model, ServeConfig(workers=1))
    server.start()
    server.install_signal_handlers()
    print(json.dumps({"port": server.port, "began": began}), flush=True)
    return 0 if server.serve_until_shutdown() else 1


if __name__ == "__main__":
    sys.exit(main())
