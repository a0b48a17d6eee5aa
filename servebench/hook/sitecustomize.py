"""Startup hook for shard processes of a traced benchmark run.

The traced run puts this directory on ``PYTHONPATH``; the fleet router
copies its environment into every shard it spawns, so each shard's
interpreter imports this module at startup. When the span directory
variable is set, it installs the benchmark's layer wrappers and dumps
the spans at exit; otherwise it does nothing.
"""

import os
import sys

if os.environ.get("SERVEBENCH_TRACE_DIR"):
    sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
    import tracing

    tracing.install_from_env()
