"""``python -m repro`` with the outside-in tracer installed first.

The traced ``service_mixed`` run starts ``repro serve`` and ``repro
worker`` through this script, with ``$PERFBENCH_TRACE_DIR`` naming where
the process writes its spans when it exits (both commands exit normally
on SIGTERM).  Arguments are the ``repro`` command line.
"""

from __future__ import annotations

import sys

from tracing import install_from_env

install_from_env()

from repro.cli import main  # noqa: E402

sys.exit(main(sys.argv[1:]))
