"""Set-up probe, run in a fresh interpreter by ``run.py``.

Imports the package, builds the workload's inputs, and prints one JSON
line: the monotonic clock when the inputs were ready and how long
``import phasewitness.cli`` took.

    python3 perfbench/probe.py <workload> <seed>
"""

import time

START = time.monotonic()

import json  # noqa: E402
import sys  # noqa: E402

import layout  # noqa: E402

layout.use_source_tree()
import phasewitness.cli  # noqa: E402,F401

IMPORT_S = time.monotonic() - START

import workloads  # noqa: E402

workloads.prepare(sys.argv[1], int(sys.argv[2]))
print(json.dumps({"ready": time.monotonic(), "import_s": IMPORT_S}))
