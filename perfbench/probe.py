"""Set-up probe: one fresh interpreter builds one workload's inputs.

    python3 perfbench/probe.py curvy-course 0
    python3 perfbench/probe.py numpy

With a workload and a seed, it imports brakesteer from this checkout's
``src``, generates the workload's inputs from the seed, builds and validates
its scenarios, and prints one JSON line: the monotonic times at which it had
imported brakesteer and at which it was ready, and the digest of the inputs.
With ``numpy``, it only imports numpy and prints the time: the reference
that run.py scales the imports of ``setup_s`` by.  run.py starts both several
times and times them from outside.  The probe imports nothing else, so that
``setup_s`` is the program's set-up and not the benchmark's.
"""

import json
import sys
import time
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"

if sys.argv[1:] == ["numpy"]:
    import numpy  # noqa: F401

    print(json.dumps({"ready": time.clock_gettime(time.CLOCK_MONOTONIC)}))
    sys.exit()

sys.path.insert(0, str(SRC))

import brakesteer  # noqa: E402
import workloads  # noqa: E402

imported = time.clock_gettime(time.CLOCK_MONOTONIC)
inputs = workloads.generate(sys.argv[1], int(sys.argv[2]))
workloads.prepare(inputs)
ready = time.clock_gettime(time.CLOCK_MONOTONIC)
if Path(brakesteer.__file__).resolve().parent != SRC / "brakesteer":
    sys.exit(f"perfbench: imported brakesteer from {brakesteer.__file__}")
print(json.dumps({"imported": imported, "ready": ready,
                  "inputs": workloads.inputs_digest(inputs)}))
