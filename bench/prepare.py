"""One set-up: import ghbound, then write a workload's input files.

Run as ``python3 bench/prepare.py WORKLOAD SEED WORKDIR``. It prints one JSON
line with the set-up time and the CLI invocations that use the inputs. run.py
starts it in a fresh interpreter several times, so that each set-up pays the
import, as a user's first command does.
"""

import json
import sys
import time
from pathlib import Path

started = time.perf_counter()
sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
import ghbound.cli  # noqa: E402,F401  (the import is part of what is timed)

from workloads import WORKLOADS  # noqa: E402

name, seed, workdir = sys.argv[1], int(sys.argv[2]), sys.argv[3]
argvs = WORKLOADS[name].prepare(workdir, seed)
print(json.dumps({"setup_s": time.perf_counter() - started, "argvs": argvs}))
