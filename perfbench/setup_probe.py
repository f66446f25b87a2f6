"""Time one workload's set-up in a fresh process: import ffdist, then setup().

usage: setup_probe.py WORKLOAD PARAMS_JSON

Prints the seconds taken.  run.py starts several probes and reports their
median as setup_s.
"""

import json
import sys
import time

if __name__ == "__main__":
    start = time.perf_counter()
    import ffdist  # noqa: F401  (every workload pays this import)
    import workloads

    workload = workloads.make(sys.argv[1], workloads.DEFAULT_SEED, **json.loads(sys.argv[2]))
    workload.setup()
    elapsed = time.perf_counter() - start
    workload.close()
    print(repr(elapsed))
