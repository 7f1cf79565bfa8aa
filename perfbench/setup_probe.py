"""Set-up probe, run in a fresh interpreter by run.py.

    python3 perfbench/setup_probe.py <checkout root> <workload> <seed>

Times ``import fvn``, and the whole set-up from before that import to the
first variate of every sampler of the workload (tables, sources, the
Wallace bootstrap).  Prints one JSON object: ``import_s`` and ``setup_s``.
"""

import json
import os
import sys
import time


def main() -> int:
    root, workload, seed = sys.argv[1], sys.argv[2], int(sys.argv[3])
    sys.path.insert(0, os.path.join(root, "src"))
    sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
    import workloads

    t0 = time.perf_counter()
    import fvn
    t1 = time.perf_counter()
    workloads.Workload(workload, seed).first_variates()
    t2 = time.perf_counter()
    print(json.dumps({"import_s": t1 - t0, "setup_s": t2 - t0,
                      "fvn_file": fvn.__file__}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
