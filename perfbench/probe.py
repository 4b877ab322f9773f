"""Time one fresh-process set-up of a workload.

    python3 perfbench/probe.py <workload> <seed>

Imports graphtik from the checkout's ``src`` and builds every operator and
clean data vector the workload uses, then prints {"setup_s": seconds}.
"""
import json
import os
import sys
import time

from workloads import WORKLOADS, import_package

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def timed_setup(workload) -> float:
    t0 = time.perf_counter()
    import_package(ROOT)
    workload.setup()
    return time.perf_counter() - t0


if __name__ == "__main__":
    name, seed = sys.argv[1:3]
    print(json.dumps({"setup_s": timed_setup(WORKLOADS[name](int(seed)))}))
