"""Record reference.json: every workload's values at the default workload seed.

    python3 perfbench/record_reference.py

Run from the repository root.  The checks compare later runs against these
values at a relative tolerance (checks.RTOL); re-record only when a change to
the package is meant to move the numbers, and say why.
"""
import json
import os

from probe import ROOT
from workloads import DEFAULT_SEED, WORKLOADS, import_package


def main():
    import_package(ROOT)
    reference = {}
    for name, cls in WORKLOADS.items():
        workload = cls(DEFAULT_SEED)
        workload.setup()
        workload.warmup()
        reference[name] = workload.values(workload.run_pass(0))
        print(f"{name}: {len(reference[name])} values")
    path = os.path.join(os.path.dirname(os.path.abspath(__file__)), "reference.json")
    with open(path, "w") as fh:
        json.dump(reference, fh, indent=1, sort_keys=True)
        fh.write("\n")


if __name__ == "__main__":
    main()
