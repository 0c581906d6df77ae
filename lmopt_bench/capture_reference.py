"""Regenerate reference.json: the output digest of every job in each workload's pool.

    python3 lmopt_bench/capture_reference.py

The benchmark fails any job whose digest differs from its reference by more than
1e-9 relative, so a speed-up that changes results cannot pass as a gain. Regenerate
only when a change of results is intended, and say so in CHANGES.md.
"""

from __future__ import annotations

import json
import sys

from run import REFERENCE, load_lmopt, pin_blas_threads


def main() -> int:
    pin_blas_threads()
    load_lmopt()
    from workloads import RTOL, WORKLOADS

    doc = {"rtol": RTOL, "workloads": {}}
    for name, workload in WORKLOADS.items():
        digests = {}
        for key in workload.pool:
            result = workload.run(workload.setup(key), key)
            errors = workload.check(result)
            if errors:
                print(f"{name} job {key} fails its checks: {errors}", file=sys.stderr)
                return 1
            digests[key] = workload.digest(result)
        doc["workloads"][name] = digests
        print(f"{name}: {len(digests)} reference digests")
    with open(REFERENCE, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=0, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
