"""Re-record ``digests.json``: each workload's output digest at the default seed.

    python3 perfbench/record_digests.py

Run only after a change that is meant to move simulated outputs (a
declared bug fix that also regenerates the goldens); a speed-up must
leave every digest unchanged.
"""

from __future__ import annotations

import json
import sys

import run
from workloads import DEFAULT_SEED, WORKLOADS


def main() -> int:
    digests = {}
    for name, workload in sorted(WORKLOADS.items()):
        digests[name] = workload.run(workload.build(DEFAULT_SEED), False).digest
        print(f"{name}: {digests[name]}")
    with open(run.HERE / "digests.json", "w") as handle:
        json.dump(digests, handle, indent=2, sort_keys=True)
        handle.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
