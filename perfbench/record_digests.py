"""Record the expected result digest of every workload for seeds 0..30.

Run from the repository root after a deliberate change of the program's
output::

    python3 perfbench/record_digests.py

It runs one full-scale pass per workload and seed and writes the digests
of the indicator series (runtime excluded) to ``perfbench/digests.json``,
which ``run.py`` checks every pass against.
"""

from __future__ import annotations

import json
import shutil
import sys
import time

import run

SEEDS = range(31)


def main() -> int:
    scratch = run.open_scratch()
    import workloads

    recorded: dict = {}
    try:
        for name, cls in workloads.WORKLOADS.items():
            workload = cls("full", scratch)
            for seed in SEEDS:
                inputs = workload.setup(seed)
                try:
                    result = workload.run_pass(inputs, time.perf_counter)
                finally:
                    workload.teardown(inputs)
                digest = workload.digest(result.series)
                if result.failed or workload.digest(result.resumed_series) != digest:
                    print(f"{name} seed {seed}: output checks failed", file=sys.stderr)
                    return 1
                recorded.setdefault(name, {}).setdefault("full", {})[str(seed)] = digest
                print(f"{name} seed {seed}: {digest}", flush=True)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    (run.HERE / "digests.json").write_text(json.dumps(recorded, indent=2) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
