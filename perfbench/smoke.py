"""Smoke test of the workflow benchmark at tiny input sizes.

Run from the repository root::

    python3 perfbench/smoke.py

It checks three things and exits non-zero when one fails:

* every workload completes, untraced and traced, with all output checks
  passing;
* every metric ``BENCHMARK.json`` names is printed with its unit (and
  ``failed_frac`` in the untraced table), and the final JSON line carries
  exactly those metrics;
* changing the seed changes the generated inputs, and the same seed
  regenerates them exactly.
"""

from __future__ import annotations

import json
import re
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def run(workload: str, trace: int) -> subprocess.CompletedProcess:
    command = [
        sys.executable, str(HERE / "run.py"),
        "--workload", workload, "--seed", "3", "--seconds", "1",
        "--trace", str(trace), "--scale", "tiny",
    ]
    return subprocess.run(command, cwd=ROOT, capture_output=True, text=True, timeout=600)


def check_output(workload: str, trace: int, spec: dict) -> list[str]:
    completed = run(workload, trace)
    label = f"{workload} --trace {trace}"
    if completed.returncode != 0:
        return [f"{label}: exit {completed.returncode}\n{completed.stderr[-2000:]}"]
    lines = completed.stdout.splitlines()
    result = json.loads(lines[-1])
    errors = []
    if not result["correct"] or result["failed"] or result["attempted"] < 1:
        errors.append(f"{label}: output checks failed: {lines[-1]}")
    metrics = spec["per_layer"] if trace else spec["end_to_end"]
    expected = {m["name"]: m["unit"] for m in metrics}
    if not trace:
        expected_printed = {**expected, "failed_frac": "ratio"}
    else:
        expected_printed = expected
    reported = {name: entry["unit"] for name, entry in result["metrics"].items()}
    if reported != expected:
        errors.append(f"{label}: JSON metrics {sorted(reported)} != {sorted(expected)}")
    table = "\n".join(lines[:-1])
    for name, unit in expected_printed.items():
        pattern = rf"^\s+{re.escape(name)}\s+\S+\s+{re.escape(unit)}$"
        if not re.search(pattern, table, re.MULTILINE):
            errors.append(f"{label}: {name} is not printed with unit {unit}")
    return errors


def check_seeds() -> list[str]:
    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(0, str(HERE))
    import repro.engine.checkpoint as checkpoint
    import workloads

    errors = []
    for name, cls in workloads.WORKLOADS.items():
        workload = cls("tiny", ROOT / ".perfbench-work")

        def inputs_digest(seed: int) -> str:
            dataset = workload.generate(seed)
            resources = workloads.prepare_resources(dataset, seed)
            return checkpoint.stable_digest((dataset.fingerprint(), resources.workload))

        first, again, other = inputs_digest(1), inputs_digest(1), inputs_digest(2)
        if first != again:
            errors.append(f"{name}: seed 1 does not regenerate the same inputs")
        if first == other:
            errors.append(f"{name}: seeds 1 and 2 generate the same inputs")
    return errors


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    errors = check_seeds()
    for workload in spec["workloads"]:
        for trace in (0, 1):
            errors += check_output(workload["name"], trace, spec)
    for error in errors:
        print(f"FAIL {error}")
    print("smoke: ok" if not errors else f"smoke: {len(errors)} failure(s)")
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main())
