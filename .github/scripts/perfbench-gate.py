"""Fail unless a traced perfbench run was correct and traced every target.

    set -o pipefail
    python3 perfbench/run.py --workload all --seconds 1 --trace 1 \
        | python3 .github/scripts/perfbench-gate.py

perfbench exits 0 even when a run is incorrect, so this reads the verdict
from its stdout, which it echoes.  It exits 1 unless the last line is the
result line with "correct": true and every ``perfbench-report`` line holds
a traced report whose ``self_checks.not_traced`` is empty: a renamed or
deleted public function drops out of the tracer and silently zeroes its
per-layer metrics.
"""

import json
import sys

PREFIX = "perfbench-report "


def main() -> int:
    lines = sys.stdin.read().splitlines()
    print("\n".join(lines))
    reports = [json.loads(line[len(PREFIX):]) for line in lines
               if line.startswith(PREFIX)]
    untraced = [r["workload"] for r in reports if "self_checks" not in r]
    missing = sorted({name for r in reports if "self_checks" in r
                      for name in r["self_checks"]["not_traced"]})
    try:
        correct = json.loads(lines[-1])["correct"] is True
    except (IndexError, KeyError, TypeError, ValueError):
        correct = False
    print(f"perfbench gate: {len(reports)} reports, correct = {correct}, "
          f"untraced reports: {untraced}, not traced: {missing}")
    return 0 if correct and reports and not untraced and not missing else 1


if __name__ == "__main__":
    sys.exit(main())
