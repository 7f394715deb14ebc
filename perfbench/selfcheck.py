"""Self-check of the benchmark at tiny sizes.

    python3 perfbench/selfcheck.py

Runs every workload once untraced and once traced, and confirms that every
metric was printed with a finite value, that no operation failed and that the
traced run's self-time check holds.  Then corrupts one output per workload
and confirms that the failure is counted.  Exits 0 when every check holds.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import sys

import run

CORRUPT = {"paper-grid": "2d-500/bc", "constrained-refill": "viable/poisson/2d-r0.15",
           "csv-stream": "latinize/design-300"}


def result_of(workload, trace, corrupt_op=None):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        result = run.run(workload, 3, 0.5, trace, size="tiny", corrupt_op=corrupt_op)
        print(json.dumps(result))
    text = out.getvalue()
    return json.loads(text.strip().splitlines()[-1]), text


def main() -> int:
    problems = []
    for w in run.WORKLOADS:
        for trace in (0, 1):
            result, text = result_of(w, trace)
            for name, metric in result["metrics"].items():
                if not math.isfinite(metric["value"]) or f"\n{name} " not in text:
                    problems.append(f"{w} trace={trace}: {name} not printed or not finite")
            if not result["correct"] or result["failed"]:
                problems.append(f"{w} trace={trace}: {result['failed']} ops failed:\n{text}")
            if trace == 0 and "failed_ratio 0 " not in text:
                problems.append(f"{w}: failed_ratio line missing or not 0")
            if trace == 1 and "trace check:" not in text:
                problems.append(f"{w}: trace check line missing")
        result, text = result_of(w, 0, CORRUPT[w])
        ratio = result["failed"] / result["attempted"]
        if result["correct"] or not ratio > 0 or f"FAILED {CORRUPT[w]}" not in text:
            problems.append(f"{w}: corrupting {CORRUPT[w]} was not counted as a failure")
        print(f"selfcheck {w}: corrupted output counted, failed_ratio {ratio:.3g}")
    for p in problems:
        print("PROBLEM", p)
    print("selfcheck", "FAILED" if problems else "passed")
    return 1 if problems else 0


if __name__ == "__main__":
    run.sys.path.insert(0, str(run.ROOT / "src"))
    sys.exit(main())
