"""Self-check of the benchmark itself, at tiny sizes.

    python3 perfbench/selfcheck.py

For every workload it checks that an untraced run emits exactly the
end-to-end metrics BENCHMARK.json names and a traced run exactly the
per-layer metrics, with their units, and that both find no failure; then that
a run against a deliberately corrupted reference (one perturbed entry of the
frozen dims table, one perturbed coefficient of the faithful-action
reference, an expected verdict flipped to False) reports failures.  Exits 0
when all of that holds.
"""

from __future__ import annotations

import io
import json
import os
import sys

import run

SECONDS = 0.2


def main() -> int:
    with open(os.path.join(run.ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    wanted = {
        False: {m["name"]: m["unit"] for m in spec["end_to_end"]},
        True: {m["name"]: m["unit"] for m in spec["per_layer"]},
    }
    problems = []
    for name in sorted(run.WORKLOADS):
        for trace in (False, True):
            res = run.run(name, 1, SECONDS, trace, tiny=True, log=io.StringIO())
            got = {m: v["unit"] for m, v in res["metrics"].items()}
            if got != wanted[trace]:
                problems.append(f"{name} trace={int(trace)}: metrics {sorted(got)} != spec")
            if not res["correct"] or res["failed"]:
                problems.append(f"{name} trace={int(trace)}: {res['failed']} failures")
        res = run.run(name, 1, SECONDS, False, tiny=True, corrupt=True, log=io.StringIO())
        ratio = res["failed"] / res["attempted"]
        if res["correct"] or ratio <= 0:
            problems.append(f"{name}: corrupted reference not detected")
        print(f"{name}: metrics ok, corrupted reference gives fail_ratio={ratio:.3g}")
    for p in problems:
        print(f"FAIL {p}", file=sys.stderr)
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
