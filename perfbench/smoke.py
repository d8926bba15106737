"""Tiny-K smoke test of the benchmark harness.

    python3 perfbench/smoke.py

Runs every harness workload untraced and traced (with the K sweep) once at
K = 8, then checks that every metric named in BENCHMARK.json is emitted with its
unit and a finite value, and that no operation failed (fail_frac = 0).
Exits 1 if anything is off.  Takes under a minute on two cores.
"""

import json
import math
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import run  # noqa: E402


def main():
    with open(os.path.join(run.ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    wanted = {0: {m["name"]: m["unit"] for m in bench["end_to_end"]},
              1: {m["name"]: m["unit"] for m in bench["per_layer"]}}
    names = [w["name"] for w in bench["workloads"]]
    problems = []
    if not set(names) <= set(run.wl.WORKLOADS):
        problems.append(f"BENCHMARK.json workloads {names} not all in {run.wl.WORKLOADS}")
    # every harness workload, also refresh64, which BENCHMARK.json leaves out
    for name in run.wl.WORKLOADS:
        for trace in (0, 1):
            result, detail = run.run_workload(name, 0, 0.2, trace, tiny=True)
            tag = f"{name} trace={trace}"
            got = {k: m["unit"] for k, m in result["metrics"].items()}
            if got != wanted[trace]:
                missing = sorted(set(wanted[trace]) - set(got))
                extra = sorted(set(got) - set(wanted[trace]))
                wrong = sorted(k for k in set(got) & set(wanted[trace])
                               if got[k] != wanted[trace][k])
                problems.append(f"{tag}: missing {missing}, extra {extra}, unit {wrong}")
            bad = [k for k, m in result["metrics"].items() if not math.isfinite(m["value"])]
            if bad:
                problems.append(f"{tag}: non-finite {bad}")
            if result["failed"] or not result["correct"]:
                problems.append(f"{tag}: fail_frac {result['failed']}/{result['attempted']}:"
                                f" {detail['problems']}")
            print(f"{tag}: {result['attempted']} operations, {result['failed']} failed,"
                  f" {len(got)} metrics", flush=True)
    for p in problems:
        print("FAIL", p)
    print("smoke:", "FAIL" if problems else "ok")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
