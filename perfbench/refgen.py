"""Write perfbench/references.json from the package in this checkout.

    OMP_NUM_THREADS=1 OPENBLAS_NUM_THREADS=1 python3 perfbench/refgen.py

The references pin the outputs of the full-size workloads: final modes
for the simulate workloads and every report number for verify, plus the
manifest sha256s.  Seeded workloads store the default seed 0 and the
held-out seed 1.  Regenerate only for a change that is meant to alter
outputs, and say so.
"""

import json
import os
import shutil
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import checks  # noqa: E402
import child  # noqa: E402
import workloads as wl  # noqa: E402

STORED_SEEDS = (0, 1)


def reference(name, seed, work):
    w = child.Workload({"workload": name, "seed": seed, "tiny": False, "work": work})
    if name == "verify":
        recs = [child.call(w.simulate_argv(w.traj))]
        reports, hashes = {}, {}
        for argv, report in w.verify_ops:
            recs.append(child.call(argv))
            reports[os.path.basename(report)] = checks.report_numbers(report)
            hashes[argv[0]] = checks.manifest_hashes(os.path.dirname(report))
        entry = {"reports": reports, "hashes": hashes}
    else:
        out = os.path.join(work, "out")
        recs = [child.call(w.simulate_argv(out))]
        last = os.path.join(out, checks.snapshot_names(out)[-1])
        with open(last) as fh:
            entry = {"final_modes": json.load(fh)["modes"],
                     "hashes": checks.manifest_hashes(out)}
    bad = [r for r in recs if r["rc"] != 0 or r["error"]]
    if bad:
        raise SystemExit(f"{name} seed {seed}: {bad[0]['argv'][0]} failed: {bad[0]}")
    return entry


def main():
    child.load_package(ROOT)
    base = os.path.join(ROOT, ".bench_work", "refgen")
    shutil.rmtree(base, ignore_errors=True)
    entries = {}
    for name in wl.WORKLOADS:
        seeds = (0,) if name in ("corner128", "verify") else STORED_SEEDS
        for seed in seeds:
            key = child.reference_key(name, seed)
            entries[key] = reference(name, seed, os.path.join(base, key.replace("/", "-")))
            print("stored", key)
    out = {"tolerance": {"final_modes": f"max |x - ref| <= {checks.MODES_RTOL} max |ref|",
                         "reports": f"|x - ref| <= {checks.REPORT_TOL} max(|ref|, 1)"},
           "entries": entries}
    with open(os.path.join(HERE, "references.json"), "w") as fh:
        json.dump(out, fh, indent=1, sort_keys=True)
        fh.write("\n")


if __name__ == "__main__":
    main()
