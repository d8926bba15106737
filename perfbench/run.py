"""peskin2d benchmark harness.

    python3 perfbench/run.py --workload corner128 --seed 0 --seconds 30 --trace 0

Runs one workload (or ``all``) in fresh child processes, one at a time,
with BLAS/OpenMP threads pinned to 1, and prints as its last line

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

``--trace 0`` gives the end-to-end metrics, ``--trace 1`` the per-layer
ones (a traced run, a short untraced run for the overhead, and the K sweep).
The line before it carries the environment and check details; the full
result and the span file go to ``.bench_work/``.  See perfbench/README.md.
"""

import argparse
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import tracing  # noqa: E402
import workloads as wl  # noqa: E402

THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")

# The measured run is split into this many run children, each followed by
# a set-up probe, so the set-up samples spread over the whole run.
SEGMENTS = 4
TRACE_PASSES = 2          # the traced run makes a fixed number of passes
DEADLINE_S = 170.0        # a run must end within 180 s

END_TO_END = {
    "setup_s": "s", "run_s": "s", "steps_per_s": "1/s", "step_ms_p50": "ms",
    "step_ms_p90": "ms", "peak_rss_mb": "MiB", "ok_frac": "ratio",
}

_CALLS = ("nonlin.eval_nonlinearity", "integrator.advance", "integrator.props_build",
          "linear.build_pair_system", "linear.propagator_matrices",
          "tension.linear_coefficients", "curve.split", "norms.s_norm",
          "kernels.l_kernel_l1", "kernels.l_tilde_l1", "kernels.l_tilde_dalpha_l1")
_P50 = ("nonlin.eval_nonlinearity", "integrator.advance")


def _self_name(span):
    # cli.main's self time is the command's own work outside the layers,
    # mostly writing outputs
    return "cli.write" if span == "cli.main" else span


PER_LAYER = {}
for _n in _CALLS:
    PER_LAYER[f"{_n}.calls"] = "count"
for _n in tracing.SPAN_NAMES:
    PER_LAYER[f"{_self_name(_n)}.self_s"] = "s"
for _n in _P50:
    PER_LAYER[f"{_n}.self_ms_p50"] = "ms"
PER_LAYER.update({
    "nonlin.eval_nonlinearity.share": "ratio",
    "nonlin.workspace_mb": "MiB",
    "nonlin.eval_nonlinearity.peak_alloc_mb": "MiB",
    "nonlin.eval_nonlinearity.gbps_computed": "GB/s",
    "nonlin.workspace_hit_ratio": "ratio",
    "integrator.props_build_per_step": "ratio",
    "kernels.psi_grid_hit_ratio": "ratio",
    "cli.bytes_written": "B",
    "trace.overhead": "ratio",
})
for _n in tracing.SPAN_NAMES:
    PER_LAYER[f"{_n}.errors"] = "count"
for _k in wl.SWEEP_K:
    for _q, _u in (("eval_nonlinearity_ms", "ms"), ("advance_ms", "ms"),
                   ("props_build_ms", "ms"), ("workspace_mb", "MiB")):
        PER_LAYER[f"sweep.{_q}.K{_k}"] = _u


class HarnessError(Exception):
    """The benchmark could not run; no result is printed."""


def child_env():
    env = dict(os.environ)
    env.pop("PYTHONPATH", None)
    for var in THREAD_VARS:
        env[var] = "1"
    return env


class Runner:
    """Spawns child processes one at a time under a shared deadline."""

    def __init__(self, work, deadline):
        self.work = work
        self.deadline = deadline
        self.n = 0

    def spawn(self, spec):
        self.n += 1
        spec_path = os.path.join(self.work, f"spec_{self.n}.json")
        result_path = os.path.join(self.work, f"result_{self.n}.json")
        spec = dict(spec, root=ROOT)
        with open(spec_path, "w") as fh:
            json.dump(spec, fh)
        left = self.deadline - time.monotonic()
        if left <= 0:
            raise HarnessError("out of time before a child could start")
        try:
            proc = subprocess.run(
                [sys.executable, os.path.join(HERE, "child.py"), spec_path, result_path],
                env=child_env(), cwd=ROOT, capture_output=True, text=True, timeout=left)
        except subprocess.TimeoutExpired as err:
            raise HarnessError(f"{spec['mode']} child exceeded the deadline") from err
        if proc.returncode != 0:
            raise HarnessError(f"{spec['mode']} child exited {proc.returncode}:\n"
                               + proc.stderr[-2000:])
        with open(result_path) as fh:
            return json.load(fh)


def git_commit():
    """HEAD of the checkout, or None when ROOT is not the top of a git work tree."""
    # the ceiling keeps git from searching the directories above the checkout
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(ROOT))
    try:
        out = subprocess.run(["git", "rev-parse", "--show-toplevel", "HEAD"], cwd=ROOT,
                             env=env, capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    lines = out.stdout.split()
    if out.returncode != 0 or len(lines) != 2:
        return None
    top, head = lines
    return head if os.path.realpath(top) == os.path.realpath(ROOT) else None


def p90(values):
    return statistics.quantiles(values, n=10, method="inclusive")[8]


def steps_in(starts, ends, lo, hi):
    """Step clock pairs that fall inside the call window [lo, hi]."""
    return [(s, e) for s, e in zip(starts, ends) if lo <= s and e <= hi]


def operations(*children):
    """Every cli.main call the children made; each is one operation."""
    ops = []
    for c in children:
        ops += c.get("calls", [])
        if c.get("setup_call"):
            ops.append(c["setup_call"])
    return ops


def pass_times(calls):
    """Wall time of each pass: one simulate call, or the four verify commands."""
    passes = {}
    for r in calls:
        passes.setdefault(r["pass"], []).append(r)
    return [p[-1]["end"] - p[0]["start"] for p in passes.values()]


def end_to_end(name, probes, mains, ok_frac):
    # a probe that never reached its first step gives no sample
    setups = [c["setup_s"] for c in mains + probes if c["setup_s"] is not None]
    if not setups:
        raise HarnessError("no child reached integrator.step")
    if name == "verify":
        # the step metrics describe the set-up simulate that writes the
        # input trajectory; the timed verify passes do not step
        per_call = [list(zip(c["step_starts"], c["step_ends"])) for c in probes + mains]
    else:
        per_call = [steps_in(m["step_starts"], m["step_ends"], r["start"], r["end"])
                    for m in mains for r in m["calls"]]
    run_times = [t for m in mains for t in pass_times(m["calls"])]
    stepping = [st for st in per_call if len(st) > 1]
    step_ms = [1e3 * (e - s) for st in per_call for s, e in st]
    if not stepping or len(step_ms) < 2:
        raise HarnessError("no timed steps")
    # setup_s, run_s and steps_per_s are means over the run, not medians:
    # the host alternates between fast and slow phases lasting seconds, so
    # the samples are bimodal and a median flips between the modes from
    # run to run, where a mean over samples spread through the run does not
    metrics = {
        "setup_s": statistics.fmean(setups),
        "run_s": statistics.fmean(run_times),
        "steps_per_s": (sum(len(st) for st in stepping)
                        / math.fsum(st[-1][1] - st[0][0] for st in stepping)),
        "step_ms_p50": statistics.median(step_ms),
        "step_ms_p90": p90(step_ms),
        "peak_rss_mb": max(m["rss_mb"] for m in mains),
        "ok_frac": ok_frac,
    }
    detail = {"setup_samples": setups, "run_samples": run_times,
              "step_samples": len(step_ms)}
    return metrics, detail


def mark_differing_segments(mains):
    """Every run child must write what the first one wrote."""
    for m in mains[1:]:
        if m["hashes"] != mains[0]["hashes"]:
            for rec in operations(m):
                rec["problems"].append("outputs differ from the first run child")


def per_layer(untraced, traced, sweeps):
    st = traced["stats"]

    def g(span, key):
        return st.get(span, {}).get(key, 0 if key in ("calls", "errors") else [])

    m = {}
    for span in _CALLS:
        m[f"{span}.calls"] = g(span, "calls")
    for span in tracing.SPAN_NAMES:
        m[f"{_self_name(span)}.self_s"] = math.fsum(g(span, "self"))
        m[f"{span}.errors"] = g(span, "errors")
    for span in _P50:
        selfs = g(span, "self")
        m[f"{span}.self_ms_p50"] = 1e3 * statistics.median(selfs) if selfs else 0.0
    ev = "nonlin.eval_nonlinearity"
    total = math.fsum(g("cli.main", "dur"))
    steps = g("integrator.step", "calls")
    eval_self = m[f"{ev}.self_s"]
    m[f"{ev}.share"] = eval_self / total if total else 0.0
    m["nonlin.workspace_mb"] = traced["workspace_mb"]
    m[f"{ev}.peak_alloc_mb"] = traced["peak_alloc_mb"]
    eval_bytes = st.get(ev, {}).get("bytes", 0.0)
    m[f"{ev}.gbps_computed"] = eval_bytes / eval_self / 1e9 if eval_self else 0.0
    m["nonlin.workspace_hit_ratio"] = traced["workspace_hit_ratio"]
    m["integrator.props_build_per_step"] = g("integrator.props_build", "calls") / steps \
        if steps else 0.0
    m["kernels.psi_grid_hit_ratio"] = traced["psi_grid_hit_ratio"]
    m["cli.bytes_written"] = traced["cli_bytes_per_pass"]
    m["trace.overhead"] = (statistics.fmean(pass_times(traced["calls"]))
                           / statistics.fmean(pass_times(untraced["calls"])) - 1.0)
    for K, sw in zip(wl.SWEEP_K, sweeps):
        for q in ("eval_nonlinearity_ms", "advance_ms", "props_build_ms", "workspace_mb"):
            m[f"sweep.{q}.K{K}"] = sw[q]
    return m


def run_workload(name, seed, seconds, trace, tiny=False):
    """Run one workload; returns (result line, detail dict)."""
    if name not in wl.WORKLOADS:
        raise HarnessError(f"unknown workload {name!r}")
    if not os.path.isfile(os.path.join(ROOT, "src", "peskin2d", "cli.py")):
        raise HarnessError(f"no peskin2d sources under {ROOT}/src")
    started = time.monotonic()
    load = os.getloadavg()
    tag = f"{name}-seed{seed}-trace{trace}" + ("-tiny" if tiny else "")
    work = os.path.join(ROOT, ".bench_work", tag)
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    runner = Runner(work, started + DEADLINE_S)
    base = {"workload": name, "seed": seed, "tiny": tiny, "work": os.path.join(work, "w")}

    if not trace:
        mains, probes = [], []
        for i in range(SEGMENTS):
            mains.append(runner.spawn(dict(base, mode="run", seconds=seconds / SEGMENTS)))
            probes.append(runner.spawn(dict(base, mode="probe",
                                            work=os.path.join(work, f"p{i}"))))
        mark_differing_segments(mains)
        # a probe that never reached its first step counts as a failed operation
        records = operations(*mains) + probes
        failed = sum(1 for r in records if r["problems"])
        metrics, detail = end_to_end(name, probes, mains, 1.0 - failed / len(records))
        checks_info, env = [m["checks"] for m in mains], mains[0]["env"]
    else:
        # baseline for trace.overhead: the shortest untraced run, two passes
        untraced = runner.spawn(dict(base, mode="run", seconds=0))
        span_file = os.path.join(work, "spans.jsonl")
        traced = runner.spawn(dict(base, mode="trace", n_passes=TRACE_PASSES,
                                   span_file=span_file, run_id=tag,
                                   work=os.path.join(work, "t")))
        sweep_ks = (wl.TINY_K,) * len(wl.SWEEP_K) if tiny else wl.SWEEP_K
        sweeps = [runner.spawn({"mode": "sweep", "K": K, "work": os.path.join(work, "sweep")})
                  for K in sweep_ks]
        metrics = per_layer(untraced, traced, sweeps)
        records = operations(untraced, traced, *sweeps)
        failed = sum(1 for r in records if r["problems"])
        detail = {"span_file": os.path.relpath(span_file, ROOT), "spans": traced["n_spans"]}
        checks_info, env = untraced["checks"], untraced["env"]

    env.update(loadavg_at_start=load, git_commit=git_commit(), seed=seed, seconds=seconds,
               threads=wl.simulate_config(name, seed, tiny)["threads"])
    problems = sorted({p for rec in records for p in rec["problems"]})
    detail.update(workload=name, trace=trace, env=env, checks=checks_info,
                  problems=problems[:20], wall_s=time.monotonic() - started)
    units = PER_LAYER if trace else END_TO_END
    result = {"correct": failed == 0, "attempted": len(records), "failed": failed,
              "metrics": {k: {"value": metrics[k], "unit": units[k]} for k in units}}
    out_dir = os.path.join(ROOT, ".bench_work", "results")
    os.makedirs(out_dir, exist_ok=True)
    with open(os.path.join(out_dir, tag + ".json"), "w") as fh:
        json.dump({"result": result, "detail": detail}, fh, indent=1)
    return result, detail


def print_table(name, result, file):
    failed, attempted = result["failed"], result["attempted"]
    print(f"# {name}: {attempted} operations, {failed} failed, "
          f"fail_frac {failed / attempted:.6g}", file=file)
    for key, m in result["metrics"].items():
        print(f"{name:10s} {key:45s} {m['value']:.6g} {m['unit']}", file=file)


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", default="all", choices=wl.WORKLOADS + ("all",))
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=30.0)
    p.add_argument("--trace", type=int, default=0, choices=(0, 1))
    args = p.parse_args(argv)
    names = wl.WORKLOADS if args.workload == "all" else (args.workload,)
    for name in names:
        try:
            result, detail = run_workload(name, args.seed, args.seconds, args.trace)
        except HarnessError as err:
            print(f"error: {name}: {err}", file=sys.stderr)
            return 2
        print_table(name, result, sys.stderr)
        print(json.dumps(detail))
        print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
