"""One benchmark child process: ``python3 child.py <spec.json> <result.json>``.

Modes (``spec["mode"]``):
    probe   set up once and stop at the first ``integrator.step`` call
            (verify: write the input trajectory); gives one setup_s sample
    run     untraced closed loop of ``cli.main`` calls for ``seconds``
    trace   traced, a fixed number of passes; writes the span file
    sweep   traced frozen and refreshed simulate calls at one K

The program sees only the configs written here; the seed reaches it only
through them.
"""

import time

T0 = time.perf_counter()

import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import checks  # noqa: E402
import tracing  # noqa: E402
import workloads as wl  # noqa: E402

# Computed allocation of one eval_nonlinearity call at quadrature size M, as
# read from nonlin.py: five complex M x M temporaries (the difference, the
# chord-arc factor, the core, its square divisor, the assembled integrand)
# and three float ones (the squared real and imaginary parts and their sum).
TEMP_BYTES_PER_M2 = 5 * 16 + 3 * 8


class SetupDone(Exception):
    """Raised from the first integrator.step call of a setup probe."""


def load_package(root):
    sys.path.insert(0, os.path.join(root, "src"))
    import peskin2d
    import peskin2d.cli
    src = os.path.realpath(os.path.join(root, "src"))
    if not os.path.realpath(peskin2d.__file__).startswith(src + os.sep):
        raise RuntimeError(f"peskin2d imported from {peskin2d.__file__}, not {src}")
    return peskin2d


def write_json(path, obj):
    with open(path, "w") as fh:
        json.dump(obj, fh)


def call(argv):
    """One closed-loop operation: cli.main(argv), looked up at call time."""
    import peskin2d.cli
    rec = {"argv": argv, "rc": None, "error": None, "start": time.perf_counter()}
    try:
        rec["rc"] = peskin2d.cli.main(argv)
    except SetupDone:
        raise
    except (Exception, SystemExit) as err:
        rec["error"] = f"{type(err).__name__}: {err}"
    rec["end"] = time.perf_counter()
    return rec


class Workload:
    """Writes a workload's configs into ``work`` and runs its operations."""

    def __init__(self, spec):
        self.name = spec["workload"]
        self.seed = spec["seed"]
        self.tiny = spec["tiny"]
        self.work = spec["work"]
        os.makedirs(self.work, exist_ok=True)
        self.sim_cfg = wl.simulate_config(self.name, self.seed, self.tiny)
        self.sim_path = self._config("simulate.json", self.sim_cfg)
        self.traj = os.path.join(self.work, "traj")
        self.verify_ops = self._verify_ops() if self.name == "verify" else []

    def _config(self, name, cfg):
        path = os.path.join(self.work, name)
        write_json(path, cfg)
        return path

    def simulate_argv(self, out):
        return ["simulate", "--config", self.sim_path, "--out", out]

    def _verify_ops(self):
        """(argv, report path) of each command in one verify pass."""
        lin = self._config("linearization.json", wl.LINEARIZATION_CONFIG)
        out = os.path.join(self.work, "verify")
        return [
            # default lattice, also in the smoke test: smaller ones fail
            # the refinement-stability check
            (["verify-kernels", "--out", os.path.join(out, "kernels")],
             os.path.join(out, "kernels", "kernel_report.json")),
            (["verify-linearization", "--config", lin, "--out", os.path.join(out, "lin")],
             os.path.join(out, "lin", "linearization_report.json")),
            (["measure-norms", "--traj", self.traj, "--out", os.path.join(out, "norms")],
             os.path.join(out, "norms", "norms.csv")),
            (["fit-decay", "--traj", self.traj, "--out", os.path.join(out, "decay")],
             os.path.join(out, "decay", "decay.json")),
        ]


def check_call(w, rec, report, first_hashes):
    """Per-call checks; fills rec['problems'] and returns the output hashes.

    ``report`` is the report a verify command writes, or None for simulate.
    """
    out_dir = os.path.dirname(report) if report else rec["argv"][-1]
    problems = []
    if rec["error"] is not None:
        problems.append(rec["error"])
    elif rec["rc"] != 0:
        problems.append(f"exit code {rec['rc']}")
    hashes = None
    if not problems:
        try:
            hashes = checks.manifest_hashes(out_dir)
            if report is None:
                problems += checks.check_simulate(out_dir, w.sim_cfg, rec["n_steps"])
            else:
                # z2 at t = 0 is +inf by definition for nonzero data (norms.z2_weight)
                allowed = {3} if report.endswith("norms.csv") else ()
                problems += checks.check_report(report, allowed)
        except (OSError, ValueError, KeyError, IndexError) as err:
            problems.append(f"outputs unreadable: {type(err).__name__}: {err}")
        if first_hashes is not None and hashes != first_hashes:
            problems.append("outputs differ from the first identical call")
    rec["problems"] = problems
    return hashes


def timed_call(w, argv, steps_of, report=None, first_hashes=None):
    before = steps_of()
    rec = call(argv)
    rec["n_steps"] = steps_of() - before
    return rec, check_call(w, rec, report, first_hashes)


def run_calls(w, seconds, n_passes, steps_of):
    """The closed loop.  Returns (setup record or None, call records,
    output hashes of each operation's first call).

    One pass is one simulate call, or the four verify commands.  It runs
    ``n_passes`` passes, or else at least two passes and then passes
    until the time run is nearest ``seconds``: it stops once less than
    half a mean pass is left.
    """
    setup = None
    if w.name == "verify":
        setup = timed_call(w, w.simulate_argv(w.traj), steps_of)[0]
        ops = w.verify_ops
    else:
        ops = [(w.simulate_argv(os.path.join(w.work, "out")), None)]
    first = [None] * len(ops)
    calls = []
    t_start = time.perf_counter()
    while True:
        for i, (argv, report) in enumerate(ops):
            rec, hashes = timed_call(w, argv, steps_of, report, first[i])
            rec["pass"] = len(calls) // len(ops)
            first[i] = first[i] or hashes
            calls.append(rec)
        passes = len(calls) // len(ops)
        if n_passes is not None:
            if passes >= n_passes:
                break
        else:
            elapsed = time.perf_counter() - t_start
            if passes >= 2 and elapsed * (1.0 + 0.5 / passes) >= seconds:
                break
    return setup, calls, first


def deep_checks(w, calls):
    """Reference and linear-theory checks on the last call's outputs.

    Outputs of every call were checked equal to the first call's, so a
    problem found here fails every call with those outputs.
    """
    ref = load_reference(w)
    info = {"reference": ref is not None, "sha256_match": None, "linear_ratio": None,
            "problems": []}
    last = calls[-4:] if w.name == "verify" else calls[-1:]
    if any(rec["problems"] for rec in last):
        return info          # those calls already count as failed
    try:
        problems = _deep_problems(w, ref, info)
    except (OSError, ValueError, KeyError, IndexError) as err:
        problems = [f"outputs unreadable: {type(err).__name__}: {err}"]
    for rec in calls:
        if not rec["problems"]:
            rec["problems"] = list(problems)
    info["problems"] = problems
    return info


def _deep_problems(w, ref, info):
    problems = []
    if w.name == "verify":
        if ref is not None:
            hashes = {}
            for argv, report in w.verify_ops:
                name = os.path.basename(report)
                problems += checks.check_report_reference(report, ref["reports"][name])
                hashes[argv[0]] = checks.manifest_hashes(os.path.dirname(report))
            info["sha256_match"] = hashes == ref["hashes"]
    else:
        out = os.path.join(w.work, "out")
        names = checks.snapshot_names(out)
        final = checks.load_modes(os.path.join(out, names[-1]))[2]
        if ref is not None:
            problems += checks.check_modes_reference(final, ref["final_modes"])
            info["sha256_match"] = checks.manifest_hashes(out) == ref["hashes"]
        if w.sim_cfg["initial_data"]["kind"] == "random_decay":
            p, info["linear_ratio"] = checks.check_linear_theory(out, w.sim_cfg,
                                                                   w.name, w.tiny)
            problems += p
    return problems


def reference_key(name, seed):
    """Seed-free workloads have one reference; seeded ones one per stored seed."""
    return name if name in ("corner128", "verify") else f"{name}/seed{seed}"


def load_reference(w):
    if w.tiny:
        return None
    with open(os.path.join(HERE, "references.json")) as fh:
        refs = json.load(fh)
    return refs["entries"].get(reference_key(w.name, w.seed))


def environment():
    import platform
    import numpy as np
    cpu = None
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh
                        if ln.startswith("model name")), None)
    except OSError:
        pass
    blas = None
    try:
        cfg = np.show_config(mode="dicts")
        b = cfg["Build Dependencies"]["blas"]
        blas = f"{b.get('name')} {b.get('version')}"
    except (TypeError, KeyError, AttributeError):  # layout differs across numpy versions
        pass
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "cpu_model": cpu, "python": platform.python_version(),
        "numpy": np.__version__, "blas": blas,
        "thread_env": {k: v for k, v in sorted(os.environ.items())
                       if k.endswith("_THREADS")},
    }


def mode_probe(spec):
    load_package(spec["root"])
    w = Workload(spec)
    if w.name == "verify":
        timer = tracing.StepTimer()
        tracing.install(timer.wrap, {"integrator.step"})
        rec = timed_call(w, w.simulate_argv(w.traj), lambda: len(timer.ends))[0]
        return {"setup_s": rec["end"] - T0, "step_starts": timer.starts,
                "step_ends": timer.ends, "problems": rec["problems"]}
    first = []

    def stop_at_first_step(name, fn):
        def probe(*args, **kwargs):
            first.append(time.perf_counter())
            raise SetupDone()
        return probe

    tracing.install(stop_at_first_step, {"integrator.step"})
    try:
        call(w.simulate_argv(os.path.join(w.work, "probe_out")))
    except SetupDone:
        return {"setup_s": first[0] - T0, "problems": []}
    return {"setup_s": None, "problems": ["no integrator.step call"]}


def mode_run(spec):
    load_package(spec["root"])
    w = Workload(spec)
    timer = tracing.StepTimer()
    tracing.install(timer.wrap, {"integrator.step"})
    setup, calls, hashes = run_calls(w, spec["seconds"], None,
                                     lambda: len(timer.ends))
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    if setup is not None:
        setup_s = setup["end"] - T0
    else:
        setup_s = timer.starts[0] - T0 if timer.starts else None
    info = deep_checks(w, calls)
    return {"setup_s": setup_s, "setup_call": setup, "calls": calls, "hashes": hashes,
            "step_starts": timer.starts, "step_ends": timer.ends,
            "rss_mb": rss_mb, "checks": info, "env": environment()}


def span_stats(tracer):
    spans = tracer.spans      # all closed: no call is in progress
    selfs = tracing.self_times(spans)
    stats = {}
    for (sid, parent, name, start, end, error, size), self_s in zip(spans, selfs):
        st = stats.setdefault(name, {"calls": 0, "self": [], "dur": [], "errors": 0,
                                     "bytes": 0.0})
        st["calls"] += 1
        st["self"].append(self_s)
        st["dur"].append(end - start)
        st["errors"] += int(error)
        if size is not None:
            st["bytes"] += TEMP_BYTES_PER_M2 * float(size) ** 2
    return spans, stats


def write_spans(path, run_id, spans):
    with open(path, "w") as fh:
        for sid, parent, name, start, end, error, size in spans:
            rec = {"run": run_id, "id": sid, "parent": parent, "name": name,
                   "start": start, "end": end, "error": error}
            if size is not None:
                rec["M"] = size
            fh.write(json.dumps(rec) + "\n")


def dir_bytes(path):
    return sum(os.path.getsize(os.path.join(d, f))
               for d, _, files in os.walk(path) for f in files)


def workspace_mb(M):
    from peskin2d import nonlin
    return sum(a.nbytes for a in nonlin._workspace(M)) / 2 ** 20


def hit_ratio(fn):
    info = fn.cache_info()
    total = info.hits + info.misses
    return info.hits / total if total else 0.0


def eval_peak_alloc_mb(w):
    """tracemalloc peak of one eval_nonlinearity call on the last output curve."""
    import tracemalloc
    from peskin2d import nonlin, tension
    from peskin2d.curve import FourierCurve
    out = w.traj if w.name == "verify" else os.path.join(w.work, "out")
    t, _, modes = checks.load_modes(
        os.path.join(out, checks.snapshot_names(out)[-1]))
    curve = FourierCurve(modes, t)
    law = tension.law_from_config(w.sim_cfg["law"])
    M = w.sim_cfg["M"]
    nonlin.eval_nonlinearity(curve, law, M)
    tracemalloc.start()
    try:
        nonlin.eval_nonlinearity(curve, law, M)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return peak / 2 ** 20


def mode_trace(spec):
    load_package(spec["root"])
    from peskin2d import kernels, nonlin
    w = Workload(spec)
    tracer = tracing.Tracer()
    tracing.install(tracer.wrap)
    setup, calls, _ = run_calls(w, None, spec["n_passes"],
                                lambda: tracer.count("integrator.step"))
    spans, stats = span_stats(tracer)
    write_spans(spec["span_file"], spec["run_id"], spans)
    # Cache ratios first: the measurements below call into the caches.
    result = {
        "calls": calls, "setup_call": setup, "stats": stats, "n_spans": len(spans),
        "workspace_hit_ratio": hit_ratio(nonlin._workspace),
        "psi_grid_hit_ratio": hit_ratio(kernels._psi_grid),
        # one pass of the timed calls; each pass overwrites the same files
        "cli_bytes_per_pass": dir_bytes(
            os.path.join(w.work, "verify" if w.name == "verify" else "out")),
    }
    result["workspace_mb"] = workspace_mb(w.sim_cfg["M"])
    result["peak_alloc_mb"] = eval_peak_alloc_mb(w)
    return result


def mode_sweep(spec):
    """Frozen call for eval and advance, then a refreshed one for more builds."""
    load_package(spec["root"])
    K = spec["K"]
    work = spec["work"]
    os.makedirs(work, exist_ok=True)
    tracer = tracing.Tracer()
    tracing.install(tracer.wrap)
    calls = []
    for frozen in (True, False):
        out = os.path.join(work, f"sweep_K{K}_{'frozen' if frozen else 'refreshed'}")
        path = out + ".json"
        write_json(path, wl.sweep_config(K, frozen))
        rec = call(["simulate", "--config", path, "--out", out])
        rec["problems"] = [] if rec["rc"] == 0 and rec["error"] is None else \
            [rec["error"] or f"exit code {rec['rc']}"]
        calls.append(rec)
        if frozen:
            frozen_spans = len(tracer.spans)

    def median_ms(name, spans):
        d = [s[4] - s[3] for s in spans if s[2] == name]
        return 1e3 * statistics.median(d) if d else 0.0

    return {"calls": calls,
            "eval_nonlinearity_ms": median_ms("nonlin.eval_nonlinearity",
                                              tracer.spans[:frozen_spans]),
            "advance_ms": median_ms("integrator.advance", tracer.spans[:frozen_spans]),
            "props_build_ms": median_ms("integrator.props_build", tracer.spans),
            "workspace_mb": workspace_mb(4 * K)}


MODES = {"probe": mode_probe, "run": mode_run, "trace": mode_trace, "sweep": mode_sweep}


def main():
    spec_path, result_path = sys.argv[1], sys.argv[2]
    with open(spec_path) as fh:
        spec = json.load(fh)
    write_json(result_path, MODES[spec["mode"]](spec))


if __name__ == "__main__":
    main()
