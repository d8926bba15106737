"""Spans and step timers installed on the package from outside it.

The package modules import each other's functions by name
(``from .nonlin import eval_nonlinearity``), so patching only the
defining module would miss most calls.  ``install`` therefore replaces
the function on *every* ``peskin2d`` module attribute that holds the
original object, and patches methods on their class.
"""

import functools
import sys
import time

MODULES = ("tension", "curve", "kernels", "nonlin", "linear", "integrator",
           "norms", "initdata", "cli")

# (span name, defining module, attribute); "Class.method" patches the class.
# Two functions may share one span name (kernels.pv_quadrature).
TARGETS = (
    ("nonlin.eval_nonlinearity", "nonlin", "eval_nonlinearity"),
    ("nonlin.linear_mode_rhs", "nonlin", "linear_mode_rhs"),
    ("integrator.run", "integrator", "run"),
    ("integrator.step", "integrator", "step"),
    ("integrator.advance", "integrator", "_Propagators.advance"),
    ("integrator.props_build", "integrator", "_Propagators.__init__"),
    ("integrator.diagnostics_row", "integrator", "_diagnostics_row"),
    ("integrator.fit_decay", "integrator", "fit_decay"),
    ("linear.build_pair_system", "linear", "build_pair_system"),
    ("linear.propagator_matrices", "linear", "propagator_matrices"),
    ("tension.linear_coefficients", "tension", "linear_coefficients"),
    ("tension.small_t", "tension", "small_t"),
    ("curve.split", "curve", "split"),
    ("curve.to_json_dict", "curve", "to_json_dict"),
    ("curve.from_json_dict", "curve", "from_json_dict"),
    ("initdata.make", "initdata", "InitialDataSpec.make"),
    ("initdata.make_corner", "initdata", "make_corner"),
    ("initdata.rescale_to_norm", "initdata", "rescale_to_norm"),
    ("norms.s_norm", "norms", "s_norm"),
    ("norms.linf_norm", "norms", "linf_norm"),
    ("norms.z1_weight", "norms", "z1_weight"),
    ("norms.z2_weight", "norms", "z2_weight"),
    ("norms.wiener_snapshot", "norms", "wiener_snapshot"),
    ("kernels.fit_kernel_bounds", "kernels", "fit_kernel_bounds"),
    ("kernels.l_kernel_l1", "kernels", "l_kernel_l1"),
    ("kernels.l_tilde_l1", "kernels", "l_tilde_l1"),
    ("kernels.l_tilde_dalpha_l1", "kernels", "l_tilde_dalpha_l1"),
    ("kernels.pv_quadrature", "kernels", "pv_quadrature_ik"),
    ("kernels.pv_quadrature", "kernels", "pv_quadrature_jk"),
    ("cli.main", "cli", "main"),
    ("cli.write_manifest", "cli", "_write_manifest"),
    ("cli.load_trajectory", "cli", "_load_trajectory"),
)

SPAN_NAMES = tuple(dict.fromkeys(name for name, _, _ in TARGETS))

# The quadrature size M of eval_nonlinearity(curve, law, M) is kept on its
# span, so computed bytes can be derived per call.
_SIZE_ARG = {"nonlin.eval_nonlinearity": 2}


def _package_modules():
    return [m for name, m in list(sys.modules.items())
            if m is not None and (name == "peskin2d" or name.startswith("peskin2d."))]


def install(make_wrapper, names=None):
    """Wrap every target (or those in ``names``) at every site it is bound.

    ``make_wrapper(span_name, fn)`` returns the replacement.
    """
    import importlib
    for mod in MODULES:
        importlib.import_module(f"peskin2d.{mod}")
    modules = _package_modules()
    for span, mod, attr in TARGETS:
        if names is not None and span not in names:
            continue
        owner = sys.modules[f"peskin2d.{mod}"]
        if "." in attr:
            cls_name, meth = attr.split(".")
            cls = getattr(owner, cls_name)
            setattr(cls, meth, make_wrapper(span, cls.__dict__[meth]))
            continue
        original = getattr(owner, attr)
        wrapper = make_wrapper(span, original)
        for m in modules:
            for key, value in list(vars(m).items()):
                if value is original:
                    setattr(m, key, wrapper)


class Tracer:
    """In-memory span recorder: (id, parent, name, start, end, error, size)."""

    def __init__(self):
        self.spans = []
        self._stack = []

    def wrap(self, name, fn):
        spans, stack, clock = self.spans, self._stack, time.perf_counter
        size_arg = _SIZE_ARG.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid = len(spans)
            parent = stack[-1] if stack else -1
            size = args[size_arg] if size_arg is not None and len(args) > size_arg else None
            spans.append(None)
            stack.append(sid)
            error = False
            start = clock()
            try:
                return fn(*args, **kwargs)
            except BaseException:
                error = True
                raise
            finally:
                end = clock()
                stack.pop()
                spans[sid] = (sid, parent, name, start, end, error, size)
        return traced

    def count(self, name):
        """Closed spans named ``name``; call it between calls, not inside one."""
        return sum(1 for s in self.spans if s[2] == name)


class StepTimer:
    """One clock pair per ``integrator.step`` call; nothing else is wrapped."""

    def __init__(self):
        self.starts = []
        self.ends = []

    def wrap(self, name, fn):
        starts, ends, clock = self.starts, self.ends, time.perf_counter

        @functools.wraps(fn)
        def timed(*args, **kwargs):
            starts.append(clock())
            out = fn(*args, **kwargs)
            ends.append(clock())
            return out
        return timed


def self_times(spans):
    """Self time per span id: its duration minus its direct children's."""
    child = [0.0] * len(spans)
    for sid, parent, _, start, end, _, _ in spans:
        if parent >= 0:
            child[parent] += end - start
    return [s[4] - s[3] - child[s[0]] for s in spans]
