"""The names and configs the benchmark harness relies on still resolve.

perfbench/tracing.py patches spans onto package attributes by name,
perfbench/workloads.py hands configs to RunConfig, perfbench/child.py reads
the caches of two package functions, and perfbench/checks.py computes the
linear evolution from the package's coefficients; a rename or a signature
change would otherwise show only when the benchmark runs.  The files are
loaded read-only; no span is installed.
"""

import importlib
import importlib.util
import sys
from pathlib import Path
from unittest import mock

import numpy as np
import pytest

from peskin2d import cubic, kernels, nonlin
from peskin2d.integrator import MAX_SNAPSHOTS, MAX_STEPS, RunConfig
from peskin2d.tension import linear_coefficients

from conftest import random_y_modes

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def load(name):
    spec = importlib.util.spec_from_file_location(f"_bench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


tracing, workloads = load("tracing"), load("workloads")
with mock.patch.dict(sys.modules, workloads=workloads):  # checks.py imports it by this name
    checks = load("checks")


@pytest.mark.parametrize("span, module, attr", tracing.TARGETS,
                         ids=[f"{m}.{a}" for _, m, a in tracing.TARGETS])
def test_trace_target_resolves(span, module, attr):
    owner = importlib.import_module(f"peskin2d.{module}")
    for part in attr.split("."):
        owner = getattr(owner, part)
    assert callable(owner)


def accepted(cfg):
    RunConfig.from_dict(cfg)
    assert workloads.expected_steps(cfg) <= MAX_STEPS
    assert workloads.expected_snapshots(cfg) <= MAX_SNAPSHOTS


@pytest.mark.parametrize("tiny", [True, False])
@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_workload_config_accepted(workload, tiny):
    accepted(workloads.simulate_config(workload, 0, tiny))


@pytest.mark.parametrize("frozen", [True, False])
@pytest.mark.parametrize("K", workloads.SWEEP_K)
def test_sweep_config_accepted(K, frozen):
    accepted(workloads.sweep_config(K, frozen))


@pytest.mark.parametrize("fn", [nonlin._workspace, kernels._psi_grid],
                         ids=["nonlin._workspace", "kernels._psi_grid"])
def test_cache_info_readable(fn):
    info = fn.cache_info()
    assert info.hits >= 0 and info.misses >= 0


def test_linear_prediction_finite(rng):
    K = 8
    y0 = random_y_modes(rng, K)
    pred = checks.linear_prediction(y0, linear_coefficients(cubic(), 0.0), 0.5)
    assert pred.shape == y0.shape
    assert np.all(np.isfinite(pred))
