"""The names and configs the benchmark harness relies on still resolve.

perfbench/tracing.py patches spans onto package attributes by name, and
perfbench/workloads.py hands configs to RunConfig; a rename or a schema
change would otherwise show only when the benchmark runs.  Both files are
loaded read-only; no span is installed.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

from peskin2d.integrator import MAX_SNAPSHOTS, MAX_STEPS, RunConfig

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def load(name):
    spec = importlib.util.spec_from_file_location(f"_bench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


tracing, workloads = load("tracing"), load("workloads")


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
