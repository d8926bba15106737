"""Workload definitions: the configs each workload hands to ``peskin2d.cli.main``.

Every config is a pure function of (workload, seed, tiny).  ``tiny``
shrinks the truncation so the smoke test runs every workload in seconds.
"""

WORKLOADS = ("corner128", "refresh64", "wide256", "verify")

CUBIC = {"law": "cubic", "c": 1.0}
HOOKEAN = {"law": "hookean"}

# Criterion-06 corner data: two tents at 0 and 1.9, rescaled to s-norm 0.01.
CORNER = {"kind": "corner", "positions": [0.0, 1.9], "strengths": [1.0, 0.7],
          "amplitude": 0.01, "target_norm": ["s", 0.01]}

TINY_K = 8

# K used by the per-layer sweep (M = 4K in each).
SWEEP_K = (32, 64, 128, 256, 512)
# frozen: 10 steps time eval and advance; refreshed: 3 steps, 3 rebuilds
SWEEP_T_END = {True: 0.1, False: 0.03}


def _random_decay(seed):
    return {"kind": "random_decay", "exponent": 2.0, "amplitude": 1e-3,
            "seed": int(seed)}


def _simulate(law, initial, K, t_end, snapshot_every, frozen, tiny):
    if tiny:
        K, t_end, snapshot_every = TINY_K, min(t_end, 0.1), min(snapshot_every, 0.05)
    return {"law": law, "initial_data": initial, "K": K, "M": 4 * K,
            "dt": 0.01, "t_end": t_end, "snapshot_every": snapshot_every,
            "frozen_coefficients": frozen, "threads": 1}


def simulate_config(workload, seed, tiny=False):
    """The simulate config of a simulate workload, or verify's input trajectory."""
    if workload == "corner128":
        return _simulate(CUBIC, CORNER, 128, 1.0, 0.25, True, tiny)
    if workload == "refresh64":
        return _simulate(CUBIC, _random_decay(seed), 64, 0.5, 0.25, False, tiny)
    if workload == "wide256":
        return _simulate(HOOKEAN, _random_decay(seed), 256, 0.3, 0.1, True, tiny)
    if workload == "verify":
        # Densely snapshotted corner trajectory, long enough for |Y| to drop
        # by more than e^2 so fit-decay succeeds.
        cfg = _simulate(CUBIC, CORNER, 64, 2.0, 0.02, True, False)
        if tiny:
            cfg.update(K=TINY_K, M=4 * TINY_K)
        return cfg
    raise ValueError(f"unknown workload {workload!r}")


def sweep_config(K, frozen):
    """Criterion-06 data at truncation K.

    Corner data, as in the ROADMAP baseline: eval_nonlinearity runs about
    2x slower on random_decay data at the same M.  Refreshed coefficients
    rebuild the propagators every step.
    """
    t_end = SWEEP_T_END[frozen]
    return {"law": CUBIC, "initial_data": CORNER, "K": K, "M": 4 * K,
            "dt": 0.01, "t_end": t_end, "snapshot_every": t_end,
            "frozen_coefficients": frozen, "threads": 1}


LINEARIZATION_CONFIG = {"law": CUBIC}


def expected_steps(cfg):
    return int(round(cfg["t_end"] / cfg["dt"]))


def expected_snapshots(cfg):
    """Snapshot count written by run(): t = 0, every stride, and the last step."""
    n = expected_steps(cfg)
    stride = max(1, int(round(cfg["snapshot_every"] / cfg["dt"])))
    return 1 + len({i for i in range(1, n + 1) if i % stride == 0 or i == n})
