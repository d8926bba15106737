"""Dyadic norm diagnostics along a trajectory.

The S norm (sup-norm of the derivative plus the critical dyadic block
sup) measures initial data; its time-weighted variants Z1 and Z2 stay
bounded along the flow, which is the quantitative content of stability.
The Wiener snapshot tracks the weighted coefficient mass.  This script
measures all of them on a corner-data run, plus the two product
inequalities that make the spaces usable: convolution boundedness of the
sequence norm and the algebra property of Z1 under products of
derivatives.
"""

import numpy as np

from peskin2d import cubic, make_corner, rescale_to_norm, split
from peskin2d.integrator import RunConfig, run
from peskin2d.norms import (convolve_coeffs, n_norm, s_norm, wiener_snapshot,
                            z1_algebra_check, z1_weight, z2_weight)

print(__doc__)

K = 48
curve = make_corner(K, [0.5], [1.0], 0.01)
curve = rescale_to_norm(curve, "s", 0.01)
traj = run(RunConfig(law=cubic(), initial=curve, K=K, M=192, dt=0.02,
                     t_end=6.0, snapshot_every=1.0))

print(f"{'t':>5} {'s_norm':>10} {'z1':>10} {'z2':>10} {'wiener':>10}")
for snap in traj.snapshots:
    y = split(snap).y_modes
    t = snap.time
    z2 = z2_weight(y, t) if t > 0 else float("nan")
    print(f"{t:>5.1f} {s_norm(y):>10.3e} {z1_weight(y, t):>10.3e}"
          f" {z2:>10.3e} {wiener_snapshot(y, t):>10.3e}")

rng = np.random.default_rng(0)
times = np.array([0.0, 0.1, 1.0, 10.0])
ratios = []
for _ in range(20):
    k = np.arange(-24, 25)
    mag = np.where(k == 0, 0.0, np.abs(np.where(k == 0, 1, k)) ** -2.0)
    a = mag * np.exp(2j * np.pi * rng.random(k.size))
    b = mag * np.exp(2j * np.pi * rng.random(k.size))
    a[24] = a[25] = b[24] = b[25] = 0.0
    a, b = a / n_norm(a, times), b / n_norm(b, times)
    ratios.append(n_norm(convolve_coeffs(np.abs(a), np.abs(b)), times))
print(f"\nconvolution constant of the sequence norm over 20 draws: "
      f"{max(ratios):.3f} (bounded)")

t_grid = np.linspace(0.0, 2.0, 5)
y1 = [split(s).y_modes * np.exp(-s.time) for s in traj.snapshots[:5]]
y2 = [split(s).y_modes * np.exp(-2 * s.time) for s in traj.snapshots[:5]]
print(f"z1 algebra ratio for products of derivatives: "
      f"{z1_algebra_check(y1, y2, [s.time for s in traj.snapshots[:5]]):.3f}")
