"""Corner data relaxing to a translated circle.

Initial data built from radial tents has genuine corners: its dyadic
block profile 2^{3n/2} |P_n Y| is flat in n instead of decaying.  The
evolution smooths the corners instantly and the curve converges
exponentially to a translated circle whose offset is quadratically small
in the data size.  This script runs the benchmark and prints the block
profile flattening out and the terminal circle parameters.
"""

from peskin2d import corner_report, cubic, make_corner, rescale_to_norm, split
from peskin2d.integrator import RunConfig, run
from peskin2d.norms import block_l2_profile

print(__doc__)

K = 64
eps = 0.01
curve = make_corner(K, [0.0, 1.9], [1.0, 0.7], eps)
report = corner_report(K, [0.0, 1.9], [1.0, 0.7], eps)
curve = rescale_to_norm(curve, "s", eps)
print(f"initial s-norm: {report['s_norm']:.4f} (rescaled to {eps})")
print(f"retained Wiener mass: {report['w_norm']:.4f}, "
      f"tail beyond K={K}: {report['tail_w_estimate']:.4f} (corner tails decay like 1/k)")

cfg = RunConfig(law=cubic(), initial=curve, K=K, M=256, dt=0.01, t_end=12.0,
                snapshot_every=0.5)
traj = run(cfg)

print("\nblock profile 2^{3n/2} |P_n Y|_L2, n = 2..6 (flat = corner, decaying = smooth):")
for idx in (0, 1, 2, 8, len(traj.snapshots) - 1):
    snap = traj.snapshots[idx]
    prof = block_l2_profile(split(snap).y_modes)[2:7]
    cells = " ".join(f"{p:.2e}" for p in prof)
    print(f"  t = {snap.time:5.2f}:  {cells}")

print(f"\nfitted decay rate of |Y|: {traj.fit_rate:.4f}"
      " (slowest linear rate is 1.0 for this law)")
print(f"terminal circle: center shift {traj.a0_limit:.3e},"
      f" first-mode shift {traj.a1_limit:.3e}")
print(f"|center shift| / eps^2 = {abs(traj.a0_limit) / eps ** 2:.3f}"
      " (the drift is quadratically small)")
