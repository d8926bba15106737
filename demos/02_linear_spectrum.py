"""Linearized spectrum around the circle: coupled pairs and exact rates.

Perturbation modes couple in pairs (a_m, conj(a_{2-m})) for m >= 3.  The
pair matrix G has -8 G eigenvalues exactly 2 A (m-1) and 2 (A + b~) (m-1)
where A and b~ come from the tension law at the circle radius; mode 2
decays alone at (A + b~)/4.  Every rate is positive precisely because the
tension is monotone, and the slowest rate sets the relaxation speed seen
in simulations.
"""

import numpy as np

from peskin2d import (build_pair_system, cubic, hookean, linear_coefficients,
                      spectrum_report)

print(__doc__)

for law in (hookean(), cubic()):
    co = linear_coefficients(law, 0.0)
    print(f"\n{law.label}: A = {co.A}, B = {co.B}, b~ = {co.b_tilde}")
    print(f"  mode-2 rate: {(co.A + co.b_tilde) / 4}")
    print(f"  {'m':>4} {'lambda1':>10} {'lambda2':>10} {'rate':>8} {'eig err':>10}")
    for row in spectrum_report(law, 0.0, 8):
        m = row["m"]
        sys = build_pair_system(m, co, 0.0)
        numeric = np.sort(np.linalg.eigvals(-8 * np.asarray(sys.G)).real)
        err = np.abs(numeric - [row["lambda1"], row["lambda2"]]).max()
        print(f"  {m:>4} {row['lambda1']:>10.4f} {row['lambda2']:>10.4f}"
              f" {row['decay_rate']:>8.4f} {err:>10.2e}")

co = linear_coefficients(cubic(), 0.1 + 0.05j)
sys = build_pair_system(5, co, 0.1 + 0.05j)
print(f"\noff-circle (a1 = 0.1+0.05i), m = 5:")
print(f"  eigenvalues of -8G: {np.sort(sys.minus8_eigenvalues.real)}")
print(f"  eigenvector condition number: {sys.eigen_cond:.3f}"
      " (not unitary: G is not Hermitian, yet the spectrum is real)")
