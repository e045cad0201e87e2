"""Where the telegraph channel stops being completely positive.

The composite-map eigenvalues xi_j(nu) must all stay nonnegative.  For a
coupling along one axis they always do; switch on two or three axes and
strong enough noise pushes a xi below zero.  This script scans the xi
curves, locates phase boundaries by a Newton search on the deepest xi
dip, and compares against the frequency bound mu* <= pi/ln 3 that
guarantees complete positivity.
"""

import math

import numpy as np

from rtnqubit import (
    MU_STAR_BOUND,
    ModelParams,
    critical_flip_parameter,
    is_cp,
    sufficient_condition,
    xi,
)

print("xi curves for the two-axis model a = (a, a, 0), a*tau = 1.2")
params = ModelParams(a=(1.2, 1.2, 0.0), tau=1.0)
for nu in np.linspace(0.0, 2.0, 11):
    x = xi(nu, params)
    flag = "  <-- negative!" if np.min(x) < -1e-10 else ""
    print(f"  nu = {nu:4.2f}: " + " ".join(f"{v:+.4f}" for v in x) + flag)

verdict = is_cp(params)
w = verdict.witness
print(f"\nverdict: CP = {verdict.is_cp}; most negative xi_{w.index}"
      f"({w.nu:.4f}) = {w.value:.3e} (scanned nu <= {verdict.horizon:.2f})")

print("\nboundary along coupling directions (CP at b, not CP at b + 1e-6 max(1, b)):")
for direction in ((1.0, 1.0, 0.0), (1.0, 1.0, 1.0), (0.0, 0.0, 1.0)):
    boundary = critical_flip_parameter(direction, tau=1.0)
    if boundary is None:
        print(f"  {direction}: one nonzero coupling, completely positive at every a*tau")
    else:
        print(f"  {direction}: loses complete positivity at a*tau = {boundary:.4f}")

print(f"\nfrequency bound mu* = pi/ln 3 = {MU_STAR_BOUND:.5f}")
print("equal couplings a = (a, a, a): all three frequencies coincide,")
print("so the bound is tight:")
boundary = critical_flip_parameter((1.0, 1.0, 1.0), tau=1.0)
predicted = math.sqrt((MU_STAR_BOUND**2 + 1.0) / 32.0)
print(f"  boundary search: a*tau = {boundary:.7f}, frequency-bound prediction {predicted:.7f}")

print("\nsufficient condition in action (equal couplings):")
for mu in (2.0, 2.8, 3.2):
    a = math.sqrt((mu * mu + 1.0) / 32.0)
    p = ModelParams(a=(a, a, a), tau=1.0)
    print(f"  mu = {mu:3.1f}: guaranteed CP = {sufficient_condition(p)}, "
          f"scanned CP = {is_cp(p).is_cp}")
