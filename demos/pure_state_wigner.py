"""Wigner transform of oscillator eigenstates: peaks, marginals, overlaps.

Run from the repository root:

    python3 demos/pure_state_wigner.py
"""

import numpy as np

from wignerlab.ensemble import Ensemble
from wignerlab.grid import catalog_state, field_integral, make_grid, state_overlap
from wignerlab.moments import marginals
from wignerlab.wigner import cross_wigner, overlap_identity_check, wigner

grid = make_grid(1024, 12.0)
print(f"grid: n={grid.n_points}, L={grid.half_width}, "
      f"dx={grid.dx:.5f}, dp={grid.dp:.5f}")

h0 = catalog_state("hermite:0", grid)
h1 = catalog_state("hermite:1", grid)

w0 = wigner(h0, grid)
peak = w0.values.max()
print(f"\nground state: max W = {peak:.8f}  (1/pi = {1.0 / np.pi:.8f})")
print(f"total mass   = {field_integral(w0).real:.8f}")

# The first excited state dips to the negative extreme -1/pi at the origin.
w1 = wigner(h1, grid)
print(f"\nfirst excited: min W = {w1.values.min():.8f} "
      f"(-1/pi = {-1.0 / np.pi:.8f})")

rep = marginals(w1, Ensemble(((h1, 1.0),), "pure:h1"))
print(f"x-marginal residual vs |psi|^2: {rep.x_residual:.2e}")
print(f"p-marginal residual vs |Fpsi|^2: {rep.p_residual:.2e}")

# Integrating a cross field reproduces the inner product of its two states.
gap = overlap_identity_check(h0, h1, cross_wigner(h0, h1, grid))
print(f"\ncross field of h0, h1: |integral - <h0, h1>| = {gap:.2e}")
print(f"direct overlap <h0, h1> = {abs(state_overlap(h0, h1)):.2e}")
