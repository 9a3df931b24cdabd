"""Symplectic covariance of the Wigner transform under Fourier and scaling.

W(S_hat psi)(z) = W(psi)(S^-1 z): transforming the state rotates or shears
its phase-space picture.  On a self-reciprocal grid (dx == dp) the Fourier
case is an exact index permutation, checked here entry by entry.

Run from the repository root:

    python3 demos/metaplectic_covariance.py
"""

import numpy as np

from wignerlab.grid import catalog_state, field_integral, make_self_reciprocal_grid
from wignerlab.modspace import modulation_norm
from wignerlab.moments import covariance
from wignerlab.wigner import apply_metaplectic, symplectic_matrix, wigner

grid = make_self_reciprocal_grid(1024)
print(f"self-reciprocal grid: n={grid.n_points}, dx = dp = {grid.dx:.5f}")

# Hermite functions are Fourier eigenstates with eigenvalue (-i)^k.
for k in range(4):
    state = catalog_state(f"hermite:{k}", grid)
    transformed = apply_metaplectic(state, "fourier")
    ratio = transformed.values[grid.n_points // 2 + 40 + k] / state.values[
        grid.n_points // 2 + 40 + k
    ]
    print(f"hermite:{k}  F psi / psi = {ratio:.6f}  expected {(-1j) ** k:.0f}")

print(f"\nfourier S = {symplectic_matrix('fourier').tolist()}")
print(f"scale:2 S = {symplectic_matrix('scale:2').tolist()}")

# The rotation by S maps the point (x_j, p_i) to (-p_i, x_j), which on this
# grid is again a lattice point; compare the two fields directly.
gauss = catalog_state("gaussian:2", grid)
base = wigner(gauss, grid).values
rotated = wigner(apply_metaplectic(gauss, "fourier"), grid).values
n = grid.n_points
rows = np.arange(n // 4, 3 * n // 4)
cols = np.arange(n // 2)
expected = base[3 * n // 4 - cols[None, :], rows[:, None] - n // 4]
dev = np.abs(rotated[rows] - expected).max()
print(f"\nfourier remap deviation on the central block: {dev:.2e}")

# scale:2 stretches x by 2 and squeezes p by 2, so XX quadruples and PP
# drops to a quarter while the uncertainty product is unchanged.
h0 = catalog_state("hermite:0", grid)
verdict = [modulation_norm(h0, 2.0, grid)]
before = covariance(wigner(h0, grid), verdict).sigma
wide = apply_metaplectic(h0, "scale:2")
scaled_field = wigner(wide, grid)
after = covariance(scaled_field, [modulation_norm(wide, 2.0, grid)]).sigma
print(f"\nXX before {before[0, 0]:.6f} -> after {after[0, 0]:.6f}")
print(f"PP before {before[1, 1]:.6f} -> after {after[1, 1]:.6f}")
print(f"total mass after scaling: {field_integral(scaled_field).real:.8f}")
