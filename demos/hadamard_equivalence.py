"""Two ensembles, one density matrix, and the isometry connecting them.

An equal mixture of the first two oscillator eigenstates has the same
density matrix as the equal mixture of their two Hadamard rotations
(e0 +/- e1) / sqrt(2).  The demo builds both, verifies the match, finds
the partial isometry U with A = A' U, and recovers a spectral ensemble
from the shared density matrix.

Run from the repository root:

    python3 demos/hadamard_equivalence.py
"""

import math

import numpy as np

from wignerlab.ensemble import (
    Ensemble,
    build_A,
    density_matrix,
    find_partial_isometry,
    spectral_ensemble,
)
from wignerlab.grid import SampledState, catalog_state, make_grid, state_norm
from wignerlab.wigner import mixed_wigner

grid = make_grid(512, 10.0)
h0 = catalog_state("hermite:0", grid)
h1 = catalog_state("hermite:1", grid)

plus_vals = (h0.values + h1.values) / math.sqrt(2.0)
minus_vals = (h0.values - h1.values) / math.sqrt(2.0)
plus = SampledState(grid, plus_vals, "mix:+")
minus = SampledState(grid, minus_vals, "mix:-")
print(f"rotated member norms: {state_norm(plus):.12f}, {state_norm(minus):.12f}")

e1 = Ensemble(((h0, 0.5), (h1, 0.5)), "pair:eigen")
e2 = Ensemble(((plus, 0.5), (minus, 0.5)), "pair:rotated")

a = build_A(e1, 16)
a_prime = build_A(e2, 16)
rho = density_matrix(a)
rho_prime = density_matrix(a_prime)
gap = np.abs(rho.matrix - rho_prime.matrix).max()
print(f"density matrices agree to {gap:.2e}")

iso = find_partial_isometry(a, a_prime)
print(f"partial isometry: rank {iso.rank}, defect {iso.defect:.2e}")
factor = np.abs(a.matrix - a_prime.matrix @ iso.matrix).max()
print(f"factorization residual |A - A'U| = {factor:.2e}")

spectral = spectral_ensemble(rho, grid)
print("\nspectral ensemble of the shared density matrix:")
for state, weight in spectral.members:
    print(f"  weight {weight:.6f}  label {state.label}")

# Both ensembles also share one mixed Wigner field.
field1 = mixed_wigner(e1)
field2 = mixed_wigner(e2)
print(f"\nmixed field gap: {np.abs(field1.values - field2.values).max():.2e}")
