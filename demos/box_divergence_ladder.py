"""Weighted-norm ladder for a box state versus a Gaussian.

The absolute Wigner integral of a box window grows without bound as the
momentum cutoff rises; each doubling of the cutoff adds a fixed amount.
A Gaussian saturates immediately.  Convergent ladders certify a state
whose Wigner function is absolutely integrable, growing ladders flag one
where it is not.

Run from the repository root:

    python3 demos/box_divergence_ladder.py
"""

import math

from wignerlab.grid import catalog_state, make_grid
from wignerlab.modspace import diagnostic_grid_warning, feichtinger_diagnostic

grid = make_grid(4096, 2048.0 / 151.0)
print(f"grid: n={grid.n_points}, dx={grid.dx:.5f}, "
      f"momentum band {0.5 * math.pi / grid.dx:.1f}")

box_report = None
for spec in ("hermite:0", "box:-0.5:0.5"):
    state = catalog_state(spec, grid)
    warning = diagnostic_grid_warning(state)
    report = feichtinger_diagnostic(state)
    print(f"\n{spec}")
    if warning:
        print(f"  warning: {warning}")
    for cutoff, value in report.partials:
        print(f"  cutoff {cutoff:8.2f}  integral {value:.6f}")
    print(f"  verdict: {report.verdict}  growth exponent {report.growth_exponent:.3f}")
    if spec.startswith("box"):
        box_report = report

# The box increments settle near 4/pi^2 per octave: each slice of the
# squared window transforms to sin(2 a p) / (pi p), each momentum tail of
# |sin| / p adds 2/pi^2 per doubling, and the ladder sweeps in both tails.
values = [v for _, v in box_report.partials]
increments = [b - a for a, b in zip(values, values[1:])]
rate = sum(increments) / (len(increments) * math.log(2.0))
print(f"\nbox octave rate {rate:.4f}  vs 4/pi^2 = {4.0 / math.pi**2:.4f}")
