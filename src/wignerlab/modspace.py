"""Weighted phase-space norms and integrability verdicts.

Whether a state's Wigner transform is absolutely integrable cannot be
decided from finitely many samples; these routines expose the evidence
instead: partial weighted norms on a geometric ladder of momentum cutoffs,
a fitted growth rate, a three-way verdict, and the closure check that ties
verdicts to ensemble equivalence.
"""

from __future__ import annotations

import math
from collections.abc import Iterable
from dataclasses import dataclass

import numpy as np

from .ensemble import Ensemble
from .grid import (
    CheckError,
    PhaseSpaceGrid,
    SampledState,
    _pairwise_total,
    catalog_state,
    state_norm,
)
from .wigner import _wigner_blocks

__all__ = [
    "DivergingStateError",
    "WeightedNormReport",
    "cutoff_ladder",
    "modulation_norm",
    "feichtinger_diagnostic",
    "diagnostic_grid_warning",
    "ClosureReport",
    "feichtinger_closure_check",
]

LN2 = math.log(2.0)
# The verdict tolerances every ladder uses unless told otherwise.
TAIL_TOL, GROWTH_THRESHOLD = 1e-3, 0.5


class DivergingStateError(CheckError):
    """An operation was refused because a required convergent verdict is missing."""


@dataclass(frozen=True)
class WeightedNormReport:
    """Partial weighted-L1 norms of a phase-space field on a cutoff ladder.

    verdict is one of ``convergent``, ``diverging``, ``inconclusive``.
    growth_exponent is the least-squares slope of value against ln(cutoff)
    over the upper rungs, normalized by the first ladder increment per
    octave: close to 1 when the growth rate persists across the ladder
    (logarithmic divergence), close to 0 when the ladder saturates.
    """

    s: float
    window: str
    partials: tuple[tuple[float, float], ...]
    verdict: str
    growth_exponent: float


def _ladder(
    blocks: Iterable[tuple[slice, np.ndarray]],
    grid: PhaseSpaceGrid,
    s: float,
    cutoffs: tuple[float, ...],
) -> tuple[float, ...]:
    """Quadratures of |W| * (1 + x^2 + p^2)^(s/2) over the discs x^2 + p^2 <= cutoff^2.

    W is a field read as (rows, values) row blocks in order, s >= 0, and the
    cutoffs are those of cutoff_ladder.  One value per cutoff.  The blocks
    tile the (n, n/2) field with one power-of-two row count, and either one
    block is the whole field or each holds at least 128 values.  The rungs
    share one band of columns, the widest disc's: each writes its masked
    block there and sums the whole block, and the zeros kept around the band
    keep np.sum's pairwise order.  The block sums add pairwise, which is
    np.sum's order over the whole field: see docs/conventions.md, Block sums
    and Norm ladder.
    """
    n = grid.n_points
    x2_all = grid.x_points()[:, None] ** 2
    p2 = grid.wigner_p_points() ** 2
    c2s = [cutoff**2 for cutoff in cutoffs]
    # fl(x^2 + p^2) >= p^2, so every disc lies within the columns where
    # p^2 <= max(cutoff^2), p = 0 among them.
    band = np.flatnonzero(p2 <= max(c2s))
    lo, hi = band[0], band[-1] + 1
    sums: list[list[float]] = [[] for _ in c2s]
    finite = True
    weighted = None
    for rows, values in blocks:
        if weighted is None:
            # Buffers for the first, largest block, allocated once per ladder.
            # The scratch stays zero outside the band: a weight pass borrows
            # it and zeroes it there again.
            weighted = np.empty(values.shape)
            scratch = np.zeros_like(weighted)
            one_x2_all = np.empty((len(values), 1))
            r2_all = np.empty((len(values), hi - lo))
            inside_all = np.empty(r2_all.shape, dtype=bool)
        k = len(values)
        w, buf, one_x2 = weighted[:k], scratch[:k], one_x2_all[:k]
        r2, inside, x2 = r2_all[:k], inside_all[:k], x2_all[rows]
        # An overflowing weight is refused below, so its warnings are noise.
        with np.errstate(over="ignore", invalid="ignore"):
            # (|W| * weight) * wx keeps the formula's association; **= keeps
            # numpy's sqrt path for s = 1.  Multiplying by 1.0 is exact, so
            # the weight pass is skipped at s = 0 and the trapezoid weights
            # wx touch only the two edge rows, where they are 0.5.
            np.abs(values, out=w)
            if s != 0:
                np.add(1.0, x2, out=one_x2)
                np.add(one_x2, p2, out=buf)
                buf **= 0.5 * s
                w *= buf
                buf[:, :lo] = 0.0
                buf[:, hi:] = 0.0
            if rows.start == 0:
                w[0] *= 0.5
            if rows.stop == n:
                w[-1] *= 0.5
            top = float(w.max())
            finite = finite and math.isfinite(top)
            if top == 0.0:
                # Every weighted value is +0, so every rung's block sums to +0.
                for rung in sums:
                    rung.append(0.0)
                continue
            np.add(x2, p2[lo:hi], out=r2)
            disc = buf[:, lo:hi]
            for c2, rung in zip(c2s, sums):
                np.less_equal(r2, c2, out=inside)
                np.multiply(w[:, lo:hi], inside, out=disc)
                rung.append(float(np.sum(buf)))
    norms = [_pairwise_total(rung) * grid.dx * grid.dp for rung in sums]
    # No rung reads a weighted value outside the band, so a non-finite one
    # there shows only in `finite`; it is refused wherever it lies.
    if not (finite and all(math.isfinite(v) for v in norms)):
        raise ValueError(f"weight exponent s = {s} overflows the weighted norm on this grid")
    return tuple(norms)


def cutoff_ladder(grid: PhaseSpaceGrid) -> tuple[float, float, float, float]:
    """Geometric cutoff ladder {P/8, P/4, P/2, P} used for verdicts.

    The top rung is half the field's momentum half-width (n/4) * dp: the
    outermost octave of a Wigner field is contaminated by the adjacent alias
    period (for slowly decaying fields the error there approaches 27 percent
    of the local magnitude), so partial norms are only trusted on the inner
    half.
    """
    top = 0.5 * (-float(grid.wigner_p_points()[0]))
    return (top / 8.0, top / 4.0, top / 2.0, top)


def _fit_verdict(
    partials: tuple[tuple[float, float], ...],
    tail_tol: float,
    growth_threshold: float,
) -> tuple[str, float]:
    cuts = np.array([c for c, _ in partials])
    vals = np.array([v for _, v in partials])
    scale = max(abs(vals[-1]), 1e-300)
    # Fit the slope on the upper rungs only: a state whose support merely
    # fills the lower rungs shows a steep transient there followed by a
    # saturating tail, and must not read as divergent growth.
    slope = float(np.polyfit(np.log(cuts[1:]), vals[1:], 1)[0])
    first_increment = (vals[1] - vals[0]) / LN2
    if abs(first_increment) <= 1e-12 * max(abs(vals[-1]), 1.0):
        growth = 0.0
    else:
        growth = slope / first_increment
    tail = abs(vals[-1] - vals[-2]) / scale
    if tail < tail_tol:
        return "convergent", growth
    monotone = bool(np.all(np.diff(vals) > 0))
    if growth >= growth_threshold and monotone:
        return "diverging", growth
    return "inconclusive", growth


def _ladder_report(
    blocks: Iterable[tuple[slice, np.ndarray]],
    grid: PhaseSpaceGrid,
    s: float,
    window: str,
    tail_tol: float = TAIL_TOL,
    growth_threshold: float = GROWTH_THRESHOLD,
) -> WeightedNormReport:
    cuts = cutoff_ladder(grid)
    partials = tuple(zip(cuts, _ladder(blocks, grid, s, cuts)))
    verdict, growth = _fit_verdict(partials, tail_tol, growth_threshold)
    return WeightedNormReport(float(s), window, partials, verdict, growth)


def modulation_norm(
    psi: SampledState,
    s: float,
    window: str | SampledState = "hermite:0",
    tail_tol: float = TAIL_TOL,
    growth_threshold: float = GROWTH_THRESHOLD,
) -> WeightedNormReport:
    """Partial weighted norms of the cross-Wigner transform against a window.

    The window is a catalog descriptor, by default the ground Gaussian, or a
    state already sampled on psi's grid.  Windows in M^1 (``hermite:k``,
    ``gaussian:sigma``) give the same verdicts, only the values change;
    against a window outside M^1, such as a box, the verdict is the window's.
    """
    if s < 0:
        raise ValueError(f"weight exponent s must be >= 0, got {s}")
    if isinstance(window, str):
        window = catalog_state(window, psi.grid)
    # The cross field's blocks go straight into the ladder; no field is built.
    blocks = _wigner_blocks(((1.0, psi, window),), real=False)
    return _ladder_report(blocks, psi.grid, s, window.label, tail_tol, growth_threshold)


def feichtinger_diagnostic(
    psi: SampledState,
    tail_tol: float = TAIL_TOL,
    growth_threshold: float = GROWTH_THRESHOLD,
) -> WeightedNormReport:
    """Integrability verdict for the state's own Wigner transform (s = 0).

    Requires a unit-norm state.  verdict ``diverging`` means the partial
    norms increase across the whole ladder with fitted growth_exponent at or
    above the threshold; it is numerical evidence, not a proof.
    """
    nrm = state_norm(psi)
    # 1e-4 rather than machine tight: trapezoid quadrature undercounts the
    # norm of slowly decaying tails (a transformed box loses about 1e-5).
    if abs(nrm - 1.0) > 1e-4:
        raise ValueError(
            f"diagnostic requires a unit-norm state, got norm {nrm:.8f} for {psi.label}"
        )
    blocks = _wigner_blocks(((1.0, psi, psi),), real=True)
    return _ladder_report(blocks, psi.grid, 0.0, "self", tail_tol, growth_threshold)


def diagnostic_grid_warning(psi: SampledState) -> str | None:
    """Warn when the momentum band is too narrow to trust a divergence verdict.

    Divergence shows up over decades of p; the band must reach well past the
    reciprocal support scale.  Returns a message, or None if the grid is
    adequate.
    """
    grid = psi.grid
    mags = np.abs(psi.values)
    nz = np.flatnonzero(mags > 1e-8 * mags.max())
    width = (nz[-1] - nz[0] + 1) * grid.dx if nz.size else grid.dx
    band = 0.5 * math.pi * grid.hbar / grid.dx
    needed = 32.0 * (2.0 * math.pi * grid.hbar) / width
    if band < needed:
        return (
            f"momentum band {band:.3g} is below the recommended "
            f"{needed:.3g} for support width {width:.3g}; "
            "verdicts may be unreliable on this grid"
        )
    return None


@dataclass(frozen=True)
class ClosureReport:
    """Outcome of the two-ensemble integrability comparison.

    implication_holds records whether every member of the second ensemble is
    convergent whenever every member of the first is; inconclusive is set
    when any member verdict is inconclusive, in which case the implication
    is not a failure.
    """

    s: float
    field_residual: float
    e1_verdicts: tuple[str, ...]
    e2_verdicts: tuple[str, ...]
    implication_holds: bool
    inconclusive: bool


def feichtinger_closure_check(
    e1: Ensemble, e2: Ensemble, s: float = 0.0, field_tol: float = 1e-5
) -> ClosureReport:
    """Check that equal mixtures keep the integrability class of their members.

    Both ensembles must lie on one grid.  The two mixed states are compared
    pointwise through their mixed Wigner fields (within field_tol), one row
    block at a time, before any verdicts are taken; find_partial_isometry
    compares their density matrices.  Then modulation_norm(member, s) runs
    on every member of both ensembles, against one hermite:0 window sampled
    once on e1's grid.
    """
    if e2.grid != e1.grid:
        raise ValueError("closure check: the ensembles are on different grids")
    # The two mixed fields are compared block by block, so neither is built.
    # strict=True runs both kernels' closing realness checks, and np.max
    # keeps a NaN as the whole-array max would.
    f1, f2 = (_wigner_blocks([(w, st, st) for st, w in e.members], real=True) for e in (e1, e2))
    gaps = [np.abs(v1 - v2).max() for (_, v1), (_, v2) in zip(f1, f2, strict=True)]
    field_residual = float(np.max(gaps))
    if field_residual > field_tol:
        raise CheckError(
            f"mixed Wigner fields differ by {field_residual:.3e} (> {field_tol:.1e})"
        )
    window = catalog_state("hermite:0", e1.grid)
    v1 = tuple(modulation_norm(st, s, window).verdict for st, _ in e1.members)
    v2 = tuple(modulation_norm(st, s, window).verdict for st, _ in e2.members)
    inconclusive = "inconclusive" in v1 or "inconclusive" in v2
    all1 = all(v == "convergent" for v in v1)
    all2 = all(v == "convergent" for v in v2)
    implication = (not all1) or all2 or inconclusive
    return ClosureReport(float(s), field_residual, v1, v2, implication, inconclusive)
