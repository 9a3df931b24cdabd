"""Weighted phase-space norms and integrability verdicts.

Whether a state's Wigner transform is absolutely integrable cannot be
decided from finitely many samples; these routines expose the evidence
instead: partial weighted norms on a geometric ladder of momentum cutoffs,
a fitted growth rate, and a three-way verdict.
"""

from __future__ import annotations

import math
from collections.abc import Iterable
from dataclasses import dataclass

import numpy as np

from .grid import (
    CheckError,
    PhaseSpaceField,
    PhaseSpaceGrid,
    SampledState,
    _pairwise_total,
    _row_blocks,
    catalog_state,
    state_norm,
)
from .wigner import _wigner_blocks

__all__ = [
    "DivergingStateError",
    "WeightedNormReport",
    "weighted_l1_norm",
    "cutoff_ladder",
    "modulation_norm",
    "feichtinger_diagnostic",
    "diagnostic_grid_warning",
]

LN2 = math.log(2.0)


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
    """The weighted-L1 ladder of a field read as (rows, values) row blocks in order.

    The blocks tile the (n, n/2) field with one power-of-two row count, and
    either one block is the whole field or each holds at least 128 values.
    Each rung sums its masked block on its own and adds the block sums
    pairwise, which is np.sum's order over the whole field: see
    docs/conventions.md, Block sums.
    """
    if s < 0:
        raise ValueError(f"weight exponent s must be >= 0, got {s}")
    p = grid.wigner_p_points()
    band = -float(p[0])
    for cutoff in cutoffs:
        if cutoff > band * (1 + 1e-12):
            raise ValueError(
                f"cutoff {cutoff:.6g} exceeds the field momentum half-width {band:.6g}"
            )
    n = grid.n_points
    x2_all = grid.x_points()[:, None] ** 2
    p2 = p**2
    # fl(x^2 + p^2) >= p^2, so a rung's disc lies within the columns where
    # p^2 <= cutoff^2.  Its masked product is built on those columns only;
    # the zeros around them keep np.sum's pairwise order.
    rungs = []
    for cutoff in cutoffs:
        c2 = cutoff**2
        band_cols = np.flatnonzero(p2 <= c2)
        lo, hi = (band_cols[0], band_cols[-1] + 1) if band_cols.size else (0, 0)
        rungs.append((c2, lo, hi, []))
    finite = True
    weighted = scratch = None
    for rows, values in blocks:
        if weighted is None:
            weighted = np.empty(values.shape)
            scratch = np.empty_like(weighted)
        w, buf = weighted[: len(values)], scratch[: len(values)]
        x2 = x2_all[rows]
        # An overflowing weight is refused below, so its warnings are noise.
        with np.errstate(over="ignore", invalid="ignore"):
            # (|W| * weight) * wx keeps the formula's association; **= keeps
            # numpy's sqrt path for s = 1.  Multiplying by 1.0 is exact, so
            # the weight pass is skipped at s = 0 and the trapezoid weights
            # wx touch only the two edge rows, where they are 0.5.
            np.abs(values, out=w)
            if s != 0:
                np.add(1.0 + x2, p2, out=buf)
                buf **= 0.5 * s
                w *= buf
            if rows.start == 0:
                w[0] *= 0.5
            if rows.stop == n:
                w[-1] *= 0.5
            finite = finite and math.isfinite(float(w.max()))
            nearest = float(x2.min())
            for c2, lo, hi, sums in rungs:
                # fl(x^2 + p^2) >= x^2 too: a block whose rows all lie outside
                # the disc sums to +0, unless a weighted value there is not
                # finite, which `finite` already refuses.
                if nearest > c2:
                    sums.append(0.0)
                    continue
                buf[:, :lo] = 0.0
                buf[:, hi:] = 0.0
                disc = buf[:, lo:hi]
                np.add(x2, p2[lo:hi], out=disc)
                np.multiply(w[:, lo:hi], disc <= c2, out=disc)
                sums.append(float(np.sum(buf)))
    norms = [_pairwise_total(sums) * grid.dx * grid.dp for *_, sums in rungs]
    # No rung reads a weighted value outside its columns, so a non-finite one
    # there shows only in `finite`; it is refused wherever it lies.
    if not (finite and all(math.isfinite(v) for v in norms)):
        raise ValueError(f"weight exponent s = {s} overflows the weighted norm on this grid")
    return tuple(norms)


def weighted_l1_norm(
    field: PhaseSpaceField, s: float, cutoffs: tuple[float, ...]
) -> tuple[float, ...]:
    """Quadratures of |field| * (1 + x^2 + p^2)^(s/2) over the discs x^2 + p^2 <= cutoff^2.

    One value per cutoff.  The disc is invariant under rotations of phase
    space, so the ladder reads the same after a Fourier transform.
    """
    blocks = ((rows, field.values[rows]) for rows in _row_blocks(field.grid.n_points))
    return _ladder(blocks, field.grid, s, cutoffs)


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
    tail_tol: float,
    growth_threshold: float,
) -> WeightedNormReport:
    cuts = cutoff_ladder(grid)
    partials = tuple(zip(cuts, _ladder(blocks, grid, s, cuts)))
    verdict, growth = _fit_verdict(partials, tail_tol, growth_threshold)
    return WeightedNormReport(float(s), window, partials, verdict, growth)


def modulation_norm(
    psi: SampledState,
    s: float,
    window: str | SampledState = "hermite:0",
    tail_tol: float = 1e-3,
    growth_threshold: float = 0.5,
) -> WeightedNormReport:
    """Partial weighted norms of the cross-Wigner transform against a window.

    The window is a catalog descriptor, by default the ground Gaussian, or a
    state already sampled on psi's grid; any nonzero window distinguishes the
    same class of states, only the values change.
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
    tail_tol: float = 1e-3,
    growth_threshold: float = 0.5,
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
