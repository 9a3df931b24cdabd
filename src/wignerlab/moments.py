"""Marginals, normalization, and covariance extraction from phase-space fields.

The covariance routine deliberately takes integrability verdicts as an
argument: second moments of a Wigner distribution are only meaningful when
the weighted norm with s = 2 converges, and callers must demonstrate that
before asking for numbers.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Iterable

import numpy as np

from .ensemble import Ensemble
from .grid import (
    PhaseSpaceField,
    PhaseSpaceGrid,
    _pairwise_total,
    _row_blocks,
    centered_fft,
    trapezoid_weights,
)
from .modspace import DivergingStateError, WeightedNormReport, _ladder_report

__all__ = [
    "MarginalReport",
    "CovarianceReport",
    "marginals",
    "covariance",
]


@dataclass(frozen=True)
class MarginalReport:
    x_marginal: np.ndarray
    p_marginal: np.ndarray
    x_residual: float
    p_residual: float
    norm_residual: float


@dataclass(frozen=True)
class CovarianceReport:
    """Mean, centered covariance, and the transform-side cross-check.

    second_moments_fd holds the raw (uncentered) second moments obtained by
    finite differences of the characteristic function at 0; residual is the
    max entrywise gap to the raw quadrature moments.  fd_step_change is the
    same stencil evaluated at twice the step, as a smoothness probe.
    flags contains "numerically-unreliable" when the two routes disagree
    beyond tolerance.
    """

    mean: np.ndarray
    sigma: np.ndarray
    second_moments_fd: np.ndarray
    residual: float
    fd_step_change: float
    flags: tuple[str, ...]

    def __post_init__(self) -> None:
        sig = np.asarray(self.sigma)
        if np.abs(sig - sig.T).max() > 1e-10:
            raise ValueError("sigma must be symmetric within 1e-10")


def _characteristic_block(field: PhaseSpaceField, half_width: int) -> np.ndarray:
    """Characteristic function within half_width samples of the origin on both axes.

    The characteristic function of a field is
    F(z) = (1/(2*pi*hbar)) * integral e^(-i z.z' / hbar) rho(z') dz' on the
    reciprocal lattice: steps dp along the first axis and 2*pi*hbar/(n*dp)
    along the second, n samples each, centered at 0; the n/2 momentum
    columns are zero-padded by n/4 on each side, consistent with their
    compact-support reading.  Returns indices n/2 - h .. n/2 + h of each
    axis, clipped to the lattice, so h >= n/2 gives the whole n x n
    transform.  Row blocks (grid._row_blocks) of zero-padded, sign-multiplied
    field rows are transformed along p and only the kept columns are then
    transformed along x.  numpy transforms each 1-D line on its own and fftn
    does the last axis first, so every value has the bits of
    grid.centered_fft over the padded n x n field.
    """
    grid = field.grid
    n = grid.n_points
    sign = 1.0 - 2.0 * (np.arange(n) & 1)
    off = n // 4
    lo, hi = max(n // 2 - half_width, 0), min(n // 2 + half_width + 1, n)
    kept = np.empty((n, hi - lo), dtype=np.complex128)
    for rows in _row_blocks(n):
        # The whole padded block, zeros included, takes the sign product, as
        # in centered_fft.
        block = np.zeros((rows.stop - rows.start, n), dtype=np.complex128)
        block[:, off : n - off] = field.values[rows]
        np.multiply(sign[rows, None] * sign, block, out=block)
        kept[rows] = np.fft.fft(block, axis=1)[:, lo:hi]
    scale = grid.dx * grid.dp / (2.0 * math.pi * grid.hbar)
    return scale * (sign[lo:hi, None] * sign[lo:hi]) * np.fft.fft(kept, axis=0)[lo:hi]


def _fourier_side_density(values: np.ndarray, grid: PhaseSpaceGrid) -> np.ndarray:
    """Momentum densities |F psi|^2 of state samples, on the central half p lattice."""
    transformed = centered_fft(values, grid.dx / math.sqrt(2.0 * math.pi * grid.hbar))
    off = grid.n_points // 4
    return np.abs(transformed[off : grid.n_points - off]) ** 2


def marginals(rho_field: PhaseSpaceField, reference: Ensemble) -> MarginalReport:
    """Marginal densities of a mixed field, checked against its ensemble.

    W_rho itself must read convergent on the s = 0 ladder over its row
    blocks, default tolerances; otherwise the marginal identities are
    unproven for the input and the computation is refused.
    """
    grid = rho_field.grid
    if reference.grid != grid:
        raise ValueError("marginals: field and ensemble are on different grids")
    blocks = ((rows, rho_field.values[rows]) for rows in _row_blocks(grid.n_points))
    report = _ladder_report(blocks, grid, 0.0, "self")
    if report.verdict != "convergent":
        raise DivergingStateError(
            f"mixture {reference.label!r}: W_rho reads {report.verdict!r}, growth exponent "
            f"{report.growth_exponent:.3g}, top rung {report.partials[-1][1]:.6g}; "
            "marginals are only validated for a convergent W_rho"
        )
    vals = rho_field.values.real
    x_marginal = vals.sum(axis=1) * grid.dp
    wx = trapezoid_weights(grid.n_points)
    # The trapezoid sum over x gives both the p marginal and, summed over p,
    # the field's integral.
    x_sum = wx @ vals
    p_marginal = x_sum * grid.dx

    x_target = np.zeros(grid.n_points)
    p_target = np.zeros(grid.n_points // 2)
    for state, weight in reference.members:
        x_target += weight * np.abs(state.values) ** 2
        p_target += weight * _fourier_side_density(state.values, grid)

    x_residual = float(np.abs(x_marginal - x_target).max())
    p_residual = float(np.abs(p_marginal - p_target).max())
    norm_residual = abs(complex(np.sum(x_sum) * grid.dx * grid.dp) - 1.0)
    return MarginalReport(x_marginal, p_marginal, x_residual, p_residual, float(norm_residual))


def _require_convergent_s2(s_verdict: Iterable[WeightedNormReport]) -> None:
    reports = list(s_verdict)
    if not reports:
        raise DivergingStateError("covariance requires at least one s >= 2 verdict")
    for rep in reports:
        if rep.s < 2.0 - 1e-12:
            raise DivergingStateError(
                f"covariance requires s >= 2 verdicts, got s = {rep.s}"
            )
        if rep.verdict != "convergent":
            raise DivergingStateError(
                f"covariance refused: verdict {rep.verdict!r} for window "
                f"{rep.window!r} (convergent s >= 2 required)"
            )


def _quadratures(
    rho_field: PhaseSpaceField,
    x: np.ndarray,
    terms: tuple[Callable[[np.ndarray, np.ndarray], np.ndarray], ...],
) -> list[float]:
    """dx * dp * sum over the field of term(x, dens), one value per term.

    x is a column of one value per field row, and dens is the real field
    times the trapezoid weights in x.  The field is read in the row blocks
    of grid._row_blocks: each term's block product is summed with np.sum and
    the block sums are added pairwise, which is np.sum's order over the
    whole (n, n/2) product (docs/conventions.md, Block sums).
    """
    grid = rho_field.grid
    values = rho_field.values.real
    wx = trapezoid_weights(grid.n_points)[:, None]
    sums: list[list[float]] = [[] for _ in terms]
    for rows in _row_blocks(grid.n_points):
        dens = values[rows] * wx[rows]
        for term, block_sums in zip(terms, sums):
            block_sums.append(float(np.sum(term(x[rows], dens))))
    dz = grid.dx * grid.dp
    return [_pairwise_total(block_sums) * dz for block_sums in sums]


def covariance(
    rho_field: PhaseSpaceField,
    s_verdict: Iterable[WeightedNormReport],
    route_tol: float = 1e-3,
) -> CovarianceReport:
    """Mean vector and covariance matrix of a normalized phase-space field.

    s_verdict is the capability token: one convergent s >= 2 report per
    underlying state.  Second moments are computed twice, by direct
    quadrature and by second differences of the characteristic function at
    0 (steps dp along the first axis, dx along the second, second-order
    stencils only); the report carries both and their gap.
    """
    _require_convergent_s2(s_verdict)
    grid = rho_field.grid
    x = grid.x_points()[:, None]
    p = grid.wigner_p_points()[None, :]

    mean_x, mean_p, xx, xp, pp = _quadratures(
        rho_field,
        x,
        (
            lambda x, dens: x * dens,
            lambda x, dens: p * dens,
            lambda x, dens: x * x * dens,
            lambda x, dens: x * p * dens,
            lambda x, dens: p * p * dens,
        ),
    )
    mean = np.array([mean_x, mean_p])
    raw = np.array([[xx, xp], [xp, pp]])
    pc = p - mean_p
    sxx, sxp, spp = _quadratures(
        rho_field,
        x - mean_x,
        (
            lambda xc, dens: xc * xc * dens,
            lambda xc, dens: xc * pc * dens,
            lambda xc, dens: pc * pc * dens,
        ),
    )
    sigma = np.array([[sxx, sxp], [sxp, spp]])

    # The h and 2h stencils read only the 5 x 5 block around the origin.
    c = 2
    fvals = _characteristic_block(rho_field, c)
    hbar = grid.hbar
    step_xi = grid.dp
    # The reciprocal lattice's own step, which differs from dx in the last
    # bit on some grids.
    step_eta = 2.0 * math.pi * hbar / (grid.n_points * grid.dp)
    prefactor = -(hbar**2) * 2.0 * math.pi * hbar

    def stencil(k: int) -> np.ndarray:
        dxx = (fvals[c + k, c] - 2.0 * fvals[c, c] + fvals[c - k, c]).real / (k * step_xi) ** 2
        dpp = (fvals[c, c + k] - 2.0 * fvals[c, c] + fvals[c, c - k]).real / (k * step_eta) ** 2
        dxp = (
            fvals[c + k, c + k] - fvals[c + k, c - k] - fvals[c - k, c + k] + fvals[c - k, c - k]
        ).real / (4.0 * k * k * step_xi * step_eta)
        return prefactor * np.array([[dxx, dxp], [dxp, dpp]])

    fd_h = stencil(1)
    fd_2h = stencil(2)
    residual = float(np.abs(fd_h - raw).max())
    fd_step_change = float(np.abs(fd_h - fd_2h).max())
    flags = ("numerically-unreliable",) if residual > route_tol else ()
    return CovarianceReport(mean, sigma, fd_h, residual, fd_step_change, flags)
