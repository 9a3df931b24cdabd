"""Discrete cross-Wigner transform and metaplectic companion operators."""

from __future__ import annotations

import math
from collections.abc import Iterator, Sequence

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .ensemble import Ensemble
from .grid import (
    GRID_NORM_BUDGET,
    CheckError,
    PhaseSpaceField,
    PhaseSpaceGrid,
    SampledState,
    _descriptor_numbers,
    _row_blocks,
    field_integral,
    momentum_samples,
    state_norm,
    state_overlap,
)

__all__ = [
    "cross_wigner",
    "wigner",
    "mixed_wigner",
    "overlap_identity_check",
    "apply_metaplectic",
    "symplectic_matrix",
]


def _padded_windows(values: np.ndarray, weight: float = 1.0) -> np.ndarray:
    """Row k is weight * values[k - n/2 : k + n/2 + 1], with 0 outside [0, n)."""
    n = values.size
    padded = np.zeros(2 * n, dtype=np.complex128)
    padded[n // 2 : n // 2 + n] = values
    # Scale the real and imaginary parts as reals: a complex product with
    # weight + 0j can flip the sign of a zero part.
    parts = padded.view(np.float64)
    parts *= weight
    return sliding_window_view(padded, n + 1)


def _wigner_blocks(
    pairs: Sequence[tuple[float, SampledState, SampledState]],
    real: bool,
) -> Iterator[tuple[slice, np.ndarray]]:
    """Yield (rows, values) for the rows of sum_r w_r * W(psi_r, phi_r), in order.

    Row j is the FFT over the signed half-offset lattice y = 2m*dx of the
    summed slice products sum_r w_r * psi_r(x_{j+m}) * conj(phi_r(x_{j-m})),
    stored in FFT order (m = 0 .. n/2, then 1-n/2 .. -1), so a mixture costs
    one FFT per row block whatever the number of pairs.  The transform is
    periodic in p with period n/2 * dp; the even FFT bins, centered, are its
    central alias-free period p_i = (i - n/4) * dp.  Every state must lie
    on the grid of the first, which is the field's grid.

    real=True gives the real part as float64 and raises CheckError, after
    the last block, when the imaginary part exceeds 1e-10 of the largest
    magnitude in the field.  One block buffer is reused, so a block is
    valid only until the next one; a built field copies the blocks in, so
    it holds one block besides itself while it fills.  The rows come in the
    blocks of grid._row_blocks; every blocking gives the same bits.  A row
    outside every pair's support rows is +0, and a block of such rows takes
    no slice assembly or FFT (docs/conventions.md, Support rows).
    """
    grid = pairs[0][1].grid
    for _, psi, phi in pairs:
        if psi.grid != grid or phi.grid != grid:
            raise ValueError("wigner: states are not sampled on one grid (n, L and hbar)")
    n = grid.n_points
    h, q = n // 2, n // 4
    # Column h + m of row j holds w * psi[j + m] and conj(phi[j - m]).
    windows = [
        (_padded_windows(psi.values, w), _padded_windows(np.conj(phi.values[::-1]))[::-1])
        for w, psi, phi in pairs
    ]
    scale = grid.dx / (math.pi * grid.hbar)
    blocks = _row_blocks(n)
    slices = np.empty((blocks[0].stop, n), dtype=np.complex128)
    term = np.empty_like(slices) if len(windows) > 1 else None
    block = np.empty((len(slices), h), dtype=np.float64 if real else np.complex128)
    # Row j of W(psi, phi) is 0 unless a0 + b0 <= 2j <= a1 + b1, where
    # psi's nonzero samples run from a0 to a1 and phi's from b0 to b1.
    live = np.zeros(n, dtype=bool)
    for _, psi, phi in pairs:
        a, b = np.flatnonzero(psi.values), np.flatnonzero(phi.values)
        if a.size and b.size:
            live[(a[0] + b[0] + 1) // 2 : (a[-1] + b[-1]) // 2 + 1] = True
    peak = imag_peak = 0.0
    for rows in blocks:
        buf = slices[: rows.stop - rows.start]
        values = block[: len(buf)]
        # Every slice product of a row outside live has a zero factor.  The
        # FFT could give -0 there; the field is +0 whatever the zeros' signs.
        if not live[rows].any():
            values.fill(0.0)
            yield rows, values
            continue
        for r, (psi_win, phi_win) in enumerate(windows):
            dst = term[: len(buf)] if r else buf
            np.multiply(psi_win[rows, h:], phi_win[rows, h:], out=dst[:, : h + 1])
            np.multiply(psi_win[rows, 1:h], phi_win[rows, 1:h], out=dst[:, h + 1 :])
            if r:
                buf += dst
        np.fft.fft(buf, axis=1, out=buf)
        # Even bins h, h+2, ... are p < 0 and 0, 2, ... are p >= 0.  A real
        # field scales them in place and copies out only their real parts.
        for cols, even in ((slice(0, q), buf[:, h::2]), (slice(q, h), buf[:, :h:2])):
            if real:
                np.multiply(scale, even, out=even)
                peak = max(peak, float(np.abs(even).max()))
                imag_peak = max(imag_peak, float(np.abs(even.imag).max()))
                values[:, cols] = even.real
            else:
                np.multiply(scale, even, out=values[:, cols])
        values[~live[rows]] = 0.0
        yield rows, values
    if real and peak > 0.0 and imag_peak > 1e-10 * peak:
        raise CheckError(
            f"wigner: imaginary part {imag_peak:.3e} exceeds 1e-10 of max {peak:.3e}"
        )


def _wigner_kernel(
    pairs: Sequence[tuple[float, SampledState, SampledState]], real: bool
) -> PhaseSpaceField:
    """The field sum_r w_r * W(psi_r, phi_r), every block of _wigner_blocks in its rows."""
    grid = pairs[0][1].grid
    n = grid.n_points
    out = np.empty((n, n // 2), dtype=np.float64 if real else np.complex128)
    for rows, values in _wigner_blocks(pairs, real):
        out[rows] = values
    # Frozen and owning its data, out is taken over by the field, not copied.
    out.flags.writeable = False
    return PhaseSpaceField(grid, out)


def cross_wigner(
    psi: SampledState, phi: SampledState, grid: PhaseSpaceGrid
) -> PhaseSpaceField:
    """Discrete cross-Wigner transform of a pair of states.

    Evaluates, for every grid point x and every momentum sample of the
    central half-lattice, the lattice form of
    (1/(2*pi*hbar)) * integral e^(-i*p*y/hbar) psi(x + y/2) conj(phi(x - y/2)) dy
    with y restricted to even multiples of dx so that both arguments stay on
    the grid.  Out-of-range samples are treated as 0 (compact-support
    embedding, no periodic wraparound).  See docs/conventions.md for the
    lattice and the FFT order of the slices.  Both states must lie on grid.
    """
    if psi.grid != grid:
        raise ValueError("cross_wigner: states are not sampled on this grid (n, L and hbar)")
    return _wigner_kernel(((1.0, psi, phi),), real=False)


def wigner(psi: SampledState) -> PhaseSpaceField:
    """Wigner transform: the diagonal cross-Wigner, returned real-valued."""
    return _wigner_kernel(((1.0, psi, psi),), real=True)


def mixed_wigner(ensemble: Ensemble) -> PhaseSpaceField:
    """Wigner transform of the mixture, sum_j w_j * W(psi_j), real-valued.

    The members' weighted slices are summed before each row block's FFT,
    so no member field is built.
    """
    members = tuple((weight, state, state) for state, weight in ensemble.members)
    return _wigner_kernel(members, real=True)


def overlap_identity_check(
    psi: SampledState, phi: SampledState, field: PhaseSpaceField
) -> float:
    """|integral of the cross field W(psi, phi) - <psi, phi>| by trapezoid quadrature."""
    if field.grid != psi.grid:
        raise ValueError("overlap_identity_check: field and states are on different grids")
    return abs(field_integral(field) - state_overlap(psi, phi))


def _parse_metaplectic(op: str) -> tuple[str, float]:
    """Split a descriptor into ``fourier`` or ``scale`` and its factor (1 for fourier)."""
    name, _, rest = op.partition(":")
    if name == "fourier":
        if rest:
            raise ValueError(f"fourier takes no parameter, got {op!r}")
        return name, 1.0
    if name == "scale":
        (lam,) = _descriptor_numbers(op, "scale factor")
        if not (math.isfinite(lam) and lam != 0.0 and math.isfinite(1.0 / lam)):
            raise ValueError(f"scale factor must be finite and nonzero, got {op!r}")
        return name, lam
    raise ValueError(f"unknown metaplectic descriptor {op!r}")


def symplectic_matrix(op: str) -> np.ndarray:
    """The linear phase-space map S covered by a metaplectic descriptor.

    fourier maps (x, p) to (p, -x); scale:lam maps (x, p) to (lam*x, p/lam).
    The transformed Wigner function samples the original at S^(-1) z.
    """
    name, lam = _parse_metaplectic(op)
    if name == "fourier":
        return np.array([[0.0, 1.0], [-1.0, 0.0]])
    return np.array([[lam, 0.0], [0.0, 1.0 / lam]])


def _scaled_state(psi: SampledState, lam: float) -> np.ndarray:
    """|lam|^(-1/2) psi(x/lam) by trigonometric interpolation.

    The interpolant is the band-limited periodic extension of the samples;
    evaluation points pulled from outside [-L, L) are set to 0, consistent
    with the compact-support reading used elsewhere.
    """
    n = psi.grid.n_points
    L = psi.grid.half_width
    coeff = np.fft.fft(psi.values) / n
    q = np.arange(n)
    q_centered = np.where(q <= n // 2, q, q - n)
    freq = math.pi * q_centered / L
    targets = psi.grid.x_points() / lam
    out = np.zeros(n, dtype=np.complex128)
    nyq = n // 2
    for start in range(0, n, 512):
        xs = targets[start : start + 512, None] + L
        phases = np.exp(1j * xs * freq[None, :])
        # The unpaired Nyquist mode is evaluated as a cosine so that real
        # inputs stay real.
        phases[:, nyq] = np.cos(xs[:, 0] * freq[nyq])
        out[start : start + 512] = phases @ coeff
    out[np.abs(targets) >= L] = 0.0
    return out / math.sqrt(abs(lam))


def apply_metaplectic(psi: SampledState, op: str) -> SampledState:
    """Apply a metaplectic generator to a state.

    Descriptors: ``fourier`` for the unitary transform
    (2*pi*hbar)^(-1/2) * integral e^(-i*x*p/hbar) psi(x) dx, evaluated by a
    centered FFT (requires dx == dp so the momentum lattice can be read back
    as the position lattice), and ``scale:lam`` for
    psi(x) -> |lam|^(-1/2) * psi(x/lam) with lam and 1/lam finite and nonzero.
    symplectic_matrix accepts and rejects exactly the same descriptors.

    Both are unitary, so a result whose trapezoid norm moves by more than
    grid.GRID_NORM_BUDGET has lost the state off the grid and is refused.
    """
    name, lam = _parse_metaplectic(op)
    if name == "fourier" and not psi.grid.is_self_reciprocal:
        raise ValueError(
            "fourier requires a self-reciprocal grid (dx == dp); "
            f"got dx={psi.grid.dx:.6g}, dp={psi.grid.dp:.6g}"
        )
    vals = momentum_samples(psi) if name == "fourier" else _scaled_state(psi, lam)
    out = SampledState(psi.grid, vals, f"{op}({psi.label})")
    before, after = state_norm(psi), state_norm(out)
    # Written so that a NaN gap, from two infinite norms, is refused too.
    if not abs(after - before) <= GRID_NORM_BUDGET:
        raise ValueError(
            f"{op} does not keep the norm of {psi.label} on this grid: "
            f"{before:.6g} -> {after:.6g}"
        )
    return out
