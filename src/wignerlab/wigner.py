"""Discrete cross-Wigner transform and metaplectic companion operators."""

from __future__ import annotations

import math

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .grid import (
    CheckError,
    PhaseSpaceField,
    PhaseSpaceGrid,
    SampledState,
    centered_fft,
    field_integral,
    state_norm,
    state_overlap,
)

__all__ = [
    "cross_wigner",
    "wigner",
    "overlap_identity_check",
    "hermiticity_residual",
    "apply_metaplectic",
    "symplectic_matrix",
]


def _check_inputs(psi: SampledState, phi: SampledState, grid: PhaseSpaceGrid) -> None:
    if psi.grid != grid.x_grid or phi.grid != grid.x_grid:
        raise ValueError("cross_wigner: states are not sampled on grid.x_grid")
    for st in (psi, phi):
        if abs(st.hbar - grid.hbar) > 1e-12 * grid.hbar:
            raise ValueError(
                f"cross_wigner: hbar mismatch (state {st.hbar} vs grid {grid.hbar})"
            )


def _padded_windows(values: np.ndarray) -> np.ndarray:
    """Row k is values[k - n/2 : k + n/2 + 1], with 0 outside [0, n)."""
    n = values.size
    padded = np.zeros(2 * n, dtype=np.complex128)
    padded[n // 2 : n // 2 + n] = values
    return sliding_window_view(padded, n + 1)


def cross_wigner(
    psi: SampledState,
    phi: SampledState,
    grid: PhaseSpaceGrid,
    row_block: int = 256,
) -> PhaseSpaceField:
    """Discrete cross-Wigner transform of a pair of states.

    Evaluates, for every grid point x and every momentum sample of the
    central half-lattice, the lattice form of
    (1/(2*pi*hbar)) * integral e^(-i*p*y/hbar) psi(x + y/2) conj(phi(x - y/2)) dy
    with y restricted to even multiples of dx so that both arguments stay on
    the grid.  Out-of-range samples are treated as 0 (compact-support
    embedding, no periodic wraparound).

    Row j is the FFT over the signed half-offset lattice y = 2m*dx of the
    slice products psi(x_{j+m}) * conj(phi(x_{j-m})), stored in FFT order
    (m = 0 .. n/2, then 1-n/2 .. -1).  The transform is periodic in p with
    period n/2 * dp, so only the central alias-free period is kept: n/2
    columns at p_i = (i - n/4) * dp, i.e. the even FFT bins, centered.

    row_block bounds the number of x-slices transformed per FFT batch; the
    result is independent of the blocking.
    """
    _check_inputs(psi, phi, grid)
    if row_block < 1:
        raise ValueError(f"row_block must be >= 1, got {row_block}")
    n = grid.n_points
    h, q = n // 2, n // 4
    # Column h + m of row j holds psi[j + m] and conj(phi[j - m]).
    psi_win = _padded_windows(psi.values)
    phi_win = _padded_windows(np.conj(phi.values[::-1]))[::-1]
    scale = grid.dx / (math.pi * grid.hbar)
    out = np.empty((n, h), dtype=np.complex128)
    slices = np.empty((min(row_block, n), n), dtype=np.complex128)
    for start in range(0, n, row_block):
        rows = slice(start, min(start + row_block, n))
        buf = slices[: rows.stop - start]
        np.multiply(psi_win[rows, h:], phi_win[rows, h:], out=buf[:, : h + 1])
        np.multiply(psi_win[rows, 1:h], phi_win[rows, 1:h], out=buf[:, h + 1 :])
        spectrum = np.fft.fft(buf, axis=1)
        # Even bins h, h+2, ... are p < 0 and 0, 2, ... are p >= 0.
        np.multiply(scale, spectrum[:, h::2], out=out[rows, :q])
        np.multiply(scale, spectrum[:, :h:2], out=out[rows, q:])
        # Free the spectrum before the next FFT and the buffer before
        # PhaseSpaceField copies out: either one held over raises peak RSS.
        del spectrum
    del slices, buf
    return PhaseSpaceField(grid, out, grid.wigner_p_points())


def wigner(psi: SampledState, grid: PhaseSpaceGrid) -> PhaseSpaceField:
    """Wigner transform: the diagonal cross-Wigner, returned real-valued."""
    field = cross_wigner(psi, psi, grid)
    scale = float(np.abs(field.values).max())
    imag_max = float(np.abs(field.values.imag).max())
    if scale > 0.0 and imag_max > 1e-10 * scale:
        raise CheckError(
            f"wigner: imaginary part {imag_max:.3e} exceeds 1e-10 of max {scale:.3e}"
        )
    return PhaseSpaceField(grid, field.values.real, field.p_axis)


def overlap_identity_check(
    psi: SampledState, phi: SampledState, field: PhaseSpaceField
) -> float:
    """|integral of the cross field W(psi, phi) - <psi, phi>| by trapezoid quadrature."""
    if field.grid.x_grid != psi.grid:
        raise ValueError("overlap_identity_check: field and states are on different grids")
    return abs(field_integral(field) - state_overlap(psi, phi))


def hermiticity_residual(forward: PhaseSpaceField, swapped: PhaseSpaceField) -> float:
    """max |W(psi, phi) - conj(W(phi, psi))| for a swapped pair of cross fields."""
    if forward.values.shape != swapped.values.shape or forward.grid != swapped.grid:
        raise ValueError("hermiticity_residual: fields are not comparable")
    return float(np.abs(forward.values - np.conj(swapped.values)).max())


def _parse_metaplectic(op: str) -> tuple[str, float]:
    """Split a descriptor into ``fourier`` or ``scale`` and its factor (1 for fourier)."""
    name, _, rest = op.partition(":")
    if name == "fourier":
        if rest:
            raise ValueError(f"fourier takes no parameter, got {op!r}")
        return name, 1.0
    if name == "scale":
        try:
            lam = float(rest)
        except ValueError:
            raise ValueError(f"bad scale factor in {op!r}") from None
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


def _fourier_state(psi: SampledState) -> np.ndarray:
    grid = PhaseSpaceGrid(psi.grid, psi.hbar)
    if not grid.is_self_reciprocal:
        raise ValueError(
            "fourier requires a self-reciprocal grid (dx == dp); "
            f"got dx={grid.dx:.6g}, dp={grid.dp:.6g}"
        )
    return centered_fft(psi.values, grid.dx / math.sqrt(2.0 * math.pi * psi.hbar))


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
    targets = psi.grid.points() / lam
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
    1e-3 (the budget catalog_state allows a grid) has lost the state off
    the grid and is refused.
    """
    name, lam = _parse_metaplectic(op)
    vals = _fourier_state(psi) if name == "fourier" else _scaled_state(psi, lam)
    out = SampledState(psi.grid, vals, f"{op}({psi.label})", psi.hbar)
    before, after = state_norm(psi), state_norm(out)
    if abs(after - before) > 1e-3:
        raise ValueError(
            f"{op} does not keep the norm of {psi.label} on this grid: "
            f"{before:.6g} -> {after:.6g}"
        )
    return out
