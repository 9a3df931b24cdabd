"""Discrete cross-Wigner transform and metaplectic companion operators."""

from __future__ import annotations

import math

import numpy as np

from .grid import (
    CheckError,
    PhaseSpaceField,
    PhaseSpaceGrid,
    SampledState,
    centered_fft,
    field_integral,
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


def wigner_rows(
    psi_values: np.ndarray,
    phi_values: np.ndarray,
    grid: PhaseSpaceGrid,
    rows: np.ndarray,
) -> np.ndarray:
    """Cross-Wigner values for the given x-row indices.

    Row j is the FFT over the signed half-offset lattice y = 2m*dx of the
    slice products psi(x_{j+m}) * conj(phi(x_{j-m})); samples with j +- m
    outside [0, n) contribute 0.  The transform is periodic in p with period
    n/2 * dp, so only the central alias-free period is kept: n/2 columns at
    p_i = (i - n/4) * dp, i.e. every second sample of the half-spacing
    momentum axis.
    """
    n = grid.n_points
    m_idx = np.arange(n)[None, :]
    m = np.where(m_idx <= n // 2, m_idx, m_idx - n)
    j = np.asarray(rows, dtype=np.intp)[:, None]
    jp = j + m
    jm = j - m
    valid = (jp >= 0) & (jp < n) & (jm >= 0) & (jm < n)
    slices = np.where(
        valid,
        psi_values[np.clip(jp, 0, n - 1)] * np.conj(phi_values[np.clip(jm, 0, n - 1)]),
        0.0,
    )
    spectrum = np.fft.fft(slices, axis=1)
    cols = (2 * (np.arange(n // 2) + n // 4)) % n
    return (grid.dx / (math.pi * grid.hbar)) * spectrum[:, cols]


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

    row_block bounds the number of x-slices transformed per FFT batch; the
    result is independent of the blocking.
    """
    _check_inputs(psi, phi, grid)
    if row_block < 1:
        raise ValueError(f"row_block must be >= 1, got {row_block}")
    n = grid.n_points
    out = np.empty((n, n // 2), dtype=np.complex128)
    for start in range(0, n, row_block):
        rows = np.arange(start, min(start + row_block, n))
        out[rows] = wigner_rows(psi.values, phi.values, grid, rows)
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
    """
    name, lam = _parse_metaplectic(op)
    vals = _fourier_state(psi) if name == "fourier" else _scaled_state(psi, lam)
    return SampledState(psi.grid, vals, f"{op}({psi.label})", psi.hbar)
