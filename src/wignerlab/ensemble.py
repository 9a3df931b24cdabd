"""Mixed states, truncated-basis density matrices, and ensemble equivalence.

States are expanded in the orthonormal oscillator eigenbasis with width
sqrt(hbar).  An ensemble {(psi_j, w_j)} becomes the matrix A whose column j
holds sqrt(w_j) times the expansion coefficients of psi_j; the density
matrix is A A*.  Two ensembles share a density matrix exactly when their
A-matrices differ by a partial isometry acting on the right, which is
recovered here by a pseudoinverse.  The module imports only grid; the
closure check, which also reads Wigner fields and verdicts, is in modspace.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .grid import (
    GRID_NORM_BUDGET,
    MAX_HERMITE_ORDER,
    CheckError,
    PhaseSpaceGrid,
    SampledState,
    hermite_functions,
    state_norm,
    trapezoid_norm,
    trapezoid_weights,
)

__all__ = [
    "Ensemble",
    "EnsembleOperator",
    "DensityMatrix",
    "PartialIsometry",
    "hermite_basis",
    "build_A",
    "density_matrix",
    "density_matrix_direct",
    "spectral_ensemble",
    "find_partial_isometry",
]

MAX_BASIS_DIM = MAX_HERMITE_ORDER + 1
SV_CUTOFF = 1e-10


@dataclass(frozen=True)
class Ensemble:
    """Weighted list of unit-norm states with convex weights."""

    members: tuple[tuple[SampledState, float], ...]
    label: str

    def __post_init__(self) -> None:
        members = tuple((st, float(w)) for st, w in self.members)
        if not members:
            raise ValueError("ensemble needs at least one member")
        grid = members[0][0].grid
        for st, w in members:
            if not (math.isfinite(w) and w > 0):
                raise ValueError(f"weights must be positive and finite, got {w}")
            if st.grid != grid:
                raise ValueError("all ensemble members must share one grid and hbar")
            nrm = state_norm(st)
            if abs(nrm - 1.0) > 1e-8:
                raise ValueError(
                    f"member {st.label!r} is not unit-norm (norm {nrm:.10f})"
                )
        total = sum(w for _, w in members)
        if abs(total - 1.0) > 1e-10:
            raise ValueError(f"weights must sum to 1, got {total!r}")
        object.__setattr__(self, "members", members)

    @property
    def grid(self) -> PhaseSpaceGrid:
        return self.members[0][0].grid

    def weights(self) -> np.ndarray:
        return np.array([w for _, w in self.members])


@dataclass(frozen=True)
class EnsembleOperator:
    """Matrix of the ensemble operator in the truncated oscillator basis."""

    matrix: np.ndarray
    truncation_residual: float

    def __post_init__(self) -> None:
        m = np.array(self.matrix, dtype=np.complex128, copy=True)
        if m.ndim != 2 or m.shape[0] != m.shape[1]:
            raise ValueError(f"matrix must be square, got shape {m.shape}")
        m.flags.writeable = False
        object.__setattr__(self, "matrix", m)

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]


@dataclass(frozen=True)
class DensityMatrix:
    """Hermitian positive semidefinite matrix with trace 1 up to truncation."""

    matrix: np.ndarray
    trace_residual: float

    def __post_init__(self) -> None:
        m = np.array(self.matrix, dtype=np.complex128, copy=True)
        if m.ndim != 2 or m.shape[0] != m.shape[1]:
            raise ValueError(f"matrix must be square, got shape {m.shape}")
        if np.abs(m - m.conj().T).max() > 1e-10:
            raise CheckError("density matrix is not Hermitian within 1e-10")
        eigs = np.linalg.eigvalsh(m)
        if eigs.min() < -1e-8:
            raise CheckError(f"density matrix has eigenvalue {eigs.min():.3e} < -1e-8")
        trace = float(np.trace(m).real)
        if abs(trace - 1.0) > self.trace_residual + 1e-8:
            raise CheckError(
                f"trace {trace!r} deviates from 1 beyond the truncation budget "
                f"{self.trace_residual:.3e}"
            )
        m.flags.writeable = False
        object.__setattr__(self, "matrix", m)

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]


@dataclass(frozen=True)
class PartialIsometry:
    """Matrix U with U*U an orthogonal projection (within the stated defect).

    For the two operators U was recovered from, factor_residual is
    ||A - A' U||_F and density_residual is ||A A* - A' A'*||_F.
    """

    matrix: np.ndarray
    rank: int
    defect: float
    factor_residual: float
    density_residual: float

    def __post_init__(self) -> None:
        m = np.array(self.matrix, dtype=np.complex128, copy=True)
        if self.defect > 1e-8:
            raise CheckError(
                f"partial-isometry defect {self.defect:.3e} exceeds 1e-8"
            )
        m.flags.writeable = False
        object.__setattr__(self, "matrix", m)


def _check_dim(dim: int) -> None:
    if not 1 <= dim <= MAX_BASIS_DIM:
        raise ValueError(f"dim must be in 1..{MAX_BASIS_DIM}, got {dim}")


def hermite_basis(grid: PhaseSpaceGrid, dim: int) -> np.ndarray:
    """Rows 0..dim-1 of the oscillator basis sampled on the grid.

    Raises when the grid cannot resolve the top basis function (its norm
    is off by more than GRID_NORM_BUDGET), which is how every downstream
    routine detects an inadequate grid before producing garbage coefficients.
    """
    _check_dim(dim)
    basis = hermite_functions(dim - 1, grid.x_points(), grid.hbar)
    top_norm = trapezoid_norm(basis[-1], grid)
    if abs(top_norm - 1.0) > GRID_NORM_BUDGET:
        raise ValueError(
            f"grid too coarse for basis dimension {dim}: "
            f"top function norm deviates by {abs(top_norm - 1.0):.2e}"
        )
    return basis


def _projections(
    states: Sequence[SampledState], dim: int
) -> list[tuple[np.ndarray, float]]:
    """(coefficients, residual) of each state in the truncated oscillator basis.

    residual is the squared norm left outside the truncation, 1 - sum |a_k|^2
    for a unit state.  The states share one grid, so the basis is built once.
    """
    grid = states[0].grid
    weighted = hermite_basis(grid, dim) * trapezoid_weights(grid.n_points)
    projections = []
    for psi in states:
        coeffs = weighted @ psi.values * psi.grid.dx
        residual = float(state_norm(psi) ** 2 - np.sum(np.abs(coeffs) ** 2))
        if residual < -1e-8:
            raise CheckError(f"projection residual {residual:.3e} < -1e-8")
        projections.append((coeffs, residual))
    return projections


def build_A(ensemble: Ensemble, dim: int) -> EnsembleOperator:
    """Ensemble operator: column j = sqrt(weight_j) * coefficients of member j."""
    _check_dim(dim)
    if len(ensemble.members) > dim:
        raise ValueError(
            f"ensemble has {len(ensemble.members)} members, more than dim {dim}"
        )
    matrix = np.zeros((dim, dim), dtype=np.complex128)
    truncation = 0.0
    projections = _projections([state for state, _ in ensemble.members], dim)
    for col, ((_, weight), (coeffs, residual)) in enumerate(zip(ensemble.members, projections)):
        matrix[:, col] = math.sqrt(weight) * coeffs
        truncation += weight * residual
    return EnsembleOperator(matrix, truncation)


def density_matrix(op: EnsembleOperator) -> DensityMatrix:
    """Density matrix A A* of an ensemble operator."""
    rho = op.matrix @ op.matrix.conj().T
    return DensityMatrix(rho, op.truncation_residual)


def density_matrix_direct(ensemble: Ensemble, dim: int) -> np.ndarray:
    """Density matrix assembled member by member as sum of w * a a*.

    Exists as an independent route for validating density_matrix(build_A(e));
    both must agree to rounding.
    """
    projections = _projections([state for state, _ in ensemble.members], dim)
    rho = np.zeros((dim, dim), dtype=np.complex128)
    for (_, weight), (coeffs, _) in zip(ensemble.members, projections):
        rho += weight * np.outer(coeffs, coeffs.conj())
    return rho


def spectral_ensemble(rho: DensityMatrix, grid: PhaseSpaceGrid) -> Ensemble:
    """Eigen-ensemble of a density matrix, synthesized back onto the grid.

    Eigenvalues are sorted descending, and those at or below SV_CUTOFF (1e-10)
    are dropped: quadrature noise, including the values in [-1e-8, 0) that
    the DensityMatrix constructor accepts.
    """
    eigvals, eigvecs = np.linalg.eigh(rho.matrix)
    order = np.argsort(eigvals)[::-1]
    eigvals = eigvals[order]
    eigvecs = eigvecs[:, order]
    keep = eigvals > SV_CUTOFF
    eigvals = eigvals[keep]
    eigvecs = eigvecs[:, keep]
    # Ensemble needs weights summing to 1: a basis too small loses trace.
    kept = sum(eigvals.tolist())
    if abs(kept - 1.0) > 1e-10:
        raise ValueError(
            f"the {rho.dim}-function Hermite basis keeps trace {kept!r} of the "
            "density matrix, not 1 within 1e-10; use a larger --dim"
        )
    basis = hermite_basis(grid, rho.dim)
    members = []
    for j in range(eigvals.size):
        vals = eigvecs[:, j] @ basis
        state = SampledState(grid, vals / trapezoid_norm(vals, grid), f"spectral:{j}")
        members.append((state, float(eigvals[j])))
    return Ensemble(tuple(members), "spectral")


def _pinv(matrix: np.ndarray) -> np.ndarray:
    u, s, vh = np.linalg.svd(matrix)
    inv = np.where(s > SV_CUTOFF, 1.0 / np.where(s > SV_CUTOFF, s, 1.0), 0.0)
    return vh.conj().T @ (inv[:, None] * u.conj().T)


def find_partial_isometry(
    a: EnsembleOperator,
    a_prime: EnsembleOperator,
    density_tol: float = 1e-6,
    factor_tol: float = 1e-6,
) -> PartialIsometry:
    """Recover U with A = A' U for two operators sharing a density matrix.

    U is pinv(A') A with singular values below 1e-10 treated as 0, which
    completes U by zero on the kernel: a partial isometry, not a unitary.
    Both density matrices pass the DensityMatrix checks first.  Raises
    CheckError when they differ beyond density_tol (no such U exists) or
    when the factorization residual exceeds factor_tol.
    """
    if a.dim != a_prime.dim:
        raise ValueError(f"operator dimensions differ: {a.dim} vs {a_prime.dim}")
    rho_gap = float(np.linalg.norm(density_matrix(a).matrix - density_matrix(a_prime).matrix))
    if rho_gap > density_tol:
        raise CheckError(
            f"density matrices differ by {rho_gap:.3e} (> {density_tol:.1e}); "
            "no partial isometry exists"
        )
    u = _pinv(a_prime.matrix) @ a.matrix
    factor_gap = float(np.linalg.norm(a.matrix - a_prime.matrix @ u))
    if factor_gap > factor_tol:
        raise CheckError(
            f"factorization residual {factor_gap:.3e} exceeds {factor_tol:.1e}"
        )
    uu = u.conj().T @ u
    defect = float(np.linalg.norm(uu @ uu - uu))
    rank = int(np.sum(np.linalg.svd(a.matrix, compute_uv=False) > SV_CUTOFF))
    return PartialIsometry(u, rank, defect, factor_gap, rho_gap)
