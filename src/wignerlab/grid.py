"""The phase-space grid, quadrature, and reference states.

Everything in this package is sampled on one grid object that carries n, L
and hbar: the symmetric left-inclusive lattice x_k = -L + k*dx with n a
power of two, and the conjugate momentum lattice with spacing
dp = 2*pi*hbar/(n*dx), so a length-n FFT maps one lattice onto the other
without interpolation.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "CheckError",
    "PhaseSpaceGrid",
    "SampledState",
    "PhaseSpaceField",
    "make_grid",
    "make_self_reciprocal_grid",
    "catalog_state",
    "hermite_functions",
    "hermite_combination",
    "trapezoid_weights",
    "state_norm",
    "state_overlap",
    "field_integral",
    "read_state_csv",
    "write_state_csv",
]


class CheckError(ValueError):
    """A numerical consistency check failed.

    Distinct from plain ValueError (bad arguments, unreadable files) so that
    callers can map the two onto different exit codes.
    """


# Highest oscillator order the recurrence in hermite_functions is used for.
MAX_HERMITE_ORDER = 127


def _is_power_of_two(n: int) -> bool:
    return n >= 1 and (n & (n - 1)) == 0


@dataclass(frozen=True)
class PhaseSpaceGrid:
    """Position lattice x_k = -L + k*dx, k = 0 .. n_points-1, and its
    reciprocal momentum lattice.

    The right endpoint +L is excluded, matching FFT conventions.  The
    momentum spacing satisfies dp * dx * n_points = 2*pi*hbar exactly.
    """

    n_points: int
    half_width: float
    hbar: float

    def __post_init__(self) -> None:
        n = self.n_points
        if not isinstance(n, (int, np.integer)) or isinstance(n, bool):
            raise ValueError(f"n_points must be an integer, got {n!r}")
        if n < 8 or not _is_power_of_two(int(n)):
            raise ValueError(f"n_points must be a power of two >= 8, got {n}")
        if not 0 < self.dx < math.inf:
            raise ValueError(f"half_width {self.half_width} gives no finite positive step")
        if not (self.hbar > 0 and 0 < self.dp < math.inf):
            raise ValueError(f"hbar {self.hbar} gives no finite positive momentum step")

    @property
    def dx(self) -> float:
        return 2.0 * self.half_width / self.n_points

    @property
    def dp(self) -> float:
        return 2.0 * math.pi * self.hbar / (self.n_points * self.dx)

    @property
    def is_self_reciprocal(self) -> bool:
        return abs(self.dx - self.dp) <= 1e-9 * self.dp

    def x_points(self) -> np.ndarray:
        """Position lattice, n_points samples from -L."""
        return -self.half_width + self.dx * np.arange(self.n_points)

    def wigner_p_points(self) -> np.ndarray:
        """Central half of the momentum lattice (n/2 samples).

        The slice FFT used for Wigner transforms is periodic in p with
        period n/2 * dp; this is the one alias-free period centered at 0.
        """
        n = self.n_points
        return (np.arange(n // 2) - n // 4) * self.dp


def make_grid(n_points: int, half_width: float, hbar: float = 1.0) -> PhaseSpaceGrid:
    """Build a phase-space grid; rejects non-power-of-two sizes."""
    return PhaseSpaceGrid(n_points, float(half_width), float(hbar))


def make_self_reciprocal_grid(n_points: int, hbar: float = 1.0) -> PhaseSpaceGrid:
    """Grid with dx == dp, i.e. half_width = sqrt(pi*hbar*n/2)."""
    return make_grid(n_points, math.sqrt(0.5 * math.pi * hbar * n_points), hbar)


@dataclass(frozen=True)
class SampledState:
    """A wave function sampled on a grid's position lattice.

    Values are stored as a read-only complex array; instances are safe to
    share between threads.
    """

    grid: PhaseSpaceGrid
    values: np.ndarray
    label: str

    def __post_init__(self) -> None:
        vals = np.array(self.values, dtype=np.complex128, copy=True)
        if vals.shape != (self.grid.n_points,):
            raise ValueError(
                f"values must have shape ({self.grid.n_points},), got {vals.shape}"
            )
        if not np.isfinite(vals).all():
            raise ValueError("state values must be finite")
        vals.flags.writeable = False
        object.__setattr__(self, "values", vals)


def trapezoid_weights(n: int) -> np.ndarray:
    w = np.ones(n)
    w[0] = 0.5
    w[-1] = 0.5
    return w


# Rows per block wherever a field is built or read a block at a time: a
# 32 x n complex block is 1 MB at n = 2048, so it stays in a per-core L2
# cache.  A power of two, so a quadrature can sum a field block by block in
# np.sum's own pairwise order (docs/conventions.md, Block sums).
ROW_BLOCK = 32


def _row_blocks(n: int) -> list[slice]:
    """Consecutive slices of ROW_BLOCK rows covering n rows; the last may be short."""
    return [slice(start, min(start + ROW_BLOCK, n)) for start in range(0, n, ROW_BLOCK)]


def _pairwise_total(sums: list[float]) -> float:
    """Add 2^k block sums pairwise in a balanced tree, neighbours first."""
    while len(sums) > 1:
        sums = [a + b for a, b in zip(sums[::2], sums[1::2])]
    return sums[0]


def trapezoid_norm(values: np.ndarray, grid: PhaseSpaceGrid) -> float:
    """L2 norm of samples on the grid by trapezoid quadrature."""
    w = trapezoid_weights(grid.n_points)
    return math.sqrt(float(np.sum(w * np.abs(values) ** 2)) * grid.dx)


def state_norm(state: SampledState) -> float:
    """L2 norm by trapezoid quadrature."""
    return trapezoid_norm(state.values, state.grid)


def centered_fft(values: np.ndarray, scale: float) -> np.ndarray:
    """scale * (-1)^k * FFT[(-1)^j values] over every axis of values.

    The alternating signs put index n/2 at the origin of both the input and
    the output lattice without fftshift copies; the leftover phase
    exp(-i*pi*n/2) per axis is 1 because n is a power of two >= 8.
    """
    sign = math.prod(np.ix_(*(1.0 - 2.0 * (np.arange(n) & 1) for n in values.shape)))
    return scale * sign * np.fft.fftn(sign * values)


def state_overlap(psi: SampledState, phi: SampledState) -> complex:
    """Inner product by trapezoid quadrature, linear in the first argument."""
    if psi.grid != phi.grid:
        raise ValueError("overlap requires states on the same grid")
    w = trapezoid_weights(psi.grid.n_points)
    return complex(np.sum(w * psi.values * np.conj(phi.values)) * psi.grid.dx)


def hermite_functions(k_max: int, x: np.ndarray, hbar: float = 1.0) -> np.ndarray:
    """Orthonormal oscillator eigenfunctions phi_0 .. phi_k_max sampled at x.

    Uses the normalized two-term recurrence
    phi_k = sqrt(2/k)*u*phi_{k-1} - sqrt((k-1)/k)*phi_{k-2} with u = x/sqrt(hbar),
    which is stable for the k <= MAX_HERMITE_ORDER range supported here.

    Returns an array of shape (k_max + 1, x.size).
    """
    if k_max < 0:
        raise ValueError(f"k_max must be >= 0, got {k_max}")
    if k_max > MAX_HERMITE_ORDER:
        raise ValueError(f"hermite order must be <= {MAX_HERMITE_ORDER}, got {k_max}")
    u = np.asarray(x, dtype=float) / math.sqrt(hbar)
    out = np.empty((k_max + 1, u.size))
    out[0] = (math.pi * hbar) ** -0.25 * np.exp(-0.5 * u * u)
    if k_max >= 1:
        out[1] = math.sqrt(2.0) * u * out[0]
    for k in range(2, k_max + 1):
        out[k] = math.sqrt(2.0 / k) * u * out[k - 1] - math.sqrt((k - 1.0) / k) * out[k - 2]
    return out


def hermite_combination(
    grid: PhaseSpaceGrid, coeffs: tuple[complex, ...], label: str
) -> SampledState:
    """Unit-norm state sum_k coeffs[k] * phi_k on the grid's position lattice."""
    basis = hermite_functions(len(coeffs) - 1, grid.x_points(), grid.hbar)
    vals = np.zeros(grid.n_points, dtype=complex)
    for k, c in enumerate(coeffs):
        vals += c * basis[k]
    vals /= trapezoid_norm(vals, grid)
    return SampledState(grid, vals, label)


def read_state_csv(path: str) -> tuple[np.ndarray, np.ndarray]:
    """Read a sampled state from CSV with header ``x,re,im``.

    Requires finite re and im, and finite, strictly increasing x with
    uniform spacing (relative tolerance 1e-9).  Returns (x, complex values).
    """
    xs: list[float] = []
    res: list[float] = []
    ims: list[float] = []
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header is None or [h.strip() for h in header] != ["x", "re", "im"]:
            raise ValueError(f"{path}: expected header 'x,re,im', got {header}")
        for lineno, row in enumerate(reader, start=2):
            if not row:
                continue
            if len(row) != 3:
                raise ValueError(f"{path}:{lineno}: expected 3 columns, got {len(row)}")
            try:
                xs.append(float(row[0]))
                res.append(float(row[1]))
                ims.append(float(row[2]))
            except ValueError as exc:
                raise ValueError(f"{path}:{lineno}: {exc}") from None
            if not (math.isfinite(res[-1]) and math.isfinite(ims[-1])):
                raise ValueError(f"{path}:{lineno}: re and im must be finite")
    if len(xs) < 2:
        raise ValueError(f"{path}: need at least 2 samples")
    x = np.asarray(xs)
    if not np.isfinite(x).all():
        raise ValueError(f"{path}: x must be finite")
    steps = np.diff(x)
    if np.any(steps <= 0):
        raise ValueError(f"{path}: x must be strictly increasing")
    dx = steps[0]
    if np.abs(steps - dx).max() > 1e-9 * abs(dx):
        raise ValueError(f"{path}: x spacing is not uniform")
    return x, np.asarray(res) + 1j * np.asarray(ims)


def write_state_csv(path: str, x: np.ndarray, values: np.ndarray) -> None:
    """State CSV: columns x,re,im, ``%.17g`` numbers, CRLF line ends."""
    x = np.asarray(x, dtype=float).tolist()
    values = np.asarray(values, dtype=complex).tolist()
    with open(path, "w", newline="") as fh:
        fh.write("x,re,im\r\n")
        fh.write(
            "".join([f"{xv:.17g},{v.real:.17g},{v.imag:.17g}\r\n" for xv, v in zip(x, values)])
        )


def _normalized(values: np.ndarray, grid: PhaseSpaceGrid, what: str) -> np.ndarray:
    nrm = trapezoid_norm(values, grid)
    if nrm == 0.0:
        raise ValueError(f"{what}: state has zero norm on this grid")
    return values / nrm


def catalog_state(spec: str, grid: PhaseSpaceGrid) -> SampledState:
    """Build a reference state from a descriptor string.

    Descriptors: ``hermite:k``, ``gaussian:sigma``, ``box:a:b`` and
    ``file:path`` (CSV with header x,re,im sampled on the same grid).
    Analytic states are renormalized to unit trapezoid norm on construction;
    file samples keep their raw normalization, and a file whose trapezoid
    norm is 0 or overflows is refused.
    """
    if not isinstance(spec, str) or not spec:
        raise ValueError(f"bad state descriptor {spec!r}")
    name, _, rest = spec.partition(":")
    x = grid.x_points()
    L = grid.half_width

    if name == "hermite":
        try:
            k = int(rest)
        except ValueError:
            raise ValueError(f"bad hermite order in {spec!r}") from None
        if k < 0:
            raise ValueError(f"hermite order must be >= 0, got {k}")
        vals = hermite_functions(k, x, grid.hbar)[k].astype(complex)
        raw = trapezoid_norm(vals, grid)
        if abs(raw - 1.0) > 1e-3:
            raise ValueError(
                f"grid too coarse or narrow for {spec}: norm deviates by {abs(raw - 1.0):.2e}"
            )
        return SampledState(grid, vals / raw, spec)

    if name == "gaussian":
        try:
            sigma = float(rest)
        except ValueError:
            raise ValueError(f"bad gaussian width in {spec!r}") from None
        # The lattice does not resolve a width below dx, and sigma**2 may underflow.
        if not grid.dx <= sigma < L / 4:
            raise ValueError(
                f"gaussian width {sigma} is outside [dx, L/4) = [{grid.dx:.3g}, {L / 4:.3g})"
            )
        vals = (math.pi * sigma**2) ** -0.25 * np.exp(-(x**2) / (2 * sigma**2))
        return SampledState(grid, _normalized(vals.astype(complex), grid, spec), spec)

    if name == "box":
        parts = rest.split(":")
        if len(parts) != 2:
            raise ValueError(f"box descriptor needs two endpoints, got {spec!r}")
        try:
            a, b = float(parts[0]), float(parts[1])
        except ValueError:
            raise ValueError(f"bad box endpoints in {spec!r}") from None
        if not a < b:
            raise ValueError(f"box endpoints must satisfy a < b, got {a}, {b}")
        if not (abs(a) < L and abs(b) < L):
            raise ValueError(f"box [{a}, {b}] exceeds grid support (-{L}, {L})")
        vals = np.where((x >= a) & (x <= b), 1.0 + 0.0j, 0.0j)
        if not np.any(vals):
            raise ValueError(f"box [{a}, {b}] contains no grid samples")
        return SampledState(grid, _normalized(vals, grid, spec), spec)

    if name == "file":
        path = rest
        if not path:
            raise ValueError("file descriptor needs a path")
        fx, fvals = read_state_csv(path)
        if fx.size != grid.n_points:
            raise ValueError(
                f"{path}: {fx.size} samples but grid has {grid.n_points} points"
            )
        if not np.abs(fx - x).max() <= 1e-9 * grid.dx:
            raise ValueError(f"{path}: sample positions do not match the grid")
        with np.errstate(over="ignore"):
            nrm = trapezoid_norm(fvals, grid)
        if not math.isfinite(nrm):
            raise ValueError(f"{path}: the state's norm overflows on this grid")
        if nrm == 0.0:
            raise ValueError(f"{path}: the state has zero norm on this grid")
        return SampledState(grid, fvals, spec)

    raise ValueError(f"unknown state descriptor {spec!r}")


@dataclass(frozen=True)
class PhaseSpaceField:
    """A function sampled on the phase-space lattice.

    values has shape (n, n/2): row j is x_j and column i is the momentum
    p_i = (i - n/4) * dp of the central alias-free half-lattice, the one
    period of the slice transform that Wigner-type fields live on.

    values is stored read-only.  An array that is already read-only and
    owns its data is taken over as it is; any other is copied, so a caller
    that keeps writing to its array does not change the field.
    """

    grid: PhaseSpaceGrid
    values: np.ndarray

    def __post_init__(self) -> None:
        vals = self.values
        if not (isinstance(vals, np.ndarray) and vals.flags.owndata and not vals.flags.writeable):
            vals = np.array(vals, copy=True)
        n = self.grid.n_points
        if vals.shape != (n, n // 2):
            raise ValueError(f"values shape {vals.shape} does not match ({n}, {n // 2})")
        vals.flags.writeable = False
        object.__setattr__(self, "values", vals)


def field_integral(field: PhaseSpaceField) -> complex:
    """Integral over phase space: trapezoid in x, uniform weights in p.

    The p axis covers exactly one period of the underlying slice transform,
    so the periodic rectangle rule is the natural quadrature there.
    """
    w = trapezoid_weights(field.grid.n_points)
    return complex(np.sum(w @ field.values) * field.grid.dx * field.grid.dp)
