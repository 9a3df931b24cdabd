import math
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wignerlab import grid as grid_module
from wignerlab.ensemble import Ensemble
from wignerlab.grid import (
    CheckError,
    SampledState,
    catalog_state,
    make_grid,
    state_norm,
    state_overlap,
    trapezoid_norm,
    trapezoid_weights,
)
from wignerlab.wigner import (
    _wigner_blocks,
    _wigner_kernel,
    apply_metaplectic,
    cross_wigner,
    mixed_wigner,
    overlap_identity_check,
    symplectic_matrix,
    wigner,
)

from conftest import compact_values


def reference_cross_wigner(psi_values, phi_values, grid):
    """The signed-offset gather cross_wigner used to run, kept as its oracle.

    Row j, FFT column c holds psi[j + m] * conj(phi[j - m]) for the signed
    offset m = c (c <= n/2) or c - n, and 0 where j +- m leaves [0, n).
    """
    n = grid.n_points
    m_idx = np.arange(n)[None, :]
    m = np.where(m_idx <= n // 2, m_idx, m_idx - n)
    j = np.arange(n)[:, None]
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


@st.composite
def random_state_pairs(draw):
    """A grid of n = 8 .. 256 points and two random complex states on it.

    psi may vanish exactly on a drawn stretch of the grid; phi never does.
    """
    n = 2 ** draw(st.integers(3, 8))
    grid = make_grid(n, draw(st.floats(1.0, 20.0)), draw(st.floats(0.5, 2.0)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    psi_values, phi_values = (rng.normal(size=n) + 1j * rng.normal(size=n) for _ in range(2))
    if draw(st.booleans()):
        start = draw(st.integers(0, n - 1))
        psi_values[start : draw(st.integers(start + 1, n))] = 0.0
    psi, phi = (
        SampledState(grid, values, "random")
        for values in (psi_values, phi_values)
    )
    return grid, psi, phi


@st.composite
def random_mixtures(draw):
    """An ensemble of R = 1 .. 6 random unit-norm complex states, n = 8 .. 256."""
    n = 2 ** draw(st.integers(3, 8))
    grid = make_grid(n, draw(st.floats(1.0, 20.0)), draw(st.floats(0.5, 2.0)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    size = draw(st.integers(1, 6))
    raw = np.array(draw(st.lists(st.floats(0.01, 1.0), min_size=size, max_size=size)))
    members = []
    for weight in raw / raw.sum():
        values = rng.normal(size=n) + 1j * rng.normal(size=n)
        values /= trapezoid_norm(values, grid)
        members.append((SampledState(grid, values, "random"), float(weight)))
    return grid, Ensemble(tuple(members), "random")


@st.composite
def compact_pair_sets(draw):
    """1 .. 3 weighted pairs of compact random states on n = 64 .. 512.

    Each state is 0 outside a drawn index interval, which may be empty and
    may touch either end of the grid, and some of its zeros are -0.  When
    every pair is a state with itself the pairs make a real mixture.
    """
    n = 2 ** draw(st.integers(6, 9))
    grid = make_grid(n, draw(st.floats(1.0, 20.0)), draw(st.floats(0.5, 2.0)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    pairs = []
    for _ in range(draw(st.integers(1, 3))):
        psi = SampledState(grid, compact_values(draw, rng, n, empty=True), "psi")
        phi = psi
        if draw(st.booleans()):
            phi = SampledState(grid, compact_values(draw, rng, n, empty=True), "phi")
        pairs.append((draw(st.floats(0.05, 1.0)), psi, phi))
    return pairs, all(psi is phi for _, psi, phi in pairs)


@st.composite
def compact_field_calls(draw):
    """A field call on compact complex states, n = 8 .. 256, and its pairs.

    The call is cross_wigner of two states, wigner of one, or mixed_wigner
    of two or three unit-norm states.  Each state is 0 outside a drawn
    index interval, and some of its zeros are -0.
    """
    n = 2 ** draw(st.integers(3, 8))
    grid = make_grid(n, draw(st.floats(1.0, 20.0)), draw(st.floats(0.5, 2.0)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))

    def state():
        values = compact_values(draw, rng, n)
        values /= trapezoid_norm(values, grid)
        return SampledState(grid, values, "compact")

    kind = draw(st.sampled_from(["cross_wigner", "wigner", "mixed_wigner"]))
    if kind == "cross_wigner":
        psi, phi = state(), state()
        return (lambda: cross_wigner(psi, phi, grid)), ((1.0, psi, phi),)
    if kind == "wigner":
        psi = state()
        return (lambda: wigner(psi)), ((1.0, psi, psi),)
    raw = np.array(draw(st.lists(st.floats(0.05, 1.0), min_size=2, max_size=3)))
    ensemble = Ensemble(tuple((state(), float(w)) for w in raw / raw.sum()), "compact")
    pairs = tuple((w, member, member) for member, w in ensemble.members)
    return (lambda: mixed_wigner(ensemble)), pairs


def row_blocks_of(block_rows):
    """Patch grid.ROW_BLOCK, the row count of every kernel block."""
    return mock.patch.object(grid_module, "ROW_BLOCK", block_rows)


def test_row_sums_reproduce_pointwise_overlap(g512):
    box = catalog_state("box:-0.5:0.5", g512)
    h1 = catalog_state("hermite:1", g512)
    result = cross_wigner(box, h1, g512)
    row_sums = result.values.sum(axis=1) * g512.dp
    np.testing.assert_allclose(
        row_sums, box.values * np.conj(h1.values), atol=5e-15
    )


def test_wigner_is_real_and_labels_carry_sources(g512):
    h1 = catalog_state("hermite:1", g512)
    result = wigner(h1)
    assert result.values.dtype == np.float64
    assert result.grid.hbar == 1.0
    assert result.values.tobytes() == cross_wigner(h1, h1, g512).values.real.tobytes()


def test_real_field_refuses_an_imaginary_part(g512):
    # Only a diagonal pair is real; a real field of a cross pair must be refused.
    h0 = catalog_state("hermite:0", g512)
    h1 = catalog_state("hermite:1", g512)
    with row_blocks_of(77), pytest.raises(CheckError, match="imaginary part"):
        _wigner_kernel(((1.0, h0, h1),), real=True)


def test_cross_wigner_hermiticity(g512):
    h0 = catalog_state("hermite:0", g512)
    box = catalog_state("box:-0.5:0.5", g512)
    forward = cross_wigner(h0, box, g512)
    swapped = cross_wigner(box, h0, g512)
    w01 = forward.values
    scale = np.abs(w01).max()
    assert np.abs(w01 - np.conj(swapped.values)).max() <= 1e-14 * scale


def test_row_blocks_are_bitwise_identical(g512):
    h1 = catalog_state("hermite:1", g512)
    box = catalog_state("box:-0.5:0.5", g512)
    with row_blocks_of(512):
        reference = cross_wigner(h1, box, g512).values
        diagonal = wigner(box).values
    for block in (1, 64, 137, 256):
        with row_blocks_of(block):
            np.testing.assert_array_equal(cross_wigner(h1, box, g512).values, reference)
            np.testing.assert_array_equal(wigner(box).values, diagonal)


@settings(max_examples=60, deadline=None)
@given(random_state_pairs(), st.data())
def test_windowed_kernel_matches_gather_bitwise(pair, data):
    grid, psi, phi = pair
    with row_blocks_of(data.draw(st.integers(1, grid.n_points))):
        field = cross_wigner(psi, phi, grid)
    expected = reference_cross_wigner(psi.values, phi.values, grid)
    np.testing.assert_array_equal(field.values, expected)
    if np.all(psi.values != 0):
        # Dense states match bit for bit.  Where psi vanishes on a stretch,
        # whole rows of exact zeros can differ from the gather in the sign
        # of zero, which assert_array_equal does not see.
        assert field.values.tobytes() == expected.tobytes()


@settings(max_examples=60, deadline=None)
@given(random_state_pairs())
def test_row_sums_are_pointwise_products(pair):
    # Summing every other FFT bin keeps (n/2) * (s[0] + s[n/2]), and the
    # m = n/2 product always has an index outside the grid, so the identity
    # holds for any pair of states, not only ones that vanish at the edges.
    grid, psi, phi = pair
    row_sums = cross_wigner(psi, phi, grid).values.sum(axis=1) * grid.dp
    products = psi.values * np.conj(phi.values)
    scale = np.abs(psi.values).max() * np.abs(phi.values).max()
    np.testing.assert_allclose(row_sums, products, rtol=0, atol=1e-12 * scale)


@settings(max_examples=60, deadline=None)
@given(random_state_pairs())
def test_field_integrates_to_the_overlap(pair):
    # Exact in exact arithmetic: the row sums are the pointwise products.
    # With the slices s_j and the row error (5 log2 n + 2) eps ||F s_j|| of
    # test_swapped_pair_is_the_conjugate_field: the n/2 kept bins of a row
    # add up to at most sqrt(n/2) times their l2 norm, and
    # sum_j ||s_j|| <= sqrt(n) a b (Cauchy-Schwarz over the rows).  With
    # c dx dp = 2 dx / n, the integral of |W| and of its rounding are then at
    # most S = sqrt(2 n) dx a b times 1 and (5 log2 n + 2) eps.  Adding the
    # n x n/2 values in any order costs at most n eps S more, and the
    # overlap's own n-term quadrature n eps dx a b <= n eps S.
    grid, psi, phi = pair
    n = grid.n_points
    eps = np.finfo(float).eps
    a, b = np.linalg.norm(psi.values), np.linalg.norm(phi.values)
    tol = (5 * math.log2(n) + 2 + 2 * n) * eps * math.sqrt(2 * n) * grid.dx * a * b
    assert overlap_identity_check(psi, phi, cross_wigner(psi, phi, grid)) <= tol


@settings(max_examples=60, deadline=None)
@given(random_state_pairs())
def test_swapped_pair_is_the_conjugate_field(pair):
    # W(phi, psi) = conj(W(psi, phi)) exactly.  Row j of W(psi, phi) is
    # c F(s_j) on the kept bins, c = dx / (pi hbar), with the slice
    # s_j[m] = psi[j + m] conj(phi[j - m]) (reference_cross_wigner, which the
    # kernel matches bit for bit).  Each pair of samples meets in one slice at
    # most, so ||s_j|| <= a b for the l2 norms a, b of the samples, and
    # ||F s_j|| = sqrt(n) ||s_j||.  A length-n FFT rounds within
    # 5 log2(n) eps ||F s_j|| (Higham, Accuracy and Stability of Numerical
    # Algorithms, Thm 24.2, twiddles included), the products and c within
    # 2 eps more.  An entry's error is at most its row's l2 error, and two
    # fields are compared.
    grid, psi, phi = pair
    eps = np.finfo(float).eps
    a, b = np.linalg.norm(psi.values), np.linalg.norm(phi.values)
    row = (5 * math.log2(grid.n_points) + 2) * eps * math.sqrt(grid.n_points) * a * b
    tol = 2 * row * grid.dx / (math.pi * grid.hbar)
    swapped = cross_wigner(phi, psi, grid).values
    assert np.abs(swapped - np.conj(cross_wigner(psi, phi, grid).values)).max() <= tol


@settings(max_examples=60, deadline=None)
@given(random_mixtures())
def test_mixture_is_weighted_sum_of_member_fields(mixture):
    grid, ens = mixture
    fields = [(weight, wigner(state).values) for state, weight in ens.members]
    expected = sum(weight * values for weight, values in fields)
    scale = sum(weight * np.abs(values).max() for weight, values in fields)
    field = mixed_wigner(ens)
    assert field.values.dtype == np.float64
    np.testing.assert_allclose(field.values, expected, rtol=0, atol=1e-13 * scale)


@settings(max_examples=30, deadline=None)
@given(random_mixtures())
def test_one_member_mixture_is_the_wigner_field(mixture):
    grid, ens = mixture
    state = ens.members[0][0]
    single = mixed_wigner(Ensemble(((state, 1.0),), "single"))
    assert single.values.tobytes() == wigner(state).values.tobytes()


@settings(max_examples=40, deadline=None)
@given(random_mixtures(), st.data())
def test_mixed_row_blocks_are_bitwise_identical(mixture, data):
    grid, ens = mixture
    with row_blocks_of(data.draw(st.integers(1, grid.n_points))):
        blocked = mixed_wigner(ens)
    assert blocked.values.tobytes() == mixed_wigner(ens).values.tobytes()


def test_momentum_marginal_is_nonnegative(g512):
    h1 = catalog_state("hermite:1", g512)
    field = wigner(h1)
    w = trapezoid_weights(g512.n_points)[:, None]
    p_marginal = (w * field.values).sum(axis=0) * g512.dx
    assert p_marginal.min() >= -1e-15


def test_overlap_identity_check(g512):
    h0 = catalog_state("hermite:0", g512)
    h1 = catalog_state("hermite:1", g512)
    assert overlap_identity_check(h0, h1, cross_wigner(h0, h1, g512)) <= 1e-12


def test_fourier_eigenstates(sr1024):
    for k in range(4):
        hk = catalog_state(f"hermite:{k}", sr1024)
        fhk = apply_metaplectic(hk, "fourier")
        np.testing.assert_allclose(
            fhk.values, (-1j) ** k * hk.values, atol=1e-12
        )
    assert fhk.label == "fourier(hermite:3)"


def test_fourier_twice_is_parity(sr1024):
    h3 = catalog_state("hermite:3", sr1024)
    twice = apply_metaplectic(apply_metaplectic(h3, "fourier"), "fourier")
    np.testing.assert_allclose(
        twice.values[1:], h3.values[1:][::-1], atol=1e-12
    )


def test_fourier_requires_matched_spacings(g512):
    h0 = catalog_state("hermite:0", g512)
    with pytest.raises(ValueError, match="self-reciprocal"):
        apply_metaplectic(h0, "fourier")


def test_scale_preserves_norm_and_inverts(g512):
    h0 = catalog_state("hermite:0", g512)
    same = apply_metaplectic(h0, "scale:1")
    np.testing.assert_allclose(same.values, h0.values, atol=1e-12)
    scaled = apply_metaplectic(h0, "scale:2")
    assert state_norm(scaled) == pytest.approx(1.0, abs=1e-10)
    x = g512.x_points()
    expected = 2.0**-0.5 * np.pi**-0.25 * np.exp(-(x**2) / 8.0)
    np.testing.assert_allclose(scaled.values.real, expected, atol=1e-10)
    back = apply_metaplectic(scaled, "scale:0.5")
    # The widened intermediate carries exp(-L**2 / 8) ~ 4e-6 tails at the
    # grid edge, and those wrap under trigonometric interpolation.
    np.testing.assert_allclose(back.values, h0.values, atol=1e-5)


def test_metaplectic_refuses_results_that_lose_the_norm(g512, sr1024):
    h0 = catalog_state("hermite:0", g512)
    with pytest.raises(ValueError, match=r"scale:100 does not keep the norm of hermite:0"):
        apply_metaplectic(h0, "scale:100")
    # Finite samples whose norm overflows: both norms are inf, and their gap NaN.
    for grid, op in ((g512, "scale:1.1"), (sr1024, "fourier")):
        big = SampledState(grid, 1e200 * catalog_state("hermite:0", grid).values, "big")
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(ValueError, match=rf"{op} does not keep the norm of big"):
                apply_metaplectic(big, op)


def test_scale_minus_one_is_parity(g512):
    h3 = catalog_state("hermite:3", g512)
    flipped = apply_metaplectic(h3, "scale:-1")
    np.testing.assert_allclose(
        flipped.values[1:], h3.values[1:][::-1], atol=1e-12
    )


def test_metaplectic_rejects_bad_descriptors(g512):
    # Both entry points share one parser, so they reject the same strings.
    h0 = catalog_state("hermite:0", g512)
    for bad, match in (
        ("scale:0", "scale factor must be finite and nonzero"),
        ("rotate:1", "unknown metaplectic descriptor"),
        ("scale:x", "bad scale factor in 'scale:x'"),
        ("fourier:2", "fourier takes no parameter"),
        ("fourier:3", "fourier takes no parameter"),
        ("scale:abc", "bad scale factor in 'scale:abc'"),
        ("scale:1_3", "bad scale factor in 'scale:1_3'"),
        ("scale: 2", "bad scale factor in 'scale: 2'"),
        ("scale:nan", "scale factor must be finite and nonzero"),
        ("scale:inf", "scale factor must be finite and nonzero"),
        ("scale:1e-320", "scale factor must be finite and nonzero"),
        ("shear:1", "unknown metaplectic descriptor"),
    ):
        with pytest.raises(ValueError, match=match):
            apply_metaplectic(h0, bad)
        with pytest.raises(ValueError, match=match):
            symplectic_matrix(bad)


def test_symplectic_matrices():
    np.testing.assert_allclose(
        symplectic_matrix("fourier"), np.array([[0.0, 1.0], [-1.0, 0.0]])
    )
    np.testing.assert_allclose(
        symplectic_matrix("scale:2"), np.diag([2.0, 0.5])
    )
    with pytest.raises(ValueError):
        symplectic_matrix("shear:1")


def test_fourier_remaps_wigner_indices(sr1024):
    # For dx == dp the transformed field is an exact index permutation of
    # the original: value at (x_j, p_i) moves to (-p_i, x_j).  The state
    # must decay inside the grid in both domains; slow 1/x transform tails
    # wrap at the edges and break the permutation at the 1e-2 level.
    gauss = catalog_state("gaussian:2", sr1024)
    base = wigner(gauss).values
    rotated = wigner(apply_metaplectic(gauss, "fourier")).values
    n = sr1024.n_points
    rows = np.arange(n // 4, 3 * n // 4)
    cols = np.arange(n // 2)
    expected = base[3 * n // 4 - cols[None, :], rows[:, None] - n // 4]
    scale = np.abs(base).max()
    assert np.abs(rotated[rows] - expected).max() <= 1e-12 * scale


def test_cross_wigner_grid_mismatch(g512):
    h0 = catalog_state("hermite:0", g512)
    other = make_grid(512, 9.0)
    h1 = catalog_state("hermite:1", other)
    with pytest.raises(ValueError):
        cross_wigner(h0, h1, g512)


def test_state_on_another_hbar_is_refused(g512):
    # The grid carries hbar: a state built at hbar = 2 on the same n and L
    # lies off the hbar = 1 grid, so a pair of the two has no one grid.
    h0 = catalog_state("hermite:0", g512)
    other = catalog_state("hermite:0", make_grid(512, 10.0, 2.0))
    for psi, phi in ((other, h0), (h0, other)):
        with pytest.raises(ValueError, match="not sampled on one grid"):
            cross_wigner(psi, phi, psi.grid)
        with pytest.raises(ValueError, match="not sampled on this grid"):
            cross_wigner(psi, phi, phi.grid)
    with pytest.raises(ValueError, match="share one grid and hbar"):
        Ensemble(((h0, 0.5), (other, 0.5)), "two hbars")


def test_overlap_integral_over_field(g512):
    h0 = catalog_state("hermite:0", g512)
    h2 = catalog_state("hermite:2", g512)
    field = cross_wigner(h0, h2, g512)
    w = trapezoid_weights(g512.n_points)[:, None]
    integral = complex((w * field.values).sum() * g512.dx * g512.dp)
    assert abs(integral - state_overlap(h0, h2)) <= 1e-12


def test_wigner_peak_value(g512):
    # A unit Gaussian peaks at 1/pi at the origin of phase space.
    h0 = catalog_state("hermite:0", g512)
    field = wigner(h0)
    assert field.values.max() == pytest.approx(1.0 / math.pi, abs=1e-10)
    j0 = g512.n_points // 2
    i0 = g512.n_points // 4
    assert field.values[j0, i0] == field.values.max()


def test_cross_wigner_hands_its_buffer_to_the_field(sr2048):
    # The field takes over the kernel's output instead of copying it, so the
    # transform holds the field plus one block of slices and one of values,
    # not the field twice.
    box = catalog_state("box:-0.5:0.5", sr2048)
    h0 = catalog_state("hermite:0", sr2048)
    tracemalloc.start()
    try:
        field = cross_wigner(box, h0, sr2048)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1.5 * field.values.nbytes
    assert not field.values.flags.writeable


@settings(max_examples=60, deadline=None)
@given(compact_pair_sets(), st.sampled_from([1, 2, 3, 32]))
def test_streamed_blocks_skip_only_rows_outside_the_support(case, block_rows):
    # Row j sums psi(x_(j+m)) * conj(phi(x_(j-m))) over m, so it can be
    # nonzero only where some k + l = 2j has psi_k != 0 and phi_l != 0.
    # Blocks of one row put every support edge on a block edge.
    pairs, real = case
    n = pairs[0][1].grid.n_points
    live = np.zeros(n, dtype=bool)
    for _, psi, phi in pairs:
        reach = np.convolve(psi.values != 0, phi.values != 0)
        live |= reach[::2] > 0
    field = _wigner_kernel(pairs, real).values
    assert np.all(field[~live] == 0)
    with row_blocks_of(block_rows), mock.patch.object(np.fft, "fft", wraps=np.fft.fft) as fft:
        streamed = [(rows, values.copy()) for rows, values in _wigner_blocks(pairs, real)]
    transformed = 0
    for rows, values in streamed:
        if live[rows].any():
            # A block that meets a pair's support rows is the field's, byte
            # for byte, -0 included.
            transformed += 1
            assert values.tobytes() == field[rows].tobytes()
        else:
            # A block outside every pair's support rows is +0, with no FFT.
            assert values.tobytes() == bytes(values.nbytes)
    assert fft.call_count == transformed


@settings(max_examples=60, deadline=None)
@given(compact_field_calls(), st.sampled_from([1, 2, 3, 32]))
def test_built_fields_are_plus_zero_outside_the_support_rows(case, block_rows):
    # Every row that meets no pair's support rows is +0 in a built field,
    # whatever the signs of the zero samples and the row blocking.
    call, pairs = case
    n = pairs[0][1].grid.n_points
    live = np.zeros(n, dtype=bool)
    for _, psi, phi in pairs:
        live |= np.convolve(psi.values != 0, phi.values != 0)[::2] > 0
    with row_blocks_of(block_rows):
        outside = call().values[~live]
    assert outside.tobytes() == bytes(outside.nbytes)
