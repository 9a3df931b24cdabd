import math
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from wignerlab.ensemble import Ensemble
from wignerlab.grid import (
    ROW_BLOCK,
    CheckError,
    PhaseSpaceField,
    SampledState,
    _row_blocks,
    catalog_state,
    make_grid,
    trapezoid_norm,
    trapezoid_weights,
)
from wignerlab.modspace import (
    DivergingStateError,
    _fit_verdict,
    _ladder,
    cutoff_ladder,
    diagnostic_grid_warning,
    feichtinger_diagnostic,
    modulation_norm,
)
from wignerlab.wigner import _wigner_blocks, apply_metaplectic, cross_wigner, mixed_wigner, wigner

from conftest import compact_values


def field_ladder(field, s, cutoffs):
    """The ladder of a built field: _ladder over the field's own row blocks."""
    blocks = ((rows, field.values[rows]) for rows in _row_blocks(field.grid.n_points))
    return _ladder(blocks, field.grid, s, cutoffs)


def test_weighted_norm_analytic_values(g51):
    h0 = catalog_state("hermite:0", g51)
    field = wigner(h0)
    top = cutoff_ladder(field.grid)[-1]
    # The ground-state field is a unit-mass Gaussian, so the full s=0 mass
    # is 1 and the s=2 weight adds its second moment: 1 + <x^2 + p^2> = 2.
    assert field_ladder(field, 0.0, (top,))[0] == pytest.approx(1.0, abs=1e-6)
    assert field_ladder(field, 2.0, (top,))[0] == pytest.approx(2.0, abs=1e-5)


def test_weighted_norm_first_excited_value(sr1024):
    h1 = catalog_state("hermite:1", sr1024)
    field = wigner(h1)
    top = cutoff_ladder(field.grid)[-1]
    value = field_ladder(field, 0.0, (top,))[0]
    assert value == pytest.approx(4.0 * math.exp(-0.5) - 1.0, abs=5e-4)


def test_overflowing_weight_is_refused_not_inconclusive():
    # (1 + x^2 + p^2)^350 overflows at the lattice corner; the ladder used to
    # come back NaN and read as "inconclusive".
    grid = make_grid(64, 8.0)
    h0 = catalog_state("hermite:0", grid)
    with pytest.raises(ValueError, match="s = 700"):
        modulation_norm(h0, 700)


@pytest.mark.parametrize("s", [320, 400])
def test_weight_overflowing_outside_the_top_disc_is_refused(s):
    # The top rung's disc has radius pi here and its columns |p| <= pi.  At
    # s = 400 the weight overflows outside the disc only; at s = 320 it
    # overflows only outside the columns, where no rung builds a product.
    grid = make_grid(64, 8.0)
    field = wigner(catalog_state("hermite:0", grid))
    with pytest.raises(ValueError, match=f"s = {s}"):
        field_ladder(field, s, cutoff_ladder(field.grid))


@pytest.mark.parametrize(
    "row, col", [(128, 0), (2, 64)], ids=["outside-the-band", "outside-every-disc"]
)
def test_nan_outside_every_disc_is_refused(row, col):
    # The top rung's disc has radius pi/2 here and its columns |p| <= pi/2.
    # Column 0 (p = -pi) lies outside those columns; row 2 (x = -63) at column
    # 64 (p = 0) lies inside them, in a row block wholly outside every disc.
    grid = make_grid(256, 64.0)
    values = wigner(catalog_state("hermite:0", grid)).values.copy()
    values[row, col] = np.nan
    with pytest.raises(ValueError, match="s = 0"):
        field_ladder(PhaseSpaceField(grid, values), 0.0, cutoff_ladder(grid))


def test_weight_overflowing_outside_the_support_rows_is_refused():
    # box:-2:2 fills rows |x| <= 2, where (1 + x^2 + p^2)^100 stays below
    # 1e88; it overflows from |x| = 35 on.  The kernel yields those rows as
    # +0 with no transform, and the ladder still weighs them: 0 * inf is NaN.
    grid = make_grid(2048, 1024.0)
    box = catalog_state("box:-2:2", grid)
    blocks = _wigner_blocks(((1.0, box, box),), real=True)
    with pytest.raises(ValueError, match="s = 200"):
        _ladder(blocks, grid, 200, cutoff_ladder(grid))


def test_streamed_verdicts_transform_only_blocks_meeting_the_support():
    # box:-1:0.5 fills 227 of 2048 rows on the verdicts grid.  Its self
    # ladder transforms only the row blocks meeting them; wigner, which
    # returns the field, transforms all 128.
    grid = make_grid(2048, 1024.0 / 151.0)
    box = catalog_state("box:-1:0.5", grid)
    support = np.flatnonzero(box.values)
    blocks = _row_blocks(grid.n_points)
    meeting = [r for r in blocks if r.start <= support[-1] and support[0] < r.stop]
    assert len(blocks) == 128 and len(meeting) < 20
    with mock.patch.object(np.fft, "fft", wraps=np.fft.fft) as fft:
        feichtinger_diagnostic(box)
        assert fft.call_count == len(meeting)
        fft.reset_mock()
        wigner(box)
        assert fft.call_count == len(blocks)


def test_ladder_peak_memory_is_two_float_buffers(sr2048):
    box = catalog_state("box:-0.5:0.5", sr2048)
    h0 = catalog_state("hermite:0", sr2048)
    field = cross_wigner(box, h0, sr2048)
    tracemalloc.start()
    try:
        field_ladder(field, 2.0, cutoff_ladder(field.grid))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # The ladder holds |W| and one scratch buffer for one row block (16 rows
    # of n/2 float64 at n = 2048), the band's x^2 + p^2 and mask for one
    # block (at most 9 bytes a value), and the x^2, p^2 and band axes.  On
    # top of that numpy allocates about 193 KiB of ufunc iterator buffers
    # for the strided band products.  The peak is near 0.58 MB.
    n = sr2048.n_points
    values = _row_blocks(n)[0].stop * n // 2
    assert peak <= 2 * 8 * values + 9 * values + 200 * 1024 + 16 * n


@settings(max_examples=40, deadline=None)
@given(
    st.integers(3, 8),
    st.floats(1.0, 20.0),
    st.integers(0, 2**32 - 1),
    st.floats(0.0, 6.0),
    st.floats(0.0, 1.0),
)
def test_ladder_matches_per_rung_formula(log2n, half_width, seed, s_drawn, frac):
    # One call over the whole ladder must give, bit for bit, the per-rung
    # quadrature ((|W| * weight) * wx) * disc mask.
    n = 2**log2n
    grid = make_grid(n, half_width)
    rng = np.random.default_rng(seed)
    values = rng.normal(size=(n, n // 2)) + 1j * rng.normal(size=(n, n // 2))
    field = PhaseSpaceField(grid, values)
    cuts = cutoff_ladder(field.grid) + (frac * -float(field.grid.wigner_p_points()[0]),)
    x = field.grid.x_points()[:, None]
    p = field.grid.wigner_p_points()[None, :]
    wx = trapezoid_weights(n)[:, None]
    for s in (0.0, 2.0, s_drawn):
        weight = (1.0 + x**2 + p**2) ** (0.5 * s)
        expected = tuple(
            float(np.sum(np.abs(values) * weight * wx * ((x**2 + p**2) <= c**2)) * grid.dx * grid.dp)
            for c in cuts
        )
        assert field_ladder(field, s, cuts) == expected


@st.composite
def verdict_cases(draw):
    """A unit-norm random state on n = 8 .. 512 and the window its ladder reads.

    The window is "self" (feichtinger_diagnostic, s = 0), the default
    hermite:0 or a random state (modulation_norm at a drawn s).  The state
    is dense or compact_values, the random window compact_values: both may
    vanish on index runs that touch either end of the grid, with -0 samples.
    """
    n = 2 ** draw(st.integers(3, 9))
    grid = make_grid(n, draw(st.floats(1.0, 20.0)), draw(st.floats(0.5, 2.0)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    values = rng.normal(size=n) + 1j * rng.normal(size=n)
    if draw(st.booleans()):
        # Whole row blocks then lie outside the field's support rows.
        values = compact_values(draw, rng, n)
    psi = SampledState(grid, values / trapezoid_norm(values, grid), "random")
    kind = draw(st.sampled_from(["self", "hermite:0", "random"]))
    if kind == "hermite:0":
        try:
            window = catalog_state(kind, grid)
        except ValueError:
            assume(False)
    elif kind == "random":
        window = SampledState(grid, compact_values(draw, rng, n), "w")
    else:
        window = None
    return grid, psi, window, draw(st.floats(0.0, 6.0))


@settings(max_examples=60, deadline=None)
@given(verdict_cases())
def test_streamed_verdicts_match_the_field_ladder(case):
    # The verdict routes read the kernel's row blocks without building a
    # field; their ladder must be, bit for bit, the ladder of the field.
    grid, psi, window, s = case
    if window is None:
        s = 0.0
        report = feichtinger_diagnostic(psi)
        field = wigner(psi)
    else:
        report = modulation_norm(psi, s, window=window)
        field = cross_wigner(psi, window, grid)
    cuts = cutoff_ladder(grid)
    partials = tuple(zip(cuts, field_ladder(field, s, cuts)))
    verdict, growth = _fit_verdict(partials, 1e-3, 0.5)
    assert report.partials == partials
    assert report.growth_exponent == growth
    assert report.verdict == verdict


MIXTURE_GRID = make_grid(256, 8.0)
CATALOG = st.one_of(
    st.integers(0, 6).map(lambda k: f"hermite:{k}"),
    st.sampled_from(["0.3", "0.7", "1.5"]).map(lambda w: f"gaussian:{w}"),
    st.tuples(st.integers(-8, 4), st.integers(1, 8)).map(
        lambda ab: f"box:{ab[0] / 4}:{(ab[0] + ab[1]) / 4}"
    ),
)


@settings(max_examples=30, deadline=None)
@given(st.lists(st.tuples(CATALOG, st.floats(0.05, 1.0)), min_size=1, max_size=3))
def test_mixture_rungs_obey_the_triangle_inequality(drawn):
    # |W_rho| <= sum_k w_k |W_k| at every point, so each rung of the mixed
    # field's ladder is at most the weighted sum of its members' rungs.  The
    # field's blocks give the kernel's bits, so marginals, which reads the
    # built field, has the verdict of the streamed mixture.
    total = sum(w for _, w in drawn)
    members = tuple((catalog_state(d, MIXTURE_GRID), w / total) for d, w in drawn)
    pairs = tuple((w, state, state) for state, w in members)
    field = mixed_wigner(Ensemble(members, "drawn"))
    cuts = cutoff_ladder(MIXTURE_GRID)
    for s in (0.0, 2.0):
        rho = field_ladder(field, s, cuts)
        assert rho == _ladder(_wigner_blocks(pairs, real=True), MIXTURE_GRID, s, cuts)
        bound = sum(w * np.array(field_ladder(wigner(state), s, cuts)) for state, w in members)
        assert np.all(np.array(rho) <= (1.0 + 1e-12) * bound)


def test_verdicts_build_no_field(sr2048):
    # One n x n/2 float field is 16.8 MB at n = 2048; the verdict routes
    # hold a few row blocks of it at a time.
    box = catalog_state("box:-0.5:0.5", sr2048)
    quarter_field = 0.25 * 8 * sr2048.n_points * (sr2048.n_points // 2)
    for verdict in (
        lambda: feichtinger_diagnostic(box),
        lambda: modulation_norm(box, 2.0),
    ):
        tracemalloc.start()
        try:
            verdict()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < quarter_field


def test_verdict_memory_is_capped_on_large_grids():
    # A block of slices holds at most ROW_BLOCK * 1024 complex values, 512 KiB,
    # whatever n.  At n = 4096 the verdict holds it, the FFT's scratch of the
    # same size, a few quarter-size real buffers and the two padded windows:
    # 1.7 MiB, against 4.2 MiB with 32-row blocks.
    grid = make_grid(4096, 16.0)
    box = catalog_state("box:-1:1", grid)
    slice_block = 16 * ROW_BLOCK * 1024
    tracemalloc.start()
    try:
        feichtinger_diagnostic(box)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4 * slice_block


def test_cutoff_ladder_geometry(g512):
    h0 = catalog_state("hermite:0", g512)
    field = wigner(h0)
    ladder = cutoff_ladder(field.grid)
    band = -float(field.grid.wigner_p_points()[0])
    assert ladder[-1] == pytest.approx(band / 2.0)
    for lo, hi in zip(ladder, ladder[1:]):
        assert hi == pytest.approx(2.0 * lo)


def test_smooth_state_verdicts(g1024):
    h0 = catalog_state("hermite:0", g1024)
    report = feichtinger_diagnostic(h0)
    assert report.verdict == "convergent"
    assert abs(report.growth_exponent) < 0.05
    assert report.s == 0.0
    gauss = catalog_state("gaussian:1.5", g1024)
    assert feichtinger_diagnostic(gauss).verdict == "convergent"


def test_box_state_diverges_with_unit_growth(g1024):
    box = catalog_state("box:-0.5:0.5", g1024)
    report = feichtinger_diagnostic(box)
    assert report.verdict == "diverging"
    assert 0.8 <= report.growth_exponent <= 1.2
    values = [v for _, v in report.partials]
    increments = np.diff(values) / math.log(2.0)
    # Each octave adds 4/pi^2 * ln 2: both halves of the reflected overlap
    # slice sin(2*p*(1/2 - |x|))/(pi*p) deposit 2/pi^2 per octave.
    c = float(increments.mean())
    assert abs(c - 4.0 / math.pi**2) <= 0.1 * (4.0 / math.pi**2)


def test_ladder_saturation_reads_as_convergent(sr1024):
    # A widened smooth state fills the lower rungs late; the tail-rung fit
    # must not mistake that transient for divergent growth.
    h1 = catalog_state("hermite:1", sr1024)
    wide = apply_metaplectic(h1, "scale:2")
    report = feichtinger_diagnostic(wide)
    assert report.verdict in ("convergent", "inconclusive")
    assert report.growth_exponent < 0.5


def test_window_choice_does_not_change_verdicts(g51):
    for spec in ("hermite:0", "hermite:1", "box:-0.5:0.5"):
        psi = catalog_state(spec, g51)
        r0 = modulation_norm(psi, 0.0, window="hermite:0")
        r1 = modulation_norm(psi, 0.0, window="hermite:1")
        assert r0.verdict == r1.verdict
        assert r0.window == "hermite:0"
        assert r1.window == "hermite:1"


def test_verdicts_invariant_under_fourier(sr1024, sr2048):
    for spec in ("hermite:0", "hermite:1"):
        psi = catalog_state(spec, sr1024)
        base = feichtinger_diagnostic(psi)
        moved = feichtinger_diagnostic(apply_metaplectic(psi, "fourier"))
        assert moved.verdict == base.verdict == "convergent"
    box = catalog_state("box:-0.5:0.5", sr2048)
    base = feichtinger_diagnostic(box)
    moved = feichtinger_diagnostic(apply_metaplectic(box, "fourier"))
    assert moved.verdict == base.verdict == "diverging"


def test_verdicts_invariant_under_scaling(sr2048):
    h1 = catalog_state("hermite:1", sr2048)
    base = feichtinger_diagnostic(h1)
    moved = feichtinger_diagnostic(apply_metaplectic(h1, "scale:2"))
    assert moved.verdict == base.verdict == "convergent"
    g101 = make_grid(2048, 1024.0 / 101.0, 1.0)
    box = catalog_state("box:-0.5:0.5", g101)
    base = feichtinger_diagnostic(box)
    moved = feichtinger_diagnostic(apply_metaplectic(box, "scale:2"))
    assert moved.verdict == base.verdict == "diverging"


def test_weighted_ladder_grows_fast_for_box_at_s2(g51):
    box = catalog_state("box:-0.5:0.5", g51)
    report = modulation_norm(box, 2.0)
    assert report.verdict == "diverging"
    assert report.growth_exponent > 2.0


def test_diagnostic_requires_unit_norm(g512):
    h0 = catalog_state("hermite:0", g512)
    dim = SampledState(g512, 0.9 * h0.values, "dim")
    with pytest.raises(ValueError, match="unit-norm"):
        feichtinger_diagnostic(dim)


def test_modulation_norm_validates_arguments(g512):
    h0 = catalog_state("hermite:0", g512)
    with pytest.raises(ValueError):
        modulation_norm(h0, -2.0)
    with pytest.raises(ValueError):
        modulation_norm(h0, 0.0, window="nope:1")
    window = catalog_state("hermite:0", make_grid(512, 9.0))
    with pytest.raises(ValueError, match="not sampled on one grid"):
        modulation_norm(h0, 0.0, window=window)


def test_grid_adequacy_warning(g1024):
    box = catalog_state("box:-0.5:0.5", g1024)
    message = diagnostic_grid_warning(box)
    assert message is not None and "band" in message
    h0 = catalog_state("hermite:0", g1024)
    assert diagnostic_grid_warning(h0) is None
    wide = make_grid(4096, 2048.0 / 151.0, 1.0)
    box_wide = catalog_state("box:-0.5:0.5", wide)
    assert diagnostic_grid_warning(box_wide) is None


def test_diverging_error_is_check_error():
    assert issubclass(DivergingStateError, CheckError)
