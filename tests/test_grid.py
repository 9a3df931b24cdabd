import math
import re

import numpy as np
import pytest

from wignerlab.grid import (
    ROW_BLOCK,
    CheckError,
    PhaseSpaceField,
    PhaseSpaceGrid,
    SampledState,
    _row_blocks,
    catalog_state,
    hermite_functions,
    make_grid,
    make_self_reciprocal_grid,
    read_state_csv,
    state_norm,
    state_overlap,
    trapezoid_weights,
)
from wignerlab.io import write_state_csv


def test_grid_rejects_bad_sizes():
    for make in (PhaseSpaceGrid, make_grid):
        with pytest.raises(ValueError):
            make(100, 10.0, 1.0)
        with pytest.raises(ValueError):
            make(4, 10.0, 1.0)
        with pytest.raises(ValueError):
            make(512, -1.0, 1.0)


def test_grid_spacings():
    g = make_grid(512, 10.0, 1.0)
    assert g.dx == pytest.approx(20.0 / 512)
    assert g.dp == pytest.approx(2.0 * math.pi / (512 * g.dx))
    x = g.x_points()
    assert x[256] == 0.0
    assert x[0] == -10.0
    half = g.wigner_p_points()
    assert half.shape == (256,)
    assert half[128] == 0.0
    assert half[1] - half[0] == pytest.approx(g.dp)


def test_self_reciprocal_grid():
    g = make_self_reciprocal_grid(1024, 1.0)
    assert g.is_self_reciprocal
    assert g.dx == pytest.approx(g.dp, rel=1e-14)
    assert not make_grid(1024, 12.0).is_self_reciprocal


def test_hbar_scales_dp():
    g1 = make_grid(512, 10.0, 1.0)
    g2 = make_grid(512, 10.0, 2.0)
    assert g2.dp == pytest.approx(2.0 * g1.dp)
    with pytest.raises(ValueError):
        make_grid(512, 10.0, 0.0)


def test_trapezoid_weights():
    w = trapezoid_weights(8)
    assert w[0] == 0.5 and w[-1] == 0.5
    assert np.all(w[1:-1] == 1.0)


def test_row_blocks_are_capped_power_of_two_tiles():
    # The block sums of docs/conventions.md need one power-of-two row count
    # and either one block or at least 128 field values (n/2 per row) in each.
    # A block of slices (rows x n) holds at most ROW_BLOCK * 1024 values.
    for n in (2**k for k in range(3, 17)):
        blocks = _row_blocks(n)
        rows = blocks[0].stop
        assert rows & (rows - 1) == 0
        assert blocks == [slice(start, start + rows) for start in range(0, n, rows)]
        assert len(blocks) == 1 or rows * (n // 2) >= 128
        assert rows == 1 or rows * n <= ROW_BLOCK * 1024
        assert rows in (n, ROW_BLOCK) or 2 * rows * n > ROW_BLOCK * 1024


def test_hermite_functions_orthonormal(g512):
    x = g512.x_points()
    basis = hermite_functions(6, x, 1.0)
    w = trapezoid_weights(x.size)
    gram = (basis * w) @ basis.T * g512.dx
    np.testing.assert_allclose(gram, np.eye(7), atol=1e-10)


def test_hermite_functions_match_closed_forms(g512):
    x = g512.x_points()
    basis = hermite_functions(1, x, 1.0)
    h0 = np.pi ** (-0.25) * np.exp(-0.5 * x**2)
    h1 = np.pi ** (-0.25) * math.sqrt(2.0) * x * np.exp(-0.5 * x**2)
    np.testing.assert_allclose(basis[0], h0, atol=1e-14)
    np.testing.assert_allclose(basis[1], h1, atol=1e-14)


def test_catalog_hermite_and_gaussian(g512):
    h2 = catalog_state("hermite:2", g512)
    assert state_norm(h2) == pytest.approx(1.0, abs=1e-12)
    assert h2.label == "hermite:2"
    gauss = catalog_state("gaussian:1.5", g512)
    assert state_norm(gauss) == pytest.approx(1.0, abs=1e-12)
    x = g512.x_points()
    expected = (math.pi * 1.5**2) ** (-0.25) * np.exp(-(x**2) / (2.0 * 1.5**2))
    np.testing.assert_allclose(gauss.values.real, expected, atol=1e-12)


def test_catalog_box_closed_interval(g512):
    box = catalog_state("box:-0.5:0.5", g512)
    x = g512.x_points()
    inside = (x >= -0.5) & (x <= 0.5)
    assert np.ptp(box.values.real[inside]) == 0.0
    assert np.all(box.values[~inside] == 0.0)
    assert state_norm(box) == pytest.approx(1.0, abs=1e-12)


def test_catalog_rejects_bad_descriptors(tmp_path, g512):
    short = tmp_path / "short.csv"
    coarse = make_grid(256, 10.0)
    write_state_csv(str(short), coarse.x_points(), catalog_state("hermite:0", coarse).values)
    for bad, match in (
        ("hermite:-1", "hermite order must be >= 0, got -1"),
        ("hermite:x", "bad hermite order in 'hermite:x'"),
        ("hermite:1:2", "bad hermite order in 'hermite:1:2'"),
        ("gaussian:0", r"gaussian width 0.0 is outside \[dx, L/4\)"),
        ("gaussian:9", r"gaussian width 9.0 is outside \[dx, L/4\)"),
        ("gaussian:wide", "bad gaussian width in 'gaussian:wide'"),
        ("box:1:0", "box endpoints must satisfy a < b, got 1.0, 0.0"),
        ("box:-20:20", r"box \[-20.0, 20.0\] exceeds grid support"),
        ("box:0.5", "bad box endpoints in 'box:0.5'"),
        ("box:a:b", "bad box endpoints in 'box:a:b'"),
        ("box:-1:0:1", "bad box endpoints in 'box:-1:0:1'"),
        ("box:0.001:0.002", r"box \[0.001, 0.002\] contains no grid samples"),
        # int and float read each as a number; the state's label keeps the text.
        ("hermite:1_0", "bad hermite order in 'hermite:1_0'"),
        ("hermite: 3", "bad hermite order in 'hermite: 3'"),
        ("hermite:3\n", r"bad hermite order in 'hermite:3\\n'"),
        ("hermite:\u0663", "bad hermite order in 'hermite:\u0663'"),
        ("box:-1: 0.5", "bad box endpoints in 'box:-1: 0.5'"),
        ("gaussian:0_7", "bad gaussian width in 'gaussian:0_7'"),
        ("file:", "file descriptor needs a path"),
        (f"file:{short}", "256 samples but grid has 512 points"),
        ("plane:1", "unknown state descriptor 'plane:1'"),
        ("", "bad state descriptor ''"),
    ):
        with pytest.raises(ValueError, match=match):
            catalog_state(bad, g512)


def test_overlap_and_norm(g512):
    h0 = catalog_state("hermite:0", g512)
    h1 = catalog_state("hermite:1", g512)
    assert abs(state_overlap(h0, h1)) < 1e-12
    assert state_overlap(h0, h0).real == pytest.approx(1.0, abs=1e-12)
    other = catalog_state("hermite:0", make_grid(512, 9.0))
    with pytest.raises(ValueError):
        state_overlap(h0, other)


def test_sampled_state_values_are_frozen(g512):
    h0 = catalog_state("hermite:0", g512)
    with pytest.raises(ValueError):
        h0.values[0] = 1.0
    with pytest.raises(ValueError):
        SampledState(g512, np.full(512, np.nan), "bad")
    with pytest.raises(ValueError):
        SampledState(g512, np.zeros(100), "bad")


def test_state_csv_round_trip(tmp_path, g512):
    h1 = catalog_state("hermite:1", g512)
    path = str(tmp_path / "h1.csv")
    write_state_csv(path, g512.x_points(), h1.values)
    x, vals = read_state_csv(path)
    np.testing.assert_array_equal(x, g512.x_points())
    np.testing.assert_array_equal(vals, h1.values)
    loaded = catalog_state(f"file:{path}", g512)
    np.testing.assert_array_equal(loaded.values, h1.values)


def test_state_csv_rejects_mismatched_grid(tmp_path, g512):
    other = make_grid(512, 9.0)
    h0 = catalog_state("hermite:0", other)
    path = str(tmp_path / "h0.csv")
    write_state_csv(path, other.x_points(), h0.values)
    with pytest.raises(ValueError):
        catalog_state(f"file:{path}", g512)


def test_state_csv_rejects_malformed_files(tmp_path):
    p1 = tmp_path / "header.csv"
    p1.write_text("a,b,c\n0,1,0\n1,1,0\n")
    with pytest.raises(ValueError):
        read_state_csv(str(p1))
    p2 = tmp_path / "spacing.csv"
    p2.write_text("x,re,im\n0.0,1,0\n1.0,1,0\n3.0,1,0\n")
    with pytest.raises(ValueError):
        read_state_csv(str(p2))
    # NaN fails every comparison, so it would pass the spacing checks.
    p3 = tmp_path / "nan.csv"
    p3.write_text("x,re,im\n0.0,1,0\nnan,1,0\n2.0,1,0\n")
    with pytest.raises(ValueError, match=f"{p3}: x must be finite"):
        read_state_csv(str(p3))
    # Each refusal names the file, and a refused row its line too.
    for name, body, says in [
        ("columns", "0,1,0\n1,1\n", ":3: expected 3 columns, got 2"),
        ("cell", "0,1,0\n1,abc,0\n", ":3: could not convert"),
        ("short", "0,1,0\n", ": need at least 2 samples"),
        ("order", "0,1,0\n1,1,0\n1,1,0\n", ": x must be strictly increasing"),
    ]:
        path = tmp_path / f"{name}.csv"
        path.write_text("x,re,im\n" + body)
        with pytest.raises(ValueError, match="^" + re.escape(f"{path}{says}")):
            read_state_csv(str(path))


def test_state_csv_skips_blank_lines(tmp_path):
    plain, gappy = tmp_path / "plain.csv", tmp_path / "gappy.csv"
    plain.write_text("x,re,im\n0,1,0\n1,0.5,-2\n2,0,1\n")
    gappy.write_text("x,re,im\n0,1,0\n\n1,0.5,-2\n2,0,1\n")
    (x1, v1), (x2, v2) = read_state_csv(str(plain)), read_state_csv(str(gappy))
    assert x1.tobytes() == x2.tobytes() and v1.tobytes() == v2.tobytes()
    assert v1.tolist() == [1, 0.5 - 2j, 1j]


def test_file_state_norm_guard(tmp_path, g512):
    x = g512.x_points()
    vals = 0.5 * np.pi ** (-0.25) * np.exp(-0.5 * x**2)
    path = str(tmp_path / "half.csv")
    write_state_csv(path, x, vals)
    loaded = catalog_state(f"file:{path}", g512)
    assert state_norm(loaded) == pytest.approx(0.5, abs=1e-10)


def test_phase_space_field_validates_p_axis(g512):
    vals = np.zeros((512, 256))
    good = PhaseSpaceField(g512, vals)
    assert good.grid is g512
    for shape in [(512, 100), (512, 512), (256, 256)]:
        with pytest.raises(ValueError, match="does not match"):
            PhaseSpaceField(g512, np.zeros(shape))


def test_phase_space_field_copies_a_writable_array(g512):
    vals = np.zeros((512, 256))
    field = PhaseSpaceField(g512, vals)
    vals[3, 4] = 1.0
    assert not field.values.any()
    assert vals.flags.writeable
    assert not field.values.flags.writeable


def test_check_error_is_value_error():
    assert issubclass(CheckError, ValueError)
