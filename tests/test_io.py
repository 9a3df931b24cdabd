import csv
import json
import os
import subprocess
import sys
import tempfile

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wignerlab import _csvtext
from wignerlab._csvtext import _decimal17, _number_text
from wignerlab.grid import PhaseSpaceField, catalog_state, make_grid
from wignerlab.io import (
    canonical_json,
    field_metadata,
    load_ensemble_json,
    write_field_csv,
    write_json,
    write_marginal_csv,
    write_state_csv,
)
from wignerlab.modspace import modulation_norm
from wignerlab.moments import covariance, marginals
from wignerlab.wigner import cross_wigner, wigner


def test_canonical_json_is_order_independent():
    a = canonical_json({"b": 1, "a": [1.5, 2.0], "c": {"y": 1, "x": 2}})
    b = canonical_json({"c": {"x": 2, "y": 1}, "a": [1.5, 2.0], "b": 1})
    assert a == b
    assert a.endswith("\n")
    assert json.loads(a) == {"a": [1.5, 2.0], "b": 1, "c": {"x": 2, "y": 1}}


def test_canonical_json_float_round_trip():
    values = [0.1, 1.0 / 3.0, 2.0**-52, 1e300, -0.0]
    text = canonical_json(values)
    assert json.loads(text) == values


def test_canonical_json_rejects_nonfinite():
    with pytest.raises(ValueError):
        canonical_json({"x": float("nan")})
    with pytest.raises(ValueError):
        canonical_json([float("inf")])


def test_canonical_json_complex_pairs():
    text = canonical_json({"z": 1.0 + 2.0j})
    assert json.loads(text) == {"z": [1.0, 2.0]}


def test_complex_matrix_pairs_round_trip():
    # A complex matrix is written row-major, each entry one [re, im] pair
    # that reads back to its bits.
    rng = np.random.default_rng(3)
    m = rng.standard_normal((4, 3)) + 1j * rng.standard_normal((4, 3))
    pairs = json.loads(canonical_json({"matrix": m}))["matrix"]
    back = np.array([[complex(re, im) for re, im in row] for row in pairs])
    assert back.tobytes() == m.tobytes()
    assert canonical_json(m[1]) == canonical_json(list(m[1]))


def test_write_json_bytes_deterministic(tmp_path):
    p1 = tmp_path / "a.json"
    p2 = tmp_path / "b.json"
    write_json(str(p1), {"b": 2.0, "a": 1.0})
    write_json(str(p2), {"a": 1.0, "b": 2.0})
    assert p1.read_bytes() == p2.read_bytes()


def test_refused_json_leaves_no_file(tmp_path):
    path = tmp_path / "report.json"
    with pytest.raises(ValueError, match="non-finite"):
        write_json(str(path), {"partials": [1.0, float("nan")]})
    assert not path.exists()


def _read_field_csv(path, field):
    """Columns x, p and the value matrix of a field CSV, read with np.loadtxt."""
    rows = np.loadtxt(path, delimiter=",", skiprows=1)
    n = field.grid.n_points
    values = rows[:, 2] if rows.shape[1] == 3 else rows[:, 2] + 1j * rows[:, 3]
    return rows[:, 0], rows[:, 1], values.reshape(n, n // 2)


def test_real_field_csv_round_trip(tmp_path, g512):
    h0 = catalog_state("hermite:0", g512)
    field = wigner(h0)
    path = str(tmp_path / "field.csv")
    write_field_csv(path, field)
    header = open(path).readline().strip()
    assert header == "x,p,value"
    x, p, values = _read_field_csv(path, field)
    np.testing.assert_array_equal(x, np.repeat(field.grid.x_points(), 256))
    np.testing.assert_array_equal(p, np.tile(field.grid.wigner_p_points(), 512))
    np.testing.assert_array_equal(values, field.values)


def test_complex_field_csv_round_trip(tmp_path, g512):
    h0 = catalog_state("hermite:0", g512)
    h1 = catalog_state("hermite:1", g512)
    field = cross_wigner(h0, h1, g512)
    path = str(tmp_path / "cross.csv")
    write_field_csv(path, field)
    header = open(path).readline().strip()
    assert header == "x,p,re,im"
    _, _, values = _read_field_csv(path, field)
    assert values.dtype == np.complex128
    np.testing.assert_array_equal(values, field.values)


def test_field_metadata_keys(g512):
    h0 = catalog_state("hermite:0", g512)
    field = wigner(h0)
    meta = field_metadata(field)
    assert meta["n"] == 512
    assert meta["hbar"] == 1.0
    assert meta["dx"] == pytest.approx(g512.dx)
    assert meta["dp"] == pytest.approx(g512.dp)


def test_report_dicts_serialize(g512, eigen_pair_1024, mix_field_1024):
    # The report field names are the artifact keys.
    h0 = catalog_state("hermite:0", g512)
    norm_report = modulation_norm(h0, 2.0)
    doc = vars(norm_report)
    assert set(doc) == {"s", "window", "partials", "verdict", "growth_exponent"}
    assert doc["verdict"] == "convergent"
    assert doc["s"] == 2.0
    assert len(doc["partials"]) == 4
    cov_doc = vars(covariance(wigner(h0), [norm_report]))
    assert set(cov_doc) == {
        "mean", "sigma", "second_moments_fd", "residual", "fd_step_change", "flags"
    }
    assert len(cov_doc["sigma"]) == 2
    marg_doc = vars(marginals(mix_field_1024, eigen_pair_1024))
    assert canonical_json({"a": doc, "b": cov_doc, "c": marg_doc})


def test_ensemble_json_round_trip(tmp_path, g512):
    h1 = catalog_state("hermite:1", g512)
    member_csv = str(tmp_path / "member.csv")
    write_state_csv(member_csv, g512.x_points(), h1.values)
    path = str(tmp_path / "ens.json")
    members = [{"weight": 0.5, "state": "hermite:0"}, {"weight": 0.5, "state": member_csv}]
    with open(path, "w") as fh:
        json.dump({"label": "demo", "members": members}, fh)
    ens = load_ensemble_json(path, g512)
    assert ens.label == "demo"
    np.testing.assert_allclose(ens.weights(), [0.5, 0.5])
    np.testing.assert_array_equal(ens.members[1][0].values, h1.values)


def test_ensemble_json_rejects_malformed(tmp_path, g512):
    p1 = tmp_path / "bad.json"
    p1.write_text("{not json")
    with pytest.raises(ValueError):
        load_ensemble_json(str(p1), g512)
    p2 = tmp_path / "nolist.json"
    p2.write_text('{"label": "x"}')
    with pytest.raises(ValueError):
        load_ensemble_json(str(p2), g512)
    p3 = tmp_path / "nokeys.json"
    p3.write_text('{"members": [{"weight": 1.0}]}')
    with pytest.raises(ValueError):
        load_ensemble_json(str(p3), g512)


# Numbers whose %.17g text is easy to get wrong: signed zero, subnormals,
# huge magnitudes, the first integer past 2**53 and a repeating binary fraction.
AWKWARD = [-0.0, 0.0, 5e-324, -5e-324, 1e300, -1e300, 1e16, 1.0 / 3.0, -2.5e-310, 0.1]
numbers = st.one_of(st.sampled_from(AWKWARD), st.floats(width=64))


def complex_array(re, im):
    """re + i·im without arithmetic, so -0.0, inf and nan parts keep their values."""
    z = np.asarray(re, dtype=complex)
    z.imag = im
    return z


def csv_writer_oracle(path, header, rows):
    """The csv.writer loop the three writers used before: %.17g text per number."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for row in rows:
            writer.writerow([format(float(v), ".17g") for v in row])


def field_rows(field):
    for xv, row in zip(field.grid.x_points(), field.values):
        for pv, v in zip(field.grid.wigner_p_points(), row):
            yield (xv, pv, v.real, v.imag) if np.iscomplexobj(row) else (xv, pv, v)


def assert_writers_match_oracle(field, axis, values):
    """Write with each writer and with the oracle; compare the bytes."""
    header = ["x", "p", "re", "im"] if np.iscomplexobj(field.values) else ["x", "p", "value"]
    state = complex_array(values, axis[::-1])
    cases = [
        (lambda path: write_field_csv(path, field), header, field_rows(field)),
        (lambda path: write_marginal_csv(path, "p", axis, values), ["p", "value"],
         zip(axis, values)),
        (lambda path: write_state_csv(path, axis, state), ["x", "re", "im"],
         zip(axis, state.real, state.imag)),
    ]
    with tempfile.TemporaryDirectory() as tmp:
        new, old = os.path.join(tmp, "new.csv"), os.path.join(tmp, "old.csv")
        for write, head, rows in cases:
            write(new)
            csv_writer_oracle(old, head, rows)
            with open(new, "rb") as a, open(old, "rb") as b:
                assert a.read() == b.read()


@pytest.mark.parametrize("is_complex", [False, True])
def test_csv_writers_match_csv_writer_on_awkward_values(is_complex):
    grid = make_grid(8, 10.0 / 3.0)
    vals = np.resize(np.array(AWKWARD), 32).reshape(8, 4)
    if is_complex:
        vals = complex_array(vals, vals[::-1, ::-1])
    field = PhaseSpaceField(grid, vals)
    assert_writers_match_oracle(field, np.array(AWKWARD[::-1]), np.array(AWKWARD))


# 120 examples over 15 (n, half-width) pairs give each pair the share that
# 60 gave each of 8.
@settings(max_examples=120, deadline=None)
@given(
    # n = 64 spans two row blocks (grid._row_blocks); at half-widths 1e-3
    # and 1e5 the x or p column mixes fixed and exponent notation.
    n=st.sampled_from([8, 16, 64]),
    half_width=st.sampled_from([1.0, 10.0 / 3.0, 12.0, 1e-3, 1e5]),
    data=st.data(),
)
def test_csv_writers_match_csv_writer_oracle(n, half_width, data):
    grid = make_grid(n, half_width)
    is_complex = data.draw(st.booleans(), label="complex")
    cells = n * (n // 2)
    size = cells * (2 if is_complex else 1)
    flat = np.array(data.draw(st.lists(numbers, min_size=min(size, 256), max_size=min(size, 256))))
    if n == 64:
        # 256 drawn numbers are repeated with a drawn shift, and the first
        # rows hold only fixed-notation values, so the two row blocks may
        # differ in the width of their value text.
        shift = data.draw(st.integers(0, len(flat) - 1), label="shift")
        flat = np.resize(np.roll(flat, shift), size).reshape(-1, n, n // 2)
        rows = data.draw(st.integers(0, n), label="fixed rows")
        plain = data.draw(st.lists(st.floats(-1e16, 1e16).filter(lambda v: abs(v) >= 1e-4), min_size=1))
        flat[:, :rows] = np.resize(plain, flat[:, :rows].shape)
        flat = flat.reshape(-1)
    vals = complex_array(flat[:cells], flat[cells:]) if is_complex else flat
    field = PhaseSpaceField(grid, vals.reshape(n, n // 2))
    m = data.draw(st.integers(1, 12), label="rows")
    pairs = data.draw(st.lists(st.tuples(numbers, numbers), min_size=m, max_size=m))
    axis, values = (np.array(c) for c in zip(*pairs))
    assert_writers_match_oracle(field, axis, values)


def number_texts(values):
    """The fast formatter's text of each value, NUL padding dropped."""
    return [row[row != 0].tobytes().decode() for row in _number_text(values)]


def assert_texts_match_format(values):
    values = np.asarray(values, dtype=float)
    assert number_texts(values) == [format(v, ".17g") for v in values.tolist()]


@settings(max_examples=200, deadline=None)
@given(
    bits=st.lists(st.integers(0, 2**64 - 1), max_size=64),
    floats=st.lists(st.floats(width=64), max_size=64),
)
def test_number_text_matches_format(bits, floats):
    assert_texts_match_format(np.array(bits, dtype=np.uint64).view(np.float64))
    assert_texts_match_format(floats)


def test_number_text_matches_format_where_rounding_is_hard():
    # Powers of ten and their neighbours straddle the log10 exponent guess
    # and the ends of the fast range; 2251799813685247.75 is an exact
    # decimal tie at 17 digits; rounded decimals end in zeros in every layout.
    powers = np.array([float(f"1e{k}") for k in range(-300, 301)])
    rng = np.random.default_rng(5)
    digits = rng.integers(-(10**7), 10**7, 3000).astype(float)
    shifts = 10.0 ** rng.integers(0, 8, 3000)
    decimals = np.concatenate([digits / shifts, digits * shifts])
    values = np.concatenate([
        powers, np.nextafter(powers, 0.0), np.nextafter(powers, np.inf),
        [5e-324, 2.5e-310, 0.0, -0.0, np.inf, -np.inf, np.nan],
        [1e16, 99999999999999999.0, 2251799813685247.75],
        decimals, decimals * 1e-6, np.exp(rng.uniform(-700.0, 700.0, 3000)),
    ])
    assert_texts_match_format(np.concatenate([values, -values]))
    proved = _decimal17(values)[2]
    assert proved.any() and not proved.all()


def test_number_text_writes_unproved_values_whatever_their_digits(monkeypatch):
    # An exponent that log10 judged one too low leaves digits of 10^17, a
    # lead "digit" of 10.  Whatever the table writes make of them, format()
    # must still write the value, in every layout.
    values = np.array([1e20, -1e250, 1e17, 12345.0, -1.0, 0.5, 1e-5, 0.0])

    def misjudged(v):
        e = np.floor(np.log10(np.where(v == 0, 1.0, np.abs(v)))).astype(np.int64)
        return np.full(len(v), 10**17), e, np.zeros(len(v), bool)

    monkeypatch.setattr(_csvtext, "_decimal17", misjudged)
    assert_texts_match_format(values)


@pytest.mark.parametrize(
    "argv, loaded",
    [(["diagnose", "--state", "hermite:0"], False), (["wigner", "--state", "hermite:0"], True)],
    ids=["diagnose", "wigner"],
)
def test_only_a_csv_writer_loads_the_formatter(tmp_path, argv, loaded):
    # The formatter module is imported by the CSV writers when they run, so
    # a command that writes no CSV does not compile it.
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    env = {**os.environ, "PYTHONPATH": src, "PYTHONDONTWRITEBYTECODE": "1"}
    script = (
        "import sys; from wignerlab.cli import main; "
        "code = main(sys.argv[1:]); print(code, 'wignerlab._csvtext' in sys.modules)"
    )
    argv = [*argv, "--grid-n", "64", "--grid-l", "8", "--out", str(tmp_path)]
    proc = subprocess.run(
        [sys.executable, "-c", script, *argv], env=env, capture_output=True, text=True, timeout=120
    )
    assert proc.stdout.split()[-2:] == ["0", str(loaded)], proc.stderr
