"""End-to-end acceptance checks.

One test per pinned requirement, each printing the measured value next to
its frozen tolerance.  Expensive fields are shared through fixtures; every
oracle here is computed independently of the code under test (closed forms,
direct quadrature, or byte comparison).
"""

import filecmp
import json
import math
import os

import numpy as np
import pytest

from wignerlab.cli import main
from wignerlab.ensemble import build_A, density_matrix, find_partial_isometry
from wignerlab.grid import catalog_state, make_grid, state_overlap, trapezoid_weights
from wignerlab.modspace import feichtinger_diagnostic, modulation_norm
from wignerlab.moments import covariance, marginals
from wignerlab.wigner import apply_metaplectic, cross_wigner, mixed_wigner, wigner

from conftest import hermite_combination


@pytest.fixture(scope="module")
def quartet_fields_g51(g51):
    specs = ("hermite:0", "hermite:1", "hermite:2", "box:-0.5:0.5")
    states = [catalog_state(s, g51) for s in specs]
    fields = {
        (i, j): cross_wigner(states[i], states[j], g51)
        for i in range(4)
        for j in range(4)
    }
    return states, fields


@pytest.fixture(scope="module")
def wide_box_report():
    grid = make_grid(4096, 2048.0 / 151.0, 1.0)
    box = catalog_state("box:-0.5:0.5", grid)
    return feichtinger_diagnostic(box, grid)


def test_ground_state_wigner_matches_gaussian(g512):
    h0 = catalog_state("hermite:0", g512)
    field = wigner(h0, g512)
    x = field.x_axis[:, None]
    p = field.p_axis[None, :]
    exact = np.exp(-(x**2) - p**2) / math.pi
    err = float(np.abs(field.values - exact).max())
    print(f"ground-state max abs error {err:.3e} (tol 1e-08)")
    assert err <= 1e-8


def test_first_excited_wigner_matches_laguerre_form(g512):
    h1 = catalog_state("hermite:1", g512)
    field = wigner(h1, g512)
    x = field.x_axis[:, None]
    p = field.p_axis[None, :]
    r2 = x**2 + p**2
    exact = np.exp(-r2) * (2.0 * r2 - 1.0) / math.pi
    err = float(np.abs(field.values - exact).max())
    print(f"first-excited max abs error {err:.3e} (tol 1e-07)")
    assert err <= 1e-7


@pytest.mark.parametrize("hbar", ["0.5", "2"])
def test_first_excited_wigner_off_unit_hbar(tmp_path, hbar):
    # W_1 = (-1/(pi*hbar)) exp(-r^2/hbar) L_1(2 r^2/hbar), with L_1(u) = 1 - u.
    argv = ["wigner", "--state", "hermite:1", "--hbar", hbar, "--grid-n", "512", "--grid-l", "10"]
    assert main(argv + ["--out", str(tmp_path)]) == 0
    rows = np.loadtxt(tmp_path / "wigner_field.csv", delimiter=",", skiprows=1)
    x, p = np.unique(rows[:, 0]), np.unique(rows[:, 1])
    values = rows[:, 2].reshape(x.size, p.size)
    h = float(hbar)
    u = 2.0 * (x[:, None] ** 2 + p[None, :] ** 2) / h
    exact = -np.exp(-0.5 * u) * (1.0 - u) / (math.pi * h)
    err = float(np.abs(values - exact).max())
    with open(tmp_path / "wigner_field.json") as fh:
        meta = json.load(fh)
    integral = float(np.sum(trapezoid_weights(x.size) @ values)) * meta["dx"] * meta["dp"]
    print(f"hbar {hbar}: max abs error {err:.3e}, integral - 1 = {integral - 1.0:.3e} (tol 1e-08)")
    assert err <= 1e-8
    assert abs(integral - 1.0) <= 1e-8


def brute_force_octave_rate():
    # Direct quadrature oracle for the box field: each |x| slice is
    # sin(2*p*a)/(pi*p) with half-overlap a = 1/2 - |x|, and both signs of p
    # contribute.  Evaluated over one octave far from the origin.
    big = 40.0
    x = np.linspace(-0.5, 0.5, 801)
    a = 0.5 - np.abs(x)
    p = np.linspace(big, 2.0 * big, 8001)
    integrand = np.abs(np.sin(2.0 * np.outer(a, p))) / p
    per_x = integrand.sum(axis=1) * (p[1] - p[0])
    total = 2.0 * per_x.sum() * (x[1] - x[0]) / math.pi
    return total / math.log(2.0)


def test_box_state_divergence_rate_window(wide_box_report):
    """The box ladder diverges logarithmically at the pinned rate 4/pi^2.

    Each x-slice of the box Wigner function is sin(2ap)/(pi p) with
    a = 1/2 - |x|.  Since |sin| averages 2/pi, each momentum tail adds
    (1/pi)(2/pi) ln 2 per doubling of the cutoff, and integrating over x in
    [-1/2, 1/2] gives 2/pi^2 per octave per tail.  The ladder integrates over
    the disc x^2 + p^2 <= R^2, which holds both signs of p, so the pinned
    rate is 4/pi^2 = 0.405 per octave, checked at +/-25 % inside the window
    [0.30, 0.70].  The quadrature oracle is tied to the same closed form.
    """
    report = wide_box_report
    values = [v for _, v in report.partial_norms]
    increments = np.diff(values) / math.log(2.0)
    c = float(increments.mean())
    oracle = brute_force_octave_rate()
    pinned = 4.0 / math.pi**2
    print(
        f"verdict {report.verdict}, octave rate {c:.4f}, oracle {oracle:.4f}, "
        f"4/pi^2 {pinned:.4f}, pinned window [0.30, 0.70]"
    )
    assert report.verdict == "diverging"
    assert all(b > a for a, b in zip(values, values[1:]))
    assert abs(oracle - pinned) <= 1e-3 * pinned
    assert abs(c - oracle) <= 0.25 * oracle
    assert 0.30 <= c <= 0.70
    assert abs(c - pinned) <= 0.25 * pinned


def test_pair_mixture_marginals_match_closed_forms(g1024, eigen_pair_1024, mix_field_1024):
    report = marginals(mix_field_1024, eigen_pair_1024)
    w = trapezoid_weights(g1024.n_points)
    total = float(np.sum(w * report.x_marginal) * g1024.dx)
    x = g1024.x_points()
    closed_x = 0.5 * np.exp(-(x**2)) * (1.0 + 2.0 * x**2) / math.sqrt(math.pi)
    p = mix_field_1024.p_axis
    closed_p = 0.5 * np.exp(-(p**2)) * (1.0 + 2.0 * p**2) / math.sqrt(math.pi)
    err_x = float(np.abs(report.x_marginal - closed_x).max())
    err_p = float(np.abs(report.p_marginal - closed_p).max())
    print(
        f"mass {total:.12f}, marginal errors x {err_x:.3e} p {err_p:.3e} (tol 1e-06)"
    )
    assert abs(total - 1.0) <= 1e-6
    assert err_x <= 1e-6
    assert err_p <= 1e-6


def test_pair_mixture_covariance_identity_and_route_agreement(cov_inputs_sr2048):
    _, field, verdicts = cov_inputs_sr2048
    report = covariance(field, verdicts)
    sigma_gap = float(np.abs(report.sigma - np.eye(2)).max())
    route_gap = float(np.abs(report.second_moments_fd - report.sigma).max())
    print(f"sigma vs identity {sigma_gap:.3e} (tol 1e-05), routes {route_gap:.3e} (tol 1e-03)")
    assert sigma_gap <= 1e-5
    assert route_gap <= 1e-3
    assert report.residual <= 1e-3


def test_cross_wigner_uniform_bound(quartet_fields_g51):
    _, fields = quartet_fields_g51
    peak = max(float(np.abs(f.values).max()) for f in fields.values())
    print(f"max |W| over all pairs {peak:.6f} (bound {2.0 / math.pi:.6f} + 1e-06)")
    assert peak <= 2.0 / math.pi + 1e-6


def test_cross_wigner_integral_matches_overlap(g51, quartet_fields_g51):
    states, fields = quartet_fields_g51
    w = trapezoid_weights(g51.n_points)[:, None]
    worst = 0.0
    for (i, j), field in fields.items():
        integral = complex((w * field.values).sum() * g51.dx * g51.dp)
        gap = abs(integral - state_overlap(states[i], states[j]))
        worst = max(worst, gap)
    print(f"max |integral - overlap| {worst:.3e} (tol 1e-06)")
    assert worst <= 1e-6


def test_fourier_rotates_field_and_scaling_maps_covariance(sr1024, sr2048):
    h1 = catalog_state("hermite:1", sr1024)
    base = wigner(h1, sr1024).values
    rotated = wigner(apply_metaplectic(h1, "fourier"), sr1024).values
    n = sr1024.n_points
    rows = np.arange(n // 4, 3 * n // 4)
    cols = np.arange(n // 2)
    expected = base[3 * n // 4 - cols[None, :], rows[:, None] - n // 4]
    rot_err = float(np.abs(rotated[rows] - expected).max())
    outside = float(np.abs(rotated[np.abs(sr1024.x_points()) > 0.5 * sr1024.half_width]).max())

    h0 = catalog_state("hermite:0", sr2048)
    scaled = apply_metaplectic(h0, "scale:2")
    sigma = covariance(wigner(h0, sr2048), modulation_norm(h0, 2.0, sr2048)).sigma
    sigma_scaled = covariance(
        wigner(scaled, sr2048), modulation_norm(scaled, 2.0, sr2048)
    ).sigma
    xx_gap = abs(sigma_scaled[0, 0] - 4.0 * sigma[0, 0])
    print(
        f"rotation error {rot_err:.3e} (tol 1e-06), far rows {outside:.3e}, "
        f"xx map gap {xx_gap:.3e} (tol 1e-05)"
    )
    assert rot_err <= 1e-6
    assert outside <= 1e-6
    assert xx_gap <= 1e-5


def hadamard_block_gap(u):
    target = np.array([[1.0, 1.0], [1.0, -1.0]]) / math.sqrt(2.0)
    gap = 0.0
    for j in range(2):
        phase = np.vdot(target[:, j], u[:2, j])
        phase = phase / abs(phase)
        gap = max(gap, float(np.abs(u[:2, j] - phase * target[:, j]).max()))
    return gap


def test_equivalent_ensembles_density_isometry_hadamard(hadamard_pair_512):
    e1, e2 = hadamard_pair_512
    a = build_A(e1, 32)
    a_prime = build_A(e2, 32)
    rho_gap = float(
        np.abs(density_matrix(a).matrix - density_matrix(a_prime).matrix).max()
    )
    isometry = find_partial_isometry(a, a_prime, factor_tol=1e-8)
    factor_gap = float(np.linalg.norm(a.matrix - a_prime.matrix @ isometry.matrix))
    u = isometry.matrix
    proj = u.conj().T @ u
    proj_gap = float(np.abs(proj @ proj - proj).max())
    block_gap = hadamard_block_gap(u)
    print(
        f"density {rho_gap:.3e} (tol 1e-10), factor {factor_gap:.3e} (tol 1e-08), "
        f"projection {proj_gap:.3e} (tol 1e-08), block {block_gap:.3e} (tol 1e-08)"
    )
    assert rho_gap <= 1e-10
    assert factor_gap <= 1e-8
    assert proj_gap <= 1e-8
    assert block_gap <= 1e-8


def test_spectral_round_trip_recovers_density(g1024):
    from wignerlab.ensemble import Ensemble, spectral_ensemble

    rng = np.random.default_rng(20260814)
    members = []
    for j in range(3):
        c = rng.standard_normal(6) + 1j * rng.standard_normal(6)
        members.append(hermite_combination(g1024, c, f"combo:{j}"))
    w = rng.random(3)
    w = w / w.sum()
    ens = Ensemble(tuple(zip(members, (float(v) for v in w))), "seeded-trio")
    rho = density_matrix(build_A(ens, 32))
    spectral = spectral_ensemble(rho, g1024)
    rho2 = density_matrix(build_A(spectral, 32))
    gap = float(np.abs(rho.matrix - rho2.matrix).max())
    weight_gap = abs(float(spectral.weights().sum()) - 1.0)
    print(f"round-trip gap {gap:.3e} (tol 1e-08), weight sum gap {weight_gap:.3e}")
    assert gap <= 1e-8
    assert weight_gap <= 1e-8


def test_mixed_fields_agree_and_members_convergent(g512, hadamard_pair_512):
    e1, e2 = hadamard_pair_512
    f1 = mixed_wigner(e1, g512)
    f2 = mixed_wigner(e2, g512)
    field_gap = float(np.abs(f1.values - f2.values).max())
    verdicts = [
        modulation_norm(st, 0.0, g512).verdict
        for ens in (e1, e2)
        for st, _ in ens.members
    ]
    print(f"field gap {field_gap:.3e} (tol 1e-05), verdicts {verdicts}")
    assert field_gap <= 1e-5
    assert verdicts == ["convergent"] * 4


def test_reproduce_artifacts_byte_identical(tmp_path):
    scenarios = ("prop1", "prop2", "prop3", "cor5")
    for scenario in scenarios:
        d1 = tmp_path / "run1" / scenario
        d2 = tmp_path / "run2" / scenario
        for d in (d1, d2):
            os.makedirs(d)
            code = main(["reproduce", scenario, "--out", str(d)])
            assert code == 0, scenario
        name = f"reproduce_{scenario}.json"
        assert filecmp.cmp(d1 / name, d2 / name, shallow=False), scenario
        print(f"{scenario}: byte-identical artifact {name}")
