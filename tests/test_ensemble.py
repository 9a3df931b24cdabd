import tracemalloc

import numpy as np
import pytest

from wignerlab.ensemble import (
    MAX_BASIS_DIM,
    DensityMatrix,
    Ensemble,
    PartialIsometry,
    build_A,
    density_matrix,
    density_matrix_direct,
    find_partial_isometry,
    hermite_basis,
    spectral_ensemble,
)
from wignerlab.grid import CheckError, SampledState, catalog_state, make_grid
from wignerlab.modspace import feichtinger_closure_check
from wignerlab.wigner import mixed_wigner, wigner

from conftest import hermite_combination


def test_ensemble_validation(g512):
    h0 = catalog_state("hermite:0", g512)
    h1 = catalog_state("hermite:1", g512)
    with pytest.raises(ValueError):
        Ensemble((), "empty")
    with pytest.raises(ValueError):
        Ensemble(((h0, 0.5), (h1, 0.4)), "short")
    with pytest.raises(ValueError):
        Ensemble(((h0, 1.5), (h1, -0.5)), "signed")
    # A NaN weight passes both "w <= 0" and the sum-to-1 comparison.
    for bad in (float("nan"), float("inf")):
        with pytest.raises(ValueError, match="finite"):
            Ensemble(((h0, bad),), "non-finite")
    dim = SampledState(g512, 0.9 * h0.values, "dim")
    with pytest.raises(ValueError):
        Ensemble(((dim, 1.0),), "dim")
    other = catalog_state("hermite:0", make_grid(512, 9.0))
    with pytest.raises(ValueError):
        Ensemble(((h0, 0.5), (other, 0.5)), "mixed-grids")
    ok = Ensemble(((h0, 0.25), (h1, 0.75)), "ok")
    np.testing.assert_allclose(ok.weights(), [0.25, 0.75])
    assert ok.grid == g512


def test_hermite_basis_orthonormal_and_guarded(g512):
    basis = hermite_basis(g512, 16)
    assert basis.shape == (16, 512)
    with pytest.raises(ValueError):
        hermite_basis(g512, 0)
    with pytest.raises(ValueError):
        hermite_basis(g512, MAX_BASIS_DIM + 1)
    # Basis order 127 extends past this grid's half width, so the trapezoid
    # norm of the top function drops and the guard must fire.
    with pytest.raises(ValueError):
        hermite_basis(g512, 128)


def projection(state, dim):
    """Coefficients and truncation residual of one state: build_A of it at weight 1.

    Column 0 is sqrt(1.0) times the coefficients and the residual 1.0 times
    the state's, both exact, so these are the projection's bits.
    """
    op = build_A(Ensemble(((state, 1.0),), state.label), dim)
    return op.matrix[:, 0], op.truncation_residual


def test_projection_of_eigenstates(g512):
    h2 = catalog_state("hermite:2", g512)
    coeffs, residual = projection(h2, 8)
    expected = np.zeros(8)
    expected[2] = 1.0
    np.testing.assert_allclose(np.abs(coeffs), expected, atol=1e-10)
    assert abs(residual) <= 1e-10


def test_box_projection_residuals_shrink():
    grid = make_grid(4096, 24.0, 1.0)
    box = catalog_state("box:-0.5:0.5", grid)
    residuals = [projection(box, dim)[1] for dim in (32, 64, 128)]
    assert residuals[0] > residuals[1] > residuals[2]
    np.testing.assert_allclose(residuals, [0.09019, 0.05175, 0.03974], atol=1e-4)


def test_build_A_columns(hadamard_pair_512):
    e1, _ = hadamard_pair_512
    op = build_A(e1, 8)
    assert op.matrix.shape == (8, 8)
    expected0 = np.zeros(8)
    expected0[0] = np.sqrt(0.5)
    np.testing.assert_allclose(np.abs(op.matrix[:, 0]), expected0, atol=1e-10)
    expected1 = np.zeros(8)
    expected1[1] = np.sqrt(0.5)
    np.testing.assert_allclose(np.abs(op.matrix[:, 1]), expected1, atol=1e-10)
    assert np.all(op.matrix[:, 2:] == 0.0)
    assert op.truncation_residual <= 1e-12
    with pytest.raises(ValueError):
        build_A(e1, 1)


def test_density_matrix_routes_agree(hadamard_pair_512):
    e1, e2 = hadamard_pair_512
    for ens in (e1, e2):
        rho = density_matrix(build_A(ens, 16))
        assert rho.trace_residual <= 1e-12
        np.testing.assert_allclose(rho.matrix, rho.matrix.conj().T, atol=1e-14)
        direct = density_matrix_direct(ens, 16)
        np.testing.assert_allclose(rho.matrix, direct, atol=1e-12)


def test_density_matrix_validation():
    with pytest.raises(ValueError):
        DensityMatrix(np.array([[1.0, 1.0], [0.0, 0.0]]), 0.0)
    with pytest.raises(ValueError):
        DensityMatrix(np.diag([1.5, -0.5]), 0.0)
    with pytest.raises(ValueError):
        DensityMatrix(np.diag([0.4, 0.4]), 0.0)


def test_partial_isometry_defect_guard():
    with pytest.raises(CheckError):
        PartialIsometry(np.array([[0.7, 0.7], [0.0, 0.0]]), 1, 0.3, 0.0, 0.0)


def test_find_partial_isometry_hadamard(hadamard_pair_512):
    e1, e2 = hadamard_pair_512
    a = build_A(e1, 16)
    a_prime = build_A(e2, 16)
    isometry = find_partial_isometry(a, a_prime)
    assert isometry.rank == 2
    assert isometry.density_residual <= 1e-12
    residual = np.linalg.norm(a.matrix - a_prime.matrix @ isometry.matrix)
    assert residual <= 1e-10
    assert isometry.factor_residual == residual
    u = isometry.matrix
    proj = u.conj().T @ u
    np.testing.assert_allclose(proj @ proj, proj, atol=1e-10)


def test_find_partial_isometry_rejects_different_densities(g512):
    h0 = catalog_state("hermite:0", g512)
    h1 = catalog_state("hermite:1", g512)
    a = build_A(Ensemble(((h0, 1.0),), "pure0"), 8)
    a_prime = build_A(Ensemble(((h1, 1.0),), "pure1"), 8)
    with pytest.raises(CheckError):
        find_partial_isometry(a, a_prime)


def test_spectral_ensemble_of_pure_state(g512):
    h1 = catalog_state("hermite:1", g512)
    rho = density_matrix(build_A(Ensemble(((h1, 1.0),), "pure"), 8))
    spectral = spectral_ensemble(rho, g512)
    assert len(spectral.members) == 1
    member, weight = spectral.members[0]
    assert weight == pytest.approx(1.0, abs=1e-12)
    assert member.label == "spectral:0"
    overlap = np.sum(np.conj(member.values) * h1.values) * g512.dx
    assert abs(overlap) == pytest.approx(1.0, abs=1e-10)


def test_spectral_ensemble_drops_eigenvalues_at_or_below_the_cutoff(g512):
    # 5e-11 lies below SV_CUTOFF and -5e-9 is noise the constructor accepts:
    # both are dropped, not kept as zero-weight members.
    rho = DensityMatrix(np.diag([1.0, 5e-11, -5e-9]), 0.0)
    spectral = spectral_ensemble(rho, g512)
    assert [member.label for member, _ in spectral.members] == ["spectral:0"]
    assert spectral.weights().tolist() == [1.0]


def test_mixed_wigner_is_weighted_sum(g512, hadamard_pair_512):
    e1, _ = hadamard_pair_512
    field = mixed_wigner(e1)
    total = np.zeros_like(field.values)
    for state, weight in e1.members:
        total += weight * wigner(state).values
    np.testing.assert_allclose(field.values, total, atol=1e-15)


def test_closure_check_on_equivalent_pair(g512, hadamard_pair_512):
    e1, e2 = hadamard_pair_512
    report = feichtinger_closure_check(e1, e2, s=0.0)
    assert report.field_residual <= 1e-12
    assert report.implication_holds
    assert not report.inconclusive
    assert report.e1_verdicts == ("convergent", "convergent")
    assert report.e2_verdicts == ("convergent", "convergent")


def test_closure_check_samples_its_window_once(monkeypatch, hadamard_pair_512):
    import wignerlab.modspace as modspace_mod

    e1, e2 = hadamard_pair_512
    descriptors = []

    def counted(descriptor, grid):
        descriptors.append(descriptor)
        return catalog_state(descriptor, grid)

    monkeypatch.setattr(modspace_mod, "catalog_state", counted)
    report = feichtinger_closure_check(e1, e2)
    assert descriptors == ["hermite:0"]
    assert report.e1_verdicts == report.e2_verdicts == ("convergent", "convergent")


def test_closure_check_builds_no_field(g1024, eigen_pair_1024):
    # The two mixed fields are compared one row block at a time; building
    # them took four n x n/2 float arrays, 16.8 MB at n = 1024.
    plus = hermite_combination(g1024, (1.0, 1.0), "mix:+")
    minus = hermite_combination(g1024, (1.0, -1.0), "mix:-")
    rotated = Ensemble(((plus, 0.5), (minus, 0.5)), "pair:rotated")
    one_field = 8 * g1024.n_points * (g1024.n_points // 2)
    tracemalloc.start()
    try:
        report = feichtinger_closure_check(eigen_pair_1024, rotated)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert report.field_residual <= 1e-12
    assert peak < one_field


def test_closure_check_rejects_unequal_densities(g512):
    h0 = catalog_state("hermite:0", g512)
    h1 = catalog_state("hermite:1", g512)
    e1 = Ensemble(((h0, 1.0),), "pure0")
    e2 = Ensemble(((h1, 1.0),), "pure1")
    # Unequal mixtures have unequal fields, so the field check refuses them.
    with pytest.raises(CheckError, match="mixed Wigner fields differ"):
        feichtinger_closure_check(e1, e2)


def test_closure_check_refuses_ensembles_on_two_grids(hadamard_pair_512):
    # Equal n, so without the check the two fields would be compared entrywise.
    e1, _ = hadamard_pair_512
    h0 = catalog_state("hermite:0", make_grid(512, 9.0))
    with pytest.raises(ValueError, match="different grids"):
        feichtinger_closure_check(e1, Ensemble(((h0, 1.0),), "other grid"))


def test_seeded_combination_round_trip(g1024):
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
    assert np.abs(rho.matrix - rho2.matrix).max() <= 1e-12
    assert spectral.weights().sum() == pytest.approx(1.0, abs=1e-12)
