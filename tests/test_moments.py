import math

import numpy as np
import pytest

from wignerlab.ensemble import Ensemble, mixed_wigner
from wignerlab.grid import SampledState, catalog_state, trapezoid_weights
from wignerlab.modspace import DivergingStateError, WeightedNormReport, modulation_norm
from wignerlab.moments import (
    CovarianceReport,
    characteristic_function,
    covariance,
    marginals,
)
from wignerlab.wigner import wigner

LADDER = ((1.0, 1.0), (2.0, 1.0), (4.0, 1.0), (8.0, 1.0))


def make_report(s, verdict):
    return WeightedNormReport(s, "hermite:0", LADDER, verdict, 0.0)


def test_covariance_requires_convergent_s2(cov_inputs_sr2048):
    _, field, _ = cov_inputs_sr2048
    with pytest.raises(DivergingStateError):
        covariance(field, [])
    with pytest.raises(DivergingStateError):
        covariance(field, make_report(1.5, "convergent"))
    with pytest.raises(DivergingStateError):
        covariance(field, make_report(2.0, "inconclusive"))
    with pytest.raises(DivergingStateError):
        covariance(field, [make_report(2.0, "convergent"), make_report(2.0, "diverging")])


def test_oscillator_eigenstate_covariances(sr2048, cov_inputs_sr2048):
    h0 = catalog_state("hermite:0", sr2048.x_grid)
    field = wigner(h0, sr2048)
    report = covariance(field, modulation_norm(h0, 2.0, sr2048))
    np.testing.assert_allclose(report.sigma, 0.5 * np.eye(2), atol=1e-10)
    np.testing.assert_allclose(report.mean, [0.0, 0.0], atol=1e-10)
    assert report.flags == ()
    _, mix_field, verdicts = cov_inputs_sr2048
    mixed = covariance(mix_field, verdicts)
    np.testing.assert_allclose(mixed.sigma, np.eye(2), atol=1e-10)


def test_two_moment_routes_agree(cov_inputs_sr2048):
    _, field, verdicts = cov_inputs_sr2048
    report = covariance(field, verdicts)
    assert np.abs(report.second_moments_fd - report.sigma).max() <= 1e-3
    assert report.residual <= 1e-3
    # Doubling the stencil step shifts a second-order estimate by about
    # three times its own truncation error, so the probe tracks the
    # residual rather than the machine floor.
    assert report.fd_step_change <= 4.0 * report.residual
    assert report.fd_step_change <= 5e-3
    tight = covariance(field, verdicts, route_tol=1e-18)
    assert tight.flags == ("numerically-unreliable",)


def test_mean_tracks_displacement(g512):
    x = g512.x_grid.points()
    vals = np.pi ** (-0.25) * np.exp(-0.5 * (x - 1.0) ** 2)
    shifted = SampledState(g512.x_grid, vals, "shifted-gaussian", 1.0)
    field = wigner(shifted, g512)
    report = covariance(field, modulation_norm(shifted, 2.0, g512))
    np.testing.assert_allclose(report.mean, [1.0, 0.0], atol=1e-8)
    np.testing.assert_allclose(report.sigma, 0.5 * np.eye(2), atol=1e-8)


def test_covariance_report_requires_symmetric_sigma():
    with pytest.raises(ValueError):
        CovarianceReport(
            mean=(0.0, 0.0),
            sigma=np.array([[1.0, 0.5], [0.0, 1.0]]),
            second_moments_fd=np.eye(2),
            residual=0.0,
            fd_step_change=0.0,
            flags=(),
        )


def test_marginals_match_member_densities(g1024, eigen_pair_1024, mix_field_1024):
    report = marginals(mix_field_1024, eigen_pair_1024)
    assert report.norm_residual <= 1e-12
    assert report.x_residual <= 1e-12
    assert report.p_residual <= 1e-12
    assert report.x_marginal.min() >= -1e-15
    assert report.p_marginal.min() >= -1e-15
    w = trapezoid_weights(g1024.n_points)
    assert float(np.sum(w * report.x_marginal) * g1024.dx) == pytest.approx(
        1.0, abs=1e-12
    )


def test_marginals_refuse_nonintegrable_members(g1024):
    box = catalog_state("box:-0.5:0.5", g1024.x_grid)
    ens = Ensemble(((box, 1.0),), "box-only")
    field = mixed_wigner(ens, g1024)
    with pytest.raises(DivergingStateError):
        marginals(field, ens)


def test_characteristic_function_normalization(cov_inputs_sr2048, sr2048):
    _, field, _ = cov_inputs_sr2048
    cf = characteristic_function(field)
    n = sr2048.n_points
    center = cf.values[n // 2, n // 2]
    assert center.real == pytest.approx(1.0 / (2.0 * math.pi), abs=1e-12)
    assert abs(center.imag) <= 1e-15
    # The transform of a real field has Hermitian symmetry about the origin.
    flipped = np.conj(cf.values[1:, 1:][::-1, ::-1])
    np.testing.assert_allclose(cf.values[1:, 1:], flipped, atol=1e-12)


def test_characteristic_function_reciprocal_axes(cov_inputs_sr2048, sr2048):
    _, field, _ = cov_inputs_sr2048
    cf = characteristic_function(field)
    assert cf.values.shape == (sr2048.n_points, sr2048.n_points)
    assert cf.grid.dx == pytest.approx(sr2048.dp, rel=1e-12)
    assert cf.grid.dp == pytest.approx(sr2048.dx, rel=1e-12)
