import math
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wignerlab import moments
from wignerlab.ensemble import Ensemble
from wignerlab.grid import (
    PhaseSpaceField,
    SampledState,
    catalog_state,
    centered_fft,
    make_grid,
    trapezoid_weights,
)
from wignerlab.modspace import DivergingStateError, WeightedNormReport, modulation_norm
from wignerlab.moments import CovarianceReport, covariance, marginals
from wignerlab.wigner import mixed_wigner, wigner

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
    h0 = catalog_state("hermite:0", sr2048)
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
    x = g512.x_points()
    vals = np.pi ** (-0.25) * np.exp(-0.5 * (x - 1.0) ** 2)
    shifted = SampledState(g512, vals, "shifted-gaussian")
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
    box = catalog_state("box:-0.5:0.5", g1024)
    ens = Ensemble(((box, 1.0),), "box-only")
    field = mixed_wigner(ens, g1024)
    with pytest.raises(DivergingStateError):
        marginals(field, ens)


def test_characteristic_function_normalization(cov_inputs_sr2048, sr2048):
    _, field, _ = cov_inputs_sr2048
    n = sr2048.n_points
    cf = moments._characteristic_block(field, n // 2)
    assert cf.shape == (n, n)
    center = cf[n // 2, n // 2]
    assert center.real == pytest.approx(1.0 / (2.0 * math.pi), abs=1e-12)
    assert abs(center.imag) <= 1e-15
    # The transform of a real field has Hermitian symmetry about the origin.
    flipped = np.conj(cf[1:, 1:][::-1, ::-1])
    np.testing.assert_allclose(cf[1:, 1:], flipped, atol=1e-12)


def centered_fft_oracle(field):
    """The characteristic function as one centered FFT over the padded n x n field."""
    grid = field.grid
    n = grid.n_points
    padded = np.zeros((n, n), dtype=np.complex128)
    padded[:, n // 4 : n // 4 + n // 2] = field.values
    return centered_fft(padded, grid.dx * grid.dp / (2.0 * math.pi * grid.hbar))


@settings(max_examples=80, deadline=None)
@given(
    log_n=st.integers(3, 8),
    complex_values=st.booleans(),
    density=st.sampled_from([0.0, 0.002, 0.05, 1.0]),
    seed=st.integers(0, 2**32 - 1),
    half_width=st.integers(0, 130),
    block_rows=st.sampled_from([1, 3, 8, 256]),
)
def test_characteristic_block_matches_centered_fft_bitwise(
    log_n, complex_values, density, seed, half_width, block_rows
):
    n = 2**log_n
    n_p = n // 2
    rng = np.random.default_rng(seed)
    values = rng.standard_normal((n, n_p))
    if complex_values:
        values = values + 1j * rng.standard_normal((n, n_p))
    # Sparse fields give exact zeros in the output, whose bits only the
    # arithmetic on signed zeros decides: zero rows, columns and samples,
    # half of them -0.0.
    values[rng.random((n, n_p)) >= density] = 0.0
    values[rng.random(n) < 0.2] = 0.0
    values[:, rng.random(n_p) < 0.2] = 0.0
    values[(values == 0) & (rng.random((n, n_p)) < 0.5)] = -0.0
    if complex_values:
        values.imag[(values.imag == 0) & (rng.random((n, n_p)) < 0.5)] = -0.0
    grid = make_grid(n, 5.0, 1.0)
    field = PhaseSpaceField(grid, values)
    oracle = centered_fft_oracle(field)
    c = n // 2
    keep = slice(max(c - half_width, 0), c + half_width + 1)
    with mock.patch.object(moments, "_CHARFN_ROWS", block_rows):
        block = moments._characteristic_block(field, half_width)
        full = moments._characteristic_block(field, n // 2)
    assert block.tobytes() == oracle[keep, keep].tobytes()
    assert full.tobytes() == oracle.tobytes()


def test_covariance_holds_no_n_by_n_complex_array(cov_inputs_sr2048, sr2048):
    _, field, verdicts = cov_inputs_sr2048
    tracemalloc.start()
    try:
        covariance(field, verdicts)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 16 * sr2048.n_points**2
