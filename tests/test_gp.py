import math

import numpy as np
import pytest
from scipy.linalg import cho_factor, cho_solve

from odebench import experiments, magi
from odebench.gp import (
    MATERN_NU,
    MaternHyper,
    _distinct_lags,
    _fit_bounds,
    _fit_objective,
    _FitData,
    _matern_lag_terms,
    build_kernel_mats,
    dominant_half_period,
    gp_smooth_fit,
    matern_eval,
)
from odebench.selfcheck import (
    central_difference_gradient,
    fd_kernel_matrices,
    matrix_relative_error,
    relative_agreement,
)

from conftest import rel_err

# High-precision kernel values (40-digit Bessel arithmetic, frozen):
# (s, t, amplitude, lengthscale, k, dk/ds, d2k/(ds dt))
REFERENCE_TABLE = [
    (0.0, 0.7, 1.0, 0.5, 0.31508421594008047, 0.80240329262544923, -1.60475712984668122),
    (0.2, 1.9, 1.3, 0.7, 0.124893062274968919, 0.270251337352721163, -0.544539326017491715),
    (0.0, 0.05, 2.0, 2.0, 3.99751817637989432, 0.0990698192441227084, 1.96631131508327768),
    (1.0, 4.5, 0.8, 1.1, 0.0145385577881597809, 0.0212863825022751484, -0.0299345476126553444),
]


def test_matern_reference_table():
    for s, t, amp, ell, k_ref, dk_ref, ddk_ref in REFERENCE_TABLE:
        hyper = MaternHyper(amplitude=amp, lengthscale=ell)
        assert rel_err(matern_eval(hyper, s, t), k_ref) < 1e-13
        assert rel_err(matern_eval(hyper, s, t, (1, 0)), dk_ref) < 1e-12
        assert rel_err(matern_eval(hyper, s, t, (1, 1)), ddk_ref) < 1e-12


def test_matern_zero_lag_limits():
    hyper = MaternHyper(amplitude=1.7, lengthscale=0.9)
    assert matern_eval(hyper, 2.0, 2.0) == pytest.approx(1.7**2, rel=1e-14)
    assert matern_eval(hyper, 2.0, 2.0, (1, 0)) == 0.0
    assert matern_eval(hyper, 2.0, 2.0, (0, 1)) == 0.0
    expected = 1.7**2 * MATERN_NU / ((MATERN_NU - 1.0) * 0.9**2)
    assert matern_eval(hyper, 2.0, 2.0, (1, 1)) == pytest.approx(expected, rel=1e-12)


def test_matern_cross_derivative_vs_fd():
    hyper = MaternHyper(amplitude=1.0, lengthscale=0.5)
    s, t = 1.0, 1.3
    h = 1e-5
    fd = (
        matern_eval(hyper, s + h, t + h) - matern_eval(hyper, s + h, t - h)
        - matern_eval(hyper, s - h, t + h) + matern_eval(hyper, s - h, t - h)
    ) / (4 * h * h)
    assert rel_err(matern_eval(hyper, s, t, (1, 1)), fd) < 1e-4


def test_matern_dlogell_vs_fd():
    # Zero lags on the diagonal and repeated lags from the equal spacing.
    grid = np.array([0.0, 0.25, 0.5, 0.75, 1.3, 2.0])
    r = np.abs(grid[:, None] - grid[None, :])
    lags, inverse = _distinct_lags(r)
    assert lags[0] == 0.0 and lags.size < r.size
    amp, ell = 1.3, 0.6
    dlogell = _matern_lag_terms(MaternHyper(amp, ell), lags)[3][inverse]
    h = 1e-5

    def k_at(log_ell):
        hyper = MaternHyper(amp, math.exp(log_ell))
        return np.array([[matern_eval(hyper, s, t) for t in grid] for s in grid])

    fd = (k_at(math.log(ell) + h) - k_at(math.log(ell) - h)) / (2 * h)
    assert np.all(dlogell[r == 0.0] == 0.0)
    assert rel_err(dlogell, fd) < 1e-4


def test_distinct_lag_matrices_equal_elementwise_eval():
    obs_times = np.array([0.03, 0.41, 0.77, 1.0, 1.52, 1.9])
    times = np.union1d(magi.uniform_grid(0.0, 2.0, 17), obs_times)
    grid = magi.DiscretizationGrid.build(times, obs_times).times
    assert np.unique(np.abs(grid[:, None] - grid[None, :])).size < grid.size ** 2
    hyper = MaternHyper(amplitude=1.4, lengthscale=0.35)
    mats = build_kernel_mats(hyper, grid)
    assert mats.k_jitter == 0.0
    for name, order in (("K", (0, 0)), ("dK", (1, 0)), ("Kd", (0, 1)), ("ddK", (1, 1))):
        ref = np.array([[matern_eval(hyper, s, t, order) for t in grid] for s in grid])
        assert np.array_equal(getattr(mats, name), ref), name


def test_matern_antisymmetry_of_first_derivatives():
    hyper = MaternHyper(amplitude=1.2, lengthscale=0.8)
    assert matern_eval(hyper, 0.4, 1.0, (1, 0)) == pytest.approx(
        -matern_eval(hyper, 0.4, 1.0, (0, 1)), rel=1e-14)
    assert matern_eval(hyper, 1.0, 0.4, (1, 0)) == pytest.approx(
        -matern_eval(hyper, 0.4, 1.0, (1, 0)), rel=1e-14)


def test_kernel_matrices_match_fd_for_random_hypers():
    rng = np.random.default_rng(42)
    grid = np.linspace(0.0, 2.0, 10)
    for _ in range(20):
        hyper = MaternHyper(amplitude=float(rng.uniform(0.3, 3.0)),
                            lengthscale=float(rng.uniform(0.25, 3.0)))
        mats = build_kernel_mats(hyper, grid)
        fd_dK, fd_Kd, fd_ddK = fd_kernel_matrices(hyper, grid)
        assert matrix_relative_error(mats.dK, fd_dK) < 1e-4
        assert matrix_relative_error(mats.Kd, fd_Kd) < 1e-4
        assert matrix_relative_error(mats.ddK, fd_ddK) < 1e-4


def test_dk_is_transpose_of_kd():
    mats = build_kernel_mats(MaternHyper(1.0, 0.7), np.linspace(0, 3, 17))
    assert np.allclose(mats.dK, mats.Kd.T, atol=1e-14)


def test_minimal_two_point_grid():
    mats = build_kernel_mats(MaternHyper(1.0, 1.0), np.array([0.0, 0.5]))
    assert mats.C.shape == (2, 2)
    assert np.all(np.linalg.eigvalsh(mats.C) > 0)


def test_quad_form_identity_on_kernel_column():
    mats = build_kernel_mats(MaternHyper(1.4, 0.6), np.linspace(0, 2, 12))
    v = mats.K[:, 0]
    # K^{-1} K e0 = e0, so the quadratic form collapses to K[0,0].
    assert float(v @ cho_solve(mats.chol_K, v)) == pytest.approx(mats.K[0, 0], rel=1e-6)


def test_quad_form_matches_explicit_inverse():
    rng = np.random.default_rng(1)
    grid = np.linspace(0.0, 1.0, 5)
    mats = build_kernel_mats(MaternHyper(0.9, 0.4), grid)
    for _ in range(5):
        v = rng.standard_normal(5)
        direct = v @ np.linalg.inv(mats.K) @ v
        assert rel_err(float(v @ cho_solve(mats.chol_K, v)), direct) < 1e-8
        direct_c = v @ np.linalg.inv(mats.C) @ v
        assert rel_err(float(v @ cho_solve(mats.chol_C, v)), direct_c) < 1e-8


def test_conditional_covariance_nonnegative_spectrum():
    for amp, ell in [(0.5, 0.3), (2.0, 1.5), (4.0, 14.0), (1.0, 5.0)]:
        mats = build_kernel_mats(MaternHyper(amp, ell), np.linspace(0, 6, 81))
        assert np.linalg.eigvalsh(mats.C).min() >= 0.0


def test_full_lorenz_grid_construction():
    grid = magi.uniform_grid(0.0, 8.0, 321)
    mats = build_kernel_mats(MaternHyper(amplitude=8.0, lengthscale=1.2), grid)
    assert mats.C.shape == (321, 321)
    assert np.isfinite(mats.m).all()


def test_gp_smooth_fit_noiseless_sine():
    t = np.linspace(0.0, 4.0, 81)
    y = 2.0 * np.sin(2.0 * np.pi * t / 1.6)
    fit = gp_smooth_fit(t, y)
    assert fit.noise_sd < 0.05 * fit.hyper.amplitude
    assert fit.flag is None


def test_gp_smooth_fit_white_noise():
    rng = np.random.default_rng(8)
    t = np.linspace(0.0, 4.0, 81)
    y = 3.0 + 0.5 * rng.standard_normal(81)
    fit = gp_smooth_fit(t, y)
    # Pure noise: the fit explains the data as noise, not as signal.
    assert fit.hyper.amplitude < 0.5 * fit.noise_sd
    sample_sd = float(np.std(y))
    assert abs(fit.noise_sd - sample_sd) < 0.2 * sample_sd


def _fitted_params(fit):
    return np.array([math.log(fit.hyper.amplitude), math.log(fit.hyper.lengthscale),
                     fit.hyper.mean, math.log(fit.noise_sd)])


@pytest.mark.parametrize("use_fourier_prior", [False, True])
def test_gp_smooth_fit_is_stationary_in_its_box(use_fourier_prior):
    rng = np.random.default_rng(12)
    t = np.linspace(0.0, 4.0, 41)
    y = 1.5 * np.sin(2.0 * np.pi * t / 1.6) + 0.2 * rng.standard_normal(41)
    fit = gp_smooth_fit(t, y, use_fourier_prior=use_fourier_prior)
    half_period = dominant_half_period(t, y) if use_fourier_prior else None
    p = _fitted_params(fit)
    _, g = _fit_objective(p, _FitData.build(t, y, half_period))
    lo, hi = _fit_bounds(t, y)
    # A coordinate on a bound may keep the part of its gradient that points
    # out of the box; any other gradient must vanish.
    at_lo = np.isclose(p, lo, rtol=0.0, atol=1e-8)
    at_hi = np.isclose(p, hi, rtol=0.0, atol=1e-8)
    inward = np.where(at_lo, np.maximum(-g, 0.0), np.where(at_hi, np.maximum(g, 0.0), np.abs(g)))
    assert np.all(inward <= 1e-3), (p, g)


def _regime_fits(name):
    regime = experiments.get_regime(name)
    data = experiments.simulate_dataset(regime, experiments.dataset_seed(0, regime, 0))
    true_sd = np.array(data.noise_spec["per_component_sd"])
    for c in range(data.values.shape[1]):
        t, y = data.times, data.values[:, c]
        yield gp_smooth_fit(t, y, use_fourier_prior=regime.model().oscillatory), true_sd[c], t, y


def test_lorenz_noise_estimates_stay_near_the_truth():
    # Without a noise floor the fit collapses noise_sd to about 1e-3 of the truth.
    for fit, true_sd, _, _ in _regime_fits("lorenz-chaotic"):
        assert true_sd / 3.0 <= fit.noise_sd <= 3.0 * true_sd


def test_noise_floor_does_not_bind_on_seir():
    for fit, true_sd, t, y in _regime_fits("seir-full"):
        lo, _ = _fit_bounds(t, y)
        assert math.log(fit.noise_sd) > lo[3] + 0.1
        assert true_sd / 2.0 <= fit.noise_sd <= 2.0 * true_sd


def test_fourier_prior_only_shrinks_lengthscale(lorenz_small):
    t, y = lorenz_small["obs"].times, lorenz_small["obs"].values[:, 0]
    fit_off = gp_smooth_fit(t, y, use_fourier_prior=False)
    fit_on = gp_smooth_fit(t, y, use_fourier_prior=True)
    assert fit_on.hyper.lengthscale <= 1.01 * fit_off.hyper.lengthscale


def test_shift_invariance_of_fit():
    rng = np.random.default_rng(4)
    t = np.linspace(0.0, 3.0, 41)
    y = np.sin(3.0 * t) + 0.1 * rng.standard_normal(41)
    fit_a = gp_smooth_fit(t, y)
    fit_b = gp_smooth_fit(t, y + 10.0)
    assert abs(fit_a.hyper.lengthscale - fit_b.hyper.lengthscale) < 1e-6
    assert fit_b.hyper.mean - fit_a.hyper.mean == pytest.approx(10.0, abs=1e-5)


def test_degenerate_flat_data_flag():
    t = np.linspace(0.0, 1.0, 12)
    fit = gp_smooth_fit(t, np.full(12, 2.5))
    assert fit.flag == "degenerate-flat-data"
    assert fit.hyper.amplitude <= 1e-6


def test_fit_requires_enough_observations():
    with pytest.raises(ValueError):
        gp_smooth_fit(np.array([0.0, 1.0, 2.0]), np.array([1.0, 2.0, 1.0]))


def test_dominant_half_period_of_pure_tone():
    t = np.linspace(0.0, 8.0, 257)
    period = 1.6
    hp = dominant_half_period(t, np.sin(2 * np.pi * t / period))
    assert hp == pytest.approx(period / 2.0, rel=0.05)
    assert dominant_half_period(t, np.ones_like(t)) is None


def test_hyper_validation():
    with pytest.raises(ValueError):
        MaternHyper(amplitude=-1.0, lengthscale=1.0)


def _noisy_sine():
    rng = np.random.default_rng(12)
    t = np.linspace(0.0, 4.0, 21)
    return t, np.sin(2.0 * np.pi * t / 1.6) + 0.1 * rng.standard_normal(21)


def _reference_fit_objective(p, t, y, half_period):
    """The fit objective from dense matrices: NLL = r^T Ky^-1 r / 2 + log|Ky| / 2 + const,
    dNLL/dphi = tr((Ky^-1 - alpha alpha^T) dKy/dphi) / 2."""
    amp, ell, mu, nsd = math.exp(p[0]), math.exp(p[1]), p[2], math.exp(p[3])
    n = t.size
    k0, _, _, dk_dlogell = _matern_lag_terms(MaternHyper(amp, ell), np.abs(t[:, None] - t[None, :]))
    chol = cho_factor(k0 + nsd ** 2 * np.eye(n), lower=True)
    resid = y - mu
    alpha = cho_solve(chol, resid)
    w = cho_solve(chol, np.eye(n)) - np.outer(alpha, alpha)
    nll = (0.5 * resid @ alpha + np.sum(np.log(np.diag(chol[0])))
           + 0.5 * n * math.log(2.0 * math.pi))
    grad = np.array([0.5 * np.sum(w * 2.0 * k0), 0.5 * np.sum(w * dk_dlogell),
                     -np.sum(alpha), nsd ** 2 * np.trace(w)])
    if half_period is not None:
        u = (ell - half_period) / half_period
        softplus = math.log1p(math.exp(u))
        nll += 10.0 * softplus ** 2
        grad[1] += 20.0 * softplus / (1.0 + math.exp(-u)) * ell / half_period
    return nll, grad


# (log amplitude, log lengthscale, mean, log noise sd).  The first two
# lengthscales lie beyond the sine's half period of 0.8, where the Fourier
# penalty is steep.
FIT_POINTS = [np.array([0.0, math.log(1.5), 0.1, math.log(0.2)]),
              np.array([0.3, math.log(0.9), -0.2, math.log(0.05)]),
              np.array([-0.5, math.log(0.3), 0.0, math.log(0.5)])]


@pytest.mark.parametrize("half_period", [None, 0.8], ids=["plain", "fourier"])
def test_fit_objective_matches_dense_reference(half_period):
    t, y = _noisy_sine()
    data = _FitData.build(t, y, half_period)
    for p in FIT_POINTS:
        obj, grad = _fit_objective(p, data)
        ref_obj, ref_grad = _reference_fit_objective(p, t, y, half_period)
        assert rel_err(obj, ref_obj) < 1e-12
        assert relative_agreement(grad, ref_grad) < 1e-11


@pytest.mark.parametrize("half_period", [None, 0.8], ids=["plain", "fourier"])
def test_fit_objective_gradient_matches_finite_difference(half_period):
    t, y = _noisy_sine()
    data = _FitData.build(t, y, half_period)
    for p in FIT_POINTS:
        _, grad = _fit_objective(p, data)
        fd = central_difference_gradient(lambda v: _fit_objective(v, data)[0], p)
        assert relative_agreement(grad, fd, floor=1e-6) < 1e-7
