import numpy as np
import pytest
from scipy.linalg import expm

from odebench import integrate
from odebench.dynamics import get_model
from odebench.experiments import quantities_of_interest
from odebench.integrate import IntegrationError, Trajectory, integrate_rk45
from odebench.magi import uniform_grid

from conftest import rk4_fixed


def decay(x, p, t):
    return -x


def peak(rhs, x0, theta, t_end, n, component, value_transform):
    """(time, value) of a component's maximum on n evenly spaced points of [0, t_end]."""
    traj = integrate_rk45(rhs, x0, theta, uniform_grid(0.0, t_end, n))
    qoi = quantities_of_interest(theta, traj, component, value_transform)
    return qoi.peak_time, qoi.peak_intensity


def test_exponential_decay_endpoint():
    traj = integrate_rk45(decay, np.array([1.0]), np.zeros(1), np.array([0.0, 1.0]))
    assert abs(traj.values[-1, 0] - np.exp(-1.0)) < 1e-6


def test_exponential_decay_dense_grid():
    times = np.linspace(0.0, 1.0, 11)
    traj = integrate_rk45(decay, np.array([1.0]), np.zeros(1), times)
    assert np.max(np.abs(traj.values[:, 0] - np.exp(-times))) < 1e-6


def test_two_dim_linear_system_matches_matrix_exponential():
    a = np.array([[-0.3, 2.0], [-2.0, -0.3]])  # decaying rotation

    def rhs(x, p, t):
        return a @ x

    times = np.linspace(0.0, 3.0, 61)
    x0 = np.array([1.0, -0.5])
    traj = integrate_rk45(rhs, x0, np.zeros(1), times)
    exact = np.array([expm(a * t) @ x0 for t in times])
    assert np.max(np.abs(traj.values - exact)) < 1e-6


def test_lorenz_matches_half_step_rk4_oracle():
    model = get_model("lorenz")
    theta = np.array([8.0 / 3.0, 28.0, 10.0])
    x0 = np.array([5.0, 5.0, 5.0])
    times = np.linspace(0.0, 2.0, 81)
    traj = integrate_rk45(model.rhs, x0, theta, times)
    # Independent oracle: fixed-step RK4 refined until the full-step and
    # half-step runs agree well below the comparison tolerance; the
    # half-step member is the reference.
    oracle_full = rk4_fixed(model.rhs, x0, theta, 0.0, 2.0, 640)[::8]
    oracle_half = rk4_fixed(model.rhs, x0, theta, 0.0, 2.0, 1280)[::16]
    assert np.max(np.abs(oracle_full - oracle_half)) < 1e-5
    assert np.max(np.abs(traj.values - oracle_half)) < 1e-4


def test_seir_infectious_peak_is_in_forecast_window():
    model = get_model("seir-log")
    theta = np.array([2.0, 0.2, 0.6])
    x0 = np.log([0.001, 0.001, 0.001])
    # Peak searched on a horizon extending past the forecast window so a
    # boundary argmax cannot masquerade as the true maximum.
    peak_t, peak_v = peak(model.rhs, x0, theta, 14.0, 374, component=1, value_transform=np.exp)
    assert 6.0 < peak_t <= 12.0
    assert 0.0 < peak_v < 1.0
    # In-sample I(t) is still rising at the end of the observation window.
    times = np.linspace(0.0, 6.0, 41)
    traj = integrate_rk45(model.rhs, x0, theta, times)
    i_lin = np.exp(traj.values[:, 1])
    assert i_lin[-1] > i_lin[-2]


def test_peak_scalar_analogue():
    # The rhs reads no parameters; the two only give quantities_of_interest an R0.
    peak_t, peak_v = peak(lambda x, p, t: (1.0 - 2.0 * t) * x, np.array([1.0]), np.ones(2),
                          1.0, 501, component=0, value_transform=None)
    assert abs(peak_t - 0.5) < 0.003
    assert abs(peak_v - np.exp(0.25)) < 1e-4


def test_peak_grid_refinement_consistency():
    model = get_model("seir-log")
    theta = np.array([2.0, 0.2, 0.6])
    x0 = np.log([0.001, 0.001, 0.001])
    # Grid steps 0.0375 and 0.01875.
    t1, _ = peak(model.rhs, x0, theta, 12.0, 321, component=1, value_transform=np.exp)
    t2, _ = peak(model.rhs, x0, theta, 12.0, 641, component=1, value_transform=np.exp)
    assert abs(t1 - t2) < 0.0375


def test_tolerance_halving_consistency(monkeypatch):
    def at_tolerances(rtol, atol, *args):
        monkeypatch.setattr(integrate, "RTOL", rtol)
        monkeypatch.setattr(integrate, "ATOL", atol)
        return integrate_rk45(*args)

    a = np.array([[-0.3, 2.0], [-2.0, -0.3]])

    def rhs(x, p, t):
        return a @ x

    times = np.linspace(0.0, 3.0, 31)
    coarse = at_tolerances(1e-6, 1e-8, rhs, [1.0, -0.5], np.zeros(1), times)
    fine = at_tolerances(5e-7, 5e-9, rhs, [1.0, -0.5], np.zeros(1), times)
    assert np.max(np.abs(coarse.values - fine.values)) < 10 * 1e-6

    # Short-horizon chaotic case, before error amplification dominates.
    model = get_model("lorenz")
    theta = np.array([8.0 / 3.0, 28.0, 10.0])
    times = np.linspace(0.0, 1.0, 21)
    coarse = at_tolerances(1e-6, 1e-8, model.rhs, [5.0, 5.0, 5.0], theta, times)
    fine = at_tolerances(5e-7, 5e-9, model.rhs, [5.0, 5.0, 5.0], theta, times)
    assert np.max(np.abs(coarse.values - fine.values)) < 10 * 1e-6 * np.max(np.abs(fine.values))


def test_determinism_bit_identical():
    model = get_model("lorenz")
    theta = np.array([8.0 / 3.0, 28.0, 10.0])
    times = np.linspace(0.0, 8.0, 321)
    a = integrate_rk45(model.rhs, [5.0, 5.0, 5.0], theta, times)
    b = integrate_rk45(model.rhs, [5.0, 5.0, 5.0], theta, times)
    assert np.array_equal(a.values, b.values)


def test_blowup_raises_with_last_time():
    with pytest.raises(IntegrationError) as err:
        integrate_rk45(lambda x, p, t: x * x, np.array([1.0]), np.zeros(1),
                       np.array([0.0, 2.0]))
    assert 0.9 < err.value.last_time <= 1.01


def test_trajectory_validation():
    with pytest.raises(ValueError):
        Trajectory(times=np.array([0.0, 0.0, 1.0]), values=np.zeros((3, 2)))
    with pytest.raises(ValueError):
        Trajectory(times=np.array([0.0, 1.0]), values=np.zeros((3, 2)))
    with pytest.raises(ValueError):
        Trajectory(times=np.array([0.0, 1.0]), values=np.array([[0.0], [np.inf]]))
