import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from odebench.dynamics import _REGISTRY, get_model, lorenz_rhs, seir_log_rhs

from conftest import central_fd, rel_err


def test_seir_log_rhs_reference_point():
    state = np.log([0.05, 0.04, 0.01])
    theta = np.array([2.0, 0.2, 0.6])
    out = seir_log_rhs(state, theta)
    # S = 0.9: by direct substitution of the rates.
    assert np.allclose(out, [0.84, 0.55, 0.8], rtol=1e-12)


def test_seir_contact_and_recovery_off():
    # beta = gamma = 0 with equal compartments leaves only the latency flow.
    state = np.log([0.02, 0.02, 0.02])
    sigma_e = 0.37
    out = seir_log_rhs(state, np.array([1e-12, 1e-12, sigma_e]))
    assert np.allclose(out, [-sigma_e, sigma_e, 0.0], atol=1e-9)


def test_seir_vjp_matches_fd_at_reference():
    model = get_model("seir-log")
    state = np.log([0.05, 0.04, 0.01])
    theta = np.array([2.0, 0.2, 0.6])
    for c, e_c in enumerate(np.eye(3)):
        row = model.vjp(state, theta, 0.0, e_c)[0]
        fd = central_fd(lambda s: model.rhs(s, theta, 0.0)[c], state)
        assert rel_err(row, fd, floor=1e-6) < 1e-5


def test_lorenz_rhs_reference_point():
    out = lorenz_rhs(np.array([5.0, 5.0, 5.0]), np.array([8.0 / 3.0, 28.0, 10.0]))
    assert np.allclose(out, [0.0, 110.0, 25.0 - 40.0 / 3.0], rtol=1e-12)


def test_lorenz_origin_fixed_point():
    out = lorenz_rhs(np.zeros(3), np.array([1.7, -4.0, 2.2]))
    assert np.all(out == 0.0)


def test_lorenz_jac_param_matches_fd():
    model = get_model("lorenz")
    state = np.array([5.0, 5.0, 5.0])
    theta = np.array([8.0 / 3.0, 28.0, 10.0])
    jac = model.jac_param(state, theta, 0.0)
    for c in range(3):
        fd = central_fd(lambda p: model.rhs(state, p, 0.0)[c], theta)
        assert rel_err(jac[c], fd, floor=1e-6) < 1e-6


def _random_point(name, rng):
    if name == "seir-log":
        return rng.uniform(-6.0, -0.5, size=3), rng.uniform(0.1, 3.0, size=3)
    return rng.uniform(-15.0, 15.0, size=3), np.array(
        [rng.uniform(0.5, 5.0), rng.uniform(-40.0, 40.0), rng.uniform(1.0, 20.0)])


@pytest.mark.parametrize("name", ["seir-log", "lorenz"])
def test_jacobians_match_fd_at_many_random_points(name):
    """Unit cotangents e_c give row c of both Jacobians through vjp; jac_param's
    rows match central differences, and a random cotangent's theta_bar
    contracts jac_param."""
    model = get_model(name)
    rng = np.random.default_rng(17)
    for _ in range(100):
        x, theta = _random_point(name, rng)
        jt = model.jac_param(x, theta, 0.0)
        for c, e_c in enumerate(np.eye(3)):
            x_bar, theta_bar = model.vjp(x, theta, 0.0, e_c)
            fd_x = central_fd(lambda v: model.rhs(v, theta, 0.0)[c], x)
            fd_t = central_fd(lambda v: model.rhs(x, v, 0.0)[c], theta)
            assert rel_err(x_bar, fd_x, floor=1e-4) < 1e-5
            assert rel_err(jt[c], fd_t, floor=1e-4) < 1e-5
            assert rel_err(theta_bar, jt[c], floor=1e-4) < 1e-12
        w = rng.standard_normal(3)
        theta_bar = model.vjp(x, theta, 0.0, w)[1]
        assert rel_err(theta_bar, np.einsum("c,cp->p", w, jt), floor=1e-4) < 1e-12


@pytest.mark.parametrize("name", sorted(_REGISTRY))
def test_every_model_is_affine_in_theta(name):
    """f(x, theta) = f(x, 0) + jac_param(x) theta to rounding, with jac_param
    read at another theta: it does not depend on theta."""
    model = get_model(name)
    rng = np.random.default_rng(29)
    for _ in range(100):
        x, theta = _random_point(name, rng)
        jt = model.jac_param(x, _random_point(name, rng)[1], 0.0)
        base = model.rhs(x, np.zeros(model.param_dim), 0.0)
        scale = np.abs(base) + np.abs(jt) @ np.abs(theta)
        assert np.all(np.abs(model.rhs(x, theta, 0.0) - (base + jt @ theta)) <= 1e-14 * scale)


@pytest.mark.parametrize("name", ["seir-log", "lorenz"])
def test_vjp_broadcasts_over_the_grid(name):
    """On an (M, D) batch vjp equals the pointwise rows, and theta_bar sums over them."""
    model = get_model(name)
    rng = np.random.default_rng(23)
    points = [_random_point(name, rng) for _ in range(7)]
    xs = np.array([x for x, _ in points])
    theta = points[0][1]
    w = rng.standard_normal(xs.shape)
    x_bar, theta_bar = model.vjp(xs, theta, 0.0, w)
    assert x_bar.shape == xs.shape and theta_bar.shape == (3,)
    pointwise = [model.vjp(xs[k], theta, 0.0, w[k]) for k in range(7)]
    assert rel_err(x_bar, np.array([xb for xb, _ in pointwise]), floor=1e-4) < 1e-12
    assert rel_err(theta_bar, np.sum([tb for _, tb in pointwise], axis=0), floor=1e-4) < 1e-12
    dense = np.einsum("mc,mcp->p", w, model.jac_param(xs, theta, 0.0))
    assert rel_err(theta_bar, dense, floor=1e-4) < 1e-12


@given(
    x=st.floats(-20, 20), y=st.floats(-20, 20), z=st.floats(-20, 20),
    beta=st.floats(0.5, 5), rho=st.floats(-30, 30), sigma=st.floats(1, 15),
)
@settings(max_examples=60, deadline=None)
def test_lorenz_symmetry(x, y, z, beta, rho, sigma):
    theta = np.array([beta, rho, sigma])
    f1 = lorenz_rhs(np.array([x, y, z]), theta)
    f2 = lorenz_rhs(np.array([-x, -y, z]), theta)
    assert math.isclose(f2[0], -f1[0], rel_tol=1e-12, abs_tol=1e-12)
    assert math.isclose(f2[1], -f1[1], rel_tol=1e-12, abs_tol=1e-12)
    assert math.isclose(f2[2], f1[2], rel_tol=1e-12, abs_tol=1e-12)


@given(
    loge=st.floats(-12, 2), logi=st.floats(-12, 2), logr=st.floats(-12, 2),
    beta=st.floats(0.01, 10), gamma=st.floats(0.01, 10), sigma_e=st.floats(0.01, 10),
)
@settings(max_examples=60, deadline=None)
def test_seir_recovered_always_grows(loge, logi, logr, beta, gamma, sigma_e):
    out = seir_log_rhs(np.array([loge, logi, logr]), np.array([beta, gamma, sigma_e]))
    assert out[2] > 0.0


def test_vectorized_rhs_matches_pointwise():
    model = get_model("lorenz")
    rng = np.random.default_rng(0)
    xs = rng.standard_normal((7, 3)) * 5
    theta = np.array([2.0, 20.0, 9.0])
    batch = model.rhs(xs, theta, 0.0)
    for i in range(7):
        assert np.allclose(batch[i], model.rhs(xs[i], theta, 0.0))
    assert model.jac_param(xs, theta, 0.0).shape == (7, 3, 3)


def test_registry():
    assert get_model("seir-log").component_names == ("logE", "logI", "logR")
    with pytest.raises(KeyError):
        get_model("brusselator")
