import numpy as np
import pytest

from odebench import experiments as expmod
from odebench import magi
from odebench.observations import ObservationSet


def rel_err(a, b, floor=1e-12):
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    scale = np.maximum(np.maximum(np.abs(a), np.abs(b)), floor)
    return float(np.max(np.abs(a - b) / scale))


def central_fd(f, x, h=1e-6):
    x = np.asarray(x, dtype=float)
    g = np.empty_like(x)
    for i in range(x.size):
        xp, xm = x.copy(), x.copy()
        xp[i] += h
        xm[i] -= h
        g[i] = (f(xp) - f(xm)) / (2 * h)
    return g


def rk4_fixed(rhs, x0, params, t0, t1, n_steps):
    """Classic fixed-step RK4; the independent oracle for the adaptive pair."""
    h = (t1 - t0) / n_steps
    x = np.array(x0, dtype=float)
    t = t0
    path = [x.copy()]
    for _ in range(n_steps):
        k1 = rhs(x, params, t)
        k2 = rhs(x + 0.5 * h * k1, params, t + 0.5 * h)
        k3 = rhs(x + 0.5 * h * k2, params, t + 0.5 * h)
        k4 = rhs(x + h * k3, params, t + h)
        x = x + (h / 6.0) * (k1 + 2 * k2 + 2 * k3 + k4)
        t += h
        path.append(x.copy())
    return np.array(path)


@pytest.fixture(scope="session")
def seir_small():
    """A small, fast SEIR problem shared by posterior-level tests."""
    from odebench import dynamics, gp, integrate

    model = dynamics.get_model("seir-log")
    times = magi.uniform_grid(0.0, 2.0, 21)
    truth = integrate.integrate_rk45(model.rhs, np.log([0.01, 0.01, 0.01]),
                                     np.array([2.0, 0.2, 0.6]), times)
    rng = np.random.default_rng(3)
    values = truth.values[::4] + 0.1 * rng.standard_normal(truth.values[::4].shape)
    obs = ObservationSet(times=times[::4], values=values)
    grid = magi.DiscretizationGrid.build(times, obs.times)
    fits = {c: gp.gp_smooth_fit(obs.times, values[:, c]) for c in range(3)}
    problem = magi.make_problem(model, grid, obs, fits)
    return {"model": model, "times": times, "truth": truth, "obs": obs,
            "grid": grid, "fits": fits, "problem": problem}


@pytest.fixture(scope="session")
def lorenz_small():
    """Small Lorenz problem (fully observed) for gradient tests."""
    from odebench import dynamics, gp, integrate

    model = dynamics.get_model("lorenz")
    times = magi.uniform_grid(0.0, 1.5, 25)
    truth = integrate.integrate_rk45(model.rhs, np.array([5.0, 5.0, 5.0]),
                                     np.array([8.0 / 3.0, 28.0, 10.0]), times)
    rng = np.random.default_rng(5)
    values = truth.values[::4] + 0.3 * rng.standard_normal(truth.values[::4].shape)
    obs = ObservationSet(times=times[::4], values=values)
    grid = magi.DiscretizationGrid.build(times, obs.times)
    fits = {c: gp.gp_smooth_fit(obs.times, values[:, c]) for c in range(3)}
    problem = magi.make_problem(model, grid, obs, fits)
    return {"model": model, "times": times, "truth": truth, "obs": obs,
            "grid": grid, "fits": fits, "problem": problem}


def make_missing_e_problem(n_grid=21, seed=3):
    """SEIR with the first (exposed) component unobserved."""
    from odebench import dynamics, gp, integrate

    model = dynamics.get_model("seir-log")
    times = magi.uniform_grid(0.0, 2.0, n_grid)
    truth = integrate.integrate_rk45(model.rhs, np.log([0.01, 0.01, 0.01]),
                                     np.array([2.0, 0.2, 0.6]), times)
    rng = np.random.default_rng(seed)
    values = truth.values[::4] + 0.1 * rng.standard_normal(truth.values[::4].shape)
    values[:, 0] = np.nan
    obs = ObservationSet(times=times[::4], values=values)
    grid = magi.DiscretizationGrid.build(times, obs.times)
    init = magi.init_missing_components(model, grid, obs, n_iter=500)
    fits = magi.prepare_fits(model, grid, obs, init)
    problem = magi.make_problem(model, grid, obs, fits)
    return model, grid, obs, init, fits, problem


def tiny_regime(**overrides):
    """A miniature SEIR regime for orchestration tests."""
    from dataclasses import replace

    base = expmod.get_regime("seir-full")
    small = replace(
        base,
        name=overrides.pop("name", "seir-full"),
        n_obs=overrides.pop("n_obs", 11),
        n_grid_insample=overrides.pop("n_grid_insample", 21),
        t_end=overrides.pop("t_end", 12.0),
        n_grid_total=overrides.pop("n_grid_total", 41),
        eval_index_lo=overrides.pop("eval_index_lo", 21),
        **overrides,
    )
    return small
