import gc
import json
import math
import weakref
from dataclasses import FrozenInstanceError, replace

import numpy as np
import pytest
from scipy.linalg import cho_solve

from odebench import gp, integrate, magi
from odebench.dynamics import OdeModel, get_model
from odebench.observations import ObservationSet
from odebench.optim import Adam

from conftest import central_fd, make_missing_e_problem, rel_err, tiny_regime


def _state_for(problem, seed=0, q_scale=0.05):
    """A sampler-plausible random (x, theta, log_sigma), perturbed in whitened space."""
    rng = np.random.default_rng(seed)
    init = magi.init_missing_components(problem.model, problem.grid,
                                        problem.observations, n_iter=300)
    log_sigma = np.maximum(problem.log_sigma_init, math.log(1e-3))
    q = problem.whiten(init.x, init.theta, log_sigma)
    q += q_scale * rng.standard_normal(problem.dim)
    return magi._blocks(problem.unwhiten_draws(q[None, :])[0], *problem.sizes)


def _log_post(problem, x, theta, log_sigma):
    """The sampler's target value at the whitened image of (x, theta, log_sigma)."""
    return magi.make_logdensity_whitened(problem)(problem.whiten(x, theta, log_sigma))[0]


def test_whitened_gradient_matches_fd(seir_small, lorenz_small):
    # Every target the sampler sees, including one with a missing component.
    problems = [seir_small["problem"], lorenz_small["problem"], make_missing_e_problem()[-1]]
    for problem in problems:
        target = magi.make_logdensity_whitened(problem)
        q = problem.whiten(*_state_for(problem, seed=1))
        _, grad = target(q)
        fd = central_fd(lambda v: target(v)[0], q)
        assert rel_err(grad, fd, floor=1e-4 * max(1.0, np.max(np.abs(fd)))) < 1e-5


def _dense_operators(fits, times):
    """Per component (mean, chol_K, m = dK K^{-1}, chol_C), m formed densely from
    the kernel matrices, so nothing here reads the problem's stacked arrays."""
    ops = []
    for c in sorted(fits):
        hyper = fits[c].hyper
        dK = gp.kernel_matrices(hyper, times)[1]
        km = gp.build_kernel_mats(hyper, gp.lag_table(times))
        ops.append((hyper.mean, km.chol_K, cho_solve((km.chol_K, True), dK.T).T, km.chol_C))
    return ops


def _prior_and_mech_terms(ops, model, x, theta, times):
    """The GP prior and gradient-matching quadratic forms in x coordinates."""
    fvals = model.rhs(x, theta, times)
    gp_term = mech_term = 0.0
    for c, (mean, chol_K, m, chol_C) in enumerate(ops):
        xc = x[:, c] - mean
        gp_term += float(xc @ cho_solve((chol_K, True), xc))
        resid = fvals[:, c] - m @ xc
        mech_term += float(resid @ cho_solve((chol_C, True), resid))  # C^{-1} r from chol_C
    return gp_term, mech_term


def _obs_part(problem, x, log_sigma):
    """The data misfit and sigma normalization part of the log posterior."""
    grid, obs = problem.grid, problem.observations
    obs_term = norm_term = 0.0
    for j, c in enumerate(problem.observed):
        t_c, y_c = obs.component_values(c)
        diff = y_c - x[np.searchsorted(grid.times, t_c), c]
        obs_term += float(diff @ diff) / math.exp(2.0 * log_sigma[j])
        norm_term += t_c.size * log_sigma[j]
    return -0.5 * obs_term - norm_term


def test_whitened_value_equals_plain_value(seir_small):
    """The whitened target against the value built term by term in x coordinates."""
    problem = seir_small["problem"]
    x, theta, log_sigma = _state_for(problem, seed=3)
    ops = _dense_operators(seir_small["fits"], problem.grid.times)
    gp_term, mech_term = _prior_and_mech_terms(ops, problem.model, x, theta, problem.grid.times)
    expected = -0.5 * (gp_term + mech_term) + _obs_part(problem, x, log_sigma)
    assert rel_err(_log_post(problem, x, theta, log_sigma), expected) < 1e-10


def test_doubling_sigma_identity(seir_small):
    problem = seir_small["problem"]
    x, theta, log_sigma = _state_for(problem, seed=4)
    v1 = _log_post(problem, x, theta, log_sigma)

    j = 1  # second observed component
    c = problem.observed[j]
    t_c, y_c = problem.observations.component_values(c)
    sse = float(np.sum((y_c - x[np.searchsorted(problem.grid.times, t_c), c]) ** 2))
    n_c = t_c.size
    sigma = math.exp(log_sigma[j])

    doubled = log_sigma.copy()
    doubled[j] += math.log(2.0)
    v2 = _log_post(problem, x, theta, doubled)
    expected = 0.5 * (1.0 - 0.25) * sse / sigma**2 - n_c * math.log(2.0)
    assert rel_err(v2 - v1, expected) < 1e-9


def test_observation_order_is_set_semantics(seir_small):
    # The observation container enforces sorted times, so any input ordering
    # reaching the posterior is canonical; identical data gives identical values.
    problem = seir_small["problem"]
    obs = seir_small["obs"]
    rebuilt = ObservationSet(times=obs.times.copy(), values=obs.values.copy())
    problem2 = magi.make_problem(seir_small["model"], seir_small["grid"], rebuilt,
                                 seir_small["fits"])
    state = _state_for(problem, seed=5)
    v1 = _log_post(problem, *state)
    v2 = _log_post(problem2, *state)
    assert v1 == v2
    with pytest.raises(ValueError):
        ObservationSet(times=obs.times[::-1].copy(), values=obs.values.copy())


def test_observed_components_follow_the_values():
    """An all-NaN column is unobserved; a column with some NaN entries stays observed."""
    values = np.arange(12.0).reshape(4, 3)
    values[:, 0] = np.nan
    values[1, 2] = np.nan
    obs = ObservationSet(times=np.arange(4.0), values=values)
    assert obs.n_components == 3
    assert obs.observed_components() == [1, 2]
    assert obs.component_values(2)[1].tolist() == [2.0, 8.0, 11.0]
    with pytest.raises(ValueError, match="not observed"):
        obs.component_values(0)


def _reachable(obj):
    """Every object reachable from obj through instance attributes and containers."""
    seen, stack = {}, [obj]
    while stack:
        o = stack.pop()
        if id(o) in seen:
            continue
        seen[id(o)] = o
        if isinstance(o, dict):
            stack.extend(o.values())
        elif isinstance(o, (list, tuple)):
            stack.extend(o)
        elif hasattr(o, "__dict__") and not callable(o):
            stack.extend(vars(o).values())
    return list(seen.values())


def test_problem_keeps_only_the_three_stacked_kernel_arrays(seir_small, monkeypatch):
    """A problem retains mu, the [L; A] stack and C^{-1}; each kernel bundle is garbage once stacked."""
    predictors = []

    def recording(hyper, table):
        km = gp.build_kernel_mats(hyper, table)
        predictors.append(weakref.ref(km.mL))
        return km

    monkeypatch.setattr(magi, "build_kernel_mats", recording)
    problem = magi.make_problem(seir_small["model"], seir_small["grid"], seir_small["obs"],
                                seir_small["fits"])
    gc.collect()
    m, d = problem.sizes[:2]
    reachable = _reachable(problem)
    values = sum(a.nbytes for a in reachable if isinstance(a, np.ndarray)) // 8
    assert 3 * d * m * m <= values <= 3 * d * m * m + 4 * d * m
    assert not any(isinstance(o, gp.GpKernelMats) for o in reachable)
    assert len(predictors) == d and all(ref() is None for ref in predictors)


def test_make_problem_builds_one_lag_table_and_drops_it(seir_small, monkeypatch):
    tables = []

    def recording(times):
        table = gp.lag_table(times)
        tables.append([weakref.ref(a) for a in table])
        return table

    monkeypatch.setattr(magi, "lag_table", recording)
    problem = magi.make_problem(seir_small["model"], seir_small["grid"], seir_small["obs"],
                                seir_small["fits"])
    gc.collect()
    assert problem.sizes[1] == 3 and len(tables) == 1
    assert all(ref() is None for ref in tables[0])


def test_missing_component_bookkeeping():
    model, grid, obs, init, fits, problem = make_missing_e_problem()
    assert problem.observed == [1, 2]
    q = problem.whiten(init.x, init.theta, np.array([-2.0, -2.0]))
    assert q.size == grid.size * 3 + 3 + 2
    _, grad = magi.make_logdensity_whitened(problem)(q)
    assert grad.size == problem.dim
    assert np.all(np.isfinite(init.x))


def test_mech_term_ignores_missingness_mask(seir_small):
    """Masking a component's data must not change the mechanistic term."""
    model = seir_small["model"]
    grid = seir_small["grid"]
    obs = seir_small["obs"]
    fits = seir_small["fits"]
    values = obs.values.copy()
    values[:, 0] = np.nan
    obs_masked = ObservationSet(times=obs.times, values=values)
    problem_full = seir_small["problem"]
    problem_masked = magi.make_problem(model, grid, obs_masked, fits)

    x, theta, log_sigma = _state_for(problem_full, seed=6)

    def prior_and_mech(problem, log_sigma):
        """-(gp_term + mech_term) / 2 of the target: its value without the data part."""
        return _log_post(problem, x, theta, log_sigma) - _obs_part(problem, x, log_sigma)

    ops = _dense_operators(fits, grid.times)
    expected = -0.5 * sum(_prior_and_mech_terms(ops, model, x, theta, grid.times))
    full = prior_and_mech(problem_full, log_sigma)
    assert full == pytest.approx(prior_and_mech(problem_masked, log_sigma[1:]), rel=1e-12)
    assert full == pytest.approx(expected, rel=1e-10)


def test_huge_sigma_leaves_mech_term_in_charge(seir_small):
    """At sigma -> large the theta profile is governed by the mechanistic term."""
    problem = seir_small["problem"]
    x, theta, log_sigma = _state_for(problem, seed=7)

    def value_at(beta, log_sigma_val):
        th = theta.copy()
        th[0] = beta
        return _log_post(problem, x, th, np.full_like(log_sigma, log_sigma_val))

    # sigma at the top of its prior box: the data term shrinks to nothing
    betas = np.linspace(0.5, 4.0, 29)
    with_data = [value_at(b, magi.LOG_SIGMA_HI) for b in betas]

    # Mechanistic + GP objective only (no observation terms).
    ops = _dense_operators(seir_small["fits"], problem.grid.times)

    def mech_only(beta):
        th = theta.copy()
        th[0] = beta
        return -0.5 * sum(_prior_and_mech_terms(ops, problem.model, x, th, problem.grid.times))

    without_data = [mech_only(b) for b in betas]
    assert np.argmax(with_data) == np.argmax(without_data)


def test_init_fully_observed_uses_splines(seir_small):
    model = seir_small["model"]
    grid = seir_small["grid"]
    obs = seir_small["obs"]
    init = magi.init_missing_components(model, grid, obs, n_iter=400)
    from odebench.magi import _interp_and_smooth

    for c in range(3):
        t_obs, y_obs = obs.component_values(c)
        expected = _interp_and_smooth(t_obs, y_obs, grid.times)
        assert np.allclose(init.x[:, c], expected)
    assert init.flags == ()
    assert np.all(init.theta > 0)


@pytest.mark.parametrize("regime_name, n_obs", [("seir-full", 41), ("seir-full", 21),
                                                ("lorenz-chaotic", 81)])
def test_interp_and_smooth_matches_scipy_gcv_spline(regime_name, n_obs):
    """The closed-form GCV spline against scipy's make_smoothing_spline at its own GCV lambda."""
    from scipy.interpolate import make_smoothing_spline

    from odebench import experiments as E

    regime = replace(E.get_regime(regime_name), n_obs=n_obs)
    grid_t = regime.insample_times()
    for rep in range(4):
        data = E.simulate_dataset(regime, E.dataset_seed(0, regime, rep))
        for c in data.observed_components():
            t, y = data.component_values(c)
            assert t.size == n_obs
            reference = make_smoothing_spline(t, y)(grid_t)
            miss = np.max(np.abs(magi._interp_and_smooth(t, y, grid_t) - reference))
            assert miss <= 1e-5 * y.std(), (rep, c, miss / y.std())


def test_interp_and_smooth_degenerate_data_keeps_linear(monkeypatch):
    # A non-finite value leaves no finite fit; a repeated time leaves the
    # Reinsch penalty without an eigenbasis.  Both keep the linear start.
    t = magi.uniform_grid(0.0, 1.0, 8)
    grid_t = magi.uniform_grid(0.0, 1.0, 29)
    cases = [(t, np.where(t > 0.5, np.nan, np.sin(t))),
             (t, np.where(t > 0.5, np.inf, np.sin(t))),
             (np.r_[t[:4], t[3:7]], np.sin(t))]
    for obs_t, obs_y in cases:
        assert np.array_equal(magi._interp_and_smooth(obs_t, obs_y, grid_t),
                              np.interp(grid_t, obs_t, obs_y), equal_nan=True)

    # A defect in the smoothing code is raised, not turned into a linear start.
    def broken(obs_t, obs_y):
        raise IndexError("defect")

    monkeypatch.setattr(magi, "_gcv_smoothed_values", broken)
    with pytest.raises(IndexError):
        magi._interp_and_smooth(t, np.sin(t), grid_t)


def test_init_gradient_matching_on_clean_lorenz():
    model = get_model("lorenz")
    theta_true = np.array([8.0 / 3.0, 28.0, 10.0])
    times = magi.uniform_grid(0.0, 2.0, 161)
    truth = integrate.integrate_rk45(model.rhs, np.array([5.0, 5.0, 5.0]), theta_true, times)
    obs = ObservationSet(times=times, values=truth.values)
    grid = magi.DiscretizationGrid.build(times, obs.times)
    init = magi.init_missing_components(model, grid, obs, n_iter=4000)
    for j in range(3):
        assert abs(init.theta[j] - theta_true[j]) / theta_true[j] < 0.01


@pytest.mark.parametrize("times", [
    magi.uniform_grid(0.0, 6.0, 161),
    magi.uniform_grid(0.0, 12.0, 321),
    np.sort(np.random.default_rng(4).uniform(0.0, 3.0, 40)),
    np.array([0.0, 0.7]),
], ids=["161", "321", "uneven", "two-point"])
def test_diff_matrices_equal_the_row_loop(times):
    m = times.size
    d1, d2 = np.zeros((m, m)), np.zeros((m, m))
    h = np.diff(times)
    d1[0, 0], d1[0, 1] = -1.0 / h[0], 1.0 / h[0]
    d1[-1, -2], d1[-1, -1] = -1.0 / h[-1], 1.0 / h[-1]
    for i in range(1, m - 1):
        span = times[i + 1] - times[i - 1]
        d1[i, i - 1], d1[i, i + 1] = -1.0 / span, 1.0 / span
        hm, hp = h[i - 1], h[i]
        denom = 0.5 * hm * hp * (hm + hp)
        d2[i, i - 1], d2[i, i], d2[i, i + 1] = hp / denom, -(hm + hp) / denom, hm / denom
    if m > 2:
        d2[0], d2[-1] = d2[1], d2[-2]
    got1, got2 = magi._diff_matrices(times)
    assert np.array_equal(got1, d1) and np.array_equal(got2, d2)


def _matching_objective(model, x, times):
    """Gradient-matching objective in theta for a fixed path, and its gradient."""
    xdot = magi._diff_matrices(times)[0] @ x

    def objective(theta):
        resid = xdot - model.rhs(x, theta, times)
        grad = -2.0 * np.einsum("mc,mcp->p", resid, model.jac_param(x, times))
        return float((resid * resid).sum()), grad

    return objective


def _adam_theta(model, objective, n_iter=3000, lr=0.01):
    """Theta from Adam on the same objective, positive parameters on log scale."""
    pos = np.asarray(model.positive_params, dtype=bool)
    u = np.where(pos, 0.0, 1.0)  # theta = 1
    adam = Adam(u, lr=lr)
    for _ in range(n_iter):
        theta = np.where(pos, np.exp(u), u)
        grad = objective(theta)[1]
        adam.step(u, np.where(pos, grad * theta, grad))
    return np.where(pos, np.exp(u), u)


@pytest.mark.parametrize("fixture", ["seir_small", "lorenz_small"])
def test_init_fully_observed_solves_theta(fixture, request):
    # With every component observed, theta minimizes the matching objective
    # over the box: its projected gradient vanishes, and no worse than Adam.
    f = request.getfixturevalue(fixture)
    model, times = f["model"], f["grid"].times
    init = magi.init_missing_components(model, f["grid"], f["obs"])
    objective = _matching_objective(model, init.x, times)
    lo, hi = np.array(model.theta_box).T
    assert np.all((init.theta >= lo) & (init.theta <= hi))
    value, grad = objective(init.theta)
    grad[(init.theta <= lo) & (grad > 0)] = 0.0
    grad[(init.theta >= hi) & (grad < 0)] = 0.0
    assert np.linalg.norm(grad) <= 1e-8 * np.linalg.norm(objective(np.ones(model.param_dim))[1])
    assert value <= objective(_adam_theta(model, objective))[0]


def test_init_fully_observed_nan_rhs_falls_back():
    nan_model = OdeModel(
        name="nan-1d",
        component_names=("x",),
        param_names=("theta",),
        rhs=lambda x, th, t: np.full(np.shape(x), np.nan),
        vjp=lambda x, th, t, w: (np.full(np.shape(x), np.nan), np.full(1, np.nan)),
        jac_param=lambda x, t: np.full(np.shape(x) + (1,), np.nan),
        theta_box=((1e-6, 100.0),),
        log_states=False,
        oscillatory=False,
    )
    times = magi.uniform_grid(0.0, 1.0, 11)
    obs = ObservationSet(times=times, values=np.exp(-times)[:, None])
    grid = magi.DiscretizationGrid.build(times, obs.times)
    with pytest.warns(UserWarning, match="constant fallback"):
        init = magi.init_missing_components(nan_model, grid, obs)
    assert init.flags == ("init-fallback-constant",)
    assert np.array_equal(init.theta, np.ones(1))
    assert np.array_equal(init.x[:, 0], magi._interp_and_smooth(times, np.exp(-times), times))


def test_init_missing_e_is_finite():
    model, grid, obs, init, fits, problem = make_missing_e_problem(n_grid=41, seed=9)
    assert np.all(np.isfinite(init.x))
    assert np.all(np.isfinite(init.theta))


def test_grid_exact_membership():
    times = magi.uniform_grid(0.0, 12.0, 321)
    insample = times[:161]
    obs_times = insample[::4]
    grid = magi.DiscretizationGrid.build(times, obs_times)
    assert grid.obs_index.tolist() == list(range(0, 161, 4))
    with pytest.raises(ValueError):
        magi.DiscretizationGrid.build(times, np.array([0.0375 / 2]))


def test_seir_extended_grid_spacing():
    times = magi.uniform_grid(0.0, 12.0, 321)
    assert times.size == 321
    spacing = np.diff(times)
    assert np.allclose(spacing, 0.0375, rtol=0, atol=1e-12)
    # first 161 points span the observation window
    assert times[160] == pytest.approx(6.0, abs=1e-12)


def test_linear_ode_posterior_recovery():
    """Easy conjugate-like case: dense low-noise data on x' = -theta x."""
    decay = OdeModel(
        name="decay-1d",
        component_names=("x",),
        param_names=("theta",),
        rhs=lambda x, th, t: -th[0] * x,
        vjp=lambda x, th, t, w: (-th[0] * w, np.array([-np.sum(w * x)])),
        jac_param=lambda x, t: -np.asarray(x)[..., None],
        theta_box=((1e-6, 100.0),),
        log_states=False,
        oscillatory=False,
    )
    theta_true = 0.8
    times = magi.uniform_grid(0.0, 3.0, 41)
    truth = np.exp(-theta_true * times)[:, None] * 2.0
    rng = np.random.default_rng(0)
    values = truth[::2] + 0.01 * rng.standard_normal(truth[::2].shape)
    obs = ObservationSet(times=times[::2], values=values)
    grid = magi.DiscretizationGrid.build(times, obs.times)
    init = magi.init_missing_components(decay, grid, obs, n_iter=800)
    fits = magi.prepare_fits(decay, grid, obs, init)
    problem = magi.make_problem(decay, grid, obs, fits)
    post = magi.run_inference(problem, init.x, init.theta, problem.log_sigma_init, init.flags,
                              n_warmup=800, n_samples=800, seed=5)
    theta_draws = post.theta_draws()[:, 0]
    sd = theta_draws.std()
    assert abs(post.theta_mean[0] - theta_true) < 3.0 * max(sd, 1e-3)


def test_run_inference_determinism(seir_small):
    problem = seir_small["problem"]
    init = magi.init_missing_components(seir_small["model"], seir_small["grid"],
                                        seir_small["obs"], n_iter=200)
    a = magi.run_inference(problem, init.x, init.theta, problem.log_sigma_init, init.flags,
                           n_warmup=50, n_samples=50, seed=9)
    b = magi.run_inference(problem, init.x, init.theta, problem.log_sigma_init, init.flags,
                           n_warmup=50, n_samples=50, seed=9)
    assert np.array_equal(a.draws, b.draws)
    assert np.array_equal(a.theta_ci, b.theta_ci)


def test_target_box_is_closed_on_every_theta_and_log_sigma(seir_small, lorenz_small):
    """Each theta and log sigma exactly on a bound of its prior box scores
    finitely; one float step past the bound scores -inf with a zero gradient."""
    for problem in (seir_small["problem"], lorenz_small["problem"],
                    make_missing_e_problem()[-1]):
        target = magi.make_logdensity_whitened(problem)
        point = problem.whiten(*_state_for(problem))
        bounds = (list(problem.model.theta_box)
                  + [(magi.LOG_SIGMA_LO, magi.LOG_SIGMA_HI)] * len(problem.observed))
        first = problem.dim - len(bounds)  # the packed tail is theta || log sigma
        for k, (lo, hi) in enumerate(bounds):
            for bound, outward in ((lo, -np.inf), (hi, np.inf)):
                probe = point.copy()
                probe[first + k] = bound
                assert np.isfinite(target(probe)[0]), (k, bound)
                probe[first + k] = np.nextafter(bound, outward)
                value, grad = target(probe)
                assert value == -np.inf and not grad.any(), (k, bound)


def test_run_inference_rejects_theta_outside_box(seir_small):
    problem = seir_small["problem"]
    theta_hi = np.array(problem.model.theta_box)[:, 1]
    init = magi.InitResult(x=seir_small["truth"].values, theta=theta_hi + 1.0)
    with pytest.raises(ValueError):
        magi.run_inference(problem, init.x, init.theta, problem.log_sigma_init, init.flags,
                           n_warmup=5, n_samples=5, seed=0)


def test_prior_driven_run_stays_finite():
    """No observations at all: the GP prior plus mechanism keeps draws finite."""
    model = get_model("lorenz")
    times = magi.uniform_grid(0.0, 1.0, 17)
    obs = ObservationSet(times=np.empty(0), values=np.empty((0, 3)))
    hyper = gp.MaternHyper(amplitude=5.0, lengthscale=0.5)
    fits = {c: gp.GpFit(hyper=hyper, noise_sd=0.5) for c in range(3)}
    grid = magi.DiscretizationGrid.build(times, obs.times)
    problem = magi.make_problem(model, grid, obs, fits)
    init = magi.InitResult(x=np.zeros((17, 3)) + 0.1, theta=np.array([2.0, 20.0, 8.0]))
    with pytest.warns(UserWarning, match="divergence rate"):
        post = magi.run_inference(problem, init.x, init.theta, problem.log_sigma_init,
                                  init.flags, n_warmup=100, n_samples=100, seed=3)
    assert np.all(np.isfinite(post.x_mean))
    assert any(flag.startswith("high-divergence-rate:") for flag in post.flags)


def test_posterior_samples_roundtrip(tmp_path, seir_small):
    """What ``save`` writes reads back, by the sidecar alone, as the record's draws."""
    problem = seir_small["problem"]
    init = magi.init_missing_components(seir_small["model"], seir_small["grid"],
                                        seir_small["obs"], n_iter=200)
    post = magi.run_inference(problem, init.x, init.theta, problem.log_sigma_init,
                              init.flags, n_warmup=30, n_samples=40, seed=2)
    with pytest.raises(FrozenInstanceError):
        post.flags = ()
    assert np.array_equal(post.x_deriv_mean, magi.gp_gradient_estimate(problem, post.x_mean))
    prefix = str(tmp_path / "post")
    post.save(prefix, "abc123")
    with open(prefix + ".json") as fh:
        meta = json.load(fh)
    draws = np.fromfile(prefix + ".bin", dtype=np.float64).reshape(meta["n_samples"],
                                                                   meta["dim"])
    assert np.array_equal(draws, post.draws)
    assert meta == {
        "n_samples": 40, "dim": post.draws.shape[1], "grid_size": post.grid_times.size,
        "state_dim": 3, "component_names": list(post.component_names),
        "param_names": list(post.param_names),
        "sigma_components": list(post.sigma_components),
        "grid_times": post.grid_times.tolist(), "seed": 2, "config_hash": "abc123",
        "flags": list(post.flags), "step_size": post.step_size,
        "divergence_count": post.divergence_count,
    }
    summary = (tmp_path / "post_summary.csv").read_text().splitlines()
    assert summary[0] == "kind,name,time,mean,q025,q975"
    assert len(summary) == 1 + post.grid_times.size * 3 + 3 + 3
    theta_rows = [line.split(",") for line in summary if line.startswith("theta,")]
    assert [row[1] for row in theta_rows] == list(post.param_names)
    assert np.array_equal([[float(v) for v in row[3:]] for row in theta_rows],
                          np.column_stack([post.theta_mean, post.theta_ci]))


@pytest.mark.filterwarnings("ignore::UserWarning")
def test_extended_forecast_keeps_every_init_flag(monkeypatch):
    """A failed continuation is flagged even when the initializer flags too."""
    from odebench import experiments as E

    regime = tiny_regime()
    obs = E.simulate_dataset(regime, 0)
    real_init, real_continue = magi.init_missing_components, magi._continue_past

    def flagged_init(*args, **kwargs):
        init = real_init(*args, **kwargs)
        return magi.InitResult(x=init.x, theta=init.theta, flags=("init-fallback-constant",))

    monkeypatch.setattr(magi, "init_missing_components", flagged_init)
    monkeypatch.setattr(magi, "_continue_past",
                        lambda *args: (real_continue(*args)[0], False))
    post = magi.forecast_extended_grid(regime.model(), regime.master_times(),
                                       regime.n_grid_insample, obs, n_warmup=5, n_samples=5,
                                       seed=0, init_budget=50)
    assert post.flags[:2] == ("init-fallback-constant", "forecast-init-constant")


@pytest.mark.filterwarnings("ignore::UserWarning")
def test_insample_fit_makes_no_integration(monkeypatch):
    """With no rows past the in-sample ones, fit_magi never integrates."""
    from odebench import experiments as E

    regime = tiny_regime()
    obs = E.simulate_dataset(regime, 0)

    def no_integration(*args, **kwargs):
        raise AssertionError("an in-sample fit integrated the ODE")

    monkeypatch.setattr(magi, "integrate_rk45", no_integration)
    post = magi.fit_magi(regime.model(), regime.insample_times(), regime.n_grid_insample, obs,
                         n_warmup=5, n_samples=5, seed=0, init_budget=50)
    assert post.grid_times.size == regime.n_grid_insample


@pytest.mark.filterwarnings("ignore::UserWarning")
def test_gp_fit_flag_reaches_the_run():
    """A flat observed component makes its GP fit flag; the run carries it."""
    model = get_model("lorenz")
    times = magi.uniform_grid(0.0, 1.0, 11)
    truth = integrate.integrate_rk45(model.rhs, np.array([5.0, 5.0, 5.0]),
                                     np.array([8.0 / 3.0, 28.0, 10.0]), times)
    values = truth.values.copy()
    values[:, 2] = 3.0
    obs = ObservationSet(times=times, values=values)
    post = magi.fit_magi(model, times, times.size, obs, n_warmup=10, n_samples=10, seed=0,
                         init_budget=50)
    assert "degenerate-flat-data" in post.flags
