"""Fast finite-difference and oracle suites runnable from the CLI.

Each check returns (name, passed, detail); the CLI prints one line per
check.  These deliberately overlap the unit-test suite so a deployed
installation can validate its numerical kernels without pytest.
"""

from __future__ import annotations

import numpy as np
from scipy.integrate import solve_ivp

from . import dynamics, experiments, gp, integrate, magi, pinn, sampler
from .observations import ObservationSet

__all__ = ["central_difference_gradient", "relative_agreement", "run_selfcheck"]


def central_difference_gradient(f, x: np.ndarray, h: float = 1e-3) -> np.ndarray:
    """Richardson-extrapolated central differences of a scalar function of a flat vector.

    With D(s) = (f(x + s e_i) - f(x - s e_i)) / (2 s), each component is
    (4 D(h/2) - D(h)) / 3, which cancels the O(h^2) truncation term.  The
    truncation error is O(h^4), so h can be large enough that round-off in
    f (relative 1e-16 of |f|, divided by h) stays far below the gradient.
    """
    x = np.asarray(x, dtype=float)
    grad = np.empty_like(x)

    def central(i, step):
        xp, xm = x.copy(), x.copy()
        xp[i] += step
        xm[i] -= step
        return (f(xp) - f(xm)) / (2.0 * step)

    for i in range(x.size):
        grad[i] = (4.0 * central(i, 0.5 * h) - central(i, h)) / 3.0
    return grad


def relative_agreement(a: np.ndarray, b: np.ndarray, floor: float = 1e-8) -> float:
    """Max elementwise |a-b| / max(|a|, |b|, scale floor)."""
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    scale = np.maximum(np.maximum(np.abs(a), np.abs(b)),
                       floor * max(1.0, float(np.max(np.abs(b), initial=1.0))))
    return float(np.max(np.abs(a - b) / scale))


def _check_dynamics_jacobians() -> tuple[bool, str]:
    rng = np.random.default_rng(11)
    worst = 0.0
    for model in (dynamics.get_model("seir-log"), dynamics.get_model("lorenz")):
        for _ in range(20):
            if model.name == "seir-log":
                x = rng.uniform(-5.0, -1.0, size=3)
                theta = rng.uniform(0.2, 3.0, size=3)
            else:
                x = rng.uniform(-10.0, 10.0, size=3)
                theta = np.array([rng.uniform(1, 4), rng.uniform(10, 30), rng.uniform(5, 15)])
            jt = model.jac_param(x, theta, 0.0)
            for c, e_c in enumerate(np.eye(3)):
                # The unit cotangent e_c picks row c of both Jacobians.
                x_bar, theta_bar = model.vjp(x, theta, 0.0, e_c)
                fd_x = central_difference_gradient(lambda v: model.rhs(v, theta, 0.0)[c], x)
                fd_t = central_difference_gradient(lambda v: model.rhs(x, v, 0.0)[c], theta)
                worst = max(worst, relative_agreement(x_bar, fd_x, floor=1e-5),
                            relative_agreement(jt[c], fd_t, floor=1e-5),
                            relative_agreement(theta_bar, jt[c], floor=1e-5))
    return worst < 1e-5, f"max rel err {worst:.2e}"


def truth_error_vs_dop853(regime: experiments.RegimeSpec) -> float:
    """Max |ground_truth(regime) - reference| on the master grid, where the
    reference is scipy's DOP853 at rtol 1e-13, atol 1e-15."""
    times = regime.master_times()
    rhs = regime.model().rhs
    theta = np.array(regime.theta_true)
    ref = solve_ivp(lambda t, y: rhs(y, theta, t), (times[0], times[-1]), np.array(regime.x0),
                    method="DOP853", t_eval=times, rtol=1e-13, atol=1e-15)
    return float(np.max(np.abs(experiments.ground_truth(regime).values - ref.y.T)))


def _check_integrator() -> tuple[bool, str]:
    times = np.linspace(0.0, 1.0, 11)
    traj = integrate.integrate_rk45(lambda x, p, t: -x, np.array([1.0]), np.zeros(1), times)
    err1 = float(np.max(np.abs(traj.values[:, 0] - np.exp(-times))))
    peak_grid = magi.uniform_grid(0.0, 1.0, 1001)
    bump = integrate.integrate_rk45(lambda x, p, t: (1.0 - 2.0 * t) * x, np.array([1.0]),
                                    np.zeros(1), peak_grid)
    peak_t = float(peak_grid[np.argmax(bump.values[:, 0])])
    # The truth comes from scipy's RK45, so check it on the installed scipy.
    err2 = truth_error_vs_dop853(experiments.get_regime("seir-full"))
    ok = err1 < 1e-6 and abs(peak_t - 0.5) < 2e-3 and err2 < 1e-9
    return ok, f"decay err {err1:.1e}, peak at {peak_t:.3f}, seir-full truth err {err2:.1e}"


def fd_kernel_matrices(hyper, grid: np.ndarray, h: float = 1e-5):
    """(dK, Kd, ddK) from central differences of the plain kernel values."""
    def k(s, t):
        return gp.matern_eval(hyper, s, t)

    m = grid.size
    dK = np.empty((m, m))
    Kd = np.empty((m, m))
    ddK = np.empty((m, m))
    for i, s in enumerate(grid):
        for j, t in enumerate(grid):
            dK[i, j] = (k(s + h, t) - k(s - h, t)) / (2 * h)
            Kd[i, j] = (k(s, t + h) - k(s, t - h)) / (2 * h)
            ddK[i, j] = (k(s + h, t + h) - k(s + h, t - h)
                         - k(s - h, t + h) + k(s - h, t - h)) / (4 * h * h)
    return dK, Kd, ddK


def matrix_relative_error(a: np.ndarray, b: np.ndarray) -> float:
    """max |a - b| scaled by the magnitude of the reference matrix b."""
    return float(np.max(np.abs(a - b)) / np.max(np.abs(b)))


def _check_kernel_derivatives() -> tuple[bool, str]:
    rng = np.random.default_rng(5)
    grid = np.linspace(0.0, 2.0, 10)
    worst = 0.0
    for _ in range(5):
        hyper = gp.MaternHyper(amplitude=rng.uniform(0.5, 3.0),
                               lengthscale=rng.uniform(0.3, 2.0))
        _, dK, Kd, ddK = gp.kernel_matrices(hyper, grid)
        fd_dK, fd_Kd, fd_ddK = fd_kernel_matrices(hyper, grid)
        worst = max(worst,
                    matrix_relative_error(dK, fd_dK),
                    matrix_relative_error(Kd, fd_Kd),
                    matrix_relative_error(ddK, fd_ddK))
    return worst < 1e-4, f"max matrix-rel err {worst:.2e}"


def _small_seir_problem():
    model = dynamics.get_model("seir-log")
    times = magi.uniform_grid(0.0, 2.0, 21)
    truth = integrate.integrate_rk45(model.rhs, np.log([0.01, 0.01, 0.01]),
                                     np.array([2.0, 0.2, 0.6]), times)
    rng = np.random.default_rng(3)
    values = truth.values[::4] + 0.1 * rng.standard_normal(truth.values[::4].shape)
    obs = ObservationSet(times=times[::4], values=values, mask=(True, True, True))
    grid = magi.DiscretizationGrid.build(times, obs.times)
    fits = {c: gp.gp_smooth_fit(obs.times, values[:, c]) for c in range(3)}
    return magi.make_problem(model, grid, obs, fits), truth


def _check_posterior_gradient() -> tuple[bool, str]:
    """The sampler's target, in whitened q."""
    problem, truth = _small_seir_problem()
    rng = np.random.default_rng(7)
    q = problem.whiten(truth.values + 0.05 * rng.standard_normal(truth.values.shape),
                       np.array([1.8, 0.25, 0.5]), np.array([-2.0, -2.1, -1.9]))
    target = magi.make_sampler_target(problem)
    _, grad_q = target(q)
    fd_q = central_difference_gradient(lambda v: target(v)[0], q)
    err_q = relative_agreement(grad_q, fd_q, floor=1e-6)
    return err_q < 1e-5, f"max rel err {err_q:.2e} (sampler target)"


def _check_pinn_gradient() -> tuple[bool, str]:
    model = dynamics.get_model("lorenz")
    times = np.linspace(0.0, 1.0, 9)
    rng = np.random.default_rng(2)
    obs = ObservationSet(times=times[::2], values=rng.standard_normal((5, 3)),
                         mask=(True, True, True))
    grid = magi.DiscretizationGrid.build(times, obs.times)
    net = pinn.init_mlp([1, 4, 4, 3], 0.0, 1.0, seed=4)  # two hidden layers: a hidden-to-hidden layer
    theta = np.array([2.0, 20.0, 8.0])

    loss = pinn.PinnLoss.build(model, obs, grid, 10.0, net.widths)
    flat0 = np.concatenate([w.ravel() for w in net.weights] + net.biases + [theta])

    def loss_of(flat):
        weights, biases, theta_v = pinn._views(flat, net.widths)
        tmp = pinn.MlpNet(weights=weights, biases=biases, t_lo=0.0, t_hi=1.0)
        total, _, _ = loss(tmp, theta_v)
        return total

    grad = np.empty_like(flat0)
    loss(net, theta, grad)
    fd = central_difference_gradient(loss_of, flat0)
    err = relative_agreement(grad, fd, floor=1e-6)
    return err < 1e-5, f"max rel err {err:.2e}"


def _check_sampler_determinism() -> tuple[bool, str]:
    def target(q):
        return -0.5 * float(q @ q), -q

    cfg = sampler.NutsConfig(n_warmup=200, n_samples=200, seed=99)
    a = sampler.nuts_sample(target, np.zeros(3), cfg)
    b = sampler.nuts_sample(target, np.zeros(3), cfg)
    same = bool(np.array_equal(a.draws, b.draws))
    return same, "identical draws" if same else "draws differ"


def run_selfcheck() -> list[tuple[str, bool, str]]:
    checks = [
        ("dynamics-jacobians", _check_dynamics_jacobians),
        ("integrator-oracles", _check_integrator),
        ("kernel-derivatives", _check_kernel_derivatives),
        ("posterior-gradient", _check_posterior_gradient),
        ("pinn-nested-gradient", _check_pinn_gradient),
        ("sampler-determinism", _check_sampler_determinism),
    ]
    results = []
    for name, fn in checks:
        try:
            ok, detail = fn()
        except Exception as exc:
            ok, detail = False, f"raised {type(exc).__name__}: {exc}"
        results.append((name, ok, detail))
    return results
