"""Manifold-constrained Gaussian process inference over ODE trajectories.

The joint log-posterior over (trajectory values on the discretization grid,
ODE parameters, per-component noise scales) combines, per component:

  * a GP prior quadratic form on the centered trajectory,
  * the Gaussian observation error with its sigma normalization, and
  * a gradient-matching quadratic form between the ODE right-hand side and
    the conditional mean of the GP derivative, weighted by the conditional
    covariance of that derivative.

Sampling is delegated to the NUTS chain in :mod:`odebench.sampler`.  The
three protocols share one path: ``_insample_setup`` builds the in-sample
grid, the gradient-matching initializer and the GP fits; ``run_inference``
starts a chain from an initializer and ``_sample_posterior`` runs NUTS and
wraps the draws in ``PosteriorSamples``, which derives every summary from
them.  ``fit_magi`` is the in-sample protocol.
``forecast_extended_grid`` (epidemic testbed) extends the grid past the
data; ``forecast_sequential`` (chaotic testbed) starts with ``fit_magi`` and
then grows the horizon stage by stage from the last draw.  Both forecasts
continue trajectories past a boundary with ``_continue_past``, and all three
return ``PosteriorSamples``.
"""

from __future__ import annotations

import json
import math
import warnings
from dataclasses import dataclass, replace
from functools import cached_property

import numpy as np
from scipy.interpolate import make_smoothing_spline
from scipy.linalg import solve_triangular
from scipy.optimize import least_squares

from .dynamics import OdeModel
from .gp import GpFit, GpKernelMats, build_kernel_mats, gp_smooth_fit
from .integrate import IntegrationError, integrate_rk45
from .observations import ObservationSet
from .optim import Adam
from .sampler import CompiledTarget, NutsConfig, nuts_sample

__all__ = [
    "DiscretizationGrid",
    "MagiProblem",
    "InitResult",
    "PosteriorSamples",
    "uniform_grid",
    "make_problem",
    "init_missing_components",
    "run_inference",
    "fit_magi",
    "forecast_extended_grid",
    "forecast_sequential",
    "gp_gradient_estimate",
]

LOG_SIGMA_LO = math.log(1e-6)
LOG_SIGMA_HI = math.log(1e3)
INIT_LR = 0.01  # Adam step of the gradient-matching initializer
INIT_CURVATURE_WEIGHT = 1e-3  # its smoothness penalty on the missing components


def uniform_grid(t0: float, t1: float, n: int) -> np.ndarray:
    """n evenly spaced points on [t0, t1], built by integer subdivision."""
    if n < 2 or t1 <= t0:
        raise ValueError("need n >= 2 and t1 > t0")
    return t0 + (t1 - t0) * np.arange(n) / (n - 1)


@dataclass(frozen=True)
class DiscretizationGrid:
    """Constraint-enforcement times I plus exact positions of the observations."""

    times: np.ndarray
    obs_index: np.ndarray

    def __post_init__(self):
        times = np.asarray(self.times, dtype=float)
        obs_index = np.asarray(self.obs_index, dtype=int)
        object.__setattr__(self, "times", times)
        object.__setattr__(self, "obs_index", obs_index)
        if np.any(np.diff(times) <= 0):
            raise ValueError("grid times must be strictly increasing")

    @classmethod
    def build(cls, times: np.ndarray, obs_times: np.ndarray) -> "DiscretizationGrid":
        """Locate each of obs_times in the grid, requiring exact membership."""
        times = np.asarray(times, dtype=float)
        obs_times = np.asarray(obs_times, dtype=float)
        idx = np.searchsorted(times, obs_times)
        ok = (idx < times.size) & (times[np.minimum(idx, times.size - 1)] == obs_times)
        if not np.all(ok):
            bad = obs_times[~ok]
            raise ValueError(f"times not exact members of the grid: {bad[:3]}")
        return cls(times=times, obs_index=idx)

    @property
    def size(self) -> int:
        return self.times.size


def _blocks(packed: np.ndarray, m: int, d: int,
            p: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Views of the trajectory (..., M, D), theta and log-sigma blocks.

    The packed layout is ``[x (M x D, row-major) | theta (P) | log sigma]``,
    for one point (a vector) or one per row (a draws matrix).  The trajectory
    block holds x or, in the sampler's coordinates, the whitened q.
    """
    traj = packed[..., : m * d].reshape(*packed.shape[:-1], m, d)
    return traj, packed[..., m * d : m * d + p], packed[..., m * d + p :]


class MagiProblem:
    """Immutable bundle of model, grid, data and per-component kernel matrices."""

    def __init__(
        self,
        model: OdeModel,
        grid: DiscretizationGrid,
        observations: ObservationSet,
        kernels: list[GpKernelMats],
        noise_sd_init: dict[int, float],
    ):
        if len(kernels) != model.state_dim:
            raise ValueError("need one kernel bundle per state component")
        for km in kernels:
            if km.grid.size != grid.size or not np.array_equal(km.grid, grid.times):
                raise ValueError("all kernel bundles must live on the problem grid")
        if observations.n_components != model.state_dim:
            raise ValueError("observation set dimensionality mismatch")
        self.model = model
        self.grid = grid
        self.observations = observations
        self.kernels = kernels
        self.observed = observations.observed_components()
        self.noise_sd_init = dict(noise_sd_init)

        m_sz = grid.size
        d = model.state_dim
        self.mu = np.array([km.hyper.mean for km in kernels])
        self.Cinv = np.stack([km.Cinv() for km in kernels])
        self.mmat = np.stack([km.m for km in kernels])
        self.mmat_T = np.ascontiguousarray(self.mmat.transpose(0, 2, 1))
        # Lower Cholesky factors of K: the sampler works in whitened
        # coordinates q with x = mu + L q, so the GP prior is isotropic.
        self.Lmat = np.stack([np.tril(km.chol_K[0]) for km in kernels])

        # Per observed component: grid rows with usable data and the values.
        self.obs_rows: list[np.ndarray] = []
        self.obs_vals: list[np.ndarray] = []
        self.obs_counts: list[int] = []
        for c in self.observed:
            col = observations.values[:, c]
            keep = ~np.isnan(col)
            self.obs_rows.append(grid.obs_index[keep])
            self.obs_vals.append(col[keep])
            self.obs_counts.append(int(keep.sum()))

        lo = np.array([b[0] for b in model.theta_box])
        hi = np.array([b[1] for b in model.theta_box])
        self.theta_lo, self.theta_hi = lo, hi
        self.sizes = (m_sz, d, model.param_dim)  # (M, D, P) of the packed layout
        self.dim = m_sz * d + model.param_dim + len(self.observed)

    def whiten(self, x: np.ndarray, theta: np.ndarray, log_sigma: np.ndarray) -> np.ndarray:
        """The packed sampler point: q with x = mu + L q per component, theta, log sigma."""
        packed = np.empty(self.dim)
        q, packed_theta, packed_log_sigma = _blocks(packed, *self.sizes)
        for c in range(self.model.state_dim):
            q[:, c] = solve_triangular(self.Lmat[c], x[:, c] - self.mu[c], lower=True)
        packed_theta[...] = theta
        packed_log_sigma[...] = log_sigma
        return packed

    def unwhiten_draws(self, draws: np.ndarray) -> np.ndarray:
        """Whitened draws mapped back to trajectory space, on a copy."""
        out = draws.copy()
        q, x = _blocks(draws, *self.sizes)[0], _blocks(out, *self.sizes)[0]
        for c in range(self.model.state_dim):
            x[:, :, c] = q[:, :, c] @ self.Lmat[c].T + self.mu[c]
        return out


def make_problem(
    model: OdeModel,
    grid: DiscretizationGrid,
    observations: ObservationSet,
    fits: dict[int, GpFit],
) -> MagiProblem:
    """Assemble kernel bundles from per-component hyperparameter fits."""
    kernels = []
    noise_init = {}
    for c in range(model.state_dim):
        if c not in fits:
            raise ValueError(f"missing hyperparameter fit for component {c}")
        kernels.append(build_kernel_mats(fits[c].hyper, grid.times))
        noise_init[c] = fits[c].noise_sd
    return MagiProblem(model, grid, observations, kernels, noise_sd_init=noise_init)


# ---------------------------------------------------------------------------
# Log-posterior and analytic gradient
# ---------------------------------------------------------------------------


def make_sampler_target(problem: MagiProblem):
    """Sampler-ready whitened log density, as a ``CompiledTarget``.

    Its ``func`` is a ``(q, ctx)`` adapter over ``make_logdensity_whitened``.
    """
    reference = make_logdensity_whitened(problem)
    return CompiledTarget(func=lambda q, _ctx: reference(q), ctx=None)


def make_logdensity_whitened(problem: MagiProblem):
    """The whitened log posterior and its gradient, in numpy.

    The trajectory block of the packed argument holds q with x = mu + L q per
    component.  This is the one formulation the sampler runs, for every model.
    """
    model = problem.model
    sizes = problem.sizes
    times = problem.grid.times
    mu, Lmat = problem.mu, problem.Lmat
    Cinv, mmat, mmat_T = problem.Cinv, problem.mmat, problem.mmat_T
    observed = problem.observed
    obs_rows, obs_vals, obs_counts = problem.obs_rows, problem.obs_vals, problem.obs_counts
    theta_lo, theta_hi = problem.theta_lo, problem.theta_hi

    def logdensity_and_grad(flat: np.ndarray) -> tuple[float, np.ndarray]:
        q, theta, log_sigma = _blocks(flat, *sizes)
        q = q.T  # (D, M)
        if (
            np.any(theta < theta_lo)
            or np.any(theta > theta_hi)
            or np.any(log_sigma < LOG_SIGMA_LO)
            or np.any(log_sigma > LOG_SIGMA_HI)
        ):
            return -np.inf, np.zeros_like(flat)

        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            xc = np.matmul(Lmat, q[:, :, None])[:, :, 0]  # (D, M)
            x = xc.T + mu
            gp_term = float(np.sum(q * q))

            fvals = model.rhs(x, theta, times)
            gdot = np.matmul(mmat, xc[:, :, None])[:, :, 0]
            resid = fvals.T - gdot
            b = np.matmul(Cinv, resid[:, :, None])[:, :, 0]
            mech_term = float(np.sum(resid * b))

            obs_term = 0.0
            norm_term = 0.0
            sig2 = np.exp(2.0 * log_sigma)
            sse = np.empty(len(observed))
            for j, c in enumerate(observed):
                diff = obs_vals[j] - x[obs_rows[j], c]
                sse[j] = float(diff @ diff)
                obs_term += sse[j] / sig2[j]
                norm_term += obs_counts[j] * log_sigma[j]

            value = -0.5 * (gp_term + obs_term + mech_term) - norm_term
            if not np.isfinite(value):
                return -np.inf, np.zeros_like(flat)

            jac_x = model.jac_state(x, theta, times)
            jac_t = model.jac_param(x, theta, times)
            gx = -np.einsum("cm,mcd->md", b, jac_x)
            gx += np.matmul(mmat_T, b[:, :, None])[:, :, 0].T
            for j, c in enumerate(observed):
                rows = obs_rows[j]
                gx[rows, c] += (obs_vals[j] - x[rows, c]) / sig2[j]

            grad = np.empty_like(flat)
            grad_q, grad_theta, grad_sigma = _blocks(grad, *sizes)
            grad_q[...] = (np.matmul(Lmat.transpose(0, 2, 1), gx.T[:, :, None])[:, :, 0] - q).T
            grad_theta[...] = -np.einsum("cm,mcp->p", b, jac_t)
            grad_sigma[...] = sse / sig2 - np.asarray(obs_counts, dtype=float)
            if not np.all(np.isfinite(grad)):
                return -np.inf, np.zeros_like(flat)
            return value, grad

    return logdensity_and_grad


def gp_gradient_estimate(problem: MagiProblem, x: np.ndarray) -> np.ndarray:
    """Conditional-mean GP derivative m (x - mu) per component, (M, D)."""
    xc = (x - problem.mu).T
    return np.matmul(problem.mmat, xc[:, :, None])[:, :, 0].T


# ---------------------------------------------------------------------------
# Initialization
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class InitResult:
    x: np.ndarray  # M x D
    theta: np.ndarray  # P
    flags: tuple[str, ...] = ()


def _interp_and_smooth(obs_t: np.ndarray, obs_y: np.ndarray, grid_t: np.ndarray) -> np.ndarray:
    """Linear interpolation onto the grid, then GCV cubic-spline smoothing."""
    linear = np.interp(grid_t, obs_t, obs_y)
    if obs_t.size < 5:
        return linear
    try:
        spline = make_smoothing_spline(obs_t, obs_y)
        inside = (grid_t >= obs_t[0]) & (grid_t <= obs_t[-1])
        out = linear.copy()
        out[inside] = spline(grid_t[inside])
        return out
    except Exception:  # degenerate data; linear interp is an acceptable fallback
        return linear


def _diff_matrices(times: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Dense centered first- and second-difference operators on the grid."""
    m = times.size
    d1 = np.zeros((m, m))
    d2 = np.zeros((m, m))
    h = np.diff(times)
    d1[0, 0], d1[0, 1] = -1.0 / h[0], 1.0 / h[0]
    d1[-1, -2], d1[-1, -1] = -1.0 / h[-1], 1.0 / h[-1]
    for i in range(1, m - 1):
        span = times[i + 1] - times[i - 1]
        d1[i, i - 1], d1[i, i + 1] = -1.0 / span, 1.0 / span
        hm, hp = h[i - 1], h[i]
        denom = 0.5 * hm * hp * (hm + hp)
        d2[i, i - 1] = hp / denom
        d2[i, i] = -(hm + hp) / denom
        d2[i, i + 1] = hm / denom
    if m > 2:
        d2[0] = d2[1]
        d2[-1] = d2[-2]
    return d1, d2


def init_missing_components(
    model: OdeModel,
    grid: DiscretizationGrid,
    observations: ObservationSet,
    n_iter: int = 3000,
) -> InitResult:
    """Initial trajectories and parameters for the sampler.

    Observed components come from spline-smoothed interpolation of their
    data.  Theta (and any missing component) then minimizes the squared
    mismatch between finite-difference trajectory derivatives and the ODE
    right-hand side.  When every component is observed the trajectory is
    fixed, and theta comes from one bounded least-squares solve inside
    ``model.theta_box``.  Otherwise the missing trajectories and theta are
    fitted jointly by ``n_iter`` Adam steps, with a curvature penalty keeping
    the free trajectories smooth; ``n_iter`` bounds only that loop.
    """
    observed = observations.observed_components()
    if not observed:
        raise ValueError("at least one component must be observed")
    times = grid.times
    m_sz, d, p = times.size, model.state_dim, model.param_dim
    missing = [c for c in range(d) if c not in observed]

    x0 = np.zeros((m_sz, d))
    for c in observed:
        obs_t, obs_y = observations.component_values(c)
        x0[:, c] = _interp_and_smooth(obs_t, obs_y, times)

    fallback_level = float(np.mean([x0[:, c].mean() for c in observed]))
    for c in missing:
        x0[:, c] = fallback_level

    d1, d2 = _diff_matrices(times)
    lo, hi = np.array(model.theta_box, dtype=float).T

    def fallback() -> InitResult:
        warnings.warn("gradient-matching initializer diverged; using constant fallback")
        return InitResult(x=x0, theta=np.ones(p), flags=("init-fallback-constant",))

    if not missing:
        xdot = d1 @ x0
        try:
            with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
                theta = least_squares(
                    lambda th: (xdot - model.rhs(x0, th, times)).ravel(),
                    np.clip(np.ones(p), lo, hi),
                    jac=lambda th: -model.jac_param(x0, th, times).reshape(-1, p),
                    bounds=(lo, hi),
                ).x
        except ValueError:  # e.g. residuals not finite at the start
            return fallback()
        if not np.isfinite(theta).all():
            return fallback()
        return InitResult(x=x0, theta=theta)

    # Optimize (missing trajectory block, theta), laid out in one vector;
    # positivity-constrained parameters move on log scale.
    pos = np.asarray(model.positive_params, dtype=bool)
    n_free = m_sz * len(missing)
    params = np.empty(n_free + p)
    grad = np.empty_like(params)
    free_block = params[:n_free].reshape(m_sz, len(missing))
    u_theta = params[n_free:]
    g_free = grad[:n_free].reshape(m_sz, len(missing))
    g_u = grad[n_free:]
    free_block[...] = x0[:, missing]
    theta0 = np.ones(p)
    u_theta[...] = np.where(pos, np.log(theta0), theta0)

    def objective():
        """Objective at ``params``; its gradient goes into ``grad``."""
        theta = np.where(pos, np.exp(u_theta), u_theta)
        x = x0.copy()
        x[:, missing] = free_block
        xdot = d1 @ x
        fvals = model.rhs(x, theta, times)
        resid = xdot - fvals
        obj = float((resid * resid).sum())
        g_theta_raw = -2.0 * np.einsum("mc,mcp->p", resid, model.jac_param(x, theta, times))
        g_u[...] = np.where(pos, g_theta_raw * theta, g_theta_raw)
        jac_x = model.jac_state(x, theta, times)
        g = 2.0 * (d1.T @ resid[:, missing])
        g -= 2.0 * np.einsum("mc,mcd->md", resid, jac_x)[:, missing]
        curv = d2 @ free_block
        obj += INIT_CURVATURE_WEIGHT * float(np.sum(curv * curv))
        g += 2.0 * INIT_CURVATURE_WEIGHT * (d2.T @ curv)
        g_free[...] = g
        return obj

    adam = Adam(params, lr=INIT_LR)
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        for _ in range(n_iter):
            obj = objective()
            if not (math.isfinite(obj) and np.isfinite(grad).all()):
                return fallback()
            adam.step(params, grad)

    theta = np.clip(np.where(pos, np.exp(u_theta), u_theta), lo, hi)
    x0[:, missing] = free_block
    return InitResult(x=x0, theta=theta)


# ---------------------------------------------------------------------------
# Posterior samples container
# ---------------------------------------------------------------------------


def _interval95(draws: np.ndarray) -> np.ndarray:
    """Equal-tailed 95% interval over the draw axis; the last axis is (lo, hi)."""
    return np.moveaxis(np.quantile(draws, (0.025, 0.975), axis=0), 0, -1)


@dataclass
class PosteriorSamples:
    """Post-warmup draws over the packed state and the run that made them.

    Every summary (posterior means, 95% intervals) is derived from the draws
    on first use, through ``x_draws``, ``theta_draws`` and ``log_sigma_draws``.
    """

    grid_times: np.ndarray
    component_names: tuple[str, ...]
    param_names: tuple[str, ...]
    sigma_components: tuple[str, ...]
    draws: np.ndarray  # n_samples x dim
    seed: int
    config_hash: str = ""
    flags: tuple[str, ...] = ()
    step_size: float = float("nan")
    divergence_count: int = 0
    x_deriv_mean: np.ndarray | None = None  # GP-derivative estimate at x_mean

    @property
    def n_samples(self) -> int:
        return self.draws.shape[0]

    def _draw_blocks(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        return _blocks(self.draws, self.grid_times.size, len(self.component_names),
                       len(self.param_names))

    def x_draws(self) -> np.ndarray:  # n_samples x M x D
        return self._draw_blocks()[0]

    def theta_draws(self) -> np.ndarray:
        return self._draw_blocks()[1]

    def log_sigma_draws(self) -> np.ndarray:
        return self._draw_blocks()[2]

    @cached_property
    def x_mean(self) -> np.ndarray:  # M x D
        return self.x_draws().mean(axis=0)

    @cached_property
    def theta_mean(self) -> np.ndarray:
        return self.theta_draws().mean(axis=0)

    @cached_property
    def theta_ci(self) -> np.ndarray:  # P x 2 equal-tailed 95%
        return _interval95(self.theta_draws())

    @cached_property
    def sigma_mean(self) -> np.ndarray:
        return np.exp(self.log_sigma_draws()).mean(axis=0)

    def save(self, prefix: str) -> None:
        """Write draws as flat doubles plus a JSON sidecar and summary CSV."""
        self.draws.astype(np.float64).tofile(f"{prefix}.bin")
        m, d = self.grid_times.size, len(self.component_names)
        sidecar = {
            "n_samples": int(self.draws.shape[0]),
            "dim": int(self.draws.shape[1]),
            "grid_size": int(m),
            "state_dim": int(d),
            "component_names": list(self.component_names),
            "param_names": list(self.param_names),
            "sigma_components": list(self.sigma_components),
            "grid_times": [float(t) for t in self.grid_times],
            "seed": int(self.seed),
            "config_hash": self.config_hash,
            "flags": list(self.flags),
            "step_size": float(self.step_size),
            "divergence_count": int(self.divergence_count),
        }
        with open(f"{prefix}.json", "w") as fh:
            json.dump(sidecar, fh, indent=2, sort_keys=True)
        x_ci = _interval95(self.x_draws())
        sigma_ci = _interval95(np.exp(self.log_sigma_draws()))
        rows = [("x", name, f"{t:.17g}", self.x_mean[i, c], x_ci[i, c])
                for i, t in enumerate(self.grid_times)
                for c, name in enumerate(self.component_names)]
        rows += [("theta", name, "", self.theta_mean[j], self.theta_ci[j])
                 for j, name in enumerate(self.param_names)]
        rows += [("sigma", name, "", self.sigma_mean[j], sigma_ci[j])
                 for j, name in enumerate(self.sigma_components)]
        with open(f"{prefix}_summary.csv", "w") as fh:
            fh.write("kind,name,time,mean,q025,q975\n")
            for kind, name, time, mean, (lo, hi) in rows:
                fh.write(f"{kind},{name},{time},{mean:.17g},{lo:.17g},{hi:.17g}\n")

    @classmethod
    def load(cls, prefix: str) -> "PosteriorSamples":
        with open(f"{prefix}.json") as fh:
            meta = json.load(fh)
        return cls(
            grid_times=np.asarray(meta["grid_times"]),
            component_names=tuple(meta["component_names"]),
            param_names=tuple(meta["param_names"]),
            sigma_components=tuple(meta["sigma_components"]),
            draws=np.fromfile(f"{prefix}.bin", dtype=np.float64).reshape(
                meta["n_samples"], meta["dim"]),
            seed=meta["seed"],
            config_hash=meta["config_hash"],
            flags=tuple(meta["flags"]),
            step_size=meta["step_size"],
            divergence_count=meta["divergence_count"],
        )


# ---------------------------------------------------------------------------
# Inference drivers
# ---------------------------------------------------------------------------

DIVERGENCE_WARN_RATE = 0.25


def _initial_log_sigma(problem: MagiProblem) -> np.ndarray:
    vals = []
    for c in problem.observed:
        sd = problem.noise_sd_init[c]
        vals.append(math.log(min(max(sd, 2e-6), 5e2)))
    return np.array(vals)


def run_inference(
    problem: MagiProblem,
    init: InitResult,
    *,
    n_warmup: int,
    n_samples: int,
    seed: int,
) -> PosteriorSamples:
    """NUTS over the full joint state from the initializer's point."""
    return _sample_posterior(problem, init.x, init.theta, _initial_log_sigma(problem),
                             list(init.flags), seed, n_warmup, n_samples)


def _sample_posterior(problem: MagiProblem, x: np.ndarray, theta: np.ndarray,
                      log_sigma: np.ndarray, flags: list[str], seed: int,
                      n_warmup: int, n_samples: int) -> PosteriorSamples:
    """NUTS from the whitened image of (x, theta, log_sigma), then unwhiten and flag the draws.

    ``nuts_sample`` is looked up as this module's global at call time, so a
    caller that rebinds ``magi.nuts_sample`` sees every chain.
    """
    config = NutsConfig(n_warmup=n_warmup, n_samples=n_samples, seed=seed)
    chain = nuts_sample(make_sampler_target(problem), problem.whiten(x, theta, log_sigma), config)
    if chain.divergence_rate > DIVERGENCE_WARN_RATE:
        flags.append(f"high-divergence-rate:{chain.divergence_rate:.2f}")
        warnings.warn(
            f"NUTS divergence rate {chain.divergence_rate:.1%} exceeds "
            f"{DIVERGENCE_WARN_RATE:.0%}; treat this run with suspicion")

    post = PosteriorSamples(
        grid_times=problem.grid.times,
        component_names=problem.model.component_names,
        param_names=problem.model.param_names,
        sigma_components=tuple(problem.model.component_names[c] for c in problem.observed),
        draws=problem.unwhiten_draws(chain.draws),
        seed=seed,
        flags=tuple(flags),
        step_size=chain.step_size,
        divergence_count=chain.divergence_count,
    )
    post.x_deriv_mean = gp_gradient_estimate(problem, post.x_mean)
    return post


def prepare_fits(
    model: OdeModel,
    grid: DiscretizationGrid,
    observations: ObservationSet,
    init: InitResult,
) -> dict[int, GpFit]:
    """Hyperparameter fits: observed components from their data, missing
    components from the gradient-matched interpolant on the grid.  An
    oscillatory model's fits take the Fourier lengthscale prior."""
    fits: dict[int, GpFit] = {}
    for c in range(model.state_dim):
        if observations.mask[c]:
            obs_t, obs_y = observations.component_values(c)
            fits[c] = gp_smooth_fit(obs_t, obs_y, use_fourier_prior=model.oscillatory)
        else:
            fits[c] = gp_smooth_fit(grid.times, init.x[:, c],
                                    use_fourier_prior=model.oscillatory)
    return fits


def _fit_flags(fits: dict[int, GpFit]) -> tuple[str, ...]:
    """The distinct flags raised by a set of GP fits, in component order."""
    return tuple(dict.fromkeys(fit.flag for fit in fits.values() if fit.flag))


def _insample_setup(model: OdeModel, times: np.ndarray, observations: ObservationSet,
                    init_budget: int) -> tuple[DiscretizationGrid, InitResult, dict[int, GpFit]]:
    """The in-sample grid, the gradient-matching initializer and the GP fits.

    The returned initializer also carries the flags of the fits.
    """
    grid = DiscretizationGrid.build(np.asarray(times, dtype=float), observations.times)
    init = init_missing_components(model, grid, observations, n_iter=init_budget)
    fits = prepare_fits(model, grid, observations, init)
    return grid, replace(init, flags=init.flags + _fit_flags(fits)), fits


def _continue_past(model: OdeModel, x_head: np.ndarray, theta: np.ndarray,
                   times: np.ndarray) -> tuple[np.ndarray, bool]:
    """Extend ``x_head`` (the first rows of ``times``) over all of ``times``.

    The new rows come from integrating forward from the last row of
    ``x_head``.  If the integration fails they repeat that row instead, and
    the second return value is False.
    """
    n_head = x_head.shape[0]
    x = np.empty((times.size, model.state_dim))
    x[:n_head] = x_head
    try:
        x[n_head:] = integrate_rk45(model.rhs, x_head[-1], theta, times[n_head - 1:]).values[1:]
        return x, True
    except IntegrationError:
        x[n_head:] = x_head[-1]
        return x, False


def fit_magi(
    model: OdeModel,
    times: np.ndarray,
    observations: ObservationSet,
    *,
    n_warmup: int,
    n_samples: int,
    seed: int,
    init_budget: int,
) -> PosteriorSamples:
    """In-sample protocol: initialize, fit hyperparameters, sample."""
    grid, init, fits = _insample_setup(model, times, observations, init_budget)
    problem = make_problem(model, grid, observations, fits)
    return run_inference(problem, init, n_warmup=n_warmup, n_samples=n_samples, seed=seed)


def forecast_extended_grid(
    model: OdeModel,
    full_times: np.ndarray,
    n_insample: int,
    observations: ObservationSet,
    *,
    n_warmup: int,
    n_samples: int,
    seed: int,
    init_budget: int,
) -> PosteriorSamples:
    """Joint inference over the observation window plus a forecast horizon.

    The discretization grid simply extends past the data; the forecast
    segment of the initial trajectory is continued by numerical integration
    from the in-sample initializer, and the GP fits are the in-sample ones.
    """
    full_times = np.asarray(full_times, dtype=float)
    _, init_in, fits = _insample_setup(model, full_times[:n_insample], observations,
                                       init_budget)
    x_full, continued = _continue_past(model, init_in.x, init_in.theta, full_times)
    flags = init_in.flags + (() if continued else ("forecast-init-constant",))
    problem = make_problem(model, DiscretizationGrid.build(full_times, observations.times),
                           observations, fits)
    return run_inference(problem, InitResult(x=x_full, theta=init_in.theta, flags=flags),
                         n_warmup=n_warmup, n_samples=n_samples, seed=seed)


def forecast_sequential(
    model: OdeModel,
    full_times: np.ndarray,
    n_insample: int,
    points_per_step: int,
    observations: ObservationSet,
    *,
    n_warmup: int,
    n_samples: int,
    seed: int,
    init_budget: int,
) -> PosteriorSamples:
    """Stepwise horizon extension with warm starts between stages.

    Stage 0 is ``fit_magi`` on the in-sample grid.  Each later stage appends
    ``points_per_step`` grid points: the old segment is warm-started from
    the previous stage's final draw, the new segment by integrating forward
    from the boundary state, and kernel hyperparameters are refit on the
    last unit interval of the previous posterior mean.  Returns the last
    stage's posterior, which covers all of ``full_times``, carrying every
    stage's flags in stage order without exact repeats.
    """
    full_times = np.asarray(full_times, dtype=float)
    if (full_times.size - n_insample) % points_per_step != 0:
        raise ValueError("forecast points must be a whole number of steps")
    n_steps = (full_times.size - n_insample) // points_per_step

    seed_seq = np.random.SeedSequence(seed)
    stage_seeds = [int(s.generate_state(1)[0]) for s in seed_seq.spawn(n_steps + 1)]

    samples = fit_magi(model, full_times[:n_insample], observations, n_warmup=n_warmup,
                       n_samples=n_samples, seed=stage_seeds[0], init_budget=init_budget)
    stage_flags = list(samples.flags)

    for stage_seed in stage_seeds[1:]:
        prev_len = samples.grid_times.size
        new_len = prev_len + points_per_step

        theta_last = samples.theta_draws()[-1]
        log_sigma_last = samples.log_sigma_draws()[-1]
        x_init, continued = _continue_past(model, samples.x_draws()[-1], theta_last,
                                           full_times[:new_len])
        flags = []
        if not continued:
            flags.append("forecast-warmstart-constant")
            warnings.warn("warm-start integration failed; extrapolating the boundary state")

        # Refit hyperparameters on the final unit interval of the previous
        # posterior mean (the freshest dynamics the chain has committed to).
        span = full_times[prev_len - 1] - full_times[0]
        per_unit = int(round((prev_len - 1) / span))
        tail_lo = max(0, prev_len - 1 - per_unit)
        fits = {}
        for c in range(model.state_dim):
            fits[c] = gp_smooth_fit(
                full_times[tail_lo:prev_len],
                samples.x_mean[tail_lo:prev_len, c],
                use_fourier_prior=model.oscillatory,
            )
        flags += _fit_flags(fits)

        grid_new = DiscretizationGrid.build(full_times[:new_len], observations.times)
        problem = make_problem(model, grid_new, observations, fits)
        samples = _sample_posterior(problem, x_init, theta_last, log_sigma_last, flags,
                                    stage_seed, n_warmup, n_samples)
        stage_flags += samples.flags

    samples.flags = tuple(dict.fromkeys(stage_flags))
    return samples
