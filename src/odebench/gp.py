"""Matern-kernel Gaussian process machinery.

Everything here is specialized to the Matern family at smoothness 2.01,
which is just past the twice-differentiability threshold the gradient
conditioning needs.  Kernel derivatives are computed analytically through
modified-Bessel recurrences rather than finite differences, so the
assembled matrices are exact and smooth in the hyperparameters.

With z = sqrt(2 nu) |s - t| / lengthscale and c = 2^(1-nu) / Gamma(nu):

    k(r)    = amp^2 c z^nu K_nu(z)
    k'(r)   = -amp^2 c (sqrt(2 nu)/l) z^nu K_{nu-1}(z)
    k''(r)  = -amp^2 c (2 nu/l^2) [(2 nu - 1) z^(nu-1) K_{nu-1}(z) - z^nu K_nu(z)]

with the zero-lag limits k(0) = amp^2, k'(0) = 0 and the gradient variance
-k''(0) = amp^2 nu / ((nu - 1) l^2).

The Bessel terms K_nu and K_{nu-1} are evaluated once per distinct lag and
scattered back to the n x n matrices: an ordered grid has O(n) distinct
lags among its n^2 (57 of 441 at 21 points, 512 of 25,921 at 161).
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field

import numpy as np
from scipy.linalg import cho_factor, cho_solve
from scipy.special import gammaln, kv

from .optim import Adam

__all__ = [
    "MATERN_NU",
    "MaternHyper",
    "GpKernelMats",
    "GpFit",
    "GpFitError",
    "ConditioningError",
    "matern_eval",
    "build_kernel_mats",
    "gp_smooth_fit",
    "dominant_half_period",
    "hypers_to_json",
    "hypers_from_json",
]

MATERN_NU = 2.01

DDK_JITTER = 1e-6  # absolute diagonal perturbation on K'' before forming C
K_JITTER_BASE = 1e-7  # relative (times amplitude^2) retry jitter on K
FIT_LR = 0.01  # Adam step of the hyperparameter fit


class GpFitError(RuntimeError):
    """Hyperparameter optimization produced a non-finite objective."""


class ConditioningError(RuntimeError):
    """A kernel matrix failed Cholesky factorization after jitter retries."""


@dataclass(frozen=True)
class MaternHyper:
    """Kernel hyperparameters; nu is pinned at 2.01 by construction."""

    amplitude: float
    lengthscale: float
    mean: float = 0.0
    nu: float = MATERN_NU

    def __post_init__(self):
        if not (self.amplitude > 0 and self.lengthscale > 0):
            raise ValueError("amplitude and lengthscale must be positive")
        if self.nu != MATERN_NU:
            raise ValueError(f"smoothness is fixed at {MATERN_NU}")


def _matern_lag_terms(hyper: MaternHyper, r: np.ndarray):
    """Return (k, k', k'', dk/dlog lengthscale) of the lags r >= 0, elementwise.

    Callers pass each distinct lag once (see _distinct_lags) and scatter the
    results back, so each Bessel order is evaluated once per distinct lag.
    Zero (and numerically tiny) lags are filled with the analytic limits.
    """
    nu = hyper.nu
    ell = hyper.lengthscale
    amp2 = hyper.amplitude ** 2
    a = math.sqrt(2.0 * nu) / ell
    logc = (1.0 - nu) * math.log(2.0) - gammaln(nu)
    c = math.exp(logc)

    r = np.asarray(r, dtype=float)
    z = a * r
    tiny = z < 1e-10
    zs = np.where(tiny, 1.0, z)  # placeholder to keep kv finite

    kv_nu = kv(nu, zs)
    kv_num1 = kv(nu - 1.0, zs)
    znu_knu = zs ** nu * kv_nu
    znu_knum1 = zs ** nu * kv_num1
    znum1_knum1 = zs ** (nu - 1.0) * kv_num1

    k0 = amp2 * c * znu_knu
    k1 = -amp2 * c * a * znu_knum1
    k2 = -amp2 * c * a * a * ((2.0 * nu - 1.0) * znum1_knum1 - znu_knu)
    dlogell = amp2 * c * zs ** (nu + 1.0) * kv_num1

    k0 = np.where(tiny, amp2, k0)
    k1 = np.where(tiny, 0.0, k1)
    k2 = np.where(tiny, -amp2 * nu / ((nu - 1.0) * ell * ell), k2)
    dlogell = np.where(tiny, 0.0, dlogell)
    if not (np.all(np.isfinite(k0)) and np.all(np.isfinite(k1)) and np.all(np.isfinite(k2))):
        raise FloatingPointError("non-finite Bessel evaluation in Matern kernel")
    return k0, k1, k2, dlogell


def _distinct_lags(r: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Split a lag matrix into its distinct lags and the index map back.

    terms[inverse] rebuilds r's shape from a per-lag vector: an ordered grid
    of n points has O(n) distinct lags among its n^2.
    """
    lags, inverse = np.unique(r, return_inverse=True)
    return lags, inverse.reshape(r.shape)


def matern_eval(hyper: MaternHyper, s: float, t: float, order: tuple[int, int] = (0, 0)) -> float:
    """Evaluate d^a/ds^a d^b/dt^b K(s, t) for a, b in {0, 1}."""
    a_ord, b_ord = order
    if a_ord not in (0, 1) or b_ord not in (0, 1):
        raise ValueError("derivative orders must be 0 or 1")
    u = float(s) - float(t)
    k0, k1, k2, _ = _matern_lag_terms(hyper, abs(u))
    sgn = np.sign(u)
    if order == (0, 0):
        return float(k0)
    if order == (1, 0):
        return float(k1 * sgn)
    if order == (0, 1):
        return float(-k1 * sgn)
    return float(-k2)


@dataclass(frozen=True)
class GpKernelMats:
    """Kernel matrix bundle on a shared grid.

    K    kernel matrix (jitter applied only if its Cholesky required it)
    dK   d/ds K(s,t), the derivative-by-first-argument cross matrix
    Kd   d/dt K(s,t) = dK^T
    ddK  d^2/(ds dt) K(s,t), stored without jitter
    m    gradient predictor dK @ K^{-1}
    C    conditional covariance of the GP gradient,
         (ddK + DDK_JITTER*I) - dK @ K^{-1} @ Kd
    """

    grid: np.ndarray
    hyper: MaternHyper
    K: np.ndarray
    dK: np.ndarray
    Kd: np.ndarray
    ddK: np.ndarray
    m: np.ndarray
    C: np.ndarray
    chol_K: tuple = field(repr=False, default=None)
    chol_C: tuple = field(repr=False, default=None)
    k_jitter: float = 0.0

    def quad_form_Kinv(self, v: np.ndarray) -> float:
        """v^T K^{-1} v via triangular solves on the stored factor."""
        return float(v @ cho_solve(self.chol_K, v))

    def quad_form_Cinv(self, v: np.ndarray) -> float:
        return float(v @ cho_solve(self.chol_C, v))

    def Cinv(self) -> np.ndarray:
        eye = np.eye(self.grid.size)
        return cho_solve(self.chol_C, eye)


def _chol_with_retries(mat: np.ndarray, base_jitter: float, label: str):
    """Cholesky with up to 3 doublings of an additive diagonal jitter."""
    jitter = 0.0
    attempt = base_jitter
    for trial in range(5):
        try:
            factor = cho_factor(mat + jitter * np.eye(mat.shape[0]), lower=True)
            return factor, jitter
        except np.linalg.LinAlgError:
            pass
        if trial == 4:
            break
        jitter = attempt
        attempt *= 2.0
    raise ConditioningError(f"Cholesky factorization of {label} failed after jitter retries")


def build_kernel_mats(hyper: MaternHyper, grid: np.ndarray) -> GpKernelMats:
    """Assemble K, its cross-derivative matrices, m and C on the grid."""
    grid = np.asarray(grid, dtype=float)
    if grid.ndim != 1 or grid.size < 2 or np.any(np.diff(grid) <= 0):
        raise ValueError("grid must be strictly increasing with length >= 2")

    u = grid[:, None] - grid[None, :]
    lags, inverse = _distinct_lags(np.abs(u))
    k0, k1, k2, _ = _matern_lag_terms(hyper, lags)
    k1 = k1[inverse]
    sgn = np.sign(u)
    K = k0[inverse]
    dK = k1 * sgn
    Kd = -k1 * sgn
    ddK = -k2[inverse]

    chol_K, k_jitter = _chol_with_retries(K, K_JITTER_BASE * hyper.amplitude ** 2, "K")
    K = K + k_jitter * np.eye(grid.size)

    m = cho_solve(chol_K, dK.T).T  # dK @ K^{-1}
    C = (ddK + DDK_JITTER * np.eye(grid.size)) - m @ Kd
    C = 0.5 * (C + C.T)
    try:
        chol_C = cho_factor(C, lower=True)
    except np.linalg.LinAlgError:
        raise ConditioningError("Cholesky factorization of C failed") from None

    return GpKernelMats(
        grid=grid, hyper=hyper, K=K, dK=dK, Kd=Kd, ddK=ddK, m=m, C=C,
        chol_K=chol_K, chol_C=chol_C, k_jitter=k_jitter,
    )


# ---------------------------------------------------------------------------
# GP smoothing: marginal-likelihood fit of (amplitude, lengthscale, mean,
# noise_sd) used both to denoise observed components and to set kernel
# hyperparameters for the trajectory sampler.
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class GpFit:
    hyper: MaternHyper
    noise_sd: float
    flag: str | None = None
    fourier_prior: bool = False
    half_period: float | None = None


def _softplus(x: float) -> float:
    return x if x > 30.0 else math.log1p(math.exp(x))


def dominant_half_period(times: np.ndarray, values: np.ndarray, n_interp: int = 512) -> float | None:
    """Half the dominant period of the linearly interpolated signal.

    Returns None when the signal carries no non-DC power (constant data).
    """
    times = np.asarray(times, dtype=float)
    values = np.asarray(values, dtype=float)
    span = times[-1] - times[0]
    if span <= 0:
        return None
    tt = np.linspace(times[0], times[-1], n_interp)
    yy = np.interp(tt, times, values)
    yy = yy - yy.mean()
    power = np.abs(np.fft.rfft(yy)) ** 2
    power[0] = 0.0
    if not np.any(power > 0):
        return None
    freqs = np.fft.rfftfreq(n_interp, d=span / (n_interp - 1))
    f_dom = freqs[int(np.argmax(power))]
    if f_dom <= 0:
        return None
    return 1.0 / (2.0 * f_dom)


def _fourier_penalty_and_grad(ell: float, half_period: float) -> tuple[float, float]:
    """Penalty (and d/dlog ell) discouraging lengthscales beyond the half period.

    Oscillatory signals need a lengthscale no longer than roughly half their
    dominant period; the penalty is ~0 below the half period and grows
    quadratically in softplus units above it, only ever shrinking the fit
    toward oscillation-capable lengthscales.
    """
    u = (ell - half_period) / half_period
    sp = _softplus(u)
    sig = 1.0 / (1.0 + math.exp(-min(max(u, -500.0), 500.0)))
    penalty = 10.0 * sp * sp
    dpen_dlogell = 10.0 * 2.0 * sp * sig * (ell / half_period)
    return penalty, dpen_dlogell


def gp_smooth_fit(
    obs_times: np.ndarray,
    obs_values: np.ndarray,
    use_fourier_prior: bool = False,
    n_iter: int = 1500,
) -> GpFit:
    """Fit Matern hyperparameters and a noise scale by marginal likelihood.

    Adam runs on log-scale (amplitude, lengthscale, noise_sd) plus the raw
    constant mean, projected into box bounds after every step; convergence
    is declared early once the objective moves less than 1e-8 over 50
    iterations.
    """
    t = np.asarray(obs_times, dtype=float)
    y = np.asarray(obs_values, dtype=float)
    if t.size < 5:
        raise ValueError("need at least 5 observations to fit hyperparameters")
    n = t.size
    span = t[-1] - t[0]
    spacing = float(np.min(np.diff(t)))
    sd = float(np.std(y))
    if sd == 0.0:
        hyper = MaternHyper(amplitude=1e-8, lengthscale=max(span / 2.0, spacing), mean=float(y[0]))
        return GpFit(hyper=hyper, noise_sd=1e-8, flag="degenerate-flat-data",
                     fourier_prior=use_fourier_prior)

    half_period = dominant_half_period(t, y) if use_fourier_prior else None

    lo = np.array([math.log(1e-4 * sd), math.log(spacing), -np.inf, math.log(1e-6 * sd)])
    hi = np.array([math.log(1e4 * sd), math.log(10.0 * span), np.inf, math.log(10.0 * sd)])
    params = np.array([math.log(sd), math.log(min(max(span / 10.0, spacing), 10.0 * span)),
                       float(np.mean(y)), math.log(max(0.1 * sd, 1e-8))])

    lags, inverse = _distinct_lags(np.abs(t[:, None] - t[None, :]))
    eye = np.eye(n)

    def objective_and_grad(p):
        amp, ell, mu, nsd = math.exp(p[0]), math.exp(p[1]), p[2], math.exp(p[3])
        hyper = MaternHyper(amplitude=amp, lengthscale=ell, mean=mu)
        k0, _, _, dlogell = _matern_lag_terms(hyper, lags)
        K = k0[inverse]
        Ky = K + (nsd * nsd) * eye
        try:
            chol = cho_factor(Ky, lower=True)
        except np.linalg.LinAlgError:
            Ky = Ky + (1e-10 * amp * amp) * eye
            chol = cho_factor(Ky, lower=True)
        resid = y - mu
        alpha = cho_solve(chol, resid)
        logdet = 2.0 * np.sum(np.log(np.diag(chol[0])))
        nll = 0.5 * float(resid @ alpha) + 0.5 * logdet + 0.5 * n * math.log(2.0 * math.pi)

        Kyinv = cho_solve(chol, eye)
        dK_lamp = 2.0 * K
        dK_lell = dlogell[inverse]

        def dnll(dmat):
            return 0.5 * float(np.sum(Kyinv * dmat)) - 0.5 * float(alpha @ (dmat @ alpha))

        g = np.array([
            dnll(dK_lamp),
            dnll(dK_lell),
            -float(np.sum(alpha)),
            (nsd * nsd) * (float(np.trace(Kyinv)) - float(alpha @ alpha)),
        ])
        obj = nll
        if half_period is not None:
            pen, dpen = _fourier_penalty_and_grad(ell, half_period)
            obj += pen
            g[1] += dpen
        return obj, g

    adam = Adam([params], lr=FIT_LR)
    history = []
    for it in range(n_iter):
        obj, grad = objective_and_grad(params)
        if not np.isfinite(obj) or not np.all(np.isfinite(grad)):
            raise GpFitError("non-finite marginal-likelihood objective during fit")
        history.append(obj)
        if it >= 50 and abs(history[-1] - history[-51]) < 1e-8:
            break
        (params,) = adam.step([params], [grad])
        params = np.clip(params, lo, hi)

    amp, ell, mu, nsd = math.exp(params[0]), math.exp(params[1]), params[2], math.exp(params[3])
    return GpFit(
        hyper=MaternHyper(amplitude=amp, lengthscale=ell, mean=mu),
        noise_sd=nsd,
        fourier_prior=use_fourier_prior,
        half_period=half_period,
    )


def hypers_to_json(fits: dict[str, GpFit], path=None) -> str:
    """Serialize per-component fits; returns the JSON text, optionally writing it."""
    payload = [
        {
            "component": name,
            "amplitude": fit.hyper.amplitude,
            "lengthscale": fit.hyper.lengthscale,
            "mean": fit.hyper.mean,
            "noise_sd": fit.noise_sd,
            "fourier_prior": fit.fourier_prior,
        }
        for name, fit in fits.items()
    ]
    text = json.dumps(payload, indent=2)
    if path is not None:
        with open(path, "w") as fh:
            fh.write(text)
    return text


def hypers_from_json(text_or_path) -> dict[str, GpFit]:
    try:
        payload = json.loads(text_or_path)
    except (ValueError, TypeError):
        with open(text_or_path) as fh:
            payload = json.load(fh)
    fits = {}
    for row in payload:
        fits[row["component"]] = GpFit(
            hyper=MaternHyper(amplitude=row["amplitude"], lengthscale=row["lengthscale"],
                              mean=row["mean"]),
            noise_sd=row["noise_sd"],
            fourier_prior=bool(row.get("fourier_prior", False)),
        )
    return fits
