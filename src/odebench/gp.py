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
scattered back to the n x n matrices.  In exact arithmetic an evenly spaced
grid of n points has n distinct lags among its n^2.  In floating point,
differences of grid points differ in their last bits, so there are more:
57 of 441 at 21 points and 512 of 25,921 at 161, against 21 and 161.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from scipy.linalg import cho_factor, cho_solve
from scipy.linalg.lapack import dpotrf, dpotrs
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
]

MATERN_NU = 2.01

DDK_JITTER = 1e-6  # absolute diagonal perturbation on K'' before forming C
K_JITTER_BASE = 1e-7  # relative (times amplitude^2) retry jitter on K
FIT_LR = 0.01  # Adam step of the hyperparameter fit
N_INTERP = 512  # points of the linear interpolation dominant_half_period transforms


class GpFitError(RuntimeError):
    """Hyperparameter optimization produced a non-finite objective."""


class ConditioningError(RuntimeError):
    """A kernel matrix failed Cholesky factorization after jitter retries."""


@dataclass(frozen=True)
class MaternHyper:
    """Kernel hyperparameters; the smoothness is the constant MATERN_NU."""

    amplitude: float
    lengthscale: float
    mean: float = 0.0

    def __post_init__(self):
        if not (self.amplitude > 0 and self.lengthscale > 0):
            raise ValueError("amplitude and lengthscale must be positive")


# Constants of the Matern family at nu = MATERN_NU: z = sqrt(2 nu) r / l
# and the normalization c = 2^(1-nu) / Gamma(nu).
_SQRT_2NU = math.sqrt(2.0 * MATERN_NU)
_MATERN_C = math.exp((1.0 - MATERN_NU) * math.log(2.0) - gammaln(MATERN_NU))


def _matern_value_terms(amp2: float, ell: float, r: np.ndarray):
    """Return (k, dk/dlog lengthscale, core) of the lags r >= 0, elementwise.

    These are the two terms the marginal likelihood reads.  core holds the
    Bessel pieces (a, tiny, zs, z^nu K_nu, K_{nu-1}) that _matern_lag_terms
    reuses for k' and k''.  Zero (and numerically tiny) lags are filled with
    the analytic limits.
    """
    nu = MATERN_NU
    a = _SQRT_2NU / ell
    z = a * r
    tiny = z < 1e-10
    zs = np.where(tiny, 1.0, z)  # placeholder to keep kv finite

    znu_knu = zs ** nu * kv(nu, zs)
    kv_num1 = kv(nu - 1.0, zs)
    k0 = np.where(tiny, amp2, amp2 * _MATERN_C * znu_knu)
    dlogell = np.where(tiny, 0.0, amp2 * _MATERN_C * zs ** (nu + 1.0) * kv_num1)
    if not np.isfinite(k0).all():
        raise FloatingPointError("non-finite Bessel evaluation in Matern kernel")
    return k0, dlogell, (a, tiny, zs, znu_knu, kv_num1)


def _matern_lag_terms(hyper: MaternHyper, r: np.ndarray):
    """Return (k, k', k'', dk/dlog lengthscale) of the lags r >= 0, elementwise.

    Callers pass each distinct lag once (see _distinct_lags) and scatter the
    results back, so each Bessel order is evaluated once per distinct lag.
    """
    nu = MATERN_NU
    ell = hyper.lengthscale
    amp2 = hyper.amplitude ** 2
    k0, dlogell, (a, tiny, zs, znu_knu, kv_num1) = _matern_value_terms(
        amp2, ell, np.asarray(r, dtype=float))

    k1 = -amp2 * _MATERN_C * a * (zs ** nu * kv_num1)
    k2 = -amp2 * _MATERN_C * a * a * ((2.0 * nu - 1.0) * (zs ** (nu - 1.0) * kv_num1) - znu_knu)
    k1 = np.where(tiny, 0.0, k1)
    k2 = np.where(tiny, -amp2 * nu / ((nu - 1.0) * ell * ell), k2)
    if not (np.isfinite(k1).all() and np.isfinite(k2).all()):
        raise FloatingPointError("non-finite Bessel evaluation in Matern kernel")
    return k0, k1, k2, dlogell


def _distinct_lags(r: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Split a lag matrix into its distinct lags and the index map back.

    terms[inverse] rebuilds r's shape from a per-lag vector.  Lags are
    compared exactly: an evenly spaced grid of n points has n distinct lags
    in exact arithmetic, and a few times n after rounding (57 at 21 points).
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

    def Cinv(self) -> np.ndarray:
        eye = np.eye(self.grid.size)
        return cho_solve(self.chol_C, eye)


def _chol_with_retries(mat: np.ndarray, base_jitter: float, label: str):
    """Cholesky of mat, retried with base_jitter x (1, 2, 4, 8) added to its diagonal."""
    for jitter in (0.0, base_jitter, 2.0 * base_jitter, 4.0 * base_jitter, 8.0 * base_jitter):
        try:
            return cho_factor(mat + jitter * np.eye(mat.shape[0]), lower=True), jitter
        except np.linalg.LinAlgError:
            pass
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


def _softplus(x: float) -> float:
    return x if x > 30.0 else math.log1p(math.exp(x))


def dominant_half_period(times: np.ndarray, values: np.ndarray) -> float | None:
    """Half the dominant period of the linearly interpolated signal.

    Returns None when the signal carries no non-DC power (constant data).
    """
    times = np.asarray(times, dtype=float)
    values = np.asarray(values, dtype=float)
    span = times[-1] - times[0]
    if span <= 0:
        return None
    tt = np.linspace(times[0], times[-1], N_INTERP)
    yy = np.interp(tt, times, values)
    yy = yy - yy.mean()
    power = np.abs(np.fft.rfft(yy)) ** 2
    power[0] = 0.0
    if not np.any(power > 0):
        return None
    freqs = np.fft.rfftfreq(N_INTERP, d=span / (N_INTERP - 1))
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


@dataclass(frozen=True)
class _FitData:
    """What one marginal-likelihood evaluation reads besides the parameters.

    y         observed values
    lags      distinct lags |t_i - t_j|; lags[inverse] is the n x n lag matrix
    eye       n x n identity
    norm_term 0.5 n log(2 pi)
    """

    y: np.ndarray
    lags: np.ndarray
    inverse: np.ndarray
    eye: np.ndarray
    norm_term: float
    half_period: float | None

    @classmethod
    def build(cls, t: np.ndarray, y: np.ndarray, half_period: float | None) -> "_FitData":
        n = t.size
        lags, inverse = _distinct_lags(np.abs(t[:, None] - t[None, :]))
        return cls(y=y, lags=lags, inverse=inverse, eye=np.eye(n),
                   norm_term=0.5 * n * math.log(2.0 * math.pi), half_period=half_period)


def _fit_objective(p: np.ndarray, data: _FitData) -> tuple[float, np.ndarray]:
    """Negative log marginal likelihood (plus the Fourier penalty) and its gradient.

    p = (log amplitude, log lengthscale, mean, log noise_sd).  K + noise^2 I
    is factored by LAPACK potrf; if that fails, a 1e-10 amplitude^2 diagonal
    jitter is added once and the factorization retried.
    """
    amp, ell, mu, nsd = math.exp(p[0]), math.exp(p[1]), p[2], math.exp(p[3])
    eye = data.eye
    k0, dlogell, _ = _matern_value_terms(amp ** 2, ell, data.lags)
    K = k0[data.inverse]
    Ky = K + (nsd * nsd) * eye
    chol, info = dpotrf(Ky, lower=1, clean=0)
    if info != 0:
        chol, info = dpotrf(Ky + (1e-10 * amp * amp) * eye, lower=1, clean=0)
        if info != 0:
            raise np.linalg.LinAlgError("marginal-likelihood covariance is not positive definite")
    resid = data.y - mu
    alpha = dpotrs(chol, resid, lower=1)[0]
    logdet = 2.0 * np.log(chol.diagonal()).sum()
    nll = 0.5 * float(resid @ alpha) + 0.5 * logdet + data.norm_term

    Kyinv = dpotrs(chol, eye, lower=1)[0]
    dK_lamp = 2.0 * K
    dK_lell = dlogell[data.inverse]

    def dnll(dmat):
        return 0.5 * float((Kyinv * dmat).sum()) - 0.5 * float(alpha @ (dmat @ alpha))

    g = np.array([
        dnll(dK_lamp),
        dnll(dK_lell),
        -float(alpha.sum()),
        (nsd * nsd) * (float(Kyinv.trace()) - float(alpha @ alpha)),
    ])
    obj = nll
    if data.half_period is not None:
        pen, dpen = _fourier_penalty_and_grad(ell, data.half_period)
        obj += pen
        g[1] += dpen
    return obj, g


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
    span = t[-1] - t[0]
    spacing = float(np.min(np.diff(t)))
    sd = float(np.std(y))
    if sd == 0.0:
        hyper = MaternHyper(amplitude=1e-8, lengthscale=max(span / 2.0, spacing), mean=float(y[0]))
        return GpFit(hyper=hyper, noise_sd=1e-8, flag="degenerate-flat-data")

    half_period = dominant_half_period(t, y) if use_fourier_prior else None

    lo = np.array([math.log(1e-4 * sd), math.log(spacing), -np.inf, math.log(1e-6 * sd)])
    hi = np.array([math.log(1e4 * sd), math.log(10.0 * span), np.inf, math.log(10.0 * sd)])
    params = np.array([math.log(sd), math.log(min(max(span / 10.0, spacing), 10.0 * span)),
                       float(np.mean(y)), math.log(max(0.1 * sd, 1e-8))])

    data = _FitData.build(t, y, half_period)
    adam = Adam(params, lr=FIT_LR)
    history = []
    for it in range(n_iter):
        obj, grad = _fit_objective(params, data)
        if not (math.isfinite(obj) and np.isfinite(grad).all()):
            raise GpFitError("non-finite marginal-likelihood objective during fit")
        history.append(obj)
        if it >= 50 and abs(history[-1] - history[-51]) < 1e-8:
            break
        adam.step(params, grad)
        np.maximum(params, lo, out=params)
        np.minimum(params, hi, out=params)

    amp, ell, mu, nsd = math.exp(params[0]), math.exp(params[1]), params[2], math.exp(params[3])
    return GpFit(hyper=MaternHyper(amplitude=amp, lengthscale=ell, mean=mu), noise_sd=nsd)
