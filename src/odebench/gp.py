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

The Bessel terms K_nu and K_{nu-1} are evaluated once per distinct lag of a
grid's lag_table and scattered back to the n x n matrices; every covariance
is factored by one LAPACK potrf path, _cholesky.  In exact arithmetic an
evenly spaced grid of n points has n distinct lags among its n^2.  In
floating point, differences of grid points differ in their last bits, so
there are more: 57 of 441 at 21 points and 512 of 25,921 at 161.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np
from scipy.linalg.lapack import dpotrf, dpotrs, dtrtrs
from scipy.optimize import Bounds, minimize
from scipy.special import gammaln, kv

__all__ = [
    "MATERN_NU",
    "MaternHyper",
    "GpKernelMats",
    "GpFit",
    "GpFitError",
    "ConditioningError",
    "matern_eval",
    "lag_table",
    "kernel_matrices",
    "build_kernel_mats",
    "gp_smooth_fit",
    "dominant_half_period",
]

MATERN_NU = 2.01

DDK_JITTER = 1e-6  # absolute diagonal perturbation on K'' before forming C
K_JITTER_BASE = 1e-7  # relative (times amplitude^2) retry jitter on K
NOISE_FLOOR_FRACTION = 0.1  # noise_sd lower bound, as a fraction of the difference-based estimate
N_INTERP = 512  # points of the linear interpolation dominant_half_period transforms


class GpFitError(RuntimeError):
    """Hyperparameter optimization produced a non-finite objective."""


class ConditioningError(RuntimeError):
    """A covariance failed Cholesky factorization at every diagonal jitter tried."""


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

    Callers pass each distinct lag once (see lag_table) and scatter the
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


def lag_table(times: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(lags, inverse, sign) of the n x n differences u = s - t of strictly increasing times.

    lags holds the distinct |u|, compared exactly, and terms[inverse]
    rebuilds the n x n matrix from a per-lag vector; sign is sign(u).
    """
    times = np.asarray(times, dtype=float)
    if times.ndim != 1 or times.size < 2 or np.any(np.diff(times) <= 0):
        raise ValueError("grid must be strictly increasing with length >= 2")
    u = times[:, None] - times[None, :]
    lags, inverse = np.unique(np.abs(u), return_inverse=True)
    return lags, inverse.reshape(u.shape), np.sign(u)


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


class GpKernelMats(NamedTuple):
    """What the MAGI target reads of one component's kernel on the grid.

    With K = L L^T, the gradient predictor m = dK K^{-1} acts on x - mu = L q
    as m L q = A q, so the target needs A, never m:

    mean    the GP prior mean
    chol_K  L, the lower Cholesky factor of K (jitter added only if it was needed)
    mL      A = dK L^{-T} = m L, the predictor in whitened coordinates
    chol_C  lower Cholesky factor of the GP gradient's conditional covariance
            C = (ddK + DDK_JITTER*I) - dK K^{-1} Kd = (ddK + DDK_JITTER*I) - A A^T
    """

    mean: float
    chol_K: np.ndarray
    mL: np.ndarray
    chol_C: np.ndarray


def _cholesky(mat: np.ndarray, jitters: tuple[float, ...], label: str) -> np.ndarray:
    """Lower Cholesky factor of mat + jitter I, upper triangle zeroed, at the first jitter
    potrf accepts; mat itself is factored at a zero jitter."""
    for jitter in jitters:
        chol, info = dpotrf(mat + jitter * np.eye(mat.shape[0]) if jitter else mat,
                            lower=1, clean=1)
        if info == 0:
            return chol
    raise ConditioningError(f"Cholesky factorization of {label} failed at jitters {jitters}")


def kernel_matrices(hyper: MaternHyper,
                    grid: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """(K, dK, Kd, ddK) on the grid: K(s,t), d/ds K, d/dt K = dK^T and d^2/(ds dt) K.

    No jitter is applied to any of them.
    """
    lags, inverse, sign = lag_table(grid)
    k0, k1, k2, _ = _matern_lag_terms(hyper, lags)
    k1 = k1[inverse]
    return k0[inverse], k1 * sign, -k1 * sign, -k2[inverse]


def build_kernel_mats(hyper: MaternHyper, table: tuple) -> GpKernelMats:
    """Factor K, form A = dK L^{-T} by one triangular solve, and factor C = ddK + jI - A A^T.

    table is the grid's lag_table.  K is retried with K_JITTER_BASE amplitude^2
    x (1, 2, 4, 8) on its diagonal, C with none.  The kernel matrices are not kept.
    """
    lags, inverse, sign = table
    k0, k1, k2, _ = _matern_lag_terms(hyper, lags)
    K, dK, ddK = k0[inverse], k1[inverse] * sign, -k2[inverse]
    base = K_JITTER_BASE * hyper.amplitude ** 2
    chol_K = _cholesky(K, (0.0, base, 2.0 * base, 4.0 * base, 8.0 * base), "K")
    mL = dtrtrs(chol_K, dK.T, lower=1)[0].T  # L^{-1} Kd = A^T, since Kd = dK^T
    ddK.flat[:: ddK.shape[0] + 1] += DDK_JITTER
    C = mL @ mL.T  # exactly symmetric: numpy runs a product with its own transpose as syrk
    np.subtract(ddK, C, out=C)
    return GpKernelMats(mean=hyper.mean, chol_K=chol_K, mL=mL, chol_C=_cholesky(C, (0.0,), "C"))


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
        lags, inverse, _ = lag_table(t)
        return cls(y=y, lags=lags, inverse=inverse, eye=np.eye(n),
                   norm_term=0.5 * n * math.log(2.0 * math.pi), half_period=half_period)


def _fit_objective(p: np.ndarray, data: _FitData) -> tuple[float, np.ndarray]:
    """Negative log marginal likelihood (plus the Fourier penalty) and its gradient.

    p = (log amplitude, log lengthscale, mean, log noise_sd).  K + noise^2 I
    is factored by _cholesky, retried once with a 1e-10 amplitude^2 diagonal
    jitter; ConditioningError if both attempts fail.
    """
    amp, ell, mu, nsd = math.exp(p[0]), math.exp(p[1]), p[2], math.exp(p[3])
    eye = data.eye
    k0, dlogell, _ = _matern_value_terms(amp ** 2, ell, data.lags)
    K = k0[data.inverse]
    Ky = K + (nsd * nsd) * eye
    chol = _cholesky(Ky, (0.0, 1e-10 * amp * amp), "K + noise^2 I")
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


def _difference_noise_sd(t: np.ndarray, y: np.ndarray) -> float:
    """Noise sd from second-difference pseudo-residuals (Gasser, Sroka and
    Jennen-Steinmetz 1986, Biometrika 73:625).

    Each interior point is compared with the straight line through its two
    neighbours; the weights a_i, b_i of that line and the scale
    c_i^2 = 1 / (a_i^2 + b_i^2 + 1) make every pseudo-residual an unbiased
    estimate of the noise variance under uneven spacing, up to the curvature
    of the signal.  Data on a straight line give 0.
    """
    h_lo = t[1:-1] - t[:-2]
    h_hi = t[2:] - t[1:-1]
    a = h_hi / (h_lo + h_hi)
    b = h_lo / (h_lo + h_hi)
    resid = a * y[:-2] + b * y[2:] - y[1:-1]
    return math.sqrt(float(np.mean(resid * resid / (a * a + b * b + 1.0))))


def _fit_bounds(t: np.ndarray, y: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Lower and upper bounds of gp_smooth_fit's parameters (see its docstring)."""
    span = t[-1] - t[0]
    sd = float(np.std(y))
    noise_floor = max(1e-6 * sd, NOISE_FLOOR_FRACTION * _difference_noise_sd(t, y))
    lo = np.array([math.log(1e-4 * sd), math.log(float(np.min(np.diff(t)))), -np.inf,
                   math.log(noise_floor)])
    hi = np.array([math.log(1e4 * sd), math.log(10.0 * span), np.inf, math.log(10.0 * sd)])
    return lo, hi


def gp_smooth_fit(
    obs_times: np.ndarray,
    obs_values: np.ndarray,
    use_fourier_prior: bool = False,
) -> GpFit:
    """Fit Matern hyperparameters and a noise scale by marginal likelihood.

    One bounded L-BFGS-B solve of _fit_objective over log-scale (amplitude,
    lengthscale, noise_sd) and the raw constant mean, from a start clipped
    into the box.  The box holds the amplitude within 1e-4..1e4 sample sd,
    the lengthscale between the smallest spacing and 10 spans, and noise_sd
    below 10 sample sd and above NOISE_FLOOR_FRACTION of
    _difference_noise_sd (or 1e-6 sample sd, if larger), which keeps the fit
    from explaining all of a chaotic signal's noise as signal.  The solver's
    own convergence status is not checked: on smooth, noise-free data the
    optimum sits on a bound and the line search may end abnormally there.
    Raises GpFitError when the objective or its gradient ends non-finite.
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
    lo, hi = _fit_bounds(t, y)
    p0 = np.array([math.log(sd), math.log(min(max(span / 10.0, spacing), 10.0 * span)),
                   float(np.mean(y)), math.log(max(0.1 * sd, 1e-8))])

    data = _FitData.build(t, y, half_period)
    res = minimize(_fit_objective, np.clip(p0, lo, hi), args=(data,), jac=True,
                   method="L-BFGS-B", bounds=Bounds(lo, hi))
    if not (math.isfinite(res.fun) and np.isfinite(res.jac).all()):
        raise GpFitError("non-finite marginal-likelihood objective at the end of the fit")

    amp, ell, mu, nsd = (math.exp(res.x[0]), math.exp(res.x[1]), float(res.x[2]),
                         math.exp(res.x[3]))
    return GpFit(hyper=MaternHyper(amplitude=amp, lengthscale=ell, mean=mu), noise_sd=nsd)
