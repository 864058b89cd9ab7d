"""Numba-compiled twin of the whitened log posterior and its gradient.

``magi.make_logdensity_whitened`` is the numpy reference; this module
writes the same target with explicit loops for the two built-in models so
the compiled sampler engine can call it.  ``magi.make_sampler_target`` uses
it only when numba is installed and the model is built in; otherwise the
sampler runs the numpy reference.  Without numba, ``njit`` is the identity,
so the tests can still run these loops as plain Python.
"""

from __future__ import annotations

import math

import numpy as np

try:
    from numba import njit
    from numba.core.dispatcher import Dispatcher as NumbaDispatcher

    NUMBA_OK = True
except ImportError:  # pragma: no cover - numba is a soft dependency
    NUMBA_OK = False
    NumbaDispatcher = ()  # matches nothing in isinstance

    def njit(*args, **kwargs):
        def wrap(fn):
            return fn
        return wrap if not args else args[0]


MODEL_IDS = {"seir-log": 0, "lorenz": 1}


@njit(cache=True)
def _rhs_jac(model_id, x, theta, fvals, jx, jt):
    """Fill fvals (M,D), jx (M,D,D), jt (M,D,P) for the built-in models."""
    m = x.shape[0]
    if model_id == 0:  # seir-log
        beta, gamma, sigma_e = theta[0], theta[1], theta[2]
        for i in range(m):
            e = math.exp(x[i, 0])
            ii = math.exp(x[i, 1])
            r = math.exp(x[i, 2])
            s = 1.0 - e - ii - r
            fvals[i, 0] = beta * ii * s / e - sigma_e
            fvals[i, 1] = sigma_e * e / ii - gamma
            fvals[i, 2] = gamma * ii / r
            jx[i, 0, 0] = -beta * ii * (e + s) / e
            jx[i, 0, 1] = beta * ii * (s - ii) / e
            jx[i, 0, 2] = -beta * ii * r / e
            jx[i, 1, 0] = sigma_e * e / ii
            jx[i, 1, 1] = -sigma_e * e / ii
            jx[i, 1, 2] = 0.0
            jx[i, 2, 0] = 0.0
            jx[i, 2, 1] = gamma * ii / r
            jx[i, 2, 2] = -gamma * ii / r
            jt[i, 0, 0] = ii * s / e
            jt[i, 0, 1] = 0.0
            jt[i, 0, 2] = -1.0
            jt[i, 1, 0] = 0.0
            jt[i, 1, 1] = -1.0
            jt[i, 1, 2] = e / ii
            jt[i, 2, 0] = 0.0
            jt[i, 2, 1] = ii / r
            jt[i, 2, 2] = 0.0
    else:  # lorenz
        beta, rho, sigma = theta[0], theta[1], theta[2]
        for i in range(m):
            xx = x[i, 0]
            yy = x[i, 1]
            zz = x[i, 2]
            fvals[i, 0] = sigma * (yy - xx)
            fvals[i, 1] = xx * (rho - zz) - yy
            fvals[i, 2] = xx * yy - beta * zz
            jx[i, 0, 0] = -sigma
            jx[i, 0, 1] = sigma
            jx[i, 0, 2] = 0.0
            jx[i, 1, 0] = rho - zz
            jx[i, 1, 1] = -1.0
            jx[i, 1, 2] = -xx
            jx[i, 2, 0] = yy
            jx[i, 2, 1] = xx
            jx[i, 2, 2] = -beta
            jt[i, 0, 0] = 0.0
            jt[i, 0, 1] = 0.0
            jt[i, 0, 2] = yy - xx
            jt[i, 1, 0] = 0.0
            jt[i, 1, 1] = xx
            jt[i, 1, 2] = 0.0
            jt[i, 2, 0] = -zz
            jt[i, 2, 1] = 0.0
            jt[i, 2, 2] = 0.0


@njit(cache=True)
def magi_value_grad_whitened(flat, ctx):
    """Log-posterior over GP-whitened trajectory coordinates.

    The trajectory block of ``flat`` holds q with x = mu + L q per
    component (L the Cholesky factor of that component's kernel matrix),
    which turns the GP prior into an isotropic Gaussian so the sampler's
    unit mass matrix is well scaled.  Mirrors
    ``magi.make_logdensity_whitened`` term by term.

    ctx = (model_id, mu, L, Cinv, mmat, obs_rows, obs_vals, obs_offsets,
           obs_comps, theta_lo, theta_hi, lsig_bounds)
    """
    model_id = ctx[0]
    mu = ctx[1]
    L = ctx[2]
    Cinv = ctx[3]
    mmat = ctx[4]
    obs_rows = ctx[5]
    obs_vals = ctx[6]
    obs_offsets = ctx[7]
    obs_comps = ctx[8]
    theta_lo = ctx[9]
    theta_hi = ctx[10]
    lsig_lo = ctx[11][0]
    lsig_hi = ctx[11][1]

    d = mu.size
    m_sz = L.shape[1]
    p = theta_lo.size
    grad = np.zeros(flat.size)
    theta = flat[m_sz * d : m_sz * d + p]
    log_sigma = flat[m_sz * d + p :]
    n_obs_comp = obs_comps.size

    for j in range(p):
        if theta[j] < theta_lo[j] or theta[j] > theta_hi[j]:
            return -np.inf, grad
    for j in range(n_obs_comp):
        if log_sigma[j] < lsig_lo or log_sigma[j] > lsig_hi:
            return -np.inf, grad

    q = np.empty((d, m_sz))
    for i in range(m_sz):
        for c in range(d):
            q[c, i] = flat[i * d + c]

    gp_term = 0.0
    xc = np.empty((d, m_sz))  # x - mu per component
    x = np.empty((m_sz, d))
    for c in range(d):
        xc_c = np.dot(L[c], q[c])
        gp_term += np.dot(q[c], q[c])
        for i in range(m_sz):
            xc[c, i] = xc_c[i]
            x[i, c] = xc_c[i] + mu[c]

    fvals = np.empty((m_sz, d))
    jx = np.empty((m_sz, d, d))
    jt = np.empty((m_sz, d, p))
    _rhs_jac(model_id, x, theta, fvals, jx, jt)

    mech_term = 0.0
    b = np.empty((d, m_sz))
    for c in range(d):
        gdot = np.dot(mmat[c], xc[c])
        resid = np.empty(m_sz)
        for i in range(m_sz):
            resid[i] = fvals[i, c] - gdot[i]
        bc = np.dot(Cinv[c], resid)
        for i in range(m_sz):
            b[c, i] = bc[i]
        mech_term += np.dot(resid, bc)

    obs_term = 0.0
    norm_term = 0.0
    sse = np.zeros(n_obs_comp)
    for j in range(n_obs_comp):
        c = obs_comps[j]
        sig2 = math.exp(2.0 * log_sigma[j])
        acc = 0.0
        for k in range(obs_offsets[j], obs_offsets[j + 1]):
            diff = obs_vals[k] - x[obs_rows[k], c]
            acc += diff * diff
        sse[j] = acc
        obs_term += acc / sig2
        norm_term += (obs_offsets[j + 1] - obs_offsets[j]) * log_sigma[j]

    value = -0.5 * (gp_term + obs_term + mech_term) - norm_term
    if not np.isfinite(value):
        return -np.inf, grad

    # Gradient wrt x (mech + obs parts), then pulled back through L^T and
    # combined with the isotropic prior pull -q.
    gx = np.empty((d, m_sz))
    for c in range(d):
        mtb = np.dot(b[c], mmat[c])
        for i in range(m_sz):
            acc = mtb[i]
            for e in range(d):
                acc -= b[e, i] * jx[i, e, c]
            gx[c, i] = acc
    for j in range(n_obs_comp):
        c = obs_comps[j]
        sig2 = math.exp(2.0 * log_sigma[j])
        for k in range(obs_offsets[j], obs_offsets[j + 1]):
            row = obs_rows[k]
            gx[c, row] += (obs_vals[k] - x[row, c]) / sig2

    for c in range(d):
        gq = np.dot(gx[c], L[c])  # L^T gx
        for i in range(m_sz):
            grad[i * d + c] = gq[i] - q[c, i]

    for qix in range(p):
        acc = 0.0
        for c in range(d):
            for i in range(m_sz):
                acc -= b[c, i] * jt[i, c, qix]
        grad[m_sz * d + qix] = acc

    for j in range(n_obs_comp):
        sig2 = math.exp(2.0 * log_sigma[j])
        n_c = obs_offsets[j + 1] - obs_offsets[j]
        grad[m_sz * d + p + j] = sse[j] / sig2 - n_c

    for i in range(flat.size):
        if not np.isfinite(grad[i]):
            for k in range(flat.size):
                grad[k] = 0.0
            return -np.inf, grad
    return value, grad
