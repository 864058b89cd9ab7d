"""No-U-turn sampler with dual-averaging step-size adaptation.

Multinomial trajectory sampling over iteratively doubled leapfrog
trajectories, a unit mass matrix, and step-size adaptation only during
warmup.  The target is a single callable q -> (log density, gradient) that
returns a fresh gradient array on every call; the engine keeps the arrays it
is given and never writes into them.  Non-finite evaluations mid-chain are
treated as divergences and rejected.

Tree building is iterative (no recursion): each doubling walks 2^depth
leapfrog leaves while the states that opened each block still open
reproduce the internal no-U-turn checks of the recursive formulation.
There is one engine, plain Python over numpy arrays.  The kinetic energy is
computed only in ``_energy`` and the U-turn test only in ``_turned``, so a
mass matrix other than the unit one enters in those two functions (and in
the momentum draws).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

__all__ = [
    "NutsConfig",
    "ChainResult",
    "CompiledTarget",
    "nuts_sample",
    "effective_sample_size",
]

DIVERGENCE_THRESHOLD = 1000.0  # energy error bound before a transition is abandoned
TARGET_ACCEPT = 0.8  # acceptance statistic that warmup adapts the step size toward
MAX_TREE_DEPTH = 10  # doublings per transition, so at most 2**10 - 1 leapfrogs


@dataclass(frozen=True)
class NutsConfig:
    n_warmup: int
    n_samples: int
    seed: int

    def __post_init__(self):
        if self.n_warmup < 0 or self.n_samples <= 0:
            raise ValueError("n_warmup must be >= 0 and n_samples positive")


@dataclass(frozen=True)
class ChainResult:
    draws: np.ndarray  # n_samples x dim
    step_size: float
    divergence_count: int  # post-warmup transitions that diverged
    accept_stats: np.ndarray  # mean tree acceptance statistic per kept transition
    energy_errors: np.ndarray  # |H0 - H_accepted| per kept transition
    n_transitions: int
    n_leapfrog: int  # leapfrog steps of all transitions; the step-size probe's not counted

    @property
    def divergence_rate(self) -> float:
        return self.divergence_count / max(1, self.draws.shape[0])


# ---------------------------------------------------------------------------
# Engine.  f is the target: f(q) -> (log density, gradient).
# ---------------------------------------------------------------------------

def _dual_average(count, mu, target, accept_stat, h_bar, log_eps_bar):
    """Nesterov dual averaging of the log step size toward the target
    acceptance statistic (Hoffman & Gelman 2014, JMLR 15:1593, alg. 6).

    count is the 1-based warmup transition.  Returns the new
    (log_eps, log_eps_bar, h_bar).
    """
    gamma = 0.05
    t0 = 10.0
    kappa = 0.75
    eta_h = 1.0 / (count + t0)
    h_bar = (1.0 - eta_h) * h_bar + eta_h * (target - accept_stat)
    log_eps = mu - math.sqrt(count) / gamma * h_bar
    eta = count ** (-kappa)
    log_eps_bar = eta * log_eps + (1.0 - eta) * log_eps_bar
    return log_eps, log_eps_bar, h_bar


def _leapfrog(f, q, r, grad, eps):
    r_half = r + (0.5 * eps) * grad
    q_new = q + eps * r_half
    logp_new, grad_new = f(q_new)
    if not (math.isfinite(logp_new) and np.isfinite(grad_new).all()):
        return q_new, r_half, grad_new, -np.inf
    r_new = r_half + (0.5 * eps) * grad_new
    return q_new, r_new, grad_new, logp_new


def _energy(logp, r):
    """Negative Hamiltonian log p(q) - r·r/2; -inf where log p is not finite."""
    if not math.isfinite(logp):
        return -np.inf
    return logp - 0.5 * float(r @ r)


def _turned(q_left, q_right, r_left, r_right):
    """No-U-turn criterion on a span's two ends, given in time order."""
    dq = q_right - q_left
    return np.dot(dq, r_left) < 0.0 or np.dot(dq, r_right) < 0.0


def _find_step_size(f, q, logp, grad, rng):
    """First step size: halve 1.0 until one leapfrog gives a finite energy,
    then double or halve until the acceptance ratio crosses 1/2."""
    r = rng.standard_normal(q.size)
    h0 = _energy(logp, r)

    def log_ratio(eps):
        _, r1, _, logp1 = _leapfrog(f, q, r, grad, eps)
        return _energy(logp1, r1) - h0

    eps = 1.0
    # A step far too long can overflow r·r.  The energy is then -inf and the
    # step halves, which is the intended outcome, so the warning says nothing.
    with np.errstate(over="ignore"):
        for _ in range(60):
            ratio = log_ratio(eps)
            if math.isfinite(ratio):
                break
            eps *= 0.5
        direction = 1.0 if ratio > math.log(0.5) else -1.0
        for _ in range(100):
            eps *= 2.0 ** direction
            ratio = log_ratio(eps)
            if direction * ratio <= -direction * math.log(2.0):
                break
    return eps


def _transition(f, q, logp, grad, eps, max_depth, rng):
    """One NUTS transition from (q, logp, grad) at step size eps.

    Returns the next state's (q, logp, grad), the mean acceptance statistic
    over the leaves, whether a leaf diverged, |H0 - H| of the next state and
    the number of leapfrog steps.
    """
    r0 = rng.standard_normal(q.size)
    h0 = _energy(logp, r0)
    left = right = (q, r0, grad, logp)  # the trajectory's ends, in time order
    prop = (q, logp, grad, h0)  # the state the transition takes so far
    log_weight = 0.0
    alpha_sum = 0.0
    n_leapfrog = 0
    diverged = turned = False

    for depth in range(max_depth):
        forward = rng.random() < 0.5
        step = eps if forward else -eps
        qq, rr, gg, lp = right if forward else left
        starts = [None] * (depth + 1)  # (q, r) of the first leaf of each level's block
        for leaf in range(1, (1 << depth) + 1):
            qq, rr, gg, lp = _leapfrog(f, qq, rr, gg, step)
            n_leapfrog += 1
            h = _energy(lp, rr)
            if not h0 - h <= DIVERGENCE_THRESHOLD:  # also when h is -inf
                diverged = True  # counted in the mean acceptance; its exp(h - h0) is 0.0
                break
            delta = h - h0
            alpha_sum += math.exp(delta) if delta < 0.0 else 1.0
            if leaf == 1:
                sub, sub_logw = (qq, lp, gg, h), delta
            else:
                total = np.logaddexp(sub_logw, delta)
                if math.log(rng.random()) < delta - total:
                    sub = (qq, lp, gg, h)
                sub_logw = total

            lvl = 1
            if leaf % 2:  # opens a block of 2^lvl leaves at each level it starts
                while lvl <= depth and (leaf - 1) % (1 << lvl) == 0:
                    starts[lvl] = (qq, rr)
                    lvl += 1
            else:  # closes the blocks it ends; each must not have turned
                while not turned and lvl <= depth and leaf % (1 << lvl) == 0:
                    q_start, r_start = starts[lvl]
                    turned = (_turned(q_start, qq, r_start, rr) if forward
                              else _turned(qq, q_start, rr, r_start))
                    lvl += 1
                if turned:
                    break
        if diverged or turned:
            break

        if math.log(rng.random()) < sub_logw - log_weight:
            prop = sub
        log_weight = np.logaddexp(log_weight, sub_logw)
        if forward:
            right = (qq, rr, gg, lp)
        else:
            left = (qq, rr, gg, lp)
        if _turned(left[0], right[0], left[1], right[1]):
            break

    q, logp, grad, h = prop
    return q, logp, grad, alpha_sum / n_leapfrog, diverged, abs(h0 - h), n_leapfrog


@dataclass(frozen=True)
class CompiledTarget:
    """A log density func(q, ctx) plus the data tuple it reads, called as f(q).

    ``magi.run_inference`` hands every MAGI chain one, so code that wraps
    ``func`` sees each log-density call of a chain; the benchmark's tracing
    counts them that way.  To ``nuts_sample`` it is one more callable target.
    """

    func: Callable
    ctx: tuple

    def __call__(self, q: np.ndarray) -> tuple[float, np.ndarray]:
        return self.func(q, self.ctx)


def nuts_sample(
    logdensity_and_grad: Callable[[np.ndarray], tuple[float, np.ndarray]],
    init: np.ndarray,
    config: NutsConfig,
) -> ChainResult:
    """Run one NUTS chain; deterministic given (init, config.seed).

    The target is a callable q -> (log density, gradient).  It must return
    a fresh gradient array on every call: the engine keeps the arrays it is
    given without copying them.
    """
    f = logdensity_and_grad
    q = np.array(init, dtype=float).ravel()
    logp, grad = f(q)
    if not (np.isfinite(logp) and np.isfinite(grad).all()):
        raise ValueError("log density must be finite with finite gradient at init")

    rng = np.random.default_rng(config.seed)
    eps = _find_step_size(f, q, logp, grad, rng)
    da_mu = math.log(10.0 * eps)
    log_eps = log_eps_bar = math.log(eps)
    h_bar = 0.0

    n_warmup, n_samples = config.n_warmup, config.n_samples
    draws = np.empty((n_samples, q.size))
    accept_stats = np.empty(n_samples)
    energy_errors = np.empty(n_samples)
    divergences = 0
    n_leapfrog = 0
    for m in range(n_warmup + n_samples):
        step = math.exp(log_eps) if m < n_warmup else math.exp(log_eps_bar)
        q, logp, grad, accept_stat, diverged, energy_error, n_lf = _transition(
            f, q, logp, grad, step, MAX_TREE_DEPTH, rng)
        n_leapfrog += n_lf
        if m < n_warmup:
            log_eps, log_eps_bar, h_bar = _dual_average(
                m + 1, da_mu, TARGET_ACCEPT, accept_stat, h_bar, log_eps_bar)
        else:
            i = m - n_warmup
            draws[i] = q
            accept_stats[i] = accept_stat
            energy_errors[i] = energy_error
            divergences += diverged

    return ChainResult(
        draws=draws,
        step_size=math.exp(log_eps_bar),
        divergence_count=divergences,
        accept_stats=accept_stats,
        energy_errors=energy_errors,
        n_transitions=n_warmup + n_samples,
        n_leapfrog=n_leapfrog,
    )


def effective_sample_size(x: np.ndarray) -> float:
    """ESS of one scalar chain via Geyer's initial monotone sequence.

    Pair sums rho[2k] + rho[2k+1] of the autocorrelations from lag 0 are
    kept while positive and forced non-increasing; tau = -1 + 2 * sum(pair
    sums) and ESS = n / tau, so an anti-correlated chain can exceed n.  The
    autocovariances come from a zero-padded FFT, in O(n log n).  tau
    is floored at 1/log10(n), Stan's bound for near-alternating chains.  A
    chain of at least 4 draws that never moved has ESS 0; a shorter one
    gives n.
    """
    x = np.asarray(x, dtype=float)
    n = x.size
    if n < 4:
        return float(n)
    if np.ptp(x) == 0.0:
        return 0.0
    x = x - x.mean()
    # The autocovariance sum_t x_t x_{t+k} / n through one FFT pair, zero-padded
    # to a power of two at least 2n - 1 long so no lag wraps around.
    size = 1 << (2 * n - 1).bit_length()
    spectrum = np.fft.rfft(x, size)
    acov = np.fft.irfft(spectrum.real ** 2 + spectrum.imag ** 2, size)[:n] / n
    if acov[0] <= 0:
        return 0.0
    pair_sums = (acov[: n - n % 2] / acov[0]).reshape(-1, 2).sum(axis=1)
    nonpositive = np.flatnonzero(pair_sums <= 0.0)
    if nonpositive.size:
        pair_sums = pair_sums[: nonpositive[0]]
    tau = -1.0 + 2.0 * float(np.minimum.accumulate(pair_sums).sum())
    return float(n / max(tau, 1.0 / math.log10(n)))
