"""No-U-Turn sampler with dual-averaging step-size adaptation.

Multinomial trajectory sampling over iteratively doubled leapfrog
trajectories, a unit mass matrix, and step-size adaptation only during
warmup.  The target is a single callable returning (log density,
gradient); non-finite evaluations mid-chain are treated as divergences
and rejected.

Tree building is iterative (no recursion): each doubling walks 2^depth
leapfrog leaves while a stack of block-boundary states reproduces the
internal no-U-turn checks of the recursive formulation.  There is one
engine, plain Python over numpy arrays.
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


@dataclass(frozen=True)
class NutsConfig:
    n_warmup: int = 3000
    n_samples: int = 3000
    target_accept: float = 0.8
    max_tree_depth: int = 10
    seed: int = 0

    def __post_init__(self):
        if not 0.0 < self.target_accept < 1.0:
            raise ValueError("target_accept must lie in (0, 1)")
        if self.max_tree_depth < 1:
            raise ValueError("max_tree_depth must be >= 1")
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
    n_leapfrog: int = 0

    @property
    def mean_accept(self) -> float:
        return float(np.mean(self.accept_stats))

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


def _find_step_size(f, q, logp, grad, rng):
    eps = 1.0
    r = rng.standard_normal(q.size)
    h0 = logp - 0.5 * float(r @ r)
    log_ratio = -np.inf
    for _ in range(60):
        q1, r1, g1, logp1 = _leapfrog(f, q, r, grad, eps)
        if math.isfinite(logp1):
            log_ratio = (logp1 - 0.5 * float(r1 @ r1)) - h0
        else:
            log_ratio = -np.inf
        if math.isfinite(log_ratio):
            break
        eps *= 0.5
    direction = 1.0 if log_ratio > math.log(0.5) else -1.0
    for _ in range(100):
        eps *= 2.0 ** direction
        q1, r1, g1, logp1 = _leapfrog(f, q, r, grad, eps)
        if math.isfinite(logp1):
            log_ratio = (logp1 - 0.5 * float(r1 @ r1)) - h0
        else:
            log_ratio = -np.inf
        if direction * log_ratio <= -direction * math.log(2.0):
            break
    return eps


def _transition(f, q, logp, grad, eps, max_depth, rng, slot_q, slot_r):
    dim = q.size
    r0 = rng.standard_normal(dim)
    h0 = logp - 0.5 * float(r0 @ r0)

    q_minus = q.copy()
    q_plus = q.copy()
    r_minus = r0.copy()
    r_plus = r0.copy()
    grad_minus = grad.copy()
    grad_plus = grad.copy()
    logp_minus = logp
    logp_plus = logp

    prop_q = q.copy()
    prop_grad = grad.copy()
    prop_logp = logp
    prop_h = h0

    log_weight = 0.0
    alpha_sum = 0.0
    n_alpha = 0
    diverged = False
    n_leapfrog = 0

    for depth in range(max_depth):
        direction = 1.0 if rng.random() < 0.5 else -1.0
        if direction > 0.0:
            qq, rr, gg, lp = q_plus, r_plus, grad_plus, logp_plus
        else:
            qq, rr, gg, lp = q_minus, r_minus, grad_minus, logp_minus

        n_leaves = 1 << depth
        sub_ok = True
        sub_logw = -np.inf
        sub_q = prop_q
        sub_grad = prop_grad
        sub_logp = prop_logp
        sub_h = prop_h

        for leaf in range(1, n_leaves + 1):
            qq, rr, gg, lp = _leapfrog(f, qq, rr, gg, direction * eps)
            n_leapfrog += 1
            n_alpha += 1
            if math.isfinite(lp):
                h = lp - 0.5 * float(rr @ rr)
            else:
                h = -np.inf
            if math.isfinite(h):
                delta = h - h0
                alpha_sum += math.exp(delta) if delta < 0.0 else 1.0
                div = (h0 - h) > DIVERGENCE_THRESHOLD
            else:
                div = True
            if div:
                diverged = True
                sub_ok = False
                break

            lw = h - h0
            if leaf == 1:
                sub_q, sub_grad, sub_logp, sub_h = qq, gg, lp, h
                sub_logw = lw
            else:
                total = np.logaddexp(sub_logw, lw)
                if math.log(rng.random()) < lw - total:
                    sub_q, sub_grad, sub_logp, sub_h = qq, gg, lp, h
                sub_logw = total

            if (leaf - 1) % 2 == 0:
                # Odd 1-indexed position: left boundary of the blocks it opens.
                lvl = 1
                while lvl <= depth and (leaf - 1) % (1 << lvl) == 0:
                    slot_q[lvl] = qq
                    slot_r[lvl] = rr
                    lvl += 1
            else:
                lvl = 1
                while lvl <= depth and leaf % (1 << lvl) == 0:
                    dq = direction * (qq - slot_q[lvl])
                    if np.dot(dq, slot_r[lvl]) < 0.0 or np.dot(dq, rr) < 0.0:
                        sub_ok = False
                        break
                    lvl += 1
                if not sub_ok:
                    break

        if not sub_ok:
            break

        if math.log(rng.random()) < sub_logw - log_weight:
            prop_q, prop_grad, prop_logp, prop_h = sub_q, sub_grad, sub_logp, sub_h
        log_weight = np.logaddexp(log_weight, sub_logw)

        if direction > 0.0:
            q_plus, r_plus, grad_plus, logp_plus = qq, rr, gg, lp
        else:
            q_minus, r_minus, grad_minus, logp_minus = qq, rr, gg, lp

        dq = q_plus - q_minus
        if np.dot(dq, r_minus) < 0.0 or np.dot(dq, r_plus) < 0.0:
            break

    accept_stat = alpha_sum / max(1, n_alpha)
    if math.isfinite(prop_h):
        energy_error = abs(h0 - prop_h)
    else:
        energy_error = np.inf
    return prop_q, prop_logp, prop_grad, accept_stat, diverged, energy_error, n_leapfrog


def _chain(f, q0, n_warmup, n_samples, target_accept, max_depth, rng,
           draws, accept_stats, energy_errors):
    q = q0.copy()
    logp, grad = f(q)
    grad = grad.copy()

    eps = _find_step_size(f, q, logp, grad, rng)
    da_mu = math.log(10.0 * eps)
    log_eps = math.log(eps)
    log_eps_bar = 0.0
    h_bar = 0.0

    slot_q = np.empty((max_depth + 1, q.size))
    slot_r = np.empty((max_depth + 1, q.size))

    divergences = 0
    total = n_warmup + n_samples
    n_leapfrog_total = 0

    for m in range(total):
        step = math.exp(log_eps) if m < n_warmup else math.exp(log_eps_bar)
        q, logp, grad, accept_stat, diverged, energy_error, n_lf = _transition(
            f, q, logp, grad, step, max_depth, rng, slot_q, slot_r)
        n_leapfrog_total += n_lf
        if m < n_warmup:
            log_eps, log_eps_bar, h_bar = _dual_average(
                m + 1, da_mu, target_accept, accept_stat, h_bar, log_eps_bar)
        else:
            i = m - n_warmup
            draws[i] = q
            accept_stats[i] = accept_stat
            energy_errors[i] = energy_error
            if diverged:
                divergences += 1

    return math.exp(log_eps_bar), divergences, n_leapfrog_total


@dataclass(frozen=True)
class CompiledTarget:
    """A log density func(q, ctx) plus the data tuple it reads.

    ``nuts_sample`` binds ``ctx`` once and calls ``func(q, ctx)`` for every
    evaluation.  ``magi.make_sampler_target`` returns one, so code that wraps
    ``func`` sees each log-density call of a chain; the benchmark's tracing
    counts them that way.
    """

    func: Callable
    ctx: tuple


def nuts_sample(
    logdensity_and_grad: Callable[[np.ndarray], tuple[float, np.ndarray]] | CompiledTarget,
    init: np.ndarray,
    config: NutsConfig,
) -> ChainResult:
    """Run one NUTS chain; deterministic given (init, config.seed).

    The target is a plain callable q -> (log density, gradient) or a
    CompiledTarget; both give identical draws for identical seeds.
    """
    if isinstance(logdensity_and_grad, CompiledTarget):
        func, ctx = logdensity_and_grad.func, logdensity_and_grad.ctx
        f = lambda q: func(q, ctx)  # noqa: E731
    else:
        f = logdensity_and_grad

    q0 = np.array(init, dtype=float).ravel()
    rng = np.random.default_rng(config.seed)
    logp0, grad0 = f(q0)
    grad0 = np.asarray(grad0, dtype=float)
    if not (np.isfinite(logp0) and np.all(np.isfinite(grad0))):
        raise ValueError("log density must be finite with finite gradient at init")

    draws = np.empty((config.n_samples, q0.size))
    accept_stats = np.empty(config.n_samples)
    energy_errors = np.empty(config.n_samples)

    step_size, divergences, n_leapfrog = _chain(
        f, q0, config.n_warmup, config.n_samples, config.target_accept,
        config.max_tree_depth, rng, draws, accept_stats, energy_errors)

    return ChainResult(
        draws=draws,
        step_size=step_size,
        divergence_count=divergences,
        accept_stats=accept_stats,
        energy_errors=energy_errors,
        n_transitions=config.n_warmup + config.n_samples,
        n_leapfrog=n_leapfrog,
    )


def effective_sample_size(x: np.ndarray) -> float:
    """ESS of one scalar chain via Geyer's initial monotone positive sequence.

    A chain of at least 4 draws that never moved has ESS 0.
    """
    x = np.asarray(x, dtype=float)
    n = x.size
    if n < 4:
        return float(n)
    if np.ptp(x) == 0.0:
        return 0.0
    x = x - x.mean()
    acov = np.correlate(x, x, mode="full")[n - 1:] / n
    if acov[0] <= 0:
        return 0.0
    rho = acov / acov[0]
    pair_sums = []
    k = 1
    while k + 1 < n:
        s = rho[k] + rho[k + 1]
        if s <= 0:
            break
        pair_sums.append(s)
        k += 2
    running = np.minimum.accumulate(pair_sums) if pair_sums else []
    tau = 1.0 + 2.0 * float(np.sum(running))
    return float(n / max(tau, 1e-12))
