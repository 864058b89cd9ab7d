"""No-U-Turn sampler with dual-averaging step-size adaptation.

Multinomial trajectory sampling over iteratively doubled leapfrog
trajectories, a unit mass matrix, and step-size adaptation only during
warmup.  The target is a single callable returning (log density,
gradient); non-finite evaluations mid-chain are treated as divergences
and rejected.

Tree building is iterative (no recursion): each doubling walks 2^depth
leapfrog leaves while a stack of block-boundary states reproduces the
internal no-U-turn checks of the recursive formulation.  Two engines run
the identical algorithm: a numpy reference, and a numba-compiled twin
used automatically when the log-density is itself a compiled dispatcher
(the hot path for the trajectory posteriors).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from ._fast import NUMBA_OK, NumbaDispatcher, njit

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
# Engine template.  _ENGINE_SOURCE is compiled twice: once as plain Python
# (any callable target) and once under numba (compiled targets).  Writing
# the algorithm a single time keeps the two engines from drifting apart.
# ---------------------------------------------------------------------------

_ENGINE_SOURCE = r'''
def _dual_average(count, mu, target, accept_stat, h_bar, log_eps_bar):
    # Nesterov dual averaging of the log step size toward the target
    # acceptance statistic (Hoffman & Gelman 2014, JMLR 15:1593, alg. 6);
    # count is the 1-based warmup transition.  Returns the new
    # (log_eps, log_eps_bar, h_bar).
    gamma = 0.05
    t0 = 10.0
    kappa = 0.75
    eta_h = 1.0 / (count + t0)
    h_bar = (1.0 - eta_h) * h_bar + eta_h * (target - accept_stat)
    log_eps = mu - math.sqrt(count) / gamma * h_bar
    eta = count ** (-kappa)
    log_eps_bar = eta * log_eps + (1.0 - eta) * log_eps_bar
    return log_eps, log_eps_bar, h_bar


def _leapfrog(f, ctx, q, r, grad, eps):
    r_half = r + (0.5 * eps) * grad
    q_new = q + eps * r_half
    logp_new, grad_new = f(q_new, ctx)
    if not (math.isfinite(logp_new) and np.isfinite(grad_new).all()):
        return q_new, r_half, grad_new, -np.inf
    r_new = r_half + (0.5 * eps) * grad_new
    return q_new, r_new, grad_new, logp_new


def _find_step_size(f, ctx, q, logp, grad, rng):
    eps = 1.0
    r = rng.standard_normal(q.size)
    h0 = logp - 0.5 * float(r @ r)
    log_ratio = -np.inf
    for _ in range(60):
        q1, r1, g1, logp1 = _leapfrog(f, ctx, q, r, grad, eps)
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
        q1, r1, g1, logp1 = _leapfrog(f, ctx, q, r, grad, eps)
        if math.isfinite(logp1):
            log_ratio = (logp1 - 0.5 * float(r1 @ r1)) - h0
        else:
            log_ratio = -np.inf
        if direction * log_ratio <= -direction * math.log(2.0):
            break
    return eps


def _transition(f, ctx, q, logp, grad, eps, max_depth, rng, slot_q, slot_r):
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
            qq, rr, gg, lp = _leapfrog(f, ctx, qq, rr, gg, direction * eps)
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


def _chain(f, ctx, q0, n_warmup, n_samples, target_accept, max_depth, rng,
           draws, accept_stats, energy_errors):
    q = q0.copy()
    logp, grad = f(q, ctx)
    grad = grad.copy()

    eps = _find_step_size(f, ctx, q, logp, grad, rng)
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
            f, ctx, q, logp, grad, step, max_depth, rng, slot_q, slot_r)
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
'''

# Names the engine source reads as globals; numba freezes them as constants.
_ENGINE_GLOBALS = {"math": math, "np": np, "DIVERGENCE_THRESHOLD": DIVERGENCE_THRESHOLD}

_py_ns: dict = dict(_ENGINE_GLOBALS)
exec(compile(_ENGINE_SOURCE, "<sampler-python-engine>", "exec"), _py_ns)
_chain_python = _py_ns["_chain"]
_dual_average = _py_ns["_dual_average"]

if NUMBA_OK:
    # Compiled twin: the same source, with the helpers rebound to their
    # compiled versions before the chain driver is compiled.  Functions that
    # close over a dispatcher argument cannot be disk-cached by numba, so
    # compilation happens once per process.
    _nb_ns: dict = dict(_ENGINE_GLOBALS)
    exec(compile(_ENGINE_SOURCE, "<sampler-numba-engine>", "exec"), _nb_ns)
    _nb_ns["_dual_average"] = njit(cache=False)(_nb_ns["_dual_average"])
    _nb_ns["_leapfrog"] = njit(cache=False)(_nb_ns["_leapfrog"])
    _nb_ns["_find_step_size"] = njit(cache=False)(_nb_ns["_find_step_size"])
    _nb_ns["_transition"] = njit(cache=False)(_nb_ns["_transition"])
    _chain_numba = njit(cache=False)(_nb_ns["_chain"])
else:  # pragma: no cover
    _chain_numba = None


@dataclass(frozen=True)
class CompiledTarget:
    """A log-density f(q, ctx) plus its per-problem data tuple.

    When func is a numba dispatcher, nuts_sample runs the compiled chain
    engine, and all problems sharing the same ctx array layout reuse one
    compilation.  Any other func is allowed and runs on the numpy engine.
    """

    func: Callable
    ctx: tuple


def nuts_sample(
    logdensity_and_grad: Callable[[np.ndarray], tuple[float, np.ndarray]] | CompiledTarget,
    init: np.ndarray,
    config: NutsConfig,
) -> ChainResult:
    """Run one NUTS chain; deterministic given (init, config.seed).

    A CompiledTarget whose func is a numba dispatcher is driven by the
    compiled engine; any other CompiledTarget, or a plain callable, uses the
    numpy engine.  Both engines execute the same algorithm source
    with an identical random-number stream layout, and produce identical
    draws for identical seeds.
    """
    if isinstance(logdensity_and_grad, CompiledTarget):
        f, ctx = logdensity_and_grad.func, logdensity_and_grad.ctx
        engine = _chain_numba if isinstance(f, NumbaDispatcher) else _chain_python
        probe = lambda q: f(q, ctx)  # noqa: E731
    else:
        engine = _chain_python
        raw = logdensity_and_grad
        f = lambda q, _ctx: raw(q)  # noqa: E731
        ctx = None
        probe = raw

    q0 = np.array(init, dtype=float).ravel()
    rng = np.random.default_rng(config.seed)
    logp0, grad0 = probe(q0)
    grad0 = np.asarray(grad0, dtype=float)
    if not (np.isfinite(logp0) and np.all(np.isfinite(grad0))):
        raise ValueError("log density must be finite with finite gradient at init")

    draws = np.empty((config.n_samples, q0.size))
    accept_stats = np.empty(config.n_samples)
    energy_errors = np.empty(config.n_samples)

    step_size, divergences, n_leapfrog = engine(
        f, ctx, q0, config.n_warmup, config.n_samples, config.target_accept,
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
