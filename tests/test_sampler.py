import math
import warnings

import numpy as np
import pytest
from scipy import stats

from odebench import sampler
from odebench.sampler import (
    ChainResult,
    CompiledTarget,
    NutsConfig,
    _dual_average,
    _find_step_size,
    effective_sample_size,
    nuts_sample,
)


def std_normal(q):
    return -0.5 * float(q @ q), -q


def test_one_dim_standard_normal_moments():
    cfg = NutsConfig(n_warmup=3000, n_samples=3000, seed=7)
    res = nuts_sample(std_normal, np.array([0.5]), cfg)
    x = res.draws[:, 0]
    assert abs(x.mean()) < 0.1
    assert abs(x.var() - 1.0) < 0.15
    assert res.divergence_count == 0


def _correlated_gaussian(dim=10, seed=0):
    rng = np.random.default_rng(seed)
    a = rng.standard_normal((dim, dim))
    cov = a @ a.T + dim * np.eye(dim)
    prec = np.linalg.inv(cov)

    def target(q):
        g = -prec @ q
        return 0.5 * float(q @ g), g

    return target, cov


def test_ten_dim_correlated_gaussian_means():
    target, cov = _correlated_gaussian()
    cfg = NutsConfig(n_warmup=1500, n_samples=3000, seed=11)
    res = nuts_sample(target, np.zeros(10), cfg)
    for j in range(10):
        x = res.draws[:, j]
        ess = effective_sample_size(x)
        mcse = x.std() / math.sqrt(max(ess, 1.0))
        assert abs(x.mean()) < 4.0 * mcse, f"component {j}: mean {x.mean()}, mcse {mcse}"


def test_seeded_determinism():
    cfg = NutsConfig(n_warmup=200, n_samples=200, seed=42)
    a = nuts_sample(std_normal, np.zeros(3), cfg)
    b = nuts_sample(std_normal, np.zeros(3), cfg)
    assert np.array_equal(a.draws, b.draws)
    assert a.step_size == b.step_size


def test_seeded_draws_pinned():
    # Values recorded from an earlier commit's engine.  A refactor that
    # claims identical draws must keep them.
    res = nuts_sample(std_normal, np.zeros(3), NutsConfig(n_warmup=200, n_samples=200, seed=42))
    assert res.n_leapfrog == 1590
    assert res.step_size == pytest.approx(0.9782595779889992, rel=1e-12)
    first = [-0.006267441671293339, -0.48925177394871894, 0.4993455995339041]
    last = [-0.17866232684443717, -0.364535320754318, 0.8823580292728808]
    np.testing.assert_allclose(res.draws[0], first, rtol=1e-12)
    np.testing.assert_allclose(res.draws[-1], last, rtol=1e-12)


def test_compiled_target_with_python_func_matches_plain_callable():
    cfg = NutsConfig(n_warmup=200, n_samples=300, seed=5)
    res_plain = nuts_sample(std_normal, np.zeros(2), cfg)
    target = CompiledTarget(func=lambda q, ctx: std_normal(q), ctx=None)
    res_target = nuts_sample(target, np.zeros(2), cfg)
    assert np.array_equal(res_plain.draws, res_target.draws)
    assert res_plain.step_size == res_target.step_size
    assert res_plain.divergence_count == res_target.divergence_count


def _dual_average_step_sizes(accept_stat, n):
    """(step sizes, averaged step sizes) of n warmup updates of the engine's
    recursion from mu = log 10 at target 0.8."""
    h_bar = log_eps_bar = 0.0
    sizes, averaged = [], []
    for count in range(1, n + 1):
        log_eps, log_eps_bar, h_bar = _dual_average(
            count, math.log(10.0), 0.8, accept_stat, h_bar, log_eps_bar)
        sizes.append(math.exp(log_eps))
        averaged.append(math.exp(log_eps_bar))
    return sizes, averaged


def test_dual_averaging_fixed_point_at_target():
    sizes, averaged = _dual_average_step_sizes(0.8, 300)
    tail = np.array(sizes[-100:])
    assert np.max(np.abs(np.diff(tail))) / tail[-1] < 1e-3
    assert abs(averaged[-1] / 10.0 - 1.0) < 1e-3


def test_dual_averaging_monotone_directions():
    down, _ = _dual_average_step_sizes(0.0, 50)
    assert all(b < a for a, b in zip(down, down[1:]))
    up, _ = _dual_average_step_sizes(1.0, 50)
    assert all(b > a for a, b in zip(up, up[1:]))


def test_leapfrog_budget_respected(monkeypatch):
    for depth in (3, 5):
        monkeypatch.setattr(sampler, "MAX_TREE_DEPTH", depth)
        cfg = NutsConfig(n_warmup=100, n_samples=100, seed=2)
        res = nuts_sample(std_normal, np.zeros(4), cfg)
        assert res.n_leapfrog <= res.n_transitions * (2 ** depth - 1)


def test_two_dim_gaussian_ks_marginals():
    cfg = NutsConfig(n_warmup=2000, n_samples=3000, seed=19)
    res = nuts_sample(std_normal, np.zeros(2), cfg)
    for j in range(2):
        stat = stats.kstest(res.draws[:, j], "norm")
        assert stat.pvalue > 0.01


def test_energy_conservation_on_gaussian():
    cfg = NutsConfig(n_warmup=1000, n_samples=1000, seed=3)
    res = nuts_sample(std_normal, np.zeros(5), cfg)
    assert np.median(res.energy_errors) < 0.2


def test_nonfinite_init_rejected():
    def bad(q):
        return -np.inf, np.zeros_like(q)

    with pytest.raises(ValueError):
        nuts_sample(bad, np.zeros(2), NutsConfig(n_warmup=10, n_samples=10, seed=0))


def test_midchain_nonfinite_treated_as_divergence():
    # Density walls off |q| > 2: proposals outside are rejected, chain stays put.
    def walled(q):
        if np.any(np.abs(q) > 2.0):
            return -np.inf, np.zeros_like(q)
        return -0.5 * float(q @ q), -q

    cfg = NutsConfig(n_warmup=300, n_samples=500, seed=13)
    res = nuts_sample(walled, np.zeros(1), cfg)
    assert np.all(np.isfinite(res.draws))
    assert np.all(np.abs(res.draws) <= 2.0)
    # Values recorded from an earlier commit's engine: the divergent path.
    assert res.n_leapfrog == 1926
    assert res.divergence_count == 62
    assert res.step_size == 0.9826919984736037
    assert res.draws[0, 0] == -0.21744459382324766
    assert res.draws[-1, 0] == 1.6471166462508824


def test_target_evaluated_once_at_init():
    points = []

    def recorded(q):
        points.append(q.copy())
        return std_normal(q)

    nuts_sample(recorded, np.full(2, 0.5), NutsConfig(n_warmup=5, n_samples=5, seed=0))
    assert np.array_equal(points[0], np.full(2, 0.5))
    assert not np.array_equal(points[1], points[0])


def test_step_size_probe_on_a_stiff_target_does_not_warn():
    # The first probe step at 1.0 overflows r·r; the probe halves silently.
    def stiff(q):
        return -0.5e80 * float(q @ q), -1e80 * q

    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        res = nuts_sample(stiff, np.array([1.0]), NutsConfig(20, 20, seed=0))
    assert res.step_size == 2.3916781047259463e-40


def test_config_validation():
    with pytest.raises(ValueError):
        NutsConfig(n_warmup=10, n_samples=0, seed=0)
    with pytest.raises(ValueError):
        NutsConfig(n_warmup=-1, n_samples=10, seed=0)


def test_effective_sample_size_iid_vs_correlated():
    rng = np.random.default_rng(0)
    iid = rng.standard_normal(2000)
    assert effective_sample_size(iid) > 1000
    ar = np.zeros(2000)
    for i in range(1, 2000):
        ar[i] = 0.95 * ar[i - 1] + rng.standard_normal()
    assert effective_sample_size(ar) < 300


def _ar1_chain(phi, n=20_000):
    rng = np.random.default_rng(0)
    noise = rng.standard_normal(n)
    x = np.empty(n)
    x[0] = noise[0] / math.sqrt(1.0 - phi * phi)
    for i in range(1, n):
        x[i] = phi * x[i - 1] + noise[i]
    return x


@pytest.mark.parametrize("phi", [-0.5, 0.0, 0.5])
def test_effective_sample_size_matches_ar1_closed_form(phi):
    # An anti-correlated chain (phi < 0) carries more information than n
    # independent draws, so its ESS exceeds n.
    n = 20_000
    assert effective_sample_size(_ar1_chain(phi, n)) == pytest.approx(
        n * (1.0 - phi) / (1.0 + phi), rel=0.1)


def _ess_by_direct_sums(x):
    """Geyer's initial monotone ESS with each autocovariance summed lag by lag,
    up to the first nonpositive pair: the oracle for the FFT path."""
    x = np.asarray(x, dtype=float)
    n = x.size
    if n < 4:
        return float(n)
    if np.ptp(x) == 0.0:
        return 0.0
    x = x - x.mean()
    acov0 = float(x @ x) / n
    total, smallest = 0.0, math.inf
    for k in range(0, n - n % 2, 2):
        pair = (float(x[: n - k] @ x[k:]) + float(x[: n - k - 1] @ x[k + 1:])) / n / acov0
        if pair <= 0.0:
            break
        smallest = min(smallest, pair)
        total += smallest
    return n / max(-1.0 + 2.0 * total, 1.0 / math.log10(n))


@pytest.mark.parametrize("chain", [
    _ar1_chain(-0.5), _ar1_chain(0.0), _ar1_chain(0.5), np.full(500, 2.0),
    np.array([0.3, -1.2, 0.8, 0.1]),
], ids=["ar1-0.5", "ar1+0.0", "ar1+0.5", "frozen", "four-draws"])
def test_effective_sample_size_matches_direct_sums(chain):
    assert effective_sample_size(chain) == pytest.approx(_ess_by_direct_sums(chain), rel=1e-10)


def test_effective_sample_size_of_short_chain_is_its_length():
    assert effective_sample_size(np.arange(3.0)) == 3.0


def test_effective_sample_size_of_frozen_chain_is_zero():
    assert effective_sample_size(np.full(500, 2.0)) == 0.0
    # The mean of seven 0.1s is off by one ulp, so the centred chain is not 0.
    assert effective_sample_size(np.full(7, 0.1)) == 0.0


def test_chain_result_properties():
    res = ChainResult(draws=np.zeros((10, 2)), step_size=0.1, divergence_count=2,
                      accept_stats=np.full(10, 0.9), energy_errors=np.zeros(10),
                      n_transitions=20, n_leapfrog=60)
    assert res.divergence_rate == pytest.approx(0.2)
    assert np.array_equal(res.accept_stats, np.full(10, 0.9))


def test_no_warmup_samples_at_the_probed_step():
    """With n_warmup=0 the chain keeps the initial step-size probe's step."""
    prec = 1e4

    def stiff(q):
        return -0.5 * prec * float(q @ q), -prec * q

    q0 = np.array([0.01, 0.01])
    res = nuts_sample(stiff, q0, NutsConfig(n_warmup=0, n_samples=200, seed=1))
    logp, grad = stiff(q0)
    probe = _find_step_size(stiff, q0, logp, grad, np.random.default_rng(1))
    assert probe == 0.015625
    assert res.step_size == pytest.approx(probe, rel=1e-12)
    assert res.divergence_count == 0
