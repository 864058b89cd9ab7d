"""Tests of the benchmark's own helpers.

    python3 -m pytest -q bench
"""

import os
import sys

import numpy as np
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

from checks import effective_sample_size, independent_truth, pinn_forward  # noqa: E402
from metrics import (  # noqa: E402
    END_TO_END,
    PER_LAYER,
    at_nominal_speed,
    median_by_key,
    per_layer,
    result_line,
)
from tracing import (  # noqa: E402
    Span,
    covered_length,
    layer_self_times,
    outermost_total,
    self_times,
)


def ar1(phi: float, n: int, seed: int = 0) -> np.ndarray:
    rng = np.random.default_rng(seed)
    eps = rng.standard_normal(n)
    x = np.empty(n)
    x[0] = eps[0] / np.sqrt(1.0 - phi * phi)
    for i in range(1, n):
        x[i] = phi * x[i - 1] + eps[i]
    return x


@pytest.mark.parametrize("phi", [0.0, 0.5, 0.9])
def test_ess_matches_ar1_closed_form(phi):
    n = 200_000
    expected = n * (1.0 - phi) / (1.0 + phi)
    assert effective_sample_size(ar1(phi, n)) == pytest.approx(expected, rel=0.05)


def test_ess_of_a_chain_that_never_moves_is_zero():
    assert effective_sample_size(np.full(500, 2.0)) == 0.0


def test_ess_rejects_too_short_chains():
    with pytest.raises(ValueError):
        effective_sample_size(np.arange(3.0))


def test_covered_length_merges_overlaps_and_clips():
    assert covered_length([], 0.0, 10.0) == 0.0
    assert covered_length([(1, 2), (3, 5)], 0.0, 10.0) == pytest.approx(3.0)
    assert covered_length([(1, 4), (3, 6), (2, 3)], 0.0, 10.0) == pytest.approx(5.0)
    assert covered_length([(-5, 2), (8, 20)], 0.0, 10.0) == pytest.approx(4.0)
    assert covered_length([(11, 12)], 0.0, 10.0) == 0.0


def span(id, name, parent, start, end, **kw):
    return Span(id=id, name=name, parent=parent, start=start, end=end, **kw)


def tree():
    # root [0, 10] has two children that overlap, as in a process pool, and
    # the NUTS span holds 1.5 s of counted log-density work.
    return [
        span("r", "experiments.run_study", None, 0.0, 10.0),
        span("a", "magi.fit_magi", "r", 1.0, 4.0),
        span("g", "gp.fit", "a", 1.5, 2.5),
        span("n", "sampler.nuts", "r", 3.0, 7.0,
             attrs={"leapfrogs": 100, "transitions": 10, "divergences": 1},
             counted={"magi.logp_grad": [50, 1.5]}),
    ]


def test_self_time_subtracts_union_of_children_and_counted_work():
    own = self_times(tree())
    assert own["r"] == pytest.approx(10.0 - 6.0)  # children cover [1, 7]
    assert own["a"] == pytest.approx(3.0 - 1.0)
    assert own["g"] == pytest.approx(1.0)
    assert own["n"] == pytest.approx(4.0 - 1.5)


def test_layer_self_times_sum_to_root_duration_without_overlap():
    spans = [s for s in tree() if s.id != "n"]
    layers = layer_self_times(spans)
    assert sum(layers.values()) == pytest.approx(10.0)
    assert layers["gp"] == pytest.approx(1.0)
    assert layers["magi"] == pytest.approx(2.0)


def test_counted_work_goes_to_its_own_layer():
    layers = layer_self_times(tree())
    assert layers["sampler"] == pytest.approx(2.5)
    assert layers["magi"] == pytest.approx(2.0 + 1.5)


def test_outermost_total_counts_nested_same_name_once():
    spans = [
        span("a", "experiments.simulate", None, 0.0, 2.0),
        span("b", "experiments.simulate", "a", 0.5, 1.5),
        span("c", "experiments.simulate", None, 3.0, 4.0),
    ]
    assert outermost_total(spans, "experiments.simulate") == (pytest.approx(3.0), 2)
    assert outermost_total(spans, "gp.fit") == (0.0, 0)


def test_per_layer_figures_of_a_round():
    spans = tree()
    out = per_layer(spans, spans[0], infer_untraced_s=8.0, epochs_per_train=0,
                    ess_min=[4.0, 6.0], run_s=[3.0, 5.0], slowdown=[], fit_ratio=[0.5, 2.5, 1.0])
    assert set(out) == set(PER_LAYER)
    assert out["sampler.sample_s"] == pytest.approx(4.0)
    assert out["sampler.leapfrogs_per_transition"] == pytest.approx(10.0)
    assert out["sampler.overhead_us_per_leapfrog"] == pytest.approx(1e6 * 2.5 / 100)
    assert out["magi.logp_grad_us"] == pytest.approx(1e6 * 1.5 / 50)
    assert out["sampler.ess_theta_min"] == pytest.approx(5.0)
    assert out["sampler.ess_theta_per_grad"] == pytest.approx(10.0 / 50)
    assert out["sampler.ess_theta_per_s"] == pytest.approx(10.0 / 8.0)
    assert out["experiments.run_s"] == pytest.approx(4.0)
    assert out["gp.fit_s_per_call"] == pytest.approx(1.0)
    assert out["magi.fit_rmse_over_noise"] == pytest.approx(1.0)
    assert out["trace.covered_share"] == pytest.approx(0.6)
    assert out["trace.overhead_pct"] == pytest.approx(25.0)
    # A layer that did no work reads 0, ratios without a base too.
    assert out["pinn.epoch_ms"] == 0.0
    assert out["experiments.parallel_slowdown"] == 0.0


def test_median_by_key_and_result_line():
    rows = [{"a": 1.0, "b": 10.0}, {"a": 3.0, "b": 30.0}, {"a": 2.0, "b": 50.0}]
    assert median_by_key(rows) == {"a": 2.0, "b": 30.0}
    values = {"setup_s": 1.0, "infer_s": 2.0, "peak_rss_mb": 3.0}
    line = result_line(True, 4, 0, values, END_TO_END)
    assert list(line) == ["correct", "attempted", "failed", "metrics"]
    assert line["metrics"]["infer_s"] == {"value": 2.0, "unit": "s"}


def test_at_nominal_speed_uses_the_references_on_both_sides():
    got = at_nominal_speed([4.0, 6.0], [0.2, 0.4, 0.2], nominal=0.2)
    assert got == pytest.approx([4.0 * 0.2 / 0.3, 6.0 * 0.2 / 0.3])
    with pytest.raises(ValueError):
        at_nominal_speed([1.0], [0.2], nominal=0.2)


def test_pinn_forward_matches_the_program(tmp_path):
    from odebench.pinn import forward_with_time_derivative, init_mlp

    net = init_mlp([1, 20, 20, 20, 3], 0.0, 6.0, seed=3)
    net.biases = [np.random.default_rng(4).standard_normal(b.shape) for b in net.biases]
    path = tmp_path / "net.json"
    net.to_json(str(path))
    t = np.linspace(0.0, 12.0, 321)
    want, _ = forward_with_time_derivative(net, t)
    np.testing.assert_allclose(pinn_forward(str(path), t), want, rtol=1e-12, atol=1e-12)


def test_independent_truth_agrees_with_the_program():
    from odebench.experiments import get_regime, ground_truth

    regime = get_regime("seir-full")
    np.testing.assert_allclose(independent_truth(regime), ground_truth(regime).values,
                               rtol=0, atol=1e-6)
