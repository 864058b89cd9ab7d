"""Metric names, units and how per-operation figures become a run's figures.

End-to-end metrics come from untraced operations; per-layer metrics from
the traced operation of each round.  A run reports the median over its
rounds of each per-layer metric.  The end-to-end times are first rescaled
to the machine's nominal speed (``at_nominal_speed``); ``setup_s`` is then
the median over set-ups and ``infer_s`` the mean over operations, which
varies less between runs than their median does, and is the time per
replicate run that a study of many replicates pays.  A per-layer metric reads 0 on a
workload where its layer does no work or where its ratio has no base.
"""

from __future__ import annotations

import statistics

from tracing import LAYERS, Span, covered_length, layer_self_times, outermost_total, self_times

END_TO_END = {"setup_s": "s", "infer_s": "s", "peak_rss_mb": "MB"}

PER_LAYER = {
    "experiments.run_s": "s",
    "experiments.parallel_slowdown": "ratio",
    "experiments.simulate_s": "s",
    "experiments.metrics_s": "s",
    "experiments.save_s": "s",
    "gp.fit_s": "s",
    "gp.fit_calls": "count",
    "gp.fit_s_per_call": "s",
    "gp.kernel_build_s": "s",
    "gp.kernel_build_calls": "count",
    "magi.init_s": "s",
    "magi.problem_s": "s",
    "magi.logp_grad_calls": "count",
    "magi.logp_grad_s": "s",
    "magi.logp_grad_us": "us",
    "magi.fit_rmse_over_noise": "ratio",
    "sampler.sample_s": "s",
    "sampler.leapfrogs": "count",
    "sampler.leapfrogs_per_transition": "count",
    "sampler.overhead_us_per_leapfrog": "us",
    "sampler.divergences": "count",
    "sampler.ess_theta_min": "count",
    "sampler.ess_theta_per_grad": "1/count",
    "sampler.ess_theta_per_s": "1/s",
    "integrate.rk45_s": "s",
    "integrate.rk45_calls": "count",
    "pinn.train_s": "s",
    "pinn.epoch_ms": "ms",
    **{f"{layer}.self_s": "s" for layer in LAYERS},
    "trace.covered_share": "ratio",
    "trace.overhead_pct": "%",
}


def _ratio(num: float, den: float) -> float:
    return num / den if den > 0 else 0.0


def per_layer(
    spans: list[Span],
    root: Span,
    *,
    infer_untraced_s: float,
    epochs_per_train: int,
    ess_min: list[float],
    run_s: list[float],
    slowdown: list[float],
    fit_ratio: list[float],
) -> dict[str, float]:
    """Per-layer figures of one traced round.

    ``spans`` holds the run's setup spans and the round's traced operation,
    whose root span is ``root``.  ``ess_min`` is the smallest theta ESS of
    each replicate, ``run_s`` the per-replicate wall times from the untraced
    manifest, ``slowdown`` each replicate's wall time under the pool over its
    wall time alone (empty without a pool), and ``fit_ratio`` each MAGI
    replicate's posterior-mean RMSE at the observation times over the noise
    sd (``checks.RunChecker.check``).
    """
    def total(name):
        return outermost_total(spans, name)

    fit_s, fit_calls = total("gp.fit")
    kb_s, kb_calls = total("gp.kernel_build")
    nuts = [sp for sp in spans if sp.name == "sampler.nuts"]
    sample_s = sum(sp.duration for sp in nuts)
    leapfrogs = sum(sp.attrs.get("leapfrogs", 0) for sp in nuts)
    transitions = sum(sp.attrs.get("transitions", 0) for sp in nuts)
    logp = [sp.counted["magi.logp_grad"] for sp in nuts if "magi.logp_grad" in sp.counted]
    logp_calls = sum(c for c, _ in logp)
    logp_s = sum(s for _, s in logp)
    train_s, trains = total("pinn.train")
    own = self_times(spans)
    selfs = layer_self_times(spans)
    kids = [(sp.start, sp.end) for sp in spans if sp.parent == root.id]
    out = {
        "experiments.run_s": statistics.median(run_s),
        "experiments.parallel_slowdown": statistics.median(slowdown) if slowdown else 0.0,
        "experiments.simulate_s": total("experiments.simulate")[0],
        "experiments.metrics_s": total("experiments.metrics")[0],
        "experiments.save_s": total("experiments.save")[0],
        "gp.fit_s": fit_s,
        "gp.fit_calls": fit_calls,
        "gp.fit_s_per_call": _ratio(fit_s, fit_calls),
        "gp.kernel_build_s": kb_s,
        "gp.kernel_build_calls": kb_calls,
        "magi.init_s": total("magi.init")[0],
        "magi.problem_s": sum(own[sp.id] for sp in spans if sp.name == "magi.problem"),
        "magi.logp_grad_calls": logp_calls,
        "magi.logp_grad_s": logp_s,
        "magi.logp_grad_us": 1e6 * _ratio(logp_s, logp_calls),
        "magi.fit_rmse_over_noise": statistics.median(fit_ratio) if fit_ratio else 0.0,
        "sampler.sample_s": sample_s,
        "sampler.leapfrogs": leapfrogs,
        "sampler.leapfrogs_per_transition": _ratio(leapfrogs, transitions),
        "sampler.overhead_us_per_leapfrog": 1e6 * _ratio(sample_s - logp_s, leapfrogs),
        "sampler.divergences": sum(sp.attrs.get("divergences", 0) for sp in nuts),
        "sampler.ess_theta_min": statistics.median(ess_min) if ess_min else 0.0,
        "sampler.ess_theta_per_grad": _ratio(sum(ess_min), logp_calls),
        "sampler.ess_theta_per_s": _ratio(sum(ess_min), infer_untraced_s),
        "integrate.rk45_s": total("integrate.rk45")[0],
        "integrate.rk45_calls": total("integrate.rk45")[1],
        "pinn.train_s": train_s,
        "pinn.epoch_ms": 1e3 * _ratio(train_s, trains * epochs_per_train),
        **{f"{layer}.self_s": selfs[layer] for layer in LAYERS},
        "trace.covered_share": _ratio(covered_length(kids, root.start, root.end), root.duration),
        "trace.overhead_pct": 100.0 * _ratio(root.duration - infer_untraced_s, infer_untraced_s),
    }
    return {k: float(v) for k, v in out.items()}


def at_nominal_speed(seconds: list[float], refs: list[float], nominal: float) -> list[float]:
    """Rescale each timing by the machine's speed around it.

    ``refs`` holds the time of a fixed reference computation once before
    the first timing and once after each; timing i is scaled by ``nominal``
    over the mean of the reference times on either side of it.
    """
    if len(refs) != len(seconds) + 1:
        raise ValueError("need one reference time before and one after each timing")
    return [s * nominal / (0.5 * (a + b)) for s, a, b in zip(seconds, refs[:-1], refs[1:])]


def median_by_key(rows: list[dict[str, float]]) -> dict[str, float]:
    """Per-key median over operations or rounds; every row has every key."""
    return {key: float(statistics.median(row[key] for row in rows)) for key in rows[0]}


def result_line(correct: bool, attempted: int, failed: int, values: dict[str, float],
                units: dict[str, str]) -> dict:
    return {
        "correct": bool(correct),
        "attempted": int(attempted),
        "failed": int(failed),
        "metrics": {name: {"value": values[name], "unit": units[name]} for name in units},
    }
