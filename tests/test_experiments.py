import csv
import json
import os
from dataclasses import replace

import numpy as np
import pytest

from odebench import experiments as E
from odebench import magi
from odebench.dynamics import get_model
from odebench.integrate import Trajectory
from odebench.sampler import CompiledTarget
from odebench.selfcheck import truth_error_vs_dop853

from conftest import tiny_regime


def test_builtin_regime_inventory():
    names = [r.name for r in E.builtin_regimes()]
    assert names == ["seir-full", "seir-missing-e", "lorenz-chaotic",
                     "lorenz-stable", "lorenz-forecast"]


def test_seir_grid_shape():
    regime = E.get_regime("seir-full")
    master = regime.master_times()
    assert master.size == 321
    assert regime.insample_times().size == 161
    assert np.allclose(np.diff(master), 0.0375, atol=1e-12)
    obs = regime.obs_times()
    assert obs.size == 41
    assert np.allclose(np.diff(obs), 0.15, atol=1e-12)
    # forecast evaluation grid is the 160 points past the observation window
    ev = regime.eval_times()
    assert ev.size == 160
    assert ev[0] > 6.0 and ev[-1] == pytest.approx(12.0)


def test_lorenz_chaotic_grid_shape():
    regime = E.get_regime("lorenz-chaotic")
    assert regime.master_times().size == 321
    obs = regime.obs_times()
    assert obs.size == 81
    assert np.allclose(np.diff(obs), 0.1, atol=1e-12)
    assert regime.forecast_protocol is None


def test_lorenz_forecast_grid_shape():
    regime = E.get_regime("lorenz-forecast")
    master = regime.master_times()
    assert master.size == 201
    assert regime.insample_times().size == 81
    assert np.allclose(np.diff(master), 0.025, atol=1e-12)
    obs = regime.obs_times()
    assert obs.size == 41 and obs[-1] == pytest.approx(2.0)
    ev = regime.eval_times()
    assert ev.size == 121
    assert ev[0] == pytest.approx(2.0) and ev[-1] == pytest.approx(5.0)
    assert regime.noise_level == pytest.approx(0.0005)


def test_lorenz_stable_differs_only_in_rho():
    chaotic = E.get_regime("lorenz-chaotic")
    stable = E.get_regime("lorenz-stable")
    assert stable.theta_true == (8.0 / 3.0, 23.0, 10.0)
    assert chaotic.theta_true[1] == 28.0
    assert replace(stable, name=chaotic.name, theta_true=chaotic.theta_true) == chaotic


def test_seir_r0_truth():
    regime = E.get_regime("seir-full")
    r0, peak_t, peak_v = E.regime_truth_qoi(regime)
    assert r0 == pytest.approx(10.0)
    assert 6.0 < peak_t <= 12.0
    assert 0 < peak_v < 1
    with pytest.raises(ValueError, match="no peak component"):
        E.regime_truth_qoi(E.get_regime("lorenz-forecast"))


def test_seir_truth_qoi_pinned():
    """The truth's R0 and peak, read on the 1281-point grid of [0, 12]."""
    assert E.regime_truth_qoi(E.get_regime("seir-full")) == (10.0, 11.990625, 0.4658804105901696)


def test_missing_e_masks_component():
    regime = E.get_regime("seir-missing-e")
    ds = E.simulate_dataset(regime, 7)
    assert np.all(np.isnan(ds.values[:, 0]))
    assert not np.any(np.isnan(ds.values[:, 1:]))
    assert ds.mask == (False, True, True)


def test_zero_noise_reproduces_truth():
    regime = replace(E.get_regime("seir-full"), noise_level=0.0)
    ds = E.simulate_dataset(regime, 3)
    truth = E.ground_truth(regime)
    obs_rows = np.arange(0, regime.n_grid_insample, regime.obs_stride())
    assert np.allclose(ds.values, truth.values[obs_rows], atol=0)


@pytest.mark.parametrize("name, bound", [
    ("seir-full", 1e-9), ("seir-missing-e", 1e-9), ("lorenz-forecast", 1e-6),
    ("lorenz-chaotic", 1e-4), ("lorenz-stable", 1e-4),
])
def test_ground_truth_matches_a_tight_dop853_reference(name, bound):
    assert truth_error_vs_dop853(E.get_regime(name)) < bound


def test_observations_must_subdivide_the_grid():
    # 160 grid steps over 7 observation gaps: stride 22 would stop the data at t = 5.775.
    regime = replace(E.get_regime("seir-full"), n_obs=8)
    with pytest.raises(ValueError, match="subdivide"):
        E.simulate_dataset(regime, 3)


def test_lorenz_noise_anchored_to_component_sd():
    regime = E.get_regime("lorenz-chaotic")
    ds = E.simulate_dataset(regime, 11)
    truth = E.ground_truth(regime)
    clean = truth.values[::4]
    expected_sds = 0.05 * clean.std(axis=0)
    resid = ds.values - clean
    for c in range(3):
        assert abs(resid[:, c].std() / expected_sds[c] - 1.0) < 0.4
    assert ds.noise_spec["kind"] == "sd-fraction"
    assert np.allclose(ds.noise_spec["per_component_sd"], expected_sds)


def test_dataset_simulation_is_pure(tmp_path):
    regime = E.get_regime("seir-full")
    a = E.simulate_dataset(regime, 21)
    b = E.simulate_dataset(regime, 21)
    assert np.array_equal(a.values, b.values)
    pa, pb = tmp_path / "a.csv", tmp_path / "b.csv"
    a.to_csv(pa, regime.model().component_names)
    b.to_csv(pb, regime.model().component_names)
    assert pa.read_bytes() == pb.read_bytes()
    c = E.simulate_dataset(regime, 22)
    assert not np.array_equal(a.values, c.values)


def test_log_states_pinned():
    assert get_model("seir-log").log_states
    assert not get_model("lorenz").log_states


def test_oscillatory_pinned():
    assert not get_model("seir-log").oscillatory
    assert get_model("lorenz").oscillatory


def test_compute_rmse_identities():
    times = np.linspace(0, 1, 9)
    vals = np.random.default_rng(0).standard_normal((9, 3))
    base = Trajectory(times=times, values=vals)
    assert np.allclose(E.compute_rmse(base, base, times), 0.0)

    shifted = Trajectory(times=times, values=vals + np.array([0.0, 0.7, 0.0]))
    rmse = E.compute_rmse(shifted, base, times)
    assert rmse[0] == 0.0
    assert rmse[1] == pytest.approx(0.7, rel=1e-12)
    assert rmse[2] == 0.0


def test_compute_rmse_against_two_loop_reference():
    rng = np.random.default_rng(5)
    times = np.linspace(0, 2, 13)
    a = Trajectory(times=times, values=rng.standard_normal((13, 2)))
    b = Trajectory(times=times, values=rng.standard_normal((13, 2)))
    eval_times = times[::3]
    got = E.compute_rmse(a, b, eval_times)
    for c in range(2):
        acc = 0.0
        count = 0
        for t in eval_times:
            i = list(times).index(t)
            acc += (a.values[i, c] - b.values[i, c]) ** 2
            count += 1
        assert abs(got[c] - np.sqrt(acc / count)) < 1e-12


def test_compute_rmse_requires_exact_membership():
    times = np.linspace(0, 1, 9)
    traj = Trajectory(times=times, values=np.zeros((9, 1)))
    with pytest.raises(ValueError):
        E.compute_rmse(traj, traj, np.array([0.123456]))


def test_quantities_of_interest():
    theta = np.array([2.0, 0.2, 0.6])
    times = np.linspace(0, 12, 101)
    logi = -((times - 8.0) ** 2) / 4.0  # peak at t=8
    vals = np.column_stack([np.zeros_like(times), logi, np.zeros_like(times)])
    qoi = E.quantities_of_interest(theta, Trajectory(times=times, values=vals),
                                   peak_component=1, value_transform=np.exp)
    assert qoi.r0 == pytest.approx(10.0)
    assert qoi.peak_time == pytest.approx(8.04, abs=0.2)

    rising = np.column_stack([times, times, times])
    qoi2 = E.quantities_of_interest(theta, Trajectory(times=times, values=rising),
                                    peak_component=1, value_transform=np.exp)
    assert qoi2.peak_time == pytest.approx(12.0)


def test_mechanistic_fidelity_on_truth_and_flatline():
    regime = E.get_regime("lorenz-chaotic")
    model = regime.model()
    truth = E.ground_truth(regime)
    times = truth.times
    exact_deriv = model.rhs(truth.values, np.array(regime.theta_true), times)
    fid = E.mechanistic_fidelity(truth.values, exact_deriv, model,
                                 np.array(regime.theta_true), times)
    assert np.all(fid < 1e-10)

    beta, rho, sigma = regime.theta_true
    fp = np.array([np.sqrt(beta * (rho - 1)), np.sqrt(beta * (rho - 1)), rho - 1])
    flat = np.tile(fp, (times.size, 1))
    fid_flat = E.mechanistic_fidelity(flat, np.zeros_like(flat), model,
                                      np.array(regime.theta_true), times)
    assert np.all(fid_flat < 1e-12)


def test_peak_value_transform_follows_metric_space():
    assert E.get_regime("seir-full").peak_value_transform is np.exp
    assert E.get_regime("lorenz-chaotic").peak_value_transform is None


def test_reference_coverage_targets():
    assert E.REFERENCE_COVERAGE["seir-full"] == {"beta": 0.90, "gamma": 0.89, "sigma": 0.90}
    assert E.REFERENCE_COVERAGE["seir-missing-e"] == {"beta": 0.94, "gamma": 0.91, "sigma": 0.93}


def test_forecast_protocol_follows_the_grid_fields():
    expected = {"seir-full": "extended", "seir-missing-e": "extended", "lorenz-chaotic": None,
                "lorenz-stable": None, "lorenz-forecast": "sequential"}
    for regime in E.builtin_regimes():
        assert regime.forecast_protocol == expected[regime.name]
        if regime.forecast_protocol is not None:
            assert regime.eval_times()[-1] == regime.master_times()[-1]


def test_derive_seed_stability_and_method_independence():
    regime = E.get_regime("seir-full")
    s1 = E.dataset_seed(7, regime, 0)
    s2 = E.dataset_seed(7, regime, 0)
    assert s1 == s2
    assert E.dataset_seed(7, regime, 1) != s1
    # adding methods never perturbs datasets: dataset seed has no method tag
    assert E.derive_seed(7, 0, "magi", regime.name) != s1


def test_run_study_counts_and_resume(tmp_path):
    regime = tiny_regime(name="tiny-seir")
    methods = [("magi", {"n_warmup": 20, "n_samples": 20, "init_budget": 50}),
               ("pinn", {"lam": 10.0, "epochs": 50})]
    out = tmp_path / "study"
    res = E.run_study(regime, methods, replicates=2, base_seed=3, out_dir=str(out))
    assert res.attempted == 4 and res.failed == 0 and res.skipped == 0

    with open(out / "results.csv") as fh:
        rows = list(csv.DictReader(fh))
    assert set(r["method"] for r in rows) == {"magi", "pinn"}
    assert set(int(r["replicate"]) for r in rows) == {0, 1}
    header = open(out / "results.csv").readline().strip()
    assert header == ",".join(E.RESULT_COLUMNS)

    manifest = json.loads((out / "manifest.json").read_text())
    assert len(manifest) == 4

    # resuming recomputes nothing
    res2 = E.run_study(regime, methods, replicates=2, base_seed=3, out_dir=str(out))
    assert res2.attempted == 0 and res2.skipped == 4
    with open(out / "results.csv") as fh:
        rows2 = list(csv.DictReader(fh))
    assert len(rows2) == len(rows)


def test_run_study_records_failures(tmp_path):
    regime = tiny_regime(name="tiny-bad")
    # invalid option type forces a failure inside the worker
    res = E.run_study(regime, [("pinn", {"lam": 10.0, "epochs": "not-a-number"})],
                      replicates=1, base_seed=0, out_dir=str(tmp_path / "s"))
    assert res.failed == 1
    assert res.rows[0][6] == "error"


def test_run_single_magi_metrics(tmp_path):
    regime = tiny_regime(name="tiny-metrics")
    rows, manifest = E.run_single(regime, "magi",
                                  {"n_warmup": 30, "n_samples": 30, "init_budget": 50},
                                  replicate=0, base_seed=1, forecast=False,
                                  out_dir=str(tmp_path))
    metrics = {(r[5], r[6]) for r in rows}
    for comp in ("logE", "logI", "logR"):
        assert (comp, "rmse_insample") in metrics
        assert (comp, "mech_fidelity") in metrics
    for par in ("beta", "gamma", "sigma"):
        assert (par, "abs_error_theta") in metrics
        assert (par, "ci_hit") in metrics
    assert "wall_time_s" in manifest
    assert all(float(r[7]) >= 0 for r in rows if r[6] != "ci_hit")
    # posterior artifacts written
    assert any(p.name.startswith("posterior_") for p in tmp_path.iterdir())


def test_run_single_creates_missing_out_dir(tmp_path):
    out_dir = tmp_path / "not" / "yet"
    assert not out_dir.exists()
    E.run_single(tiny_regime(name="tiny-outdir"), "magi",
                 {"n_warmup": 5, "n_samples": 5, "init_budget": 50},
                 replicate=0, base_seed=1, out_dir=str(out_dir))
    assert any(p.name.startswith("posterior_") for p in out_dir.iterdir())


def test_run_single_forecast_adds_qoi(tmp_path):
    regime = tiny_regime(name="tiny-forecast")
    rows, _ = E.run_single(regime, "pinn", {"lam": 10.0, "epochs": 60},
                           replicate=0, base_seed=1, forecast=True, out_dir=None)
    metrics = {r[6] for r in rows}
    assert "rmse_forecast" in metrics
    assert "abs_error_R0" in metrics
    assert "abs_error_peak_time" in metrics
    assert "abs_error_peak_intensity" in metrics


def test_forecast_without_eval_grid_fails_before_training(tmp_path, monkeypatch):
    calls = []
    train = E.train_pinn

    def counting_train(*args, **kwargs):
        calls.append(1)
        return train(*args, **kwargs)

    monkeypatch.setattr(E, "train_pinn", counting_train)
    res = E.run_study(E.get_regime("lorenz-chaotic"), [("pinn", {"lam": 10.0, "epochs": 20})],
                      replicates=1, base_seed=0, out_dir=str(tmp_path), forecast=True,
                      save_artifacts=True)
    assert calls == []
    assert [row[8] for row in res.rows] == ["error:ValueError"]
    assert not list(tmp_path.glob("network_*"))


@pytest.mark.parametrize("method, options, counted", [
    ("magi", {"n_warmups": 10, "n_samples": 5, "init_budget": 50}, (magi, "nuts_sample")),
    ("pinn", {"lam": 10.0, "epochs": 20, "layers": 3}, (E, "train_pinn")),
], ids=["magi", "pinn"])
def test_unknown_option_fails_before_the_method_runs(tmp_path, monkeypatch, method, options,
                                                     counted):
    calls = []

    def counting(*args, **kwargs):
        calls.append(1)
        raise RuntimeError("the method ran")  # stop a run that ignored the key at once

    monkeypatch.setattr(*counted, counting)
    res = E.run_study(tiny_regime(name="tiny-typo"), [(method, options)], replicates=1,
                      base_seed=0, out_dir=str(tmp_path))
    assert calls == []
    assert [row[8] for row in res.rows] == ["error:TypeError"]



def test_run_single_scores_only_the_estimate(tmp_path, monkeypatch):
    """Given the truth as its estimate, either method scores 0 on every error
    metric, and the two methods' rows differ only where they name the method."""
    regime = tiny_regime(name="tiny-truth")
    model = regime.model()
    truth = E.ground_truth(regime)
    theta = np.asarray(regime.theta_true)
    xdot = model.rhs(truth.values, theta, truth.times)
    saved = []

    def truthful_estimate(regime_, method, options, dataset, seed, forecast):
        ci = np.stack([theta - 0.1, theta + 0.1], axis=1) if method == "magi" else None
        return E.Estimate(truth, xdot, theta, ci, (), lambda *args: saved.append(method))

    monkeypatch.setattr(E, "estimate", truthful_estimate)
    rows = {method: E.run_single(regime, method, options, replicate=0, base_seed=1,
                                 forecast=True, out_dir=str(tmp_path))[0]
            for method, options in (("magi", {}), ("pinn", {"lam": 10.0}))}
    assert saved == ["magi", "pinn"]
    for method, method_rows in rows.items():
        for metric in ("rmse_insample", "abs_error_theta", "mech_fidelity"):
            values = [float(r[7]) for r in method_rows if r[6] == metric]
            assert values == [0.0] * 3, (method, metric)
    assert [float(r[7]) for r in rows["magi"] if r[6] == "ci_hit"] == [1.0] * 3
    assert not [r for r in rows["pinn"] if r[6] == "ci_hit"]

    magi_rows = [r for r in rows["magi"] if r[6] != "ci_hit"]
    assert len(magi_rows) == len(rows["pinn"]) == 3 * 4 + 3
    for a, b in zip(magi_rows, rows["pinn"]):
        assert (a[1], a[2]) == ("magi", "") and (b[1], b[2]) == ("pinn", "10")
        assert a[4] != b[4]
        assert a[:1] + a[3:4] + a[5:] == b[:1] + b[3:4] + b[5:]

FORECAST_MAGI = {"n_warmup": 5, "n_samples": 5, "init_budget": 50}


def lorenz_forecast_small():
    """The sequential-forecast regime cut to two warm-started stages."""
    return replace(E.get_regime("lorenz-forecast"), t_obs_end=1.0, n_obs=11,
                   n_grid_insample=21, t_end=2.0, n_grid_total=41, points_per_step=10,
                   eval_index_lo=20)


def _forecast_run(regime, out_dir):
    out_dir.mkdir()
    return E.run_single(regime, "magi", FORECAST_MAGI, replicate=0, base_seed=4,
                        forecast=True, out_dir=str(out_dir))


@pytest.mark.filterwarnings("ignore::UserWarning")
@pytest.mark.parametrize("make_regime", [lambda: tiny_regime(name="tiny-extended"),
                                         lorenz_forecast_small],
                         ids=["extended", "sequential"])
def test_run_single_magi_forecast_protocols(tmp_path, make_regime):
    regime = make_regime()
    rows, manifest = _forecast_run(regime, tmp_path / "a")
    rows_again, _ = _forecast_run(regime, tmp_path / "b")
    assert rows == rows_again

    metrics = {(r[5], r[6]) for r in rows}
    for comp in regime.model().component_names:
        assert (comp, "rmse_forecast") in metrics
    if regime.peak_component is not None:
        for name, metric in (("R0", "abs_error_R0"), ("peak_time", "abs_error_peak_time"),
                             ("peak_intensity", "abs_error_peak_intensity")):
            assert (name, metric) in metrics

    (sidecar,) = (tmp_path / "a").glob("posterior_*.json")
    meta = json.loads(sidecar.read_text())
    assert meta["grid_size"] == regime.n_grid_total
    assert meta["config_hash"] == manifest["config_hash"] != ""


@pytest.mark.filterwarnings("ignore::UserWarning")
@pytest.mark.parametrize("make_regime, n_fits", [
    (tiny_regime, 3),
    (lambda: tiny_regime(name="seir-missing-e", observed_mask=(False, True, True)), 3),
    (lorenz_forecast_small, 9),
], ids=["extended", "extended-missing", "sequential"])
def test_every_forecast_gp_fit_takes_the_model_prior(monkeypatch, make_regime, n_fits):
    """Every GP fit of a forecast, the sequential refits and the fit of an
    unobserved component included, gets ``use_fourier_prior ==
    model.oscillatory``."""
    regime = make_regime()
    original = magi.gp_smooth_fit
    seen = []

    def recording_fit(*args, use_fourier_prior, **kwargs):
        seen.append(use_fourier_prior)
        return original(*args, use_fourier_prior=use_fourier_prior, **kwargs)

    monkeypatch.setattr(magi, "gp_smooth_fit", recording_fit)
    E.run_single(regime, "magi", FORECAST_MAGI, replicate=0, base_seed=4, forecast=True)
    assert seen == [regime.model().oscillatory] * n_fits


def _sequential_inputs():
    """Arguments of forecast_sequential on the shrunken regime, at 5 + 5 transitions."""
    regime = lorenz_forecast_small()
    dataset = E.simulate_dataset(regime, E.dataset_seed(4, regime, 0))
    args = (regime.model(), regime.master_times(), regime.n_grid_insample,
            regime.points_per_step, dataset)
    kwargs = dict(n_warmup=5, n_samples=5, seed=4, init_budget=50)
    return regime, args, kwargs


@pytest.mark.filterwarnings("ignore::UserWarning")
def test_forecast_sequential_keeps_earlier_stage_flags(monkeypatch):
    _, args, kwargs = _sequential_inputs()
    original = magi._continue_past
    calls = []

    def fail_in_stage_1(model, x_head, theta, times):
        calls.append(times.size)
        if len(calls) > 1:
            return original(model, x_head, theta, times)
        x = np.empty((times.size, model.state_dim))
        x[: x_head.shape[0]] = x_head
        x[x_head.shape[0]:] = x_head[-1]
        return x, False

    monkeypatch.setattr(magi, "_continue_past", fail_in_stage_1)
    post = magi.forecast_sequential(*args, **kwargs)
    assert calls == [31, 41]  # stages 1 and 2 grow the 21-point grid by 10 each
    assert "forecast-warmstart-constant" in post.flags
    assert len(set(post.flags)) == len(post.flags)


@pytest.mark.filterwarnings("ignore::UserWarning")
def test_forecast_sequential_keeps_refit_flags(monkeypatch):
    _, args, kwargs = _sequential_inputs()
    original = magi.gp_smooth_fit
    calls = []

    def flag_refits(*a, **kw):
        calls.append(None)
        fit = original(*a, **kw)
        return fit if len(calls) <= 3 else replace(fit, flag="refit-probe")  # 3 in stage 0

    monkeypatch.setattr(magi, "gp_smooth_fit", flag_refits)
    post = magi.forecast_sequential(*args, **kwargs)
    assert len(calls) == 3 + 2 * 3
    assert post.flags.count("refit-probe") == 1


@pytest.mark.filterwarnings("ignore::UserWarning")
def test_rebound_nuts_sample_sees_every_chain(monkeypatch):
    """Rebinding ``magi.nuts_sample`` and wrapping ``CompiledTarget.func``
    counts every log-density call of every chain and leaves the draws as
    they are; every chain, each sequential stage's included, starts through
    ``magi.run_inference``."""
    regime, args, kwargs = _sequential_inputs()
    insample = (args[0], regime.insample_times(), regime.n_grid_insample, args[-1])
    plain_fit = magi.fit_magi(*insample, **kwargs)
    plain_seq = magi.forecast_sequential(*args, **kwargs)

    original, original_run = magi.nuts_sample, magi.run_inference
    counts, runs = [], []

    def counting_run(*a, **kw):
        runs.append(1)
        return original_run(*a, **kw)

    def counting_nuts(target, init, config):
        counts.append(0)
        inner = target.func

        def counted(q, ctx):
            counts[-1] += 1
            return inner(q, ctx)

        return original(CompiledTarget(func=counted, ctx=target.ctx), init, config)

    monkeypatch.setattr(magi, "nuts_sample", counting_nuts)
    monkeypatch.setattr(magi, "run_inference", counting_run)
    traced_fit = magi.fit_magi(*insample, **kwargs)
    assert len(counts) == len(runs) == 1
    traced_seq = magi.forecast_sequential(*args, **kwargs)
    n_steps = (regime.n_grid_total - regime.n_grid_insample) // regime.points_per_step
    assert len(counts) == len(runs) == 1 + 1 + n_steps
    assert all(c > 0 for c in counts)
    assert np.array_equal(traced_fit.draws, plain_fit.draws)
    assert np.array_equal(traced_seq.draws, plain_seq.draws)
    assert traced_seq.flags == plain_seq.flags


def test_run_study_pool_matches_serial(tmp_path):
    regime = tiny_regime(name="tiny-pool")
    methods = [("magi", FORECAST_MAGI)]
    for jobs in (1, 2):
        res = E.run_study(regime, methods, replicates=2, base_seed=3, parallelism=jobs,
                          out_dir=str(tmp_path / f"jobs{jobs}"))
        assert res.attempted == 2 and res.failed == 0
    serial = (tmp_path / "jobs1" / "results.csv").read_bytes()
    assert (tmp_path / "jobs2" / "results.csv").read_bytes() == serial


def _blas_threads():
    return [get() for get, _ in E._openblas_thread_controls()]


@pytest.mark.parametrize("jobs", [1, 2])
def test_run_study_runs_replicates_on_one_blas_thread(tmp_path, monkeypatch, jobs):
    """Every replicate reads one thread from each OpenBLAS; a pooled worker
    that inherits the pin starts no BLAS server threads of its own."""
    run_single = E.run_single

    def recording_run_single(*args):
        rows, manifest = run_single(*args)
        manifest["blas_threads"] = _blas_threads()
        if os.path.isdir("/proc/self/task"):
            manifest["os_threads"] = len(os.listdir("/proc/self/task"))
        return rows, manifest

    monkeypatch.setattr(E, "run_single", recording_run_single)
    n_libs = len(_blas_threads())
    res = E.run_study(tiny_regime(name="tiny-blas"), [("magi", FORECAST_MAGI)], replicates=2,
                      base_seed=3, parallelism=jobs, out_dir=str(tmp_path))
    assert res.attempted == 2 and res.failed == 0
    runs = json.loads((tmp_path / "manifest.json").read_text()).values()
    assert [run["blas_threads"] for run in runs] == [[1] * n_libs] * 2
    if jobs > 1 and os.path.isdir("/proc/self/task"):
        assert [run["os_threads"] for run in runs] == [1, 1]


def test_openblas_controls_are_found_once_per_process():
    """The search of the loaded libraries runs once; run_study reuses its result."""
    assert E._openblas_thread_controls() is E._openblas_thread_controls()


def test_run_study_restores_the_callers_blas_threads(monkeypatch):
    controls = E._openblas_thread_controls()
    saved = [get() for get, _ in controls]
    seen = []

    def fake_run_single(*args):
        seen.append(_blas_threads())
        return [], {"config_hash": ""}

    def interrupted_run_single(*args):
        raise KeyboardInterrupt

    regime = tiny_regime(name="tiny-restore")
    try:
        for _, set_ in controls:
            set_(2)
        monkeypatch.setattr(E, "run_single", fake_run_single)
        E.run_study(regime, [("magi", FORECAST_MAGI)], replicates=1, base_seed=3)
        assert seen == [[1] * len(controls)]
        assert _blas_threads() == [2] * len(controls)

        monkeypatch.setattr(E, "run_single", interrupted_run_single)
        with pytest.raises(KeyboardInterrupt):
            E.run_study(regime, [("magi", FORECAST_MAGI)], replicates=1, base_seed=3)
        assert _blas_threads() == [2] * len(controls)
    finally:
        for (_, set_), n in zip(controls, saved):
            set_(n)


def test_run_study_runs_where_no_openblas_is_found(tmp_path, monkeypatch):
    monkeypatch.setattr(E, "_openblas_thread_controls", lambda: [])
    res = E.run_study(tiny_regime(name="tiny-noblas"), [("magi", FORECAST_MAGI)], replicates=1,
                      base_seed=3, out_dir=str(tmp_path))
    assert res.attempted == 1 and res.failed == 0


def test_run_study_pool_has_no_more_workers_than_jobs(monkeypatch):
    """A fork pool starts all its workers at once; extra ones would sit idle."""
    pools = []

    class SerialPool:
        def __init__(self, max_workers=None):
            pools.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, iterable):
            return map(fn, iterable)

    monkeypatch.setattr(E, "ProcessPoolExecutor", SerialPool)
    res = E.run_study(tiny_regime(name="tiny-cap"), [("magi", FORECAST_MAGI)], replicates=2,
                      base_seed=3, parallelism=8)
    assert res.attempted == 2 and res.failed == 0
    assert pools == [2]


PINNED = {
    "magi": ({"n_warmup": 20, "n_samples": 20, "init_budget": 300}, False, {
        "abs_error_theta": {"beta": 0.1711258771002231, "gamma": 0.012678286153183754,
                            "sigma": 0.1289536390678424},
        "mech_fidelity": {"logE": 0.016598078787832912, "logI": 0.0018175640678046142,
                          "logR": 0.008115783818199296},
    }),
    "pinn": ({"lam": 10.0, "epochs": 60}, True, {
        "abs_error_theta": {"beta": 0.915844432112032, "gamma": 0.470675380617737,
                            "sigma": 0.11839755764092369},
        "mech_fidelity": {"logE": 0.6373550091651737, "logI": 0.27248605115815605,
                          "logR": 1.257170935002681},
        "rmse_forecast": {"logE": 1.0319249100891195, "logI": 0.4602515114410287,
                          "logR": 0.6127046362482389},
    }),
}


@pytest.mark.filterwarnings("ignore::UserWarning")
@pytest.mark.parametrize("method", sorted(PINNED))
def test_small_study_results_pinned(method):
    # Values recorded from an earlier commit.  A refactor that claims to
    # leave results.csv unchanged must keep them.
    options, forecast, expected = PINNED[method]
    res = E.run_study(tiny_regime(), [(method, options)], replicates=2, base_seed=3,
                      forecast=forecast)
    assert res.failed == 0
    for metric, values in expected.items():
        got = {r[5]: float(r[7]) for r in res.rows if r[3] == 0 and r[6] == metric}
        assert got.keys() == values.keys(), metric
        for name, value in values.items():
            assert got[name] == pytest.approx(value, rel=1e-12), (metric, name)
