"""Dataset simulation, replicate orchestration and every reported metric.

Grids are built by integer subdivision of one master grid per regime, so
observation times, discretization points and evaluation points are exact
floating-point members of each other wherever the contracts require it.
Dataset simulation is a pure function of (regime, seed).
"""

from __future__ import annotations

import contextlib
import csv
import ctypes
import functools
import hashlib
import json
import os
import time as _time
import zlib
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, replace
from typing import Callable, NamedTuple

import numpy as np

from .dynamics import OdeModel, get_model
from .integrate import Trajectory, integrate_rk45
from .magi import (
    DiscretizationGrid,
    fit_magi,
    forecast_extended_grid,
    forecast_sequential,
    uniform_grid,
)
from .observations import ObservationSet
from .pinn import PinnConfig, forward_with_time_derivative, train_pinn

__all__ = [
    "ObservationSet",
    "RegimeSpec",
    "builtin_regimes",
    "get_regime",
    "simulate_dataset",
    "ground_truth",
    "regime_truth_qoi",
    "compute_rmse",
    "QuantitiesOfInterest",
    "quantities_of_interest",
    "mechanistic_fidelity",
    "Estimate",
    "estimate",
    "run_study",
    "run_single",
    "StudyResult",
    "derive_seed",
    "dataset_seed",
    "config_hash",
    "RESULT_COLUMNS",
    "REFERENCE_COVERAGE",
]

RESULT_COLUMNS = (
    "regime", "method", "lambda", "replicate", "seed",
    "component_or_parameter", "metric_name", "value", "flag",
)

# Published frequentist coverage of the 95% credible intervals at full scale
# (100 replicates); reference targets for offline runs, not CI gates.
REFERENCE_COVERAGE = {
    "seir-full": {"beta": 0.90, "gamma": 0.89, "sigma": 0.90},
    "seir-missing-e": {"beta": 0.94, "gamma": 0.91, "sigma": 0.93},
}


@dataclass(frozen=True)
class RegimeSpec:
    """One named experimental setup, grids included."""

    name: str
    model_name: str
    theta_true: tuple[float, ...]
    x0: tuple[float, ...]
    t_obs_end: float
    n_obs: int
    noise_kind: str  # "additive" (fixed sd per component) | "sd-fraction"
    noise_level: float
    observed_mask: tuple[bool, ...]
    n_grid_insample: int
    t_end: float | None = None
    n_grid_total: int | None = None
    points_per_step: int | None = None  # set: sequential forecasting, in steps this long
    eval_index_lo: int | None = None
    peak_component: int | None = None

    def model(self) -> OdeModel:
        return get_model(self.model_name)

    @property
    def peak_value_transform(self):
        """Map from a stored component to the scale its peak is read on (None: as stored)."""
        return np.exp if self.model().log_states else None

    @property
    def forecast_protocol(self) -> str | None:
        """How the regime forecasts: "extended", "sequential", or None without a horizon."""
        if self.t_end is None:
            return None
        return "extended" if self.points_per_step is None else "sequential"

    def master_times(self) -> np.ndarray:
        """The full grid from t = 0, forecast horizon included when one exists."""
        if self.t_end is not None:
            return uniform_grid(0.0, self.t_end, self.n_grid_total)
        return uniform_grid(0.0, self.t_obs_end, self.n_grid_insample)

    def insample_times(self) -> np.ndarray:
        return self.master_times()[: self.n_grid_insample]

    def obs_times(self) -> np.ndarray:
        return self.insample_times()[:: self.obs_stride()]

    def obs_stride(self) -> int:
        """In-sample grid steps between observations, which must subdivide the grid."""
        stride, rem = divmod(self.n_grid_insample - 1, self.n_obs - 1)
        if rem != 0:
            raise ValueError(f"regime {self.name}: observations do not subdivide the grid")
        return stride

    def eval_times(self) -> np.ndarray:
        """The master grid from eval_index_lo to its end."""
        if self.eval_index_lo is None:
            raise ValueError(f"regime {self.name} has no forecast evaluation grid")
        return self.master_times()[self.eval_index_lo:]


_LOG_MILLI = float(np.log(0.001))

_REGIMES = {}


def _register(spec: RegimeSpec) -> RegimeSpec:
    _REGIMES[spec.name] = spec
    return spec


SEIR_FULL = _register(RegimeSpec(
    name="seir-full",
    model_name="seir-log",
    theta_true=(2.0, 0.2, 0.6),
    x0=(_LOG_MILLI, _LOG_MILLI, _LOG_MILLI),
    t_obs_end=6.0, n_obs=41,
    noise_kind="additive", noise_level=0.15,
    observed_mask=(True, True, True),
    n_grid_insample=161,
    t_end=12.0, n_grid_total=321,
    eval_index_lo=161,
    peak_component=1,
))

SEIR_MISSING_E = _register(replace(
    SEIR_FULL, name="seir-missing-e", observed_mask=(False, True, True)))

LORENZ_CHAOTIC = _register(RegimeSpec(
    name="lorenz-chaotic",
    model_name="lorenz",
    theta_true=(8.0 / 3.0, 28.0, 10.0),
    x0=(5.0, 5.0, 5.0),
    t_obs_end=8.0, n_obs=81,
    noise_kind="sd-fraction", noise_level=0.05,
    observed_mask=(True, True, True),
    n_grid_insample=321,
))

LORENZ_STABLE = _register(replace(
    LORENZ_CHAOTIC, name="lorenz-stable", theta_true=(8.0 / 3.0, 23.0, 10.0)))

LORENZ_FORECAST = _register(RegimeSpec(
    name="lorenz-forecast",
    model_name="lorenz",
    theta_true=(8.0 / 3.0, 28.0, 10.0),
    x0=(5.0, 5.0, 5.0),
    t_obs_end=2.0, n_obs=41,
    noise_kind="sd-fraction", noise_level=0.0005,
    observed_mask=(True, True, True),
    n_grid_insample=81,
    t_end=5.0, n_grid_total=201,
    points_per_step=40,
    eval_index_lo=80,
))


def builtin_regimes() -> list[RegimeSpec]:
    return list(_REGIMES.values())


def get_regime(name: str) -> RegimeSpec:
    try:
        return _REGIMES[name]
    except KeyError:
        raise KeyError(f"unknown regime {name!r}; available: {sorted(_REGIMES)}") from None


# ---------------------------------------------------------------------------
# Seeding and hashing
# ---------------------------------------------------------------------------


def derive_seed(base_seed: int, *tags) -> int:
    """Stable 63-bit seed from a base seed and a mix of int/str tags."""
    ints = [int(base_seed) & 0xFFFFFFFF]
    for tag in tags:
        if isinstance(tag, str):
            ints.append(zlib.crc32(tag.encode()))
        else:
            ints.append(int(tag) & 0xFFFFFFFF)
    seq = np.random.SeedSequence(ints)
    return int(seq.generate_state(1, dtype=np.uint64)[0] >> 1)


def config_hash(payload: dict) -> str:
    text = json.dumps(payload, sort_keys=True, default=str)
    return hashlib.sha256(text.encode()).hexdigest()[:16]


# ---------------------------------------------------------------------------
# Truth and dataset simulation
# ---------------------------------------------------------------------------

@functools.cache
def ground_truth(regime: RegimeSpec) -> Trajectory:
    """Integrated truth on the regime's master grid, cached per regime."""
    return integrate_rk45(regime.model().rhs, np.array(regime.x0), np.array(regime.theta_true),
                          regime.master_times())


def simulate_dataset(regime: RegimeSpec, replicate_seed: int) -> ObservationSet:
    """Noisy observations of the shared truth; deterministic per (regime, seed)."""
    truth = ground_truth(regime)
    stride = regime.obs_stride()
    obs_idx = np.arange(0, regime.n_grid_insample, stride)
    times = truth.times[obs_idx]
    clean = truth.values[obs_idx]

    rng = np.random.default_rng(replicate_seed)
    d = clean.shape[1]
    if regime.noise_kind == "additive":
        sds = np.full(d, regime.noise_level)
    elif regime.noise_kind == "sd-fraction":
        sds = regime.noise_level * clean.std(axis=0)
    else:
        raise ValueError(f"unknown noise kind {regime.noise_kind!r}")
    noise = rng.standard_normal(clean.shape) * sds

    values = clean + noise
    for c, observed in enumerate(regime.observed_mask):
        if not observed:
            values[:, c] = np.nan
    return ObservationSet(
        times=times,
        values=values,
        mask=regime.observed_mask,
        noise_spec={
            "kind": regime.noise_kind,
            "level": regime.noise_level,
            "per_component_sd": [float(s) for s in sds],
            "reference": "per-component sd of the true trajectory over the observation window"
            if regime.noise_kind == "sd-fraction" else "absolute sd per component",
        },
        seed=replicate_seed,
    )


@functools.cache
def regime_truth_qoi(regime: RegimeSpec) -> QuantitiesOfInterest:
    """R0 and the peak of the truth, cached per regime.

    The peak is taken on a grid 4x finer than the master grid.
    """
    if regime.peak_component is None:
        raise ValueError(f"regime {regime.name} has no peak component")
    master = regime.master_times()
    truth = integrate_rk45(regime.model().rhs, np.array(regime.x0), np.array(regime.theta_true),
                           uniform_grid(master[0], master[-1], 4 * (master.size - 1) + 1))
    return quantities_of_interest(regime.theta_true, truth, regime.peak_component,
                                  regime.peak_value_transform)


# ---------------------------------------------------------------------------
# Metrics
# ---------------------------------------------------------------------------


def compute_rmse(estimate: Trajectory, truth: Trajectory, eval_times: np.ndarray) -> np.ndarray:
    """Per-component RMSE over eval_times (exact grid membership required)."""
    est = estimate.values[DiscretizationGrid.build(estimate.times, eval_times).obs_index]
    tru = truth.values[DiscretizationGrid.build(truth.times, eval_times).obs_index]
    if est.shape != tru.shape:
        raise ValueError("estimate and truth disagree in dimension")
    return np.sqrt(np.mean((est - tru) ** 2, axis=0))


class QuantitiesOfInterest(NamedTuple):
    r0: float
    peak_time: float
    peak_intensity: float


def quantities_of_interest(
    theta_hat: np.ndarray,
    forecast: Trajectory,
    peak_component: int,
    value_transform,
) -> QuantitiesOfInterest:
    """Reproduction number and peak of an infectious curve, estimated or true.

    ``value_transform`` maps the stored component to the scale the peak is
    read on (``np.exp`` for log-space states); None reads it as stored.
    """
    r0 = float(theta_hat[0] / theta_hat[1])
    vals = forecast.component(peak_component)
    if value_transform is not None:
        vals = value_transform(vals)
    idx = int(np.argmax(vals))
    return QuantitiesOfInterest(
        r0=r0,
        peak_time=float(forecast.times[idx]),
        peak_intensity=float(vals[idx]),
    )


def mechanistic_fidelity(
    x_hat: np.ndarray,
    deriv_hat: np.ndarray,
    model: OdeModel,
    theta_hat: np.ndarray,
    times: np.ndarray,
) -> np.ndarray:
    """Per-component RMS residual between estimated derivative and the ODE
    right-hand side evaluated on the estimate (plain Euclidean norm)."""
    resid = deriv_hat - model.rhs(np.asarray(x_hat, dtype=float),
                                  np.asarray(theta_hat, dtype=float), times)
    return np.sqrt(np.mean(resid * resid, axis=0))


# ---------------------------------------------------------------------------
# Single-run driver and the replicate study
# ---------------------------------------------------------------------------


def dataset_seed(base_seed: int, regime: RegimeSpec, replicate: int) -> int:
    """Dataset seeds depend on (base, replicate, regime) only, never the method."""
    return derive_seed(base_seed, replicate, "data", regime.name)


class RunIdentity(NamedTuple):
    lam: float | None  # the PINN weight; None for MAGI
    lam_text: str  # the ``lambda`` column of results.csv
    tag: str  # method plus lambda: seeds the method, names the artifacts
    key: str  # the manifest key of the run
    config_hash: str  # the configuration a resumed study must match
    data_seed: int  # seeds the dataset, whatever the method
    seed: int  # seeds the method


def _run_identity(regime: RegimeSpec, method: str, options: dict, replicate: int,
                  base_seed: int, forecast: bool) -> RunIdentity:
    """Everything that names or seeds one (regime, method, options, replicate) run."""
    options = dict(options or {})
    lam = float(options.get("lam", PinnConfig.lam)) if method == "pinn" else None
    lam_text = "" if lam is None else f"{lam:g}"
    tag = method if lam is None else f"{method}:lam={lam:g}"
    chash = config_hash({
        "regime": regime.name, "method": method, "options": options,
        "replicate": replicate, "base_seed": base_seed, "forecast": forecast,
    })
    return RunIdentity(lam=lam, lam_text=lam_text, tag=tag,
                       key=f"{regime.name}|{method}|{lam_text}|{replicate}",
                       config_hash=chash,
                       data_seed=dataset_seed(base_seed, regime, replicate),
                       seed=derive_seed(base_seed, replicate, tag, regime.name))


class Estimate(NamedTuple):
    """What one method makes of one dataset, on the grid it ran on."""

    trajectory: Trajectory  # forecast horizon included when the run forecasts
    xdot: np.ndarray  # the trajectory's time derivative at trajectory.times
    theta: np.ndarray
    theta_ci: np.ndarray | None  # P x 2 equal-tailed 95% interval; None for the PINN
    flags: tuple[str, ...]
    save: Callable[[str, str, str], None]  # save(out_dir, run name, config hash)


def estimate(regime: RegimeSpec, method: str, options: dict, dataset: ObservationSet,
             seed: int, forecast: bool) -> Estimate:
    """Run one method on one dataset; the only place that tells the methods apart.

    MAGI runs the regime's protocol: in-sample, or its extended-grid or
    sequential forecast.  The PINN trains on the in-sample grid, or on the
    master grid when the run forecasts.
    """
    model = regime.model()
    if method == "magi":
        sampling = dict(seed=seed, **options)
        if not forecast:
            post = fit_magi(model, regime.insample_times(), dataset, **sampling)
        elif regime.forecast_protocol == "extended":
            post = forecast_extended_grid(model, regime.master_times(), regime.n_grid_insample,
                                          dataset, **sampling)
        else:
            post = forecast_sequential(model, regime.master_times(), regime.n_grid_insample,
                                       regime.points_per_step, dataset, **sampling)

        def save_posterior(out_dir: str, name: str, chash: str) -> None:
            replace(post, config_hash=chash).save(os.path.join(out_dir, f"posterior_{name}"))

        return Estimate(Trajectory(times=post.grid_times, values=post.x_mean), post.x_deriv_mean,
                        post.theta_mean, post.theta_ci, post.flags, save_posterior)
    if method == "pinn":
        times = regime.master_times() if forecast else regime.insample_times()
        trained = train_pinn(PinnConfig(seed=seed, **options), model, dataset,
                             DiscretizationGrid.build(times, dataset.times))
        values, xdot = forward_with_time_derivative(trained.net, times)

        def save_network(out_dir: str, name: str, chash: str) -> None:
            prefix = os.path.join(out_dir, f"network_{name}")
            trained.net.to_json(prefix + ".json")
            trained.history_to_csv(prefix + "_loss.csv")

        return Estimate(Trajectory(times=times, values=values), xdot, trained.theta_hat, None,
                        trained.flags, save_network)
    raise ValueError(f"unknown method {method!r}")


def run_single(
    regime: RegimeSpec,
    method: str,
    options: dict,
    replicate: int,
    base_seed: int,
    forecast: bool = False,
    out_dir: str | None = None,
) -> tuple[list[tuple], dict]:
    """Simulate one dataset, ``estimate`` with one method, compute all metrics.

    ``options`` reach the method unchanged: the keyword arguments of
    ``fit_magi`` and the forecast functions past seed, or the fields of
    ``PinnConfig`` past seed.  A key the method does not take, or a MAGI
    sampler setting it lacks, raises TypeError.

    Returns (result rows, run manifest).  Rows follow RESULT_COLUMNS; wall
    time lives only in the manifest so result CSVs stay byte-identical
    across reruns.  run_study sets the BLAS thread count (one) around its
    calls; this function, which may run in a forked pool worker, leaves it
    alone.
    """
    if out_dir is not None:
        os.makedirs(out_dir, exist_ok=True)
    model = regime.model()
    options = dict(options or {})
    run_id = _run_identity(regime, method, options, replicate, base_seed, forecast)
    dataset = simulate_dataset(regime, run_id.data_seed)
    truth = ground_truth(regime)

    eval_times = regime.eval_times() if forecast else None  # fail before the method runs
    started = _time.perf_counter()
    est = estimate(regime, method, options, dataset, run_id.seed, forecast)
    if out_dir is not None:
        est.save(out_dir, f"{regime.name}_{run_id.tag.replace(':', '_')}_rep{replicate}",
                 run_id.config_hash)
    wall = _time.perf_counter() - started
    flag_text = ";".join(est.flags)
    rows: list[tuple] = []

    def add(metric: str, names, values) -> None:
        rows.extend((regime.name, method, run_id.lam_text, replicate, run_id.seed,
                     name, metric, f"{float(value):.17g}", flag_text)
                    for name, value in zip(names, values))

    comps, params = model.component_names, model.param_names
    theta_true = np.asarray(regime.theta_true)
    n_in = regime.n_grid_insample
    add("rmse_insample", comps, compute_rmse(est.trajectory, truth, regime.obs_times()))
    add("abs_error_theta", params, np.abs(est.theta - theta_true))
    add("mech_fidelity", comps, mechanistic_fidelity(
        est.trajectory.values[:n_in], est.xdot[:n_in], model, est.theta, regime.insample_times()))
    if est.theta_ci is not None:
        lo, hi = est.theta_ci.T
        add("ci_hit", params, (lo <= theta_true) & (theta_true <= hi))
    if forecast:
        add("rmse_forecast", comps, compute_rmse(est.trajectory, truth, eval_times))
        if regime.peak_component is not None:
            qoi = quantities_of_interest(est.theta, est.trajectory,
                                         peak_component=regime.peak_component,
                                         value_transform=regime.peak_value_transform)
            for name, value, true in zip(("R0", "peak_time", "peak_intensity"), qoi,
                                         regime_truth_qoi(regime)):
                add(f"abs_error_{name}", [name], [abs(value - true)])

    manifest = {
        "regime": regime.name, "method": method, "lambda": run_id.lam,
        "replicate": replicate, "seed": run_id.seed, "data_seed": run_id.data_seed,
        "config_hash": run_id.config_hash, "wall_time_s": wall, "flags": list(est.flags),
    }
    return rows, manifest


def _safe_run(job: tuple[RunIdentity, tuple]) -> tuple[list[tuple], dict]:
    """run_single with failures downgraded to an error row (study continues)."""
    run_id, args = job
    try:
        return run_single(*args)
    except Exception as exc:
        regime, method, _, replicate = args[:4]
        rows = [(regime.name, method, run_id.lam_text, replicate, -1, "", "error",
                 "nan", f"error:{type(exc).__name__}")]
        return rows, {"config_hash": "", "error": f"{type(exc).__name__}: {exc}"}


@functools.cache
def _openblas_thread_controls() -> tuple[tuple, ...]:
    """(get, set) thread-count functions of every OpenBLAS this process has loaded.

    numpy and scipy each bundle their own OpenBLAS (exporting
    ``scipy_openblas_{get,set}_num_threads`` with an ILP64 ``64_`` suffix in
    numpy's); a system build exports plain ``openblas_*``.  Empty where
    /proc/self/maps cannot be read or no OpenBLAS is loaded.  Both are loaded
    once this module is imported (it imports scipy.linalg through ``magi``),
    so the search runs once per process and forked workers inherit its result.
    """
    try:
        with open("/proc/self/maps") as fh:
            paths = sorted({line.split(maxsplit=5)[5].strip() for line in fh
                            if "openblas" in line.rsplit("/", 1)[-1]})
    except OSError:
        return ()
    controls = []
    for path in paths:
        lib = ctypes.CDLL(path)
        for name in ("scipy_openblas_{}_num_threads64_", "scipy_openblas_{}_num_threads",
                     "openblas_{}_num_threads64_", "openblas_{}_num_threads"):
            get, set_ = (getattr(lib, name.format(verb), None) for verb in ("get", "set"))
            if get is not None and set_ is not None:
                get.argtypes, get.restype = [], ctypes.c_int
                set_.argtypes, set_.restype = [ctypes.c_int], None
                controls.append((get, set_))
                break
    return tuple(controls)


@contextlib.contextmanager
def _one_blas_thread():
    """Run the body with every loaded OpenBLAS on one thread, then restore.

    Results then do not depend on how many threads OpenBLAS would start, and
    pool workers forked inside the body inherit the setting.  Workers must
    not call the setter themselves: in a forked child it starts OpenBLAS's
    server threads, which spin.
    """
    controls = _openblas_thread_controls()
    saved = [get() for get, _ in controls]
    for _, set_ in controls:
        set_(1)
    try:
        yield
    finally:
        for (_, set_), n in zip(controls, saved):
            set_(n)


@dataclass
class StudyResult:
    rows: list[tuple]
    attempted: int
    failed: int
    skipped: int


def run_study(
    regime: RegimeSpec,
    methods: list[tuple[str, dict]],
    replicates: int,
    base_seed: int = 0,
    parallelism: int = 1,
    out_dir: str | None = None,
    forecast: bool = False,
    save_artifacts: bool = False,
    first_replicate: int = 0,
) -> StudyResult:
    """Run replicates x methods, appending result rows to out_dir/results.csv.

    Resumable: finished (regime, method, lambda, replicate) combinations are
    skipped when their config hash matches the manifest from the earlier
    run.  Individual failures are recorded with an error flag and the study
    continues.  Replicates, serial or pooled, run on one BLAS thread, so the
    results do not depend on parallelism or on the core count.
    """
    rows_out: list[tuple] = []
    manifest_path = results_path = None
    manifest: dict[str, dict] = {}
    if out_dir is not None:
        os.makedirs(out_dir, exist_ok=True)
        results_path = os.path.join(out_dir, "results.csv")
        manifest_path = os.path.join(out_dir, "manifest.json")
        if os.path.exists(manifest_path):
            with open(manifest_path) as fh:
                manifest = json.load(fh)

    jobs = []
    skipped = 0
    for replicate in range(first_replicate, first_replicate + replicates):
        for method, options in methods:
            run_id = _run_identity(regime, method, options, replicate, base_seed, forecast)
            if manifest.get(run_id.key, {}).get("config_hash") == run_id.config_hash:
                skipped += 1
                continue
            jobs.append((run_id, (regime, method, dict(options or {}), replicate,
                                  base_seed, forecast, out_dir if save_artifacts else None)))

    def handle(key, outcome):
        rows, run_manifest = outcome
        rows_out.extend(rows)
        manifest[key] = run_manifest
        if results_path is not None:
            new_file = not os.path.exists(results_path)
            with open(results_path, "a", newline="") as fh:
                writer = csv.writer(fh)
                if new_file:
                    writer.writerow(RESULT_COLUMNS)
                writer.writerows(rows)
            with open(manifest_path, "w") as fh:
                json.dump(manifest, fh, indent=2, sort_keys=True, default=str)

    with _one_blas_thread():
        if parallelism > 1 and len(jobs) > 1:
            # Under fork the executor starts all max_workers processes at the
            # first submit, so more workers than jobs would only sit idle.
            with ProcessPoolExecutor(max_workers=min(parallelism, len(jobs))) as pool:
                for (run_id, _), outcome in zip(jobs, pool.map(_safe_run, jobs)):
                    handle(run_id.key, outcome)
        else:
            for job in jobs:
                handle(job[0].key, _safe_run(job))

    failed = sum(1 for row in rows_out if row[6] == "error")
    return StudyResult(rows=rows_out, attempted=len(jobs), failed=failed, skipped=skipped)
