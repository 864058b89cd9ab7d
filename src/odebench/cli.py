"""Command-line entry point.

Commands: simulate, infer, report, regimes, selfcheck.  Flags may be
supplemented by a plain "key = value" config file; explicit flags always
win.  Exit codes: 0 success, 2 configuration error, 3 empty or missing
input, 4 every attempted run failed.
"""

from __future__ import annotations

import csv
import os
import sys

import click
import numpy as np

from . import experiments
from .selfcheck import run_selfcheck

DEFAULT_OUT = os.environ.get("ODEBENCH_OUT", "odebench-out")


def _parse_config_file(path: str) -> dict[str, str]:
    values = {}
    with open(path) as fh:
        for lineno, raw in enumerate(fh, 1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise click.UsageError(f"{path}:{lineno}: expected 'key = value'")
            key, _, val = line.partition("=")
            values[key.strip().replace("-", "_")] = val.strip()
    return values


def _merge_config(ctx: click.Context, config_path: str | None) -> None:
    """Fill parameters from the config file wherever no flag was given."""
    if not config_path:
        return
    cfg = _parse_config_file(config_path)
    for param in ctx.command.params:
        if param.name in cfg and ctx.get_parameter_source(param.name) != \
                click.core.ParameterSource.COMMANDLINE:
            ctx.params[param.name] = param.type.convert(cfg[param.name], param, ctx)
    unknown = set(cfg) - {p.name for p in ctx.command.params}
    if unknown:
        raise click.UsageError(f"unknown config keys: {sorted(unknown)}")


def _regime_or_exit(name: str) -> experiments.RegimeSpec:
    try:
        return experiments.get_regime(name)
    except KeyError:
        names = ", ".join(r.name for r in experiments.builtin_regimes())
        raise click.UsageError(f"unknown regime {name!r}; choose one of: {names}")


@click.group()
def main():
    """Benchmark harness for ODE inverse-problem engines (MAGI and PINN)."""


@main.command()
@click.option("--regime", "regime_name", required=True, help="Regime name (see `regimes`).")
@click.option("--replicates", default=1, show_default=True)
@click.option("--first-replicate", default=0, show_default=True)
@click.option("--seed", default=0, show_default=True, help="Base seed for all replicates.")
@click.option("--out", default=DEFAULT_OUT, show_default=True)
@click.option("--config", "config_path", type=click.Path(exists=True), default=None)
@click.pass_context
def simulate(ctx, regime_name, replicates, first_replicate, seed, out, config_path):
    """Write simulated dataset CSVs (plus JSON sidecars) for a regime."""
    _merge_config(ctx, config_path)
    p = ctx.params
    regime = _regime_or_exit(p["regime_name"])
    os.makedirs(p["out"], exist_ok=True)
    model = regime.model()
    written = []
    for r in range(p["first_replicate"], p["first_replicate"] + p["replicates"]):
        ds_seed = experiments.dataset_seed(p["seed"], regime, r)
        dataset = experiments.simulate_dataset(regime, ds_seed)
        path = os.path.join(p["out"], f"dataset_{regime.name}_rep{r}.csv")
        dataset.to_csv(path, model.component_names,
                       sidecar={"regime": regime.name, "replicate": r,
                                "base_seed": p["seed"]})
        written.append(path)
    click.echo(f"regime={regime.name} replicates={p['replicates']} seed={p['seed']}")
    for path in written:
        click.echo(f"wrote {path}")


@main.command()
@click.option("--regime", "regime_name", required=True)
@click.option("--method", type=click.Choice(["magi", "pinn"]), required=True)
@click.option("--lambda", "lam", default=10.0, show_default=True,
              help="PINN data-loss weight.")
@click.option("--epochs", default=60000, show_default=True, help="PINN training epochs.")
@click.option("--layers", default=3, show_default=True, help="PINN hidden layers (3 or 4).")
@click.option("--warmup", default=3000, show_default=True, help="NUTS warmup steps.")
@click.option("--samples", default=3000, show_default=True, help="NUTS kept draws.")
@click.option("--init-budget", default=3000, show_default=True,
              help="Adam steps of the gradient-matching initializer; used only when "
                   "a component is unobserved (a fully observed regime solves theta "
                   "directly).")
@click.option("--replicates", default=1, show_default=True)
@click.option("--first-replicate", default=0, show_default=True)
@click.option("--seed", default=0, show_default=True)
@click.option("--forecast", is_flag=True, default=False,
              help="Run the regime's forecasting protocol.")
@click.option("--jobs", default=1, show_default=True, help="Parallel replicate workers.")
@click.option("--out", default=DEFAULT_OUT, show_default=True)
@click.option("--config", "config_path", type=click.Path(exists=True), default=None)
@click.pass_context
def infer(ctx, regime_name, method, lam, epochs, layers, warmup, samples,
          init_budget, replicates, first_replicate, seed, forecast, jobs, out,
          config_path):
    """Run one inference method over a replicate range and write metrics."""
    _merge_config(ctx, config_path)
    p = ctx.params
    regime = _regime_or_exit(p["regime_name"])
    if p["method"] == "pinn":
        options = {"lam": p["lam"], "epochs": p["epochs"], "n_hidden": p["layers"]}
    else:
        options = {"n_warmup": p["warmup"], "n_samples": p["samples"],
                   "init_budget": p["init_budget"]}
    result = experiments.run_study(
        regime, [(p["method"], options)], replicates=p["replicates"],
        base_seed=p["seed"], parallelism=p["jobs"], out_dir=p["out"],
        forecast=p["forecast"], save_artifacts=True,
        first_replicate=p["first_replicate"],
    )
    click.echo(
        f"regime={regime.name} method={p['method']} attempted={result.attempted} "
        f"failed={result.failed} skipped={result.skipped}")
    click.echo(f"results: {os.path.join(p['out'], 'results.csv')}")
    if result.attempted > 0 and result.failed == result.attempted:
        click.echo("all runs failed", err=True)
        sys.exit(4)


@main.command()
@click.option("--results", "results_path", default=None,
              help="results.csv or a directory containing one "
                   "[default: <out>/results.csv]")
@click.option("--out", default=DEFAULT_OUT, show_default=True)
@click.option("--summary-csv", default=None,
              help="Where to write the aggregated table [default: <out>/summary.csv]")
@click.pass_context
def report(ctx, results_path, out, summary_csv):
    """Aggregate metric rows into boxplot statistics per method and metric.

    ci_hit rows give the interval coverage (their mean) instead, printed
    beside the published coverage where the regime has one.
    """
    path = results_path or os.path.join(out, "results.csv")
    if os.path.isdir(path):
        path = os.path.join(path, "results.csv")
    if not os.path.exists(path):
        click.echo(f"no results at {path}", err=True)
        sys.exit(3)
    groups: dict[tuple, list[float]] = {}
    with open(path, newline="") as fh:
        reader = csv.DictReader(fh)
        for row in reader:
            if row["metric_name"] == "error":
                continue
            key = (row["regime"], row["method"], row["lambda"],
                   row["component_or_parameter"], row["metric_name"])
            groups.setdefault(key, []).append(float(row["value"]))
    if not groups:
        click.echo("results file holds no metric rows", err=True)
        sys.exit(3)

    out_path = summary_csv or os.path.join(out, "summary.csv")
    os.makedirs(os.path.dirname(out_path) or ".", exist_ok=True)
    with open(out_path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["regime", "method", "lambda", "component_or_parameter",
                         "metric_name", "n", "mean", "min", "q1", "median", "q3", "max"])
        for key in sorted(groups):
            vals = np.asarray(groups[key])
            # ci_hit is 0 or 1 per run: its mean is the coverage, its quantiles say nothing.
            q = [""] * 5 if key[4] == "ci_hit" else \
                [f"{v:.17g}" for v in np.quantile(vals, [0.0, 0.25, 0.5, 0.75, 1.0])]
            writer.writerow(list(key) + [vals.size, f"{vals.mean():.17g}"] + q)
    click.echo(f"wrote {out_path}")
    for key in sorted(groups):
        vals = np.asarray(groups[key])
        label = "/".join(k for k in key if k)
        if key[4] == "ci_hit":
            published = experiments.REFERENCE_COVERAGE.get(key[0], {}).get(key[3])
            click.echo(f"{label}: n={vals.size} coverage={vals.mean():.6g}"
                       + (f" published={published:g}" if published is not None else ""))
        else:
            click.echo(f"{label}: n={vals.size} median={np.median(vals):.6g}")


@main.command()
def regimes():
    """List the built-in experimental regimes."""
    for spec in experiments.builtin_regimes():
        forecast = spec.forecast_protocol or "none"
        click.echo(
            f"{spec.name}: model={spec.model_name} obs={spec.n_obs} on "
            f"[0,{spec.t_obs_end:g}] noise={spec.noise_level:g} "
            f"({spec.noise_kind}) grid={spec.n_grid_insample}"
            + (f"+{spec.n_grid_total - spec.n_grid_insample}" if spec.n_grid_total else "")
            + f" forecast={forecast}"
        )


@main.command()
def selfcheck():
    """Run the finite-difference and oracle suites."""
    results = run_selfcheck()
    failed = 0
    for name, ok, detail in results:
        click.echo(f"{'PASS' if ok else 'FAIL'} {name}: {detail}")
        failed += 0 if ok else 1
    if failed:
        click.echo(f"{failed}/{len(results)} checks failed", err=True)
        sys.exit(4)
    click.echo(f"all {len(results)} checks passed")


if __name__ == "__main__":
    main()
