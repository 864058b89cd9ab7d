import csv
import json
import os

import numpy as np
import pytest
from click.testing import CliRunner

from odebench.cli import main


@pytest.fixture()
def runner():
    return CliRunner()


def test_regimes_lists_all(runner):
    result = runner.invoke(main, ["regimes"])
    assert result.exit_code == 0
    assert result.output.splitlines() == [
        "seir-full: model=seir-log obs=41 on [0,6] noise=0.15 (additive) grid=161+160 "
        "forecast=extended",
        "seir-missing-e: model=seir-log obs=41 on [0,6] noise=0.15 (additive) grid=161+160 "
        "forecast=extended",
        "lorenz-chaotic: model=lorenz obs=81 on [0,8] noise=0.05 (sd-fraction) grid=321 "
        "forecast=none",
        "lorenz-stable: model=lorenz obs=81 on [0,8] noise=0.05 (sd-fraction) grid=321 "
        "forecast=none",
        "lorenz-forecast: model=lorenz obs=41 on [0,2] noise=0.0005 (sd-fraction) grid=81+120 "
        "forecast=sequential",
    ]


def test_simulate_writes_datasets(runner, tmp_path):
    out = tmp_path / "sim"
    result = runner.invoke(main, ["simulate", "--regime", "seir-full",
                                  "--replicates", "3", "--seed", "7",
                                  "--out", str(out)])
    assert result.exit_code == 0, result.output
    files = sorted(p.name for p in out.iterdir())
    assert "dataset_seir-full_rep0.csv" in files
    assert "dataset_seir-full_rep2.csv" in files
    assert "dataset_seir-full_rep1.csv.json" in files
    sidecar = json.loads((out / "dataset_seir-full_rep0.csv.json").read_text())
    assert sidecar["regime"] == "seir-full"
    assert "noise_spec" in sidecar


def test_simulate_rerun_identical_bytes(runner, tmp_path):
    out = tmp_path / "sim"
    args = ["simulate", "--regime", "lorenz-chaotic", "--replicates", "1",
            "--seed", "3", "--out", str(out)]
    assert runner.invoke(main, args).exit_code == 0
    first = (out / "dataset_lorenz-chaotic_rep0.csv").read_bytes()
    assert runner.invoke(main, args).exit_code == 0
    second = (out / "dataset_lorenz-chaotic_rep0.csv").read_bytes()
    assert first == second


def test_unknown_regime_exit_code_2(runner, tmp_path):
    result = runner.invoke(main, ["simulate", "--regime", "nope",
                                  "--out", str(tmp_path)])
    assert result.exit_code == 2
    assert "seir-full" in result.output  # lists the available regimes


def test_infer_pinn_writes_artifacts(runner, tmp_path):
    out = tmp_path / "run"
    result = runner.invoke(main, [
        "infer", "--regime", "lorenz-chaotic", "--method", "pinn",
        "--lambda", "10", "--epochs", "60", "--replicates", "1",
        "--seed", "5", "--out", str(out)])
    assert result.exit_code == 0, result.output
    names = {p.name for p in out.iterdir()}
    assert "results.csv" in names
    assert "manifest.json" in names
    assert any(n.startswith("network_") and n.endswith(".json") for n in names)
    assert any(n.endswith("_loss.csv") for n in names)
    with open(out / "results.csv") as fh:
        rows = list(csv.DictReader(fh))
    assert all(r["method"] == "pinn" for r in rows)
    assert all(r["lambda"] == "10" for r in rows)


def test_infer_magi_missing_e_smoke(runner, tmp_path):
    out = tmp_path / "run"
    result = runner.invoke(main, [
        "infer", "--regime", "seir-missing-e", "--method", "magi",
        "--warmup", "40", "--samples", "40", "--init-budget", "100",
        "--replicates", "1", "--seed", "2", "--out", str(out)])
    assert result.exit_code == 0, result.output
    with open(out / "results.csv") as fh:
        rows = list(csv.DictReader(fh))
    # the unobserved component still gets trajectory metrics
    assert any(r["component_or_parameter"] == "logE" and
               r["metric_name"] == "rmse_insample" for r in rows)
    vals = [float(r["value"]) for r in rows if r["metric_name"] == "rmse_insample"]
    assert all(np.isfinite(v) for v in vals)


def test_infer_seed_reproducibility(runner, tmp_path):
    args_base = ["infer", "--regime", "seir-full", "--method", "pinn",
                 "--lambda", "1", "--epochs", "40", "--replicates", "1",
                 "--seed", "9"]
    out1, out2 = tmp_path / "a", tmp_path / "b"
    assert runner.invoke(main, args_base + ["--out", str(out1)]).exit_code == 0
    assert runner.invoke(main, args_base + ["--out", str(out2)]).exit_code == 0
    assert (out1 / "results.csv").read_bytes() == (out2 / "results.csv").read_bytes()


def test_infer_refuses_other_settings_in_a_used_out(runner, tmp_path):
    args = ["infer", "--regime", "seir-full", "--method", "pinn", "--lambda", "1",
            "--replicates", "1", "--seed", "9", "--out", str(tmp_path)]
    assert runner.invoke(main, args + ["--epochs", "20"]).exit_code == 0
    rows = (tmp_path / "results.csv").read_bytes()
    result = runner.invoke(main, args + ["--epochs", "30"])
    assert result.exit_code == 2
    assert "other settings" in result.output
    assert (tmp_path / "results.csv").read_bytes() == rows


def test_report_aggregates_and_grouping(runner, tmp_path):
    results = tmp_path / "results.csv"
    with open(results, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["regime", "method", "lambda", "replicate", "seed",
                         "component_or_parameter", "metric_name", "value", "flag"])
        for i, v in enumerate([3.0, 1.0, 2.0, 5.0, 4.0]):
            writer.writerow(["seir-full", "magi", "", i, 100 + i, "beta",
                             "abs_error_theta", f"{v}", ""])
        writer.writerow(["seir-full", "pinn", "10", 0, 7, "beta",
                         "abs_error_theta", "9.0", ""])
    out_csv = tmp_path / "summary.csv"
    result = runner.invoke(main, ["report", "--results", str(results),
                                  "--summary-csv", str(out_csv), "--out", str(tmp_path)])
    assert result.exit_code == 0, result.output
    with open(out_csv) as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 2  # magi and pinn groups kept apart
    magi_row = next(r for r in rows if r["method"] == "magi")
    assert float(magi_row["median"]) == 3.0
    assert float(magi_row["min"]) == 1.0
    assert float(magi_row["q1"]) == 2.0
    assert float(magi_row["q3"]) == 4.0
    assert float(magi_row["max"]) == 5.0
    assert int(magi_row["n"]) == 5


def test_report_ci_hit_coverage(runner, tmp_path):
    results = tmp_path / "results.csv"
    with open(results, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["regime", "method", "lambda", "replicate", "seed",
                         "component_or_parameter", "metric_name", "value", "flag"])
        for i, hit in enumerate([1.0, 0.0, 1.0, 1.0]):
            writer.writerow(["seir-full", "magi", "", i, 100 + i, "beta", "ci_hit", hit, ""])
            writer.writerow(["lorenz-chaotic", "magi", "", i, 200 + i, "rho", "ci_hit",
                             1.0 - hit, ""])
    out_csv = tmp_path / "summary.csv"
    result = runner.invoke(main, ["report", "--results", str(results),
                                  "--summary-csv", str(out_csv), "--out", str(tmp_path)])
    assert result.exit_code == 0, result.output
    assert "seir-full/magi/beta/ci_hit: n=4 coverage=0.75 published=0.9" in result.output
    assert "lorenz-chaotic/magi/rho/ci_hit: n=4 coverage=0.25\n" in result.output
    with open(out_csv) as fh:
        rows = {r["regime"]: r for r in csv.DictReader(fh)}
    assert float(rows["seir-full"]["mean"]) == 0.75
    assert int(rows["seir-full"]["n"]) == 4
    assert rows["seir-full"]["median"] == ""


def test_report_empty_exit_3(runner, tmp_path):
    result = runner.invoke(main, ["report", "--results", str(tmp_path / "none.csv"),
                                  "--out", str(tmp_path)])
    assert result.exit_code == 3


def test_config_file_merging(runner, tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("replicates = 2\nseed = 11\n")
    out = tmp_path / "sim"
    result = runner.invoke(main, ["simulate", "--regime", "seir-full",
                                  "--config", str(cfg), "--out", str(out),
                                  "--replicates", "1"])  # flag beats config
    assert result.exit_code == 0, result.output
    files = [p for p in out.iterdir() if p.suffix == ".csv"]
    assert len(files) == 1  # flag value won
    assert "seed=11" in result.output  # config filled the un-flagged value


def test_config_unknown_key_rejected(runner, tmp_path):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("not_a_flag = 3\n")
    result = runner.invoke(main, ["simulate", "--regime", "seir-full",
                                  "--config", str(cfg), "--out", str(tmp_path / "x")])
    assert result.exit_code == 2


def test_selfcheck_passes(runner):
    result = runner.invoke(main, ["selfcheck"])
    assert result.exit_code == 0, result.output
    assert result.output.count("PASS") == 6


def test_config_supplies_required_options(runner, tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("regime = seir-full\nmethod = pinn\nepochs = 20\n")
    out = tmp_path / "run"
    result = runner.invoke(main, ["infer", "--config", str(cfg), "--out", str(out)])
    assert result.exit_code == 0, result.output
    assert "regime=seir-full method=pinn attempted=1" in result.output
    assert (out / "results.csv").exists()


def test_config_forecast_true_sets_the_flag(runner, tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("forecast = true\n")
    out = tmp_path / "run"
    result = runner.invoke(main, ["infer", "--regime", "seir-full", "--method", "pinn",
                                  "--epochs", "20", "--config", str(cfg), "--out", str(out)])
    assert result.exit_code == 0, result.output
    with open(out / "results.csv") as fh:
        assert any(r["metric_name"] == "rmse_forecast" for r in csv.DictReader(fh))


@pytest.mark.parametrize("line", ["seed = eleven", "regime = nope"], ids=["seed", "regime"])
def test_config_value_checked_like_a_flag(runner, tmp_path, line):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text(f"regime = seir-full\n{line}\n")
    out = tmp_path / "sim"
    result = runner.invoke(main, ["simulate", "--config", str(cfg), "--out", str(out)])
    assert result.exit_code == 2
    assert not out.exists()


def test_infer_flag_beats_config(runner, tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("regime = lorenz-chaotic\nmethod = magi\nlam = 5\nepochs = 30\n")
    out = tmp_path / "run"
    result = runner.invoke(main, ["infer", "--config", str(cfg), "--method", "pinn",
                                  "--lambda", "2", "--out", str(out)])
    assert result.exit_code == 0, result.output
    with open(out / "results.csv") as fh:
        rows = list(csv.DictReader(fh))
    assert {(r["regime"], r["method"], r["lambda"]) for r in rows} == \
        {("lorenz-chaotic", "pinn", "2")}
    manifest = json.loads((out / "manifest.json").read_text())
    assert list(manifest) == ["lorenz-chaotic|pinn|2|0"]


@pytest.mark.parametrize("flag, value", [("--layers", "5"), ("--replicates", "-3"),
                                         ("--replicates", "0"), ("--jobs", "-2"),
                                         ("--first-replicate", "-1"), ("--init-budget", "-1")])
def test_infer_refused_setting_exits_2_before_any_run(runner, tmp_path, flag, value):
    out = tmp_path / "run"
    result = runner.invoke(main, ["infer", "--regime", "seir-full", "--method", "pinn",
                                  flag, value, "--epochs", "5", "--out", str(out)])
    assert result.exit_code == 2
    assert flag in result.output
    assert not out.exists()
