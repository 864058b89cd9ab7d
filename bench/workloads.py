"""The benchmark's workloads.

Each workload is a built-in regime, cut down where its full size cannot run
several times within one benchmark run, plus the method and the flags that
``odebench infer`` would pass to ``experiments.run_study``.  One operation is
one ``run_study`` call over ``replicates`` replicates; the k-th operation of a
run takes replicates k*R .. k*R+R-1, so every operation sees new datasets
while the same base seed always gives the same inputs.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    regime: str  # built-in regime the workload is cut from
    shrink: dict = field(default_factory=dict)  # RegimeSpec fields replaced
    method: str = "magi"
    options: dict = field(default_factory=dict)  # run_study method options
    forecast: bool = False
    replicates: int = 1  # per operation
    jobs: int = 1

    def regime_spec(self):
        from odebench.experiments import get_regime

        return replace(get_regime(self.regime), **self.shrink)

    def replicates_of(self, op_index: int) -> list[int]:
        lo = op_index * self.replicates
        return list(range(lo, lo + self.replicates))

    def setup(self, seed: int):
        """Integrate the truth and simulate the first operation's datasets.

        The program caches the truth (and the forecast peak of the truth)
        per process, so operations after set-up start from the datasets.
        """
        from odebench import experiments

        regime = self.regime_spec()
        experiments.ground_truth(regime)
        if self.forecast and regime.peak_component is not None:
            experiments.regime_truth_qoi(regime)
        for rep in self.replicates_of(0):
            experiments.simulate_dataset(regime, experiments.dataset_seed(seed, regime, rep))
        return regime


# seir-full with 21 of its 41 observations (every 8th point of the same
# 161-point grid): one 41-point GP fit takes 4-5 s, three of them per
# replicate would leave room for one operation per run and no median.
_SEIR_21 = {"n_obs": 21}

WORKLOADS = {w.name: w for w in (
    Workload(
        name="seir-insample",
        why="SEIR in-sample MAGI, one replicate per operation: GP fits, initializer, log density "
            "and NUTS",
        regime="seir-full", shrink=_SEIR_21,
        options={"n_warmup": 5, "n_samples": 5, "init_budget": 3000},
    ),
    Workload(
        name="pinn-seir",
        why="SEIR PINN forecast on the 321-point grid: all time in pinn, the MAGI layers idle",
        regime="seir-full", method="pinn",
        options={"lam": 10.0, "epochs": 3000, "n_hidden": 3},
        forecast=True,
    ),
    Workload(
        name="seir-jobs2",
        why="two SEIR MAGI replicates per operation under --jobs 2: the process pool and "
            "BLAS threading",
        regime="seir-full", shrink=_SEIR_21,
        options={"n_warmup": 5, "n_samples": 5, "init_budget": 3000},
        replicates=2, jobs=2,
    ),
)}
