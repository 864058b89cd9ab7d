"""odebench: MAGI vs PINN benchmark harness for ODE inverse problems."""

from .dynamics import LorenzParams, OdeModel, SeirLogParams, get_model, model_names
from .experiments import (
    ObservationSet,
    RegimeSpec,
    builtin_regimes,
    compute_rmse,
    coverage_report,
    get_regime,
    mechanistic_fidelity,
    quantities_of_interest,
    run_study,
    simulate_dataset,
)
from .gp import GpKernelMats, MaternHyper, build_kernel_mats, gp_smooth_fit, matern_eval
from .integrate import IntegrationError, Trajectory, integrate_rk45, solve_peak
from .magi import (
    DiscretizationGrid,
    MagiProblem,
    MagiState,
    PosteriorSamples,
    fit_magi,
    forecast_extended_grid,
    forecast_sequential,
    init_missing_components,
    log_posterior,
    log_posterior_grad,
    run_inference,
)
from .pinn import MlpNet, PinnConfig, forward_with_time_derivative, pinn_loss, train_pinn
from .sampler import ChainResult, NutsConfig, nuts_sample

__version__ = "0.1.0"
