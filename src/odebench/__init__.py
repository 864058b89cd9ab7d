"""odebench: MAGI vs PINN benchmark harness for ODE inverse problems."""

from .dynamics import OdeModel, get_model
from .experiments import (
    ObservationSet,
    RegimeSpec,
    builtin_regimes,
    compute_rmse,
    get_regime,
    mechanistic_fidelity,
    quantities_of_interest,
    run_study,
    simulate_dataset,
)
from .gp import (
    GpKernelMats,
    MaternHyper,
    build_kernel_mats,
    gp_smooth_fit,
    kernel_matrices,
    lag_table,
    matern_eval,
)
from .integrate import IntegrationError, Trajectory, integrate_rk45
from .magi import (
    DiscretizationGrid,
    MagiProblem,
    PosteriorSamples,
    fit_magi,
    forecast_extended_grid,
    forecast_sequential,
    init_missing_components,
    run_inference,
)
from .pinn import MlpNet, PinnConfig, PinnLoss, forward_with_time_derivative, train_pinn
from .sampler import ChainResult, NutsConfig, nuts_sample

__version__ = "0.1.0"
