"""Physics-informed neural network baseline.

A small tanh multilayer perceptron maps (normalized) time to the system
state.  The forward pass propagates an input tangent through every layer,
so the network's exact time derivative comes out of the same sweep that
produces its value; training backpropagates through both, which is the
nested differentiation the physics loss requires.
"""

from __future__ import annotations

import json
import math
import warnings
from dataclasses import dataclass, field

import numpy as np

from .dynamics import OdeModel
from .magi import DiscretizationGrid
from .observations import ObservationSet
from .optim import Adam

__all__ = [
    "MlpNet",
    "PinnConfig",
    "TrainedPinn",
    "init_mlp",
    "forward_with_time_derivative",
    "pinn_loss",
    "train_pinn",
]

HIDDEN_WIDTH = 20


@dataclass
class MlpNet:
    """Tanh MLP with an affine time normalization baked in.

    weights[l] has shape (n_out, n_in); hidden activations are tanh, the
    output layer is linear.  ``t_lo``/``t_hi`` define the affine map of the
    training span onto [-1, 1].
    """

    weights: list[np.ndarray]
    biases: list[np.ndarray]
    t_lo: float
    t_hi: float

    @property
    def widths(self) -> list[int]:
        return [self.weights[0].shape[1]] + [w.shape[0] for w in self.weights]

    @property
    def time_scale(self) -> float:
        return 2.0 / (self.t_hi - self.t_lo)

    def normalize(self, t: np.ndarray) -> np.ndarray:
        return 2.0 * (t - self.t_lo) / (self.t_hi - self.t_lo) - 1.0

    def to_json(self, path=None) -> str:
        payload = {
            "widths": self.widths,
            "t_lo": self.t_lo,
            "t_hi": self.t_hi,
            "weights": [w.ravel().tolist() for w in self.weights],
            "biases": [b.tolist() for b in self.biases],
        }
        text = json.dumps(payload)
        if path is not None:
            with open(path, "w") as fh:
                fh.write(text)
        return text

    @classmethod
    def from_json(cls, text_or_path) -> "MlpNet":
        try:
            payload = json.loads(text_or_path)
        except (ValueError, TypeError):
            with open(text_or_path) as fh:
                payload = json.load(fh)
        widths = payload["widths"]
        weights, biases = [], []
        for i in range(len(widths) - 1):
            weights.append(np.array(payload["weights"][i]).reshape(widths[i + 1], widths[i]))
            biases.append(np.array(payload["biases"][i]))
        return cls(weights=weights, biases=biases, t_lo=payload["t_lo"], t_hi=payload["t_hi"])


def init_mlp(widths: list[int], t_lo: float, t_hi: float, seed: int = 0) -> MlpNet:
    """Glorot-uniform weights, zero biases, seeded."""
    rng = np.random.default_rng(seed)
    weights, biases = [], []
    for n_in, n_out in zip(widths[:-1], widths[1:]):
        limit = math.sqrt(6.0 / (n_in + n_out))
        weights.append(rng.uniform(-limit, limit, size=(n_out, n_in)))
        biases.append(np.zeros(n_out))
    return MlpNet(weights=weights, biases=biases, t_lo=t_lo, t_hi=t_hi)


def _dual_forward(net: MlpNet, t: np.ndarray):
    """Value and exact time derivative of the network at times t.

    Returns (activations, tangents, zdots) per layer; the last entries are
    N(t) and dN/dt.  zdots are cached for the reverse sweep.
    """
    t = np.atleast_1d(np.asarray(t, dtype=float))
    a = net.normalize(t)[:, None]
    v = np.full_like(a, net.time_scale)
    acts, tangents, zdots = [a], [v], [None]
    n_layers = len(net.weights)
    for l, (w, b) in enumerate(zip(net.weights, net.biases)):
        z = acts[-1] @ w.T + b
        zdot = tangents[-1] @ w.T
        if l < n_layers - 1:
            a = np.tanh(z)
            v = (1.0 - a * a) * zdot
        else:
            a, v = z, zdot
        acts.append(a)
        tangents.append(v)
        zdots.append(zdot)
    return acts, tangents, zdots


def forward_with_time_derivative(net: MlpNet, t) -> tuple[np.ndarray, np.ndarray]:
    """N(t) and dN/dt; scalar t yields (D,) vectors, vector t yields (M, D)."""
    scalar = np.isscalar(t) or np.ndim(t) == 0
    acts, tangents, _ = _dual_forward(net, t)
    n, v = acts[-1], tangents[-1]
    if scalar:
        return n[0], v[0]
    return n, v


def _backward_dual(net: MlpNet, acts, tangents, zdots, abar, vbar):
    """Backpropagate adjoints of (value, derivative) through the dual pass.

    Returns per-layer weight and bias gradients.
    """
    n_layers = len(net.weights)
    grads_w = [None] * n_layers
    grads_b = [None] * n_layers
    for l in range(n_layers - 1, -1, -1):
        a_out = acts[l + 1]
        if l == n_layers - 1:
            zbar = abar
            zdotbar = vbar
        else:
            phi1 = 1.0 - a_out * a_out
            zdotbar = phi1 * vbar
            zbar = phi1 * abar + (-2.0 * a_out * phi1) * zdots[l + 1] * vbar
        grads_w[l] = zbar.T @ acts[l] + zdotbar.T @ tangents[l]
        grads_b[l] = zbar.sum(axis=0)
        abar = zbar @ net.weights[l]
        vbar = zdotbar @ net.weights[l]
    return grads_w, grads_b


def pinn_loss(
    model: OdeModel,
    net: MlpNet,
    theta: np.ndarray,
    data: ObservationSet,
    grid: DiscretizationGrid,
    lam: float,
) -> tuple[float, float, float]:
    """(total, physics, data) losses at the current parameters."""
    total, physics, data_term, _, _, _ = _loss_and_grads(
        model, net, theta, data, grid, lam, want_grads=False)
    return total, physics, data_term


def _loss_and_grads(model, net, theta, data, grid, lam, want_grads=True):
    times = grid.times
    m = times.size
    acts, tangents, zdots = _dual_forward(net, times)
    n_out, v_out = acts[-1], tangents[-1]

    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        fvals = model.rhs(n_out, theta, times)
        resid = fvals - v_out
        physics = float(np.sum(resid * resid)) / m

        n_obs = data.times.size
        data_resid = np.zeros_like(n_out)
        for c in data.observed_components():
            col = data.values[:, c]
            keep = ~np.isnan(col)
            rows = grid.obs_index[keep]
            data_resid[rows, c] = n_out[rows, c] - col[keep]
        data_term = (lam / n_obs) * float(np.sum(data_resid * data_resid))
        total = physics + data_term

    if not want_grads:
        return total, physics, data_term, None, None, None

    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        jac_x = model.jac_state(n_out, theta, times)
        jac_t = model.jac_param(n_out, theta, times)
        abar = (2.0 / m) * np.einsum("mc,mcd->md", resid, jac_x)
        abar += (2.0 * lam / n_obs) * data_resid
        vbar = -(2.0 / m) * resid
        grads_w, grads_b = _backward_dual(net, acts, tangents, zdots, abar, vbar)
        grad_theta = (2.0 / m) * np.einsum("mc,mcp->p", resid, jac_t)
    return total, physics, data_term, grads_w, grads_b, grad_theta


@dataclass(frozen=True)
class PinnConfig:
    lam: float = 10.0
    epochs: int = 60000
    learning_rate: float = 0.01
    n_hidden: int = 3  # 3 or 4 hidden layers of HIDDEN_WIDTH units
    t_lo: float = 0.0  # training span mapped onto [-1, 1]
    t_hi: float = 1.0
    seed: int = 0
    log_every: int = 100

    def __post_init__(self):
        if self.lam <= 0:
            raise ValueError("lambda must be positive")
        if self.epochs < 1:
            raise ValueError("epochs must be >= 1")
        if self.n_hidden not in (3, 4):
            raise ValueError("hidden layer count is 3 or 4")


@dataclass
class TrainedPinn:
    net: MlpNet
    theta_hat: np.ndarray
    history: np.ndarray  # rows of (epoch, physics, data, total)
    flags: tuple[str, ...] = ()
    skipped_steps: int = 0

    def history_to_csv(self, path) -> None:
        with open(path, "w") as fh:
            fh.write("epoch,physics,data,total\n")
            for row in self.history:
                fh.write(f"{int(row[0])},{row[1]:.17g},{row[2]:.17g},{row[3]:.17g}\n")


def train_pinn(
    config: PinnConfig,
    model: OdeModel,
    data: ObservationSet,
    grid: DiscretizationGrid,
) -> TrainedPinn:
    """Full-batch Adam over (network weights, theta) for the configured epochs.

    Positivity-constrained parameters are trained on log scale.  Steps that
    produce a non-finite loss or gradient are skipped; a run with >= 1% of
    steps skipped is flagged unstable but still returned.
    """
    widths = [1] + [HIDDEN_WIDTH] * config.n_hidden + [model.state_dim]
    net = init_mlp(widths, config.t_lo, config.t_hi, seed=config.seed)
    rng = np.random.default_rng(np.random.SeedSequence((config.seed, 0xFEED)))
    theta0 = rng.uniform(0.5, 1.5, size=model.param_dim)
    pos = np.asarray(model.positive_params, dtype=bool)
    u_theta = np.where(pos, np.log(theta0), theta0)

    params = list(net.weights) + list(net.biases) + [u_theta]
    adam = Adam(params, lr=config.learning_rate)
    n_w = len(net.weights)
    history = []
    skipped = 0

    for epoch in range(config.epochs):
        theta = np.where(pos, np.exp(params[-1]), params[-1])
        tmp_net = MlpNet(weights=params[:n_w], biases=params[n_w:-1],
                         t_lo=config.t_lo, t_hi=config.t_hi)
        total, physics, data_term, gw, gb, gt = _loss_and_grads(
            model, tmp_net, theta, data, grid, config.lam)
        finite = np.isfinite(total) and all(np.all(np.isfinite(g)) for g in gw + gb) \
            and np.all(np.isfinite(gt))
        if epoch % config.log_every == 0 and np.isfinite(total):
            history.append((epoch, physics, data_term, total))
        if not finite:
            skipped += 1
            continue
        g_u = np.where(pos, gt * theta, gt)
        params = adam.step(params, gw + gb + [g_u])

    theta_hat = np.where(pos, np.exp(params[-1]), params[-1])
    net = MlpNet(weights=params[:n_w], biases=params[n_w:-1],
                 t_lo=config.t_lo, t_hi=config.t_hi)
    total, physics, data_term = pinn_loss(model, net, theta_hat, data, grid, config.lam)
    history.append((config.epochs, physics, data_term, total))

    flags = []
    if skipped >= max(1, config.epochs // 100):
        flags.append("unstable-training")
        warnings.warn(f"{skipped} of {config.epochs} steps skipped (non-finite loss)")
    return TrainedPinn(
        net=net,
        theta_hat=theta_hat,
        history=np.array(history, dtype=float),
        flags=tuple(flags),
        skipped_steps=skipped,
    )
