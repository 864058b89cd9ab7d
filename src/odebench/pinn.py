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
PINN_LR = 0.01  # Adam step of the training
LOG_EVERY = 100  # epochs between loss-history rows


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

    def to_json(self, path) -> None:
        payload = {
            "widths": self.widths,
            "t_lo": self.t_lo,
            "t_hi": self.t_hi,
            "weights": [w.ravel().tolist() for w in self.weights],
            "biases": [b.tolist() for b in self.biases],
        }
        with open(path, "w") as fh:
            json.dump(payload, fh)

    @classmethod
    def from_json(cls, path) -> "MlpNet":
        with open(path) as fh:
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


def _views(flat: np.ndarray, widths: list[int]):
    """Views of a flat vector laid out as (weights, biases, rest) for a net of these widths."""
    weights, biases, k = [], [], 0
    for n_in, n_out in zip(widths[:-1], widths[1:]):
        weights.append(flat[k:k + n_out * n_in].reshape(n_out, n_in))
        k += n_out * n_in
    for n_out in widths[1:]:
        biases.append(flat[k:k + n_out])
        k += n_out
    return weights, biases, flat[k:]


class _Sweep:
    """The (m, width) arrays of one dual sweep of a net over m times.

    The forward sweep writes each layer's activations, tangents and zdots,
    and each hidden layer's tanh derivative phi = 1 - a^2; the reverse
    sweep keeps the adjoints of the hidden activations and tangents, and
    one scratch array per hidden layer.  Training reuses one sweep every
    epoch, so an epoch allocates no array of this size.  Allocated and
    freed every epoch, they left enough free memory at the top of the heap
    for glibc's malloc to return it to the system and fault it back in on
    the next epoch: about 220 page faults per epoch on the 321-point grid.
    """

    def __init__(self, widths: list[int], m: int):
        def per_hidden_layer():
            return [None] + [np.empty((m, n)) for n in widths[1:-1]] + [None]

        self.acts = [np.empty((m, n)) for n in widths]
        self.zdots = [None] + [np.empty((m, n)) for n in widths[1:]]
        # The output layer is linear: its tangent is its zdot.
        self.tangents = ([np.empty((m, widths[0]))] + [np.empty((m, n)) for n in widths[1:-1]]
                         + [self.zdots[-1]])
        self.phis = per_hidden_layer()
        self.abar = per_hidden_layer()
        self.vbar = per_hidden_layer()
        self.scratch = per_hidden_layer()


def _dual_forward(net: MlpNet, t: np.ndarray, sweep: _Sweep) -> None:
    """Value and exact time derivative of the network at times t, into sweep.

    sweep.acts[-1] and sweep.tangents[-1] become N(t) and dN/dt; the zdots
    and phis stay for the reverse sweep.
    """
    acts, tangents, zdots, phis = sweep.acts, sweep.tangents, sweep.zdots, sweep.phis
    acts[0][:, 0] = net.normalize(t)
    tangents[0].fill(net.time_scale)
    n_layers = len(net.weights)
    for l, (w, b) in enumerate(zip(net.weights, net.biases)):
        z = np.matmul(acts[l], w.T, out=acts[l + 1])
        z += b
        zdot = np.matmul(tangents[l], w.T, out=zdots[l + 1])
        if l < n_layers - 1:
            a = np.tanh(z, out=z)
            phi = np.multiply(a, a, out=phis[l + 1])
            np.subtract(1.0, phi, out=phi)
            np.multiply(phi, zdot, out=tangents[l + 1])


def forward_with_time_derivative(net: MlpNet, t: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """N(t) and dN/dt, each (M, D), at the M times of the vector t."""
    t = np.asarray(t, dtype=float)
    sweep = _Sweep(net.widths, t.size)
    _dual_forward(net, t, sweep)
    return sweep.acts[-1], sweep.tangents[-1]


def _backward_dual(net: MlpNet, sweep: _Sweep, abar, vbar, grads_w, grads_b) -> None:
    """Backpropagate adjoints of (value, derivative) through the dual pass.

    abar and vbar are the adjoints of N(t) and dN/dt.  Writes each layer's
    weight and bias gradients into grads_w and grads_b.
    """
    acts, tangents, zdots, phis = sweep.acts, sweep.tangents, sweep.zdots, sweep.phis
    for l in range(len(net.weights) - 1, -1, -1):
        if phis[l + 1] is not None:
            # zbar = phi abar - 2 a phi zdot vbar and zdotbar = phi vbar,
            # each formed in the buffer of the adjoint it replaces.
            phi = phis[l + 1]
            cross = np.multiply(-2.0, acts[l + 1], out=sweep.scratch[l + 1])
            cross *= phi
            cross *= zdots[l + 1]
            cross *= vbar
            vbar *= phi
            abar *= phi
            abar += cross
        np.add(abar.T @ acts[l], vbar.T @ tangents[l], out=grads_w[l])
        abar.sum(axis=0, out=grads_b[l])
        if l > 0:
            abar = np.matmul(abar, net.weights[l], out=sweep.abar[l])
            vbar = np.matmul(vbar, net.weights[l], out=sweep.vbar[l])


@dataclass(frozen=True)
class _PinnLoss:
    """The PINN loss on one grid and data set, for nets of one shape.

    rows, cols, values hold every observed entry (grid row, component,
    value); n_obs is the number of observation times.
    """

    model: OdeModel
    times: np.ndarray
    lam: float
    n_obs: int
    rows: np.ndarray
    cols: np.ndarray
    values: np.ndarray
    sweep: _Sweep

    @classmethod
    def build(cls, model: OdeModel, data: ObservationSet, grid: DiscretizationGrid,
              lam: float, widths: list[int]) -> "_PinnLoss":
        obs_rows, cols = np.nonzero(~np.isnan(data.values))
        return cls(model=model, times=grid.times, lam=lam, n_obs=data.times.size,
                   rows=grid.obs_index[obs_rows], cols=cols, values=data.values[obs_rows, cols],
                   sweep=_Sweep(widths, grid.times.size))

    def __call__(self, net: MlpNet, theta: np.ndarray, grad: np.ndarray | None = None):
        """(total, physics, data) losses at the given parameters.

        With ``grad`` given, the gradient over (weights, biases, theta) is
        written into it, laid out as ``_views`` reads it.  Callers hold
        ``np.errstate``: a diverging network overflows.
        """
        model, times, lam, n_obs, sweep = self.model, self.times, self.lam, self.n_obs, self.sweep
        m = times.size
        _dual_forward(net, times, sweep)
        n_out, v_out = sweep.acts[-1], sweep.tangents[-1]

        fvals = model.rhs(n_out, theta, times)
        resid = fvals - v_out
        physics = float(np.sum(resid * resid)) / m

        # Zero-filled (M, D), so the sum runs in the same pairwise order
        # whatever the observation pattern.
        data_resid = np.zeros_like(n_out)
        data_resid[self.rows, self.cols] = n_out[self.rows, self.cols] - self.values
        data_term = (lam / n_obs) * float(np.sum(data_resid * data_resid))
        total = physics + data_term
        if grad is None:
            return total, physics, data_term

        jac_x = model.jac_state(n_out, theta, times)
        jac_t = model.jac_param(n_out, theta, times)
        abar = (2.0 / m) * np.einsum("mc,mcd->md", resid, jac_x)
        abar += (2.0 * lam / n_obs) * data_resid
        vbar = -(2.0 / m) * resid
        grads_w, grads_b, grad_theta = _views(grad, net.widths)
        _backward_dual(net, sweep, abar, vbar, grads_w, grads_b)
        grad_theta[...] = (2.0 / m) * np.einsum("mc,mcp->p", resid, jac_t)
        return total, physics, data_term


def pinn_loss(
    model: OdeModel,
    net: MlpNet,
    theta: np.ndarray,
    data: ObservationSet,
    grid: DiscretizationGrid,
    lam: float,
) -> tuple[float, float, float]:
    """(total, physics, data) losses at the current parameters."""
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        return _PinnLoss.build(model, data, grid, lam, net.widths)(net, theta)


def _loss_and_grads(model, net, theta, data, grid, lam):
    """(total, physics, data, grad); grad is flat over (weights, biases, theta)."""
    grad = np.empty(sum(w.size + b.size for w, b in zip(net.weights, net.biases))
                    + np.size(theta))
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        total, physics, data_term = _PinnLoss.build(model, data, grid, lam, net.widths)(
            net, theta, grad)
    return total, physics, data_term, grad


@dataclass(frozen=True)
class PinnConfig:
    lam: float = 10.0
    epochs: int = 60000
    n_hidden: int = 3  # 3 or 4 hidden layers of HIDDEN_WIDTH units
    seed: int = 0

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

    The network maps the observation window, data.times[0] to
    data.times[-1], onto [-1, 1].  The weights, biases and theta train as
    one flat vector; the network reads reshaped views of it.
    Positivity-constrained parameters are trained on log scale.  Training
    stops at the first non-finite loss or gradient and keeps the last
    finite parameters: the loss depends on the parameters alone, so every
    later step would be non-finite too.  The steps not taken count as
    skipped; a run with >= 1% of steps skipped is flagged unstable but
    still returned.
    """
    widths = [1] + [HIDDEN_WIDTH] * config.n_hidden + [model.state_dim]
    t_lo, t_hi = float(data.times[0]), float(data.times[-1])
    init = init_mlp(widths, t_lo, t_hi, seed=config.seed)
    rng = np.random.default_rng(np.random.SeedSequence((config.seed, 0xFEED)))
    theta0 = rng.uniform(0.5, 1.5, size=model.param_dim)
    pos = np.asarray(model.positive_params, dtype=bool)

    params = np.concatenate([w.ravel() for w in init.weights] + init.biases
                            + [np.where(pos, np.log(theta0), theta0)])
    weights, biases, u_theta = _views(params, widths)
    net = MlpNet(weights=weights, biases=biases, t_lo=t_lo, t_hi=t_hi)
    grad = np.empty_like(params)
    g_theta = _views(grad, widths)[2]
    loss = _PinnLoss.build(model, data, grid, config.lam, widths)
    adam = Adam(params, lr=PINN_LR)
    history = []
    skipped = 0

    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        for epoch in range(config.epochs):
            theta = np.where(pos, np.exp(u_theta), u_theta)
            total, physics, data_term = loss(net, theta, grad)
            if epoch % LOG_EVERY == 0 and np.isfinite(total):
                history.append((epoch, physics, data_term, total))
            if not (np.isfinite(total) and np.isfinite(grad).all()):
                skipped = config.epochs - epoch
                break
            np.multiply(g_theta, theta, out=g_theta, where=pos)  # d/du = theta d/dtheta
            adam.step(params, grad)

        theta_hat = np.where(pos, np.exp(u_theta), u_theta)
        total, physics, data_term = loss(net, theta_hat)
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
