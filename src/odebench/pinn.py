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
from dataclasses import dataclass

import numpy as np
from scipy.linalg.blas import dger

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
    "PinnLoss",
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

    def normalize(self, t: np.ndarray, out: np.ndarray) -> np.ndarray:
        """2 (t - t_lo) / (t_hi - t_lo) - 1, evaluated in place in out."""
        np.subtract(t, self.t_lo, out=out)
        np.multiply(2.0, out, out=out)
        np.divide(out, self.t_hi - self.t_lo, out=out)
        return np.subtract(out, 1.0, out=out)

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
    """The arrays of one dual sweep of a net over m times.

    Layer l's values and time derivatives share one contiguous (2m, width)
    array ``xs[l]``: rows :m hold the values, rows m: the derivatives, so
    one GEMM carries both through a layer in each direction.  The input
    ``xs[0]`` is a column-major (2m, 2) block [[s, 1]; [time_scale, 0]] of
    the normalised times s: against the (2, width) right operand [w0^T; b0]
    in ``wts[0]`` one GEMM gives the first layer's pre-activations with
    their bias and their time derivatives, and the weight gradient reads
    the block's contiguous first column.  The forward sweep writes xs and
    each hidden layer's tanh derivative phi = 1 - a^2 into ``phis``,
    multiplying against ``wts``, contiguous copies of the transposed
    weights that it refreshes every call: OpenBLAS multiplies a contiguous
    right operand about twice as fast as a transposed view.  The later
    layers add their bias to the value rows in place with BLAS ``dger``
    (z^T += b ones^T), which neither allocates nor rounds differently from
    z + b.  The reverse sweep starts from the output layer's (2m, D)
    adjoint seed ``adjs[-1]`` and carries it down through ``adjs``, one
    (2m, width) array per hidden layer, with one (m, width) ``scratch``
    array per hidden layer; ``ones`` sums the value-half adjoint rows into
    the bias gradients.  The loss writes its physics residual into
    ``resid``, its data residual into ``data_resid`` (whose unobserved
    entries stay zero) and their squares into ``squares``.  ``grad_views``
    holds the ``_views`` of ``grad``, the last flat gradient the loss wrote
    into; a call with another array remakes them.

    Training reuses one sweep every epoch, so an epoch allocates no array
    of this size.  Allocated and freed every epoch, they left enough free
    memory at the top of the heap for glibc's malloc to return it to the
    system and fault it back in on the next epoch: about 220 page faults
    per epoch on the 321-point grid.
    """

    def __init__(self, widths: list[int], m: int):
        def per_hidden_layer():
            return [None] + [np.empty((m, n)) for n in widths[1:-1]] + [None]

        self.m = m
        self.xs = [np.zeros((2 * m, 2), order="F")] + [np.empty((2 * m, n)) for n in widths[1:]]
        self.xs[0][:m, 1] = 1.0
        self.wts = [np.empty((2, widths[1]))] + [
            np.empty((n_in, n_out)) for n_in, n_out in zip(widths[1:-1], widths[2:])]
        self.phis = per_hidden_layer()
        self.adjs = [None] + [np.empty((2 * m, n)) for n in widths[1:]]
        self.scratch = per_hidden_layer()
        self.ones = np.ones(m)
        self.resid = np.empty((m, widths[-1]))
        self.data_resid = np.zeros((m, widths[-1]))
        self.squares = np.empty((m, widths[-1]))
        self.grad = self.grad_views = None


def _dual_forward(net: MlpNet, t: np.ndarray, sweep: _Sweep) -> None:
    """Value and exact time derivative of the network at times t, into sweep.

    Refreshes the input block's normalised times and time scale and the
    stacked first-layer operand [w0^T; b0], then runs the first layer as
    one 2-column GEMM and each later one as a GEMM plus an in-place ``dger``
    bias add.  The halves of sweep.xs[-1] become N(t) and dN/dt; the hidden
    layers' xs and phis stay for the reverse sweep.
    """
    xs, wts, phis, m = sweep.xs, sweep.wts, sweep.phis, sweep.m
    net.normalize(t, out=xs[0][:m, 0])
    xs[0][m:, 0] = net.time_scale
    np.copyto(wts[0][1], net.biases[0])  # the loop fills row 0 with w0^T
    n_layers = len(net.weights)
    for l, (w, b, wt) in enumerate(zip(net.weights, net.biases, wts)):
        np.copyto(wt[:w.shape[1]], w.T)
        x = np.matmul(xs[l], wt, out=xs[l + 1])
        z, zdot = x[:m], x[m:]
        if l > 0:
            dger(1.0, b, sweep.ones, a=z.T, overwrite_a=1)
        if l < n_layers - 1:
            a = np.tanh(z, out=z)
            phi = np.multiply(a, a, out=phis[l + 1])
            np.subtract(1.0, phi, out=phi)
            zdot *= phi


def forward_with_time_derivative(net: MlpNet, t: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """N(t) and dN/dt, each (M, D), at the M times of the vector t."""
    t = np.asarray(t, dtype=float)
    sweep = _Sweep(net.widths, t.size)
    _dual_forward(net, t, sweep)
    out = sweep.xs[-1]
    return out[:t.size], out[t.size:]


def _backward_dual(net: MlpNet, sweep: _Sweep, grads_w, grads_b) -> None:
    """Backpropagate adjoints of (value, derivative) through the dual pass.

    The seed sweep.adjs[-1] holds the adjoints of N(t) in rows :m and of
    dN/dt in rows m:.  Writes each layer's weight and bias gradients into
    grads_w and grads_b: a weight gradient is adj^T times the layer's input
    (for the first layer, the input block's time column) and a bias
    gradient is ones times the value rows of adj.
    """
    xs, phis, m = sweep.xs, sweep.phis, sweep.m
    adj = sweep.adjs[-1]
    for l in range(len(net.weights) - 1, -1, -1):
        if phis[l + 1] is not None:
            # With v = phi zdot the layer's derivative rows, zbar = phi abar
            # - 2 a v vbar and zdotbar = phi vbar, each formed in the rows of
            # the adjoint it replaces.
            phi, abar, vbar = phis[l + 1], adj[:m], adj[m:]
            cross = np.multiply(-2.0, xs[l + 1][:m], out=sweep.scratch[l + 1])
            cross *= xs[l + 1][m:]
            cross *= vbar
            vbar *= phi
            abar *= phi
            abar += cross
        np.matmul(adj.T, xs[l] if l > 0 else xs[0][:, :1], out=grads_w[l])
        np.matmul(sweep.ones, adj[:m], out=grads_b[l])
        if l > 0:
            adj = np.matmul(adj, net.weights[l], out=sweep.adjs[l])


@dataclass(frozen=True)
class PinnLoss:
    """The PINN loss on one grid and data set, for nets of one shape.

    observed marks the (grid row, component) entries that hold data and
    targets holds their values (zero elsewhere); n_obs is the number of
    observation times.  ``train_pinn`` builds one and calls it every epoch:
    each call overwrites the sweep buffers, so its results depend on its
    arguments alone.
    """

    model: OdeModel
    times: np.ndarray
    lam: float
    n_obs: int
    observed: np.ndarray
    targets: np.ndarray
    sweep: _Sweep

    @classmethod
    def build(cls, model: OdeModel, data: ObservationSet, grid: DiscretizationGrid,
              lam: float, widths: list[int]) -> "PinnLoss":
        obs_rows, cols = np.nonzero(~np.isnan(data.values))
        rows = grid.obs_index[obs_rows]
        observed = np.zeros((grid.times.size, model.state_dim), dtype=bool)
        observed[rows, cols] = True
        targets = np.zeros(observed.shape)
        targets[rows, cols] = data.values[obs_rows, cols]
        return cls(model=model, times=grid.times, lam=lam, n_obs=data.times.size,
                   observed=observed, targets=targets, sweep=_Sweep(widths, grid.times.size))

    def __call__(self, net: MlpNet, theta: np.ndarray, grad: np.ndarray | None = None):
        """(total, physics, data) losses at the given parameters.

        With ``grad`` given, the gradient over (weights, biases, theta) is
        written into it, laid out as ``_views`` reads it.  Callers hold
        ``np.errstate``: a diverging network overflows.
        """
        model, times, lam, n_obs, sweep = self.model, self.times, self.lam, self.n_obs, self.sweep
        m = times.size
        _dual_forward(net, times, sweep)
        n_out, v_out = sweep.xs[-1][:m], sweep.xs[-1][m:]

        resid = np.subtract(model.rhs(n_out, theta, times), v_out, out=sweep.resid)
        physics = float(np.multiply(resid, resid, out=sweep.squares).sum()) / m

        # Zero where unobserved, so the sum runs in the same pairwise order
        # whatever the observation pattern.
        data_resid = np.subtract(n_out, self.targets, out=sweep.data_resid, where=self.observed)
        data_term = (lam / n_obs) * float(np.multiply(data_resid, data_resid,
                                                      out=sweep.squares).sum())
        total = physics + data_term
        if grad is None:
            return total, physics, data_term

        x_bar, theta_bar = model.vjp(n_out, theta, times, resid)
        seed = sweep.adjs[-1]
        abar, vbar = seed[:m], seed[m:]
        np.multiply(x_bar, 2.0 / m, out=abar)
        data_resid *= 2.0 * lam / n_obs  # its zeros stay zero
        abar += data_resid
        np.multiply(resid, -2.0 / m, out=vbar)
        if grad is not sweep.grad:  # train_pinn passes one array every epoch
            sweep.grad, sweep.grad_views = grad, _views(grad, net.widths)
        grads_w, grads_b, grad_theta = sweep.grad_views
        _backward_dual(net, sweep, grads_w, grads_b)
        np.multiply(theta_bar, 2.0 / m, out=grad_theta)
        return total, physics, data_term


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
    loss = PinnLoss.build(model, data, grid, config.lam, widths)
    adam = Adam(params, lr=PINN_LR)
    history = []
    skipped = 0

    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        for epoch in range(config.epochs):
            theta = np.where(pos, np.exp(u_theta), u_theta)
            total, physics, data_term = loss(net, theta, grad)
            if epoch % LOG_EVERY == 0 and math.isfinite(total):
                history.append((epoch, physics, data_term, total))
            if not (math.isfinite(total) and np.isfinite(grad).all()):
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
