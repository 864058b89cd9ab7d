import json
import tracemalloc

import numpy as np
import pytest

from odebench import experiments, magi, pinn
from odebench.dynamics import OdeModel, get_model
from odebench.observations import ObservationSet

from conftest import central_fd, rel_err


def test_zero_weight_network_is_constant():
    net = pinn.init_mlp([1, 4, 3], 0.0, 2.0, seed=0)
    for w in net.weights:
        w[:] = 0.0
    net.biases[-1][:] = np.array([1.5, -2.0, 0.25])
    n, v = pinn.forward_with_time_derivative(net, np.linspace(0, 2, 7))
    assert np.allclose(n, [1.5, -2.0, 0.25])
    assert np.allclose(v, 0.0)


def test_single_unit_closed_form():
    # N(t) = w2 tanh(w1 s + b1) + b2 with s the normalized input.
    net = pinn.MlpNet(
        weights=[np.array([[0.7]]), np.array([[1.3]])],
        biases=[np.array([0.2]), np.array([-0.5])],
        t_lo=-1.0, t_hi=1.0,  # identity normalization
    )
    for t in (-0.8, 0.0, 0.3, 0.9):
        n, v = pinn.forward_with_time_derivative(net, np.array([t]))
        inner = np.tanh(0.7 * t + 0.2)
        assert abs(n[0, 0] - (1.3 * inner - 0.5)) < 1e-12
        assert abs(v[0, 0] - 1.3 * 0.7 * (1 - inner**2)) < 1e-12


def test_time_derivative_matches_fd():
    net = pinn.init_mlp([1, 20, 20, 3], 0.0, 6.0, seed=3)
    rng = np.random.default_rng(0)
    ts = rng.uniform(0.0, 6.0, size=50)
    h = 1e-6
    for t in ts:
        _, v = pinn.forward_with_time_derivative(net, np.array([t]))
        np_, _ = pinn.forward_with_time_derivative(net, np.array([t + h]))
        nm, _ = pinn.forward_with_time_derivative(net, np.array([t - h]))
        fd = (np_ - nm) / (2 * h)
        assert rel_err(v, fd, floor=1e-4) < 1e-6


def test_normalization_jacobian_factor():
    # Same weights, different time window: derivative picks up the map scale.
    w = [np.array([[0.5]]), np.array([[2.0]])]
    b = [np.array([0.1]), np.array([0.0])]
    narrow = pinn.MlpNet([v.copy() for v in w], [v.copy() for v in b], 0.0, 1.0)
    wide = pinn.MlpNet([v.copy() for v in w], [v.copy() for v in b], 0.0, 4.0)
    _, v_narrow = pinn.forward_with_time_derivative(narrow, np.array([0.5]))
    _, v_wide = pinn.forward_with_time_derivative(wide, np.array([2.0]))  # same normalized point
    assert v_narrow[0, 0] == pytest.approx(4.0 * v_wide[0, 0], rel=1e-12)


def _toy_data(model, times, seed=0, missing=()):
    rng = np.random.default_rng(seed)
    values = rng.standard_normal((times.size, model.state_dim))
    mask = tuple(c not in missing for c in range(model.state_dim))
    for c in missing:
        values[:, c] = np.nan
    return ObservationSet(times=times, values=values, mask=mask)


def test_physics_term_zero_at_fixed_point():
    model = get_model("lorenz")
    beta, rho, sigma = 8.0 / 3.0, 28.0, 10.0
    fp = np.array([np.sqrt(beta * (rho - 1)), np.sqrt(beta * (rho - 1)), rho - 1])
    net = pinn.init_mlp([1, 4, 3], 0.0, 2.0, seed=0)
    for w in net.weights:
        w[:] = 0.0
    net.biases[-1][:] = fp
    times = np.linspace(0.0, 2.0, 21)
    data = _toy_data(model, times[::4], seed=1)
    grid = magi.DiscretizationGrid.build(times, data.times)
    loss = pinn.PinnLoss.build(model, data, grid, 10.0, net.widths)
    total, physics, data_term = loss(net, np.array([beta, rho, sigma]))
    assert physics == pytest.approx(0.0, abs=1e-24)
    assert total == pytest.approx(data_term)


def test_lambda_zero_removes_data_influence():
    model = get_model("lorenz")
    net = pinn.init_mlp([1, 6, 3], 0.0, 2.0, seed=2)
    times = np.linspace(0.0, 2.0, 21)
    data = _toy_data(model, times[::4], seed=3)
    grid = magi.DiscretizationGrid.build(times, data.times)
    theta = np.array([2.0, 20.0, 9.0])
    total, physics, data_term = pinn.PinnLoss.build(model, data, grid, 0.0, net.widths)(net, theta)
    assert data_term == 0.0
    assert total == physics


def _flat_gradient_and_fd(model, data, grid, net, theta):
    """The loss's flat gradient and a central difference of it, over every parameter."""
    n_layers = len(net.weights)
    params = list(net.weights) + list(net.biases) + [theta]
    shapes = [p.shape for p in params]
    sizes = [p.size for p in params]

    def unflatten(flat):
        arrs, k = [], 0
        for shape, size in zip(shapes, sizes):
            arrs.append(flat[k:k + size].reshape(shape))
            k += size
        return arrs

    loss = pinn.PinnLoss.build(model, data, grid, 10.0, net.widths)

    def loss_of(flat):
        arrs = unflatten(flat)
        tmp = pinn.MlpNet(weights=arrs[:n_layers], biases=arrs[n_layers:2 * n_layers],
                          t_lo=net.t_lo, t_hi=net.t_hi)
        total, _, _ = loss(tmp, arrs[-1])
        return total

    flat0 = np.concatenate([p.ravel() for p in params])
    grad = np.empty_like(flat0)
    loss(net, theta, grad)
    return grad, central_fd(loss_of, flat0)


@pytest.mark.parametrize("widths", [[1, 3, 3], [1, 4, 4, 3]], ids=["one-hidden", "two-hidden"])
def test_nested_gradient_matches_fd(widths):
    """Gradient of the full loss through dN/dt; two hidden layers reach a hidden-to-hidden layer."""
    model = get_model("lorenz")
    times = np.linspace(0.0, 1.0, 9)
    data = _toy_data(model, times[::2], seed=4)
    grid = magi.DiscretizationGrid.build(times, data.times)
    net = pinn.init_mlp(widths, 0.0, 1.0, seed=5)
    grad, fd = _flat_gradient_and_fd(model, data, grid, net, np.array([2.0, 20.0, 8.0]))
    assert rel_err(grad, fd, floor=1e-4 * max(1.0, np.max(np.abs(fd)))) < 1e-5


def test_nested_gradient_missing_component():
    """The masked data residual feeds the output adjoint: every weight, bias and theta."""
    model = get_model("seir-log")
    times = np.linspace(0.0, 1.0, 9)
    data = _toy_data(model, times[::2], seed=6, missing=(0,))
    grid = magi.DiscretizationGrid.build(times, data.times)
    net = pinn.init_mlp([1, 3, 3], 0.0, 1.0, seed=7)
    grad, fd = _flat_gradient_and_fd(model, data, grid, net, np.array([2.0, 0.2, 0.6]))
    assert np.all(np.isfinite(grad))
    assert rel_err(grad, fd, floor=1e-5) < 1e-5


def test_one_loss_gives_the_same_values_after_other_parameters():
    """train_pinn calls one PinnLoss every epoch, so a call must not depend on the ones before."""
    model = get_model("seir-log")
    times = np.linspace(0.0, 2.0, 21)
    data = _toy_data(model, times[::4], seed=8, missing=(0,))
    grid = magi.DiscretizationGrid.build(times, data.times)
    widths = [1, 20, 20, 3]
    net_a = pinn.init_mlp(widths, 0.0, 2.0, seed=9)
    net_b = pinn.init_mlp(widths, 0.0, 2.0, seed=10)
    theta_a, theta_b = np.array([2.0, 0.2, 0.6]), np.array([1.5, 0.3, 0.4])
    n_params = sum(w.size + b.size for w, b in zip(net_a.weights, net_a.biases)) + theta_a.size

    def evaluate(loss, net, theta):
        grad = np.empty(n_params)
        return loss(net, theta, grad), grad

    def fresh(net, theta):
        return evaluate(pinn.PinnLoss.build(model, data, grid, 10.0, widths), net, theta)

    loss = pinn.PinnLoss.build(model, data, grid, 10.0, widths)
    first, grad_first = evaluate(loss, net_a, theta_a)
    second, grad_second = evaluate(loss, net_b, theta_b)
    again, grad_again = evaluate(loss, net_a, theta_a)
    fresh_a, grad_fresh_a = fresh(net_a, theta_a)
    fresh_b, grad_fresh_b = fresh(net_b, theta_b)
    assert first == again == fresh_a
    assert np.array_equal(grad_again, grad_first)
    assert np.array_equal(grad_fresh_a, grad_first)
    assert second == fresh_b and second != first
    assert np.array_equal(grad_second, grad_fresh_b)


def test_one_loss_follows_each_nets_time_window():
    """The loss writes each net's normalised times and time scale into its input block."""
    model = get_model("seir-log")
    times = np.linspace(0.0, 2.0, 21)
    data = _toy_data(model, times[::4], seed=11, missing=(0,))
    grid = magi.DiscretizationGrid.build(times, data.times)
    widths = [1, 20, 20, 20, 3]
    theta = np.array([2.0, 0.2, 0.6])
    nets = [pinn.init_mlp(widths, t_lo, t_hi, seed=12)
            for t_lo, t_hi in ((0.0, 2.0), (-1.0, 3.0), (0.5, 1.5), (0.0, 2.0))]
    n_params = sum(w.size + b.size for w, b in zip(nets[0].weights, nets[0].biases)) + theta.size

    def evaluate(loss, net):
        grad = np.empty(n_params)
        return loss(net, theta, grad), grad

    loss = pinn.PinnLoss.build(model, data, grid, 10.0, widths)
    for net in nets:
        value, grad = evaluate(loss, net)
        fresh, grad_fresh = evaluate(pinn.PinnLoss.build(model, data, grid, 10.0, widths), net)
        assert value == fresh
        assert np.array_equal(grad, grad_fresh)


def test_loss_call_allocates_no_layer_sized_block():
    """One loss-and-gradient call on the seir-full master grid stays below one (m, width)
    float64 block of temporaries: its layer arrays all live in the loss's sweep."""
    regime = experiments.get_regime("seir-full")
    model = regime.model()
    data = experiments.simulate_dataset(regime, experiments.dataset_seed(0, regime, 0))
    grid = magi.DiscretizationGrid.build(regime.master_times(), data.times)
    widths = [1] + [pinn.HIDDEN_WIDTH] * 3 + [model.state_dim]
    net = pinn.init_mlp(widths, float(data.times[0]), float(data.times[-1]), seed=0)
    loss = pinn.PinnLoss.build(model, data, grid, 10.0, widths)
    theta = np.array([2.0, 0.2, 0.6])
    grad = np.empty(sum(w.size + b.size for w, b in zip(net.weights, net.biases)) + theta.size)
    loss(net, theta, grad)
    tracemalloc.start()
    try:
        loss(net, theta, grad)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert grid.times.size == 321
    assert peak < grid.times.size * pinn.HIDDEN_WIDTH * 8


def test_train_linear_ode_recovers_theta():
    decay = OdeModel(
        name="decay-1d",
        state_dim=1,
        param_dim=1,
        component_names=("x",),
        param_names=("theta",),
        rhs=lambda x, th, t: -th[0] * x,
        vjp=lambda x, th, t, w: (-th[0] * w, np.array([-np.sum(w * x)])),
        jac_param=lambda x, th, t: -np.asarray(x)[..., None],
        positive_params=(True,),
        theta_box=((1e-6, 100.0),),
        log_states=False,
        oscillatory=False,
    )
    theta_true = 0.8
    times = magi.uniform_grid(0.0, 3.0, 61)
    truth = 2.0 * np.exp(-theta_true * times)[:, None]
    data = ObservationSet(times=times[::2], values=truth[::2], mask=(True,))
    grid = magi.DiscretizationGrid.build(times, data.times)
    cfg = pinn.PinnConfig(lam=10.0, epochs=12000, seed=1)
    out = pinn.train_pinn(cfg, decay, data, grid)
    assert abs(out.theta_hat[0] - theta_true) / theta_true < 0.05


def test_train_determinism():
    model = get_model("lorenz")
    times = np.linspace(0.0, 1.0, 11)
    data = _toy_data(model, times[::2], seed=8)
    grid = magi.DiscretizationGrid.build(times, data.times)
    cfg = pinn.PinnConfig(lam=1.0, epochs=300, seed=11)
    a = pinn.train_pinn(cfg, model, data, grid)
    b = pinn.train_pinn(cfg, model, data, grid)
    for wa, wb in zip(a.net.weights, b.net.weights):
        assert np.array_equal(wa, wb)
    assert np.array_equal(a.theta_hat, b.theta_hat)
    assert np.array_equal(a.history, b.history)


def test_seeded_training_pinned():
    # Values recorded from an earlier commit.  A refactor that claims to
    # leave training unchanged must keep them.
    model = get_model("lorenz")
    times = np.linspace(0.0, 1.0, 11)
    data = _toy_data(model, times[::2], seed=8)
    grid = magi.DiscretizationGrid.build(times, data.times)
    cfg = pinn.PinnConfig(lam=1.0, epochs=300, seed=11)
    out = pinn.train_pinn(cfg, model, data, grid)
    np.testing.assert_allclose(
        out.theta_hat, [3.484473059037511, 4.120800719700272, 0.09074901351117996], rtol=1e-12)
    assert out.history[-1, 3] == pytest.approx(3.033183085637171, rel=1e-12)
    assert out.net.weights[-1][0, 0] == pytest.approx(0.06400155725771647, rel=1e-12)


def test_seeded_training_pinned_four_hidden_missing_component():
    # The same kind of pin on four hidden layers, with logE unobserved so
    # the masked data residual feeds every epoch's gradient.
    model = get_model("seir-log")
    times = np.linspace(0.0, 1.0, 11)
    data = _toy_data(model, times[::2], seed=12, missing=(0,))
    grid = magi.DiscretizationGrid.build(times, data.times)
    cfg = pinn.PinnConfig(lam=10.0, epochs=300, n_hidden=4, seed=13)
    out = pinn.train_pinn(cfg, model, data, grid)
    assert out.skipped_steps == 0
    np.testing.assert_allclose(
        out.theta_hat, [0.41378530545407766, 0.25405140887930855, 0.3606563481090411], rtol=1e-12)
    assert out.history[-1, 3] == pytest.approx(13.45253689981467, rel=1e-12)
    assert out.net.weights[-1][0, 0] == pytest.approx(0.44801137628503834, rel=1e-12)
    assert out.net.weights[0][5, 0] == pytest.approx(0.4187691165146981, rel=1e-12)
    assert out.net.biases[1][3] == pytest.approx(-0.05324110971410335, rel=1e-12)


def test_history_decomposition_identity():
    model = get_model("lorenz")
    times = np.linspace(0.0, 1.0, 11)
    data = _toy_data(model, times[::2], seed=9)
    grid = magi.DiscretizationGrid.build(times, data.times)
    cfg = pinn.PinnConfig(lam=10.0, epochs=400, seed=2)
    out = pinn.train_pinn(cfg, model, data, grid)
    assert out.history.shape[0] >= 5
    for epoch, physics, data_term, total in out.history:
        assert total == pytest.approx(physics + data_term, rel=1e-12)


def _nan_model(rhs_calls=None):
    """A one-state model whose right-hand side is NaN everywhere.

    Each rhs call appends to ``rhs_calls`` when a list is given."""
    def rhs(x, th, t):
        if rhs_calls is not None:
            rhs_calls.append(1)
        return np.full_like(np.asarray(x, dtype=float), np.nan)

    return OdeModel(
        name="nan-model",
        state_dim=1,
        param_dim=1,
        component_names=("x",),
        param_names=("a",),
        rhs=rhs,
        vjp=lambda x, th, t, w: (np.zeros(np.shape(x)), np.zeros(1)),
        jac_param=lambda x, th, t: np.zeros(np.shape(x)[:-1] + (1, 1)),
        positive_params=(True,),
        theta_box=((1e-6, 100.0),),
        log_states=False,
        oscillatory=False,
    )


def _nan_model_problem():
    times = np.linspace(0.0, 1.0, 9)
    data = ObservationSet(times=times[::2], values=np.ones((5, 1)), mask=(True,))
    grid = magi.DiscretizationGrid.build(times, data.times)
    cfg = pinn.PinnConfig(lam=1.0, epochs=120, seed=0)
    return data, grid, cfg


def test_unstable_run_flagged():
    data, grid, cfg = _nan_model_problem()
    with pytest.warns(UserWarning):
        out = pinn.train_pinn(cfg, _nan_model(), data, grid)
    assert "unstable-training" in out.flags
    assert out.skipped_steps == 120


def test_non_finite_step_stops_training():
    # A skipped step changes neither the parameters nor Adam's state, so
    # every later epoch would be non-finite too: training runs one epoch,
    # then evaluates the final loss.
    calls = []
    data, grid, cfg = _nan_model_problem()
    with pytest.warns(UserWarning, match="120 of 120 steps skipped"):
        out = pinn.train_pinn(cfg, _nan_model(calls), data, grid)
    assert len(calls) == 2
    assert out.skipped_steps == 120
    assert out.history.shape[0] == 1  # the final loss only


def test_config_validation():
    with pytest.raises(ValueError):
        pinn.PinnConfig(lam=0.0)
    with pytest.raises(ValueError):
        pinn.PinnConfig(epochs=0)
    with pytest.raises(ValueError):
        pinn.PinnConfig(n_hidden=5)


def test_network_json_roundtrip(tmp_path):
    net = pinn.init_mlp([1, 20, 20, 20, 3], 0.0, 6.0, seed=4)
    net.biases[1][:] = np.linspace(-1.0, 1.0, 20)
    path = tmp_path / "net.json"
    net.to_json(path)
    with open(path) as fh:
        payload = json.load(fh)
    assert payload["widths"] == [1, 20, 20, 20, 3]
    assert payload["t_lo"] == 0.0 and payload["t_hi"] == 6.0
    for w, saved in zip(net.weights, payload["weights"], strict=True):
        assert np.array_equal(w, np.array(saved).reshape(w.shape))
    for b, saved in zip(net.biases, payload["biases"], strict=True):
        assert np.array_equal(b, np.array(saved))


def test_history_csv(tmp_path):
    model = get_model("lorenz")
    times = np.linspace(0.0, 1.0, 9)
    data = _toy_data(model, times[::2], seed=10)
    grid = magi.DiscretizationGrid.build(times, data.times)
    cfg = pinn.PinnConfig(lam=1.0, epochs=100, seed=3)
    out = pinn.train_pinn(cfg, model, data, grid)
    path = tmp_path / "loss.csv"
    out.history_to_csv(path)
    lines = path.read_text().splitlines()
    assert lines[0] == "epoch,physics,data,total"
    assert len(lines) == out.history.shape[0] + 1
