import tracemalloc

import numpy as np
import pytest

from odebench.optim import Adam


def test_first_step_moves_by_lr_times_sign():
    # After one step m_hat = g and v_hat = g^2, so p moves by lr g / (|g| + eps).
    g = np.array([0.3, -2.0, 1e-3, -7.5])
    p0 = np.array([1.0, -1.0, 0.5, 2.0])
    p = p0.copy()
    adam = Adam(p, lr=0.05)
    adam.step(p, g)
    np.testing.assert_allclose(p, p0 - 0.05 * g / (np.abs(g) + 1e-8), rtol=1e-15)


def test_second_step_matches_bias_corrected_closed_form():
    lr, b1, b2, eps = 0.01, 0.9, 0.999, 1e-8
    g1 = np.array([0.5, -1.0, 2.0])
    g2 = np.array([-0.25, 3.0, 2.0])
    p0 = np.array([0.1, 0.2, 0.3])
    p = p0.copy()
    adam = Adam(p, lr=lr)
    adam.step(p, g1)
    adam.step(p, g2)

    def update(m, v, t):
        return lr * (m / (1 - b1 ** t)) / (np.sqrt(v / (1 - b2 ** t)) + eps)

    m1, v1 = (1 - b1) * g1, (1 - b2) * g1 ** 2
    m2, v2 = b1 * m1 + (1 - b1) * g2, b2 * v1 + (1 - b2) * g2 ** 2
    want = p0 - update(m1, v1, 1) - update(m2, v2, 2)
    np.testing.assert_allclose(p, want, rtol=1e-14)


def test_zero_gradient_leaves_parameters_unchanged():
    p0 = np.array([1.5, -0.5, 0.0])
    p = p0.copy()
    adam = Adam(p, lr=0.01)
    for _ in range(3):
        adam.step(p, np.zeros(3))
    assert np.array_equal(p, p0)


def test_step_updates_the_given_array_in_place():
    p = np.array([[1.0, 2.0], [3.0, 4.0]])
    view = p[1]
    adam = Adam(p, lr=0.1)
    before = p.copy()
    assert adam.step(p, np.ones_like(p)) is None
    assert not np.array_equal(p, before)
    np.testing.assert_allclose(p, before - 0.1 / (1.0 + 1e-8), rtol=1e-15)
    # Views into the array see the update.
    assert view[0] == pytest.approx(3.0 - 0.1 / (1.0 + 1e-8), rel=1e-15)


def test_step_allocates_no_parameter_sized_array():
    # The PINN's parameter count; the moments' temporaries live in preallocated buffers.
    rng = np.random.default_rng(0)
    p, g = rng.standard_normal(946), rng.standard_normal(946)
    adam = Adam(p, lr=1e-3)
    adam.step(p, g)
    tracemalloc.start()
    try:
        adam.step(p, g)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < p.nbytes
