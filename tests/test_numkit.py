import numpy as np
import pytest
from scipy.linalg import expm

from bilqr.numkit import (
    BlowupError,
    GriddedTrajectory,
    TimeGrid,
    TransitionInversionError,
    alpha_norm,
    integrate_forward,
    mat_norm,
    midpoints,
    rk4_sweep,
    spectral_radius,
    transition_norms,
    vec_norm,
)


def test_grid_validation():
    with pytest.raises(ValueError):
        TimeGrid(0.0, 0.0, 10)
    with pytest.raises(ValueError):
        TimeGrid(0.0, 1.0, 1)
    g = TimeGrid(0.0, 2.0, 4)
    assert g.h == 0.5
    np.testing.assert_allclose(g.nodes, [0.0, 0.5, 1.0, 1.5, 2.0])


def test_trajectory_shape_checked():
    g = TimeGrid(0.0, 1.0, 4)
    with pytest.raises(ValueError):
        GriddedTrajectory(g, np.zeros((4, 2)))


def test_forward_zero_field_is_constant():
    g = TimeGrid(0.0, 1.0, 10)
    v = np.array([1.0, -2.0])
    traj = integrate_forward(lambda t, y: np.zeros_like(y), v, g)
    assert np.all(traj.values == v)


def test_forward_exponential_decay():
    g = TimeGrid(0.0, 1.0, 1000)
    traj = integrate_forward(lambda t, y: -y, np.array([1.0]), g)
    assert abs(traj.values[-1, 0] - np.exp(-1.0)) < 1e-10


def test_forward_skew_field_preserves_norm():
    rng = np.random.default_rng(3)
    W = rng.normal(size=(3, 3))
    A = W - W.T
    y0 = rng.normal(size=3)
    g = TimeGrid(0.0, 1.0, 1000)
    traj = integrate_forward(lambda t, y: A @ y, y0, g)
    norms = np.linalg.norm(traj.values, axis=1)
    assert np.max(np.abs(norms - np.linalg.norm(y0))) < 1e-8


def test_rk4_order_exponent():
    # y' = -y + sin(t), closed form against halved step sizes
    def field(t, y):
        return -y + np.sin(t)

    def exact(t):
        return 1.5 * np.exp(-t) + 0.5 * (np.sin(t) - np.cos(t))

    errs = []
    for steps in (100, 200):
        g = TimeGrid(0.0, 1.0, steps)
        traj = integrate_forward(field, np.array([1.0]), g)
        errs.append(np.max(np.abs(traj.values[:, 0] - exact(g.nodes))))
    exponent = np.log2(errs[0] / errs[1])
    assert 3.7 <= exponent <= 4.3


def test_forward_blowup_reports_node():
    g = TimeGrid(0.0, 1.0, 100)
    with pytest.raises(BlowupError) as exc:
        integrate_forward(lambda t, y: y**3, np.array([50.0]), g)
    assert exc.value.node_index == 2


def test_backward_zero_field_is_constant():
    g = TimeGrid(0.0, 1.0, 8)
    M = np.array([[1.0, 2.0], [3.0, 4.0]])
    traj = rk4_sweep(lambda y: np.zeros_like(y), M, g, backward=True)
    assert np.all(traj.values == M)
    assert np.all(traj.values[-1] == M)


def test_backward_scalar_riccati_closed_form():
    # K' = K^2 with K(1) = 1 has K(t) = 1/(2 - t)
    g = TimeGrid(0.0, 1.0, 1000)
    traj = rk4_sweep(lambda y: y**2, np.array(1.0), g, backward=True)
    assert abs(traj.values[0] - 0.5) < 1e-8


def test_backward_of_forward_identity():
    def A(t):
        return np.array([[0.0, 1.0 + 0.1 * t], [-1.0, -0.5]])

    g = TimeGrid(0.0, 2.0, 800)
    y0 = np.array([0.7, -0.3])
    fwd = integrate_forward(lambda t, y: A(t) @ y, y0, g)
    A_nodes = np.stack([A(t) for t in g.nodes])
    A_mids = np.stack([A(t) for t in midpoints(g.nodes)])
    back = rk4_sweep(lambda y, At: At @ y, fwd.values[-1], g, (A_nodes,), (A_mids,),
                     backward=True)
    assert np.max(np.abs(back.values[0] - y0)) < 1e-8


def test_interp_exact_at_nodes_and_midpoints():
    g = TimeGrid(0.0, 1.0, 4)
    traj = GriddedTrajectory(g, np.arange(5, dtype=float).reshape(5, 1))
    assert traj.at(0.5)[0] == 2.0
    assert traj.at(0.375)[0] == 1.5  # midpoint of nodes 1 and 2
    with pytest.raises(ValueError):
        traj.at(1.5)


def test_interp_reproduces_linear_trajectory():
    g = TimeGrid(0.0, 2.0, 20)
    slope = np.array([1.0, -2.0])
    traj = GriddedTrajectory(g, np.outer(g.nodes, slope))
    for t in (0.0, 0.123, 1.57, 2.0):
        np.testing.assert_allclose(traj.at(t), slope * t, atol=1e-14)


def test_interp_vectorized_times():
    g = TimeGrid(0.0, 1.0, 10)
    traj = GriddedTrajectory(g, g.nodes.reshape(-1, 1) ** 1)
    ts = np.array([0.0, 0.05, 0.51, 1.0])
    np.testing.assert_allclose(traj.at(ts)[:, 0], ts, atol=1e-14)


def test_vec_norm_and_mat_norm():
    assert vec_norm(np.array([1.0, -2.0, 3.0])) == 6.0
    assert mat_norm(np.eye(4)) == 1.0
    # column sums of [[1,-4],[2,0]] are 3 and 4
    assert mat_norm(np.array([[1.0, -4.0], [2.0, 0.0]])) == 4.0
    assert mat_norm(np.array([[1.0, 2.0], [-4.0, 0.0]])) == 5.0


def test_alpha_norm_reduces_to_sup_at_zero():
    g = TimeGrid(0.0, 1.0, 4)
    traj = GriddedTrajectory(g, np.array([[1.0], [2.0], [-5.0], [0.0], [1.0]]))
    assert alpha_norm(traj, 0.0, "forward") == 5.0
    assert alpha_norm(traj, 0.0, "backward") == 5.0


def test_alpha_norm_constant_forward():
    g = TimeGrid(0.0, 1.0, 4)
    c = np.array([2.0, 1.0])
    traj = GriddedTrajectory(g, np.tile(c, (5, 1)))
    assert alpha_norm(traj, 3.0, "forward") == vec_norm(c)


def test_alpha_norm_exponential_weights_cancel():
    alpha = 1.7
    g = TimeGrid(0.0, 1.0, 10)
    v = np.array([1.0, 2.0])
    traj = GriddedTrajectory(g, np.exp(alpha * g.nodes)[:, None] * v)
    vals = alpha_norm(traj, alpha, "forward")
    assert abs(vals - vec_norm(v)) < 1e-12


def test_transition_identity_for_zero_field():
    g = TimeGrid(0.0, 1.0, 50)
    norms = transition_norms(np.zeros((51, 2, 2)), g, [0, 10, 30, 50])
    np.testing.assert_allclose(norms, np.ones((4, 4)), atol=1e-12)


def test_transition_constant_scalar_exponential():
    a = -0.7
    g = TimeGrid(0.0, 2.0, 400)
    idx = np.array([0, 100, 200, 350, 399])
    norms = transition_norms(np.full((401, 1, 1), a), g, idx)
    expected = np.exp(a * (g.nodes[idx][:, None] - g.nodes[idx][None, :]))
    assert np.max(np.abs(norms - expected)) < 1e-8


def test_transition_norm_table_matches_pairs():
    # a constant A gives Phi(t_a, t_b) = expm(A (t_a - t_b)) in both directions
    A = np.array([[0.0, 1.0], [-1.0, -0.2]])
    g = TimeGrid(0.0, 1.0, 100)
    idx = np.array([0, 25, 50, 75, 100])
    norms = transition_norms(np.tile(A, (101, 1, 1)), g, idx)
    for a, ia in enumerate(idx):
        for b, ib in enumerate(idx):
            expected = mat_norm(expm(A * (g.nodes[ia] - g.nodes[ib])))
            assert abs(norms[a, b] - expected) < 1e-8


def test_spectral_radius_values():
    assert spectral_radius(np.eye(3)) == pytest.approx(1.0)
    assert spectral_radius(np.diag([0.2, -0.9])) == pytest.approx(0.9)
    assert spectral_radius(np.array([[0.0, 1.0], [-0.25, 0.0]])) == pytest.approx(0.5, abs=1e-10)


def test_transition_inversion_failure_detected():
    # strongly separated scales make the base transition numerically singular
    g = TimeGrid(0.0, 1.0, 200)
    with pytest.raises(TransitionInversionError, match="node 200"):
        transition_norms(np.tile(np.diag([40.0, -40.0]), (201, 1, 1)), g, [0, 200])
