from functools import partial

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.linalg import expm

from bilqr import numkit
from bilqr.model import bilinear_field, bilinear_generator, bilinear_generators
from bilqr.numkit import (
    BlowupError,
    GriddedTrajectory,
    TimeGrid,
    TransitionInversionError,
    alpha_norm,
    integrate_forward,
    linear_sweep,
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


# steps of a 6-state sweep that span two map blocks and part of a third
_BLOCK_CROSSING_STEPS = 2 * (numkit._MID_BLOCK_BYTES // (8 * 7 * 7)) + 3


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 6), steps=st.integers(2, 40),
       f_scale=st.sampled_from((1.0, 1e6)), y_scale=st.sampled_from((1.0, 1e3)))
@example(seed=11, n=6, steps=_BLOCK_CROSSING_STEPS, f_scale=1.0, y_scale=1.0)
@example(seed=12, n=numkit.STEP_MAPS_MAX_N + 1, steps=9, f_scale=1.0, y_scale=1.0)  # rk4_sweep
@example(seed=13, n=6, steps=30, f_scale=1e6, y_scale=1e3)  # forcing far above L y
def test_linear_sweep_matches_the_stage_sweep(seed, n, steps, f_scale, y_scale):
    # the step maps reproduce four stage evaluations per step of the same
    # affine right-hand side, on a vector and on a stack of rows.  Their L'
    # is rhs(e_j) - rhs(0), which carries the forcing's round-off eps |f|;
    # each step multiplies it by |y|, so over the unit interval the maps
    # may add up to eps |f| |y| (measured below 0.15 of it)
    rng = np.random.default_rng(seed)
    g = TimeGrid(0.0, 1.0, steps)
    L_n, L_m = rng.normal(size=(steps + 1, n, n)), rng.normal(size=(steps, n, n))
    f_n = f_scale * rng.normal(size=(steps + 1, 1, n))
    f_m = f_scale * rng.normal(size=(steps, 1, n))

    def rhs(v, L, f):
        return v @ L.swapaxes(-1, -2) + f

    f_max = max(np.max(np.abs(f_n)), np.max(np.abs(f_m)))
    for y in (y_scale * rng.normal(size=n), y_scale * rng.normal(size=(3, n))):
        for backward in (False, True):
            args = (y, g, (L_n, f_n), (L_m, f_m), backward)
            maps, stages = linear_sweep(rhs, *args).values, rk4_sweep(rhs, *args).values
            assert maps.shape == stages.shape == (steps + 1,) + y.shape
            if n > numkit.STEP_MAPS_MAX_N:
                assert np.array_equal(maps, stages)
            y_max = np.max(np.abs(stages))
            tol = 1e-12 * y_max + np.finfo(float).eps * f_max * y_max
            assert np.max(np.abs(maps - stages)) <= tol


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), q=st.integers(1, 4), rows=st.integers(1, 3),
       b=st.integers(1, 3), steps=st.integers(2, 40), backward=st.booleans())
@example(seed=14, q=3, rows=2, b=numkit.STEP_MAPS_MAX_N + 1, steps=9, backward=False)
@example(seed=15, q=4, rows=1, b=3, steps=_BLOCK_CROSSING_STEPS, backward=True)
def test_linear_sweep_steps_each_system_alone(seed, q, rows, b, steps, backward):
    # y (q, rows, b) holds q independent systems, each under its own
    # coefficients: the same as q separate stage sweeps, within the bound
    # of the single-system property above; above STEP_MAPS_MAX_N states per
    # system, the same numbers
    rng = np.random.default_rng(seed)
    g = TimeGrid(0.0, 1.0, steps)
    L_n, L_m = rng.normal(size=(steps + 1, q, b, b)), rng.normal(size=(steps, q, b, b))
    f_n, f_m = rng.normal(size=(steps + 1, q, 1, b)), rng.normal(size=(steps, q, 1, b))
    y = rng.normal(size=(q, rows, b))

    def rhs(v, L, f):
        return v @ L.swapaxes(-1, -2) + f

    maps = linear_sweep(rhs, y, g, (L_n, f_n), (L_m, f_m), backward).values
    assert maps.shape == (steps + 1,) + y.shape
    f_max = max(np.max(np.abs(f_n)), np.max(np.abs(f_m)))
    for s in range(q):
        alone = rk4_sweep(rhs, y[s], g, (L_n[:, s], f_n[:, s]), (L_m[:, s], f_m[:, s]),
                          backward).values
        if b > numkit.STEP_MAPS_MAX_N:
            assert np.array_equal(maps[:, s], alone)
        y_max = np.max(np.abs(alone))
        tol = 1e-12 * y_max + np.finfo(float).eps * f_max * y_max
        assert np.max(np.abs(maps[:, s] - alone)) <= tol


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 4), steps=st.integers(2, 12),
       backward=st.booleans(), array_h=st.booleans())
def test_step_maps_equal_the_rk4_step_from_the_identity(seed, n, steps, backward, array_h):
    # step_maps takes the first stage I Z as Z itself; the maps must equal
    # rk4_step(np.matmul, I, ...) of the same generators to the bit.  The
    # rhs sums its products from the first one, not from +0, so a zero of
    # either sign reaches the generators; column 1 of their row 0 is always
    # -0, where I Z holds +0
    rng = np.random.default_rng(seed)

    def signed(shape):
        x = rng.normal(size=shape)
        x[rng.random(shape) < 0.25] = 0.0
        x[rng.random(shape) < 0.25] = -0.0
        return x

    L_n, L_m = signed((steps + 1, 1, n, n)), signed((steps, 1, n, n))
    f_n, f_m = signed((steps + 1, 1, n)), signed((steps, 1, n))
    for L, f in ((L_n, f_n), (L_m, f_m)):
        L[..., 0] = -np.abs(L[..., 0])
        f[..., 0] = -0.0
    h = rng.uniform(0.01, 0.2, size=(steps, 1, 1)) if array_h else 0.1

    def rhs(v, L, f):
        out = v[..., :1] * L[..., 0, :]
        for k in range(1, n):
            out = out + v[..., k:k + 1] * L[..., k, :]
        return out + f

    calls = []
    rk4_step = numkit.rk4_step

    def spy(*args):
        calls.append(args)
        return rk4_step(*args)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(numkit, "rk4_step", spy)
        maps = numkit.step_maps(rhs, n, h, (L_n, f_n), (L_m, f_m), backward)
    (_, eye, h_used, start, mid, end), = calls
    assert np.array_equal(eye, np.eye(n + 1))
    assert np.all(np.signbit(start[0][:, 0, 1])) and np.all(start[0][:, 0, 1] == 0.0)
    want = rk4_step(np.matmul, eye, h_used, start, mid, end)
    assert maps.shape == (steps, n + 1, n + 1)
    assert maps.tobytes() == want.tobytes()


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), S=st.integers(1, 4), b=st.integers(1, 5),
       m=st.integers(1, 3), steps=st.integers(1, 6), backward=st.booleans(),
       per_row=st.booleans(), affine=st.booleans())
def test_bilinear_generator_maps_equal_the_probed_maps(seed, S, b, m, steps, backward, per_row,
                                                       affine):
    # bilinear_field brings its generator, which step_maps reads; wrapped in
    # a plain function the same field is probed.  Controls are shared by the
    # samples, or one row per sample gathered from the stack as the Poisson
    # composite maps gather a group's sample.  The maps agree to round-off,
    # and to the bit without B and g, where the probe's rhs(e_j) - rhs(0)
    # is exact
    rng = np.random.default_rng(seed)
    A, Bs = rng.normal(size=(S, b, b)), rng.normal(size=(S, m, b, b))
    B, g = rng.normal(size=(S, b, m)), rng.normal(size=(S, b))
    if not affine:
        B, g = 0.0 * B, 0.0 * g
    h = rng.uniform(0.01, 0.3)
    if per_row:
        rows = rng.integers(0, S, size=rng.integers(1, 7))
        U, Um = (rng.normal(size=(k, rows.size, 1, m)) for k in (steps + 1, steps))
        field = bilinear_field(A[rows], B[rows], Bs[rows], g[rows])
        gathered = partial(bilinear_generator, bilinear_generators(A, B, Bs, g)[:, rows])
        maps = numkit.generator_maps(gathered, h, (U,), (Um,), backward)
        assert maps.tobytes() == numkit.step_maps(field, b, h, (U,), (Um,), backward).tobytes()
    else:
        U, Um = rng.normal(size=(steps + 1, 1, 1, m)), rng.normal(size=(steps, 1, 1, m))
        field = bilinear_field(A, B, Bs, g)
        maps = numkit.step_maps(field, b, h, (U,), (Um,), backward)
    probed = numkit.step_maps(lambda Y, u: field(Y, u), b, h, (U,), (Um,), backward)
    assert maps.shape == probed.shape == (steps, len(U[0]) if per_row else S, b + 1, b + 1)
    if affine:
        assert np.max(np.abs(maps - probed)) <= 1e-13 * np.max(np.abs(probed))
    else:
        assert maps.tobytes() == probed.tobytes()


@pytest.mark.parametrize("n", [1, numkit.STEP_MAPS_MAX_N + 1])
def test_linear_sweep_refuses_a_vector_table_without_its_row_axis(n):
    # a (steps + 1, n) table would broadcast against the stacked probe rows
    g = TimeGrid(0.0, 1.0, 4)
    f = np.ones((5, n))
    with pytest.raises(ValueError, match=r"\(steps \+ 1, 1, n\)"):
        linear_sweep(lambda v, f: v + f, np.zeros(n), g, (f,), (None,))
    rows = linear_sweep(lambda v, f: v + f, np.zeros(n), g, (f[:, None],), (None,))
    stages = rk4_sweep(lambda v, f: v + f, np.zeros(n), g, (f,), (None,))
    assert np.allclose(rows.values, stages.values, rtol=1e-14)
    # each axis of systems needs one more: (steps + 1, 1, n) would meet the
    # probe rows of 2 systems with its steps on their systems axis
    with pytest.raises(ValueError, match="one per axis of systems"):
        linear_sweep(lambda v, f: v + f, np.zeros((2, 1, n)), g, (f[:, None],), (None,))
    # every linear sweep steps one map per step of its stage tables; only
    # rk4_sweep takes a right-hand side without tables
    with pytest.raises(ValueError, match="takes stage tables"):
        linear_sweep(lambda v: v, np.zeros(n), g, (), ())


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


def test_transition_inversion_failure_names_the_first_failing_index():
    # nodes past t = 0.37 exceed the condition limit; the error names the
    # first of them in the order the indices are given
    g = TimeGrid(0.0, 1.0, 200)
    with pytest.raises(TransitionInversionError, match="node 200"):
        transition_norms(np.tile(np.diag([40.0, -40.0]), (201, 1, 1)), g, [0, 200, 150])


@pytest.mark.parametrize("n, steps", [(4, 30), (numkit.STEP_MAPS_MAX_N + 1, 12)])
def test_transition_norms_of_stacked_systems_equal_each_systems_table(n, steps):
    # an axis of independent systems gives each system's own table to the
    # last bit, on the step-map path and on the stage path
    rng = np.random.default_rng(n)
    g = TimeGrid(0.0, 0.5, steps)
    A = rng.normal(size=(steps + 1, 2, 3, n, n))
    idx = [0, steps // 3, steps // 2, steps]
    tables = transition_norms(A, g, idx)
    assert tables.shape == (2, 3, 4, 4)
    for i in range(2):
        for j in range(3):
            assert np.array_equal(tables[i, j], transition_norms(A[:, i, j], g, idx))


def test_transition_inversion_failure_names_the_first_failing_system():
    # systems 1 and 2 of three are numerically singular past t = 0.37; the
    # error names system 1 and its first failing index in the order given
    g = TimeGrid(0.0, 1.0, 200)
    A = np.zeros((201, 3, 2, 2))
    A[:, 1:] = np.diag([40.0, -40.0])
    with pytest.raises(TransitionInversionError, match="node 200") as exc:
        transition_norms(A, g, [0, 200, 150, 100])
    assert exc.value.system == 1


def symmetric_draws(rng, shape):
    """Random matrices (..., n, n), exactly symmetric."""
    M = rng.normal(size=shape)
    return M + M.swapaxes(-1, -2)


def replayed(table):
    """A right-hand side of one stage table whose stages are the table's
    rows, with the in-place form `rk4_sweep` steps on its stage stack."""
    def rhs(y, S):
        return S.copy()

    def into(out, y, S):
        out[...] = S

    rhs.into = into
    return rhs


def test_stage_stack_weighted_product_of_symmetric_stages_is_symmetric():
    # the stack sweep adds np.dot((h / 6)(1, 2, 2, 1), stack.reshape(4, -1))
    # to K; the affine sweep reads s' K as K s, so the product of exactly
    # symmetric stages must be exactly symmetric, wherever BLAS's kernels
    # split its columns and whatever the buffers' alignment
    rng = np.random.default_rng(30)
    for n in range(1, 65):
        weights = (-0.0123 / 6.0) * np.array([1.0, 2.0, 2.0, 1.0])
        for offset in (0, 8):
            raw = np.empty(4 * n * n * 8 + 8 + 64, dtype=np.uint8)
            start = (-raw.ctypes.data) % 64 + offset
            stack = raw[start:start + 4 * n * n * 8].view(float).reshape(4, n, n)
            raw_out = np.empty(n * n * 8 + 8 + 64, dtype=np.uint8)
            start = (-raw_out.ctypes.data) % 64 + offset
            increment = raw_out[start:start + n * n * 8].view(float)
            for _ in range(5):
                stack[...] = symmetric_draws(rng, (4, n, n))
                np.dot(weights, stack.reshape(4, -1), out=increment)
                step = increment.reshape(n, n)
                assert np.array_equal(step, step.T), (n, offset)


def test_stage_stack_sweep_keeps_symmetric_stages_symmetric():
    # the same through rk4_sweep's stack steps, which write each new y into
    # its row of the table, backward and forward
    rng = np.random.default_rng(31)
    for n in range(1, 65):
        grid = TimeGrid(0.0, 1.0, 3)
        nodes, mids = symmetric_draws(rng, (4, n, n)), symmetric_draws(rng, (3, n, n))
        for backward in (True, False):
            K = rk4_sweep(replayed(nodes), np.eye(n), grid, (nodes,), (mids,), backward).values
            assert np.array_equal(K, K.swapaxes(1, 2)), (n, backward)


@pytest.mark.parametrize("backward", [False, True])
def test_stage_stack_sweep_is_the_rk4_sweep_up_to_round_off(backward):
    # a right-hand side of one table with an in-place form steps on the stage
    # stack up to _STAGE_STACK_BYTES, where only the stages' weighted sum
    # rounds otherwise, and takes the allocating stages above it, to the bit
    rng = np.random.default_rng(32)
    calls = []

    def field(y, B):
        return y @ B - 0.1 * y * y

    def into(out, y, B):
        calls.append(B.shape)
        np.matmul(y, B, out=out)
        out -= 0.1 * y * y

    stacked = partial(field)
    stacked.into = into
    for n in (3, 12, 181, 182):
        grid = TimeGrid(0.0, 0.2, 6)
        B = 0.3 * rng.normal(size=(grid.steps + 1, n, n)) / np.sqrt(n)
        y0 = rng.normal(size=(n, n))
        calls.clear()
        got = rk4_sweep(stacked, y0, grid, (B,), (midpoints(B),), backward).values
        want = rk4_sweep(field, y0, grid, (B,), (midpoints(B),), backward).values
        if 4 * y0.nbytes <= numkit._STAGE_STACK_BYTES:
            assert calls == [(n, n)] * 4 * grid.steps
            assert np.max(np.abs(got - want)) <= 1e-14 * np.max(np.abs(want))
        else:
            assert n == 182 and calls == []
            assert np.array_equal(got, want)


def test_stage_stack_sweep_names_the_first_non_finite_node():
    # stages infinite from node 37 on (forward) or up to node 36 (backward)
    grid = TimeGrid(0.0, 1.0, 100)
    for backward, node in ((False, 37), (True, 36)):
        table = np.zeros((101, 2, 2))
        (table[:37] if backward else table[37:])[...] = np.inf
        with pytest.raises(BlowupError) as exc:
            rk4_sweep(replayed(table), np.eye(2), grid, (table,), (table[1:],), backward)
        assert exc.value.node_index == node
