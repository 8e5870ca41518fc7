import dataclasses
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.integrate import solve_ivp

from bilqr.model import BilinearProblem, bilinear_factors, diagonal_blocks, input_gain
from bilqr.numkit import (STEP_MAPS_MAX_N, BlowupError, GriddedTrajectory, TimeGrid, midpoints,
                          rk4_sweep)
from bilqr.solver import (
    RiccatiEscapeError,
    SolveOptions,
    _initial_state,
    affine_sweep,
    closed_loop_forward,
    evaluate_cost,
    freeze_iteration_fields,
    iterate_once,
    reconstruct_control,
    riccati_sweep,
    simulate_bilinear,
    solve,
)


def const_fields(A, W, grid, q=1):
    """Drift blocks and gram-factor stage tables of a constant A, block-diagonal
    in q blocks, and O = W W'."""
    W = np.asarray(W, dtype=float)
    T = grid.steps
    return (diagonal_blocks(A, q), np.broadcast_to(W, (T + 1,) + W.shape),
            np.broadcast_to(W, (T,) + W.shape))


def make_linear_problem():
    return BilinearProblem(
        A=[[0.0, 1.0], [-2.0, -3.0]],
        B=[[0.0], [1.0]],
        Blist=(np.zeros((2, 2)),),
        g=[0.5, -0.2],
        x0=[1.0, 0.0],
        xd=[0.3, -0.1],
        tf=2.0,
        R=[[2.0]],
    )


def scalar_iaf_problem(weight=1.0):
    return BilinearProblem(
        A=[[-1.25]], B=[[2.0]], Blist=([[-2.0]],), g=[0.3],
        x0=[0.0], xd=[0.5], tf=10.0, R=[[5.0]], terminal_weight=weight,
    )


def reference_affine_lqr(prob, nodes):
    """Independent affine-LQR reference via adaptive scipy integration."""
    A, B, g, x0, xd = prob.A, prob.B, prob.g, prob.x0, prob.xd
    w, tf = prob.terminal_weight, prob.tf
    n = prob.n
    Rinv = np.linalg.inv(prob.R)
    S = B @ Rinv @ B.T

    def kdot(t, kflat):
        K = kflat.reshape(n, n)
        return (-K @ A - A.T @ K + K @ S @ K).ravel()

    solK = solve_ivp(kdot, [tf, 0.0], (2 * w * np.eye(n)).ravel(),
                     dense_output=True, rtol=1e-11, atol=1e-13)
    Kf = lambda t: solK.sol(t).reshape(n, n)

    def sdot(t, s):
        K = Kf(t)
        return -(A - S @ K).T @ s - K @ g

    solS = solve_ivp(sdot, [tf, 0.0], -2 * w * xd, dense_output=True,
                     rtol=1e-11, atol=1e-13)
    sf = lambda t: solS.sol(t)

    def xdot(t, x):
        return (A - S @ Kf(t)) @ x - S @ sf(t) + g

    solX = solve_ivp(xdot, [0.0, tf], x0, dense_output=True, rtol=1e-11, atol=1e-13)
    xs = solX.sol(nodes).T
    us = np.stack([-Rinv @ B.T @ (Kf(t) @ solX.sol(t) + sf(t)) for t in nodes])
    return xs, us


def test_riccati_constant_when_fields_zero():
    grid = TimeGrid(0.0, 1.0, 50)
    K_T = np.array([[2.0, 0.5], [0.5, 1.0]])
    K = riccati_sweep(*const_fields(np.zeros((2, 2)), np.zeros((2, 1)), grid), K_T, grid)
    assert np.max(np.abs(K.values - K_T)) < 1e-14


def test_riccati_scalar_closed_form():
    # A = 0, O = 1, K(1) = 2 gives K(t) = 2 / (1 + 2 (1 - t))
    grid = TimeGrid(0.0, 1.0, 2000)
    K = riccati_sweep(*const_fields([[0.0]], [[1.0]], grid), np.array([[2.0]]), grid)
    exact = 2.0 / (1.0 + 2.0 * (1.0 - grid.nodes))
    assert np.max(np.abs(K.values[:, 0, 0] - exact)) < 1e-8
    assert abs(K.values[0, 0, 0] - 2.0 / 3.0) < 1e-8


def test_riccati_matches_independent_lqr_reference():
    prob = make_linear_problem()
    grid = TimeGrid(0.0, prob.tf, 2000)
    S = prob.B @ prob.Rinv @ prob.B.T
    W = prob.B @ np.linalg.cholesky(prob.Rinv)  # W W' = S
    K = riccati_sweep(*const_fields(prob.A, W, grid), 2.0 * np.eye(2), grid)

    def kdot(t, kflat):
        Km = kflat.reshape(2, 2)
        return (-Km @ prob.A - prob.A.T @ Km + Km @ S @ Km).ravel()

    ref = solve_ivp(kdot, [prob.tf, 0.0], (2.0 * np.eye(2)).ravel(),
                    dense_output=True, rtol=1e-11, atol=1e-13)
    refK = ref.sol(grid.nodes).T.reshape(-1, 2, 2)
    assert np.max(np.abs(K.values - refK)) < 1e-8


def test_riccati_symmetry_maintained():
    grid = TimeGrid(0.0, 1.0, 500)
    rng = np.random.default_rng(0)
    A = rng.normal(size=(3, 3))
    W = rng.normal(size=(3, 3))
    # O = W W' has the standard sign, which keeps the backward flow bounded
    K = riccati_sweep(*const_fields(A, W, grid), 2.0 * np.eye(3), grid)
    asym = np.max(np.abs(K.values - np.transpose(K.values, (0, 2, 1))))
    assert asym < 1e-8


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), q=st.integers(1, 4), b=st.integers(1, 3),
       m=st.integers(1, 3))
@example(seed=1, q=4, b=3, m=3)  # the flow escapes on this grid
def test_riccati_sweep_matches_a_dense_sweep_on_every_block_form(seed, q, b, m):
    # q = 1 (one dense block), b = 1 (a diagonal) and q > 1 blocks of b > 1
    # each have their own right-hand side; every form must agree with the
    # dense one over A = blockdiag(blocks) and keep K symmetric to the last
    # bit, or, where the dense sweep escapes, escape at the same node
    from scipy.linalg import block_diag

    rng = np.random.default_rng(seed)
    n = q * b
    grid = TimeGrid(0.0, 1.0, 40)
    blocks = rng.normal(size=(q, b, b))
    Wn = 0.5 * rng.normal(size=(grid.steps + 1, n, m))
    Wm = np.concatenate((Wn[:-1], Wn[1:]), axis=2) * np.sqrt(0.5)
    M = rng.normal(size=(n, n))
    K_T = M @ M.T + np.eye(n)
    A = block_diag(*blocks)

    def dense(K, W):
        KW = K @ W
        return -K @ A - A.T @ K + KW @ KW.T

    try:
        ref = rk4_sweep(dense, K_T, grid, (Wn,), (Wm,), backward=True).values
    except BlowupError as blowup:
        with pytest.raises(RiccatiEscapeError) as escape:
            riccati_sweep(blocks, Wn, Wm, K_T, grid)
        assert escape.value.node_index == blowup.node_index
        return
    K = riccati_sweep(blocks, Wn, Wm, K_T, grid).values
    assert np.max(np.abs(K - ref)) <= 1e-12 * np.max(np.abs(ref))
    assert np.array_equal(K, K.swapaxes(1, 2))


def test_riccati_escape_node_on_every_block_form():
    # A = 2e4 I at 100 steps: the backward flow overflows at node 66 whether
    # the drift comes as a diagonal (2, 1), one dense block (1, 2) or blocks
    # of three states (6, 3)
    grid = TimeGrid(0.0, 1.0, 100)
    for q, b in [(2, 1), (1, 2), (6, 3)]:
        n = q * b
        fields = const_fields(2e4 * np.eye(n), np.zeros((n, 1)), grid, q=q)
        with pytest.raises(RiccatiEscapeError) as exc:
            riccati_sweep(*fields, np.eye(n), grid)
        assert (exc.value.node_index, exc.value.t) == (66, pytest.approx(0.66))


def test_riccati_rejects_a_non_finite_terminal_matrix():
    # a NaN compares False, so the symmetry check alone would let it through
    # and the sweep would report an escape at tf
    grid = TimeGrid(0.0, 1.0, 10)
    for bad in (np.nan, np.inf):
        K_T = np.eye(2)
        K_T[0, 1] = bad
        with pytest.raises(ValueError, match="finite"):
            riccati_sweep(*const_fields(np.zeros((2, 2)), np.ones((2, 1)), grid, q=2), K_T, grid)


def test_affine_sweep_zero_sources():
    grid = TimeGrid(0.0, 1.0, 100)
    Ktraj = GriddedTrajectory(grid, np.tile(np.eye(2), (101, 1, 1)))
    s = affine_sweep(*const_fields(np.zeros((2, 2)), np.zeros((2, 1)), grid),
                     Ktraj, np.zeros(2), np.zeros(2), grid)
    assert np.all(s.values == 0.0)


def test_affine_sweep_constant_coefficient_quadrature():
    # A = 0, O = 0, K constant: ds/dt = -K g, so s(t) = s_T + K g (tf - t)
    grid = TimeGrid(0.0, 2.0, 400)
    Kc = np.array([[1.0, 0.2], [0.2, 0.5]])
    g = np.array([0.3, -0.1])
    s_T = np.array([1.0, 1.0])
    Ktraj = GriddedTrajectory(grid, np.tile(Kc, (401, 1, 1)))
    s = affine_sweep(*const_fields(np.zeros((2, 2)), np.zeros((2, 1)), grid),
                     Ktraj, g, s_T, grid)
    expected = s_T + np.outer(2.0 - grid.nodes, Kc @ g)
    assert np.max(np.abs(s.values - expected)) < 1e-12


def test_forward_trivial_cases():
    grid = TimeGrid(0.0, 1.0, 100)
    zero = const_fields(np.zeros((2, 2)), np.zeros((2, 1)), grid)
    Ktraj = GriddedTrajectory(grid, np.zeros((101, 2, 2)))
    straj = GriddedTrajectory(grid, np.zeros((101, 2)))
    x = closed_loop_forward(*zero, Ktraj, straj, np.zeros(2), np.zeros(2), grid)
    assert np.all(x.values == 0.0)
    g = np.array([0.4, -0.6])
    x = closed_loop_forward(*zero, Ktraj, straj, g, np.array([1.0, 2.0]), grid)
    expected = np.array([1.0, 2.0]) + np.outer(grid.nodes, g)
    assert np.max(np.abs(x.values - expected)) < 1e-12


def test_reconstruct_control_values():
    prob = scalar_iaf_problem()
    grid = TimeGrid(0.0, prob.tf, 10)
    x = GriddedTrajectory(grid, np.full((11, 1), 0.5))
    p = GriddedTrajectory(grid, np.full((11, 1), 0.2))
    u = reconstruct_control(prob, x, p)
    # Lambda = 1 at x = 0.5; u = -R^-1 * 1 * 0.2 = -0.04
    assert np.max(np.abs(u.values + 0.04)) < 1e-14
    zero_p = GriddedTrajectory(grid, np.zeros((11, 1)))
    assert np.all(reconstruct_control(prob, x, zero_p).values == 0.0)


def test_evaluate_cost_cases():
    prob = make_linear_problem()
    grid = TimeGrid(0.0, prob.tf, 100)
    zero_u = GriddedTrajectory(grid, np.zeros((101, 1)))
    assert evaluate_cost(prob, zero_u, prob.xd) == 0.0
    const_u = GriddedTrajectory(grid, np.full((101, 1), 0.5))
    # energy = 0.5 * tf * R * c^2
    expected = 0.5 * 2.0 * 2.0 * 0.25 + np.sum((prob.x0 - prob.xd) ** 2)
    assert evaluate_cost(prob, const_u, prob.x0) == pytest.approx(expected, rel=1e-12)


def test_linear_problem_matches_reference_and_converges_fast():
    prob = make_linear_problem()
    res = solve(prob, SolveOptions(steps=2000, tol=1e-12))
    assert res.converged
    assert res.iterations_used <= 2
    xs_ref, us_ref = reference_affine_lqr(prob, res.final.x.grid.nodes)
    assert np.max(np.abs(res.final.x.values - xs_ref)) < 1e-6
    assert np.max(np.abs(res.final.u.values - us_ref)) < 1e-6


def test_iterate_once_idempotent_for_linear_problem():
    prob = make_linear_problem()
    res = solve(prob, SolveOptions(steps=500, tol=1e-12, max_iters=3))
    grid = res.final.x.grid
    again = iterate_once(prob, None, res.final, grid)
    assert np.max(np.abs(again.x.values - res.final.x.values)) < 1e-10
    assert np.max(np.abs(again.u.values - res.final.u.values)) < 1e-10


def test_zero_problem_fixed_point_is_zero():
    prob = BilinearProblem(
        A=np.zeros((2, 2)), B=[[1.0], [0.0]], Blist=(np.eye(2),), g=np.zeros(2),
        x0=np.zeros(2), xd=np.zeros(2), tf=1.0, R=[[1.0]],
    )
    res = solve(prob, SolveOptions(steps=200, tol=1e-14, max_iters=5))
    assert res.converged
    assert np.max(np.abs(res.final.x.values)) == 0.0
    assert np.max(np.abs(res.final.u.values)) == 0.0


def test_costate_identity_and_symmetry_invariants():
    prob = scalar_iaf_problem()
    res = solve(prob, SolveOptions(steps=500, tol=1e-12))
    st = res.final
    recon = np.einsum("tij,tj->ti", st.K.values, st.x.values) + st.s.values
    assert np.max(np.abs(st.p.values - recon)) < 1e-10
    asym = np.max(np.abs(st.K.values - np.transpose(st.K.values, (0, 2, 1))))
    assert asym < 1e-8


def test_scalar_iaf_converges_with_monotone_tail():
    prob = scalar_iaf_problem()
    res = solve(prob, SolveOptions(steps=1000, tol=1e-12, max_iters=60))
    assert res.converged
    diffs = [row[1] for row in res.history[1:]]
    # contraction regime after the first few iterations
    tail = diffs[3:]
    assert all(a > b for a, b in zip(tail, tail[1:]))
    last5 = diffs[-5:]
    assert all(a > b for a, b in zip(last5, last5[1:]))


def test_fixed_point_consistency_scalar_iaf():
    prob = scalar_iaf_problem()
    res = solve(prob, SolveOptions(steps=2000, tol=1e-12))
    resim = simulate_bilinear(prob, res.final.u)
    assert np.max(np.abs(resim.values - res.final.x.values)) < 1e-5


def test_resimulate_zero_control_matches_uncontrolled_flow():
    prob = scalar_iaf_problem()
    grid = TimeGrid(0.0, prob.tf, 500)
    zero_u = GriddedTrajectory(grid, np.zeros((501, 1)))
    resim = simulate_bilinear(prob, zero_u)
    from bilqr.numkit import integrate_forward

    unc = integrate_forward(lambda t, y: prob.A @ y + prob.g, prob.x0, grid)
    assert np.max(np.abs(resim.values - unc.values)) < 1e-12


def test_solve_options_validation():
    with pytest.raises(ValueError):
        SolveOptions(tol=0.0)
    with pytest.raises(ValueError):
        SolveOptions(max_iters=0)
    with pytest.raises(ValueError):
        SolveOptions(stop_rule="whenever")
    with pytest.raises(ValueError, match="steps"):
        SolveOptions(steps=1)
    with pytest.raises(ValueError, match="alpha"):
        SolveOptions(alpha=-1.0)


def test_not_converged_result():
    prob = scalar_iaf_problem()
    res = solve(prob, SolveOptions(steps=200, tol=1e-12, max_iters=1))
    assert not res.converged
    assert res.iterations_used == 1


@pytest.mark.parametrize("rule", ["target", "both"])
def test_target_stop_rule(rule):
    prob = make_linear_problem()
    res = solve(prob, SolveOptions(steps=500, tol=2.0, stop_rule=rule, max_iters=5))
    assert res.converged
    tgt = np.linalg.norm(res.final.x.values[-1] - prob.xd)
    assert tgt <= 2.0


def test_boundary_value_route_matches_sweeps():
    from bilqr.solver import solve_frozen_boundary_value

    prob = make_linear_problem()
    grid = TimeGrid(0.0, prob.tf, 1000)
    T = grid.steps + 1
    arrays = (prob.blocks[0],) + freeze_iteration_fields(prob, np.zeros((T, 2)))
    w = prob.terminal_weight
    K = riccati_sweep(*arrays, 2 * w * np.eye(2), grid)
    s = affine_sweep(*arrays, K, prob.g, -2 * w * prob.xd, grid)
    x_sweep = closed_loop_forward(*arrays, K, s, prob.g, prob.x0, grid)
    p_sweep = np.einsum("tij,tj->ti", K.values, x_sweep.values) + s.values
    x_bv, p_bv = solve_frozen_boundary_value(prob, *arrays, grid)
    assert np.max(np.abs(x_bv.values - x_sweep.values)) < 1e-6
    assert np.max(np.abs(p_bv.values - p_sweep)) < 1e-6


def test_probe_initialization_breaks_dark_state():
    # coherence-transfer-like setup: the uncontrolled flow is a fixed point
    # of the iteration map; a probe pulse moves the run off it
    from bilqr.scenarios import build

    setup = build("twospin_coherence", {"steps": 300})
    import dataclasses

    stuck_opts = dataclasses.replace(setup.options, init_control=0.0, max_iters=3,
                                     record_diagnostics=False)
    res = solve(setup.problem, stuck_opts)
    assert res.converged  # the dark state maps to itself immediately
    assert np.max(np.abs(res.final.u.values)) < 1e-12

    probe_opts = dataclasses.replace(setup.options, max_iters=3,
                                     record_diagnostics=False)
    res2 = solve(setup.problem, probe_opts)
    assert np.max(np.abs(res2.final.u.values)) > 1e-3


def test_relaxation_preserves_fixed_point():
    prob = scalar_iaf_problem(weight=0.05)
    import dataclasses

    plain = solve(prob, SolveOptions(steps=500, tol=1e-12, max_iters=80))
    damped = solve(prob, SolveOptions(steps=500, tol=1e-12, max_iters=160, relaxation=0.6))
    assert plain.converged and damped.converged
    assert np.max(np.abs(plain.final.x.values - damped.final.x.values)) < 1e-9


def random_bilinear_problem(rng, q, b, m):
    """A random problem of q samples of size b: block-diagonal drift and
    bilinear maps, a shared dense input map."""
    from scipy.linalg import block_diag

    n = q * b
    R = rng.normal(size=(m, m))
    return BilinearProblem(
        A=block_diag(*rng.normal(size=(q, b, b))), B=rng.normal(size=(n, m)),
        Blist=tuple(block_diag(*rng.normal(size=(q, b, b))) for _ in range(m)),
        g=rng.normal(size=n), x0=rng.normal(size=n), xd=rng.normal(size=n),
        tf=0.5, R=R @ R.T + m * np.eye(m), q=q,
    )


def rk4_reference(rhs, y_end, grid, backward):
    """Classical RK4 with stages at (node, midpoint, midpoint, node)."""
    T = grid.steps
    h = -grid.h if backward else grid.h
    y = np.asarray(y_end, dtype=float)
    out = np.empty((T + 1,) + y.shape)
    out[T if backward else 0] = y
    for i in (range(T - 1, -1, -1) if backward else range(T)):
        start, stop = (i + 1, i) if backward else (i, i + 1)
        k1 = rhs(y, "node", start)
        k2 = rhs(y + (0.5 * h) * k1, "mid", i)
        k3 = rhs(y + (0.5 * h) * k2, "mid", i)
        k4 = rhs(y + h * k3, "node", stop)
        y = y + (h / 6.0) * (k1 + 2.0 * (k2 + k3) + k4)
        out[stop] = y
    return out


@pytest.mark.parametrize("q,b", [(4, 2), (1, 5), (6, 3)])
def test_factored_sweeps_match_dense_gram_reference(q, b):
    # block-diagonal ensembles and one dense single system, m = 2; n = 18
    # lies above STEP_MAPS_MAX_N, so its affine and forward sweeps take the
    # stage path and the others take step maps
    rng = np.random.default_rng(7)
    prob = random_bilinear_problem(rng, q, b, 2)
    factors = bilinear_factors(prob.Blist)
    grid = TimeGrid(0.0, prob.tf, 40)
    X = rng.normal(size=(grid.steps + 1, prob.n))
    W_nodes, W_mids = freeze_iteration_fields(prob, X)
    arrays = (prob.blocks[0], W_nodes, W_mids)
    assert arrays[0].shape == (q, b, b)  # the sweeps step the sample blocks
    w = prob.terminal_weight
    K = riccati_sweep(*arrays, 2 * w * np.eye(prob.n), grid)
    s = affine_sweep(*arrays, K, prob.g, -2 * w * prob.xd, grid)
    x = closed_loop_forward(*arrays, K, s, prob.g, prob.x0, grid)

    # dense reference: the gram tabulated at the nodes, averaged at midpoints
    A, g = prob.A, prob.g
    lam = prob.B + np.einsum("tj,jki->tki", X, factors.mats)
    O_n = np.einsum("tki,ij,tlj->tkl", lam, prob.Rinv, lam)
    O = {"node": O_n, "mid": 0.5 * (O_n[:-1] + O_n[1:])}
    Kt = {"node": K.values, "mid": 0.5 * (K.values[:-1] + K.values[1:])}
    st = {"node": s.values, "mid": 0.5 * (s.values[:-1] + s.values[1:])}

    def close(a, ref):
        return np.max(np.abs(a - ref)) <= 1e-12 * max(1.0, np.max(np.abs(ref)))

    K_ref = rk4_reference(
        lambda Km, kind, i: Km @ O[kind][i] @ Km - Km @ A - A.T @ Km,
        2 * w * np.eye(prob.n), grid, backward=True)
    assert close(K.values, K_ref)
    s_ref = rk4_reference(
        lambda sv, kind, i: Kt[kind][i] @ (O[kind][i] @ sv) - A.T @ sv - Kt[kind][i] @ g,
        -2 * w * prob.xd, grid, backward=True)
    assert close(s.values, s_ref)
    x_ref = rk4_reference(
        lambda xv, kind, i: (A @ xv - O[kind][i] @ (Kt[kind][i] @ xv)
                             - O[kind][i] @ st[kind][i] + g),
        prob.x0, grid, backward=False)
    assert close(x.values, x_ref)


def test_sweep_blowup_names_first_nonfinite_node():
    # dx/dt = c x overflows float64 one RK4 step per ~8-9 decades of growth;
    # each error names the first node, in sweep order, that is not finite,
    # although each sweep stops at a later periodic check.  n = 2 takes step
    # maps in the affine and forward sweeps, n = 18 the stage path
    grid = TimeGrid(0.0, 1.0, 100)
    for q, b in [(2, 1), (6, 3)]:
        n = q * b
        fields = const_fields(2e4 * np.eye(n), np.zeros((n, 1)), grid, q=q)
        K0 = GriddedTrajectory(grid, np.zeros((101, n, n)))
        s0 = GriddedTrajectory(grid, np.zeros((101, n)))
        with pytest.raises(RiccatiEscapeError) as exc:
            riccati_sweep(*fields, np.eye(n), grid)
        assert (exc.value.node_index, exc.value.t) == (66, pytest.approx(0.66))
        with pytest.raises(BlowupError) as exc:
            affine_sweep(*fields, K0, np.zeros(n), np.ones(n), grid)
        assert exc.value.node_index == 60
        with pytest.raises(BlowupError) as exc:
            closed_loop_forward(*fields, K0, s0, np.zeros(n), np.ones(n), grid)
        assert exc.value.node_index == 40


def test_simulate_bilinear_finer_grid_matches_per_stage_interpolation():
    # u tabulated once at the fine grid's nodes and midpoints equals
    # interpolating the coarse control at every RK4 stage time
    rng = np.random.default_rng(5)
    prob = BilinearProblem(
        A=rng.normal(scale=0.5, size=(3, 3)), B=rng.normal(size=(3, 2)),
        Blist=tuple(rng.normal(scale=0.3, size=(3, 3)) for _ in range(2)),
        g=rng.normal(size=3), x0=rng.normal(size=3), xd=np.zeros(3), tf=2.0, R=np.eye(2),
    )
    coarse = TimeGrid(0.0, prob.tf, 40)
    utraj = GriddedTrajectory(coarse, np.column_stack(
        [np.sin(3.0 * coarse.nodes), np.cos(coarse.nodes) ** 2]))
    fine = TimeGrid(0.0, prob.tf, 80)

    def f(t, x):
        u = utraj.at(t)
        return prob.A @ x + prob.B @ u + sum(ui * Bi for ui, Bi in zip(u, prob.Blist)) @ x + prob.g

    ref = [prob.x0]
    h = fine.h
    for t in fine.nodes[:-1]:
        x = ref[-1]
        k1 = f(t, x)
        k2 = f(t + h / 2, x + h / 2 * k1)
        k3 = f(t + h / 2, x + h / 2 * k2)
        k4 = f(t + h, x + h * k3)
        ref.append(x + h / 6 * (k1 + 2 * k2 + 2 * k3 + k4))
    resim = simulate_bilinear(prob, utraj, fine)
    assert resim.grid == fine
    assert np.max(np.abs(resim.values - np.array(ref))) < 1e-12


@pytest.mark.parametrize("refine", [1, 2])
@pytest.mark.parametrize("drift", ["dense", "diagonal"])
def test_stacked_resimulation_matches_each_sample_alone(refine, drift):
    # q=3 samples of b=2 states under one time-varying control: the stack
    # steps its sample blocks, each of which runs as a single system, and
    # both match a dense-coupling reference; with a diagonal drift the dense
    # bilinear maps alone set the split
    from bilqr.ensemble import SampleCoefficients, sample_view, stack_coefficients
    from bilqr.numkit import integrate_forward

    rng = np.random.default_rng(11)
    mask = np.eye(2) if drift == "diagonal" else np.ones((2, 2))
    coeffs = [SampleCoefficients(
        A=mask * rng.normal(scale=0.5, size=(2, 2)), B=rng.normal(size=(2, 2)),
        Blist=tuple(rng.normal(scale=0.3, size=(2, 2)) for _ in range(2)),
        g=rng.normal(size=2), x0=rng.normal(size=2), xd=np.zeros(2)) for _ in range(3)]
    R = np.eye(2)
    stack = stack_coefficients(coeffs, 2.0, R)
    coarse = TimeGrid(0.0, 2.0, 40)
    utraj = GriddedTrajectory(coarse, np.column_stack(
        [np.sin(3.0 * coarse.nodes), np.cos(coarse.nodes) ** 2]))
    grid = TimeGrid(0.0, 2.0, 40 * refine)
    states = sample_view(simulate_bilinear(stack, utraj, grid).values, 3)
    for j, c in enumerate(coeffs):
        single = simulate_bilinear(BilinearProblem(**vars(c), tf=2.0, R=R), utraj, grid)
        assert np.max(np.abs(states[:, j] - single.values)) <= 1e-13

        def field(t, x, c=c):
            u = utraj.at(t)
            return (c.A + np.tensordot(u, np.stack(c.Blist), axes=1)) @ x + c.B @ u + c.g

        ref = integrate_forward(field, c.x0, grid)
        assert np.max(np.abs(single.values - ref.values)) <= 1e-13


def test_solve_keeps_one_gain_table_per_iteration():
    # the spent iterate's K, s, q are released before the next sweeps, and
    # the sweeps form K midpoints a block of steps at a time: one
    # (T + 1, n, n) table is alive at a time
    from bilqr.scenarios import build

    setup = build("bloch_broadband", {"q": 21})
    prob = setup.problem
    opts = dataclasses.replace(setup.options, steps=200, max_iters=3)
    table = 201 * prob.n * prob.n * 8
    tracemalloc.start()
    try:
        res = solve(prob, opts)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert res.iterations_used == 3 and res.final.K.values.shape == (201, 63, 63)
    assert peak < 1.6 * table


def test_step_map_sweeps_hold_a_few_gain_tables():
    # up to STEP_MAPS_MAX_N states the affine and closed-loop sweeps take
    # step maps formed a block of steps at a time, with no coefficient table
    # over the whole grid: iterate_once on this 16-state problem (4 blocks of
    # 4, m = 2) peaks near 2 gain tables, where whole-grid tables took 5.6
    prob = random_bilinear_problem(np.random.default_rng(0), 4, 4, 2)
    assert prob.n == STEP_MAPS_MAX_N
    for steps in (2000, 8000):
        grid = TimeGrid(0.0, prob.tf, steps)
        prev = _initial_state(prob, grid)
        table = (steps + 1) * prob.n * prob.n * 8
        tracemalloc.start()
        try:
            state = iterate_once(prob, None, prev, grid)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert state.K is not None
        assert peak < 2.5 * table


def test_diagnostics_keep_the_previous_sweeps():
    # contraction_report reads prev.K and prev.s; a released pair would
    # report an infinite criterion sum
    from bilqr.scenarios import build

    setup = build("bloch_broadband", {"q": 3})
    opts = dataclasses.replace(setup.options, steps=200, max_iters=3,
                               record_diagnostics=True)
    res = solve(setup.problem, opts)
    rows = res.diagnostics.rows
    assert len(rows) == 3
    assert all(np.isfinite(row.criterion_sum) for row in rows[1:])


def test_relaxed_diagnostics_describe_the_fed_iterate():
    # under relaxation the map is applied to the blend of past iterates, so
    # the contraction row must pair the new iterate with that blend
    from bilqr.diagnostics import contraction_report
    from bilqr.scenarios import build

    setup = build("bloch_broadband", {"q": 3})
    prob = setup.problem
    opts = dataclasses.replace(setup.options, steps=60, max_iters=2, record_diagnostics=True)
    assert opts.relaxation < 1.0
    res = solve(prob, opts)
    grid = TimeGrid(0.0, prob.tf, opts.steps)
    state0 = _initial_state(prob, grid, probe=opts.init_control)
    state1 = iterate_once(prob, None, state0, grid)
    theta = opts.relaxation
    blend = (1.0 - theta) * state0.x.values + theta * state1.x.values
    feed1 = dataclasses.replace(state1, x=GriddedTrajectory(grid, blend))
    state2 = iterate_once(prob, None, feed1, grid)
    expected = contraction_report(prob, None, feed1, state2, grid, alpha=opts.alpha,
                                  subsample=opts.diag_subsample)
    assert np.array_equal(res.diagnostics.rows[1].bounds, expected.bounds)


def test_solve_diagnostics_rows_equal_one_pair_reports():
    # solve forms the reports a block of pairs at a time; each row equals the
    # one-pair report of the iterate it was fed and the iterate it made
    from bilqr.diagnostics import contraction_report
    from bilqr.scenarios import build

    setup = build("twospin_coherence", {"steps": 20})
    prob, opts = setup.problem, setup.options
    assert opts.record_diagnostics and opts.relaxation == 1.0
    res = solve(prob, opts)
    grid = TimeGrid(0.0, prob.tf, opts.steps)
    state = _initial_state(prob, grid, probe=opts.init_control)
    assert len(res.diagnostics.rows) == res.iterations_used > 100
    for row in res.diagnostics.rows:
        feed, state = state, iterate_once(prob, None, state, grid)
        want = contraction_report(prob, None, feed, state, grid, alpha=opts.alpha,
                                  subsample=opts.diag_subsample)
        assert np.array_equal(row.bounds, want.bounds) and np.array_equal(row.M, want.M)
        assert (row.iteration, row.criterion_sum, row.rho, row.satisfied) == (
            want.iteration, want.criterion_sum, want.rho, want.satisfied)


def test_solve_forms_reports_in_blocks_of_the_report_budget(monkeypatch):
    # twospin's 6 KB gain tables batch 57 pairs a block at four gain tables
    # a pair; a budget below one gain table reports one pair per block
    import bilqr.diagnostics as diagnostics_module
    import bilqr.solver as solver_module
    from bilqr.scenarios import build

    reports, blocks = diagnostics_module.contraction_reports, []

    def counted(prob, pairs, *args, **kwargs):
        blocks.append(len(pairs))
        return reports(prob, pairs, *args, **kwargs)

    monkeypatch.setattr(diagnostics_module, "contraction_reports", counted)
    setup = build("twospin_coherence", {"steps": 20})
    res = solve(setup.problem, setup.options)
    assert res.iterations_used == 331 and blocks == [57] * 5 + [46]
    blocks.clear()
    monkeypatch.setattr(solver_module, "_REPORT_BLOCK_BYTES", res.final.K.values.nbytes - 1)
    res = solve(setup.problem, dataclasses.replace(setup.options, max_iters=12))
    assert len(res.diagnostics.rows) == 12 and blocks == [1] * 12


def test_solve_diagnostics_freeze_each_fed_state_once(monkeypatch):
    # the reports read the W each iterate was formed with, so a solve with
    # diagnostics freezes once per iteration, in iterate_once alone
    import bilqr.diagnostics as diagnostics_module
    import bilqr.solver as solver_module
    from bilqr.scenarios import build

    freeze, calls = solver_module.freeze_iteration_fields, []

    def counted(prob, X):
        calls.append(X.shape)
        return freeze(prob, X)

    monkeypatch.setattr(solver_module, "freeze_iteration_fields", counted)
    monkeypatch.setattr(diagnostics_module, "freeze_iteration_fields", counted)
    setup = build("twospin_coherence", {"steps": 20})
    res = solve(setup.problem, dataclasses.replace(setup.options, max_iters=12))
    assert len(res.diagnostics.rows) == res.iterations_used == 12
    assert calls == [(21, 6)] * 12


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), q=st.integers(1, 3), b=st.integers(1, 3),
       m=st.integers(1, 2))
@example(seed=2578891715, q=3, b=3, m=2)  # final iterate from the boundary-value route
@example(seed=2208605, q=2, b=3, m=1)  # the same
def test_final_iterate_costate_and_gain_invariants(seed, q, b, m):
    # on either route x(0) = x0 and p(tf) = 2 w (x(tf) - xd); the RK4 Riccati
    # sweep escapes on some draws, and then the boundary-value route computes
    # the iterate without K, s.  Where K exists, p = K x + s node-wise and K
    # is symmetric positive semidefinite: the frozen Riccati flow starts from
    # 2 w I with a semidefinite gram
    prob = random_bilinear_problem(np.random.default_rng(seed), q, b, m)
    final = solve(prob, SolveOptions(steps=50, max_iters=3)).final
    x, p = final.x.values, final.p.values
    assert np.array_equal(x[0], prob.x0)
    terminal = 2.0 * prob.terminal_weight * (x[-1] - prob.xd)
    assert np.max(np.abs(p[-1] - terminal)) <= 1e-12 * max(1.0, np.max(np.abs(terminal)))
    if final.K is None:
        return
    K, s = final.K.values, final.s.values
    recon = np.stack([K[i] @ x[i] + s[i] for i in range(len(K))])
    assert np.max(np.abs(p - recon)) <= 1e-12 * max(1.0, np.max(np.abs(recon)))
    assert np.array_equal(K, np.transpose(K, (0, 2, 1)))
    assert np.min(np.linalg.eigvalsh(K)) >= -1e-9 * np.max(np.abs(K))


def test_gain_table_is_exactly_symmetric_above_the_step_map_size():
    # the property above draws at most 9 states; on bloch q=27 (81 states)
    # and on 27 states under 8 channels, whose (K W)(K W)' a GEMM would
    # leave asymmetric in the last bit, every RK4 step of the Riccati sweep
    # keeps K symmetric to the last bit
    from bilqr.scenarios import build

    setup = build("bloch_broadband", {"q": 27})
    K = solve(setup.problem, dataclasses.replace(setup.options, steps=30, max_iters=2)).final.K
    assert K.values.shape[1] > STEP_MAPS_MAX_N
    assert np.array_equal(K.values, K.values.swapaxes(1, 2))

    rng = np.random.default_rng(22)
    prob = random_bilinear_problem(rng, 9, 3, 8)
    grid = TimeGrid(0.0, prob.tf, 30)
    Wn, Wm = freeze_iteration_fields(prob, rng.normal(size=(31, prob.n)))
    K = riccati_sweep(prob.blocks[0], Wn, Wm, np.eye(prob.n), grid).values
    assert np.array_equal(K, K.swapaxes(1, 2))


def smooth_directions(rng, grid, m, count):
    """Seeded smooth perturbations (steps + 1, m) with max |d| = 1: a few
    sines of low frequency and random phase per channel."""
    t = (grid.nodes - grid.t0) / (grid.tf - grid.t0)
    for _ in range(count):
        freq, phase = rng.integers(1, 4, size=(3, m)), rng.uniform(0, 2 * np.pi, (3, m))
        d = np.sum(np.sin(2 * np.pi * freq[:, None] * t[:, None] + phase[:, None]), axis=0)
        yield d / np.max(np.abs(d))


@settings(max_examples=20, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), q=st.integers(1, 3), b=st.integers(1, 3),
       m=st.integers(1, 2))
@example(seed=0, q=6, b=3, m=2)  # n = 18: the stage path of both linear sweeps
@example(seed=218373444, q=3, b=3, m=1)  # at 100 steps the smallest rise of 500 draws;
# a share of 0.05 lowered J there
@example(seed=505699, q=3, b=3, m=1)  # lowered J by 0.43% at 100 steps; +0.34% at 400
@example(seed=1050394205, q=3, b=3, m=1)  # lowered J by 7.1% at 100 steps; +1.08% at 400
def test_iterate_minimizes_its_frozen_subproblem(seed, q, b, m):
    # the frozen subproblem is min (1/2) int u' R u + w |x(tf) - xd|^2 under
    # x' = A x + L(x_prev) u + g; its control is -R^-1 L(x_prev)' p with the
    # iterate's costate p (iterate_once returns -R^-1 L(x)' p, the same
    # control once x = x_prev).  Perturbing it along smooth directions by a
    # fixed share of max |u| must not lower the cost, integrated by RK4 with
    # the drive tabulated at the nodes: the second-order rise dominates the
    # O(h^2) slack of the discrete optimum at 400 steps (at 100 it did not
    # on the pinned draws, which rise alike at 400, 1600 and 6400 steps)
    rng = np.random.default_rng(seed)
    prob = random_bilinear_problem(rng, q, b, m)
    factors = bilinear_factors(prob.Blist)
    grid = TimeGrid(0.0, prob.tf, 400)
    prev = _initial_state(prob, grid)
    state = iterate_once(prob, None, prev, grid)
    L = prob.B + np.einsum("tj,jki->tki", prev.x.values, factors.mats)
    U = reconstruct_control(prob, prev.x, state.p).values

    def cost(Uc):
        drive = np.einsum("tki,ti->tk", L, Uc) + prob.g
        x = rk4_sweep(lambda y, d: prob.A @ y + d, prob.x0, grid, (drive,), (midpoints(drive),))
        return evaluate_cost(prob, GriddedTrajectory(grid, Uc), x.values[-1])

    j0 = cost(U)
    eps = 0.2 * max(float(np.max(np.abs(U))), 1e-3)
    for d in smooth_directions(rng, grid, m, 3):
        for sign in (1.0, -1.0):
            assert cost(U + sign * eps * d) >= j0 - 1e-12 * max(1.0, abs(j0))


def test_riccati_escape_on_a_coarse_grid_takes_the_boundary_value_route(monkeypatch):
    # A = -200 I at 100 steps: h * 400 = 4 lies outside RK4's stability
    # interval (2.79) for the backward Riccati flow, so every sweep escapes
    # and the boundary-value route carries each iterate; its cost stays
    # within 1% of a grid fine enough for the sweeps
    import bilqr.solver as solver

    prob = BilinearProblem(
        A=-200.0 * np.eye(2), B=[[1.0], [0.5]], Blist=([[0.0, 1.0], [-1.0, 0.0]],),
        g=[1.0, -2.0], x0=[1.0, 0.0], xd=[0.0, 1.0], tf=1.0, R=[[0.1]],
    )
    calls = []
    route = solver.solve_frozen_boundary_value

    def counted(*args):
        calls.append(1)
        return route(*args)

    monkeypatch.setattr(solver, "solve_frozen_boundary_value", counted)
    coarse = solve(prob, SolveOptions(steps=100))
    assert coarse.converged and coarse.final.K is None
    assert len(calls) == coarse.iterations_used
    coarse_calls = len(calls)
    fine = solve(prob, SolveOptions(steps=3200))
    assert len(calls) == coarse_calls and fine.final.K is not None
    assert abs(coarse.final.cost - fine.final.cost) <= 0.01 * fine.final.cost


def test_riccati_sweep_is_exactly_symmetric_on_both_sides_of_the_stage_stack_budget():
    # 12 states step on the stage stack and 183 take fresh stages; on both
    # sides every block form keeps K symmetric to the last bit at every node
    from bilqr import numkit

    rng = np.random.default_rng(30)
    grid = TimeGrid(0.0, 0.5, 4)
    for n, below in ((12, True), (183, False)):
        assert (4 * n * n * 8 <= numkit._STAGE_STACK_BYTES) == below
        for q in (1, n // 3, n):
            blocks = rng.normal(size=(q, n // q, n // q)) / np.sqrt(n // q)
            Wn = rng.normal(size=(grid.steps + 1, n, 2)) / np.sqrt(n)
            Wm = np.concatenate((Wn[:-1], Wn[1:]), axis=2) * np.sqrt(0.5)
            M = rng.normal(size=(n, n))
            K = riccati_sweep(blocks, Wn, Wm, M @ M.T / n + np.eye(n), grid).values
            assert np.array_equal(K, K.swapaxes(1, 2)), (n, q)


def test_benchmark_gain_tables_sit_on_fixed_sides_of_the_stage_stack_budget(monkeypatch):
    # iaf_case1 q=5 (n = 5) and twospin (n = 6) step their Riccati sweeps on
    # the stage stack; bloch_broadband q=81 (n = 243) keeps the allocating
    # stages, whose K is the bits of rk4_sweep of the plain right-hand side
    from bilqr import numkit
    from bilqr import solver as solver_module
    from bilqr.scenarios import build

    def stack_bytes(scenario, overrides):
        n = build(scenario, overrides).problem.n
        return 4 * n * n * 8

    assert stack_bytes("iaf_case1", {"q": 5}) <= numkit._STAGE_STACK_BYTES
    assert stack_bytes("twospin_coherence", {}) <= numkit._STAGE_STACK_BYTES
    assert stack_bytes("bloch_broadband", {"q": 81}) > numkit._STAGE_STACK_BYTES

    prob = build("bloch_broadband", {"q": 81}).problem
    grid = TimeGrid(0.0, 1.0, 4)
    rng = np.random.default_rng(81)
    Wn, Wm = freeze_iteration_fields(prob, rng.normal(size=(grid.steps + 1, prob.n)))
    K_T = 2.0 * prob.terminal_weight * np.eye(prob.n)
    K = riccati_sweep(prob.blocks[0], Wn, Wm, K_T, grid).values

    def plain(rhs, *args, **kwargs):
        return numkit.rk4_sweep(lambda K, W: rhs(K, W), *args, **kwargs)

    monkeypatch.setattr(solver_module, "rk4_sweep", plain)
    assert np.array_equal(K, riccati_sweep(prob.blocks[0], Wn, Wm, K_T, grid).values)


def test_initial_state_allocates_no_gain_table():
    # iteration 0's zero K, s and p are broadcast views: on a problem whose
    # zero gain table would take 512 MB, _initial_state's traced peak stays
    # under 5% of it, and K still reads zero at every node
    rng = np.random.default_rng(0)
    n, steps = 200, 1600
    prob = BilinearProblem(
        A=-np.eye(n) + 0.01 * rng.normal(size=(n, n)), B=rng.normal(size=(n, 1)),
        Blist=(np.zeros((n, n)),), g=np.zeros(n), x0=rng.normal(size=n), xd=np.zeros(n),
        tf=1.0, R=[[1.0]],
    )
    grid = TimeGrid(0.0, prob.tf, steps)
    table = (steps + 1) * n * n * 8
    assert table >= 500e6
    tracemalloc.start()
    try:
        state = _initial_state(prob, grid)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 0.05 * table
    assert state.K.values.shape == (steps + 1, n, n) and state.K.values.nbytes == table
    assert not state.K.values.any() and not state.s.values.any() and not state.p.values.any()


# the three scenario families at a few dozen steps, as (scenario, overrides)
FAMILIES = [("iaf_case1", {"q": 5, "steps": 40}), ("twospin_coherence", {"steps": 30}),
            ("bloch_broadband", {"q": 9, "steps": 30})]


@pytest.mark.parametrize("scenario, overrides", FAMILIES)
def test_initial_state_is_the_resimulation_under_the_probe(scenario, overrides):
    # iteration 0 is simulate_bilinear under the constant probe table, to the bit
    from bilqr.scenarios import build

    setup = build(scenario, overrides)
    prob, opts = setup.problem, setup.options
    grid = TimeGrid(0.0, prob.tf, opts.steps)
    state = _initial_state(prob, grid, probe=opts.init_control)
    probe = GriddedTrajectory(grid, np.full((grid.steps + 1, prob.m), opts.init_control))
    assert np.array_equal(state.u.values, probe.values)
    assert state.x.values.tobytes() == simulate_bilinear(prob, probe).values.tobytes()


def _dense_free_run(scenario, overrides, poison):
    """Every array of a diagnosed solve, its residuals, the resimulation and
    a batch of Monte Carlo paths (under the run's noise, or a Wiener noise
    for a noise-free family), with the dense A, B and B_i of the problem
    as stated and as solved overwritten by NaN once the setup has formed
    them when `poison` is set."""
    from bilqr.diagnostics import hjb_residual, necessary_condition_residual
    from bilqr.scenarios import build
    from bilqr.stochastic import NoiseSpec, simulate_poisson_paths, simulate_wiener_paths

    setup = build(scenario, overrides)
    prob, stated = setup.problem, setup.stated
    if poison:
        for target in {id(prob): prob, id(stated): stated}.values():
            for name in ("A", "B"):
                object.__setattr__(target, name, np.full_like(getattr(target, name), np.nan))
            object.__setattr__(target, "Blist",
                               tuple(np.full_like(Bi, np.nan) for Bi in target.Blist))
    opts = dataclasses.replace(setup.options, max_iters=4, record_diagnostics=True)
    res = solve(prob, opts)
    final, grid = res.final, res.final.x.grid
    history = np.array(res.history)  # row 0's diff_x is inf
    arrays = [history[:, 2], history[1:], final.x.values, final.p.values, final.u.values,
              final.K.values, final.s.values, final.W.values]
    for row in res.diagnostics.rows:
        arrays += [row.bounds, row.M, np.array([row.criterion_sum, row.rho, row.delta, row.zeta])]
    hjb = hjb_residual(prob, None, final, grid)
    arrays += [np.array([hjb.sup, hjb.scale]),
               np.array(necessary_condition_residual(prob, final, grid)),
               simulate_bilinear(prob, final.u).values]
    noise = setup.noise or NoiseSpec("wiener", 0.1 * np.eye(prob.n))
    simulate = simulate_poisson_paths if noise.kind == "poisson" else simulate_wiener_paths
    arrays.append(simulate(stated, noise, final.u, 6, 31).states)
    return arrays


@pytest.mark.parametrize("scenario, overrides", FAMILIES)
def test_solve_validate_and_diagnostics_never_read_the_dense_matrices(scenario, overrides):
    # the dense stacked A, B and B_i are inputs and reference forms only:
    # with them NaN, a diagnosed solve, its residuals, the resimulation and
    # the Monte Carlo paths give the clean run's arrays to the bit
    clean = _dense_free_run(scenario, overrides, poison=False)
    poisoned = _dense_free_run(scenario, overrides, poison=True)
    assert len(clean) == len(poisoned)
    for want, got in zip(clean, poisoned):
        assert np.all(np.isfinite(want))
        assert want.shape == got.shape and want.tobytes() == got.tobytes()


def test_solve_forms_no_cholesky_factor(monkeypatch):
    # the problem holds R^-1's Cholesky factor, so a twospin solve (331
    # freezes) factors nothing, and W is the product with a fresh factor
    from bilqr.scenarios import build

    setup = build("twospin_coherence", {"steps": 20})
    prob = setup.problem
    X = np.random.default_rng(6).normal(size=(21, prob.n))
    W, _ = freeze_iteration_fields(prob, X)
    assert np.array_equal(W, input_gain(prob, X) @ np.linalg.cholesky(prob.Rinv))
    cholesky, calls = np.linalg.cholesky, []

    def counted(a):
        calls.append(np.shape(a))
        return cholesky(a)

    monkeypatch.setattr(np.linalg, "cholesky", counted)
    res = solve(prob, setup.options)
    assert res.iterations_used == 331 and calls == []
