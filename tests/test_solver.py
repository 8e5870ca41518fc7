import dataclasses
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import solve_ivp

from bilqr.model import BilinearProblem, bilinear_factors
from bilqr.numkit import GriddedTrajectory, TimeGrid
from bilqr.solver import (
    SolveOptions,
    _initial_state,
    affine_sweep,
    closed_loop_forward,
    drift_blocks,
    evaluate_cost,
    freeze_iteration_fields,
    iterate_once,
    reconstruct_control,
    riccati_sweep,
    simulate_bilinear,
    solve,
)


def const_fields(A, W, grid):
    """Drift blocks and gram-factor stage tables of a constant A and O = W W'."""
    W = np.asarray(W, dtype=float)
    T = grid.steps
    return (drift_blocks(A), np.broadcast_to(W, (T + 1,) + W.shape),
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
    factors = bilinear_factors(prob.Blist)
    grid = TimeGrid(0.0, prob.tf, 10)
    x = GriddedTrajectory(grid, np.full((11, 1), 0.5))
    p = GriddedTrajectory(grid, np.full((11, 1), 0.2))
    u = reconstruct_control(prob, factors, x, p)
    # Lambda = 1 at x = 0.5; u = -R^-1 * 1 * 0.2 = -0.04
    assert np.max(np.abs(u.values + 0.04)) < 1e-14
    zero_p = GriddedTrajectory(grid, np.zeros((11, 1)))
    assert np.all(reconstruct_control(prob, factors, x, zero_p).values == 0.0)


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
    factors = bilinear_factors(prob.Blist)
    grid = res.final.x.grid
    again = iterate_once(prob, factors, res.final, grid)
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


def test_target_stop_rule():
    prob = make_linear_problem()
    res = solve(prob, SolveOptions(steps=500, tol=2.0, stop_rule="target", max_iters=5))
    assert res.converged
    tgt = np.linalg.norm(res.final.x.values[-1] - prob.xd)
    assert tgt <= 2.0


def test_boundary_value_route_matches_sweeps():
    from bilqr.solver import solve_frozen_boundary_value

    prob = make_linear_problem()
    factors = bilinear_factors(prob.Blist)
    grid = TimeGrid(0.0, prob.tf, 1000)
    T = grid.steps + 1
    arrays = (drift_blocks(prob.A),) + freeze_iteration_fields(prob, factors, np.zeros((T, 2)))
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
        tf=0.5, R=R @ R.T + m * np.eye(m),
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


@pytest.mark.parametrize("q,b", [(4, 2), (1, 5)])
def test_factored_sweeps_match_dense_gram_reference(q, b):
    # a block-diagonal ensemble and one dense single system, m = 2
    rng = np.random.default_rng(7)
    prob = random_bilinear_problem(rng, q, b, 2)
    factors = bilinear_factors(prob.Blist)
    grid = TimeGrid(0.0, prob.tf, 40)
    X = rng.normal(size=(grid.steps + 1, prob.n))
    W_nodes, W_mids = freeze_iteration_fields(prob, factors, X)
    arrays = (drift_blocks(prob.A), W_nodes, W_mids)
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


def test_drift_blocks_detection():
    rng = np.random.default_rng(3)
    blocks = rng.normal(size=(4, 2, 2))
    from scipy.linalg import block_diag

    assert np.array_equal(drift_blocks(block_diag(*blocks)), blocks)
    dense = rng.normal(size=(6, 6))
    assert np.array_equal(drift_blocks(dense), dense[np.newaxis])
    diag = np.diag(rng.normal(size=5))
    assert np.array_equal(drift_blocks(diag), np.diag(diag)[:, None, None])
    assert np.array_equal(drift_blocks(np.zeros((3, 3))), np.zeros((3, 1, 1)))


def test_sweep_blowup_names_first_nonfinite_node():
    # dx/dt = c x overflows float64 one RK4 step per ~8-9 decades of growth;
    # each error names the first node, in sweep order, that is not finite,
    # although each sweep stops at a later periodic check
    from bilqr.numkit import BlowupError
    from bilqr.solver import RiccatiEscapeError

    grid = TimeGrid(0.0, 1.0, 100)
    fields = const_fields(2e4 * np.eye(2), np.zeros((2, 1)), grid)
    K0 = GriddedTrajectory(grid, np.zeros((101, 2, 2)))
    s0 = GriddedTrajectory(grid, np.zeros((101, 2)))
    with pytest.raises(RiccatiEscapeError) as exc:
        riccati_sweep(*fields, np.eye(2), grid)
    assert (exc.value.node_index, exc.value.t) == (66, pytest.approx(0.66))
    with pytest.raises(BlowupError) as exc:
        affine_sweep(*fields, K0, np.zeros(2), np.ones(2), grid)
    assert exc.value.node_index == 60
    with pytest.raises(BlowupError) as exc:
        closed_loop_forward(*fields, K0, s0, np.zeros(2), np.ones(2), grid)
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

    factors = bilinear_factors(prob.Blist)
    grid = TimeGrid(0.0, prob.tf, opts.steps)
    state0 = _initial_state(prob, grid, probe=opts.init_control)
    state1 = iterate_once(prob, factors, state0, grid)
    theta = opts.relaxation
    blend = (1.0 - theta) * state0.x.values + theta * state1.x.values
    feed1 = dataclasses.replace(state1, x=GriddedTrajectory(grid, blend))
    state2 = iterate_once(prob, factors, feed1, grid)
    expected = contraction_report(prob, factors, feed1, state2, grid, alpha=opts.alpha,
                                  subsample=opts.diag_subsample)
    assert np.array_equal(res.diagnostics.rows[1].bounds, expected.bounds)


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), q=st.integers(1, 3), b=st.integers(1, 3),
       m=st.integers(1, 2))
def test_final_iterate_costate_and_gain_invariants(seed, q, b, m):
    # p = K x + s node-wise, and K is symmetric positive semidefinite: the
    # frozen Riccati flow starts from 2 w I with a semidefinite gram
    prob = random_bilinear_problem(np.random.default_rng(seed), q, b, m)
    final = solve(prob, SolveOptions(steps=50, max_iters=3)).final
    assert final.K is not None
    K, x, s = final.K.values, final.x.values, final.s.values
    recon = np.stack([K[i] @ x[i] + s[i] for i in range(len(K))])
    assert np.max(np.abs(final.p.values - recon)) <= 1e-12 * max(1.0, np.max(np.abs(recon)))
    assert np.array_equal(K, np.transpose(K, (0, 2, 1)))
    assert np.min(np.linalg.eigvalsh(K)) >= -1e-9 * np.max(np.abs(K))
