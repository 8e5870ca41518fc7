import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bilqr.diagnostics import (
    contraction_matrix,
    contraction_report,
    contraction_reports,
    coupling_strengths,
    criterion_check,
    hjb_residual,
    necessary_condition_residual,
)
from bilqr.model import BilinearProblem, bilinear_factors
from bilqr.numkit import BlowupError, GriddedTrajectory, TimeGrid, TransitionInversionError
from bilqr.solver import SolveOptions, _initial_state, iterate_once, solve


def scalar_iaf(weight=0.05):
    return BilinearProblem(
        A=[[-1.25]], B=[[2.0]], Blist=([[-2.0]],), g=[0.3],
        x0=[0.0], xd=[0.5], tf=10.0, R=[[5.0]], terminal_weight=weight,
    )


def linear_problem():
    return BilinearProblem(
        A=[[0.0, 1.0], [-2.0, -3.0]], B=[[0.0], [1.0]], Blist=(np.zeros((2, 2)),),
        g=[0.5, -0.2], x0=[1.0, 0.0], xd=[0.3, -0.1], tf=2.0, R=[[2.0]],
    )


def zero_problem():
    return BilinearProblem(
        A=np.zeros((2, 2)), B=np.zeros((2, 1)), Blist=(np.zeros((2, 2)),),
        g=np.zeros(2), x0=np.zeros(2), xd=np.zeros(2), tf=1.0, R=[[1.0]],
    )


@pytest.fixture(scope="module")
def iaf_run():
    prob = scalar_iaf()
    res = solve(prob, SolveOptions(steps=800, tol=1e-12, max_iters=60))
    assert res.converged
    return prob, res


def test_coupling_strengths_hand_value():
    prob = scalar_iaf()
    delta, zeta = coupling_strengths(prob)
    assert delta == pytest.approx(1.6, abs=1e-12)
    assert zeta == pytest.approx(1.6, abs=1e-12)


def test_coupling_strengths_vanish_for_linear():
    prob = linear_problem()
    delta, zeta = coupling_strengths(prob)
    assert delta == 0.0
    assert zeta == 0.0


def test_coupling_strengths_delta_zero_without_B():
    prob = BilinearProblem(
        A=np.zeros((2, 2)), B=np.zeros((2, 1)), Blist=(np.eye(2),), g=np.zeros(2),
        x0=np.zeros(2), xd=np.zeros(2), tf=1.0, R=[[2.0]],
    )
    delta, zeta = coupling_strengths(prob)
    assert delta == 0.0
    assert zeta > 0.0


def dense_coupling_strengths(prob):
    """The coupling strengths from the dense N_j, one n x n matrix at a time."""
    from bilqr.numkit import mat_norm

    N = bilinear_factors(prob.Blist).mats
    NR = N @ prob.Rinv
    delta_sq = zeta_sq = 0.0
    for i in range(prob.n):
        P = NR[i] @ prob.B.T
        delta_sq += mat_norm(P + P.T) ** 2
        for j in range(prob.n):
            E = NR[i] @ N[j].T
            zeta_sq += mat_norm(E + E.T) ** 2
    return np.sqrt(delta_sq), np.sqrt(zeta_sq)


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), q=st.integers(1, 4), b=st.integers(1, 3),
       m=st.integers(1, 2), with_B=st.booleans())
def test_coupling_strengths_match_the_dense_loop(seed, q, b, m, with_B):
    from scipy.linalg import block_diag

    rng = np.random.default_rng(seed)
    n = q * b
    C = rng.normal(size=(m, m))
    prob = BilinearProblem(
        A=np.zeros((n, n)), B=rng.normal(size=(n, m)) if with_B else np.zeros((n, m)),
        Blist=tuple(block_diag(*rng.normal(size=(q, b, b))) for _ in range(m)),
        g=np.zeros(n), x0=np.zeros(n), xd=np.zeros(n), tf=1.0,
        R=C @ C.T + np.eye(m), q=q,
    )
    delta, zeta = coupling_strengths(prob)
    ref_delta, ref_zeta = dense_coupling_strengths(prob)
    assert delta == pytest.approx(ref_delta, rel=1e-12, abs=0.0)
    assert zeta == pytest.approx(ref_zeta, rel=1e-12, abs=0.0)


def test_bounds_zero_for_zero_problem():
    prob = zero_problem()
    grid = TimeGrid(0.0, prob.tf, 100)
    res = solve(prob, SolveOptions(steps=100, tol=1e-14, max_iters=2))
    prev = res.final
    cur = iterate_once(prob, None, prev, grid)
    bounds = contraction_report(prob, None, prev, cur, grid, subsample=10).bounds
    # transition of the zero field is the identity: bounds reduce to plain
    # norms, all zero except the K-driven ones fed by the terminal condition
    assert np.all(np.isfinite(bounds))
    assert bounds[0] == 0.0  # affine trajectories vanish
    assert bounds[5] == 0.0  # state trajectories vanish


def test_bounds_identity_transition_hand_check(iaf_run):
    prob, res = iaf_run
    grid = res.final.x.grid
    prev = res.final
    cur = iterate_once(prob, None, prev, grid)
    bounds = contraction_report(prob, None, prev, cur, grid, subsample=10).bounds
    assert np.all(np.isfinite(bounds))
    assert np.all(bounds >= 0.0)
    # b7 and b9 share one defining expression
    assert bounds[6] == pytest.approx(bounds[8], rel=1e-12)


def test_contraction_matrix_zero_cases():
    M = contraction_matrix(np.zeros(9), 0.0, 0.0, 1.0, 1.0, 1.0, 1.0, tf=10.0)
    assert np.all(M == 0.0)
    M = contraction_matrix(np.ones(9), 0.0, 0.0, 1.0, 1.0, 1.0, 1.0, tf=10.0)
    assert np.all(M == 0.0)  # delta = zeta = 0 kills every entry


def test_contraction_matrix_column_dominance():
    # dominance per the strict-inequality argument requires the gain norm to
    # dominate the state norm; unit terminal weight puts the iterates there
    prob = scalar_iaf(weight=1.0)
    res = solve(prob, SolveOptions(steps=800, tol=1e-12, max_iters=60))
    assert res.converged
    grid = res.final.x.grid
    rep = contraction_report(prob, None, res.final,
                             iterate_once(prob, None, res.final, grid), grid)
    M = rep.M
    assert rep.zeta > 0.0
    for i in range(3):
        assert M[i, 0] >= M[i, 1] - 1e-12
        assert M[i, 0] >= M[i, 2] - 1e-12


def test_contraction_matrix_R_scaling_monotonicity(iaf_run):
    # recompute the full diagnostic chain with scaled R on frozen iterates
    prob, res = iaf_run
    grid = res.final.x.grid
    prev = res.final
    cur = iterate_once(prob, None, prev, grid)

    def M_for(scale):
        import dataclasses

        scaled = dataclasses.replace(prob, R=scale * prob.R)
        return contraction_report(scaled, None, prev, cur, grid).M

    M1 = M_for(1.0)
    for c in (2.0, 10.0):
        Mc = M_for(c)
        assert np.all(Mc <= M1 + 1e-12)


def test_criterion_check_values():
    crit, ok, rho = criterion_check(np.zeros((3, 3)))
    assert crit == 0.0 and ok and rho == 0.0
    M = np.zeros((3, 3))
    M[:, 0] = [0.5, 0.3, 0.1]
    crit, ok, rho = criterion_check(M)
    assert crit == pytest.approx(0.9)
    assert ok
    M[:, 0] = [0.5, 0.3, 0.3]
    crit, ok, _ = criterion_check(M)
    assert crit == pytest.approx(1.1)
    assert not ok


def test_criterion_sum_bounds_spectral_radius(iaf_run):
    prob, res = iaf_run
    grid = res.final.x.grid
    rep = contraction_report(prob, None, res.final,
                             iterate_once(prob, None, res.final, grid), grid)
    if rep.satisfied:
        assert rep.rho <= rep.criterion_sum + 1e-12


def random_problem(rng, q, b, m):
    """q samples of b states: block-diagonal drift and bilinear maps, a
    shared dense input map."""
    from scipy.linalg import block_diag

    n = q * b
    C = rng.normal(size=(m, m))
    return BilinearProblem(
        A=block_diag(*rng.normal(size=(q, b, b))), B=rng.normal(size=(n, m)),
        Blist=tuple(block_diag(*rng.normal(size=(q, b, b))) for _ in range(m)),
        g=rng.normal(size=n), x0=rng.normal(size=n), xd=rng.normal(size=n),
        tf=0.5, R=C @ C.T + m * np.eye(m), q=q,
    )


def stiff_problem():
    """Two uncontrolled states at rates 40 and -40: every closed-loop
    transition is numerically singular past t = 0.37."""
    return BilinearProblem(
        A=np.diag([40.0, -40.0]), B=np.zeros((2, 1)), Blist=(np.zeros((2, 2)),),
        g=np.zeros(2), x0=np.zeros(2), xd=[1.0, 0.0], tf=1.0, R=[[1.0]],
    )


def iterate_pairs(prob, steps, theta, count):
    """The (fed iterate, new iterate) pairs of `count` iterations, fed as
    `solve` feeds them under relaxation theta."""
    grid = TimeGrid(0.0, prob.tf, steps)
    state = _initial_state(prob, grid)
    frozen = state.x.values
    pairs = []
    for _ in range(count):
        feed = dataclasses.replace(state, x=GriddedTrajectory(grid, frozen))
        state = iterate_once(prob, None, feed, grid)
        pairs.append((feed, state))
        frozen = (1.0 - theta) * frozen + theta * state.x.values
    return grid, pairs


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), q=st.integers(1, 3), b=st.integers(1, 3),
       m=st.integers(1, 2), theta=st.sampled_from([1.0, 0.5]),
       alpha=st.sampled_from([0.0, 0.5]), data=st.data())
def test_batched_reports_equal_one_pair_reports(seed, q, b, m, theta, alpha, data):
    # blocks of any split give each pair its own report to the last bit; a
    # pair without gain sweeps (the boundary-value route) gets the infinite row
    prob = random_problem(np.random.default_rng(seed), q, b, m)
    grid, pairs = iterate_pairs(prob, 30, theta, 4)
    feed, state = pairs[1]
    pairs.insert(2, (feed, dataclasses.replace(state, K=None, s=None)))
    cuts = sorted(data.draw(st.sets(st.integers(1, len(pairs) - 1))))
    strengths = coupling_strengths(prob)
    batched = [report for lo, hi in zip([0] + cuts, cuts + [len(pairs)])
               for report in contraction_reports(prob, pairs[lo:hi], grid, alpha=alpha,
                                                 subsample=7, strengths=strengths)]
    assert len(batched) == len(pairs)
    for (prev, cur), got in zip(pairs, batched):
        want = contraction_report(prob, None, prev, cur, grid, alpha=alpha, subsample=7)
        assert np.array_equal(got.bounds, want.bounds, equal_nan=True)
        assert np.array_equal(got.M, want.M, equal_nan=True)
        assert (got.iteration, got.delta, got.zeta, got.criterion_sum, got.rho, got.satisfied) == (
            want.iteration, want.delta, want.zeta, want.criterion_sum, want.rho, want.satisfied)
    assert batched[2].criterion_sum == float("inf")


@pytest.mark.parametrize("case, count", [("random", 1), ("random", 2), ("random", 7),
                                         ("twospin", 7)])
def test_block_bounds_equal_the_negated_closed_loop_reference(monkeypatch, case, count):
    # the transition sweep gets minus the closed loop formed in place, O K - A;
    # the reference forms closed = A - O K and passes its negated swapped view.
    # The arrays are equal (a zero's sign aside, which the exact zeros of
    # twospin's A - O K flip) and laid out alike, and every report is the
    # same to the bit
    import bilqr.diagnostics as diagnostics_module
    from bilqr.scenarios import build

    prob = (random_problem(np.random.default_rng(count), 2, 3, 2) if case == "random" else
            build("twospin_coherence").problem)
    grid, pairs = iterate_pairs(prob, 30, 1.0, count)
    curs = [cur for _, cur in pairs]
    W = np.stack([cur.W.values for cur in curs])
    K = np.stack([cur.K.values for cur in curs])
    closed = prob.A - np.matmul(np.matmul(W, W.swapaxes(-1, -2)), K)
    reference = -closed.swapaxes(-1, -2).swapaxes(0, 1)
    original, seen = diagnostics_module.transition_norms, []

    def spied(A_nodes, grid, idx):
        seen.append((A_nodes.copy(), A_nodes.strides))
        return original(A_nodes, grid, idx)

    def negated_copy(A_nodes, grid, idx):
        return original(reference, grid, idx)

    strengths = coupling_strengths(prob)
    monkeypatch.setattr(diagnostics_module, "transition_norms", spied)
    got = contraction_reports(prob, pairs, grid, alpha=0.5, subsample=3, strengths=strengths,
                              reuse_fields=True)
    (A_nodes, strides), = seen

    def stepped(strides):  # a length-one axis's stride is never stepped
        return [step for step, size in zip(strides, reference.shape) if size > 1]

    assert np.array_equal(A_nodes, reference) and stepped(strides) == stepped(reference.strides)
    monkeypatch.setattr(diagnostics_module, "transition_norms", negated_copy)
    want = contraction_reports(prob, pairs, grid, alpha=0.5, subsample=3, strengths=strengths,
                               reuse_fields=True)
    for g, w in zip(got, want, strict=True):
        assert np.array_equal(g.bounds, w.bounds) and np.array_equal(g.M, w.M)
        assert (g.criterion_sum, g.rho, g.satisfied) == (w.criterion_sum, w.rho, w.satisfied)


def test_transition_failure_names_the_iteration_of_the_failing_pair():
    # the block's first pair has no gain sweeps and its second is regular;
    # a gain that makes the third pair's closed loop stiff (rates near 0 and
    # -83) makes its transitions singular from node 10 (t = 0.5) on
    prob = linear_problem()
    grid, pairs = iterate_pairs(prob, 40, 1.0, 3)
    (feed0, state0), _, (feed2, state2) = pairs
    stiff_gain = np.zeros((41, 2, 2))
    stiff_gain[:, 1, 1] = 160.0
    pairs[0] = (feed0, dataclasses.replace(state0, K=None, s=None))
    pairs[2] = (feed2, dataclasses.replace(state2, K=GriddedTrajectory(grid, stiff_gain)))
    with pytest.raises(TransitionInversionError,
                       match=r"^iteration 3: transition inversion failure at node 10 \(t=0.5\)$"):
        contraction_reports(prob, pairs, grid)
    assert np.isfinite(contraction_reports(prob, pairs[:2], grid)[1].criterion_sum)


def test_solve_raises_a_queued_transition_failure_before_a_later_sweep_error(monkeypatch):
    # the reports of iteration 1 are still queued when iteration 2's sweep
    # fails; they are formed first, so the error names iteration 1
    import bilqr.solver as solver_module

    calls = iter(range(10))
    original = solver_module.iterate_once

    def fail_second(*args):
        if next(calls) == 1:
            raise BlowupError("numerical blow-up at node 3 (t=0.15)", node_index=3, t=0.15)
        return original(*args)

    monkeypatch.setattr(solver_module, "iterate_once", fail_second)
    opts = SolveOptions(steps=20, max_iters=5, stop_rule="target", record_diagnostics=True)
    with pytest.raises(TransitionInversionError, match="^iteration 1: transition inversion"):
        solve(stiff_problem(), opts)


def test_linear_problem_certificate_fires():
    # no bilinear coupling: the bound matrix vanishes and the certificate holds
    prob = linear_problem()
    res = solve(prob, SolveOptions(steps=400, tol=1e-12, max_iters=4,
                                   record_diagnostics=True))
    assert res.converged
    rows = res.diagnostics.rows
    assert rows and rows[-1].satisfied
    assert rows[-1].criterion_sum == 0.0
    assert rows[-1].rho <= rows[-1].criterion_sum + 1e-12
    assert res.diagnostics.crossover_iteration == 1


def test_hjb_residual_zero_problem():
    prob = zero_problem()
    res = solve(prob, SolveOptions(steps=100, tol=1e-14, max_iters=2))
    rep = hjb_residual(prob, None, res.final, res.final.x.grid)
    assert rep.sup < 1e-14


def test_hjb_residual_linear_problem():
    prob = linear_problem()
    res = solve(prob, SolveOptions(steps=2000, tol=1e-12))
    rep = hjb_residual(prob, None, res.final, res.final.x.grid)
    assert rep.sup < 1e-6


def test_hjb_residual_converged_iaf(iaf_run):
    prob, res = iaf_run
    rep = hjb_residual(prob, None, res.final, res.final.x.grid)
    assert rep.relative < 1e-3


def test_necessary_condition_residuals():
    prob = zero_problem()
    res = solve(prob, SolveOptions(steps=100, tol=1e-14, max_iters=2))
    rx, rp = necessary_condition_residual(prob, res.final, res.final.x.grid)
    assert rx < 1e-14 and rp < 1e-14

    prob = linear_problem()
    res = solve(prob, SolveOptions(steps=2000, tol=1e-12))
    rx, rp = necessary_condition_residual(prob, res.final, res.final.x.grid)
    assert rx < 1e-4 and rp < 1e-4


def test_necessary_condition_residuals_match_per_node_frozen_coefficients():
    # random 3-sample ensemble (sample size 2, m = 2) at a random (x, p)
    from types import SimpleNamespace

    from scipy.linalg import block_diag

    from bilqr.model import frozen_drift, frozen_gram

    rng = np.random.default_rng(11)
    q, b, m = 3, 2, 2
    n = q * b
    prob = BilinearProblem(
        A=block_diag(*rng.normal(size=(q, b, b))), B=rng.normal(size=(n, m)),
        Blist=tuple(block_diag(*rng.normal(size=(q, b, b))) for _ in range(m)),
        g=rng.normal(size=n), x0=np.zeros(n), xd=np.zeros(n), tf=1.0,
        R=[[2.0, 0.5], [0.5, 1.0]],
    )
    factors = bilinear_factors(prob.Blist)
    grid = TimeGrid(0.0, prob.tf, 30)
    X = rng.normal(size=(31, n))
    P = rng.normal(size=(31, n))
    final = SimpleNamespace(x=GriddedTrajectory(grid, X), p=GriddedTrajectory(grid, P))
    rx, rp = necessary_condition_residual(prob, final, grid)

    drift = [frozen_drift(prob, factors, x, p) for x, p in zip(X, P)]
    rhs_x = np.stack([D @ x - frozen_gram(prob, factors, x) @ p + prob.g
                      for D, x, p in zip(drift, X, P)])
    rhs_p = np.stack([-D.T @ p for D, p in zip(drift, P)])

    def residual(Y, rhs):
        ydot = (Y[2:] - Y[:-2]) / (2.0 * grid.h)
        res = np.max(np.sum(np.abs(ydot - rhs[1:-1]), axis=1))
        return res / (1.0 + np.max(np.sum(np.abs(rhs), axis=1)))

    assert rx == pytest.approx(residual(X, rhs_x), rel=1e-12)
    assert rp == pytest.approx(residual(P, rhs_p), rel=1e-12)


def test_necessary_condition_residuals_iaf(iaf_run):
    prob, res = iaf_run
    rx, rp = necessary_condition_residual(prob, res.final, res.final.x.grid)
    assert rx < 1e-3 and rp < 1e-3
