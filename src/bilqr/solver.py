"""Iterative frozen-coefficient solver.

Each iteration freezes the state-dependent input map L(x) = B + sum x_j N_j
along the previous state trajectory and solves the resulting affine
linear-quadratic subproblem

    min (1/2) int u' R u dt + w ||x(tf) - xd||^2
    s.t. dx/dt = A x + L_prev(t) u + g

by one backward Riccati sweep, one backward affine sweep and one forward
closed-loop propagation, then reconstructs the costate p = K x + s and the
control u = -R^-1 L(x)' p.  The offset q of the value function
V = x'Kx/2 + x's + q/2 enters neither, so it is not integrated.  The loop
stops on an iterate-difference or target-distance rule.

At a fixed point the state satisfies the original bilinear dynamics under
the reconstructed control exactly, which the resimulation check measures
(the dynamic-programming residual in diagnostics cancels identically for
any iterate and certifies nothing).  The frozen quadratic weight
L_prev R^-1 L_prev' is positive semidefinite, so the backward Riccati flow
cannot escape; the literal change-of-variables weight B R^-1 B' - C R^-1 C'
can be indefinite and makes the backward flow escape in finite time on
broadcast ensembles (it is kept as a diagnostic quantity, see the model
module).

Every sweep, both passes of the boundary-value route, the initial flow and
the bilinear resimulation are one call of numkit.rk4_sweep, whose
right-hand side takes the coefficients as stage tables: arrays at the grid
nodes and interval midpoints, in the structure the problem has.  The
drift A comes as its diagonal blocks (q, b, b), one per sample, and the
input gram L R^-1 L', whose rank is at most m, as its factor
W = L C with R^-1 = C C'.  Every product with the gram is taken through W,
so an RK4 stage costs O(n^2 m + n b^2) instead of the O(n^3) of dense
n x n products, and no (T, n, n) gram table is formed.  One (T + 1, n, n)
gain table is alive per iteration: K midpoints are formed in small blocks,
and spent sweeps are released unless the diagnostics need them.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass

import numpy as np

from .model import BilinearFactors, BilinearProblem, bilinear_factors
from .numkit import BlowupError, GriddedTrajectory, TimeGrid, midpoints, rk4_sweep

__all__ = [
    "IterationState",
    "SolveOptions",
    "SolveResult",
    "RiccatiEscapeError",
    "BoundarySolveError",
    "riccati_sweep",
    "affine_sweep",
    "closed_loop_forward",
    "solve_frozen_boundary_value",
    "reconstruct_control",
    "iterate_once",
    "solve",
    "evaluate_cost",
    "simulate_bilinear",
]

STOP_RULES = ("diff", "target", "both")


class RiccatiEscapeError(RuntimeError):
    """Finite-escape of the backward Riccati flow.

    Signals that R is too small or the horizon too long for the frozen
    subproblem to stay bounded.
    """

    def __init__(self, message: str, node_index: int, t: float):
        super().__init__(message)
        self.node_index = node_index
        self.t = t


class BoundarySolveError(RuntimeError):
    """The frozen two-point boundary-value system is singular."""


@dataclass(frozen=True)
class IterationState:
    """One iterate: trajectories, cost, and the difference to its predecessor.

    K, s hold the gain/affine sweeps of the frozen subproblem and satisfy
    p = K x + s node-wise.  The frozen quadratic weight is positive
    semidefinite, so the backward Riccati flow should not escape; if it does
    on pathological data, the linear boundary-value route computes the
    iterate and K, s are None: K None marks that route.  Without recorded
    diagnostics only `SolveResult.final` carries K, s: `solve` drops them
    from spent iterates.  x, p, u, cost are always present.
    """

    k: int
    x: GriddedTrajectory
    p: GriddedTrajectory
    u: GriddedTrajectory
    K: GriddedTrajectory | None
    s: GriddedTrajectory | None
    cost: float
    diff_x: float


@dataclass(frozen=True)
class SolveOptions:
    """Solve controls.

    `relaxation` blends the frozen coefficient trajectory between iterations
    (1.0 is the plain fixed-point map; smaller values damp oscillatory
    transients).  `init_control` is a constant probe amplitude used to
    generate the initial state trajectory; a nonzero probe is needed when
    the uncontrolled flow sits on an invariant set of the iteration map
    (e.g. a coherence-transfer problem started in a dark state).
    """

    steps: int = 2000
    max_iters: int = 100
    stop_rule: str = "diff"
    tol: float = 1e-12
    alpha: float = 0.0
    record_diagnostics: bool = False
    diag_subsample: int = 10
    relaxation: float = 1.0
    init_control: float = 0.0

    def __post_init__(self):
        if self.steps < 2:
            raise ValueError("steps must be >= 2")
        if not self.alpha >= 0:
            raise ValueError("alpha must be >= 0")
        if not self.tol > 0:
            raise ValueError("tol must be positive")
        if self.max_iters < 1:
            raise ValueError("max_iters must be >= 1")
        if self.stop_rule not in STOP_RULES:
            raise ValueError(f"stop_rule must be one of {STOP_RULES}")
        if self.diag_subsample < 1:
            raise ValueError("diag_subsample must be >= 1")
        if not 0.0 < self.relaxation <= 1.0:
            raise ValueError("relaxation must lie in (0, 1]")


@dataclass(frozen=True)
class SolveResult:
    final: IterationState
    converged: bool
    iterations_used: int
    history: tuple  # (k, diff_x, cost) rows
    diagnostics: object = None


def drift_blocks(A: np.ndarray) -> np.ndarray:
    """Diagonal blocks (q, b, b) of the finest equal block split of A.

    b is the smallest divisor of n such that A vanishes outside its b x b
    diagonal blocks: 1 for a diagonal (or zero) drift, the sample size for
    a stacked ensemble, n for a dense single system.
    """
    A = np.asarray(A, dtype=float)
    n = A.shape[0]
    nonzero = np.count_nonzero(A)
    for b in (b for b in range(1, n + 1) if n % b == 0):
        q = n // b
        blocks = A.reshape(q, b, q, b)[np.arange(q), :, np.arange(q), :]
        if np.count_nonzero(blocks) == nonzero:
            return np.ascontiguousarray(blocks)


def _block_product(blocks: np.ndarray):
    """y -> blockdiag(blocks) @ y for y of shape (n,) or (n, k)."""
    q, b, _ = blocks.shape
    if q == 1:
        dense = blocks[0]
        return lambda y: np.dot(dense, y)
    return lambda y: np.matmul(blocks, y.reshape(q, b, -1)).reshape(y.shape)


def freeze_iteration_fields(
    prob: BilinearProblem,
    factors: BilinearFactors,
    X: np.ndarray,
) -> tuple[np.ndarray, np.ndarray]:
    """Factor of the input gram L R^-1 L' frozen along X, at the stage times.

    Returns W = L C (R^-1 = C C') at the nodes, (T + 1, n, m), and
    [W_i, W_i+1] / sqrt(2) at the interval midpoints, (T, n, 2 m), whose
    gram is the average of the two node grams.
    """
    lam = prob.B + np.tensordot(X, factors.mats, axes=(1, 0))  # (T, n, m)
    W = lam @ np.linalg.cholesky(prob.Rinv)
    return W, np.concatenate((W[:-1], W[1:]), axis=2) * np.sqrt(0.5)


def _riccati_escape(node: int, t: float) -> Exception:
    return RiccatiEscapeError(
        f"Riccati escape at t={t:.6g}; try increasing R", node_index=node, t=t
    )


def _boundary_error(node: int, t: float) -> Exception:
    return BoundarySolveError(
        "frozen boundary-value system produced non-finite data; try increasing R"
    )


def riccati_sweep(
    A_blocks: np.ndarray,
    W_nodes: np.ndarray,
    W_mids: np.ndarray,
    K_T: np.ndarray,
    grid: TimeGrid,
) -> GriddedTrajectory:
    """Backward sweep of dK/dt = -K A - A' K + (K W)(K W)' from K(tf) = K_T.

    A is block-diagonal with the given blocks and W W' is the input gram at
    the stage time.  The output is re-symmetrized after every step to
    suppress drift.
    """
    K_T = np.asarray(K_T, dtype=float)
    if np.max(np.abs(K_T - K_T.T)) > 1e-10 * max(1.0, np.max(np.abs(K_T))):
        raise ValueError("terminal Riccati matrix must be symmetric")
    At = _block_product(np.transpose(A_blocks, (0, 2, 1)))

    def rhs(K, W):
        KW = np.dot(K, W)
        out = np.dot(KW, KW.T)
        AtK = At(K)
        out -= AtK
        out -= AtK.T
        return out

    return rk4_sweep(rhs, 0.5 * (K_T + K_T.T), grid, (W_nodes,), (W_mids,), backward=True,
                     project=lambda K: 0.5 * (K + K.T), error=_riccati_escape)


def affine_sweep(
    A_blocks: np.ndarray,
    W_nodes: np.ndarray,
    W_mids: np.ndarray,
    Ktraj: GriddedTrajectory,
    g: np.ndarray,
    s_T: np.ndarray,
    grid: TimeGrid,
) -> GriddedTrajectory:
    """Backward sweep of ds/dt = K (W W' s - g) - A' s from s(tf) = s_T.

    K is interpolated linearly at the RK4 stage times; its midpoints are
    formed in small blocks, and K g is not tabulated.
    """
    g = np.asarray(g, dtype=float)
    At = _block_product(np.transpose(A_blocks, (0, 2, 1)))

    def rhs(s, W, K):
        out = np.dot(K, np.dot(W, np.dot(W.T, s)) - g)
        out -= At(s)
        return out

    return rk4_sweep(rhs, s_T, grid, (W_nodes, Ktraj.values), (W_mids, None), backward=True)


def _gram_times(W: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Node-wise W W' v for W of shape (T, n, r) and v of shape (T, n)."""
    Wtv = np.matmul(v[:, np.newaxis, :], W)  # (T, 1, r)
    return np.matmul(W, np.transpose(Wtv, (0, 2, 1)))[:, :, 0]


def closed_loop_forward(
    A_blocks: np.ndarray,
    W_nodes: np.ndarray,
    W_mids: np.ndarray,
    Ktraj: GriddedTrajectory,
    straj: GriddedTrajectory,
    g: np.ndarray,
    x0: np.ndarray,
    grid: TimeGrid,
) -> GriddedTrajectory:
    """Forward sweep of dx/dt = (A - W W' K) x - W W' s + g from x(0) = x0."""
    g = np.asarray(g, dtype=float)
    A = _block_product(A_blocks)
    K_n = Ktraj.values
    s_n = straj.values

    def rhs(x, W, K, Os):
        out = A(x)
        out -= np.dot(W, np.dot(W.T, np.dot(K, x)))
        out -= Os
        return out

    return rk4_sweep(rhs, x0, grid, (W_nodes, K_n, _gram_times(W_nodes, s_n) - g),
                     (W_mids, None, _gram_times(W_mids, midpoints(s_n)) - g))


def reconstruct_control(
    prob: BilinearProblem,
    factors: BilinearFactors,
    xtraj: GriddedTrajectory,
    ptraj: GriddedTrajectory,
) -> GriddedTrajectory:
    """Node-wise u = -R^-1 L(x)' p along the given trajectories."""
    X = xtraj.values
    P = ptraj.values
    lam = prob.B + np.einsum("tj,jki->tki", X, factors.mats)
    rhs = np.einsum("tki,tk->ti", lam, P)
    U = -(prob.Rinv @ rhs.T).T
    return GriddedTrajectory(xtraj.grid, U)


def evaluate_cost(prob: BilinearProblem, utraj: GriddedTrajectory, x_tf: np.ndarray) -> float:
    """Trapezoidal control energy plus the weighted terminal penalty."""
    U = utraj.values
    e = np.einsum("ti,ij,tj->t", U, prob.R, U)
    h = utraj.grid.h
    energy = 0.5 * h * (np.sum(e) - 0.5 * (e[0] + e[-1]))
    miss = np.asarray(x_tf, dtype=float) - prob.xd
    return float(energy + prob.terminal_weight * np.dot(miss, miss))


def solve_frozen_boundary_value(
    prob: BilinearProblem,
    A_blocks: np.ndarray,
    W_nodes: np.ndarray,
    W_mids: np.ndarray,
    grid: TimeGrid,
) -> tuple[GriddedTrajectory, GriddedTrajectory]:
    """Solve the frozen linear two-point boundary-value problem directly.

    The frozen costate flows autonomously backward, so p(t) = Theta(t) c
    with Theta the backward fundamental matrix and c = p(tf); the state is
    affine in c.  All flows are linear, so this route has no finite escape
    and remains usable when the Riccati representation hits a conjugate
    point.  Raises BoundarySolveError if the terminal condition cannot
    determine c.
    """
    n = prob.n
    w = prob.terminal_weight
    A = _block_product(A_blocks)
    At = _block_product(np.transpose(A_blocks, (0, 2, 1)))

    # backward fundamental of dp/dt = -A' p, Theta(tf) = I
    theta = rk4_sweep(lambda Th: -At(Th), np.eye(n), grid, backward=True,
                      error=_boundary_error).values

    # forward: Y = [X_c | phi] with dX_c/dt = A X_c - W W' Theta, dphi/dt = A phi + g
    def rhs(Yv, W, Thi):
        out = A(Yv)
        out[:, :n] -= np.dot(W, np.dot(W.T, Thi))
        out[:, n] += prob.g
        return out

    Y0 = np.zeros((n, n + 1))
    Y0[:, n] = prob.x0
    stored = rk4_sweep(rhs, Y0, grid, (W_nodes, theta), (W_mids, None),
                       error=_boundary_error).values

    Xc_f = stored[-1, :, :n]
    phi_f = stored[-1, :, n]
    M = np.eye(n) - 2.0 * w * Xc_f
    try:
        c = np.linalg.solve(M, 2.0 * w * (phi_f - prob.xd))
    except np.linalg.LinAlgError as exc:
        raise BoundarySolveError(
            "frozen boundary-value system singular; try increasing R"
        ) from exc
    if not np.all(np.isfinite(c)):
        raise _boundary_error(grid.steps, grid.tf)
    X = stored[:, :, :n] @ c + stored[:, :, n]
    P = theta @ c
    return GriddedTrajectory(grid, X), GriddedTrajectory(grid, P)


def iterate_once(
    prob: BilinearProblem,
    factors: BilinearFactors,
    prev: IterationState,
    grid: TimeGrid,
) -> IterationState:
    """One pass of the frozen-coefficient map applied to `prev`.

    The frozen subproblem is a well-posed affine LQR (its input gram is
    positive semidefinite), so the sweep route is expected to succeed; a
    Riccati escape would indicate pathological data and falls back to the
    direct boundary-value route, which computes the same iterate wherever
    both are defined.  `diff_x` measures how far the map moved the state
    away from its argument.
    """
    w = prob.terminal_weight
    Ab = drift_blocks(prob.A)
    Wn, Wm = freeze_iteration_fields(prob, factors, prev.x.values)
    try:
        K = riccati_sweep(Ab, Wn, Wm, 2.0 * w * np.eye(prob.n), grid)
        s = affine_sweep(Ab, Wn, Wm, K, prob.g, -2.0 * w * prob.xd, grid)
        x = closed_loop_forward(Ab, Wn, Wm, K, s, prob.g, prob.x0, grid)
        P = np.einsum("tij,tj->ti", K.values, x.values) + s.values
        p = GriddedTrajectory(grid, P)
    except RiccatiEscapeError:
        x, p = solve_frozen_boundary_value(prob, Ab, Wn, Wm, grid)
        K = s = None
    u = reconstruct_control(prob, factors, x, p)
    cost = evaluate_cost(prob, u, x.values[-1])
    diff = float(np.max(np.sum(np.abs(x.values - prev.x.values), axis=1)))
    return IterationState(k=prev.k + 1, x=x, p=p, u=u, K=K, s=s, cost=cost, diff_x=diff)


def _initial_state(prob: BilinearProblem, grid: TimeGrid, probe: float = 0.0) -> IterationState:
    """Iteration 0: the flow under a constant probe control (zero by default).

    A nonzero probe breaks invariant sets of the iteration map on which the
    frozen input map is blind to the target (dark initial states).
    """
    T = grid.steps + 1
    u0 = np.full(prob.m, probe)
    coupling = prob.A + np.tensordot(u0, np.stack(prob.Blist), axes=(0, 0))
    drive = prob.B @ u0 + prob.g
    x = rk4_sweep(lambda y: coupling @ y + drive, prob.x0, grid)
    u_traj = GriddedTrajectory(grid, np.tile(u0, (T, 1)))
    zeros_n = GriddedTrajectory(grid, np.zeros((T, prob.n)))
    zeros_nn = GriddedTrajectory(grid, np.zeros((T, prob.n, prob.n)))
    cost = evaluate_cost(prob, u_traj, x.values[-1])
    return IterationState(
        k=0, x=x, p=zeros_n, u=u_traj, K=zeros_nn, s=zeros_n,
        cost=cost, diff_x=float("inf"),
    )


def _stop_satisfied(prob: BilinearProblem, state: IterationState, opts: SolveOptions) -> bool:
    diff_ok = state.diff_x < opts.tol
    if opts.stop_rule == "diff":
        return diff_ok
    target_ok = float(np.linalg.norm(state.x.values[-1] - prob.xd)) <= opts.tol
    if opts.stop_rule == "target":
        return target_ok
    return diff_ok and target_ok


def solve(prob: BilinearProblem, opts: SolveOptions | None = None) -> SolveResult:
    """Run the fixed-point loop until the stop rule fires or iterations run out.

    With relaxation < 1 the trajectory fed to the freeze is a running blend
    of past iterates (the fixed points are unchanged), and the contraction
    diagnostics pair each iterate with that blend.  Non-convergence is
    a result (converged=False), not an error; sweep blow-ups raise with the
    iteration index attached.
    """
    opts = opts or SolveOptions()
    grid = TimeGrid(0.0, prob.tf, opts.steps)
    factors = bilinear_factors(prob.Blist)

    state = _initial_state(prob, grid, probe=opts.init_control)
    frozen_x = state.x.values
    history = [(0, state.diff_x, state.cost)]
    reports = []
    converged = False
    iterations = 0
    theta = opts.relaxation

    if opts.record_diagnostics:
        from . import diagnostics as _diag

        strengths = _diag.coupling_strengths(prob, factors)

    for k in range(1, opts.max_iters + 1):
        if not opts.record_diagnostics:
            # only contraction_report reads spent sweeps; `state` holds the
            # last reference, so the gain table is freed before the next one
            state = dataclasses.replace(state, K=None, s=None)
        feed = state if theta == 1.0 else dataclasses.replace(
            state, x=GriddedTrajectory(grid, frozen_x))
        try:
            state = iterate_once(prob, factors, feed, grid)
        except (RiccatiEscapeError, BoundarySolveError, BlowupError) as exc:
            exc.args = (f"iteration {k}: {exc.args[0]}",) + exc.args[1:]
            raise
        if opts.record_diagnostics:
            reports.append(
                _diag.contraction_report(
                    prob, factors, feed, state, grid,
                    alpha=opts.alpha, subsample=opts.diag_subsample,
                    strengths=strengths,
                )
            )
        history.append((k, state.diff_x, state.cost))
        frozen_x = state.x.values if theta == 1.0 else (
            (1.0 - theta) * frozen_x + theta * state.x.values)
        iterations = k
        if _stop_satisfied(prob, state, opts):
            converged = True
            break

    diagnostics = None
    if opts.record_diagnostics:
        from .diagnostics import ConvergenceReport

        diagnostics = ConvergenceReport(rows=tuple(reports))
    return SolveResult(
        final=state,
        converged=converged,
        iterations_used=iterations,
        history=tuple(history),
        diagnostics=diagnostics,
    )


def simulate_bilinear(
    prob: BilinearProblem,
    utraj: GriddedTrajectory,
    grid: TimeGrid | None = None,
) -> GriddedTrajectory:
    """Forward RK4 of the original bilinear dynamics with u interpolated.

    `grid` defaults to the control's own grid; a finer grid may be passed
    for refinement checks.  u is tabulated once at the grid's nodes and
    interval midpoints.
    """
    grid = grid or utraj.grid
    Bs = np.stack(prob.Blist)  # (m, n, n)

    def rhs(x, u):
        coupling = np.tensordot(u, Bs, axes=(0, 0))
        return prob.A @ x + prob.B @ u + coupling @ x + prob.g

    t = grid.nodes
    return rk4_sweep(rhs, prob.x0, grid, (utraj.at(t),), (utraj.at(midpoints(t)),))
