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

The Riccati sweep and both passes of the boundary-value route are each one
call of numkit.rk4_sweep; the affine and closed-loop sweeps, the initial
flow and the bilinear resimulation are linear, and each is one right-hand
side handed to numkit.linear_sweep, which takes rk4_sweep's arguments
(tables of vectors as (steps + 1, 1, n)) and steps systems of at most
numkit.STEP_MAPS_MAX_N states by precomputed RK4 step maps; the
resimulation is a block sweep, one system per sample.  The right-hand sides act on rows and take the
coefficients as stage tables: arrays at the grid nodes and interval
midpoints, in the structure the problem has.  The drift A comes as its
prob.q diagonal blocks (q, b, b), one per sample, and the input gram
L R^-1 L', whose rank is at most m, as its factor W = L C with
R^-1 = C C'.  Every product with the gram is taken through W, so an RK4
stage costs O(n^2 m + n b^2) instead of the O(n^3) of dense n x n
products, and no (T, n, n) gram table is formed.  The Riccati right-hand
side, exactly symmetric, takes the blocks' form (`riccati_sweep`): a
Hadamard Lyapunov term for 1 x 1 blocks, the dense one for one block and
a batched block product for larger blocks.  One (T + 1, n, n) gain
table is alive per iteration: K midpoints and step maps are formed in
small blocks, and spent sweeps are released unless the diagnostics need
them.  The frozen input map L(x) is `model.input_gain`, formed sample by
sample from the problem's blocks (`BilinearProblem.blocks`), and the
resimulation steps the same blocks through `model.bilinear_field`, the
field of the Monte Carlo paths.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass

import numpy as np

from .model import BilinearProblem, bilinear_field, input_gain
from .numkit import (_MID_BLOCK_BYTES, BlowupError, GriddedTrajectory, TimeGrid, linear_sweep,
                     midpoints, rk4_sweep)

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
    semidefinite, so the exact backward Riccati flow does not escape, but its
    RK4 sweep does on a grid too coarse for a stiff drift (and on
    pathological data); then the linear boundary-value route computes the
    iterate and K, s are None: K None marks that route.  W is the input
    factor (T + 1, n, m) frozen along the fed state to make the iterate
    (None on iteration 0), which `solve`'s contraction reports read.
    Without recorded diagnostics only `SolveResult.final` carries K, s, W:
    `solve` drops them from spent iterates.  x, p, u, cost are always
    present.
    """

    k: int
    x: GriddedTrajectory
    p: GriddedTrajectory
    u: GriddedTrajectory
    K: GriddedTrajectory | None
    s: GriddedTrajectory | None
    cost: float
    diff_x: float
    W: GriddedTrajectory | None = None


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


def _block_product(blocks: np.ndarray):
    """y -> y @ blockdiag(blocks) for a row y (n,) or rows (k, n), taken as
    (blockdiag(blocks') @ y')', which reads the columns of y' in place.
    Blocks of one state are a diagonal, applied as a column scaling: the
    same numbers as the batched product of 1 x 1 matrices."""
    q, b, _ = blocks.shape
    if q == 1:
        dense = blocks[0]
        return lambda y: np.dot(y, dense)
    if b == 1:
        diag = blocks[:, 0, 0].copy()
        return lambda y: y * diag
    blocks_t = np.ascontiguousarray(blocks.swapaxes(1, 2))
    return lambda y: np.matmul(blocks_t, y.T.reshape(q, b, -1)).reshape(y.T.shape).T


def freeze_iteration_fields(prob: BilinearProblem, X: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Factor of the input gram L R^-1 L' frozen along X, at the stage times.

    Returns W = L C (R^-1 = C C') at the nodes, (T + 1, n, m), and
    [W_i, W_i+1] / sqrt(2) at the interval midpoints, (T, n, 2 m), whose
    gram is the average of the two node grams; a stack of tables X
    (..., T + 1, n) gives stacks of both.
    """
    W = input_gain(prob, X) @ np.linalg.cholesky(prob.Rinv)
    return W, np.concatenate((W[..., :-1, :, :], W[..., 1:, :, :]), axis=-1) * np.sqrt(0.5)


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

    A is block-diagonal with the given (q, b, b) blocks and W W' is the input
    gram at the stage time.  The right-hand side takes the blocks' form:

    - one dense block (q = 1): (K W)(K W)' - (K A + (K A)'), numpy's product
      of K W with its own transpose being symmetric to the last bit;
    - 1 x 1 blocks (b = 1), a diagonal a: K A + A' K = K * S with
      S_ij = a_i + a_j, so (K W)(K W)' - K * S, both terms symmetric to the
      last bit as K and S are;
    - q > 1 blocks of b > 1: H + H' with H = (K W / 2)(K W)' - A' K, a GEMM
      of two buffers (faster than the symmetric product and its triangle
      copy on large ensembles) and one batched product of the blocks with
      K's row blocks; X + X' is symmetric whatever the GEMM's rounding.

    So every RK4 step keeps K exactly symmetric.  A K_T that is not finite
    or not symmetric raises ValueError.
    """
    K_T = np.asarray(K_T, dtype=float)
    if not np.isfinite(K_T).all():
        raise ValueError("terminal Riccati matrix must be finite")
    if np.max(np.abs(K_T - K_T.T)) > 1e-10 * max(1.0, np.max(np.abs(K_T))):
        raise ValueError("terminal Riccati matrix must be symmetric")
    q, b, _ = A_blocks.shape

    if q == 1:
        dense = A_blocks[0]

        def rhs(K, W):
            KW = np.dot(K, W)
            out = np.dot(KW, KW.T)
            KA = np.dot(K.T, dense)  # K A, as K is exactly symmetric; K' is the layout read fastest
            out -= KA + KA.T
            return out
    elif b == 1:
        diag = A_blocks[:, 0, 0]
        S = diag[:, np.newaxis] + diag

        def rhs(K, W):
            KW = np.dot(K, W)
            out = np.dot(KW, KW.T)
            out -= K * S
            return out
    else:
        blocks_t = np.ascontiguousarray(A_blocks.swapaxes(1, 2))

        def rhs(K, W):
            KW = np.dot(K, W)
            H = np.dot(0.5 * KW, KW.T)
            H -= np.matmul(blocks_t, K.reshape(q, b, -1)).reshape(K.shape)
            return H + H.T

    return rk4_sweep(rhs, 0.5 * (K_T + K_T.T), grid, (W_nodes,), (W_mids,), backward=True,
                     error=_riccati_escape)


def affine_sweep(
    A_blocks: np.ndarray,
    W_nodes: np.ndarray,
    W_mids: np.ndarray,
    Ktraj: GriddedTrajectory,
    g: np.ndarray,
    s_T: np.ndarray,
    grid: TimeGrid,
) -> GriddedTrajectory:
    """Backward sweep of ds/dt = K (W W' s - g) - A' s from s(tf) = s_T,
    one numkit.linear_sweep with K interpolated linearly at the RK4 stage
    times (its midpoints formed in small blocks).  K is exactly symmetric,
    so the row s' K is K s.
    """
    g = np.asarray(g, dtype=float)
    times_A = _block_product(A_blocks)

    def rhs(s, W, K):
        return ((s @ W) @ W.swapaxes(-1, -2) - g) @ K - times_A(s)

    return linear_sweep(rhs, s_T, grid, (W_nodes, Ktraj.values), (W_mids, None), backward=True)


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
    """Forward sweep of dx/dt = A x - W W' (K x + s) + g from x(0) = x0, one
    numkit.linear_sweep of x as a row, with K and s as in the affine sweep."""
    g = np.asarray(g, dtype=float)
    times_At = _block_product(A_blocks.swapaxes(1, 2))

    def rhs(x, W, K, s):
        return times_At(x) - ((x @ K + s) @ W) @ W.swapaxes(-1, -2) + g

    s_rows = straj.values[:, np.newaxis]
    x = linear_sweep(rhs, np.reshape(x0, (1, -1)), grid, (W_nodes, Ktraj.values, s_rows),
                     (W_mids, None, None))
    return GriddedTrajectory(grid, x.values[:, 0])


def reconstruct_control(
    prob: BilinearProblem,
    xtraj: GriddedTrajectory,
    ptraj: GriddedTrajectory,
) -> GriddedTrajectory:
    """Node-wise u = -R^-1 L(x)' p along the given trajectories."""
    lam = input_gain(prob, xtraj.values)
    rhs = np.einsum("tki,tk->ti", lam, ptraj.values)
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
    times_A = _block_product(A_blocks)
    times_At = _block_product(A_blocks.swapaxes(1, 2))

    # backward fundamental of dp/dt = -A' p as rows, Theta', Theta(tf) = I
    theta_rows = rk4_sweep(lambda Th: -times_A(Th), np.eye(n), grid, backward=True,
                           error=_boundary_error).values

    # forward rows Y = [X_c'; phi'] with dX_c/dt = A X_c - W W' Theta, dphi/dt = A phi + g
    def rhs(Yv, W, Th):
        out = times_At(Yv)
        out[:n] -= np.dot(np.dot(Th, W), W.T)
        out[n] += prob.g
        return out

    Y0 = np.zeros((n + 1, n))
    Y0[n] = prob.x0
    stored = rk4_sweep(rhs, Y0, grid, (W_nodes, theta_rows), (W_mids, None),
                       error=_boundary_error).values

    Xc_f = stored[-1, :n].T
    phi_f = stored[-1, n]
    M = np.eye(n) - 2.0 * w * Xc_f
    try:
        c = np.linalg.solve(M, 2.0 * w * (phi_f - prob.xd))
    except np.linalg.LinAlgError as exc:
        raise BoundarySolveError(
            "frozen boundary-value system singular; try increasing R"
        ) from exc
    if not np.all(np.isfinite(c)):
        raise _boundary_error(grid.steps, grid.tf)
    X = c @ stored[:, :n] + stored[:, n]
    P = c @ theta_rows
    return GriddedTrajectory(grid, X), GriddedTrajectory(grid, P)


def iterate_once(prob: BilinearProblem, factors, prev: IterationState,
                 grid: TimeGrid) -> IterationState:
    """One pass of the frozen-coefficient map applied to `prev`.

    The frozen subproblem is a well-posed affine LQR (its input gram is
    positive semidefinite), so its exact Riccati flow is bounded.  The RK4
    Riccati sweep still escapes when the grid is too coarse for a stiff drift
    (a step times the drift's rate beyond RK4's stability interval), or on
    pathological data; the iterate then comes from the direct boundary-value
    route, which computes the same iterate wherever both are defined.
    `diff_x` measures how far the map moved the state away from its argument.
    `factors` is unread (the problem's blocks give L(x)); it stays so that
    positional callers keep working, and `solve` passes None.
    """
    w = prob.terminal_weight
    Ab = prob.blocks[0]
    Wn, Wm = freeze_iteration_fields(prob, prev.x.values)
    try:
        K = riccati_sweep(Ab, Wn, Wm, 2.0 * w * np.eye(prob.n), grid)
        s = affine_sweep(Ab, Wn, Wm, K, prob.g, -2.0 * w * prob.xd, grid)
        x = closed_loop_forward(Ab, Wn, Wm, K, s, prob.g, prob.x0, grid)
        P = np.einsum("tij,tj->ti", K.values, x.values) + s.values
        p = GriddedTrajectory(grid, P)
    except RiccatiEscapeError:
        x, p = solve_frozen_boundary_value(prob, Ab, Wn, Wm, grid)
        K = s = None
    u = reconstruct_control(prob, x, p)
    cost = evaluate_cost(prob, u, x.values[-1])
    diff = float(np.max(np.sum(np.abs(x.values - prev.x.values), axis=1)))
    return IterationState(k=prev.k + 1, x=x, p=p, u=u, K=K, s=s, cost=cost, diff_x=diff,
                          W=GriddedTrajectory(grid, Wn))


def _initial_state(prob: BilinearProblem, grid: TimeGrid, probe: float = 0.0) -> IterationState:
    """Iteration 0: the flow under a constant probe control (zero by default).

    A nonzero probe breaks invariant sets of the iteration map on which the
    frozen input map is blind to the target (dark initial states).
    """
    T = grid.steps + 1
    u0 = np.full(prob.m, probe)
    coupling = prob.A + np.tensordot(u0, np.stack(prob.Blist), axes=(0, 0))
    drive = prob.B @ u0 + prob.g
    x = linear_sweep(lambda y: y @ coupling.T + drive, prob.x0, grid)
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
    diagnostics pair each iterate with that blend.  The pairs are queued and
    their reports formed a block at a time by
    `diagnostics.contraction_reports`: numkit._MID_BLOCK_BYTES of pairs at
    six gain tables a pair, at least one, and the rest after the loop; they
    read the W each new iterate was formed with instead of freezing the fed
    state again.  Non-convergence is a result (converged=False), not an
    error; sweep blow-ups and transition inversion failures raise with the
    iteration index attached, and the queued reports are formed before a
    sweep error is re-raised, so an earlier iteration's failure is raised
    first.
    """
    opts = opts or SolveOptions()
    grid = TimeGrid(0.0, prob.tf, opts.steps)

    state = _initial_state(prob, grid, probe=opts.init_control)
    frozen_x = state.x.values
    history = [(0, state.diff_x, state.cost)]
    reports, queue = [], []
    converged = False
    iterations = 0
    theta = opts.relaxation

    if opts.record_diagnostics:
        from . import diagnostics as _diag

        strengths = _diag.coupling_strengths(prob)
        # a block's reports form about six arrays of a gain table's size per pair
        block = max(1, _MID_BLOCK_BYTES // (6 * state.K.values.nbytes))

    def report_queued():
        if queue:
            reports.extend(_diag.contraction_reports(prob, queue, grid, opts.alpha,
                                                     opts.diag_subsample, strengths,
                                                     reuse_fields=True))
            queue.clear()

    for k in range(1, opts.max_iters + 1):
        if not opts.record_diagnostics:
            # only the contraction reports read spent sweeps; `state` holds
            # the last reference, so the gain table is freed before the next one
            state = dataclasses.replace(state, K=None, s=None, W=None)
        feed = state if theta == 1.0 else dataclasses.replace(
            state, x=GriddedTrajectory(grid, frozen_x))
        try:
            state = iterate_once(prob, None, feed, grid)
        except (RiccatiEscapeError, BoundarySolveError, BlowupError) as exc:
            report_queued()  # an earlier iteration's diagnostics error comes first
            exc.args = (f"iteration {k}: {exc.args[0]}",) + exc.args[1:]
            raise
        if opts.record_diagnostics:
            queue.append((feed, state))
            if len(queue) == block:
                report_queued()
        history.append((k, state.diff_x, state.cost))
        frozen_x = state.x.values if theta == 1.0 else (
            (1.0 - theta) * frozen_x + theta * state.x.values)
        iterations = k
        if _stop_satisfied(prob, state, opts):
            converged = True
            break
    report_queued()

    diagnostics = None
    if opts.record_diagnostics:
        diagnostics = _diag.ConvergenceReport(rows=tuple(reports))
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
    interval midpoints.  Under that fixed control the dynamics are affine
    in the state, which steps as blocks (q, 1, b), one system per sample,
    in one numkit.linear_sweep: each sample of up to STEP_MAPS_MAX_N states
    by its own step maps, and no n x n coupling is formed.  The field
    `model.bilinear_field` brings its generator, so the maps are formed
    from the constant per-sample generators scaled by the control table,
    not by probing the field; the solver's affine, closed-loop, transition
    and initial-flow sweeps are probed.
    """
    grid = grid or utraj.grid
    A, B, Bs, g, x0 = prob.blocks
    t = grid.nodes
    u_nodes, u_mids = (utraj.at(s)[:, np.newaxis, np.newaxis] for s in (t, midpoints(t)))
    Y = linear_sweep(bilinear_field(A, B, Bs, g), x0[:, np.newaxis], grid, (u_nodes,), (u_mids,))
    return GriddedTrajectory(grid, Y.values.reshape(len(t), prob.n))
