"""Convergence and optimality diagnostics.

The contraction side bounds the distance between consecutive iterates by a
3x3 matrix M acting on (state, gain, affine-term) differences; the scalar
test |m11| + |m21| + |m31| < 1 certifies the iteration map contracts.  M
is a conservative diagnostic, never a gate: the solver runs regardless.

The optimality side evaluates the dynamic-programming residual of the
iterate's value function (an identity at round-off level, not a
certificate) and the finite-difference residuals of the canonical
two-point boundary-value equations.

The coupling strengths, the frozen input map (`model.input_gain`) and the
residuals' dynamics (`model.bilinear_field`) read the problem's per-sample
blocks (`BilinearProblem.blocks`); only the sweep bounds' closed loop
A - W W' K is dense.  The contraction reports are formed a block of
iterate pairs at a time (`contraction_reports`): one freeze (none for
`solve`'s pairs, whose iterates carry the W they were formed with), one
stacked closed loop and one `numkit.transition_norms` call with a system
per pair, and stacked reductions.  `contraction_report` and
`bound_coefficients` are the block of one; a pair's report does not
depend on its block.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .model import BilinearProblem, bilinear_field
from .numkit import (
    TimeGrid,
    TransitionInversionError,
    alpha_weights,
    node_norms,
    spectral_radius,
    transition_norms,
    vec_norm,
)
from .solver import IterationState, freeze_iteration_fields, reconstruct_control

__all__ = [
    "ContractionReport",
    "ConvergenceReport",
    "HJBReport",
    "coupling_strengths",
    "bound_coefficients",
    "contraction_matrix",
    "criterion_check",
    "contraction_report",
    "contraction_reports",
    "hjb_residual",
    "necessary_condition_residual",
]


@dataclass(frozen=True)
class ContractionReport:
    """Per-iteration contraction diagnostics."""

    iteration: int
    bounds: np.ndarray  # the nine sweep-bound coefficients, sup-reduced
    delta: float
    zeta: float
    M: np.ndarray  # 3x3
    criterion_sum: float
    rho: float
    satisfied: bool


@dataclass(frozen=True)
class ConvergenceReport:
    """Per-iteration contraction rows of a solve."""

    rows: tuple

    @property
    def crossover_iteration(self) -> int | None:
        """First iteration at which the contraction criterion is satisfied."""
        for row in self.rows:
            if row.satisfied:
                return row.iteration
        return None


def coupling_strengths(prob: BilinearProblem) -> tuple[float, float]:
    """Root-sum-square norms of the R^-1-weighted coupling matrices.

    delta aggregates P_j = F + F' with F = N_j R^-1 B'; zeta aggregates
    Q_ij = E + E' with E = N_i R^-1 N_j'.  Both vanish for a linear problem.
    N_j is zero outside the rows of the sample owning state j, so F is one
    band of b rows and E one b x b block, formed from the sample blocks in
    O(n^2 b^2); across samples E and E' are disjoint blocks.
    """
    _, B, Bs, _, _ = prob.blocks
    own = np.arange(prob.q)
    N = Bs.transpose(0, 3, 2, 1)  # [s, c] = N_j on the rows of sample s, j = (s, c)
    NR = N @ prob.Rinv

    F = np.einsum("scki,tli->scktl", NR, B)
    absF = np.abs(F)
    cols = absF.sum(axis=2)  # the column sums of P_j outside the band's own columns
    absF[own, :, :, own] = 0.0  # the band's rows outside its own columns
    G = F[own, :, :, own]
    cols[own, :, own] = np.abs(G + G.swapaxes(2, 3)).sum(axis=2) + absF.sum(axis=(3, 4))

    E = np.einsum("scki,tdli->scktdl", NR, N)
    absE = np.abs(E)
    Q = np.maximum(absE.sum(axis=2).max(axis=-1), absE.sum(axis=5).max(axis=2))
    D = E[own, :, :, own]
    Q[own, :, own] = np.abs(D + D.transpose(0, 1, 4, 3, 2)).sum(axis=2).max(axis=-1)
    return float(np.sqrt(np.sum(cols.max(axis=(2, 3)) ** 2))), float(np.sqrt(np.sum(Q ** 2)))


def _sub_indices(steps: int, subsample: int) -> np.ndarray:
    idx = np.arange(0, steps + 1, subsample)
    if idx[-1] != steps:
        idx = np.append(idx, steps)
    return idx


def _tables(states, name: str, idx=slice(None)) -> np.ndarray:
    """The states' `name` tables at the nodes idx, stacked (states, nodes, ...);
    one state's is a view of its table."""
    tables = [getattr(state, name).values[idx] for state in states]
    return tables[0][np.newaxis] if len(tables) == 1 else np.stack(tables)


def _block_bounds(prob: BilinearProblem, prevs, curs, grid: TimeGrid, subsample: int,
                  reuse_fields: bool = False):
    """`bound_coefficients` of the pairs (prevs[i], curs[i]) as a (pairs, 9)
    array, with the gain tables of curs stacked (pairs, steps + 1, n, n).
    The input factors W come from curs when `reuse_fields` is set, else they
    are frozen along the states of prevs."""
    W = (_tables(curs, "W") if reuse_fields else
         freeze_iteration_fields(prob, _tables(prevs, "x"))[0])
    O_nodes = np.matmul(W, W.swapaxes(-1, -2))
    K_tables = _tables(curs, "K")
    closed_loop = prob.A - np.matmul(O_nodes, K_tables)
    idx = _sub_indices(grid.steps, subsample)
    try:  # ||Phi(t_a, t_b)||, one system per pair
        phi = transition_norms(-closed_loop.swapaxes(-1, -2).swapaxes(0, 1), grid, idx)
    except TransitionInversionError as exc:
        exc.args = (f"iteration {curs[exc.system].k}: {exc.args[0]}",)
        raise

    def norms(states, name):  # node norms at the subsampled nodes, per pair
        return node_norms(_tables(states, name, idx), 2)

    s_prev, s_cur, x_prev = norms(prevs, "s"), norms(curs, "s"), norms(prevs, "x")
    K_prev, K_cur = norms(prevs, "K"), node_norms(K_tables[:, idx], 2)
    O_norm = node_norms(O_nodes[:, idx], 2)
    g_norm = vec_norm(prob.g)

    # Backward bounds propagate data at sigma >= t down to t via Phi(t, sigma);
    # forward bounds propagate data at sigma <= t up to t, whose factor equals
    # Phi(sigma, t) of the adjoint system.  Both read phi[a, b] with a <= b,
    # the decaying direction of a stabilizing closed loop; the integration
    # variable indexes the column for backward bounds and the row for forward.
    S = len(idx)
    pairs = np.triu(np.ones((S, S), dtype=bool))
    sq = phi * phi
    backward = np.stack([s_prev, K_cur * s_prev, O_norm * s_prev + g_norm, K_prev + K_cur,
                         K_prev * K_cur], axis=1)[:, :, np.newaxis, :]
    forward = np.stack([x_prev, O_norm * x_prev, K_cur * x_prev + s_cur, O_norm * x_prev],
                       axis=1)[:, :, :, np.newaxis]
    prods = np.concatenate((np.stack([phi, phi, phi, sq, sq], axis=1) * backward,
                            phi[:, np.newaxis] * forward), axis=1)
    return np.max(np.where(pairs, prods, -np.inf), axis=(2, 3)), K_tables


def bound_coefficients(
    prob: BilinearProblem,
    prev: IterationState,
    cur: IterationState,
    grid: TimeGrid,
    subsample: int = 10,
) -> np.ndarray:
    """Sup-reduced coefficients of the nine sweep-difference bounds.

    The transition factor is the propagator of the closed-loop adjoint
    system dz/dt = -[A - O K]' z built from the pair's frozen subproblem
    coefficients; each entry of the norm table maps data at the integration
    variable to the evaluation time, so backward bounds read pairs with
    sigma >= t and forward bounds pairs with sigma <= t.  Node pairs are
    subsampled to bound the quadratic pair cost; the block of one pair.
    """
    return _block_bounds(prob, [prev], [cur], grid, subsample)[0][0]


def contraction_matrix(
    bounds: np.ndarray,
    delta: float,
    zeta: float,
    x_cur: float,
    x_prev: float,
    K_cur: float,
    s_cur: float,
    tf: float,
) -> np.ndarray:
    """Assemble the 3x3 bound matrix with proportionality constant tf.

    The scalar arguments are the sup-norms of the current state, previous
    state, current gain, and current affine term.  Stacks broadcast: bounds
    (..., 9) and norms (...) give matrices (..., 3, 3).
    """
    b1, b2, b3, b4, b5, b6, b7, b8, b9 = np.moveaxis(np.asarray(bounds), -1, 0)
    s1 = delta + x_prev * zeta
    col1_core = s1 * K_cur + zeta * (K_cur * x_cur + s_cur)
    gx = zeta * (x_cur + x_prev)

    f_x = b6 + b4 * b7 + b1 * b9 + b3 * b4 * b9
    g_x = b8 + b5 * b7 + b2 * b9 + b3 * b5 * b9
    f_s = b1 + b3 * b4
    g_s = b2 + b3 * b5

    M = np.stack([np.stack(row, axis=-1) for row in (
        [f_x * col1_core + gx * g_x, f_x * s1 * x_prev, f_x * s1],
        [b4 * col1_core + b5 * gx, b4 * s1 * x_prev, b4 * s1],
        [f_s * col1_core + gx * g_s, f_s * s1 * x_prev, f_s * s1],
    )], axis=-2)
    return tf * M


def criterion_check(M: np.ndarray) -> tuple:
    """First-column sum test: (|m11|+|m21|+|m31|, sum < 1, spectral radius),
    arrays over the leading axes of a stack of matrices (..., 3, 3)."""
    M = np.asarray(M, dtype=float)
    criterion_sum = np.sum(np.abs(M[..., :, 0]), axis=-1)
    return criterion_sum, criterion_sum < 1.0, spectral_radius(M)


def contraction_reports(
    prob: BilinearProblem,
    pairs,
    grid: TimeGrid,
    alpha: float = 0.0,
    subsample: int = 10,
    strengths: tuple[float, float] | None = None,
    reuse_fields: bool = False,
) -> list[ContractionReport]:
    """Full contraction diagnostics of a block of (previous, current)
    iterate pairs, formed at once.  `strengths` may carry precomputed
    coupling_strengths (they depend only on the problem).  With
    `reuse_fields` each pair's input factor is cur.W, which `iterate_once`
    froze along prev's state under `prob` (as in `solve`'s pairs), instead
    of a second freeze of that state.  When either
    iterate of a pair lacks gain/affine sweeps (Riccati escape in its frozen
    subproblem) the bound machinery is undefined; the pair's report then
    carries an infinite criterion sum, since contraction is certainly not
    certified there.  A transition inversion failure names the iteration of
    the first failing pair.
    """
    delta, zeta = strengths if strengths is not None else coupling_strengths(prob)
    live = [(prev, cur) for prev, cur in pairs if prev.K is not None and cur.K is not None]
    rows = iter(())
    if live:
        prevs, curs = zip(*live)
        bounds, K_tables = _block_bounds(prob, prevs, curs, grid, subsample, reuse_fields)
        forward, backward = (alpha_weights(grid, alpha, d) for d in ("forward", "backward"))

        def sup(tables, weights):
            return np.max(node_norms(tables, 2) * weights, axis=1)

        M = contraction_matrix(
            bounds, delta, zeta, x_cur=sup(_tables(curs, "x"), forward),
            x_prev=sup(_tables(prevs, "x"), forward), K_cur=sup(K_tables, backward),
            s_cur=sup(_tables(curs, "s"), backward), tf=grid.tf - grid.t0)
        rows = zip(bounds, M, *criterion_check(M))
    reports = []
    for prev, cur in pairs:
        b, m, crit, ok, rho = (next(rows) if prev.K is not None and cur.K is not None else
                               (np.full(9, np.nan), np.full((3, 3), np.nan), np.inf, False, np.inf))
        reports.append(ContractionReport(iteration=cur.k, bounds=b, delta=delta, zeta=zeta, M=m,
                                         criterion_sum=float(crit), rho=float(rho),
                                         satisfied=bool(ok)))
    return reports


def contraction_report(
    prob: BilinearProblem,
    factors,
    prev: IterationState,
    cur: IterationState,
    grid: TimeGrid,
    alpha: float = 0.0,
    subsample: int = 10,
    strengths: tuple[float, float] | None = None,
) -> ContractionReport:
    """`contraction_reports` of the block of one pair.  `factors` is unread
    (the problem's blocks give L(x)); it stays for positional callers."""
    return contraction_reports(prob, [(prev, cur)], grid, alpha, subsample, strengths)[0]


@dataclass(frozen=True)
class HJBReport:
    sup: float
    scale: float

    @property
    def relative(self) -> float:
        return self.sup / self.scale


def _sample_field(blocks, Y: np.ndarray, U: np.ndarray) -> np.ndarray:
    """`model.bilinear_field` of the sample blocks (A, B, Bs, g) at the node
    rows Y (T, n) under the controls U (T, m), as a (T, n) table."""
    Ys = Y.reshape(len(Y), len(blocks[0]), -1).swapaxes(0, 1)  # (q, T, b)
    return bilinear_field(*blocks)(Ys, U[np.newaxis]).swapaxes(0, 1).reshape(Y.shape)


def hjb_residual(prob: BilinearProblem, factors, final: IterationState,
                 grid: TimeGrid) -> HJBReport:
    """Dynamic-programming residual of the converged value function.

    The time derivative of V = x'Kx/2 + x's + q/2 is assembled from the
    stored trajectories and the defining right-hand sides of K, s and the
    offset q (no numerical differentiation; q itself is never needed),
    contracted with x as V needs them, so no (T, n, n) derivative is
    formed; it is then added to the Hamiltonian of the original bilinear
    problem along the stored (x, u) pair, whose dynamics are
    `model.bilinear_field` over the sample blocks.  This is not an
    optimality certificate: with p = K x + s and u = -R^-1 L' p the terms
    cancel identically for any K and s, so the residual sits at round-off
    level at every iterate, converged or not.  `factors` and `grid` are
    unread (the problem's blocks give L(x), the iterate its grid); they
    stay so that callers passing them positionally keep working.
    """
    if final.K is None:
        raise ValueError("iterate carries no gain/affine sweeps (Riccati escape)")
    X = final.x.values
    P = final.p.values
    U = final.u.values
    K = final.K.values
    S = final.s.values
    blocks = prob.blocks[:4]

    W, _ = freeze_iteration_fields(prob, X)
    KX = np.matmul(K, X[:, :, np.newaxis])[:, :, 0]
    AX = np.einsum("tsk,slk->tsl", X.reshape(len(X), prob.q, -1), blocks[0]).reshape(X.shape)
    WtKX = np.matmul(KX[:, np.newaxis, :], W)[:, 0]  # rows (W' K x)'
    WtS = np.matmul(S[:, np.newaxis, :], W)[:, 0]

    # x'K'x with K' = -KA - A'K + K W W' K
    xKdx = -2.0 * np.einsum("ti,ti->t", KX, AX) + np.einsum("ti,ti->t", WtKX, WtKX)
    # x's' with s' = K (W W' s - g) - A's
    xsd = -np.einsum("ti,ti->t", AX, S) + np.einsum("ti,ti->t", WtKX, WtS) - KX @ prob.g
    qdot = np.einsum("ti,ti->t", WtS, WtS) - 2.0 * (S @ prob.g)
    v_t = 0.5 * xKdx + xsd + 0.5 * qdot

    h_dyn = np.einsum("ti,ti->t", P, _sample_field(blocks, X, U))
    h_energy = 0.5 * np.einsum("ti,ij,tj->t", U, prob.R, U)

    res = v_t + h_dyn + h_energy
    scale = 1.0 + float(np.max(np.abs(v_t) + np.abs(h_dyn) + np.abs(h_energy)))
    return HJBReport(sup=float(np.max(np.abs(res))), scale=scale)


def necessary_condition_residual(
    prob: BilinearProblem,
    final: IterationState,
    grid: TimeGrid,
) -> tuple[float, float]:
    """Relative sup residuals of the canonical state/costate equations.

    Central finite differences of the stored (x, p) are compared against
    the right-hand sides A x + L u + g and -A' p - 2 sum_i u_i B_i' p, with
    u = -R^-1 L' p formed from (x, p) by `solver.reconstruct_control`.
    These equal the converged frozen coefficients' drift x - gram p + g and
    -drift' p (see `model`); both are `model.bilinear_field` over the
    sample blocks, the costate's over -A' and -2 B_i' with no input or
    translation.  The finite-difference floor is O(h^2).
    """
    X = final.x.values
    P = final.p.values
    h = grid.h
    A, B, Bs, g, _ = prob.blocks
    U = reconstruct_control(prob, final.x, final.p).values
    rhs_x = _sample_field((A, B, Bs, g), X, U)
    rhs_p = _sample_field((-A.swapaxes(1, 2), 0.0 * B, -2.0 * Bs.swapaxes(2, 3), 0.0 * g), P, U)

    xdot = (X[2:] - X[:-2]) / (2.0 * h)
    pdot = (P[2:] - P[:-2]) / (2.0 * h)

    res_x = np.max(np.sum(np.abs(xdot - rhs_x[1:-1]), axis=1))
    res_p = np.max(np.sum(np.abs(pdot - rhs_p[1:-1]), axis=1))
    scale_x = 1.0 + np.max(np.sum(np.abs(rhs_x), axis=1))
    scale_p = 1.0 + np.max(np.sum(np.abs(rhs_p), axis=1))
    return float(res_x / scale_x), float(res_p / scale_p)
