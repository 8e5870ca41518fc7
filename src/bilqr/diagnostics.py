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
A - W W' K is dense.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .model import BilinearProblem, bilinear_field
from .numkit import (
    TimeGrid,
    alpha_norm,
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
    subsampled to bound the quadratic pair cost.
    """
    W, _ = freeze_iteration_fields(prob, prev.x.values)
    O_nodes = np.matmul(W, np.transpose(W, (0, 2, 1)))
    closed_loop = prob.A - np.matmul(O_nodes, cur.K.values)
    idx = _sub_indices(grid.steps, subsample)
    phi = transition_norms(-np.transpose(closed_loop, (0, 2, 1)), grid, idx)  # ||Phi(t_a, t_b)||

    s_prev = node_norms(prev.s.values)[idx]
    s_cur = node_norms(cur.s.values)[idx]
    x_prev = node_norms(prev.x.values)[idx]
    K_prev = node_norms(prev.K.values)[idx]
    K_cur = node_norms(cur.K.values)[idx]
    O_norm = node_norms(O_nodes)[idx]
    g_norm = vec_norm(prob.g)

    S = len(idx)
    # Backward bounds propagate data at sigma >= t down to t via Phi(t, sigma);
    # forward bounds propagate data at sigma <= t up to t, whose factor equals
    # Phi(sigma, t) of the adjoint system.  Both read phi[a, b] with a <= b,
    # the decaying direction of a stabilizing closed loop; the integration
    # variable indexes the column for backward bounds and the row for forward.
    pairs = np.triu(np.ones((S, S), dtype=bool))

    def sup_backward(sigma_values, squared=False):
        factor = phi * phi if squared else phi
        prod = factor * sigma_values[np.newaxis, :]
        return float(np.max(np.where(pairs, prod, -np.inf)))

    def sup_forward(sigma_values):
        prod = phi * sigma_values[:, np.newaxis]
        return float(np.max(np.where(pairs, prod, -np.inf)))

    b1 = sup_backward(s_prev)
    b2 = sup_backward(K_cur * s_prev)
    b3 = sup_backward(O_norm * s_prev + g_norm)
    b4 = sup_backward(K_prev + K_cur, squared=True)
    b5 = sup_backward(K_prev * K_cur, squared=True)
    b6 = sup_forward(x_prev)
    b7 = sup_forward(O_norm * x_prev)
    b8 = sup_forward(K_cur * x_prev + s_cur)
    b9 = sup_forward(O_norm * x_prev)
    return np.array([b1, b2, b3, b4, b5, b6, b7, b8, b9])


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
    state, current gain, and current affine term.
    """
    b1, b2, b3, b4, b5, b6, b7, b8, b9 = bounds
    s1 = delta + x_prev * zeta
    col1_core = s1 * K_cur + zeta * (K_cur * x_cur + s_cur)
    gx = zeta * (x_cur + x_prev)

    f_x = b6 + b4 * b7 + b1 * b9 + b3 * b4 * b9
    g_x = b8 + b5 * b7 + b2 * b9 + b3 * b5 * b9
    f_s = b1 + b3 * b4
    g_s = b2 + b3 * b5

    M = np.array(
        [
            [f_x * col1_core + gx * g_x, f_x * s1 * x_prev, f_x * s1],
            [b4 * col1_core + b5 * gx, b4 * s1 * x_prev, b4 * s1],
            [f_s * col1_core + gx * g_s, f_s * s1 * x_prev, f_s * s1],
        ]
    )
    return tf * M


def criterion_check(M: np.ndarray) -> tuple[float, bool, float]:
    """First-column sum test: (|m11|+|m21|+|m31|, sum < 1, spectral radius)."""
    M = np.asarray(M, dtype=float)
    criterion_sum = float(np.sum(np.abs(M[:, 0])))
    return criterion_sum, criterion_sum < 1.0, spectral_radius(M)


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
    """Full contraction diagnostics for one consecutive iterate pair.

    `strengths` may carry precomputed coupling_strengths (they depend only
    on the problem).  When either iterate lacks gain/affine sweeps (Riccati
    escape in its frozen subproblem) the bound machinery is undefined; the
    report then carries an infinite criterion sum, since contraction is
    certainly not certified there.  `factors` is unread (the problem's
    blocks give L(x)); it stays so that positional callers keep working.
    """
    delta, zeta = strengths if strengths is not None else coupling_strengths(prob)
    if cur.K is None or prev.K is None:
        return ContractionReport(
            iteration=cur.k,
            bounds=np.full(9, np.nan),
            delta=delta,
            zeta=zeta,
            M=np.full((3, 3), np.nan),
            criterion_sum=float("inf"),
            rho=float("inf"),
            satisfied=False,
        )
    bounds = bound_coefficients(prob, prev, cur, grid, subsample=subsample)
    M = contraction_matrix(
        bounds,
        delta,
        zeta,
        x_cur=alpha_norm(cur.x, alpha, "forward"),
        x_prev=alpha_norm(prev.x, alpha, "forward"),
        K_cur=alpha_norm(cur.K, alpha, "backward"),
        s_cur=alpha_norm(cur.s, alpha, "backward"),
        tf=grid.tf - grid.t0,
    )
    criterion_sum, satisfied, rho = criterion_check(M)
    return ContractionReport(
        iteration=cur.k,
        bounds=bounds,
        delta=delta,
        zeta=zeta,
        M=M,
        criterion_sum=criterion_sum,
        rho=rho,
        satisfied=satisfied,
    )


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
