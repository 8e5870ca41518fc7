"""Convergence and optimality diagnostics.

The contraction side bounds the distance between consecutive iterates by a
3x3 matrix M acting on (state, gain, affine-term) differences; the scalar
test |m11| + |m21| + |m31| < 1 certifies the iteration map contracts.  M
is a conservative diagnostic, never a gate: the solver runs regardless.

The optimality side evaluates the dynamic-programming residual of the
iterate's value function (an identity at round-off level, not a
certificate) and the finite-difference residuals of the canonical
two-point boundary-value equations.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .model import BilinearFactors, BilinearProblem
from .numkit import (
    GriddedTrajectory,
    TimeGrid,
    alpha_norm,
    mat_norm,
    node_norms,
    spectral_radius,
    transition_table,
    vec_norm,
)
from .solver import IterationState, freeze_iteration_fields

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


def coupling_strengths(prob: BilinearProblem, factors: BilinearFactors) -> tuple[float, float]:
    """Root-sum-square norms of the R^-1-weighted coupling matrices.

    delta aggregates P_i = N_i R^-1 B' + B R^-1 N_i'; zeta aggregates
    Q_ij = N_i R^-1 N_j' + N_j R^-1 N_i'.  Both vanish for a linear problem.
    """
    Nm = factors.mats  # (n, n, m)
    Rinv = prob.Rinv
    B = prob.B
    n = factors.n

    NR = np.einsum("jki,il->jkl", Nm, Rinv)  # N_j R^-1
    P = np.einsum("jkl,ml->jkm", NR, B)  # N_j R^-1 B'
    P = P + np.transpose(P, (0, 2, 1))
    delta_sq = sum(mat_norm(P[i]) ** 2 for i in range(n))

    zeta_sq = 0.0
    for i in range(n):
        Qi = np.einsum("kl,jml->jkm", NR[i], Nm)  # N_i R^-1 N_j' for all j
        Qi = Qi + np.transpose(Qi, (0, 2, 1))
        for j in range(n):
            zeta_sq += mat_norm(Qi[j]) ** 2
    return float(np.sqrt(delta_sq)), float(np.sqrt(zeta_sq))


def _sub_indices(steps: int, subsample: int) -> np.ndarray:
    idx = np.arange(0, steps + 1, subsample)
    if idx[-1] != steps:
        idx = np.append(idx, steps)
    return idx


def bound_coefficients(
    prob: BilinearProblem,
    factors: BilinearFactors,
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
    W, _ = freeze_iteration_fields(prob, factors, prev.x.values)
    O_nodes = np.matmul(W, np.transpose(W, (0, 2, 1)))
    closed_loop = prob.A - np.matmul(O_nodes, cur.K.values)
    table = transition_table(-np.transpose(closed_loop, (0, 2, 1)), grid)
    idx = _sub_indices(grid.steps, subsample)
    phi = table.norm_table(idx)  # phi[a, b] = ||Phi(t_a, t_b)||

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
    factors: BilinearFactors,
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
    certainly not certified there.
    """
    delta, zeta = strengths if strengths is not None else coupling_strengths(prob, factors)
    if cur.K is None or prev.K is None or cur.s is None or prev.s is None:
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
    bounds = bound_coefficients(prob, factors, prev, cur, grid, subsample=subsample)
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
    residual: GriddedTrajectory
    sup: float
    scale: float

    @property
    def relative(self) -> float:
        return self.sup / self.scale


def hjb_residual(
    prob: BilinearProblem,
    factors: BilinearFactors,
    final: IterationState,
    grid: TimeGrid,
) -> HJBReport:
    """Dynamic-programming residual of the converged value function.

    The time derivative of V = x'Kx/2 + x's + q/2 is assembled from the
    stored trajectories and the defining right-hand sides of the K, s, q
    sweeps (no numerical differentiation), contracted with x as V needs
    them, so no (T, n, n) derivative is formed; it is then added to the
    Hamiltonian of the original bilinear problem along the stored (x, u)
    pair.  This is not an optimality certificate: with p = K x + s and
    u = -R^-1 L' p the terms cancel identically for any K and s, so the
    residual sits at round-off level at every iterate, converged or not.
    """
    if final.K is None or final.s is None or final.q is None:
        raise ValueError("iterate carries no gain/affine sweeps (Riccati escape)")
    X = final.x.values
    P = final.p.values
    U = final.u.values
    K = final.K.values
    S = final.s.values
    g = prob.g

    W, _ = freeze_iteration_fields(prob, factors, X)
    KX = np.matmul(K, X[:, :, np.newaxis])[:, :, 0]
    AX = X @ prob.A.T
    WtKX = np.matmul(KX[:, np.newaxis, :], W)[:, 0]  # rows (W' K x)'
    WtS = np.matmul(S[:, np.newaxis, :], W)[:, 0]

    # x'K'x with K' = -KA - A'K + K W W' K
    xKdx = -2.0 * np.einsum("ti,ti->t", KX, AX) + np.einsum("ti,ti->t", WtKX, WtKX)
    # x's' with s' = -A's + K W W' s - K g
    xsd = -np.einsum("ti,ti->t", AX, S) + np.einsum("ti,ti->t", WtKX, WtS) - KX @ g
    qdot = np.einsum("ti,ti->t", WtS, WtS) - 2.0 * (S @ g)
    v_t = 0.5 * xKdx + xsd + 0.5 * qdot

    lam = prob.B + np.einsum("tj,jki->tki", X, factors.mats)
    dyn = AX + np.einsum("tki,ti->tk", lam, U) + g
    h_dyn = np.einsum("ti,ti->t", P, dyn)
    h_energy = 0.5 * np.einsum("ti,ij,tj->t", U, prob.R, U)

    res = v_t + h_dyn + h_energy
    scale = 1.0 + float(np.max(np.abs(v_t) + np.abs(h_dyn) + np.abs(h_energy)))
    return HJBReport(
        residual=GriddedTrajectory(grid, res),
        sup=float(np.max(np.abs(res))),
        scale=scale,
    )


def necessary_condition_residual(
    prob: BilinearProblem,
    factors: BilinearFactors,
    final: IterationState,
    grid: TimeGrid,
) -> tuple[float, float]:
    """Relative sup residuals of the canonical state/costate equations.

    Central finite differences of the stored (x, p) are compared against
    the right-hand sides evaluated with the converged frozen coefficients
    (frozen_drift and frozen_gram along (x, p)), through the identities
    drift x - gram p = A x - L R^-1 L' p and
    drift' p = A' p - 2 [p' N_j R^-1 L' p]_j; the finite-difference floor
    is O(h^2).
    """
    X = final.x.values
    P = final.p.values
    h = grid.h

    NtP = np.tensordot(P, factors.mats, axes=(1, 1))  # (T, j, i): [N_j' p]_i
    lam = prob.B + np.tensordot(X, factors.mats, axes=(1, 0))  # (T, n, m)
    w = np.matmul(P[:, np.newaxis, :], lam)[:, 0] @ prob.Rinv  # rows (R^-1 L' p)'
    rhs_x = X @ prob.A.T - np.matmul(lam, w[:, :, np.newaxis])[:, :, 0] + prob.g
    rhs_p = -(P @ prob.A) + 2.0 * np.matmul(NtP, w[:, :, np.newaxis])[:, :, 0]

    xdot = (X[2:] - X[:-2]) / (2.0 * h)
    pdot = (P[2:] - P[:-2]) / (2.0 * h)

    res_x = np.max(np.sum(np.abs(xdot - rhs_x[1:-1]), axis=1))
    res_p = np.max(np.sum(np.abs(pdot - rhs_p[1:-1]), axis=1))
    scale_x = 1.0 + np.max(np.sum(np.abs(rhs_x), axis=1))
    scale_p = 1.0 + np.max(np.sum(np.abs(rhs_p), axis=1))
    return float(res_x / scale_x), float(res_p / scale_p)
