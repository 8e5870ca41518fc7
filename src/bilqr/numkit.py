"""Shared numerical substrate: time grids, the one RK4 stepper, the
l1/max-column-sum norm pair, weighted sup-norms, norm tables of transition
matrices, and spectral radius.

Every integration in the package is fixed-step classical RK4, forward or
backward over a uniform grid, with `rk4_step` the one step body.
`rk4_sweep` steps y' = rhs(y, *args) whose time-dependent arguments are
stage tables, arrays precomputed at the grid nodes and at the interval
midpoints.  `linear_sweep` takes the linear y' = L y + f with the same
stage tables: an RK4 step of a linear equation is one affine map, so it
forms every step's map with one batched `rk4_step` a block of steps at a
time and applies them in sweep order, one small product per step, which
beats four stage evaluations on small systems.  There is no adaptive
stepping, so repeated runs produce bitwise-identical iterates.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np


class BlowupError(RuntimeError):
    """Numerical blow-up: a non-finite value appeared mid-integration."""

    def __init__(self, message: str, node_index: int, t: float):
        super().__init__(message)
        self.node_index = node_index
        self.t = t


class TransitionInversionError(RuntimeError):
    """Transition inversion failure: a transition matrix is numerically singular."""


@dataclass(frozen=True)
class TimeGrid:
    """Uniform grid on [t0, tf] with `steps` sub-intervals (steps + 1 nodes)."""

    t0: float
    tf: float
    steps: int

    def __post_init__(self):
        if not self.tf > self.t0:
            raise ValueError(f"tf must exceed t0, got [{self.t0}, {self.tf}]")
        if self.steps < 2:
            raise ValueError(f"steps must be >= 2, got {self.steps}")
        object.__setattr__(self, "_nodes", np.linspace(self.t0, self.tf, self.steps + 1))

    @property
    def h(self) -> float:
        return (self.tf - self.t0) / self.steps

    @property
    def nodes(self) -> np.ndarray:
        return self._nodes


@dataclass(frozen=True)
class GriddedTrajectory:
    """A vector- or matrix-valued function sampled on a uniform time grid.

    `values` has shape (steps + 1, *value_shape); interpolation between
    nodes is piecewise linear and exact at the nodes.
    """

    grid: TimeGrid
    values: np.ndarray

    def __post_init__(self):
        vals = np.asarray(self.values, dtype=float)
        object.__setattr__(self, "values", vals)
        if vals.shape[0] != self.grid.steps + 1:
            raise ValueError(
                f"expected {self.grid.steps + 1} samples, got {vals.shape[0]}"
            )

    @property
    def value_shape(self) -> tuple:
        return self.values.shape[1:]

    def at(self, t):
        """Piecewise-linear interpolation at scalar or array times."""
        g = self.grid
        t_arr = np.asarray(t, dtype=float)
        span = g.tf - g.t0
        tol = 1e-9 * span
        if np.any(t_arr < g.t0 - tol) or np.any(t_arr > g.tf + tol):
            raise ValueError(f"time {t} outside [{g.t0}, {g.tf}]")
        u = (t_arr - g.t0) / g.h
        i = np.clip(np.floor(u).astype(int), 0, g.steps - 1)
        theta = np.clip(u - i, 0.0, 1.0)
        lo = self.values[i]
        hi = self.values[i + 1]
        th = theta.reshape(theta.shape + (1,) * len(self.value_shape))
        return (1.0 - th) * lo + th * hi


def midpoints(values: np.ndarray) -> np.ndarray:
    """Averages of consecutive node values: the stage table at interval midpoints."""
    return 0.5 * (values[:-1] + values[1:])


def rk4_step(rhs, y, h, start: tuple, mid: tuple, end: tuple):
    """One classical RK4 step of y' = rhs(y, *args) with the arguments at the
    step's start, midpoint and end; h may be negative or an array."""
    k1 = rhs(y, *start)
    k2 = rhs(y + (0.5 * h) * k1, *mid)
    k3 = rhs(y + (0.5 * h) * k2, *mid)
    k4 = rhs(y + h * k3, *end)
    return y + (h / 6.0) * (k1 + 2.0 * (k2 + k3) + k4)


# Steps between a sweep's checks of its current value.  A non-finite entry
# never becomes finite in an RK4 update y + h/6 (...), so a sweep stops at
# the first check that sees one and scans its table for the first non-finite
# node only when its last value is non-finite; unset nodes lie past that one.
_CHECK_EVERY = 32

# Bytes of the block of midpoints a sweep forms at a time for a `mids` entry
# None (a row or two of a large gain table, all of a small one), and of the
# block of step maps a linear sweep forms at a time.
_MID_BLOCK_BYTES = 1 << 18


def _blocks(T: int, row_bytes: int, backward: bool):
    """Blocks [lo, hi) of the T steps, in sweep order, of _MID_BLOCK_BYTES at
    row_bytes a step (at least one step)."""
    starts = range(0, T, max(1, _MID_BLOCK_BYTES // row_bytes))
    for lo in (reversed(starts) if backward else starts):
        yield lo, min(lo + starts.step, T)


def _mid_rows(nodes: tuple, mids: tuple, T: int, backward: bool):
    """Midpoint argument rows in sweep order, None entries formed a block at a time."""
    row = max((n[0].nbytes for n, m in zip(nodes, mids) if m is None), default=1)
    for lo, hi in _blocks(T, row, backward):
        rows = list(zip(*(midpoints(n[lo:hi + 1]) if m is None else m[lo:hi]
                          for n, m in zip(nodes, mids)))) or [()] * (hi - lo)
        yield from (reversed(rows) if backward else rows)


def _blowup(node: int, t: float) -> Exception:
    return BlowupError(f"numerical blow-up at node {node} (t={t:.6g})", node_index=node, t=t)


def _first_nonfinite(out: np.ndarray, grid: TimeGrid, backward: bool, error) -> Exception:
    """error(node, t) for the first non-finite node of a table, in sweep order."""
    bad = np.flatnonzero(~np.isfinite(out.reshape(grid.steps + 1, -1)).all(axis=1))
    node = int(bad[-1] if backward else bad[0])
    return error(node, float(grid.nodes[node]))


def rk4_sweep(
    rhs: Callable[..., np.ndarray],
    y_start,
    grid: TimeGrid,
    nodes: tuple = (),
    mids: tuple = (),
    backward: bool = False,
    error: Callable[[int, float], Exception] = _blowup,
) -> GriddedTrajectory:
    """Fixed-step RK4 of y' = rhs(y, *args) over the grid.

    The arguments are stage tables: `nodes` holds arrays of shape
    (steps + 1, ...) at the grid nodes and `mids` arrays of shape
    (steps, ...) at the interval midpoints, in the same order; a `mids`
    entry None is formed from its node table in small blocks.  A forward
    sweep starts from values[0] = y_start, a backward one from
    values[-1] = y_start.  The first non-finite node, in sweep order, raises
    error(node, t).
    """
    y = np.asarray(y_start, dtype=float)
    T = grid.steps
    node_rows = list(zip(*nodes)) or [()] * (T + 1)
    h, order = (-grid.h, range(T - 1, -1, -1)) if backward else (grid.h, range(T))
    out = np.empty((T + 1,) + y.shape)
    out[T if backward else 0] = y
    with np.errstate(over="ignore", invalid="ignore"):
        for i, mid in zip(order, _mid_rows(nodes, mids, T, backward)):
            a, b = (i + 1, i) if backward else (i, i + 1)
            y = rk4_step(rhs, y, h, node_rows[a], mid, node_rows[b])
            out[b] = y
            if i % _CHECK_EVERY == 0 and not np.isfinite(y).all():
                break
    if np.isfinite(y).all():
        return GriddedTrajectory(grid, out)
    raise _first_nonfinite(out, grid, backward, error)


def _augmented(L: np.ndarray, f: np.ndarray) -> np.ndarray:
    """Z = [[L, f], [0, 0]] for each row of the tables L (k, n, n) and f (k, n)."""
    k, n = f.shape
    Z = np.zeros((k, n + 1, n + 1))
    Z[:, :n, :n] = L
    Z[:, :n, n] = f
    return Z


def linear_sweep(
    L_nodes: np.ndarray,
    L_mids: np.ndarray,
    f_nodes: np.ndarray,
    f_mids: np.ndarray,
    y_start,
    grid: TimeGrid,
    backward: bool = False,
    error: Callable[[int, float], Exception] = _blowup,
) -> GriddedTrajectory:
    """Fixed-step RK4 of the linear y' = L y + f over the grid: the sweep
    `rk4_sweep(lambda y, L, f: L @ y + f, ...)` with the same stage tables
    (`L_nodes` (steps + 1, n, n), `L_mids` (steps, n, n), `f_nodes` and
    `f_mids` likewise), up to round-off.

    For a linear right-hand side an RK4 step is one affine map: with
    Z = [[L, f], [0, 0]] at the stage times, `rk4_step` of Y' = Z Y from the
    identity gives P_i, and [y_i+1; 1] = P_i [y_i; 1].  The maps of a block
    of steps are formed together, one batched `rk4_step`, under the byte
    budget of `_MID_BLOCK_BYTES`, and applied in sweep order, one
    (n + 1) x (n + 1) product per step.  The first non-finite node, in
    sweep order, raises error(node, t).
    """
    y = np.asarray(y_start, dtype=float)
    T, n = grid.steps, y.shape[0]
    h = -grid.h if backward else grid.h
    out = np.empty((T + 1, n))
    out[T if backward else 0] = y
    z = np.append(y, 1.0)
    eye = np.eye(n + 1)
    with np.errstate(over="ignore", invalid="ignore"):
        for lo, hi in _blocks(T, eye.nbytes, backward):
            Zn = _augmented(L_nodes[lo:hi + 1], f_nodes[lo:hi + 1])
            first, last = (Zn[1:], Zn[:-1]) if backward else (Zn[:-1], Zn[1:])
            maps = rk4_step(lambda Y, Z: Z @ Y, eye, h, (first,),
                            (_augmented(L_mids[lo:hi], f_mids[lo:hi]),), (last,))
            zs = np.empty((hi - lo + 1, n + 1))  # [y; 1] at the block's nodes, sweep order
            zs[0] = z
            for P, row in zip(maps[::-1] if backward else maps, zs[1:]):
                z = np.dot(P, z, out=row)
            if backward:
                out[lo:hi] = zs[:0:-1, :n]
            else:
                out[lo + 1:hi + 1] = zs[1:, :n]
            if not np.isfinite(z).all():
                break
    if np.isfinite(z).all():
        return GriddedTrajectory(grid, out)
    raise _first_nonfinite(out, grid, backward, error)


def integrate_forward(field: Callable[[float, np.ndarray], np.ndarray], y0, grid: TimeGrid):
    """RK4 of y' = field(t, y) from values[0] = y0, with t tabulated on the grid."""
    t = grid.nodes
    return rk4_sweep(lambda y, s: field(s, y), y0, grid, (t,), (midpoints(t),))


def vec_norm(v: np.ndarray) -> float:
    """Sum of absolute entries."""
    return float(np.sum(np.abs(v)))


def mat_norm(D: np.ndarray) -> float:
    """Maximum column sum of absolute entries."""
    return float(np.max(np.sum(np.abs(D), axis=0)))


def node_norms(values: np.ndarray) -> np.ndarray:
    """Node-wise l1 (vector) or max-column-sum (matrix) norms of a table."""
    if values.ndim <= 1:
        return np.abs(values)
    if values.ndim == 2:
        return np.sum(np.abs(values), axis=1)
    return np.max(np.sum(np.abs(values), axis=1), axis=1)


def alpha_norm(traj: GriddedTrajectory, alpha: float, direction: str) -> float:
    """Weighted sup-norm over grid nodes.

    `direction` is "forward" for weight exp(-alpha (t - t0)) or "backward"
    for weight exp(-alpha (tf - t)).  At alpha = 0 this is the plain sup of
    the node-wise l1 (vector) or max-column-sum (matrix) norm.
    """
    if alpha < 0:
        raise ValueError("alpha must be >= 0")
    g = traj.grid
    if direction == "forward":
        weights = np.exp(-alpha * (g.nodes - g.t0))
    elif direction == "backward":
        weights = np.exp(-alpha * (g.tf - g.nodes))
    else:
        raise ValueError(f"unknown direction {direction!r}")
    return float(np.max(node_norms(traj.values) * weights))


_COND_LIMIT = 1e13


def transition_norms(A_nodes: np.ndarray, grid: TimeGrid, indices) -> np.ndarray:
    """Table of mat_norm(Phi(t_a, t_b)) over the given node indices.

    Phi solves dPhi/dt = A(t) Phi, with A given at the grid nodes,
    (steps + 1, n, n), and blended linearly between them.  Phi(., t0) is
    integrated once with RK4 and Phi(t_a, t_b) = Phi(t_a, t0) Phi(t_b, t0)^-1;
    only the indexed nodes are inverted, and the products are formed one
    row of the table at a time.  A numerically singular Phi(t_b, t0) raises
    TransitionInversionError naming the node.
    """
    base = rk4_sweep(lambda Phi, A: A @ Phi, np.eye(A_nodes.shape[1]), grid,
                     (A_nodes,), (None,)).values
    indices = np.asarray(indices, dtype=int)
    for j in indices:
        if np.linalg.cond(base[j]) > _COND_LIMIT:
            raise TransitionInversionError(
                f"transition inversion failure at node {j} (t={grid.nodes[j]:.6g})")
    inv = np.linalg.inv(base[indices])
    table = np.empty((len(indices), len(indices)))
    for row, a in enumerate(indices):
        table[row] = node_norms(base[a] @ inv)
    return table


def spectral_radius(M: np.ndarray) -> float:
    """Largest eigenvalue magnitude."""
    M = np.asarray(M, dtype=float)
    if M.ndim != 2 or M.shape[0] != M.shape[1]:
        raise ValueError("spectral_radius expects a square matrix")
    return float(np.max(np.abs(np.linalg.eigvals(M))))
