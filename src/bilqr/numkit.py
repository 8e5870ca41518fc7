"""Shared numerical substrate: time grids, the one RK4 stepper, the
l1/max-column-sum norm pair, weighted sup-norms, norm tables of transition
matrices, and spectral radius.

Every integration in the package is fixed-step classical RK4, forward or
backward over a uniform grid, with `rk4_step` the one step body.
`rk4_sweep` steps y' = rhs(y, *args) whose time-dependent arguments are
stage tables, arrays precomputed at the grid nodes and at the interval
midpoints; a right-hand side of one table that brings an in-place form
(`rhs.into`, as the Riccati sweep's do) is stepped on one preallocated
stage stack (4, *y.shape) while that fits _STAGE_STACK_BYTES, each step's
increment one weighted product over the stack.
`linear_sweep` takes its arguments, with tables of vectors as
(steps + 1, 1, n), for a right-hand side affine in y and is the one place
that picks how to step it: an RK4 step of an affine equation is one affine
map, so up to STEP_MAPS_MAX_N states it forms the maps of a block of steps
with one batched `rk4_step` from the block's stage tables, by the
generator the right-hand side brings or else by probing it, and applies
them in sweep order, one small product per step, which beats four stage
evaluations on small systems; above, it is `rk4_sweep`.  A linear sweep
takes at least one stage table, one map a step; only `rk4_sweep` steps a
right-hand side without tables.  Axes of y before its last two hold
independent systems, such as an ensemble's samples (q, rows, b), each
stepped by its own maps, so the limit applies to b whatever q is.  There
is no adaptive stepping, so repeated runs produce bitwise-identical
iterates.
"""

from __future__ import annotations

import math
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
    """A transition matrix is numerically singular, in the stack's system `system`."""

    def __init__(self, message: str, system: int = 0):
        super().__init__(message)
        self.system = system


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
# block of step maps a linear sweep or the Monte Carlo paths form at a time.
_MID_BLOCK_BYTES = 1 << 18


def _stage_blocks(nodes: tuple, mids: tuple, T: int, row_bytes: int, backward: bool):
    """Blocks (lo, hi, node tables [lo, hi], midpoint tables [lo, hi)) of
    the T steps, in sweep order, of _MID_BLOCK_BYTES at row_bytes a step (at
    least one step); a `mids` entry None is formed from its node block."""
    starts = range(0, T, max(1, _MID_BLOCK_BYTES // row_bytes))
    for lo in (reversed(starts) if backward else starts):
        hi = min(lo + starts.step, T)
        node = tuple(n[lo:hi + 1] for n in nodes)
        yield lo, hi, node, tuple(midpoints(n) if m is None else m[lo:hi]
                                  for n, m in zip(node, mids))


def _mid_rows(nodes: tuple, mids: tuple, T: int, backward: bool):
    """Midpoint argument rows in sweep order, None entries formed a block at a time."""
    row = max((n[0].nbytes for n, m in zip(nodes, mids) if m is None), default=1)
    for lo, hi, _, mid in _stage_blocks(nodes, mids, T, row, backward):
        rows = list(zip(*mid)) or [()] * (hi - lo)
        yield from (reversed(rows) if backward else rows)


# Bytes of the stage stack (4, *y.shape) that `rk4_sweep` steps in place
# when its right-hand side brings an in-place form.  Riccati sweep CPU,
# stack over allocating stages (40 steps, m = 2, one BLAS thread, medians
# of nine): 0.86-0.87 at n = 8-32 and 0.93 at 64 dense, 0.86 at 64 in 1 x 1
# blocks, 0.89 at 81 and 0.96 at 162 in 3 x 3 blocks, but 1.09 at n = 243,
# whose four 472 KB stages leave a 2 MB L2 cache.  1 MiB takes gain tables
# of up to 181 states.
_STAGE_STACK_BYTES = 1 << 20


def _blowup(node: int, t: float) -> Exception:
    return BlowupError(f"numerical blow-up at node {node} (t={t:.6g})", node_index=node, t=t)


def _first_nonfinite(out: np.ndarray, grid: TimeGrid, backward: bool, error) -> Exception:
    """error(node, t) for the first non-finite node of a table, in sweep order."""
    bad = np.flatnonzero(~np.isfinite(out.reshape(grid.steps + 1, -1)).all(axis=1))
    node = int(bad[-1] if backward else bad[0])
    return error(node, float(grid.nodes[node]))


def _stack_steps(into, out, h, steps, table: list, backward: bool) -> np.ndarray:
    """`rk4_sweep`'s steps (i, (midpoint row,)) of a right-hand side of one
    stage table, whose node rows are `table`, from the set start row of
    `out`: each stage writes into(k, y, arg) into its row of one stage
    stack, a step's increment is one product (h / 6)(1, 2, 2, 1) . stack in
    place of y + (h / 6)(k1 + 2 (k2 + k3) + k4)'s six calls, and the new y
    goes straight into its row of `out`.  Returns the last y stepped."""
    stack = np.empty((4,) + out.shape[1:])
    k1, k2, k3, k4 = stack
    flat, weights = stack.reshape(4, -1), (h / 6.0) * np.array([1.0, 2.0, 2.0, 1.0])
    increment = np.empty(k1.size)
    step, arg, half = increment.reshape(k1.shape), np.empty_like(k1), 0.5 * h
    y = out[-1 if backward else 0]
    for i, (mid,) in steps:
        a, b = (i + 1, i) if backward else (i, i + 1)
        into(k1, y, table[a])
        into(k2, np.add(y, np.multiply(k1, half, out=arg), out=arg), mid)
        into(k3, np.add(y, np.multiply(k2, half, out=arg), out=arg), mid)
        into(k4, np.add(y, np.multiply(k3, h, out=arg), out=arg), table[b])
        np.dot(weights, flat, out=increment)
        y = np.add(y, step, out=out[b])
        if i % _CHECK_EVERY == 0 and not np.isfinite(y).all():
            break
    return y


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

    A right-hand side of one stage table that brings an in-place form,
    `rhs.into(out, y, arg)` writing rhs(y, arg) into out, steps on one stage
    stack (4, *y.shape) while that fits _STAGE_STACK_BYTES (`_stack_steps`),
    RK4 up to the round-off of the stages' weighted sum.
    """
    y = np.asarray(y_start, dtype=float)
    T = grid.steps
    h, order = (-grid.h, range(T - 1, -1, -1)) if backward else (grid.h, range(T))
    out = np.empty((T + 1,) + y.shape)
    out[T if backward else 0] = y
    steps = zip(order, _mid_rows(nodes, mids, T, backward))
    into = getattr(rhs, "into", None)
    with np.errstate(over="ignore", invalid="ignore"):
        if into is not None and len(nodes) == 1 and 4 * y.nbytes <= _STAGE_STACK_BYTES:
            y = _stack_steps(into, out, h, steps, list(nodes[0]), backward)
        else:
            node_rows = list(zip(*nodes)) or [()] * (T + 1)
            for i, mid in steps:
                a, b = (i + 1, i) if backward else (i, i + 1)
                y = rk4_step(rhs, y, h, node_rows[a], mid, node_rows[b])
                out[b] = y
                if i % _CHECK_EVERY == 0 and not np.isfinite(y).all():
                    break
    if np.isfinite(y).all():
        return GriddedTrajectory(grid, out)
    raise _first_nonfinite(out, grid, backward, error)


# Largest state dimension n whose linear sweeps take precomputed RK4 step
# maps instead of four stage evaluations per step.  A stage step costs about
# 35 numpy calls whatever n is, while forming a map costs O(n^3) per step.
# CPU time of the affine and closed-loop sweeps, maps over stages (200
# steps, m = 2, one BLAS thread): 0.15 at n = 6, 0.44-0.50 at n = 16,
# 0.61-0.93 at n = 18-24, 1.3 at n = 32-36 and 22 at n = 243.  Up to 16 the
# maps win by 2x or more; beyond it the margin is thin.
STEP_MAPS_MAX_N = 16


def step_maps(rhs: Callable[..., np.ndarray], n: int, h, nodes: tuple, mids: tuple,
              backward: bool = False):
    """RK4 step maps P_i of y' = rhs(y, *args), affine in y's n states, over
    the steps between consecutive entries of the node tables:
    [1, y(t_i+1)] = [1, y(t_i)] P_i with the arguments at node i, midpoint i
    and node i + 1, or backward [1, y(t_i)] = [1, y(t_i+1)] P_i over -h.

    The tables are stage tables as in `rk4_sweep`, `nodes` with one entry
    more on their first axis than `mids`, and give one map per step.
    h is the step length, a scalar or an array that broadcasts against the
    maps.  The maps are `generator_maps` of the generator
    Z = [[0, f], [0, L']] with [1, y] Z = [0, rhs(y)], the right-hand
    side's own `rhs.generator(*args)` when it brings one (as
    `model.bilinear_field` does), else the probe: rhs evaluated once on the
    node tables and once on the midpoint tables, on the stacked rows
    0, e_1 ... e_n, which it broadcasts over the tables' leading axes
    (steps, independent systems), with L' read as rhs(e_j) - rhs(0).
    """
    generator = getattr(rhs, "generator", None)
    if generator is None:
        rows = np.eye(n + 1)[:, 1:]

        def generator(*args):
            f = rhs(rows, *args)
            Z = np.zeros(f.shape[:-1] + (n + 1,))
            Z[..., 1:] = f
            Z[..., 1:, 1:] -= Z[..., :1, 1:]
            return Z

    return generator_maps(generator, h, nodes, mids, backward)


def generator_maps(generator: Callable[..., np.ndarray], h, nodes: tuple, mids: tuple,
                   backward: bool = False):
    """The `step_maps` of the generator tables generator(*nodes) and
    generator(*mids) (..., n + 1, n + 1): each P_i is the `rk4_step` of
    Y' = Y Z from the identity.  Its first stage I Z is taken as Z itself,
    so a map costs three stacked products, not four; for a finite Z the map
    is the same to the bit, as I Z differs from Z at most in the sign of a
    zero, which the step's sums with I erase.
    """
    Zn = generator(*nodes)
    eye = np.eye(Zn.shape[-1])

    def product(Y, Z):
        return Z if Y is eye else Y @ Z

    first, last = (Zn[1:], Zn[:-1]) if backward else (Zn[:-1], Zn[1:])
    return rk4_step(product, eye, -h if backward else h, (first,), (generator(*mids),), (last,))


def step_map_blocks(rhs: Callable[..., np.ndarray], n: int, h, T: int, step_bytes: int,
                    nodes: tuple, mids: tuple, backward: bool = False):
    """The `step_maps` of the T steps of stage tables a block of steps at a
    time, in sweep order: (lo, hi, maps of the steps [lo, hi)), each block
    of _MID_BLOCK_BYTES at step_bytes a step (at least one step).  A
    right-hand side that brings its generator has it read on each block's
    tables; any other is probed there."""
    for lo, hi, node, mid in _stage_blocks(nodes, mids, T, step_bytes, backward):
        yield lo, hi, step_maps(rhs, n, h, node, mid, backward)


def linear_sweep(
    rhs: Callable[..., np.ndarray],
    y_start,
    grid: TimeGrid,
    nodes: tuple,
    mids: tuple,
    backward: bool = False,
    error: Callable[[int, float], Exception] = _blowup,
) -> GriddedTrajectory:
    """`rk4_sweep` of a right-hand side affine in y, with its signature and
    its results up to round-off: by precomputed RK4 step maps up to
    STEP_MAPS_MAX_N states per system, and by `rk4_sweep` itself above.

    `rhs` acts on the last axis of y, a row vector (n,) or a stack of rows
    (rows, n), and broadcasts over leading axes of its arguments; axes of y
    before its last two hold separate systems (y (q, rows, n): q systems of
    n states, each with its own maps).  Unlike `rk4_sweep`, it takes at
    least one stage table, and every table's value at a node must have two
    axes or more, plus one per axis of systems, as rhs sees a block of
    steps at once: a table of vectors enters as (steps + 1, 1, n), or
    (steps + 1, q, 1, n) per system; no table, or one of fewer axes,
    raises ValueError at every n.  An RK4 step of an
    affine equation is one affine map: `step_maps` forms a block of steps'
    maps P_i at once, from the generator rhs brings
    (`rhs.generator(*args)`, as `model.bilinear_field` does) or else from
    rhs probed at the block's nodes and midpoints and broadcast over the
    systems, and they are applied in sweep order,
    [1, y_i+1] = [1, y_i] P_i, one (n + 1) x (n + 1) product per step and
    system.
    A probed L' is read as rhs(e_j) - rhs(0), so it carries the forcing's
    round-off, about eps |f| per entry, which each step multiplies by |y|:
    beside the stage sweep's round-off, probed maps add up to about
    eps |f| |y| per unit time; a generator brought by rhs has no such term.
    The first non-finite node, in sweep order, raises error(node, t).
    """
    y = np.asarray(y_start, dtype=float)
    systems = y.shape[:-2]
    if not nodes or any(np.ndim(t) < len(systems) + 3 for t in nodes + mids if t is not None):
        raise ValueError("linear_sweep takes stage tables of two axes per node, plus one per "
                         "axis of systems: a table of vectors enters as (steps + 1, 1, n)")
    n = y.shape[-1]
    if n > STEP_MAPS_MAX_N:
        return rk4_sweep(rhs, y, grid, nodes, mids, backward, error)
    T = grid.steps
    out = np.empty((T + 1,) + y.shape)
    out[T if backward else 0] = y
    z = np.concatenate((np.ones(y.shape[:-1] + (1,)), y), axis=-1)
    product = np.matmul if systems else np.dot  # dot: half matmul's call time on one system
    step_bytes = max((n + 1) ** 2 * 8 * math.prod(systems), z.nbytes)  # a step's maps, or [1, y]

    with np.errstate(over="ignore", invalid="ignore"):
        for lo, hi, maps in step_map_blocks(rhs, n, grid.h, T, step_bytes, nodes, mids, backward):
            zs = np.empty((hi - lo + 1,) + z.shape)  # [1, y] at the block's nodes, sweep order
            zs[0] = z
            for P, row in zip(maps[::-1] if backward else maps, zs[1:]):
                z = product(z, P, out=row)
            if backward:
                out[lo:hi] = zs[:0:-1, ..., 1:]
            else:
                out[lo + 1:hi + 1] = zs[1:, ..., 1:]
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


def node_norms(values: np.ndarray, lead: int = 1) -> np.ndarray:
    """Node-wise l1 (vector) or max-column-sum (matrix) norms of a table,
    whose first `lead` axes index the nodes (and a stack of tables)."""
    norms = np.abs(values)
    if values.ndim > lead:
        norms = np.sum(norms, axis=lead)
    if values.ndim > lead + 1:
        norms = np.max(norms, axis=lead)
    return norms


def alpha_weights(grid: TimeGrid, alpha: float, direction: str) -> np.ndarray:
    """Node weights exp(-alpha (t - t0)) ("forward") or exp(-alpha (tf - t))
    ("backward") of the weighted sup-norm."""
    if alpha < 0:
        raise ValueError("alpha must be >= 0")
    if direction == "forward":
        return np.exp(-alpha * (grid.nodes - grid.t0))
    if direction == "backward":
        return np.exp(-alpha * (grid.tf - grid.nodes))
    raise ValueError(f"unknown direction {direction!r}")


def alpha_norm(traj: GriddedTrajectory, alpha: float, direction: str) -> float:
    """Weighted sup-norm over grid nodes, with the `alpha_weights` of the
    direction.  At alpha = 0 this is the plain sup of the node-wise l1
    (vector) or max-column-sum (matrix) norm.
    """
    return float(np.max(node_norms(traj.values) * alpha_weights(traj.grid, alpha, direction)))


_COND_LIMIT = 1e13


def transition_norms(A_nodes: np.ndarray, grid: TimeGrid, indices) -> np.ndarray:
    """Table of mat_norm(Phi(t_a, t_b)) over the given node indices.

    Phi solves dPhi/dt = A(t) Phi, with A given at the grid nodes,
    (steps + 1, n, n), and blended linearly between them.  Axes between the
    first and the last two hold independent systems, as in `linear_sweep`:
    A_nodes (steps + 1, q, n, n) gives a (q, S, S) table, one per system.
    Phi(., t0) is integrated once with RK4 and
    Phi(t_a, t_b) = Phi(t_a, t0) Phi(t_b, t0)^-1; only the indexed nodes are
    inverted, and the products are formed one row of the tables at a time.
    A numerically singular Phi(t_b, t0) raises TransitionInversionError
    naming the node: of the first failing system (its flat index is the
    error's `system`), the first failing index in the order given.
    """
    systems, n = A_nodes.shape[1:-2], A_nodes.shape[-1]
    # Phi' steps as a stack of rows: (Phi')' = Phi' A'
    base = linear_sweep(lambda Y, A: Y @ A.swapaxes(-1, -2),
                        np.broadcast_to(np.eye(n), systems + (n, n)), grid,
                        (A_nodes,), (None,)).values.swapaxes(-1, -2)
    indices = np.asarray(indices, dtype=int)
    S = len(indices)
    singular = np.moveaxis(np.linalg.cond(base[indices]) > _COND_LIMIT, 0, -1).reshape(-1, S)
    if singular.any():
        system, col = divmod(int(np.flatnonzero(singular)[0]), S)
        j = indices[col]
        raise TransitionInversionError(
            f"transition inversion failure at node {j} (t={grid.nodes[j]:.6g})", system)
    inv = np.linalg.inv(base[indices])
    table = np.empty(systems + (S, S))
    for row, a in enumerate(indices):
        table[..., row, :] = np.moveaxis(node_norms(base[a] @ inv, 1 + len(systems)), 0, -1)
    return table


def spectral_radius(M: np.ndarray) -> np.ndarray:
    """Largest eigenvalue magnitude, per matrix of a stack (..., n, n)."""
    M = np.asarray(M, dtype=float)
    if M.ndim < 2 or M.shape[-1] != M.shape[-2]:
        raise ValueError("spectral_radius expects square matrices")
    return np.max(np.abs(np.linalg.eigvals(M)), axis=-1)
