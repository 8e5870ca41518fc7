"""Additive-noise stochastic variants and their deterministic reductions.

For dynamics driven by G dS with S a Poisson counter vector (rates lam) or
a standard Wiener process, the mean of the state obeys the deterministic
system with translation g + G lam (Poisson) or g (Wiener, whose increments
have mean zero).  With a deterministic control and purely additive noise
the reduction is exact, so the Monte Carlo comparison here is a
correctness test of the simulators, not an approximation study.

The simulators take the problem as stated, with its own g, and the q =
`prob.q` samples stacked as in `bilqr.ensemble` (q = 1: a single system);
they run the paths of the chosen samples in one batched pass.  The state
has shape (samples, paths, b): each sample keeps its own blocks
(`BilinearProblem.blocks`) once, and every drift step is one
`numkit.rk4_step` of `model.bilinear_field`, the resimulation's field, a
matrix product per sample over all its paths (for one sample, the plain
`Y @ A.T` of a single system).  The Poisson simulator tabulates the
control once, as its node values and the slope of each grid step, and reads
it at every RK4 stage time from the line of the stage's grid step.  A path
row that jumps steps alone, under its own sample's blocks gathered per
row; the step closing each grid interval is batched per sample.  The
Wiener simulator tabulates the control at the nodes and midpoints as the
resimulation does and adds G sqrt(h) xi after each step; the drift is
affine in the state, so the mean of its paths is the RK4 resimulation up
to round-off (the resimulation steps by maps, the paths by stages).  A
batch's `states`
has shape (paths, nodes, chosen samples * b), the stacked layout of the
chosen samples.  Memory is that table plus a few of its rows and the jump
lists, so a caller bounds it by choosing fewer samples per call.

All sampling uses the counter-based Philox generator: sample j draws from
the stream keyed by seed + j, so identical (seed, M, grid) inputs reproduce
batches bitwise, and a sample's random stream does not depend on which
other samples run beside it.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .model import BilinearProblem, NoiseSpec, bilinear_field, diagonal_blocks
from .numkit import GriddedTrajectory, midpoints, rk4_step

__all__ = [
    "NoiseSpec",
    "PathBatch",
    "MeanConsistencyReport",
    "expected_reduction",
    "simulate_poisson_paths",
    "simulate_wiener_paths",
    "mean_consistency",
]


@dataclass(frozen=True)
class PathBatch:
    """Monte Carlo batch: states has shape (paths, nodes, chosen samples * b)."""

    states: np.ndarray
    jump_counts: np.ndarray | None = None  # (paths, k) for Poisson batches

    @property
    def paths(self) -> int:
        return self.states.shape[0]


def expected_reduction(prob: BilinearProblem, noise: NoiseSpec) -> BilinearProblem:
    """Deterministic problem governing the mean of the noisy state: Poisson
    counters add G lam to the translation g; Wiener noise has mean zero and
    leaves `prob` as it is."""
    if noise.G.shape[0] != prob.n:
        raise ValueError(f"G must have {prob.n} rows, got {noise.G.shape[0]}")
    if noise.kind == "poisson":
        return prob.with_g(prob.g + noise.G @ noise.lam)
    return prob


def _sample_blocks(prob, noise, samples, M):
    """The chosen samples, their coefficient stacks (A, B, Bs, g) with a
    leading sample axis, their initial states (S, b), noise columns
    G' (S, k, b) and rates (S, k), or None under Wiener noise."""
    q = prob.q
    if M < 1:
        raise ValueError("M must be >= 1")
    if noise.G.shape[0] != prob.n:
        raise ValueError(f"G must have {prob.n} rows, got {noise.G.shape[0]}")
    samples = range(q) if samples is None else samples
    if len(samples) == 0 or any(not 0 <= j < q for j in samples):
        raise ValueError(f"samples must be indices of the {q} stacked samples")
    if noise.k % q:
        raise ValueError(f"a stack of {q} samples needs k divisible by {q}")
    chosen = list(samples)
    *coeffs, x0 = (blocks[chosen] for blocks in prob.blocks)
    Gt = diagonal_blocks(noise.G, q)[chosen].swapaxes(1, 2)
    lam = None if noise.lam is None else noise.lam.reshape(q, -1)[chosen]
    return samples, coeffs, x0, Gt, lam


def _rk4_path_step(rhs, u_i, d_i, Y, dt, h):
    """One RK4 step of every path over its own step h, from its own time dt
    past node i, within grid step i; the control at time t_i + s is the
    line u_i + s d_i through that step's node values."""
    h, dt = h[..., np.newaxis], dt[..., np.newaxis]
    return rk4_step(rhs, Y, h, (u_i + dt * d_i,), (u_i + (dt + 0.5 * h) * d_i,),
                    (u_i + (dt + h) * d_i,))


def _raise_blowup(Y, samples, q, i, t):
    """Name the first non-finite (sample, path) row of Y (S, M, b)."""
    s, p = np.argwhere(~np.all(np.isfinite(Y), axis=2))[0]
    path = f"path {p}" if q == 1 else f"sample {samples[s]} path {p}"
    raise RuntimeError(f"{path} blew up at node {i} (t={t:.6g})")


def _draw_jump_times(rng, lam: np.ndarray, M: int, tf: float):
    """Exact exponential inter-arrival times per (path, counter).

    Returns event times and counter ids flattened in (path, time) order,
    per-path slice offsets into them, and per-(path, counter) jump counts.
    Draw order is fixed, so the result is deterministic under the seed.
    """
    k = len(lam)
    counts = np.zeros((M, k), dtype=int)
    times_parts = []
    paths_parts = []
    counter_parts = []
    for j in range(k):
        block = max(8, int(np.ceil(lam[j] * tf + 6.0 * np.sqrt(lam[j] * tf + 1.0))))
        cums = np.empty((M, 0))
        base = np.zeros(M)
        while np.any(base <= tf):
            draws = rng.exponential(1.0 / lam[j], size=(M, block))
            cums = np.concatenate([cums, base[:, np.newaxis] + np.cumsum(draws, axis=1)], axis=1)
            base = cums[:, -1]
        mask = cums <= tf
        counts[:, j] = mask.sum(axis=1)
        rows, _ = np.nonzero(mask)
        times_parts.append(cums[mask])
        paths_parts.append(rows)
        counter_parts.append(np.full(rows.shape, j, dtype=int))

    times = np.concatenate(times_parts) if times_parts else np.empty(0)
    paths = np.concatenate(paths_parts) if paths_parts else np.empty(0, dtype=int)
    counters = np.concatenate(counter_parts) if counter_parts else np.empty(0, dtype=int)
    order = np.lexsort((times, paths))
    times, paths, counters = times[order], paths[order], counters[order]
    offsets = np.searchsorted(paths, np.arange(M + 1))
    return times, counters, offsets, counts


def simulate_poisson_paths(
    prob: BilinearProblem,
    noise: NoiseSpec,
    utraj: GriddedTrajectory,
    M: int,
    seed: int,
    samples: range | None = None,
) -> PathBatch:
    """Jump-diffusion paths: RK4 drift between jumps, jumps at exact times.

    Jump times come from exponential inter-arrivals per counter; at a jump
    of counter c the state gains column c of its sample's G.  The RK4 step
    of a path is split at each of its jump instants, which removes the O(h)
    placement bias of node-aligned jump handling.  `prob` and `noise` stack
    `prob.q` samples, of which the samples in `samples` (all by default) run;
    see the module docstring for the layout and the streams.  `jump_counts`
    has shape (paths, chosen samples * k).
    """
    if noise.kind != "poisson":
        raise ValueError("simulate_poisson_paths requires poisson noise")
    grid = utraj.grid
    samples, coeffs, x0, G_cols, lams = _sample_blocks(prob, noise, samples, M)
    S, b = x0.shape
    draws = [_draw_jump_times(np.random.Generator(np.random.Philox(seed + j)), lam, M, grid.tf)
             for j, lam in zip(samples, lams)]
    # One jump list over the rows r = s M + p of Y.reshape(S M, b); a row
    # past its last jump reads the sentinel.
    times, counters, offsets, counts = zip(*draws)
    base = np.cumsum([0] + [len(t) for t in times])
    jt = np.concatenate(times + ([np.inf],))
    jc = np.concatenate(counters)
    offsets = np.concatenate([o[:-1] + o0 for o, o0 in zip(offsets, base)] + [base[-1:]])

    rhs = bilinear_field(*coeffs)
    nodes = grid.nodes
    # Every sub-step of grid step i lies in [t_i, t_{i+1}], where the control
    # is the line through its node values U_i, U_{i+1}, of slope D_i.
    U = utraj.values
    D = np.diff(U, axis=0) / grid.h
    states = np.empty((M, grid.steps + 1, S, b))  # after the draws' temporaries are gone
    Y = np.repeat(x0[:, np.newaxis], M, axis=1)
    states[:, 0] = Y.swapaxes(0, 1)
    ptr = offsets[:-1].copy()
    ends = offsets[1:]
    with np.errstate(over="ignore", invalid="ignore"):
        for i in range(grid.steps):
            t_right = nodes[i + 1]
            tcur = np.full(S * M, nodes[i])
            while True:
                next_t = np.where(ptr < ends, jt[ptr], np.inf)
                rows = np.flatnonzero(next_t <= t_right)
                if rows.size == 0:
                    break
                # Each jumping row steps alone, (rows, 1, b), under its own
                # sample's blocks.
                s = rows // M
                Yr = Y.reshape(S * M, b)
                step = _rk4_path_step(bilinear_field(*(c[s] for c in coeffs)), U[i], D[i],
                                      Yr[rows, np.newaxis], (tcur[rows] - nodes[i])[:, np.newaxis],
                                      (next_t[rows] - tcur[rows])[:, np.newaxis])
                Yr[rows] = step[:, 0] + G_cols[s, jc[ptr[rows]]]
                tcur[rows] = next_t[rows]
                ptr[rows] += 1
            tcur = tcur.reshape(S, M)
            Y = _rk4_path_step(rhs, U[i], D[i], Y, tcur - nodes[i], t_right - tcur)
            if not np.all(np.isfinite(Y)):
                _raise_blowup(Y, samples, prob.q, i + 1, t_right)
            states[:, i + 1] = Y.swapaxes(0, 1)
    return PathBatch(states.reshape(M, grid.steps + 1, S * b), np.hstack(counts))


def simulate_wiener_paths(
    prob: BilinearProblem,
    noise: NoiseSpec,
    utraj: GriddedTrajectory,
    M: int,
    seed: int,
    samples: range | None = None,
) -> PathBatch:
    """RK4 drift step on the grid plus G (sqrt(h) N(0, I)).

    The control is tabulated at the nodes and midpoints as in
    `solver.simulate_bilinear`, so the mean of the paths is its RK4
    resimulation up to round-off.  `prob`, `noise` and `samples` as in
    `simulate_poisson_paths`.
    """
    if noise.kind != "wiener":
        raise ValueError("simulate_wiener_paths requires wiener noise")
    grid = utraj.grid
    samples, coeffs, x0, Gt, _ = _sample_blocks(prob, noise, samples, M)
    S, b = x0.shape
    rngs = [np.random.Generator(np.random.Philox(seed + j)) for j in samples]
    k = Gt.shape[1]
    rhs = bilinear_field(*coeffs)
    nodes = grid.nodes
    h = grid.h
    sqrt_h = np.sqrt(h)
    states = np.empty((M, grid.steps + 1, S, b))
    Y = np.repeat(x0[:, np.newaxis], M, axis=1)
    states[:, 0] = Y.swapaxes(0, 1)
    # (nodes or steps, 1, 1, m): every path's control at the nodes and midpoints
    U, Um = (utraj.at(t)[:, np.newaxis, np.newaxis] for t in (nodes, midpoints(nodes)))
    with np.errstate(over="ignore", invalid="ignore"):
        for i in range(grid.steps):
            xi = np.stack([rng.standard_normal((M, k)) for rng in rngs])
            Y = rk4_step(rhs, Y, h, (U[i],), (Um[i],), (U[i + 1],)) + sqrt_h * (xi @ Gt)
            if not np.all(np.isfinite(Y)):
                _raise_blowup(Y, samples, prob.q, i + 1, nodes[i + 1])
            states[:, i + 1] = Y.swapaxes(0, 1)
    return PathBatch(states.reshape(M, grid.steps + 1, S * b))


@dataclass(frozen=True)
class MeanConsistencyReport:
    max_standardized_deviation: float


# Bytes of the block of nodes whose path statistics are formed at a time:
# the deviations and squares inside `np.std` are the size of the block.
_STAT_BLOCK_BYTES = 1 << 20


def mean_consistency(batch: PathBatch, reference: GriddedTrajectory) -> MeanConsistencyReport:
    """Max over nodes/components of |sample mean - reference| / stderr.

    Nodes with zero spread (the initial condition, noise-free components)
    count as zero deviation when the means agree exactly and as infinite
    otherwise.  With M < 2 the statistic is NaN.  The statistics are formed
    a block of nodes at a time, so the temporaries stay small beside the
    path table.
    """
    if batch.paths < 2:
        return MeanConsistencyReport(float("nan"))
    ref = reference.values
    if ref.ndim == 1:
        ref = ref[:, np.newaxis]
    states = batch.states
    step = max(1, _STAT_BLOCK_BYTES // states[:, 0].nbytes)
    worst = []
    for lo in range(0, states.shape[1], step):
        block = states[:, lo:lo + step]
        dev = np.abs(block.mean(axis=0) - ref[lo:lo + step])
        stderr = block.std(axis=0, ddof=1) / np.sqrt(batch.paths)
        with np.errstate(invalid="ignore", divide="ignore"):
            z = np.where(stderr > 0, dev / stderr, np.where(dev > 1e-12, np.inf, 0.0))
        worst.append(np.max(z))
    return MeanConsistencyReport(float(np.max(worst)))
