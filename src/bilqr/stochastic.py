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
has shape (samples, paths, b) and each sample keeps its own blocks
(`BilinearProblem.blocks`) once.  Between jumps and noise the drift is
affine in the state, so both simulators step it by RK4 step maps,
`numkit.step_maps` of `model.bilinear_field` (the resimulation's field),
which brings its generator, so no map probes the field: one
(b + 1) x (b + 1) map per grid step and sample, with the control at the
nodes and midpoints as in the resimulation, formed a block of steps at a
time by `numkit.step_map_blocks` from the samples' constant generator
stack (`model.bilinear_generators`), scaled by the shared control table.
The Wiener simulator adds
G sqrt(h) xi after each step, so the mean of its paths is the RK4
resimulation up to round-off; it draws a sample's normals a block of
steps at a time, which Philox turns into the same numbers as one draw
per step.

The Poisson simulator splits a path's grid step at its jumps.  It
tabulates the control once, as its node values and the slope of each
grid step, and every sub-step reads it at its start, midpoint and end
from the line of its grid step.  Its jumps are grouped by (path, grid
step), and each group gets one composite map: the sub-step maps from t_i
to its first jump, between its jumps and from its last jump to t_{i+1},
interleaved with the jump translations [[1, G_c'], [0, I]].  They are
formed in step order, a block of groups at a time and within a block one
jump ordinal at a time, by `numkit.generator_maps` of each group's
generators, gathered from its sample's stack under the group's control;
the stack is formed once and serves the full-step maps too.

Both simulators step their paths in one loop (`_step_paths`) over the
rows [1, y] of every path, (samples, paths, b + 1), and a second buffer
of that shape: each grid step is one product by the step's full-step
maps into the other buffer, then the rows that jumped in the step are
overwritten from their composite maps (Poisson) or every row gains its
noise (Wiener), and the node is copied into the path table.  Finiteness
is tested every `numkit._CHECK_EVERY` steps and after the last, as a
non-finite row stays non-finite; a failed test scans the table for the
first non-finite node, and the error names it and its first non-finite
sample and path.

A batch's `states` has shape (paths, nodes, chosen samples * b), the
stacked layout of the chosen samples.  Memory is that table, the two
buffers, the jump lists and their groups, a few words per jump, and a
block of full-step maps (with the Wiener simulator's normals and
increments of its steps) and one of composite maps, each of
`numkit._MID_BLOCK_BYTES`, with their RK4 temporaries.  A caller bounds
it by choosing fewer samples per call.

All sampling uses the counter-based Philox generator: sample j draws from
the stream keyed by seed + j, so identical (seed, M, grid) inputs reproduce
batches bitwise, and neither a sample's random stream nor its arithmetic
depends on which other samples run beside it.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial

import numpy as np

from .model import (BilinearProblem, NoiseSpec, bilinear_field, bilinear_generator,
                    bilinear_generators, diagonal_blocks)
from .numkit import (_CHECK_EVERY, _MID_BLOCK_BYTES, GriddedTrajectory, generator_maps,
                     midpoints, step_map_blocks)

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


def _raise_blowup(states, samples, q, nodes):
    """Name the first non-finite (sample, path) row at the first non-finite
    node of a path table (paths, nodes, S, b)."""
    bad = ~np.isfinite(states).all(axis=3)
    i = np.flatnonzero(bad.any(axis=(0, 2)))[0]
    s, p = np.argwhere(bad[:, i].T)[0]
    path = f"path {p}" if q == 1 else f"sample {samples[s]} path {p}"
    raise RuntimeError(f"{path} blew up at node {i} (t={nodes[i]:.6g})")


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


def _grid_maps(rhs, b, utraj, step_bytes):
    """Blocks (lo, hi, maps (hi - lo, S, b + 1, b + 1)) of every grid step's
    RK4 maps, one per sample, in step order, with the control at the nodes
    and midpoints as in the resimulation, of `numkit._MID_BLOCK_BYTES` at
    step_bytes a step."""
    nodes = utraj.grid.nodes
    # (nodes or steps, 1, 1, m): every path's control at the nodes and midpoints
    U, Um = (utraj.at(t)[:, np.newaxis, np.newaxis] for t in (nodes, midpoints(nodes)))
    return step_map_blocks(rhs, b, utraj.grid.h, utraj.grid.steps, step_bytes, (U,), (Um,))


def _step_paths(x0, M, maps, samples, q, nodes, jumps=None, noise=None):
    """The path table (M, nodes, S, b) of M paths from each sample's x0
    (S, b), stepped by the blocks `maps` of full-step maps and either the
    composite maps `jumps` of `_composite_maps` or the increments
    `noise(lo, hi)` (S, hi - lo, M, b) of a block's steps; the module
    docstring describes the loop and its checks."""
    S, b = x0.shape
    Z = np.concatenate((np.ones((S, M, 1)), np.repeat(x0[:, np.newaxis], M, axis=1)), axis=-1)
    states = np.empty((M, len(nodes), S, b))
    states[:, 0] = x0
    bufs = [(Y, Y.reshape(S * M, b + 1)) for Y in (Z, np.empty_like(Z))]
    if jumps is not None:
        bounds, rows, composites = jumps
        c_lo, C = 0, np.empty((0, b + 1, b + 1))  # the maps of groups [c_lo, c_lo + len(C))
    with np.errstate(over="ignore", invalid="ignore"):
        for lo, hi, block in maps:
            dY = None if noise is None else noise(lo, hi)
            for i, P in enumerate(block, lo):
                (Z, flat), (Zn, flat_n) = bufs
                np.matmul(Z, P, out=Zn)
                if dY is not None:
                    Zn[..., 1:] += dY[:, i - lo]
                else:
                    g, end = bounds[i], bounds[i + 1]
                    while g < end:
                        if g == c_lo + len(C):
                            c_lo, C = next(composites)
                        top = min(end, c_lo + len(C))
                        r = rows[g:top]
                        flat_n[r] = (flat[r, None] @ C[g - c_lo:top - c_lo])[:, 0]
                        g = top
                bufs.reverse()
                states[:, i + 1] = Zn[..., 1:].swapaxes(0, 1)
                if (i + 1) % _CHECK_EVERY == 0 and not np.isfinite(Zn).all():
                    _raise_blowup(states[:, :i + 2], samples, q, nodes)
    if not np.isfinite(Zn).all():
        _raise_blowup(states, samples, q, nodes)
    return states


def _jump_groups(nodes, jt, offsets):
    """The jumps grouped by (row, grid step), a jump at t_i < t <= t_{i+1}
    in step i (at t_0, in step 0), the groups in (step, row) order: their
    steps, rows, first jumps and jump counts.  A group's jumps are
    consecutive in the jump list, which runs by row and time."""
    rows = len(offsets) - 1
    key = (np.maximum(np.searchsorted(nodes, jt[:-1]) - 1, 0) * rows
           + np.repeat(np.arange(rows), np.diff(offsets)))
    key, first, count = np.unique(key, return_index=True, return_counts=True)
    return *np.divmod(key, rows), first, count


def _composite_maps(stack, utraj, D, M, jt, jc, offsets, G_cols):
    """The (row, grid step) groups of the rows r = s M + p that jump, and
    each group's composite map taking its row across the step: its sub-step
    maps between the jumps, with the control on the line u_i + s d_i at
    every sub-step's start, midpoint and end, interleaved with the jump
    translations [[1, G_c'], [0, I]].  Each sub-step's generators are
    gathered from its group's sample in the generator stack of the chosen
    samples (`model.bilinear_generators`).  Returns the groups' bounds per step
    (those of step i are [bounds[i], bounds[i + 1])), their rows, and the
    maps in blocks (first group, maps) in group order, formed on demand."""
    S, _, b = G_cols.shape
    nodes = utraj.grid.nodes
    g_steps, g_rows, first, count = _jump_groups(nodes, jt, offsets)

    def composite(a):
        # Sub-step j of every group of a with at least j jumps: it ends at
        # jump j, or at t_{i+1} after the group's last jump.
        s, cnt, fst, stp = g_rows[a] // M, count[a], first[a], g_steps[a]
        u0, d = utraj.values[stp, np.newaxis], D[stp, np.newaxis]  # (groups, 1, m)
        t0 = nodes[stp]
        tcur = t0.copy()
        C = np.empty((a.size, b + 1, b + 1))
        for j in range(cnt.max() + 1):
            g = np.flatnonzero(cnt >= j)
            jumps = cnt[g] > j
            t_end = np.where(jumps, jt[fst[g] + j], nodes[stp[g] + 1])
            dt, h = (tcur[g] - t0[g])[:, None, None], (t_end - tcur[g])[:, None, None]
            ends = np.stack((u0[g] + dt * d[g], u0[g] + (dt + h) * d[g]))
            P = generator_maps(partial(bilinear_generator, stack[:, s[g]]), h, (ends,),
                               ((u0[g] + (dt + 0.5 * h) * d[g])[np.newaxis],))[0]
            C[g] = P if j == 0 else C[g] @ P
            g = g[jumps]
            C[g, 0, 1:] += G_cols[s[g], jc[fst[g] + j]]
            tcur[g] = t_end[jumps]
        return C

    block = max(1, _MID_BLOCK_BYTES // ((b + 1) ** 2 * 8))
    blocks = ((lo, composite(np.arange(lo, min(lo + block, first.size))))
              for lo in range(0, first.size, block))
    return np.searchsorted(g_steps, np.arange(len(nodes))).tolist(), g_rows, blocks


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
    see the module docstring for the layout, the maps and the streams.
    `jump_counts` has shape (paths, chosen samples * k).
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

    # Every sub-step of grid step i lies in [t_i, t_{i+1}], where the control
    # is the line through its node values U_i, U_{i+1}, of slope D_i.
    D = np.diff(utraj.values, axis=0) / grid.h
    stack = bilinear_generators(*coeffs)
    jumps = _composite_maps(stack, utraj, D, M, jt, jc, offsets, G_cols)
    maps = _grid_maps(bilinear_field(*coeffs, stack), b, utraj, S * (b + 1) ** 2 * 8)
    states = _step_paths(x0, M, maps, samples, prob.q, grid.nodes, jumps=jumps)
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
    sqrt_h = np.sqrt(grid.h)
    # a block of steps holds its maps, normals and increments
    maps = _grid_maps(bilinear_field(*coeffs), b, utraj, S * ((b + 1) ** 2 + M * (k + b)) * 8)

    def increments(lo, hi):
        # a sample's normals of a block of steps in one draw, the same
        # numbers as one (M, k) draw per step
        xi = np.stack([rng.standard_normal((hi - lo, M, k)) for rng in rngs])
        return sqrt_h * (xi @ Gt[:, np.newaxis])

    states = _step_paths(x0, M, maps, samples, prob.q, grid.nodes, noise=increments)
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
