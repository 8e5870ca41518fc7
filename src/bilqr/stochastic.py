"""Additive-noise stochastic variants and their deterministic reductions.

For dynamics driven by G dS with S a Poisson counter vector (rates lam) or
a standard Wiener process, the mean of the state obeys the deterministic
system with translation g = G lam (Poisson) or g = 0 (Wiener).  With a
deterministic control and purely additive noise the reduction is exact, so
the Monte Carlo comparison here is a correctness test of the simulators,
not an approximation study.

All sampling uses the counter-based Philox generator keyed by the given
seed; identical (seed, M, grid) inputs reproduce batches bitwise.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .model import BilinearProblem
from .numkit import GriddedTrajectory, TimeGrid, rk4_step

__all__ = [
    "NoiseSpec",
    "PathBatch",
    "MeanConsistencyReport",
    "expected_reduction",
    "simulate_poisson_paths",
    "simulate_wiener_paths",
    "mean_consistency",
]

KINDS = ("poisson", "wiener")


@dataclass(frozen=True)
class NoiseSpec:
    """Additive noise channel: kind, input matrix G (n x k), Poisson rates."""

    kind: str
    G: np.ndarray
    lam: np.ndarray | None = None

    def __post_init__(self):
        if self.kind not in KINDS:
            raise ValueError(f"kind must be one of {KINDS}")
        G = np.atleast_2d(np.asarray(self.G, dtype=float))
        if not np.all(np.isfinite(G)):
            raise ValueError("G must be finite")
        object.__setattr__(self, "G", G)
        if self.kind == "poisson":
            if self.lam is None:
                raise ValueError("poisson noise requires rates lam")
            lam = np.atleast_1d(np.asarray(self.lam, dtype=float))
            if lam.shape != (G.shape[1],):
                raise ValueError(f"lam must have length {G.shape[1]}, got {lam.shape}")
            if not np.all(np.isfinite(lam)) or np.any(lam <= 0):
                raise ValueError("poisson rates must be finite and positive")
            object.__setattr__(self, "lam", lam)
        elif self.lam is not None:
            raise ValueError("wiener noise takes no rates")

    @property
    def k(self) -> int:
        return self.G.shape[1]


@dataclass(frozen=True)
class PathBatch:
    """Monte Carlo batch: states has shape (paths, nodes, n)."""

    paths: int
    grid: TimeGrid
    states: np.ndarray
    rng_seed: int
    jump_counts: np.ndarray | None = None  # (paths, k) for Poisson batches

    def __post_init__(self):
        if self.paths < 1:
            raise ValueError("need at least one path")


def expected_reduction(prob: BilinearProblem, noise: NoiseSpec) -> BilinearProblem:
    """Deterministic problem governing the mean of the noisy state.

    Any translation already present on `prob` is replaced: g = G lam for
    Poisson counters, g = 0 for Wiener noise.
    """
    if noise.G.shape[0] != prob.n:
        raise ValueError(f"G must have {prob.n} rows, got {noise.G.shape[0]}")
    if noise.kind == "poisson":
        g = noise.G @ noise.lam
    else:
        g = np.zeros(prob.n)
    return prob.with_g(g)


def _batch_field(prob: BilinearProblem, utraj: GriddedTrajectory):
    """Bilinear right-hand side vectorized over paths with per-path times."""
    Bs = np.stack(prob.Blist)  # (m, n, n)

    def rhs(Y, t):
        # Y: (M, n); t: (M,) or scalar
        u = np.atleast_2d(utraj.at(t))  # (M, m) or (1, m)
        drift = Y @ prob.A.T + u @ prob.B.T + prob.g
        coupling = np.einsum("pm,mnk,pk->pn", u, Bs, Y)
        return drift + coupling

    return rhs


def _rk4_path_step(rhs, Y, t, h):
    """One RK4 step of every path in Y from its own time t over its own step h."""
    return rk4_step(rhs, Y, h[:, np.newaxis], (t,), (t + 0.5 * h,), (t + h,))


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
) -> PathBatch:
    """Jump-diffusion paths: RK4 drift between jumps, jumps at exact times.

    Jump times come from exponential inter-arrivals per counter; at a jump
    of counter j the state gains column j of G.  The RK4 step is split at
    each jump instant, which removes the O(h) placement bias of node-aligned
    jump handling.
    """
    if noise.kind != "poisson":
        raise ValueError("simulate_poisson_paths requires poisson noise")
    if M < 1:
        raise ValueError("M must be >= 1")
    grid = utraj.grid
    n = prob.n
    rng = np.random.Generator(np.random.Philox(seed))
    jt, jc, offsets, counts = _draw_jump_times(rng, noise.lam, M, grid.tf)
    jt = np.append(jt, np.inf)  # a path past its last jump reads this sentinel

    rhs = _batch_field(prob, utraj)
    G_cols = noise.G.T  # (k, n)
    nodes = grid.nodes
    states = np.empty((M, grid.steps + 1, n))
    Y = np.tile(prob.x0, (M, 1))
    states[:, 0] = Y
    ptr = offsets[:-1].copy()
    ends = offsets[1:]

    for i in range(grid.steps):
        t_right = nodes[i + 1]
        tcur = np.full(M, nodes[i])
        while True:
            next_t = np.where(ptr < ends, jt[ptr], np.inf)
            active = next_t <= t_right
            if not np.any(active):
                break
            ya = Y[active]
            ya = _rk4_path_step(rhs, ya, tcur[active], next_t[active] - tcur[active])
            ya += G_cols[jc[ptr[active]]]
            Y[active] = ya
            tcur[active] = next_t[active]
            ptr[active] += 1
        Y = _rk4_path_step(rhs, Y, tcur, t_right - tcur)
        if not np.all(np.isfinite(Y)):
            bad = int(np.where(~np.all(np.isfinite(Y), axis=1))[0][0])
            raise RuntimeError(f"path {bad} blew up at node {i + 1} (t={t_right:.6g})")
        states[:, i + 1] = Y

    return PathBatch(paths=M, grid=grid, states=states, rng_seed=seed, jump_counts=counts)


def simulate_wiener_paths(
    prob: BilinearProblem,
    noise: NoiseSpec,
    utraj: GriddedTrajectory,
    M: int,
    seed: int,
) -> PathBatch:
    """Euler-Maruyama on the grid: drift step plus G (sqrt(h) N(0, I))."""
    if noise.kind != "wiener":
        raise ValueError("simulate_wiener_paths requires wiener noise")
    if M < 1:
        raise ValueError("M must be >= 1")
    grid = utraj.grid
    rng = np.random.Generator(np.random.Philox(seed))
    rhs = _batch_field(prob, utraj)
    nodes = grid.nodes
    h = grid.h
    sqrt_h = np.sqrt(h)
    states = np.empty((M, grid.steps + 1, prob.n))
    Y = np.tile(prob.x0, (M, 1))
    states[:, 0] = Y
    for i in range(grid.steps):
        xi = rng.standard_normal((M, noise.k))
        Y = Y + h * rhs(Y, nodes[i]) + sqrt_h * (xi @ noise.G.T)
        if not np.all(np.isfinite(Y)):
            bad = int(np.where(~np.all(np.isfinite(Y), axis=1))[0][0])
            raise RuntimeError(f"path {bad} blew up at node {i + 1} (t={nodes[i + 1]:.6g})")
        states[:, i + 1] = Y
    return PathBatch(paths=M, grid=grid, states=states, rng_seed=seed)


@dataclass(frozen=True)
class MeanConsistencyReport:
    max_standardized_deviation: float
    mean: np.ndarray
    stderr: np.ndarray
    argmax_node: int
    argmax_component: int


def mean_consistency(batch: PathBatch, reference: GriddedTrajectory) -> MeanConsistencyReport:
    """Max over nodes/components of |sample mean - reference| / stderr.

    Nodes with zero spread (the initial condition, noise-free components)
    count as zero deviation when the means agree exactly and as infinite
    otherwise.  With M < 2 the statistic is NaN.
    """
    ref = reference.values
    if ref.ndim == 1:
        ref = ref[:, np.newaxis]
    mean = batch.states.mean(axis=0)
    if batch.paths < 2:
        stderr = np.full_like(mean, np.nan)
        stat = float("nan")
        return MeanConsistencyReport(stat, mean, stderr, 0, 0)
    stderr = batch.states.std(axis=0, ddof=1) / np.sqrt(batch.paths)
    dev = np.abs(mean - ref)
    with np.errstate(invalid="ignore", divide="ignore"):
        z = np.where(stderr > 0, dev / stderr, np.where(dev > 1e-12, np.inf, 0.0))
    flat = int(np.argmax(z))
    node, comp = np.unravel_index(flat, z.shape)
    return MeanConsistencyReport(
        max_standardized_deviation=float(z[node, comp]),
        mean=mean,
        stderr=stderr,
        argmax_node=int(node),
        argmax_component=int(comp),
    )
