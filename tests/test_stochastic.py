import dataclasses
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from bilqr import model, numkit, stochastic
from bilqr.ensemble import SampleCoefficients, sample_view, stack_coefficients, stack_noise
from bilqr.model import BilinearProblem, bilinear_field, diagonal_blocks
from bilqr.numkit import (STEP_MAPS_MAX_N, GriddedTrajectory, TimeGrid, integrate_forward,
                          midpoints, rk4_step)
from bilqr.scenarios import build
from bilqr.solver import simulate_bilinear
from bilqr.stochastic import (
    NoiseSpec,
    _draw_jump_times,
    expected_reduction,
    mean_consistency,
    simulate_poisson_paths,
    simulate_wiener_paths,
)


def drift_problem(n=1, g=None, x0=0.0):
    if n == 1:
        return BilinearProblem(
            A=[[-1.25]], B=[[2.0]], Blist=([[-2.0]],), g=g if g is not None else [0.0],
            x0=[x0], xd=[0.5], tf=10.0, R=[[5.0]],
        )
    raise NotImplementedError


def zero_drift_problem():
    return BilinearProblem(
        A=np.zeros((2, 2)), B=np.zeros((2, 1)), Blist=(np.zeros((2, 2)),),
        g=np.zeros(2), x0=np.zeros(2), xd=np.zeros(2), tf=1.0, R=[[1.0]],
    )


def zero_control(grid, m=1):
    return GriddedTrajectory(grid, np.zeros((grid.steps + 1, m)))


def test_noise_validation():
    with pytest.raises(ValueError):
        NoiseSpec("poisson", [[0.1]])  # missing rates
    with pytest.raises(ValueError):
        NoiseSpec("poisson", [[0.1]], [-1.0])
    with pytest.raises(ValueError):
        NoiseSpec("wiener", [[0.1]], [1.0])
    with pytest.raises(ValueError):
        NoiseSpec("brownian", [[0.1]])


def test_noise_rejects_non_finite_gain():
    for kind, lam in (("poisson", [2.0]), ("wiener", None)):
        with pytest.raises(ValueError, match="G must be finite"):
            NoiseSpec(kind, [[float("nan")]], lam)
        with pytest.raises(ValueError, match="G must be finite"):
            NoiseSpec(kind, [[float("inf")]], lam)


def test_expected_reduction_values():
    prob = drift_problem()
    poisson = NoiseSpec("poisson", [[0.15]], [2.0])
    reduced = expected_reduction(prob, poisson)
    assert reduced.g[0] == pytest.approx(0.3)
    wiener = NoiseSpec("wiener", [[0.15]])
    assert expected_reduction(prob, wiener).g[0] == 0.0
    # continuity as the rate vanishes
    small = expected_reduction(prob, NoiseSpec("poisson", [[0.15]], [1e-9]))
    assert abs(small.g[0]) < 1e-9


def test_stack_noise_block_structure():
    stacked = stack_noise([NoiseSpec("poisson", [[0.1]], [2.0]),
                           NoiseSpec("poisson", [[0.3]], [4.0])])
    assert stacked.G.shape == (2, 2)
    assert stacked.G[0, 0] == 0.1 and stacked.G[1, 1] == 0.3
    assert stacked.G[0, 1] == 0.0
    np.testing.assert_array_equal(stacked.lam, [2.0, 4.0])


def test_poisson_paths_seeded_reproducibility():
    prob = drift_problem(g=[0.0])
    grid = TimeGrid(0.0, prob.tf, 200)
    noise = NoiseSpec("poisson", [[0.15]], [2.0])
    u = zero_control(grid)
    b1 = simulate_poisson_paths(prob, noise, u, M=50, seed=42)
    b2 = simulate_poisson_paths(prob, noise, u, M=50, seed=42)
    assert np.array_equal(b1.states, b2.states)
    assert np.array_equal(b1.jump_counts, b2.jump_counts)
    b3 = simulate_poisson_paths(prob, noise, u, M=50, seed=43)
    assert not np.array_equal(b1.states, b3.states)


def test_poisson_zero_gain_matches_deterministic():
    prob = drift_problem(g=[0.3])
    grid = TimeGrid(0.0, prob.tf, 300)
    noise = NoiseSpec("poisson", [[0.0]], [2.0])
    u = zero_control(grid)
    batch = simulate_poisson_paths(prob, noise, u, M=5, seed=1)
    det = integrate_forward(lambda t, y: prob.A @ y + prob.g, prob.x0, grid)
    for j in range(5):
        assert np.max(np.abs(batch.states[j] - det.values)) < 1e-8


def test_poisson_batch_without_jumps_follows_deterministic_flow():
    # at a negligible rate no path jumps; every path is the jump-free RK4 of
    # the raw dynamics under the control
    prob = drift_problem(g=[0.3])
    grid = TimeGrid(0.0, prob.tf, 300)
    noise = NoiseSpec("poisson", [[0.15]], [1e-9])
    u = GriddedTrajectory(grid, 0.2 * np.sin(grid.nodes)[:, np.newaxis])
    batch = simulate_poisson_paths(prob, noise, u, M=5, seed=1)
    assert np.array_equal(batch.jump_counts, np.zeros((5, 1), dtype=int))
    det = simulate_bilinear(prob, u)
    for j in range(5):
        assert np.max(np.abs(batch.states[j] - det.values)) < 1e-12


def test_poisson_jump_count_mean():
    prob = drift_problem(g=[0.0])
    grid = TimeGrid(0.0, prob.tf, 50)
    noise = NoiseSpec("poisson", [[0.15]], [2.0])
    batch = simulate_poisson_paths(prob, noise, zero_control(grid), M=10_000, seed=7)
    mean_jumps = batch.jump_counts.mean()
    assert 19.0 <= mean_jumps <= 21.0  # rate 2 over [0, 10]


def test_poisson_jump_adds_gain_column():
    # no drift at all: the path is a staircase of G-column increments
    prob = BilinearProblem(A=[[0.0]], B=[[1.0]], Blist=([[0.0]],), g=[0.0],
                           x0=[0.0], xd=[0.0], tf=5.0, R=[[1.0]])
    grid = TimeGrid(0.0, 5.0, 100)
    noise = NoiseSpec("poisson", [[0.25]], [1.5])
    batch = simulate_poisson_paths(prob, noise, zero_control(grid), M=40, seed=3)
    finals = batch.states[:, -1, 0]
    np.testing.assert_allclose(finals, 0.25 * batch.jump_counts[:, 0], atol=1e-12)


def test_wiener_paths_variance_growth():
    prob = zero_drift_problem()
    grid = TimeGrid(0.0, 1.0, 200)
    G = np.array([[0.5, 0.0], [0.2, 0.3]])
    noise = NoiseSpec("wiener", G)
    batch = simulate_wiener_paths(prob, noise, zero_control(grid), M=100_000, seed=11)
    var = batch.states[:, -1, :].var(axis=0, ddof=1)
    expected = np.diag(G @ G.T) * 1.0
    assert np.all(np.abs(var - expected) <= 0.05 * expected)


def test_wiener_zero_gain_matches_deterministic():
    prob = drift_problem(g=[0.3])
    grid = TimeGrid(0.0, prob.tf, 1000)
    noise = NoiseSpec("wiener", [[0.0]])
    batch = simulate_wiener_paths(prob, noise, zero_control(grid), M=3, seed=5)
    det = integrate_forward(lambda t, y: prob.A @ y + prob.g, prob.x0, grid)
    assert np.max(np.abs(batch.states[0] - det.values)) < 1e-12


def test_wiener_mean_tracks_deterministic():
    prob = drift_problem(g=[0.0])
    grid = TimeGrid(0.0, prob.tf, 200)
    noise = NoiseSpec("wiener", [[0.2]])
    batch = simulate_wiener_paths(prob, noise, zero_control(grid), M=20_000, seed=13)
    det = integrate_forward(lambda t, y: prob.A @ y + prob.g, prob.x0, grid)
    report = mean_consistency(batch, det)
    assert report.max_standardized_deviation < 4.0


@pytest.mark.parametrize("seed", [13, 14])
def test_wiener_mean_is_the_rk4_flow(seed):
    # x0 and g nonzero: the mean moves, and an O(h) drift step would show
    # against the RK4 flow at 100 steps and 4000 paths
    prob = drift_problem(g=[0.3], x0=1.0)
    grid = TimeGrid(0.0, prob.tf, 100)
    noise = NoiseSpec("wiener", [[0.2]])
    batch = simulate_wiener_paths(prob, noise, zero_control(grid), M=4000, seed=seed)
    det = integrate_forward(lambda t, y: prob.A @ y + prob.g, prob.x0, grid)
    assert mean_consistency(batch, det).max_standardized_deviation < 4.0


def test_mean_consistency_identical_paths():
    grid = TimeGrid(0.0, 1.0, 10)
    ref = GriddedTrajectory(grid, np.linspace(0, 1, 11).reshape(-1, 1))
    states = np.tile(ref.values, (4, 1, 1))
    from bilqr.stochastic import PathBatch

    batch = PathBatch(states)
    report = mean_consistency(batch, ref)
    assert report.max_standardized_deviation == 0.0


def test_mean_consistency_flags_shifted_reference():
    rng = np.random.default_rng(0)
    grid = TimeGrid(0.0, 1.0, 5)
    states = rng.normal(size=(500, 6, 1))
    from bilqr.stochastic import PathBatch

    batch = PathBatch(states)
    stderr = states.std(axis=0, ddof=1) / np.sqrt(500)
    shifted = GriddedTrajectory(grid, states.mean(axis=0) + 10.0 * stderr)
    report = mean_consistency(batch, shifted)
    assert report.max_standardized_deviation > 8.0


@pytest.mark.parametrize("block_bytes", [1, 7 * 500 * 2 * 8, 1 << 20])
def test_mean_consistency_blocks_match_the_whole_table(monkeypatch, block_bytes):
    # one node, seven nodes or all nodes a block: the statistic equals the
    # one formed from the whole path table at once, zero-spread node included
    import bilqr.stochastic as stochastic
    from bilqr.stochastic import PathBatch

    monkeypatch.setattr(stochastic, "_STAT_BLOCK_BYTES", block_bytes)
    rng = np.random.default_rng(3)
    states = rng.normal(size=(500, 41, 2))
    states[:, 0] = 0.25
    ref = states.mean(axis=0) + 0.2 * rng.normal(size=(41, 2)) / np.sqrt(500)
    ref[0] = 0.25
    dev = np.abs(states.mean(axis=0) - ref)
    stderr = states.std(axis=0, ddof=1) / np.sqrt(500)
    with np.errstate(invalid="ignore", divide="ignore"):
        whole = np.max(np.where(stderr > 0, dev / stderr, np.where(dev > 1e-12, np.inf, 0.0)))
    report = mean_consistency(PathBatch(states), GriddedTrajectory(TimeGrid(0.0, 1.0, 40), ref))
    assert report.max_standardized_deviation == whole > 0.0


def test_mean_consistency_single_path_not_gated():
    grid = TimeGrid(0.0, 1.0, 5)
    from bilqr.stochastic import PathBatch

    batch = PathBatch(np.zeros((1, 6, 1)))
    ref = GriddedTrajectory(grid, np.zeros((6, 1)))
    report = mean_consistency(batch, ref)
    assert np.isnan(report.max_standardized_deviation)


def test_poisson_mean_tracks_expected_reduction():
    raw = drift_problem(g=[0.0])
    noise = NoiseSpec("poisson", [[0.15]], [2.0])
    reduced = expected_reduction(raw, noise)
    grid = TimeGrid(0.0, raw.tf, 200)
    u = zero_control(grid)
    batch = simulate_poisson_paths(raw, noise, u, M=4000, seed=21)
    det = integrate_forward(lambda t, y: reduced.A @ y + reduced.g, reduced.x0, grid)
    report = mean_consistency(batch, det)
    assert report.max_standardized_deviation < 4.0


def stage_reference(prob, G, u, jumps):
    """One path stepped node to node, split at its jumps [(time, counter)],
    with the control interpolated at every RK4 stage time of every sub-step."""
    grid = u.grid

    def rhs(x, t):
        ut = u.at(t)
        return prob.A @ x + prob.B @ ut + sum(c * Bc for c, Bc in zip(ut, prob.Blist)) @ x + prob.g

    def step(x, t, h):
        return rk4_step(rhs, x, h, (t,), (t + 0.5 * h,), (t + h,))

    jumps = list(jumps)
    x = prob.x0.copy()
    path = [x]
    for i in range(grid.steps):
        t = grid.nodes[i]
        while jumps and jumps[0][0] <= grid.nodes[i + 1]:
            tj, c = jumps.pop(0)
            x = step(x, t, tj - t) + G[:, c]
            t = tj
        x = step(x, t, grid.nodes[i + 1] - t)
        path.append(x)
    return np.array(path)


def test_poisson_steps_split_at_jumps_read_the_control_at_every_stage():
    prob = BilinearProblem(
        A=[[-1.0, 0.4], [-0.3, -0.8]], B=[[1.0, 0.0], [0.5, -0.7]],
        Blist=([[-0.6, 0.2], [0.0, 0.3]], [[0.1, -0.4], [0.25, -0.2]]),
        g=[0.05, -0.1], x0=[0.2, -0.1], xd=[0.0, 0.0], tf=3.0, R=np.eye(2))
    noise = NoiseSpec("poisson", [[0.3, -0.1], [0.2, 0.15]], [2.0, 1.8])
    grid = TimeGrid(0.0, prob.tf, 40)
    u = GriddedTrajectory(grid, np.column_stack([np.sin(2.0 * grid.nodes),
                                                 0.5 * np.cos(grid.nodes) - 0.2]))
    M, seed = 6, 5
    batch = simulate_poisson_paths(prob, noise, u, M=M, seed=seed)

    times, counters, offsets, _ = _draw_jump_times(
        np.random.Generator(np.random.Philox(seed)), noise.lam, M, grid.tf)
    assert len(times) > 2 * M  # the grid steps are split many times over
    for p in range(M):
        jumps = zip(times[offsets[p]:offsets[p + 1]], counters[offsets[p]:offsets[p + 1]])
        ref = stage_reference(prob, noise.G, u, jumps)
        np.testing.assert_allclose(batch.states[p], ref, rtol=0, atol=1e-12)


def sample_stack(b, m, k, kind, q=3, seed=0, rate_scale=1.0):
    """q random b-state samples, stacked in the ensemble layout, and each sample alone."""
    rng = np.random.default_rng(seed)
    coeffs, noises = [], []
    for _ in range(q):
        coeffs.append(SampleCoefficients(
            A=-np.eye(b) + 0.3 * rng.normal(size=(b, b)), B=rng.normal(size=(b, m)),
            Blist=tuple(0.2 * rng.normal(size=(b, b)) for _ in range(m)),
            g=0.1 * rng.normal(size=b), x0=rng.normal(size=b), xd=np.zeros(b)))
        G = 0.2 * rng.normal(size=(b, k))
        lam = rate_scale * rng.uniform(1.0, 3.0, size=k) if kind == "poisson" else None
        noises.append(NoiseSpec(kind, G, lam))
    stack, noise = stack_coefficients(coeffs, 3.0, np.eye(m)), stack_noise(noises)
    singles = [BilinearProblem(**vars(c), tf=3.0, R=np.eye(m)) for c in coeffs]
    return stack, noise, list(zip(singles, noises))


SIMULATORS = {"poisson": simulate_poisson_paths, "wiener": simulate_wiener_paths}


@pytest.mark.parametrize("kind", ["poisson", "wiener"])
def test_stacked_samples_match_single_system_calls(kind):
    simulate = SIMULATORS[kind]
    stack, noise, singles = sample_stack(1, 1, 1, kind)
    grid = TimeGrid(0.0, stack.tf, 150)
    u = GriddedTrajectory(grid, 0.3 * np.sin(grid.nodes)[:, np.newaxis])
    batch = simulate(stack, noise, u, M=25, seed=40)
    states = sample_view(batch.states, 3)
    for j, (sub, sub_noise) in enumerate(singles):
        single = simulate(sub, sub_noise, u, M=25, seed=40 + j)
        np.testing.assert_array_equal(states[:, :, j], single.states)
        if kind == "poisson":
            np.testing.assert_array_equal(batch.jump_counts[:, j:j + 1], single.jump_counts)
    # a group of later samples draws the same streams as the whole stack
    tail = simulate(stack, noise, u, M=25, seed=40, samples=range(1, 3))
    np.testing.assert_array_equal(tail.states, batch.states[:, :, 1:])
    with pytest.raises(ValueError, match="indices of the 3 stacked samples"):
        simulate(stack, noise, u, M=25, seed=40, samples=range(2, 4))


@pytest.mark.parametrize("kind,rate_scale", [
    pytest.param("poisson", 1.0, id="poisson"),
    pytest.param("wiener", 1.0, id="wiener"),
    # rates 50-150 at h = 0.02: rows jump several times in one grid step,
    # rows of different samples in the same round
    pytest.param("poisson", 50.0, id="poisson-busy"),
])
def test_stacked_multistate_samples_match_single_system_calls(kind, rate_scale):
    simulate = SIMULATORS[kind]
    stack, noise, singles = sample_stack(2, 2, 2, kind, seed=1, rate_scale=rate_scale)
    grid = TimeGrid(0.0, stack.tf, 150)
    u = GriddedTrajectory(grid, 0.3 * np.sin(np.outer(grid.nodes, [1.0, 2.0])))
    states = sample_view(simulate(stack, noise, u, M=25, seed=40).states, 3)
    for j, (sub, sub_noise) in enumerate(singles):
        single = simulate(sub, sub_noise, u, M=25, seed=40 + j)
        np.testing.assert_array_equal(states[:, :, j], single.states)


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), b=st.integers(1, 3), steps=st.integers(2, 30))
@example(seed=7, b=STEP_MAPS_MAX_N + 1, steps=12)  # above the linear sweeps' map limit
def test_poisson_paths_match_the_stage_reference(seed, b, steps):
    # two samples of three paths against the stage reference, on jump lists
    # that put a jump exactly on a node (its zero-length closing step is the
    # identity) and at tf, three jumps of one row in one grid step and a jump
    # of the other sample in that step, beside a few anywhere.  The maps' L'
    # carries the forcing's round-off eps |f|, which each step multiplies by
    # |y|, as in linear_sweep's property
    rng = np.random.default_rng(seed)
    q, M, k = 2, 3, 2
    stack, noise, singles = sample_stack(b, 2, k, "poisson", q=q, seed=seed)
    grid = TimeGrid(0.0, stack.tf, steps)
    nodes = grid.nodes
    u = GriddedTrajectory(grid, 0.3 * np.sin(np.outer(nodes, [1.0, 2.0]) + rng.uniform(0, 3, 2)))
    busy = rng.integers(steps)
    jumps = []  # per sample and path, [(time, counter)] in time order
    for s in range(q):
        per_path = []
        for p in range(M):
            t = list(rng.uniform(0.0, grid.tf, rng.integers(0, 4)))
            if p == 0 and s == 0:
                t += [nodes[rng.integers(1, steps)], grid.tf]
            if p == 1:
                t += list(rng.uniform(nodes[busy], nodes[busy + 1], 3 - 2 * s))
            per_path.append(sorted((ti, int(rng.integers(k))) for ti in t))
        jumps.append(per_path)
    draws = iter(jumps)

    def drawn(rng, lam, M, tf):
        per_path = next(draws)
        flat = [jump for path in per_path for jump in path]
        counts = np.array([np.bincount([c for _, c in path], minlength=k) for path in per_path])
        return (np.array([t for t, _ in flat]), np.array([c for _, c in flat], dtype=int),
                np.cumsum([0] + [len(path) for path in per_path]), counts.reshape(M, k))

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(stochastic, "_draw_jump_times", drawn)
        states = sample_view(simulate_poisson_paths(stack, noise, u, M=M, seed=0).states, q)
    for s, (sub, sub_noise) in enumerate(singles):
        ref = np.array([stage_reference(sub, sub_noise.G, u, path) for path in jumps[s]])
        f_max = np.max(np.abs(u.values @ sub.B.T + sub.g))
        y_max = np.max(np.abs(ref))
        tol = 1e-12 * y_max + np.finfo(float).eps * f_max * y_max * grid.tf
        assert np.max(np.abs(states[:, :, s] - ref)) <= tol


def test_poisson_paths_evaluate_the_field_per_block_and_jump_ordinal(monkeypatch):
    # iaf1's batch (5 samples, 40 paths, 500 steps, about 4000 jumps): the
    # field is evaluated for each block of grid steps and each jump ordinal,
    # not for each round of jumps (about 4300 calls when every round stepped
    # alone)
    setup = build("iaf_case1", {"q": 5})
    grid = TimeGrid(0.0, setup.stated.tf, 500)
    u = GriddedTrajectory(grid, 0.2 + 0.1 * np.sin(grid.nodes)[:, np.newaxis])
    calls = []

    def counted(*coeffs):
        rhs = bilinear_field(*coeffs)

        def counting(*args):
            calls.append(1)
            return rhs(*args)

        return counting

    monkeypatch.setattr(stochastic, "bilinear_field", counted)
    batch = simulate_poisson_paths(setup.stated, setup.noise, u, M=40, seed=1185)
    assert batch.jump_counts.sum() > 3000
    assert len(calls) < 100


def test_poisson_composite_maps_are_formed_per_block_and_jump_ordinal(monkeypatch):
    # the same batch: the composite maps' RK4 maps are formed for each block
    # of groups and each jump ordinal, not for each round of jumps, from one
    # generator stack that the full-step maps share
    setup = build("iaf_case1", {"q": 5})
    grid = TimeGrid(0.0, setup.stated.tf, 500)
    u = GriddedTrajectory(grid, 0.2 + 0.1 * np.sin(grid.nodes)[:, np.newaxis])
    maps, stacks = [], []

    def counting(calls, f):
        def counted(*args):
            calls.append(1)
            return f(*args)

        return counted

    monkeypatch.setattr(stochastic, "generator_maps", counting(maps, numkit.generator_maps))
    for module in (stochastic, model):
        monkeypatch.setattr(module, "bilinear_generators",
                            counting(stacks, model.bilinear_generators))
    batch = simulate_poisson_paths(setup.stated, setup.noise, u, M=40, seed=1185)
    assert batch.jump_counts.sum() > 3000
    assert 0 < len(maps) < 100
    assert len(stacks) == 1


def test_poisson_paths_with_a_jump_in_every_step_hold_a_block_of_composite_maps(monkeypatch):
    # every path of 16 states jumps in every grid step: the composite maps
    # of all (row, step) groups would take (b + 1)^2 / b = 18 path tables
    # (52 MiB here), but they are formed a block at a time, so beside the
    # path table the peak is the jump lists and groups, a few words per
    # jump, and the blocks of maps and their RK4 temporaries
    stack, noise, _ = sample_stack(16, 1, 1, "poisson", q=2)
    grid = TimeGrid(0.0, stack.tf, 50)
    u = GriddedTrajectory(grid, 0.3 * np.sin(grid.nodes)[:, np.newaxis])
    M = 200
    mids = grid.nodes[:-1] + 0.5 * grid.h

    def one_jump_per_step(rng, lam, M, tf):
        return (np.tile(mids, M), np.zeros(M * grid.steps, dtype=int),
                np.arange(M + 1) * grid.steps, np.full((M, 1), grid.steps))

    monkeypatch.setattr(stochastic, "_draw_jump_times", one_jump_per_step)
    table = M * (grid.steps + 1) * 2 * 16 * 8
    jumps = 2 * M * grid.steps
    tracemalloc.start()
    try:
        batch = simulate_poisson_paths(stack, noise, u, M=M, seed=0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert batch.states.nbytes == table and batch.jump_counts.sum() == jumps
    assert peak < table + 16 * 8 * jumps + 24 * numkit._MID_BLOCK_BYTES
    # a step's 400 groups span blocks of 113 groups; the paths are those of
    # one block that holds every group
    monkeypatch.setattr(stochastic, "_MID_BLOCK_BYTES", 1 << 40)
    whole = simulate_poisson_paths(stack, noise, u, M=M, seed=0)
    np.testing.assert_array_equal(batch.states, whole.states)


@pytest.mark.parametrize("kind", ["poisson", "wiener"])
def test_blowup_names_the_sample_and_path(kind):
    simulate = SIMULATORS[kind]
    stack, noise, singles = sample_stack(1, 1, 1, kind, q=2)
    A = stack.A.copy()
    A[1, 1] = 1e5  # sample 1 overflows within the grid; sample 0 decays
    stack = dataclasses.replace(stack, A=A)
    grid = TimeGrid(0.0, stack.tf, 100)
    u = zero_control(grid)
    for samples in (None, range(1, 2)):  # the stack's own sample index, also in a group
        with pytest.raises(RuntimeError, match=r"^sample 1 path 0 blew up at node \d+ \(t="):
            simulate(stack, noise, u, M=10, seed=2, samples=samples)
    sub, sub_noise = singles[1]
    sub = dataclasses.replace(sub, A=[[1e5]])
    with pytest.raises(RuntimeError, match=r"^path 0 blew up at node \d+ \(t="):
        simulate(sub, sub_noise, u, M=10, seed=3)
    simulate(stack, noise, u, M=10, seed=2, samples=range(1))  # sample 0 alone is finite


def wiener_reference(stack, noise, u, M, seed):
    """Wiener paths of every sample of a stack, (M, nodes, q * b), stepped
    one grid step at a time with no finiteness checks: [1, y] P_i by each
    sample's RK4 map, plus sqrt(h) xi G' with one (M, k) draw of normals xi
    per step and sample."""
    grid, q = u.grid, stack.q
    A, B, Bs, g, x0 = stack.blocks
    b, k = x0.shape[1], noise.k // q
    U, Um = (u.at(t)[:, np.newaxis, np.newaxis] for t in (grid.nodes, midpoints(grid.nodes)))
    maps = numkit.step_maps(bilinear_field(A, B, Bs, g), b, grid.h, (U,), (Um,))
    Gt = diagonal_blocks(noise.G, q).swapaxes(1, 2)
    rngs = [np.random.Generator(np.random.Philox(seed + j)) for j in range(q)]
    z = np.concatenate((np.ones((q, M, 1)), np.repeat(x0[:, np.newaxis], M, axis=1)), axis=-1)
    rows = [z[..., 1:]]
    with np.errstate(over="ignore", invalid="ignore"):
        for P in maps:
            xi = np.stack([rng.standard_normal((M, k)) for rng in rngs])
            z = z @ P
            z[..., 1:] += np.sqrt(grid.h) * (xi @ Gt)
            rows.append(z[..., 1:].copy())
    return np.stack(rows, axis=2).transpose(1, 2, 0, 3).reshape(M, grid.steps + 1, q * b)


@pytest.mark.parametrize("b,m,k,q,steps", [(1, 1, 1, 3, 40), (2, 2, 3, 2, 97), (3, 1, 2, 1, 12)])
def test_wiener_batch_equals_per_step_draws(monkeypatch, b, m, k, q, steps):
    # the simulator draws a sample's normals a block of steps at a time;
    # Philox gives the same numbers as one draw per step, so the batch is the
    # per-step reference to the bit, with blocks of one step and of many
    stack, noise, _ = sample_stack(b, m, k, "wiener", q=q, seed=b)
    grid = TimeGrid(0.0, stack.tf, steps)
    u = GriddedTrajectory(grid, 0.3 * np.sin(np.outer(grid.nodes, np.arange(1, m + 1))))
    want = wiener_reference(stack, noise, u, M=9, seed=7)
    assert np.array_equal(simulate_wiener_paths(stack, noise, u, M=9, seed=7).states, want)
    monkeypatch.setattr(numkit, "_MID_BLOCK_BYTES", 1)
    assert np.array_equal(simulate_wiener_paths(stack, noise, u, M=9, seed=7).states, want)


def first_blowup(states, q, b):
    """The first non-finite node of a path table (M, nodes, q * b) and its
    first non-finite (sample, path) row, by a direct scan."""
    bad = ~np.isfinite(sample_view(states, q)).all(axis=-1)  # (M, nodes, q)
    node = next(i for i in range(states.shape[1]) if bad[:, i].any())
    sample, path = next((s, p) for s in range(q) for p in range(len(states)) if bad[p, node, s])
    return node, sample, path


@pytest.mark.parametrize("kind,rate,steps,seed", [("poisson", 1e4, 100, 4),
                                                   ("wiener", 300.0, 400, 3)])
def test_blowup_between_checks_names_the_first_non_finite_node(kind, rate, steps, seed):
    # sample 1 starts at rest, so its paths stay at 0 until noise kicks them
    # (a jump, or the first normals) and then grow by the rate: a path
    # overflows at a node that depends on its kicks, after the first
    # finiteness check and between two of them.  The error names the first
    # non-finite node and its first non-finite row, as a direct scan of a
    # reference table finds them
    stack, noise, singles = sample_stack(1, 1, 1, kind, q=2)
    A, g, x0 = stack.A.copy(), stack.g.copy(), stack.x0.copy()
    A[1, 1], g[1], x0[1] = rate, 0.0, 0.0
    stack = dataclasses.replace(stack, A=A, g=g, x0=x0)
    grid = TimeGrid(0.0, stack.tf, steps)
    u = zero_control(grid)
    M = 10
    if kind == "wiener":
        table = wiener_reference(stack, noise, u, M, seed)
    else:  # sample 0 decays; sample 1's paths by the stage reference
        sub, (G, lam) = dataclasses.replace(singles[1][0], A=[[rate]], g=[0.0], x0=[0.0]), (
            singles[1][1].G, singles[1][1].lam)
        times, counters, offsets, _ = _draw_jump_times(
            np.random.Generator(np.random.Philox(seed + 1)), lam, M, grid.tf)
        table = np.zeros((M, steps + 1, 2))
        with np.errstate(over="ignore", invalid="ignore"):
            for p in range(M):
                jumps = zip(times[offsets[p]:offsets[p + 1]], counters[offsets[p]:offsets[p + 1]])
                table[p, :, 1] = stage_reference(sub, G, u, jumps)[:, 0]
    node, sample, path = first_blowup(table, 2, 1)
    assert (sample, path > 0) == (1, True)
    assert node > numkit._CHECK_EVERY and node % numkit._CHECK_EVERY
    with pytest.raises(RuntimeError, match=rf"^sample 1 path {path} blew up at node {node} "
                                           rf"\(t={grid.nodes[node]:.6g}\)$"):
        SIMULATORS[kind](stack, noise, u, M=M, seed=seed)


@pytest.mark.parametrize("kind", ["poisson", "wiener"])
def test_noise_with_more_rows_than_states_is_rejected(kind):
    stack, noise, singles = sample_stack(1, 1, 1, kind, q=2)
    grid = TimeGrid(0.0, stack.tf, 20)
    with pytest.raises(ValueError, match="G must have 1 rows, got 2"):
        SIMULATORS[kind](singles[0][0], noise, zero_control(grid), M=5, seed=0)
