import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bilqr.ensemble import (
    EnsembleSpec,
    SampleCoefficients,
    _place_blocks,
    averaged_terminal_cost,
    refinement_study,
    sample_uniform,
    stack_coefficients,
    stack_noise,
    stack_problem,
)
from bilqr.model import bilinear_factors, consistency_residual, diagonal_blocks, input_gain
from bilqr.solver import SolveOptions, solve
from bilqr.stochastic import NoiseSpec, expected_reduction


def smooth_spec(q, weighting="averaged"):
    def coeff(beta):
        return SampleCoefficients(
            A=np.array([[-(1.0 + 0.3 * beta)]]),
            B=np.array([[1.0]]),
            Blist=(np.array([[-0.5]]),),
            g=np.array([0.1]),
            x0=np.array([0.0]),
            xd=np.array([0.3]),
        )

    return EnsembleSpec(
        box=((0.0, 1.0),), q=q, coefficients=coeff, base_n=1, base_m=1,
        tf=2.0, R=np.array([[2.0]]), terminal_weighting=weighting,
    )


def constant_spec(q):
    def coeff(beta):
        return SampleCoefficients(
            A=np.array([[-1.2]]),
            B=np.array([[1.0]]),
            Blist=(np.array([[-0.4]]),),
            g=np.array([0.2]),
            x0=np.array([0.1]),
            xd=np.array([0.4]),
        )

    return EnsembleSpec(
        box=((0.0, 2.0),), q=q, coefficients=coeff, base_n=1, base_m=1,
        tf=2.0, R=np.array([[1.5]]),
    )


def test_sample_uniform_endpoints():
    spec = smooth_spec(3)
    spec = EnsembleSpec(box=((1.2, 1.3),), q=3, coefficients=spec.coefficients,
                        base_n=1, base_m=1, tf=2.0, R=np.array([[2.0]]))
    assert sample_uniform(spec) == [1.2, 1.25, 1.3]


def test_sample_uniform_midpoint_for_single():
    spec = EnsembleSpec(box=((0.0, 2.0),), q=1, coefficients=lambda b: None,
                        base_n=1, base_m=1, tf=1.0, R=np.array([[1.0]]))
    assert sample_uniform(spec) == [1.0]


def test_sample_uniform_dense_band():
    spec = EnsembleSpec(box=((-1.0, 1.0),), q=81, coefficients=lambda b: None,
                        base_n=1, base_m=1, tf=1.0, R=np.array([[1.0]]))
    samples = sample_uniform(spec)
    assert len(samples) == 81
    assert samples[0] == -1.0 and samples[-1] == 1.0
    assert abs(samples[1] - samples[0] - 0.025) < 1e-12


def test_sample_uniform_tensor_grid():
    spec = EnsembleSpec(box=((0.0, 1.0), (2.0, 3.0)), q=9,
                        coefficients=lambda b: None, base_n=1, base_m=1,
                        tf=1.0, R=np.array([[1.0]]))
    samples = sample_uniform(spec)
    assert len(samples) == 9
    assert samples[0] == (0.0, 2.0)
    assert samples[-1] == (1.0, 3.0)


def test_stack_single_sample_is_plain_problem():
    spec = smooth_spec(1)
    samples = sample_uniform(spec)
    prob = stack_problem(spec, samples)
    c = spec.coefficients(samples[0])
    assert prob.terminal_weight == 1.0
    np.testing.assert_array_equal(prob.A, c.A)
    np.testing.assert_array_equal(prob.B, c.B)
    np.testing.assert_array_equal(prob.Blist[0], c.Blist[0])
    np.testing.assert_array_equal(prob.g, c.g)


def test_stack_shapes_and_weight():
    spec = smooth_spec(4)
    samples = sample_uniform(spec)
    prob = stack_problem(spec, samples)
    assert prob.n == 4 and prob.m == 1
    assert prob.terminal_weight == pytest.approx(0.25)
    # drift block-diagonal, input map stacked
    assert prob.A[0, 1] == 0.0
    assert prob.B.shape == (4, 1)
    assert np.all(prob.B == 1.0)


def test_duplicated_samples_reproduce_single_control():
    opts = SolveOptions(steps=400, tol=1e-12, max_iters=50)
    single = stack_problem(constant_spec(1), sample_uniform(constant_spec(1)))
    double = stack_problem(constant_spec(2), [1.0, 1.0])
    res1 = solve(single, opts)
    res2 = solve(double, opts)
    assert res1.converged and res2.converged
    assert np.max(np.abs(res1.final.u.values - res2.final.u.values)) < 1e-6


def test_stacked_consistency_identity():
    spec = smooth_spec(5)
    prob = stack_problem(spec, sample_uniform(spec))
    factors = bilinear_factors(prob.Blist)
    rng = np.random.default_rng(9)
    for _ in range(20):
        x = rng.normal(size=prob.n)
        p = rng.normal(size=prob.n)
        assert consistency_residual(prob, factors, x, p) < 1e-10


def test_averaged_terminal_cost_cases():
    spec = smooth_spec(3)
    samples = sample_uniform(spec)
    prob = stack_problem(spec, samples)
    xds = np.concatenate([spec.coefficients(b).xd for b in samples])
    assert averaged_terminal_cost(prob, xds) == 0.0
    shifted = xds + 0.1
    assert averaged_terminal_cost(prob, shifted) == pytest.approx(0.01)
    one = smooth_spec(1)
    s1 = sample_uniform(one)
    xd1 = one.coefficients(s1[0]).xd
    assert averaged_terminal_cost(stack_problem(one, s1), xd1 + 0.2) == pytest.approx(0.04)


def test_refinement_constant_ensemble_terminal_cost_invariant():
    opts = SolveOptions(steps=300, tol=1e-12, max_iters=40)
    rows = refinement_study(constant_spec(1), [1, 2, 5], opts)
    vals = [r.terminal_cost for r in rows]
    assert max(vals) - min(vals) < 1e-8


def test_refinement_contraction_smooth_ensemble():
    opts = SolveOptions(steps=300, tol=1e-12, max_iters=40)
    rows = refinement_study(smooth_spec(1), [5, 10, 20, 40], opts)
    assert all(r.converged for r in rows)
    j = [r.terminal_cost for r in rows]
    assert abs(j[3] - j[2]) < abs(j[2] - j[1])
    assert abs(j[2] - j[1]) < abs(j[1] - j[0])


def test_spec_validation():
    with pytest.raises(ValueError):
        EnsembleSpec(box=(), q=3, coefficients=lambda b: None, base_n=1,
                     base_m=1, tf=1.0, R=np.array([[1.0]]))
    with pytest.raises(ValueError):
        EnsembleSpec(box=((1.0, 0.0),), q=3, coefficients=lambda b: None,
                     base_n=1, base_m=1, tf=1.0, R=np.array([[1.0]]))
    with pytest.raises(ValueError):
        EnsembleSpec(box=((0.0, 1.0),), q=0, coefficients=lambda b: None,
                     base_n=1, base_m=1, tf=1.0, R=np.array([[1.0]]))
    with pytest.raises(ValueError):
        EnsembleSpec(box=((0.0, 1.0),), q=2, coefficients=lambda b: None,
                     base_n=1, base_m=1, tf=1.0, R=np.array([[1.0]]),
                     terminal_weighting="mean")


@settings(max_examples=20, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), q=st.integers(2, 4), n=st.integers(1, 2),
       m=st.integers(1, 2))
def test_duplicated_stack_matches_single_system(seed, q, n, m):
    # q identical blocks against one: same u and cost, the state tiled q times
    rng = np.random.default_rng(seed)
    c = SampleCoefficients(
        A=rng.normal(scale=0.5, size=(n, n)), B=rng.normal(size=(n, m)),
        Blist=tuple(rng.normal(scale=0.3, size=(n, n)) for _ in range(m)),
        g=rng.normal(scale=0.2, size=n), x0=rng.normal(size=n), xd=rng.normal(size=n),
    )
    R = np.diag(rng.uniform(0.5, 2.0, size=m))
    # a tol no iterate meets fixes the iteration count on both sides
    opts = SolveOptions(steps=60, tol=1e-300, max_iters=4)
    single = solve(stack_coefficients([c], 1.0, R), opts).final
    stacked = solve(stack_coefficients([c] * q, 1.0, R), opts).final

    def close(a, b):
        return np.max(np.abs(a - b)) <= 1e-10 * max(1.0, np.max(np.abs(b)))

    assert close(stacked.u.values, single.u.values)
    assert abs(stacked.cost - single.cost) <= 1e-10 * max(1.0, abs(single.cost))
    assert close(stacked.x.values, np.tile(single.x.values, (1, q)))


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), q=st.integers(1, 4), b=st.integers(1, 3),
       m=st.integers(1, 2), k=st.integers(1, 2), kind=st.sampled_from(["poisson", "wiener"]))
def test_sample_blocks_return_every_sample_exactly(seed, q, b, m, k, kind):
    # the problem's blocks give back every sample, and the input map formed
    # from them is the dense B + sum_j x_j N_j within 1e-14 of the size of
    # its terms; not bitwise, as the two sum a sample's b products in
    # different orders
    rng = np.random.default_rng(seed)
    coeffs = [SampleCoefficients(
        A=rng.normal(size=(b, b)), B=rng.normal(size=(b, m)),
        Blist=tuple(rng.normal(size=(b, b)) for _ in range(m)),
        g=rng.normal(size=b), x0=rng.normal(size=b), xd=rng.normal(size=b),
    ) for _ in range(q)]
    noises = [NoiseSpec(kind, rng.normal(size=(b, k)),
                        rng.uniform(0.5, 3.0, size=k) if kind == "poisson" else None)
              for _ in range(q)]
    R = np.diag(rng.uniform(0.5, 2.0, size=m))
    stack = stack_coefficients(coeffs, 1.5, R)
    A, B, Bs, g, x0 = stack.blocks
    assert (A.shape, B.shape, Bs.shape, g.shape, x0.shape) == (
        (q, b, b), (q, b, m), (q, m, b, b), (q, b), (q, b))
    noise_stack = stack_noise(noises)
    G = diagonal_blocks(noise_stack.G, q)
    assert len(G) == q
    for j, (c, noise) in enumerate(zip(coeffs, noises)):
        for got, want in ((A, c.A), (B, c.B), (g, c.g), (x0, c.x0)):
            assert np.array_equal(got[j], want)
        assert all(np.array_equal(Bs[j, i], Bi) for i, Bi in enumerate(c.Blist))
        assert np.array_equal(G[j], noise.G)
        assert (noise_stack.lam is None if kind == "wiener"
                else np.array_equal(noise_stack.lam.reshape(q, k)[j], noise.lam))
    assert stack.q == q

    N = bilinear_factors(stack.Blist).mats
    for x in (rng.normal(size=stack.n), rng.normal(size=(7, stack.n))):
        L = input_gain(stack, x)
        dense = stack.B + np.tensordot(x, N, axes=(-1, 0))
        assert L.shape == dense.shape and L.flags.c_contiguous
        terms = np.abs(stack.B) + np.tensordot(np.abs(x), np.abs(N), axes=(-1, 0))
        assert np.max(np.abs(L - dense)) <= 1e-14 * max(1.0, np.max(terms))


def _one_input_sample(Blist=([[0.5]],)):
    return SampleCoefficients(A=[[-1.0]], B=[[1.0]], Blist=Blist, g=[0.0], x0=[0.0], xd=[1.0])


def test_stack_rejects_a_sample_with_other_inputs():
    two_maps = _one_input_sample(([[0.5]], [[9.0]]))
    with pytest.raises(ValueError, match="sample 1"):
        stack_coefficients([_one_input_sample(), two_maps], 1.0, np.eye(1))
    two_columns = SampleCoefficients(A=[[-1.0]], B=[[1.0, 2.0]], Blist=([[0.5]],),
                                     g=[0.0], x0=[0.0], xd=[1.0])
    with pytest.raises(ValueError, match="sample 0"):
        stack_coefficients([two_columns], 1.0, np.eye(2))


def test_stack_names_the_first_sample_of_other_shapes():
    # equal sizes are not enough: a flat B or a 0-d A is refused, by sample
    flat_B = dataclasses.replace(_one_input_sample(), B=[1.0])
    scalar_A = dataclasses.replace(_one_input_sample(), A=-1.0)
    for odd in (flat_B, scalar_A):
        with pytest.raises(ValueError, match="sample 2: shapes"):
            stack_coefficients([_one_input_sample(), _one_input_sample(), odd], 1.0, np.eye(1))


def test_stack_problem_checks_base_m():
    spec = EnsembleSpec(box=((0.0, 1.0),), q=2, coefficients=lambda beta: _one_input_sample(),
                        base_n=1, base_m=2, tf=1.0, R=np.eye(2))
    with pytest.raises(ValueError, match="base_m 2"):
        stack_problem(spec, sample_uniform(spec))
    assert stack_problem(dataclasses.replace(spec, base_m=1, R=np.eye(1)), [0.0, 1.0]).m == 1


def test_stack_holds_its_sample_count():
    # q = len(coeffs), kept by the mean reduction of its stacked noise
    coeffs = [smooth_spec(1).coefficients(beta) for beta in (0.0, 0.5, 1.0)]
    stack = stack_coefficients(coeffs, 1.0, np.eye(1))
    assert stack.q == len(coeffs) == 3
    assert stack_coefficients(coeffs[:1], 1.0, np.eye(1)).q == 1
    noise = stack_noise([NoiseSpec("poisson", [[0.2]], [2.0])] * 3)
    assert expected_reduction(stack, noise).q == 3


def test_stack_noise_rejects_unequal_channel_counts():
    with pytest.raises(ValueError, match="number of noise channels"):
        stack_noise([NoiseSpec("wiener", [[0.1]]), NoiseSpec("wiener", [[0.1, 0.2]])])


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), q=st.integers(1, 4), lead=st.integers(0, 2),
       r=st.integers(1, 3), c=st.integers(1, 3))
def test_place_blocks_matches_scipy(seed, q, lead, r, c):
    # q blocks (q, [lead,] r, c), square or not, on the diagonal of each
    # leading slice; model.diagonal_blocks reads them back
    from scipy.linalg import block_diag

    rng = np.random.default_rng(seed)
    blocks = rng.normal(size=(q,) + (lead,) * bool(lead) + (r, c))
    got = _place_blocks(blocks)
    slices = np.moveaxis(blocks, 0, -3) if lead else blocks[np.newaxis]
    want = np.stack([block_diag(*s) for s in slices]).reshape(got.shape)
    assert np.array_equal(got, want)
    for s, dense in zip(slices, got.reshape((-1,) + got.shape[-2:])):
        assert np.array_equal(diagonal_blocks(dense, q), s)
