import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bilqr import model
from bilqr.model import (
    BilinearProblem,
    bilinear_factors,
    bilinear_field,
    consistency_residual,
    frozen_drift,
    frozen_gram,
    input_gain,
)


def scalar_iaf(alpha=1.25, gamma=2.0, R=5.0):
    return BilinearProblem(
        A=[[-alpha]], B=[[gamma]], Blist=([[-gamma]],), g=[0.3],
        x0=[0.0], xd=[0.5], tf=10.0, R=[[R]],
    )


def random_problem(rng, n=None, m=None):
    n = n or int(rng.integers(1, 4))
    m = m or int(rng.integers(1, 3))
    Rm = rng.normal(size=(m, m))
    return BilinearProblem(
        A=rng.normal(size=(n, n)),
        B=rng.normal(size=(n, m)),
        Blist=tuple(rng.normal(size=(n, n)) for _ in range(m)),
        g=rng.normal(size=n),
        x0=rng.normal(size=n),
        xd=rng.normal(size=n),
        tf=1.0,
        R=Rm @ Rm.T + (0.5 + n) * np.eye(m),
    )


def test_problem_validation():
    with pytest.raises(ValueError):
        scalar_iaf(R=-1.0)  # not positive definite
    with pytest.raises(ValueError):
        BilinearProblem(A=[[0.0]], B=[[1.0]], Blist=(), g=[0.0], x0=[0.0],
                        xd=[0.0], tf=1.0, R=[[1.0]])  # missing bilinear map
    with pytest.raises(ValueError):
        BilinearProblem(A=[[0.0]], B=[[1.0]], Blist=([[0.0]],), g=[0.0], x0=[0.0],
                        xd=[0.0], tf=-1.0, R=[[1.0]])
    with pytest.raises(ValueError):
        BilinearProblem(A=np.zeros((2, 2)), B=np.zeros((2, 1)),
                        Blist=(np.zeros((2, 2)),), g=np.zeros(2), x0=np.zeros(2),
                        xd=np.zeros(2), tf=1.0, R=np.array([[1.0, 0.3], [0.0, 1.0]]))


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), q=st.integers(1, 4), b=st.integers(1, 3),
       m=st.integers(1, 2), data=st.data())
def test_sample_count_is_checked(seed, q, b, m, data):
    # A and the B_i dense in q diagonal b x b blocks pass with q samples; a q
    # that is not a positive divisor of n, or one nonzero entry of A or of a
    # B_i outside the blocks, raises
    rng = np.random.default_rng(seed)
    n = q * b
    mask = np.kron(np.eye(q), np.ones((b, b)))
    mats = [mask * rng.normal(size=(n, n)) for _ in range(m + 1)]
    fields = dict(B=rng.normal(size=(n, m)), g=np.zeros(n), x0=np.zeros(n), xd=np.zeros(n),
                  tf=1.0, R=np.eye(m))

    def problem(q):
        return BilinearProblem(A=mats[0], Blist=tuple(mats[1:]), q=q, **fields)

    assert problem(q).q == q
    bad = data.draw(st.integers(-2, 2 * n + 1).filter(lambda d: d < 1 or n % d))
    with pytest.raises(ValueError, match="q must be a positive integer dividing n"):
        problem(bad)
    if q > 1:
        which = data.draw(st.integers(0, m))
        i, j = data.draw(st.sampled_from(np.argwhere(mask == 0).tolist()))
        mats[which][i, j] = data.draw(st.sampled_from([-1.0, 1.0])) * data.draw(
            st.floats(1e-300, 1e300))
        with pytest.raises(ValueError, match=f"outside its {q} diagonal blocks"):
            problem(q)


def test_derived_problems_keep_the_sample_count():
    mask = np.kron(np.eye(3), np.ones((2, 2)))
    prob = BilinearProblem(A=-mask, B=np.ones((6, 1)), Blist=(0.5 * mask,), g=np.zeros(6),
                           x0=np.ones(6), xd=np.zeros(6), tf=1.0, R=[[1.0]], q=3)
    assert prob.with_g(np.ones(6)).q == 3
    assert dataclasses.replace(prob, tf=2.0).q == 3


def test_factor_columns_from_single_map():
    factors = bilinear_factors(([[0.0, 1.0], [0.0, 0.0]],))
    np.testing.assert_array_equal(factors.mats[0], [[0.0], [0.0]])
    np.testing.assert_array_equal(factors.mats[1], [[1.0], [0.0]])


def test_factor_zero_maps():
    factors = bilinear_factors((np.zeros((3, 3)), np.zeros((3, 3))))
    assert np.all(factors.mats == 0.0)


def test_factor_identity_randomized():
    rng = np.random.default_rng(5)
    for _ in range(100):
        n, m = int(rng.integers(1, 5)), int(rng.integers(1, 4))
        Blist = [rng.normal(size=(n, n)) for _ in range(m)]
        factors = bilinear_factors(Blist)
        u = rng.normal(size=m)
        x = rng.normal(size=n)
        lhs = sum(u[i] * Blist[i] for i in range(m)) @ x
        rhs = sum(x[j] * factors.mats[j] for j in range(n)) @ u
        assert np.max(np.abs(lhs - rhs)) < 1e-12


def test_input_gain_values():
    prob = scalar_iaf()
    assert input_gain(prob, np.array([0.0]))[0, 0] == 2.0
    assert input_gain(prob, np.array([0.5]))[0, 0] == 1.0


def test_input_gain_degenerates_to_B():
    rng = np.random.default_rng(1)
    prob = random_problem(rng, n=3, m=2)
    zero = BilinearProblem(A=prob.A, B=prob.B, Blist=tuple(np.zeros((3, 3)) for _ in range(2)),
                           g=prob.g, x0=prob.x0, xd=prob.xd, tf=prob.tf, R=prob.R)
    np.testing.assert_array_equal(input_gain(zero, rng.normal(size=3)), zero.B)


def test_frozen_drift_hand_value():
    prob = scalar_iaf()
    factors = bilinear_factors(prob.Blist)
    At = frozen_drift(prob, factors, np.array([0.0]), np.array([1.0]))
    assert At[0, 0] == pytest.approx(0.35, abs=1e-14)


def test_frozen_drift_reduces_to_A():
    rng = np.random.default_rng(2)
    prob = random_problem(rng, n=3, m=2)
    factors = bilinear_factors(prob.Blist)
    # zero costate kills the correction
    np.testing.assert_allclose(
        frozen_drift(prob, factors, rng.normal(size=3), np.zeros(3)), prob.A, atol=1e-15
    )
    # linear problem: correction vanishes for all (x, p)
    zeros = tuple(np.zeros((3, 3)) for _ in range(2))
    lin = BilinearProblem(A=prob.A, B=prob.B, Blist=zeros, g=prob.g, x0=prob.x0,
                          xd=prob.xd, tf=prob.tf, R=prob.R)
    lf = bilinear_factors(zeros)
    np.testing.assert_allclose(
        frozen_drift(lin, lf, rng.normal(size=3), rng.normal(size=3)), prob.A, atol=1e-15
    )


def test_frozen_gram_hand_value():
    prob = scalar_iaf()
    factors = bilinear_factors(prob.Blist)
    assert frozen_gram(prob, factors, np.array([0.5]))[0, 0] == pytest.approx(0.6, abs=1e-14)
    assert frozen_gram(prob, factors, np.array([0.0]))[0, 0] == pytest.approx(0.8, abs=1e-14)


def test_frozen_gram_symmetric():
    rng = np.random.default_rng(4)
    for _ in range(20):
        prob = random_problem(rng)
        factors = bilinear_factors(prob.Blist)
        O = frozen_gram(prob, factors, rng.normal(size=prob.n))
        assert np.max(np.abs(O - O.T)) < 1e-14


def test_consistency_identity_trivial_cases():
    rng = np.random.default_rng(6)
    prob = random_problem(rng, n=3, m=2)
    factors = bilinear_factors(prob.Blist)
    assert consistency_residual(prob, factors, np.zeros(3), rng.normal(size=3)) < 1e-12
    assert consistency_residual(prob, factors, rng.normal(size=3), np.zeros(3)) < 1e-12


def test_consistency_identity_randomized():
    rng = np.random.default_rng(7)
    for _ in range(100):
        prob = random_problem(rng)
        factors = bilinear_factors(prob.Blist)
        x = rng.normal(size=prob.n)
        p = rng.normal(size=prob.n)
        assert consistency_residual(prob, factors, x, p) < 1e-10


def test_bilinear_field_broadcasts_over_a_leading_table_axis():
    # a table of states (steps, S, rows, b) under controls (steps, 1, 1, m)
    # gives, slice by slice, the field of each step's states; each block is
    # A y + B u + sum_i u_i B_i y + g of its own sample
    rng = np.random.default_rng(8)
    S, rows, b, m, steps = 3, 2, 3, 2, 4
    A, B = rng.normal(size=(S, b, b)), rng.normal(size=(S, b, m))
    Bs, g = rng.normal(size=(S, m, b, b)), rng.normal(size=(S, b))
    rhs = bilinear_field(A, B, Bs, g)
    Y, U = rng.normal(size=(steps, S, rows, b)), rng.normal(size=(steps, 1, 1, m))
    table = rhs(Y, U)
    assert table.shape == Y.shape
    for i in range(steps):
        assert np.array_equal(table[i], rhs(Y[i], U[i]))
        for s in range(S):
            u = U[i, 0, 0]
            coupled = A[s] + np.tensordot(u, Bs[s], axes=(0, 0))
            dense = Y[i, s] @ coupled.T + B[s] @ u + g[s]
            assert np.max(np.abs(table[i, s] - dense)) <= 1e-13


def test_bilinear_field_forms_its_generator_stack_once_and_only_for_a_generator(monkeypatch):
    # evaluating the field forms no stack; its generator forms the stack on
    # the first call only, and a stack handed to the field is the one read
    rng = np.random.default_rng(9)
    S, b, m = 2, 3, 2
    A, B = rng.normal(size=(S, b, b)), rng.normal(size=(S, b, m))
    Bs, g = rng.normal(size=(S, m, b, b)), rng.normal(size=(S, b))
    stack = model.bilinear_generators(A, B, Bs, g)
    calls = []

    def counted(*blocks):
        calls.append(1)
        return stack

    monkeypatch.setattr(model, "bilinear_generators", counted)
    rhs = bilinear_field(A, B, Bs, g)
    rhs(rng.normal(size=(S, 1, b)), rng.normal(size=(1, 1, m)))
    assert calls == []
    u = rng.normal(size=(4, 1, 1, m))
    Z = rhs.generator(u)
    rhs.generator(u)
    assert len(calls) == 1
    assert np.array_equal(Z, model.bilinear_generator(stack, u))
    given = bilinear_field(A, B, Bs, g, np.zeros_like(stack))
    assert not given.generator(u).any()
    assert len(calls) == 1
