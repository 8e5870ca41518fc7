import numpy as np
import pytest

from bilqr.scenarios import (
    NOTE_BLOCH_R,
    NOTE_TWOSPIN_COORD,
    NOTE_TWOSPIN_R,
    SCENARIO_IDS,
    TWOSPIN_B1,
    TWOSPIN_B2,
    build,
    twospin_drift,
)


def test_known_ids():
    for sid in SCENARIO_IDS:
        setup = build(sid)
        assert setup.problem.tf > 0
    with pytest.raises(ValueError):
        build("spin_echo")


def test_override_validation():
    with pytest.raises(ValueError):
        build("iaf_case1", {"grid": 100})
    with pytest.raises(ValueError):
        build("twospin_coherence", {"q": 5})
    setup = build("iaf_case1", {"q": 7, "steps": 300, "tol": 1e-6, "r_scale": 2.0})
    assert setup.q == 7
    assert setup.options.steps == 300
    assert setup.problem.R[0, 0] == 10.0


@pytest.mark.parametrize("key, value", [("steps", 300.9), ("steps", True), ("q", 2.5),
                                        ("q", False), ("q", "3")])
def test_integer_overrides_are_checked_not_truncated(key, value):
    with pytest.raises(ValueError, match=f"^{key} must be an integer, got {value!r}$"):
        build("iaf_case1", {key: value})


def test_integral_float_overrides_are_accepted():
    setup = build("iaf_case1", {"q": 4.0, "steps": 300.0})
    assert (setup.q, setup.options.steps) == (4, 300)
    assert isinstance(setup.options.steps, int)


def test_iaf_case1_parameters():
    setup = build("iaf_case1")
    prob = setup.problem
    assert setup.q == 20
    assert prob.n == 20 and prob.m == 1
    # expected reduction applied: g = G * rate = 0.15 * 2
    assert np.allclose(prob.g, 0.3)
    assert prob.tf == 10.0
    assert prob.R[0, 0] == 5.0
    assert prob.terminal_weight == pytest.approx(1.0 / 20.0)
    # decay rates spread over the box
    diag = np.diag(prob.A)
    assert diag.min() == pytest.approx(-1.3)
    assert diag.max() == pytest.approx(-1.2)
    assert np.allclose(prob.xd, 0.5)
    assert setup.options.tol == 1e-12
    assert setup.noise is not None and setup.noise.kind == "poisson"
    assert setup.noise.G.shape == (20, 20)


def test_iaf_case2_parameters():
    setup = build("iaf_case2")
    prob = setup.problem
    assert np.allclose(prob.g, 0.4)  # 0.1 * 4
    assert np.allclose(prob.xd, 0.2)
    assert prob.R[0, 0] == 5.0
    # responsiveness dispersion enters the input map
    assert prob.B.min() == pytest.approx(1.8)
    assert prob.B.max() == pytest.approx(2.2)


def test_bloch_parameters_and_center_sample():
    setup = build("bloch_broadband", {"q": 5})
    prob = setup.problem
    assert prob.n == 15 and prob.m == 2
    assert np.all(prob.B == 0.0)
    assert np.all(prob.g == 0.0)
    # center frequency: zero drift block
    c = setup.spec.coefficients(0.0)
    assert np.all(c.A == 0.0)
    assert setup.options.tol == 1e-4
    np.testing.assert_array_equal(c.x0, [0.0, 0.0, 1.0])
    np.testing.assert_array_equal(c.xd, [1.0, 0.0, 0.0])
    assert NOTE_BLOCH_R in setup.notes


def test_bloch_generator_skew_symmetric():
    setup = build("bloch_broadband", {"q": 3})
    rng = np.random.default_rng(2)
    c = setup.spec.coefficients(0.7)
    for _ in range(5):
        u = rng.normal(size=2)
        G = c.A + u[0] * c.Blist[0] + u[1] * c.Blist[1]
        assert np.max(np.abs(G + G.T)) < 1e-14


def test_twospin_entrywise_reconstruction():
    rng = np.random.default_rng(4)
    J, xi_a, xi_c, w1, w2 = 0.5, 1.0, 0.8, 0.5, 0.5
    for _ in range(10):
        u1, u2 = rng.normal(size=2)
        assembled = twospin_drift(J, xi_a, xi_c, w1, w2) + u1 * TWOSPIN_B1 + u2 * TWOSPIN_B2
        expected = np.array([
            [0.0, -u1, u2, 0.0, 0.0, 0.0],
            [u1, -xi_a, w1, J, -xi_c, 0.0],
            [-u2, -w1, -xi_a, -xi_c, J, 0.0],
            [0.0, J, -xi_c, -xi_a, -w2, -u2],
            [0.0, -xi_c, J, w2, -xi_a, u1],
            [0.0, 0.0, 0.0, u2, -u1, 0.0],
        ])
        np.testing.assert_allclose(assembled, expected, atol=1e-14)


def test_twospin_setup():
    setup = build("twospin_coherence")
    prob = setup.problem
    assert prob.n == 6 and prob.m == 2
    np.testing.assert_allclose(prob.R, 1.8 * np.eye(2))
    np.testing.assert_array_equal(prob.x0, [1, 0, 0, 0, 0, 0])
    np.testing.assert_array_equal(prob.xd, [0, 0, 0, 0, 0, 1])
    assert prob.tf == 5.0
    assert setup.options.record_diagnostics
    assert NOTE_TWOSPIN_R in setup.notes
    assert NOTE_TWOSPIN_COORD in setup.notes
