"""The benchmark's own checkers reject corrupted outputs, and its tracer
attributes time to the right layer and reports a missing function as
absent. Run with: PYTHONPATH=src python -m pytest perfbench -q
"""

import shutil
import sys
import time
import types

import numpy as np
import pytest

from checks import (
    CheckError,
    Model,
    check_cost,
    check_local_minimum,
    check_mc_verdict,
    check_mirror,
    check_reference_states,
    check_validate,
    check_zero_channel,
    cost,
    grid_tolerance,
    integrate,
    read_outputs,
    rk4,
    sup_distance,
)
from tracer import Layer, Tracer
from workloads import Workload, bloch_model


@pytest.fixture(scope="module")
def bloch3():
    model = bloch_model(3)
    t = np.linspace(0.0, model.tf, 101)
    U = np.stack([0.3 * np.sin(2 * np.pi * t / model.tf), np.zeros_like(t)], axis=1)
    return model, t, U, integrate(model, t, U)


def test_reference_check_rejects_shifted_state(bloch3):
    model, t, U, ref = bloch3
    tol = grid_tolerance(model, t, ref, U, 0.0)
    check_reference_states(ref + 1e-9, ref, tol)
    shifted = ref.copy()
    shifted[1:] = ref[:-1]  # one node late
    with pytest.raises(CheckError):
        check_reference_states(shifted, ref, tol)


def test_mirror_check_rejects_broken_symmetry(bloch3):
    model, t, U, ref = bloch3
    check_mirror(ref)
    check_zero_channel(U, 1)
    broken = ref.copy()
    broken[50, 0, 1] += 1e-6
    with pytest.raises(CheckError):
        check_mirror(broken)
    with pytest.raises(CheckError):
        check_zero_channel(U, 0)


def test_cost_check_rejects_wrong_cost(bloch3):
    model, t, U, ref = bloch3
    J = cost(model, t, U, ref[-1])
    check_cost(J, J)
    with pytest.raises(CheckError):
        check_cost(J * (1 + 1e-6), J)


def test_validate_check_rejects_wrong_resimulation(bloch3):
    model, t, U, ref = bloch3
    resim = rk4(model, t, U)
    assert sup_distance(resim, ref) < 1e-3  # RK4 on 100 steps against DOP853
    X = resim + 1e-4
    report = {"per_sample_terminal_errors": list(np.linalg.norm(resim[-1] - model.xd, axis=1)),
              "fixed_point_sup_error": sup_distance(X, resim)}
    check_validate(report, model, X, resim)
    with pytest.raises(CheckError):
        check_validate(dict(report, fixed_point_sup_error=1.001e-4), model, X, resim)
    with pytest.raises(CheckError):
        check_validate(report, model, X, rk4(model, t, 1.001 * U))


@pytest.fixture(scope="module")
def bloch_run(tmp_path_factory):
    """A capped `bilqr solve` of three Bloch spins, validated."""
    cli = pytest.importorskip("bilqr.cli")
    run = tmp_path_factory.mktemp("bloch3") / "run"
    argv = ["solve", "--scenario", "bloch_broadband", "--q", "3", "--grid", "30",
            "--max-iters", "3", "--out", str(run)]
    assert cli.main(argv) == 2
    assert cli.main(["validate", "--run", str(run)]) == 0
    return run


def test_capped_bloch_run_rejects_shifted_states(bloch_run, tmp_path):
    import run as bench

    model = bloch_model(3)
    out = read_outputs(bloch_run, 3)
    pinned = {"final_cost": out.summary["final_cost"],
              "state_error": sup_distance(out.X, integrate(model, out.t, out.U))}
    wl = Workload("bloch3", "", "bloch", lambda: model, (), (), 1, 2, 3, 1.0, cap=3, pinned=pinned)
    assert bench.check_outputs(wl, bloch_run, seed=0) == ([], True, 3)

    # Every state one node late keeps the mirror symmetry and u2 = 0.
    corrupted = tmp_path / "run"
    shutil.copytree(bloch_run, corrupted)
    for j in range(1, 4):
        path = corrupted / f"state_{j}.csv"
        header, *rows = path.read_text().splitlines()
        states = [row.split(",", 1)[1] for row in rows]
        shifted = [row.split(",", 1)[0] + "," + x for row, x in zip(rows, states[:1] + states[:-1])]
        path.write_text("\n".join([header, *shifted]) + "\n")
    errors, _, _ = bench.check_outputs(wl, corrupted, seed=0)
    assert any("distance from the reference" in e for e in errors), errors
    assert not any("mirror" in e for e in errors)


def _scalar_model(r=1.0):
    """dx/dt = u, x(0) = 0, J = r/2 int u^2 + (x(1) - 1)^2: the optimum is
    the constant u = 2 / (r + 2)."""
    one = np.ones((1, 1, 1))
    return Model(A=0 * one, B=one, Bi=np.zeros((1, 1, 1)), g=np.zeros((1, 1)),
                 x0=np.zeros((1, 1)), xd=np.ones((1, 1)), R=r * np.eye(1), tf=1.0, w=1.0)


def test_local_minimum_check_rejects_perturbed_control():
    model = _scalar_model()
    t = np.linspace(0.0, 1.0, 51)
    optimum = np.full((51, 1), 2.0 / 3.0)
    check_local_minimum(model, t, optimum, seed=0)
    with pytest.raises(CheckError):
        check_local_minimum(model, t, optimum + 0.2, seed=0)


def test_mc_verdict_rejects_missing_or_large_statistic():
    check_mc_verdict({"mc": {"max_standardized_deviation": 2.5}})
    for stat in (None, 4.5, 3.6e21):
        with pytest.raises(CheckError):
            check_mc_verdict({"mc": {"max_standardized_deviation": stat}})
    with pytest.raises(CheckError):
        check_mc_verdict({"mc": None})


def _spin(seconds):
    """Busy-wait on the CPU clock the tracer reads."""
    end = time.process_time() + seconds
    while time.process_time() < end:
        pass


@pytest.fixture
def fake_module():
    mod = types.ModuleType("perfbench_fake_layers")

    def inner(k):
        _spin(0.02)
        return k

    def outer(k):
        _spin(0.01)
        return mod.inner(k) + 1

    mod.inner, mod.outer = inner, outer
    sys.modules[mod.__name__] = mod
    yield mod
    del sys.modules[mod.__name__]


def test_tracer_self_time_calls_and_absent(fake_module):
    layers = (
        Layer("fake.outer", (("perfbench_fake_layers", "outer"),)),
        Layer("fake.inner", (("perfbench_fake_layers", "inner"),)),
        Layer("fake.gone", (("perfbench_fake_layers", "deleted_by_refactor"),)),
    )
    original = fake_module.outer
    with Tracer(layers) as tracer:
        assert fake_module.outer(2) == 3
        assert fake_module.outer(3) == 4
    assert fake_module.outer is original
    assert tracer.absent == ["fake.gone"]
    rows = tracer.summary()
    assert rows["fake.outer"]["calls"] == 2 and rows["fake.inner"]["calls"] == 2
    assert rows["fake.gone"] == {"calls": 0, "self_ms": 0.0, "peak_mb": 0.0}
    assert 15.0 <= rows["fake.outer"]["self_ms"] < 35.0
    assert 35.0 <= rows["fake.inner"]["self_ms"]


def test_tracer_memory_peak_of_nested_calls(fake_module):
    import tracemalloc

    def big(k):
        block = np.ones(k)  # k * 8 bytes
        return float(block.sum())

    fake_module.inner = big
    layers = (
        Layer("fake.outer", (("perfbench_fake_layers", "outer"),), mem=True),
        Layer("fake.inner", (("perfbench_fake_layers", "inner"),), mem=True),
    )
    tracemalloc.start()
    try:
        with Tracer(layers, memory=True) as tracer:
            fake_module.outer(2 ** 20)
    finally:
        tracemalloc.stop()
    rows = tracer.summary()
    assert rows["fake.inner"]["peak_mb"] >= 8.0
    assert rows["fake.outer"]["peak_mb"] >= rows["fake.inner"]["peak_mb"]
