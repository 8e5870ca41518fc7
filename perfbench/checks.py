"""Output checks made apart from the program.

Nothing here imports bilqr. The reference is the original bilinear dynamics,
restated per workload in `workloads.py` and integrated with scipy's adaptive
DOP853 under the control read from `control.csv` and interpolated linearly,
a classical RK4 on the control's grid that `validate`'s resimulation must
reproduce to round-off, plus properties the method must have (mirror symmetry of the Bloch band, a
local minimum of J, the analytic dark-point cost). Every check raises
`CheckError` with a one-line reason when an output is wrong.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np
from scipy.integrate import solve_ivp


class CheckError(AssertionError):
    """An output of the program disagrees with the independent computation."""


@dataclass(frozen=True)
class Model:
    """q samples of dx/dt = A x + B u + sum_i u_i B_i x + g, each of size b,
    with cost J = 1/2 int u'Ru dt + w sum_j ||x_j(tf) - xd_j||^2."""

    A: np.ndarray  # (q, b, b)
    B: np.ndarray  # (q, b, m)
    Bi: np.ndarray  # (m, b, b), shared by all samples
    g: np.ndarray  # (q, b)
    x0: np.ndarray  # (q, b)
    xd: np.ndarray  # (q, b)
    R: np.ndarray  # (m, m)
    tf: float
    w: float

    @property
    def q(self) -> int:
        return self.A.shape[0]

    @property
    def b(self) -> int:
        return self.A.shape[1]


@dataclass(frozen=True)
class RunOutputs:
    """The files one `bilqr solve` (and `validate`) wrote, parsed."""

    t: np.ndarray  # (T,)
    U: np.ndarray  # (T, m)
    X: np.ndarray  # (T, q, b), state_1 .. state_q
    summary: dict
    validate: dict | None


def read_outputs(run_dir: Path, q: int) -> RunOutputs:
    control = np.loadtxt(run_dir / "control.csv", delimiter=",", skiprows=1, ndmin=2)
    states = [
        np.loadtxt(run_dir / f"state_{j + 1}.csv", delimiter=",", skiprows=1, ndmin=2)[:, 1:]
        for j in range(q)
    ]
    summary = json.loads((run_dir / "summary.json").read_text())
    vpath = run_dir / "validate.json"
    validate = json.loads(vpath.read_text()) if vpath.exists() else None
    return RunOutputs(control[:, 0], control[:, 1:], np.stack(states, axis=1), summary, validate)


def integrate(model: Model, t: np.ndarray, U: np.ndarray) -> np.ndarray:
    """High-accuracy solution of the bilinear dynamics at the nodes `t`,
    with u interpolated linearly between them. Returns (T, q, b)."""
    h = t[1] - t[0]
    slopes = np.diff(U, axis=0) / h
    last = len(t) - 2
    q, b = model.q, model.b

    def rhs(tau, y):
        i = min(max(int((tau - t[0]) / h), 0), last)
        u = U[i] + (tau - t[i]) * slopes[i]
        x = y.reshape(q, b)
        gen = np.tensordot(u, model.Bi, axes=(0, 0))  # (b, b)
        dx = (np.einsum("qij,qj->qi", model.A, x) + model.B @ u + x @ gen.T + model.g)
        return dx.ravel()

    sol = solve_ivp(rhs, (t[0], t[-1]), model.x0.ravel(), method="DOP853",
                    t_eval=t, rtol=1e-11, atol=1e-12, max_step=h)
    if not sol.success:
        raise CheckError(f"reference integration failed: {sol.message}")
    return sol.y.T.reshape(len(t), q, b)


def rk4(model: Model, t: np.ndarray, U: np.ndarray) -> np.ndarray:
    """Classical RK4 of the bilinear dynamics on the nodes `t`, with u
    interpolated linearly (its midpoint value at half steps): the scheme
    `bilqr validate` resimulates with. Returns (T, q, b)."""
    def f(x, u):
        gen = np.tensordot(u, model.Bi, axes=(0, 0))
        return np.einsum("qij,qj->qi", model.A, x) + model.B @ u + x @ gen.T + model.g

    X = np.empty((len(t),) + model.x0.shape)
    X[0] = x = model.x0
    for i in range(len(t) - 1):
        h = t[i + 1] - t[i]
        um = 0.5 * (U[i] + U[i + 1])
        k1 = f(x, U[i])
        k2 = f(x + 0.5 * h * k1, um)
        k3 = f(x + 0.5 * h * k2, um)
        k4 = f(x + h * k3, U[i + 1])
        X[i + 1] = x = x + h / 6.0 * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
    return X


def cost(model: Model, t: np.ndarray, U: np.ndarray, x_tf: np.ndarray) -> float:
    """J with the control energy by the trapezoid rule on the control nodes."""
    e = np.einsum("ti,ij,tj->t", U, model.R, U)
    h = t[1] - t[0]
    energy = 0.5 * h * (np.sum(e) - 0.5 * (e[0] + e[-1]))
    miss = x_tf - model.xd
    return float(energy + model.w * np.sum(miss * miss))


def grid_tolerance(model: Model, t: np.ndarray, X: np.ndarray, U: np.ndarray,
                   last_diff: float) -> float:
    """Allowed distance between the stored states and the reference.

    The program's closed loop feeds a control that is continuous in time,
    while the reference integrates the nodal control interpolated
    linearly; the two right-hand sides differ by at most
    h^2/8 * max|u''| * max|df/du|, which accumulates over the horizon. On
    top comes the fixed-point residual, about the last iterate difference
    in `summary.json`. The factor 2 is headroom: on the workloads the
    measured error is 0.01 (iaf1) and 0.30 (twospin_diag) of the returned
    tolerance.
    """
    h = t[1] - t[0]
    udd = np.max(np.abs(np.diff(U, n=2, axis=0))) / h ** 2
    dfdu = model.B[None] + np.einsum("iab,tqb->tqai", model.Bi, X)  # (T, q, b, m)
    gain = np.max(np.linalg.norm(dfdu, axis=2))
    return 2.0 * ((t[-1] - t[0]) * h ** 2 / 8.0 * udd * gain + last_diff)


def sup_distance(X: np.ndarray, ref: np.ndarray) -> float:
    return float(np.max(np.abs(X - ref)))


def check_reference_states(X: np.ndarray, ref: np.ndarray, tol: float) -> float:
    err = sup_distance(X, ref)
    if not err <= tol:
        raise CheckError(f"stored states differ from the reference integration by {err:.3g} > {tol:.3g}")
    return err


def check_cost(reported: float, own: float, rtol: float = 1e-9) -> None:
    if not abs(reported - own) <= rtol * max(1.0, abs(own)):
        raise CheckError(f"final_cost {reported!r} differs from the own evaluation {own!r}")


def check_validate(report: dict, model: Model, X: np.ndarray, resim: np.ndarray,
                   tol: float = 1e-9) -> None:
    """`validate` resimulates the bilinear dynamics by RK4 on the control's
    grid (`resim`, from `rk4`). Its per-sample terminal errors and its
    fixed-point error, the largest distance of the stored states `X` from
    the resimulation, must match the own ones to round-off."""
    own = np.linalg.norm(resim[-1] - model.xd, axis=1)
    got = np.asarray(report["per_sample_terminal_errors"], dtype=float)
    if got.shape != own.shape or not np.max(np.abs(got - own)) <= tol:
        raise CheckError("validate's per-sample terminal errors disagree with the own RK4 resimulation")
    fp = report["fixed_point_sup_error"]
    own_fp = float(np.max(np.abs(X - resim)))
    if fp is None or not abs(fp - own_fp) <= tol * max(1.0, own_fp):
        raise CheckError(f"validate's fixed-point error {fp} differs from the own {own_fp:.12g}")


def check_pinned(name: str, value: float, pinned: float, rtol: float = 1e-6) -> None:
    """A figure of a capped run against the value this benchmark first
    measured. Reordered floating-point sums move it by about 1e-12; a
    changed iteration moves it by far more than `rtol`."""
    if not abs(value - pinned) <= rtol * abs(pinned):
        raise CheckError(f"{name} {value!r} differs from the pinned {pinned!r}")


def perturbation_directions(t: np.ndarray, m: int, count: int, seed: int) -> np.ndarray:
    """Seeded smooth directions: random sums of four sine modes per channel,
    scaled to unit sup norm. Returns (count, T, m)."""
    rng = np.random.default_rng(seed)
    span = t[-1] - t[0]
    dirs = np.empty((count, len(t), m))
    for k in range(count):
        modes = rng.integers(1, 8, size=(4, m))
        amps = rng.normal(size=(4, m))
        phases = rng.uniform(0.0, 2.0 * np.pi, size=(4, m))
        d = np.sum(amps[:, None, :] * np.sin(np.pi * modes[:, None, :] * (t[None, :, None] - t[0]) / span
                                            + phases[:, None, :]), axis=0)
        dirs[k] = d / np.max(np.abs(d))
    return dirs


def check_local_minimum(model: Model, t: np.ndarray, U: np.ndarray, seed: int,
                        count: int = 3, rel_step: float = 0.05) -> float:
    """J, by the reference integration, does not decrease along seeded
    perturbations u +- eps d. The step is a fixed share of max|u|, large
    enough that the O(h^2) first-order slack of the discrete optimum is
    dominated by the second-order rise. Returns J(u)."""
    def J(Uc):
        return cost(model, t, Uc, integrate(model, t, Uc)[-1])

    j0 = J(U)
    eps = rel_step * max(float(np.max(np.abs(U))), 1e-3)
    for d in perturbation_directions(t, U.shape[1], count, seed):
        for sign in (1.0, -1.0):
            jp = J(U + sign * eps * d)
            if jp < j0 - 1e-12 * max(1.0, abs(j0)):
                raise CheckError(f"a seeded perturbation lowers J from {j0:.12g} to {jp:.12g}")
    return j0


def check_mirror(X: np.ndarray, tol: float = 1e-12) -> None:
    """Detunings -w and w: x(-w) = diag(1, -1, 1) x(w) at every node."""
    flipped = X[:, ::-1, :] * np.array([1.0, -1.0, 1.0])
    err = float(np.max(np.abs(X - flipped)))
    if not err <= tol:
        raise CheckError(f"mirror symmetry of the detuning band broken by {err:.3g}")


def check_zero_channel(U: np.ndarray, channel: int, tol: float = 1e-12) -> None:
    err = float(np.max(np.abs(U[:, channel])))
    if not err <= tol:
        raise CheckError(f"control channel u{channel + 1} should vanish, max |u| = {err:.3g}")


def check_mc_verdict(report: dict | None, band: float = 4.0) -> None:
    """The MC statistic must lie within the acceptance band."""
    mc = (report or {}).get("mc")
    stat = None if mc is None else mc.get("max_standardized_deviation")
    if stat is None or not stat <= band:
        raise CheckError(f"MC mean-consistency statistic {stat} is outside the band {band}")
