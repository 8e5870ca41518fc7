"""The benchmark's workloads, the layers it traces, the reference models its
checks integrate, and the reference kernel that measures the machine's speed.

The models restate the built-in scenarios' equations (see the root README's
scenario table) with numpy only, so the checks do not run program code.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Callable

import numpy as np

from checks import Model
from tracer import Layer

# Fixed Monte Carlo input of the iaf1 validate step. At this seed none of
# one sample's 40 paths has jumped by the first node (t=0.02), where the
# program's MC statistic divides by a round-off standard error (fault F1)
# and reads 2.2e21; at every node with a standard error above 1e-12 it
# stays below 3.1, so F1 alone decides the verdict.
IAF1_MC = ("--mc-paths", "40", "--seed", "1185")


def iaf_case1_model(q: int) -> Model:
    """q leaky integrate-and-fire neurons, decay rates spread over
    [1.2, 1.3]: dx/dt = -beta x + 2 u (1 - x) + 0.15 * 2 (Poisson mean)."""
    beta = np.linspace(1.2, 1.3, q)
    return Model(
        A=-beta.reshape(q, 1, 1),
        B=np.full((q, 1, 1), 2.0),
        Bi=np.array([[[-2.0]]]),
        g=np.full((q, 1), 0.15 * 2.0),
        x0=np.zeros((q, 1)),
        xd=np.full((q, 1), 0.5),
        R=np.array([[5.0]]),
        tf=10.0,
        w=1.0 / q,
    )


def bloch_model(q: int) -> Model:
    """q Bloch spins with detunings on [-1, 1], two shared pulse channels,
    from the pole (0, 0, 1) toward (1, 0, 0)."""
    omega = np.linspace(-1.0, 1.0, q)
    A = np.zeros((q, 3, 3))
    A[:, 0, 1] = -omega
    A[:, 1, 0] = omega
    B1 = np.array([[0.0, 0.0, 1.0], [0.0, 0.0, 0.0], [-1.0, 0.0, 0.0]])
    B2 = np.array([[0.0, 0.0, 0.0], [0.0, 0.0, -1.0], [0.0, 1.0, 0.0]])
    return Model(
        A=A,
        B=np.zeros((q, 3, 2)),
        Bi=np.stack([B1, B2]),
        g=np.zeros((q, 3)),
        x0=np.tile([0.0, 0.0, 1.0], (q, 1)),
        xd=np.tile([1.0, 0.0, 0.0], (q, 1)),
        R=np.eye(2),
        tf=20.0,
        w=1.0 / q,
    )


def twospin_model() -> Model:
    """One six-state two-spin system, coupling 0.5, relaxation 1.0/0.8,
    offsets 0.5, from e1 toward e6 with R = 1.8 I."""
    J, xa, xc, w1, w2 = 0.5, 1.0, 0.8, 0.5, 0.5
    A = np.array([
        [0.0, 0.0, 0.0, 0.0, 0.0, 0.0],
        [0.0, -xa, w1, J, -xc, 0.0],
        [0.0, -w1, -xa, -xc, J, 0.0],
        [0.0, J, -xc, -xa, -w2, 0.0],
        [0.0, -xc, J, w2, -xa, 0.0],
        [0.0, 0.0, 0.0, 0.0, 0.0, 0.0],
    ])
    B1 = np.zeros((6, 6))
    B1[0, 1], B1[1, 0], B1[4, 5], B1[5, 4] = -1.0, 1.0, 1.0, -1.0
    B2 = np.zeros((6, 6))
    B2[0, 2], B2[2, 0], B2[3, 5], B2[5, 3] = 1.0, -1.0, -1.0, 1.0
    return Model(
        A=A[None],
        B=np.zeros((1, 6, 2)),
        Bi=np.stack([B1, B2]),
        g=np.zeros((1, 6)),
        x0=np.eye(6)[:1],
        xd=np.eye(6)[5:],
        R=1.8 * np.eye(2),
        tf=5.0,
        w=1.0,
    )


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    family: str  # "iaf", "twospin" or "bloch": which method properties are checked
    model: Callable[[], Model]
    solve_args: tuple  # after `bilqr solve`
    validate_args: tuple  # after `bilqr validate --run <dir>`
    validate_repeats: int  # validate is idempotent; short ones are repeated for a steady median
    solve_rc: int  # expected exit code of solve
    q: int  # number of state_<j>.csv files
    round_s: float  # nominal round time; a run makes round(--seconds / round_s) rounds
    cap: int | None = None  # iteration cap the solve must stop at
    # Solve times are scaled by (reference kernel speed) ** solve_speed_exponent.
    # A solve that spends its time in BLAS and large numpy loops speeds up
    # about half as much as the interpreter-bound kernel when the machine
    # does (measured; see the README). Validate and set-up times, bound by
    # the interpreter on every workload, use exponent 1.
    solve_speed_exponent: float = 1.0
    # Outputs of a capped run, which no independent computation gives: the
    # final cost and the largest distance of the stored states from the
    # reference integration, as this benchmark's first version measured them.
    pinned: dict | None = None

    def rounds(self, seconds: float) -> int:
        """Fixed by --seconds alone, so that the counts of attempted and
        failed operations do not depend on the speed of the machine or the
        program."""
        return max(2, round(seconds / self.round_s))


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "iaf1",
            "only workload with Poisson noise: MC paths dominate validate; small n, per-step overhead bound solve",
            "iaf", lambda: iaf_case1_model(5),
            ("--scenario", "iaf_case1", "--q", "5", "--grid", "500"),
            IAF1_MC, 1, 0, 5, round_s=2.3,
        ),
        Workload(
            "twospin_diag",
            "tiny single system (n=6), 331 iterations with contraction diagnostics on: per-call overhead bound",
            "twospin", twospin_model,
            ("--scenario", "twospin_coherence", "--grid", "20"),
            (), 20, 0, 1, round_s=1.75,
        ),
        Workload(
            "bloch81",
            "headline shape n=243: dense n^3 Riccati sweeps, (T, n, n) tables and the HJB residual; capped at 3 iterations",
            "bloch", lambda: bloch_model(81),
            ("--scenario", "bloch_broadband", "--grid", "30", "--max-iters", "3"),
            (), 5, 2, 81, round_s=2.5, cap=3, solve_speed_exponent=0.5,
            pinned={"final_cost": 0.8221416281991893, "state_error": 0.2743506017987305},
        ),
    )
}

# CPU seconds of reference_kernel() that the corrected times are scaled to.
KERNEL_REF_S = 0.012


def reference_kernel(repeats: int = 3) -> float:
    """CPU seconds of a fixed benchmark-owned load: 1000 steps on 6 x 6
    matrices, bound by the interpreter and numpy's per-call overhead like
    most of the workloads' work. Its time changes with the machine, never
    with the program. The median of `repeats` runs."""
    rng = np.random.default_rng(12345)
    small = rng.standard_normal((6, 6)) / 6.0
    times = []
    for _ in range(repeats):
        y = np.ones(6)
        cpu = time.process_time()
        for _ in range(1000):
            y = small @ y + 0.5 * (small.T @ y)
            y = y / np.max(np.abs(y))
        times.append(time.process_time() - cpu)
    return sorted(times)[len(times) // 2]


def _layer(name, *sites, mem=False):
    return Layer(name, tuple(tuple(s.split(":")) for s in sites), mem)


# Each layer is wrapped where the program looks it up at call time.
LAYERS = (
    _layer("solver.riccati_sweep", "bilqr.solver:riccati_sweep", mem=True),
    _layer("solver.affine_sweep", "bilqr.solver:affine_sweep", mem=True),
    _layer("solver.closed_loop_forward", "bilqr.solver:closed_loop_forward", mem=True),
    _layer("solver.freeze_iteration_fields", "bilqr.solver:freeze_iteration_fields",
           "bilqr.diagnostics:freeze_iteration_fields", mem=True),
    _layer("solver.value_offset_sweep", "bilqr.solver:value_offset_sweep"),
    _layer("solver.reconstruct_control", "bilqr.solver:reconstruct_control"),
    _layer("solver.evaluate_cost", "bilqr.solver:evaluate_cost"),
    _layer("solver.solve", "bilqr.cli:solve"),
    _layer("solver.iterate_once", "bilqr.solver:iterate_once"),
    _layer("solver.solve_frozen_boundary_value", "bilqr.solver:solve_frozen_boundary_value"),
    _layer("diagnostics.contraction_report", "bilqr.diagnostics:contraction_report"),
    _layer("diagnostics.bound_coefficients", "bilqr.diagnostics:bound_coefficients"),
    _layer("diagnostics.coupling_strengths", "bilqr.diagnostics:coupling_strengths"),
    _layer("numkit.transition_table", "bilqr.diagnostics:transition_table"),
    _layer("numkit.TransitionTable.norm_table", "bilqr.numkit:TransitionTable.norm_table"),
    _layer("diagnostics.hjb_residual", "bilqr.cli:hjb_residual", mem=True),
    _layer("diagnostics.necessary_condition_residual", "bilqr.cli:necessary_condition_residual"),
    _layer("solver.freeze_coefficients", "bilqr.diagnostics:freeze_coefficients"),
    _layer("cli.cmd_solve", "bilqr.cli:cmd_solve"),
    _layer("solver.simulate_bilinear", "bilqr.cli:simulate_bilinear"),
    _layer("numkit.integrate_forward", "bilqr.solver:integrate_forward", "bilqr.numkit:integrate_forward"),
    _layer("stochastic.simulate_poisson_paths", "bilqr.cli:simulate_poisson_paths", mem=True),
    _layer("stochastic.mean_consistency", "bilqr.cli:mean_consistency"),
    _layer("cli.cmd_validate", "bilqr.cli:cmd_validate"),
)

