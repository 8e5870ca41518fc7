"""Parameterized families of bilinear systems under one shared control.

A family over a parameter box is discretized into q uniform samples and
stacked into a single problem: block-diagonal drift and bilinear maps,
vertically stacked input map (the control is broadcast, so the stacked
quadratic weight couples all samples), and a terminal penalty that is the
Riemann-sum average of the per-sample errors.

This module owns the stacked layout: sample j owns state rows j b:(j + 1) b
and noise columns j k:(j + 1) k, with b = n / q and k = (noise channels) / q.
`stack_coefficients` (whose problem holds q) and `stack_noise` build it,
placing the per-sample drift, bilinear maps and noise with `_block_diag`;
the problem keeps the blocks (`BilinearProblem.blocks`) and `sample_view`
reads the states back.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, replace
from typing import Callable, Sequence

import numpy as np

from .model import BilinearProblem, NoiseSpec
from .solver import SolveOptions, solve

__all__ = [
    "SampleCoefficients",
    "EnsembleSpec",
    "sample_uniform",
    "stack_problem",
    "stack_coefficients",
    "stack_noise",
    "sample_view",
    "averaged_terminal_cost",
    "refinement_study",
    "STACKING_NOTE",
]

# Recorded in run summaries whenever a stacked problem is built.
STACKING_NOTE = (
    "ensemble stacking: the input map is stacked vertically (shared control), "
    "not direct-summed; the drift and bilinear maps are block-diagonal"
)

WEIGHTINGS = ("averaged", "summed")


def _check_weighting(terminal_weighting) -> None:
    if terminal_weighting not in WEIGHTINGS:
        raise ValueError(f"terminal_weighting must be one of {WEIGHTINGS}, "
                         f"got {terminal_weighting!r}")


@dataclass(frozen=True)
class SampleCoefficients:
    """Matrices of one parameter sample."""

    A: np.ndarray
    B: np.ndarray
    Blist: tuple
    g: np.ndarray
    x0: np.ndarray
    xd: np.ndarray


@dataclass(frozen=True)
class EnsembleSpec:
    """A parameter box, a sample count, and the coefficient map over the box.

    `coefficients` maps a parameter value (scalar for a 1-d box, tuple for
    d > 1) to a SampleCoefficients bundle.  `terminal_weighting` selects the
    per-sample terminal coefficient of the stacked problem: "averaged" gives
    1/q (the Riemann-sum mean error), "summed" gives 1 per sample.
    """

    box: tuple  # ((a1, b1), ..., (ad, bd))
    q: int
    coefficients: Callable
    base_n: int
    base_m: int
    tf: float
    R: np.ndarray
    terminal_weighting: str = "averaged"

    def __post_init__(self):
        box = tuple((float(a), float(b)) for a, b in self.box)
        if not box:
            raise ValueError("parameter box must have at least one axis")
        for a, b in box:
            if a > b:
                raise ValueError(f"degenerate box axis [{a}, {b}]")
        if self.q < 1:
            raise ValueError("q must be >= 1")
        _check_weighting(self.terminal_weighting)
        object.__setattr__(self, "box", box)

    @property
    def dim(self) -> int:
        return len(self.box)


def _axis_points(a: float, b: float, count: int) -> np.ndarray:
    if count == 1:
        return np.array([0.5 * (a + b)])
    return np.linspace(a, b, count)


def sample_uniform(spec: EnsembleSpec) -> list:
    """Uniform samples of the box including the endpoints.

    For a 1-d box this is q equally spaced points (q = 1 gives the
    midpoint).  For d > 1 a tensor grid is used with the per-axis count
    whose d-th power is closest to q; the realized count may differ from q.
    """
    if spec.dim == 1:
        a, b = spec.box[0]
        return [float(v) for v in _axis_points(a, b, spec.q)]
    root = spec.q ** (1.0 / spec.dim)
    candidates = sorted({max(1, int(np.floor(root))), int(np.ceil(root))})
    count = min(candidates, key=lambda c: abs(c ** spec.dim - spec.q))
    axes = [_axis_points(a, b, count) for a, b in spec.box]
    return [tuple(float(v) for v in combo) for combo in itertools.product(*axes)]


def _block_diag(blocks) -> np.ndarray:
    """Dense matrix with the blocks on its diagonal in order, zeros elsewhere.

    A 1-D block is one row and a 0-d block is 1 x 1; blocks need not be
    square.  The dtype is the blocks' result type.
    """
    blocks = [np.atleast_2d(blk) for blk in blocks]
    rows, cols = np.sum([blk.shape for blk in blocks], axis=0)
    out = np.zeros((rows, cols), dtype=np.result_type(*blocks))
    r = c = 0
    for blk in blocks:
        out[r:r + blk.shape[0], c:c + blk.shape[1]] = blk
        r, c = r + blk.shape[0], c + blk.shape[1]
    return out


def _inputs(c: SampleCoefficients) -> tuple[int, int]:
    """A sample's B column count and number of bilinear maps."""
    B = np.asarray(c.B, dtype=float).reshape(len(np.atleast_1d(c.x0)), -1)
    return B.shape[1], len(c.Blist)


def stack_coefficients(
    coeffs: Sequence[SampleCoefficients],
    tf: float,
    R: np.ndarray,
    terminal_weighting: str = "averaged",
) -> BilinearProblem:
    """Stack explicit per-sample coefficient bundles into one problem; every
    sample needs sample 0's B column count m of B columns and bilinear maps."""
    q = len(coeffs)
    if q < 1:
        raise ValueError("need at least one sample")
    _check_weighting(terminal_weighting)
    m = _inputs(coeffs[0])[0]
    for i, c in enumerate(coeffs):
        if _inputs(c) != (m, m):
            raise ValueError(f"sample {i}: (B columns, bilinear maps) {_inputs(c)} != m = {m}")
    A = _block_diag([c.A for c in coeffs])
    B = np.vstack([np.asarray(c.B, dtype=float).reshape(-1, m) for c in coeffs])
    Blist = tuple(_block_diag([c.Blist[i] for c in coeffs]) for i in range(m))
    g = np.concatenate([np.atleast_1d(c.g) for c in coeffs])
    x0 = np.concatenate([np.atleast_1d(c.x0) for c in coeffs])
    xd = np.concatenate([np.atleast_1d(c.xd) for c in coeffs])
    weight = 1.0 / q if terminal_weighting == "averaged" else 1.0
    return BilinearProblem(
        A=A, B=B, Blist=Blist, g=g, x0=x0, xd=xd, tf=tf, R=R, terminal_weight=weight, q=q
    )


def stack_problem(spec: EnsembleSpec, samples: Sequence) -> BilinearProblem:
    """Evaluate the coefficient map at the samples and stack the results."""
    coeffs = [spec.coefficients(beta) for beta in samples]
    for i, c in enumerate(coeffs):
        if len(np.atleast_1d(c.x0)) != spec.base_n:
            raise ValueError(
                f"sample {i}: coefficient state dimension "
                f"{len(np.atleast_1d(c.x0))} != base_n {spec.base_n}"
            )
        if _inputs(c)[0] != spec.base_m:
            raise ValueError(f"sample {i}: coefficient input dimension {_inputs(c)[0]} "
                             f"!= base_m {spec.base_m}")
    return stack_coefficients(coeffs, spec.tf, spec.R, spec.terminal_weighting)


def stack_noise(specs: Sequence[NoiseSpec]) -> NoiseSpec:
    """Independent per-sample copies: block-diagonal G, concatenated rates.

    Every sample must carry the same kind and the same channel count k.
    """
    kinds = sorted({(s.kind, s.k) for s in specs})
    if len(kinds) != 1:
        raise ValueError(f"every sample needs the same noise kind and number of noise "
                         f"channels, got {kinds}")
    G = _block_diag([s.G for s in specs])
    if specs[0].kind == "poisson":
        return NoiseSpec("poisson", G, np.concatenate([s.lam for s in specs]))
    return NoiseSpec("wiener", G)


def sample_view(values: np.ndarray, q: int) -> np.ndarray:
    """A stacked last axis of length n read as (q, n // q): sample j at [..., j, :]."""
    return values.reshape(values.shape[:-1] + (q, values.shape[-1] // q))


def averaged_terminal_cost(prob: BilinearProblem, X_tf: np.ndarray) -> float:
    """Riemann-sum mean 1/q sum_j ||x_j(tf) - xd_j||^2 over the q samples of a stack.

    Always 1/q-normalized, independent of the stacking weight, so values
    are comparable across refinement levels.
    """
    X_tf = np.asarray(X_tf, dtype=float)
    if X_tf.shape != prob.xd.shape:
        raise ValueError(f"expected stacked terminal state of length {prob.n}")
    miss = X_tf - prob.xd
    return float(np.dot(miss, miss)) / prob.q


@dataclass(frozen=True)
class RefinementRow:
    q: int
    terminal_cost: float
    cost: float
    iterations: int
    converged: bool


def refinement_study(
    spec: EnsembleSpec,
    q_sequence: Sequence[int],
    opts: SolveOptions,
) -> list[RefinementRow]:
    """Solve the stacked problem over a sequence of sample counts.

    Reports the averaged terminal cost per level so Cauchy behavior under
    refinement can be read off directly.
    """
    rows = []
    for q in q_sequence:
        level = replace(spec, q=int(q))
        samples = sample_uniform(level)
        prob = stack_problem(level, samples)
        result = solve(prob, opts)
        rows.append(
            RefinementRow(
                q=prob.q,
                terminal_cost=averaged_terminal_cost(prob, result.final.x.values[-1]),
                cost=result.final.cost,
                iterations=result.iterations_used,
                converged=result.converged,
            )
        )
    return rows
