"""Parameterized families of bilinear systems under one shared control.

A family over a parameter box is discretized into q uniform samples and
stacked into a single problem: block-diagonal drift and bilinear maps,
vertically stacked input map (the control is broadcast, so the stacked
quadratic weight couples all samples), and a terminal penalty that is the
Riemann-sum average of the per-sample errors.

This module owns the stacked layout: sample j owns state rows j b:(j + 1) b
and noise columns j k:(j + 1) k, with b = n / q and k = (noise channels) / q.
`stack_coefficients` (whose problem holds q) and `stack_noise` build it:
the samples' drifts, bilinear maps and noise matrices are stacked in one
pass and each placed on the diagonal with one assignment (`_place_blocks`);
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


def _dims(c: SampleCoefficients) -> tuple[int, int]:
    """A sample's state count b and B column count."""
    b = np.size(c.x0)
    return b, np.size(c.B) // max(b, 1)


def _sample_stacks(coeffs: Sequence[SampleCoefficients]):
    """The samples' A (q, b, b), B (q, b, m), Bs (q, m, b, b) and g, x0, xd
    (3, q, b), each stacked in one call.  Every sample needs the shapes of
    sample 0's b states and m B columns: b x b matrices A and B_1 ... B_m,
    a b x m matrix B and vectors g, x0, xd of length b, so a 0-d
    coefficient is refused; the first sample that has not is named."""
    q, (b, m) = len(coeffs), _dims(coeffs[0])
    want = ((b, b), (b, m), *[(b, b)] * m, (b,), (b,), (b,))
    for i, c in enumerate(coeffs):
        shapes = tuple(map(np.shape, (c.A, c.B, *c.Blist, c.g, c.x0, c.xd)))
        if shapes != want:
            raise ValueError(f"sample {i}: shapes of (A, B, B_1 ... B_m, g, x0, xd) {shapes} "
                             f"!= {want} of b = {b} states and m = {m} inputs")
    A, B, Bs, vecs = (np.array(x, dtype=float) for x in (
        [c.A for c in coeffs], [c.B for c in coeffs], [c.Blist for c in coeffs],
        [(c.g, c.x0, c.xd) for c in coeffs]))
    return A, B, Bs, vecs.swapaxes(0, 1)


def _place_blocks(blocks: np.ndarray) -> np.ndarray:
    """Dense matrices (..., q r, q c) with the q blocks (q, ..., r, c) on their
    diagonals in order, zeros elsewhere; the inverse of
    `model.diagonal_blocks`."""
    q, *lead, r, c = blocks.shape
    out = np.zeros((*lead, q, r, q, c))
    out[..., np.arange(q), :, np.arange(q), :] = blocks
    return out.reshape(*lead, q * r, q * c)


def stack_coefficients(
    coeffs: Sequence[SampleCoefficients],
    tf: float,
    R: np.ndarray,
    terminal_weighting: str = "averaged",
) -> BilinearProblem:
    """Stack explicit per-sample coefficient bundles into one problem; every
    sample needs sample 0's state count b and its B column count m of B
    columns and bilinear maps."""
    q = len(coeffs)
    if q < 1:
        raise ValueError("need at least one sample")
    _check_weighting(terminal_weighting)
    A, B, Bs, (g, x0, xd) = _sample_stacks(coeffs)
    weight = 1.0 / q if terminal_weighting == "averaged" else 1.0
    return BilinearProblem(
        A=_place_blocks(A), B=B.reshape(-1, B.shape[2]), Blist=tuple(_place_blocks(Bs)),
        g=g.ravel(), x0=x0.ravel(), xd=xd.ravel(), tf=tf, R=R, terminal_weight=weight, q=q
    )


def stack_problem(spec: EnsembleSpec, samples: Sequence) -> BilinearProblem:
    """Evaluate the coefficient map at the samples and stack the results;
    sample 0 must have the spec's base_n states and base_m inputs, the
    others sample 0's."""
    coeffs = [spec.coefficients(beta) for beta in samples]
    if coeffs:
        b, m = _dims(coeffs[0])
        if b != spec.base_n:
            raise ValueError(f"sample 0: coefficient state dimension {b} != base_n {spec.base_n}")
        if m != spec.base_m:
            raise ValueError(f"sample 0: coefficient input dimension {m} "
                             f"!= base_m {spec.base_m}")
    return stack_coefficients(coeffs, spec.tf, spec.R, spec.terminal_weighting)


def stack_noise(specs: Sequence[NoiseSpec]) -> NoiseSpec:
    """Independent per-sample copies: block-diagonal G, concatenated rates.

    Every sample must carry the same kind and the same G shape (states,
    channel count k).
    """
    kinds = sorted({(s.kind, s.G.shape) for s in specs})
    if len(kinds) != 1:
        raise ValueError(f"every sample needs the same noise kind and G shape (states, number "
                         f"of noise channels), got {kinds}")
    G = _place_blocks(np.array([s.G for s in specs]))
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
