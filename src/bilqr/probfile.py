"""JSON problem files.

Two layouts are accepted, discriminated by "kind":

* "single": all fields of one bilinear problem, dimensions explicit,
  matrices as row-major nested arrays, optional additive-noise block.
* "ensemble": parameter box bounds, sample count q, and either a builtin
  scenario name ("scenario") or explicit per-sample coefficient tables
  ("samples").

Parsing and the input checks live here; the parsed problem, as stated
with its own g, and its per-sample noises go to `scenarios.assemble_run`,
the one place where noise is stacked; the setup adds the noise's mean to g
(`RunSetup.problem`).  See the repository README for annotated examples.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

from .ensemble import STACKING_NOTE, SampleCoefficients, stack_coefficients
from .model import BilinearProblem, NoiseSpec
from .scenarios import RunSetup, assemble_run, build, integer
from .solver import SolveOptions

__all__ = ["ProblemFileError", "load_problem_file"]


class ProblemFileError(ValueError):
    """Schema violation in a problem file; the message names the field."""


def _require(data: dict, key: str, ctx: str):
    if not isinstance(data, dict):
        raise ProblemFileError(f"{ctx} must be an object")
    if key not in data:
        raise ProblemFileError(f"{ctx}: missing field '{key}'")
    return data[key]


def _integer(data: dict, key: str, ctx: str) -> int:
    raw = _require(data, key, ctx)
    try:
        return integer(raw, f"field '{key}'")
    except ValueError as exc:
        raise ProblemFileError(f"{ctx}: {exc}") from exc


def _real(raw) -> bool:
    """A JSON number: an int or a float, not a bool (nor a string)."""
    return isinstance(raw, (int, float)) and not isinstance(raw, bool)


def _reals(raw) -> bool:
    """A JSON number or a nested list of them."""
    return _real(raw) or isinstance(raw, list) and all(map(_reals, raw))


def _number(data: dict, key: str, ctx: str) -> float:
    raw = _require(data, key, ctx)
    if not _real(raw):
        raise ProblemFileError(f"{ctx}: field '{key}' must be one number, got {raw!r}")
    return float(raw)


def _array(data: dict, key: str, ctx: str) -> np.ndarray:
    raw = _require(data, key, ctx)
    try:
        if not _reals(raw):
            raise ValueError(raw)
        return np.asarray(raw, dtype=float)
    except ValueError as exc:  # a non-number or ragged nesting
        raise ProblemFileError(f"{ctx}: field '{key}' is not numeric") from exc


def _matrix(data: dict, key: str, rows: int, cols: int, ctx: str) -> np.ndarray:
    arr = _array(data, key, ctx)
    if arr.shape != (rows, cols):
        raise ProblemFileError(
            f"{ctx}: field '{key}' must be {rows}x{cols}, got shape {arr.shape}"
        )
    return arr


def _vector(data: dict, key: str, length: int, ctx: str) -> np.ndarray:
    arr = _array(data, key, ctx)
    if arr.shape != (length,):
        raise ProblemFileError(
            f"{ctx}: field '{key}' must have length {length}, got shape {arr.shape}"
        )
    return arr


def _noise(data: dict, n: int, ctx: str) -> NoiseSpec | None:
    if "noise" not in data or data["noise"] is None:
        return None
    block, ctx = data["noise"], f"{ctx}.noise"
    kind = _require(block, "kind", ctx)
    if kind not in ("poisson", "wiener"):
        raise ProblemFileError(f"{ctx}: unknown kind {kind!r}")
    G = _array(block, "G", ctx)
    if G.ndim < 2:
        G = G.reshape(-1, 1)
    if G.shape[0] != n:
        raise ProblemFileError(f"{ctx}: field 'G' must have {n} rows")
    lam = np.atleast_1d(_array(block, "lambda", ctx)) if kind == "poisson" else None
    try:
        return NoiseSpec(kind, G, lam)
    except ValueError as exc:
        raise ProblemFileError(f"{ctx}: {exc}") from exc


def _coefficients(data: dict, n: int, m: int, ctx: str) -> SampleCoefficients:
    Blist_raw = _require(data, "Blist", ctx)
    if not isinstance(Blist_raw, (list, tuple)) or len(Blist_raw) != m:
        raise ProblemFileError(f"{ctx}: field 'Blist' must hold {m} matrices")
    Blist = tuple(
        _matrix({"Bi": Bi}, "Bi", n, n, f"{ctx}.Blist[{i}]") for i, Bi in enumerate(Blist_raw)
    )
    return SampleCoefficients(
        A=_matrix(data, "A", n, n, ctx),
        B=_matrix(data, "B", n, m, ctx),
        Blist=Blist,
        g=_vector(data, "g", n, ctx),
        x0=_vector(data, "x0", n, ctx),
        xd=_vector(data, "xd", n, ctx),
    )


def _load_single(data: dict, label: str) -> RunSetup:
    ctx = "problem file"
    n = _integer(data, "n", ctx)
    m = _integer(data, "m", ctx)
    if n < 1 or m < 1:
        raise ProblemFileError(f"{ctx}: dimensions must be positive, got n={n}, m={m}")
    coeffs = _coefficients(data, n, m, ctx)
    tf = _number(data, "tf", ctx)
    R = _matrix(data, "R", m, m, ctx)
    weight = _number(data, "terminal_weight", ctx) if "terminal_weight" in data else 1.0
    noise = _noise(data, n, ctx)
    try:
        problem = BilinearProblem(**vars(coeffs), tf=tf, R=R, terminal_weight=weight)
        return assemble_run(label, problem, [] if noise is None else [noise], SolveOptions())
    except ValueError as exc:
        raise ProblemFileError(f"{ctx}: {exc}") from exc


# The fields of an ensemble file that names a built-in scenario.
SCENARIO_FIELDS = ("kind", "scenario", "q")


def _load_ensemble(data: dict, label: str) -> RunSetup:
    ctx = "problem file"
    if "scenario" in data:
        extra = sorted(set(data) - set(SCENARIO_FIELDS))
        if extra:
            raise ProblemFileError(f"{ctx}: field '{extra[0]}' does not apply to a scenario "
                                   f"ensemble (allowed: {', '.join(SCENARIO_FIELDS)})")
        name = data["scenario"]
        overrides = {}
        if "q" in data:
            overrides["q"] = _integer(data, "q", ctx)
        return build(name, overrides)

    samples_raw = _require(data, "samples", ctx)
    if not isinstance(samples_raw, list) or not samples_raw:
        raise ProblemFileError(f"{ctx}: field 'samples' must be a non-empty list")
    n = _integer(data, "n", ctx)
    m = _integer(data, "m", ctx)
    tf = _number(data, "tf", ctx)
    R = _matrix(data, "R", m, m, ctx)
    weighting = data.get("terminal_weighting", "averaged")

    coeffs = []
    noises = []
    for i, sample in enumerate(samples_raw):
        sctx = f"{ctx}.samples[{i}]"
        coeffs.append(_coefficients(sample, n, m, sctx))
        ns = _noise(sample, n, sctx)
        if ns is not None:
            noises.append(ns)
    if noises and len(noises) != len(coeffs):
        raise ProblemFileError(f"{ctx}: either every sample carries noise or none does")
    betas = _betas(data, len(coeffs), ctx)
    try:
        problem = stack_coefficients(coeffs, tf, R, weighting)
        return assemble_run(label, problem, noises, SolveOptions(), samples=betas,
                            notes=(STACKING_NOTE,))
    except ValueError as exc:
        raise ProblemFileError(f"{ctx}: {exc}") from exc


def _betas(data: dict, q: int, ctx: str) -> tuple:
    """The sample parameters: a list of q numbers, 0, ..., q - 1 if absent."""
    if "betas" not in data:
        return tuple(range(q))
    betas = data["betas"]
    if (not isinstance(betas, list) or len(betas) != q
            or not all(isinstance(b, (int, float)) and not isinstance(b, bool) for b in betas)):
        raise ProblemFileError(f"{ctx}: field 'betas' must be a list of {q} numbers, "
                               f"got {betas!r}")
    return tuple(betas)


def load_problem_file(path: str | Path) -> RunSetup:
    """Parse and validate a problem file into a runnable setup."""
    path = Path(path)
    try:
        text = path.read_text()
    except OSError as exc:
        raise ProblemFileError(f"cannot read {path}: {exc}") from exc
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ProblemFileError(
            f"{path}: malformed JSON at line {exc.lineno}, column {exc.colno}: {exc.msg}"
        ) from exc
    if not isinstance(data, dict):
        raise ProblemFileError(f"{path}: top level must be an object")
    kind = data.get("kind", "single")
    if kind == "single":
        return _load_single(data, label=path.stem)
    if kind == "ensemble":
        return _load_ensemble(data, label=path.stem)
    raise ProblemFileError(f"{path}: field 'kind' must be 'single' or 'ensemble', got {kind!r}")
