"""Command-line front end: solve scenarios or problem files, validate prior
runs by resimulation and Monte Carlo, and sweep the control weight.

Exit codes: 0 converged, 2 stopped at the iteration limit without meeting
the stop rule, 1 input, file or solver error.  The commands raise; `main`
is the one boundary that turns an error into one `error:` line on stderr
and exit 1.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import sys
import warnings
from pathlib import Path

import numpy as np

from .diagnostics import hjb_residual, necessary_condition_residual
from .ensemble import averaged_terminal_cost, sample_view
from .numkit import BlowupError, GriddedTrajectory, TimeGrid, TransitionInversionError
from .probfile import ProblemFileError, load_problem_file
from .scenarios import SCENARIO_IDS, RunSetup, build, scenario_metrics
from .solver import (
    BoundarySolveError,
    RiccatiEscapeError,
    SolveOptions,
    simulate_bilinear,
    solve,
)
from .stochastic import mean_consistency, simulate_poisson_paths, simulate_wiener_paths

OUT_ROOT_ENV = "BILQR_OUT"

# Bytes of the path table of one group of samples in the Monte Carlo check:
# larger groups run fewer step loops, but the table and the statistic's
# temporaries of a whole group are alive at once.
_MC_GROUP_BYTES = 1 << 24

# Errors of a solve (with or without its diagnostics) that sweep-r records
# as the failed scale's table row.
SOLVER_ERRORS = (RiccatiEscapeError, BoundarySolveError, BlowupError,
                 TransitionInversionError, np.linalg.LinAlgError)


def _json_safe(x):
    if isinstance(x, float) and not np.isfinite(x):
        return None
    return x


def _write_csv(path: Path, header: list[str], table: np.ndarray, int_cols: int = 0) -> None:
    """A table (rows, len(header)) as CSV under its header, one format string
    per row: the first int_cols columns as integers, the others as %.17g."""
    fmt = ",".join(["%d"] * int_cols + ["%.17g"] * (len(header) - int_cols)) + "\n"
    with path.open("w") as fh:
        fh.write(",".join(header) + "\n")
        fh.write("".join(fmt % tuple(row) for row in table.tolist()))


def _load_setup(args) -> RunSetup:
    if args.scenario:
        return build(args.scenario, {} if args.q is None else {"q": args.q})
    if args.q is not None:
        raise ProblemFileError("--q applies to scenario sources only")
    return load_problem_file(args.problem)


def _options(setup: RunSetup, args) -> SolveOptions:
    """The setup's options, with each solve flag given on the command line in
    place of the field of the same name."""
    flags = ("steps", "max_iters", "tol", "stop_rule", "alpha")
    updates = {name: getattr(args, name) for name in flags if getattr(args, name) is not None}
    if args.diagnostics:
        updates["record_diagnostics"] = True
    return dataclasses.replace(setup.options, **updates)


def _out_dir(args, setup: RunSetup) -> Path:
    if args.out:
        out = Path(args.out)
    else:
        root = Path(os.environ.get(OUT_ROOT_ENV, "runs"))
        out = root / setup.label
    out.mkdir(parents=True, exist_ok=True)
    return out


def _config_dict(args, setup: RunSetup, opts: SolveOptions) -> dict:
    source = {"kind": "scenario", "name": args.scenario} if args.scenario else {
        "kind": "problem", "path": str(Path(args.problem).resolve())}
    return {
        "source": source,
        "q": setup.q,
        "steps": opts.steps,
        "max_iters": opts.max_iters,
        "tol": opts.tol,
        "stop_rule": opts.stop_rule,
        "alpha": opts.alpha,
        "diagnostics": opts.record_diagnostics,
        "mc_paths": args.mc_paths,
        "seed": args.seed,
    }


def _write_outputs(out: Path, setup: RunSetup, result, config: dict) -> None:
    final = result.final
    grid = final.x.grid
    nodes = grid.nodes
    m = setup.problem.m
    states = sample_view(final.x.values, setup.q)

    _write_csv(out / "control.csv", ["t"] + [f"u{i + 1}" for i in range(m)],
               np.column_stack((nodes, final.u.values)))
    header = ["t"] + [f"x{i + 1}" for i in range(states.shape[-1])]
    for j in range(setup.q):
        _write_csv(out / f"state_{j + 1}.csv", header, np.column_stack((nodes, states[:, j])))

    diag_rows = {r.iteration: r for r in (result.diagnostics.rows if result.diagnostics else ())}
    conv_rows = []
    for k, diff, cost in result.history:
        row = diag_rows.get(k)
        crit = row.criterion_sum if row else float("nan")
        rho = row.rho if row else float("nan")
        conv_rows.append([k, diff, cost, crit, rho])
    _write_csv(out / "convergence.csv", ["k", "diff_x", "cost", "criterion_sum", "rho"],
               np.array(conv_rows, dtype=float), int_cols=1)

    summary = {
        "config": config,
        "converged": result.converged,
        "iterations": result.iterations_used,
        "final_cost": final.cost,
        "notes": list(setup.notes),
        "history": [[int(k), _json_safe(float(d)), float(c)] for k, d, c in result.history],
        "terminal_cost_averaged": averaged_terminal_cost(setup.problem, final.x.values[-1]),
    }

    summary["hjb_residual"] = None
    if final.K is not None:  # the boundary-value route leaves no K to read
        hjb = hjb_residual(setup.problem, None, final, grid)
        summary["hjb_residual"] = {"sup": hjb.sup, "relative": hjb.relative}
    nc_x, nc_p = necessary_condition_residual(setup.problem, final, grid)
    summary["necessary_condition_residuals"] = {"state": nc_x, "costate": nc_p}

    if result.diagnostics is not None:
        rows = result.diagnostics.rows
        summary["diagnostics"] = {
            "delta": rows[0].delta if rows else None,
            "zeta": rows[0].zeta if rows else None,
            "criterion_crossover_iteration": result.diagnostics.crossover_iteration,
            "criterion_sums": [
                [r.iteration, _json_safe(float(r.criterion_sum))] for r in rows
            ],
        }
    else:
        summary["diagnostics"] = None

    summary["metrics"] = scenario_metrics(setup, result)
    with (out / "summary.json").open("w") as fh:
        json.dump(summary, fh, indent=2, sort_keys=True)
        fh.write("\n")


def cmd_solve(args) -> int:
    setup = _load_setup(args)
    opts = _options(setup, args)
    out = _out_dir(args, setup)
    config = _config_dict(args, setup, opts)
    result = solve(setup.problem, opts)
    _write_outputs(out, setup, result, config)
    status = "converged" if result.converged else "stopped at iteration limit"
    print(f"{setup.label}: {status} after {result.iterations_used} iterations, "
          f"cost {result.final.cost:.6g}; outputs in {out}")
    return 0 if result.converged else 2


def _read_table(path: Path) -> np.ndarray:
    """Rows below the header of an output CSV; a header-only file has none."""
    # an open file skips loadtxt's per-path lookup through numpy's datasource
    with warnings.catch_warnings(), open(path) as fh:
        warnings.simplefilter("ignore", UserWarning)  # numpy's empty-input note
        return np.loadtxt(fh, delimiter=",", skiprows=1, ndmin=2)


def _read_control(path: Path, tf: float, m: int) -> GriddedTrajectory:
    data = _read_table(path)
    if data.shape[0] < 2:
        raise ProblemFileError(f"{path} holds fewer than two control samples")
    if data.shape[1] != m + 1:
        raise ProblemFileError(f"{path} holds {data.shape[1] - 1} control columns, the "
                               f"problem has m = {m}")
    nodes = data[:, 0]
    if not abs(nodes[-1] - tf) <= 1e-9 * max(1.0, tf):
        raise ProblemFileError(f"{path}: control horizon {float(nodes[-1])} does not match "
                               f"problem tf {tf}")
    grid = TimeGrid(0.0, float(nodes[-1]), len(nodes) - 1)
    off = np.flatnonzero(~(np.abs(nodes - grid.nodes) <= 1e-9 * (grid.tf - grid.t0)))
    if off.size:
        i = off[0]
        raise ProblemFileError(f"{path}: row {i + 1} has t = {float(nodes[i])}, off the "
                               f"uniform grid's node {float(grid.nodes[i])}")
    return GriddedTrajectory(grid, data[:, 1:])


def _read_run(run_dir: Path) -> tuple[RunSetup, GriddedTrajectory, np.ndarray | None]:
    """The setup, control and stored states of the solve in `run_dir`, each
    checked; the states are the state files' columns side by side, or None."""
    summary_path = run_dir / "summary.json"
    control_path = run_dir / "control.csv"
    if not control_path.exists():
        raise FileNotFoundError(f"{control_path} not found (run `bilqr solve` first)")
    if not summary_path.exists():
        raise FileNotFoundError(f"{summary_path} not found")
    try:
        with summary_path.open() as fh:
            config = json.load(fh)["config"]
        source = config["source"]
        if source["kind"] == "scenario":
            setup = build(source["name"], {"q": config["q"]} if config.get("q") else None)
        else:
            setup = load_problem_file(source["path"])
    except (json.JSONDecodeError, KeyError, TypeError, AttributeError) as exc:
        raise ValueError(f"{summary_path} is not a run summary: {exc!r}") from exc
    utraj = _read_control(control_path, setup.problem.tf, setup.problem.m)

    # state_1 .. state_q only: a reused directory may hold those of a larger q
    state_files = [f for f in (run_dir / f"state_{j + 1}.csv" for j in range(setup.q))
                   if f.exists()]
    if not state_files:
        return setup, utraj, None
    nodes = len(utraj.values)
    stored = []
    for f in state_files:
        try:
            table = _read_table(f)
        except ValueError as exc:
            raise ValueError(f"unreadable state file {f}: {exc}") from exc
        if table.shape[0] != nodes:
            raise ValueError(f"{f} holds {table.shape[0]} rows, expected one per "
                             f"control node ({nodes})")
        stored.append(table[:, 1:])
    stored = np.hstack(stored)
    if stored.shape[1] != setup.problem.n:
        raise ValueError(f"the state files of {run_dir} hold {stored.shape[1]} state "
                         f"columns, the problem has {setup.problem.n}")
    return setup, utraj, stored


def cmd_validate(args) -> int:
    run_dir = Path(args.run)
    setup, utraj, stored = _read_run(run_dir)
    try:
        resim = simulate_bilinear(setup.problem, utraj)
    except BlowupError as exc:
        raise RuntimeError(f"resimulation failed: {exc}") from exc
    fixed_point_error = None
    if stored is not None:
        fixed_point_error = float(np.max(np.abs(stored - resim.values)))
    misses = sample_view(resim.values[-1] - setup.problem.xd, setup.q)
    per_sample_terminal = [float(np.linalg.norm(miss)) for miss in misses]

    report = {
        "fixed_point_sup_error": fixed_point_error,
        "per_sample_terminal_errors": per_sample_terminal,
        "mc": None,
    }
    if setup.noise is not None and args.mc_paths:
        try:
            stat = _ensemble_mc_statistic(setup, utraj, resim, args.mc_paths, args.seed)
        except RuntimeError as exc:
            raise RuntimeError(f"Monte Carlo paths failed: {exc}") from exc
        report["mc"] = {
            "paths": args.mc_paths,
            "seed": args.seed,
            "max_standardized_deviation": _json_safe(stat),
        }
    with (run_dir / "validate.json").open("w") as fh:
        json.dump(report, fh, indent=2, sort_keys=True)
        fh.write("\n")
    msg = f"validate: fixed-point sup error {fixed_point_error}"
    if report["mc"]:
        msg += f"; MC standardized deviation {report['mc']['max_standardized_deviation']}"
    print(msg)
    return 0


def _ensemble_mc_statistic(setup: RunSetup, utraj, resim, M: int, seed: int) -> float:
    """Monte Carlo mean-consistency of every sample in batched passes.

    Given the shared control the samples are independent; sample j draws
    its paths from seed + j.  The samples run together, one batched path
    loop per group, with as many samples per group as fit a path table of
    _MC_GROUP_BYTES (at least one), which bounds memory: beside that table
    the simulators hold each sample's coefficients once, the jump lists (a
    few words per jump) and blocks of step maps of a fixed size (the
    statistic adds its temporaries).  Each group is
    compared with its block of the resimulated state, and the statistic is
    the largest over the groups.  The paths evolve the problem as stated,
    `setup.stated`; the resimulation is of its mean problem.
    """
    prob, noise, q = setup.stated, setup.noise, setup.q
    simulate = simulate_poisson_paths if noise.kind == "poisson" else simulate_wiener_paths
    refs = sample_view(resim.values, q)
    nodes, b = refs.shape[0], refs.shape[2]
    size = max(1, _MC_GROUP_BYTES // (8 * M * nodes * b))
    worst = 0.0
    for lo in range(0, q, size):
        hi = min(lo + size, q)
        batch = simulate(prob, noise, utraj, M, seed, range(lo, hi))
        ref = GriddedTrajectory(resim.grid, refs[:, lo:hi].reshape(nodes, -1))
        stat = mean_consistency(batch, ref).max_standardized_deviation
        if np.isnan(stat):
            return float("nan")
        worst = max(worst, stat)
    return worst


def cmd_sweep_r(args) -> int:
    try:
        scales = [float(s) for s in args.scales.split(",") if s.strip()]
    except ValueError:
        raise ValueError("--scales must be a comma-separated list of numbers") from None
    if not scales:
        raise ValueError("empty scale list")
    rows = []
    for scale in scales:
        overrides = {"r_scale": scale}
        if args.q is not None:
            overrides["q"] = args.q
        setup = build(args.scenario, overrides)
        opts = dataclasses.replace(_options(setup, args), record_diagnostics=True)
        try:
            result = solve(setup.problem, opts)
            crossover = (result.diagnostics.crossover_iteration
                         if result.diagnostics else None)
            terminal = averaged_terminal_cost(setup.problem, result.final.x.values[-1])
            rows.append([scale, result.converged, result.iterations_used,
                         crossover if crossover is not None else "",
                         result.final.cost, terminal, ""])
        except SOLVER_ERRORS as exc:
            rows.append([scale, False, "", "", "", "", str(exc)])
    out = _out_dir(args, setup)
    path = out / "sweep_r.csv"
    with path.open("w") as fh:
        fh.write("scale,converged,iterations,criterion_crossover,final_cost,terminal_error,error\n")
        for row in rows:
            fh.write(",".join(str(v) for v in row) + "\n")
    width = max(len(str(r[0])) for r in rows)
    for row in rows:
        print(f"scale {str(row[0]):>{width}}: converged={row[1]} iterations={row[2]} "
              f"crossover={row[3]} cost={row[4]} terminal={row[5]} {row[6]}")
    print(f"table written to {path}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="bilqr",
        description="Iterative Riccati solver for free-endpoint quadratic "
                    "optimal control of bilinear systems and ensembles.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p, require_source=True):
        src = p.add_mutually_exclusive_group(required=require_source)
        src.add_argument("--scenario", choices=SCENARIO_IDS, help="built-in scenario")
        src.add_argument("--problem", help="path to a JSON problem file")
        p.add_argument("--grid", type=int, dest="steps", help="time-grid sub-intervals")
        p.add_argument("--max-iters", type=int, dest="max_iters")
        p.add_argument("--tol", type=float)
        p.add_argument("--stop-rule", choices=("diff", "target", "both"), dest="stop_rule")
        p.add_argument("--alpha", type=float, help="weight rate for diagnostic norms")
        p.add_argument("--q", type=int, help="ensemble sample count override")
        p.add_argument("--diagnostics", action="store_true",
                       help="record per-iteration contraction diagnostics")
        p.add_argument("--mc-paths", type=int, dest="mc_paths")
        p.add_argument("--seed", type=int, default=0)
        p.add_argument("--out", help=f"output directory (default ${OUT_ROOT_ENV}/<label>)")

    p_solve = sub.add_parser("solve", help="run the iterative solver")
    add_common(p_solve)
    p_solve.set_defaults(func=cmd_solve)

    p_val = sub.add_parser("validate", help="resimulate a prior run and run Monte Carlo")
    p_val.add_argument("--run", required=True, help="directory of a prior solve")
    p_val.add_argument("--mc-paths", type=int, dest="mc_paths")
    p_val.add_argument("--seed", type=int, default=0)
    p_val.set_defaults(func=cmd_validate)

    p_sweep = sub.add_parser("sweep-r", help="rerun a scenario across control-weight scales")
    add_common(p_sweep, require_source=False)
    p_sweep.add_argument("--scales", required=True,
                         help="comma-separated control-weight scale factors")
    p_sweep.set_defaults(func=cmd_sweep_r)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if args.command == "sweep-r" and not args.scenario:
            raise ValueError("sweep-r requires --scenario")
        for flag, value in (("--mc-paths", args.mc_paths), ("--seed", args.seed)):
            if value is not None and value < 0:
                raise ValueError(f"{flag} must be >= 0")
        return args.func(args)
    except (ValueError, RuntimeError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except MemoryError as exc:
        print(f"error: out of memory: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
