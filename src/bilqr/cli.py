"""Command-line front end: solve scenarios or problem files, validate prior
runs by resimulation and Monte Carlo, and sweep the control weight.

Exit codes: 0 converged, 2 stopped at the iteration limit without meeting
the stop rule, 1 input or solver error.
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
from .ensemble import averaged_terminal_cost, sample_view, unstack
from .model import bilinear_factors
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

# Errors a solve (with or without its diagnostics) reports as exit 1.
SOLVER_ERRORS = (RiccatiEscapeError, BoundarySolveError, BlowupError,
                 TransitionInversionError, np.linalg.LinAlgError)


def _fmt(x: float) -> str:
    return f"{x:.17g}"


def _json_safe(x):
    if isinstance(x, float) and not np.isfinite(x):
        return None
    return x


def _write_csv(path: Path, header: list[str], rows) -> None:
    with path.open("w") as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(_fmt(v) if isinstance(v, float) else str(v) for v in row) + "\n")


def _load_setup(args) -> RunSetup:
    if args.scenario:
        return build(args.scenario, {} if args.q is None else {"q": args.q})
    if args.q is not None:
        raise ProblemFileError("--q applies to scenario sources only")
    return load_problem_file(args.problem)


def _options(setup: RunSetup, args) -> SolveOptions:
    opts = setup.options
    updates = {}
    if args.grid is not None:
        updates["steps"] = args.grid
    if args.max_iters is not None:
        updates["max_iters"] = args.max_iters
    if args.tol is not None:
        updates["tol"] = args.tol
    if args.stop_rule is not None:
        updates["stop_rule"] = args.stop_rule
    if args.alpha is not None:
        updates["alpha"] = args.alpha
    if args.diagnostics:
        updates["record_diagnostics"] = True
    return dataclasses.replace(opts, **updates) if updates else opts


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


def _write_outputs(out: Path, setup: RunSetup, opts: SolveOptions,
                   result, config: dict) -> None:
    final = result.final
    grid = final.x.grid
    nodes = grid.nodes
    m = setup.problem.m
    states = sample_view(final.x.values, setup.q)

    _write_csv(
        out / "control.csv",
        ["t"] + [f"u{i + 1}" for i in range(m)],
        ([float(t)] + [float(v) for v in final.u.values[i]] for i, t in enumerate(nodes)),
    )
    for j in range(setup.q):
        _write_csv(
            out / f"state_{j + 1}.csv",
            ["t"] + [f"x{i + 1}" for i in range(states.shape[-1])],
            ([float(t)] + [float(v) for v in states[i, j]] for i, t in enumerate(nodes)),
        )

    diag_rows = {r.iteration: r for r in (result.diagnostics.rows if result.diagnostics else ())}
    conv_rows = []
    for k, diff, cost in result.history:
        row = diag_rows.get(k)
        crit = row.criterion_sum if row else float("nan")
        rho = row.rho if row else float("nan")
        conv_rows.append([int(k), float(diff), float(cost), float(crit), float(rho)])
    _write_csv(out / "convergence.csv", ["k", "diff_x", "cost", "criterion_sum", "rho"], conv_rows)

    factors = bilinear_factors(setup.problem.Blist)
    summary = {
        "config": config,
        "converged": result.converged,
        "iterations": result.iterations_used,
        "final_cost": final.cost,
        "notes": list(setup.notes),
        "history": [[int(k), _json_safe(float(d)), float(c)] for k, d, c in result.history],
        "terminal_cost_averaged": averaged_terminal_cost(
            setup.problem, setup.q, final.x.values[-1]),
    }

    if final.K is not None:
        hjb = hjb_residual(setup.problem, factors, final, grid)
        nc_x, nc_p = necessary_condition_residual(setup.problem, factors, final, grid)
        summary["hjb_residual"] = {"sup": hjb.sup, "relative": hjb.relative}
        summary["necessary_condition_residuals"] = {"state": nc_x, "costate": nc_p}
    else:
        summary["hjb_residual"] = None
        summary["necessary_condition_residuals"] = None

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
    try:
        setup = _load_setup(args)
        opts = _options(setup, args)
    except (ProblemFileError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    out = _out_dir(args, setup)
    config = _config_dict(args, setup, opts)
    try:
        result = solve(setup.problem, opts)
    except SOLVER_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    _write_outputs(out, setup, opts, result, config)
    status = "converged" if result.converged else "stopped at iteration limit"
    print(f"{setup.label}: {status} after {result.iterations_used} iterations, "
          f"cost {result.final.cost:.6g}; outputs in {out}")
    return 0 if result.converged else 2


def _read_table(path: Path) -> np.ndarray:
    """Rows below the header of an output CSV; a header-only file has none."""
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UserWarning)  # numpy's empty-input note
        return np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)


def _read_control(path: Path, tf: float) -> GriddedTrajectory:
    data = _read_table(path)
    if data.shape[0] < 2:
        raise ProblemFileError(f"{path} holds fewer than two control samples")
    nodes = data[:, 0]
    grid = TimeGrid(float(nodes[0]), float(nodes[-1]), len(nodes) - 1)
    if abs(grid.tf - tf) > 1e-9 * max(1.0, tf):
        raise ProblemFileError(f"control horizon {grid.tf} does not match problem tf {tf}")
    return GriddedTrajectory(grid, data[:, 1:])


def cmd_validate(args) -> int:
    run_dir = Path(args.run)
    summary_path = run_dir / "summary.json"
    control_path = run_dir / "control.csv"
    if not control_path.exists():
        print(f"error: {control_path} not found (run `bilqr solve` first)", file=sys.stderr)
        return 1
    if not summary_path.exists():
        print(f"error: {summary_path} not found", file=sys.stderr)
        return 1
    try:
        with summary_path.open() as fh:
            config = json.load(fh)["config"]
        source = config["source"]
        if source["kind"] == "scenario":
            setup = build(source["name"], {"q": config["q"]} if config.get("q") else None)
        else:
            setup = load_problem_file(source["path"])
        utraj = _read_control(control_path, setup.problem.tf)
    except (json.JSONDecodeError, KeyError, TypeError) as exc:
        print(f"error: {summary_path} is not a run summary: {exc!r}", file=sys.stderr)
        return 1
    except (ProblemFileError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    try:
        resim = simulate_bilinear(setup.problem, utraj)
    except BlowupError as exc:
        print(f"error: resimulation failed: {exc}", file=sys.stderr)
        return 1
    state_files = sorted(run_dir.glob("state_*.csv"),
                         key=lambda p: int(p.stem.split("_")[1]))
    fixed_point_error = None
    if state_files:
        try:
            stored = np.hstack([_read_table(f)[:, 1:] for f in state_files])
        except ValueError as exc:
            print(f"error: unreadable state file: {exc}", file=sys.stderr)
            return 1
        if stored.shape == resim.values.shape:
            fixed_point_error = float(np.max(np.abs(stored - resim.values)))
    misses = sample_view(resim.values[-1] - setup.problem.xd, setup.q)
    per_sample_terminal = [float(np.linalg.norm(miss)) for miss in misses]

    report = {
        "fixed_point_sup_error": fixed_point_error,
        "per_sample_terminal_errors": per_sample_terminal,
        "mc": None,
    }
    if setup.noise is not None and args.mc_paths:
        M = args.mc_paths
        try:
            stat = _ensemble_mc_statistic(setup, utraj, resim, M, args.seed)
        except RuntimeError as exc:
            print(f"error: Monte Carlo paths failed: {exc}", file=sys.stderr)
            return 1
        report["mc"] = {
            "paths": M,
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
    """Monte Carlo mean-consistency, sample by sample.

    Given the shared control, the per-sample subsystems are independent, so
    simulating them separately is statistically identical to the stacked
    simulation while bounding memory.  The paths evolve the raw stochastic
    system: the Poisson part of the reduced translation is subtracted and
    re-enters through the jumps.
    """
    worst = 0.0
    refs = sample_view(resim.values, setup.q)
    for j, (sub, noise) in enumerate(unstack(setup.problem, setup.noise, setup.q)):
        ref = GriddedTrajectory(resim.grid, refs[:, j])
        if noise.kind == "poisson":
            raw = sub.with_g(sub.g - noise.G @ noise.lam)
            batch = simulate_poisson_paths(raw, noise, utraj, M, seed + j)
        else:
            batch = simulate_wiener_paths(sub, noise, utraj, M, seed + j)
        report = mean_consistency(batch, ref)
        stat = report.max_standardized_deviation
        if np.isnan(stat):
            return float("nan")
        worst = max(worst, stat)
    return worst


def cmd_sweep_r(args) -> int:
    try:
        scales = [float(s) for s in args.scales.split(",") if s.strip()]
    except ValueError:
        print("error: --scales must be a comma-separated list of numbers", file=sys.stderr)
        return 1
    if not scales:
        print("error: empty scale list", file=sys.stderr)
        return 1
    rows = []
    for scale in scales:
        overrides = {"r_scale": scale}
        if args.q is not None:
            overrides["q"] = args.q
        try:
            setup = build(args.scenario, overrides)
        except ValueError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 1
        opts = dataclasses.replace(_options(setup, args), record_diagnostics=True)
        try:
            result = solve(setup.problem, opts)
            crossover = (result.diagnostics.crossover_iteration
                         if result.diagnostics else None)
            terminal = averaged_terminal_cost(setup.problem, setup.q, result.final.x.values[-1])
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
        p.add_argument("--grid", type=int, help="time-grid sub-intervals")
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
    if args.command == "sweep-r" and not args.scenario:
        print("error: sweep-r requires --scenario", file=sys.stderr)
        return 1
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
