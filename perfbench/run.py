"""Benchmark of `bilqr solve` and `bilqr validate`, end to end and per layer.

    python3 perfbench/run.py --workload <name|all> --seed N --seconds S --trace 0|1

Run from the root of a source checkout (the program is imported from
`src/`). For one workload this process measures set-up time by starting
fresh interpreters, then runs the workload in its own fresh process
(child.py) for round(--seconds / nominal round time) rounds, checks the
outputs against computations made apart from the program (checks.py), and
prints as its last line one JSON object: correct, attempted, failed and
the metrics. --trace 0 gives the end-to-end metrics, --trace 1 the
per-layer ones. Times are CPU times scaled by the reference kernel
measured around them in the same process (see workloads.reference_kernel).
--seed drives the checks' random perturbations; the workloads themselves
are fixed inputs.
"""

from __future__ import annotations

import os

# One BLAS thread here too: the reference kernel runs in this process.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import json
import resource
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

import checks
from workloads import KERNEL_REF_S, LAYERS, WORKLOADS, reference_kernel

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_ROOT = ROOT / ".perfbench_out"
SETUP_REPEATS = 5


def deadline_s(seconds: float) -> float:
    """How long the workload process may take: three times its nominal
    length, plus start-up."""
    return 3.0 * seconds + 40.0


def bench_env() -> dict:
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def steal_ticks() -> int | None:
    try:
        with open("/proc/stat") as fh:
            fields = fh.readline().split()
        return int(fields[8])
    except (OSError, IndexError, ValueError):
        return None


def speed_factors(kernels: list, exponent: float = 1.0) -> list:
    """For a time measured between kernels[i] and kernels[i + 1], the factor
    that scales it to the reference machine speed, at which the kernel
    takes KERNEL_REF_S."""
    return [(2.0 * KERNEL_REF_S / (a + b)) ** exponent for a, b in zip(kernels, kernels[1:])]


def measure_setup(env: dict) -> tuple:
    """CPU times (user + system) of fresh interpreters that import bilqr.cli
    with numpy and scipy, and exit, with the reference kernel between them;
    the first interpreter, which may compile bytecode, is not kept.
    Returns (times, kernels)."""
    subprocess.run([sys.executable, "-c", "import bilqr.cli"], env=env, cwd=ROOT, check=True)
    times, kernels = [], [reference_kernel()]
    for _ in range(SETUP_REPEATS):
        before = resource.getrusage(resource.RUSAGE_CHILDREN)
        subprocess.run([sys.executable, "-c", "import bilqr.cli"], env=env, cwd=ROOT, check=True)
        after = resource.getrusage(resource.RUSAGE_CHILDREN)
        times.append(after.ru_utime + after.ru_stime - before.ru_utime - before.ru_stime)
        kernels.append(reference_kernel())
    return times, kernels


def check_outputs(wl, run_dir: Path, seed: int) -> tuple:
    """Check the last round's outputs. Returns (errors, validate_ok,
    iterations): errors are wrong outputs; validate_ok is False when
    validate wrote nothing or its own verdict fails, which counts the
    validate calls as failed operations."""
    errors = []
    model = wl.model()
    out = checks.read_outputs(run_dir, wl.q)
    summary = out.summary

    def check(fn, *args):
        try:
            fn(*args)
        except checks.CheckError as exc:
            errors.append(str(exc))

    J = checks.cost(model, out.t, out.U, out.X[-1])
    check(checks.check_cost, summary["final_cost"], J)
    ref = checks.integrate(model, out.t, out.U)
    if wl.cap is None:
        if not summary["converged"]:
            errors.append("the run did not converge")
        last_diff = float(summary["history"][-1][1])
        check(checks.check_reference_states, out.X, ref,
              checks.grid_tolerance(model, out.t, out.X, out.U, last_diff))
    elif summary["converged"] or summary["iterations"] != wl.cap:
        errors.append(f"expected a stop at the cap of {wl.cap} iterations, got {summary['iterations']}")
    if wl.pinned:
        check(checks.check_pinned, "final_cost", summary["final_cost"], wl.pinned["final_cost"])
        check(checks.check_pinned, "the stored states' distance from the reference integration",
              checks.sup_distance(out.X, ref), wl.pinned["state_error"])

    if wl.family == "iaf":
        check(checks.check_local_minimum, model, out.t, out.U, seed)
    if wl.family == "bloch":
        check(checks.check_mirror, out.X)
        check(checks.check_zero_channel, out.U, 1)
        if not J < 2.0:
            errors.append(f"J = {J} is not below the zero-control cost 2")
    if wl.family == "twospin":
        if not abs(J - 2.0) <= 1e-6:
            errors.append(f"J = {J} differs from the dark-point value 2")
        check(checks.check_zero_channel, out.U, 0, 1e-5)
        check(checks.check_zero_channel, out.U, 1, 1e-5)

    validate_ok = out.validate is not None
    if validate_ok:
        check(checks.check_validate, out.validate, model, out.X, checks.rk4(model, out.t, out.U))
        if wl.validate_args:  # the MC verdict, for the workload with noise
            try:
                checks.check_mc_verdict(out.validate)
            except checks.CheckError:
                validate_ok = False
    return errors, validate_ok, int(summary["iterations"])


def layer_metrics(rounds: list, factors: list, paths: int) -> dict:
    """Per-layer metrics per round: self time (scaled like `solve_s`) and
    calls as medians over the span-only rounds, allocation peaks
    from the memory round. `stochastic.paths` is the number of Monte Carlo
    paths validate simulates in a round."""
    spans = [(r, f) for r, f in zip(rounds, factors) if r["kind"] == "spans"]
    mem_rounds = [r for r in rounds if r["kind"] == "memory"]
    metrics = {}
    for layer in LAYERS:
        rows = [(r["layers"][layer.name], f) for r, f in spans]
        if layer.name != "solver.solve_frozen_boundary_value":  # counted only
            metrics[f"{layer.name}.self_ms"] = {
                "value": statistics.median(row["self_ms"] * f for row, f in rows), "unit": "ms"}
        metrics[f"{layer.name}.calls"] = {
            "value": statistics.median(row["calls"] for row, _ in rows), "unit": "count"}
        if layer.mem:
            metrics[f"{layer.name}.peak_mb"] = {
                "value": max(r["layers"][layer.name]["peak_mb"] for r in mem_rounds), "unit": "MB"}
    metrics["stochastic.paths"] = {"value": paths, "unit": "count"}
    return metrics


def run_one(name: str, seed: int, seconds: float, trace: int) -> int:
    wl = WORKLOADS[name]
    env = bench_env()
    out = OUT_ROOT / name / f"seed{seed}-trace{trace}"
    shutil.rmtree(out, ignore_errors=True)
    out.mkdir(parents=True)

    setup, setup_kernels = ([], []) if trace else measure_setup(env)
    steal_before = steal_ticks()
    with open(out / "child.out", "w") as so, open(out / "child.err", "w") as se:
        cmd = [sys.executable, str(HERE / "child.py"), "--workload", name,
               "--rounds", str(wl.rounds(seconds)), "--trace", str(trace), "--out", str(out)]
        try:
            proc = subprocess.run(cmd, env=env, cwd=ROOT, stdout=so, stderr=se,
                                  timeout=deadline_s(seconds))
        except subprocess.TimeoutExpired:
            print(f"error: workload {name} did not finish in time", file=sys.stderr)
            return 1
    steal_after = steal_ticks()
    if proc.returncode != 0:
        print(f"error: workload process exited {proc.returncode}; see {out / 'child.err'}", file=sys.stderr)
        return 1
    record = json.loads((out / "child.json").read_text())
    rounds = record["rounds"]
    kernels = record["reference_kernel_s"]
    factors = speed_factors(kernels)
    solve_factors = speed_factors(kernels, wl.solve_speed_exponent)

    errors = []
    solve_hashes = {r["solve_hash"] for r in rounds}
    validate_hashes = {r["validate_hash"] for r in rounds}
    if len(solve_hashes) != 1 or len(validate_hashes) != 1:
        errors.append("outputs differ between rounds of identical commands")
    if any(r["state_files"] != wl.q for r in rounds):
        errors.append(f"expected {wl.q} state files")
    solve_ok = [r["solve_rc"] == wl.solve_rc for r in rounds]
    validate_ok = False
    iterations = None
    if all(solve_ok):
        found, validate_ok, iterations = check_outputs(wl, out / "run", seed)
        errors += found
    attempted = len(rounds) * (1 + wl.validate_repeats)
    failed = sum(not ok for ok in solve_ok)
    for r in rounds:
        failed += sum(not (validate_ok and rc == 0) for rc in r["validate_rc"])

    solve_s = [r["solve_s"] for r in rounds]
    validate_s = [v for r in rounds for v in r["validate_s"]]
    if trace:
        report = out / "run" / "validate.json"
        mc = json.loads(report.read_text())["mc"] if report.exists() else None
        metrics = layer_metrics(rounds, solve_factors, mc["paths"] * wl.q * wl.validate_repeats if mc else 0)
    else:
        metrics = {
            "setup_s": {"value": statistics.median(
                t * f for t, f in zip(setup, speed_factors(setup_kernels))), "unit": "s"},
            "solve_s": {"value": statistics.median(
                t * f for t, f in zip(solve_s, solve_factors)), "unit": "s"},
            "validate_s": {"value": statistics.median(
                v * f for r, f in zip(rounds, factors) for v in r["validate_s"]), "unit": "s"},
            "iterations": {"value": iterations, "unit": "count"},
            "peak_rss_mb": {"value": record["peak_rss_mb"], "unit": "MB"},
        }
    info = {
        "workload": name,
        "seed": seed,
        "rounds": len(rounds),
        "measured_s": record["measured_s"],
        "provenance": dict(record["provenance"], nproc=os.cpu_count(),
                           affinity=len(os.sched_getaffinity(0))),
        "steal_ticks": None if steal_before is None else steal_after - steal_before,
        "reference_kernel_s": {"workload": statistics.median(kernels),
                               "setup": statistics.median(setup_kernels) if setup else None,
                               "min": min(kernels), "max": max(kernels)},
        "uncorrected_s": {"setup": statistics.median(setup) if setup else None,
                          "solve": statistics.median(solve_s),
                          "validate": statistics.median(validate_s)},
        "absent_layers": record["absent_layers"],
        "errors": errors,
    }
    (out / "result.json").write_text(json.dumps({"info": info, "metrics": metrics}, indent=1))
    for msg in errors:
        print(f"check failed: {msg}")
    print("info: " + json.dumps(info))
    print(json.dumps({"correct": not errors, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


def run_all(seed: int, seconds: float, trace: int) -> int:
    """Each workload in its own process, one after another."""
    correct, attempted, failed, metrics = True, 0, 0, {}
    for name in WORKLOADS:
        proc = subprocess.run([sys.executable, str(HERE / "run.py"), "--workload", name,
                               "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
                              cwd=ROOT, capture_output=True, text=True)
        if proc.returncode != 0:
            sys.stderr.write(proc.stderr)
            return proc.returncode
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        print(f"{name}: {json.dumps(result)}")
        correct &= result["correct"]
        attempted += result["attempted"]
        failed += result["failed"]
        metrics.update({f"{name}.{k}": v for k, v in result["metrics"].items()})
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS) + ["all"])
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=30.0,
                    help="nominal run length; the number of rounds follows from it")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if not (ROOT / "src" / "bilqr" / "cli.py").is_file():
        print(f"error: no bilqr sources under {ROOT / 'src'}; run from a source checkout",
              file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args.seed, args.seconds, args.trace)
    return run_one(args.workload, args.seed, args.seconds, args.trace)


if __name__ == "__main__":
    sys.exit(main())
