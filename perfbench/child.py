"""The workload process.

Started by run.py in a fresh interpreter with BLAS pinned to one thread. It
runs --rounds whole rounds of `bilqr solve` followed by `bilqr validate`,
both through `bilqr.cli.main` in-process. Per round it records the CPU and
wall time of each command, exit codes and hashes of the output files;
hashing and clearing the output directory happen outside the timed calls.
The reference kernel runs before the first round and after every round,
so that each round's times can be scaled by the machine's speed around
that round. The process runs one thread, so
its CPU time is the wall time the command would take on an idle core; on a
shared machine CPU time leaves out the time the process waits for a core.
With --trace 1 the layer functions are wrapped (see tracer.py): the second
round also traces allocations, every other round only spans.
The record goes to <out>/child.json.
"""

from __future__ import annotations

import argparse
import ctypes
import hashlib
import json
import platform
import resource
import shutil
import sys
import time
import tracemalloc
from pathlib import Path

import numpy as np
import scipy

from bilqr import cli
from tracer import Tracer
from workloads import LAYERS, WORKLOADS, reference_kernel

SOLVE_FILES = ("control.csv", "convergence.csv", "summary.json")


def digest(run_dir: Path, names) -> str | None:
    h = hashlib.sha256()
    found = False
    for name in names:
        path = run_dir / name
        if path.exists():
            found = True
            h.update(name.encode() + b"\0" + path.read_bytes())
    return h.hexdigest() if found else None


def blas_threads() -> int | None:
    """OpenBLAS's own thread count, read from the library numpy loaded."""
    try:
        with open("/proc/self/maps") as fh:
            libs = {line.split()[-1] for line in fh if "openblas" in line.lower()}
    except OSError:
        return None
    for path in sorted(libs):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            if hasattr(lib, symbol):
                return int(getattr(lib, symbol)())
    return None


def provenance() -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": blas_threads(),
    }


def timed(argv: list) -> tuple:
    """Run one command; return (exit code, CPU seconds, wall seconds)."""
    cpu, wall = time.process_time(), time.perf_counter()
    rc = cli.main(argv)
    return rc, time.process_time() - cpu, time.perf_counter() - wall


def one_round(wl, run_dir: Path) -> dict:
    shutil.rmtree(run_dir, ignore_errors=True)
    rc, solve_s, solve_wall_s = timed(["solve", *wl.solve_args, "--out", str(run_dir)])
    states = sorted(p.name for p in run_dir.glob("state_*.csv"))
    solve_hash = digest(run_dir, SOLVE_FILES + tuple(states))
    validate = [timed(["validate", "--run", str(run_dir), *wl.validate_args])
                for _ in range(wl.validate_repeats)]
    return {
        "solve_s": solve_s,
        "solve_wall_s": solve_wall_s,
        "solve_rc": rc,
        "solve_hash": solve_hash,
        "state_files": len(states),
        "validate_s": [v[1] for v in validate],
        "validate_wall_s": [v[2] for v in validate],
        "validate_rc": [v[0] for v in validate],
        "validate_hash": digest(run_dir, ("validate.json",)),
    }


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--rounds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--out", required=True)
    args = ap.parse_args()
    wl = WORKLOADS[args.workload]
    out = Path(args.out)
    run_dir = out / "run"

    tracer = Tracer(LAYERS) if args.trace else None
    if tracer:
        tracer.install()
    rounds = []
    kernels = [reference_kernel()]
    start = time.perf_counter()
    for index in range(args.rounds):
        kind = "time"
        if tracer:
            kind = "memory" if index == 1 else "spans"
            tracer.memory = kind == "memory"
            if tracer.memory:
                tracemalloc.start()
            first = len(tracer.spans)
        record = one_round(wl, run_dir)
        record["kind"] = kind
        if tracer:
            if tracer.memory:
                tracemalloc.stop()
            record["layers"] = tracer.summary(first)
        rounds.append(record)
        kernels.append(reference_kernel())
    measured_s = time.perf_counter() - start
    if tracer:
        tracer.uninstall()
        tracer.dump(out / "spans.jsonl")

    record = {
        "workload": wl.name,
        "rounds": rounds,
        "measured_s": measured_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "reference_kernel_s": kernels,
        "provenance": provenance(),
        "absent_layers": tracer.absent if tracer else [],
    }
    (out / "child.json").write_text(json.dumps(record, indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main())
