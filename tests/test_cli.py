import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from bilqr.cli import main
from bilqr.scenarios import build
from bilqr.stochastic import simulate_poisson_paths

LINEAR_PROBLEM = {
    "kind": "single",
    "n": 2,
    "m": 1,
    "A": [[0.0, 1.0], [-2.0, -3.0]],
    "B": [[0.0], [1.0]],
    "Blist": [[[0.0, 0.0], [0.0, 0.0]]],
    "g": [0.5, -0.2],
    "x0": [1.0, 0.0],
    "xd": [0.3, -0.1],
    "tf": 2.0,
    "R": [[2.0]],
}

SCALAR_BILINEAR = {
    "kind": "single",
    "n": 1,
    "m": 1,
    "A": [[-1.25]],
    "B": [[2.0]],
    "Blist": [[[-2.0]]],
    "g": [0.0],
    "x0": [0.0],
    "xd": [0.5],
    "tf": 10.0,
    "R": [[5.0]],
    "terminal_weight": 0.05,
    "noise": {"kind": "poisson", "G": [[0.15]], "lambda": [2.0]},
}


def write_problem(tmp_path, payload, name="prob.json"):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return path


def solve_args(problem_path, out, extra=()):
    return ["solve", "--problem", str(problem_path), "--out", str(out),
            "--grid", "400", *extra]


def test_solve_linear_problem_exit_zero(tmp_path):
    prob = write_problem(tmp_path, LINEAR_PROBLEM)
    out = tmp_path / "run"
    assert main(solve_args(prob, out)) == 0
    assert (out / "control.csv").exists()
    assert (out / "state_1.csv").exists()
    assert (out / "convergence.csv").exists()
    summary = json.loads((out / "summary.json").read_text())
    assert summary["converged"] is True
    assert summary["iterations"] <= 2
    assert summary["hjb_residual"]["relative"] < 1e-6


def test_solve_exit_two_when_iteration_starved(tmp_path):
    prob = write_problem(tmp_path, SCALAR_BILINEAR)
    out = tmp_path / "run"
    code = main(solve_args(prob, out, extra=("--max-iters", "1", "--tol", "1e-12")))
    assert code == 2
    summary = json.loads((out / "summary.json").read_text())
    assert summary["converged"] is False


def test_solve_malformed_file_exit_one(tmp_path, capsys):
    path = tmp_path / "broken.json"
    path.write_text("{ not json }")
    assert main(["solve", "--problem", str(path), "--out", str(tmp_path / "x")]) == 1
    err = capsys.readouterr().err
    assert "line" in err


def test_solve_missing_field_exit_one(tmp_path, capsys):
    payload = dict(LINEAR_PROBLEM)
    del payload["R"]
    prob = write_problem(tmp_path, payload)
    assert main(solve_args(prob, tmp_path / "x")) == 1
    assert "'R'" in capsys.readouterr().err


def test_solve_deterministic_outputs(tmp_path):
    prob = write_problem(tmp_path, SCALAR_BILINEAR)
    out1, out2 = tmp_path / "a", tmp_path / "b"
    assert main(solve_args(prob, out1)) == 0
    assert main(solve_args(prob, out2)) == 0
    for name in ("control.csv", "state_1.csv", "convergence.csv"):
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes()


def test_solve_scenario_exit_zero(tmp_path):
    out = tmp_path / "run"
    code = main(["solve", "--scenario", "iaf_case1", "--q", "4",
                 "--grid", "400", "--out", str(out)])
    assert code == 0
    summary = json.loads((out / "summary.json").read_text())
    assert summary["converged"] is True
    assert summary["config"]["q"] == 4
    # one state file per ensemble sample
    assert sorted(p.name for p in out.glob("state_*.csv")) == [
        "state_1.csv", "state_2.csv", "state_3.csv", "state_4.csv"]


def test_scenario_notes_appear_verbatim(tmp_path):
    out = tmp_path / "run"
    code = main(["solve", "--scenario", "twospin_coherence", "--out", str(out),
                 "--grid", "300", "--max-iters", "3"])
    assert code == 2  # cannot settle in three iterations
    summary = json.loads((out / "summary.json").read_text())
    from bilqr.scenarios import NOTE_TWOSPIN_COORD, NOTE_TWOSPIN_R

    assert NOTE_TWOSPIN_R in summary["notes"]
    assert NOTE_TWOSPIN_COORD in summary["notes"]
    assert "max_transfer" in summary["metrics"]


def test_validate_roundtrip_with_mc(tmp_path):
    prob = write_problem(tmp_path, SCALAR_BILINEAR)
    out = tmp_path / "run"
    assert main(solve_args(prob, out)) == 0
    code = main(["validate", "--run", str(out), "--mc-paths", "400", "--seed", "3"])
    assert code == 0
    report = json.loads((out / "validate.json").read_text())
    assert report["fixed_point_sup_error"] < 1e-4
    assert report["mc"]["paths"] == 400
    assert report["mc"]["max_standardized_deviation"] < 6.0
    assert len(report["per_sample_terminal_errors"]) == 1


def test_validate_single_path_reported_not_gated(tmp_path):
    prob = write_problem(tmp_path, SCALAR_BILINEAR)
    out = tmp_path / "run"
    assert main(solve_args(prob, out)) == 0
    assert main(["validate", "--run", str(out), "--mc-paths", "1"]) == 0
    report = json.loads((out / "validate.json").read_text())
    assert report["mc"]["max_standardized_deviation"] is None  # NaN serialized


def test_validate_missing_control_exit_one(tmp_path, capsys):
    assert main(["validate", "--run", str(tmp_path)]) == 1
    assert "control.csv" in capsys.readouterr().err


def test_sweep_r_requires_scales(tmp_path, capsys):
    assert main(["sweep-r", "--scenario", "iaf_case1", "--scales", ""]) == 1
    assert "empty" in capsys.readouterr().err


def test_sweep_r_table(tmp_path):
    out = tmp_path / "sweep"
    code = main(["sweep-r", "--scenario", "iaf_case1", "--scales", "1.0,4.0",
                 "--q", "3", "--grid", "300", "--out", str(out)])
    assert code == 0
    table = (out / "sweep_r.csv").read_text().strip().splitlines()
    assert table[0].startswith("scale,converged")
    assert len(table) == 3


def test_summary_schema(tmp_path):
    import jsonschema

    prob = write_problem(tmp_path, SCALAR_BILINEAR)
    out = tmp_path / "run"
    assert main(solve_args(prob, out, extra=("--diagnostics",))) == 0
    summary = json.loads((out / "summary.json").read_text())
    schema = {
        "type": "object",
        "required": ["config", "converged", "iterations", "final_cost",
                     "terminal_cost_averaged", "hjb_residual",
                     "necessary_condition_residuals", "diagnostics",
                     "metrics", "notes", "history"],
        "properties": {
            "config": {
                "type": "object",
                "required": ["source", "q", "steps", "max_iters", "tol",
                             "stop_rule", "alpha", "diagnostics", "seed"],
            },
            "converged": {"type": "boolean"},
            "iterations": {"type": "integer"},
            "final_cost": {"type": "number"},
            "terminal_cost_averaged": {"type": "number"},
            "hjb_residual": {
                "type": ["object", "null"],
                "required": ["sup", "relative"],
            },
            "necessary_condition_residuals": {
                "type": ["object", "null"],
                "required": ["state", "costate"],
            },
            "notes": {"type": "array", "items": {"type": "string"}},
            "history": {"type": "array"},
        },
    }
    jsonschema.validate(summary, schema)


def one_error_line(capsys):
    err = capsys.readouterr().err
    assert "Traceback" not in err
    lines = err.strip().splitlines()
    assert len(lines) == 1 and lines[0].startswith("error:")
    return lines[0]


def test_solve_non_finite_problem_data_exit_one(tmp_path, capsys):
    for field, value in (("x0", [float("nan"), 0.0]), ("tf", float("inf")),
                         ("A", [[0.0, float("-inf")], [-2.0, -3.0]])):
        prob = write_problem(tmp_path, dict(LINEAR_PROBLEM, **{field: value}))
        assert main(solve_args(prob, tmp_path / "run")) == 1
        assert f"{field} must be finite" in one_error_line(capsys)


@pytest.mark.parametrize("extra, word", [(("--grid", "1"), "steps"),
                                         (("--alpha", "-1", "--diagnostics"), "alpha"),
                                         (("--tol", "0"), "tol"),
                                         (("--max-iters", "0"), "max_iters")])
def test_solve_rejects_bad_grid_and_alpha(tmp_path, capsys, extra, word):
    prob = write_problem(tmp_path, LINEAR_PROBLEM)
    assert main(solve_args(prob, tmp_path / "run", extra)) == 1
    assert word in one_error_line(capsys)
    sweep = tmp_path / "sweep"
    assert main(["sweep-r", "--scenario", "iaf_case1", "--scales", "1", "--q", "2",
                 "--out", str(sweep), *extra]) == 1
    assert word in one_error_line(capsys)
    assert not sweep.exists()


TWO_SAMPLES = {
    "kind": "ensemble", "n": 1, "m": 1, "tf": 2.0, "R": [[2.0]],
    "samples": [{"A": [[-a]], "B": [[1.0]], "Blist": [[[-0.5]]], "g": [0.1], "x0": [0.0],
                 "xd": [0.3]} for a in (1.0, 1.3)],
}


@pytest.mark.parametrize("payload, field", [
    (dict(LINEAR_PROBLEM, n=[2]), "'n'"),
    (dict(LINEAR_PROBLEM, terminal_weight={"a": 1}), "'terminal_weight'"),
    ({"kind": "ensemble", "n": 2, "m": 1, "tf": 2.0, "R": [[2.0]], "samples": [3]},
     "samples[0]"),
    (dict(TWO_SAMPLES, terminal_weighting="avg"), "terminal_weighting"),
    (dict(TWO_SAMPLES, betas=5), "'betas'"),
    (dict(TWO_SAMPLES, betas=[1]), "'betas'"),
    (dict(LINEAR_PROBLEM, noise={"kind": "wiener", "G": "a"}), "noise: field 'G'"),
    (dict(LINEAR_PROBLEM, noise={"kind": "wiener", "G": 0.5}), "noise: field 'G'"),
    ({"kind": "ensemble", "scenario": "iaf_case1", "q": 2.7}, "field 'q' must be an integer"),
    ({"kind": "ensemble", "scenario": "iaf_case1", "q": True}, "field 'q' must be an integer"),
    (dict(LINEAR_PROBLEM, n=2.5), "field 'n' must be an integer"),
    ({"kind": "ensemble", "scenario": "iaf_case1", "q": 3, "terminal_weighting": "summed",
      "betas": [7]}, "field 'betas' does not apply to a scenario ensemble"),
    (dict(LINEAR_PROBLEM, tf=True), "field 'tf'"),
    (dict(LINEAR_PROBLEM, tf="2.5"), "field 'tf'"),
    (dict(SCALAR_BILINEAR, A=[[True]]), "field 'A'"),
    (dict(SCALAR_BILINEAR, x0=["0.25"]), "field 'x0'"),
    (dict(LINEAR_PROBLEM, A=[[True, 1.0], [-2.0, -3.0]]), "field 'A'"),
], ids=["n-list", "terminal-weight-object", "sample-not-object", "terminal-weighting-unknown",
        "betas-number", "betas-too-few", "noise-gain-string", "noise-gain-scalar",
        "q-fractional", "q-bool", "n-fractional", "scenario-with-sample-fields",
        "tf-bool", "tf-string", "matrix-bool", "vector-string", "matrix-bool-among-floats"])
def test_solve_wrong_json_type_exit_one(tmp_path, capsys, payload, field):
    prob = write_problem(tmp_path, payload)
    assert main(solve_args(prob, tmp_path / "run")) == 1
    assert field in one_error_line(capsys)


def test_solve_out_below_a_regular_file_exit_one(tmp_path, capsys):
    prob = write_problem(tmp_path, LINEAR_PROBLEM)
    assert main(solve_args(prob, prob / "run")) == 1
    assert "prob.json" in one_error_line(capsys)


@pytest.mark.parametrize("name, text", [
    ("control.csv", "t,u1\n"),
    ("state_1.csv", "t,x1,x2\nzero,one,two\n"),
    ("summary.json", "{not json"),
    ("summary.json", '{"config": {"q": 1}}'),
], ids=["header-only-control", "non-numeric-state", "summary-not-json", "summary-without-source"])
@pytest.mark.filterwarnings("error")
def test_validate_malformed_run_exit_one(tmp_path, capsys, name, text):
    prob = write_problem(tmp_path, LINEAR_PROBLEM)
    out = tmp_path / "run"
    assert main(solve_args(prob, out)) == 0
    capsys.readouterr()
    (out / name).write_text(text)
    assert main(["validate", "--run", str(out)]) == 1
    one_error_line(capsys)


def test_diagnostics_transition_failure_names_iteration_and_node(tmp_path, capsys):
    # a stiff two-state drift: the closed-loop transition of the first
    # iterate pair is numerically singular from node 10 (t = 0.5) on
    stiff = dict(LINEAR_PROBLEM, A=[[40.0, 0.0], [0.0, -40.0]], B=[[0.0], [0.0]],
                 g=[0.0, 0.0], x0=[0.0, 0.0], xd=[1.0, 0.0], tf=1.0, R=[[1.0]])
    prob = write_problem(tmp_path, stiff)
    assert main(["solve", "--problem", str(prob), "--out", str(tmp_path / "run"),
                 "--grid", "20", "--diagnostics"]) == 1
    assert one_error_line(capsys) == (
        "error: iteration 1: transition inversion failure at node 10 (t=0.5)")


def test_solver_errors_exit_one_without_traceback(tmp_path, capsys, monkeypatch):
    import numpy as np

    import bilqr.cli as cli
    from bilqr.numkit import TransitionInversionError

    prob = write_problem(tmp_path, LINEAR_PROBLEM)
    for exc in (TransitionInversionError("transition inversion failure at node 3"),
                np.linalg.LinAlgError("Array must not contain infs or NaNs")):
        def fail(*args, exc=exc, **kwargs):
            raise exc

        monkeypatch.setattr(cli, "solve", fail)
        assert main(solve_args(prob, tmp_path / "run")) == 1
        assert str(exc) in one_error_line(capsys)
        # sweep-r records a failed scale as a table row and goes on
        out = tmp_path / "sweep"
        assert main(["sweep-r", "--scenario", "iaf_case1", "--scales", "1.0",
                     "--q", "2", "--grid", "50", "--out", str(out)]) == 0
        assert "Traceback" not in capsys.readouterr().err
        assert str(exc) in (out / "sweep_r.csv").read_text()

    # a grid too large for memory ends in one line too; nothing is allocated
    def out_of_memory(*args, **kwargs):
        raise MemoryError("Unable to allocate 14.9 GiB for an array with shape (2000000001,)")

    monkeypatch.setattr(cli, "solve", out_of_memory)
    assert main(solve_args(prob, tmp_path / "run")) == 1
    assert "out of memory: Unable to allocate 14.9 GiB" in one_error_line(capsys)


def test_validate_monte_carlo_blowup_exit_one(tmp_path, capsys, monkeypatch):
    import bilqr.cli as cli

    prob = write_problem(tmp_path, SCALAR_BILINEAR)
    out = tmp_path / "run"
    assert main(solve_args(prob, out)) == 0
    capsys.readouterr()

    def blow_up(*args, **kwargs):
        raise RuntimeError("path 3 blew up at node 7 (t=0.175)")

    monkeypatch.setattr(cli, "simulate_poisson_paths", blow_up)
    assert main(["validate", "--run", str(out), "--mc-paths", "10"]) == 1
    assert "path 3 blew up" in one_error_line(capsys)


def test_validate_monte_carlo_without_jumps_exit_zero(tmp_path, capsys):
    # at a negligible Poisson rate no path jumps in the batch
    noise = {"kind": "poisson", "G": [[0.15]], "lambda": [1e-9]}
    prob = write_problem(tmp_path, dict(SCALAR_BILINEAR, noise=noise))
    out = tmp_path / "run"
    assert main(solve_args(prob, out)) == 0
    capsys.readouterr()
    assert main(["validate", "--run", str(out), "--mc-paths", "5"]) == 0
    captured = capsys.readouterr()
    assert "Traceback" not in captured.err
    assert len(captured.out.strip().splitlines()) == 1


def test_problem_file_ensemble_matches_its_scenario(tmp_path):
    # the same iaf ensemble as a problem file: same 1/q terminal cost, same
    # per-sample Monte Carlo statistic
    setup = build("iaf_case1", {"q": 3, "steps": 200})
    samples = []
    for j, beta in enumerate(setup.samples):
        c = setup.spec.coefficients(beta)
        samples.append({
            "A": c.A.tolist(), "B": c.B.tolist(), "Blist": [Bi.tolist() for Bi in c.Blist],
            "g": c.g.tolist(), "x0": c.x0.tolist(), "xd": c.xd.tolist(),
            "noise": {"kind": "poisson", "G": [[float(setup.noise.G[j, j])]],
                      "lambda": [float(setup.noise.lam[j])]},
        })
    payload = {"kind": "ensemble", "n": 1, "m": 1, "tf": setup.problem.tf,
               "R": setup.spec.R.tolist(), "betas": list(setup.samples), "samples": samples}
    runs = {"scenario": ["--scenario", "iaf_case1", "--q", "3"],
            "problem": ["--problem", str(write_problem(tmp_path, payload))]}
    reports = {}
    for name, source in runs.items():
        out = tmp_path / name
        assert main(["solve", *source, "--grid", "200", "--out", str(out)]) == 0
        assert main(["validate", "--run", str(out), "--mc-paths", "20"]) == 0
        summary = json.loads((out / "summary.json").read_text())
        reports[name] = (summary["terminal_cost_averaged"],
                         json.loads((out / "validate.json").read_text()))
    assert reports["problem"] == reports["scenario"]


def test_validate_monte_carlo_groups_do_not_change_the_report(tmp_path, monkeypatch):
    # one sample per group and all samples in one group write the same bytes
    import bilqr.cli as cli

    out = tmp_path / "run"
    assert main(["solve", "--scenario", "iaf_case1", "--q", "3", "--grid", "200",
                 "--out", str(out)]) == 0
    calls = []

    def counted(*args, **kwargs):
        calls.append(args[-1])
        return simulate_poisson_paths(*args, **kwargs)

    monkeypatch.setattr(cli, "simulate_poisson_paths", counted)
    reports = {}
    for budget in (1, 1 << 40):
        monkeypatch.setattr(cli, "_MC_GROUP_BYTES", budget)
        assert main(["validate", "--run", str(out), "--mc-paths", "40", "--seed", "1185"]) == 0
        reports[budget] = (out / "validate.json").read_bytes()
    assert calls == [range(0, 1), range(1, 2), range(2, 3), range(0, 3)]
    assert reports[1] == reports[1 << 40]
    assert json.loads(reports[1])["mc"]["max_standardized_deviation"] is not None


def test_validate_truncated_state_file_exit_one(tmp_path, capsys):
    out = tmp_path / "run"
    assert main(["solve", "--scenario", "iaf_case1", "--q", "1", "--grid", "50",
                 "--out", str(out)]) == 0
    capsys.readouterr()
    state = out / "state_1.csv"
    state.write_text("".join(state.read_text().splitlines(keepends=True)[:3]))
    assert main(["validate", "--run", str(out)]) == 1
    assert "state_1.csv" in one_error_line(capsys)


def test_validate_reads_only_the_state_files_of_its_samples(tmp_path, capsys):
    # a second solve into the same directory with fewer samples leaves the
    # first solve's state_3.csv behind; validate reads state_1 and state_2
    out = tmp_path / "run"
    for q in ("3", "2"):
        assert main(["solve", "--scenario", "iaf_case1", "--q", q, "--grid", "50",
                     "--out", str(out)]) == 0
    assert (out / "state_3.csv").exists()
    capsys.readouterr()
    assert main(["validate", "--run", str(out)]) == 0
    report = json.loads((out / "validate.json").read_text())
    assert len(report["per_sample_terminal_errors"]) == 2
    assert report["fixed_point_sup_error"] < 1e-3


@pytest.mark.parametrize("scenario, q, edit, words", [
    ("bloch_broadband", "3", lambda row: row[:-1], "1 control columns, the problem has m = 2"),
    ("iaf_case1", "2", lambda row: row + ["0.5"], "2 control columns, the problem has m = 1"),
], ids=["bloch-column-dropped", "iaf-column-added"])
def test_validate_wrong_control_column_count_exit_one(tmp_path, capsys, scenario, q, edit, words):
    out = tmp_path / "run"
    assert main(["solve", "--scenario", scenario, "--q", q, "--grid", "20", "--max-iters", "2",
                 "--out", str(out)]) in (0, 2)
    capsys.readouterr()
    control = out / "control.csv"
    rows = [line.split(",") for line in control.read_text().splitlines()]
    control.write_text("".join(",".join(edit(row)) + "\n" for row in rows))
    assert main(["validate", "--run", str(out)]) == 1
    line = one_error_line(capsys)
    assert "control.csv" in line and words in line
    assert not (out / "validate.json").exists()


def test_validate_missing_sample_state_file_exit_one(tmp_path, capsys):
    out = tmp_path / "run"
    assert main(["solve", "--scenario", "iaf_case1", "--q", "2", "--grid", "50",
                 "--out", str(out)]) == 0
    capsys.readouterr()
    (out / "state_2.csv").unlink()
    assert main(["validate", "--run", str(out)]) == 1
    assert "1 state columns" in one_error_line(capsys)


# LINEAR_PROBLEM with a bilinear term and a nonzero g
TWO_STATE_BILINEAR = dict(LINEAR_PROBLEM, Blist=[[[0.0, 0.0], [0.3, 0.0]]], g=[0.1, 0.0])
NOISY_SAMPLE = {"A": [[-1.0]], "B": [[1.0]], "Blist": [[[-0.5]]], "g": [0.1], "x0": [0.0],
                "xd": [0.3], "noise": {"kind": "poisson", "G": [[0.15]], "lambda": [2.0]}}


@pytest.mark.parametrize("payload", [
    dict(TWO_STATE_BILINEAR, noise={"kind": "poisson", "G": [[0.15], [0.0]], "lambda": [2.0]}),
    dict(TWO_STATE_BILINEAR, noise={"kind": "wiener", "G": [[0.2], [0.1]]}),
    {"kind": "ensemble", "n": 1, "m": 1, "tf": 2.0, "R": [[2.0]],
     "samples": [NOISY_SAMPLE, dict(NOISY_SAMPLE, g=[0.0])]},
], ids=["poisson", "wiener", "poisson-ensemble"])
def test_validate_monte_carlo_of_a_problem_with_nonzero_g(tmp_path, payload):
    # the paths evolve the stated g (plus the noise); their mean is the
    # resimulation of the solved mean problem
    out = tmp_path / "run"
    prob = write_problem(tmp_path, payload)
    assert main(["solve", "--problem", str(prob), "--grid", "200", "--out", str(out)]) == 0
    assert main(["validate", "--run", str(out), "--mc-paths", "4000", "--seed", "3"]) == 0
    report = json.loads((out / "validate.json").read_text())
    assert report["fixed_point_sup_error"] < 1e-4
    assert report["mc"]["max_standardized_deviation"] < 4.0


def test_solve_and_validate_never_build_the_dense_bilinear_factors(tmp_path, monkeypatch):
    # the solve, its diagnostics and the Monte Carlo check read the bilinear
    # term from the problem's sample blocks only
    from bilqr.model import BilinearFactors

    def refuse(*args, **kwargs):
        raise AssertionError("dense BilinearFactors built")

    monkeypatch.setattr(BilinearFactors, "__init__", refuse)
    sample = {key: TWO_STATE_BILINEAR[key] for key in ("A", "B", "Blist", "g", "x0", "xd")}
    noise = {"kind": "poisson", "G": [[0.15], [0.0]], "lambda": [2.0]}
    payload = {"kind": "ensemble", "n": 2, "m": 1, "tf": 2.0, "R": [[2.0]],
               "samples": [dict(sample, noise=noise), dict(sample, g=[0.0, 0.2], noise=noise)]}
    out = tmp_path / "run"
    assert main(["solve", "--problem", str(write_problem(tmp_path, payload)), "--grid", "50",
                 "--diagnostics", "--out", str(out)]) == 0
    assert json.loads((out / "summary.json").read_text())["diagnostics"] is not None
    assert main(["validate", "--run", str(out), "--mc-paths", "20"]) == 0


def test_boundary_value_route_reports_the_necessary_condition_residuals(tmp_path):
    # the stiff probe escapes every Riccati sweep at 100 steps, so no
    # iterate carries K: the HJB residual and the contraction bounds are
    # undefined, the NC residuals read x and p only
    payload = {"kind": "single", "n": 2, "m": 1, "A": [[-200.0, 0.0], [0.0, -200.0]],
               "B": [[1.0], [0.5]], "Blist": [[[0.0, 1.0], [-1.0, 0.0]]], "g": [1.0, -2.0],
               "x0": [1.0, 0.0], "xd": [0.0, 1.0], "tf": 1.0, "R": [[0.1]]}
    out = tmp_path / "run"
    assert main(["solve", "--problem", str(write_problem(tmp_path, payload)), "--grid", "100",
                 "--diagnostics", "--out", str(out)]) == 0
    summary = json.loads((out / "summary.json").read_text())
    assert summary["hjb_residual"] is None
    nc = summary["necessary_condition_residuals"]
    assert np.isfinite(nc["state"]) and np.isfinite(nc["costate"])
    sums = summary["diagnostics"]["criterion_sums"]
    assert len(sums) == summary["iterations"]
    assert all(value is None for _, value in sums)  # infinite, written as null


def test_validate_without_state_files_reports_no_fixed_point_error(tmp_path, capsys):
    out = solve_iaf(tmp_path, capsys)
    (out / "state_1.csv").unlink()
    assert main(["validate", "--run", str(out)]) == 0
    report = json.loads((out / "validate.json").read_text())
    assert report["fixed_point_sup_error"] is None
    assert len(report["per_sample_terminal_errors"]) == 1


def solve_iaf(tmp_path, capsys):
    out = tmp_path / "run"
    assert main(["solve", "--scenario", "iaf_case1", "--q", "1", "--grid", "20",
                 "--out", str(out)]) == 0
    capsys.readouterr()
    return out


@pytest.mark.parametrize("extra, flag", [(("--mc-paths", "-3"), "--mc-paths"),
                                         (("--mc-paths", "2", "--seed", "-1"), "--seed")])
def test_validate_rejects_negative_paths_and_seed(tmp_path, capsys, extra, flag):
    out = solve_iaf(tmp_path, capsys)
    assert main(["validate", "--run", str(out), *extra]) == 1
    assert flag in one_error_line(capsys)
    assert not (out / "validate.json").exists()
    # solve and sweep-r refuse the same values before any work
    rejected = tmp_path / "rejected"
    for command in (["solve"], ["sweep-r", "--scales", "1"]):
        assert main([*command, "--scenario", "iaf_case1", "--q", "1", "--grid", "20",
                     "--out", str(rejected), *extra]) == 1
        assert flag in one_error_line(capsys)
        assert not rejected.exists()  # no summary.json, no output directory


def test_validate_off_grid_control_time_exit_one(tmp_path, capsys):
    out = solve_iaf(tmp_path, capsys)
    control = out / "control.csv"
    lines = control.read_text().splitlines(keepends=True)
    lines[3] = "0.9," + lines[3].split(",", 1)[1]  # row 3 lies at t = 1
    control.write_text("".join(lines))
    assert main(["validate", "--run", str(out)]) == 1
    line = one_error_line(capsys)
    assert "control.csv" in line and "row 3" in line


@pytest.mark.parametrize("start, stop, words", [(0.5, 2.0, "row 1"), (0.0, 0.0, "horizon")],
                         ids=["starts-at-half", "all-zero"])
def test_validate_control_not_spanning_zero_to_tf_exit_one(tmp_path, capsys, start, stop, words):
    # the time column rewritten to run uniformly over [start, stop], row count kept
    out = tmp_path / "run"
    assert main(["solve", "--problem", str(write_problem(tmp_path, LINEAR_PROBLEM)),
                 "--out", str(out), "--grid", "40"]) == 0
    capsys.readouterr()
    control = out / "control.csv"
    header, *rows = control.read_text().splitlines(keepends=True)
    times = (start + (stop - start) * i / (len(rows) - 1) for i in range(len(rows)))
    control.write_text(header + "".join(f"{t!r}," + row.split(",", 1)[1]
                                        for t, row in zip(times, rows)))
    assert main(["validate", "--run", str(out)]) == 1
    line = one_error_line(capsys)
    assert "control.csv" in line and words in line
    assert not (out / "validate.json").exists()


def test_commands_load_no_scipy(tmp_path):
    # the runtime needs numpy only; a fresh interpreter is needed because
    # reference tests load scipy into this one
    out = str(tmp_path / "run")
    script = "\n".join([
        "import sys",
        "from bilqr.cli import main",
        f"assert main(['solve', '--scenario', 'iaf_case1', '--q', '2', '--grid', '20', "
        f"'--out', {out!r}]) == 0",
        f"assert main(['validate', '--run', {out!r}, '--mc-paths', '4']) == 0",
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))",
    ])
    src = Path(__file__).resolve().parents[1] / "src"
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                          env=dict(os.environ, PYTHONPATH=str(src)), timeout=300)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "[]"


def test_csv_rows_keep_their_bytes(tmp_path):
    # one format string per row: %d for the integer columns, %.17g for the
    # others, the bytes f"{x:.17g}" and str(k) gave value by value
    from bilqr.cli import _write_csv

    table = np.array([[3, 0.0, -0.0, 1 / 3, 1e22],
                      [4, 5e-324, np.inf, -np.inf, np.nan]])
    _write_csv(tmp_path / "t.csv", ["k", "a", "b", "c", "d"], table, int_cols=1)
    assert (tmp_path / "t.csv").read_bytes() == (
        b"k,a,b,c,d\n"
        b"3,0,-0,0.33333333333333331,1e+22\n"
        b"4,4.9406564584124654e-324,inf,-inf,nan\n")
    assert [f"{x:.17g}" for x in table[:, 1:].ravel()] == [
        "0", "-0", "0.33333333333333331", "1e+22", "4.9406564584124654e-324", "inf", "-inf", "nan"]
