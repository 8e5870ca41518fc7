import json

import pytest

from bilqr.cli import main
from bilqr.scenarios import build

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
                                         (("--alpha", "-1", "--diagnostics"), "alpha")])
def test_solve_rejects_bad_grid_and_alpha(tmp_path, capsys, extra, word):
    prob = write_problem(tmp_path, LINEAR_PROBLEM)
    assert main(solve_args(prob, tmp_path / "run", extra)) == 1
    assert word in one_error_line(capsys)


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
