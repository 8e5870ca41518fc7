import json
import re
import shlex
from pathlib import Path

import numpy as np
import pytest

from bilqr.cli import build_parser, main
from bilqr.probfile import ProblemFileError, load_problem_file

README = Path(__file__).resolve().parents[1] / "README.md"


def write(tmp_path, payload, name="prob.json"):
    path = tmp_path / name
    path.write_text(json.dumps(payload, indent=1))
    return path


def single_payload():
    return {
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


def test_load_single(tmp_path):
    setup = load_problem_file(write(tmp_path, single_payload()))
    assert setup.problem.n == 2
    assert setup.problem.m == 1
    assert setup.q == 1
    assert setup.noise is None


def test_single_with_poisson_noise_reduces(tmp_path):
    payload = single_payload()
    payload["g"] = [0.0, 0.0]
    payload["noise"] = {"kind": "poisson", "G": [[0.15], [0.0]], "lambda": [2.0]}
    setup = load_problem_file(write(tmp_path, payload))
    assert setup.noise is not None
    np.testing.assert_allclose(setup.problem.g, [0.3, 0.0])


def test_missing_field_named(tmp_path):
    payload = single_payload()
    del payload["xd"]
    with pytest.raises(ProblemFileError, match="'xd'"):
        load_problem_file(write(tmp_path, payload))


def test_bad_shape_named(tmp_path):
    payload = single_payload()
    payload["A"] = [[0.0, 1.0]]
    with pytest.raises(ProblemFileError, match="'A'"):
        load_problem_file(write(tmp_path, payload))


def test_malformed_json_reports_line(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text('{\n "kind": "single",\n "n": oops\n}')
    with pytest.raises(ProblemFileError, match="line 3"):
        load_problem_file(path)


def test_non_spd_R_rejected(tmp_path):
    payload = single_payload()
    payload["R"] = [[-1.0]]
    with pytest.raises(ProblemFileError, match="positive definite"):
        load_problem_file(write(tmp_path, payload))


def test_ensemble_with_samples(tmp_path):
    payload = {
        "kind": "ensemble",
        "n": 1,
        "m": 1,
        "tf": 2.0,
        "R": [[2.0]],
        "betas": [0.0, 1.0],
        "samples": [
            {"A": [[-1.0]], "B": [[1.0]], "Blist": [[[-0.5]]],
             "g": [0.1], "x0": [0.0], "xd": [0.3]},
            {"A": [[-1.3]], "B": [[1.0]], "Blist": [[[-0.5]]],
             "g": [0.1], "x0": [0.0], "xd": [0.3]},
        ],
    }
    setup = load_problem_file(write(tmp_path, payload))
    assert setup.q == 2
    assert setup.problem.n == 2
    assert setup.problem.terminal_weight == pytest.approx(0.5)
    assert setup.problem.A[0, 0] == -1.0
    assert setup.problem.A[1, 1] == -1.3
    assert setup.problem.A[0, 1] == 0.0


def test_ensemble_builtin_scenario(tmp_path):
    payload = {"kind": "ensemble", "scenario": "iaf_case1", "q": 4}
    setup = load_problem_file(write(tmp_path, payload))
    assert setup.q == 4
    np.testing.assert_allclose(setup.problem.g, 0.3)


def test_unknown_kind(tmp_path):
    with pytest.raises(ProblemFileError, match="kind"):
        load_problem_file(write(tmp_path, {"kind": "batch"}))


def test_noise_keeps_g_and_adds_its_mean(tmp_path):
    # the setup keeps the file's g; the solver's mean problem adds G lambda
    # under Poisson noise and is the stated problem under Wiener noise
    payload = dict(single_payload(), g=[0.1, 0.0])
    payload["noise"] = {"kind": "poisson", "G": [[0.15], [0.0]], "lambda": [2.0]}
    setup = load_problem_file(write(tmp_path, payload))
    np.testing.assert_array_equal(setup.stated.g, [0.1, 0.0])
    np.testing.assert_allclose(setup.problem.g, [0.4, 0.0], rtol=0, atol=1e-15)
    sample = {"A": [[-1.0]], "B": [[1.0]], "Blist": [[[-0.5]]], "g": [0.1], "x0": [0.0],
              "xd": [0.3], "noise": {"kind": "poisson", "G": [[0.15]], "lambda": [2.0]}}
    ensemble = {"kind": "ensemble", "n": 1, "m": 1, "tf": 2.0, "R": [[2.0]],
                "samples": [sample, dict(sample, g=[0.0])]}
    setup = load_problem_file(write(tmp_path, ensemble, name="ens.json"))
    np.testing.assert_array_equal(setup.stated.g, [0.1, 0.0])
    np.testing.assert_allclose(setup.problem.g, [0.4, 0.3], rtol=0, atol=1e-15)
    payload = dict(single_payload(), noise={"kind": "wiener", "G": [[0.2], [0.1]]})
    setup = load_problem_file(write(tmp_path, payload))
    assert setup.problem is setup.stated
    np.testing.assert_array_equal(setup.problem.g, [0.5, -0.2])


def test_non_finite_noise_gain_named(tmp_path):
    # both noise kinds, single and ensemble files: the message names the noise block
    for kind, extra in (("poisson", {"lambda": [2.0]}), ("wiener", {})):
        noise = {"kind": kind, "G": [[float("nan")], [0.0]], **extra}
        payload = dict(single_payload(), g=[0.0, 0.0], noise=noise)
        with pytest.raises(ProblemFileError, match=r"problem file\.noise: G must be finite"):
            load_problem_file(write(tmp_path, payload))
        sample = {"A": [[-1.0]], "B": [[1.0]], "Blist": [[[-0.5]]], "g": [0.0], "x0": [0.0],
                  "xd": [0.3], "noise": dict(noise, G=[[float("inf")]])}
        ensemble = {"kind": "ensemble", "n": 1, "m": 1, "tf": 2.0, "R": [[2.0]],
                    "samples": [sample, sample]}
        with pytest.raises(ProblemFileError,
                           match=r"samples\[0\]\.noise: G must be finite"):
            load_problem_file(write(tmp_path, ensemble, name="ens.json"))


def test_ensemble_unequal_noise_channels_exit_one(tmp_path, capsys):
    # the stacked layout gives every sample the same number of noise columns
    sample = {"A": [[-1.0]], "B": [[1.0]], "Blist": [[[-0.5]]], "g": [0.0], "x0": [0.0],
              "xd": [0.3], "noise": {"kind": "poisson", "G": [[0.15]], "lambda": [2.0]}}
    wide = dict(sample, noise={"kind": "poisson", "G": [[0.15, 0.1]], "lambda": [2.0, 1.0]})
    samples = [sample, sample, wide, sample, sample]
    path = write(tmp_path, {"kind": "ensemble", "n": 1, "m": 1, "tf": 2.0, "R": [[2.0]],
                            "samples": samples})
    with pytest.raises(ProblemFileError, match="number of noise channels"):
        load_problem_file(path)
    assert main(["solve", "--problem", str(path), "--out", str(tmp_path / "run")]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: problem file: ") and err.count("\n") == 1


def test_readme_problem_files_solve(tmp_path):
    blocks = re.findall(r"```json\n(.*?)```", README.read_text(), flags=re.S)
    assert blocks
    for i, block in enumerate(blocks):
        path = tmp_path / f"readme_{i}.json"
        path.write_text(block)
        load_problem_file(path)
        assert main(["solve", "--problem", str(path), "--grid", "50",
                     "--out", str(tmp_path / f"run_{i}")]) == 0, block


def test_readme_command_lines_parse():
    section = README.read_text().split("## Command line", 1)[1]
    block = re.search(r"```\n(.*?)```", section, flags=re.S).group(1)
    lines = [shlex.split(line) for line in block.splitlines() if line.startswith("bilqr ")]
    assert len(lines) >= 4
    for words in lines:
        args = build_parser().parse_args(words[1:])
        assert args.command == words[1]
