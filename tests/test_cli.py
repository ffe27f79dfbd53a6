"""Command line behavior: reports, formats, exit codes, error paths."""

from __future__ import annotations

import importlib
import json
import time

import numpy as np
import pytest

from ncfield import cli, freegroup, randmat
from ncfield.ncpoly import LinearPencil, NcMatrix, random_pencil
from ncfield.spectra import central_eigs_pencil


def _run(capsys, argv):
    code = cli.main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def _write_projection_pencil(tmp_path):
    doc = {
        "n_vars": 1,
        "rows": 2,
        "cols": 2,
        "coeffs": {
            "A0": [[0, 0], [0, 0]],
            "A1": [["1", "0"], ["0", "0"]],
        },
    }
    path = tmp_path / "projection.json"
    path.write_text(json.dumps(doc))
    return str(path)


def test_rank_of_expression_reports_rho(capsys):
    code, out, err = _run(capsys, ["rank", "--expr", "x1*x2 - x2*x1"])
    assert code == 0
    report = json.loads(out)
    assert report["command"] == "rank"
    assert report["rho"] == 1
    assert report["input"] == {"expr": "x1*x2 - x2*x1"}
    assert "rho = 1" in err


def test_rank_is_deterministic_output(capsys):
    argv = ["rank", "--expr", "x1*x2", "--seed", "7"]
    code_a, out_a, _ = _run(capsys, argv)
    code_b, out_b, _ = _run(capsys, argv)
    assert code_a == code_b == 0
    assert out_a == out_b


def test_rank_of_pencil_file(capsys, tmp_path):
    path = _write_projection_pencil(tmp_path)
    code, out, _ = _run(capsys, ["rank", "--pencil", path])
    assert code == 0
    report = json.loads(out)
    assert report["rho"] == 1
    assert report["rows"] == 2 and report["cols"] == 2


def test_rank_of_starred_expression_is_cross_checked(capsys):
    code, out, _ = _run(capsys, ["rank", "--expr", "x1*x1' - x1'*x1"])
    assert code == 0
    report = json.loads(out)
    assert (report["rho"], report["kind"]) == (1, "ginibre")
    assert report["cross"]["scaling"] == "full"
    assert report["cross"]["scaling_method"] == "exact"


def test_rank_needs_exactly_one_input(capsys, tmp_path):
    code, _, err = _run(capsys, ["rank"])
    assert code == 1 and "exactly one" in err
    path = _write_projection_pencil(tmp_path)
    code, _, err = _run(capsys, ["rank", "--pencil", path, "--expr", "x1"])
    assert code == 1 and "exactly one" in err


def test_rank_rejects_csv(capsys):
    code, _, err = _run(capsys, ["rank", "--expr", "x1", "--format", "csv"])
    assert code == 1
    assert "no tabular form" in err


def test_bad_scalar_error_carries_the_json_path(capsys, tmp_path):
    doc = {
        "n_vars": 1,
        "rows": 2,
        "cols": 2,
        "coeffs": {
            "A0": [[0, 0], [0, 0]],
            "A1": [["1", "0"], ["0", "x"]],
        },
    }
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc))
    code, _, err = _run(capsys, ["rank", "--pencil", str(path)])
    assert code == 1
    assert "coeffs.A1[1][1]" in err


@pytest.mark.parametrize("value", [float("nan"), float("inf")])
def test_non_finite_scalar_is_bad_input(capsys, tmp_path, value):
    doc = {
        "n_vars": 1,
        "rows": 1,
        "cols": 1,
        "coeffs": {"A0": [[value]], "A1": [[1]]},
    }
    path = tmp_path / "nonfinite.json"
    path.write_text(json.dumps(doc))  # written as the JSON tokens NaN and Infinity
    code, _, err = _run(capsys, ["rank", "--pencil", str(path)])
    assert code == 1
    assert "coeffs.A0[0][0]: not a finite number" in err
    assert "Traceback" not in err


def test_missing_file_and_invalid_json_exit_one(capsys, tmp_path):
    code, _, err = _run(capsys, ["rank", "--pencil", str(tmp_path / "nope.json")])
    assert code == 1 and "cannot read" in err
    path = tmp_path / "broken.json"
    path.write_text("{not json")
    code, _, err = _run(capsys, ["rank", "--pencil", str(path)])
    assert code == 1 and "invalid JSON" in err


def test_coefficient_key_mismatch_is_reported(capsys, tmp_path):
    doc = {
        "n_vars": 2,
        "rows": 1,
        "cols": 1,
        "coeffs": {"A0": [[0]], "A1": [[1]]},
    }
    path = tmp_path / "missing.json"
    path.write_text(json.dumps(doc))
    code, _, err = _run(capsys, ["rank", "--pencil", str(path)])
    assert code == 1
    assert "missing A2" in err


def test_eval_inverse_identity_residual(capsys):
    code, out, _ = _run(
        capsys, ["eval", "--expr", "x1*inv(x1)", "--d", "8", "--seed", "3"]
    )
    assert code == 0
    report = json.loads(out)
    assert report["residual_identity"] < 1e-9
    assert report["sigma_min"] > 0
    assert len(report["matrix"]) == 8
    assert report["residual_direct"] < 1e-9


def test_eval_adjoint_notation_uses_apostrophe(capsys):
    code, out, _ = _run(
        capsys, ["eval", "--expr", "x1'*inv(x1'*x1 + 1)", "--d", "6", "--seed", "4"]
    )
    assert code == 0
    report = json.loads(out)
    assert report["expr"].count("'") == 2


def test_eval_outside_domain_exits_three(capsys):
    code, out, err = _run(capsys, ["eval", "--expr", "inv(x1 - x1)", "--d", "6"])
    assert code == 3
    assert out == ""
    assert "out of domain" in err and "sigma_min" in err
    assert "pencil is singular at the sampled point" in err


def test_eval_evaluates_and_decomposes_the_pencil_once(capsys, monkeypatch):
    evaluated, svd_shapes = [], []
    evaluate, svd = LinearPencil.evaluate, np.linalg.svd

    def counting_evaluate(self, *args, **kwargs):
        evaluated.append(self.rows)
        return evaluate(self, *args, **kwargs)

    def counting_svd(a, *args, **kwargs):
        svd_shapes.append(np.shape(a))
        return svd(a, *args, **kwargs)

    monkeypatch.setattr(LinearPencil, "evaluate", counting_evaluate)
    monkeypatch.setattr(np.linalg, "svd", counting_svd)
    argv = ["eval", "--expr", "inv(x1 + x2*x1) - x1'", "--d", "6", "--seed", "2"]
    code, out, _ = _run(capsys, argv)
    assert code == 0
    k = json.loads(out)["k"]
    assert evaluated == [k]
    assert svd_shapes.count((6 * k, 6 * k)) == 1


def test_atoms_on_projection_pencil(capsys, tmp_path):
    path = _write_projection_pencil(tmp_path)
    code, out, err = _run(capsys, ["atoms", "--pencil", path])
    assert code == 0
    report = json.loads(out)
    assert report["entropy_dimension"] == "3/4"
    assert len(report["atoms"]) == 1
    atom = report["atoms"][0]
    assert atom["mass"] == "1/2" and atom["certified"]
    assert "1 certified atom(s)" in err


def test_atoms_csv_table(capsys, tmp_path):
    path = _write_projection_pencil(tmp_path)
    code, out, _ = _run(capsys, ["atoms", "--pencil", path, "--format", "csv"])
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "lambda,rho,mass,certified"
    assert lines[1].startswith("0,1,1/2,")


def test_atoms_entropy_needs_certification(capsys, tmp_path):
    path = _write_projection_pencil(tmp_path)
    code, out, err = _run(
        capsys,
        ["atoms", "--pencil", path, "--no-certify", "--entropy", "--d", "150"],
    )
    assert code == 2
    assert "inconclusive" in err


def test_atoms_report_lists_the_diagonal_blocks(capsys, tmp_path):
    path = _write_projection_pencil(tmp_path)
    code, out, _ = _run(capsys, ["atoms", "--pencil", path, "--no-certify", "--d", "50"])
    assert code == 0
    assert json.loads(out)["diagnostics"]["blocks"] == [
        {"rows": [0], "constant": False},
        {"rows": [1], "constant": True},
    ]


def test_atoms_hands_the_pencil_to_the_spectrum_as_it_is(capsys, tmp_path, monkeypatch):
    starred = LinearPencil(
        [[[1, 0], [0, 2]], [[1, 0], [0, 0]], [[0, 0], [0, 0]]], 1, star_letters=True
    )
    planted = random_pencil(2, 2, seed=5).direct_sum(LinearPencil([[[3]], [[0]], [[0]]], 2))
    pencils = [starred, planted, random_pencil(2, 3, seed=11, complex_coeffs=True)]
    wanted = [
        central_eigs_pencil(p.to_matrix().to_pencil(), seed=4).to_dict() for p in pencils
    ]
    conversions = []
    to_matrix, to_pencil = LinearPencil.to_matrix, NcMatrix.to_pencil
    monkeypatch.setattr(
        LinearPencil, "to_matrix", lambda self: conversions.append("to_matrix") or to_matrix(self)
    )
    monkeypatch.setattr(
        NcMatrix, "to_pencil", lambda self: conversions.append("to_pencil") or to_pencil(self)
    )
    for k, (pencil, want) in enumerate(zip(pencils, wanted)):
        path = tmp_path / f"pencil{k}.json"
        path.write_text(json.dumps(cli.pencil_to_json(pencil)))
        conversions.clear()
        code, out, _ = _run(capsys, ["atoms", "--pencil", str(path), "--seed", "4"])
        assert code == 0
        report = json.loads(out)
        assert {key: report[key] for key in want} == json.loads(json.dumps(want)), k
        # one matrix, for the candidate polynomial, and no matrix read back
        assert conversions == ["to_matrix"], k
    assert any(w["atoms"] for w in wanted)


def test_atoms_report_lists_the_exact_factors(capsys, tmp_path):
    # G (+) x1, G = [[0, 1], [1, 1]]: both golden roots are decided through
    # one factor of g, whose entry the JSON report carries
    g_block = LinearPencil([[[0, 1], [1, 1]], [[0, 0], [0, 0]]], 1)
    pencil = g_block.direct_sum(LinearPencil([[[0]], [[1]]], 1))
    path = tmp_path / "golden.json"
    path.write_text(json.dumps(cli.pencil_to_json(pencil)))
    code, out, _ = _run(capsys, ["atoms", "--pencil", str(path)])
    assert code == 0
    [factor] = json.loads(out)["diagnostics"]["factors"]
    assert (factor["factor"], factor["verdict"], factor["irreducible"]) == ("t^2 - t - 1", "nonfull", True)
    assert isinstance(factor["rho"], int)


def test_dualcheck_passes_and_renders_csv(capsys):
    code, out, err = _run(capsys, ["dualcheck", "--n", "1", "--R", "3"])
    assert code == 0
    report = json.loads(out)
    assert report["all_pass"] and report["pairs"][0]["defect"] == "0"
    assert "pass=True" in err
    code, out, _ = _run(
        capsys, ["dualcheck", "--n", "2", "--R", "2", "--format", "csv"]
    )
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "i,j,defect,pass"
    assert len(lines) == 5


def test_dualcheck_failure_exits_two(capsys, monkeypatch):
    monkeypatch.setattr(freegroup, "dual_op", freegroup.left_regular)
    code, out, err = _run(capsys, ["dualcheck", "--n", "2", "--R", "3"])
    assert code == 2
    report = json.loads(out)
    assert not report["all_pass"]
    assert all(p["defect"] != "0" for p in report["pairs"])
    assert "pass=False" in err


def test_main_builds_the_parser_once_and_finds_rebound_handlers(capsys, monkeypatch):
    built = []
    build = cli.build_parser
    monkeypatch.setattr(cli, "build_parser", lambda: built.append(1) or build())
    cli._parser.cache_clear()
    for _ in range(2):
        assert _run(capsys, ["dualcheck", "--n", "2", "--R", "2"])[0] == 0
    assert len(built) == 1
    monkeypatch.setattr(cli, "cmd_dualcheck", lambda args: 7)
    assert cli.main(["dualcheck", "--R", "2"]) == 7
    assert len(built) == 1


@pytest.mark.parametrize("radius", ["1000", "30000"])
def test_dualcheck_oversized_ball_is_bad_input(capsys, radius):
    start = time.perf_counter()
    code, out, err = _run(capsys, ["dualcheck", "--n", "2", "--R", radius])
    assert time.perf_counter() - start < 2.0
    assert code == 1 and out == ""
    assert "more than 1000000 words" in err
    assert "Traceback" not in err


def test_scan_integrality_small_corpus(capsys):
    code, out, err = _run(
        capsys,
        [
            "scan", "integrality", "--count", "3", "--size", "2",
            "--degree", "1", "--d", "80", "--seed", "11",
        ],
    )
    assert code == 0
    report = json.loads(out)
    assert len(report["rows"]) == 3
    assert isinstance(report["any_flagged"], bool)
    assert "3 matrices at d=80" in err


@pytest.mark.parametrize(
    "flags", [["--size", "0"], ["--degree", "-1"], ["--n-vars", "0"]]
)
def test_scan_integrality_rejects_out_of_range_sizes(capsys, flags):
    code, _, err = _run(capsys, ["scan", "integrality", "--count", "1", *flags])
    assert code == 1
    assert err.startswith("error:") and "integrality scan needs" in err


def test_scan_convergence_reports_strict_json(capsys):
    code, out, _ = _run(
        capsys,
        ["scan", "convergence", "--expr", "x1", "--dims", "6,12", "--seed", "2"],
    )
    assert code == 0
    report = json.loads(out)
    assert [r["d"] for r in report["rows"]] == [6, 12]
    for row in report["rows"]:
        assert row["rank_over_d"] == 1.0
        # full rank means an infinite gap, serialized as a string
        assert row["gap"] == "inf"


def test_scan_convergence_requires_dims(capsys):
    code, _, err = _run(capsys, ["scan", "convergence", "--expr", "x1"])
    assert code == 1
    assert "--dims" in err


def test_scan_convergence_beyond_the_float_range_is_bad_input(capsys, tmp_path):
    doc = {
        "n_vars": 1,
        "rows": 2,
        "cols": 2,
        "coeffs": {"A0": [["1" + "0" * 400, "0"], ["0", "1"]], "A1": [["1", "0"], ["0", "1"]]},
    }
    path = tmp_path / "huge.json"
    path.write_text(json.dumps(doc))
    code, out, err = _run(capsys, ["scan", "convergence", "--pencil", str(path), "--dims", "4,8"])
    assert code == 1 and out == ""
    assert err.startswith("error:") and "float range" in err
    assert "Traceback" not in err


def test_out_file_holds_the_report(capsys, tmp_path):
    target = tmp_path / "report.json"
    code, out, _ = _run(
        capsys, ["rank", "--expr", "x1", "--out", str(target)]
    )
    assert code == 0
    assert out == ""
    report = json.loads(target.read_text())
    assert report["rho"] == 1


def test_tolerance_must_be_positive(capsys):
    code, _, err = _run(capsys, ["rank", "--expr", "x1", "--tol", "-1"])
    assert code == 1
    assert "--tol" in err


@pytest.mark.parametrize("tol", ["nan", "inf", "0", "-1"])
@pytest.mark.parametrize(
    "argv", [["eval", "--expr", "x1", "--d", "4"], ["rank", "--expr", "x1"]]
)
def test_tolerance_must_be_finite_and_positive(capsys, argv, tol):
    code, out, err = _run(capsys, [*argv, "--tol", tol])
    assert code == 1 and out == ""
    assert "--tol" in err and "finite and positive" in err


def test_tolerance_reaches_every_rank_reading(capsys, tmp_path, monkeypatch):
    # --tol is handed on as tol_factor to every thresholded SVD that rank,
    # atoms and the convergence scan read
    seen = []
    read = randmat.empirical_ranks

    def spy(stack, tol_factor=1.0):
        seen.append(tol_factor)
        return read(stack, tol_factor)

    monkeypatch.setattr(randmat, "empirical_ranks", spy)
    monkeypatch.setattr(importlib.import_module("ncfield.ncrank"), "empirical_ranks", spy)
    path = _write_projection_pencil(tmp_path)
    for argv in (
        ["rank", "--expr", "x1*x2 - x2*x1"],
        ["atoms", "--pencil", path],
        ["scan", "convergence", "--expr", "x1", "--dims", "6,12"],
    ):
        seen.clear()
        code, _, _ = _run(capsys, [*argv, "--tol", "10"])
        assert code == 0 and seen and set(seen) == {10.0}, argv


def test_bad_flag_exits_one_not_two(capsys):
    code, _, err = _run(capsys, ["rank", "--expr", "x1", "--dims", "2;4"])
    assert code == 1
    assert "comma-separated" in err
