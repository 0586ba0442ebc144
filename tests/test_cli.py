import json
import re
import subprocess
import sys
from importlib import resources

import jsonschema
import numpy as np
import pytest

from conftest import DENSE_A, two_qubit_pencil
from geig.cli import (
    build_parser,
    bundled_problem_path,
    main,
    parse_problem,
    serialize_problem,
)
from geig.pauli import dense_matrix
from geig.reference import generalized_eig


def load_schema(name):
    text = resources.files("geig").joinpath("schemas", name).read_text()
    return json.loads(text)


def run_main(capsys, argv):
    rc = main(argv)
    captured = capsys.readouterr()
    return rc, captured.out, captured.err


def summary_of(capsys, argv, schema=None):
    rc, out, err = run_main(capsys, argv)
    assert rc == 0, err
    assert err == ""
    lines = out.strip().splitlines()
    assert len(lines) == 1, "summary is a single JSON line"
    summary = json.loads(lines[0])
    if schema is not None:
        jsonschema.validate(summary, load_schema(schema))
    return summary


def error_of(capsys, argv):
    rc, out, err = run_main(capsys, argv)
    assert rc == 1
    assert out == ""
    lines = err.strip().splitlines()
    assert len(lines) == 1, "error report is a single JSON line"
    payload = json.loads(lines[0])
    assert set(payload) == {"error", "message"}
    return payload


class TestParseProblem:
    def test_bundled_file(self):
        path = bundled_problem_path()
        assert path.exists()
        pencil = parse_problem(json.loads(path.read_text()))
        assert pencil.n == 2
        assert len(pencil.A.terms) == 4 and len(pencil.B.terms) == 4
        np.testing.assert_allclose(dense_matrix(pencil.A), DENSE_A, atol=1e-12)

    def test_round_trip_preserves_file(self):
        obj = json.loads(bundled_problem_path().read_text())
        assert serialize_problem(parse_problem(obj)) == obj

    def test_dense_side_matches_term_side(self):
        pencil = two_qubit_pencil()
        obj = serialize_problem(pencil)
        dense_obj = {
            "n": 2,
            "A_dense": [[[float(v), 0.0] for v in row] for row in DENSE_A],
            "B": obj["B"],
        }
        got = parse_problem(dense_obj)
        np.testing.assert_allclose(
            dense_matrix(got.A), dense_matrix(pencil.A), atol=1e-12
        )

    def test_rejects_unknown_pauli_letter(self):
        obj = {"n": 2, "A": [{"coeff": 1.0, "ops": "QX"}], "B": [{"coeff": 1.0, "ops": "II"}]}
        with pytest.raises(ValueError, match="'Q'"):
            parse_problem(obj)

    def test_rejects_both_terms_and_dense(self):
        obj = {
            "n": 1,
            "A": [{"coeff": 1.0, "ops": "I"}],
            "A_dense": [[[1.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [1.0, 0.0]]],
            "B": [{"coeff": 1.0, "ops": "I"}],
        }
        with pytest.raises(ValueError, match="exactly one of 'A' or 'A_dense'"):
            parse_problem(obj)

    def test_rejects_bad_qubit_count(self):
        base = {"A": [{"coeff": 1.0, "ops": "I"}], "B": [{"coeff": 1.0, "ops": "I"}]}
        for bad in (0, -1, True, "2", None):
            with pytest.raises(ValueError, match="'n' must be a positive integer"):
                parse_problem({"n": bad, **base})

    def test_rejects_wrong_dense_shape(self):
        obj = {
            "n": 2,
            "A_dense": [[[1.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [1.0, 0.0]]],
            "B": [{"coeff": 1.0, "ops": "II"}],
        }
        with pytest.raises(ValueError, match="expected"):
            parse_problem(obj)

    def test_rejects_extra_term_keys(self):
        obj = {"n": 1, "A": [{"coeff": 1.0, "ops": "I", "tag": 3}], "B": [{"coeff": 1.0, "ops": "I"}]}
        with pytest.raises(ValueError, match="exactly the keys"):
            parse_problem(obj)


class TestSchemas:
    def test_all_schema_files_are_valid(self):
        for name in (
            "vqge_summary.schema.json",
            "fqge_summary.schema.json",
            "reference_summary.schema.json",
            "decompose_summary.schema.json",
        ):
            jsonschema.Draft202012Validator.check_schema(load_schema(name))


class TestReferenceCommand:
    def test_summary_matches_oracle(self, capsys):
        summary = summary_of(capsys, ["reference"], "reference_summary.schema.json")
        ref = generalized_eig(two_qubit_pencil())
        assert summary["command"] == "reference"
        assert summary["n"] == 2
        np.testing.assert_allclose(summary["eigenvalues"], ref.eigenvalues, atol=1e-12)
        assert summary["eta1"] == pytest.approx(0.5, abs=1e-12)
        assert summary["distinct"] == 4


class TestVqgeCommand:
    def test_summary_trace_and_determinism(self, capsys, tmp_path):
        trace = tmp_path / "trace.csv"
        argv = [
            "vqge",
            "--iters",
            "40",
            "--restarts",
            "2",
            "--trace",
            str(trace),
            "--target-eps",
            "0.1",
        ]
        summary = summary_of(capsys, argv, "vqge_summary.schema.json")
        assert summary["r"] == 4 and summary["n"] == 2
        assert len(summary["eigenvalues"]) == 4
        assert summary["eigenvalues"] == sorted(summary["eigenvalues"])
        assert [lv["objective"] for lv in summary["levels"]] == [
            "min",
            "deflate",
            "deflate",
            "max",
        ]
        assert summary["reference"]["max_abs_error"] < 0.05
        assert summary["trace_path"] == str(trace)

        text = trace.read_text().splitlines()
        assert text[0] == "level,restart,step,loss,grad_norm"
        assert len(text) == 1 + 4 * 2 * 41, "levels x restarts x (iters + 1)"
        first = text[1].split(",")
        assert first[:3] == ["1", "0", "0"]

        second = summary_of(capsys, argv, "vqge_summary.schema.json")
        assert second == summary, "seeded run is reproducible"
        assert trace.read_text() == "\n".join(text) + "\n"

    def test_shot_allocation_block(self, capsys, tmp_path):
        argv = ["vqge", "--iters", "1", "--restarts", "1", "--target-eps", "0.1"]
        summary = summary_of(capsys, argv, "vqge_summary.schema.json")
        alloc = summary["shot_allocation"]
        assert alloc["eps"] == 0.1
        assert alloc["total"] == sum(t["shots"] for t in alloc["terms"])
        labels = [t["label"] for t in alloc["terms"]]
        assert labels[0] == "A[0]" and "B[0]" in labels and "O[0]" in labels
        assert alloc["terms"][0] == {
            "label": "A[0]",
            "coeff": 1.0,
            "sigma": 1.0,
            "shots": 580,
        }
        assert alloc["total"] == 3364

    def test_r_one_minimum_only(self, capsys):
        summary = summary_of(
            capsys,
            ["vqge", "--r", "1", "--iters", "60", "--restarts", "2"],
            "vqge_summary.schema.json",
        )
        assert len(summary["eigenvalues"]) == 1
        assert abs(summary["eigenvalues"][0] - 0.33161943559427537) < 1e-2


class TestFqgeCommand:
    def test_line_search_summary_and_trace(self, capsys, tmp_path):
        trace = tmp_path / "fqge.csv"
        argv = ["fqge", "--line-search", "--trace", str(trace)]
        summary = summary_of(capsys, argv, "fqge_summary.schema.json")
        assert summary["status"] == "converged"
        assert summary["iterations"] == 1, "the exact step lands on the block minimum"
        assert summary["residual"] <= 1e-8
        assert summary["reference"]["fidelity_ground"] >= 0.9999
        assert summary["reference"]["abs_error"] <= 1e-6
        assert re.fullmatch(
            r"~\d+ elementary gates per iteration \(d=\d+ unitaries, \d+ ancilla qubits\)",
            summary["gate_cost_estimate"],
        )

        text = trace.read_text().splitlines()
        assert text[0] == "s,value,residual,delta_re,delta_im,success_prob,C,d"
        assert len(text) == 1 + summary["iterations"] + 1
        assert text[1].split(",")[0] == "1"

        again = summary_of(capsys, argv, "fqge_summary.schema.json")
        assert again == summary

    def test_fixed_step_converges_to_ground(self, capsys):
        summary = summary_of(capsys, ["fqge", "--delta", "0.1"], "fqge_summary.schema.json")
        assert summary["status"] == "converged"
        assert summary["reference"]["abs_error"] <= 1e-4
        assert summary["reference"]["nearest_eigenvalue"] == pytest.approx(
            0.33161943559427537, abs=1e-9
        )
        assert 0.0 < summary["success_prob_min"] <= 1.0

    def test_initial_in_other_block_finds_other_branch(self, capsys):
        summary = summary_of(
            capsys, ["fqge", "--initial", "1", "--delta", "0.1"], "fqge_summary.schema.json"
        )
        assert summary["reference"]["nearest_eigenvalue"] == pytest.approx(
            0.9720370946143847, abs=1e-9
        )
        assert summary["reference"]["fidelity_ground"] < 1e-12

    def test_noisy_run_reports_seeded_result(self, capsys):
        argv = ["fqge", "--noise-sigma", "0.01", "--seed", "5", "--max-iters", "50"]
        one = summary_of(capsys, argv, "fqge_summary.schema.json")
        two = summary_of(capsys, argv, "fqge_summary.schema.json")
        assert one == two
        assert abs(one["eigenvalue"] - 0.33161943559427537) < 0.05


class TestDecomposeCommand:
    def test_two_qubit_matrix(self, capsys, tmp_path):
        path = tmp_path / "a.json"
        path.write_text(json.dumps([[[float(v), 0.0] for v in row] for row in DENSE_A]))
        summary = summary_of(
            capsys, ["decompose", str(path)], "decompose_summary.schema.json"
        )
        got = {t["ops"]: t["coeff"] for t in summary["terms"]}
        want = {"II": 1.0, "IZ": 0.4, "ZI": 0.4, "XX": 0.2}
        assert set(got) == set(want)
        for ops, coeff in want.items():
            assert got[ops] == pytest.approx(coeff, abs=1e-12)

    def test_object_wrapper_and_tol(self, capsys, tmp_path):
        mat = [[[1.0, 0.0], [1e-6, 0.0]], [[1e-6, 0.0], [1.0, 0.0]]]
        path = tmp_path / "m.json"
        path.write_text(json.dumps({"matrix": mat}))
        summary = summary_of(capsys, ["decompose", str(path)], "decompose_summary.schema.json")
        assert {t["ops"] for t in summary["terms"]} == {"I", "X"}
        pruned = summary_of(
            capsys,
            ["decompose", str(path), "--tol", "1e-3"],
            "decompose_summary.schema.json",
        )
        assert {t["ops"] for t in pruned["terms"]} == {"I"}

    def test_object_without_matrix_key(self, capsys, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"rows": []}))
        payload = error_of(capsys, ["decompose", str(path)])
        assert payload["error"] == "ValueError"
        assert "'matrix'" in payload["message"]


class TestErrorContract:
    def test_missing_problem_file(self, capsys):
        payload = error_of(capsys, ["vqge", "/nonexistent/problem.json"])
        assert payload["error"] == "FileNotFoundError"
        assert payload["message"]

    def test_invalid_problem_content(self, capsys, tmp_path):
        path = tmp_path / "p.json"
        path.write_text(
            json.dumps(
                {
                    "n": 1,
                    "A": [{"coeff": 1.0, "ops": "I"}],
                    "A_dense": [[[1.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [1.0, 0.0]]],
                    "B": [{"coeff": 1.0, "ops": "I"}],
                }
            )
        )
        payload = error_of(capsys, ["fqge", str(path)])
        assert payload["error"] == "ValueError"
        assert "exactly one of" in payload["message"]

    @pytest.mark.parametrize("command", ["reference", "vqge", "fqge"])
    def test_non_finite_dense_side(self, capsys, tmp_path, command):
        """A NaN entry of a dense side is an error, not a zero term."""
        path = tmp_path / "p.json"
        path.write_text(
            '{"n": 1, "A_dense": [[[NaN, 0], [0, 0]], [[0, 0], [1, 0]]],'
            ' "B": [{"coeff": 1, "ops": "I"}]}'
        )
        payload = error_of(capsys, [command, str(path)])
        assert payload["error"] == "ValueError"
        assert "non-finite" in payload["message"]

    @pytest.mark.parametrize(
        "argv, name",
        [
            (["fqge", "--delta", "nan"], "delta"),
            (["fqge", "--epsilon", "nan"], "epsilon"),
            (["vqge", "--restarts", "0"], "restarts"),
        ],
    )
    def test_invalid_config_values(self, capsys, argv, name):
        payload = error_of(capsys, argv)
        assert payload["error"] == "ValueError"
        assert name in payload["message"]

    def test_usage_errors_exit_two(self):
        with pytest.raises(SystemExit) as info:
            main(["--bogus"])
        assert info.value.code == 2
        with pytest.raises(SystemExit) as info:
            main([])
        assert info.value.code == 2

    def test_unknown_method_rejected_by_parser(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["vqge", "--method", "newton"])


class TestDenseCap:
    def test_reference_refuses_above_cap(self, capsys, monkeypatch):
        monkeypatch.setenv("GEIG_DENSE_CAP", "1")
        payload = error_of(capsys, ["reference"])
        assert payload["error"] == "ValueError"
        assert "above the dense reference cap" in payload["message"]

    def test_vqge_requires_r_above_cap(self, capsys, monkeypatch):
        monkeypatch.setenv("GEIG_DENSE_CAP", "1")
        payload = error_of(capsys, ["vqge"])
        assert payload["error"] == "ValueError"
        assert "--r is required" in payload["message"]

    def test_vqge_runs_without_reference_block(self, capsys, monkeypatch):
        monkeypatch.setenv("GEIG_DENSE_CAP", "1")
        summary = summary_of(
            capsys,
            ["vqge", "--r", "4", "--iters", "5", "--restarts", "1"],
            "vqge_summary.schema.json",
        )
        assert "reference" not in summary

    def test_fqge_runs_without_reference_block(self, capsys, monkeypatch):
        monkeypatch.setenv("GEIG_DENSE_CAP", "1")
        summary = summary_of(
            capsys,
            ["fqge", "--max-iters", "5", "--epsilon", "1e-15"],
            "fqge_summary.schema.json",
        )
        assert "reference" not in summary
        assert summary["status"] == "max_iters"

    def test_invalid_cap_value(self, capsys, monkeypatch):
        monkeypatch.setenv("GEIG_DENSE_CAP", "zebra")
        payload = error_of(capsys, ["reference"])
        assert payload["error"] == "ValueError"
        assert "GEIG_DENSE_CAP" in payload["message"]


class TestModuleEntryPoint:
    def test_python_dash_m(self):
        proc = subprocess.run(
            [sys.executable, "-m", "geig", "reference"],
            capture_output=True,
            text=True,
            timeout=120,
        )
        assert proc.returncode == 0, proc.stderr
        summary = json.loads(proc.stdout.strip())
        assert summary["command"] == "reference"
