import csv
import itertools
import json
import math
import os
import re
import shlex
import subprocess
import sys
import time
import warnings
from importlib import resources
from pathlib import Path

import jsonschema
import numpy as np
import pytest

from conftest import BENCH_PROBLEMS, BENCH_WORKLOADS, DENSE_A, two_qubit_pencil
from geig.cli import (
    _check_finite,
    _parse_matrix,
    build_parser,
    bundled_problem_path,
    main,
    parse_problem,
    serialize_problem,
)
from geig.pauli import DEFAULT_DECOMPOSE_TOL, decompose, dense_matrix
from geig.reference import generalized_eig
from geig.vqge import _SHIFT_ROW_ENTRIES


def load_schema(name):
    text = resources.files("geig").joinpath("schemas", name).read_text()
    return json.loads(text)


def run_main(capsys, argv):
    """``main(argv)`` in process, with every warning raised as an error:
    ``main`` reports it as its JSON error, where a run of the installed
    command would print it on stderr."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rc = main(argv)
    captured = capsys.readouterr()
    return rc, captured.out, captured.err


def summary_of(capsys, argv, schema=None, within=None):
    """The one-line JSON summary of a run that exits 0 with nothing on
    stderr, in at most ``within`` seconds when that is given."""
    start = time.perf_counter()
    rc, out, err = run_main(capsys, argv)
    assert within is None or time.perf_counter() - start <= within, argv
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
    assert not payload["error"].endswith("Warning"), payload
    return payload


def json_file(tmp_path, obj) -> str:
    """The path of ``obj`` written as JSON in ``tmp_path``."""
    path = tmp_path / "input.json"
    path.write_text(json.dumps(obj))
    return str(path)


def vqge_trace_agrees(path, summary, levels, restarts, steps):
    """The trace holds one row per (level, restart, step), levels from 1 and
    restarts and steps from 0, in that order, and each level's best restart
    reaches the level's eigenvalue exactly (its loss is minus the eigenvalue
    on the max level)."""
    rows = list(csv.DictReader(path.read_text().splitlines()))
    keys = [(int(row["level"]), int(row["restart"]), int(row["step"])) for row in rows]
    assert len(summary["levels"]) == levels
    assert keys == list(itertools.product(range(1, levels + 1), range(restarts), range(steps)))
    for j, level in enumerate(summary["levels"], start=1):
        best = [float(row["loss"]) for row, key in zip(rows, keys) if key[:2] == (j, level["best_restart"])]
        sign = -1.0 if level["objective"] == "max" else 1.0
        assert len(best) == steps and min(best) == sign * level["eigenvalue"], (j, min(best))


def fqge_trace_agrees(path, summary):
    """One trace row per iterate, s = 1, 2, ..., whose last row and extremes
    are the summary's own numbers."""
    rows = list(csv.DictReader(path.read_text().splitlines()))
    assert [int(row["s"]) for row in rows] == list(range(1, summary["iterations"] + 2))
    assert float(rows[-1]["value"]) == summary["eigenvalue"]
    assert float(rows[-1]["residual"]) == summary["residual"]
    assert min(float(row["success_prob"]) for row in rows) == summary["success_prob_min"]
    assert max(int(row["d"]) for row in rows) == summary["lcu_terms_max"]


VQGE_DEFAULTS = {
    "command": "vqge",
    "problem": None,
    "r": None,
    "layers": 2,
    "restarts": 5,
    "iters": 200,
    "lr": 0.1,
    "method": "adam",
    "seed": 0,
    "entangler": "linear",
    "shots": 0,
    "trace": None,
    "target_eps": None,
}


class TestParser:
    """The parsed arguments and the option strings of every subcommand: the
    command-line contract that a refactor of ``build_parser`` must keep."""

    @pytest.mark.parametrize(
        "argv, want",
        [
            (["vqge"], VQGE_DEFAULTS),
            (
                ["vqge", "p.json", "--trace", "t.csv", "--r", "3"],
                {**VQGE_DEFAULTS, "problem": "p.json", "trace": "t.csv", "r": 3},
            ),
            (
                ["fqge"],
                {
                    "command": "fqge",
                    "problem": None,
                    "delta": 0.1,
                    "line_search": False,
                    "epsilon": 1e-08,
                    "max_iters": 200,
                    "noise_sigma": 0.0,
                    "seed": None,
                    "initial": 0,
                    "trace": None,
                },
            ),
            (["reference"], {"command": "reference", "problem": None}),
            (
                ["decompose", "m.json"],
                {"command": "decompose", "matrix": "m.json", "tol": 1e-10},
            ),
        ],
        ids=["vqge", "vqge-path-trace-r", "fqge", "reference", "decompose"],
    )
    def test_namespace(self, argv, want):
        got = vars(build_parser().parse_args(argv))
        assert callable(got.pop("func"))
        assert got == want

    def test_option_strings(self):
        (subparsers,) = build_parser()._subparsers._group_actions
        got = {
            name: {s for action in sub._actions for s in action.option_strings}
            for name, sub in subparsers.choices.items()
        }
        assert got == {
            "vqge": {
                "-h", "--help", "--r", "--layers", "--restarts", "--iters",
                "--lr", "--method", "--seed", "--entangler", "--shots",
                "--trace", "--target-eps",
            },
            "fqge": {
                "-h", "--help", "--delta", "--line-search", "--epsilon",
                "--max-iters", "--noise-sigma", "--seed", "--initial", "--trace",
            },
            "reference": {"-h", "--help"},
            "decompose": {"-h", "--help", "--tol"},
        }


def dense_json(m):
    return [[[float(v.real), float(v.imag)] for v in row] for row in np.asarray(m, dtype=complex)]


def one_qubit(a, b):
    """A one-qubit problem dict; a side given as a matrix is written dense,
    one given as [(coeff, ops)] as terms."""
    obj = {"n": 1}
    for side, value in (("A", a), ("B", b)):
        if isinstance(value, list):
            obj[side] = [{"coeff": c, "ops": ops} for c, ops in value]
        else:
            obj[f"{side}_dense"] = dense_json(value)
    return obj


DEMO = serialize_problem(two_qubit_pencil())
# (dense form, term form): the demo's A, and sides whose entries all lie
# below decompose's absolute tolerance of 1e-10, which a dense side must keep
DENSE_SIDES = {
    "demo-A": ({"n": 2, "A_dense": dense_json(DENSE_A), "B": DEMO["B"]}, DEMO),
    **{
        f"A-{c:g}": (one_qubit(np.diag([c, -c]), [(1.0, "I")]), one_qubit([(c, "Z")], [(1.0, "I")]))
        for c in (1e-11, 1e-13, 1e-15)
    },
    "B-1e-11": (one_qubit([(1.0, "Z")], 1e-11 * np.eye(2)), one_qubit([(1.0, "Z")], [(1e-11, "I")])),
}


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

    @pytest.mark.parametrize("dense_obj, term_obj", DENSE_SIDES.values(), ids=DENSE_SIDES.keys())
    def test_dense_side_matches_term_side(self, dense_obj, term_obj):
        """The tolerance acts relative to each dense side: its terms and
        their coefficients are those of the term form, at any scale."""
        got, want = parse_problem(dense_obj), parse_problem(term_obj)
        for got_side, want_side in ((got.A, want.A), (got.B, want.B)):
            assert [p.ops for p in got_side.strings] == [p.ops for p in want_side.strings]
            np.testing.assert_allclose(got_side.coeffs, want_side.coeffs, rtol=1e-12, atol=0)

    @pytest.mark.parametrize("label", [label for label in DENSE_SIDES if label != "demo-A"])
    def test_small_dense_side_prints_as_its_term_side(self, capsys, tmp_path, label):
        """A side below decompose's absolute tolerance keeps its terms on
        the command line too: ``geig reference`` prints the same bytes."""
        out = [run_main(capsys, ["reference", json_file(tmp_path, obj)]) for obj in DENSE_SIDES[label]]
        assert out[0] == out[1] and out[0][0] == 0 and out[0][2] == ""

    @pytest.mark.parametrize("side", ["A", "B"])
    def test_non_hermitian_dense_side_is_named(self, capsys, tmp_path, side):
        """A problem file's message names the side; ``geig decompose``
        keeps its own wording."""
        bad = np.array([[1.0, 0.5], [0.0, 1.0]])
        obj = one_qubit(bad, [(1.0, "I")]) if side == "A" else one_qubit([(1.0, "Z")], bad)
        message = f"'{side}_dense': matrix is not Hermitian within tolerance"
        with pytest.raises(ValueError, match=f"^{message}$"):
            parse_problem(obj)
        assert error_of(capsys, ["reference", json_file(tmp_path, obj)])["message"] == message
        with pytest.raises(ValueError, match="^matrix is not Hermitian within tolerance$"):
            decompose(bad)

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

    @pytest.mark.parametrize(
        "coeff, shown",
        [(True, "True"), ("2", "'2'"), ([1], r"\[1\]"), (None, "None")],
        ids=["bool", "string", "list", "null"],
    )
    def test_coefficients_must_be_json_numbers(self, coeff, shown):
        """Only an int or a float (not a bool) is a coefficient; the message
        names the side and the term's index."""
        obj = {"n": 1, "A": [{"coeff": 1, "ops": "I"}], "B": [{"coeff": 1.0, "ops": "I"}]}
        obj["B"].append({"coeff": coeff, "ops": "Z"})
        with pytest.raises(ValueError, match=f"'B' term 1: 'coeff' must be a JSON number, got {shown}"):
            parse_problem(obj)

    @pytest.mark.parametrize(
        "ops, shown",
        [(["Z"], r"\['Z'\]"), (12, "12"), (None, "None")],
        ids=["list", "number", "null"],
    )
    def test_ops_must_be_json_strings(self, ops, shown):
        obj = {"n": 1, "A": [{"coeff": 1, "ops": "I"}], "B": [{"coeff": 1.0, "ops": "I"}]}
        obj["B"].append({"coeff": 1, "ops": ops})
        with pytest.raises(ValueError, match=f"^'B' term 1: 'ops' must be a JSON string, got {shown}$"):
            parse_problem(obj)

    @pytest.mark.parametrize(
        "coeff, shown",
        [(10**400, "inf"), (-(10**400), "-inf"), (float("inf"), "inf"), (float("nan"), "nan")],
        ids=["401-digit-int", "negative-401-digit-int", "inf", "nan"],
    )
    def test_coefficients_must_convert_to_finite_floats(self, coeff, shown):
        obj = {"n": 1, "A": [{"coeff": 1, "ops": "I"}], "B": [{"coeff": 1.0, "ops": "I"}]}
        obj["B"].append({"coeff": coeff, "ops": "Z"})
        with pytest.raises(ValueError, match=f"^'B' term 1: 'coeff' is non-finite as a float: {shown}$"):
            parse_problem(obj)

    @pytest.mark.parametrize(
        "entry, message",
        [
            ([True, 0], "must be a JSON number, got True"),
            ([0, None], "must be a JSON number, got None"),
            ([10**400, 0], "is non-finite as a float: inf"),
            ([0, float("-inf")], "is non-finite as a float: -inf"),
        ],
        ids=["bool", "null", "401-digit-int", "inf"],
    )
    def test_dense_entries_follow_the_coefficient_rule(self, entry, message):
        """A dense entry's parts are numbers by the rule a coefficient
        follows; the message names the side and the entry's (row, column)."""
        dense = [[[1, 0], [0, 0]], [[0, 0], [1, 0]]]
        dense[1][0] = entry
        obj = {"n": 1, "A": [{"coeff": 1, "ops": "I"}], "B_dense": dense}
        with pytest.raises(ValueError, match=re.escape(f"'B_dense' entry (1, 0) {message}") + "$"):
            parse_problem(obj)

    @pytest.mark.parametrize("bad", [float("nan"), float("inf")], ids=["nan", "inf"])
    def test_an_all_float_matrix_names_its_non_finite_entry(self, bad):
        """A matrix of floats only is checked at once; a non-finite part
        still gets the message that names its entry."""
        dense = [[[1.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [1.0, 0.0]]]
        dense[0][1] = [0.0, bad]
        obj = {"n": 1, "A": [{"coeff": 1, "ops": "I"}], "B_dense": dense}
        with pytest.raises(ValueError, match=re.escape(f"'B_dense' entry (0, 1) is non-finite as a float: {bad}")):
            parse_problem(obj)

    def test_dense_parts_convert_as_complex_does(self):
        """Int, float and mixed parts, signed zeros included, give the bits
        of ``complex(re, im)`` entry by entry."""
        rng = np.random.default_rng(7)
        parts = [float(x) for x in rng.normal(size=34)] + [0.0, -0.0, 3, -2, 2**60 + 1, 0]
        rows = [[parts[2 * (4 * i + j): 2 * (4 * i + j) + 2] for j in range(4)] for i in range(5)]
        for matrix in (rows, [[[float(x) for x in c] for c in row] for row in rows]):
            want = np.array([[complex(*c) for c in row] for row in matrix])
            assert _parse_matrix(matrix, "'m'").tobytes() == want.tobytes()

    @pytest.mark.parametrize(
        "text, message",
        [
            ('"A": [{"coeff": true, "ops": "Z"}]', "'A' term 0: 'coeff' must be a JSON number, got True"),
            ('"A": [{"coeff": [1], "ops": "Z"}]', "'A' term 0: 'coeff' must be a JSON number, got [1]"),
            ('"A": [{"coeff": 1, "ops": ["Z"]}]', "'A' term 0: 'ops' must be a JSON string, got ['Z']"),
            (f'"A": [{{"coeff": 1{"0" * 400}, "ops": "Z"}}]', "'A' term 0: 'coeff' is non-finite as a float: inf"),
            ('"A": [{"coeff": 1e400, "ops": "Z"}]', "'A' term 0: 'coeff' is non-finite as a float: inf"),
            (
                '"A_dense": [[[true, 0], [0, 0]], [[0, 0], [1, 0]]]',
                "'A_dense' entry (0, 0) must be a JSON number, got True",
            ),
            (
                f'"A_dense": [[[1, 0], [0, 1{"0" * 400}]], [[0, 0], [1, 0]]]',
                "'A_dense' entry (0, 1) is non-finite as a float: inf",
            ),
            *(
                (
                    f'"A": [{{"coeff": 1, "ops": "I"}}, {{"coeff": 1, "ops": "{ops}"}}]',
                    f"'A' term 1: 'ops' must be n = 1 characters from I, X, Y, Z, got {shown}",
                )
                for ops, shown in (("Q", "'Q' ('Q' is not one)"), ("ZZ", "'ZZ'"), ("", "''"))
            ),
        ],
        ids=[
            "coeff-true",
            "coeff-list",
            "ops-list",
            "coeff-401-digits",
            "coeff-1e400",
            "dense-true",
            "dense-401-digits",
            "ops-letter",
            "ops-length",
            "ops-empty",
        ],
    )
    def test_bad_numbers_and_ops_end_in_the_error_contract(self, capsys, tmp_path, text, message):
        """No OverflowError leaks from a problem file, and a dense ``true``
        is refused: each ends in one JSON line naming the side."""
        path = tmp_path / "p.json"
        path.write_text('{"n": 1, ' + text + ', "B": [{"coeff": 1, "ops": "I"}]}')
        payload = error_of(capsys, ["reference", str(path)])
        assert payload == {"error": "ValueError", "message": message}

    def test_an_indefinite_b_is_named(self, capsys, tmp_path):
        side = [{"coeff": 1, "ops": "ZI"}]
        payload = error_of(capsys, ["reference", json_file(tmp_path, {"n": 2, "A": side, "B": side})])
        message = "B is not positive definite (pivot -1.000e+00 at row 2)"
        assert payload == {"error": "ValueError", "message": message}

    def test_an_overflowing_merge_names_the_string(self, capsys, tmp_path):
        terms = [{"coeff": 1e308, "ops": "ZI"}, {"coeff": 1e308, "ops": "ZI"}]
        path = json_file(tmp_path, {"n": 2, "A": terms, "B": [{"coeff": 1, "ops": "II"}]})
        for argv in (["reference"], ["fqge"], ["fqge", "--line-search"]):
            payload = error_of(capsys, [*argv, path])
            assert payload == {"error": "ValueError", "message": "coefficients of 'ZI' sum to inf"}


class TestSchemas:
    def test_all_schema_files_are_valid(self):
        for name in (
            "vqge_summary.schema.json",
            "fqge_summary.schema.json",
            "reference_summary.schema.json",
            "decompose_summary.schema.json",
        ):
            jsonschema.Draft202012Validator.check_schema(load_schema(name))


README = Path(__file__).resolve().parents[1] / "README.md"


def quick_start_examples() -> dict:
    """The one ``geig`` command of each bash block of the README's quick
    start that a JSON block follows, mapped to that block."""
    text = README.read_text().split("## Command-line quick start", 1)[1].split("\n## ", 1)[0]
    pairs = re.findall(r"```bash\n(geig [^\n]*)\n```\s*```json\n(.*?)```", text, re.DOTALL)
    assert len(pairs) == text.count("```json"), "a JSON block without its command"
    return {command: json.loads(block) for command, block in pairs}


def assert_shown(shown, got, path="summary"):
    """Every key of ``shown``, nested, equals its value in ``got`` exactly."""
    if isinstance(shown, dict):
        for key, value in shown.items():
            assert key in got, f"{path}.{key}"
            assert_shown(value, got[key], f"{path}.{key}")
    else:
        assert shown == got, path


QUICK_START_COMMANDS = ["geig reference", "geig fqge --line-search"]


class TestReadmeQuickStart:
    def test_each_json_block_follows_its_command(self):
        assert list(quick_start_examples()) == QUICK_START_COMMANDS

    @pytest.mark.parametrize("command", QUICK_START_COMMANDS)
    def test_shown_values_are_the_output(self, capsys, command):
        shown = quick_start_examples()[command]
        assert_shown(shown, summary_of(capsys, shlex.split(command)[1:]))


class TestReferenceCommand:
    def test_summary_matches_oracle(self, capsys):
        summary = summary_of(capsys, ["reference"], "reference_summary.schema.json")
        ref = generalized_eig(two_qubit_pencil())
        assert summary["command"] == "reference"
        assert summary["n"] == 2
        np.testing.assert_allclose(summary["eigenvalues"], ref.eigenvalues, atol=1e-12)
        assert summary["eta1"] == pytest.approx(0.5, abs=1e-12)
        assert summary["distinct"] == 4

    def test_distinct_counts_small_scale_levels(self, capsys, tmp_path):
        path = json_file(
            tmp_path,
            {
                "n": 2,
                "A": [{"coeff": 1e-12, "ops": "XX"}, {"coeff": 3e-13, "ops": "ZI"}],
                "B": [{"coeff": 1.0, "ops": "II"}, {"coeff": 0.5, "ops": "IZ"}],
            },
        )
        summary = summary_of(capsys, ["reference", path], "reference_summary.schema.json")
        assert summary["distinct"] == 4

    @pytest.mark.parametrize("n", [9, 10])
    def test_ising_pencils_up_to_the_default_cap(self, capsys, tmp_path, n):
        """Every eigenvalue and eta1 within 1e-9 of numpy's, in at most
        120 s, up to the default GEIG_DENSE_CAP of 10 qubits."""
        problem = BENCH_PROBLEMS.ising_problem(n, 1)
        summary = summary_of(capsys, ["reference", json_file(tmp_path, problem)], within=120)
        want = BENCH_PROBLEMS.dense_spectrum(problem, with_eta1=True)
        assert len(summary["eigenvalues"]) == 2**n
        assert np.max(np.abs(np.subtract(summary["eigenvalues"], want.eigenvalues))) <= 1e-9
        assert abs(summary["eta1"] - want.eta1) <= 1e-9


def bundled_problem() -> dict:
    return json.loads(bundled_problem_path().read_text())


def demo_with_y_term() -> dict:
    """The bundled pencil with 0.15 XY added to A: an odd number of Y
    factors, so the pencil takes the complex path."""
    problem = bundled_problem()
    problem["A"].append({"coeff": 0.15, "ops": "XY"})
    return problem


def shift_bound_qubits(batched: bool) -> int:
    """The most qubits whose rows of a circuit and its pi-shifted circuits,
    (1 + n L) 2^n amplitudes at the default L, fit the exact gradient's
    bound ``vqge._SHIFT_ROW_ENTRIES``; one more when not ``batched``."""
    layers = VQGE_DEFAULTS["layers"]
    n = max(n for n in range(1, 12) if (1 + n * layers) * 2**n <= _SHIFT_ROW_ENTRIES)
    return n if batched else n + 1


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
        vqge_trace_agrees(trace, summary, 4, 2, 41)

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

    @pytest.mark.parametrize(
        "flags, shape, within",
        [
            ([], (4, 5, 201), 120),
            (["--shots", "2000", "--r", "2", "--restarts", "3", "--iters", "20"], (2, 3, 21), 60),
        ],
        ids=["demo", "demo-shots-min-max"],
    )
    def test_trace_agrees_with_the_summary(self, capsys, tmp_path, flags, shape, within):
        """(levels, restarts, steps) trace rows, in at most ``within`` s; with
        shots the min and max levels of a restart descend as one batch."""
        trace = tmp_path / "trace.csv"
        summary = summary_of(capsys, ["vqge", *flags, "--trace", str(trace)], within=within)
        vqge_trace_agrees(trace, summary, *shape)

    def test_min_and_max_of_ising8_in_one_batch(self, capsys, tmp_path):
        """2 x 5 rows at 256 amplitudes descend as one batch, in at most
        60 s, within 1e-3 of the largest |level|."""
        trace = tmp_path / "trace.csv"
        path = json_file(tmp_path, BENCH_PROBLEMS.ising_problem(8, 1))
        summary = summary_of(capsys, ["vqge", "--r", "2", "--trace", str(trace), path], within=60)
        vqge_trace_agrees(trace, summary, 2, 5, 201)
        levels = summary["reference"]["eigenvalues"]
        assert summary["reference"]["max_abs_error"] <= 1e-3 * max(abs(x) for x in levels)

    def test_shot_trace_within_the_shot_gate(self, capsys, tmp_path):
        """2000 shots, 2 restarts x 101 steps, in at most 120 s, within the
        benchmark's shot gate on the bundled pencil."""
        trace = tmp_path / "trace.csv"
        argv = ["vqge", "--shots", "2000", "--restarts", "2", "--iters", "100", "--trace", str(trace)]
        summary = summary_of(capsys, argv, within=120)
        vqge_trace_agrees(trace, summary, 4, 2, 101)
        spectrum = BENCH_PROBLEMS.dense_spectrum(bundled_problem(), with_eta1=True)
        gate = BENCH_WORKLOADS.shot_tolerance(bundled_problem(), 2000, spectrum)
        assert summary["reference"]["max_abs_error"] <= gate

    @pytest.mark.parametrize("batched", [True, False], ids=["pi-shifted-batch", "adjoint-sweep"])
    def test_exact_gradients_on_both_sides_of_the_shift_bound(self, capsys, tmp_path, batched):
        """Ising pencils on either side of the bound at two layers: at a
        bound of 56 amplitudes, n = 3 holds (1 + 3 * 2) * 8 = 56 per row
        and n = 4 holds 144."""
        n = shift_bound_qubits(batched)
        assert ((1 + n * VQGE_DEFAULTS["layers"]) * 2**n <= _SHIFT_ROW_ENTRIES) == batched
        trace = tmp_path / "trace.csv"
        path = json_file(tmp_path, BENCH_PROBLEMS.ising_problem(n, 1))
        summary = summary_of(capsys, ["vqge", "--r", "2", "--trace", str(trace), path], within=60)
        vqge_trace_agrees(trace, summary, 2, 5, 201)
        assert summary["reference"]["max_abs_error"] <= 1e-2

    def test_a_y_term_stays_in_the_spectrum(self, capsys, tmp_path):
        """The R_y ansatz prepares real states only, so vqge need not reach
        a complex ground state; its quotient still lies in the spectrum."""
        path = json_file(tmp_path, demo_with_y_term())
        summary = summary_of(capsys, ["vqge", "--r", "1", path], within=120)
        levels = summary["reference"]["eigenvalues"]
        assert levels[0] - 1e-9 <= summary["eigenvalues"][0] <= levels[-1]

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

        assert trace.read_text().startswith("s,value,residual,delta_re,delta_im,success_prob,C,d\n")
        fqge_trace_agrees(trace, summary)

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

    @pytest.mark.parametrize("initial", [0, 1])
    @pytest.mark.parametrize("line_search", [False, True], ids=["fixed", "line-search"])
    def test_fidelity_is_the_weight_on_a_degenerate_ground_level(
        self, capsys, tmp_path, initial, line_search
    ):
        """ZI + 0.3 XI against II + 0.2 ZI leaves the second qubit free, so
        each level is doubly degenerate and both start states reach the
        ground level.  The overlap with one oracle eigenvector of that level
        alone reads 0.0128 from |00> and 0.987 from |01>."""
        problem = json_file(
            tmp_path,
            {
                "n": 2,
                "A": [{"coeff": 1.0, "ops": "ZI"}, {"coeff": 0.3, "ops": "XI"}],
                "B": [{"coeff": 1.0, "ops": "II"}, {"coeff": 0.2, "ops": "ZI"}],
            },
        )
        argv = ["fqge", problem, "--initial", str(initial)] + ["--line-search"] * line_search
        summary = summary_of(capsys, argv, "fqge_summary.schema.json")
        assert summary["status"] == "converged"
        assert summary["reference"]["abs_error"] <= 1e-12
        assert summary["reference"]["fidelity_ground"] >= 1 - 1e-9

    @pytest.mark.parametrize("n", [None, 8], ids=["demo", "ising8"])
    def test_line_search_trace_agrees_with_the_summary(self, capsys, tmp_path, n):
        trace = tmp_path / "trace.csv"
        argv = ["fqge", "--line-search", "--trace", str(trace)]
        if n is not None:
            argv.append(json_file(tmp_path, BENCH_PROBLEMS.ising_problem(n, 1)))
        fqge_trace_agrees(trace, summary_of(capsys, argv, within=60))

    @pytest.mark.parametrize("y_term", [False, True], ids=["demo", "demo-y"])
    def test_noisy_trace_agrees_with_the_summary(self, capsys, tmp_path, y_term):
        trace = tmp_path / "trace.csv"
        argv = ["fqge", "--noise-sigma", "0.01", "--seed", "3", "--trace", str(trace)]
        if y_term:
            argv.append(json_file(tmp_path, demo_with_y_term()))
        summary = summary_of(capsys, argv, within=60)
        fqge_trace_agrees(trace, summary)
        assert summary["reference"]["abs_error"] <= 1e-3

    def test_a_y_term_takes_the_complex_path(self, capsys, tmp_path):
        path = json_file(tmp_path, demo_with_y_term())
        summary = summary_of(capsys, ["fqge", path], within=120)
        assert summary["status"] == "converged" and summary["reference"]["abs_error"] <= 1e-6

    def test_float64_rows_at_11_qubits(self, capsys, tmp_path):
        """Above the dense cap: the ground value against numpy's."""
        problem = BENCH_PROBLEMS.ising_problem(11, 1)
        argv = ["fqge", "--line-search", "--epsilon", "1e-6", json_file(tmp_path, problem)]
        summary = summary_of(capsys, argv, within=120)
        ground = BENCH_PROBLEMS.dense_spectrum(problem, with_eta1=False).eigenvalues[0]
        assert summary["status"] == "converged" and abs(summary["eigenvalue"] - ground) <= 1e-6

    def test_noisy_run_reports_seeded_result(self, capsys):
        argv = ["fqge", "--noise-sigma", "0.01", "--seed", "5", "--max-iters", "50"]
        one = summary_of(capsys, argv, "fqge_summary.schema.json")
        two = summary_of(capsys, argv, "fqge_summary.schema.json")
        assert one == two
        assert abs(one["eigenvalue"] - 0.33161943559427537) < 0.05


class TestDecomposeCommand:
    def test_two_qubit_matrix(self, capsys, tmp_path):
        path = json_file(tmp_path, [[[float(v), 0.0] for v in row] for row in DENSE_A])
        summary = summary_of(
            capsys, ["decompose", path], "decompose_summary.schema.json"
        )
        got = {t["ops"]: t["coeff"] for t in summary["terms"]}
        want = {"II": 1.0, "IZ": 0.4, "ZI": 0.4, "XX": 0.2}
        assert set(got) == set(want)
        for ops, coeff in want.items():
            assert got[ops] == pytest.approx(coeff, abs=1e-12)

    def test_hermitian_to_rounding_at_scale_1e6(self, capsys, tmp_path):
        q, _ = np.linalg.qr(np.random.default_rng(0).normal(size=(8, 8)))
        m = q @ np.diag(1e6 * np.arange(1.0, 9.0)) @ q.T
        path = json_file(tmp_path, [[[v, 0.0] for v in row] for row in m.tolist()])
        summary = summary_of(capsys, ["decompose", path], "decompose_summary.schema.json")
        assert summary["n"] == 3

    def test_ising10_side_reads_back_its_terms(self, capsys, tmp_path):
        problem = BENCH_PROBLEMS.ising_problem(10, 1)
        m = dense_matrix(parse_problem(problem).A)
        path = json_file(tmp_path, np.stack((m.real, m.imag), axis=-1).tolist())
        got = summary_of(capsys, ["decompose", path], within=20)["terms"]
        assert [t["ops"] for t in got] == [t["ops"] for t in problem["A"]]
        assert max(abs(g["coeff"] - w["coeff"]) for g, w in zip(got, problem["A"])) <= 1e-12

    def test_default_tol_is_the_library_default(self):
        assert build_parser().parse_args(["decompose", "m.json"]).tol is DEFAULT_DECOMPOSE_TOL

    def test_entries_follow_the_number_rule(self, capsys, tmp_path):
        path = tmp_path / "m.json"
        path.write_text('[[[1, 0], [0, 0]], [[0, 0], [false, 0]]]')
        payload = error_of(capsys, ["decompose", str(path)])
        assert payload["message"] == "'matrix' entry (1, 1) must be a JSON number, got False"

    def test_object_wrapper_and_tol(self, capsys, tmp_path):
        mat = [[[1.0, 0.0], [1e-6, 0.0]], [[1e-6, 0.0], [1.0, 0.0]]]
        path = json_file(tmp_path, {"matrix": mat})
        summary = summary_of(capsys, ["decompose", path], "decompose_summary.schema.json")
        assert {t["ops"] for t in summary["terms"]} == {"I", "X"}
        pruned = summary_of(
            capsys,
            ["decompose", path, "--tol", "1e-3"],
            "decompose_summary.schema.json",
        )
        assert {t["ops"] for t in pruned["terms"]} == {"I"}

    def test_object_without_matrix_key(self, capsys, tmp_path):
        path = json_file(tmp_path, {"rows": []})
        payload = error_of(capsys, ["decompose", path])
        assert payload["error"] == "ValueError"
        assert "'matrix'" in payload["message"]

    @pytest.mark.parametrize("tol", ["nan", "inf", "-1"])
    def test_rejects_bad_tol(self, capsys, tmp_path, tol):
        path = json_file(tmp_path, [[[1.0, 0.0], [0.5, 0.0]], [[0.5, 0.0], [-1.0, 0.0]]])
        payload = error_of(capsys, ["decompose", path, "--tol", tol])
        assert payload["error"] == "ValueError"
        assert "tol" in payload["message"]


class TestErrorContract:
    def test_missing_problem_file(self, capsys):
        payload = error_of(capsys, ["vqge", "/nonexistent/problem.json"])
        assert payload["error"] == "FileNotFoundError"
        assert payload["message"]

    def test_invalid_problem_content(self, capsys, tmp_path):
        path = json_file(
            tmp_path,
            {
                "n": 1,
                "A": [{"coeff": 1.0, "ops": "I"}],
                "A_dense": [[[1.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [1.0, 0.0]]],
                "B": [{"coeff": 1.0, "ops": "I"}],
            },
        )
        payload = error_of(capsys, ["fqge", path])
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
        "matrix",
        [
            [[[1, 0, 5], [0, 0]], [[0, 0], [1, 0]]],
            [[[1, 0], [0, 0]], [[1, 0]]],
            [[[1, 0], [0]], [[0, 0], [1, 0]]],
            [[[1, 0], "ab"], [[0, 0], [1, 0]]],
            [[[1, 0], [0, 0]], 7],
            [[[1, 0], {"re": 0, "im": 0}], [[0, 0], [1, 0]]],
        ],
        ids=["three-numbers", "ragged-row", "one-number", "string", "number-row", "object"],
    )
    @pytest.mark.parametrize("command", ["decompose", "reference"])
    def test_malformed_dense_matrix(self, capsys, tmp_path, command, matrix):
        """A dense matrix whose entries are not [re, im] pairs, or whose rows
        differ in length, is rejected with one message on both entry points."""
        if command == "reference":
            matrix = {"n": 1, "A_dense": matrix, "B": [{"coeff": 1, "ops": "I"}]}
        payload = error_of(capsys, [command, json_file(tmp_path, matrix)])
        assert payload == {
            "error": "ValueError",
            "message": "dense matrix entries must be [re, im] pairs in row-major order",
        }

    @pytest.mark.parametrize(
        "argv, fragment",
        [
            (["fqge", "--delta", "nan"], "delta"),
            (["fqge", "--epsilon", "nan"], "epsilon"),
            (["fqge", "--epsilon", "-1"], "epsilon must be >= 0, got -1.0"),
            (["vqge", "--restarts", "0"], "restarts"),
            (["vqge", "--entangler", "star", "--r", "1"], "unknown entangler 'star'"),
            (["vqge", "--r", "9"], "r must be between 1 and 4, got 9"),
            (["vqge", "--r", "1", "--target-eps", "-1"], "pseudo-error must be finite and > 0"),
            (["vqge", "--r", "1", "--target-eps", "1e-300"], "target pseudo-error 1e-300 is out of range"),
            (["vqge", "--r", "1", "--target-eps", "1e-160"], "target pseudo-error 1e-160 is out of range"),
        ],
        ids=[
            "delta-nan",
            "epsilon-nan",
            "epsilon-negative",
            "restarts-zero",
            "entangler",
            "r-above-dim",
            "target-eps-negative",
            "target-eps-square-underflows",
            "target-eps-counts-overflow",
        ],
    )
    def test_invalid_config_values(self, capsys, argv, fragment):
        payload = error_of(capsys, argv)
        assert payload["error"] == "ValueError"
        assert fragment in payload["message"]

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["--r", "2000"], "r must be between 1 and 1024, got 2000"),
            (["--r", "0"], "r must be >= 1, got 0"),
            (["--entangler", "star"], "unknown entangler 'star'"),
            (["--r", "1", "--target-eps", "-1"], "pseudo-error must be finite and > 0"),
            (["--target-eps", "0"], "pseudo-error must be finite and > 0"),
            (["--r", "1", "--target-eps", "1e-300"], "target pseudo-error 1e-300 is out of range"),
            (["--r", "1", "--target-eps", "1e-160"], "target pseudo-error 1e-160 is out of range"),
        ],
        ids=[
            "r-above-dim",
            "r-zero",
            "entangler",
            "target-eps-negative",
            "target-eps-zero",
            "target-eps-square-underflows",
            "target-eps-counts-overflow",
        ],
    )
    def test_vqge_options_fail_before_the_oracle(self, capsys, monkeypatch, tmp_path, argv, message):
        """A bad --r, entangler name or --target-eps is refused before the
        dense oracle runs, on a 10-qubit pencil where the oracle takes a
        second."""
        calls = []
        monkeypatch.setattr("geig.cli.generalized_eig", lambda *args: calls.append(args))
        a = [{"coeff": 1, "ops": "ZZ" + "I" * 8}, {"coeff": 0.5, "ops": "X" + "I" * 9}]
        path = json_file(tmp_path, {"n": 10, "A": a, "B": [{"coeff": 1, "ops": "I" * 10}]})
        payload = error_of(capsys, ["vqge", *argv, path])
        assert payload["error"] == "ValueError"
        assert message in payload["message"]
        assert calls == []

    @pytest.mark.parametrize("command", ["vqge", "fqge"])
    def test_bad_trace_path_fails_before_the_solve(self, capsys, monkeypatch, tmp_path, command):
        def never(*args, **kwargs):
            raise AssertionError("the solve ran before the trace path was checked")

        monkeypatch.setattr("geig.cli.solve_spectrum", never)
        monkeypatch.setattr("geig.cli.run_fqge", never)
        trace = tmp_path / "missing" / "t.csv"
        payload = error_of(capsys, [command, "--trace", str(trace)])
        assert payload["error"] == "FileNotFoundError"
        assert str(trace) in payload["message"]

    def test_usage_errors_exit_two(self):
        with pytest.raises(SystemExit) as info:
            main(["--bogus"])
        assert info.value.code == 2
        with pytest.raises(SystemExit) as info:
            main([])
        assert info.value.code == 2

    def test_one_parser_answers_as_a_fresh_one(self, capsys, monkeypatch, tmp_path):
        """``main`` parses with the one tree ``build_parser`` builds per
        process; a sequence of calls through it (a usage error, each
        command, then a bad --method) prints and returns what a parser
        built for each call gives."""
        matrix = tmp_path / "z.json"
        matrix.write_text(json.dumps([[[1.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [-1.0, 0.0]]]))
        calls = [
            ["--bogus"],
            ["vqge", "--iters", "3", "--restarts", "1"],
            ["fqge", "--line-search"],
            ["reference"],
            ["decompose", str(matrix)],
            ["vqge", "--method", "newton"],
        ]

        def outcomes():
            got = []
            for argv in calls:
                try:
                    rc = main(argv)
                except SystemExit as stop:
                    rc = stop.code
                got.append((rc, *capsys.readouterr()))
            return got

        build_parser()  # the one tree exists before the sequence starts
        shared = outcomes()
        assert [rc for rc, _, _ in shared] == [2, 0, 0, 0, 0, 2]
        with monkeypatch.context() as patch:
            patch.setattr("geig.cli.build_parser", build_parser.__wrapped__)
            assert outcomes() == shared
        assert build_parser() is build_parser()

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
        # "13" is above the guard on allocating a dense 2^n x 2^n matrix
        for raw in ("zebra", "13"):
            monkeypatch.setenv("GEIG_DENSE_CAP", raw)
            payload = error_of(capsys, ["reference"])
            assert payload["error"] == "ValueError"
            assert "GEIG_DENSE_CAP" in payload["message"]
            if raw == "13":
                assert "12" in payload["message"]

    def test_negative_cap_refused(self, capsys, monkeypatch):
        # a negative cap would refuse every pencil with a message naming it
        monkeypatch.setenv("GEIG_DENSE_CAP", "-3")
        payload = error_of(capsys, ["reference"])
        assert payload["error"] == "ValueError"
        assert payload["message"] == "GEIG_DENSE_CAP must be between 0 and 12, got -3"


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


    def test_closed_pipe_exits_1_without_traceback(self):
        """A reader that closes stdout before the summary is written (as
        ``geig vqge | head -c 600`` may) gets exit code 1 and nothing on
        stderr."""
        proc = subprocess.Popen(
            [sys.executable, "-m", "geig", "vqge", "--iters", "5", "--restarts", "1"],
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
        )
        proc.stdout.close()
        _, stderr = proc.communicate(timeout=120)
        assert proc.returncode == 1
        assert stderr == b""


class TestOverflowingStep:
    """A step that overflows ends in one JSON line on stderr that names the
    step and its size, with no numpy warning ahead of it.  Run as a
    subprocess without ``PYTHONWARNINGS``, so that a warning would show."""

    @pytest.mark.parametrize(
        "argv, cause",
        [
            (["vqge", "--lr", "1e308", "--r", "1", "--restarts", "1", "--iters", "5"], "lr"),
            (["fqge", "--delta", "1e308"], "delta"),
            (["fqge", "--noise-sigma", "1e200", "--seed", "2", "--max-iters", "3"], "noise_sigma"),
        ],
        ids=["vqge-lr", "fqge-delta", "fqge-noise"],
    )
    def test_one_json_line(self, argv, cause):
        env = {k: v for k, v in os.environ.items() if k != "PYTHONWARNINGS"}
        proc = subprocess.run(
            [sys.executable, "-m", "geig", *argv],
            capture_output=True,
            text=True,
            timeout=120,
            env=env,
        )
        assert proc.returncode == 1
        assert proc.stdout == ""
        lines = proc.stderr.splitlines()
        assert len(lines) == 1, proc.stderr
        payload = json.loads(lines[0])
        assert set(payload) == {"error", "message"}
        assert payload["error"] == "ValueError"
        assert re.match(r"step \d+: ", payload["message"])
        assert cause in payload["message"]
        assert "positive definite" not in payload["message"]


class TestNonFiniteSummary:
    """A summary that would carry NaN ends in the JSON error contract, and
    scales whose squares would overflow on the way end in a finite one."""

    @staticmethod
    def fqge_at_scale(capsys, tmp_path, scale, flags):
        """``geig fqge`` on {A: [c ZI, c XX], B: [c II, 0.5 IZ]}, whose
        ground value tends to -sqrt(2) as c grows."""
        problem = {
            "n": 2,
            "A": [{"coeff": scale, "ops": "ZI"}, {"coeff": scale, "ops": "XX"}],
            "B": [{"coeff": scale, "ops": "II"}, {"coeff": 0.5, "ops": "IZ"}],
        }
        return summary_of(capsys, ["fqge", *flags, json_file(tmp_path, problem)])

    @pytest.mark.parametrize("scale", [1e155, 1e200])
    @pytest.mark.parametrize("flags", [[], ["--line-search"]], ids=["fixed-step", "line-search"])
    def test_fqge_converges_where_its_norms_would_overflow(self, capsys, tmp_path, scale, flags):
        """The squares of the entries of A psi would overflow at this scale:
        fqge runs on the unit pencil, so the run converges to the ground
        value."""
        summary = self.fqge_at_scale(capsys, tmp_path, scale, flags)
        assert summary["status"] == "converged"
        assert abs(summary["eigenvalue"] + np.sqrt(2.0)) <= 1e-12

    @pytest.mark.parametrize("scale", [1e100, 1e140, 1e150, 1e153])
    def test_line_search_converges_where_its_products_would_overflow(self, capsys, tmp_path, scale):
        """The squares of the 2x2 line-search pencil's entries would overflow
        near 1e150: on the unit pencil they are near 1."""
        summary = self.fqge_at_scale(capsys, tmp_path, scale, ["--line-search"])
        assert summary["status"] == "converged"
        assert abs(summary["eigenvalue"] + np.sqrt(2.0)) <= 1e-12

    def test_vqge_shot_gradient_names_b(self, capsys, tmp_path):
        """The pi-shift gradient divides by <B>^2, which overflowed at this
        scale on the pencil itself.  On the unit pencil <B>^2 is below
        (2 4^n)^2, so the run ends with a finite summary and nothing on
        stderr."""
        problem = {
            "n": 2,
            "A": [{"coeff": 1e200, "ops": "ZI"}, {"coeff": 1e200, "ops": "XX"}],
            "B": [{"coeff": 1e200, "ops": "II"}, {"coeff": 0.5, "ops": "IZ"}],
        }
        flags = ["--iters", "10", "--restarts", "1", "--shots", "100"]
        summary = summary_of(capsys, ["vqge", *flags, json_file(tmp_path, problem)])
        assert np.isfinite(summary["eigenvalues"]).all()

    def test_walker_names_the_field(self):
        nan, inf = float("nan"), float("inf")
        _check_finite({"n": 2, "eigenvalue": 0.5, "levels": [{"objective": "min"}]})
        for summary, field in [
            ({"n": 2, "residual": nan}, "residual"),
            ({"reference": {"nearest_eigenvalue": 1.0, "abs_error": inf}}, "reference.abs_error"),
            ({"eigenvalues": [0.5, -inf]}, "eigenvalues[1]"),
        ]:
            with pytest.raises(ValueError, match=re.escape(field)):
                _check_finite(summary)


def scaled_pencil(a, b):
    """{A: [a ZI, a XX], B: [b II, 0.5 b IZ]} and its ground value, numpy's
    ``eigvalsh`` of the unit pencil reduced by the Cholesky factor of B,
    times a / b."""
    z, x = np.diag([1.0, -1.0]), np.array([[0.0, 1.0], [1.0, 0.0]])
    unit_a = np.kron(z, np.eye(2)) + np.kron(x, x)
    unit_b = np.eye(4) + 0.5 * np.kron(np.eye(2), z)
    inv_l = np.linalg.inv(np.linalg.cholesky(unit_b))
    ground = np.linalg.eigvalsh(inv_l @ unit_a @ inv_l.T)[0] * (a / b)
    problem = {
        "n": 2,
        "A": [{"coeff": a, "ops": "ZI"}, {"coeff": a, "ops": "XX"}],
        "B": [{"coeff": b, "ops": "II"}, {"coeff": 0.5 * b, "ops": "IZ"}],
    }
    return problem, ground


class TestFqgeAtNormScales:
    """Where the squares of the amplitudes of A psi, B psi or the residual
    over- or underflow, ``geig fqge`` in either mode exits 0 and reports
    "converged" only at the ground value, else ``max_iters``."""

    @pytest.mark.parametrize(
        "a, b",
        [(1e154, 1e154), (1e155, 1e155), (1e156, 1e156), (1e-170, 1.0), (1.0, 1e175)],
        ids=["both-1e154", "both-1e155", "both-1e156", "A-1e-170", "B-1e175"],
    )
    @pytest.mark.parametrize("flags", [[], ["--line-search"]], ids=["fixed-step", "line-search"])
    def test_converged_only_at_the_ground_value(self, capsys, tmp_path, a, b, flags):
        problem, ground = scaled_pencil(a, b)
        summary = summary_of(capsys, ["fqge", *flags, json_file(tmp_path, problem)])
        assert summary["status"] in ("converged", "max_iters")
        if summary["status"] == "converged":
            assert abs(summary["eigenvalue"] - ground) <= 1e-9 * abs(ground), summary

    @pytest.mark.parametrize(
        "a, b, flags",
        [
            (1e-20, 1e-20, []),
            (1e-20, 1e-20, ["--line-search"]),
            (1e-300, 1e-300, []),
            (1e-300, 1e-300, ["--line-search"]),
            (1e-160, 1.0, ["--line-search"]),
            (1e-170, 1.0, ["--line-search"]),
            (1e308, 1e308, ["--line-search"]),
        ],
        ids=[
            "both-1e-20-fixed-step",
            "both-1e-20-line-search",
            "both-1e-300-fixed-step",
            "both-1e-300-line-search",
            "A-1e-160-line-search",
            "A-1e-170-line-search",
            "both-1e308-line-search",
        ],
    )
    def test_converges_at_any_side_scale(self, capsys, tmp_path, a, b, flags):
        """fqge runs on the unit pencil: a B of small scale is not refused
        by the <B> floor, a line-search step's products stay in the float
        range, and so does the LCU norm at 1e308."""
        problem, ground = scaled_pencil(a, b)
        path = json_file(tmp_path, problem)
        summary = summary_of(capsys, ["fqge", *flags, path])
        assert summary["status"] == "converged"
        assert abs(summary["eigenvalue"] - ground) <= 1e-9 * abs(ground), summary

    @pytest.mark.parametrize("flags", [[], ["--line-search"]], ids=["fixed-step", "line-search"])
    def test_fidelity_at_the_top_of_the_float_range(self, capsys, tmp_path, flags):
        """FOUND 76: at c = 1.7e308 the oracle's ground vector has entries
        near 2^-512, whose squares are subnormal; it is scaled by a power of
        two before its norm, so ``fidelity_ground`` is, bit for bit, that of
        c 2^-1000, whose unit pencil is the same."""
        references = []
        for c in (1.7e308, math.ldexp(1.7e308, -1000)):
            problem, _ = scaled_pencil(c, c)
            path = json_file(tmp_path, problem)
            references.append(summary_of(capsys, ["fqge", *flags, path])["reference"])
        top, ordinary = references
        assert top["fidelity_ground"] == ordinary["fidelity_ground"] > 0.9999
        assert top == ordinary

    @pytest.mark.parametrize("flags", [[], ["--line-search"]], ids=["fixed-step", "line-search"])
    def test_eigenvalues_past_the_float_range(self, capsys, tmp_path, flags):
        """At A = 1e300, B = 1e-300 the eigenvalues are near 1e600: the fixed
        step overflows, and the line search ends in the summary check; either
        way one JSON line, which names the pencil's own step."""
        problem, _ = scaled_pencil(1e300, 1e-300)
        path = json_file(tmp_path, problem)
        payload = error_of(capsys, ["fqge", *flags, path])
        if flags:
            assert payload["message"] == "summary field 'eigenvalue' is -inf, not a finite number"
        else:
            assert payload["message"] == "step 1: the step overflows at |delta| = 1.000e-01"

    @pytest.mark.parametrize("flags", [[], ["--line-search"]], ids=["fixed-step", "line-search"])
    def test_a_b_near_singular_for_its_scale_is_refused_by_name(self, capsys, tmp_path, flags):
        """B = 1e13 II - (1e13 - 1) ZI is positive definite, but <B> = 1 at
        |00> is below 1e-12 of B's scale 2^44: the unit pencil's floor
        refuses it, and the message names the pencil's own <B> and says
        which floor it failed."""
        problem = {
            "n": 2,
            "A": [{"coeff": 1.0, "ops": "ZI"}, {"coeff": 1.0, "ops": "XX"}],
            "B": [{"coeff": 1e13, "ops": "II"}, {"coeff": -(1e13 - 1.0), "ops": "ZI"}],
        }
        path = json_file(tmp_path, problem)
        assert error_of(capsys, ["fqge", *flags, path])["message"] == (
            "<B> = 1.000e+00 at the evaluated state; "
            "that is at most 1e-12 of B's scale 2^44, too near singular"
        )


SHOT_FLAGS = ["--r", "2", "--shots", "2000", "--restarts", "2", "--iters", "100"]


class TestVqgeAndTheOracleOnTheUnitPencil:
    """``geig vqge`` and ``geig reference`` run on ``Pencil.unit``, as fqge
    does: the pencil's scale no longer decides which inputs a command
    accepts.  FOUND numbers name the entries of CHANGES.md; the tolerances
    are relative to numpy's ground value: 1e-12 for the oracle, 1e-9 for
    exact vqge and 0.06 for the shot command."""

    @pytest.mark.parametrize("c", [1.7e308, 1e-20, 1e-300])
    @pytest.mark.parametrize(
        "argv, rtol",
        [(["reference"], 1e-12), (["vqge", "--r", "1"], 1e-9), (["vqge", *SHOT_FLAGS], 0.06)],
        ids=["reference", "vqge", "vqge-shots"],
    )
    def test_both_sides_at_the_range_ends(self, capsys, tmp_path, argv, rtol, c):
        """FOUND 69 (c = 1.7e308: B's terms add past the float range on a
        basis state) and the vqge half of FOUND 27 (c = 1e-20 and 1e-300:
        the absolute <B> floor refused a positive definite B)."""
        problem, ground = scaled_pencil(c, c)
        path = json_file(tmp_path, problem)
        summary = summary_of(capsys, [*argv, path])
        assert abs(summary["eigenvalues"][0] - ground) <= rtol * abs(ground), summary

    @pytest.mark.parametrize(
        "problem",
        [
            {
                "n": 2,
                "A": [{"coeff": 1.5e308, "ops": "ZI"}, {"coeff": 1.0, "ops": "XX"}],
                "B": [{"coeff": 1.5, "ops": "II"}],
            },
            scaled_pencil(1e175, 1.0)[0],
        ],
        ids=["found-70", "a-alone-1e175"],
    )
    @pytest.mark.parametrize(
        "argv, rtol", [(["vqge", "--r", "1"], 1e-9), (["vqge", *SHOT_FLAGS], 0.06)], ids=["vqge", "vqge-shots"]
    )
    def test_a_far_above_b(self, capsys, tmp_path, problem, argv, rtol):
        """FOUND 70 and A alone at 1e175: Adam on the pencil itself ended
        11% and 22% off; on the unit pencil its steps are the pencil's own
        covariant ones."""
        summary = summary_of(capsys, [*argv, json_file(tmp_path, problem)])
        (a, scale_a), (b, scale_b) = (unit_dense(problem, side) for side in "AB")
        inv_l = np.linalg.inv(np.linalg.cholesky(b))
        truth = np.linalg.eigvalsh(inv_l @ a @ inv_l.T)[0] * (scale_a / scale_b)
        assert abs(summary["eigenvalues"][0] - truth) <= rtol * abs(truth), summary
        assert abs(summary["reference"]["eigenvalues"][0] - truth) <= 1e-12 * abs(truth)

    @pytest.mark.parametrize(
        "argv", [["reference"], ["vqge", "--r", "1"], ["vqge", *SHOT_FLAGS]],
        ids=["reference", "vqge", "vqge-shots"],
    )
    def test_eigenvalues_past_the_float_range(self, capsys, tmp_path, argv):
        """A = 1e300 against B = 1e-300: the levels are near 1e600, so the
        summary check names the first -inf field in one JSON line, and no
        warning from the factor, the Sturm rows or the scaling reaches
        stderr."""
        problem, _ = scaled_pencil(1e300, 1e-300)
        path = json_file(tmp_path, problem)
        payload = error_of(capsys, [*argv, path])
        assert payload["message"] == "summary field 'eigenvalues[0]' is -inf, not a finite number"

    @pytest.mark.xfail(
        strict=True,
        reason="FOUND 31: Adam's epsilon 1e-8, scaled as the pencil's own, stalls the "
        "descent when A is tiny against B (ROADMAP item 3)",
    )
    @pytest.mark.parametrize(
        "a, b", [(1e-30, 1.0), (1.0, 1e175)], ids=["a-alone-1e-30", "b-alone-1e175"]
    )
    @pytest.mark.parametrize(
        "argv, rtol",
        [(["vqge", "--r", "1"], 1e-6), (["vqge", *SHOT_FLAGS], 0.05)],
        ids=["exact", "shots"],
    )
    def test_a_tiny_against_b(self, capsys, tmp_path, argv, rtol, a, b):
        """The scale sweep's rule for these pencils: exit 0 within 1e-6
        (5e-2 with shots).  Both exit 0 about 20% off today; the fix of
        FOUND 31 deletes this expected failure."""
        problem, ground = scaled_pencil(a, b)
        path = json_file(tmp_path, problem)
        summary = summary_of(capsys, [*argv, path])
        assert abs(summary["eigenvalues"][0] - ground) <= rtol * abs(ground), summary


def unit_dense(problem: dict, side: str) -> tuple:
    """(matrix, scale): one real side of a problem dict built by numpy's
    Kronecker products with each coefficient over the side's largest
    |coefficient|, and that coefficient."""
    paulis = {"I": np.eye(2), "X": np.array([[0.0, 1.0], [1.0, 0.0]]), "Z": np.diag([1.0, -1.0])}
    scale = max(abs(t["coeff"]) for t in problem[side])
    out = np.zeros((2 ** problem["n"],) * 2)
    for term in problem[side]:
        m = np.eye(1)
        for ch in term["ops"]:
            m = np.kron(m, paulis[ch])
        out += (term["coeff"] / scale) * m
    return out, scale


# {A: [1.5e308 ZI, XX], B: [1.5 II]}, whose oracle levels are +-1e308
NEAR_1E308 = {
    "n": 2,
    "A": [{"coeff": 1.5e308, "ops": "ZI"}, {"coeff": 1.0, "ops": "XX"}],
    "B": [{"coeff": 1.5, "ops": "II"}],
}


class TestPencilsAtTheFloatLimit:
    """An fqge residual scale past the float range, a diagonal of B whose
    terms add past it, and oracle levels near 1e308: each command converges
    or exits 1 with one JSON line, and prints no warning."""

    @pytest.mark.parametrize("flags", [[], ["--line-search"]], ids=["fixed-step", "line-search"])
    def test_fqge_where_the_residual_scale_overflows(self, capsys, tmp_path, flags):
        """||A psi|| + |F| ||B psi|| overflows at the start, which read as a
        relative residual of 0 and "converged" at iteration 0 on the start's
        value 0.667."""
        problem, ground = scaled_pencil(1e308, 1e308)
        path = json_file(tmp_path, problem)
        rc, out, err = run_main(capsys, ["fqge", *flags, path])
        if rc == 1 and flags:
            payload = json.loads(err)
            assert out == "" and len(err.splitlines()) == 1
            assert set(payload) == {"error", "message"} and not payload["error"].endswith("Warning")
            return
        assert rc == 0 and err == ""
        summary = json.loads(out)
        assert summary["status"] == "converged" and summary["iterations"] > 0
        assert abs(summary["eigenvalue"] - ground) <= 1e-9 * abs(ground)

    def test_the_oracle_where_the_residual_scale_overflows(self, capsys, tmp_path):
        problem, ground = scaled_pencil(1e308, 1e308)
        summary = summary_of(capsys, ["reference", json_file(tmp_path, problem)])
        assert abs(summary["eigenvalues"][0] - ground) <= 1e-12 * abs(ground)

    def test_a_capped_line_search_step(self, capsys, tmp_path):
        """Along a direction 1e-170 long the capped step's LCU coefficients
        have squares past the float range; the stepped state is finite, and
        the run converges to the ground value -1."""
        problem = {
            "n": 1,
            "A": [{"coeff": -0.5, "ops": "I"}, {"coeff": -0.5, "ops": "Z"}, {"coeff": 1e-170, "ops": "X"}],
            "B": [{"coeff": 1, "ops": "I"}],
        }
        with pytest.warns(UserWarning, match="capping"):
            rc = main(["fqge", "--line-search", "--initial", "1", json_file(tmp_path, problem)])
        summary = json.loads(capsys.readouterr().out)
        assert rc == 0 and summary["status"] == "converged" and summary["eigenvalue"] == -1.0

    def test_fqge_reference_block_near_1e308(self, capsys, tmp_path):
        """The oracle's levels of ``NEAR_1E308`` are +-1e308, and the
        distances to them, past the float range, pick the nearest level
        without a warning."""
        path = json_file(tmp_path, NEAR_1E308)
        summary = summary_of(capsys, ["fqge", path])
        nearest = summary["reference"]["nearest_eigenvalue"]
        assert abs(nearest - summary["eigenvalue"]) <= 1e-12 * abs(nearest)

    def test_vqge_reference_block_near_1e308(self, capsys, tmp_path):
        """On the same pencil the cluster means of +-1e308, the gradient
        norms and the distances to the levels stay finite, without a
        warning: a finite reference block and an empty stderr."""
        path = json_file(tmp_path, NEAR_1E308)
        summary = summary_of(capsys, ["vqge", "--r", "1", path])
        ref = summary["reference"]
        np.testing.assert_allclose(ref["distinct"], [-1e308, 1e308], rtol=1e-12)
        assert np.isfinite(ref["abs_errors"]).all()

    @pytest.mark.parametrize(
        "argv",
        [["reference"], ["fqge"], ["fqge", "--line-search"], ["vqge", "--r", "1"]],
        ids=["reference", "fqge", "fqge-line-search", "vqge"],
    )
    def test_diagonal_past_the_range_names_the_side(self, capsys, tmp_path, argv):
        """B = c II + 0.5c IZ at c = 1.7e308: 1.5c is past the float range.
        Every command runs on the unit pencil, whose diagonal is near 1:
        fqge converges to the ground value, and the oracle and vqge give it
        within their tolerances."""
        problem, ground = scaled_pencil(1.7e308, 1.7e308)
        path = json_file(tmp_path, problem)
        summary = summary_of(capsys, [*argv, path])
        if argv[0] == "fqge":
            assert summary["status"] == "converged"
            assert abs(summary["eigenvalue"] - ground) <= 1e-9 * abs(ground), summary
            return
        rtol = 1e-12 if argv[0] == "reference" else 1e-9
        assert abs(summary["eigenvalues"][0] - ground) <= rtol * abs(ground), summary
