"""Golden digests of what the dense oracle prints: the stdout of ``geig
reference`` and the ``geig fqge`` summary on the benchmark's Ising pencils
and on a pencil with a degenerate ground level.  ``fidelity_ground`` is
left out of the fqge digest and held to 1e-12 of its recorded value
instead, since it is the one field that reads the eigenvectors, whose
products may round differently for fewer columns.  The oracle's own Sturm
counts decide every eigenvalue, so neither its probe schedule nor the
columns its vector stage builds may move these bytes; a rounding change
anywhere in the oracle shows up here.

The runs are made in one child process on one BLAS thread: the
Householder reduction's products at 10 qubits round differently on one
OpenBLAS thread and on two, and so do the eigenvalues the oracle prints."""

import contextlib
import functools
import hashlib
import io
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest

from conftest import BENCH_PROBLEMS, DEGENERATE_GROUND
from geig.cli import main

ISING = [(n, s) for n in range(2, 9) for s in (1, 2, 3)] + [(9, 1), (10, 1)]
DEGENERATE_RUNS = [(initial, line_search) for initial in (0, 1) for line_search in (False, True)]

# (n, seed) -> digests of ``geig reference`` stdout and of the ``geig fqge
# --line-search`` summary, and that run's ``fidelity_ground``, on
# ``ising_problem(n, seed)`` (recorded at bae9415 with numpy 2.4 and
# OpenBLAS 0.3.31 on x86-64, one BLAS thread; a BLAS kernel that rounds the
# reduction differently moves them, and they are then recorded again at
# that commit)
GOLDEN_ISING = {
    (2, 1): ('6a12ca9f0f15de54', '6cb8b965b62d88be', 1.0),
    (2, 2): ('f05993dc822a0871', 'dcc37beefc97cf8b', 1.0),
    (2, 3): ('baac13266b9e642d', '77d72f70ffeb0353', 1.0),
    (3, 1): ('fa9a7160319b46cf', '5036e4ecc49a1fee', 0.9999999999999996),
    (3, 2): ('764960c302de80b6', '74ab9c9300f30b13', 1.0),
    (3, 3): ('022ac4084419a1c1', '61b1133229958333', 0.9999999999999996),
    (4, 1): ('54ac4d2d8fc701a6', 'c2437057a6bd37db', 0.9999999999999991),
    (4, 2): ('10a30c953852d860', 'ce1cd61f58e46e58', 0.9999999999999996),
    (4, 3): ('5226757f275e8a64', '1cde6e378fe9c620', 0.9999999999999996),
    (5, 1): ('52fc3b1e2a87ed4c', '2dfa035246a52869', 0.999999999999998),
    (5, 2): ('035367f658aa9243', 'e6627b569664c38b', 0.9999999999999989),
    (5, 3): ('e290f75fd64185c2', '307602e6b73de9fb', 0.9999999999999987),
    (6, 1): ('cacd0acf7ef166c3', '9fe838c5024a5aa4', 0.999999999999998),
    (6, 2): ('b7a604abeec6a3f4', '13a2e8cac297db5e', 0.9999999999999976),
    (6, 3): ('d07939af39382aff', '07d18e2f62c6a353', 0.9999999999999982),
    (7, 1): ('7b94c757e5d4a9bd', '4707e514d21813e6', 0.9999999999999973),
    (7, 2): ('57adffb0b8637464', '15145a836bf4c2de', 0.9999999999999973),
    (7, 3): ('f8f2c3fa896be1d2', '300fa254ab7cc537', 0.9999999999999962),
    (8, 1): ('b2dd244a7efe9ae9', 'a6b8f9b4faa917a6', 0.9999999999999958),
    (8, 2): ('7cec4819323bfcc5', '45b0b47b36141490', 0.9999999999999958),
    (8, 3): ('efb80ab5119bc4f6', '9c34692f6b21a181', 0.9999999999999956),
    (9, 1): ('98b889ec5ef89204', '944082d3e5c48ae8', 0.9999999999999942),
    (10, 1): ('da328edabc6230bb', 'aa7d7343907c4082', 0.999999999999994),
}

# (initial, line search) -> digest of the ``geig fqge`` summary on
# DEGENERATE_GROUND, and its ``fidelity_ground`` (recorded as GOLDEN_ISING)
GOLDEN_DEGENERATE = {
    (0, False): ('89798cab061ca825', 1.0),
    (0, True): ('8eddd0ecfe26903c', 1.0),
    (1, False): ('3e8de1386b27ce56', 1.0),
    (1, True): ('754fa2ec3979c7f9', 1.0),
}


def stdout_of(argv) -> str:
    """What ``geig <argv>`` prints on stdout in process; it must exit 0."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert main(argv) == 0
    return out.getvalue()


def digest(text: str) -> str:
    """The first 16 hex digits of the SHA-256 of ``text``."""
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def fqge_record(argv) -> list:
    """The digest of the fqge summary without ``fidelity_ground``, and that
    field's value."""
    summary = json.loads(stdout_of(["fqge", *argv]))
    fidelity = summary["reference"].pop("fidelity_ground")
    return [digest(json.dumps(summary)), fidelity]


def records() -> dict:
    """Every record of GOLDEN_ISING and GOLDEN_DEGENERATE, in process, keyed
    by the ``str`` of its key."""
    out = {}
    with tempfile.TemporaryDirectory() as tmp:
        path = str(Path(tmp) / "problem.json")
        for n, seed in ISING:
            Path(path).write_text(json.dumps(BENCH_PROBLEMS.ising_problem(n, seed)))
            reference = digest(stdout_of(["reference", path]))
            out[str((n, seed))] = [reference, *fqge_record([path, "--line-search"])]
        Path(path).write_text(json.dumps(DEGENERATE_GROUND))
        for initial, line_search in DEGENERATE_RUNS:
            argv = [path, "--initial", str(initial)] + ["--line-search"] * line_search
            out[str((initial, line_search))] = fqge_record(argv)
    return out


@functools.cache
def recorded() -> dict:
    """``records()`` from a child process with one BLAS thread."""
    here = Path(__file__).resolve().parent
    script = (
        f"import json, sys; sys.path.insert(0, {str(here)!r}); "
        f"import {Path(__file__).stem} as t; print(json.dumps(t.records()))"
    )
    one = {name: "1" for name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")}
    proc = subprocess.run(
        [sys.executable, "-c", script], capture_output=True, text=True, env={**os.environ, **one}
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout)


class TestOracleBytes:
    @pytest.mark.parametrize("n, seed", ISING)
    def test_ising_pencils(self, n, seed):
        want_reference, want_fqge, want_fidelity = GOLDEN_ISING[n, seed]
        reference, fqge, fidelity = recorded()[str((n, seed))]
        assert (reference, fqge) == (want_reference, want_fqge)
        assert abs(fidelity - want_fidelity) <= 1e-12

    @pytest.mark.parametrize("key", DEGENERATE_RUNS, ids=lambda key: f"{key[0]}-{key[1]}")
    def test_degenerate_ground_level(self, key):
        want, want_fidelity = GOLDEN_DEGENERATE[key]
        got, fidelity = recorded()[str(key)]
        assert got == want
        assert abs(fidelity - want_fidelity) <= 1e-12
