"""Command-line front end: problem-file parsing, the vqge / fqge /
reference / decompose subcommands, JSON summaries on stdout, optional CSV
traces, and a single-line JSON error contract on stderr."""

from __future__ import annotations

import argparse
import functools
import json
import math
import os
import sys
from importlib import resources
from pathlib import Path

import numpy as np

from .fqge import FqgeConfig, run_fqge
from .measurement import shot_allocation
from .pauli import DEFAULT_DECOMPOSE_TOL, DEFAULT_DENSE_CAP, PauliSum, decompose
from .pencil import Pencil
from .reference import count_distinct, distinct_values, generalized_eig, ground_multiplicity
from .statevector import basis_state
from .vqge import OptConfig, SolveConfig, check_levels, solve_spectrum

_DEFAULT_ORACLE_CAP = 10


def bundled_problem_path() -> Path:
    """Filesystem path of the packaged two-qubit demonstration pencil."""
    return Path(str(resources.files("geig").joinpath("problems", "demo_2q.json")))


def _oracle_cap() -> int:
    raw = os.environ.get("GEIG_DENSE_CAP", "")
    if not raw:
        return _DEFAULT_ORACLE_CAP
    try:
        cap = int(raw)
    except ValueError:
        raise ValueError(f"GEIG_DENSE_CAP must be an integer, got {raw!r}") from None
    if not 0 <= cap <= DEFAULT_DENSE_CAP:
        # pauli.DEFAULT_DENSE_CAP guards the allocation of a 2^n x 2^n matrix
        raise ValueError(f"GEIG_DENSE_CAP must be between 0 and {DEFAULT_DENSE_CAP}, got {cap}")
    return cap


def _number(value, where) -> float:
    """The one number rule of problem and matrix files: an int or a float,
    not a bool, that converts to a finite float.  ``where()`` names the
    value in the message; it is called only for a value that fails."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ValueError(f"{where()} must be a JSON number, got {value!r}")
    try:
        x = float(value)
    except OverflowError:  # an integer literal beyond the float range
        x = np.inf if value > 0 else -np.inf
    if not np.isfinite(x):
        raise ValueError(f"{where()} is non-finite as a float: {x}")
    return x


def _parse_matrix(rows, name: str) -> np.ndarray:
    """Rows of equal length whose entries are [re, im] pairs of numbers;
    ``name`` names the matrix in a message about one entry."""
    if not isinstance(rows, list) or not rows:
        raise ValueError("dense matrix must be a non-empty list of rows")
    width = len(rows[0]) if isinstance(rows[0], list) else -1
    pairs = [c for row in rows if isinstance(row, list) and len(row) == width for c in row]
    parts = [x for c in pairs if isinstance(c, list) and len(c) == 2 for x in c]
    if len(parts) != 2 * len(rows) * width:
        raise ValueError("dense matrix entries must be [re, im] pairs in row-major order")
    # finite floats pass in one check; else the number rule names the first bad part
    if {type(x) for x in parts} != {float} or not np.isfinite(np.array(parts)).all():
        for k, x in enumerate(parts):
            _number(x, lambda: f"{name} entry {divmod(k // 2, width)}")
    # the float pairs (re, im) in row-major order are the complex entries' bytes
    return np.array(parts, dtype=float).view(complex).reshape(len(rows), width)


def _parse_terms(entries, n: int, side: str) -> PauliSum:
    if not isinstance(entries, list) or not entries:
        raise ValueError(f"{side!r} must be a non-empty list of terms")
    terms = []
    for k, entry in enumerate(entries):
        if not isinstance(entry, dict) or set(entry) != {"coeff", "ops"}:
            raise ValueError(
                f"each {side!r} term needs exactly the keys 'coeff' and 'ops'"
            )
        ops = entry["ops"]
        if not isinstance(ops, str):
            raise ValueError(f"{side!r} term {k}: 'ops' must be a JSON string, got {ops!r}")
        stray = [ch for ch in ops if ch not in "IXYZ"]
        if len(ops) != n or stray:
            which = f" ({stray[0]!r} is not one)" if stray else ""
            raise ValueError(
                f"{side!r} term {k}: 'ops' must be n = {n} characters from I, X, Y, Z,"
                f" got {ops!r}{which}"
            )
        terms.append((_number(entry["coeff"], lambda: f"{side!r} term {k}: 'coeff'"), ops))
    return PauliSum(n, terms)


def _decompose_side(m: np.ndarray, side: str) -> PauliSum:
    """``decompose`` of a dense side divided by the power of two nearest
    its largest |entry|, with the kept coefficients scaled back.  Both
    scalings are exact, so the tolerance and the Hermitian checks act
    relative to the side, and a side of small entries keeps its terms."""
    frac, exp = math.frexp(float(np.max(np.abs(m))))
    exp -= int(frac < math.sqrt(0.5))
    try:
        unit = decompose(np.ldexp(m.view(np.float64), -exp).view(np.complex128))
    except ValueError as err:
        raise ValueError(f"'{side}_dense': {err}") from None
    return PauliSum(unit.n, [(math.ldexp(c, exp), p) for c, p in unit.terms])


def parse_problem(obj) -> Pencil:
    """Build a pencil from a problem dict: qubit count ``n`` plus, for each
    side, either a term list ("A") or a dense matrix ("A_dense")."""
    if not isinstance(obj, dict):
        raise ValueError("problem file must contain a JSON object")
    n = obj.get("n")
    if not isinstance(n, int) or isinstance(n, bool) or n < 1:
        raise ValueError(f"'n' must be a positive integer, got {n!r}")
    sides = []
    for side in ("A", "B"):
        has_terms = side in obj
        has_dense = f"{side}_dense" in obj
        if has_terms == has_dense:
            raise ValueError(
                f"problem must supply exactly one of {side!r} or '{side}_dense'"
            )
        if has_terms:
            sides.append(_parse_terms(obj[side], n, side))
        else:
            m = _parse_matrix(obj[f"{side}_dense"], f"'{side}_dense'")
            if m.shape != (2**n, 2**n):
                raise ValueError(
                    f"'{side}_dense' has shape {m.shape}, expected {(2**n, 2**n)}"
                )
            sides.append(_decompose_side(m, side))
    return Pencil(sides[0], sides[1])


def serialize_problem(pencil: Pencil) -> dict:
    """Problem dict in canonical term order; parsing it back reproduces the
    pencil exactly."""
    return {
        "n": pencil.n,
        "A": [{"coeff": c, "ops": p.ops} for c, p in pencil.A.terms],
        "B": [{"coeff": c, "ops": p.ops} for c, p in pencil.B.terms],
    }


def _load_problem(args) -> Pencil:
    path = Path(args.problem) if args.problem else bundled_problem_path()
    return parse_problem(json.loads(path.read_text()))


def _reference_or_none(pencil: Pencil):
    """The dense oracle's decomposition, or None when the pencil is above
    the CLI cap: the one place the cap is compared with ``pencil.n``."""
    if pencil.n > _oracle_cap():
        return None
    return generalized_eig(pencil)


def _write_trace(path: str, header: str, rows) -> None:
    """CSV trace: the header, then one line per row of values; floats take
    17 significant digits, so they read back exactly."""
    lines = [header]
    for row in rows:
        cells = (f"{v:.17g}" if isinstance(v, float) else str(v) for v in row)
        lines.append(",".join(cells))
    Path(path).write_text("\n".join(lines) + "\n")


def _check_finite(value, path: str = "") -> None:
    """Raise ValueError naming the first NaN or inf in a summary by its
    field path, such as ``reference.abs_error`` or ``eigenvalues[1]``."""
    if isinstance(value, dict):
        for key, item in value.items():
            _check_finite(item, f"{path}.{key}" if path else key)
    elif isinstance(value, list):
        for i, item in enumerate(value):
            _check_finite(item, f"{path}[{i}]")
    elif isinstance(value, float) and not np.isfinite(value):
        raise ValueError(f"summary field {path!r} is {value}, not a finite number")


def cmd_vqge(args) -> dict:
    pencil = _load_problem(args)
    # the options, --r and the shot plan are checked before the oracle
    # runs, so a bad one fails at once
    config = SolveConfig(
        layers=args.layers,
        restarts=args.restarts,
        seed=args.seed,
        entangler=args.entangler,
        opt=OptConfig(lr=args.lr, iters=args.iters, method=args.method),
        shots=args.shots,
    )
    r = args.r
    if r is not None:
        check_levels(r, pencil.n)
    plan = None
    if args.target_eps is not None:
        alphas = [abs(c) for c in pencil.A.coeffs]
        betas = [abs(c) for c in pencil.B.coeffs]
        plan = shot_allocation(alphas, betas, betas, args.target_eps)
    ref = _reference_or_none(pencil)
    if r is None:
        if ref is None:
            raise ValueError(
                "--r is required when the problem exceeds the dense reference cap"
            )
        r = count_distinct(ref.eigenvalues)
    levels = solve_spectrum(pencil, r, config)
    summary = {
        "command": "vqge",
        "n": pencil.n,
        "r": r,
        "layers": args.layers,
        "restarts": args.restarts,
        "iters": args.iters,
        "seed": args.seed,
        "eigenvalues": [level.eigenvalue for level in levels],
        "levels": [
            {
                "eigenvalue": level.eigenvalue,
                "objective": level.objective,
                "best_restart": level.best_restart,
            }
            for level in levels
        ],
    }
    if ref is not None:
        # Python floats: a distance past the float range is inf, with no warning
        found = [float(level.eigenvalue) for level in levels]
        distinct = distinct_values(ref.eigenvalues)
        if len(found) == len(distinct):
            errors = [abs(f - lam) for f, lam in zip(found, distinct)]
        else:
            errors = [min(abs(f - lam) for lam in ref.eigenvalues.tolist()) for f in found]
        summary["reference"] = {
            "eigenvalues": list(ref.eigenvalues),
            "distinct": distinct,
            "abs_errors": errors,
            "max_abs_error": max(errors),
        }
    if plan is not None:
        families = zip("ABO", (alphas, betas, betas), (plan.m_a, plan.m_b, plan.m_o))
        terms = [
            {"label": f"{label}[{k}]", "coeff": c, "sigma": 1.0, "shots": m}
            for label, coeffs, counts in families
            for k, (c, m) in enumerate(zip(coeffs, counts))
        ]
        summary["shot_allocation"] = {
            "terms": terms,
            "total": plan.total,
            "eps": plan.eps,
        }
    if args.trace:
        steps = (
            (idx, restart, s, *row)
            for idx, level in enumerate(levels, start=1)
            for restart, trace in enumerate(level.traces)
            for s, row in enumerate(zip(trace.losses.tolist(), trace.grad_norms.tolist()))
        )
        _write_trace(args.trace, "level,restart,step,loss,grad_norm", steps)
        summary["trace_path"] = args.trace
    return summary


def cmd_fqge(args) -> dict:
    pencil = _load_problem(args)
    cfg = FqgeConfig(
        delta=args.delta,
        line_search=args.line_search,
        epsilon=args.epsilon,
        max_iters=args.max_iters,
        noise_sigma=args.noise_sigma,
        seed=args.seed,
    )
    initial = basis_state(pencil.n, args.initial)
    result = run_fqge(pencil, initial, cfg)
    rows = result.iterates
    d_max = max(row.lcu_terms for row in rows)
    ancillas = int(np.ceil(np.log2(d_max))) if d_max > 1 else 0
    cost = d_max * ancillas * (pencil.n + 1)
    summary = {
        "command": "fqge",
        "n": pencil.n,
        "delta": args.delta,
        "line_search": args.line_search,
        "epsilon": args.epsilon,
        "max_iters": args.max_iters,
        "noise_sigma": args.noise_sigma,
        "seed": args.seed,
        "initial": args.initial,
        "status": result.status,
        "iterations": len(rows) - 1,
        "eigenvalue": result.eigenvalue,
        "residual": rows[-1].residual,
        "success_prob_min": min(row.success_prob for row in rows),
        "lcu_terms_max": d_max,
        "gate_cost_estimate": (
            f"~{cost} elementary gates per iteration "
            f"(d={d_max} unitaries, {ancillas} ancilla qubits)"
        ),
    }
    ref = _reference_or_none(pencil)
    if ref is not None:
        # Python floats: a distance past the float range is inf, with no warning
        value = float(result.eigenvalue)
        nearest = min(ref.eigenvalues.tolist(), key=lambda lam: abs(value - lam))
        k = ground_multiplicity(ref.eigenvalues)
        vecs = ref.leading_eigenvectors(k)  # the ground level's columns alone
        if k == 1:
            ground = vecs[:, 0]
            # over the power of two of its largest entry first, which is
            # exact, so the norm's squares stay normal at every scale of B
            ground = ground * math.ldexp(1.0, -math.frexp(float(np.max(np.abs(ground))))[1])
            fidelity = abs(np.vdot(ground / np.linalg.norm(ground), result.state.amps)) ** 2
        else:  # the weight on the whole degenerate ground level, from an orthonormal basis
            basis = np.linalg.qr(vecs)[0]
            fidelity = min(1.0, np.linalg.norm(basis.conj().T @ result.state.amps) ** 2)
        summary["reference"] = {
            "nearest_eigenvalue": nearest,
            "abs_error": abs(value - nearest),
            "fidelity_ground": float(fidelity),
        }
    if args.trace:
        header = "s,value,residual,delta_re,delta_im,success_prob,C,d"
        iterates = (
            (row.s, row.value, row.residual, row.delta_used.real, row.delta_used.imag,
             row.success_prob, row.lcu_norm_c, row.lcu_terms)
            for row in rows
        )
        _write_trace(args.trace, header, iterates)
        summary["trace_path"] = args.trace
    return summary


def cmd_reference(args) -> dict:
    pencil = _load_problem(args)
    ref = _reference_or_none(pencil)
    if ref is None:
        raise ValueError(
            f"problem has n={pencil.n} qubits, above the dense reference cap {_oracle_cap()}"
        )
    return {
        "command": "reference",
        "n": pencil.n,
        "eigenvalues": list(ref.eigenvalues),
        "eta1": ref.eta1,
        "distinct": count_distinct(ref.eigenvalues),
    }


def cmd_decompose(args) -> dict:
    obj = json.loads(Path(args.matrix).read_text())
    if isinstance(obj, dict):
        if "matrix" not in obj:
            raise ValueError("decompose input object needs a 'matrix' key")
        obj = obj["matrix"]
    m = _parse_matrix(obj, "'matrix'")
    s = decompose(m, tol=args.tol)
    return {
        "command": "decompose",
        "n": s.n,
        "terms": [{"coeff": c, "ops": p.ops} for c, p in s.terms],
    }


@functools.cache  # built once per process: parsing leaves the tree as it was
def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="geig",
        description="Generalized eigensolvers for Pauli-sum operator pencils.",
    )
    sub = ap.add_subparsers(dest="command", required=True)
    problem = argparse.ArgumentParser(add_help=False)
    problem.add_argument(
        "problem",
        nargs="?",
        help="problem JSON path (default: the bundled two-qubit pencil)",
    )
    trace = argparse.ArgumentParser(add_help=False)
    trace.add_argument("--trace", metavar="PATH", help="write a per-step CSV trace")

    pv = sub.add_parser("vqge", parents=[problem, trace], help="variational spectrum recovery")
    pv.add_argument("--r", type=int, default=None, help="number of levels to recover")
    pv.add_argument("--layers", type=int, default=2)
    pv.add_argument("--restarts", type=int, default=5)
    pv.add_argument("--iters", type=int, default=200)
    pv.add_argument("--lr", type=float, default=0.1)
    pv.add_argument("--method", choices=("adam", "gd"), default="adam")
    pv.add_argument("--seed", type=int, default=0)
    pv.add_argument("--entangler", default="linear")
    pv.add_argument("--shots", type=int, default=0)
    pv.add_argument("--target-eps", type=float, default=None, dest="target_eps")
    pv.set_defaults(func=cmd_vqge)

    pf = sub.add_parser("fqge", parents=[problem, trace], help="iterative LCU descent")
    pf.add_argument("--delta", type=float, default=0.1)
    pf.add_argument("--line-search", action="store_true", dest="line_search")
    pf.add_argument("--epsilon", type=float, default=1e-8)
    pf.add_argument("--max-iters", type=int, default=200, dest="max_iters")
    pf.add_argument("--noise-sigma", type=float, default=0.0, dest="noise_sigma")
    pf.add_argument("--seed", type=int, default=None)
    pf.add_argument(
        "--initial", type=int, default=0, help="basis index of the start state"
    )
    pf.set_defaults(func=cmd_fqge)

    pr = sub.add_parser("reference", parents=[problem], help="dense reference eigendecomposition")
    pr.set_defaults(func=cmd_reference)

    pd = sub.add_parser("decompose", help="Pauli decomposition of a dense matrix")
    pd.add_argument("matrix", help="JSON file with a row-major [re, im] matrix")
    pd.add_argument("--tol", type=float, default=DEFAULT_DECOMPOSE_TOL)
    pd.set_defaults(func=cmd_decompose)
    return ap


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if getattr(args, "trace", None):
            # created before the solve, so a bad path fails at once
            Path(args.trace).write_text("")
        # a NaN or inf anywhere in the summary is an error, not output
        summary = args.func(args)
        _check_finite(summary)
        text = json.dumps(summary, allow_nan=False)
    except Exception as exc:
        print(
            json.dumps({"error": type(exc).__name__, "message": str(exc)}),
            file=sys.stderr,
        )
        return 1
    try:
        print(text, flush=True)
    except BrokenPipeError:
        # the reader closed the pipe early (``geig vqge | head``): stdout
        # goes to devnull, so the flush at exit does not raise again
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
