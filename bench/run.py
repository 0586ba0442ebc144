"""End-to-end and per-layer benchmark of the ``geig`` command line.

Run from a checkout of the repository:

    python3 bench/run.py --workload vqge-demo2q --seed 1 --seconds 25 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 25 --trace 0

One run generates the workload's problem from ``--seed``, computes its exact
spectrum with numpy, times ``SETUP_REPEATS`` fresh interpreters from start
to a loaded pencil, then starts one worker process that loads the pencil and
calls ``geig.cli.main`` one solve at a time for ``--seconds`` seconds, with
one BLAS thread unless the environment sets another count.  Every solve's
JSON summary is checked against the exact spectrum.

Times are reported in reference seconds (``hostspeed``): wall seconds scaled
by the host speed sampled while they ran, because the shared host's speed
swings too far between runs for wall seconds to hold a regression bound.
The wall-clock values are printed and recorded next to them as
``solve_wall_s`` and ``setup_wall_s``.

With ``--trace 0`` the run reports the end-to-end metrics: median solve
seconds over solves that passed, median set-up seconds, and the worker's
peak resident memory.  With ``--trace 1`` the worker spends half the budget
untraced and half with ``tracer.Tracer`` installed, and the run reports
per-layer call counts and self times per solve and the tracing overhead.

The last line of stdout is ``{"correct", "attempted", "failed", "metrics"}``;
the lines before it give each metric with its unit and sample count, the
failure fraction, and a ``meta`` line.  The full record goes to
``.bench_out/``.  ``--smoke`` runs the smallest size of each workload, for
``smoke.py``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
SETUP_REPEATS = 5
SETUP_TIMEOUT_S = 60
SOLVE_GRACE_S = 100  # a worker running this long past its budget is killed
BLAS_ENV = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
)


def worker_blas_env() -> dict:
    """BLAS thread settings of the measured process: one thread unless the
    caller set otherwise, so a solve runs on the one core whose speed the
    worker samples and leaves the other to the rest of the machine."""
    return {k: os.environ.get(k, "1") for k in BLAS_ENV}


def start_worker(config: dict, timeout: float) -> tuple[float, dict]:
    """Run worker.py; returns (wall seconds from start to loaded pencil,
    output)."""
    paths = [str(SRC)] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(paths), **worker_blas_env())
    started = time.monotonic()
    proc = subprocess.run(
        [sys.executable, str(BENCH / "worker.py"), json.dumps(config)],
        capture_output=True,
        text=True,
        timeout=timeout,
        env=env,
        cwd=ROOT,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"worker exited {proc.returncode}: {proc.stderr.strip()[-2000:]}")
    out = json.loads(proc.stdout.splitlines()[-1])
    return out["loaded"] - started, out


def git_sha():
    if not (ROOT / ".git").exists():
        return None
    try:
        proc = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return proc.stdout.strip() or None


def source_digest() -> str:
    """sha256 over the package sources, which identifies the code measured
    where no git metadata is available."""
    h = hashlib.sha256()
    for path in sorted((SRC / "geig").rglob("*")):
        if path.is_file() and path.suffix in (".py", ".json"):
            h.update(path.relative_to(SRC).as_posix().encode())
            h.update(path.read_bytes())
    return h.hexdigest()


def meta(seed: int) -> dict:
    import numpy as np

    return {
        "git_sha": git_sha(),
        "src_sha256": source_digest(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "blas_env": worker_blas_env(),
        "machine": platform.machine(),
        "seed": seed,
    }


def check(workload, solve: dict, problem: dict, spectrum) -> list:
    if solve["code"] != 0 or solve["summary"] is None:
        return [f"exit code {solve['code']}: {solve['stderr'].strip()}"]
    try:
        return workload.check(solve["summary"], problem, spectrum)
    except (KeyError, TypeError, ValueError) as exc:
        return [f"malformed summary: {type(exc).__name__}: {exc}"]


def median_layers(solves: list) -> dict:
    return {
        key: statistics.median(s["layers"][key] for s in solves)
        for key in solves[0]["layers"]
    }


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def per_layer_metrics(traced: list, untraced: list) -> dict:
    """name -> (value, unit) for every per-layer metric, from the traced
    solves' medians; ratios come with their numerator and denominator."""
    layers = median_layers(traced)
    metrics = {}
    for key, value in layers.items():
        if key.startswith("cli.main"):
            continue
        if key.endswith(".calls"):
            metrics[key] = (value, "count")
        elif key.endswith(".self_s"):
            metrics[key] = (value, "s")
    metrics["cli.self_s"] = (layers["cli.main.self_s"], "s")

    amps = layers["pauli.apply_sum.term_amps"]
    metrics["pauli.apply_sum.term_amps"] = (amps, "count")
    metrics["pauli.apply_sum.term_amps_per_s"] = (
        _ratio(amps, layers["pauli.apply_sum.self_s"]),
        "1/s",
    )

    grads = layers["vqge.grad_f.calls"] + layers["vqge.grad_fj.calls"]
    metrics["vqge.sims_per_grad"] = (_ratio(layers["vqge.grad_sims"], grads), "ratio")
    metrics["vqge.sims_per_grad.sims"] = (layers["vqge.grad_sims"], "count")
    metrics["vqge.sims_per_grad.grads"] = (grads, "count")

    iterations = statistics.median((s["summary"] or {}).get("iterations", 0) for s in traced)
    metrics["fqge.iterations"] = (iterations, "count")
    metrics["fqge.apply_sum_per_iter"] = (
        _ratio(layers["fqge.apply_sum_calls"], iterations),
        "ratio",
    )
    metrics["fqge.apply_sum_per_iter.apply_sums"] = (layers["fqge.apply_sum_calls"], "count")
    useful = layers["fqge.post_selection.useful"]
    attempted = layers["fqge.post_selection.attempted"]
    metrics["fqge.success_prob_min"] = (_ratio(useful, attempted), "ratio")
    metrics["fqge.success_prob_min.useful"] = (useful, "norm2")
    metrics["fqge.success_prob_min.attempted"] = (attempted, "norm2")

    traced_s = statistics.median(s["seconds"] for s in traced)
    untraced_s = statistics.median(s["seconds"] for s in untraced)
    metrics["trace.overhead_s"] = (traced_s - untraced_s, "s")
    metrics["trace.solve_s"] = (traced_s, "s")
    metrics["trace.untraced_solve_s"] = (untraced_s, "s")
    return metrics


def run_workload(workload, seed: int, seconds: float, trace: bool, smoke: bool) -> dict:
    import hostspeed
    from geig.cli import bundled_problem_path
    from problems import dense_spectrum, ising_problem

    OUT.mkdir(exist_ok=True)
    qubits = workload.smoke_qubits if smoke else workload.qubits
    argv = list(workload.smoke_argv if smoke else workload.argv)
    path = None
    if qubits is None:
        problem = json.loads(bundled_problem_path().read_text())
    else:
        problem = ising_problem(qubits, seed)
        path = OUT / f"problem-{workload.name}-seed{seed}.json"
        path.write_text(json.dumps(problem))
        argv.append(str(path))
    spectrum = dense_spectrum(problem, workload.needs_eta1)

    setup = {"mode": "setup", "problem": path and str(path)}
    setups = []  # (wall seconds, output)
    if not trace:
        setups = [start_worker(setup, SETUP_TIMEOUT_S) for _ in range(SETUP_REPEATS)]
    spans = OUT / f"spans-{workload.name}-seed{seed}.npz"
    config = dict(setup, mode="solve", argv=argv, seconds=seconds, trace=trace, spans=str(spans))
    loaded_s, out = start_worker(config, seconds + SOLVE_GRACE_S)
    setups.append((loaded_s, out))
    setup_wall_s = [w for w, _ in setups]
    setup_s = [w * hostspeed.speed(o["load_samples"]) for w, o in setups]

    solves = out["solves"]
    for solve in solves:
        solve["failures"] = check(workload, solve, problem, spectrum)
    passed = [s for s in solves if not s["failures"]] or solves
    wall = {}
    if trace:
        traced = [s for s in solves if s["traced"]]
        metrics = per_layer_metrics(traced, [s for s in solves if not s["traced"]])
        counts = {name: len(traced) for name in metrics}
        counts["trace.untraced_solve_s"] = len(solves) - len(traced)
    else:
        metrics = {
            "solve_s": (statistics.median(s["seconds"] for s in passed), "s"),
            "setup_s": (statistics.median(setup_s), "s"),
            "peak_rss_mb": (out["peak_rss_mb"], "MB"),
        }
        counts = {"solve_s": len(passed), "setup_s": len(setup_s), "peak_rss_mb": 1}
        wall = {
            "solve_wall_s": (statistics.median(s["wall_s"] for s in passed), "s", len(passed)),
            "setup_wall_s": (statistics.median(setup_wall_s), "s", len(setup_s)),
        }
    failed = sum(1 for s in solves if s["failures"])
    record = {
        "workload": workload.name,
        "trace": trace,
        "meta": meta(seed),
        "correct": failed == 0,
        "attempted": len(solves),
        "failed": failed,
        "fail_frac": failed / len(solves),
        "metrics": {k: {"value": v, "unit": u, "n": counts[k]} for k, (v, u) in metrics.items()},
        "wall": {k: {"value": v, "unit": u, "n": n} for k, (v, u, n) in wall.items()},
        "solve_seconds": [s["seconds"] for s in solves],
        "solve_wall_seconds": [s["wall_s"] for s in solves],
        "solve_speed": [s["speed"] for s in solves],
        "setup_seconds": setup_s,
        "setup_wall_seconds": setup_wall_s,
        "failures": [f for s in solves for f in s["failures"]],
        "traced_bindings": out.get("bindings"),
        "missing_functions": out.get("missing"),
    }
    name = f"result-{workload.name}-seed{seed}-trace{int(trace)}.json"
    (OUT / name).write_text(json.dumps(record, indent=1))
    return record


def report(record: dict) -> None:
    print(f"workload {record['workload']} seed {record['meta']['seed']} trace {int(record['trace'])}")
    for name, m in (record["metrics"] | record["wall"]).items():
        print(f"  {name:<40} {m['value']:>16.6g} {m['unit']:<6} (n={m['n']})")
    print(
        f"  {'fail_frac':<40} {record['fail_frac']:>16.6g} {'ratio':<6} "
        f"({record['failed']} of {record['attempted']} solves)"
    )
    for failure in record["failures"][:5]:
        print(f"  FAILED: {failure}")
    if record["missing_functions"]:
        print(f"  not found, reported as zero: {record['missing_functions']}")


def result_line(record: dict) -> dict:
    return {
        "correct": record["correct"],
        "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": {
            k: {"value": m["value"], "unit": m["unit"]} for k, m in record["metrics"].items()
        },
    }


def main(argv=None) -> int:
    from workloads import WORKLOADS

    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=25.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true", help="smallest size of each workload")
    args = ap.parse_args(argv)

    if not (SRC / "geig" / "cli.py").is_file():
        print(f"error: no geig sources under {SRC}; run from a repository checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    lines = {}
    for name in names:
        record = run_workload(WORKLOADS[name], args.seed, args.seconds, bool(args.trace), args.smoke)
        report(record)
        lines[name] = result_line(record)
    print("meta " + json.dumps(record["meta"]))
    print(json.dumps(lines[names[0]] if len(names) == 1 else lines))
    return 0


if __name__ == "__main__":
    sys.exit(main())
