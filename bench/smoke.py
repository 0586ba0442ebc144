"""Shape check of the benchmark at its smallest size; it checks no timings.

    python3 bench/smoke.py

Runs every workload with ``run.py --smoke`` untraced and traced, and checks
that the last output line has exactly the keys the benchmark contract names,
that the metrics are exactly those listed in BENCHMARK.json with their units,
that every solve passed its correctness gate, and that the traced run saw
calls in the layers each workload exists to exercise.  Last, it checks that
run.py fails without printing a result when the package sources are absent.
Exits non-zero on the first problem found.
"""

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
TIMEOUT_S = 600

# layers each workload exists to exercise, at the --smoke size (one level)
EXPECTED_CALLS = {
    "vqge-demo2q": (
        "pauli.apply_sum",
        "statevector.apply_ry",
        "statevector.apply_cnot",
        "ansatz.apply_ansatz",
        "vqge.optimize",
        "vqge.loss_f",
        "vqge.grad_f",
    ),
    "vqge-shots2q": ("measurement.hadamard_test", "pauli.apply_string", "vqge.grad_f"),
    "fqge-ising11": (
        "pauli.apply_sum",
        "fqge.run_fqge",
        "fqge.loss_state",
        "fqge.residual",
        "fqge.gradient_direction",
        "fqge.line_search",
        "fqge.build_lcu",
        "fqge.apply_g",
    ),
    "reference-ising7": (
        "pauli.dense_matrix",
        "reference.generalized_eig",
        "reference.hermitian_eig",
        "reference.cholesky",
    ),
}


def fail(message: str) -> None:
    sys.exit(f"smoke: {message}")


def run(cwd: Path, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "bench/run.py", *args],
        cwd=cwd,
        capture_output=True,
        text=True,
        timeout=TIMEOUT_S,
    )


def check_line(name: str, line: dict, declared: list) -> None:
    if set(line) != {"correct", "attempted", "failed", "metrics"}:
        fail(f"{name}: result keys {sorted(line)}")
    if line["correct"] is not True or line["failed"] != 0:
        fail(f"{name}: {line['failed']} of {line['attempted']} solves failed")
    if not (isinstance(line["attempted"], int) and line["attempted"] >= 1):
        fail(f"{name}: attempted {line['attempted']!r}")
    units = {m["name"]: m["unit"] for m in declared}
    got = {k: m["unit"] for k, m in line["metrics"].items()}
    if got != units:
        fail(f"{name}: metrics differ from BENCHMARK.json: {sorted(set(got) ^ set(units))}")
    for key, metric in line["metrics"].items():
        value = metric["value"]
        if set(metric) != {"value", "unit"} or not isinstance(value, (int, float)):
            fail(f"{name}: metric {key} is {metric!r}")
        if not math.isfinite(value):
            fail(f"{name}: metric {key} is not finite")


def main() -> None:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    workloads = [w["name"] for w in spec["workloads"]]
    if set(workloads) != set(EXPECTED_CALLS):
        fail(f"BENCHMARK.json workloads {workloads}")
    for trace, declared in ((0, spec["end_to_end"]), (1, spec["per_layer"])):
        proc = run(ROOT, "--workload", "all", "--smoke", "--seconds", "1", "--trace", str(trace))
        if proc.returncode != 0:
            fail(f"run.py --trace {trace} exited {proc.returncode}: {proc.stderr[-2000:]}")
        lines = json.loads(proc.stdout.splitlines()[-1])
        for name in workloads:
            check_line(f"{name} trace {trace}", lines[name], declared)
            if trace:
                metrics = lines[name]["metrics"]
                idle = [f for f in EXPECTED_CALLS[name] if metrics[f"{f}.calls"]["value"] <= 0]
                if idle:
                    fail(f"{name}: no traced calls of {idle}")

    stripped = ROOT / ".bench_out" / "stripped"
    shutil.rmtree(stripped, ignore_errors=True)
    shutil.copytree(BENCH, stripped / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", stripped)
    proc = run(stripped, "--workload", workloads[0], "--seed", "1", "--seconds", "1")
    shutil.rmtree(stripped)
    if proc.returncode == 0 or proc.stdout.strip():
        fail("run.py succeeded or printed a result without the package sources")
    print(f"smoke: ok ({len(workloads)} workloads, traced and untraced)")


if __name__ == "__main__":
    main()
