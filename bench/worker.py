"""The measured process: load a pencil the way the CLI does, then run CLI
solves one at a time for a fixed budget of seconds.

Run by ``run.py`` with ``src`` on PYTHONPATH and one JSON argument:

    {"mode": "setup" | "solve", "problem": path or null, "argv": [...],
     "seconds": s, "trace": bool, "spans": path}

It prints one JSON object.  ``loaded`` is the CLOCK_MONOTONIC reading once
``geig`` is imported and the pencil parsed, so the parent, which read the
same clock before starting this interpreter, gets the set-up time.  Nothing
else is imported before that point.  ``load_samples`` are host speed samples
(``hostspeed.block``) taken right after it, which convert the set-up time to
reference seconds.  Each solve is timed under a ``hostspeed.Sampler``.
"""

import json
import sys
import time

from geig import cli

config = json.loads(sys.argv[1])
problem = config["problem"] or cli.bundled_problem_path()
with open(problem) as fh:
    cli.parse_problem(json.load(fh))
loaded = time.monotonic()

import contextlib  # noqa: E402
import io  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
from time import perf_counter  # noqa: E402

import hostspeed  # noqa: E402
from tracer import NAMES, Tracer  # noqa: E402

load_samples = hostspeed.block()


def solve(argv, tracer=None) -> dict:
    """One ``geig`` command through cli.main, with its output captured.
    ``seconds`` is its time in reference seconds, ``wall_s`` in wall seconds
    less the speed sampler's own time."""
    out, err = io.StringIO(), io.StringIO()
    sampler = hostspeed.Sampler()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err), sampler:
        t0 = perf_counter()
        try:
            code = tracer.call_root(cli.main, argv) if tracer else cli.main(argv)
        except SystemExit as exc:  # argparse rejects bad arguments this way
            code = exc.code
        wall = perf_counter() - t0 - sampler.spent
    speed = hostspeed.speed(sampler.samples or [hostspeed.time_snippet()])
    lines = out.getvalue().splitlines()
    try:
        summary = json.loads(lines[-1]) if code == 0 and lines else None
    except json.JSONDecodeError:
        summary = None
    return {
        "seconds": wall * speed,
        "wall_s": wall,
        "speed": speed,
        "code": code,
        "summary": summary,
        "stderr": err.getvalue()[-500:],
        "traced": tracer is not None,
    }


def solves(argv, budget: float, tracer=None) -> list:
    """Solves until another one of median length would pass the budget;
    always at least one."""
    done = []
    start = perf_counter()
    while True:
        done.append(solve(argv, tracer))
        if tracer is not None:
            trace = tracer.collect()
            done[-1]["layers"] = layer_counts(trace, done[-1]["speed"])
            spans.append(trace.arrays())
        elapsed = perf_counter() - start
        if elapsed + statistics.median(s["wall_s"] for s in done) > budget:
            return done


def peak_rss_mb() -> float:
    """High-water resident set of this process's own address space.

    ``ru_maxrss`` would also fold in the parent's peak, which Linux carries
    across the fork and exec that started this interpreter; VmHWM does not.
    """
    try:
        with open("/proc/self/status") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
    except OSError:
        pass
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def layer_counts(trace, speed: float) -> dict:
    """Per-layer counts and self times of one traced solve, with the bases
    of the derived ratios.  Self times are converted to reference seconds
    with the solve's host speed; they include the speed sampler's time in
    whichever span it interrupted, 2 to 3 percent of each."""
    out = {}
    for name in NAMES:
        out[f"{name}.calls"] = trace.calls(name)
        out[f"{name}.self_s"] = trace.self_s(name) * speed
    out["pauli.apply_sum.term_amps"] = sum(trace.observations("pauli.apply_sum"))
    out["vqge.grad_sims"] = trace.calls_under(
        "ansatz.apply_ansatz", ("vqge.grad_f", "vqge.grad_fj")
    )
    out["fqge.apply_sum_calls"] = trace.calls_under("pauli.apply_sum", ("fqge.run_fqge",))
    post = trace.observations("fqge.apply_g")
    useful, attempted = min(post, key=lambda ua: ua[0] / ua[1], default=(0.0, 0.0))
    out["fqge.post_selection.useful"] = useful
    out["fqge.post_selection.attempted"] = attempted
    return out


spans = []
result = {"loaded": loaded, "load_samples": load_samples}
if config["mode"] == "solve":
    argv = config["argv"]
    seconds = config["seconds"]
    if config["trace"]:
        # untraced first, so the overhead of tracing is measured in one run
        runs = solves(argv, seconds / 2)
        tracer = Tracer()
        tracer.install()
        try:
            runs += solves(argv, seconds / 2, tracer)
        finally:
            tracer.uninstall()
        result["bindings"] = tracer.bindings
        result["missing"] = tracer.missing
    else:
        runs = solves(argv, seconds)
    result["solves"] = runs
    result["peak_rss_mb"] = peak_rss_mb()
    if spans:
        import numpy as np

        np.savez_compressed(
            config["spans"],
            names=np.array(NAMES),
            **{f"solve{k}_{key}": a for k, s in enumerate(spans) for key, a in s.items()},
        )
print(json.dumps(result))
