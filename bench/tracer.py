"""Outside-in span tracer for the geig package.

The tracer replaces every module binding of each traced public function
with a wrapper that records one span per call: name, start, end and the
span that was open when the call began.  A binding is any attribute of a
loaded ``geig`` module that is the original function object, so
``from .pauli import apply_sum`` in ``vqge`` and ``fqge`` is patched as well
as ``pauli.apply_sum`` itself.  Spans stay in memory until the caller
collects them; nothing under ``src/`` is modified.

Self time is a span's duration minus the durations of its direct children.
"""

from __future__ import annotations

import functools
import importlib
import sys
from time import perf_counter

import numpy as np

# module -> public functions traced, named "<module>.<function>" in results
TRACED = {
    "pauli": ("apply_sum", "apply_string", "dense_matrix"),
    "statevector": ("apply_ry", "apply_cnot"),
    "ansatz": ("apply_ansatz",),
    "vqge": ("solve_spectrum", "optimize", "loss_f", "loss_fj", "grad_f", "grad_fj"),
    "measurement": ("hadamard_test",),
    "fqge": (
        "run_fqge",
        "loss_state",
        "residual",
        "gradient_direction",
        "line_search",
        "build_lcu",
        "apply_g",
    ),
    "reference": ("generalized_eig", "hermitian_eig", "cholesky"),
}
ROOT = "cli.main"
NAMES = (ROOT,) + tuple(f"{m}.{f}" for m, fns in TRACED.items() for f in fns)


def _term_amps(args, result):
    """Terms times amplitudes touched by one apply_sum(s, v) call."""
    return len(args[0]) * np.size(args[1].amps)


def _post_selection(args, result):
    """(||G psi||^2, C^2 d) of one apply_g(lcu, psi) call."""
    lcu = args[0]
    out, _ = result
    return float(np.vdot(out.amps, out.amps).real), lcu.norm_c**2 * lcu.d


# per-call observations kept next to the span, taken after it has ended
OBSERVERS = {"pauli.apply_sum": _term_amps, "fqge.apply_g": _post_selection}


class Tracer:
    """Records spans for the functions in TRACED while installed."""

    def __init__(self):
        self._index = {name: i for i, name in enumerate(NAMES)}
        self._patched = []  # (module, attribute, original)
        self.missing = []  # traced names not found in the package
        self.reset()

    def reset(self) -> None:
        self.name = []
        self.parent = []
        self.start = []
        self.end = []
        self.observed = {}  # span index -> observer result
        self._stack = [-1]

    def install(self) -> None:
        package = {
            mod
            for key, mod in sys.modules.items()
            if key == "geig" or key.startswith("geig.")
        }
        for module_name, functions in TRACED.items():
            home = importlib.import_module(f"geig.{module_name}")
            for fn_name in functions:
                name = f"{module_name}.{fn_name}"
                original = getattr(home, fn_name, None)
                if original is None:
                    self.missing.append(name)
                    continue
                wrapper = self._wrap(name, original)
                for mod in package:
                    for attr, value in list(vars(mod).items()):
                        if value is original:
                            setattr(mod, attr, wrapper)
                            self._patched.append((mod, attr, original))

    def uninstall(self) -> None:
        for mod, attr, original in reversed(self._patched):
            setattr(mod, attr, original)
        self._patched.clear()

    @property
    def bindings(self) -> list:
        return sorted(f"{mod.__name__}.{attr}" for mod, attr, _ in self._patched)

    def _open(self, name: str) -> int:
        i = len(self.name)
        self.name.append(self._index[name])
        self.parent.append(self._stack[-1])
        self.start.append(0.0)
        self.end.append(0.0)
        self._stack.append(i)
        return i

    def _wrap(self, name: str, fn):
        observe = OBSERVERS.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            i = self._open(name)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                self.end[i] = perf_counter()
                self.start[i] = t0
                self._stack.pop()
            if observe is not None:
                try:
                    self.observed[i] = observe(args, result)
                except (AttributeError, IndexError, TypeError, ValueError):
                    pass  # a changed signature drops the observation, not the call
            return result

        return wrapper

    def call_root(self, fn, *args):
        """Run fn(*args) as the root span ROOT."""
        return self._wrap(ROOT, fn)(*args)

    def collect(self) -> "Spans":
        spans = Spans(
            np.array(self.name, dtype=np.int32),
            np.array(self.parent, dtype=np.int64),
            np.array(self.start),
            np.array(self.end),
            dict(self.observed),
        )
        self.reset()
        return spans


class Spans:
    """The spans of one traced solve, as parallel arrays in start order."""

    def __init__(self, name, parent, start, end, observed):
        self.name = name
        self.parent = parent
        self.start = start
        self.end = end
        self.observed = observed
        dur = end - start
        child = parent >= 0
        self.self_time = dur - np.bincount(
            parent[child], weights=dur[child], minlength=len(dur)
        )

    def _id(self, name: str) -> int:
        return NAMES.index(name)

    def calls(self, name: str) -> int:
        return int(np.count_nonzero(self.name == self._id(name)))

    def self_s(self, name: str) -> float:
        return float(self.self_time[self.name == self._id(name)].sum())

    def calls_under(self, name: str, ancestors) -> int:
        """Calls of ``name`` made, at any depth, inside a span of one of
        ``ancestors``."""
        ids = [self._id(a) for a in ancestors]
        inside = np.isin(self.name, ids)
        # parents precede children, so flags settle within the tree depth
        while True:
            inherited = inside | np.where(
                self.parent >= 0, inside[np.maximum(self.parent, 0)], False
            )
            if np.array_equal(inherited, inside):
                break
            inside = inherited
        has_parent = self.parent >= 0
        under = np.zeros_like(inside)
        under[has_parent] = inside[self.parent[has_parent]]
        return int(np.count_nonzero(under & (self.name == self._id(name))))

    def observations(self, name: str) -> list:
        target = self._id(name)
        return [v for i, v in sorted(self.observed.items()) if self.name[i] == target]

    def arrays(self) -> dict:
        return {
            "name": self.name,
            "parent": self.parent,
            "start": self.start,
            "end": self.end,
        }
