"""``solve_spectrum`` in exact mode descends the min and max levels as one
batch of 2 x restarts rows, and in shot mode restart k of both levels as
one batch of 2 rows.  Every trace, best restart and eigenvalue must be
bitwise equal to descending the levels one after another."""

import numpy as np
import pytest

import geig.vqge as vqge
from conftest import BENCH_PROBLEMS, A_TERMS, two_qubit_pencil
from geig.ansatz import apply_ansatz, random_params
from geig.cli import parse_problem
from geig.pauli import PauliSum
from geig.statevector import zero_state
from geig.vqge import (
    DeflationRecord,
    OptConfig,
    Pencil,
    SolveConfig,
    SpectrumLevel,
    _assemble,
    _descend,
    _exact_objective,
    solve_spectrum,
)


def sequential_spectrum(pencil: Pencil, r: int, config: SolveConfig) -> list:
    """The exact pipeline with every level descending on its own, as it did
    before the min and max levels shared a batch."""
    n, v_in = pencil.n, zero_state(pencil.n)

    def run_level(level_idx, sign, records, kind):
        starts = [
            random_params(n, config.layers, np.random.default_rng([config.seed, level_idx, k]))
            for k in range(config.restarts)
        ]
        objective = _exact_objective(pencil, records, v_in, config.entangler, sign)
        theta0 = np.stack([p0.theta for p0 in starts])
        traces = _descend(objective, theta0, config.opt, pencil.unit[1])
        best_k = int(np.argmin([trace.best_value for trace in traces]))
        value, params = traces[best_k].best_value, traces[best_k].best_params
        state = apply_ansatz(params, v_in, config.entangler)
        return SpectrumLevel(sign * value, params, state, kind, tuple(traces), best_k)

    levels = [run_level(1, 1.0, (), "min")]
    if r > 1:
        levels.append(run_level(r, -1.0, (), "max"))
    gamma = levels[-1].eigenvalue - levels[0].eigenvalue
    for j in range(2, r):
        found = levels[:1] + levels[2:]
        records = tuple(DeflationRecord(lv.eigenvalue, gamma, lv.state) for lv in found)
        levels.append(run_level(j, 1.0, records, "deflate"))
    return _assemble(levels, pencil)


def assert_levels_bitwise_equal(got: list, want: list) -> None:
    assert [lv.objective for lv in got] == [lv.objective for lv in want]
    for lv, ref in zip(got, want):
        assert lv.eigenvalue == ref.eigenvalue
        assert lv.best_restart == ref.best_restart
        np.testing.assert_array_equal(lv.params.theta, ref.params.theta)
        np.testing.assert_array_equal(lv.state.amps, ref.state.amps)
        assert len(lv.traces) == len(ref.traces)
        for trace, ref_trace in zip(lv.traces, ref.traces):
            np.testing.assert_array_equal(trace.losses, ref_trace.losses)
            np.testing.assert_array_equal(trace.grad_norms, ref_trace.grad_norms)
            np.testing.assert_array_equal(trace.thetas, ref_trace.thetas)
            assert trace.best_value == ref_trace.best_value
            np.testing.assert_array_equal(trace.best_params.theta, ref_trace.best_params.theta)


def ising5() -> Pencil:
    return parse_problem(BENCH_PROBLEMS.ising_problem(5, 1))


@pytest.fixture
def descents(monkeypatch) -> list:
    """The row count of every ``_descend`` call that follows."""
    rows = []

    def counting(value_and_grad, theta0, config, e):
        rows.append(theta0.shape[0])
        return _descend(value_and_grad, theta0, config, e)

    monkeypatch.setattr(vqge, "_descend", counting)
    return rows


class TestBatchedLevels:
    @pytest.mark.parametrize("r", [2, 4])
    @pytest.mark.parametrize("method", ["adam", "gd"])
    @pytest.mark.parametrize("make_pencil", [two_qubit_pencil, ising5])
    def test_bitwise_equal_sequential_levels(self, make_pencil, method, r):
        pencil = make_pencil()
        config = SolveConfig(opt=OptConfig(iters=100, method=method))
        want = sequential_spectrum(pencil, r, config)
        assert_levels_bitwise_equal(solve_spectrum(pencil, r, config), want)

    def test_min_and_max_share_one_batch(self, descents):
        solve_spectrum(two_qubit_pencil(), 4, SolveConfig(opt=OptConfig(iters=5)))
        assert descents == [10, 5, 5]

    def test_one_level_descends_alone(self, descents):
        config = SolveConfig(opt=OptConfig(iters=5))
        got = solve_spectrum(two_qubit_pencil(), 1, config)
        assert descents == [5]
        assert_levels_bitwise_equal(got, sequential_spectrum(two_qubit_pencil(), 1, config))

    def test_shot_mode_batches_min_and_max_per_restart(self, descents):
        config = SolveConfig(restarts=2, shots=100, opt=OptConfig(iters=3))
        levels = solve_spectrum(two_qubit_pencil(), 2, config)
        assert descents == [2, 2]
        assert [lv.objective for lv in levels] == ["min", "max"]
        descents.clear()
        levels = solve_spectrum(two_qubit_pencil(), 4, config)
        assert descents == [2, 2, 1, 1, 1, 1]
        assert sorted(lv.objective for lv in levels) == ["deflate", "deflate", "max", "min"]


class TestBatchedErrors:
    def test_indefinite_b_is_refused(self):
        pencil = Pencil(PauliSum(2, A_TERMS), PauliSum(2, [(0.1, "II"), (1.0, "ZI")]))
        with pytest.raises(ValueError, match="B is not positive definite"):
            solve_spectrum(pencil, 2, SolveConfig(opt=OptConfig(iters=5)))

    def test_non_finite_loss_in_the_max_rows_names_its_step(self, monkeypatch):
        apply = Pencil.apply
        calls = []

        def poisoned(self, amps):
            a_psi, b_psi, a, b = apply(self, amps)
            calls.append(len(amps))
            if len(calls) == 3:
                a = a.copy()
                a[-1] = np.nan  # the last restart of the max level
            return a_psi, b_psi, a, b

        monkeypatch.setattr(Pencil, "apply", poisoned)
        with pytest.raises(RuntimeError, match="non-finite loss nan at step 2"):
            solve_spectrum(two_qubit_pencil(), 2, SolveConfig(opt=OptConfig(iters=5)))
        assert calls == [10, 10, 10]
