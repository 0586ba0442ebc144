"""Equivalence of the exact-mode fused pass (forward sweep, co-state and one
adjoint sweep on raw arrays, batched over restarts) with the paths it
replaced: the pi-shift gradient, dense-matrix losses, the one-state
StateVector circuit and sequential one-restart optimization."""

import numpy as np
import pytest

from conftest import BENCH_PROBLEMS, optimize, random_pencil, random_state, two_qubit_pencil
from geig import vqge
from geig.ansatz import CompiledAnsatz, apply_ansatz, compile_ansatz, pi_shifted, random_params
from geig.cli import parse_problem
from geig.pauli import PauliSum, apply_compiled, apply_sum, compile_sums, overlaps
from geig.pencil import rayleigh_quotient
from geig.statevector import StateVector, zero_state
from geig.vqge import (
    DeflationRecord,
    OptConfig,
    Pencil,
    SolveConfig,
    _descend,
    _exact_objective,
    _penalties,
    _psi_and_gradient,
    _shot_objective,
    grad_f,
    grad_fj,
    loss_f,
    loss_fj,
    solve_spectrum,
)

TOL = 1e-12

ENTANGLERS = {
    1: ["linear", "ring", []],
    2: ["linear", "ring", [(1, 0)]],
    3: ["linear", "ring", [(2, 0), (0, 1)]],
    4: ["linear", "ring", [(3, 1), (0, 2), (1, 0)]],
}


def dense_loss(psi, a, b, records):
    """F_j from dense matrices: <A>/<B> plus gamma |<x|B|psi>|^2 / (<x|B|x> <B>)."""
    bv = np.vdot(psi, b @ psi).real
    value = np.vdot(psi, a @ psi).real / bv
    for rec in records:
        x = rec.state.amps
        value += rec.gamma * abs(np.vdot(x, b @ psi)) ** 2 / (np.vdot(x, b @ x).real * bv)
    return value


def random_records(rng, n, count):
    return [
        DeflationRecord(0.0, float(rng.uniform(0.5, 3.0)), random_state(rng, n))
        for _ in range(count)
    ]


def cases():
    """(n, L, entangler, record count) over n = 1..4, L = 1..3, every
    entangler kind and 0, 1 or 2 records."""
    out = []
    for n in range(1, 5):
        for layers in range(1, 4):
            for e_idx, entangler in enumerate(ENTANGLERS[n]):
                out.append((n, layers, entangler, (n + layers + e_idx) % 3))
    return out


class TestFusedPass:
    @pytest.mark.parametrize("n, layers, entangler, n_records", cases())
    def test_matches_pi_shift_and_dense_loss(self, n, layers, entangler, n_records):
        rng = np.random.default_rng([n, layers, n_records, len(str(entangler))])
        pencil, a, b = random_pencil(rng, n)
        v_in = random_state(rng, n)  # complex input state
        records = random_records(rng, n, n_records)
        for _ in range(2):
            p = random_params(n, layers, rng)
            values, grads = _exact_objective(pencil, records, v_in, entangler)(p.theta[None])
            objective = _shot_objective(pencil, records, v_in, entangler, 1.0, 0, [None])
            want_g = objective(p.theta[None])[1][0]
            psi = apply_ansatz(p, v_in, entangler).amps
            assert grads.shape == (1, n, layers)
            np.testing.assert_allclose(grads[0], want_g, rtol=0, atol=TOL)
            # the objective's loss is the unit pencil's, 2^-e times the pencil's
            assert abs(np.ldexp(values[0], pencil.unit[1]) - dense_loss(psi, a, b, records)) <= TOL

    @pytest.mark.parametrize("n, layers, entangler", [(2, 2, "linear"), (3, 3, "ring"), (4, 2, [(3, 0)])])
    def test_batch_rows_equal_single_rows(self, n, layers, entangler):
        rng = np.random.default_rng(n * 10 + layers)
        pencil, _, _ = random_pencil(rng, n)
        v_in = random_state(rng, n)
        records = random_records(rng, n, 2)
        objective = _exact_objective(pencil, records, v_in, entangler, sign=-1.0)
        theta = np.stack([random_params(n, layers, rng).theta for _ in range(3)])
        values, grads = objective(theta)
        for r in range(3):
            v1, g1 = objective(theta[r : r + 1])
            assert abs(values[r] - v1[0]) <= TOL
            np.testing.assert_allclose(grads[r], g1[0], rtol=0, atol=TOL)

    def test_public_exact_functions_route_through_the_pass(self):
        rng = np.random.default_rng(7)
        pencil, _, _ = random_pencil(rng, 3)
        records = random_records(rng, 3, 1)
        p = random_params(3, 2, rng)
        e = pencil.unit[1]
        assert e != 0
        objective = _exact_objective(pencil, records, zero_state(3))
        values, grads = objective(p.theta[None])
        assert loss_fj(p, pencil, records) == np.ldexp(values[0], e)
        np.testing.assert_array_equal(grad_fj(p, pencil, records), np.ldexp(grads[0], e))
        values, grads = _exact_objective(pencil, (), zero_state(3))(p.theta[None])
        assert loss_f(p, pencil) == np.ldexp(values[0], e)
        np.testing.assert_array_equal(grad_f(p, pencil), np.ldexp(grads[0], e))

    def test_loss_reads_the_value_of_the_fused_pass(self):
        """loss_f takes the value of the one pass that also gives the
        gradient; on the demo, a unit pencil, it is that value itself."""
        pencil = two_qubit_pencil()
        assert pencil.unit[1] == 0
        p = random_params(2, 2, np.random.default_rng(8))
        values, grads = _exact_objective(pencil, (), zero_state(2))(p.theta[None])
        assert grads.shape == (1, 2, 2)
        assert values[0] == loss_f(p, pencil)

    def test_b_checked_on_every_row(self):
        pencil = Pencil(PauliSum.identity(1, 1.0), PauliSum(1, [(1.0, "Z")]))
        objective = _exact_objective(pencil, (), zero_state(1))
        theta = np.array([[[0.0]], [[np.pi]]])  # row 1 prepares |1>, <B> = -1
        with pytest.raises(ValueError, match="positive definite"):
            objective(theta)

    def test_qubit_mismatch(self):
        pencil = two_qubit_pencil()
        with pytest.raises(ValueError, match="qubit counts differ"):
            loss_f(random_params(3, 1, np.random.default_rng(0)), pencil)


def loop_exact_objective(pencil, records, v_in, entangler="linear", sign=1.0):
    """``_exact_objective`` with one pass of the record loop per deflation
    record, the reference of the stacked form, on ``pencil.unit`` as the
    objective runs.  Its circuit pass (psi and the gradient of
    2 Re<d psi|chi>) is ``_psi_and_gradient``, the one ``_exact_objective``
    takes, so both take the same gradient on either side of its size bound;
    the records' arithmetic is the loop's."""
    circuit = compile_ansatz(pencil.n, entangler)
    unit, _, eb = pencil.unit
    real = unit.real and not any(v.amps.imag.any() for v in (v_in, *(r.state for r in records)))
    penalties = _penalties(pencil, records, real)
    start = v_in.amps.real if real else v_in.amps

    def value_and_grad(theta: np.ndarray) -> tuple:
        psi, gradient = _psi_and_gradient(circuit, theta, start)
        a_psi, b_psi, a, b = unit.apply(psi)
        value = f = rayleigh_quotient(a, b, eb)
        chi = a_psi - f[:, None] * b_psi
        for gamma, bx, m in penalties:
            t = overlaps(bx, psi)
            t_sq = np.abs(t) ** 2
            value = value + gamma * t_sq / (m * b)
            chi += (gamma / m) * (t[:, None] * bx - (t_sq / b)[:, None] * b_psi)
        value = value * sign
        chi *= (sign / b)[:, None]
        return value, gradient(chi)

    return value_and_grad


def real_case(rng, n, n_records):
    """A real pencil (the demo at n = 2, an Ising pencil otherwise) with
    real unit records and the start |0>."""
    pencil = two_qubit_pencil() if n == 2 else parse_problem(BENCH_PROBLEMS.ising_problem(n, 1))
    states = [rng.normal(size=2**n) for _ in range(n_records)]
    records = [
        DeflationRecord(0.0, float(rng.uniform(0.5, 3.0)), StateVector(n, v / np.linalg.norm(v)))
        for v in states
    ]
    assert pencil.real
    return pencil, records, zero_state(n)


def complex_case(rng, n, n_records):
    """A random complex pencil with complex records and start."""
    pencil, _, _ = random_pencil(rng, n)
    assert not pencil.real
    return pencil, random_records(rng, n, n_records), random_state(rng, n)


def shifted(n, layers):
    """Whether an exact gradient on n qubits and ``layers`` layers comes from
    the pi-shifted batch."""
    return (1 + n * layers) << n <= vqge._SHIFT_ROW_ENTRIES


class TestStackedRecords:
    @pytest.mark.parametrize("n_records", range(4))
    @pytest.mark.parametrize("kind", ["real", "complex"])
    @pytest.mark.parametrize("n", [1, 2, 3, 5])
    def test_bitwise_equal_the_record_loop(self, n, kind, n_records):
        """Values and gradients of a batch with mixed signs equal the loop's
        bitwise: float64 rows on a real pencil with real records, complex
        rows on a pencil with Y strings and complex records and start."""
        rng = np.random.default_rng([n, n_records, kind == "real"])
        pencil, records, v_in = (real_case if kind == "real" else complex_case)(rng, n, n_records)
        theta = np.stack([random_params(n, 2, rng).theta for _ in range(4)])
        sign = np.array([1.0, -1.0, 1.0, -1.0])
        got = _exact_objective(pencil, records, v_in, "linear", sign)
        want = loop_exact_objective(pencil, records, v_in, "linear", sign)
        (values, grads), (want_values, want_grads) = got(theta), want(theta)
        assert values.tobytes() == want_values.tobytes()
        assert grads.tobytes() == want_grads.tobytes()


class TestShiftedBatch:
    @pytest.mark.parametrize("kind", ["real", "complex"])
    @pytest.mark.parametrize("entangler", ["linear", "ring"])
    @pytest.mark.parametrize("layers", [1, 2, 3])
    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_gradient_equals_the_sweep(self, n, layers, entangler, kind, monkeypatch):
        """The batch's gradient equals the reverse sweep's within 1e-12 of
        the largest entry, and the losses are bitwise equal, for 0 to 2
        records and rows with signs +1 and -1.  The bound is moved to force
        each path."""
        for n_records in range(3):
            rng = np.random.default_rng([n, layers, n_records, kind == "real", entangler == "ring"])
            case = real_case if kind == "real" else complex_case
            pencil, records, v_in = case(rng, n, n_records)
            objective = _exact_objective(pencil, records, v_in, entangler, np.array([1.0, -1.0, -1.0]))
            theta = np.stack([random_params(n, layers, rng).theta for _ in range(3)])
            monkeypatch.setattr(vqge, "_SHIFT_ROW_ENTRIES", 1 << 60)
            values, grads = objective(theta)
            monkeypatch.setattr(vqge, "_SHIFT_ROW_ENTRIES", 0)
            want_values, want_grads = objective(theta)
            assert values.tobytes() == want_values.tobytes()
            assert grads.shape == want_grads.shape == theta.shape
            assert np.max(np.abs(grads - want_grads)) <= 1e-12 * np.max(np.abs(want_grads))

    @pytest.mark.parametrize("kind", ["real", "complex"])
    @pytest.mark.parametrize("n", [3, 4])
    def test_rows_bitwise_equal_alone(self, n, kind):
        """At two layers n = 3 takes the batch and n = 4 the sweep; on both
        sides a row of a 10-row batch gives the values and gradient it gives
        alone, bitwise."""
        assert shifted(n, 2) == (n == 3)
        rng = np.random.default_rng([n, kind == "real"])
        pencil, records, v_in = (real_case if kind == "real" else complex_case)(rng, n, 2)
        signs = np.tile([1.0, -1.0], 5)
        theta = np.stack([random_params(n, 2, rng).theta for _ in range(10)])
        values, grads = _exact_objective(pencil, records, v_in, "ring", signs)(theta)
        for r in range(10):
            objective = _exact_objective(pencil, records, v_in, "ring", signs[r])
            value, grad = objective(theta[r : r + 1])
            assert value.tobytes() == values[r : r + 1].tobytes()
            assert grad.tobytes() == grads[r : r + 1].tobytes()

    @pytest.mark.parametrize("n, layers", [(2, 2), (3, 2), (4, 2), (2, 7)])
    def test_circuits_run_per_call(self, n, layers, monkeypatch):
        """Below the bound a call runs theta and its n L shifted grids as
        one batch and no sweep; above it, theta alone and one sweep."""
        runs, sweeps = [], []
        run, vjp = CompiledAnsatz.run, CompiledAnsatz.vjp

        def counted_run(self, theta, *args):
            runs.append(theta.shape)
            return run(self, theta, *args)

        def counted_vjp(self, *args):
            sweeps.append(1)
            return vjp(self, *args)

        monkeypatch.setattr(CompiledAnsatz, "run", counted_run)
        monkeypatch.setattr(CompiledAnsatz, "vjp", counted_vjp)
        rng = np.random.default_rng(n)
        pencil, records, v_in = real_case(rng, n, 1)
        objective = _exact_objective(pencil, records, v_in)
        theta = np.stack([random_params(n, layers, rng).theta for _ in range(5)])
        objective(theta)
        below = shifted(n, layers)
        assert runs == [(5 * (1 + n * layers) if below else 5, n, layers)]
        assert sweeps == ([] if below else [1])

    def test_shifted_grids_layer_major(self):
        """Grid 1 + k of a row has pi on qubit k % n of layer k // n, and the
        row's own grid is theta bitwise, -0.0 angles included."""
        theta = np.array([[[0.5, -0.0, 1.0], [-0.0, 2.0, 3.0]]])
        grids = pi_shifted(theta)
        assert grids.shape == (7, 2, 3)
        assert grids[0].tobytes() == theta[0].tobytes()
        for k in range(6):
            want = theta[0].copy()
            want[k % 2, k // 2] += np.pi
            np.testing.assert_array_equal(grids[1 + k], want)


class TestCompiledAnsatz:
    @pytest.mark.parametrize("n", [1, 2, 3, 5])
    def test_rows_bitwise_equal_apply_ansatz(self, n):
        """A row of a batched run does not depend on the rows beside it: it
        equals apply_ansatz, a batch of one, bitwise."""
        rng = np.random.default_rng(n)
        v_in = random_state(rng, n)
        for entangler in ("linear", "ring"):
            circuit = compile_ansatz(n, entangler)
            params = [random_params(n, 3, rng) for _ in range(4)]
            out = circuit.run(np.stack([p.theta for p in params]), v_in.amps)
            for row, p in zip(out, params):
                np.testing.assert_array_equal(row, apply_ansatz(p, v_in, entangler).amps)

    def test_inverse_undoes_layer(self):
        circuit = compile_ansatz(4, "ring")
        np.testing.assert_array_equal(circuit.perm[circuit.inverse], np.arange(16))

    def test_vjp_matches_finite_differences(self):
        rng = np.random.default_rng(9)
        circuit = compile_ansatz(3, "linear")
        theta = rng.uniform(0, 2 * np.pi, size=(2, 3, 2))
        v_in = random_state(rng, 3).amps
        chi = rng.normal(size=(2, 8)) + 1j * rng.normal(size=(2, 8))
        psi = circuit.run(theta, v_in)
        grad = circuit.vjp(theta, psi, chi)
        h = 1e-6
        for idx in np.ndindex(theta.shape):
            up, dn = theta.copy(), theta.copy()
            up[idx] += h
            dn[idx] -= h
            r = idx[0]
            fd = 2 * np.vdot(circuit.run(up, v_in)[r] - circuit.run(dn, v_in)[r], chi[r]).real / (2 * h)
            assert abs(grad[idx] - fd) < 1e-8


class TestApplyCompiledRows:
    def test_rows_equal_apply_sum(self):
        rng = np.random.default_rng(10)
        pencil, a, _ = random_pencil(rng, 3)
        rows = np.stack([random_state(rng, 3).amps for _ in range(4)])
        out = apply_compiled(compile_sums((pencil.A,)), rows)[0]
        for row, amps in zip(out, rows):
            np.testing.assert_array_equal(row, apply_sum(pencil.A, StateVector(3, amps)).amps)
            np.testing.assert_allclose(row, a @ amps, atol=1e-12)

    def test_length_mismatch(self):
        with pytest.raises(ValueError, match="qubit counts differ"):
            apply_compiled(compile_sums((two_qubit_pencil().A,)), np.zeros(8, dtype=complex))


class TestBatchedDescent:
    def test_solve_spectrum_matches_sequential_optimize(self):
        """Every restart of every level of the batched exact-mode solve
        against optimize(loss_f / loss_fj, grad_f / grad_fj) one restart at
        a time, with the same starts and deflation records."""
        pencil = two_qubit_pencil()
        config = SolveConfig(layers=2, restarts=5, seed=0)
        levels = solve_spectrum(pencil, 4, config)
        n, layers = pencil.n, config.layers

        def start(level_idx, k):
            rng = np.random.default_rng([config.seed, level_idx, k])
            return random_params(n, layers, rng)

        def level_of(level_idx):
            theta0 = start(level_idx, 0).theta
            (match,) = [
                lv for lv in levels if np.array_equal(lv.traces[0].thetas[0], theta0)
            ]
            return match

        def compare(level, loss, grad, level_idx):
            best = []
            for k, batched in enumerate(level.traces):
                seq = optimize(loss, grad, start(level_idx, k), config.opt)
                assert seq.losses.shape == batched.losses.shape == (config.opt.iters + 1,)
                assert seq.grad_norms.shape == batched.grad_norms.shape == seq.losses.shape
                assert seq.thetas.shape == batched.thetas.shape == (len(seq.losses), n, layers)
                np.testing.assert_allclose(seq.losses, batched.losses, rtol=0, atol=1e-10)
                np.testing.assert_allclose(seq.grad_norms, batched.grad_norms, rtol=0, atol=1e-10)
                np.testing.assert_allclose(seq.thetas, batched.thetas, rtol=0, atol=1e-10)
                assert abs(seq.best_value - batched.best_value) <= 1e-12
                best.append(seq.best_value)
            assert level.best_restart == int(np.argmin(best))
            return seq

        ground = level_of(1)
        compare(ground, lambda p: loss_f(p, pencil), lambda p: grad_f(p, pencil), 1)
        top = level_of(4)
        compare(top, lambda p: -loss_f(p, pencil), lambda p: -grad_f(p, pencil), 4)
        assert [ground.objective, top.objective] == ["min", "max"]

        gamma = top.eigenvalue - ground.eigenvalue
        records = [
            DeflationRecord(ground.eigenvalue, gamma, apply_ansatz(ground.params, zero_state(n)))
        ]
        for j in (2, 3):
            level = level_of(j)
            assert level.objective == "deflate"
            recs = tuple(records)
            compare(level, lambda p: loss_fj(p, pencil, recs), lambda p: grad_fj(p, pencil, recs), j)
            best = level.traces[level.best_restart].best_value
            assert abs(level.eigenvalue - best) <= 1e-12
            records.append(
                DeflationRecord(level.eigenvalue, gamma, apply_ansatz(level.params, zero_state(n)))
            )

    @pytest.mark.parametrize("n", [2, 5])
    def test_grad_norms_match_per_row_norm_bitwise(self, n):
        """The batched product after the loop rounds as np.linalg.norm of
        each restart's gradient at each step does (the --trace CSV holds
        these digits)."""
        rng = np.random.default_rng(40 + n)
        pencil, _, _ = random_pencil(rng, n)
        objective = _exact_objective(pencil, (), zero_state(n))
        grads = []

        def recording(theta):
            values, g = objective(theta)
            grads.append(g.copy())
            return values, g

        theta0 = np.stack([random_params(n, 2, rng).theta for _ in range(3)])
        e = pencil.unit[1]
        traces = _descend(recording, theta0, OptConfig(iters=20), e)
        assert len(grads) == 21
        for s, g in enumerate(grads):
            for r, trace in enumerate(traces):
                assert trace.grad_norms[s] == np.ldexp(np.linalg.norm(g[r]), e)

    def test_non_finite_loss_reports_its_step(self):
        calls = {"n": 0}

        def value_and_grad(theta):
            calls["n"] += 1
            values = np.zeros(theta.shape[0])
            if calls["n"] == 3:
                values[1] = np.nan
            return values, np.ones_like(theta)

        with pytest.raises(RuntimeError, match="non-finite loss nan at step 2"):
            _descend(value_and_grad, np.zeros((2, 1, 1)), OptConfig(iters=5), 0)
