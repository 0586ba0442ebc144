"""Bitwise equivalence of the stacked shot-mode objective (one gather of
the kets, one stacked product per family of overlaps, one sampler call and
accumulated weighted sums per call) with the term-by-term objective it
replaced, kept below as it was: values, gradients and the generator's
state after every call are equal bit for bit."""

import math

import numpy as np
import pytest

import geig.vqge
from conftest import random_pencil, random_state, two_qubit_pencil
from geig.ansatz import compile_ansatz
from geig.measurement import sample_overlaps
from geig.pauli import PauliSum, _phase
from geig.statevector import StateVector, norm, zero_state
from geig.vqge import (
    DeflationRecord,
    OptConfig,
    Pencil,
    SolveConfig,
    _penalties,
    _shot_objective,
    check_b,
    rayleigh_quotient,
    solve_spectrum,
)

# The term-by-term objective, as it was before the stacked one replaced
# it; ``term_kets`` is its per-term list of kets.


def ref_term_kets(s, w):
    index = np.arange(2**s.n, dtype=np.int64)
    gathers = []
    for _, string in s.terms:
        src = index ^ string.x_mask
        gathers.append((src, _phase(string, src)))
    return [phase * w[src] for src, phase in gathers]


def ref_weighted(coeffs: list, estimates: list) -> complex:
    """sum_k c_k z_k, accumulated term by term in order from zero."""
    total = 0.0 + 0.0j
    for c, z in zip(coeffs, estimates):
        total += c * z
    return total


def ref_shot_objective(pencil, records, v_in, entangler, sign, shots, rng):
    circuit = compile_ansatz(pencil.n, entangler)
    coeffs_a, coeffs_b = pencil.A.coeffs.tolist(), pencil.B.coeffs.tolist()
    n_a, n_b = len(coeffs_a), len(coeffs_b)
    penalties = [(gamma, m) for gamma, _, m in _penalties(pencil, records)]
    norms = [norm(rec.state) for rec in records]
    units = [rec.state.amps / x_norm for rec, x_norm in zip(records, norms)]

    def overlaps(phi, kets):
        b_kets = ref_term_kets(pencil.B, phi) if units else []
        return [np.vdot(phi, ket) for ket in kets] + [np.vdot(x, k) for x in units for k in b_kets]

    def brackets(row):
        est = row.tolist()
        ts = [x * ref_weighted(coeffs_b, est[n_a + n_b * j :]) for j, x in enumerate(norms, 1)]
        return ref_weighted(coeffs_a, est).real, ref_weighted(coeffs_b, est[n_a:]).real, ts

    def value_and_grad(theta, value=True, grad=True):
        _, n, layers = theta.shape
        grid = np.repeat(theta, 1 + n * layers if grad else 1, axis=0)
        k = np.arange(len(grid) - 1)
        grid[1 + k, k % n, k // n] += np.pi
        states = circuit.run(grid, v_in.amps)
        kets = ref_term_kets(pencil.A, states[0]) + ref_term_kets(pencil.B, states[0])
        exact = np.array([overlaps(phi, kets) for phi in states], dtype=complex)
        values = grads = None
        if value:
            a, b, ts = brackets(sample_overlaps(exact[0], shots, rng))
            loss = rayleigh_quotient(a, b)
            for (gamma, m), t in zip(penalties, ts):
                loss += gamma * abs(t) ** 2 / (m * b)
            values = np.array([sign * loss])
        if grad:
            est = sample_overlaps(exact, shots, rng)
            a, b, ts = brackets(est[0])
            check_b(b)
            if not math.isfinite(b * b):
                raise ValueError(f"<B> = {b:.3e} at the evaluated state; its square overflows")
            entries = []
            for row in est[1:]:
                da, db, ts_plus = brackets(row)
                entry = (da * b - a * db) / b**2
                for (gamma, m), t, t_plus in zip(penalties, ts, ts_plus):
                    dt2 = (np.conj(t) * t_plus).real
                    entry += gamma / m * (dt2 * b - abs(t) ** 2 * db) / b**2
                entries.append(entry)
            grads = sign * np.array(entries).reshape(layers, n).T.copy()[None]
        return values, grads

    return value_and_grad


def even_y_strings(rng, n, count):
    out = []
    while len(out) < count:
        ops = "".join(rng.choice(list("IXYZ"), size=n))
        if ops.count("Y") % 2 == 0:
            out.append(ops)
    return out


def real_pencil(rng, n):
    """Random strings with an even number of Y factors: a real A against B
    = identity plus strings whose weights sum below 1/2, so positive
    definite."""
    a = PauliSum(n, [(float(rng.normal()), ops) for ops in even_y_strings(rng, n, 8)])
    others = [(float(rng.uniform(-0.08, 0.08)), ops) for ops in even_y_strings(rng, n, 6)]
    return Pencil(a, PauliSum(n, [(1.0, "I" * n)] + others))


def odd_y_pencil(rng, n):
    """The real pencil with one odd-Y string added to each side (B stays
    positive definite): complex kets and overlaps."""
    pencil = real_pencil(rng, n)
    y = "Y" + "X" * (n - 1)
    a = PauliSum(n, pencil.A.terms + ((0.3, y),))
    b = PauliSum(n, pencil.B.terms + ((0.05, y),))
    return Pencil(a, b)


def real_state(rng, n):
    v = rng.normal(size=2**n)
    return StateVector(n, v / np.linalg.norm(v))


def assert_bitwise(got, want):
    if want is None:
        assert got is None
        return
    assert got.dtype == want.dtype and got.shape == want.shape
    np.testing.assert_array_equal(got, want)
    assert got.tobytes() == want.tobytes()


CASES = [
    (n, layers, entangler)
    for n in (1, 2, 3, 4)
    for layers in (1, 2)
    for entangler in ("linear", "ring")
]


class TestShotObjectiveBitwise:
    @pytest.mark.parametrize("n, layers, entangler", CASES)
    def test_values_grads_and_draws(self, n, layers, entangler):
        """n = 1..4, L = 1..2, both entanglers; real and odd-Y pencils,
        |0> and a complex start, 0..3 records, shots 0, 400 and 2000; each
        objective called for value and gradient, value only and gradient
        only, twice over, on one generator per objective."""
        rng = np.random.default_rng([n, layers, len(entangler)])
        for make_pencil, make_state in ((real_pencil, real_state), (odd_y_pencil, random_state)):
            pencil = make_pencil(rng, n)
            for v_in in (zero_state(n), random_state(rng, n)):
                for n_records in range(4):
                    records = [
                        DeflationRecord(0.0, float(rng.uniform(0.5, 3.0)), make_state(rng, n))
                        for _ in range(n_records)
                    ]
                    for shots in (0, 400, 2000):
                        sign = -1.0 if shots == 400 else 1.0
                        seed = int(rng.integers(2**32))
                        got_rng = np.random.default_rng(seed)
                        want_rng = np.random.default_rng(seed)
                        args = (pencil, records, v_in, entangler, sign, shots)
                        got = _shot_objective(*args, got_rng)
                        want = ref_shot_objective(*args, want_rng)
                        for value, grad in ((True, True), (True, False), (False, True)) * 2:
                            theta = rng.uniform(0.0, 2.0 * np.pi, size=(1, n, layers))
                            got_out = got(theta, value, grad)
                            want_out = want(theta, value, grad)
                            assert_bitwise(got_out[0], want_out[0])
                            assert_bitwise(got_out[1], want_out[1])
                            assert got_rng.bit_generator.state == want_rng.bit_generator.state

    def test_dense_complex_pencil(self):
        """Every string of a random Hermitian pencil on 3 qubits, odd-Y ones
        included, with two complex records."""
        rng = np.random.default_rng(30)
        pencil, _, _ = random_pencil(rng, 3)
        records = [DeflationRecord(0.0, 1.5, random_state(rng, 3)) for _ in range(2)]
        v_in = random_state(rng, 3)
        got_rng, want_rng = np.random.default_rng(1), np.random.default_rng(1)
        got = _shot_objective(pencil, records, v_in, "ring", 1.0, 2000, got_rng)
        want = ref_shot_objective(pencil, records, v_in, "ring", 1.0, 2000, want_rng)
        for value, grad in ((True, True), (True, False), (False, True)):
            theta = rng.uniform(0.0, 2.0 * np.pi, size=(1, 3, 2))
            for got_part, want_part in zip(got(theta, value, grad), want(theta, value, grad)):
                assert_bitwise(got_part, want_part)
            assert got_rng.bit_generator.state == want_rng.bit_generator.state

    def test_record_overlaps_in_blocks_of_rows(self, monkeypatch):
        """With a block size that splits the circuit batch (one row, then
        two rows per block), the record overlaps round as in one block."""
        rng = np.random.default_rng(40)
        pencil = odd_y_pencil(rng, 3)
        records = [DeflationRecord(0.0, 2.0, random_state(rng, 3)) for _ in range(3)]
        theta = rng.uniform(0.0, 2.0 * np.pi, size=(1, 3, 2))
        for entries in (1, 2 * len(pencil.B) * 8):
            monkeypatch.setattr(geig.vqge, "_KET_BLOCK_ENTRIES", entries)
            args = (pencil, records, zero_state(3), "linear", 1.0, 2000)
            got = _shot_objective(*args, np.random.default_rng(5))(theta)
            want = ref_shot_objective(*args, np.random.default_rng(5))(theta)
            assert_bitwise(got[0], want[0])
            assert_bitwise(got[1], want[1])

    def test_overflowing_entries_as_in_scalar_arithmetic(self):
        """<B>^2 is finite but <dA> <B> overflows: the entries are inf or
        NaN, as Python floats gave them, with no numpy warning (which the
        test session turns into an error)."""
        pencil = Pencil(
            PauliSum(2, [(1e160, "ZI"), (1e160, "XX")]),
            PauliSum(2, [(1e150, "II"), (0.5, "IZ")]),
        )
        theta = np.random.default_rng(2).uniform(0.0, 2.0 * np.pi, size=(1, 2, 2))
        args = (pencil, (), zero_state(2), "linear", 1.0, 100)
        got = _shot_objective(*args, np.random.default_rng(3))(theta)
        want = ref_shot_objective(*args, np.random.default_rng(3))(theta)
        assert not np.isfinite(got[1]).all()
        assert_bitwise(got[0], want[0])
        assert_bitwise(got[1], want[1])

    def test_errors_match(self):
        """A B that is not positive at the evaluated state fails with the
        same message on both paths."""
        pencil = Pencil(PauliSum(1, [(1.0, "Z")]), PauliSum(1, [(1.0, "Z")]))
        theta = np.full((1, 1, 1), np.pi)
        for value, grad in ((True, True), (False, True), (True, False)):
            messages = []
            for build in (_shot_objective, ref_shot_objective):
                objective = build(pencil, (), zero_state(1), "linear", 1.0, 0, None)
                with pytest.raises(ValueError) as info:
                    objective(theta, value, grad)
                messages.append(str(info.value))
            assert messages[0] == messages[1]


class TestSolveSpectrumBitwise:
    @pytest.mark.parametrize("n, r, shots", [(2, 4, 300), (3, 3, 2000)])
    def test_traces_match_the_term_by_term_path(self, monkeypatch, n, r, shots):
        if n == 2:
            pencil = two_qubit_pencil()
        else:
            pencil = odd_y_pencil(np.random.default_rng(n), n)
        config = SolveConfig(restarts=2, seed=3, shots=shots, opt=OptConfig(iters=12))
        got = solve_spectrum(pencil, r, config)
        monkeypatch.setattr(geig.vqge, "_shot_objective", ref_shot_objective)
        want = solve_spectrum(pencil, r, config)
        assert len(got) == len(want) == r
        for got_lv, want_lv in zip(got, want):
            assert got_lv.eigenvalue == want_lv.eigenvalue
            assert got_lv.best_restart == want_lv.best_restart
            assert_bitwise(got_lv.state.amps, want_lv.state.amps)
            for got_tr, want_tr in zip(got_lv.traces, want_lv.traces, strict=True):
                assert_bitwise(got_tr.losses, want_tr.losses)
                assert_bitwise(got_tr.grad_norms, want_tr.grad_norms)
                assert_bitwise(got_tr.thetas, want_tr.thetas)
