"""Equivalence of shot mode on the compiled path (one batched Hadamard-test
sampler, per-term overlaps on raw arrays, one pi-shift objective per level)
with the sequential path it replaced: per-term ``hadamard_test`` calls on
gate-by-gate ``apply_ansatz`` states, one shifted circuit per angle, drawn
in the same order from the same generator."""

import numpy as np
import pytest

import geig.vqge
from conftest import random_pencil, random_state, two_qubit_pencil
from geig.ansatz import apply_ansatz, random_params, shift
from geig.measurement import hadamard_test, sample_overlaps
from geig.pauli import (
    PauliString,
    PauliSum,
    _parity,
    _string_action,
    apply_string,
    apply_sum,
    term_kets,
    term_overlaps,
)
from geig.statevector import StateVector, inner, norm, zero_state
from geig.vqge import (
    DeflationRecord,
    OptConfig,
    SolveConfig,
    grad_fj,
    loss_fj,
    optimize,
    solve_spectrum,
)

TOL = 1e-12


# The sequential shot path, as it was before the compiled one replaced it.


def ref_expect(s, v, shots, rng):
    return sum(c * hadamard_test(v, term, v, shots, rng)[0] for c, term in s.terms)


def ref_b_bracket(x, psi, b_sum, shots, rng):
    x_norm = norm(x)
    x_unit = StateVector(x.n, x.amps / x_norm, normalized=True)
    total = 0.0 + 0.0j
    for c, term in b_sum.terms:
        re, im = hadamard_test(x_unit, term, psi, shots, rng)
        total += c * (re + 1j * im)
    return x_norm * total


def ref_loss(p, pencil, records, v_in, entangler, shots, rng):
    psi = apply_ansatz(p, v_in, entangler)
    a = ref_expect(pencil.A, psi, shots, rng)
    b = ref_expect(pencil.B, psi, shots, rng)
    value = a / b
    for rec in records:
        m = inner(rec.state, apply_sum(pencil.B, rec.state)).real
        t = ref_b_bracket(rec.state, psi, pencil.B, shots, rng)
        value += rec.gamma * abs(t) ** 2 / (m * b)
    return value


def ref_grad(p, pencil, records, v_in, entangler, shots, rng):
    psi = apply_ansatz(p, v_in, entangler)
    a = ref_expect(pencil.A, psi, shots, rng)
    b = ref_expect(pencil.B, psi, shots, rng)
    rec_data = []
    for rec in records:
        m = inner(rec.state, apply_sum(pencil.B, rec.state)).real
        t = ref_b_bracket(rec.state, psi, pencil.B, shots, rng)
        rec_data.append((rec.gamma, rec.state, m, t))
    grad = np.zeros((p.n, p.L))
    for t_idx in range(p.L):
        for i in range(p.n):
            psi_plus = apply_ansatz(shift(p, t_idx, i, np.pi), v_in, entangler)
            da = sum(
                c * hadamard_test(psi_plus, term, psi, shots, rng)[0]
                for c, term in pencil.A.terms
            )
            db = sum(
                c * hadamard_test(psi_plus, term, psi, shots, rng)[0]
                for c, term in pencil.B.terms
            )
            entry = (da * b - a * db) / b**2
            for gamma, x_state, m, t in rec_data:
                t_plus = ref_b_bracket(x_state, psi_plus, pencil.B, shots, rng)
                dt2 = (np.conj(t) * t_plus).real
                entry += gamma / m * (dt2 * b - abs(t) ** 2 * db) / b**2
            grad[i, t_idx] = entry
    return grad


def ref_sample(values, shots, rng):
    """One scalar binomial draw per part: Re then Im of each entry in C order."""
    out = []
    for value in np.ravel(values):
        parts = []
        for exact in (value.real, value.imag):
            p = min(1.0, max(0.0, (1.0 + exact) / 2.0))
            parts.append(2.0 * rng.binomial(shots, p) / shots - 1.0)
        out.append(complex(*parts))
    return np.reshape(out, np.shape(values))


def random_records(rng, n, count):
    return [
        DeflationRecord(0.0, float(rng.uniform(0.5, 3.0)), random_state(rng, n))
        for _ in range(count)
    ]


def shot_cases():
    """(n, L, entangler, record count): n = 2..3, L = 1..2, both named
    entanglers and 0, 1 or 2 records."""
    return [
        (n, layers, entangler, n_records)
        for n in (2, 3)
        for layers in (1, 2)
        for entangler in ("linear", "ring")
        for n_records in (0, 1, 2)
    ]


class TestShotObjective:
    @pytest.mark.parametrize("n, layers, entangler, n_records", shot_cases())
    def test_loss_and_grad_match_sequential_path(self, n, layers, entangler, n_records):
        rng = np.random.default_rng([n, layers, n_records, len(entangler)])
        pencil, _, _ = random_pencil(rng, n)
        v_in = random_state(rng, n)
        records = random_records(rng, n, n_records)
        p = random_params(n, layers, rng)
        for shots in (0, 400):
            got_rng, want_rng = np.random.default_rng(5), np.random.default_rng(5)
            got = loss_fj(p, pencil, records, v_in, entangler, shots, got_rng)
            want = ref_loss(p, pencil, records, v_in, entangler, shots, want_rng)
            assert abs(got - want) <= TOL
            got_g = grad_fj(p, pencil, records, v_in, entangler, shots, got_rng)
            want_g = ref_grad(p, pencil, records, v_in, entangler, shots, want_rng)
            assert got_g.shape == (n, layers)
            np.testing.assert_allclose(got_g, want_g, rtol=0, atol=TOL)
            assert got_rng.random() == want_rng.random()

    def test_solve_spectrum_matches_sequential_optimize(self):
        """Every restart of every level descends on the level's stream, loss
        draws then gradient draws at each step, as sequential optimize did."""
        pencil = two_qubit_pencil()
        config = SolveConfig(layers=2, restarts=2, seed=4, shots=300, opt=OptConfig(iters=6))
        got = solve_spectrum(pencil, 3, config)
        v_in = zero_state(2)

        def level(idx, sign, records):
            rng = np.random.default_rng([config.seed, 7919, idx])
            traces = []
            for k in range(config.restarts):
                p0 = random_params(2, 2, np.random.default_rng([config.seed, idx, k]))
                loss = lambda p: sign * ref_loss(p, pencil, records, v_in, "linear", 300, rng)
                grad = lambda p: sign * ref_grad(p, pencil, records, v_in, "linear", 300, rng)
                traces.append(optimize(loss, grad, p0, config.opt))
            return min(traces, key=lambda tr: tr.best_value), traces

        ground, ground_traces = level(1, 1.0, ())
        top, top_traces = level(3, -1.0, ())
        gamma = -top.best_value - ground.best_value
        state = apply_ansatz(ground.best_params, v_in)
        _, mid_traces = level(2, 1.0, (DeflationRecord(ground.best_value, gamma, state),))
        want = {"min": ground_traces, "deflate": mid_traces, "max": top_traces}
        for lv in got:
            for got_tr, want_tr in zip(lv.traces, want[lv.objective]):
                assert len(got_tr.steps) == len(want_tr.steps)
                for g, w in zip(got_tr.steps, want_tr.steps):
                    assert abs(g.loss - w.loss) <= TOL
                    assert abs(g.grad_norm - w.grad_norm) <= TOL
                    np.testing.assert_allclose(g.theta, w.theta, rtol=0, atol=TOL)

    def test_no_state_vectors_in_the_descent(self, monkeypatch):
        """StateVector constructions and gate-by-gate circuits do not grow
        with the iteration count: they serve the final states only."""
        counts = {}
        original_init = StateVector.__post_init__

        def counting_init(self):
            counts["states"] = counts.get("states", 0) + 1
            original_init(self)

        def counting_ansatz(*args, **kwargs):
            counts["ansatz"] = counts.get("ansatz", 0) + 1
            return apply_ansatz(*args, **kwargs)

        monkeypatch.setattr(StateVector, "__post_init__", counting_init)
        monkeypatch.setattr(geig.vqge, "apply_ansatz", counting_ansatz)
        seen = []
        for iters in (2, 8):
            counts.clear()
            config = SolveConfig(restarts=2, shots=100, opt=OptConfig(iters=iters))
            solve_spectrum(two_qubit_pencil(), 3, config)
            seen.append(dict(counts))
        assert seen[0] == seen[1]
        assert seen[0]["ansatz"] == 3


class TestSampler:
    def test_matches_scalar_draws_in_c_order(self):
        values = np.array(
            [
                [1.0 + 0.0j, -1.0 + 1.0j, 0.0 - 1.0j],  # p = 1, 0, 1/2 and back
                [0.3 - 0.2j, -0.7 + 0.45j, 0.999 + 0.0j],
            ]
        )
        for shots in (1, 7, 2000):
            got_rng, want_rng = np.random.default_rng(3), np.random.default_rng(3)
            got = sample_overlaps(values, shots, got_rng)
            want = ref_sample(values, shots, want_rng)
            assert got.shape == values.shape
            np.testing.assert_array_equal(got, want)
            assert got_rng.random() == want_rng.random()

    def test_extreme_probabilities_are_exact(self):
        got = sample_overlaps(np.array([1.0 - 1.0j, -1.0 + 1.0j]), 50, 0)
        np.testing.assert_array_equal(got, [1.0 - 1.0j, -1.0 + 1.0j])

    def test_zero_shots_returns_values(self):
        values = np.array([0.25 - 0.5j, 1.0 + 0.0j])
        np.testing.assert_array_equal(sample_overlaps(values), values)

    def test_negative_shots_rejected(self):
        with pytest.raises(ValueError, match="shot count"):
            sample_overlaps(np.array([0.5 + 0.0j]), -1, 0)

    def test_hadamard_test_is_the_one_overlap_case(self):
        rng = np.random.default_rng(8)
        u, w = random_state(rng, 2), random_state(rng, 2)
        term = PauliString.from_ops("YX")
        value = inner(u, apply_string(term, w))
        got = hadamard_test(u, term, w, 300, np.random.default_rng(2))
        want = ref_sample(np.array([value]), 300, np.random.default_rng(2))[0]
        assert got == (want.real, want.imag)


def random_sum(rng, n):
    """A sum with the identity, odd- and even-Y strings and shared X-masks."""
    ops = ["I" * n, "Y" + "I" * (n - 1), "Y" * n, "X" * n, "Z" * n]
    ops += ["".join(rng.choice(list("IXYZ"), size=n)) for _ in range(6)]
    return PauliSum(n, [(float(rng.normal()), o) for o in ops])


class TestTermOverlaps:
    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_bitwise_equal_exact_hadamard_tests(self, n):
        rng = np.random.default_rng(n)
        s = random_sum(rng, n)
        for _ in range(3):
            u, w = random_state(rng, n), random_state(rng, n)
            got = term_overlaps(s, u.amps, w.amps)
            want = [complex(*hadamard_test(u, term, w)) for _, term in s.terms]
            np.testing.assert_array_equal(got, want)

    def test_empty_sum(self):
        s = PauliSum(2, [(0.0, "XX")])
        u = random_state(np.random.default_rng(0), 2).amps
        assert term_overlaps(s, u, u).shape == (0,)
        assert term_kets(s, u) == []

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_kets_bitwise_equal_apply_string(self, n):
        rng = np.random.default_rng(10 + n)
        s = random_sum(rng, n)
        w = random_state(rng, n)
        kets = term_kets(s, w.amps)
        assert len(kets) == len(s)
        for ket, (_, term) in zip(kets, s.terms):
            np.testing.assert_array_equal(ket, apply_string(term, w).amps)

    def test_shot_objective_takes_the_kets_of_psi_once_per_call(self, monkeypatch):
        """Each call applies every A and B term to psi once, and every B
        term once to each row (for the records), however many rows and
        records there are."""
        pencil = two_qubit_pencil()
        rng = np.random.default_rng(4)
        records = random_records(rng, 2, 2)
        calls = []

        def counting_kets(s, w):
            calls.append("A" if s is pencil.A else "B")
            return term_kets(s, w)

        monkeypatch.setattr(geig.vqge, "term_kets", counting_kets)
        objective = geig.vqge._shot_objective(
            pencil, records, zero_state(2), "linear", 1.0, 100, np.random.default_rng(0)
        )
        theta = random_params(2, 2, rng).theta[None]
        objective(theta)
        rows = 1 + 2 * 2
        assert calls.count("A") == 1
        assert calls.count("B") == 1 + rows


def old_compiled_diagonals(s):
    """The per-X-mask diagonals as built before the phase formula was shared."""
    index = np.arange(2**s.n, dtype=np.int64)
    diags = {}
    for coeff, string in s.terms:
        src = index ^ string.x_mask
        signs = 1.0 - 2.0 * _parity(src & string.z_mask)
        term = (coeff * (1j) ** string.n_y) * signs
        diags[string.x_mask] = diags.get(string.x_mask, 0.0) + term
    out = []
    for x_mask, diag in sorted(diags.items()):
        out.append((x_mask, diag.real.copy() if not diag.imag.any() else diag))
    return out


class TestPhaseFormula:
    @pytest.mark.parametrize("n", [1, 2, 3, 5])
    def test_compiled_diagonals_bitwise_unchanged(self, n):
        rng = np.random.default_rng(10 + n)
        for _ in range(4):
            s = random_sum(rng, n)
            got = s._action[1]
            want = old_compiled_diagonals(s)
            assert [x for x, _ in got] == [x for x, _ in want]
            for (_, g), (_, w) in zip(got, want):
                assert g.dtype == w.dtype
                np.testing.assert_array_equal(g, w)

    @pytest.mark.parametrize("ops", ["I", "Y", "XZ", "YY", "ZYX", "YIYZ"])
    def test_string_action_bitwise_unchanged(self, ops):
        p = PauliString.from_ops(ops)
        amps = random_state(np.random.default_rng(len(ops)), p.n).amps
        idx = np.arange(amps.size, dtype=np.int64)
        src = idx ^ p.x_mask
        want = (1j) ** p.n_y * (1.0 - 2.0 * _parity(src & p.z_mask)) * amps[src]
        np.testing.assert_array_equal(_string_action(p, amps), want)
