import numpy as np
import pytest

from conftest import random_pencil, random_state, two_qubit_pencil
from geig.ansatz import AnsatzParams, apply_ansatz, random_params, shift
from geig.pauli import PauliSum, apply_sum, decompose, dense_matrix
from geig.reference import generalized_eig, hermitian_eig
from geig.statevector import StateVector, inner, zero_state
from geig.vqge import (
    DeflationRecord,
    OptConfig,
    Pencil,
    SolveConfig,
    grad_f,
    grad_fj,
    loss_f,
    loss_fj,
    optimize,
    overlap_sq,
    solve_spectrum,
)


@pytest.fixture(scope="module")
def demo():
    pencil = two_qubit_pencil()
    ref = generalized_eig(pencil)
    return pencil, ref


@pytest.fixture(scope="module")
def demo_solution(demo):
    pencil, _ = demo
    levels = solve_spectrum(pencil, 4, SolveConfig(layers=2, restarts=5, seed=0))
    return pencil, levels


class TestPencilApply:
    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
    def test_matches_dense_brackets_on_one_and_many_rows(self, n):
        rng = np.random.default_rng(50 + n)
        pencil, a_dense, b_dense = random_pencil(rng, n)
        assert any(term.n_y % 2 for _, term in pencil.A.terms + pencil.B.terms)
        rows = np.stack([random_state(rng, n).amps for _ in range(6)])
        for amps in (rows[0], rows, rows.reshape(2, 3, -1)):
            a_psi, b_psi, a, b = pencil.apply(amps)
            want_a_psi, want_b_psi = amps @ a_dense.T, amps @ b_dense.T
            np.testing.assert_allclose(a_psi, want_a_psi, rtol=0, atol=1e-12)
            np.testing.assert_allclose(b_psi, want_b_psi, rtol=0, atol=1e-12)
            bra = amps.conj()
            want_a = np.real(np.sum(bra * want_a_psi, axis=-1))
            want_b = np.real(np.sum(bra * want_b_psi, axis=-1))
            assert np.shape(a) == np.shape(b) == amps.shape[:-1]
            np.testing.assert_allclose(a, want_a, rtol=0, atol=1e-12)
            np.testing.assert_allclose(b, want_b, rtol=0, atol=1e-12)

    def test_one_row_equals_state_brackets_bitwise(self, demo):
        pencil, _ = demo
        v = random_state(np.random.default_rng(3), 2)
        _, _, a, b = pencil.apply(v.amps)
        assert a == inner(v, apply_sum(pencil.A, v)).real
        assert b == inner(v, apply_sum(pencil.B, v)).real


def fd_grad(loss, p, h=1e-5):
    g = np.zeros((p.n, p.L))
    for t in range(p.L):
        for i in range(p.n):
            g[i, t] = (loss(shift(p, t, i, h)) - loss(shift(p, t, i, -h))) / (2 * h)
    return g


class TestPencil:
    def test_qubit_mismatch(self):
        with pytest.raises(ValueError):
            Pencil(PauliSum.identity(2, 1.0), PauliSum.identity(3, 1.0))

    def test_n_property(self):
        assert two_qubit_pencil().n == 2


class TestLossF:
    def test_zero_angles_give_diagonal_ratio(self, demo):
        pencil, _ = demo
        p = AnsatzParams(2, 2, np.zeros((2, 2)))
        assert abs(loss_f(p, pencil) - 1.8 / 1.9) < 1e-12

    def test_equal_operators_give_one(self):
        s = PauliSum(2, [(0.5, "XX"), (1.0, "II")])
        pencil = Pencil(s, s)
        rng = np.random.default_rng(0)
        for _ in range(5):
            p = random_params(2, 2, rng)
            assert abs(loss_f(p, pencil) - 1.0) < 1e-12

    def test_input_phase_invariance(self, demo):
        pencil, _ = demo
        rng = np.random.default_rng(1)
        p = random_params(2, 2, rng)
        v = zero_state(2)
        w = StateVector(2, np.exp(0.7j) * v.amps)
        assert abs(loss_f(p, pencil, v) - loss_f(p, pencil, w)) < 1e-12

    def test_rayleigh_bounds(self, demo):
        pencil, ref = demo
        rng = np.random.default_rng(2)
        lo, hi = ref.eigenvalues[0], ref.eigenvalues[-1]
        for _ in range(200):
            p = random_params(2, 2, rng)
            val = loss_f(p, pencil)
            assert lo - 1e-9 <= val <= hi + 1e-9

    def test_non_pd_b_detected(self):
        pencil = Pencil(PauliSum.identity(1, 1.0), PauliSum(1, [(1.0, "Z")]))
        p = AnsatzParams(1, 1, np.array([[np.pi]]))  # prepares |1>, <B> = -1
        with pytest.raises(ValueError, match="positive definite"):
            loss_f(p, pencil)

    def test_shot_mode_converges_to_exact(self, demo):
        pencil, _ = demo
        p = random_params(2, 2, np.random.default_rng(3))
        exact = loss_f(p, pencil)
        noisy = loss_f(p, pencil, shots=200_000, rng=np.random.default_rng(4))
        assert abs(noisy - exact) < 0.02


class TestOverlapSq:
    def test_same_params_identity_b(self):
        p = random_params(2, 2, np.random.default_rng(5))
        assert abs(overlap_sq(p, p, PauliSum.identity(2, 1.0)) - 1.0) < 1e-12

    def test_matches_dense_bracket(self, demo):
        pencil, _ = demo
        bd = dense_matrix(pencil.B)
        rng = np.random.default_rng(6)
        for _ in range(5):
            p, q = random_params(2, 2, rng), random_params(2, 2, rng)
            psi = apply_ansatz(p, zero_state(2)).amps
            phi = apply_ansatz(q, zero_state(2)).amps
            want = abs(np.vdot(psi, bd @ phi)) ** 2
            assert abs(overlap_sq(p, q, pencil.B) - want) < 1e-12


class TestLossFj:
    def test_empty_records_equal_loss_f(self, demo):
        pencil, _ = demo
        p = random_params(2, 2, np.random.default_rng(7))
        assert loss_fj(p, pencil, ()) == loss_f(p, pencil)

    def test_at_recorded_state_penalty_is_gamma(self, demo):
        """F_j at the recorded state itself adds exactly gamma."""
        pencil, ref = demo
        rng = np.random.default_rng(8)
        p = random_params(2, 2, rng)
        state = apply_ansatz(p, zero_state(2))
        rec = DeflationRecord(0.0, 1.234, state, p)
        got = loss_fj(p, pencil, [rec])
        assert abs(got - (loss_f(p, pencil) + 1.234)) < 1e-12

    def test_lower_bound_with_oracle_records(self, demo):
        pencil, ref = demo
        lam = ref.eigenvalues
        gamma = lam[-1] - lam[0]
        records = [
            DeflationRecord(lam[k], gamma, StateVector(2, ref.eigenvectors[:, k], normalized=False))
            for k in range(2)
        ]
        rng = np.random.default_rng(9)
        for _ in range(100):
            p = random_params(2, 2, rng)
            assert loss_fj(p, pencil, records) >= lam[2] - 1e-8

    def test_record_scaling_invariance(self, demo):
        """The penalty normalizes the record state, so its scale is free."""
        pencil, ref = demo
        p = random_params(2, 2, np.random.default_rng(10))
        u = ref.eigenvectors[:, 0]
        r1 = DeflationRecord(0.0, 1.0, StateVector(2, u, normalized=False))
        r2 = DeflationRecord(0.0, 1.0, StateVector(2, 3.7 * u, normalized=False))
        assert abs(loss_fj(p, pencil, [r1]) - loss_fj(p, pencil, [r2])) < 1e-12


class TestGradients:
    def test_equal_operators_zero_gradient(self):
        s = PauliSum(2, [(0.5, "XX"), (1.0, "II")])
        pencil = Pencil(s, s)
        p = random_params(2, 2, np.random.default_rng(11))
        assert np.max(np.abs(grad_f(p, pencil))) < 1e-12

    def test_grad_f_matches_finite_differences(self, demo):
        pencil, _ = demo
        rng = np.random.default_rng(12)
        for _ in range(5):
            p = random_params(2, 2, rng)
            g = grad_f(p, pencil)
            fd = fd_grad(lambda q: loss_f(q, pencil), p)
            assert np.max(np.abs(g - fd)) < 1e-7

    def test_grad_fj_matches_finite_differences(self, demo):
        pencil, ref = demo
        rec = DeflationRecord(
            ref.eigenvalues[0], 1.3, StateVector(2, ref.eigenvectors[:, 0], normalized=False)
        )
        rng = np.random.default_rng(13)
        for _ in range(5):
            p = random_params(2, 2, rng)
            g = grad_fj(p, pencil, [rec])
            fd = fd_grad(lambda q: loss_fj(q, pencil, [rec]), p)
            assert np.max(np.abs(g - fd)) < 1e-7

    def test_empty_records_reduce_to_grad_f(self, demo):
        pencil, _ = demo
        p = random_params(2, 2, np.random.default_rng(14))
        np.testing.assert_array_equal(grad_fj(p, pencil, ()), grad_f(p, pencil))

    def test_penalty_gradient_linear_in_gamma(self, demo):
        pencil, ref = demo
        p = random_params(2, 2, np.random.default_rng(15))
        u = StateVector(2, ref.eigenvectors[:, 0], normalized=False)
        base = grad_f(p, pencil)
        pen1 = grad_fj(p, pencil, [DeflationRecord(0.0, 1.0, u)]) - base
        pen2 = grad_fj(p, pencil, [DeflationRecord(0.0, 2.0, u)]) - base
        np.testing.assert_allclose(pen2, 2 * pen1, atol=1e-12)


class TestOptimize:
    def test_constant_loss_trace(self):
        s = PauliSum(2, [(0.5, "XX"), (1.0, "II")])
        pencil = Pencil(s, s)
        p0 = random_params(2, 2, np.random.default_rng(16))
        trace = optimize(
            lambda p: loss_f(p, pencil), lambda p: grad_f(p, pencil), p0, OptConfig(iters=10)
        )
        assert len(trace.steps) == 11
        assert all(abs(st.loss - 1.0) < 1e-12 for st in trace.steps)
        assert trace.best_value == pytest.approx(1.0)

    def test_minimizes_demo_pencil(self, demo):
        pencil, ref = demo
        p0 = random_params(2, 2, np.random.default_rng([0, 1, 0]))
        trace = optimize(
            lambda p: loss_f(p, pencil), lambda p: grad_f(p, pencil), p0, OptConfig()
        )
        assert abs(trace.best_value - ref.eigenvalues[0]) < 1e-3

    def test_maximizes_via_negation(self, demo):
        pencil, ref = demo
        p0 = random_params(2, 2, np.random.default_rng([0, 4, 0]))
        trace = optimize(
            lambda p: -loss_f(p, pencil), lambda p: -grad_f(p, pencil), p0, OptConfig()
        )
        assert abs(-trace.best_value - ref.eigenvalues[-1]) < 1e-3

    def test_best_value_is_trace_minimum(self, demo):
        pencil, _ = demo
        p0 = random_params(2, 2, np.random.default_rng(17))
        trace = optimize(
            lambda p: loss_f(p, pencil),
            lambda p: grad_f(p, pencil),
            p0,
            OptConfig(iters=40),
        )
        assert trace.best_value == min(st.loss for st in trace.steps)

    def test_gradient_norm_small_at_optimum(self, demo_solution):
        pencil, levels = demo_solution
        assert np.linalg.norm(grad_f(levels[0].params, pencil)) <= 1e-4

    def test_non_finite_loss_aborts(self):
        p0 = AnsatzParams(1, 1, np.zeros((1, 1)))
        with pytest.raises(RuntimeError, match="non-finite"):
            optimize(lambda p: np.nan, lambda p: np.zeros((1, 1)), p0, OptConfig())

    def test_plain_gradient_descent(self, demo):
        pencil, ref = demo
        p0 = random_params(2, 2, np.random.default_rng(18))
        trace = optimize(
            lambda p: loss_f(p, pencil),
            lambda p: grad_f(p, pencil),
            p0,
            OptConfig(method="gd", lr=0.3, iters=400),
        )
        assert trace.best_value < ref.eigenvalues[0] + 0.05

    def test_config_validation(self):
        with pytest.raises(ValueError):
            OptConfig(iters=0)
        with pytest.raises(ValueError):
            OptConfig(method="sgd")


class TestSolveSpectrum:
    def test_recovers_full_demo_spectrum(self, demo_solution, demo):
        _, ref = demo
        _, levels = demo_solution
        got = [lv.eigenvalue for lv in levels]
        np.testing.assert_allclose(got, ref.eigenvalues, atol=1e-2)
        assert [lv.objective for lv in levels] == ["min", "deflate", "deflate", "max"]

    def test_output_states_b_normalized_and_orthogonal(self, demo_solution):
        pencil, levels = demo_solution
        states = [lv.state for lv in levels]
        for i, si in enumerate(states):
            bi = apply_sum(pencil.B, si)
            assert abs(inner(si, bi).real - 1.0) < 1e-9, "B-normalized"
            for sj in states[i + 1 :]:
                assert abs(inner(sj, bi)) <= 1e-2, "B-orthogonal across levels"

    def test_r_one_returns_minimum_only(self, demo):
        pencil, ref = demo
        levels = solve_spectrum(pencil, 1, SolveConfig(restarts=3, seed=2))
        assert len(levels) == 1
        assert abs(levels[0].eigenvalue - ref.eigenvalues[0]) < 1e-3

    def test_b_identity_matches_standard_eigenvalues(self):
        rng = np.random.default_rng(20)
        a = rng.normal(size=(4, 4))
        a = (a + a.T) / 2
        pencil = Pencil(decompose(a), PauliSum.identity(2, 1.0))
        want, _ = hermitian_eig(a)
        levels = solve_spectrum(pencil, 4, SolveConfig(restarts=5, seed=3))
        np.testing.assert_allclose([lv.eigenvalue for lv in levels], want, atol=1e-2)

    @pytest.mark.parametrize(
        "kwargs, name",
        [({"restarts": 0}, "restarts"), ({"layers": 0}, "layers"), ({"shots": -1}, "shots")],
    )
    def test_config_validation(self, kwargs, name):
        with pytest.raises(ValueError, match=name):
            SolveConfig(**kwargs)

    def test_r_out_of_range(self, demo):
        pencil, _ = demo
        with pytest.raises(ValueError):
            solve_spectrum(pencil, 5)
        with pytest.raises(ValueError):
            solve_spectrum(pencil, 0)

    def test_deterministic_given_seed(self, demo):
        pencil, _ = demo
        cfg = SolveConfig(restarts=2, seed=5, opt=OptConfig(iters=30))
        a = solve_spectrum(pencil, 2, cfg)
        b = solve_spectrum(pencil, 2, cfg)
        assert [x.eigenvalue for x in a] == [x.eigenvalue for x in b]
