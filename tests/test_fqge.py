import numpy as np
import pytest

from conftest import random_pencil, random_state, two_qubit_pencil
from geig.ansatz import random_params
from geig.fqge import (
    FqgeConfig,
    LcuOperator,
    apply_g,
    build_lcu,
    gradient_direction,
    line_search,
    loss_state,
    noise_inject,
    noise_vector,
    residual,
    run_fqge,
)
from geig.pauli import PauliString, PauliSum, decompose, dense_matrix
from geig.reference import generalized_eig
from geig.statevector import StateVector, basis_state, inner, norm, normalize
from geig.vqge import Pencil, check_b, loss_f, rayleigh_quotient


@pytest.fixture(scope="module")
def demo():
    pencil = two_qubit_pencil()
    return pencil, generalized_eig(pencil)


def eigvec_state(ref, k):
    v = ref.eigenvectors[:, k]
    return StateVector(2, v / np.linalg.norm(v))


def lcu_dense(lcu, n):
    m = np.zeros((2**n, 2**n), dtype=complex)
    for g, ps in zip(lcu.coeffs, lcu.strings):
        m += g * dense_matrix(PauliSum(n, [(1.0, ps.ops)]))
    return m


def g_dense(pencil, state, delta, f):
    ad, bd = dense_matrix(pencil.A), dense_matrix(pencil.B)
    b = inner(state, StateVector(state.n, bd @ state.amps, normalized=False)).real
    return np.eye(2**pencil.n) - 2 * delta * (ad - f * bd) / b


class TestBPositivity:
    def test_every_entry_point_reports_the_same_error(self):
        pencil = Pencil(PauliSum.identity(1, 1.0), PauliSum.identity(1, -1.0))
        s = basis_state(1, 0)
        calls = [
            lambda: loss_state(s, pencil),
            lambda: residual(s, pencil),
            lambda: gradient_direction(s, pencil, 1.0),
            lambda: build_lcu(s, pencil, 0.1, 1.0),
            lambda: run_fqge(pencil, s),
            lambda: loss_f(random_params(1, 1, np.random.default_rng(0)), pencil),
        ]
        for d in (np.array([0.0, 1.0]), s.amps):  # across psi, and along it
            direction = StateVector(1, d, normalized=False)
            calls.append(lambda direction=direction: line_search(s, direction, pencil))
        for call in calls:
            with pytest.raises(ValueError, match=r"<B> = .*; B is not positive definite"):
                call()

    def test_array_check_reports_the_smallest_entry(self):
        b = np.array([0.5, -2.0, 1e-13, 3.0])
        with pytest.raises(ValueError, match=r"^<B> = -2\.000e\+00 at the evaluated state"):
            check_b(b)
        with pytest.raises(ValueError, match="B is not positive definite"):
            rayleigh_quotient(np.ones(2), np.array([1.0, 1e-13]))
        good = np.array([0.5, 2.0])
        assert check_b(good) is good
        np.testing.assert_array_equal(rayleigh_quotient(np.array([1.0, 3.0]), good), [2.0, 1.5])
        assert check_b(0.25) == 0.25


class TestLossState:
    def test_zero_basis_ratio(self, demo):
        pencil, _ = demo
        assert abs(loss_state(basis_state(2, 0), pencil) - 1.8 / 1.9) < 1e-12

    def test_eigenvector_gives_eigenvalue(self, demo):
        pencil, ref = demo
        for k in range(4):
            got = loss_state(eigvec_state(ref, k), pencil)
            assert abs(got - ref.eigenvalues[k]) < 1e-10

    def test_phase_invariance(self, demo):
        pencil, _ = demo
        s = random_state(np.random.default_rng(0), 2)
        t = StateVector(2, np.exp(1.3j) * s.amps)
        assert abs(loss_state(s, pencil) - loss_state(t, pencil)) < 1e-12


class TestGradientDirection:
    def test_vanishes_at_eigenvector(self, demo):
        pencil, ref = demo
        s = eigvec_state(ref, 1)
        d = gradient_direction(s, pencil, loss_state(s, pencil))
        assert norm(d) < 1e-9

    def test_block_support_from_00(self, demo):
        pencil, _ = demo
        s = basis_state(2, 0)
        d = gradient_direction(s, pencil, loss_state(s, pencil))
        assert abs(d.amps[1]) == 0.0 and abs(d.amps[2]) == 0.0

    def test_identity_b_reduction(self):
        a = decompose(np.diag([2.0, 1.0]))
        pencil = Pencil(a, PauliSum.identity(1, 1.0))
        s = StateVector(1, np.array([1, 1]) / np.sqrt(2))
        f = loss_state(s, pencil)
        d = gradient_direction(s, pencil, f)
        want = -2 * (np.diag([2.0, 1.0]) @ s.amps - f * s.amps)
        np.testing.assert_allclose(d.amps, want, atol=1e-12)

    def test_orthogonal_to_state(self, demo):
        pencil, _ = demo
        rng = np.random.default_rng(1)
        for _ in range(10):
            s = random_state(rng, 2)
            d = gradient_direction(s, pencil, loss_state(s, pencil))
            assert abs(inner(s, d)) < 1e-12


class TestResidual:
    def test_eigenvector(self, demo):
        pencil, ref = demo
        assert residual(eigvec_state(ref, 0), pencil) <= 1e-10

    def test_equal_identity_operators(self):
        pencil = Pencil(PauliSum.identity(2, 1.0), PauliSum.identity(2, 1.0))
        s = random_state(np.random.default_rng(2), 2)
        assert residual(s, pencil) == 0.0

    def test_zero_basis_matches_dense_arithmetic(self, demo):
        pencil, _ = demo
        s = basis_state(2, 0)
        f = 1.8 / 1.9
        ad, bd = dense_matrix(pencil.A), dense_matrix(pencil.B)
        num = np.linalg.norm(ad[:, 0] - f * bd[:, 0])
        den = np.linalg.norm(ad[:, 0]) + f * np.linalg.norm(bd[:, 0])
        assert abs(residual(s, pencil) - num / den) < 1e-12

    def test_bounded_by_one(self, demo):
        pencil, _ = demo
        rng = np.random.default_rng(3)
        for _ in range(50):
            r = residual(random_state(rng, 2), pencil)
            assert 0.0 <= r <= 1.0


class TestBuildLcu:
    def test_delta_zero_is_identity(self, demo):
        pencil, _ = demo
        lcu = build_lcu(basis_state(2, 0), pencil, 0.0, 1.8 / 1.9)
        assert lcu.d == 1
        assert lcu.coeffs == (1.0 + 0.0j,)
        assert lcu.strings[0].ops == "II"
        assert lcu.norm_c == 1.0

    def test_identity_coefficient_merges_term_coeffs(self, demo):
        """g_I = 1 - 2*delta*(alpha_I - F*beta_I)/<B> from the I terms."""
        pencil, _ = demo
        f = 1.8 / 1.9
        lcu = build_lcu(basis_state(2, 0), pencil, 0.1, f)
        ident = [g for g, p in zip(lcu.coeffs, lcu.strings) if p.ops == "II"]
        want = 1 - 0.2 * (1.0 - f * 1.0) / 1.9
        assert abs(ident[0] - want) < 1e-12

    def test_dense_reconstruction(self, demo):
        pencil, _ = demo
        rng = np.random.default_rng(4)
        for _ in range(10):
            s = random_state(rng, 2)
            f = loss_state(s, pencil)
            delta = complex(rng.normal(), rng.normal()) * 0.1
            lcu = build_lcu(s, pencil, delta, f)
            err = np.max(np.abs(lcu_dense(lcu, 2) - g_dense(pencil, s, delta, f)))
            assert err < 1e-12

    def test_merges_shared_strings(self):
        a = PauliSum(1, [(1.0, "I"), (0.5, "Z")])
        b = PauliSum(1, [(1.0, "I"), (0.2, "Z")])
        pencil = Pencil(a, b)
        s = basis_state(1, 0)
        lcu = build_lcu(s, pencil, 0.1, loss_state(s, pencil))
        assert lcu.d == 2, "I and Z terms of A and B each merge"

    def test_norm_c_definition(self, demo):
        pencil, _ = demo
        s = basis_state(2, 0)
        lcu = build_lcu(s, pencil, 0.07, loss_state(s, pencil))
        want = np.sqrt(sum(abs(g) ** 2 for g in lcu.coeffs))
        assert abs(lcu.norm_c - want) < 1e-15
        assert lcu.d == len(lcu.coeffs) == len(lcu.strings)


class TestApplyG:
    def test_delta_zero_identity(self, demo):
        pencil, _ = demo
        s = basis_state(2, 0)
        lcu = build_lcu(s, pencil, 0.0, loss_state(s, pencil))
        out, prob = apply_g(lcu, s)
        np.testing.assert_allclose(out.amps, s.amps)
        assert prob == pytest.approx(1.0)

    def test_eigenvector_fixed_with_success_formula(self, demo):
        pencil, ref = demo
        s = eigvec_state(ref, 0)
        lcu = build_lcu(s, pencil, 0.3, loss_state(s, pencil))
        out, prob = apply_g(lcu, s)
        overlap = abs(inner(normalize(out), s))
        assert abs(overlap - 1.0) < 1e-9, "eigenvector is a fixed point"
        assert abs(prob - 1.0 / (lcu.norm_c**2 * lcu.d)) < 1e-9

    def test_matches_dense_action(self, demo):
        pencil, _ = demo
        rng = np.random.default_rng(5)
        for _ in range(10):
            s = random_state(rng, 2)
            f = loss_state(s, pencil)
            lcu = build_lcu(s, pencil, 0.1, f)
            out, prob = apply_g(lcu, s)
            want = g_dense(pencil, s, 0.1, f) @ s.amps
            assert np.max(np.abs(out.amps - want)) < 1e-12
            assert 0.0 < prob <= 1.0

    def test_zero_output_raises(self):
        ident = PauliString.from_ops("I")
        lcu = LcuOperator((1.0 + 0j, -1.0 + 0j), (ident, ident), np.sqrt(2.0), 2)
        with pytest.raises(RuntimeError, match="zero norm"):
            apply_g(lcu, basis_state(1, 0))


class TestLineSearch:
    def test_diagonal_closed_form(self):
        pencil = Pencil(decompose(np.diag([2.0, 1.0])), PauliSum.identity(1, 1.0))
        s = StateVector(1, np.array([1, 1]) / np.sqrt(2))
        d = gradient_direction(s, pencil, loss_state(s, pencil))
        delta, predicted = line_search(s, d, pencil)
        assert abs(predicted - 1.0) < 1e-12, "lands on the exact minimum"
        assert abs(delta - 1.0) < 1e-12

    def test_prediction_is_realized(self, demo):
        pencil, _ = demo
        rng = np.random.default_rng(6)
        for _ in range(10):
            s = random_state(rng, 2)
            f = loss_state(s, pencil)
            d = gradient_direction(s, pencil, f)
            if norm(d) < 1e-10:
                continue
            delta, predicted = line_search(s, d, pencil)
            moved = normalize(
                StateVector(2, s.amps + delta * d.amps, normalized=False)
            )
            assert abs(loss_state(moved, pencil) - predicted) < 1e-9
            assert predicted <= f + 1e-12, "descent"

    def test_from_zero_basis_bounded_by_oracle(self, demo):
        pencil, ref = demo
        s = basis_state(2, 0)
        f = loss_state(s, pencil)
        d = gradient_direction(s, pencil, f)
        _, predicted = line_search(s, d, pencil)
        assert ref.eigenvalues[0] - 1e-12 <= predicted < f

    def test_degenerate_direction_returns_zero_step(self, demo):
        pencil, ref = demo
        s = eigvec_state(ref, 2)
        d = gradient_direction(s, pencil, loss_state(s, pencil))
        delta, predicted = line_search(s, d, pencil)
        assert delta == 0.0
        assert abs(predicted - ref.eigenvalues[2]) < 1e-9


class TestNoise:
    def test_vector_norm_is_tau_magnitude(self):
        rng = np.random.default_rng(7)
        v = noise_vector(3, 0.5, rng)
        assert v.shape == (8,)
        assert np.allclose(v, v[0]), "uniform perturbation"

    def test_sigma_zero_is_identity(self):
        s = basis_state(2, 1)
        out = noise_inject(s, 0.0, np.random.default_rng(8))
        assert out is s

    def test_mean_perturbation_norm(self):
        """E |tau| = sigma * sqrt(2/pi) for the half-normal magnitude."""
        rng = np.random.default_rng(9)
        sigma = 0.01
        norms = [np.linalg.norm(noise_vector(2, sigma, rng)) for _ in range(10_000)]
        want = sigma * np.sqrt(2 / np.pi)
        assert abs(np.mean(norms) - want) < 0.05 * want

    def test_injection_renormalizes(self, demo):
        rng = np.random.default_rng(10)
        s = basis_state(2, 0)
        out = noise_inject(s, 0.2, rng)
        assert out.normalized and abs(norm(out) - 1) < 1e-12

    def test_negative_sigma_rejected(self):
        with pytest.raises(ValueError):
            FqgeConfig(noise_sigma=-0.1)


class TestRunFqge:
    def test_noiseless_convergence(self, demo):
        pencil, ref = demo
        result = run_fqge(pencil, basis_state(2, 0), FqgeConfig(delta=0.1))
        assert result.status == "converged"
        assert len(result.iterates) <= 201
        assert abs(result.eigenvalue - ref.eigenvalues[0]) <= 1e-4
        u1 = ref.eigenvectors[:, 0]
        fid = abs(np.vdot(u1 / np.linalg.norm(u1), result.state.amps)) ** 2
        assert fid >= 0.9999

    def test_eigenvector_initial_terminates_immediately(self, demo):
        pencil, ref = demo
        result = run_fqge(pencil, eigvec_state(ref, 0), FqgeConfig())
        assert result.status == "converged"
        assert len(result.iterates) == 1
        assert result.iterates[0].delta_used == 0.0
        assert result.iterates[0].success_prob == 1.0

    def test_max_iters_status(self, demo):
        pencil, _ = demo
        result = run_fqge(
            pencil, basis_state(2, 0), FqgeConfig(delta=0.01, epsilon=1e-15, max_iters=5)
        )
        assert result.status == "max_iters"
        assert len(result.iterates) == 6, "5 update rows plus the terminal row"

    def test_row_invariants(self, demo):
        pencil, _ = demo
        result = run_fqge(pencil, basis_state(2, 0), FqgeConfig(delta=0.1, max_iters=40, epsilon=1e-15))
        for k, row in enumerate(result.iterates, start=1):
            assert row.s == k, "contiguous 1-based steps"
            assert abs(row.value - loss_state(row.state, pencil)) < 1e-10
            assert 0.0 < row.success_prob <= 1.0 + 1e-12

    def test_block_conservation(self, demo):
        pencil, _ = demo
        result = run_fqge(pencil, basis_state(2, 0), FqgeConfig(delta=0.1))
        for row in result.iterates:
            assert abs(row.state.amps[1]) < 1e-12 and abs(row.state.amps[2]) < 1e-12

    def test_line_search_monotone_descent(self, demo):
        pencil, _ = demo
        result = run_fqge(pencil, basis_state(2, 0), FqgeConfig(line_search=True))
        values = [row.value for row in result.iterates]
        assert all(b <= a + 1e-10 for a, b in zip(values, values[1:]))
        assert result.status == "converged"

    def test_fixed_point_after_convergence(self, demo):
        pencil, _ = demo
        result = run_fqge(pencil, basis_state(2, 0), FqgeConfig(delta=0.1))
        s = result.state
        lcu = build_lcu(s, pencil, 0.2, loss_state(s, pencil))
        out, _ = apply_g(lcu, s)
        moved = normalize(out)
        phase = inner(s, moved)
        phase = phase / abs(phase)
        # the converged state is an eigenvector only to within cfg.epsilon,
        # so the fixed-point deviation scales with the residual threshold
        assert np.max(np.abs(moved.amps - phase * s.amps)) <= 1e-7

    def test_noisy_run_stays_near_minimum(self, demo):
        pencil, ref = demo
        result = run_fqge(
            pencil, basis_state(2, 0), FqgeConfig(delta=0.1, noise_sigma=0.01, seed=3)
        )
        assert abs(result.eigenvalue - ref.eigenvalues[0]) < 0.05

    def test_deterministic_given_seed(self, demo):
        pencil, _ = demo
        cfg = FqgeConfig(delta=0.1, noise_sigma=0.01, seed=11, max_iters=30, epsilon=1e-15)
        r1 = run_fqge(pencil, basis_state(2, 0), cfg)
        r2 = run_fqge(pencil, basis_state(2, 0), cfg)
        assert [row.value for row in r1.iterates] == [row.value for row in r2.iterates]

    def test_unnormalized_initial_is_normalized(self, demo):
        pencil, _ = demo
        raw = StateVector(2, np.array([2.0, 0, 0, 0]), normalized=False)
        result = run_fqge(pencil, raw, FqgeConfig(max_iters=3, epsilon=1e-15))
        assert abs(norm(result.iterates[0].state) - 1.0) < 1e-12

    def test_config_validation(self):
        with pytest.raises(ValueError):
            FqgeConfig(max_iters=0)

    @pytest.mark.parametrize("field", ["delta", "epsilon", "noise_sigma"])
    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), -float("inf")])
    def test_config_rejects_nonfinite(self, field, bad):
        with pytest.raises(ValueError, match=field):
            FqgeConfig(**{field: bad})

    def test_random_pencils_converge_or_stop_cleanly(self):
        rng = np.random.default_rng(12)
        for _ in range(5):
            pencil, a, b = random_pencil(rng, 2)
            result = run_fqge(pencil, random_state(rng, 2), FqgeConfig(line_search=True))
            values = [row.value for row in result.iterates]
            assert all(y <= x + 1e-10 for x, y in zip(values, values[1:]))
            ref = generalized_eig(pencil)
            if result.status == "converged" and result.iterates[-1].residual <= 1e-8:
                err = min(abs(result.eigenvalue - lam) for lam in ref.eigenvalues)
                assert err < 1e-6


class TestRawAmplitudeIteration:
    @pytest.mark.parametrize("line_search", [False, True], ids=["fixed", "line-search"])
    def test_one_state_vector_per_row(self, monkeypatch, line_search):
        """run_fqge steps raw amplitudes; the only StateVector it builds
        per row is that row's state."""
        rng = np.random.default_rng(11)
        pencil, _, _ = random_pencil(rng, 3)
        initial = random_state(rng, 3)
        cfg = FqgeConfig(line_search=line_search, epsilon=1e-15, max_iters=15)
        built = []
        original_init = StateVector.__post_init__

        def counting_init(self):
            built.append(self)
            original_init(self)

        monkeypatch.setattr(StateVector, "__post_init__", counting_init)
        result = run_fqge(pencil, initial, cfg)
        assert len(result.iterates) >= 3
        assert len(built) <= len(result.iterates)

    def test_noisy_rows_match_noise_inject(self, demo):
        """The raw-amplitude noise step equals noise_inject on states."""
        pencil, _ = demo
        cfg = FqgeConfig(delta=0.1, max_iters=6, noise_sigma=0.05, seed=4)
        rows = run_fqge(pencil, basis_state(2, 0), cfg).iterates
        rng = np.random.default_rng(4)
        for row, nxt in zip(rows, rows[1:]):
            direction = gradient_direction(row.state, pencil, row.value)
            raw = row.state.amps + row.delta_used * direction.amps
            want = noise_inject(normalize(StateVector(2, raw, normalized=False)), 0.05, rng)
            np.testing.assert_array_equal(nxt.state.amps, want.amps)


def close(x, y, tol=1e-12):
    return abs(x - y) <= tol * max(1.0, abs(y))


class TestRunFqgeMatchesExplicitLcu:
    """run_fqge steps psi + delta*direction; each row must match the explicit
    build_lcu + apply_g + normalize path taken from that row's state."""

    @pytest.mark.parametrize(
        "cfg",
        [
            FqgeConfig(delta=0.05, epsilon=1e-15, max_iters=12),
            FqgeConfig(line_search=True, epsilon=1e-15, max_iters=12),
        ],
        ids=["fixed", "line-search"],
    )
    def test_rows_match_explicit_path(self, cfg):
        rng = np.random.default_rng(2021)
        pencil, _, _ = random_pencil(rng, 4)
        result = run_fqge(pencil, random_state(rng, 4), cfg)
        rows = result.iterates
        assert len(rows) >= 3
        for row, nxt in zip(rows, rows[1:]):
            state = row.state
            value = loss_state(state, pencil)
            assert close(row.value, value)
            assert close(row.residual, residual(state, pencil))
            if cfg.line_search:
                direction = gradient_direction(state, pencil, value)
                delta, _ = line_search(state, direction, pencil)
            else:
                delta = complex(cfg.delta)
            assert close(row.delta_used, delta)
            lcu = build_lcu(state, pencil, delta, value)
            raw, success = apply_g(lcu, state)
            assert close(row.success_prob, success)
            assert close(row.lcu_norm_c, lcu.norm_c)
            assert row.lcu_terms == lcu.d
            assert np.max(np.abs(nxt.state.amps - normalize(raw).amps)) <= 1e-12
        last = rows[-1]
        assert close(last.value, loss_state(last.state, pencil))
        assert close(last.residual, residual(last.state, pencil))
