import math
import re

import numpy as np
import pytest

from conftest import random_state
from geig.measurement import (
    ErrorBudget,
    error_bound,
    per_term_precision,
    pseudo_error_sq,
    sample_overlaps,
    shot_allocation,
)
from geig.pauli import PauliString, PauliSum, dense_matrix, gather_kets, overlaps, term_gathers
from geig.statevector import basis_state


def hadamard_test(u, ops, w, shots=0, rng=None) -> complex:
    """<u|P|w> as shot mode takes it: the string's ket by one gather, the
    exact overlap, then one sampler call."""
    p = PauliString.from_ops(ops)
    exact = overlaps(u.amps, gather_kets(term_gathers((p,), p.n), w.amps)[0])
    return sample_overlaps(exact, shots, rng)[0]


class TestHadamardTest:
    def test_z_diagonal(self):
        value = hadamard_test(basis_state(1, 0), "Z", basis_state(1, 0))
        assert (value.real, value.imag) == (1.0, 0.0)

    def test_y_off_diagonal(self):
        value = hadamard_test(basis_state(1, 0), "Y", basis_state(1, 0))
        assert abs(value.real) < 1e-15 and abs(value.imag) < 1e-15

    def test_exact_matches_inner_product(self):
        rng = np.random.default_rng(1)
        for _ in range(20):
            u, w = random_state(rng, 2), random_state(rng, 2)
            ops = "".join(np.random.default_rng(2).choice(list("IXYZ"), size=2))
            value = hadamard_test(u, ops, w)
            want = np.vdot(u.amps, dense_matrix(PauliSum(2, [(1.0, ops)])) @ w.amps)
            assert abs(value - want) < 1e-12

    def test_shot_noise_within_binomial_bounds(self):
        """Sampled estimates stay within 5 sigma of the exact value."""
        rng = np.random.default_rng(3)
        shots = 100_000
        for _ in range(20):
            u, w = random_state(rng, 2), random_state(rng, 2)
            exact = hadamard_test(u, "XZ", w)
            sampled = hadamard_test(u, "XZ", w, shots=shots, rng=rng)
            for e, s in [(exact.real, sampled.real), (exact.imag, sampled.imag)]:
                sigma = np.sqrt(max(1.0 - e**2, 1e-12) / shots)
                assert abs(s - e) <= 5 * sigma + 1e-9

    def test_estimator_is_unbiased(self):
        u, w = basis_state(1, 0), basis_state(1, 0)
        # <0|X|0> = 0, maximal variance
        rng = np.random.default_rng(4)
        means = [hadamard_test(u, "X", w, shots=100, rng=rng).real for _ in range(2000)]
        assert abs(np.mean(means)) < 0.01

    def test_integer_seed_accepted(self):
        a = hadamard_test(basis_state(1, 0), "X", basis_state(1, 1), 50, 7)
        b = hadamard_test(basis_state(1, 0), "X", basis_state(1, 1), 50, 7)
        assert a == b


class TestErrorBound:
    def test_zero_budgets(self):
        assert error_bound(ErrorBudget(0, 0, 0, 1.0, 2.0)) == 0.0

    def test_demo_pencil_budget(self):
        b = ErrorBudget(0.01, 0.01, 0.0, 0.5, 1.5676454450681554)
        assert abs(error_bound(b) - 0.0513528) < 5e-7

    def test_identity_scaling(self):
        assert error_bound(ErrorBudget(0.25, 0, 0, 1.0, 3.0)) == pytest.approx(0.25)

    def test_monotone_in_each_budget(self):
        rng = np.random.default_rng(5)
        for _ in range(20):
            e = rng.uniform(0.001, 0.1, size=3)
            base = ErrorBudget(e[0], e[1], e[2], 0.7, 1.3)
            val = error_bound(base)
            for bumped in [
                ErrorBudget(e[0] + 0.01, e[1], e[2], 0.7, 1.3),
                ErrorBudget(e[0], e[1] + 0.01, e[2], 0.7, 1.3),
                ErrorBudget(e[0], e[1], e[2] + 0.01, 0.7, 1.3),
            ]:
                assert error_bound(bumped) >= val

    def test_invalid_eta(self):
        with pytest.raises(ValueError):
            error_bound(ErrorBudget(0.1, 0.1, 0.0, 0.0, 1.0))

    def test_negative_budget_rejected(self):
        with pytest.raises(ValueError):
            ErrorBudget(-0.1, 0.0, 0.0, 1.0, 1.0)


class TestShotAllocation:
    def test_two_unit_terms_closed_form(self):
        plan = shot_allocation([1.0], [1.0], [], 0.1)
        assert plan.m_a == (200,)
        assert plan.m_b == (200,)
        assert plan.m_o == ()
        assert plan.total == 400

    def test_empty_gammas_cover_a_and_b_only(self):
        plan = shot_allocation([0.5, 0.5], [1.0], [], 0.2)
        assert len(plan.m_a) == 2 and len(plan.m_b) == 1 and plan.m_o == ()

    def test_doubling_coefficients_quadruples_total(self):
        base = shot_allocation([1.0], [1.0], [], 0.1)
        doubled = shot_allocation([2.0], [2.0], [], 0.1)
        assert doubled.total == 4 * base.total

    def test_total_bound(self):
        rng = np.random.default_rng(6)
        for _ in range(20):
            alphas = list(rng.uniform(0.1, 2.0, size=3))
            betas = list(rng.uniform(0.1, 2.0, size=2))
            gammas = list(rng.uniform(0.1, 2.0, size=2))
            eps = rng.uniform(0.05, 0.5)
            plan = shot_allocation(alphas, betas, gammas, eps)
            lam = sum(alphas) + sum(betas) + sum(gammas)
            assert plan.total <= int(np.ceil(lam**2 / eps**2)) + 7

    def test_plan_achieves_pseudo_error(self):
        plan = shot_allocation([0.3, 1.2], [0.8], [0.4], 0.15)
        pe = pseudo_error_sq([0.3, 1.2], [0.8], [0.4], plan.m_a, plan.m_b, plan.m_o)
        assert pe <= 0.15**2 + 1e-12, "ceil rounding can only tighten the error"

    def test_beats_random_feasible_plans(self):
        """Lagrange plan total is minimal among random feasible plans."""
        rng = np.random.default_rng(7)
        alphas, betas, gammas = [0.7, 0.2], [1.1], [0.5, 0.3]
        coeffs = alphas + betas + gammas
        eps = 0.1
        plan = shot_allocation(alphas, betas, gammas, eps)
        slack = len(coeffs)
        for _ in range(100):
            w = rng.uniform(0.05, 1.0, size=len(coeffs))
            w = w / w.sum()
            counts = [int(np.ceil(c**2 / (eps**2 * wi))) for c, wi in zip(coeffs, w)]
            pe = sum(c**2 / m for c, m in zip(coeffs, counts))
            assert pe <= eps**2 + 1e-12, "random plan must be feasible"
            assert plan.total <= sum(counts) + slack

    def test_validation(self):
        with pytest.raises(ValueError):
            shot_allocation([1.0], [1.0], [], 0.0)
        with pytest.raises(ValueError):
            shot_allocation([-1.0], [1.0], [], 0.1)
        with pytest.raises(ValueError):
            shot_allocation([], [], [], 0.1)

    @pytest.mark.parametrize(
        "coeffs, eps",
        [([1.0], 1e-300), ([1.0], 1e-160), ([1.0], 1e200), ([1e300], 1e-5), ([1e-300], 1e-300)],
        ids=["square-underflows", "counts-overflow", "square-overflows", "lam-overflows", "tiny"],
    )
    def test_targets_without_a_finite_plan_are_refused(self, coeffs, eps):
        """An eps whose square, Lam / eps^2 or any count is not a finite
        float ends in a ValueError that names the target."""
        message = re.escape(f"target pseudo-error {eps!r} is out of range")
        with pytest.raises(ValueError, match=message):
            shot_allocation(coeffs, coeffs, [], eps)

    def test_smallest_float_targets_still_plan(self):
        """Targets down to where Lam / eps^2 still fits a float plan as
        before: ceil(Lam / eps^2 * c) per term."""
        for eps in (1e-150, 1e-100, 1e-20):
            plan = shot_allocation([1.0], [0.5], [], eps)
            assert plan.m_a == (math.ceil(1.5 / eps**2 * 1.0),)
            assert plan.m_b == (math.ceil(1.5 / eps**2 * 0.5),)


class TestPerTermPrecision:
    def test_single_term(self):
        assert per_term_precision([2.0], 0.1) == pytest.approx([0.1])

    def test_two_equal_terms(self):
        eps = per_term_precision([1.0, 1.0], 0.2)
        np.testing.assert_allclose(eps, [0.2 / np.sqrt(2)] * 2)

    def test_one_three_split(self):
        eps = per_term_precision([1.0, 3.0], 0.2)
        np.testing.assert_allclose(np.square(eps), [0.01, 0.03])

    def test_variance_budget_reproduced(self):
        rng = np.random.default_rng(8)
        coeffs = rng.uniform(0.1, 3.0, size=5)
        eps = per_term_precision(list(coeffs), 0.3)
        # sum over implied per-term variances: eps_i^2 * (sum|a|/|a_i|) weights
        assert sum(e**2 for e in eps) == pytest.approx(0.3**2)

    def test_all_zero_rejected(self):
        with pytest.raises(ValueError):
            per_term_precision([0.0, 0.0], 0.1)
