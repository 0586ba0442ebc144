import numpy as np
import pytest

from conftest import random_state
from geig.ansatz import (
    AnsatzParams,
    apply_ansatz,
    compile_ansatz,
    entangler_pairs,
    random_params,
    shift,
)
from geig.statevector import StateVector, basis_state, zero_state


def dense_ry(theta):
    c, s = np.cos(theta / 2), np.sin(theta / 2)
    return np.array([[c, -s], [s, c]])


def on_qubit(n, q, gate):
    """A one-qubit matrix on qubit ``q`` of ``n`` (qubit 0 leftmost)."""
    return np.kron(np.kron(np.eye(1 << q), gate), np.eye(1 << (n - q - 1)))


def dense_cnot(n, control, target):
    """|0><0|_c + |1><1|_c X_t as a dense matrix, built from Kronecker
    products alone."""
    p1 = on_qubit(n, control, np.diag([0.0, 1.0]))
    x = on_qubit(n, target, np.array([[0.0, 1.0], [1.0, 0.0]]))
    return np.eye(1 << n) - p1 + p1 @ x


def dense_circuit(theta, pairs):
    """The ansatz unitary for one (n, L) angle grid as a dense product."""
    n, layers = theta.shape
    u = np.eye(1 << n)
    for t in range(layers):
        for i in range(n):
            u = on_qubit(n, i, dense_ry(theta[i, t])) @ u
        for c, tgt in pairs:
            u = dense_cnot(n, c, tgt) @ u
    return u


class TestAnsatzParams:
    def test_shape_validation(self):
        with pytest.raises(ValueError):
            AnsatzParams(2, 3, np.zeros((3, 2)))

    def test_nonfinite_rejected(self):
        theta = np.zeros((2, 1))
        theta[0, 0] = np.nan
        with pytest.raises(ValueError):
            AnsatzParams(2, 1, theta)

    def test_theta_read_only(self):
        p = AnsatzParams(1, 1, np.zeros((1, 1)))
        with pytest.raises(ValueError):
            p.theta[0, 0] = 1.0

    def test_random_params_range(self):
        p = random_params(3, 4, np.random.default_rng(0))
        assert p.theta.shape == (3, 4)
        assert np.all(p.theta >= 0) and np.all(p.theta < 2 * np.pi)


class TestEntanglerPairs:
    def test_linear_chain(self):
        assert entangler_pairs(4) == ((0, 1), (1, 2), (2, 3))
        assert entangler_pairs(1) == ()

    def test_ring(self):
        assert entangler_pairs(3, "ring") == ((0, 1), (1, 2), (2, 0))
        # the two-qubit ring literally closes the chain with both orientations
        assert entangler_pairs(2, "ring") == ((0, 1), (1, 0))
        assert entangler_pairs(1, "ring") == ()

    def test_explicit_pairs(self):
        assert entangler_pairs(3, [(2, 0)]) == ((2, 0),)
        with pytest.raises(ValueError):
            entangler_pairs(2, [(0, 5)])
        with pytest.raises(ValueError):
            entangler_pairs(2, [(1, 1)])

    def test_unknown_name(self):
        with pytest.raises(ValueError, match="star"):
            entangler_pairs(2, "star")


class TestApplyAnsatz:
    def test_zero_angles_fix_zero_state(self):
        p = AnsatzParams(2, 2, np.zeros((2, 2)))
        out = apply_ansatz(p, zero_state(2))
        np.testing.assert_allclose(out.amps, [1, 0, 0, 0], atol=1e-15)

    def test_single_qubit_pi(self):
        p = AnsatzParams(1, 1, np.array([[np.pi]]))
        out = apply_ansatz(p, zero_state(1))
        np.testing.assert_allclose(out.amps, [0, 1], atol=1e-15)

    def test_matches_dense_circuit(self):
        """Compiled rows and apply_ansatz agree with the dense product of
        layered rotations-then-entangler, for every entangler kind."""
        rng = np.random.default_rng(3)
        for n in range(1, 6):
            # a reversed chain, whose gates do not commute
            explicit = [(k + 1, k) for k in reversed(range(n - 1))]
            for entangler in ("linear", "ring", explicit):
                pairs = entangler_pairs(n, entangler)
                theta = rng.uniform(0, 2 * np.pi, size=(3, n, 2))
                v = random_state(rng, n)
                rows = compile_ansatz(n, entangler).run(theta, v.amps)
                for row, grid in zip(rows, theta):
                    want = dense_circuit(grid, pairs) @ v.amps
                    np.testing.assert_allclose(row, want, rtol=0, atol=1e-12)
                    got = apply_ansatz(AnsatzParams(n, 2, grid), v, entangler)
                    np.testing.assert_allclose(got.amps, want, rtol=0, atol=1e-12)

    def test_unnormalized_input_is_linear(self):
        """An unnormalized input gives an unnormalized output, linear in it."""
        rng = np.random.default_rng(6)
        p = random_params(3, 2, rng)
        u, w = random_state(rng, 3).amps, random_state(rng, 3).amps
        combo = StateVector(3, 2.5 * u - 0.7j * w, normalized=False)
        out = apply_ansatz(p, combo)
        assert not out.normalized
        image_u = apply_ansatz(p, StateVector(3, u)).amps
        image_w = apply_ansatz(p, StateVector(3, w)).amps
        np.testing.assert_allclose(out.amps, 2.5 * image_u - 0.7j * image_w, rtol=0, atol=1e-12)

    def test_input_qubit_mismatch(self):
        p = AnsatzParams(2, 1, np.zeros((2, 1)))
        with pytest.raises(ValueError):
            apply_ansatz(p, zero_state(3))


class TestShift:
    def test_roundtrip(self):
        p = random_params(2, 3, np.random.default_rng(1))
        q = shift(shift(p, 1, 0, 0.7), 1, 0, -0.7)
        np.testing.assert_allclose(q.theta, p.theta, atol=1e-15)

    def test_changes_exactly_one_entry(self):
        p = random_params(3, 2, np.random.default_rng(2))
        q = shift(p, 1, 1, np.pi)
        diff = q.theta - p.theta
        assert diff[1, 1] == pytest.approx(np.pi)
        assert np.count_nonzero(diff) == 1

    def test_index_errors(self):
        p = random_params(2, 2, np.random.default_rng(3))
        with pytest.raises(IndexError):
            shift(p, 2, 0, 1.0)
        with pytest.raises(IndexError):
            shift(p, 0, 5, 1.0)


def derivative_state(p, t, i, v_in):
    """dU/dtheta[i][t] |v_in> by the pi-shift rule shot mode takes its
    gradients by: half the circuit output at theta[i][t] + pi."""
    return 0.5 * apply_ansatz(shift(p, t, i, np.pi), v_in).amps


class TestDerivativeState:
    def test_half_pi_shift_at_zero(self):
        p = AnsatzParams(1, 1, np.zeros((1, 1)))
        d = derivative_state(p, 0, 0, zero_state(1))
        np.testing.assert_allclose(d, [0, 0.5], atol=1e-15)

    def test_twice_derivative_has_unit_norm(self):
        rng = np.random.default_rng(4)
        for _ in range(5):
            p = random_params(2, 2, rng)
            d = derivative_state(p, 1, 0, zero_state(2))
            assert abs(2 * np.linalg.norm(d) - 1) < 1e-12

    def test_matches_finite_difference(self):
        """pi-shift derivative equals the central difference of the circuit."""
        rng = np.random.default_rng(5)
        h = 1e-5
        for _ in range(5):
            p = random_params(2, 2, rng)
            v = basis_state(2, int(rng.integers(0, 4)))
            for t in range(2):
                for i in range(2):
                    d = derivative_state(p, t, i, v)
                    up = apply_ansatz(shift(p, t, i, h), v)
                    dn = apply_ansatz(shift(p, t, i, -h), v)
                    fd = (up.amps - dn.amps) / (2 * h)
                    assert np.max(np.abs(d - fd)) < 1e-8
