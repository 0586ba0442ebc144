import numpy as np
import pytest

from conftest import random_state
from geig.ansatz import apply_ry, cnot_index, ry_gates
from geig.statevector import (
    StateVector,
    basis_state,
    inner,
    normalize,
    zero_state,
)


class TestStateVector:
    def test_zero_state(self):
        for n, dim in [(1, 2), (2, 4), (3, 8)]:
            s = zero_state(n)
            want = np.zeros(dim)
            want[0] = 1.0
            np.testing.assert_array_equal(s.amps, want)
            assert s.normalized

    def test_zero_state_needs_positive_n(self):
        with pytest.raises(ValueError):
            zero_state(0)

    def test_basis_state_bounds(self):
        s = basis_state(2, 3)
        np.testing.assert_array_equal(s.amps, [0, 0, 0, 1])
        with pytest.raises(ValueError):
            basis_state(2, 7)

    def test_normalized_flag_is_checked(self):
        with pytest.raises(ValueError):
            StateVector(1, np.array([1.0, 1.0]))

    def test_wrong_length_rejected(self):
        with pytest.raises(ValueError):
            StateVector(2, np.array([1.0, 0.0]))

    def test_amps_are_read_only(self):
        s = zero_state(1)
        with pytest.raises(ValueError):
            s.amps[0] = 0.0


def ry(q, angle, v):
    """Ry(angle) on qubit ``q`` of one state, through the circuit kernel."""
    gate = ry_gates(np.array([[[angle]]]))[0, 0, 0]
    return apply_ry(v.amps, q, gate)


def cnot(control, target, v):
    """CNOT on one state as the circuit's gather index."""
    return v.amps[cnot_index(v.n, control, target)]


class TestApplyRy:
    def test_zero_angle_is_identity(self):
        rng = np.random.default_rng(1)
        v = random_state(rng, 2)
        out = ry(0, 0.0, v)
        np.testing.assert_allclose(out, v.amps, atol=1e-15)

    def test_pi_rotation_on_zero(self):
        # R_y(pi) = -iY maps |0> to exactly (0, 1)
        out = ry(0, np.pi, zero_state(1))
        np.testing.assert_allclose(out, [0, 1], atol=1e-15)

    def test_half_pi_on_second_qubit(self):
        out = ry(1, np.pi / 2, zero_state(2))
        want = [np.cos(np.pi / 4), np.sin(np.pi / 4), 0, 0]
        np.testing.assert_allclose(out, want, atol=1e-15)

    def test_preserves_norm(self):
        rng = np.random.default_rng(5)
        for _ in range(20):
            v = random_state(rng, 3)
            q = int(rng.integers(0, 3))
            out = ry(q, rng.normal(), v)
            assert abs(np.linalg.norm(out) - 1) < 1e-12

    def test_matches_dense_rotation(self):
        rng = np.random.default_rng(9)
        theta = rng.normal()
        c, s = np.cos(theta / 2), np.sin(theta / 2)
        r = np.array([[c, -s], [s, c]])
        v = random_state(rng, 2)
        # qubit 0 is the leftmost tensor factor
        np.testing.assert_allclose(
            ry(0, theta, v), np.kron(r, np.eye(2)) @ v.amps, atol=1e-12
        )
        np.testing.assert_allclose(
            ry(1, theta, v), np.kron(np.eye(2), r) @ v.amps, atol=1e-12
        )


class TestApplyCnot:
    def test_flips_target_when_control_set(self):
        out = cnot(0, 1, basis_state(2, 2))
        np.testing.assert_array_equal(out, basis_state(2, 3).amps)

    def test_fixes_zero_state(self):
        out = cnot(0, 1, zero_state(2))
        np.testing.assert_array_equal(out, zero_state(2).amps)

    def test_matches_dense_reversed_direction(self):
        rng = np.random.default_rng(13)
        cnot_10 = np.eye(4)[[0, 3, 2, 1]]  # control qubit 1, target qubit 0
        for _ in range(10):
            v = random_state(rng, 2)
            np.testing.assert_allclose(cnot(1, 0, v), cnot_10 @ v.amps, atol=1e-15)

    def test_three_qubit_action(self):
        # control 0, target 2 on |101>: control set, flips last bit
        out = cnot(0, 2, basis_state(3, 0b101))
        np.testing.assert_array_equal(out, basis_state(3, 0b100).amps)

    @pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
    def test_equals_gather_and_axis_flip_for_every_pair(self, n):
        """The gather by cnot_index and flipping the target axis of the
        control = 1 block of the (2,)*n tensor agree bitwise."""
        v = random_state(np.random.default_rng(n), n)
        for control in range(n):
            for target in range(n):
                if control == target:
                    continue
                tensor = v.amps.reshape((2,) * n).copy()
                sel = [slice(None)] * n
                sel[control] = 1
                axis = target if target < control else target - 1
                tensor[tuple(sel)] = np.flip(tensor[tuple(sel)], axis=axis)
                np.testing.assert_array_equal(cnot(control, target, v), tensor.reshape(-1))


class TestInnerProducts:
    def test_inner_identity(self):
        assert inner(zero_state(1), zero_state(1)) == 1.0 + 0j

    def test_inner_is_conjugate_linear_in_first_argument(self):
        rng = np.random.default_rng(17)
        u, v = random_state(rng, 2), random_state(rng, 2)
        assert abs(inner(u, v) - np.conj(inner(v, u))) < 1e-12

    def test_normalize(self):
        out = normalize(StateVector(1, np.array([3.0, 4.0]), normalized=False))
        np.testing.assert_allclose(out.amps, [0.6, 0.8])
        assert out.normalized

    def test_normalize_zero_vector(self):
        with pytest.raises(ValueError):
            normalize(StateVector(1, np.zeros(2), normalized=False))
