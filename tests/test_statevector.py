import numpy as np
import pytest

from conftest import A_TERMS, B_TERMS, random_state
from geig.pauli import PauliSum, apply_sum
from geig.statevector import (
    StateVector,
    add_scaled,
    apply_cnot,
    apply_ry,
    basis_state,
    cnot_index,
    expectation,
    fidelity,
    inner,
    norm,
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


class TestApplyRy:
    def test_zero_angle_is_identity(self):
        rng = np.random.default_rng(1)
        v = random_state(rng, 2)
        out = apply_ry(0, 0.0, v)
        np.testing.assert_allclose(out.amps, v.amps, atol=1e-15)

    def test_pi_rotation_on_zero(self):
        # R_y(pi) = -iY maps |0> to exactly (0, 1)
        out = apply_ry(0, np.pi, zero_state(1))
        np.testing.assert_allclose(out.amps, [0, 1], atol=1e-15)

    def test_half_pi_on_second_qubit(self):
        out = apply_ry(1, np.pi / 2, zero_state(2))
        want = [np.cos(np.pi / 4), np.sin(np.pi / 4), 0, 0]
        np.testing.assert_allclose(out.amps, want, atol=1e-15)

    def test_preserves_norm(self):
        rng = np.random.default_rng(5)
        for _ in range(20):
            v = random_state(rng, 3)
            q = int(rng.integers(0, 3))
            out = apply_ry(q, rng.normal(), v)
            assert abs(norm(out) - 1) < 1e-12

    def test_matches_dense_rotation(self):
        rng = np.random.default_rng(9)
        theta = rng.normal()
        c, s = np.cos(theta / 2), np.sin(theta / 2)
        r = np.array([[c, -s], [s, c]])
        v = random_state(rng, 2)
        # qubit 0 is the leftmost tensor factor
        np.testing.assert_allclose(
            apply_ry(0, theta, v).amps, np.kron(r, np.eye(2)) @ v.amps, atol=1e-12
        )
        np.testing.assert_allclose(
            apply_ry(1, theta, v).amps, np.kron(np.eye(2), r) @ v.amps, atol=1e-12
        )

    def test_index_out_of_range(self):
        with pytest.raises(IndexError):
            apply_ry(2, 0.1, zero_state(2))


class TestApplyCnot:
    def test_flips_target_when_control_set(self):
        out = apply_cnot(0, 1, basis_state(2, 2))
        np.testing.assert_array_equal(out.amps, basis_state(2, 3).amps)

    def test_fixes_zero_state(self):
        out = apply_cnot(0, 1, zero_state(2))
        np.testing.assert_array_equal(out.amps, zero_state(2).amps)

    def test_matches_dense_reversed_direction(self):
        rng = np.random.default_rng(13)
        cnot_10 = np.eye(4)[[0, 3, 2, 1]]  # control qubit 1, target qubit 0
        for _ in range(10):
            v = random_state(rng, 2)
            np.testing.assert_allclose(
                apply_cnot(1, 0, v).amps, cnot_10 @ v.amps, atol=1e-15
            )

    def test_three_qubit_action(self):
        # control 0, target 2 on |101>: control set, flips last bit
        out = apply_cnot(0, 2, basis_state(3, 0b101))
        np.testing.assert_array_equal(out.amps, basis_state(3, 0b100).amps)

    def test_equal_indices_rejected(self):
        with pytest.raises(ValueError):
            apply_cnot(1, 1, zero_state(2))

    @pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
    def test_equals_gather_and_axis_flip_for_every_pair(self, n):
        """apply_cnot, the gather by cnot_index, and flipping the target
        axis of the control = 1 block of the (2,)*n tensor agree bitwise."""
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
                got = apply_cnot(control, target, v).amps
                np.testing.assert_array_equal(got, tensor.reshape(-1))
                np.testing.assert_array_equal(got, v.amps[cnot_index(n, control, target)])


class TestInnerProducts:
    def test_inner_identity(self):
        assert inner(zero_state(1), zero_state(1)) == 1.0 + 0j

    def test_inner_is_conjugate_linear_in_first_argument(self):
        rng = np.random.default_rng(17)
        u, v = random_state(rng, 2), random_state(rng, 2)
        assert abs(inner(u, v) - np.conj(inner(v, u))) < 1e-12

    def test_fidelity_orthogonal(self):
        assert fidelity(basis_state(1, 0), basis_state(1, 1)) == 0.0

    def test_fidelity_symmetric_and_phase_invariant(self):
        rng = np.random.default_rng(21)
        for _ in range(10):
            u, v = random_state(rng, 2), random_state(rng, 2)
            f = fidelity(u, v)
            assert abs(f - fidelity(v, u)) < 1e-12
            w = StateVector(2, np.exp(1j * rng.normal()) * u.amps)
            assert abs(fidelity(w, v) - f) < 1e-12

    def test_add_scaled(self):
        out = add_scaled(basis_state(2, 0), -0.1, basis_state(2, 3))
        np.testing.assert_allclose(out.amps, [1, 0, 0, -0.1])
        assert not out.normalized

    def test_normalize(self):
        out = normalize(StateVector(1, np.array([3.0, 4.0]), normalized=False))
        np.testing.assert_allclose(out.amps, [0.6, 0.8])
        assert out.normalized

    def test_normalize_zero_vector(self):
        with pytest.raises(ValueError):
            normalize(StateVector(1, np.zeros(2), normalized=False))


class TestExpectation:
    def test_z_on_zero(self):
        assert expectation(PauliSum(1, [(1.0, "Z")]), zero_state(1)) == 1.0

    def test_diagonal_entries_of_the_demo_pencil(self):
        assert abs(expectation(PauliSum(2, A_TERMS), basis_state(2, 0)) - 1.8) < 1e-12
        assert abs(expectation(PauliSum(2, B_TERMS), basis_state(2, 3)) - 0.5) < 1e-12

    def test_requires_normalized_state(self):
        v = StateVector(1, np.array([2.0, 0.0]), normalized=False)
        with pytest.raises(ValueError):
            expectation(PauliSum.identity(1, 1.0), v)

    def test_agrees_with_apply_sum(self):
        rng = np.random.default_rng(31)
        s = PauliSum(2, [(0.7, "XY"), (-0.2, "ZZ"), (1.1, "IX")])
        for _ in range(20):
            v = random_state(rng, 2)
            want = inner(v, apply_sum(s, v)).real
            assert abs(expectation(s, v) - want) < 1e-12
