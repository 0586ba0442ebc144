"""The multiply-add Ry kernel, ``CompiledAnsatz.run`` and ``.vjp`` against
the subtract form they replaced, kept here verbatim as the reference: every
output must be bitwise equal, for real and complex rows, however ``vjp``
splits its gates into buffered blocks."""

import numpy as np
import pytest

import geig.ansatz
from geig.ansatz import apply_ry, compile_ansatz, ry_gates


def rotate_y(amps: np.ndarray, q: int, c, s) -> np.ndarray:
    """The real rotation [[c, -s], [s, c]] on qubit ``q`` of every row of a
    raw amplitude array of shape (..., 2^n).

    ``c`` and ``s`` are scalars or broadcast against (..., 1, 1), one pair
    per row; Ry(angle) is c = cos(angle/2), s = sin(angle/2).
    """
    view = amps.reshape(amps.shape[:-1] + (1 << q, 2, -1))
    a0 = view[..., 0, :]
    a1 = view[..., 1, :]
    out = np.empty_like(view)
    out[..., 0, :] = c * a0 - s * a1
    out[..., 1, :] = s * a0 + c * a1
    return out.reshape(amps.shape)


def _half_angles(theta: np.ndarray) -> tuple:
    """cos and sin of theta/2, shaped (R, n, L, 1, 1) so that entry [:, i, t]
    broadcasts against one qubit's (R, 2^i, 2^(n-i-1)) halves."""
    half = theta[..., None, None] / 2.0
    return np.cos(half), np.sin(half)


def reference_run(self, theta: np.ndarray, v_in: np.ndarray) -> np.ndarray:
    """U(theta[r])|v_in> for every row r, shape (R, 2^n); ``v_in`` has
    shape (2^n,) or (R, 2^n)."""
    c, s = _half_angles(theta)
    v = np.broadcast_to(v_in, (theta.shape[0], 1 << self.n))
    for t in range(theta.shape[2]):
        for i in range(self.n):
            v = rotate_y(v, i, c[:, i, t], s[:, i, t])
        v = v.take(self.perm, axis=-1)
    return v


def reference_vjp(self, theta: np.ndarray, psi: np.ndarray, chi: np.ndarray) -> np.ndarray:
    """2 Re<d psi/d theta[r, i, t]|chi> for every angle, shape (R, n, L),
    where ``psi`` = run(theta, v_in) and ``chi`` is held fixed."""
    c, s = _half_angles(theta)
    rows, _, layers = theta.shape
    grad = np.empty(theta.shape)
    w = np.stack((psi, chi))
    for t in reversed(range(layers)):
        w = w.take(self.inverse, axis=-1)
        for i in reversed(range(self.n)):
            # -iY = [[0, -1], [1, 0]] maps (phi_0, phi_1) to (-phi_1, phi_0)
            view = w.reshape(2, rows, 1 << i, 2, -1)
            phi, lam = view[0], view[1]
            overlap = phi[:, :, 0].conj() * lam[:, :, 1] - phi[:, :, 1].conj() * lam[:, :, 0]
            grad[:, i, t] = overlap.real.sum(axis=(1, 2))
            w = rotate_y(w, i, c[:, i, t], -s[:, i, t])
    return grad


def rows_of(rng, shape, complex_rows: bool) -> np.ndarray:
    out = rng.normal(size=shape)
    return out + 1j * rng.normal(size=shape) if complex_rows else out


ENTANGLERS = ("linear", "ring", [(1, 0), (0, 1)])


class TestKernel:
    @pytest.mark.parametrize("complex_rows", [False, True])
    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6])
    def test_bitwise_equal_rotate_y_on_every_qubit(self, n, complex_rows):
        rng = np.random.default_rng(n)
        for rows in (1, 5):
            theta = rng.uniform(-7.0, 7.0, size=(rows, 1, 1))
            gates = ry_gates(theta)[:, 0, 0]
            c, s = _half_angles(theta[:, 0, 0])
            amps = rows_of(rng, (rows, 1 << n), complex_rows)
            for q in range(n):
                want = rotate_y(amps, q, c, s)
                np.testing.assert_array_equal(apply_ry(amps, q, gates), want)
                # the transposed gate is the rotation by -theta
                want = rotate_y(amps, q, c, -s)
                np.testing.assert_array_equal(apply_ry(amps, q, gates.swapaxes(-3, -2)), want)

    def test_one_row_spreads_across_the_gates(self):
        rng = np.random.default_rng(3)
        theta = rng.uniform(0.0, 6.0, size=(5, 1, 1))
        amps = rows_of(rng, (8,), True)
        out = apply_ry(amps, 1, ry_gates(theta)[:, 0, 0])
        c, s = _half_angles(theta[:, 0, 0])
        want = rotate_y(np.broadcast_to(amps, (5, 8)), 1, c, s)
        assert out.shape == (5, 8)
        np.testing.assert_array_equal(out, want)

    def test_gates_are_the_ry_matrices(self):
        theta = np.array([[[0.3, -1.1]], [[2.0, 5.5]]])
        gates = ry_gates(theta)
        assert gates.shape == (2, 1, 2, 1, 2, 2, 1)
        c, s = np.cos(theta / 2.0), np.sin(theta / 2.0)
        want = np.stack((c, -s, s, c), axis=-1).reshape(theta.shape + (2, 2))
        np.testing.assert_array_equal(gates[..., 0, :, :, 0], want)


class TestCircuit:
    @pytest.mark.parametrize("complex_rows", [False, True])
    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6, 9, 10])
    def test_run_and_vjp_bitwise_equal_the_reference(self, n, complex_rows):
        """From n = 9 an entry sums 2^(n-1) > 128 terms, where numpy's
        pairwise sum recurses; at n = 9 the sweep flushes its buffer several
        times, and at n = 10 with 5 rows each gate is read in place."""
        rng = np.random.default_rng(10 + n)
        for entangler in ENTANGLERS:
            if not isinstance(entangler, str) and n < 2:
                continue
            circuit = compile_ansatz(n, entangler)
            for rows in (1, 5):
                theta = rng.uniform(0.0, 2.0 * np.pi, size=(rows, n, 3))
                gates = ry_gates(theta)
                # one start spread across the rows, then one start per row
                for shape in ((1 << n,), (rows, 1 << n)):
                    v_in = rows_of(rng, shape, complex_rows)
                    psi = circuit.run(theta, v_in)
                    np.testing.assert_array_equal(psi, reference_run(circuit, theta, v_in))
                    np.testing.assert_array_equal(circuit.run(theta, v_in, gates), psi)
                    chi = rows_of(rng, (rows, 1 << n), complex_rows)
                    want = reference_vjp(circuit, theta, psi, chi)
                    np.testing.assert_array_equal(circuit.vjp(theta, psi, chi), want)
                    np.testing.assert_array_equal(circuit.vjp(theta, psi, chi, gates), want)

    def test_real_rows_against_complex_co_state(self):
        """A real psi with a complex chi (a complex pencil's co-state) takes
        the complex overlap, as before."""
        rng = np.random.default_rng(21)
        circuit = compile_ansatz(3)
        theta = rng.uniform(0.0, 2.0 * np.pi, size=(4, 3, 2))
        psi = circuit.run(theta, np.eye(8)[0])
        chi = rows_of(rng, (4, 8), True)
        np.testing.assert_array_equal(
            circuit.vjp(theta, psi, chi), reference_vjp(circuit, theta, psi, chi)
        )

    @pytest.mark.parametrize("complex_rows", [False, True])
    @pytest.mark.parametrize("budget", [1, 64, 96, 128, 1 << 20])
    def test_vjp_bitwise_equal_at_every_block_size(self, budget, complex_rows, monkeypatch):
        """Nine gates of 2 x 2 rows of 8 amplitudes (32 per gate): each gate
        read in place, blocks of 2 (the last one short), 3, 4 and all nine."""
        monkeypatch.setattr(geig.ansatz, "_SWEEP_BLOCK_ENTRIES", budget)
        rng = np.random.default_rng([budget, complex_rows])
        circuit = compile_ansatz(3, "ring")
        theta = rng.uniform(0.0, 2.0 * np.pi, size=(2, 3, 3))
        psi = circuit.run(theta, rows_of(rng, (2, 8), complex_rows))
        chi = rows_of(rng, (2, 8), complex_rows)
        want = reference_vjp(circuit, theta, psi, chi)
        np.testing.assert_array_equal(circuit.vjp(theta, psi, chi), want)

    @pytest.mark.parametrize(
        "psi_shape, chi_shape",
        [((3, 8), (3, 8)), ((2, 4), (2, 4)), ((3, 4), (2, 4)), ((4,), (4,)), ((3, 4), (3, 8))],
        ids=["long-rows", "few-rows", "chi-rows", "one-state", "chi-long"],
    )
    def test_vjp_rows_must_be_R_by_2_to_the_n(self, psi_shape, chi_shape):
        """Rows of another length were read as a wrong gradient; a row count
        that differs from theta's failed inside numpy."""
        with pytest.raises(ValueError, match=r"do not fit 3 rows of 4 amplitudes$"):
            compile_ansatz(2).vjp(np.zeros((3, 2, 2)), np.zeros(psi_shape), np.zeros(chi_shape))

    @pytest.mark.parametrize("method", ["run", "vjp"])
    @pytest.mark.parametrize("shape", [(3, 3, 2), (3, 1, 2), (3, 2)], ids=["3-qubits", "1-qubit", "2-d"])
    def test_angle_grid_must_be_R_by_n_by_L(self, shape, method):
        """A grid with a qubit too many ran with one row of angles ignored;
        one with a qubit too few leaked numpy's IndexError."""
        circuit = compile_ansatz(2)
        args = (np.zeros(4),) if method == "run" else (np.zeros((3, 4)), np.zeros((3, 4)))
        pattern = rf"angle grid of shape \({', '.join(map(str, shape))}\) is not \(R, 2, L\)$"
        with pytest.raises(ValueError, match=pattern):
            getattr(circuit, method)(np.zeros(shape), *args)

    @pytest.mark.parametrize("start_rows", [2, 3])
    def test_start_rows_must_be_one_or_R(self, start_rows):
        circuit = compile_ansatz(2)
        theta = np.zeros((4, 2, 1))
        with pytest.raises(ValueError, match="does not fit 4 rows of 4 amplitudes"):
            circuit.run(theta, np.zeros((start_rows, 4)))

    def test_start_of_the_wrong_length_is_refused(self):
        with pytest.raises(ValueError, match="does not fit"):
            compile_ansatz(2).run(np.zeros((1, 2, 1)), np.zeros(8))
