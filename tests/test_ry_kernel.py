"""The Ry kernel on whole rows, ``CompiledAnsatz.run`` and ``.vjp`` against
the subtract form, kept here verbatim as the reference: every output must
have the reference's bytes on real rows, and on complex rows wherever it is
not zero, however ``vjp`` splits its gates into buffered blocks.  On
complex rows numpy multiplies a complex number by a real one as by a
complex number with a zero imaginary part, so only the sign of a zero
component may differ there."""

import itertools
import tracemalloc

import numpy as np
import pytest

import geig.ansatz
from geig.ansatz import _rotate, compile_ansatz, half_angles


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


def rows_of(rng, shape, complex_rows: bool, zeros: bool = False) -> np.ndarray:
    """Normal rows, with about a quarter of the components set to +0.0 or
    -0.0 when ``zeros``."""
    out = rng.normal(size=shape)
    if complex_rows:
        out = out + 1j * rng.normal(size=shape)
    if zeros:
        parts = out.view(np.float64) if complex_rows else out
        parts[rng.random(parts.shape) < 0.25] = 0.0
        parts[rng.random(parts.shape) < 0.125] = -0.0
    return out


def grid_of(rng, shape) -> np.ndarray:
    """Uniform angles with exact zeros of both signs and +-pi among them."""
    theta = rng.uniform(0.0, 2.0 * np.pi, size=shape)
    flat = theta.reshape(-1)
    special = np.array([0.0, -0.0, np.pi, -np.pi])
    picks = rng.random(flat.shape) < 0.25
    flat[picks] = rng.choice(special, size=picks.sum())
    return theta


def assert_same_bytes(got: np.ndarray, want: np.ndarray) -> None:
    """Bitwise equality; np.testing.assert_array_equal passes -0.0 against 0.0."""
    assert got.shape == want.shape and got.dtype == want.dtype
    np.testing.assert_array_equal(
        np.ascontiguousarray(got).view(np.int64), np.ascontiguousarray(want).view(np.int64)
    )


def assert_matches(got: np.ndarray, want: np.ndarray, complex_rows: bool) -> None:
    """The reference's bytes, except that a zero component of an output
    taken from complex rows may carry the other sign."""
    if not complex_rows:
        assert_same_bytes(got, want)
        return
    assert got.shape == want.shape and got.dtype == want.dtype
    got, want = (np.ascontiguousarray(a).view(np.float64) for a in (got, want))
    nonzero = want != 0.0
    assert_same_bytes(got[nonzero], want[nonzero])
    np.testing.assert_array_equal(got[~nonzero], 0.0)


def kernel(amps: np.ndarray, q: int, c, s) -> np.ndarray:
    """The circuit's Ry kernel on qubit ``q`` of the rows ``amps``, with
    ``c`` and ``s`` shaped (R, 1, 1) as for ``rotate_y``."""
    circuit = compile_ansatz(amps.shape[-1].bit_length() - 1)
    return _rotate(amps, circuit.partners[q], circuit.signs[q], c[..., 0], s[..., 0])


ENTANGLERS = ("linear", "ring", [(1, 0), (0, 1)])


class TestKernel:
    @pytest.mark.parametrize("complex_rows", [False, True])
    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6])
    def test_bitwise_equal_rotate_y_on_every_qubit(self, n, complex_rows):
        rng = np.random.default_rng([n, complex_rows])
        for rows, zeros in ((1, False), (5, False), (1, True), (5, True)):
            c, s = _half_angles(grid_of(rng, (rows,)))
            amps = rows_of(rng, (rows, 1 << n), complex_rows, zeros)
            for q in range(n):
                want = rotate_y(amps, q, c, s)
                assert_matches(kernel(amps, q, c, s), want, complex_rows)
                # (c, -s) is the rotation by -theta
                want = rotate_y(amps, q, c, -s)
                assert_matches(kernel(amps, q, c, -s), want, complex_rows)

    @pytest.mark.parametrize("q", [0, 1, 2])
    def test_every_special_angle_on_real_rows_with_zeros(self, q):
        """Every pairing of +-0.0 and +-1 amplitudes under the angles +-0.0
        and +-pi, whose sines are signed zeros and +-1."""
        values = np.array([0.0, -0.0, 1.0, -1.0])
        pairs = np.stack(np.meshgrid(values, values, indexing="ij"), -1).reshape(-1, 2)
        amps = np.zeros((len(pairs), 8))
        amps[:, 0], amps[:, 4 >> q] = pairs[:, 0], pairs[:, 1]
        for angle in (0.0, -0.0, np.pi, -np.pi):
            c, s = _half_angles(np.full(len(pairs), angle))
            assert_same_bytes(kernel(amps, q, c, s), rotate_y(amps, q, c, s))
            assert_same_bytes(kernel(amps, q, c, -s), rotate_y(amps, q, c, -s))

    def test_complex_rows_may_differ_in_the_sign_of_a_zero(self):
        """On (-0.0, 1j) the reference's real part of c a0 - s a1 is
        (-0.0 - 0.0) - (+0.0 - 0.0) = -0.0, the kernel's c a0 + s (-1 a1)
        is -0.0 + (-0.0 - (-0.0)) = +0.0; the other three components are
        bitwise the reference's."""
        amps = np.array([[-0.0, 1j]])
        c, s = _half_angles(np.array([0.7]))
        got, want = kernel(amps, 0, c, s), rotate_y(amps, 0, c, s)
        assert_matches(got, want, True)
        assert_same_bytes(got.view(np.float64)[0, :1], np.array([0.0]))
        assert_same_bytes(want.view(np.float64)[0, :1], np.array([-0.0]))

    def test_one_row_spreads_across_the_gates(self):
        rng = np.random.default_rng(3)
        c, s = _half_angles(rng.uniform(0.0, 6.0, size=5))
        spread = np.broadcast_to(rows_of(rng, (8,), True), (5, 8))
        out = kernel(spread, 1, c, s)
        assert out.shape == (5, 8)
        assert_same_bytes(out, rotate_y(spread, 1, c, s))

    def test_half_angles_are_laid_out_layer_qubit_row(self):
        theta = np.array([[[0.3, -1.1], [2.0, 5.5]], [[0.0, -0.0], [np.pi, 4.0]]])
        c, s = half_angles(theta)
        assert c.shape == s.shape == (2, 2, 2, 1)
        want_c, want_s = (f(theta / 2.0).transpose(2, 1, 0)[..., None] for f in (np.cos, np.sin))
        assert_same_bytes(c, want_c)
        assert_same_bytes(s, want_s)
        assert c[1, 0].flags.c_contiguous and s[1, 0].flags.c_contiguous

    @pytest.mark.parametrize("n", [1, 2, 5])
    def test_tables_pair_each_index_across_the_qubit_bit(self, n):
        circuit = compile_ansatz(n)
        index = np.arange(1 << n)
        for q in range(n):
            bit = 1 << (n - 1 - q)
            np.testing.assert_array_equal(circuit.partners[q], index ^ bit)
            np.testing.assert_array_equal(circuit.signs[q], np.where(index & bit, 1.0, -1.0))


class TestCircuit:
    @pytest.mark.parametrize("complex_rows", [False, True])
    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6, 9, 10, 11, 12])
    def test_run_and_vjp_bitwise_equal_the_reference(self, n, complex_rows):
        """From n = 9 an entry sums 2^(n-1) > 128 terms, where numpy's
        pairwise sum recurses; at n = 9 the sweep flushes its buffer several
        times, and from n = 10 with 5 rows (n = 11 and 12 with 4) each gate
        is read in place.  Each entangler runs twice, the second time with
        a quarter of the rows' components set to signed zeros."""
        rng = np.random.default_rng(10 + n)
        for entangler, zeros in itertools.product(ENTANGLERS, (False, True)):
            if not isinstance(entangler, str) and n < 2:
                continue
            circuit = compile_ansatz(n, entangler)
            for rows in (1, 4) if n > 10 else (1, 5):
                theta = grid_of(rng, (rows, n, 3))
                angles = half_angles(theta)
                # one start spread across the rows, then one start per row
                for shape in ((1 << n,), (rows, 1 << n)):
                    v_in = rows_of(rng, shape, complex_rows, zeros)
                    psi = circuit.run(theta, v_in)
                    assert_matches(psi, reference_run(circuit, theta, v_in), complex_rows)
                    assert_same_bytes(circuit.run(theta, v_in, angles), psi)
                    chi = rows_of(rng, (rows, 1 << n), complex_rows, zeros)
                    got = circuit.vjp(theta, psi, chi)
                    assert_matches(got, reference_vjp(circuit, theta, psi, chi), complex_rows)
                    assert_same_bytes(circuit.vjp(theta, psi, chi, angles), got)

    def test_real_rows_against_complex_co_state(self):
        """A real psi with a complex chi (a complex pencil's co-state) takes
        the complex overlap, as before."""
        rng = np.random.default_rng(21)
        circuit = compile_ansatz(3)
        theta = rng.uniform(0.0, 2.0 * np.pi, size=(4, 3, 2))
        psi = circuit.run(theta, np.eye(8)[0])
        chi = rows_of(rng, (4, 8), True)
        assert_same_bytes(circuit.vjp(theta, psi, chi), reference_vjp(circuit, theta, psi, chi))

    @pytest.mark.parametrize("complex_rows", [False, True])
    @pytest.mark.parametrize("budget", [1, 64, 96, 128, 1 << 20])
    def test_vjp_bitwise_equal_at_every_block_size(self, budget, complex_rows, monkeypatch):
        """Nine gates of 2 x 2 rows of 8 amplitudes (32 per gate): each gate
        read in place, blocks of 2 (the last one short), 3, 4 and all nine."""
        monkeypatch.setattr(geig.ansatz, "_SWEEP_BLOCK_ENTRIES", budget)
        rng = np.random.default_rng([budget, complex_rows])
        circuit = compile_ansatz(3, "ring")
        theta = grid_of(rng, (2, 3, 3))
        psi = circuit.run(theta, rows_of(rng, (2, 8), complex_rows))
        chi = rows_of(rng, (2, 8), complex_rows)
        want = reference_vjp(circuit, theta, psi, chi)
        assert_matches(circuit.vjp(theta, psi, chi), want, complex_rows)

    @pytest.mark.parametrize("method, bound", [("run", 5.04), ("vjp", 9.05)])
    def test_peak_memory_at_12_qubits(self, method, bound):
        """The tracemalloc peak of one call on 4 real rows of 12 qubits, two
        layers, in units of the rows' bytes: 3.54 for run and 6.54 for vjp,
        bounded by the 5.04 and 9.05 of the broadcast kernel this kernel
        replaced, whose (R, 2^q, 2, 2, rest) products were twice the rows."""
        rng = np.random.default_rng(12)
        circuit = compile_ansatz(12)
        theta = rng.uniform(0.0, 2.0 * np.pi, size=(4, 12, 2))
        v_in = rng.normal(size=(4, 1 << 12))
        psi = circuit.run(theta, v_in)
        args = (v_in,) if method == "run" else (psi, rng.normal(size=psi.shape))
        tracemalloc.start()
        try:
            getattr(circuit, method)(theta, *args)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= bound * v_in.nbytes

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
