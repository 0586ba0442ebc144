import numpy as np
import pytest

from conftest import A_TERMS, B_TERMS, DENSE_A, random_hermitian
from geig.pauli import (
    PauliString,
    PauliSum,
    _string_action,
    apply_string,
    apply_sum,
    decompose,
    dense_matrix,
)
from geig.statevector import StateVector, basis_state

X = np.array([[0, 1], [1, 0]], dtype=complex)
Y = np.array([[0, -1j], [1j, 0]])
Z = np.diag([1.0, -1.0]).astype(complex)
I2 = np.eye(2, dtype=complex)
SINGLE = {"I": I2, "X": X, "Y": Y, "Z": Z}


def dense_of_ops(ops):
    m = SINGLE[ops[0]]
    for ch in ops[1:]:
        m = np.kron(m, SINGLE[ch])
    return m


class TestPauliString:
    def test_from_ops_roundtrip(self):
        for ops in ["I", "X", "ZX", "XYZI", "YY"]:
            p = PauliString.from_ops(ops)
            assert p.ops == ops
            assert p.n == len(ops)

    def test_invalid_character_is_named(self):
        with pytest.raises(ValueError, match="'Q'"):
            PauliString.from_ops("QX")

    def test_masks_follow_text_order(self):
        # leftmost char is qubit 0 = most significant index bit
        p = PauliString.from_ops("ZX")
        assert p.z_mask == 0b10
        assert p.x_mask == 0b01

    def test_y_count(self):
        assert PauliString.from_ops("XYZY").n_y == 2

    def test_equality_is_structural(self):
        assert PauliString.from_ops("XZ") == PauliString(2, 0b10, 0b01)


class TestPauliSum:
    def test_merges_duplicate_strings(self):
        s = PauliSum(1, [(0.5, "Z"), (0.25, "Z")])
        assert len(s) == 1
        assert s.coeffs == (0.75,)

    def test_drops_exact_zero_terms(self):
        s = PauliSum(1, [(1.0, "X"), (-1.0, "X"), (2.0, "I")])
        assert [p.ops for p in s.strings] == ["I"]

    def test_rejects_complex_coefficients(self):
        with pytest.raises(ValueError):
            PauliSum(1, [(1.0 + 0.5j, "Z")])

    def test_rejects_nonfinite_coefficients(self):
        with pytest.raises(ValueError):
            PauliSum(1, [(np.inf, "Z")])

    def test_canonical_term_order(self):
        s = PauliSum(2, [(0.2, "XX"), (1.0, "II"), (0.4, "ZI"), (0.4, "IZ")])
        assert [p.ops for p in s.strings] == ["II", "IZ", "ZI", "XX"]

    def test_identity_constructor(self):
        s = PauliSum.identity(3, 2.5)
        assert len(s) == 1 and s.coeffs == (2.5,)
        assert s.strings[0].ops == "III"


class TestDenseMatrix:
    def test_single_z(self):
        p = PauliSum(1, [(1.0, "Z")])
        np.testing.assert_array_equal(dense_matrix(p), np.diag([1.0, -1.0]))

    def test_two_qubit_pencil_a_matrix(self):
        m = dense_matrix(PauliSum(2, A_TERMS))
        np.testing.assert_allclose(m, DENSE_A, atol=1e-15)

    def test_trace_picks_identity_coefficient(self):
        rng = np.random.default_rng(7)
        for _ in range(10):
            coeffs = rng.normal(size=4)
            ops = ["III", "XZY", "ZZI", "IYX"]
            s = PauliSum(3, list(zip(coeffs, ops)))
            tr = np.trace(dense_matrix(s)).real
            assert abs(tr - 8 * coeffs[0]) < 1e-10, "trace = dim * identity coeff"

    def test_strings_are_hermitian_and_self_inverse(self):
        rng = np.random.default_rng(3)
        letters = np.array(list("IXYZ"))
        for _ in range(20):
            ops = "".join(rng.choice(letters, size=3))
            m = dense_of_ops(ops)
            s = PauliSum(3, [(1.0, ops)])
            d = dense_matrix(s)
            np.testing.assert_allclose(d, m, atol=1e-15)
            np.testing.assert_allclose(d @ d, np.eye(8), atol=1e-12)
            np.testing.assert_allclose(d, d.conj().T, atol=1e-15)

    def test_dimension_cap(self):
        s = PauliSum.identity(13, 1.0)
        with pytest.raises(ValueError):
            dense_matrix(s)
        # custom cap applies
        with pytest.raises(ValueError):
            dense_matrix(PauliSum.identity(3, 1.0), max_qubits=2)


class TestApplyString:
    def test_x_flips(self):
        out = apply_string(PauliString.from_ops("X"), basis_state(1, 0))
        np.testing.assert_array_equal(out.amps, [0, 1])

    def test_y_phase(self):
        out = apply_string(PauliString.from_ops("Y"), basis_state(1, 0))
        np.testing.assert_allclose(out.amps, [0, 1j])

    def test_matches_dense_on_all_two_qubit_strings(self):
        rng = np.random.default_rng(11)
        strings = [a + b for a in "IXYZ" for b in "IXYZ"]
        for _ in range(25):
            v = rng.normal(size=4) + 1j * rng.normal(size=4)
            v /= np.linalg.norm(v)
            state = StateVector(2, v)
            for ops in strings:
                got = apply_string(PauliString.from_ops(ops), state).amps
                want = dense_of_ops(ops) @ v
                assert np.max(np.abs(got - want)) < 1e-12, ops

    def test_preserves_norm_flag(self):
        out = apply_string(PauliString.from_ops("ZY"), basis_state(2, 1))
        assert out.normalized


class TestApplySum:
    def test_diagonal_b_on_00(self):
        out = apply_sum(PauliSum(2, B_TERMS), basis_state(2, 0))
        np.testing.assert_allclose(out.amps, [1.9, 0, 0, 0], atol=1e-15)
        assert not out.normalized

    def test_identity_sum(self):
        rng = np.random.default_rng(0)
        v = rng.normal(size=4) + 1j * rng.normal(size=4)
        v /= np.linalg.norm(v)
        out = apply_sum(PauliSum.identity(2, 1.0), StateVector(2, v))
        np.testing.assert_allclose(out.amps, v)

    def test_a_couples_the_00_11_block(self):
        out = apply_sum(PauliSum(2, A_TERMS), basis_state(2, 3))
        np.testing.assert_allclose(out.amps, [0.2, 0, 0, 0.2], atol=1e-15)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            apply_sum(PauliSum.identity(2, 1.0), basis_state(3, 0))


def random_sum(rng, n, count=8):
    """Random real-weighted sum with the identity, odd-Y strings (complex
    diagonals) and several strings per X-mask."""
    terms = [(rng.normal(), "I" * n)]
    for _ in range(count):
        ops = "".join(rng.choice(list("IXYZ"), size=n))
        terms.append((rng.normal(), ops))
        # same X-mask, one factor swapped Z<->I or X<->Y
        q = int(rng.integers(n))
        swap = {"I": "Z", "Z": "I", "X": "Y", "Y": "X"}[ops[q]]
        terms.append((rng.normal(), ops[:q] + swap + ops[q + 1 :]))
    return PauliSum(n, terms)


class TestCompiledApplySum:
    @pytest.mark.parametrize("n", range(1, 7))
    def test_matches_dense_and_per_string_sum(self, n):
        rng = np.random.default_rng(100 + n)
        for _ in range(3):
            s = random_sum(rng, n)
            v = rng.normal(size=2**n) + 1j * rng.normal(size=2**n)
            state = StateVector(n, v / np.linalg.norm(v))
            got = apply_sum(s, state).amps
            dense = dense_matrix(s) @ state.amps
            per_string = sum(c * _string_action(p, state.amps) for c, p in s.terms)
            assert np.max(np.abs(got - dense)) <= 1e-12
            assert np.max(np.abs(got - per_string)) <= 1e-12

    def test_random_sums_cover_odd_y_and_shared_masks(self):
        s = random_sum(np.random.default_rng(7), 4)
        masks = [p.x_mask for p in s.strings]
        assert any(p.n_y % 2 for p in s.strings)
        assert len(set(masks)) < len(masks)
        assert (0, 0) in {(p.x_mask, p.z_mask) for p in s.strings}

    def test_even_y_diagonals_are_real(self):
        s = PauliSum(2, [(1.0, "II"), (0.5, "YY"), (0.3, "XX"), (0.2, "ZX")])
        apply_sum(s, basis_state(2, 0))
        assert all(d.dtype == np.float64 for _, d in s._action[1])
        odd = PauliSum(1, [(1.0, "I"), (0.5, "Y")])
        apply_sum(odd, basis_state(1, 0))
        assert odd._action[1][-1][1].dtype == np.complex128

    def test_compiled_once_per_instance(self):
        s = PauliSum(2, A_TERMS)
        apply_sum(s, basis_state(2, 0))
        first = s._action
        apply_sum(s, basis_state(2, 1))
        assert s._action is first
        assert s == PauliSum(2, A_TERMS), "the cache is not part of equality"

    def test_empty_sum_is_zero_operator(self):
        s = PauliSum(2, [(1.0, "XI"), (-1.0, "XI")])
        out = apply_sum(s, basis_state(2, 0))
        assert not np.any(out.amps)


class TestDecompose:
    def test_two_qubit_a_matrix_recovers_terms(self):
        s = decompose(DENSE_A)
        assert [(p.ops, c) for c, p in s.terms] == [
            ("II", pytest.approx(1.0, abs=1e-12)),
            ("IZ", pytest.approx(0.4, abs=1e-12)),
            ("ZI", pytest.approx(0.4, abs=1e-12)),
            ("XX", pytest.approx(0.2, abs=1e-12)),
        ]

    def test_identity_matrix(self):
        s = decompose(np.eye(4))
        assert len(s) == 1
        assert s.strings[0].ops == "II" and s.coeffs[0] == pytest.approx(1.0)

    def test_diagonal_b_matrix(self):
        s = decompose(np.diag([1.9, 0.7, 0.9, 0.5]))
        got = {p.ops: c for c, p in s.terms}
        want = {"II": 1.0, "ZI": 0.3, "IZ": 0.4, "ZZ": 0.2}
        assert set(got) == set(want)
        for ops, c in want.items():
            assert abs(got[ops] - c) < 1e-12, ops

    def test_round_trip_random_sums(self):
        """decompose(dense_matrix(s)) reproduces the exact term set."""
        rng = np.random.default_rng(19)
        letters = np.array(list("IXYZ"))
        for _ in range(20):
            n = int(rng.integers(1, 5))
            n_terms = int(rng.integers(1, 6))
            terms = {}
            while len(terms) < n_terms:
                ops = "".join(rng.choice(letters, size=n))
                terms[ops] = float(rng.normal()) or 1.0
            s = PauliSum(n, [(c, ops) for ops, c in terms.items()])
            back = decompose(dense_matrix(s), tol=1e-12)
            assert [p.ops for p in back.strings] == [p.ops for p in s.strings]
            for c_got, c_want in zip(back.coeffs, s.coeffs):
                assert abs(c_got - c_want) < 1e-10

    def test_truncation_threshold(self):
        m = np.diag([1.0, 1.0]) + 1e-13 * np.diag([1.0, -1.0])
        s = decompose(m, tol=1e-10)
        assert [p.ops for p in s.strings] == ["I"]

    def test_rejects_non_hermitian(self):
        with pytest.raises(ValueError):
            decompose(np.array([[0, 1j], [1j, 0]]))

    def test_rejects_non_power_of_two(self):
        with pytest.raises(ValueError):
            decompose(np.eye(3))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, complex(0.0, np.nan)])
    def test_rejects_non_finite_entries(self, bad):
        """A NaN fails every comparison, so without this check it would
        pass the Hermitian test and drop out as a zero coefficient."""
        for entry in ((0, 0), (0, 1)):
            m = np.eye(2, dtype=complex)
            m[entry] = bad
            with pytest.raises(ValueError, match="non-finite"):
                decompose(m)

    def test_string_trace_orthogonality(self):
        rng = np.random.default_rng(23)
        letters = np.array(list("IXYZ"))
        for _ in range(15):
            a = "".join(rng.choice(letters, size=2))
            b = "".join(rng.choice(letters, size=2))
            prod = dense_of_ops(a) @ dense_of_ops(b)
            tr = np.trace(prod)
            if a == b:
                assert abs(tr - 4.0) < 1e-12
            else:
                assert abs(tr) < 1e-12

    def test_reconstruction_error_bound(self):
        rng = np.random.default_rng(29)
        m = random_hermitian(rng, 8)
        s = decompose(m, tol=1e-10)
        np.testing.assert_allclose(dense_matrix(s), m, atol=1e-9)
