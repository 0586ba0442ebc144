import itertools

import numpy as np
import pytest

from conftest import (
    A_TERMS,
    B_TERMS,
    DENSE_A,
    random_hermitian,
    refused_without_allocating,
)
from geig.pauli import (
    DEFAULT_DENSE_CAP,
    PauliString,
    PauliSum,
    apply_sum,
    compile_sums,
    decompose,
    dense_matrix,
    gather_kets,
    term_gathers,
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


def dense_by_kron(s):
    """The Kronecker build of a sum: one product per term, added in term
    order to a zero matrix."""
    out = np.zeros((2**s.n, 2**s.n), dtype=complex)
    for coeff, string in s.terms:
        out += coeff * dense_of_ops(string.ops)
    return out


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

    def test_keeps_the_callers_strings(self):
        zi, xx = PauliString.from_ops("ZI"), PauliString.from_ops("XX")
        s = PauliSum(2, [(0.5, xx), (1.0, zi), (0.25, PauliString.from_ops("ZI"))])
        assert s.terms == ((1.25, zi), (0.5, xx))
        assert s.terms[0][1] is zi and s.terms[1][1] is xx

    def test_drops_exact_zero_terms(self):
        s = PauliSum(1, [(1.0, "X"), (-1.0, "X"), (2.0, "I")])
        assert [p.ops for p in s.strings] == ["I"]

    def test_rejects_complex_coefficients(self):
        with pytest.raises(ValueError):
            PauliSum(1, [(1.0 + 0.5j, "Z")])

    def test_rejects_nonfinite_coefficients(self):
        with pytest.raises(ValueError):
            PauliSum(1, [(np.inf, "Z")])

    def test_rejects_a_merged_sum_that_overflows(self):
        """Finite inputs whose merged sum is inf are refused, naming the string."""
        with pytest.raises(ValueError, match="coefficients of 'ZI' sum to inf"):
            PauliSum(2, [(1e308, "ZI"), (0.5, "XX"), (1e308, "ZI")])

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

    @pytest.mark.parametrize("n", range(1, 7))
    def test_scatter_equals_kron_build_bytewise(self, n):
        """Random sums with odd-Y strings, several strings per X-mask and
        pairs of equal weight whose entries cancel exactly."""
        rng = np.random.default_rng(200 + n)
        for _ in range(20):
            s = random_sum(rng, n, count=int(rng.integers(1, 8)))
            terms = [(c * 10.0 ** int(rng.integers(-6, 6)), p) for c, p in s.terms]
            ops, other = ("".join(rng.choice(list("IXYZ"), size=n)) for _ in range(2))
            q = int(rng.integers(n))
            twin = ops[:q] + {"I": "Z", "Z": "I", "X": "Y", "Y": "X"}[ops[q]] + ops[q + 1 :]
            pairs = [(0.75, ops), (0.75, twin), (0.5, other), (-0.5, other)]
            s = PauliSum(n, terms + pairs)
            assert dense_matrix(s).tobytes() == dense_by_kron(s).tobytes()
        cancelled = PauliSum(n, [(0.3, "Z" * n), (0.3, "I" * n)])
        assert np.count_nonzero(dense_matrix(cancelled)) == 2 ** (n - 1)

    @pytest.mark.parametrize("n", range(1, 4))
    def test_every_string_equals_its_kron_product(self, n):
        """Bytewise as a one-term sum; the bare Kronecker product differs
        from that only in the sign of some zeros."""
        for ops in map("".join, itertools.product("IXYZ", repeat=n)):
            got = dense_matrix(PauliString.from_ops(ops))
            assert got.tobytes() == dense_by_kron(PauliSum(n, [(1.0, ops)])).tobytes(), ops
            np.testing.assert_array_equal(got, dense_of_ops(ops))

    def test_empty_sum_is_zero_matrix(self):
        s = PauliSum(3, [(1.0, "XYZ"), (-1.0, "XYZ")])
        assert len(s) == 0
        assert dense_matrix(s).tobytes() == np.zeros((8, 8), dtype=complex).tobytes()

    def test_dimension_cap(self):
        s = PauliSum.identity(13, 1.0)
        with pytest.raises(ValueError):
            dense_matrix(s)
        # refused before the 2^n x 2^n matrix is allocated
        big = PauliSum.identity(DEFAULT_DENSE_CAP + 1, 1.0)
        peak = refused_without_allocating(
            lambda: dense_matrix(big), f"cap of {DEFAULT_DENSE_CAP}$"
        )
        assert peak < 2**20


def string_action(ops, amps):
    """P|v> of one string by the per-term kernel."""
    p = PauliString.from_ops(ops)
    return gather_kets(term_gathers((p,), p.n), amps)[0]


class TestApplyString:
    def test_x_flips(self):
        out = string_action("X", basis_state(1, 0).amps)
        np.testing.assert_array_equal(out, [0, 1])

    def test_y_phase(self):
        out = string_action("Y", basis_state(1, 0).amps)
        np.testing.assert_allclose(out, [0, 1j])

    def test_matches_dense_on_all_two_qubit_strings(self):
        rng = np.random.default_rng(11)
        strings = [a + b for a in "IXYZ" for b in "IXYZ"]
        for _ in range(25):
            v = rng.normal(size=4) + 1j * rng.normal(size=4)
            v /= np.linalg.norm(v)
            for ops in strings:
                got = string_action(ops, v)
                want = dense_of_ops(ops) @ v
                assert np.max(np.abs(got - want)) < 1e-12, ops


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
            per_string = sum(c * string_action(p.ops, state.amps) for c, p in s.terms)
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
        assert compile_sums((s,))[1].dtype == np.float64
        odd = PauliSum(1, [(1.0, "I"), (0.5, "Y")])
        assert compile_sums((odd,))[1].dtype == np.complex128

    def test_sum_holds_no_compiled_state(self):
        """A sum is a plain value: applying it stores nothing on it, and
        each call compiles the same action afresh."""
        s = PauliSum(2, A_TERMS)
        first = apply_sum(s, basis_state(2, 1)).amps
        assert set(vars(s)) == {"n", "terms"}
        assert apply_sum(s, basis_state(2, 1)).amps.tobytes() == first.tobytes()
        assert s == PauliSum(2, A_TERMS), "equality is structural"

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

    @pytest.mark.parametrize(
        "m, message",
        [
            # passes the Hermitian check at tol = 1, yet Tr[X m]/2 = 0.5j
            ([[0, 0.5j], [0.5j, 0]], "0.5j for X"),
            # ZX (x = 1, z = 2) precedes XI (x = 2, z = 0) in (x, z) order
            (
                0.3 * np.eye(4)
                + 0.25j * np.kron(X, I2)
                + 0.125j * np.kron(Z, X),
                "0.125j for ZX",
            ),
        ],
        ids=["X", "first-in-mask-order"],
    )
    def test_non_real_coefficient_names_first_string(self, m, message):
        with pytest.raises(ValueError) as err:
            decompose(np.array(m), tol=1.0)
        assert str(err.value) == f"non-real coefficient {message}; input not Hermitian"

    def test_rejects_non_power_of_two(self):
        with pytest.raises(ValueError):
            decompose(np.eye(3))

    def test_refuses_above_dense_cap(self):
        dim = 2 ** (DEFAULT_DENSE_CAP + 1)
        # a zero-stride view: the input itself holds one element
        m = np.broadcast_to(np.zeros((), dtype=complex), (dim, dim))
        peak = refused_without_allocating(
            lambda: decompose(m), f"cap of {DEFAULT_DENSE_CAP}$"
        )
        assert peak < 2**20

    @pytest.mark.parametrize("tol", [np.nan, np.inf, -1.0])
    def test_rejects_bad_tol(self, tol):
        """A NaN tol passes every comparison's False branch, so without
        this check it would drop every term; a negative one keeps all."""
        with pytest.raises(ValueError, match="tol"):
            decompose(np.array([[1.0, 0.5], [0.5, -1.0]]), tol=tol)

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

    @pytest.mark.parametrize("scale", [1e6, 1e8])
    def test_hermitian_to_rounding_at_large_scale(self, scale):
        """Q diag(scale (1..8)) Q^T is asymmetric from rounding alone (4.7e-10
        at 1e6), and its Y strings get imaginary coefficients (5.8e-11 at
        1e6, above 1e-10 at 1e8): both checks grow with max|m| and accept
        it.  They never shrink below their unit-scale values, and a real
        asymmetry is still refused."""
        q, _ = np.linalg.qr(np.random.default_rng(0).normal(size=(8, 8)))
        m = q @ np.diag(scale * np.arange(1.0, 9.0)) @ q.T
        assert 1e-16 * scale < np.max(np.abs(m - m.T)) < 1e-15 * scale
        np.testing.assert_allclose(dense_matrix(decompose(m)), m, rtol=0, atol=8e-15 * scale)
        skew = np.zeros((8, 8))
        skew[0, 1] = 1e-11 * scale
        with pytest.raises(ValueError, match="not Hermitian"):
            decompose(m + skew)
        with pytest.raises(ValueError, match="not Hermitian"):
            decompose(np.eye(2) * 1e-6 + np.array([[0.0, 1e-9], [0.0, 0.0]]))
