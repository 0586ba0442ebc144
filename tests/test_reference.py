import numpy as np
import pytest

from conftest import (
    BLOCK_QUADS,
    DENSE_B,
    quad_roots,
    random_hermitian,
    random_pd,
    random_pencil,
    two_qubit_pencil,
)
from geig.reference import (
    cholesky,
    count_distinct,
    distinct_values,
    generalized_eig,
    generalized_eig_dense,
    hermitian_eig,
)


class TestNonFiniteInput:
    @pytest.mark.parametrize("bad", [np.nan, np.inf, complex(0.0, np.nan)])
    def test_every_entry_point_rejects_at_once(self, bad):
        m = np.eye(4, dtype=complex)
        m[1, 1] = bad
        with pytest.raises(ValueError, match="non-finite"):
            hermitian_eig(m)
        with pytest.raises(ValueError, match="non-finite"):
            cholesky(m)
        with pytest.raises(ValueError, match="^A has non-finite"):
            generalized_eig_dense(m, np.eye(4))
        with pytest.raises(ValueError, match="^B has non-finite"):
            generalized_eig_dense(np.eye(4), m)


class TestCholesky:
    def test_identity(self):
        np.testing.assert_allclose(cholesky(np.eye(3)), np.eye(3))

    def test_scalar(self):
        np.testing.assert_allclose(cholesky(np.array([[4.0]])), [[2.0]])

    def test_diagonal_b_of_demo_pencil(self):
        l = cholesky(DENSE_B)
        np.testing.assert_allclose(l, np.diag(np.sqrt([1.9, 0.7, 0.9, 0.5])), atol=1e-14)

    def test_factorizes_random_pd(self):
        rng = np.random.default_rng(2)
        for _ in range(20):
            b = random_pd(rng, int(rng.integers(2, 9)))
            l = cholesky(b)
            np.testing.assert_allclose(l @ l.conj().T, b, atol=1e-10)
            assert np.max(np.abs(np.triu(l, 1))) == 0.0, "lower triangular"

    def test_rejects_indefinite(self):
        with pytest.raises(ValueError, match="positive definite"):
            cholesky(np.diag([1.0, -2.0]))

    def test_rejects_non_hermitian(self):
        with pytest.raises(ValueError):
            cholesky(np.array([[1.0, 2.0], [0.0, 1.0]]))


class TestHermitianEig:
    def test_diagonal(self):
        vals, _ = hermitian_eig(np.diag([3.0, 1.0]))
        np.testing.assert_allclose(vals, [1.0, 3.0])

    def test_pauli_x(self):
        vals, vecs = hermitian_eig(np.array([[0.0, 1.0], [1.0, 0.0]]))
        np.testing.assert_allclose(vals, [-1.0, 1.0], atol=1e-12)
        for k, sign in [(0, -1.0), (1, 1.0)]:
            v = vecs[:, k]
            v = v / v[0]
            np.testing.assert_allclose(v, [1.0, sign], atol=1e-10)

    def test_residuals_and_orthonormality(self):
        rng = np.random.default_rng(3)
        for _ in range(15):
            m = random_hermitian(rng, 8)
            vals, vecs = hermitian_eig(m)
            assert np.all(np.diff(vals) >= -1e-12), "ascending"
            np.testing.assert_allclose(m @ vecs, vecs * vals, atol=1e-9)
            np.testing.assert_allclose(vecs.conj().T @ vecs, np.eye(8), atol=1e-10)

    def test_cross_check_against_numpy(self):
        rng = np.random.default_rng(5)
        for _ in range(15):
            m = random_hermitian(rng, int(rng.integers(2, 13)))
            vals, _ = hermitian_eig(m)
            np.testing.assert_allclose(vals, np.linalg.eigvalsh(m), atol=1e-10)


class TestGeneralizedEig:
    def test_demo_pencil_matches_block_quadratics(self):
        ref = generalized_eig(two_qubit_pencil())
        want = sorted(r for quad in BLOCK_QUADS for r in quad_roots(*quad))
        np.testing.assert_allclose(ref.eigenvalues, want, atol=1e-9)
        assert abs(ref.eta1 - 0.5) < 1e-12, "min diagonal of B"

    def test_b_identity_reduces_to_standard(self):
        rng = np.random.default_rng(7)
        a = random_hermitian(rng, 4)
        vals, _ = hermitian_eig(a)
        ref = generalized_eig_dense(a, np.eye(4))
        np.testing.assert_allclose(ref.eigenvalues, vals, atol=1e-10)

    def test_a_equals_b(self):
        rng = np.random.default_rng(9)
        b = random_pd(rng, 4)
        ref = generalized_eig_dense(b, b)
        np.testing.assert_allclose(ref.eigenvalues, np.ones(4), atol=1e-10)

    def test_pair_residuals_and_b_orthonormality(self):
        rng = np.random.default_rng(11)
        for _ in range(30):
            n = int(rng.integers(1, 5))
            pencil, a, b = random_pencil(rng, n)
            ref = generalized_eig_dense(a, b)
            v = ref.eigenvectors
            for j, lam in enumerate(ref.eigenvalues):
                res = a @ v[:, j] - lam * (b @ v[:, j])
                assert np.linalg.norm(res) < 1e-9, "pair residual"
            gram = v.conj().T @ b @ v
            assert np.max(np.abs(gram - np.eye(2**n))) < 1e-9, "B-orthonormal"

    def test_congruence_invariance(self):
        rng = np.random.default_rng(13)
        for _ in range(10):
            _, a, b = random_pencil(rng, 2)
            t = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
            ref1 = generalized_eig_dense(a, b)
            ref2 = generalized_eig_dense(t.conj().T @ a @ t, t.conj().T @ b @ t)
            np.testing.assert_allclose(ref1.eigenvalues, ref2.eigenvalues, atol=1e-8)

    def test_non_pd_b_raises(self):
        a = np.diag([1.0, 2.0])
        b = np.diag([1.0, -1.0])
        with pytest.raises(ValueError, match="positive definite"):
            generalized_eig_dense(a, b)

    def test_eta1_positive_iff_cholesky_succeeds(self):
        rng = np.random.default_rng(15)
        b = random_pd(rng, 4)
        ref = generalized_eig_dense(random_hermitian(rng, 4), b)
        assert ref.eta1 > 0
        cholesky(b)

    def test_pencil_entry_point_matches_dense(self):
        pencil = two_qubit_pencil()
        from geig.pauli import dense_matrix

        ref1 = generalized_eig(pencil)
        ref2 = generalized_eig_dense(dense_matrix(pencil.A), dense_matrix(pencil.B))
        np.testing.assert_allclose(ref1.eigenvalues, ref2.eigenvalues, atol=1e-12)


class TestDistinct:
    def test_clusters(self):
        vals = [1.0, 1.0 + 1e-9, 2.0, 3.0, 3.0 + 1e-8]
        assert count_distinct(vals) == 3
        reps = distinct_values(vals)
        np.testing.assert_allclose(reps, [1.0 + 5e-10, 2.0, 3.0 + 5e-9])

    def test_all_distinct(self):
        assert count_distinct([0.33, 0.97, 1.01, 1.56]) == 4

    def test_empty(self):
        assert count_distinct([]) == 0
        assert distinct_values([]) == []


class TestJacobiScale:
    """The stopping rule is relative to the matrix norm, so the oracle
    converges at every coefficient scale, not only near unit scale."""

    @pytest.mark.parametrize("scale", [1e-6, 1e-3, 1.0, 1e3, 1e4, 1e6])
    def test_matches_eigh_at_scale(self, scale):
        rng = np.random.default_rng(21)
        for dim in (2, 5, 8):
            m = scale * random_hermitian(rng, dim)
            values, vecs = hermitian_eig(m)
            want = np.linalg.eigvalsh(m)
            np.testing.assert_allclose(values, want, rtol=0, atol=1e-12 * scale * dim)
            np.testing.assert_allclose(vecs.conj().T @ vecs, np.eye(dim), atol=1e-12)
            np.testing.assert_allclose(m @ vecs, vecs * values, atol=1e-10 * scale)

    def test_large_tau_rotation_does_not_overflow(self):
        # tau = 5e159, so tau * tau overflows where hypot(1, tau) does not
        m = np.array([[0.0, 1e-10], [1e-10, 1e150]])
        with np.errstate(over="raise"):
            values, _ = hermitian_eig(m)
        np.testing.assert_allclose(values, [0.0, 1e150], rtol=1e-15, atol=1e-100)

    def test_zero_matrix(self):
        values, vecs = hermitian_eig(np.zeros((3, 3)))
        np.testing.assert_array_equal(values, np.zeros(3))
        np.testing.assert_array_equal(vecs, np.eye(3))

    def test_cli_reference_on_scaled_demo(self, tmp_path, capsys):
        import json

        from geig.cli import main, serialize_problem

        problem = serialize_problem(two_qubit_pencil())
        for side in ("A", "B"):
            for term in problem[side]:
                term["coeff"] *= 1e4
        path = tmp_path / "scaled.json"
        path.write_text(json.dumps(problem))
        assert main(["reference", str(path)]) == 0
        summary = json.loads(capsys.readouterr().out)
        # scaling both operators leaves the generalized eigenvalues unchanged
        ref = generalized_eig(two_qubit_pencil())
        np.testing.assert_allclose(summary["eigenvalues"], ref.eigenvalues, atol=1e-12)
        assert summary["eta1"] == pytest.approx(0.5e4, rel=1e-12)


class TestJacobiExtremeScale:
    """The sweeps run on the matrix rescaled by an exact power of two, so
    the norms in the stopping rule neither underflow (all-zero eigenvalues
    at 1e-200) nor overflow (at 1e200) anywhere in the float range."""

    @pytest.mark.parametrize("scale", [1e-300, 1e-200, 1e-100, 1e100, 1e200, 1e300])
    def test_matches_eigvalsh_at_extreme_scale(self, scale):
        rng = np.random.default_rng(23)
        for dim in (2, 5, 8):
            unit = random_hermitian(rng, dim)
            with np.errstate(over="raise"):
                values, vecs = hermitian_eig(scale * unit)
            want = np.linalg.eigvalsh(scale * unit)
            np.testing.assert_allclose(values / scale, want / scale, rtol=0, atol=1e-12 * dim)
            np.testing.assert_allclose(vecs.conj().T @ vecs, np.eye(dim), atol=1e-12)
            np.testing.assert_allclose(unit @ vecs, vecs * (values / scale), atol=1e-10)

    def test_power_of_two_rescale_is_exact(self):
        m = random_hermitian(np.random.default_rng(24), 6)
        values, vecs = hermitian_eig(m)
        for exponent in (-900, -3, 5, 900):
            scaled = np.ldexp(m.real, exponent) + 1j * np.ldexp(m.imag, exponent)
            got_values, got_vecs = hermitian_eig(scaled)
            np.testing.assert_array_equal(got_values, np.ldexp(values, exponent))
            np.testing.assert_array_equal(got_vecs, vecs)

    @pytest.mark.parametrize("scale", [1e-200, 1e200])
    def test_cli_reference_on_scaled_random_pencil(self, tmp_path, capsys, scale):
        import json

        from geig.cli import main, serialize_problem

        pencil, _, b = random_pencil(np.random.default_rng(25), 2)
        problem = serialize_problem(pencil)
        for side in ("A", "B"):
            for term in problem[side]:
                term["coeff"] *= scale
        path = tmp_path / "scaled.json"
        path.write_text(json.dumps(problem))
        assert main(["reference", str(path)]) == 0
        summary = json.loads(capsys.readouterr().out)
        # scaling both operators leaves the generalized eigenvalues unchanged
        ref = generalized_eig(pencil)
        np.testing.assert_allclose(summary["eigenvalues"], ref.eigenvalues, atol=1e-10)
        assert summary["eta1"] / scale == pytest.approx(np.linalg.eigvalsh(b)[0], rel=1e-10)
