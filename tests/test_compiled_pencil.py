"""The compiled pencil kernel against the paths it replaced: the per-mask
``apply_sum`` loop on raw rows (kept here as ``per_mask_apply``), complex rows
against float64 rows in the exact objective and in ``run_fqge``, and the
complex path a pencil with an odd-Y string takes."""

import json

import numpy as np
import pytest

import geig.pencil
from conftest import BENCH_PROBLEMS, two_qubit_pencil
from geig import pauli
from geig.ansatz import apply_ansatz, random_params
from geig.cli import main, parse_problem
from geig.fqge import FqgeConfig, run_fqge
from geig.pauli import PauliSum, _phase, apply_compiled, apply_sum, compile_sums, dense_matrix
from geig.reference import generalized_eig
from geig.statevector import StateVector, basis_state, zero_state
from geig.vqge import DeflationRecord, Pencil, _exact_objective


def per_mask_apply(s, amps):
    """The action of a sum on raw rows as it was: one complex diagonal per X-mask built term
    by term (stored as float64 when its imaginary part is zero), applied by
    one gather and one multiply-add per mask."""
    index = np.arange(2**s.n, dtype=np.int64)
    diags = {}
    for coeff, string in s.terms:
        term = coeff * _phase(string, index ^ string.x_mask)
        diags[string.x_mask] = diags.get(string.x_mask, 0.0) + term
    out = np.zeros_like(amps)
    for x_mask, diag in sorted(diags.items()):
        if not diag.imag.any():
            diag = diag.real.copy()
        out += diag * (amps.take(index ^ x_mask, axis=-1) if x_mask else amps)
    return out


def seeded_sum(rng, n, odd_y):
    """Random strings in pairs sharing an X-mask, a pair whose diagonals
    cancel on half the indices, and the identity; with ``odd_y`` at least
    one string has an odd number of Y factors."""
    letters = list("IXYZ") if odd_y else list("IXZ")
    terms = [(rng.normal(), "I" * n)]
    for _ in range(2 * n):
        ops = "".join(rng.choice(letters, size=n))
        q = int(rng.integers(n))
        swap = {"I": "Z", "Z": "I", "X": "Y" if odd_y else "X", "Y": "X"}[ops[q]]
        terms += [(rng.normal(), ops), (rng.normal(), ops[:q] + swap + ops[q + 1 :])]
    c = rng.normal()
    terms += [(c, "X" + "I" * (n - 1)), (c, "Y" + "I" * (n - 1) if odd_y else "X" + "Z" * (n - 1))]
    return PauliSum(n, terms)


def rows(rng, shape, complex_rows):
    x = rng.normal(size=shape)
    return x + 1j * rng.normal(size=shape) if complex_rows else x


class TestKernelMatchesPerMaskLoop:
    @pytest.mark.parametrize("n", range(1, 9))
    @pytest.mark.parametrize("odd_y", [False, True], ids=["real-sum", "odd-y"])
    def test_complex_rows_bitwise(self, n, odd_y):
        rng = np.random.default_rng([n, odd_y])
        s = seeded_sum(rng, n, odd_y)
        compiled = compile_sums((s,))
        assert (compiled[1].dtype == np.complex128) == odd_y
        # one row, a small batch, and a batch spanning several blocks
        blocks = 3 * pauli._BLOCK_ENTRIES // compiled[0].size + 1
        for shape in ((2**n,), (5, 2**n), (2, blocks, 2**n)):
            amps = rows(rng, shape, complex_rows=True)
            got = apply_compiled(compiled, amps)[0]
            assert got.shape == shape and got.dtype == np.complex128
            np.testing.assert_array_equal(got, per_mask_apply(s, amps))

    @pytest.mark.parametrize("n", range(1, 9))
    @pytest.mark.parametrize("odd_y", [False, True], ids=["real-sum", "odd-y"])
    def test_real_rows(self, n, odd_y):
        """Real rows stay float64 on a real sum; on either sum they give what
        the same rows as complex numbers gave."""
        rng = np.random.default_rng([n, odd_y, 1])
        s = seeded_sum(rng, n, odd_y)
        for shape in ((2**n,), (5, 2**n)):
            amps = rows(rng, shape, complex_rows=False)
            got = apply_compiled(compile_sums((s,)), amps)[0]
            assert got.dtype == (np.complex128 if odd_y else np.float64)
            np.testing.assert_array_equal(got, per_mask_apply(s, amps + 0j))

    @pytest.mark.parametrize("n", [1, 3, 6])
    def test_pencil_sides_share_one_table(self, n):
        rng = np.random.default_rng(n)
        pencil = Pencil(seeded_sum(rng, n, True), seeded_sum(rng, n, False))
        table, diags = pencil._compiled
        masks = {p.x_mask for side in (pencil.A, pencil.B) for p in side.strings}
        assert table[:, 0].tolist() == sorted(masks)
        assert diags.shape == (2, len(masks), 2**n)
        amps = rows(rng, (4, 2**n), complex_rows=True)
        a_psi, b_psi, a, b = pencil.apply(amps)
        np.testing.assert_array_equal(a_psi, per_mask_apply(pencil.A, amps))
        np.testing.assert_array_equal(b_psi, per_mask_apply(pencil.B, amps))
        np.testing.assert_array_equal(apply_compiled(pencil._compiled, amps), [a_psi, b_psi])

    def test_empty_sum_on_a_table(self):
        s = PauliSum(2, [(1.0, "XI"), (-1.0, "XI")])
        compiled = compile_sums((s,))
        assert compiled[0].shape == (0, 4)
        np.testing.assert_array_equal(apply_compiled(compiled, np.ones((3, 4)))[0], np.zeros((3, 4)))


class TestOneBracketRule:
    @pytest.mark.parametrize("n", range(1, 7))
    @pytest.mark.parametrize(
        "odd_y, complex_rows",
        [(False, False), (False, True), (True, True)],
        ids=["real", "complex-rows", "complex"],
    )
    def test_batch_rows_bracket_as_one_state(self, n, odd_y, complex_rows):
        """Each row of a batch gets the brackets <A>, <B> of the same state
        applied alone, bitwise, and both equal ``np.vdot`` of the row and
        its image; a single state gives scalars."""
        rng = np.random.default_rng([n, odd_y, complex_rows, 2])
        pencil = Pencil(seeded_sum(rng, n, odd_y), seeded_sum(rng, n, odd_y))
        for count in range(1, 6):
            amps = rows(rng, (count, 2**n), complex_rows)
            a_psi, b_psi, a, b = pencil.apply(amps)
            for k, row in enumerate(amps):
                _, _, a_one, b_one = pencil.apply(row)
                assert isinstance(a_one, float) and isinstance(b_one, float)
                assert a[k].tobytes() == a_one.tobytes()
                assert b[k].tobytes() == b_one.tobytes()
                assert a_one == np.vdot(row, a_psi[k]).real
                assert b_one == np.vdot(row, b_psi[k]).real


class TestBracketsAgainstDense:
    """The brackets <A>, <B> of ``Pencil.apply`` are the package's one
    expectation-value path; here they meet the dense matrices."""

    def test_diagonal_entries_of_the_demo_pencil(self):
        pencil = two_qubit_pencil()
        assert abs(pencil.apply(basis_state(2, 0).amps)[2] - 1.8) < 1e-12
        assert abs(pencil.apply(basis_state(2, 3).amps)[3] - 0.5) < 1e-12

    @pytest.mark.parametrize("scale", [1e9, 1e12])
    def test_large_coefficients_match_dense(self, scale):
        """Rounding leaves an error on the scale of sum_k |c_k|, on complex
        rows of a pencil with odd-Y strings as well."""
        rng = np.random.default_rng(47)
        terms = [(0.3, "XYZ"), (-1.0, "YYI"), (0.7, "IXY"), (0.2, "ZZZ")]
        s = PauliSum(3, [(scale * c, ops) for c, ops in terms])
        pencil = Pencil(s, PauliSum(3, [(scale * abs(c), ops) for c, ops in terms[::-1]]))
        dense = [dense_matrix(pencil.A), dense_matrix(pencil.B)]
        for _ in range(50):
            v = rows(rng, 8, True)
            v /= np.linalg.norm(v)
            _, _, a, b = pencil.apply(v)
            for got, m in zip((a, b), dense):
                assert abs(got - np.vdot(v, m @ v).real) <= 1e-12 * scale


def ising(n):
    return parse_problem(BENCH_PROBLEMS.ising_problem(n, 1))


def _spy_dtypes(monkeypatch):
    """Record the dtype of every row array Pencil.apply receives."""
    seen = []
    apply = Pencil.apply

    def spy(self, amps):
        seen.append(amps.dtype)
        return apply(self, amps)

    monkeypatch.setattr(Pencil, "apply", spy)
    return seen


class TestExactObjectiveRealRows:
    @pytest.mark.parametrize("n", range(2, 9))
    def test_value_and_gradient_match_complex_rows(self, n, monkeypatch):
        pencil = ising(n)
        assert pencil.real
        rng = np.random.default_rng(n)
        states = [apply_ansatz(random_params(n, 2, rng), zero_state(n)) for _ in range(2)]
        records = tuple(DeflationRecord(float(k), 0.5 + k, x) for k, x in enumerate(states))
        theta = np.stack([random_params(n, 2, rng).theta for _ in range(3)])
        seen = _spy_dtypes(monkeypatch)
        values, grads = _exact_objective(pencil, records, zero_state(n))(theta)
        assert set(seen) == {np.dtype(np.float64)}, "rows, records and Bx are float64"
        monkeypatch.setattr(Pencil, "real", property(lambda self: False))
        seen.clear()
        want_values, want_grads = _exact_objective(pencil, records, zero_state(n))(theta)
        assert set(seen) == {np.dtype(np.complex128)}
        scale = np.max(np.abs(want_values))
        np.testing.assert_allclose(values, want_values, rtol=0, atol=1e-12 * scale)
        np.testing.assert_allclose(grads, want_grads, rtol=0, atol=1e-12 * scale)

    def test_complex_input_state_takes_complex_rows(self, monkeypatch):
        pencil = ising(3)
        v_in = StateVector(3, np.exp(1j * np.pi / 3) * zero_state(3).amps)
        theta = random_params(3, 2, np.random.default_rng(0)).theta[None]
        seen = _spy_dtypes(monkeypatch)
        values, _ = _exact_objective(pencil, (), v_in)(theta)
        assert set(seen) == {np.dtype(np.complex128)}
        want, _ = _exact_objective(pencil, (), zero_state(3))(theta)
        np.testing.assert_allclose(values, want, rtol=1e-12)


class TestRunFqgeRealRows:
    @pytest.mark.parametrize("n", [2, 5, 8])
    @pytest.mark.parametrize("line_search", [False, True], ids=["fixed", "line-search"])
    def test_phase_of_start_state_changes_only_rounding(self, n, line_search, monkeypatch):
        pencil = ising(n)
        # the fixed step of 0.1 runs to max_iters on these spectra, as the CLI's does
        cfg = FqgeConfig(line_search=line_search, epsilon=1e-9, max_iters=200)
        seen = _spy_dtypes(monkeypatch)
        real = run_fqge(pencil, basis_state(n, 0), cfg)
        assert set(seen) == {np.dtype(np.float64)}
        seen.clear()
        phased = StateVector(n, np.exp(1j * np.pi / 3) * basis_state(n, 0).amps)
        rotated = run_fqge(pencil, phased, cfg)
        assert set(seen) == {np.dtype(np.complex128)}
        assert real.status == rotated.status == ("converged" if line_search else "max_iters")
        assert len(real.iterates) == len(rotated.iterates)
        assert abs(real.eigenvalue - rotated.eigenvalue) <= 1e-10 * abs(real.eigenvalue)
        assert real.state.amps.dtype == np.complex128
        assert all(isinstance(row.delta_used, complex) for row in real.iterates)

    def test_noise_keeps_rows_real(self, monkeypatch):
        seen = _spy_dtypes(monkeypatch)
        cfg = FqgeConfig(noise_sigma=0.01, seed=3, max_iters=20)
        run_fqge(two_qubit_pencil(), basis_state(2, 0), cfg)
        assert set(seen) == {np.dtype(np.float64)}


def demo_with_y():
    demo = two_qubit_pencil()
    return Pencil(PauliSum(2, list(demo.A.terms) + [(0.15, "XY")]), demo.B)


class TestOddYPencil:
    def test_takes_the_complex_path_and_matches_dense(self):
        pencil = demo_with_y()
        assert not pencil.real
        rng = np.random.default_rng(5)
        for amps in (basis_state(2, 0).amps.real, rows(rng, (3, 4), complex_rows=True)):
            a_psi, b_psi, _, _ = pencil.apply(amps)
            assert a_psi.dtype == np.complex128
            np.testing.assert_allclose(a_psi, amps @ dense_matrix(pencil.A).T, atol=1e-12)
            np.testing.assert_allclose(b_psi, amps @ dense_matrix(pencil.B).T, atol=1e-12)

    @pytest.mark.parametrize("line_search", [False, True], ids=["fixed", "line-search"])
    def test_run_fqge_reaches_the_oracle(self, line_search, monkeypatch):
        pencil = demo_with_y()
        seen = _spy_dtypes(monkeypatch)
        result = run_fqge(pencil, basis_state(2, 0), FqgeConfig(line_search=line_search))
        assert set(seen) == {np.dtype(np.complex128)}
        assert result.status == "converged"
        ground = generalized_eig(pencil).eigenvalues[0]
        assert abs(result.eigenvalue - ground) <= 1e-9


class TestCompileOnce:
    def test_one_compile_per_pencil_and_none_shared(self, monkeypatch):
        compiled = []
        compile_sums = geig.pencil.compile_sums

        def counting(sums, *names):
            compiled.append(sums)
            return compile_sums(sums, *names)

        monkeypatch.setattr(geig.pencil, "compile_sums", counting)
        pencil = ising(4)
        assert compiled == [], "parsing compiles nothing"
        run_fqge(pencil, basis_state(4, 0), FqgeConfig(line_search=True))
        assert len(compiled) == 1
        run_fqge(pencil, basis_state(4, 0), FqgeConfig())
        assert len(compiled) == 1
        again = Pencil(PauliSum(4, pencil.A.terms), PauliSum(4, pencil.B.terms))
        assert again == pencil
        again.apply(basis_state(4, 0).amps)
        assert len(compiled) == 2

    @pytest.mark.parametrize(
        "argv",
        [
            ["vqge", "--r", "2", "--restarts", "1", "--iters", "3"],
            ["vqge", "--r", "2", "--restarts", "1", "--iters", "3", "--shots", "100"],
            ["fqge", "--line-search"],
            ["reference"],
        ],
        ids=["vqge", "vqge-shots", "fqge", "reference"],
    )
    @pytest.mark.parametrize("problem", ["demo", "ising4"])
    def test_one_compile_per_cli_run(self, argv, problem, monkeypatch, tmp_path, capsys):
        """The solver and the dense oracle read the one table of the run's
        pencil: no side is compiled again through ``PauliSum``."""
        compiled = []
        for module in (pauli, geig.pencil):

            def counting(sums, *names, compile_sums=module.compile_sums):
                compiled.append(sums)
                return compile_sums(sums, *names)

            monkeypatch.setattr(module, "compile_sums", counting)
        if problem == "ising4":
            path = tmp_path / "ising4.json"
            path.write_text(json.dumps(BENCH_PROBLEMS.ising_problem(4, 1)))
            argv = argv + [str(path)]
        assert main(argv) == 0, capsys.readouterr().err
        assert len(compiled) == 1


class TestDenseFromTable:
    @pytest.mark.parametrize("n", [1, 3, 5])
    @pytest.mark.parametrize("odd_y", ["neither", "A", "B", "both"])
    def test_bitwise_equal_to_each_side_alone(self, n, odd_y):
        """The pencil's two dense matrices, scattered from its one table,
        are bitwise those of ``dense_matrix`` on each side, also when only
        one side has an odd-Y string (a complex table for a real side)."""
        rng = np.random.default_rng([n, len(odd_y)])
        a = seeded_sum(rng, n, odd_y in ("A", "both"))
        b = seeded_sum(rng, n, odd_y in ("B", "both"))
        pencil = Pencil(a, b)
        assert pencil.real == (odd_y == "neither")
        dense = pencil.dense()
        assert dense.shape == (2, 2**n, 2**n) and dense.dtype == np.complex128
        for got, side in zip(dense, (a, b)):
            assert got.tobytes() == dense_matrix(side).tobytes()

    def test_demo_with_y(self):
        pencil = demo_with_y()
        a, b = pencil.dense()
        assert a.tobytes() == dense_matrix(pencil.A).tobytes()
        assert b.tobytes() == dense_matrix(pencil.B).tobytes()
        assert a.imag.any() and not b.imag.any()


class TestDiagonalPastTheFloatRange:
    def test_compile_sums_refuses_without_a_warning(self):
        """Every caller of ``compile_sums`` (``apply_sum`` and
        ``dense_matrix`` too) meets one ``ValueError``, not an inf."""
        s = PauliSum(1, [(1.7e308, "I"), (1.7e308, "Z")])
        with pytest.raises(ValueError, match="^the terms of sum 1 add past the float range"):
            compile_sums((PauliSum.identity(1), s))
        with pytest.raises(ValueError, match="^the terms of sum 0 add past"):
            apply_sum(s, basis_state(1, 0))
        with pytest.raises(ValueError, match="^the terms of sum 0 add past"):
            dense_matrix(s)

    def test_pencil_names_the_side(self):
        big = PauliSum(1, [(1.7e308, "I"), (1.7e308, "Z")])
        with pytest.raises(ValueError, match="^the terms of A add past the float range"):
            Pencil(big, PauliSum.identity(1)).apply(np.array([1.0, 0.0]))
