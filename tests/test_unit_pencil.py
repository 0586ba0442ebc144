"""``Pencil.unit``, the pencil with each side divided by an even power of
two, and the solvers that run on it: the exponents and the range they
bring each side into, the dense oracle (which runs on the unit pencil)
against the pencil's own dense matrices bit for bit, ``run_fqge`` and
``solve_spectrum`` giving the same rows, bit for bit once scaled back, on
a pencil and on copies whose sides are multiplied by powers of two, and
golden digests of ``solve_spectrum`` on scaled pencils.  FOUND numbers
name the entries of CHANGES.md."""

import hashlib
import math
from dataclasses import replace

import numpy as np
import pytest

from conftest import BENCH_PROBLEMS, line_search, random_pencil, random_state, two_qubit_pencil
from geig.cli import parse_problem
from geig.fqge import FqgeConfig, build_lcu, loss_state, run_fqge
from geig.pauli import PauliSum, dense_matrix
from geig.pencil import Pencil
from geig.reference import generalized_eig, generalized_eig_dense
from geig.statevector import StateVector, basis_state
from geig.vqge import OptConfig, SolveConfig, solve_spectrum


def scaled(pencil: Pencil, a: float, b: float) -> Pencil:
    """The pencil with A's coefficients times a and B's times b."""
    return Pencil(
        PauliSum(pencil.n, [(c * a, p) for c, p in pencil.A.terms]),
        PauliSum(pencil.n, [(c * b, p) for c, p in pencil.B.terms]),
    )


def ising(n: int, s: int) -> Pencil:
    return parse_problem(BENCH_PROBLEMS.ising_problem(n, s))


class TestUnitPencil:
    @pytest.mark.parametrize(
        "a, b", [(1.0, 1.0), (3.0, 7.0), (1e5, 3e-4), (1e-9, 40.0), (0.3, 1e12), (1e-310, 1e300)]
    )
    def test_even_exponents_bring_each_side_near_1(self, a, b):
        pencil = scaled(two_qubit_pencil(), a, b)
        unit, e, eb = pencil.unit
        ea = e + eb
        assert ea % 2 == 0 and eb % 2 == 0
        for side, own, k in ((unit.A, pencil.A, ea), (unit.B, pencil.B, eb)):
            assert 0.5 <= max(abs(c) for c, _ in side.terms) < 2.0
            assert side.strings == own.strings
            assert [math.ldexp(c, k) for c, _ in side.terms] == [c for c, _ in own.terms]

    def test_a_unit_pencil_is_its_own(self):
        """FOUND 77: the pencil itself, so its compiled table is shared."""
        pencil = two_qubit_pencil()
        assert pencil.unit == (pencil, 0, 0)
        assert pencil.unit[0] is pencil
        assert pencil.unit[0]._compiled is pencil._compiled

    def test_a_side_at_exponent_0_is_reused(self):
        """FOUND 77: on the 7-qubit benchmark pencil only A is rescaled, and
        B is reused as it is."""
        pencil = ising(7, 1)
        unit, e, b = pencil.unit
        assert (e, b) == (2, 0)
        assert unit.B is pencil.B and unit.A != pencil.A
        flipped = Pencil(pencil.B, pencil.A).unit
        assert flipped[0].A is pencil.B and flipped[1:] == (-2, 2)

    def test_a_side_with_no_terms_has_exponent_0(self):
        pencil = Pencil(PauliSum(2, [(0.0, "ZI")]), PauliSum(2, [(8.0, "II")]))
        assert len(pencil.A) == 0
        unit, e, b = pencil.unit
        assert len(unit.A) == 0 and unit.B.terms[0][0] == 0.5 and (e, b) == (-4, 4)
        result = run_fqge(pencil, basis_state(2, 0), FqgeConfig(line_search=True))
        assert result.status == "converged" and result.eigenvalue == 0.0

    @pytest.mark.parametrize("sides", [(3.0, 7.0), (1e5, 3e-4), (1e-9, 40.0), (0.3, 1e12)])
    @pytest.mark.parametrize(
        "problem", ["demo", (4, 1), (4, 2), (7, 1), (7, 2)], ids=str
    )
    def test_the_oracle_scales_back_bitwise(self, problem, sides):
        """``generalized_eig`` runs on the unit pencil and scales back: its
        eigenvalues (times 2^e), eta1 (times 2^b) and eigenvectors (times
        2^(-b/2)) are those of the pencil's own dense matrices, bit for
        bit: both sides' scalings are exact, and so is B's Cholesky factor
        under an even power of two."""
        pencil = scaled(two_qubit_pencil() if problem == "demo" else ising(*problem), *sides)
        got, own = generalized_eig(pencil), generalized_eig_dense(*pencil.dense())
        assert pencil.unit[0] != pencil
        assert got.eigenvalues.tobytes() == own.eigenvalues.tobytes()
        assert got.eta1 == own.eta1
        assert got.eigenvectors.tobytes() == own.eigenvectors.tobytes()


class TestFqgeOnAUnitPencil:
    """A pencil already at unit scale whose state lies near A's null space:
    A|1> = 1e-170 |0> on {A: -0.5 I - 0.5 Z + 1e-170 X, B: I}, so the
    squares of A psi and of the residual underflow although neither is 0."""

    pencil = Pencil(PauliSum(1, [(-0.5, "I"), (-0.5, "Z"), (1e-170, "X")]), PauliSum(1, [(1.0, "I")]))

    def test_the_fixed_step_does_not_read_converged(self):
        assert self.pencil.unit == (self.pencil, 0, 0)
        result = run_fqge(self.pencil, basis_state(1, 1), FqgeConfig(max_iters=3))
        assert result.status == "max_iters" and result.iterates[0].residual == 1.0

    def test_the_line_search_does_not_read_converged(self):
        """Its relative residual is 1, so it steps: the capped step along
        the direction 1e-170 long has LCU coefficients whose squares leave
        the float range, so C is taken over the largest of them, and the
        finite stepped state is the ground state |0> at -1."""
        cfg = FqgeConfig(line_search=True)
        with pytest.warns(UserWarning, match="capping"):
            result = run_fqge(self.pencil, basis_state(1, 1), cfg)
        assert result.status == "converged" and result.eigenvalue == -1.0
        step = result.iterates[0]
        assert abs(step.delta_used) == 5e181 and step.lcu_norm_c > 1e181
        assert np.isfinite(step.lcu_norm_c) and step.success_prob == 0.0

    def test_the_line_search_finds_the_direction(self):
        """The direction's norm 2e-170 is not read as 0, so the search
        steps toward |0>, the ground state at -1."""
        state = basis_state(1, 1)
        a_psi, b_psi, a, b = self.pencil.apply(state.amps)
        direction = StateVector(1, -(2.0 / b) * (a_psi - (a / b) * b_psi), normalized=False)
        with pytest.warns(UserWarning, match="capping"):
            delta, predicted = line_search(state, direction, self.pencil)
        assert delta != 0 and predicted == -1.0


def rows_scaled_back(result, e: int) -> list:
    """Each row's fields with the value times 2^e and the step times 2^-e."""
    return [
        (
            row.s,
            math.ldexp(row.value, e),
            row.residual,
            complex(math.ldexp(row.delta_used.real, -e), math.ldexp(row.delta_used.imag, -e)),
            row.success_prob,
            row.lcu_norm_c,
            row.lcu_terms,
            row.amps.tobytes(),
        )
        for row in result.iterates
    ]


class TestFqgeScaleCovariance:
    """A on 2^k and B on 2^m scale the eigenvalues by 2^(k-m) and the
    paper's step by 2^(m-k): with delta scaled so, every row is the same,
    bit for bit, once its value and step are scaled back."""

    @pytest.mark.parametrize("k, m", [(1, 0), (0, -3), (2, 5), (-4, 6), (-7, -2), (300, -301)])
    @pytest.mark.parametrize("line_search", [False, True], ids=["fixed-step", "line-search"])
    @pytest.mark.parametrize("noise", [0.0, 0.01], ids=["exact", "noisy"])
    def test_rows_scale_back_bitwise(self, k, m, line_search, noise):
        rng = np.random.default_rng(7)
        cases = [
            (two_qubit_pencil(), basis_state(2, 0)),
            (random_pencil(rng, 2)[0], random_state(rng, 2)),
            (ising(4, 1), basis_state(4, 3)),
        ]
        cfg = FqgeConfig(line_search=line_search, noise_sigma=noise, seed=3, max_iters=40)
        for pencil, initial in cases:
            own = run_fqge(pencil, initial, cfg)
            other = scaled(pencil, math.ldexp(1.0, k), math.ldexp(1.0, m))
            got = run_fqge(other, initial, replace(cfg, delta=math.ldexp(cfg.delta, m - k)))
            assert got.status == own.status
            assert rows_scaled_back(got, m - k) == rows_scaled_back(own, 0)
            assert got.eigenvalue == math.ldexp(own.eigenvalue, k - m)


def fam(a: float, b: float) -> Pencil:
    """{A: [a ZI, a XX], B: [b II, 0.5 b IZ]}, the pencil of the scale sweep."""
    return Pencil(PauliSum(2, [(a, "ZI"), (a, "XX")]), PauliSum(2, [(b, "II"), (0.5 * b, "IZ")]))


class TestFqgePublicViewsOnAUnitPencil:
    """FOUND 73: ``loss_state`` and ``build_lcu`` check <B> on the unit
    pencil, so a B at 1e-20 or 1e-300 is not refused by an absolute floor."""

    @pytest.mark.parametrize("c", [1e-20, 1e-300])
    def test_tiny_sides_give_the_values_at_unit_scale(self, c):
        state = basis_state(2, 0)
        want = loss_state(state, fam(1.0, 1.0))
        got = loss_state(state, fam(c, c))
        assert abs(got - want) <= 1e-15 * abs(want)
        want_lcu = build_lcu(state, fam(1.0, 1.0), 0.1, want)
        got_lcu = build_lcu(state, fam(c, c), 0.1, got)
        assert got_lcu.norm_c == want_lcu.norm_c and got_lcu.d == want_lcu.d
        np.testing.assert_allclose(got_lcu.coeffs, want_lcu.coeffs, rtol=1e-15, atol=0)

    @pytest.mark.parametrize("sides", [(3.0, 7.0), (1e5, 3e-4), (1e-9, 40.0), (0.3, 1e12)])
    def test_the_coefficients_are_the_pencil_s_own(self, sides):
        """On the unit pencil G has the step delta 2^e and the value F 2^-e;
        every coefficient and C equal those the pencil itself gives, which
        are ``g_dense``'s: the quotient at its own scale times the step."""
        pencil = scaled(ising(4, 1), *sides)
        state = basis_state(4, 3)
        dense_a, dense_b = pencil.dense()
        a = np.vdot(state.amps, dense_a @ state.amps).real
        b = np.vdot(state.amps, dense_b @ state.amps).real
        f = loss_state(state, pencil)
        assert abs(f - a / b) <= 1e-12 * abs(a / b)
        lcu = build_lcu(state, pencil, 0.05 + 0.01j, f)
        terms = zip(lcu.coeffs, lcu.strings)
        g = sum(c * dense_matrix(PauliSum(4, [(1.0, p.ops)])) for c, p in terms)
        want = np.eye(16) - 2 * (0.05 + 0.01j) * (dense_a - f * dense_b) / b
        assert np.max(np.abs(g - want)) <= 1e-12 * np.max(np.abs(want))


def spectrum_digest(levels) -> str:
    """The first 16 hex digits of the SHA-256 of every level's eigenvalue,
    B-normalized state and traces (losses, gradient norms and angles)."""
    h = hashlib.sha256()
    for lv in levels:
        h.update(np.float64(lv.eigenvalue).tobytes())
        h.update(lv.state.amps.tobytes())
        for trace in lv.traces:
            for part in (trace.losses, trace.grad_norms, trace.thetas):
                h.update(part.tobytes())
    return h.hexdigest()[:16]


DIGEST_MODES = {
    "adam": SolveConfig(restarts=2, opt=OptConfig(iters=30)),
    "gd": SolveConfig(restarts=2, opt=OptConfig(lr=0.05, iters=30, method="gd")),
    "shots": SolveConfig(restarts=2, shots=300, opt=OptConfig(iters=8)),
}

# ``solve_spectrum(scaled(pencil, *sides), 3, DIGEST_MODES[mode])`` as the
# pencil itself gave it before vqge ran on the unit pencil (recorded at
# a600e27 with numpy 2.4 and OpenBLAS 0.3.31 on x86-64; a BLAS kernel that
# rounds a product differently moves the digests of both trees at once, and
# they are then recorded again at that commit)
GOLDEN_DIGESTS = {
    ("demo", (3.0, 7.0), "adam"): "bf2025840fe7f717",
    ("demo", (3.0, 7.0), "gd"): "5fc6440aafc40b9f",
    ("demo", (3.0, 7.0), "shots"): "00e11e1910d5104e",
    ("demo", (100000.0, 0.0003), "adam"): "d8f3ee226dd55bd4",
    ("demo", (100000.0, 0.0003), "gd"): "577af7bb4ec59f9d",
    ("demo", (100000.0, 0.0003), "shots"): "7bf1b55606e49696",
    ("demo", (1e-09, 40.0), "adam"): "c9cbe3ef4452ca6e",
    ("demo", (1e-09, 40.0), "gd"): "0644bbfc46d09a4c",
    ("demo", (1e-09, 40.0), "shots"): "604e14dde618afe7",
    ("demo", (0.3, 1000000000000.0), "adam"): "1784e5b8e605b0ac",
    ("demo", (0.3, 1000000000000.0), "gd"): "c117f763bd8dff0d",
    ("demo", (0.3, 1000000000000.0), "shots"): "93d5c8d5e30e7b09",
    ("ising4", (3.0, 7.0), "adam"): "791b2bf79fa703d8",
    ("ising4", (3.0, 7.0), "gd"): "8737aa6dd76436a7",
    ("ising4", (3.0, 7.0), "shots"): "9f1b0110659da667",
    ("ising4", (100000.0, 0.0003), "adam"): "c5584211d359eeaf",
    ("ising4", (100000.0, 0.0003), "gd"): "ffd9cc2a1fe24358",
    ("ising4", (100000.0, 0.0003), "shots"): "cac11cb448db5c30",
    ("ising4", (1e-09, 40.0), "adam"): "27f7f7ad0036934c",
    ("ising4", (1e-09, 40.0), "gd"): "dc5b43a9ce580cd9",
    ("ising4", (1e-09, 40.0), "shots"): "f6c11c4d22087dce",
    ("ising4", (0.3, 1000000000000.0), "adam"): "adcf9ee16827c5a9",
    ("ising4", (0.3, 1000000000000.0), "gd"): "e84675b0be9195bb",
    ("ising4", (0.3, 1000000000000.0), "shots"): "4b6030b311fc8c25",
}


class TestVqgeOnAUnitPencil:
    @pytest.mark.parametrize("key", list(GOLDEN_DIGESTS), ids=lambda key: "-".join(map(str, key)))
    def test_golden_digests(self, key):
        """The eigenvalues, trace losses, gradient norms and angles and the
        bytes of the B-normalized states of exact Adam, exact gd and shot
        mode are those of the pencil at its own scale, bit for bit."""
        name, sides, mode = key
        base = two_qubit_pencil() if name == "demo" else ising(4, 1)
        pencil = scaled(base, *sides)
        assert pencil.unit[0] != pencil
        levels = solve_spectrum(pencil, 3, DIGEST_MODES[mode])
        assert spectrum_digest(levels) == GOLDEN_DIGESTS[key]

    @pytest.mark.parametrize("k, m", [(2, 0), (0, -4), (6, 2), (-8, 10), (300, -300)])
    @pytest.mark.parametrize("shots", [0, 300], ids=["exact", "shots"])
    def test_gd_levels_scale_back_bitwise(self, k, m, shots):
        """A on 2^k and B on 2^m (both even), gradient descent with its
        step lr 2^(m-k): every level, loss and gradient norm is 2^(k-m)
        times the pencil's, every angle is the same and every B-normalized
        state is 2^(-m/2) times the pencil's, bit for bit.  (Adam's epsilon
        is no option, so two pencils a scale apart descend differently
        under Adam: ROADMAP item 3.)"""
        opt = OptConfig(lr=0.05, iters=20, method="gd")
        config = SolveConfig(restarts=2, shots=shots, opt=opt)
        moved = replace(config, opt=replace(opt, lr=math.ldexp(opt.lr, m - k)))
        for pencil in (two_qubit_pencil(), ising(4, 1)):
            own = solve_spectrum(pencil, 3, config)
            got = solve_spectrum(scaled(pencil, 2.0**k, 2.0**m), 3, moved)
            for lv, ref in zip(got, own, strict=True):
                assert lv.eigenvalue == math.ldexp(ref.eigenvalue, k - m)
                assert lv.state.amps.tobytes() == (ref.state.amps * 2.0 ** (-m // 2)).tobytes()
                for trace, want in zip(lv.traces, ref.traces, strict=True):
                    assert trace.losses.tobytes() == np.ldexp(want.losses, k - m).tobytes()
                    assert trace.grad_norms.tobytes() == np.ldexp(want.grad_norms, k - m).tobytes()
                    assert trace.thetas.tobytes() == want.thetas.tobytes()
