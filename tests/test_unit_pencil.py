"""``Pencil.unit``, the pencil with each side divided by an even power of
two, and the solvers that run on it: the exponents and the range they
bring each side into, the dense oracle of the unit pencil scaled back
against the pencil's own bit for bit, and ``run_fqge`` giving the same rows,
bit for bit once scaled back, on a pencil and on copies whose sides are
multiplied by powers of two."""

import math
from dataclasses import replace

import numpy as np
import pytest

from conftest import BENCH_PROBLEMS, line_search, random_pencil, random_state, two_qubit_pencil
from geig.cli import parse_problem
from geig.fqge import FqgeConfig, run_fqge
from geig.pauli import PauliSum
from geig.pencil import Pencil
from geig.reference import generalized_eig
from geig.statevector import StateVector, basis_state


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
        pencil = two_qubit_pencil()
        assert pencil.unit == (pencil, 0, 0)

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
        """The eigenvalues of the unit pencil times 2^e, its eta1 times 2^b
        and its eigenvectors times 2^(-b/2) are the pencil's own, bit for
        bit: both sides' scalings are exact, and so is B's Cholesky factor
        under an even power of two."""
        pencil = scaled(two_qubit_pencil() if problem == "demo" else ising(*problem), *sides)
        unit, e, b = pencil.unit
        own, got = generalized_eig(pencil), generalized_eig(unit)
        np.testing.assert_array_equal(own.eigenvalues, np.ldexp(got.eigenvalues, e))
        assert own.eta1 == math.ldexp(got.eta1, b)
        np.testing.assert_array_equal(own.eigenvectors, got.eigenvectors * math.ldexp(1.0, -b // 2))


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
        the direction 1e-170 long is past the LCU norm's float range, which
        ends the run by name."""
        cfg = FqgeConfig(line_search=True)
        with pytest.warns(UserWarning, match="capping"):
            with pytest.raises(ValueError, match=r"^step 1: the step overflows at \|delta\| = 5\.000e\+181$"):
                run_fqge(self.pencil, basis_state(1, 1), cfg)

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
