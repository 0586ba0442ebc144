"""``decompose`` against the per-string loop it replaced (kept here as
``loop_decompose``): the same strings in the same order, every coefficient
within 1e-12 max|m|, the same non-real-coefficient error, and a memory peak
of at most the loop's plus one input-sized array."""

import tracemalloc

import numpy as np
import pytest

from conftest import BENCH_PROBLEMS, random_hermitian
from geig.cli import parse_problem
from geig.pauli import PauliString, PauliSum, _phase, decompose, dense_matrix


def loop_decompose(m, tol=1e-10):
    """decompose as it was past its input checks: one PauliString and one
    phase vector per (x, z) pair, each trace summed by ``np.sum``."""
    m = np.asarray(m, dtype=np.complex128)
    dim = m.shape[0]
    n = dim.bit_length() - 1
    idx = np.arange(dim, dtype=np.int64)
    terms = []
    for x_mask in range(dim):
        src = idx ^ x_mask
        col = m[src, idx]
        for z_mask in range(dim):
            p = PauliString(n, x_mask, z_mask)
            # Tr[P m] = sum_i phase(i^x) m[i^x, i] with P|j> = phase(j)|j^x>
            tr = np.sum(_phase(p, src) * col)
            coeff = tr / dim
            if abs(coeff.imag) > 1e-10:
                raise ValueError(
                    f"non-real coefficient {coeff} for {p.ops}; input not Hermitian"
                )
            if abs(coeff.real) > tol:
                terms.append((coeff.real, p))
    return PauliSum(n, terms)


def assert_same_terms(got, want, m):
    assert [p.ops for p in got.strings] == [p.ops for p in want.strings]
    err = np.max(np.abs(got.coeffs - want.coeffs), initial=0.0)
    assert err <= 1e-12 * np.max(np.abs(m))


@pytest.mark.parametrize("complex_entries", [False, True], ids=["real", "complex"])
@pytest.mark.parametrize("n", range(1, 7))
def test_random_hermitian_matches_loop(n, complex_entries):
    rng = np.random.default_rng([31, n, complex_entries])
    m = random_hermitian(rng, 2**n)
    if not complex_entries:
        m = m.real
    for tol in (1e-10, 0.05):
        assert_same_terms(decompose(m, tol=tol), loop_decompose(m, tol=tol), m)


@pytest.mark.parametrize("n", range(2, 9))
def test_ising_sides_read_back(n):
    """The benchmark's seeded Ising pencil: each dense side decomposes to
    the pencil's own terms, and to the loop's where the loop is cheap."""
    pencil = parse_problem(BENCH_PROBLEMS.ising_problem(n, 1))
    for side in (pencil.A, pencil.B):
        m = dense_matrix(side)
        got = decompose(m)
        assert_same_terms(got, side, m)
        if n <= 6:
            assert_same_terms(got, loop_decompose(m), m)


def outcome(call):
    """The terms a decompose call returns, or the message it raises."""
    try:
        return [(p.ops, c) for c, p in call().terms]
    except ValueError as err:
        return str(err)


@pytest.mark.parametrize("n", range(1, 5))
def test_non_real_coefficient_error_matches_loop(n):
    """A Hermitian part plus i times a sparse Hermitian part, loose enough
    for tol = 1.  Dyadic entries keep every trace exact in both summation
    orders, so the named string and the printed coefficient must agree."""
    rng = np.random.default_rng([37, n])
    dim = 2**n
    raised = 0
    for _ in range(20):
        a = rng.integers(-4, 5, size=(4, dim, dim)) / 8
        h = a[0] + 1j * a[1]
        k = (a[2] + 1j * a[3]) * (rng.random((dim, dim)) < 0.3)
        m = (h + h.conj().T) / 2 + 0.5j * (k + k.conj().T) / 2
        want = outcome(lambda: loop_decompose(m, tol=1.0))
        assert outcome(lambda: decompose(m, tol=1.0)) == want
        raised += isinstance(want, str)
    assert raised >= 10


def test_peak_memory_at_eight_qubits():
    """The loop peaked at 2.1 input-sized arrays past the input (the
    Hermitian check); the transform may add at most one more."""
    m = dense_matrix(parse_problem(BENCH_PROBLEMS.ising_problem(8, 1)).A)
    tracemalloc.start()
    try:
        decompose(m)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 3.1 * m.nbytes
