import functools
import json
import os
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (
    BENCH_PROBLEMS,
    BLOCK_QUADS,
    DEGENERATE_GROUND,
    DENSE_B,
    quad_roots,
    random_hermitian,
    random_pd,
    random_pencil,
    refused_without_allocating,
    two_qubit_pencil,
)
from geig import reference
from geig.cli import main, parse_problem
from geig.pauli import DEFAULT_DENSE_CAP, PauliSum, dense_matrix
from geig.reference import (
    count_distinct,
    distinct_values,
    generalized_eig,
    generalized_eig_dense,
    ground_multiplicity,
)
from geig.vqge import Pencil


def hermitian_eig(m):
    """Eigenvalues (ascending) and orthonormal eigenvectors of a Hermitian
    matrix: the oracle on the pencil (m, I)."""
    ref = generalized_eig_dense(m, np.eye(len(m)))
    return ref.eigenvalues, ref.eigenvectors


def _ring_pencil(n):
    """Translation- and reflection-invariant ring pencil: exact eigenvalue
    multiplicities from symmetry, as Pauli pencils have."""
    ring = [(q, (q + 1) % n) for q in range(n)]

    def string(sites, op):
        return "".join(op if q in sites else "I" for q in range(n))

    a = [(1.0, string(pair, "Z")) for pair in ring] + [(0.7, string((q,), "X")) for q in range(n)]
    b = [(2.0, "I" * n)] + [(0.2, string(pair, "X")) for pair in ring]
    return Pencil(PauliSum(n, a), PauliSum(n, b))


def _per_bracket_bisect(d, e, indices):
    """The bisection ``reference._bisect`` replaced, kept to check it
    against: each eigenvalue probes its own bracket, closed or not, at
    ``512 // len(indices)`` points per sweep, and the Sturm count
    accumulates row by row."""
    indices = np.asarray(indices, dtype=np.int64)
    e2 = e * e
    pivmin = reference._TINY * max(1.0, float(np.max(e2, initial=0.0)))

    def sturm_count(x):
        count = np.zeros(x.shape, dtype=np.int64)
        q = d[0] - x
        for i in range(d.size):
            if i:
                q = (d[i] - x) - e2[i - 1] / q
            q = np.copysign(np.maximum(np.abs(q), pivmin), q)
            count += q < 0
        return count

    bound = 2.0 * reference._gershgorin(d, e)
    lo = np.full(indices.shape, reference._to_key(-bound))
    hi = np.full(indices.shape, reference._to_key(bound))
    points = max(1, 512 // max(indices.size, 1))
    offsets = np.arange(1, points + 1, dtype=np.uint64)
    rows = np.arange(indices.size)
    while True:
        width = hi.view(np.uint64) - lo.view(np.uint64)
        if not np.any(width > 1):
            return reference._from_key(lo)
        step = np.maximum(width // np.uint64(points + 1), np.uint64(1))
        probe = (lo.view(np.uint64)[:, None] + step[:, None] * offsets).view(np.int64)
        probe = np.minimum(probe, (hi - 1)[:, None])
        counts = sturm_count(reference._from_key(probe).ravel())
        below = np.sum(counts.reshape(probe.shape) <= indices[:, None], axis=1)
        lo = np.where(below > 0, probe[rows, np.maximum(below - 1, 0)], lo)
        hi = np.where(below < points, probe[rows, np.minimum(below, points - 1)], hi)


def _kron_z():
    """kron(Z, I_64) in a random orthogonal basis: two eigenvalues of
    multiplicity 64 each."""
    basis = np.linalg.qr(np.random.default_rng(41).normal(size=(128, 128)))[0]
    m = basis @ np.kron(np.diag([1.0, -1.0]), np.eye(64)) @ basis.T
    return (m + m.T) / 2


@functools.cache
def _tridiagonals() -> dict:
    """label -> (d, e): the reduced matrix and B of the benchmark's Ising
    pencils, and tridiagonals with ties, zero couplings and extreme
    scales."""
    cases = {}
    for n in range(2, 9):
        pencil = parse_problem(BENCH_PROBLEMS.ising_problem(n, 1))
        for side, tri in (
            ("reduced", generalized_eig(pencil)._reduced),
            ("B", reference._Tridiagonal(dense_matrix(pencil.B))),
        ):
            cases[f"ising{n}-{side}"] = (tri.d, tri.e)
    cases["diagonal"] = (np.array([3.0, -1e-300, 0.0, -2.5, 0.0, 3.0]), np.zeros(5))
    cases["1x1"] = (np.array([-0.75]), np.zeros(0))
    cases["zero-coupling"] = (np.array([1.0, 2.0, 2.0, -4.0, 0.5]), np.array([0.5, 0.0, 1.0, 0.0]))
    kron_z = reference._Tridiagonal(_kron_z())
    cases["kron-z"] = (kron_z.d, kron_z.e)
    ising_a = dense_matrix(parse_problem(BENCH_PROBLEMS.ising_problem(6, 1)).A).real
    for exponent in (-900, 900):
        scaled = reference._Tridiagonal(np.ldexp(ising_a, exponent))
        cases[f"ising6-matrix-2^{exponent}"] = (scaled.d, scaled.e)
    # T itself only up to 2^500, where e * e is still finite; the oracle
    # bisects the unit-scale T of a rescaled matrix
    ising = reference._Tridiagonal(ising_a)
    for exponent in (-900, -520, 500):
        for label, tri in (("kron-z", kron_z), ("ising6", ising)):
            cases[f"{label}-T-2^{exponent}"] = (np.ldexp(tri.d, exponent), np.ldexp(tri.e, exponent))
    return cases


class TestSharedBracketBisection:
    """``_bisect`` gives, bit for bit, what the per-bracket bisection it
    replaced gave: each eigenvalue is the largest double whose Sturm count
    is at most its index, however the brackets are probed."""

    @pytest.mark.parametrize("label", list(_tridiagonals()))
    def test_equals_per_bracket_bisection(self, label):
        d, e = _tridiagonals()[label]
        for indices in (np.arange(d.size), [0]):
            got = reference._bisect(d, e, indices)
            want = _per_bracket_bisect(d, e, indices)
            assert got.tobytes() == want.tobytes()

    def test_tied_eigenvalues_share_probes(self, monkeypatch):
        """The 128 eigenvalues of kron(Z, I_64) fall into two ties, which
        split each sweep's points between them: 64 key bits take a few
        sweeps, where 128 separate brackets would get 6 points each and
        take over 20."""
        d, e = _tridiagonals()["kron-z"]
        sizes = []
        count = reference._sturm_count

        def counting(d, e2, x, pivmin, buf):
            sizes.append(x.size)
            return count(d, e2, x, pivmin, buf)

        monkeypatch.setattr(reference, "_sturm_count", counting)
        reference._bisect(d, e, np.arange(d.size))
        assert max(sizes) <= reference._SWEEP_POINTS
        assert len(sizes) <= 12


# d and e of a few integers, so that eigenvalues tie and couplings are exactly zero
_ENTRIES = st.one_of(st.integers(-3, 3).map(float), st.floats(-4.0, 4.0))
_COUPLINGS = st.one_of(st.sampled_from([0.0, 0.5, 1.0]), st.floats(0.0, 4.0))


@st.composite
def _drawn_tridiagonals(draw):
    """(d, e) of order 1 to 12 at 2^-900 to 2^500, where e * e is still
    finite."""
    size = draw(st.integers(1, 12))
    d = np.array(draw(st.lists(_ENTRIES, min_size=size, max_size=size)))
    e = np.array(draw(st.lists(_COUPLINGS, min_size=size - 1, max_size=size - 1)))
    exponent = draw(st.integers(-900, 500))
    return np.ldexp(d, exponent), np.ldexp(e, exponent)


@st.composite
def _binade_tridiagonals(draw):
    """(d, e) and ascending indices of a tridiagonal whose eigenvalues span
    up to 12 decades: a geometric spectrum of drawn signs from 1 down to
    1e-12 or above, either as the graded tridiagonal of d = that spectrum
    and e_i a drawn fraction of sqrt(|d_i d_i+1|), or as the reduction of
    Q diag(spectrum) Q^T for a random orthogonal Q.  The block is repeated
    1 to 3 times with zero couplings between the copies, so that each
    eigenvalue of a repeated block repeats exactly."""
    size = draw(st.integers(2, 12))
    signs = np.array(draw(st.lists(st.sampled_from([-1.0, 1.0]), min_size=size, max_size=size)))
    values = signs * np.geomspace(1.0, 10.0 ** -draw(st.floats(1.0, 12.0)), size)
    if draw(st.booleans()):
        d = values
        e = draw(st.floats(0.0, 0.5)) * np.sqrt(np.abs(values[1:] * values[:-1]))
    else:
        rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
        q = np.linalg.qr(rng.normal(size=(size, size)))[0]
        m = q @ np.diag(values) @ q.T
        tri = reference._Tridiagonal((m + m.T) / 2)
        d, e = np.ldexp(tri.d, tri.exponent), np.ldexp(tri.e, tri.exponent)
    copies = draw(st.integers(1, 3))
    d = np.tile(d, copies)
    e = np.concatenate([np.append(e, 0.0)] * copies)[:-1]
    picked = draw(st.lists(st.integers(0, d.size - 1), min_size=1, unique=True))
    return d, e, np.sort(picked)


def _poisoned(kind):
    """A stand-in for ``np.linalg.eigvalsh`` whose values are wrong by
    ``kind``, or which fails."""
    true = np.linalg.eigvalsh

    def eigvalsh(t):
        if kind == "fails":
            raise np.linalg.LinAlgError("Eigenvalues did not converge")
        values = true(t)
        norm = np.max(np.abs(values))
        return {
            "shifted": values + 1e-3 * norm,
            "rolled": np.roll(values, 1),
            "reversed": values[::-1].copy(),
            "nan": np.full_like(values, np.nan),
            "inf-half": np.where(np.arange(values.size) % 2, np.inf, values),
        }[kind]

    return eigvalsh


def _sturm_sizes(monkeypatch) -> list:
    """The probe count of every later ``reference._sturm_count`` call, each
    checked to fit its pivot buffer."""
    sizes = []
    count = reference._sturm_count

    def counting(d, e2, x, pivmin, buf):
        assert buf.size >= d.size * x.size
        sizes.append(x.size)
        return count(d, e2, x, pivmin, buf)

    monkeypatch.setattr(reference, "_sturm_count", counting)
    return sizes


# Sturm-count calls of ``_bisect`` on the reduced T of ``ising_problem(n, seed)``,
# seeds 1 / 2 / 3, with three rings of hint probes and shares set by each
# bracket's width (one ring and even shares took 3 3 3, 3 3 3, 5 5 5, 5 4 4,
# 6 6 6, 7 7 7, 10 10 10, 17 17 17 and 19 19 19)
_ISING_STURM_CALLS = {
    2: (2, 3, 3),
    3: (2, 2, 2),
    4: (3, 3, 3),
    5: (3, 3, 3),
    6: (4, 4, 4),
    7: (4, 4, 4),
    8: (7, 7, 7),
    9: (11, 11, 11),
    10: (16, 16, 16),
}


class TestSeededBisection:
    """``_bisect`` starts every index from the Gershgorin bracket, and its
    first sweep counts at LAPACK's eigenvalues of T, each moved a little
    down and up.  A probe narrows whichever bracket it falls in, and the
    computed count is monotone, so it ends on the double the per-bracket
    bisection from the Gershgorin bracket ends on, whatever LAPACK
    proposes."""

    @settings(max_examples=300, deadline=None)
    @given(_drawn_tridiagonals())
    def test_equals_per_bracket_bisection(self, tridiagonal):
        d, e = tridiagonal
        indices = np.arange(d.size)
        want = _per_bracket_bisect(d, e, indices)
        assert reference._bisect(d, e, indices).tobytes() == want.tobytes()

    @settings(max_examples=200, deadline=None)
    @given(_binade_tridiagonals())
    def test_equals_per_bracket_bisection_across_binades(self, tridiagonal):
        """Where the eigenvalues span many binades the open brackets differ
        most in key width, so the shares of one sweep differ most from an
        even split; the values do not move, for all indices or some."""
        d, e, picked = tridiagonal
        for indices in (np.arange(d.size), picked):
            want = _per_bracket_bisect(d, e, indices)
            assert reference._bisect(d, e, indices).tobytes() == want.tobytes()

    @pytest.mark.parametrize("kind", ["shifted", "rolled", "reversed", "nan", "inf-half", "fails"])
    @pytest.mark.parametrize("label", ["ising5-reduced", "diagonal", "zero-coupling", "kron-z"])
    def test_poisoned_hints_give_the_same_bytes(self, monkeypatch, label, kind):
        d, e = _tridiagonals()[label]
        indices = np.arange(d.size)
        want = reference._bisect(d, e, indices)
        calls = []
        poisoned = _poisoned(kind)

        def counting(t):
            calls.append(t.shape)
            return poisoned(t)

        monkeypatch.setattr(np.linalg, "eigvalsh", counting)
        assert reference._bisect(d, e, indices).tobytes() == want.tobytes()
        assert calls == [(d.size, d.size)]

    @pytest.mark.parametrize("kind", ["rolled", "reversed"])
    @pytest.mark.parametrize("n", [5, 7])
    def test_mis_paired_hints_cost_no_sweep(self, monkeypatch, n, kind):
        """LAPACK's values paired with the wrong indices make the same first
        row as the true ones, so they take no more Sturm counts."""
        d, e = _tridiagonals()[f"ising{n}-reduced"]
        indices = np.arange(d.size)
        calls = _sturm_sizes(monkeypatch)
        want = reference._bisect(d, e, indices)
        true_calls = len(calls)
        calls.clear()
        monkeypatch.setattr(np.linalg, "eigvalsh", _poisoned(kind))
        assert reference._bisect(d, e, indices).tobytes() == want.tobytes()
        assert len(calls) <= true_calls

    def test_a_long_first_row_is_counted_in_parts(self, monkeypatch):
        """400 indices give 2400 probes in the first row (two per ring and
        index), more than the 768 columns of the pivot buffer: the row is
        counted in parts of at most the buffer's width, and the values keep
        their bytes."""
        rng = np.random.default_rng(400)
        d = rng.integers(-3, 4, 400).astype(float)
        e = np.abs(rng.normal(size=399))
        e[rng.uniform(size=399) < 0.25] = 0.0
        indices = np.arange(d.size)
        sizes = _sturm_sizes(monkeypatch)
        got = reference._bisect(d, e, indices)
        first, width = 2 * reference._HINT_RINGS * d.size, reference._SWEEP_POINTS
        parts = [width] * (first // width) + [first % width]
        assert sizes[: len(parts)] == parts
        assert max(sizes) <= reference._SWEEP_POINTS
        assert got.tobytes() == _per_bracket_bisect(d, e, indices).tobytes()

    @pytest.mark.parametrize("n", list(_ISING_STURM_CALLS))
    def test_sturm_calls_on_the_ising_pencils(self, monkeypatch, n):
        """The Sturm counts of all eigenvalues of the reduced T of the
        benchmark's Ising pencils (seeds 1-3) take at most the calls
        recorded in ``_ISING_STURM_CALLS``."""
        reduced = [
            generalized_eig(parse_problem(BENCH_PROBLEMS.ising_problem(n, seed)))._reduced
            for seed in (1, 2, 3)
        ]
        calls = _sturm_sizes(monkeypatch)
        for seed, (tri, most) in enumerate(zip(reduced, _ISING_STURM_CALLS[n]), start=1):
            calls.clear()
            reference._bisect(tri.d, tri.e, np.arange(tri.d.size))
            assert len(calls) <= most, seed


def _clamped_sturm_count(d, e2, x, pivmin):
    """The Sturm count ``reference._sturm_count`` replaced, kept to check it
    against: every pivot of every row is clamped to magnitude ``pivmin``."""
    q = np.subtract.outer(d, x)
    t = np.empty_like(x)
    for i in range(d.size):
        row = q[i]
        if i:
            np.divide(e2[i - 1], q[i - 1], out=t)
            row -= t
        np.abs(row, out=t)
        np.maximum(t, pivmin, out=t)
        np.copysign(t, row, out=row)
    return np.count_nonzero(q < 0, axis=0)


class TestSturmCount:
    """The unclamped fast pass with its clamped fallback counts exactly as
    the clamped rule.  A ``RuntimeWarning`` fails a test here (pytest
    config), so these also show that the unclamped divide warns nothing."""

    @staticmethod
    def _probes(d, e):
        """Random doubles across the Gershgorin interval, every d[i], and
        every eigenvalue with its neighbouring doubles."""
        bound = 2.0 * reference._gershgorin(d, e)
        values = reference._bisect(d, e, np.arange(d.size))
        rng = np.random.default_rng(d.size)
        return np.concatenate(
            [
                rng.uniform(-bound, bound, 64),
                d,
                values,
                np.nextafter(values, -np.inf),
                np.nextafter(values, np.inf),
            ]
        )

    @pytest.mark.parametrize("label", list(_tridiagonals()))
    def test_equals_clamped_rule(self, label):
        d, e = _tridiagonals()[label]
        e2 = e * e
        pivmin = reference._TINY * max(1.0, float(np.max(e2, initial=0.0)))
        x = self._probes(d, e)
        got = reference._sturm_count(d, e2, x, pivmin, np.empty(d.size * x.size))
        assert np.array_equal(got, _clamped_sturm_count(d, e2, x, pivmin))

    @pytest.mark.parametrize("label, falls_back", [("diagonal", True), ("ising7-reduced", False)])
    def test_each_path_runs(self, monkeypatch, label, falls_back):
        """The zero couplings of ``diagonal`` give zero pivots, so some sweep
        takes the clamped fallback; no sweep of the 7-qubit benchmark
        pencil does."""
        calls = []
        clamped = reference._clamped_pivots

        def counting(*args):
            calls.append(1)
            clamped(*args)

        monkeypatch.setattr(reference, "_clamped_pivots", counting)
        d, e = _tridiagonals()[label]
        reference._bisect(d, e, np.arange(d.size))
        assert (len(calls) > 0) == falls_back

    @pytest.mark.parametrize(
        "d, e, falls_back",
        [
            ([1.0, 1.0], [1.0], False),  # last pivot 1 - 1 / 1 = +0.0 at x = 0
            ([1.0, -0.0], [0.0], True),  # last pivot -0.0 - 0.0 = -0.0 at x = 0
            ([-0.0], [], True),
            ([0.0, 1.0], [1.0], True),  # a zero pivot above the last row
        ],
    )
    def test_a_zero_last_pivot(self, monkeypatch, d, e, falls_back):
        """A zero last pivot feeds no later row: +0.0 counts as the clamped
        rule without a second pass, and -0.0, which the clamped rule counts
        as negative, takes the fallback."""
        calls = []
        clamped = reference._clamped_pivots

        def counting(*args):
            calls.append(1)
            clamped(*args)

        monkeypatch.setattr(reference, "_clamped_pivots", counting)
        d, e2 = np.array(d), np.square(e)
        pivmin = reference._TINY * max(1.0, float(np.max(e2, initial=0.0)))
        x = np.array([0.0])
        got = reference._sturm_count(d, e2, x, pivmin, np.empty(d.size))
        assert np.array_equal(got, _clamped_sturm_count(d, e2, x, pivmin))
        assert (len(calls) > 0) == falls_back

    def test_a_reused_buffer_counts_as_the_clamped_rule(self):
        """``_bisect`` passes one pivot buffer to every sweep: whatever an
        earlier, larger sweep left in it, a count equals the clamped rule's."""
        d, e = _tridiagonals()["diagonal"]
        e2 = e * e
        pivmin = reference._TINY * max(1.0, float(np.max(e2, initial=0.0)))
        buf = np.full(d.size * 200, np.nan)
        for x in (self._probes(d, e), np.array([0.0, 3.0, -1e-300]), self._probes(d, e)[:7]):
            got = reference._sturm_count(d, e2, x, pivmin, buf)
            assert got.dtype == np.int16
            assert np.array_equal(got, _clamped_sturm_count(d, e2, x, pivmin))


def _seeded_tridiagonals(scale: float) -> list:
    """(d, e) of sizes 1..64 from a seeded generator, about a quarter of the
    couplings exactly zero, with d at ``scale`` and e at up to 1e150, where
    e * e is still finite (the oracle bisects the unit-scale T of a
    rescaled matrix)."""
    rng = np.random.default_rng(64)
    cases = []
    for size in range(1, 65):
        d = rng.normal(size=size) * scale
        e = np.abs(rng.normal(size=size - 1)) * min(scale, 1e150)
        e[rng.uniform(size=size - 1) < 0.25] = 0.0
        cases.append((d, e))
    return cases


class TestOnePointBisection:
    """``_bisect_smallest``, which ``_Tridiagonal.smallest`` (eta1) runs,
    gives bit for bit the double of the vectorized ``_bisect(d, e, [0])``
    and of the per-bracket bisection before it."""

    @pytest.mark.parametrize("label", list(_tridiagonals()))
    def test_equals_vectorized_bisection(self, label):
        d, e = _tridiagonals()[label]
        got = np.float64(reference._bisect_smallest(d, e))
        assert got.tobytes() == reference._bisect(d, e, [0]).tobytes()
        assert got.tobytes() == _per_bracket_bisect(d, e, [0]).tobytes()

    @pytest.mark.parametrize("scale", [1e-300, 1e-150, 1.0, 1e150, 1e300])
    def test_seeded_tridiagonals(self, scale):
        for d, e in _seeded_tridiagonals(scale):
            got = np.float64(reference._bisect_smallest(d, e))
            assert got.tobytes() == reference._bisect(d, e, [0]).tobytes(), (d.size, scale)

    def test_diagonal_t(self):
        """A diagonal T meets zero pivots at its own entries, which the
        scalar pass clamps; the sweeps' fallback agrees."""
        d = np.array([2.0, -1.0, -1.0, 0.0, 5.0])
        e = np.zeros(4)
        assert reference._bisect_smallest(d, e) == -1.0 == reference._bisect(d, e, [0])[0]

    def test_eta1_reads_it(self, monkeypatch):
        tri = reference._Tridiagonal(DENSE_B)
        calls = []
        smallest = reference._bisect_smallest

        def counting(d, e):
            calls.append(1)
            return smallest(d, e)

        monkeypatch.setattr(reference, "_bisect_smallest", counting)
        want = np.ldexp(reference._bisect(tri.d, tri.e, [0])[0], tri.exponent)
        assert tri.smallest() == want and calls == [1]


def _relative(got, want) -> float:
    return float(np.max(np.abs(got - want)) / np.max(np.abs(want)))


class TestBlockedFactor:
    """The blocked Cholesky factor and its triangular solves against
    numpy's ``cholesky`` and ``solve``, across panel edges."""

    @pytest.mark.parametrize("dim", [1, 5, 31, 32, 33, 64, 100])
    @pytest.mark.parametrize("kind", ["real", "complex"])
    def test_agrees_with_numpy(self, dim, kind):
        rng = np.random.default_rng(dim)
        b = random_pd(rng, dim)
        c = rng.normal(size=(dim, 6)) + 1j * rng.normal(size=(dim, 6))
        if kind == "real":
            b, c = b.real, c.real
        factor = reference._Factor(b)
        low = np.linalg.cholesky(b)
        assert factor.low.dtype == b.dtype
        assert np.array_equal(factor.low, np.tril(factor.low))
        assert _relative(factor.low, low) <= 1e-13
        assert _relative(factor.forward(c), np.linalg.solve(low, c)) <= 1e-13
        assert _relative(factor.back(c), np.linalg.solve(low.conj().T, c)) <= 1e-13

    def test_indefinite_b_names_a_row_in_a_later_panel(self):
        """B = L D L^T with D = diag(1, ..., -1 at row 70, ..., 1): every
        pivot before row 70 is positive, and row 70 lies in the third panel."""
        rng = np.random.default_rng(70)
        low = np.tril(rng.normal(size=(100, 100)), -1) + np.diag(rng.uniform(1.0, 2.0, 100))
        signs = np.ones(100)
        signs[70] = -1.0
        b = (low * signs) @ low.T
        assert 70 // reference._PANEL == 2
        with pytest.raises(ValueError, match=r"^B is not positive definite \(pivot -\S+ at row 70\)$"):
            generalized_eig_dense(np.eye(100), b)


class TestSymmetrizationAtTheFloatLimit:
    """L^-1 A L^-H is symmetrized as half plus half, so entries near the
    float limit do not overflow where the spectrum is finite."""

    def test_matches_eigvalsh(self):
        z, x = np.diag([1.0, -1.0]), np.array([[0.0, 1.0], [1.0, 0.0]])
        a = 1.5e308 * np.kron(z, np.eye(2)) + np.kron(x, x)
        b = 1.5 * np.eye(4)
        ref = generalized_eig_dense(a, b)
        want = np.linalg.eigvalsh(a / 1.5)
        assert np.all(np.abs(ref.eigenvalues - want) <= 1e-12 * np.abs(want))
        assert ref.eta1 == 1.5

    def test_cli_reference(self, tmp_path, capsys):
        path = tmp_path / "limit.json"
        path.write_text(
            json.dumps(
                {
                    "n": 2,
                    "A": [{"coeff": 1.5e308, "ops": "ZI"}, {"coeff": 1.0, "ops": "XX"}],
                    "B": [{"coeff": 1.5, "ops": "II"}],
                }
            )
        )
        assert main(["reference", str(path)]) == 0
        captured = capsys.readouterr()
        assert captured.err == ""
        summary = json.loads(captured.out)
        want = np.array([-1.0, -1.0, 1.0, 1.0]) * 1e308
        assert np.all(np.abs(np.array(summary["eigenvalues"]) - want) <= 1e-12 * 1e308)
        assert summary["distinct"] == 2


class TestDiagonalPencilRunsSilently:
    """``geig reference`` on a diagonal pencil, whose T has zero couplings:
    the seeds are its exact eigenvalues and the Sturm probes meet zero
    pivots, so sweeps take the clamped fallback.  Run as a subprocess
    without ``PYTHONWARNINGS``, so that any numpy warning would reach
    stderr."""

    def test_clamped_sturm_fallback_runs_silently(self, tmp_path):
        problem = {
            "n": 3,
            "A": [
                {"coeff": 1, "ops": "ZII"},
                {"coeff": 0.5, "ops": "IZI"},
                {"coeff": 0.25, "ops": "IIZ"},
            ],
            "B": [{"coeff": 2, "ops": "III"}],
        }
        path = tmp_path / "reducible.json"
        path.write_text(json.dumps(problem))
        env = {k: v for k, v in os.environ.items() if k != "PYTHONWARNINGS"}
        proc = subprocess.run(
            [sys.executable, "-m", "geig", "reference", str(path)],
            capture_output=True,
            text=True,
            timeout=120,
            env=env,
        )
        assert proc.returncode == 0 and proc.stderr == ""
        summary = json.loads(proc.stdout)
        want = BENCH_PROBLEMS.dense_spectrum(problem, with_eta1=True)
        assert len(summary["eigenvalues"]) == 8
        assert np.max(np.abs(np.subtract(summary["eigenvalues"], want.eigenvalues))) <= 1e-12
        assert abs(summary["eta1"] - want.eta1) <= 1e-12


class TestTridiagonalOracle:
    """Householder tridiagonalization, Sturm bisection and inverse
    iteration against numpy's ``eigvalsh``."""

    @pytest.mark.parametrize("n", range(2, 10))
    def test_ising_pencils_match_eigvalsh(self, n):
        problem = BENCH_PROBLEMS.ising_problem(n, 1)
        want = BENCH_PROBLEMS.dense_spectrum(problem, with_eta1=True)
        ref = generalized_eig(parse_problem(problem))
        scale = np.max(np.abs(want.eigenvalues))
        np.testing.assert_allclose(ref.eigenvalues, want.eigenvalues, rtol=0, atol=1e-12 * scale)
        assert abs(ref.eta1 - want.eta1) <= 1e-12 * want.eta1

    @pytest.mark.parametrize("dim", [2, 3, 7, 16, 33, 64, 100])
    def test_random_complex_hermitian_match_eigvalsh(self, dim):
        rng = np.random.default_rng(dim)
        for _ in range(3):
            m = random_hermitian(rng, dim)
            want = np.linalg.eigvalsh(m)
            values, _ = hermitian_eig(m)
            np.testing.assert_allclose(values, want, rtol=0, atol=1e-12 * np.max(np.abs(want)))

    @pytest.mark.parametrize("half", [1, 16, 128])
    def test_degenerate_spectrum_vectors(self, half):
        """kron(Z, I) in a random basis: two eigenvalues of multiplicity
        ``half`` each."""
        rng = np.random.default_rng(31)
        dim = 2 * half
        unitary = np.linalg.qr(rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim)))[0]
        m = unitary @ np.kron(np.diag([1.0, -1.0]), np.eye(half)) @ unitary.conj().T
        m = (m + m.conj().T) / 2
        values, vecs = hermitian_eig(m)
        np.testing.assert_allclose(values, np.repeat([-1.0, 1.0], half), rtol=0, atol=1e-12)
        np.testing.assert_allclose(vecs.conj().T @ vecs, np.eye(dim), rtol=0, atol=1e-12)
        np.testing.assert_allclose(m @ vecs, vecs * values, rtol=0, atol=1e-10)

    @pytest.mark.parametrize("pencil", [two_qubit_pencil(), _ring_pencil(6)], ids=["demo", "ring6"])
    def test_pencil_vectors_b_orthonormal(self, pencil):
        a, b = dense_matrix(pencil.A), dense_matrix(pencil.B)
        ref = generalized_eig(pencil)
        values, vecs = ref.eigenvalues, ref.eigenvectors
        scale = np.max(np.abs(values))
        if pencil.n > 2:
            assert np.min(np.diff(values)) < 1e-12 * scale, "the ring has multiplicities"
        np.testing.assert_allclose(vecs.conj().T @ b @ vecs, np.eye(2**pencil.n), rtol=0, atol=1e-12)
        residual = a @ vecs - (b @ vecs) * values
        assert np.max(np.abs(residual)) <= 1e-10 * scale

    def test_diagonal_input_is_exact(self):
        diag = np.array([3.0, -1e-300, 0.0, -2.5, 0.0])
        values, vecs = hermitian_eig(np.diag(diag))
        np.testing.assert_array_equal(values, np.sort(diag))
        np.testing.assert_array_equal(np.abs(vecs), np.eye(5)[:, np.argsort(diag, kind="stable")])

    @pytest.mark.parametrize("label", ["demo", "ring6", "split"])
    def test_leading_columns_are_those_of_all(self, label):
        """``leading_eigenvectors(k)`` is the first k columns of
        ``eigenvectors`` for every k, up to the rounding of the reflector
        and factor products on fewer columns, and inverse iteration on the
        leading eigenvalues of T up to a cluster's end gives those columns
        of the full set bit for bit.  On "split" T has a zero coupling and
        the eigenvalues of its two blocks interleave."""
        if label == "split":
            rng = np.random.default_rng(5)
            m = np.zeros((8, 8))
            for block in (slice(0, 3), slice(3, 8)):
                half = rng.normal(size=(block.stop - block.start,) * 2)
                m[block, block] = half + half.T
            ref = generalized_eig_dense(m, np.eye(8))
            assert np.count_nonzero(ref._reduced.e == 0.0) == 1
        else:
            ref = generalized_eig(two_qubit_pencil() if label == "demo" else _ring_pencil(6))
        full = ref.eigenvectors
        for k in range(1, full.shape[1] + 1):
            np.testing.assert_allclose(ref.leading_eigenvectors(k), full[:, :k], rtol=0, atol=1e-14)
        tri = ref._reduced
        d, e, values = tri.d, tri.e, tri.values
        if label != "split":
            every = reference._inverse_iteration(d, e, values)
            for end in reference._clusters(values, reference._gershgorin(d, e)):
                got = reference._inverse_iteration(d, e, values[:end])
                assert got.tobytes() == every[:, :end].tobytes()

    @pytest.mark.parametrize("size", [2, 3, 7, 64, 1024])
    def test_start_columns_are_the_leading_columns_of_the_full_draw(self, size):
        """The start of inverse iteration skips the draws it does not read:
        1024 x 1024 uniforms (8 MB) for one column at 10 qubits."""
        full = np.random.default_rng(size).uniform(-1.0, 1.0, (size, size))
        for k in {1, 2, size // 2, size - 1, size}:
            assert reference._start_columns(size, k).tobytes() == full[:, :k].tobytes()

    def test_reference_and_vqge_never_build_eigenvectors(self, monkeypatch, capsys, tmp_path):
        def refuse(self, count):
            raise AssertionError("eigenvectors were built")

        monkeypatch.setattr(reference._Tridiagonal, "eigenvectors", refuse)
        path = tmp_path / "ising4.json"
        path.write_text(json.dumps(BENCH_PROBLEMS.ising_problem(4, 1)))
        assert main(["reference"]) == 0
        assert main(["reference", str(path)]) == 0
        assert main(["vqge", "--iters", "2", "--restarts", "1"]) == 0
        # fqge reads the ground vector, so the patch is live
        assert main(["fqge"]) == 1
        assert "eigenvectors were built" in capsys.readouterr().err

    @pytest.mark.parametrize("problem, columns", [(None, 1), (DEGENERATE_GROUND, 2)])
    def test_fqge_iterates_only_the_ground_cluster(
        self, monkeypatch, capsys, tmp_path, problem, columns
    ):
        """fqge reads the ground level's vectors, so inverse iteration runs
        on the ground level's ``_ORTHO_GAP`` cluster of T alone: one column
        on the demo and two on a doubly degenerate ground level (T is
        unreduced on both).  reference and vqge read no vector, so it does
        not run for them."""
        seen = []
        iterate = reference._inverse_iteration

        def spy(d, e, values):
            seen.append(values.copy())
            return iterate(d, e, values)

        monkeypatch.setattr(reference, "_inverse_iteration", spy)
        argv = []
        if problem is not None:
            path = tmp_path / "problem.json"
            path.write_text(json.dumps(problem))
            argv = [str(path)]
        assert main(["reference", *argv]) == 0
        assert main(["vqge", "--iters", "2", "--restarts", "1", *argv]) == 0
        assert seen == []
        for line_search in ([], ["--line-search"]):
            assert main(["fqge", *argv, *line_search]) == 0
        capsys.readouterr()
        pencil = two_qubit_pencil() if problem is None else parse_problem(problem)
        ref = generalized_eig(pencil)
        assert ground_multiplicity(ref.eigenvalues) == columns
        tri = ref._reduced
        assert [values.tobytes() for values in seen] == [tri.values[:columns].tobytes()] * 2

    def test_only_reference_reduces_b_for_eta1(self, monkeypatch, capsys, tmp_path):
        def refuse(self):
            raise AssertionError("B was reduced for eta1")

        monkeypatch.setattr(reference._Tridiagonal, "smallest", refuse)
        path = tmp_path / "ising4.json"
        path.write_text(json.dumps(BENCH_PROBLEMS.ising_problem(4, 1)))
        for problem in ([], [str(path)]):
            assert main(["vqge", "--iters", "2", "--restarts", "1", *problem]) == 0
            assert main(["fqge", "--line-search", *problem]) == 0
        capsys.readouterr()
        # the one command that prints eta1 reads it, so the patch is live
        assert main(["reference", str(path)]) == 1
        assert "B was reduced for eta1" in capsys.readouterr().err


class TestNonFiniteInput:
    @pytest.mark.parametrize("bad", [np.nan, np.inf, complex(0.0, np.nan)])
    def test_every_entry_point_rejects_at_once(self, bad):
        m = np.eye(4, dtype=complex)
        m[1, 1] = bad
        with pytest.raises(ValueError, match="^A has non-finite"):
            generalized_eig_dense(m, np.eye(4))
        with pytest.raises(ValueError, match="^B has non-finite"):
            generalized_eig_dense(np.eye(4), m)


def inverse_b(b):
    """The oracle on the pencil (I, b): eigenvalues 1 / eig(b), ascending,
    with b-orthonormal eigenvectors, through the Cholesky factor of b."""
    return generalized_eig_dense(np.eye(len(b)), b)


class TestCholesky:
    def test_identity(self):
        ref = inverse_b(np.eye(3))
        np.testing.assert_allclose(ref.eigenvalues, np.ones(3))
        np.testing.assert_allclose(ref.eigenvectors, np.eye(3))

    def test_scalar(self):
        ref = inverse_b(np.array([[4.0]]))
        np.testing.assert_allclose(ref.eigenvalues, [0.25])
        np.testing.assert_allclose(np.abs(ref.eigenvectors), [[0.5]])

    def test_diagonal_b_of_demo_pencil(self):
        ref = inverse_b(DENSE_B)
        diag = np.array([1.9, 0.7, 0.9, 0.5])
        np.testing.assert_allclose(ref.eigenvalues, np.sort(1.0 / diag), atol=1e-14)
        order = np.argsort(1.0 / diag)
        want = np.diag(1.0 / np.sqrt(diag))[:, order]
        np.testing.assert_allclose(np.abs(ref.eigenvectors), want, atol=1e-14)

    def test_factorizes_random_pd(self):
        rng = np.random.default_rng(2)
        for _ in range(20):
            b = random_pd(rng, int(rng.integers(2, 9)))
            ref = inverse_b(b)
            want = np.sort(1.0 / np.linalg.eigvalsh(b))
            np.testing.assert_allclose(ref.eigenvalues, want, atol=1e-10)
            vecs = ref.eigenvectors
            np.testing.assert_allclose(vecs.conj().T @ b @ vecs, np.eye(len(b)), atol=1e-10)
            np.testing.assert_allclose(vecs, (b @ vecs) * ref.eigenvalues, atol=1e-10)

    def test_rejects_indefinite(self):
        with pytest.raises(ValueError, match="^B is not positive definite"):
            inverse_b(np.diag([1.0, -2.0]))

    def test_rejects_non_hermitian(self):
        with pytest.raises(ValueError, match="^B is not Hermitian"):
            inverse_b(np.array([[1.0, 2.0], [0.0, 1.0]]))


class TestHermitianCheckIsRelative:
    """The asymmetry the oracle allows is 1e-10 of the largest |entry|, so
    the check means the same at every scale."""

    def test_rounded_symmetric_matrix_at_scale_1e6_is_accepted(self):
        q, _ = np.linalg.qr(np.random.default_rng(0).normal(size=(8, 8)))
        want = 1e6 * np.arange(1, 9)
        m = q @ np.diag(want) @ q.T
        assert np.max(np.abs(m - m.T)) > 1e-10  # refused by an absolute 1e-10
        vals, _ = hermitian_eig(m)
        np.testing.assert_allclose(vals, want, rtol=1e-12)

    def test_non_hermitian_matrix_at_scale_1e_20_is_refused(self):
        m = 1e-20 * np.array([[1.0, 2.0], [0.0, 1.0]])
        with pytest.raises(ValueError, match="^A is not Hermitian"):
            generalized_eig_dense(m, np.eye(2))
        with pytest.raises(ValueError, match="^B is not Hermitian"):
            generalized_eig_dense(np.eye(2), m)


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

    def test_indefinite_matrix_is_named(self):
        """The pencil's solver names B."""
        b = np.diag([1.0, -1.0])
        with pytest.raises(ValueError, match=r"^B is not positive definite \(pivot -1.000e\+00 at row 1\)$"):
            generalized_eig_dense(np.eye(2), b)

    def test_eta1_positive_iff_cholesky_succeeds(self):
        rng = np.random.default_rng(15)
        b = random_pd(rng, 4)
        ref = generalized_eig_dense(random_hermitian(rng, 4), b)
        assert ref.eta1 > 0
        inverse_b(b)

    def test_refuses_above_dense_cap(self):
        big = PauliSum.identity(DEFAULT_DENSE_CAP + 1, 1.0)
        peak = refused_without_allocating(
            lambda: generalized_eig(Pencil(big, big)), f"cap of {DEFAULT_DENSE_CAP}$"
        )
        assert peak < 2**20

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

    def test_cluster_whose_sum_overflows(self):
        """The mean of a cluster at +-1e308 is taken over its halves, without
        a warning: it is the level itself, not inf."""
        assert distinct_values([-1e308, -1e308, 1e308, 1e308]) == [-1e308, 1e308]
        (mean,) = distinct_values([1.7e308, 1.7e308 * (1 + 1e-15)])
        assert abs(mean - 1.7e308) <= 1e-15 * 1.7e308

    def test_small_scale_levels_stay_distinct(self):
        """The gap is relative: four levels near +-1e-12 are four clusters."""
        pencil = Pencil(
            PauliSum(2, [(1e-12, "XX"), (3e-13, "ZI")]), PauliSum(2, [(1.0, "II"), (0.5, "IZ")])
        )
        vals = generalized_eig(pencil).eigenvalues
        want = [1.422e-12, 1.022e-12, 1.022e-12, 1.422e-12]
        np.testing.assert_allclose(np.abs(vals), want, rtol=1e-3)
        assert count_distinct(vals) == 4
        np.testing.assert_array_equal(distinct_values(vals), vals)

    @pytest.mark.parametrize("exponent", [-40, 40])
    def test_count_does_not_change_with_scale(self, exponent):
        pencil = two_qubit_pencil()
        a = PauliSum(2, [(c * 2.0**exponent, p.ops) for c, p in pencil.A.terms])
        scaled = Pencil(a, pencil.B)
        vals = generalized_eig(pencil).eigenvalues
        got = generalized_eig(scaled).eigenvalues
        np.testing.assert_allclose(got, np.asarray(vals) * 2.0**exponent, rtol=1e-12)
        assert count_distinct(got) == count_distinct(vals) == 4

    def test_ground_multiplicity(self):
        assert ground_multiplicity([1.0, 1.0 + 1e-9, 2.0, 3.0, 3.0 + 1e-8]) == 2
        assert ground_multiplicity([3.0 + 1e-8, 2.0, 1.0 + 1e-9, 3.0, 1.0]) == 2
        assert ground_multiplicity([0.33, 0.97, 1.01, 1.56]) == 1
        assert ground_multiplicity([0.5, 0.5, 0.5]) == 3

    def test_ground_multiplicity_of_a_degenerate_pencil(self):
        """ZI + 0.3 XI against II + 0.2 ZI leaves the second qubit free, so
        each of its two levels is doubly degenerate."""
        pencil = Pencil(
            PauliSum(2, [(1.0, "ZI"), (0.3, "XI")]), PauliSum(2, [(1.0, "II"), (0.2, "ZI")])
        )
        vals = generalized_eig(pencil).eigenvalues
        np.testing.assert_allclose(vals, [-1.2941, -1.2941, 0.8774, 0.8774], atol=1e-4)
        assert ground_multiplicity(vals) == 2
        assert ground_multiplicity(generalized_eig(two_qubit_pencil()).eigenvalues) == 1


def _loop_distinct_values(eigenvalues):
    """The cluster loop ``distinct_values`` replaced, kept to check it
    against: one mean per run of neighbours at most the gap apart."""
    values = np.sort(np.asarray(eigenvalues, dtype=float))
    if values.size == 0:
        return []
    width = reference.DEFAULT_CLUSTER_GAP * max(abs(values[0]), abs(values[-1]))
    reps = []
    start = 0
    for i in range(1, values.size + 1):
        if i == values.size or values[i] - values[i - 1] > width:
            reps.append(float(np.mean(values[start:i])))
            start = i
    return reps


LEVEL = st.floats(-100.0, 100.0)
ALL_EQUAL = st.tuples(LEVEL, st.integers(1, 8)).map(lambda t: [t[0]] * t[1])
# levels with a few values each, spread well below or near the relative gap
CLUSTERED = st.lists(
    st.tuples(LEVEL, st.lists(st.floats(-1e-4, 1e-4), min_size=1, max_size=4)),
    max_size=6,
).map(lambda groups: [level + off for level, offs in groups for off in offs])


class TestDistinctProperty:
    @settings(deadline=None, max_examples=200)
    @given(
        values=st.one_of(st.just([]), ALL_EQUAL, CLUSTERED),
        scale=st.sampled_from([1e-300, 1.0, 1e300]),
    )
    def test_count_is_the_number_of_values(self, values, scale):
        """``count_distinct`` counts the gaps that ``distinct_values`` splits
        at, and the values are bitwise the cluster loop's."""
        v = np.asarray(values, dtype=float) * scale
        reps = distinct_values(v)
        assert count_distinct(v) == len(reps)
        assert np.asarray(reps).tobytes() == np.asarray(_loop_distinct_values(v)).tobytes()

    @settings(deadline=None, max_examples=200)
    @given(values=st.one_of(ALL_EQUAL, CLUSTERED.filter(bool)))
    def test_ground_multiplicity_is_the_lowest_cluster_size(self, values):
        """The lowest cluster's mean is the mean of exactly the
        ``ground_multiplicity`` smallest values, which are all the values
        only when there is one cluster."""
        v = np.sort(np.asarray(values, dtype=float))
        k = ground_multiplicity(v)
        assert 1 <= k <= v.size
        assert float(np.mean(v[:k])) == distinct_values(v)[0]
        assert (k == v.size) == (count_distinct(v) == 1)


class TestJacobiScale:
    """The oracle is accurate at every coefficient scale, not only near
    unit scale."""

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
    """The reduction runs on the matrix rescaled by an exact power of two,
    so its norms neither underflow (all-zero eigenvalues at 1e-200) nor
    overflow (at 1e200) anywhere in the float range."""

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
