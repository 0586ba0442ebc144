"""Bitwise equivalence of the stacked shot-mode objective (one gather of
the kets, one stacked product per family of overlaps, one sampler call per
row and grouped weighted sums per call) with the term-by-term objective it
replaced, kept below as it was: values, gradients and the generator's
state after every call are equal bit for bit.  The pipeline that descends
restart k of the min and max levels as one batch, each row on its level's
stream, is held against the sequential schedule it replaced,
``sequential_shot_spectrum``."""

import numpy as np
import pytest

import geig.vqge
from conftest import A_TERMS, random_pencil, random_state, two_qubit_pencil
from geig.ansatz import apply_ansatz, compile_ansatz, random_params
from geig.measurement import sample_overlaps
from geig.pauli import PauliSum, _phase
from geig.statevector import StateVector, norm, zero_state
from geig.vqge import (
    DeflationRecord,
    OptConfig,
    Pencil,
    SolveConfig,
    SpectrumLevel,
    _assemble,
    _descend,
    _penalties,
    _shot_objective,
    check_b,
    rayleigh_quotient,
    solve_spectrum,
)

# The term-by-term objective, as it was before the stacked one replaced
# it, on ``pencil.unit`` as the objective runs; ``ref_term_kets`` is its
# per-term list of kets.


def ref_term_kets(s, w):
    index = np.arange(2**s.n, dtype=np.int64)
    gathers = []
    for _, string in s.terms:
        src = index ^ string.x_mask
        gathers.append((src, _phase(string, src)))
    return [phase * w[src] for src, phase in gathers]


def ref_weighted(coeffs: list, estimates: list) -> complex:
    """sum_k c_k z_k, accumulated term by term in order from zero."""
    total = 0.0 + 0.0j
    for c, z in zip(coeffs, estimates):
        total += c * z
    return total


def ref_shot_objective(pencil, records, v_in, entangler, sign, shots, rng):
    circuit = compile_ansatz(pencil.n, entangler)
    penalties = [(gamma, m) for gamma, _, m in _penalties(pencil, records)]
    pencil, _, eb = pencil.unit
    coeffs_a, coeffs_b = pencil.A.coeffs.tolist(), pencil.B.coeffs.tolist()
    n_a, n_b = len(coeffs_a), len(coeffs_b)
    norms = [norm(rec.state) for rec in records]
    units = [rec.state.amps / x_norm for rec, x_norm in zip(records, norms)]

    def overlaps(phi, kets):
        b_kets = ref_term_kets(pencil.B, phi) if units else []
        return [np.vdot(phi, ket) for ket in kets] + [np.vdot(x, k) for x in units for k in b_kets]

    def brackets(row):
        est = row.tolist()
        ts = [x * ref_weighted(coeffs_b, est[n_a + n_b * j :]) for j, x in enumerate(norms, 1)]
        return ref_weighted(coeffs_a, est).real, ref_weighted(coeffs_b, est[n_a:]).real, ts

    def value_and_grad(theta):
        _, n, layers = theta.shape
        grid = np.repeat(theta, 1 + n * layers, axis=0)
        k = np.arange(len(grid) - 1)
        grid[1 + k, k % n, k // n] += np.pi
        states = circuit.run(grid, v_in.amps)
        kets = ref_term_kets(pencil.A, states[0]) + ref_term_kets(pencil.B, states[0])
        exact = np.array([overlaps(phi, kets) for phi in states], dtype=complex)
        a, b, ts = brackets(sample_overlaps(exact[0], shots, rng))
        loss = rayleigh_quotient(a, b, eb)
        for (gamma, m), t in zip(penalties, ts):
            loss += gamma * abs(t) ** 2 / (m * b)
        values = np.array([sign * loss])
        est = sample_overlaps(exact, shots, rng)
        a, b, ts = brackets(est[0])
        check_b(b, eb)
        entries = []
        for row in est[1:]:
            da, db, ts_plus = brackets(row)
            entry = (da * b - a * db) / b**2
            for (gamma, m), t, t_plus in zip(penalties, ts, ts_plus):
                dt2 = (np.conj(t) * t_plus).real
                entry += gamma / m * (dt2 * b - abs(t) ** 2 * db) / b**2
            entries.append(entry)
        grads = sign * np.array(entries).reshape(layers, n).T.copy()[None]
        return values, grads

    return value_and_grad


def even_y_strings(rng, n, count):
    out = []
    while len(out) < count:
        ops = "".join(rng.choice(list("IXYZ"), size=n))
        if ops.count("Y") % 2 == 0:
            out.append(ops)
    return out


def real_pencil(rng, n):
    """Random strings with an even number of Y factors: a real A against B
    = identity plus strings whose weights sum below 1/2, so positive
    definite."""
    a = PauliSum(n, [(float(rng.normal()), ops) for ops in even_y_strings(rng, n, 8)])
    others = [(float(rng.uniform(-0.08, 0.08)), ops) for ops in even_y_strings(rng, n, 6)]
    return Pencil(a, PauliSum(n, [(1.0, "I" * n)] + others))


def odd_y_pencil(rng, n):
    """The real pencil with one odd-Y string added to each side (B stays
    positive definite): complex kets and overlaps."""
    pencil = real_pencil(rng, n)
    y = "Y" + "X" * (n - 1)
    a = PauliSum(n, pencil.A.terms + ((0.3, y),))
    b = PauliSum(n, pencil.B.terms + ((0.05, y),))
    return Pencil(a, b)


def real_state(rng, n):
    v = rng.normal(size=2**n)
    return StateVector(n, v / np.linalg.norm(v))


def assert_bitwise(got, want):
    assert got.dtype == want.dtype and got.shape == want.shape
    np.testing.assert_array_equal(got, want)
    assert got.tobytes() == want.tobytes()


CASES = [
    (n, layers, entangler)
    for n in (1, 2, 3, 4)
    for layers in (1, 2)
    for entangler in ("linear", "ring")
]


class TestShotObjectiveBitwise:
    @pytest.mark.parametrize("n, layers, entangler", CASES)
    def test_values_grads_and_draws(self, n, layers, entangler):
        """n = 1..4, L = 1..2, both entanglers; real and odd-Y pencils,
        |0> and a complex start, 0..3 records, shots 0, 400 and 2000; each
        objective called twice, on one generator per objective."""
        rng = np.random.default_rng([n, layers, len(entangler)])
        for make_pencil, make_state in ((real_pencil, real_state), (odd_y_pencil, random_state)):
            pencil = make_pencil(rng, n)
            for v_in in (zero_state(n), random_state(rng, n)):
                for n_records in range(4):
                    records = [
                        DeflationRecord(0.0, float(rng.uniform(0.5, 3.0)), make_state(rng, n))
                        for _ in range(n_records)
                    ]
                    for shots in (0, 400, 2000):
                        sign = -1.0 if shots == 400 else 1.0
                        seed = int(rng.integers(2**32))
                        got_rng = np.random.default_rng(seed)
                        want_rng = np.random.default_rng(seed)
                        args = (pencil, records, v_in, entangler, sign, shots)
                        got = _shot_objective(*args, [got_rng])
                        want = ref_shot_objective(*args, want_rng)
                        for _ in range(2):
                            theta = rng.uniform(0.0, 2.0 * np.pi, size=(1, n, layers))
                            got_out = got(theta)
                            want_out = want(theta)
                            assert_bitwise(got_out[0], want_out[0])
                            assert_bitwise(got_out[1], want_out[1])
                            assert got_rng.bit_generator.state == want_rng.bit_generator.state

    def test_dense_complex_pencil(self):
        """Every string of a random Hermitian pencil on 3 qubits, odd-Y ones
        included, with two complex records."""
        rng = np.random.default_rng(30)
        pencil, _, _ = random_pencil(rng, 3)
        records = [DeflationRecord(0.0, 1.5, random_state(rng, 3)) for _ in range(2)]
        v_in = random_state(rng, 3)
        got_rng, want_rng = np.random.default_rng(1), np.random.default_rng(1)
        got = _shot_objective(pencil, records, v_in, "ring", 1.0, 2000, [got_rng])
        want = ref_shot_objective(pencil, records, v_in, "ring", 1.0, 2000, want_rng)
        theta = rng.uniform(0.0, 2.0 * np.pi, size=(1, 3, 2))
        for got_part, want_part in zip(got(theta), want(theta)):
            assert_bitwise(got_part, want_part)
        assert got_rng.bit_generator.state == want_rng.bit_generator.state

    def test_record_overlaps_in_blocks_of_rows(self, monkeypatch):
        """With a block size that splits the circuit batch (one row, then
        two rows per block), the record overlaps round as in one block."""
        rng = np.random.default_rng(40)
        pencil = odd_y_pencil(rng, 3)
        records = [DeflationRecord(0.0, 2.0, random_state(rng, 3)) for _ in range(3)]
        theta = rng.uniform(0.0, 2.0 * np.pi, size=(1, 3, 2))
        for entries in (1, 2 * len(pencil.B) * 8):
            monkeypatch.setattr(geig.vqge, "_KET_BLOCK_ENTRIES", entries)
            args = (pencil, records, zero_state(3), "linear", 1.0, 2000)
            got = _shot_objective(*args, [np.random.default_rng(5)])(theta)
            want = ref_shot_objective(*args, np.random.default_rng(5))(theta)
            assert_bitwise(got[0], want[0])
            assert_bitwise(got[1], want[1])

    def test_overflowing_entries_as_in_scalar_arithmetic(self):
        """On the pencil itself <B>^2 is finite but <dA> <B> overflows.  On
        its unit pencil, where both objectives run, no entry can overflow:
        the values and gradient entries are finite and equal the scalar
        rule's bit for bit, with no numpy warning (which the test session
        turns into an error)."""
        pencil = Pencil(
            PauliSum(2, [(1e160, "ZI"), (1e160, "XX")]),
            PauliSum(2, [(1e150, "II"), (0.5, "IZ")]),
        )
        theta = np.random.default_rng(2).uniform(0.0, 2.0 * np.pi, size=(1, 2, 2))
        args = (pencil, (), zero_state(2), "linear", 1.0, 100)
        got = _shot_objective(*args, [np.random.default_rng(3)])(theta)
        want = ref_shot_objective(*args, np.random.default_rng(3))(theta)
        assert np.isfinite(got[0]).all() and np.isfinite(got[1]).all()
        assert_bitwise(got[0], want[0])
        assert_bitwise(got[1], want[1])

    def test_errors_match(self):
        """A B that is not positive at the evaluated state fails with the
        same message on both paths."""
        pencil = Pencil(PauliSum(1, [(1.0, "Z")]), PauliSum(1, [(1.0, "Z")]))
        theta = np.full((1, 1, 1), np.pi)
        messages = []
        for build, rng in ((_shot_objective, [None]), (ref_shot_objective, None)):
            objective = build(pencil, (), zero_state(1), "linear", 1.0, 0, rng)
            with pytest.raises(ValueError) as info:
                objective(theta)
            messages.append(str(info.value))
        assert messages[0] == messages[1]


class TestRowBatchBitwise:
    @pytest.mark.parametrize("n, n_records", [(1, 0), (2, 0), (2, 2), (3, 1)])
    def test_rows_equal_one_row_objectives(self, n, n_records):
        """R = 1..3 angle grids with a sign and a generator per row: each
        row's values, gradients and stream equal the one-row objective's on
        that row alone."""
        rng = np.random.default_rng([n, n_records])
        pencil = odd_y_pencil(rng, n)
        records = [DeflationRecord(0.0, 1.5, random_state(rng, n)) for _ in range(n_records)]
        for rows in (1, 2, 3):
            signs = np.where(np.arange(rows) % 2, -1.0, 1.0)
            seeds = rng.integers(2**32, size=rows)
            got_rngs = [np.random.default_rng(seed) for seed in seeds]
            want_rngs = [np.random.default_rng(seed) for seed in seeds]
            args = (pencil, records, zero_state(n), "linear")
            got = _shot_objective(*args, signs, 500, got_rngs)
            want = [ref_shot_objective(*args, sign, 500, g) for sign, g in zip(signs, want_rngs)]
            theta = rng.uniform(0.0, 2.0 * np.pi, size=(rows, n, 2))
            got_out = got(theta)
            for r, objective in enumerate(want):
                want_out = objective(theta[r : r + 1])
                for part, want_part in zip(got_out, want_out):
                    assert_bitwise(part[r : r + 1], want_part)
            for got_rng, want_rng in zip(got_rngs, want_rngs):
                assert got_rng.bit_generator.state == want_rng.bit_generator.state


def sequential_shot_spectrum(pencil: Pencil, r: int, config: SolveConfig) -> list:
    """The shot-mode pipeline as it was before the min and max levels shared
    a batch: every level, and within it every restart, descends on its own,
    on the term-by-term objective."""
    n = pencil.n
    v_in = zero_state(n)
    entangler = config.entangler
    restarts = config.restarts

    def starts(level_idx: int) -> list:
        return [
            random_params(n, config.layers, np.random.default_rng([config.seed, level_idx, k]))
            for k in range(restarts)
        ]

    def run_levels(specs: list, records: tuple) -> list:
        traces = []
        for level_idx, sign, _ in specs:
            rng = np.random.default_rng([config.seed, 7919, level_idx])
            objective = ref_shot_objective(
                pencil, records, v_in, entangler, sign, config.shots, rng
            )
            traces += [
                _descend(objective, p0.theta[None], config.opt, pencil.unit[1])[0]
                for p0 in starts(level_idx)
            ]
        levels = []
        for j, (_, sign, kind) in enumerate(specs):
            level_traces = tuple(traces[j * restarts : (j + 1) * restarts])
            best_k = int(np.argmin([trace.best_value for trace in level_traces]))
            value, params = level_traces[best_k].best_value, level_traces[best_k].best_params
            state = apply_ansatz(params, v_in, entangler)
            levels.append(SpectrumLevel(sign * value, params, state, kind, level_traces, best_k))
        return levels

    if r == 1:
        return _assemble(run_levels([(1, 1.0, "min")], ()), pencil)
    levels = run_levels([(1, 1.0, "min"), (r, -1.0, "max")], ())
    gamma = levels[1].eigenvalue - levels[0].eigenvalue
    for j in range(2, r):
        found = levels[:1] + levels[2:]
        records = tuple(DeflationRecord(lv.eigenvalue, gamma, lv.state) for lv in found)
        levels += run_levels([(j, 1.0, "deflate")], records)
    return _assemble(levels, pencil)


def assert_spectra_bitwise(got: list, want: list) -> None:
    assert len(got) == len(want)
    for got_lv, want_lv in zip(got, want):
        assert got_lv.objective == want_lv.objective
        assert got_lv.eigenvalue == want_lv.eigenvalue
        assert got_lv.best_restart == want_lv.best_restart
        assert_bitwise(got_lv.params.theta, want_lv.params.theta)
        assert_bitwise(got_lv.state.amps, want_lv.state.amps)
        for got_tr, want_tr in zip(got_lv.traces, want_lv.traces, strict=True):
            assert_bitwise(got_tr.losses, want_tr.losses)
            assert_bitwise(got_tr.grad_norms, want_tr.grad_norms)
            assert_bitwise(got_tr.thetas, want_tr.thetas)
            assert got_tr.best_value == want_tr.best_value


SPECTRUM_CASES = [
    (make_pencil, n, r, method)
    for make_pencil in (real_pencil, odd_y_pencil)
    for n in (1, 2, 3)
    for r in (1, 2, 3, 4)
    if r <= 2**n
    for method in ("adam", "gd")
]


class TestSolveSpectrumBitwise:
    @pytest.mark.parametrize("n, r, shots", [(2, 4, 300), (3, 3, 2000)])
    def test_traces_match_the_term_by_term_path(self, n, r, shots):
        if n == 2:
            pencil = two_qubit_pencil()
        else:
            pencil = odd_y_pencil(np.random.default_rng(n), n)
        config = SolveConfig(restarts=2, seed=3, shots=shots, opt=OptConfig(iters=12))
        got = solve_spectrum(pencil, r, config)
        assert len(got) == r
        assert_spectra_bitwise(got, sequential_shot_spectrum(pencil, r, config))

    @pytest.mark.parametrize(
        "make_pencil, n, r, method",
        SPECTRUM_CASES,
        ids=[f"{f.__name__}-{n}-{r}-{m}" for f, n, r, m in SPECTRUM_CASES],
    )
    def test_batched_levels_match_the_sequential_schedule(self, make_pencil, n, r, method):
        pencil = make_pencil(np.random.default_rng([n, r]), n)
        opt = OptConfig(lr=0.2, iters=6, method=method)
        config = SolveConfig(layers=2, restarts=3, seed=r, shots=400, opt=opt)
        got = solve_spectrum(pencil, r, config)
        assert_spectra_bitwise(got, sequential_shot_spectrum(pencil, r, config))

    def test_dense_complex_pencil(self):
        """All 16 strings of a random Hermitian pencil on 2 qubits per side:
        sums long enough that a pairwise summation would round apart."""
        pencil, _, _ = random_pencil(np.random.default_rng(31), 2)
        config = SolveConfig(restarts=2, seed=4, shots=1000, opt=OptConfig(iters=8))
        want = sequential_shot_spectrum(pencil, 4, config)
        assert_spectra_bitwise(solve_spectrum(pencil, 4, config), want)

    def test_record_overlaps_in_blocks_of_states(self, monkeypatch):
        pencil = odd_y_pencil(np.random.default_rng(9), 3)
        opt = OptConfig(iters=5)
        config = SolveConfig(restarts=2, seed=1, shots=300, entangler="ring", opt=opt)
        want = sequential_shot_spectrum(pencil, 4, config)
        monkeypatch.setattr(geig.vqge, "_KET_BLOCK_ENTRIES", 2 * len(pencil.B) * 8)
        assert_spectra_bitwise(solve_spectrum(pencil, 4, config), want)


class TestSolveSpectrumErrors:
    def test_indefinite_b_is_refused(self):
        pencil = Pencil(PauliSum(2, A_TERMS), PauliSum(2, [(0.1, "II"), (1.0, "ZI")]))
        config = SolveConfig(restarts=2, shots=200, opt=OptConfig(iters=5))
        with pytest.raises(ValueError, match="B is not positive definite"):
            solve_spectrum(pencil, 2, config)

    def test_non_finite_loss_in_the_max_rows_names_its_step(self, monkeypatch):
        """The value draw of the max row at step 2 (the sixth sampler call:
        min, then max, at each step) gets a NaN <A> estimate."""
        rngs = []

        def poisoned(values, shots, rng):
            est = sample_overlaps(values, shots, rng)
            rngs.append(rng)
            if len(rngs) == 6:
                est = est.copy()
                est[0, 0] = np.nan
            return est

        monkeypatch.setattr(geig.vqge, "sample_overlaps", poisoned)
        config = SolveConfig(restarts=2, shots=200, opt=OptConfig(iters=5))
        with pytest.raises(RuntimeError, match="non-finite loss nan at step 2"):
            solve_spectrum(two_qubit_pencil(), 2, config)
        assert len(rngs) == 6
        assert rngs[0::2] == [rngs[0]] * 3 and rngs[1::2] == [rngs[1]] * 3
        assert rngs[0] is not rngs[1]
