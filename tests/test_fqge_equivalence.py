"""run_fqge and apply_g against the implementations they replaced.

The reference below is the earlier ``run_fqge`` loop, which formed
(A - F B)psi twice per iterate, took ||A psi|| and ||B psi|| again in the
line search, applied the pencil to every line-search iterate as well as to
its direction and wrapped every row in a ``StateVector``, and the earlier
``apply_g``, which built one ``StateVector`` per LCU string.  Both are
kept verbatim apart from the row and result records.  Fixed-step and noisy
runs apply the pencil to every state as that loop did, so every quantity
a row reports must come out with the same bits.  A noiseless line-search
run takes each next state's images as the step's combination of images
already computed, which moves its rows by rounding only: they are
compared within bounds, and the row that ends the run is evaluated on
its own state's images."""

import warnings
from dataclasses import dataclass

import numpy as np
import pytest

from conftest import (
    A_TERMS,
    B_TERMS,
    BENCH_PROBLEMS,
    apply_string,
    line_search,
    random_pencil,
    random_state,
    residual,
)
from geig.cli import parse_problem
from geig.fqge import (
    _DELTA_CAP,
    FqgeConfig,
    _lcu_basis,
    _lcu_coeffs,
    _lcu_size,
    _perturbed,
    apply_g,
    build_lcu,
    loss_state,
    run_fqge,
)
from geig.pauli import PauliSum
from geig.reference import generalized_eig
from geig.statevector import StateVector, basis_state, normalize
from geig.vqge import Pencil, rayleigh_quotient


@dataclass(frozen=True)
class EarlierIterate:
    s: int
    state: StateVector
    value: float
    residual: float
    delta_used: complex
    success_prob: float
    lcu_norm_c: float
    lcu_terms: int


@dataclass(frozen=True)
class EarlierResult:
    iterates: tuple
    status: str
    eigenvalue: float
    state: StateVector


def _residual_scale(a_psi, b_psi, f: float) -> float:
    """||A psi|| + |F| ||B psi||, the scale of the terms of (A - F B) psi."""
    return float(np.linalg.norm(a_psi)) + abs(f) * float(np.linalg.norm(b_psi))


def _relative_residual(a_psi, b_psi, f: float) -> float:
    num = float(np.linalg.norm(a_psi - f * b_psi))
    den = _residual_scale(a_psi, b_psi, f)
    if den == 0.0:
        return 0.0
    return num / den


def _direction(a_psi, b_psi, f: float, b: float) -> np.ndarray:
    return -(2.0 / b) * (a_psi - f * b_psi)


def _line_search(psi: np.ndarray, direction: np.ndarray, applied: tuple, pencil):
    a_psi, b_psi, a00, b00 = applied
    f00 = rayleigh_quotient(a00, b00, 0)
    w = direction - np.vdot(psi, direction) * psi
    wn = float(np.linalg.norm(w))
    if wn <= 1e-14 * (2.0 / b00) * _residual_scale(a_psi, b_psi, f00):
        return 0.0 + 0.0j, f00
    tilde = w / wn
    a_til, b_til, a11, b11 = pencil.apply(tilde)
    a01 = np.vdot(psi, a_til)
    b01 = np.vdot(psi, b_til)

    c2 = b00 * b11 - abs(b01) ** 2
    c1 = a00 * b11 + a11 * b00 - 2.0 * (a01 * np.conj(b01)).real
    c0 = a00 * a11 - abs(a01) ** 2
    disc = max(c1**2 - 4.0 * c2 * c0, 0.0)
    sq = np.sqrt(disc)
    q = 0.5 * (c1 + (sq if c1 >= 0 else -sq))
    roots = []
    if c2 != 0.0:
        roots.append(q / c2)
    if q != 0.0:
        roots.append(c0 / q)
    if not roots:
        return 0.0 + 0.0j, f00
    u1 = min(roots)

    m00 = a00 - u1 * b00
    m01 = a01 - u1 * b01
    m10 = np.conj(m01)
    m11 = a11 - u1 * b11
    if abs(m00) ** 2 + abs(m01) ** 2 >= abs(m10) ** 2 + abs(m11) ** 2:
        v0, v1 = m01, -m00
    else:
        v0, v1 = m11, -m10
    if abs(v0) * _DELTA_CAP <= abs(v1):
        warnings.warn(
            "line-search minimizer is orthogonal to the current state; "
            "capping |delta| at 1e12"
        )
        phase = v1 / abs(v1) if v1 != 0 else 1.0
        delta_tilde = _DELTA_CAP * phase
    else:
        delta_tilde = v1 / v0
    return complex(delta_tilde) / wn, float(u1)


def earlier_run_fqge(pencil, initial: StateVector, cfg: FqgeConfig = FqgeConfig()):
    rng = np.random.default_rng(cfg.seed)
    state = initial if initial.normalized else normalize(initial)
    real = pencil.real and not state.amps.imag.any()
    psi = state.amps.real if real else state.amps
    basis = _lcu_basis(pencil)
    rows = []
    s = 1
    while True:
        a_psi, b_psi, a, b = applied = pencil.apply(psi)
        value = rayleigh_quotient(a, b, 0)
        res = _relative_residual(a_psi, b_psi, value)
        direction = _direction(a_psi, b_psi, value, b)
        delta = cfg.delta if real else complex(cfg.delta)
        status = None
        if res <= cfg.epsilon:
            status = "converged"
        elif s > cfg.max_iters:
            status = "max_iters"
        elif cfg.line_search:
            delta = _line_search(psi, direction, applied, pencil)[0]
            delta = delta.real if real else delta
            if delta == 0:
                status = "converged"
        if status is not None:
            rows.append(EarlierIterate(s, state, value, res, 0.0 + 0.0j, 1.0, 1.0, 1))
            break
        norm_c, d = _lcu_size(_lcu_coeffs(basis, delta, value, b))
        raw = psi + delta * direction
        out_norm = float(np.linalg.norm(raw))
        if out_norm == 0.0:
            raise RuntimeError(
                f"step {s}: LCU output has zero norm; the state is annihilated by G"
            )
        success = out_norm**2 / (norm_c**2 * d)
        rows.append(EarlierIterate(s, state, value, res, complex(delta), success, norm_c, d))
        psi = raw / out_norm
        if cfg.noise_sigma > 0:
            psi = _perturbed(psi, pencil.n, cfg.noise_sigma, rng)
        state = StateVector(pencil.n, psi)
        s += 1
    return EarlierResult(tuple(rows), status, value, state)


def earlier_apply_g(lcu, state: StateVector):
    amps = np.zeros_like(state.amps)
    for g, ps in zip(lcu.coeffs, lcu.strings):
        amps = amps + g * apply_string(ps, state).amps
    out_norm = float(np.linalg.norm(amps))
    if out_norm == 0.0:
        raise RuntimeError("LCU output has zero norm; the state is annihilated by G")
    success = out_norm**2 / (lcu.norm_c**2 * lcu.d)
    return StateVector(state.n, amps, normalized=False), success


ROW_FIELDS = (
    "s", "value", "residual", "delta_used", "success_prob", "lcu_norm_c", "lcu_terms"
)


def assert_bitwise(got, want, what):
    """Same type, dtype, shape and bytes: the sign of a zero counts."""
    got_a, want_a = np.asarray(got), np.asarray(want)
    assert type(got) is type(want), (what, type(got), type(want))
    assert got_a.dtype == want_a.dtype and got_a.shape == want_a.shape, what
    assert got_a.tobytes() == want_a.tobytes(), (what, got, want)


def assert_close_rows(got, want):
    """A noiseless line-search run against the earlier loop: the same
    steps, and each row's quantities within rounding of that loop's.
    delta_used, success_prob and lcu_norm_c are conditioned as
    eps / residual: the step cancels to the residual's size."""
    for row, ref in zip(got.iterates, want.iterates):
        assert (row.s, row.lcu_terms) == (ref.s, ref.lcu_terms)
        assert abs(row.value - ref.value) <= 1e-12 * abs(ref.value), (row.s, row.value, ref.value)
        assert np.linalg.norm(row.state.amps - ref.state.amps) <= 1e-12, row.s
        assert abs(row.residual - ref.residual) <= 1e-12, (row.s, row.residual, ref.residual)
        tol = 1e-14 / ref.residual
        for name in ("delta_used", "success_prob", "lcu_norm_c"):
            x, y = getattr(row, name), getattr(ref, name)
            assert abs(x - y) <= tol * abs(y), (row.s, name, x, y)


def assert_same_run(pencil, initial, cfg):
    """run_fqge against the earlier loop: bit for bit, except the rows of a
    noiseless line-search run (``assert_close_rows``); in every run the
    last row's value and residual are, bit for bit, those of its state."""
    got = run_fqge(pencil, initial, cfg)
    want = earlier_run_fqge(pencil, initial, cfg)
    assert len(got.iterates) == len(want.iterates)
    assert got.status == want.status
    if cfg.line_search and cfg.noise_sigma == 0:
        assert_close_rows(got, want)
    else:
        for row, ref in zip(got.iterates, want.iterates):
            for name in ROW_FIELDS:
                assert_bitwise(getattr(row, name), getattr(ref, name), (row.s, name))
            assert_bitwise(row.state.amps, ref.state.amps, (row.s, "state.amps"))
        assert_bitwise(got.eigenvalue, want.eigenvalue, "eigenvalue")
        assert_bitwise(got.state.amps, want.state.amps, "result state.amps")
    assert all(not row.amps.flags.writeable for row in got.iterates)
    # the reported eigenvalue and residual are those of the returned state
    last = got.iterates[-1]
    a_psi, b_psi, a, b = pencil.apply(last.amps)
    value = rayleigh_quotient(a, b, 0)
    assert_bitwise(last.value, value, "last value")
    assert_bitwise(last.residual, _relative_residual(a_psi, b_psi, value), "last residual")
    assert_bitwise(got.eigenvalue, last.value, "eigenvalue")
    assert got.state is last.state
    return got


def demo_pencil(extra=()):
    return Pencil(PauliSum(2, A_TERMS + list(extra)), PauliSum(2, B_TERMS))


CONFIGS = {
    "fixed": FqgeConfig(),
    "line-search": FqgeConfig(line_search=True),
    "noisy": FqgeConfig(noise_sigma=0.01, seed=3),
    "noisy-line-search": FqgeConfig(line_search=True, noise_sigma=0.01, seed=3),
}


@pytest.mark.parametrize("name", list(CONFIGS))
def test_demo_bitwise(name):
    got = assert_same_run(demo_pencil(), basis_state(2, 0), CONFIGS[name])
    assert len(got.iterates) >= 2


@pytest.mark.parametrize("name", ["fixed", "line-search"])
def test_complex_demo_bitwise(name):
    """0.15*XY gives A an odd number of Y factors: complex rows."""
    pencil = demo_pencil([(0.15, "XY")])
    assert not pencil.real
    got = assert_same_run(pencil, basis_state(2, 0), CONFIGS[name])
    assert np.iscomplexobj(got.iterates[-1].amps)


@pytest.mark.parametrize("n", range(2, 9))
@pytest.mark.parametrize("line_search", [False, True], ids=["fixed", "line-search"])
def test_ising_bitwise(n, line_search):
    pencil = parse_problem(BENCH_PROBLEMS.ising_problem(n, 1))
    got = assert_same_run(pencil, basis_state(n, 0), FqgeConfig(line_search=line_search))
    assert got.iterates[-1].amps.dtype == np.float64


@pytest.mark.parametrize("line_search", [False, True], ids=["fixed", "line-search"])
def test_unnormalized_complex_start_bitwise(line_search):
    rng = np.random.default_rng(31)
    pencil, _, _ = random_pencil(rng, 3)
    v = rng.normal(size=8) + 1j * rng.normal(size=8)
    initial = StateVector(3, 2.5 * v, normalized=False)
    cfg = FqgeConfig(line_search=line_search, epsilon=1e-12, max_iters=40)
    assert_same_run(pencil, initial, cfg)


def _apply_g_inputs():
    """The (lcu, state) pairs acceptance criterion 6 checks: every update
    row of a line-search run from |00>, random states with random complex
    steps, and the eigenvectors at delta = 0.2."""
    pencil = demo_pencil()
    result = run_fqge(pencil, basis_state(2, 0), FqgeConfig(line_search=True))
    for row in result.iterates[:-1]:
        yield build_lcu(row.state, pencil, row.delta_used, row.value), row.state
    rng = np.random.default_rng(13)
    for _ in range(10):
        s = random_state(rng, 2)
        delta = complex(rng.normal(), rng.normal()) * 0.2
        yield build_lcu(s, pencil, delta, loss_state(s, pencil)), s
    ref = generalized_eig(pencil)
    for k in range(4):
        v = ref.eigenvectors[:, k]
        s = StateVector(2, v / np.linalg.norm(v))
        yield build_lcu(s, pencil, 0.2, float(ref.eigenvalues[k])), s


def test_apply_g_bitwise():
    pairs = list(_apply_g_inputs())
    assert len(pairs) >= 15
    for lcu, state in pairs:
        got, got_p = apply_g(lcu, state)
        want, want_p = earlier_apply_g(lcu, state)
        assert_bitwise(got.amps, want.amps, "apply_g amps")
        assert_bitwise(got_p, want_p, "success probability")
        assert got.normalized is want.normalized is False


def test_public_views_bitwise():
    """residual and line_search share the one residual helper; each equals
    the earlier expression bit for bit."""
    rng = np.random.default_rng(5)
    cases = [(demo_pencil(), random_state(rng, 2)) for _ in range(4)]
    cases += [(demo_pencil([(0.15, "XY")]), random_state(rng, 2)) for _ in range(4)]
    cases += [(random_pencil(rng, 3)[0], random_state(rng, 3)) for _ in range(4)]
    for pencil, state in cases:
        a_psi, b_psi, a, b = applied = pencil.apply(state.amps)
        f = rayleigh_quotient(a, b, 0)
        assert_bitwise(residual(state, pencil), _relative_residual(a_psi, b_psi, f), "residual")
        direction = StateVector(state.n, _direction(a_psi, b_psi, f, b), normalized=False)
        got = line_search(state, direction, pencil)
        want = _line_search(state.amps, direction.amps, applied, pencil)
        assert_bitwise(got[0], want[0], "delta")
        assert_bitwise(got[1], want[1], "predicted")
