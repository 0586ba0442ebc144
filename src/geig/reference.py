"""Exact dense generalized eigensolver used as the brute-force oracle.

The oracle's own Sturm counts decide every eigenvalue it returns, so it
stays independent of the solvers it validates; LAPACK (``eigvalsh``) only
proposes where the bisection's first probes go.  A hand-rolled Cholesky
factor of B, blocked in panels as LAPACK's ``zpotrf``, reduces the pencil
to one Hermitian matrix by blocked triangular solves with the factor
(``ztrsm``).
Householder reflections bring that to a real symmetric tridiagonal matrix T
(Golub & Van Loan 8.3, the pattern of LAPACK's ``zhetrd``).  All
eigenvalues of T come at once from Sturm-count bisection vectorised over
the distinct brackets, which eigenvalues in one bracket share (GvL 8.4,
``dstebz``).  Every index starts from the Gershgorin bracket, and each
sweep counts at one ascending row of probes and narrows every bracket to
the probes around its index: the computed count is monotone in the shift,
so a probe narrows whichever bracket it falls in, and where the probes go
sets only how many sweeps a value takes, never the value.  The first row
is three rings of probes about each of LAPACK's eigenvalues of T; later
rows give each distinct open bracket a share of probes set by its own
width, so that all of them close in about the same sweep.  A Sturm row
costs one divide and one subtract: the pivot clamp of ``dstebz`` runs only
for a sweep whose unclamped pass met a pivot below the clamp or a NaN
above the last row, and gives the same counts as the unclamped pass
wherever that met none (``dlaneg``).  The smallest eigenvalue of B
(``eta1``) is one eigenvalue, so it is bisected alone, by scalar Sturm
passes that stop at the first negative pivot, to the same double.
Eigenvectors come from inverse iteration on T (``dstein``), computed only
when they are read and only for the lowest eigenvalues a caller asks for
(``EigenDecomposition.leading_eigenvectors``): ``geig fqge`` builds the
ground level's columns alone.  The reduction costs O(dim^3); the CLI caps
the oracle at 10 qubits by default (``GEIG_DENSE_CAP``, at most
``pauli.DEFAULT_DENSE_CAP``).
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field, replace

import numpy as np

_HERM_TOL = 1e-10
DEFAULT_CLUSTER_GAP = 1e-6  # relative to the largest |eigenvalue|
_EPS = np.finfo(np.float64).eps
_TINY = np.finfo(np.float64).tiny
_MAGNITUDE = np.int64(0x7FFF_FFFF_FFFF_FFFF)  # every bit of a double but its sign
_SIGN = np.int64(-0x8000_0000_0000_0000)
# Sturm counts per bisection sweep, split among the distinct open brackets
# (eigenvalues in one bracket share its probes): a few brackets get many
# points each, which cuts the sweeps (and the per-row Python overhead) from
# 64 to as few as 7.  Bisecting all eigenvalues of the benchmark's Ising
# pencil (seed 1) at 384 / 512 / 768 / 1024 points took medians of
# 14.5 / 15.3 / 16.0 / 16.7 ms at 7 qubits and 48.6 / 45.1 / 44.0 / 47.2 ms
# at 8 (40 interleaved rounds, one BLAS thread, 1-vCPU host).  No value beat
# 768 at both sizes by more than the quartile spread (2-7 ms), so it stays
_SWEEP_POINTS = 768
# Half-width of the first sweep's outer ring of probes about LAPACK's
# eigenvalues, relative to the bound 2 G of the Gershgorin bracket (G the
# Gershgorin bound of T): 512 eps G.  The largest error of
# ``np.linalg.eigvalsh`` measured on the reduced T was 17 / 23 / 30 / 46 eps G
# for the Ising pencils (seeds 1-3) at 7 / 8 / 9 / 10 qubits, and 59 eps G on
# a random complex Hermitian matrix of order 1024.  A radius four times wider
# took one or two more sweeps at 7 to 10 qubits; an eigenvalue outside its
# probes only takes more sweeps.  Each further ring is 8 times narrower
# (64 and 8 eps G), so a hint within 8 eps G leaves a bracket of a few
# doubles where one ring left one of a thousand.
_HINT_RADIUS = 256 * _EPS
_HINT_RINGS = 3
_PANEL = 32  # Householder reflectors per blocked update, and Cholesky columns per panel
_INVERSE_STEPS = 3
# shifts sit this far (relative to ||T||) below their eigenvalues, so that
# rounding cannot favour some directions of a degenerate eigenspace
_SHIFT_OFFSET = 1e-12
_ORTHO_GAP = 1e-3  # relative to ||T||: vectors of closer eigenvalues are re-orthogonalized


def _check_hermitian(m: np.ndarray, name: str) -> np.ndarray:
    m = np.asarray(m, dtype=np.complex128)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ValueError(f"{name} must be square, got shape {m.shape}")
    if not np.all(np.isfinite(m)):
        raise ValueError(f"{name} has non-finite entries")
    if np.max(np.abs(m - m.conj().T)) > _HERM_TOL * np.max(np.abs(m)):
        raise ValueError(f"{name} is not Hermitian within {_HERM_TOL} of its largest entry")
    return m


class _Factor:
    """The Cholesky factor ``low`` of a positive definite b = L L^H, and
    the triangular solves with it.

    The factor is blocked as LAPACK's ``zpotrf`` (GvL 4.2): each panel of
    ``_PANEL`` columns takes the earlier panels' part of L L^H off by one
    product, the row loop runs only inside the panel's diagonal block, and
    the rows below it come from one product with the inverse of that block.
    The inverses are kept in ``blocks`` as (first row, end row, inverse), so
    that ``forward`` (L^-1 c) and ``back`` (L^-H c) are blocked
    substitutions (GvL 3.1, ``ztrsm``) of one or two products per block; L
    is never factored again.
    """

    def __init__(self, b: np.ndarray):
        dim = b.shape[0]
        low = np.zeros_like(b)
        self.blocks = []
        for k0 in range(0, dim, _PANEL):
            k1 = min(k0 + _PANEL, dim)
            col = b[k0:, k0:k1] - low[k0:, :k0] @ low[k0:k1, :k0].conj().T
            diag = low[k0:k1, k0:k1]
            for i in range(k1 - k0):
                row = diag[i, :i]
                pivot = col[i, i].real - np.vdot(row, row).real
                if pivot <= 0.0:
                    raise ValueError(
                        f"B is not positive definite (pivot {pivot:.3e} at row {k0 + i})"
                    )
                diag[i, i] = math.sqrt(pivot)
                below = col[i + 1 : k1 - k0, i] - diag[i + 1 :, :i] @ row.conj()
                diag[i + 1 :, i] = below / diag[i, i]
            inverse = np.linalg.inv(diag)
            low[k1:, k0:k1] = col[k1 - k0 :] @ inverse.conj().T
            self.blocks.append((k0, k1, inverse))
        self.low = low

    def forward(self, c: np.ndarray) -> np.ndarray:
        """L^-1 c, one block of rows at a time from the top."""
        x = np.empty(c.shape, dtype=np.result_type(self.low, c))
        for k0, k1, inverse in self.blocks:
            x[k0:k1] = inverse @ (c[k0:k1] - self.low[k0:k1, :k0] @ x[:k0])
        return x

    def back(self, c: np.ndarray) -> np.ndarray:
        """L^-H c, one block of rows at a time from the bottom."""
        x = np.empty(c.shape, dtype=np.result_type(self.low, c))
        for k0, k1, inverse in reversed(self.blocks):
            x[k0:k1] = inverse.conj().T @ (c[k0:k1] - self.low[k1:, k0:k1].conj().T @ x[k1:])
        return x


def _to_key(x: np.ndarray) -> np.ndarray:
    """int64 keys ordered as the doubles are: adjacent doubles get adjacent
    keys, and both zeros get key 0."""
    bits = np.asarray(x, dtype=np.float64).view(np.int64)
    return np.where(bits < 0, -(bits & _MAGNITUDE), bits)


def _from_key(key: np.ndarray) -> np.ndarray:
    return np.where(key < 0, -key | _SIGN, key).view(np.float64)


def _gershgorin(d: np.ndarray, e: np.ndarray) -> float:
    """Bound on the magnitude of every eigenvalue of the tridiagonal (d, e)."""
    ae = np.abs(e)
    return float(np.max(np.abs(d) + np.append(ae, 0.0) + np.insert(ae, 0, 0.0)))


def _sturm_count(
    d: np.ndarray, e2: np.ndarray, x: np.ndarray, pivmin: float, buf: np.ndarray
) -> np.ndarray:
    """Number of eigenvalues of the tridiagonal (d, e), given e2 = e * e,
    below each shift in ``x``: the negative pivots of the LDL^T
    factorization of T - x, by the clamped rule of ``_clamped_pivots``.

    A fast pass runs the recurrence without the clamp, one divide and one
    subtract per row, as LAPACK's ``dlaneg`` does.  Its count stands when
    no pivot above the last row is below ``pivmin`` in magnitude (a NaN
    fails that test): the clamp is then the identity on those pivots, so
    the clamped rule would do the same operations in the same order, and
    no pivot can overflow, since e^2 / q <= 1 / tiny while |q| >= pivmin.
    The last pivot feeds no later row, and the clamp keeps its sign bit, so
    it counts the same unless it is -0.0, which the clamped rule counts as
    negative.  (A probe on an eigenvalue can make the last pivot exactly
    +0.0; such a sweep needs no second pass.)
    Otherwise the same rows are filled again and the clamped rule runs in
    full.  The pivots of every row are kept in ``buf``, a flat float64
    array of at least ``d.size * x.size`` entries that ``_bisect`` reuses
    for all its sweeps, and counted once at the end.
    """
    q = buf[: d.size * x.size].reshape(d.size, x.size)
    t = np.empty_like(x)
    _start_rows(q, d, x)
    rows = list(q)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        for prev, row, e2i in zip(rows, rows[1:], e2.tolist()):
            np.divide(e2i, prev, out=t)
            np.subtract(row, t, out=row)
    below = _negatives(q)
    # in place: a new |q| array costs more in page faults than it saves
    head, last = q[:-1], q[-1]
    if np.abs(head, out=head).min(initial=np.inf) >= pivmin and not np.signbit(last[last == 0]).any():
        return below
    _start_rows(q, d, x)
    _clamped_pivots(q, e2, pivmin, t)
    return _negatives(q)


def _start_rows(q: np.ndarray, d: np.ndarray, x: np.ndarray) -> None:
    """Fill the rows of ``q`` with d[i] - x: -x + d[i] is that bitwise."""
    np.copyto(q, -x)
    q += d[:, None]


def _negatives(q: np.ndarray) -> np.ndarray:
    """The count of negative entries in each column of ``q``, by one int16
    sum over the rows (the oracle's 2^12 rows at most fit in int16)."""
    return (q < 0).view(np.int8).sum(axis=0, dtype=np.int16)


def _clamped_pivots(q: np.ndarray, e2: np.ndarray, pivmin: float, t: np.ndarray) -> None:
    """Overwrite the rows d[i] - x of ``q`` with the pivots of T - x, ``t``
    one row of scratch.

    A pivot smaller than ``pivmin`` keeps its sign (+0 counts as positive)
    and takes magnitude ``pivmin``, so ``e^2 / q`` cannot overflow
    (``dstebz``).
    """
    for i in range(q.shape[0]):
        row = q[i]
        if i:
            np.divide(e2[i - 1], q[i - 1], out=t)
            row -= t
        np.abs(row, out=t)
        np.maximum(t, pivmin, out=t)
        np.copysign(t, row, out=row)


def _hints(d: np.ndarray, e: np.ndarray, indices: np.ndarray) -> np.ndarray:
    """LAPACK's eigenvalues of the tridiagonal (d, e) at ``indices``
    (``np.linalg.eigvalsh`` of T as a dense matrix), or none where it
    fails."""
    t = np.zeros((d.size, d.size))  # eigvalsh reads only the lower triangle
    t.flat[:: d.size + 1] = d
    t.flat[d.size :: d.size + 1] = e
    try:
        return np.linalg.eigvalsh(t)[indices]
    except np.linalg.LinAlgError:
        return np.zeros(0)


def _bisect(d: np.ndarray, e: np.ndarray, indices: np.ndarray) -> np.ndarray:
    """Eigenvalues of the given ascending indices of the real symmetric
    tridiagonal (d, e), each the largest double whose Sturm count is at most
    its index.

    Every index starts from the Gershgorin bracket (-2 G, 2 G).  Each sweep
    counts once at one ascending row of probes, in parts of the pivot
    buffer's width, and narrows every bracket to the probes around its
    index: the counts ascend along the row, since the computed count is
    monotone in x (Demmel, Dhillon & Ren 1995), so a probe narrows whichever
    bracket it falls in.  The value each bracket closes on is therefore the
    same wherever the probes go, and the schedule below only sets how many
    sweeps that takes.

    The first row holds ``_HINT_RINGS`` rings about LAPACK's eigenvalue of T
    at each index (``_hints``): the value moved ``_HINT_RADIUS`` times 2 G
    down and up, then 8 and 64 times closer.  LAPACK only proposes where to
    look, and the Sturm counts decide every value.  The brackets then are
    disjoint or equal and in index order, and each later row gives every
    distinct open bracket a share of probes set by its own key width W_i:
    ``max(1, ceil(W_i^(1/S)) - 1)`` evenly spaced probes, for the smallest
    number of sweeps S at which the shares add up to at most
    ``_SWEEP_POINTS`` (one each when none does).  A bracket of p probes is
    at most W_i / (p + 1) wide after the sweep, so every bracket closes in
    about S sweeps, where an even share spends most probes on brackets
    that are nearly closed.  A closed bracket gets none.

    The brackets are split on the ordered integer keys of the doubles, not
    on their values, so every bracket reaches adjacent doubles in at most 64
    halvings at every scale, and an eigenvalue far below ||T|| keeps its
    relative accuracy.
    """
    indices = np.asarray(indices, dtype=np.int64)
    e2 = e * e
    pivmin = _TINY * max(1.0, float(np.max(e2, initial=0.0)))
    columns = max(_SWEEP_POINTS, indices.size)
    buf = np.empty(d.size * columns)  # every sweep's pivots
    bound = 2.0 * _gershgorin(d, e)
    lo = np.full(indices.shape, _to_key(-bound))
    hi = np.full(indices.shape, _to_key(bound))
    hints = _hints(d, e, indices)
    radii = _HINT_RADIUS * bound * 8.0 ** -np.arange(_HINT_RINGS)
    # sorted as doubles: the first int64 sort of a process maps numpy's int64 sort code
    row = np.sort(np.concatenate([hints - r for r in radii] + [hints + r for r in radii]))
    probe = _to_key(row[(row > -bound) & (row < bound)])
    while True:
        counts = np.empty(probe.size, dtype=np.int16)
        for k in range(0, probe.size, columns):
            part = _from_key(probe[k : k + columns])
            counts[k : k + columns] = _sturm_count(d, e2, part, pivmin, buf)
        # the probes around each index, with the ends of the key range past the row
        around = np.concatenate([[np.iinfo(np.int64).min], probe, [np.iinfo(np.int64).max]])
        below = np.searchsorted(counts, indices, side="right")
        lo = np.maximum(lo, around[below])
        hi = np.minimum(hi, around[below + 1])
        # keys differ by up to 2^64, so widths and offsets are taken in uint64
        live = hi.view(np.uint64) - lo.view(np.uint64) > 1
        if not live.any():
            return _from_key(lo)
        # open brackets are disjoint or equal, so a new lower end starts a new one
        start, stop = lo[live], hi[live]
        first = np.ones(start.size, dtype=bool)
        first[1:] = start[1:] != start[:-1]
        start, stop = start[first], stop[first]
        width = stop.view(np.uint64) - start.view(np.uint64)
        points = _shares(width)
        step = np.maximum(width // (points + 1).astype(np.uint64), np.uint64(1))
        # bracket i's probes: start_i + step_i * (1 .. points_i), below stop_i
        owner = np.repeat(np.arange(start.size), points)
        rank = np.arange(owner.size) - np.repeat(np.cumsum(points) - points, points) + 1
        probe = start.view(np.uint64)[owner] + step[owner] * rank.astype(np.uint64)
        probe = np.minimum(probe.view(np.int64), stop[owner] - 1)


def _shares(width: np.ndarray) -> np.ndarray:
    """Probes for each open bracket of the given key widths (all above 1):
    ``max(1, ceil(W_i^(1/S)) - 1)`` for the smallest S in 1..64 at which
    they add up to at most ``_SWEEP_POINTS``, or one each when none does.
    The sum falls as S grows, so S is found by halving the range."""
    logs = np.log2(width.astype(np.float64))

    def over(sweeps: int) -> np.ndarray:
        return np.maximum(np.ceil(np.exp2(logs / sweeps)) - 1.0, 1.0).astype(np.int64)

    low, high = 1, 64  # 64 sweeps take every width below 2^64 to one probe
    while low < high:
        mid = (low + high) // 2
        if over(mid).sum() <= _SWEEP_POINTS:
            high = mid
        else:
            low = mid + 1
    return over(low)


def _bisect_smallest(d: np.ndarray, e: np.ndarray) -> float:
    """``_bisect(d, e, [0])[0]``, the smallest eigenvalue of the tridiagonal
    (d, e), by halving the one key bracket (as ``dstebz`` bisects a single
    eigenvalue).

    Each probe asks only whether T - x has a negative pivot, so one scalar
    pass of Python floats runs the rows until the first one.  It applies
    the clamp of ``_clamped_pivots`` to a pivot below ``pivmin``, a zero or
    a NaN as it meets one; the other pivots are those of the unclamped
    pass, so every probe counts as ``_sturm_count`` does and the bisection
    ends on the same double.
    """
    e2 = [0.0] + (e * e).tolist()  # row 0 subtracts 0.0 / 1.0: d[0] - x bitwise
    pivmin = float(_TINY) * max(1.0, max(e2))
    bound = 2.0 * _gershgorin(d, e)
    lo, hi = int(_to_key(-bound)), int(_to_key(bound))
    rows = list(zip(d.tolist(), e2))
    while hi - lo > 1:
        mid = (lo + hi) // 2
        x = float(np.int64(abs(mid)).view(np.float64))
        x = -x if mid < 0 else x
        q = 1.0
        for di, ei in rows:
            q = (di - x) - ei / q
            if not abs(q) >= pivmin:
                q = math.copysign(max(abs(q), pivmin), q)
            if q < 0.0:
                hi = mid
                break
        else:
            lo = mid
    return float(_from_key(np.int64(lo)))


def _clusters(values: np.ndarray, norm: float) -> np.ndarray:
    """Where the ascending ``values`` break into clusters of eigenvalues
    closer than ``_ORTHO_GAP`` times ``norm``: the index each later cluster
    starts at."""
    return np.flatnonzero(np.diff(values) > _ORTHO_GAP * norm) + 1


def _start_columns(size: int, k: int) -> np.ndarray:
    """The leading k columns of ``default_rng(size).uniform(-1, 1, (size,
    size))``, drawn row by row with the draws of the other columns skipped
    by advancing the generator, not made."""
    rng = np.random.default_rng(size)
    out = np.empty((size, k))
    for row in out:
        row[:] = rng.uniform(-1.0, 1.0, k)
        rng.bit_generator.advance(size - k)
    return out


def _inverse_iteration(d: np.ndarray, e: np.ndarray, values: np.ndarray) -> np.ndarray:
    """Orthonormal eigenvector columns of the unreduced tridiagonal (d, e)
    for its lowest eigenvalues ``values``, ascending; the last must end a
    cluster of ``_clusters``.

    Each column solves (T - s) y = b a few times from a fixed random start,
    with the shift s just below its eigenvalue, through one LU factorization
    with partial pivoting per eigenvalue; all eigenvalues go through each
    row step together.  A pivot below eps ||T|| is raised to it.  After
    every solve the columns of each cluster of eigenvalues closer than
    1e-3 ||T|| are re-orthonormalized, which keeps the vectors of an exactly
    degenerate eigenvalue orthonormal.  The starts are the leading columns
    of one draw for all of T's eigenvalues, and every step acts on each
    column or cluster alone, so a column is the one all eigenvalues give.
    """
    size = d.size
    norm = _gershgorin(d, e)
    floor = _EPS * norm
    shifts = values - _SHIFT_OFFSET * norm
    ext = np.append(e, 0.0)
    # LU of each T - s, one column per eigenvalue; U has two superdiagonals
    u0 = np.empty((size, values.size))
    u1 = np.zeros((size, values.size))
    u2 = np.zeros((size, values.size))
    mult = np.empty((size - 1, values.size))
    swap = np.empty((size - 1, values.size), dtype=bool)
    diag = d[0] - shifts
    upper = np.full(values.size, ext[0])
    for i in range(size - 1):
        below = ext[i]
        nxt = d[i + 1] - shifts
        sw = np.abs(diag) < abs(below)
        pivot = np.where(sw, below, diag)
        pivot = np.copysign(np.maximum(np.abs(pivot), floor), pivot)
        mult[i] = np.where(sw, diag, below) / pivot
        u0[i] = pivot
        u1[i] = np.where(sw, nxt, upper)
        u2[i] = np.where(sw, ext[i + 1], 0.0)
        swap[i] = sw
        diag = np.where(sw, upper, nxt) - mult[i] * u1[i]
        upper = np.where(sw, 0.0, ext[i + 1]) - mult[i] * u2[i]
    u0[size - 1] = np.copysign(np.maximum(np.abs(diag), floor), diag)

    cuts = _clusters(values, norm)
    clusters = [
        (start, stop)
        for start, stop in zip(np.r_[0, cuts], np.r_[cuts, values.size])
        if stop - start > 1
    ]
    y = _start_columns(size, values.size)
    for _ in range(_INVERSE_STEPS):
        for i in range(size - 1):
            top = np.where(swap[i], y[i + 1], y[i])
            y[i + 1] = np.where(swap[i], y[i], y[i + 1]) - mult[i] * top
            y[i] = top
        y[size - 1] /= u0[size - 1]
        y[size - 2] = (y[size - 2] - u1[size - 2] * y[size - 1]) / u0[size - 2]
        for i in range(size - 3, -1, -1):
            y[i] = (y[i] - u1[i] * y[i + 1] - u2[i] * y[i + 2]) / u0[i]
        # the squares added row after row, as ``np.sum(axis=0)`` adds them for
        # two columns or more; for one column it would add them pairwise
        y /= np.sqrt(np.add.accumulate(y * y, axis=0)[-1])
        for start, stop in clusters:
            y[:, start:stop] = np.linalg.qr(y[:, start:stop])[0]
    return y


class _Tridiagonal:
    """Householder reduction of a Hermitian matrix M:
    M = 2^exponent Q D T D^H Q^H, with T real symmetric tridiagonal
    (diagonal ``d``, off-diagonal ``e >= 0``) and D = diag(``phases``)
    unitary.  Q = H_0 H_1 ... is the product of the reflectors
    H = I - 2 v v^H, kept in ``panels`` of ``_PANEL``: (first row, V), the
    unit v of each reflector one column of V.

    M is scaled by the power of two nearest its largest real or imaginary
    part, so no norm can under- or overflow; the scaling, and the scaling
    back of the eigenvalues, are exact.  A real M is reduced in real
    arithmetic.
    """

    def __init__(self, m: np.ndarray):
        a = m.copy() if m.imag.any() else m.real.copy()
        dim = a.shape[0]
        parts = a.view(np.float64)
        self.exponent = math.frexp(float(np.max(np.abs(parts))))[1]
        np.ldexp(parts, -self.exponent, out=parts)
        d = np.zeros(dim)
        sub = np.zeros(max(dim - 1, 0), dtype=a.dtype)
        self.panels = []
        # blocked as in LAPACK's zlatrd: within a panel, each similarity
        # H A H = A - v w^H - w v^H is kept as the columns v, w of V, W and
        # applied to the trailing matrix once per panel, by one product
        for k0 in range(0, dim - 2, _PANEL):
            k1 = min(k0 + _PANEL, dim - 2)
            vs = np.zeros((dim - k0 - 1, k1 - k0), dtype=a.dtype)
            ws = np.zeros_like(vs)
            for j, k in enumerate(range(k0, k1)):
                # column k from row k + 1 on, with the panel's earlier updates
                # applied; row k is row j - 1 of V and W (none while j == 0)
                vp, wp = vs[j:, :j], ws[j:, :j]
                col = a[k + 1 :, k] - vp @ ws[j - 1, :j].conj() - wp @ vs[j - 1, :j].conj()
                d[k] = a[k, k].real - 2.0 * np.vdot(ws[j - 1, :j], vs[j - 1, :j]).real
                alpha = math.sqrt(float(np.vdot(col, col).real))
                if alpha == 0.0:
                    continue
                head = abs(col[0])
                phase = col[0] / head if head else 1.0
                sub[k] = -phase * alpha
                v = col
                v[0] = phase * (head + alpha)
                v /= math.sqrt(2.0 * alpha * (alpha + head))
                p = a[k + 1 :, k + 1 :] @ v - vp @ (wp.conj().T @ v) - wp @ (vp.conj().T @ v)
                p *= 2.0
                vs[j:, j] = v
                ws[j:, j] = p - np.vdot(v, p).real * v
            rest = a[k1:, k1:]
            tail = k1 - k0 - 1
            rest -= vs[tail:] @ ws[tail:].conj().T + ws[tail:] @ vs[tail:].conj().T
            self.panels.append((k0 + 1, vs))
        low = max(dim - 2, 0)
        d[low:] = a.diagonal()[low:].real
        if dim >= 2:
            sub[dim - 2] = a[dim - 1, dim - 2]
        self.d = d + 0.0  # + 0.0 turns -0.0 into 0.0
        self.e = np.abs(sub)
        unit = np.divide(sub, self.e, out=np.ones_like(sub), where=self.e > 0)
        phases = np.cumprod(np.insert(unit, 0, 1.0))
        self.phases = phases / np.abs(phases)
    @functools.cached_property
    def values(self) -> np.ndarray:
        """Ascending eigenvalues of T."""
        return _bisect(self.d, self.e, np.arange(self.d.size))

    @property
    def eigenvalues(self) -> np.ndarray:
        """Ascending eigenvalues of M."""
        return np.ldexp(self.values, self.exponent)

    def smallest(self) -> float:
        """Smallest eigenvalue of M, by the one-point bisection."""
        return float(np.ldexp(_bisect_smallest(self.d, self.e), self.exponent))

    def eigenvectors(self, count: int) -> np.ndarray:
        """Orthonormal eigenvector columns of M for its ``count`` lowest
        eigenvalues, in the order of ``eigenvalues``.

        T is split at its exactly-zero off-diagonals; a 1x1 block is its own
        eigenvector, a larger block goes through inverse iteration for its
        lowest eigenvalues up to the end of the last one's cluster, so the
        re-orthonormalization acts on the columns it acts on for all
        eigenvalues.  The reflectors act on the ``count`` columns alone.
        """
        dim = self.d.size
        cuts = np.flatnonzero(self.e == 0.0) + 1
        blocks = list(zip(np.r_[0, cuts], np.r_[cuts, dim]))
        found = [
            self.values if stop - start == dim
            else self.d[start:stop] if stop - start == 1
            else _bisect(self.d[start:stop], self.e[start : stop - 1], np.arange(stop - start))
            for start, stop in blocks
        ]
        # where the count lowest eigenvalues sit in the blocks' values, in
        # order; each block's values ascend, so a block gives a leading run
        order = np.argsort(np.concatenate(found), kind="stable")[:count]
        z = np.zeros((dim, order.size))
        for (start, stop), values in zip(blocks, found):
            (picked,) = np.nonzero((order >= start) & (order < stop))
            if stop - start == 1:
                z[start, picked] = 1.0
            elif picked.size:
                d, e = self.d[start:stop], self.e[start : stop - 1]
                ends = np.append(_clusters(values, _gershgorin(d, e)), values.size)
                end = ends[np.searchsorted(ends, picked.size)]
                z[start:stop, picked] = _inverse_iteration(d, e, values[:end])[:, : picked.size]
        vecs = self.phases[:, None] * z
        for top, vs in reversed(self.panels):
            # the panel's reflectors in compact WY form I - V S V^H (LAPACK zlarft)
            gram = vs.conj().T @ vs
            s = np.zeros_like(gram)
            for j in range(gram.shape[0]):
                s[:j, j] = -2.0 * (s[:j, :j] @ gram[:j, j])
                s[j, j] = 2.0
            vecs[top:] -= vs @ (s @ (vs.conj().T @ vecs[top:]))
        return vecs.astype(np.complex128)


@dataclass(frozen=True)
class EigenDecomposition:
    """Ascending eigenvalues, B-orthonormal eigenvector columns, and the
    smallest eigenvalue of B.

    The eigenvectors are computed from the stored reduction, and ``eta1``
    from a reduction of B, only when read, so a caller that reads only
    eigenvalues never pays for either.  ``leading_eigenvectors(k)`` builds
    the columns of the k lowest eigenvalues alone, each the column
    ``eigenvectors`` (all of them, once) holds, up to the rounding of the
    products that apply the reflectors and the factor to fewer columns.
    With ``_exponent`` b, the stored B is the pencil's over 2^b: eta1 is
    scaled back by 2^b and the eigenvectors by 2^(-b/2) (b even), both
    exactly.
    """

    eigenvalues: np.ndarray
    _reduced: _Tridiagonal = field(repr=False)
    _factor: _Factor = field(repr=False)
    _b: np.ndarray = field(repr=False)
    _exponent: int = field(default=0, repr=False)

    @functools.cached_property
    def eigenvectors(self) -> np.ndarray:
        return self.leading_eigenvectors(self.eigenvalues.size)

    def leading_eigenvectors(self, k: int) -> np.ndarray:
        """B-orthonormal eigenvector columns of the k lowest eigenvalues."""
        vecs = self._factor.back(self._reduced.eigenvectors(k))
        return np.ldexp(vecs.view(np.float64), -self._exponent // 2).view(np.complex128)

    @functools.cached_property
    def eta1(self) -> float:
        return math.ldexp(_Tridiagonal(self._b).smallest(), self._exponent)


def generalized_eig_dense(a: np.ndarray, b: np.ndarray) -> EigenDecomposition:
    """Solve a v = lambda b v for dense Hermitian a and positive definite b.

    Reduction: with b = L L^dagger, solve the standard problem for
    L^-1 a L^-dagger and back-substitute; eigenvectors come out
    B-orthonormal.
    """
    a = _check_hermitian(a, "A")
    b = _check_hermitian(b, "B")
    if a.shape != b.shape:
        raise ValueError(f"shape mismatch: A {a.shape}, B {b.shape}")
    if not (a.imag.any() or b.imag.any()):
        a, b = a.real, b.real  # a real pencil is reduced in real arithmetic
    factor = _Factor(b)
    mid = factor.forward(factor.forward(a).conj().T).conj().T
    # each half first (exactly): the sum of two entries near the float limit overflows
    mid *= 0.5
    reduced = _Tridiagonal(mid + mid.conj().T)
    return EigenDecomposition(reduced.eigenvalues, reduced, factor, b)


def generalized_eig(pencil) -> EigenDecomposition:
    """Oracle decomposition of a Pauli-sum pencil via dense reconstruction
    of ``pencil.unit`` = (unit, e, b) from its one compiled table.

    The unit pencil's eigenvalues times 2^e, its eta1 times 2^b and its
    eigenvectors times 2^(-b/2) are returned: the pencil's own, bit for bit
    wherever nothing leaves the float range (a level past it is inf).
    Refuses n above ``pauli.DEFAULT_DENSE_CAP`` before anything is allocated.
    """
    unit, e, b = pencil.unit
    out = generalized_eig_dense(*unit.dense())
    with np.errstate(over="ignore"):
        return replace(out, eigenvalues=np.ldexp(out.eigenvalues, e), _exponent=b)


def _cluster_breaks(eigenvalues) -> tuple[np.ndarray, np.ndarray]:
    """The eigenvalues sorted, and where neighbours among them are more
    than ``DEFAULT_CLUSTER_GAP`` times the largest |eigenvalue| apart: the
    boundaries between clusters, so the count does not change with the
    pencil's scale."""
    values = np.sort(np.asarray(eigenvalues, dtype=float))
    if values.size == 0:
        return values, np.zeros(0, dtype=bool)
    width = DEFAULT_CLUSTER_GAP * max(abs(values[0]), abs(values[-1]))
    # a gap past the float range is a break; two levels at one inf are none
    with np.errstate(over="ignore", invalid="ignore"):
        return values, np.diff(values) > width


def distinct_values(eigenvalues) -> list:
    """One representative (cluster mean) per eigenvalue cluster, where
    clusters are separated by more than ``DEFAULT_CLUSTER_GAP`` times the
    largest |eigenvalue|, so the count does not change with the pencil's
    scale."""
    values, breaks = _cluster_breaks(eigenvalues)
    if values.size == 0:
        return []
    with np.errstate(over="ignore", invalid="ignore"):  # NaN for a cluster of both infs
        means = [(float(np.mean(p)), p) for p in np.split(values, np.flatnonzero(breaks) + 1)]
        # where a sum is past the float range, twice the mean of the halves (exact)
        return [m if math.isfinite(m) else 2.0 * float(np.mean(0.5 * p)) for m, p in means]


def ground_multiplicity(eigenvalues) -> int:
    """Number of eigenvalues in the lowest cluster, by the rule of
    ``count_distinct``."""
    return int(np.argmax(np.append(_cluster_breaks(eigenvalues)[1], True))) + 1


def count_distinct(eigenvalues) -> int:
    """Number of eigenvalue clusters separated by more than
    ``DEFAULT_CLUSTER_GAP`` times the largest |eigenvalue|."""
    values, breaks = _cluster_breaks(eigenvalues)
    return 0 if values.size == 0 else 1 + int(np.count_nonzero(breaks))
