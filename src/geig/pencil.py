"""The operator pair (A, B) of A|psi> = lambda B|psi>, as both solvers and
the dense oracle read it: one table compiled from both sides on first use,
its action on raw amplitude rows and their brackets, its dense matrices,
the <B> positivity check and the Rayleigh quotient <A>/<B>.  Also the
integer check every configuration shares.

``Pencil.unit`` is the pencil at unit scale: each side divided by an even
power of two, which is exact, so the unit pencil's eigenvalues are the
pencil's times one power of two, bit for bit wherever nothing under- or
overflows.  Both solvers and the dense oracle run on it and scale back
only what carries scale, so none needs a guard against overflow, and the
<B> floor is 1e-12 of B's scale for every command."""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .pauli import PauliSum, apply_compiled, check_dense_cap, compile_sums, dense_compiled, overlaps

_B_FLOOR = 1e-12


@dataclass(frozen=True)
class Pencil:
    """The operator pair (A, B) of the generalized eigenproblem; B must be
    positive definite (validated at desk scale by the reference solver)."""

    A: PauliSum
    B: PauliSum

    def __post_init__(self):
        if self.A.n != self.B.n:
            raise ValueError(
                f"qubit counts differ: A has {self.A.n}, B has {self.B.n}"
            )

    @property
    def n(self) -> int:
        return self.A.n

    @cached_property
    def _compiled(self) -> tuple:
        """A and B compiled into one table, ``compile_sums((A, B))``, on
        first use: one gather per X-mask serves both sides."""
        return compile_sums((self.A, self.B), "AB")

    @cached_property
    def unit(self) -> tuple:
        """(unit, e, b): the pencil with A divided by 2^a and B by 2^b, for
        each side the even exponent that brings its largest |coefficient|
        into [1/2, 2) (0 for a side with no terms), and e = a - b.  Every
        eigenvalue of the pencil is 2^e times the matching one of ``unit``,
        its eta1 2^b times unit's and an eigenvector 2^(-b/2) times unit's,
        bit for bit wherever nothing leaves the float range.  A coefficient
        more than 2^1022 below its side's largest rounds into the subnormals
        or to zero, far below that side's rounding.

        A side at exponent 0 is already canonical and at unit scale, so it
        is reused as it is, and a pencil with both at 0 is its own unit
        pencil, sharing its compiled table."""
        largest = (max(map(abs, side.coeffs), default=0.0) for side in (self.A, self.B))
        a, b = (math.frexp(x)[1] & ~1 for x in largest)
        if a == b == 0:
            return self, 0, 0

        def scaled(side: PauliSum, k: int) -> PauliSum:
            if k == 0:
                return side
            return PauliSum(side.n, [(math.ldexp(c, -k), p) for c, p in side.terms])

        return Pencil(scaled(self.A, a), scaled(self.B, b)), a - b, b

    @property
    def real(self) -> bool:
        """True when every compiled diagonal is float64 (no string of the
        pencil has an odd number of Y factors): real rows stay real."""
        return self._compiled[1].dtype == np.float64

    def apply(self, amps: np.ndarray) -> tuple:
        """(A psi, B psi, <A>, <B>) for raw amplitude rows psi of shape
        (..., 2^n): both sides through the compiled table, and the real
        brackets <psi|A|psi>, <psi|B|psi> of each row (unchecked), scalars
        for a single state.  Real rows on a real pencil give float64
        results.  Both brackets come from one ``pauli.overlaps`` call on
        the stacked images, each bitwise equal to ``np.vdot`` of its row,
        so a row of a batch gets the brackets of the same state alone."""
        images = apply_compiled(self._compiled, amps)
        a, b = overlaps(amps, images).real
        return images[0], images[1], a, b

    def dense(self) -> np.ndarray:
        """The dense matrices of A and B, shape (2, 2^n, 2^n), scattered
        from the compiled table; each equals ``dense_matrix`` of its side
        bitwise.  Refuses n above ``pauli.DEFAULT_DENSE_CAP`` before
        anything is allocated."""
        check_dense_cap(self.n)
        return dense_compiled(self._compiled)


def check_b(b, e: int):
    """Return <B> (a float, or an array with one entry per state) after
    checking that it is above 1e-12, as it is for every state when B is
    positive definite and not near singular.  NaN fails the one comparison
    too.  ``b`` is a bracket of B / 2^e, the B of ``Pencil.unit``, and e
    B's exponent: the floor is 1e-12 of B's scale 2^e, and the message
    names the pencil's own bracket 2^e b."""
    low = b if isinstance(b, float) else b.min()
    if not low > _B_FLOOR:
        cause = "B is not positive definite"
        if low != low:
            cause = "the bracket is not finite"
        elif low > 0.0 and e != 0:
            cause = f"that is at most {_B_FLOOR:g} of B's scale 2^{e}, too near singular"
        # inf past the float range, silently where the caller ignores the overflow
        raise ValueError(f"<B> = {np.ldexp(low, e):.3e} at the evaluated state; {cause}")
    return b


def check_int(name: str, value, minimum: int) -> None:
    """Require an integer (not a bool) no smaller than ``minimum``."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise ValueError(f"{name} must be an integer, got {value!r}")
    if value < minimum:
        raise ValueError(f"{name} must be >= {minimum}, got {value}")


def rayleigh_quotient(a, b, e: int):
    """F = <A>/<B>, after ``check_b(b, e)``; floats or arrays."""
    return a / check_b(b, e)
