"""Hyperbolic and bicomplex numbers in the idempotent basis.

The idempotent units e1 and e2 satisfy e1*e1 = e1, e2*e2 = e2,
e1*e2 = 0 and e1 + e2 = 1, so addition and multiplication act
componentwise on the pair of coefficients. A :class:`Hyperbolic`
number has real coefficients, a :class:`Bicomplex` number has complex
ones; both inherit that componentwise arithmetic, with moduli, zero
tests and reprs, from one private core class. The
hyperbolic unit j equals e1 - e2.

All values are immutable and every function here is pure, so the whole
module is safe for concurrent use.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Iterable, NamedTuple, Sequence, Union

__all__ = [
    "Hyperbolic",
    "Bicomplex",
    "Order",
    "compare_d",
    "leq_d",
    "lt_d",
    "sup_d",
    "check_convergence",
    "check_series",
    "SeriesWitness",
    "E1",
    "E2",
    "ONE",
    "ZERO",
    "J",
]

_RealLike = Union[int, float]


class _Idempotent:
    """Componentwise arithmetic on the coefficient pair (e1, e2).

    Subclasses are frozen dataclasses (init=False and repr=False keep
    these methods) that set the coefficient type ``_FIELD`` and a
    converter ``_coerce``, which returns None to refuse an operand; so
    hyperbolic meets bicomplex on the bicomplex side.
    """

    _FIELD: type

    def __init__(self, e1, e2) -> None:
        object.__setattr__(self, "e1", self._FIELD(e1))
        object.__setattr__(self, "e2", self._FIELD(e2))

    def __add__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return type(self)(self.e1 + other.e1, self.e2 + other.e2)

    __radd__ = __add__

    def __sub__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return type(self)(self.e1 - other.e1, self.e2 - other.e2)

    def __rsub__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return other - self

    def __mul__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return type(self)(self.e1 * other.e1, self.e2 * other.e2)

    __rmul__ = __mul__

    def __neg__(self):
        return type(self)(-self.e1, -self.e2)

    def is_zero(self) -> bool:
        return self.e1 == 0 and self.e2 == 0

    def d_modulus(self) -> "Hyperbolic":
        """Componentwise modulus |w1|*e1 + |w2|*e2; lands in D+."""
        return Hyperbolic(abs(self.e1), abs(self.e2))

    def __repr__(self) -> str:
        return f"{type(self).__name__}({self.e1!r}, {self.e2!r})"


@dataclass(frozen=True, init=False, repr=False)
class Hyperbolic(_Idempotent):
    """A number u*e1 + v*e2 with real coefficients.

    Attributes
    ----------
    e1, e2 : float
        Coefficients of the idempotent units.
    """

    e1: float
    e2: float

    _FIELD = float

    @staticmethod
    def _coerce(x: "Hyperbolic | _RealLike") -> "Hyperbolic | None":
        if isinstance(x, Hyperbolic):
            return x
        if hasattr(x, "__float__") and not isinstance(x, complex):
            return Hyperbolic(x, x)
        return None

    @staticmethod
    def from_real(x: _RealLike) -> "Hyperbolic":
        """Embed a real number as x*(e1 + e2)."""
        return Hyperbolic(x, x)

    def in_d_plus(self) -> bool:
        """True iff both coefficients are >= 0."""
        return self.e1 >= 0.0 and self.e2 >= 0.0

    def reciprocal(self) -> "Hyperbolic":
        """Componentwise reciprocal; the inverse for the ring product.

        Raises
        ------
        ValueError
            If either coefficient is zero (zero and zero divisors
            have no inverse).
        """
        if self.e1 == 0.0 or self.e2 == 0.0:
            raise ValueError("not invertible")
        return Hyperbolic(1.0 / self.e1, 1.0 / self.e2)

    def as_bicomplex(self) -> "Bicomplex":
        return Bicomplex(self.e1, self.e2)


@dataclass(frozen=True, init=False, repr=False)
class Bicomplex(_Idempotent):
    """A number w1*e1 + w2*e2 with complex coefficients.

    The canonical form z1 + i2*z2 relates to the idempotent one by
    w1 = z1 - i1*z2 and w2 = z1 + i1*z2, where i1 is the imaginary
    unit of the coefficient field.
    """

    e1: complex
    e2: complex

    _FIELD = complex

    @staticmethod
    def _coerce(x: "Bicomplex | complex | _RealLike") -> "Bicomplex | None":
        if isinstance(x, Bicomplex):
            return x
        if isinstance(x, Hyperbolic):
            return x.as_bicomplex()
        if isinstance(x, (int, float, complex)) or hasattr(x, "__complex__"):
            return Bicomplex(x, x)
        return None

    @staticmethod
    def from_canonical(z1: complex, z2: complex) -> "Bicomplex":
        """Build from the canonical pair (z1, z2) of z1 + i2*z2."""
        z1, z2 = complex(z1), complex(z2)
        return Bicomplex(z1 - 1j * z2, z1 + 1j * z2)

    def to_canonical(self) -> tuple[complex, complex]:
        """Return (z1, z2) with z1 = (w1+w2)/2 and z2 = i1*(w1-w2)/2."""
        return ((self.e1 + self.e2) / 2, 1j * (self.e1 - self.e2) / 2)

    @staticmethod
    def zero() -> "Bicomplex":
        return Bicomplex(0j, 0j)

    @staticmethod
    def one() -> "Bicomplex":
        return Bicomplex(1 + 0j, 1 + 0j)

    def __truediv__(self, other: "Bicomplex | complex | _RealLike") -> "Bicomplex":
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        if other.e1 == 0 or other.e2 == 0:
            raise ValueError("not invertible")
        return Bicomplex(self.e1 / other.e1, self.e2 / other.e2)

    def is_zero_divisor(self) -> bool:
        """True iff the number is nonzero and one coefficient is zero.

        Equivalent to z1**2 + z2**2 = 0 for a nonzero number in
        canonical form.
        """
        return (not self.is_zero()) and (self.e1 == 0 or self.e2 == 0)

    def as_hyperbolic(self) -> Hyperbolic:
        """Narrow to a hyperbolic number.

        Raises
        ------
        ValueError
            If either coefficient has a nonzero imaginary part.
        """
        if self.e1.imag != 0.0 or self.e2.imag != 0.0:
            raise ValueError("coefficients are not real")
        return Hyperbolic(self.e1.real, self.e2.real)


E1 = Hyperbolic(1.0, 0.0)
E2 = Hyperbolic(0.0, 1.0)
ONE = Hyperbolic(1.0, 1.0)
ZERO = Hyperbolic(0.0, 0.0)
J = Hyperbolic(1.0, -1.0)


class Order(Enum):
    """Outcome of comparing two hyperbolic numbers.

    The order is partial: a <= b iff b - a has both coefficients >= 0.
    Numbers whose difference has mixed signs are INCOMPARABLE, and
    callers must handle that case explicitly.
    """

    LESS = "Less"
    EQUAL = "Equal"
    GREATER = "Greater"
    INCOMPARABLE = "Incomparable"


def compare_d(a: Hyperbolic, b: Hyperbolic) -> Order:
    """Compare two hyperbolic numbers under the componentwise order."""
    du = b.e1 - a.e1
    dv = b.e2 - a.e2
    if du == 0.0 and dv == 0.0:
        return Order.EQUAL
    if du >= 0.0 and dv >= 0.0:
        return Order.LESS
    if du <= 0.0 and dv <= 0.0:
        return Order.GREATER
    return Order.INCOMPARABLE


def leq_d(a: Hyperbolic, b: Hyperbolic) -> bool:
    """True iff a precedes or equals b (b - a lies in D+)."""
    return b.e1 - a.e1 >= 0.0 and b.e2 - a.e2 >= 0.0


def lt_d(a: Hyperbolic, b: Hyperbolic) -> bool:
    """Strict order: a precedes b and a != b.

    Equality in one coefficient is allowed as long as the other is
    strictly smaller.
    """
    return leq_d(a, b) and (a.e1 != b.e1 or a.e2 != b.e2)


def _lt_d_rows(u, bound):
    """:func:`lt_d` per column of (e1, e2) rows, comparing the sides directly.

    ``bound`` broadcasts against ``u``: a scalar t for t*(e1 + e2), or a
    (2, 1) column.
    """
    return (u <= bound).all(axis=0) & (u != bound).any(axis=0)


def sup_d(items: Iterable[Hyperbolic]) -> Hyperbolic:
    """Componentwise maxima of a nonempty collection.

    The supremum may lie outside the collection itself. It is an upper
    bound, and no strictly smaller comparable number is one.

    Raises
    ------
    ValueError
        If the collection is empty.
    """
    items = list(items)
    if not items:
        raise ValueError("empty set has no supremum")
    return Hyperbolic(
        max(h.e1 for h in items),
        max(h.e2 for h in items),
    )


def _require_positive_epsilon(epsilon: Hyperbolic) -> None:
    if not (epsilon.e1 > 0.0 and epsilon.e2 > 0.0):
        raise ValueError("epsilon must be strictly positive in both components")


def check_convergence(
    prefix: Sequence[Hyperbolic],
    candidate: Hyperbolic,
    epsilon: Hyperbolic,
    tail_start: int,
) -> bool:
    """Finite-prefix convergence witness.

    True iff |prefix[n] - candidate|_D is strictly below epsilon for
    every n >= tail_start, where tail_start is a 0-based index into
    the prefix. This witnesses convergence on the data supplied; it is
    not a proof about the infinite sequence.

    Raises
    ------
    ValueError
        If epsilon is not strictly positive in both components, or
        tail_start falls outside the prefix.
    """
    _require_positive_epsilon(epsilon)
    if not 0 <= tail_start < len(prefix):
        raise ValueError("tail_start must index into the prefix")
    return all(
        lt_d((x - candidate).d_modulus(), epsilon) for x in prefix[tail_start:]
    )


class SeriesWitness(NamedTuple):
    """Finite-prefix witnesses for series behaviour."""

    cauchy_witness: bool
    abs_convergent_witness: bool


def _tail_is_cauchy(sums: Sequence[Hyperbolic], epsilon: Hyperbolic) -> bool:
    # Witness: the second half of the partial sums has all pairwise
    # gaps strictly below epsilon. Fixing the tail at half the data
    # keeps a lone final element from certifying an oscillating
    # series.
    tail = sums[len(sums) // 2 :]
    return all(
        lt_d((a - b).d_modulus(), epsilon)
        for i, a in enumerate(tail)
        for b in tail[i:]
    )


def check_series(terms: Sequence[Hyperbolic], epsilon: Hyperbolic) -> SeriesWitness:
    """Finite-prefix witnesses for a series of hyperbolic terms.

    ``cauchy_witness`` reports whether the second half of the partial
    sums has all pairwise differences strictly below epsilon in
    D-modulus. ``abs_convergent_witness`` reports the same for the
    partial sums of the termwise moduli. An absolute witness implies
    a Cauchy witness on the same prefix. Both are statements about
    the supplied prefix only, not proofs about the series.

    Raises
    ------
    ValueError
        If epsilon is not strictly positive in both components.
    """
    _require_positive_epsilon(epsilon)
    sums: list[Hyperbolic] = []
    abs_sums: list[Hyperbolic] = []
    acc = ZERO
    abs_acc = ZERO
    for t in terms:
        acc = acc + t
        abs_acc = abs_acc + t.d_modulus()
        sums.append(acc)
        abs_sums.append(abs_acc)
    return SeriesWitness(
        cauchy_witness=_tail_is_cauchy(sums, epsilon),
        abs_convergent_witness=_tail_is_cauchy(abs_sums, epsilon),
    )
