"""T-valued measures on finite atomic spaces.

A measure is an atom-indexed table of bicomplex masses, stored as two
complex component arrays in the idempotent basis. Set values are
finite sums of atom masses, so sigma-additivity holds by construction.
Kinds form a chain: DPlus (masses in D+, finite totals) inside D
(masses in D+) inside SignedD (real components) inside T (anything).

Measures are immutable after construction and all operations are
pure, so concurrent reads are safe.
"""

from __future__ import annotations

from enum import Enum
from typing import Iterable, Mapping, Union

import numpy as np

from .numbers import Bicomplex, Hyperbolic, sup_d
from .spaces import FiniteSpace, SetMask, set_partitions

__all__ = [
    "MeasureKind",
    "TMeasure",
    "total_variation_bruteforce",
    "variation_measure",
    "dominates",
    "normalize_to_probability",
    "probability_variant",
    "subset_sums",
]

_MassLike = Union[Bicomplex, Hyperbolic, complex, float, int]

# Hard caps for the exhaustive enumerators; beyond these the operation
# refuses to run rather than silently sampling.
PARTITION_CAP = 12
SUBSET_CAP = 20


class MeasureKind(Enum):
    """Strictest value-range class a measure belongs to."""

    T = "T"
    SIGNED_D = "signedD"
    D = "D"
    D_PLUS = "D+"


def _as_components(value: _MassLike) -> tuple[complex, complex]:
    if isinstance(value, Bicomplex):
        return value.e1, value.e2
    if isinstance(value, Hyperbolic):
        return complex(value.e1), complex(value.e2)
    value = complex(value)
    return value, value


class AtomTable:
    """An atom-indexed table of bicomplex values, immutable once built.

    The shared core of :class:`TMeasure` and ``TFunction``: both are
    two complex component arrays in the idempotent basis. The roles
    differ only in the scalars they accept and the operations they add.

    Parameters
    ----------
    space : FiniteSpace
    e1, e2 : array_like of complex
        Component values per atom, in atom index order.
    """

    # ``_kind`` caches TMeasure.kind; the slot lives here so both roles
    # share one constructor.
    __slots__ = ("space", "e1", "e2", "_kind")
    _PLURAL = "tables"
    _SCALARS: tuple = ()

    def __init__(self, space: FiniteSpace, e1, e2) -> None:
        a1 = np.array(e1, dtype=np.complex128)
        a2 = np.array(e2, dtype=np.complex128)
        if a1.shape != (space.size,) or a2.shape != (space.size,):
            raise ValueError("component arrays must have one entry per atom")
        a1.setflags(write=False)
        a2.setflags(write=False)
        object.__setattr__(self, "space", space)
        object.__setattr__(self, "e1", a1)
        object.__setattr__(self, "e2", a2)
        object.__setattr__(self, "_kind", None)

    def __setattr__(self, name, value):
        raise AttributeError(f"{type(self).__name__} is immutable")

    def atom(self, index: int) -> Bicomplex:
        """Value of the atom at ``index``."""
        return Bicomplex(complex(self.e1[index]), complex(self.e2[index]))

    def is_finite(self) -> bool:
        """True iff both components of every atom value are finite."""
        return bool(
            np.all(np.isfinite(self.e1.real))
            and np.all(np.isfinite(self.e1.imag))
            and np.all(np.isfinite(self.e2.real))
            and np.all(np.isfinite(self.e2.imag))
        )

    def _check_space(self, other: "AtomTable") -> None:
        if other.space != self.space:
            raise ValueError(f"{self._PLURAL} live on different spaces")

    # Arithmetic stays within one role: a measure plus a function is
    # NotImplemented, hence a TypeError.
    def __add__(self, other):
        if not isinstance(other, type(self)):
            return NotImplemented
        self._check_space(other)
        return type(self)(self.space, self.e1 + other.e1, self.e2 + other.e2)

    def __sub__(self, other):
        if not isinstance(other, type(self)):
            return NotImplemented
        self._check_space(other)
        return type(self)(self.space, self.e1 - other.e1, self.e2 - other.e2)

    def __neg__(self):
        return type(self)(self.space, -self.e1, -self.e2)

    def __mul__(self, c):
        if isinstance(c, self._SCALARS):
            return self.scaled(c)
        return NotImplemented

    __rmul__ = __mul__

    def isclose(self, other: "AtomTable", tol: float = 1e-12) -> bool:
        """Atomwise closeness of both components within ``tol``."""
        if other.space != self.space:
            return False
        return bool(
            np.all(np.abs(self.e1 - other.e1) <= tol)
            and np.all(np.abs(self.e2 - other.e2) <= tol)
        )

    def equal_exact(self, other: "AtomTable") -> bool:
        if other.space != self.space:
            return False
        return bool(np.all(self.e1 == other.e1) and np.all(self.e2 == other.e2))

    def __repr__(self) -> str:
        pairs = ", ".join(
            f"{label}: ({self.e1[i]:.4g}, {self.e2[i]:.4g})"
            for i, label in enumerate(self.space.atoms)
        )
        return f"{type(self).__name__}({pairs})"


def _from_atoms(cls, space: FiniteSpace, values: Mapping[str, _MassLike]):
    """Build from a label-to-value mapping; omitted atoms get 0."""
    e1 = np.zeros(space.size, dtype=np.complex128)
    e2 = np.zeros(space.size, dtype=np.complex128)
    for label, value in values.items():
        i = space.index_of(label)
        e1[i], e2[i] = _as_components(value)
    return cls(space, e1, e2)


class TMeasure(AtomTable):
    """An atom table read as bicomplex masses: set values, kinds, variation."""

    __slots__ = ()
    _PLURAL = "measures"
    # Complex scalars are not D-module scalars, so ``mu * 1j`` is refused.
    _SCALARS = (int, float, Hyperbolic, Bicomplex)

    # Each role binds its own ``from_atoms``, so that its class namespace
    # holds it (perfbench/spans.py wraps methods through ``__dict__``).
    from_atoms = classmethod(_from_atoms)

    @classmethod
    def zero(cls, space: FiniteSpace) -> "TMeasure":
        return cls(space, np.zeros(space.size), np.zeros(space.size))

    def _check_mask(self, e: SetMask) -> None:
        if e.space != self.space:
            raise ValueError("mask does not belong to this measure's space")

    def of(self, e: SetMask) -> Bicomplex:
        """Measure of a subset: the sum of its atom masses.

        Summation runs in ascending atom index order, so repeated
        evaluation is bit-reproducible.
        """
        self._check_mask(e)
        # Python scalars add with the same IEEE bits as numpy scalars,
        # at a fraction of the per-element cost.
        m1 = self.e1.tolist()
        m2 = self.e2.tolist()
        s1 = 0j
        s2 = 0j
        for i in e.indices():
            s1 += m1[i]
            s2 += m2[i]
        return Bicomplex(s1, s2)

    def total(self) -> Bicomplex:
        return self.of(self.space.full())

    @property
    def kind(self) -> MeasureKind:
        """Strictest applicable kind; computed once and cached."""
        cached = self._kind
        if cached is not None:
            return cached
        if np.any(self.e1.imag != 0.0) or np.any(self.e2.imag != 0.0):
            kind = MeasureKind.T
        else:
            u = self.e1.real
            v = self.e2.real
            if np.any(u < 0.0) or np.any(v < 0.0):
                kind = MeasureKind.SIGNED_D
            elif bool(np.all(np.isfinite(u)) and np.all(np.isfinite(v))):
                kind = MeasureKind.D_PLUS
            else:
                kind = MeasureKind.D
        object.__setattr__(self, "_kind", kind)
        return kind

    def is_d_measure(self) -> bool:
        """True iff every atom mass lies in D+ (kind D or DPlus)."""
        return self.kind in (MeasureKind.D, MeasureKind.D_PLUS)

    def is_real(self) -> bool:
        """True iff every atom mass is hyperbolic (kind SignedD or stricter)."""
        return self.kind is not MeasureKind.T

    def total_variation(self, e: SetMask) -> Hyperbolic:
        """Total variation over a subset.

        On an atomic space the supremum over partitions is attained at
        the partition into singletons, giving the closed form
        sum of |mass|_D over the subset's atoms.
        """
        self._check_mask(e)
        # The ufunc modulus, not builtin abs: the two can differ by an
        # ulp, and this value must match variation_measure exactly.
        abs1 = np.abs(self.e1).tolist()
        abs2 = np.abs(self.e2).tolist()
        u = 0.0
        v = 0.0
        for i in e.indices():
            u += abs1[i]
            v += abs2[i]
        return Hyperbolic(u, v)

    def support_mask(self) -> SetMask:
        """Atoms carrying a nonzero mass in either component."""
        nonzero = (self.e1 != 0) | (self.e2 != 0)
        return self.space.subset_of_indices(np.flatnonzero(nonzero))

    def scaled(self, c: "Hyperbolic | Bicomplex | float | int") -> "TMeasure":
        """Scalar product c*mu, componentwise in the idempotent basis.

        Hyperbolic scalars make the measures a module over D; scaling
        by a zero divisor (e.g. e1) annihilates the other component.
        """
        if not isinstance(c, self._SCALARS):
            raise TypeError("scalar must be hyperbolic, bicomplex or real")
        if isinstance(c, (int, float)):
            c = Hyperbolic.from_real(c)
        return TMeasure(self.space, self.e1 * c.e1, self.e2 * c.e2)


def subset_sums(values: np.ndarray) -> np.ndarray:
    """Sums of ``values`` over every subset of its index set.

    Entry m of the result sums values[k] over the set bits k of m, so
    the output has length 2**len(values) and entry 0 is zero.
    """
    sums = np.zeros(1, dtype=values.dtype)
    for v in values:
        sums = np.concatenate([sums, sums + v])
    return sums


def _masked_values(mu: TMeasure, e: SetMask) -> tuple[np.ndarray, np.ndarray]:
    idx = list(e.indices())
    return mu.e1[idx], mu.e2[idx]


def total_variation_bruteforce(mu: TMeasure, e: SetMask) -> Hyperbolic:
    """Total variation by explicit maximization over set partitions.

    Independent oracle for :meth:`TMeasure.total_variation`: walks
    every partition of the subset and takes the componentwise supremum
    of the partition sums of |mu(block)|_D.

    Raises
    ------
    ValueError
        If the subset has more than 12 atoms (Bell-number growth).
    """
    mu._check_mask(e)
    indices = list(e.indices())
    if len(indices) > PARTITION_CAP:
        raise ValueError(f"subset too large for partition enumeration (> {PARTITION_CAP})")
    if not indices:
        return Hyperbolic(0.0, 0.0)
    best: list[Hyperbolic] = []
    for partition in set_partitions(indices):
        u = 0.0
        v = 0.0
        for block in partition:
            s1 = 0j
            s2 = 0j
            for i in block:
                s1 += mu.e1[i]
                s2 += mu.e2[i]
            u += float(np.abs(s1))
            v += float(np.abs(s2))
        best.append(Hyperbolic(u, v))
    return sup_d(best)


def variation_measure(mu: TMeasure) -> TMeasure:
    """|mu|_D as a measure: atom masses replaced by their D-moduli.

    The result is a D-measure and is additive over disjoint sets; its
    value on E equals ``mu.total_variation(e)``.
    """
    return TMeasure(mu.space, np.abs(mu.e1), np.abs(mu.e2))


def dominates(lambda_d: TMeasure, mu: TMeasure, tol: float = 1e-12) -> bool:
    """Whether |mu_i(E)| <= lambda_i(E) for every subset and component.

    ``lambda_d`` must be a D-measure on the same space. All 2**|X|
    subsets are enumerated, so the space is capped at 20 atoms. The
    comparison allows an additive slack ``tol`` because the two sides
    are computed by different float summation orders and can tie
    mathematically (e.g. |mu|_D against mu).

    Raises
    ------
    ValueError
        If spaces differ, ``lambda_d`` is not a D-measure, or the
        space exceeds the enumeration cap.
    """
    lambda_d._check_space(mu)
    if not lambda_d.is_d_measure():
        raise ValueError("dominating measure must be a D-measure")
    n = mu.space.size
    if n > SUBSET_CAP:
        raise ValueError(f"space too large for subset enumeration (> {SUBSET_CAP})")
    for mu_comp, lam_comp in ((mu.e1, lambda_d.e1), (mu.e2, lambda_d.e2)):
        mu_sums = np.abs(subset_sums(mu_comp))
        lam_sums = subset_sums(lam_comp.real)
        if not np.all(mu_sums <= lam_sums + tol):
            return False
    return True


def normalize_to_probability(mu_hat: TMeasure) -> TMeasure:
    """Normalize a nonzero D-measure to total mass e1+e2, e1 or e2.

    When the total is invertible each component is divided by its
    total. When exactly one component total is zero, only the other is
    divided, producing the degenerate totals e1 or e2.

    Raises
    ------
    ValueError
        If the measure is not a finite D-measure or is zero.
    """
    if not mu_hat.is_d_measure():
        raise ValueError("normalization needs a D-measure")
    if not mu_hat.is_finite():
        raise ValueError("normalization needs finite totals")
    total = mu_hat.total()
    tu = total.e1.real
    tv = total.e2.real
    if tu == 0.0 and tv == 0.0:
        raise ValueError("cannot normalize zero measure")
    e1 = mu_hat.e1 / tu if tu != 0.0 else mu_hat.e1
    e2 = mu_hat.e2 / tv if tv != 0.0 else mu_hat.e2
    return TMeasure(mu_hat.space, e1, e2)


_VARIANTS = (Hyperbolic(1.0, 1.0), Hyperbolic(1.0, 0.0), Hyperbolic(0.0, 1.0))


def probability_variant(mu: TMeasure, tol: float = 1e-12) -> Hyperbolic:
    """Classify a D-probability by its total: e1+e2, e1 or e2.

    Returns the exact variant constant the total matches within
    ``tol``.

    Raises
    ------
    ValueError
        If the measure is not a D-measure or its total matches none
        of the admissible variants.
    """
    if not mu.is_d_measure():
        raise ValueError("a D-probability must be a D-measure")
    total = mu.total()
    t = Hyperbolic(total.e1.real, total.e2.real)
    for variant in _VARIANTS:
        if t.isclose(variant, tol):
            return variant
    raise ValueError("total mass is not e1+e2, e1 or e2")
