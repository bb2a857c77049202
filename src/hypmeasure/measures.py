"""T-valued measures on finite atomic spaces.

A measure is an atom-indexed table of bicomplex masses, stored as one
(2, n) complex array: row 0 holds the e1 components and row 1 the e2
components of the idempotent basis, so every componentwise operation is
one array operation over that axis. Set values and total variations are
ascending running sums over the set's atoms, so sigma-additivity holds
by construction and every value is bit-reproducible.
Kinds form a chain: DPlus (masses in D+, finite totals) inside D
(masses in D+) inside SignedD (real components) inside T (anything).

Measures are immutable after construction and all operations are
pure, so concurrent reads are safe.
"""

from __future__ import annotations

import functools
from enum import Enum
from typing import Iterable, Mapping, Union

import numpy as np

from .numbers import Bicomplex, Hyperbolic
from .spaces import FiniteSpace, SetMask

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

# Hard cap for the exhaustive partition enumerator; beyond it the
# operation refuses to run rather than silently sampling.
PARTITION_CAP = 12

# The one rounding rule of every checked identity and inequality. A sum
# of n terms in ascending order is off by at most (n - 1)*u*sum|x|,
# u = eps/2 (Higham, Accuracy and Stability of Numerical Algorithms,
# 4.2). A check compares two such sums, with at most three more
# roundings on one side (atomwise, a division and a product): (2n + 1)*u*
# sum|x| in all. So c = 4 in the bound c*n*eps*sum|x| covers every n >= 1,
# with room for second-order terms and for the rounding of sum|x| itself.
_ROUNDING = 4.0 * float(np.finfo(np.float64).eps)
# Below the normal range a product or quotient is off by up to half the
# subnormal spacing 2**-1074 (sums there are exact): 16 spacings per term,
# and m more for a factor rounded there and then multiplied by a mass m.
_FLOOR = 16.0 * float(np.finfo(np.float64).smallest_subnormal)
# probability_variant reads totals that users round by hand, so it keeps
# an absolute slack: the rounding bound would refuse masses 1/3 written
# as 0.3333333333333.
_VARIANT_SLACK = 1e-12


def _slack(n, total, floors):
    """The slack 4*eps*n*total + _FLOOR*floors of the n terms of a side
    with total = sum|x| and floors = n (see _FLOOR).

    4*eps*n is formed first, so the slack is finite whenever the total is.
    """
    return total * (_ROUNDING * n) + _FLOOR * floors


def _at_most(lhs, rhs, n, total, floors) -> bool:
    """Whether lhs <= rhs + _slack(n, total, floors) everywhere.

    A bound past the float range is +inf, without a warning, and every
    side but NaN lies below it.
    """
    with np.errstate(over="ignore"):
        bound = rhs + _slack(n, total, floors)
    return bool((lhs <= bound).all())


def _close(got, want, n, total, floors) -> bool:
    """Whether |got - want| is within the slack of :func:`_at_most`.

    Its right side is 0.0, and a side compares with 0.0 + slack as with
    the slack itself, so the bound needs no addition (and no errstate).
    """
    return bool((np.abs(got - want) <= _slack(n, total, floors)).all())


class MeasureKind(Enum):
    """Strictest value-range class a measure belongs to.

    Declared from loosest to strictest; ``KIND_RANK`` numbers them so.
    """

    T = "T"
    SIGNED_D = "signedD"
    D = "D"
    D_PLUS = "D+"


KIND_RANK = {kind: rank for rank, kind in enumerate(MeasureKind)}


def _as_components(value: _MassLike) -> tuple[complex, complex]:
    # What the number core refuses (numpy integers, say) goes to complex().
    b = Bicomplex._coerce(value) or Bicomplex(value, value)
    return b.e1, b.e2


class AtomTable:
    """An atom-indexed table of bicomplex values, immutable once built.

    The shared core of :class:`TMeasure` and ``TFunction``: both are one
    read-only complex array ``c`` of shape (2, n), the two components in
    the idempotent basis, with ``e1`` and ``e2`` its row views. The
    roles differ only in the scalars they accept and the operations
    they add.

    Parameters
    ----------
    space : FiniteSpace
    e1, e2 : array_like of complex
        Component values per atom, in atom index order.
    """

    # ``_kind`` caches TMeasure.kind; the slot lives here so both roles
    # share one constructor.
    __slots__ = ("space", "c", "e1", "e2", "_kind")
    _PLURAL = "tables"
    _SCALARS: tuple = ()

    def __init__(self, space: FiniteSpace, e1, e2) -> None:
        try:
            c = np.array((e1, e2), dtype=np.complex128)
        except ValueError:
            # Components of different shapes fail only as a pair; a value
            # that is not a number fails alone too, with its own message.
            np.array(e1, dtype=np.complex128), np.array(e2, dtype=np.complex128)
            c = None
        if c is None or c.shape != (2, space.size):
            raise ValueError("component arrays must have one entry per atom")
        c.setflags(write=False)
        self._bind(space, c)

    def _bind(self, space: FiniteSpace, c: np.ndarray) -> "AtomTable":
        object.__setattr__(self, "space", space)
        object.__setattr__(self, "c", c)
        object.__setattr__(self, "e1", c[0])
        object.__setattr__(self, "e2", c[1])
        object.__setattr__(self, "_kind", None)
        return self

    @classmethod
    def _views(cls, space: FiniteSpace, stack: np.ndarray) -> list:
        """A table over each (2, n) row pair of a complex (K, 2, n) array that
        owns its data, without a copy; the array becomes read-only."""
        stack.setflags(write=False)
        return [object.__new__(cls)._bind(space, c) for c in stack]

    def __setattr__(self, name, value):
        raise AttributeError(f"{type(self).__name__} is immutable")

    def atom(self, index: int) -> Bicomplex:
        """Value of the atom at ``index``."""
        return Bicomplex(complex(self.e1[index]), complex(self.e2[index]))

    def is_finite(self) -> bool:
        """True iff both components of every atom value are finite."""
        # A complex entry is finite iff both of its parts are.
        return bool(np.isfinite(self.c).all())

    def _check_space(self, other: "AtomTable") -> None:
        if other.space != self.space:
            raise ValueError(f"{self._PLURAL} live on different spaces")

    # Arithmetic stays within one role: a measure plus a function is
    # NotImplemented, hence a TypeError.
    def __add__(self, other):
        if not isinstance(other, type(self)):
            return NotImplemented
        self._check_space(other)
        return type(self)(self.space, *(self.c + other.c))

    def __sub__(self, other):
        if not isinstance(other, type(self)):
            return NotImplemented
        self._check_space(other)
        return type(self)(self.space, *(self.c - other.c))

    def __neg__(self):
        return type(self)(self.space, *(-self.c))

    def scaled(self, c: _MassLike):
        """Scalar product c*table, componentwise in the idempotent basis.

        Each role lists its scalars in ``_SCALARS``; a zero divisor such
        as e1 annihilates the other component. Both roles multiply
        scalar × row, so they agree bitwise (numpy's complex product is
        not bitwise commutative).
        """
        if not isinstance(c, self._SCALARS):
            raise TypeError(f"{self._PLURAL} take no {type(c).__name__} scalars")
        c1, c2 = _as_components(c)
        return type(self)(self.space, c1 * self.e1, c2 * self.e2)

    def __mul__(self, c):
        if isinstance(c, self._SCALARS):
            return self.scaled(c)
        return NotImplemented

    __rmul__ = __mul__

    def equal_exact(self, other: "AtomTable") -> bool:
        if other.space != self.space:
            return False
        return bool((self.c == other.c).all())

    def __repr__(self) -> str:
        pairs = ", ".join(
            f"{label}: ({self.e1[i]:.4g}, {self.e2[i]:.4g})"
            for i, label in enumerate(self.space.atoms)
        )
        return f"{type(self).__name__}({pairs})"


def _from_atoms(cls, space: FiniteSpace, values: Mapping[str, _MassLike]):
    """Build from a label-to-value mapping; omitted atoms get 0."""
    c = np.zeros((2, space.size), dtype=np.complex128)
    for label, value in values.items():
        c[:, space.index_of(label)] = _as_components(value)
    return cls(space, *c)


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
        return cls(space, *np.zeros((2, space.size)))

    def of(self, e: SetMask) -> Bicomplex:
        """Measure of a subset: the sum of its atom masses.

        Summation runs in ascending atom index order, so repeated
        evaluation is bit-reproducible.
        """
        e.check_space(self.space)
        return Bicomplex(*_masked_sum(self.c, e).tolist())

    def total(self) -> Bicomplex:
        """Measure of the whole space, summed in ascending atom index order."""
        return Bicomplex(*_masked_sum(self.c).tolist())

    @property
    def kind(self) -> MeasureKind:
        """Strictest applicable kind; computed once and cached."""
        cached = self._kind
        if cached is not None:
            return cached
        # The ndarray methods, not np.any / np.all: the module functions
        # add a Python wrapper to every call on this hot path. Each test
        # reads both components in one pass.
        x = self.c.real
        if (self.c.imag != 0.0).any():
            kind = MeasureKind.T
        # ">= 0 everywhere", not "no atom < 0": a NaN mass is not in D+.
        elif not (x >= 0.0).all():
            kind = MeasureKind.SIGNED_D
        elif np.isfinite(x).all():
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
        e.check_space(self.space)
        # The ufunc modulus, not builtin abs: the two can differ by an
        # ulp, and this value must match variation_measure exactly.
        return Hyperbolic(*_masked_sum(np.abs(self.c), e).tolist())

    def support_mask(self) -> SetMask:
        """Atoms carrying a nonzero mass in either component."""
        return SetMask(self.space, (self.c != 0).any(axis=0))


def _ascending_sum(values: np.ndarray) -> np.ndarray:
    """Sums along the last axis, each adding its entries in ascending order.

    Bitwise the scalar loop ``s = 0.0; for v in row: s += v``. The running
    sum (the ufunc behind ``np.cumsum``, whose wrapper costs more than the
    work on small rows) adds strictly in index order; ``np.sum`` and
    ``np.add.reduce`` may add pairwise, even along axis 0 when there is a
    single column. The running sum starts from the first entry, not from
    +0.0, so it can end in -0.0 where the loop ends in +0.0; the trailing
    ``+ 0.0`` maps that back, and no other bit differs. The loop adds
    Python floats, which overflow to inf without a warning, so callers
    run this under ``np.errstate(over="ignore")``.
    """
    if values.shape[-1] == 0:
        return np.zeros(values.shape[:-1], dtype=values.dtype)
    return np.add.accumulate(values, axis=-1)[..., -1] + 0.0


@np.errstate(over="ignore", invalid="ignore")
def _masked_sum(values: np.ndarray, e: SetMask | None = None) -> np.ndarray:
    """Ascending sums along the last axis over the atoms of ``e`` (all by default).

    Bitwise the scalar loop over the mask's indices, which set values,
    total variations, totals and integrals share. Like that loop, a sum
    that overflows is inf (and inf - inf is NaN), without a warning.
    """
    if e is not None:
        values = values.compress(e.member, axis=-1)
    return _ascending_sum(values)


def subset_sums(values: np.ndarray) -> np.ndarray:
    """Sums of ``values`` over every subset of its index set, per row.

    Entry m along the last axis sums values[..., k] over the set bits k
    of m, so that axis has length 2**n for n values and entry 0 is zero.
    Each sum is the ascending left fold ``0.0 + v[k1] + v[k2] + ...``
    over k1 < k2 < ..., so every entry has the bits of that scalar loop.
    The whole array is O(2**n) memory. No certifier reads it: it is the
    subset oracle of the ``epsilon-delta`` verify suite and of the tests,
    and it gives :func:`total_variation_bruteforce` its block sums.
    """
    n = values.shape[-1]
    sums = np.zeros(values.shape[:-1] + (1 << n,), dtype=values.dtype)
    size = 1
    for k in range(n):
        # Entry size + j is entry j plus values[k], so each sum still adds
        # its values in ascending index order.
        np.add(sums[..., :size], values[..., k, None], out=sums[..., size : 2 * size])
        size *= 2
    return sums


@functools.cache
def _partition_table(k: int) -> np.ndarray:
    """Every partition of positions 0..k-1, one row of block bitmasks each.

    Rows follow ``set_partitions(range(k))``, blocks in its order, each
    row zero-padded to k columns (int16, read-only). They are built from
    the last position backwards: a partition of the positions after j
    with nb blocks has nb + 1 children, j joining block i for each i < nb
    and then leading a new first block.
    """
    table = np.zeros((1, k), dtype=np.int16)
    blocks = np.zeros(1, dtype=np.intp)
    for j in reversed(range(k)):
        counts = blocks + 1
        parent = np.repeat(np.arange(len(table)), counts)
        slot = np.arange(len(parent)) - np.repeat(np.cumsum(counts) - counts, counts)
        new = slot == blocks[parent]
        table = table[parent]
        table[new, 1:] = table[new, :-1]
        table[new, 0] = 0
        table[np.arange(len(table)), np.where(new, 0, slot)] |= 1 << j
        blocks = blocks[parent] + new
    table.setflags(write=False)
    return table


@np.errstate(over="ignore", invalid="ignore")
def total_variation_bruteforce(mu: TMeasure, e: SetMask) -> Hyperbolic:
    """Total variation by explicit maximization over set partitions.

    Independent oracle for :meth:`TMeasure.total_variation`: it sums
    |mu(block)|_D over the blocks of every partition of the subset and
    takes the componentwise maximum. Every block sum is an entry of
    :func:`subset_sums` (the ascending left fold), and each partition adds
    its block moduli in ``set_partitions`` order from +0.0, so a finite
    answer has the bits of that scalar walk. A component that is NaN in
    any partition sum is NaN, whatever the order of the partitions.

    The partition table of each subset size stays cached: about 2.8 MB
    for all sizes through 10 atoms, 15 MB at 11 and 101 MB at 12.

    Raises
    ------
    ValueError
        If the subset has more than 12 atoms (Bell-number growth).
    """
    e.check_space(mu.space)
    values = mu.c[:, e.member]
    if values.shape[1] > PARTITION_CAP:
        raise ValueError(f"subset too large for partition enumeration (> {PARTITION_CAP})")
    table = _partition_table(values.shape[1])
    moduli = np.abs(subset_sums(values))
    sums = np.zeros((2, len(table)))
    for column in table.T:
        sums += moduli[:, column]
    return Hyperbolic(*sums.max(axis=1).tolist())


def variation_measure(mu: TMeasure) -> TMeasure:
    """|mu|_D as a measure: atom masses replaced by their D-moduli.

    The result is a D-measure and is additive over disjoint sets; its
    value on E equals ``mu.total_variation(e)``.
    """
    return TMeasure(mu.space, *np.abs(mu.c))


def dominates(lambda_d: TMeasure, mu: TMeasure) -> bool:
    """Whether |mu_i(E)| <= lambda_i(E) for every subset and component.

    ``lambda_d`` must be a D-measure on the same space. The inequality
    holds on every subset iff it holds on every atom: singletons are
    subsets, and the triangle inequality sums the atoms' inequalities
    over any set. So the atom moduli are compared with lambda's masses,
    exactly and in O(n) at any size. A modulus past the float range is
    inf, without a warning.

    Raises
    ------
    ValueError
        If spaces differ or ``lambda_d`` is not a D-measure.
    """
    lambda_d._check_space(mu)
    if not lambda_d.is_d_measure():
        raise ValueError("dominating measure must be a D-measure")
    return bool((np.abs(mu.c) <= lambda_d.c.real).all())


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
    totals = _masked_sum(mu_hat.c.real).tolist()
    if totals == [0.0, 0.0]:
        raise ValueError("cannot normalize zero measure")
    # A zero component total leaves its row as it is.
    rows = (row / t if t != 0.0 else row for row, t in zip(mu_hat.c, totals))
    return TMeasure(mu_hat.space, *rows)


_VARIANTS = (Hyperbolic(1.0, 1.0), Hyperbolic(1.0, 0.0), Hyperbolic(0.0, 1.0))


def probability_variant(mu: TMeasure) -> Hyperbolic:
    """Classify a D-probability by its total: e1+e2, e1 or e2.

    Returns the exact variant constant the total matches within the
    absolute slack ``_VARIANT_SLACK`` (1e-12), which admits hand-rounded
    totals, plus the rounding bound of its n-term sum.

    Raises
    ------
    ValueError
        If the measure is not a D-measure or its total matches none
        of the admissible variants.
    """
    if not mu.is_d_measure():
        raise ValueError("a D-probability must be a D-measure")
    t1, t2 = _masked_sum(mu.c.real).tolist()
    n = mu.space.size
    # The fold errors of n equal masses all lean one way: allow their rounding bound.
    bound = {v: _VARIANT_SLACK + _slack(n, v, n) for v in (0.0, 1.0)}
    for variant in _VARIANTS:
        if abs(t1 - variant.e1) <= bound[variant.e1] and abs(t2 - variant.e2) <= bound[variant.e2]:
            return variant
    raise ValueError("total mass is not e1+e2, e1 or e2")
