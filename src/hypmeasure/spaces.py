"""Finite measurable spaces with the power-set sigma-algebra.

A space is an ordered tuple of distinct atom labels; a subset is a
read-only boolean row over its atoms, the form in which every measure,
integral and Hahn cell reads it. On such a space every subset is
measurable and sigma-additivity reduces to finite additivity, so
measures can be stored as atom tables.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from itertools import compress
from json.encoder import encode_basestring_ascii
import operator
from typing import Iterable, Iterator, Sequence

import numpy as np

__all__ = ["FiniteSpace", "SetMask", "all_subsets", "set_partitions"]


@dataclass(frozen=True)
class FiniteSpace:
    """An atomic measurable space (X, 2^X).

    Attributes
    ----------
    atoms : tuple of str
        Atom labels in index order; must be nonempty and distinct.
    """

    atoms: tuple[str, ...]

    def __post_init__(self) -> None:
        atoms = tuple(self.atoms)
        object.__setattr__(self, "atoms", atoms)
        if not atoms:
            raise ValueError("space needs at least one atom")
        # Label to index, built in one C-level pass; a repeated label
        # leaves fewer keys than atoms.
        index = dict(zip(atoms, range(len(atoms))))
        if len(index) != len(atoms):
            raise ValueError("atom labels must be distinct")
        object.__setattr__(self, "_index", index)

    @property
    def size(self) -> int:
        return len(self.atoms)

    @cached_property
    def _json_labels(self) -> list[str]:
        """Each label's escaped JSON text, in atom order."""
        return list(map(encode_basestring_ascii, self.atoms))

    @cached_property
    def _json_keys(self) -> tuple[np.ndarray, list[str]]:
        """Atom indices in sorted label order, and each label's escaped text.

        The canonical JSON writer reads them once per space, not per table.
        Labels that are already ascending (as ``make_space`` makes them)
        skip the sort.
        """
        atoms = self.atoms
        if all(map(operator.lt, atoms, atoms[1:])):
            return np.arange(len(atoms), dtype=np.intp), self._json_labels
        order = sorted(range(len(atoms)), key=atoms.__getitem__)
        return np.array(order, dtype=np.intp), list(map(self._json_labels.__getitem__, order))

    def index_of(self, label: str) -> int:
        try:
            return self._index[label]
        except KeyError:
            raise ValueError(f"unknown atom label {label!r}") from None

    def empty(self) -> "SetMask":
        return self._trivial_masks[0]

    def full(self) -> "SetMask":
        return self._trivial_masks[1]

    @cached_property
    def _trivial_masks(self) -> tuple["SetMask", "SetMask"]:
        """The empty and the full mask, built once: masks are immutable."""
        member = np.zeros(self.size, dtype=bool)
        return SetMask(self, member), SetMask(self, ~member)

    def singleton(self, index: int) -> "SetMask":
        return self.subset_of_indices((index,))

    def subset_of_labels(self, labels: Iterable[str]) -> "SetMask":
        return self.subset_of_indices(map(self.index_of, labels))

    def subset_of_indices(self, indices: Iterable[int]) -> "SetMask":
        # Each index is range-checked as a Python int: numpy would wrap a
        # negative one around.
        n = self.size
        member = np.zeros(n, dtype=bool)
        for i in map(operator.index, indices):
            if not 0 <= i < n:
                raise ValueError("atom index out of range")
            member[i] = True
        return SetMask(self, member)


@dataclass(frozen=True, eq=False)
class SetMask:
    """A subset of a finite space: ``member[i]`` is True iff atom i belongs to it.

    ``member`` is a read-only boolean array with one entry per atom, a
    copy of the one passed in. Masks compare by value, space included,
    and like their rows they are unhashable.
    """

    space: FiniteSpace
    member: np.ndarray

    def __post_init__(self) -> None:
        member = self.member
        if getattr(member, "dtype", None) != np.bool_ or member.shape != (self.space.size,):
            raise ValueError("a mask is a boolean array with one entry per atom")
        member = member.copy()
        member.setflags(write=False)
        object.__setattr__(self, "member", member)

    __hash__ = None

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, SetMask):
            return NotImplemented
        return self.space == other.space and bool((self.member == other.member).all())

    def check_space(self, space: FiniteSpace) -> None:
        """Refuse a mask that does not live on ``space``."""
        if self.space != space:
            raise ValueError("mask lives on a different space")

    def indices(self) -> np.ndarray:
        """Member atom indices, ascending."""
        return np.flatnonzero(self.member)

    def labels(self) -> list[str]:
        return list(compress(self.space.atoms, self.member.tolist()))

    def count(self) -> int:
        return int(np.count_nonzero(self.member))

    def is_empty(self) -> bool:
        return not self.member.any()

    def contains(self, index: int) -> bool:
        if not 0 <= index < self.space.size:
            raise ValueError("atom index out of range")
        return bool(self.member[index])

    def complement(self) -> "SetMask":
        return SetMask(self.space, ~self.member)

    def union(self, other: "SetMask") -> "SetMask":
        other.check_space(self.space)
        return SetMask(self.space, self.member | other.member)

    def intersect(self, other: "SetMask") -> "SetMask":
        other.check_space(self.space)
        return SetMask(self.space, self.member & other.member)

    def difference(self, other: "SetMask") -> "SetMask":
        other.check_space(self.space)
        return SetMask(self.space, self.member & ~other.member)

    def is_subset_of(self, other: "SetMask") -> bool:
        other.check_space(self.space)
        return not (self.member & ~other.member).any()

    __and__ = intersect
    __or__ = union


def all_subsets(space: FiniteSpace) -> Iterator[SetMask]:
    """Yield every subset of the space, empty set first.

    Subset m has the set bits of m as members, as entry m of
    ``measures.subset_sums`` sums them. The rows come from one
    (2**n, n) table, built before the first yield: O(n 2**n) memory.
    """
    n = space.size
    for row in np.arange(1 << n)[:, None] >> np.arange(n) & 1 == 1:
        yield SetMask(space, row)


def set_partitions(items: Sequence[int]) -> Iterator[list[list[int]]]:
    """Yield every partition of ``items`` into nonempty blocks.

    Blocks preserve the input order internally, so passing ascending
    indices keeps each block ascending. The number of partitions is
    the Bell number of ``len(items)``.
    """
    items = list(items)
    if not items:
        yield []
        return
    first, rest = items[0], items[1:]
    for part in set_partitions(rest):
        for i in range(len(part)):
            yield part[:i] + [[first] + part[i]] + part[i + 1 :]
        yield [[first]] + part
