"""Finite measurable spaces with the power-set sigma-algebra.

A space is an ordered tuple of distinct atom labels; a subset is a
bitmask over the atom indices. On such a space every subset is
measurable and sigma-additivity reduces to finite additivity, so
measures can be stored as atom tables.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from json.encoder import encode_basestring_ascii
import operator
from typing import Iterable, Iterator, Sequence

import numpy as np

__all__ = ["FiniteSpace", "SetMask", "all_subsets", "set_partitions"]

# Set bit positions of every byte value, ascending.
_BYTE_BITS = tuple(
    tuple(j for j in range(8) if b >> j & 1) for b in range(256)
)


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
    def _json_keys(self) -> tuple[np.ndarray, list[str]]:
        """Atom indices in sorted label order, and each label's escaped text.

        The canonical JSON writer reads them once per space, not per table.
        Labels that are already ascending (as ``make_space`` makes them)
        skip the sort.
        """
        atoms = self.atoms
        if all(map(operator.lt, atoms, atoms[1:])):
            order = np.arange(len(atoms), dtype=np.intp)
            return order, list(map(encode_basestring_ascii, atoms))
        order = sorted(range(len(atoms)), key=atoms.__getitem__)
        keys = list(map(encode_basestring_ascii, map(atoms.__getitem__, order)))
        return np.array(order, dtype=np.intp), keys

    def index_of(self, label: str) -> int:
        try:
            return self._index[label]
        except KeyError:
            raise ValueError(f"unknown atom label {label!r}") from None

    def empty(self) -> "SetMask":
        return SetMask(self, 0)

    def full(self) -> "SetMask":
        return SetMask(self, (1 << self.size) - 1)

    def singleton(self, index: int) -> "SetMask":
        if not 0 <= index < self.size:
            raise ValueError("atom index out of range")
        return SetMask(self, 1 << index)

    def subset_of_labels(self, labels: Iterable[str]) -> "SetMask":
        return self.subset_of_indices(map(self.index_of, labels))

    def subset_of_indices(self, indices: Iterable[int]) -> "SetMask":
        # Set bits in a byte buffer and convert once: OR-ing into a big
        # int per member would copy the whole mask every time.
        n = self.size
        buf = bytearray((n + 7) >> 3)
        for i in map(operator.index, indices):
            if not 0 <= i < n:
                raise ValueError("atom index out of range")
            buf[i >> 3] |= 1 << (i & 7)
        return SetMask(self, int.from_bytes(buf, "little"))


@dataclass(frozen=True)
class SetMask:
    """A subset of a finite space, stored as an integer bitmask.

    Bit i is set iff atom i belongs to the subset.
    """

    space: FiniteSpace
    bits: int

    def __post_init__(self) -> None:
        # Normalize numpy integers so the bit tricks below stay exact.
        object.__setattr__(self, "bits", int(self.bits))
        if not 0 <= self.bits < (1 << self.space.size):
            raise ValueError("mask bits exceed the space width")

    def indices(self) -> Iterator[int]:
        """Yield member atom indices in ascending order.

        One pass over the mask's bytes through a 256-entry table, so a
        walk costs O(n) on an n-atom space. The low byte is read off the
        int itself, which keeps walks on small spaces free of the byte
        conversion.
        """
        bits = self.bits
        yield from _BYTE_BITS[bits & 0xFF]
        high = bits >> 8
        if high:
            base = 8
            for byte in high.to_bytes((high.bit_length() + 7) >> 3, "little"):
                if byte:
                    for j in _BYTE_BITS[byte]:
                        yield base + j
                base += 8

    def labels(self) -> list[str]:
        return [self.space.atoms[i] for i in self.indices()]

    def count(self) -> int:
        return self.bits.bit_count()

    def is_empty(self) -> bool:
        return self.bits == 0

    def contains(self, index: int) -> bool:
        return bool((self.bits >> index) & 1)

    def complement(self) -> "SetMask":
        return SetMask(self.space, self.space.full().bits ^ self.bits)

    def _check_same_space(self, other: "SetMask") -> None:
        if self.space != other.space:
            raise ValueError("masks live on different spaces")

    def union(self, other: "SetMask") -> "SetMask":
        self._check_same_space(other)
        return SetMask(self.space, self.bits | other.bits)

    def intersect(self, other: "SetMask") -> "SetMask":
        self._check_same_space(other)
        return SetMask(self.space, self.bits & other.bits)

    def difference(self, other: "SetMask") -> "SetMask":
        self._check_same_space(other)
        return SetMask(self.space, self.bits & ~other.bits)

    def is_subset_of(self, other: "SetMask") -> bool:
        self._check_same_space(other)
        return self.bits & ~other.bits == 0

    def __and__(self, other: "SetMask") -> "SetMask":
        return self.intersect(other)

    def __or__(self, other: "SetMask") -> "SetMask":
        return self.union(other)


def all_subsets(space: FiniteSpace) -> Iterator[SetMask]:
    """Yield every subset of the space, empty set first."""
    for bits in range(1 << space.size):
        yield SetMask(space, bits)


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
