"""Finite spaces, bitmask subsets, and set-partition enumeration."""

import numpy as np
import pytest

from hypmeasure import FiniteSpace, SetMask, all_subsets, set_partitions


@pytest.fixture
def space():
    return FiniteSpace(("a", "b", "c", "d"))


class TestFiniteSpace:
    def test_validation(self):
        with pytest.raises(ValueError):
            FiniteSpace(())
        with pytest.raises(ValueError):
            FiniteSpace(("a", "a"))

    def test_index_of(self, space):
        assert space.index_of("c") == 2
        with pytest.raises(ValueError, match="unknown"):
            space.index_of("zz")

    def test_builders(self, space):
        assert space.empty().bits == 0
        assert space.full().bits == 0b1111
        assert space.singleton(2).labels() == ["c"]
        assert space.subset_of_labels(["d", "a"]).labels() == ["a", "d"]
        assert space.subset_of_indices([3, 1]).labels() == ["b", "d"]
        with pytest.raises(ValueError):
            space.subset_of_labels(["zz"])


class TestSetMask:
    def test_indices_ascending(self, space):
        m = SetMask(space, 0b1011)
        assert list(m.indices()) == [0, 1, 3]
        assert m.labels() == ["a", "b", "d"]
        assert m.count() == 3

    def test_numpy_bits_accepted(self, space):
        m = SetMask(space, np.int64(0b101))
        assert list(m.indices()) == [0, 2]
        assert isinstance(m.bits, int)

    def test_bounds(self, space):
        with pytest.raises(ValueError):
            SetMask(space, 1 << 4)
        with pytest.raises(ValueError):
            SetMask(space, -1)

    def test_algebra(self, space):
        a = SetMask(space, 0b0011)
        b = SetMask(space, 0b0110)
        assert (a | b).bits == 0b0111
        assert (a & b).bits == 0b0010
        assert a.union(b).bits == 0b0111
        assert a.intersect(b).bits == 0b0010
        assert a.difference(b).bits == 0b0001
        assert a.complement().bits == 0b1100
        assert a.is_subset_of(a | b)
        assert not a.is_subset_of(b)

    def test_contains_and_empty(self, space):
        m = SetMask(space, 0b0100)
        assert m.contains(2) and not m.contains(0)
        assert space.empty().is_empty()
        assert not m.is_empty()

    def test_cross_space_mix_rejected(self, space):
        other = FiniteSpace(("x", "y", "z", "w"))
        with pytest.raises(ValueError):
            SetMask(space, 1).union(SetMask(other, 1))


def test_all_subsets_counts(space):
    subsets = list(all_subsets(space))
    assert len(subsets) == 16
    assert len({m.bits for m in subsets}) == 16


def _partitions_oracle(items):
    # Independent enumeration by placing each item into an existing or
    # a fresh block (restricted-growth construction).
    if not items:
        return
    partials = [[[items[0]]]]
    for x in items[1:]:
        nxt = []
        for p in partials:
            for k in range(len(p)):
                q = [list(b) for b in p]
                q[k].append(x)
                nxt.append(q)
            nxt.append([list(b) for b in p] + [[x]])
        partials = nxt
    yield from partials


@pytest.mark.parametrize("n,bell", [(1, 1), (2, 2), (3, 5), (4, 15), (5, 52), (6, 203)])
def test_partition_counts_match_bell_numbers(n, bell):
    items = list(range(n))
    assert sum(1 for _ in set_partitions(items)) == bell


def test_partitions_match_independent_oracle():
    items = [0, 1, 2, 3]

    def canon(partition):
        return frozenset(frozenset(block) for block in partition)

    got = {canon(p) for p in set_partitions(items)}
    want = {canon(p) for p in _partitions_oracle(items)}
    assert got == want
    # every partition covers the items exactly
    for p in set_partitions(items):
        flat = [x for block in p for x in block]
        assert sorted(flat) == items


def _space(n):
    return FiniteSpace(tuple(f"x{i}" for i in range(n)))


def _members(bits, n):
    # Reference walk: test every bit position in ascending order.
    return [i for i in range(n) if bits >> i & 1]


@pytest.mark.parametrize("n", [1, 7, 8, 9, 63, 64, 65, 1000])
def test_indices_match_reference_walk(n):
    space = _space(n)
    rng = np.random.default_rng(n)
    masks = [space.empty(), space.full(), space.singleton(n - 1)]
    masks += [
        space.subset_of_indices(np.flatnonzero(rng.random(n) < p).tolist())
        for p in (0.05, 0.5, 0.95)
    ]
    for m in masks:
        assert list(m.indices()) == _members(m.bits, n)
        assert m.labels() == [space.atoms[i] for i in _members(m.bits, n)]


@pytest.mark.parametrize("n", [1, 8, 9, 64, 65, 1000])
def test_mask_builders_set_exactly_the_members(n):
    space = _space(n)
    rng = np.random.default_rng(n)
    members = sorted(set(rng.integers(0, n, size=n // 2 + 1).tolist()))
    want = sum(1 << i for i in members)
    assert space.subset_of_indices(members).bits == want
    assert space.subset_of_indices(reversed(members)).bits == want
    # numpy integers past bit 63 must not wrap
    assert space.subset_of_indices(np.array(members)).bits == want
    labels = [space.atoms[i] for i in members]
    assert space.subset_of_labels(labels).bits == want
    assert space.subset_of_indices([]).bits == 0
    with pytest.raises(ValueError, match="out of range"):
        space.subset_of_indices(members + [n])
    with pytest.raises(ValueError, match="out of range"):
        space.subset_of_indices([-1])
    with pytest.raises(ValueError, match="unknown atom label 'zz'"):
        space.subset_of_labels(labels + ["zz"])
