"""Finite spaces, boolean-row subsets, and set-partition enumeration."""

import numpy as np
import pytest

from hypmeasure import FiniteSpace, SetMask, all_subsets, set_partitions, subset_sums
from hypmeasure.measures import _masked_sum


def _row(n, members):
    """The boolean row of length n that is True exactly at ``members``."""
    return np.isin(np.arange(n), list(members))


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

    def test_trivial_masks_are_built_once(self, space):
        assert space.empty() is space.empty() and space.full() is space.full()
        assert not space.full().member.flags.writeable
        assert space.full() == FiniteSpace(space.atoms).full()

    def test_builders(self, space):
        assert space.empty().member.tolist() == [False] * 4
        assert space.full().member.tolist() == [True] * 4
        assert space.singleton(2).labels() == ["c"]
        assert space.subset_of_labels(["d", "a"]).labels() == ["a", "d"]
        assert space.subset_of_indices([3, 1]).labels() == ["b", "d"]
        with pytest.raises(ValueError):
            space.subset_of_labels(["zz"])


class TestSetMask:
    def test_indices_ascending(self, space):
        m = SetMask(space, _row(4, [0, 1, 3]))
        assert isinstance(m.indices(), np.ndarray)
        assert m.indices().tolist() == [0, 1, 3]
        assert m.labels() == ["a", "b", "d"]
        assert m.count() == 3

    def test_numpy_bits_accepted(self, space):
        # A row computed by numpy, and numpy integer indices, build the mask.
        m = SetMask(space, np.arange(4) % 2 == 0)
        assert m.indices().tolist() == [0, 2]
        assert space.subset_of_indices(np.array([2, 0], dtype=np.int64)) == m
        assert space.subset_of_indices([np.int64(0), np.int32(2)]) == m

    def test_bounds(self, space):
        for bad in ([-1], [4], [0, 4]):
            with pytest.raises(ValueError, match="out of range"):
                space.subset_of_indices(bad)
        with pytest.raises(ValueError, match="out of range"):
            space.singleton(-1)
        with pytest.raises(ValueError, match="out of range"):
            space.singleton(4)
        m = space.singleton(3)
        for bad in (-1, 4):
            with pytest.raises(ValueError, match="out of range"):
                m.contains(bad)

    def test_constructor_takes_only_a_boolean_row(self, space):
        for bad in (0b0101, np.array([1, 0, 1, 0]), np.zeros(3, dtype=bool),
                    np.zeros((1, 4), dtype=bool), [True, False, True, False]):
            with pytest.raises(ValueError, match="boolean array"):
                SetMask(space, bad)
        row = _row(4, [1])
        m = SetMask(space, row)
        row[0] = True
        assert m.indices().tolist() == [1]
        assert not m.member.flags.writeable
        with pytest.raises(ValueError):
            m.member[0] = True
        with pytest.raises(AttributeError):
            m.member = row

    def test_equality_by_value(self, space):
        a = space.subset_of_indices([0, 2])
        assert a == SetMask(space, _row(4, [2, 0]))
        assert a == FiniteSpace(space.atoms).subset_of_indices([2, 0])
        assert a != space.subset_of_indices([0])
        # Same row, another space: not equal, and no error.
        assert a != FiniteSpace(("x", "y", "z", "w")).subset_of_indices([0, 2])
        assert a != [0, 2]
        with pytest.raises(TypeError):
            hash(a)

    def test_algebra(self, space):
        a = SetMask(space, _row(4, [0, 1]))
        b = SetMask(space, _row(4, [1, 2]))
        assert (a | b).indices().tolist() == [0, 1, 2]
        assert (a & b).indices().tolist() == [1]
        assert a.union(b).indices().tolist() == [0, 1, 2]
        assert a.intersect(b).indices().tolist() == [1]
        assert a.difference(b).indices().tolist() == [0]
        assert a.complement().indices().tolist() == [2, 3]
        assert a.is_subset_of(a | b)
        assert not a.is_subset_of(b)

    def test_contains_and_empty(self, space):
        m = SetMask(space, _row(4, [2]))
        assert m.contains(2) and not m.contains(0)
        assert space.empty().is_empty()
        assert not m.is_empty()

    def test_cross_space_mix_rejected(self, space):
        other = FiniteSpace(("x", "y", "z", "w"))
        with pytest.raises(ValueError, match="different space"):
            space.singleton(0).union(other.singleton(0))


def test_all_subsets_counts(space):
    subsets = list(all_subsets(space))
    assert len(subsets) == 16
    assert len({tuple(m.indices().tolist()) for m in subsets}) == 16


@pytest.mark.parametrize("n", range(1, 11))
def test_all_subsets_follow_subset_sums_order(n):
    space = _space(n)
    values = np.random.default_rng(n).normal(size=(2, n)) + 0j
    sums = subset_sums(values)
    count = 0
    for m, e in enumerate(all_subsets(space)):
        assert e.indices().tolist() == _members(m, n)
        # Column m of subset_sums sums the same atoms, in the same order.
        np.testing.assert_array_equal(_sum_loop(values, e.indices()), sums[:, m])
        count += 1
    assert count == 1 << n


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


def _sum_loop(values, indices):
    # The scalar ascending loop from +0.0 over each row's set atoms.
    out = []
    for row in values:
        s = 0.0
        for i in indices:
            s += row[i]
        out.append(s)
    return np.array(out, dtype=values.dtype)


@pytest.mark.parametrize("n", [1, 7, 8, 9, 63, 64, 65, 1000])
def test_indices_match_reference_walk(n):
    space = _space(n)
    rng = np.random.default_rng(n)
    sets = [set(), set(range(n)), {n - 1}]
    sets += [set(np.flatnonzero(rng.random(n) < p).tolist()) for p in (0.05, 0.5, 0.95)]
    masks = [space.empty(), space.full(), space.singleton(n - 1)]
    masks += [space.subset_of_indices(members) for members in sets[3:]]
    for members, m in zip(sets, masks):
        # Reference: every position in ascending order, tested against the set.
        want = [i for i in range(n) if i in members]
        assert m.indices().tolist() == want
        assert m.labels() == [space.atoms[i] for i in want]
        assert m.count() == len(members)


@pytest.mark.parametrize("n", [1, 8, 9, 64, 65, 1000])
def test_mask_builders_set_exactly_the_members(n):
    space = _space(n)
    rng = np.random.default_rng(n)
    chosen = set(rng.integers(0, n, size=n // 2 + 1).tolist())
    members = sorted(chosen)
    want = [i in chosen for i in range(n)]
    assert space.subset_of_indices(members).member.tolist() == want
    assert space.subset_of_indices(reversed(members)).member.tolist() == want
    # numpy integers past position 63 land where plain ints do
    assert space.subset_of_indices(np.array(members)).member.tolist() == want
    labels = [space.atoms[i] for i in members]
    assert space.subset_of_labels(labels).member.tolist() == want
    assert space.subset_of_indices([]).member.tolist() == [False] * n
    with pytest.raises(ValueError, match="out of range"):
        space.subset_of_indices(members + [n])
    with pytest.raises(ValueError, match="out of range"):
        space.subset_of_indices([-1])
    with pytest.raises(ValueError, match="unknown atom label 'zz'"):
        space.subset_of_labels(labels + ["zz"])


@pytest.mark.parametrize("n", [1, 7, 8, 9, 63, 64, 65, 1000, 10_000])
def test_masked_sum_is_the_ascending_scalar_loop(n):
    space = _space(n)
    rng = np.random.default_rng(n)
    values = rng.normal(size=(2, n)) * 10.0 ** rng.integers(-3, 4, size=(2, n))
    values = values + 1j * rng.normal(size=(2, n))
    sets = [space.empty(), space.full()]
    sets += [space.subset_of_indices(np.flatnonzero(rng.random(n) < p)) for p in (0.1, 0.5, 0.9)]
    for e in sets:
        got = _masked_sum(values, e)
        want = _sum_loop(values, e.indices().tolist())
        assert got.view(np.uint64).tolist() == want.view(np.uint64).tolist()
