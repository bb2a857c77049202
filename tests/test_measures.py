"""Measure tables: set values, kinds, variation, domination, normalization."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import hypmeasure.measures as measures_mod
from hypmeasure import (
    Bicomplex,
    FiniteSpace,
    Hyperbolic,
    MeasureKind,
    TFunction,
    TMeasure,
    abs_continuous,
    all_subsets,
    cesaro_invariant,
    convex_combine,
    dominates,
    integrate,
    invariant_basis_bruteforce,
    measure_to_obj,
    normalize_to_probability,
    parse_measure,
    probability_variant,
    pushforward,
    pushforward_iter,
    set_partitions,
    subset_sums,
    sup_d,
    total_variation_bruteforce,
    variation_measure,
)
from hypmeasure import generators as gen


@pytest.fixture
def space():
    return FiniteSpace(("a", "b"))


class TestConstruction:
    def test_from_atoms_and_of(self, space):
        mu = TMeasure.from_atoms(
            space, {"a": Bicomplex(3, -2), "b": Bicomplex(5, 0)}
        )
        assert mu.of(space.full()) == Bicomplex(8, -2)
        assert mu.of(space.empty()) == Bicomplex.zero()
        assert mu.of(space.singleton(1)) == Bicomplex(5, 0)
        assert mu.atom(0) == Bicomplex(3, -2)

    def test_omitted_atoms_are_zero(self, space):
        mu = TMeasure.from_atoms(space, {"b": 2.5})
        assert mu.atom(0).is_zero()
        assert mu.atom(1) == Bicomplex(2.5, 2.5)

    def test_shape_validation(self, space):
        cases = [
            (np.zeros(3), np.zeros(2)),  # wrong length
            (np.zeros(3), np.zeros(3)),
            ([1.0, 2.0], [1.0]),  # ragged
            ([1.0, 2.0], [[1.0, 2.0], [3.0, 4.0]]),
            (1.0, 2.0),  # scalars
            (np.zeros((2, 1)), np.zeros((2, 1))),  # 2-D components
            (np.zeros((1, 2)), np.zeros((1, 2))),
        ]
        for e1, e2 in cases:
            with pytest.raises(ValueError, match="^component arrays must have one entry per atom$"):
                TMeasure(space, e1, e2)
        # A value that is not a number keeps numpy's own message.
        with pytest.raises(ValueError, match="malformed string"):
            TMeasure(space, ["x", "y"], [1.0, 2.0])

    def test_components_are_rows_of_one_read_only_table(self, space):
        mu = TMeasure(space, [1, 2j], [3, 4])
        assert mu.c.shape == (2, 2) and mu.c.dtype == np.complex128
        assert mu.e1.base is mu.c and mu.e2.base is mu.c
        assert mu.e1.tolist() == [1, 2j] and mu.e2.tolist() == [3, 4]
        for arr in (mu.c, mu.e1, mu.e2):
            assert not arr.flags.writeable

    def test_immutability(self, space):
        mu = TMeasure.zero(space)
        with pytest.raises(AttributeError, match="^TMeasure is immutable$"):
            mu.e1 = np.ones(2)
        with pytest.raises(ValueError):
            mu.e1[0] = 1.0

    def test_wrong_space_mask(self, space):
        other = FiniteSpace(("x", "y"))
        mu = TMeasure.zero(space)
        with pytest.raises(ValueError):
            mu.of(other.full())

    def test_additivity_is_structural(self, space):
        mu = TMeasure.from_atoms(space, {"a": Bicomplex(1j, 2), "b": Bicomplex(3, -1j)})
        split = mu.of(space.singleton(0)) + mu.of(space.singleton(1))
        assert mu.of(space.full()) == split


class TestKinds:
    def test_chain(self, space):
        assert TMeasure.from_atoms(space, {"a": Bicomplex(1j, 0)}).kind is MeasureKind.T
        assert TMeasure.from_atoms(space, {"a": Bicomplex(-1, 0)}).kind is MeasureKind.SIGNED_D
        assert TMeasure.from_atoms(space, {"a": Bicomplex(1, 2)}).kind is MeasureKind.D_PLUS
        inf_mu = TMeasure(space, np.array([np.inf, 0.0]), np.zeros(2))
        assert inf_mu.kind is MeasureKind.D
        assert not inf_mu.is_finite()

    @pytest.mark.parametrize("where", ["e1", "e2", "both"])
    def test_nan_mass_is_not_d(self, space, where):
        # NaN < 0 is false, so a NaN mass must not read as a D+ value.
        nan = np.array([np.nan, 1.0])
        one = np.ones(2)
        e1 = nan if where in ("e1", "both") else one
        e2 = nan if where in ("e2", "both") else one
        mu = TMeasure(space, e1, e2)
        assert mu.kind is MeasureKind.SIGNED_D
        assert not mu.is_d_measure() and mu.is_real()
        with pytest.raises(ValueError, match="D-measure"):
            abs_continuous(TMeasure(space, one, one), mu)

    def test_predicates(self, space):
        mu = TMeasure.from_atoms(space, {"a": Bicomplex(1, 2)})
        assert mu.is_d_measure() and mu.is_real() and mu.is_finite()
        signed = TMeasure.from_atoms(space, {"a": Bicomplex(-1, 2)})
        assert not signed.is_d_measure()
        assert signed.is_real()


class TestArithmetic:
    def test_add_sub_neg(self, space):
        a = TMeasure.from_atoms(space, {"a": Bicomplex(1, 2)})
        b = TMeasure.from_atoms(space, {"a": Bicomplex(3, -1), "b": Bicomplex(1, 1)})
        assert (a + b).atom(0) == Bicomplex(4, 1)
        assert (a - b).atom(1) == Bicomplex(-1, -1)
        assert (-a).atom(0) == Bicomplex(-1, -2)
        # a measure and a function do not combine, in either order
        f = TFunction.from_atoms(space, {"a": Bicomplex(1, 2)})
        for x, y in ((a, f), (f, a)):
            with pytest.raises(TypeError):
                x + y
            with pytest.raises(TypeError):
                x - y

    def test_scaling_by_idempotent_annihilates(self, space):
        mu = TMeasure.from_atoms(space, {"a": Bicomplex(1, 1)})
        out = mu.scaled(Hyperbolic(2, 0))
        assert out.atom(0) == Bicomplex(2, 0)

    def test_scaling_by_bicomplex(self, space):
        mu = TMeasure.from_atoms(space, {"a": Bicomplex(1 + 1j, 2)})
        out = mu.scaled(Bicomplex(2j, -1))
        assert out.atom(0) == Bicomplex(-2 + 2j, -2)

    def test_measure_and_function_scale_bitwise_alike(self):
        # numpy's complex product need not commute in the last bit, so
        # both roles must multiply in one order.
        rng = np.random.default_rng(5)
        n = 2000
        space = FiniteSpace(tuple(f"x{i}" for i in range(n)))
        e1 = rng.normal(size=n) + 1j * rng.normal(size=n)
        e2 = rng.normal(size=n) + 1j * rng.normal(size=n)
        c = Bicomplex(0.3 + 0.7j, -1.1 + 0.2j)
        mu = TMeasure(space, e1, e2).scaled(c)
        f = TFunction(space, e1, e2).scaled(c)
        for got, want in ((mu.e1, f.e1), (mu.e2, f.e2)):
            assert got.tobytes() == want.tobytes()

    def test_scalar_multiplication_operator(self, space):
        mu = TMeasure.from_atoms(space, {"a": Bicomplex(1, 1)})
        assert (2 * mu).atom(0) == Bicomplex(2, 2)
        assert (mu * 2).equal_exact(2 * mu)
        # complex scalars are refused by measures and accepted by functions
        for product in (lambda: mu * 1j, lambda: 1j * mu, lambda: mu.scaled(1j)):
            with pytest.raises(TypeError):
                product()
        f = TFunction.from_atoms(space, {"a": Bicomplex(1, 2)})
        assert (f * 1j).value_at(0) == Bicomplex(1j, 2j)
        assert (1j * f).value_at(0) == Bicomplex(1j, 2j)

    def test_space_mismatch(self, space):
        other = FiniteSpace(("x", "y"))
        with pytest.raises(ValueError, match="^measures live on different spaces$"):
            TMeasure.zero(space) + TMeasure.zero(other)
        with pytest.raises(ValueError, match="^measures live on different spaces$"):
            TMeasure.zero(space) - TMeasure.zero(other)
        with pytest.raises(ValueError, match="^functions live on different spaces$"):
            TFunction.constant(space, 1) - TFunction.constant(other, 1)

    def test_repr_names_the_role(self, space):
        mu = TMeasure.from_atoms(space, {"a": Bicomplex(1, 2)})
        assert repr(mu) == "TMeasure(a: (1+0j, 2+0j), b: (0+0j, 0+0j))"
        f = TFunction.from_atoms(space, {"b": 3})
        assert repr(f) == "TFunction(a: (0+0j, 0+0j), b: (3+0j, 3+0j))"


class TestTotalVariation:
    def test_frozen_signed_example(self, space):
        mu = TMeasure.from_atoms(space, {"a": Bicomplex(1, -1), "b": Bicomplex(-1, 1)})
        assert mu.total_variation(space.full()) == Hyperbolic(2, 2)
        # the plain set value sees cancellation, the variation does not
        assert mu.of(space.full()) == Bicomplex.zero()

    def test_matches_bruteforce_exactly_on_gaussian_integers(self):
        space = FiniteSpace(("a", "b", "c"))
        mu = TMeasure.from_atoms(
            space,
            {"a": Bicomplex(3 + 4j, 5), "b": Bicomplex(5, -12j), "c": Bicomplex(-8, 6j)},
        )
        for e in all_subsets(space):
            assert mu.total_variation(e) == total_variation_bruteforce(mu, e)

    def test_bruteforce_cap(self):
        # 13 atoms raise before any partition table is looked up or built.
        big = FiniteSpace(tuple(f"x{i}" for i in range(13)))
        before = measures_mod._partition_table.cache_info()
        with pytest.raises(ValueError, match="partition"):
            total_variation_bruteforce(TMeasure.zero(big), big.full())
        after = measures_mod._partition_table.cache_info()
        assert (after.hits, after.misses) == (before.hits, before.misses)

    def test_empty_set_is_positive_zero(self, space):
        mu = TMeasure.from_atoms(space, {"a": Bicomplex(3 + 4j, -2), "b": Bicomplex(-1, 1j)})
        tv = total_variation_bruteforce(mu, space.empty())
        assert tv == Hyperbolic(0, 0)
        assert tv.e1.hex() == tv.e2.hex() == "0x0.0p+0"

    @pytest.mark.parametrize("k", range(8))
    def test_partition_table_rows_are_set_partitions(self, k):
        table = measures_mod._partition_table(k)
        want = [
            [sum(1 << i for i in block) for block in p] + [0] * (k - len(p))
            for p in set_partitions(range(k))
        ]
        assert table.dtype == np.int16 and not table.flags.writeable
        assert table.tolist() == want

    def test_partition_table_has_bell_many_rows(self):
        bell = [1, 1, 2, 5, 15, 52, 203, 877, 4140, 21147, 115975]
        for k, rows in enumerate(bell):
            assert measures_mod._partition_table(k).shape == (rows, k)

    @pytest.mark.parametrize("mode", ["integer", "dyadic", "float"])
    @pytest.mark.parametrize("n", range(1, 9))
    def test_matches_the_scalar_walk_bitwise(self, n, mode):
        rng = np.random.default_rng([n, len(mode)])
        space = gen.make_space(n)
        for draw in range(6):
            mu = gen.gen_t_measure(rng, space, mode)
            if draw % 2:
                # Masses far apart in scale, up and down to 1e+-300.
                mu = TMeasure(space, *(mu.c * 10.0 ** rng.choice([-300, 0, 300], size=n)))
            e = space.subset_of_indices(np.flatnonzero(rng.random(n) < 0.8).tolist())
            got = total_variation_bruteforce(mu, e)
            want = _partition_walk(mu, e)
            assert (got.e1.hex(), got.e2.hex()) == (want.e1.hex(), want.e2.hex())

    def test_a_nan_partition_sum_makes_the_component_nan(self):
        # The one-block partition comes first: its e1 modulus is
        # hypot(NaN, -inf) = inf, and the walk's max kept it, skipping the
        # NaN of the singletons. The maximum over the array keeps the NaN,
        # as the closed form does.
        space = FiniteSpace(("a", "b"))
        mu = TMeasure(space, [complex(np.nan, 0.0), complex(1.0, -np.inf)], [1.0, 2.0])
        assert _partition_walk(mu, space.full()) == Hyperbolic(np.inf, 3.0)
        for tv in (total_variation_bruteforce(mu, space.full()), mu.total_variation(space.full())):
            assert math.isnan(tv.e1) and tv.e2 == 3.0

    def test_masses_near_the_float_limit_warn_nothing(self):
        # Block sums and moduli overflow to inf, as the walk's do, without
        # a warning (pyproject.toml makes one an error).
        space = FiniteSpace(("a", "b", "c", "d"))
        big = 1.7e308
        mu = TMeasure(space, [big, big, -big, -big], [big * (1 + 1j), big, big, big])
        for e in all_subsets(space):
            got = total_variation_bruteforce(mu, e)
            want = _partition_walk(mu, e)
            assert (got.e1.hex(), got.e2.hex()) == (want.e1.hex(), want.e2.hex())
        assert total_variation_bruteforce(mu, space.full()) == Hyperbolic(np.inf, np.inf)

    def test_variation_measure_agrees(self, space):
        mu = TMeasure.from_atoms(space, {"a": Bicomplex(3 + 4j, -2), "b": Bicomplex(-1, 1j)})
        var = variation_measure(mu)
        assert var.kind is MeasureKind.D_PLUS
        got = var.of(space.full())
        want = mu.total_variation(space.full())
        assert (got.e1.real, got.e2.real) == (want.e1, want.e2)


class TestDomination:
    def test_variation_dominates(self, space):
        mu = TMeasure.from_atoms(space, {"a": Bicomplex(1, -1), "b": Bicomplex(-1, 1)})
        assert dominates(variation_measure(mu), mu)

    def test_half_mass_fails(self, space):
        mu = TMeasure.from_atoms(space, {"a": Bicomplex(2, 2)})
        assert not dominates(mu.scaled(0.5), mu)

    def test_non_d_reference_rejected(self, space):
        mu = TMeasure.from_atoms(space, {"a": Bicomplex(1, 1)})
        signed = TMeasure.from_atoms(space, {"a": Bicomplex(-1, 1)})
        with pytest.raises(ValueError, match="D-measure"):
            dominates(signed, mu)

    @pytest.mark.parametrize("n", [21, 10_000])
    def test_runs_at_any_size(self, n):
        # Domination is checked atom by atom, so no size is refused.
        rng = np.random.default_rng(n)
        big = FiniteSpace(tuple(f"x{i}" for i in range(n)))
        mu = TMeasure(big, rng.normal(size=n) + 1j * rng.normal(size=n), rng.normal(size=n))
        assert dominates(variation_measure(mu), mu)
        assert not dominates(variation_measure(mu).scaled(0.5), mu)

    def test_bound_past_the_float_range_holds_without_a_warning(self):
        # Each side of a two-atom subset sums to the largest float; the
        # atomwise check forms no sum, and every subset is dominated.
        # pyproject.toml turns any RuntimeWarning into an error.
        space = FiniteSpace(("a", "b"))
        half = np.finfo(float).max / 2
        mu = TMeasure(space, [half, half], [1.0, 1.0])
        assert dominates(variation_measure(mu), mu)
        assert not dominates(variation_measure(mu).scaled(0.5), mu)

    def test_verdicts_match_the_full_array_form(self):
        # The verdict of the rounded form over the whole 2**n array of
        # subset sums, on ties (|mu|_D against mu), near misses and clear
        # failures.
        rng = np.random.default_rng(11)
        verdicts = set()
        for case in range(300):
            n = int(rng.integers(1, 11))
            space = FiniteSpace(tuple(f"x{i}" for i in range(n)))
            mu = TMeasure(
                space,
                rng.normal(size=n) + 1j * rng.normal(size=n) * (case % 2),
                rng.normal(size=n),
            )
            lam = variation_measure(mu).scaled(float(rng.choice([0.5, 0.999, 1.0, 1.5])))
            full = measures_mod._at_most(
                np.abs(subset_sums(mu.c)),
                subset_sums(lam.c.real),
                n,
                subset_sums(np.abs(mu.c)),
                n,
            )
            assert dominates(lam, mu) is full
            verdicts.add(full)
        assert verdicts == {True, False}


class TestNormalization:
    def test_full_variant(self, space):
        mu = TMeasure.from_atoms(space, {"a": Bicomplex(1, 1), "b": Bicomplex(1, 3)})
        p = normalize_to_probability(mu)
        assert p.atom(0) == Bicomplex(0.5, 0.25)
        assert p.atom(1) == Bicomplex(0.5, 0.75)
        assert probability_variant(p) == Hyperbolic(1, 1)

    def test_degenerate_component(self, space):
        mu = TMeasure.from_atoms(space, {"a": Bicomplex(2, 0)})
        p = normalize_to_probability(mu)
        assert probability_variant(p) == Hyperbolic(1, 0)

    def test_zero_measure_rejected(self, space):
        with pytest.raises(ValueError, match="zero measure"):
            normalize_to_probability(TMeasure.zero(space))

    def test_variant_detection(self, space):
        e2_only = TMeasure.from_atoms(space, {"a": Bicomplex(0, 1)})
        assert probability_variant(e2_only) == Hyperbolic(0, 1)
        with pytest.raises(ValueError):
            probability_variant(TMeasure.from_atoms(space, {"a": Bicomplex(2, 1)}))

    @pytest.mark.parametrize("n", [37_669, 100_000, 1_000_000])
    def test_uniform_masses_at_any_size(self, n):
        # The ascending sum of n masses 1/n misses 1 by more than the
        # 1e-12 hand-rounding slack from 37,669 atoms on.
        space = gen.make_space(n)
        u = np.full(n, 1.0 / n)
        zero = np.zeros(n)
        assert probability_variant(TMeasure(space, u, u)) == Hyperbolic(1, 1)
        assert probability_variant(TMeasure(space, u, zero)) == Hyperbolic(1, 0)
        assert probability_variant(TMeasure(space, zero, u)) == Hyperbolic(0, 1)

    @pytest.mark.parametrize("total", [1.0 + 2e-12, 1.0 - 2e-12, 2e-12, math.inf])
    def test_totals_past_the_slack_are_refused(self, space, total):
        mu = TMeasure(space, [total, 0.0], [0.5, 0.5])
        with pytest.raises(ValueError, match="total mass"):
            probability_variant(mu)


def _built_every_way(rng, variant):
    """Measures of one variant, each from another constructor: ``__init__``,
    ``_views``, arithmetic, ``from_atoms``, ``parse_measure`` and the bound
    (2, n) arrays of the dynamics."""
    space = gen.make_space(int(rng.integers(1, 9)))
    mu = gen.gen_d_probability(rng, space, variant=variant, dyadic=True)
    nu = gen.gen_d_probability(rng, space, variant=variant)
    f = gen.gen_map_with_small_cycles(rng, space)
    stack = np.array([mu.c, nu.c])
    return {
        "init": TMeasure(space, *mu.c),
        "views": TMeasure._views(space, stack)[1],
        "sum": (mu + nu).scaled(0.5),
        "difference": (mu + mu) - mu,
        "negation": -(-nu),
        "from_atoms": TMeasure.from_atoms(space, {a: mu.atom(i) for i, a in enumerate(space.atoms)}),
        "parse": parse_measure(measure_to_obj(nu)),
        "pushforward": pushforward(f, nu),
        "pushforward_iter": pushforward_iter(f, mu, 5),
        "convex_combine": convex_combine(mu, nu, 0.25),
        "cesaro": cesaro_invariant(f, nu, max_iter=100, tol=1e-12).limit,
        "basis": invariant_basis_bruteforce(f)[0],
    }


@pytest.mark.parametrize("variant", ["full", "e1", "e2"])
def test_cached_variant_equals_a_fresh_computation(variant):
    rng = np.random.default_rng(["full", "e1", "e2"].index(variant))
    for _ in range(20):
        for how, mu in _built_every_way(rng, variant).items():
            assert mu._variant is None and not mu.c.flags.writeable, how
            got = probability_variant(mu)
            assert mu._variant is got, how
            assert probability_variant(mu) is got, how
            # A fresh measure over a copy of the masses computes it anew.
            fresh = TMeasure(mu.space, *mu.c.copy())
            assert probability_variant(fresh) == got, how
            # A result of arithmetic starts with no variant of its own.
            assert (mu + mu)._variant is None and probability_variant(-(-mu)) == got, how


@pytest.mark.parametrize(
    "e1, e2, message",
    [
        ([0.5, 0.6], [0.5, 0.5], "total mass"),
        ([0.5, 0.5], [-0.5, 1.5], "D-measure"),
        ([0.5, 0.5j], [0.5, 0.5], "D-measure"),
    ],
)
def test_a_failed_variant_is_not_cached(space, e1, e2, message):
    mu = TMeasure(space, e1, e2)
    for _ in range(2):
        with pytest.raises(ValueError, match=message):
            probability_variant(mu)
        assert mu._variant is None


def _partition_walk(mu, e):
    """The scalar partition walk, the reference for the array oracle
    total_variation_bruteforce: per partition, in set_partitions order, each block's ascending sum,
    its modulus and the running total from +0.0; then sup_d, whose max
    keeps the first of the values that compare unordered."""
    indices = e.indices().tolist()
    if not indices:
        return Hyperbolic(0.0, 0.0)
    m1 = mu.e1.tolist()
    m2 = mu.e2.tolist()
    best = []
    with np.errstate(over="ignore", invalid="ignore"):
        for partition in set_partitions(indices):
            u = 0.0
            v = 0.0
            for block in partition:
                s1 = 0j
                s2 = 0j
                for i in block:
                    s1 += m1[i]
                    s2 += m2[i]
                u += float(np.abs(s1))
                v += float(np.abs(s2))
            best.append(Hyperbolic(u, v))
    return sup_d(best)


def test_subset_sums_oracle():
    values = np.array([1.0, 10.0, 100.0])
    sums = subset_sums(values)
    assert len(sums) == 8
    # bit m of the index selects values[m]
    for m in range(8):
        want = sum(values[k] for k in range(3) if m >> k & 1)
        assert sums[m] == want


_AWKWARD = [-0.0, 0.0, 5e-324, -5e-324, 2.2e-308, np.inf, -np.inf, 1.5, -2.25, 0.1, 1e308]


def _subset_sum_blocks(values, block_bits):
    """The subset sums block by block, built apart from subset_sums' doubling.

    Block h holds the entries whose bits past the low ``block_bits`` spell
    h. Its low part folds the low values in ascending order, one masked add
    per value; the high values it holds are then added to it in ascending
    order. ``None`` makes one block of all n bits.
    """
    n = values.shape[-1]
    bits = n if block_bits is None else min(block_bits, n)
    entries = np.arange(1 << bits)
    low = np.zeros(values.shape[:-1] + (1 << bits,), dtype=values.dtype)
    for k in range(bits):
        low = np.where(entries >> k & 1 == 1, low + values[..., k, None], low)
    for h in range(1 << (n - bits)):
        block = low
        for k in range(bits, n):
            if h >> (k - bits) & 1:
                block = block + values[..., k, None]
        yield h << bits, block


@pytest.mark.parametrize("block_bits", [None, 2])
@pytest.mark.parametrize("n", range(17))
@pytest.mark.parametrize("dtype", [np.float64, np.complex128])
def test_subset_sum_blocks_reassemble_subset_sums_bitwise(n, dtype, block_bits):
    # subset_sums is the ascending left fold of each subset, bit for bit,
    # on signed zeros, subnormals, infinities (so NaNs) and overflowing
    # sums; compared through a uint64 view so -0.0 and NaN payloads count.
    rng = np.random.default_rng(n)
    values = rng.choice(_AWKWARD, size=(2, n)).astype(dtype)
    if dtype is np.complex128:
        values.imag = rng.choice(_AWKWARD, size=(2, n))
    with np.errstate(over="ignore", invalid="ignore"):
        want = subset_sums(values)
        covered = 0
        for start, block in _subset_sum_blocks(values, block_bits):
            width = block.shape[-1]
            expected = want[..., start : start + width]
            assert np.array_equal(block.view(np.uint64), expected.view(np.uint64))
            covered += width
    assert covered == 1 << n


@given(st.lists(st.integers(-9, 9), min_size=1, max_size=6))
@settings(max_examples=100, deadline=None)
def test_variation_additive_over_complements(masses):
    space = FiniteSpace(tuple(f"x{i}" for i in range(len(masses))))
    mu = TMeasure(space, np.array(masses, dtype=float), -np.array(masses, dtype=float))
    for e in all_subsets(space):
        lhs = mu.total_variation(space.full())
        rhs = mu.total_variation(e) + mu.total_variation(e.complement())
        assert lhs == rhs


def _exact(z):
    # float.hex tells -0.0 from +0.0, so equal strings mean equal bits.
    z = complex(z)
    return z.real.hex(), z.imag.hex()


def _ascending_sum(terms, members):
    s = 0j
    for i in members:
        s += terms[i]
    return s


@pytest.mark.parametrize("n", [1, 4, 9, 65, 1000])
def test_set_sums_equal_the_ascending_scalar_sum_bitwise(n):
    space = FiniteSpace(tuple(f"x{i}" for i in range(n)))
    rng = np.random.default_rng(n)
    scale = 10.0 ** rng.integers(-300, 300, size=n)
    mu = TMeasure(
        space,
        rng.standard_normal(n) * scale + 1j * rng.standard_normal(n),
        rng.standard_normal(n) * scale,
    )
    d = variation_measure(mu)
    # -0.0 entries and values down to 1e-200, whose products with the
    # masses down to 1e-300 underflow to zeros of either sign.
    f1 = rng.standard_normal(n) * 1j
    f1[rng.random(n) < 0.2] = complex(-0.0, -0.0)
    f2 = rng.standard_normal(n) * 10.0 ** rng.integers(-200, 1, size=n)
    f2[rng.random(n) < 0.2] = -0.0
    f = TFunction(space, f1, f2)
    abs1, abs2 = np.abs(mu.e1), np.abs(mu.e2)
    total = mu.total()
    assert _exact(total.e1) == _exact(_ascending_sum(mu.e1, range(n)))
    assert _exact(total.e2) == _exact(_ascending_sum(mu.e2, range(n)))
    for p in (None, 0.0, 0.3, 1.0):
        # None integrates over the whole space without a mask.
        members = range(n) if p is None else np.flatnonzero(rng.random(n) < p).tolist()
        e = None if p is None else space.subset_of_indices(members)
        if e is not None:
            got = mu.of(e)
            assert _exact(got.e1) == _exact(_ascending_sum(mu.e1, members))
            assert _exact(got.e2) == _exact(_ascending_sum(mu.e2, members))
            tv = mu.total_variation(e)
            assert tv.e1.hex() == _ascending_sum(abs1, members).real.hex()
            assert tv.e2.hex() == _ascending_sum(abs2, members).real.hex()
        val = integrate(f, d, e)
        terms1 = [f.e1[i] * d.e1.real[i] for i in range(n)]
        terms2 = [f.e2[i] * d.e2.real[i] for i in range(n)]
        assert _exact(val.e1) == _exact(_ascending_sum(terms1, members))
        assert _exact(val.e2) == _exact(_ascending_sum(terms2, members))


def test_overflowing_sums_are_inf_without_a_warning():
    # Finite masses near the top of the float range: their sums overflow
    # to inf, as the scalar loop's do, and pyproject.toml turns any
    # RuntimeWarning into an error.
    space = FiniteSpace(("a", "b", "c"))
    big = np.array([1e308, 1e308, -1e308])
    mu = TMeasure(space, big, big * 1j)
    e = space.subset_of_indices([0, 1])
    assert mu.of(e) == Bicomplex(np.inf, complex(0, np.inf))
    assert mu.total() == Bicomplex(complex(np.inf, 0), complex(0, np.inf))
    assert mu.total_variation(e) == Hyperbolic(np.inf, np.inf)
    assert mu.total_variation(space.full()) == Hyperbolic(np.inf, np.inf)
    # A masked integral is bounded by the integral of |f|, which must be
    # finite: near the top of the range the masked sum stays finite, and
    # an overflowing one makes f non-integrable. Neither warns.
    d = TMeasure(space, [1e308, 7e307, 1e308], np.ones(3))
    f = TFunction(space, [1.0, 1.0, 0.0], [1.0, 1.0, 1.0])
    assert integrate(f, d, e) == Bicomplex(1.7e308, 2.0)
    with pytest.raises(ValueError, match="not integrable"):
        integrate(TFunction.constant(space, 1.0), d, e)


def test_all_negative_zero_masses_sum_to_positive_zero():
    # The ascending sum starts at +0.0, and +0.0 + -0.0 is +0.0; a
    # cumulative sum seeded with the first term would keep -0.0.
    n = 70
    space = FiniteSpace(tuple(f"x{i}" for i in range(n)))
    neg = np.full(n, complex(-0.0, -0.0))
    mu = TMeasure(space, neg, neg)
    total = mu.total()
    assert _exact(total.e1) == _exact(total.e2) == ("0x0.0p+0", "0x0.0p+0")
    for e in (space.full(), space.subset_of_indices(range(0, n, 3))):
        got = mu.of(e)
        assert _exact(got.e1) == _exact(got.e2) == ("0x0.0p+0", "0x0.0p+0")
        tv = mu.total_variation(e)
        assert tv.e1.hex() == tv.e2.hex() == "0x0.0p+0"
    f = TFunction(space, neg, neg)
    d = TMeasure(space, np.ones(n), np.ones(n))
    val = integrate(f, d)
    assert _exact(val.e1) == _exact(val.e2) == ("0x0.0p+0", "0x0.0p+0")


def test_support_mask_past_63_atoms():
    n = 130
    space = FiniteSpace(tuple(f"x{i}" for i in range(n)))
    e = np.zeros(n)
    e[[3, 64, 70, 129]] = 1.0
    mu = TMeasure(space, e, np.zeros(n))
    assert mu.support_mask().indices().tolist() == [3, 64, 70, 129]
