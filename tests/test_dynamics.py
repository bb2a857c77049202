"""Push-forward dynamics, Cesaro averaging and the invariant hull."""

import numpy as np
import pytest

from hypmeasure import (
    Bicomplex,
    FiniteSpace,
    Hyperbolic,
    PointMap,
    TFunction,
    TMeasure,
    cesaro_invariant,
    change_of_variables_check,
    continuity_probe,
    convex_combine,
    in_invariant_hull,
    integrate,
    invariant_basis_bruteforce,
    is_invariant,
    pushforward,
    pushforward_iter,
)


@pytest.fixture
def cycle3():
    space = FiniteSpace(("a", "b", "c"))
    return space, PointMap(space, [1, 2, 0])


@pytest.fixture
def tail_map():
    # c -> b -> a -> a: one fixed point with a transient tail.
    space = FiniteSpace(("a", "b", "c"))
    return space, PointMap(space, [0, 0, 1])


def _uniform(space):
    mass = np.full(space.size, 1.0 / space.size)
    return TMeasure(space, mass, mass.copy())


def _delta(space, label):
    return TMeasure.from_atoms(space, {label: Bicomplex(1, 1)})


class TestPointMap:
    def test_image_validation(self):
        space = FiniteSpace(("a", "b"))
        with pytest.raises(ValueError, match="out of range"):
            PointMap(space, [0, 2])
        with pytest.raises(ValueError, match="one target"):
            PointMap(space, [0])

    def test_from_labels_total(self):
        space = FiniteSpace(("a", "b"))
        f = PointMap.from_labels(space, {"a": "b", "b": "b"})
        assert f.apply(0) == 1 and f.apply(1) == 1
        with pytest.raises(ValueError, match="not total"):
            PointMap.from_labels(space, {"a": "b"})

    def test_immutable(self, cycle3):
        space, f = cycle3
        with pytest.raises(AttributeError):
            f.image = None
        with pytest.raises(ValueError):
            f.image[0] = 2

    def test_preimage(self, tail_map):
        space, f = tail_map
        assert f.preimage(space.singleton(0)).labels() == ["a", "b"]
        assert f.preimage(space.singleton(1)).labels() == ["c"]
        assert f.preimage(space.full()) == space.full()
        other = FiniteSpace(("x", "y", "z"))
        with pytest.raises(ValueError):
            f.preimage(other.singleton(0))

    def test_pullback(self, cycle3):
        space, f = cycle3
        phi = TFunction.from_atoms(
            space, {"a": Bicomplex(1, 0), "b": Bicomplex(2, 0), "c": Bicomplex(3, 0)}
        )
        pulled = f.pullback(phi)
        # (phi after f)(x) = phi(f(x))
        assert [pulled.value_at(i).e1 for i in range(3)] == [2, 3, 1]


class TestPushforward:
    def test_cycle_rotation(self, cycle3):
        space, f = cycle3
        mu = TMeasure(space, [0.5, 0.25, 0.25], [0.5, 0.25, 0.25])
        nu = pushforward(f, mu)
        assert list(nu.e1.real) == [0.25, 0.5, 0.25]
        total = nu.of(space.full())
        assert total == Bicomplex(1, 1)  # mass is conserved

    def test_merging_preimage(self, tail_map):
        space, f = tail_map
        mu = _uniform(space)
        nu = pushforward(f, mu)
        # a and b both map to a; c maps to b
        assert nu.atom(0) == Bicomplex(2.0 / 3.0, 2.0 / 3.0)
        want_b = TMeasure(space, [2 / 3, 1 / 3, 0], [2 / 3, 1 / 3, 0])
        assert nu.equal_exact(want_b)

    def test_requires_probability(self, cycle3):
        space, f = cycle3
        heavy = TMeasure(space, [1.0, 1.0, 0.0], [1.0, 1.0, 0.0])
        with pytest.raises(ValueError):
            pushforward(f, heavy)

    def test_space_mismatch(self, cycle3):
        space, f = cycle3
        other = _uniform(FiniteSpace(("x", "y", "z")))
        with pytest.raises(ValueError, match="different spaces"):
            pushforward(f, other)

    def test_iterate_full_cycle_is_identity(self, cycle3):
        space, f = cycle3
        mu = TMeasure(space, [0.5, 0.25, 0.25], [0.125, 0.375, 0.5])
        assert pushforward_iter(f, mu, 3).equal_exact(mu)
        once = pushforward_iter(f, mu, 1)
        assert once.equal_exact(pushforward(f, mu))

    @pytest.mark.parametrize("case", [*range(8), "path", "identity", "on-cycles"])
    def test_long_iterates_match_single_pushes(self, case):
        # Random maps have tails, permutations none; counts past the
        # longest carrying tail take the index-power shortcut, which must
        # give the bits of the literal loop. "path" is a tail of depth
        # n-1 into a fixed point, "identity" has no tails, and
        # "on-cycles" holds mass on cycle atoms only, with -0.0 entries.
        rng = np.random.default_rng(case if isinstance(case, int) else 8)
        n = int(rng.integers(1, 30)) if isinstance(case, int) else 23
        space = FiniteSpace(tuple(f"x{i}" for i in range(n)))
        if case == "path":
            image = np.maximum(np.arange(n) - 1, 0)
        elif case == "identity":
            image = np.arange(n)
        elif isinstance(case, int) and case >= 6:
            image = rng.permutation(n)
        else:
            image = rng.integers(0, n, size=n)
        f = PointMap(space, image)
        mass = rng.random((2, n)) * (rng.random((2, n)) < 0.6)
        if case == "on-cycles":
            mass[:, ~f._cycle_structure()[0]] = 0.0
            mass[:, np.flatnonzero(f._cycle_structure()[0])[0]] += 0.25
        else:
            mass[:, n - 1 if case == "path" else 0] += 0.25
        mass /= mass.sum(axis=1, keepdims=True)
        if case in (1, 3, 5, 7):
            mass[1] = 0.0  # the e1 variant
        mass[mass == 0.0] = -0.0
        mu = TMeasure(space, mass[0], mass[1])
        step = mu
        for i in range(1, 3 * n + 8):
            step = pushforward(f, step)
            got = pushforward_iter(f, mu, i)
            assert got.e1.tobytes() == step.e1.tobytes(), i
            assert got.e2.tobytes() == step.e2.tobytes(), i

    def test_single_push_skips_the_cycle_structure(self, cycle3, tail_map):
        for space, f in (cycle3, tail_map):
            pushforward_iter(f, _uniform(space), 1)
            assert f._cycle_cache is None

    def test_huge_count_on_a_swap(self):
        space = FiniteSpace(("a", "b"))
        f = PointMap(space, [1, 0])
        mu = TMeasure(space, [0.75, 0.25], [0.5, 0.5])
        assert pushforward_iter(f, mu, 10**9).equal_exact(mu)
        assert pushforward_iter(f, mu, 10**30 + 1).equal_exact(pushforward(f, mu))

    def test_iterate_count_validation(self, cycle3):
        space, f = cycle3
        with pytest.raises(ValueError, match=">= 1"):
            pushforward_iter(f, _uniform(space), 0)


class TestInvariance:
    def test_uniform_on_cycle(self, cycle3):
        space, f = cycle3
        assert is_invariant(f, _uniform(space), 1e-12)

    def test_transient_mass_breaks_it(self, tail_map):
        space, f = tail_map
        assert is_invariant(f, _delta(space, "a"), 1e-12)
        assert not is_invariant(f, _delta(space, "c"), 1e-12)

    def test_tol_validation(self, cycle3):
        space, f = cycle3
        with pytest.raises(ValueError, match="positive"):
            is_invariant(f, _uniform(space), 0.0)

    def test_component_lenient_edge(self):
        # On the swap map each atom's mass moves by exactly 0.25 in the
        # unbalanced components (dyadic values, so the gaps are exact).
        space = FiniteSpace(("x", "y"))
        f = PointMap(space, [1, 0])
        one = TMeasure(space, [0.5, 0.5], [0.625, 0.375])
        both = TMeasure(space, [0.625, 0.375], [0.375, 0.625])
        # A gap equal to tol in one component, strictly below in the other.
        assert is_invariant(f, one, 0.25)
        assert not is_invariant(f, one, 0.125)
        # Equal to tol in both components is not strictly below it.
        assert not is_invariant(f, both, 0.25)
        assert is_invariant(f, both, 0.5)


class TestChangeOfVariables:
    def test_exact_on_dyadic(self, cycle3):
        space, f = cycle3
        mu = TMeasure(space, [0.5, 0.25, 0.25], [0.125, 0.75, 0.125])
        phi = TFunction.from_atoms(
            space,
            {"a": Bicomplex(3, -2), "b": Bicomplex(1j, 5), "c": Bicomplex(-4, 1)},
        )
        res = change_of_variables_check(f, mu, phi)
        assert res.equal
        assert res.lhs == res.rhs
        # independent sum of phi(f(x)) * mu({x})
        want = Bicomplex.zero()
        for i in range(3):
            m = mu.atom(i)
            want = want + phi.value_at(f.apply(i)) * m
        assert res.rhs == want

    def test_indicator_recovers_preimage_mass(self, tail_map):
        space, f = tail_map
        mu = TMeasure(space, [0.5, 0.25, 0.25], [0.5, 0.25, 0.25])
        a = space.singleton(0)
        res = change_of_variables_check(f, mu, TFunction.indicator(a))
        assert res.equal
        assert res.lhs == mu.of(f.preimage(a))

    def test_function_space_mismatch(self, cycle3):
        space, f = cycle3
        other = FiniteSpace(("x", "y", "z"))
        with pytest.raises(ValueError, match="different space"):
            change_of_variables_check(f, _uniform(space), TFunction.constant(other, 1))


class TestConvexCombine:
    def test_exact_combination(self, cycle3):
        space, f = cycle3
        a = _uniform(space)
        b = _delta(space, "a")
        mix = convex_combine(a, b, 0.25)
        third = 1.0 / 3.0
        want = TMeasure(
            space,
            [0.25 * third + 0.75, 0.25 * third, 0.25 * third],
            [0.25 * third + 0.75, 0.25 * third, 0.25 * third],
        )
        assert mix.equal_exact(want)
        # invariance is preserved under mixing of invariant inputs
        u = _uniform(space)
        assert is_invariant(f, convex_combine(u, u, 0.5), 1e-12)

    def test_t_bounds(self, cycle3):
        space, _ = cycle3
        u = _uniform(space)
        with pytest.raises(ValueError, match="lie in"):
            convex_combine(u, u, 1.5)

    def test_variant_mismatch(self):
        space = FiniteSpace(("a", "b"))
        full = TMeasure(space, [0.5, 0.5], [0.5, 0.5])
        degenerate = TMeasure(space, [0.5, 0.5], [0.0, 0.0])
        with pytest.raises(ValueError, match="variants"):
            convex_combine(full, degenerate, 0.5)


class TestCesaro:
    def test_swap_map_averages_exactly(self):
        space = FiniteSpace(("x", "y"))
        f = PointMap(space, [1, 0])
        trace = cesaro_invariant(f, _delta(space, "x"), max_iter=10, tol=1e-12)
        assert trace.converged
        assert trace.burn_in == 0
        assert trace.limit.equal_exact(TMeasure(space, [0.5, 0.5], [0.5, 0.5]))
        assert trace.gaps[-1] == Hyperbolic(0, 0)
        assert len(trace.gaps) == 2

    def test_auto_burn_in_matches_tail_depth(self, tail_map):
        space, f = tail_map
        trace = cesaro_invariant(f, _delta(space, "c"), max_iter=10, tol=1e-12)
        assert trace.burn_in == 2
        assert trace.converged
        assert trace.limit.equal_exact(_delta(space, "a"))
        assert is_invariant(f, trace.limit, 1e-12)
        # On random maps the burn-in is the longest tail below an atom
        # with nonzero mass, walked here atom by atom.
        rng = np.random.default_rng(3)
        for _ in range(40):
            n = int(rng.integers(1, 40))
            space = FiniteSpace(tuple(f"x{i}" for i in range(n)))
            f = PointMap(space, rng.integers(0, n, size=n))
            mass = rng.random((2, n)) * (rng.random((2, n)) < 0.3)
            mass[:, int(rng.integers(n))] += 0.25
            mass /= mass.sum(axis=1, keepdims=True)
            mass[mass == 0.0] = -0.0
            mu0 = TMeasure(space, mass[0], mass[1])
            trace = cesaro_invariant(f, mu0, max_iter=1, tol=1e-12)
            on_cycle, _ = _cycle_structure_reference(f.image)
            carrying = np.flatnonzero((mass != 0.0).any(axis=0))
            depths = [_tail_depth(f.image, on_cycle, x) for x in carrying]
            assert trace.burn_in == max(depths)

    @pytest.mark.parametrize("n", [1, 5, 40, 9000, 20000])
    def test_gaps_equal_the_per_component_reference_bitwise(self, n):
        # The orbit replayed one component at a time: single bincount
        # pushes, and each gap an np.sum over one component's atoms.
        rng = np.random.default_rng(n)
        space = FiniteSpace(tuple(f"x{i}" for i in range(n)))
        image = rng.integers(0, n, size=n)
        f = PointMap(space, image)
        mass = rng.random((2, n))
        mass /= mass.sum(axis=1, keepdims=True)
        trace = cesaro_invariant(f, TMeasure(space, *mass), max_iter=12, tol=1e-12)

        def push(m):
            return np.bincount(image, weights=m, minlength=n)

        want = []
        for m in mass:
            for _ in range(trace.burn_in):
                m = push(m)
            total = np.zeros(n)
            comp = []
            for k in range(1, len(trace.gaps) + 1):
                total += m
                avg = total / k
                comp.append(float(np.sum(np.abs(push(avg) - avg))).hex())
                m = push(m)
            want.append(comp)
        got = [[g.e1.hex() for g in trace.gaps], [g.e2.hex() for g in trace.gaps]]
        assert got == want

    def test_limit_in_hull(self, cycle3):
        space, f = cycle3
        mu0 = TMeasure(space, [0.5, 0.25, 0.25], [0.125, 0.75, 0.125])
        trace = cesaro_invariant(f, mu0, max_iter=100, tol=1e-12)
        assert trace.converged
        assert in_invariant_hull(f, trace.limit)


class TestInvariantBasis:
    def test_two_fixed_points(self):
        space = FiniteSpace(("a", "b", "c"))
        f = PointMap(space, [0, 1, 0])  # fixed points a, b; c is transient
        basis = invariant_basis_bruteforce(f)
        assert len(basis) == 2
        assert basis[0].equal_exact(_delta(space, "a"))
        assert basis[1].equal_exact(_delta(space, "b"))

    def test_cycle_gets_uniform(self, cycle3):
        space, f = cycle3
        basis = invariant_basis_bruteforce(f)
        assert len(basis) == 1
        assert basis[0].equal_exact(_uniform(space))
        assert is_invariant(f, basis[0], 1e-15)

    def test_hull_membership(self):
        space = FiniteSpace(("a", "b", "c"))
        f = PointMap(space, [0, 1, 0])
        w = convex_combine(_delta(space, "a"), _delta(space, "b"), 0.375)
        assert in_invariant_hull(f, w)
        # mass on the transient atom c is not in the hull
        assert not in_invariant_hull(f, _delta(space, "c"))

    def test_nonconstant_on_cycle_rejected(self, cycle3):
        space, f = cycle3
        lopsided = TMeasure(space, [0.5, 0.25, 0.25], [0.5, 0.25, 0.25])
        assert not in_invariant_hull(f, lopsided)


def test_cycle_structure_is_computed_once(monkeypatch):
    import hypmeasure.dynamics as dyn

    calls = []
    real = dyn._cycle_flags

    def counted(image):
        calls.append(image)
        return real(image)

    monkeypatch.setattr(dyn, "_cycle_flags", counted)
    space = FiniteSpace(tuple("abcdef"))
    f = PointMap(space, [1, 0, 0, 4, 5, 3])
    trace = cesaro_invariant(f, _uniform(space), max_iter=50, tol=1e-12)
    basis = invariant_basis_bruteforce(f)
    assert in_invariant_hull(f, trace.limit)
    assert not in_invariant_hull(f, _uniform(space))
    assert len(calls) == 1
    assert len(basis) == 2
    on_cycle, cycles = f._cycle_structure()
    assert on_cycle.tolist() == [True, True, False, True, True, True]
    assert [c.tolist() for c in cycles] == [[0, 1], [3, 4, 5]]
    assert not on_cycle.flags.writeable and not cycles[0].flags.writeable


class TestContinuityProbe:
    def test_constant_sequence_holds(self, cycle3):
        space, f = cycle3
        mu = _uniform(space)
        fns = [TFunction.indicator(space.singleton(i)) for i in range(3)]
        assert continuity_probe(f, [mu, mu, mu], mu, fns, tol=1e-9) == {"pushforward_continuity": True}

    def test_vacuous_when_sequence_is_far(self, cycle3, monkeypatch):
        space, f = cycle3
        seq = [_delta(space, "a")]
        lim = _delta(space, "b")
        fns = [TFunction.indicator(space.singleton(0))]
        # A vacuous probe does not push the measures forward.
        monkeypatch.setattr("hypmeasure.dynamics.pushforward", None)
        assert continuity_probe(f, seq, lim, fns, tol=1e-9) == {"pushforward_continuity": None}

    def test_false_when_closeness_does_not_transfer(self, cycle3):
        # The test function misses b and c, so delta_b and delta_c look
        # alike; pushed along a -> b -> c -> a they become delta_c and
        # delta_a, which it tells apart.
        space, f = cycle3
        fns = [TFunction.indicator(space.singleton(0))]
        probe = continuity_probe(f, [_delta(space, "b")], _delta(space, "c"), fns, tol=1e-9)
        assert probe == {"pushforward_continuity": False}

    def test_validation(self, cycle3):
        space, f = cycle3
        mu = _uniform(space)
        fns = [TFunction.constant(space, 1)]
        with pytest.raises(ValueError, match="nonempty"):
            continuity_probe(f, [], mu, fns, tol=1e-9)
        with pytest.raises(ValueError, match="test function"):
            continuity_probe(f, [mu], mu, [], tol=1e-9)
        with pytest.raises(ValueError, match="positive"):
            continuity_probe(f, [mu], mu, fns, tol=0.0)
        # Measures of another space, even far apart (vacuous).
        other = FiniteSpace(("x", "y", "z"))
        far, phi = [_delta(other, "x")], TFunction.indicator(other.singleton(0))
        with pytest.raises(ValueError, match="different spaces"):
            continuity_probe(f, far, _delta(other, "y"), [phi], tol=1e-9)


def test_integral_against_pushforward_matches_pullback(cycle3):
    space, f = cycle3
    mu = TMeasure(space, [0.5, 0.25, 0.25], [0.25, 0.25, 0.5])
    phi = TFunction.from_atoms(
        space, {"a": Bicomplex(2, 1), "b": Bicomplex(-1, 3), "c": Bicomplex(0, -2)}
    )
    assert integrate(phi, pushforward(f, mu)) == integrate(f.pullback(phi), mu)


def test_preimage_matches_pointwise_reference():
    n = 300
    space = FiniteSpace(tuple(f"x{i}" for i in range(n)))
    rng = np.random.default_rng(7)
    f = PointMap(space, rng.integers(0, n, size=n))
    for p in (0.0, 0.1, 0.5, 1.0):
        a = space.subset_of_indices(np.flatnonzero(rng.random(n) < p).tolist())
        want = [i for i in range(n) if a.contains(int(f.image[i]))]
        assert f.preimage(a).indices().tolist() == want


def _tail_depth(image, on_cycle, x):
    """Steps from x to the first atom that lies on a cycle."""
    depth = 0
    while not on_cycle[x]:
        x = int(image[x])
        depth += 1
    return depth


def _cycle_structure_reference(image):
    """On-cycle flags and cycles, atom by atom: x is on a cycle iff
    following the map from x returns to x within n steps."""
    n = len(image)
    on_cycle = []
    for x in range(n):
        y = int(image[x])
        for _ in range(n):
            if y == x:
                break
            y = int(image[y])
        on_cycle.append(y == x)
    cycles, seen = [], set()
    for x in range(n):
        if on_cycle[x] and x not in seen:
            cycle = [x]
            y = int(image[x])
            while y != x:
                cycle.append(y)
                y = int(image[y])
            seen.update(cycle)
            cycles.append(cycle)
    return on_cycle, cycles


@pytest.mark.parametrize("n", [1, 2, 7, 64, 300])
def test_cycle_structure_matches_pointwise_reference(n):
    space = FiniteSpace(tuple(f"x{i}" for i in range(n)))
    rng = np.random.default_rng(n)
    images = [np.arange(n), rng.permutation(n), np.roll(np.arange(n), 1)]
    images += [rng.integers(0, n, size=n) for _ in range(20)]
    # Long tails into a short cycle: every atom points one step down.
    images.append(np.maximum(np.arange(n) - 1, 0))
    for image in images:
        on_cycle, cycles = PointMap(space, image)._cycle_structure()
        want_on, want_cycles = _cycle_structure_reference(image)
        assert on_cycle.tolist() == want_on
        assert [c.tolist() for c in cycles] == want_cycles
