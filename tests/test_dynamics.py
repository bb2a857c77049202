"""Push-forward dynamics, Cesaro averaging and the invariant hull."""

import numpy as np
import pytest

from hypmeasure import (
    Bicomplex,
    FiniteSpace,
    Hyperbolic,
    PointMap,
    SetMask,
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
        assert f.preimage(SetMask(space, 0b001)).labels() == ["a", "b"]
        assert f.preimage(SetMask(space, 0b010)).labels() == ["c"]
        assert f.preimage(space.full()) == space.full()
        other = FiniteSpace(("x", "y", "z"))
        with pytest.raises(ValueError):
            f.preimage(SetMask(other, 0b001))

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

    @pytest.mark.parametrize("seed", range(8))
    def test_long_iterates_match_single_pushes(self, seed):
        # Random maps have tails, permutations none; counts past the atom
        # count take the shortcut, which must give the bits of the literal
        # loop.
        rng = np.random.default_rng(seed)
        n = int(rng.integers(1, 30))
        space = FiniteSpace(tuple(f"x{i}" for i in range(n)))
        image = rng.permutation(n) if seed >= 6 else rng.integers(0, n, size=n)
        f = PointMap(space, image)
        mass = rng.random((2, n)) * (rng.random((2, n)) < 0.6)
        mass[:, 0] += 0.25
        mass /= mass.sum(axis=1, keepdims=True)
        if seed % 2:
            mass[1] = 0.0  # the e1 variant
        mass[mass == 0.0] = -0.0
        mu = TMeasure(space, mass[0], mass[1])
        step = mu
        for i in range(1, 3 * n + 1):
            step = pushforward(f, step)
            got = pushforward_iter(f, mu, i)
            assert got.e1.tobytes() == step.e1.tobytes(), i
            assert got.e2.tobytes() == step.e2.tobytes(), i

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
        a = SetMask(space, 0b001)
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

    def test_literal_mode_stalls_on_transients(self, tail_map):
        space, f = tail_map
        trace = cesaro_invariant(
            f, _delta(space, "c"), max_iter=50, tol=1e-12, burn_in=0
        )
        assert not trace.converged
        assert len(trace.gaps) == 50
        # the defect decays like 1/n, far above the tolerance
        assert trace.gaps[-1].e1 > 1e-3

    def test_burn_in_validation(self, cycle3):
        space, f = cycle3
        with pytest.raises(ValueError, match="burn_in"):
            cesaro_invariant(f, _uniform(space), max_iter=5, tol=1e-9, burn_in=-1)

    def test_limit_in_hull(self, cycle3):
        space, f = cycle3
        mu0 = TMeasure(space, [0.5, 0.25, 0.25], [0.125, 0.75, 0.125])
        trace = cesaro_invariant(f, mu0, max_iter=100, tol=1e-12)
        assert trace.converged
        assert in_invariant_hull(f, trace.limit, tol=1e-9)


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
        assert in_invariant_hull(f, w, tol=1e-12)
        # mass on the transient atom c is not in the hull
        assert not in_invariant_hull(f, _delta(space, "c"), tol=1e-12)

    def test_nonconstant_on_cycle_rejected(self, cycle3):
        space, f = cycle3
        lopsided = TMeasure(space, [0.5, 0.25, 0.25], [0.5, 0.25, 0.25])
        assert not in_invariant_hull(f, lopsided, tol=1e-12)


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
        fns = [TFunction.indicator(SetMask(space, 1 << i)) for i in range(3)]
        probe = continuity_probe(f, [mu, mu, mu], mu, fns, tol=1e-9)
        assert probe.holds and not probe.vacuous
        assert bool(probe)

    def test_vacuous_when_sequence_is_far(self, cycle3):
        space, f = cycle3
        seq = [_delta(space, "a")]
        lim = _delta(space, "b")
        fns = [TFunction.indicator(SetMask(space, 0b001))]
        probe = continuity_probe(f, seq, lim, fns, tol=1e-9)
        assert probe.vacuous and probe.holds
        assert not probe.hypothesis_holds

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
        assert list(f.preimage(a).indices()) == want
