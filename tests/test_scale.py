"""Every rounded identity and inequality check at every scale.

The checks compare two float sides within the package's one rounding
bound (``measures._close`` and its one-sided form ``_at_most``):
4*eps*n*sum|x| for sides of n terms, plus a floor of 16 subnormal
spacings per term. At values from 1e-318 to 1e150 a correct input must
pass and a wrong one must fail. The exact rational values of both sides
(``fractions.Fraction``, with square roots enclosed by integer square
roots) show that the bound covers the true rounding error of the float
sides, so a pass is not luck of the draw.
"""

from fractions import Fraction
from math import isqrt

import numpy as np
import pytest

import hypmeasure.integration as integration
from hypmeasure import (
    Bicomplex,
    FiniteSpace,
    PointMap,
    TFunction,
    TMeasure,
    cesaro_invariant,
    change_of_variables_check,
    check_linearity,
    check_modulus_inequality,
    dct_run,
    dominates,
    in_invariant_hull,
    integrate,
    variation_measure,
)
from hypmeasure import generators as gen
from hypmeasure.measures import subset_sums

SIGMAS = [1e-318, 1e-300, 1e-13, 1.0, 1e6, 1e150]
N = 8
DRAWS = 20
EPS = Fraction(float(np.finfo(np.float64).eps))
SPACING = Fraction(float(np.finfo(np.float64).smallest_subnormal))


def _slack(n, total, floors):
    """The documented bound, in exact arithmetic."""
    return 4 * EPS * n * total + 16 * SPACING * floors


def _exact(z):
    z = complex(z)
    return Fraction(z.real), Fraction(z.imag)


def _modulus(z, up):
    """A rational bound on |z| (z a pair of Fractions), from above if
    ``up`` else from below, within one part in 2**200."""
    x = z[0] * z[0] + z[1] * z[1]
    p, q = x.numerator, x.denominator
    k = max(0, (420 - (p * q).bit_length()) // 2)
    return Fraction(isqrt(p * q << 2 * k) + up, q << k)


def _distance(got, want):
    """An upper bound on |got - want| for a float complex and an exact pair."""
    z = _exact(got)
    return _modulus((z[0] - want[0], z[1] - want[1]), up=True)


def _space(n=N):
    return FiniteSpace(tuple(f"x{i}" for i in range(n)))


def _values(rng, sigma, shared, n=N):
    """(2, n) complex values of size sigma: one phase per component when
    ``shared`` (so no sum cancels), else a random phase per value."""
    phase = np.exp(1j * rng.uniform(0, 2 * np.pi, (2, 1 if shared else n)))
    return np.abs(rng.normal(size=(2, n))) * sigma * phase


def _d_masses(rng, n=N):
    return rng.uniform(0.0, 1.0, (2, n))


def _inflate(monkeypatch, module, victims, factor=1.1):
    """Make ``module.integrate`` report the integral of each victim
    function ``factor`` times too large."""
    real = module.integrate

    def integrate(h, m, e=None):
        value = real(h, m, e)
        return value * factor if any(h is v for v in victims) else value

    monkeypatch.setattr(module, "integrate", integrate)


@pytest.mark.parametrize("sigma", SIGMAS)
def test_linearity(sigma, monkeypatch):
    rng = np.random.default_rng(1)
    space = _space()
    for draw in range(DRAWS):
        shared = draw % 2 == 0
        f = TFunction(space, *_values(rng, sigma, shared))
        g = TFunction(space, *_values(rng, sigma, shared))
        mu = TMeasure(space, *_d_masses(rng))
        alpha, beta = Bicomplex(*rng.uniform(0.5, 3.0, 2)), Bicomplex(*rng.uniform(0.5, 3.0, 2))
        assert check_linearity(f, g, alpha, beta, mu)

        lhs = integrate(f.scaled(alpha) + g.scaled(beta), mu)
        rhs = alpha * integrate(f, mu) + beta * integrate(g, mu)
        for i, (got, want) in enumerate(((lhs.e1, rhs.e1), (lhs.e2, rhs.e2))):
            a = Fraction((alpha.e1, alpha.e2)[i].real)
            b = Fraction((beta.e1, beta.e2)[i].real)
            m = [Fraction(float(x)) for x in mu.c.real[i]]
            fx = [_exact(x) for x in f.c[i]]
            gx = [_exact(x) for x in g.c[i]]
            exact = (
                sum((a * u[0] + b * v[0]) * w for u, v, w in zip(fx, gx, m)),
                sum((a * u[1] + b * v[1]) * w for u, v, w in zip(fx, gx, m)),
            )
            total = sum(
                (a * _modulus(u, False) + b * _modulus(v, False)) * w for u, v, w in zip(fx, gx, m)
            )
            error = _distance(got, exact) + _distance(want, exact)
            assert error <= _slack(N, total, (1 + a + b) * (N + sum(m)))

        if shared:
            with monkeypatch.context() as patch:
                _inflate(patch, integration, (f, g))
                assert not check_linearity(f, g, alpha, beta, mu)


@pytest.mark.parametrize("sigma", SIGMAS)
def test_modulus_inequality(sigma, monkeypatch):
    rng = np.random.default_rng(2)
    space = _space()
    for draw in range(DRAWS):
        shared = draw % 2 == 0
        f = TFunction(space, *_values(rng, sigma, shared))
        mu = TMeasure(space, *_d_masses(rng))
        report = check_modulus_inequality(f, mu)
        assert report.holds

        for i, (lhs, rhs) in enumerate(((report.lhs.e1, report.rhs.e1), (report.lhs.e2, report.rhs.e2))):
            m = [Fraction(float(x)) for x in mu.c.real[i]]
            fx = [_exact(x) for x in f.c[i]]
            integral = (sum(u[0] * w for u, w in zip(fx, m)), sum(u[1] * w for u, w in zip(fx, m)))
            # |integral of f| <= integral of |f| exactly; the float sides may
            # cross only by their rounding errors.
            low = _modulus(integral, False)
            high = sum(_modulus(u, True) * w for u, w in zip(fx, m))
            error = max(0, Fraction(lhs) - low) + max(0, high - Fraction(rhs))
            total = sum(_modulus(u, False) * w for u, w in zip(fx, m))
            assert error <= _slack(N, total, N + sum(m))

        if shared:
            # Equal sides in exact arithmetic, so a lhs 10% too large is
            # wrong by far more than rounding.
            with monkeypatch.context() as patch:
                _inflate(patch, integration, (f,))
                assert not check_modulus_inequality(f, mu).holds


@pytest.mark.parametrize("sigma", SIGMAS)
def test_change_of_variables(sigma, monkeypatch):
    rng = np.random.default_rng(3)
    space = _space()
    for draw in range(DRAWS):
        shared = draw % 2 == 0
        fmap = PointMap(space, rng.integers(0, N, N))
        masses = _d_masses(rng)
        mu = TMeasure(space, *(masses / masses.sum(axis=1, keepdims=True)))
        phi = TFunction(space, *_values(rng, sigma, shared))
        res = change_of_variables_check(fmap, mu, phi)
        assert res.equal

        for i, (lhs, rhs) in enumerate(((res.lhs.e1, res.rhs.e1), (res.lhs.e2, res.rhs.e2))):
            m = [Fraction(float(x)) for x in mu.c.real[i]]
            pulled = [_exact(phi.c[i][y]) for y in fmap.image]
            exact = (sum(u[0] * w for u, w in zip(pulled, m)), sum(u[1] * w for u, w in zip(pulled, m)))
            total = sum(_modulus(u, False) * w for u, w in zip(pulled, m))
            assert _distance(lhs, exact) + _distance(rhs, exact) <= _slack(N, total, N)

        if shared:
            real = PointMap.pullback
            with monkeypatch.context() as patch:
                patch.setattr(PointMap, "pullback", lambda self, h: real(self, h).scaled(1.1))
                assert not change_of_variables_check(fmap, mu, phi).equal


def _exact_subset_sums(values):
    """Exact sums of a row of Fraction pairs over every subset, by bitmask."""
    sums = [(Fraction(0), Fraction(0))]
    for v in values:
        sums += [(s[0] + v[0], s[1] + v[1]) for s in sums]
    return sums


@pytest.mark.parametrize("sigma", SIGMAS)
def test_dominates(sigma):
    rng = np.random.default_rng(4)
    n = 6
    space = _space(n)
    for _ in range(DRAWS // 2):
        mu = TMeasure(space, *(rng.normal(size=(2, n)) + 1j * rng.normal(size=(2, n))) * sigma)
        var = variation_measure(mu)
        assert dominates(var, mu)
        assert not dominates(var.scaled(0.5), mu)

        # The subset-sum oracle (subset_sums) stays within the rounding
        # bound of the exact subset sums.
        got = np.abs(subset_sums(mu.c))
        lam = subset_sums(var.c.real)
        for i in range(2):
            masses = [_exact(x) for x in mu.c[i]]
            sums = _exact_subset_sums(masses)
            moduli = _exact_subset_sums([(_modulus(x, True), _modulus(x, False)) for x in masses])
            for e, (s, (high, low)) in enumerate(zip(sums, moduli)):
                # |mu(E)| <= sum over E of |mu| exactly.
                error = max(0, Fraction(got[i, e]) - _modulus(s, False)) + max(
                    0, high - Fraction(lam[i, e])
                )
                assert error <= _slack(n, low, n)


@pytest.mark.parametrize("sigma", SIGMAS)
def test_dct_domination(sigma):
    rng = np.random.default_rng(5)
    space = _space()
    for draw in range(DRAWS):
        terms = [TFunction(space, *_values(rng, sigma, draw % 2 == 0)) for _ in range(4)]
        bound = np.max([np.abs(t.c) for t in terms], axis=0)
        mu = TMeasure(space, *_d_masses(rng))
        limit = terms[-1]
        assert dct_run(terms, limit, TFunction(space, *bound), mu, 1.0).domination_ok
        assert not dct_run(terms, limit, TFunction(space, *(bound / 1.1)), mu, 1.0).domination_ok

        for t in terms:
            for x, g in zip(t.c.ravel(), bound.ravel()):
                error = max(0, _modulus(_exact(x), True) - Fraction(g))
                assert error <= _slack(1, Fraction(g), 1)


def _basins(image):
    """The cycle (as its smallest member) that each atom's orbit enters."""
    n = len(image)
    ends = np.arange(n)
    for _ in range(n):
        ends = image[ends]
    out = []
    for x in ends.tolist():
        cycle, y = [x], int(image[x])
        while y != x:
            cycle.append(y)
            y = int(image[y])
        out.append(min(cycle))
    return out


@pytest.mark.parametrize("sigma", SIGMAS)
def test_invariant_hull(sigma):
    rng = np.random.default_rng(6)
    n = 12
    space = _space(n)
    moved = 0
    for _ in range(DRAWS):
        fmap = gen.gen_map_with_small_cycles(rng, space)
        masses = _d_masses(rng, n) + 0.01
        mu0 = TMeasure(space, *(masses / masses.sum(axis=1, keepdims=True)))
        trace = cesaro_invariant(fmap, mu0, max_iter=500, tol=1e-12)
        assert trace.converged
        limit = trace.limit.c.real * sigma
        assert in_invariant_hull(fmap, TMeasure(space, *limit))

        # The exact hull member: each cycle shares out the mass of its basin.
        basin = _basins(fmap.image)
        _, order, starts = fmap._cycle_structure()
        cycles = np.split(order, starts[1:])
        for i in range(2):
            for cycle in cycles:
                mass = Fraction(sigma) * sum(
                    Fraction(float(mu0.c.real[i, x])) for x in range(n) if basin[x] == min(cycle)
                )
                share = mass / len(cycle)
                for x in cycle.tolist():
                    # The verdict compares atoms of a cycle, hence twice.
                    assert 2 * abs(Fraction(limit[i, x]) - share) <= _slack(n, mass, n)

        long_cycles = [c for c in cycles if len(c) >= 2]
        if long_cycles:
            a, b = long_cycles[0][:2]
            wrong = limit.copy()
            wrong[:, b] += 0.1 * wrong[:, a]
            wrong[:, a] *= 0.9
            assert not in_invariant_hull(fmap, TMeasure(space, *wrong))
            moved += 1
    assert moved >= DRAWS // 2
