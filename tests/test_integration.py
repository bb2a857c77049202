"""Integration: linear functionals, the modulus bound, dominated convergence."""

import numpy as np
import pytest

from hypmeasure import (
    Bicomplex,
    FiniteSpace,
    Hyperbolic,
    SetMask,
    TFunction,
    TMeasure,
    check_linearity,
    check_modulus_inequality,
    dct_run,
    in_l1,
    indefinite_integral,
    integrate,
    leq_d,
    unimodular_factor,
)


@pytest.fixture
def space():
    return FiniteSpace(("a", "b"))


@pytest.fixture
def prob(space):
    return TMeasure.from_atoms(space, {"a": Bicomplex(1, 1), "b": Bicomplex(1, 1)})


class TestTFunction:
    def test_constant_and_indicator(self, space):
        c = TFunction.constant(space, Bicomplex(2, -1))
        assert c.value_at(0) == Bicomplex(2, -1)
        ind = TFunction.indicator(SetMask(space, 0b10))
        assert ind.value_at(0) == Bicomplex.zero()
        assert ind.value_at(1) == Bicomplex.one()

    def test_from_atoms_defaults_zero(self, space):
        f = TFunction.from_atoms(space, {"b": Bicomplex(1j, 2)})
        assert f.value_at(0).is_zero()

    def test_arithmetic(self, space):
        f = TFunction.constant(space, Bicomplex(1, 2))
        g = TFunction.constant(space, Bicomplex(3, -1))
        assert (f + g).value_at(0) == Bicomplex(4, 1)
        assert (f - g).value_at(1) == Bicomplex(-2, 3)
        assert (-f).value_at(0) == Bicomplex(-1, -2)
        assert f.scaled(Bicomplex(0, 2)).value_at(0) == Bicomplex(0, 4)
        assert (2 * f).value_at(0) == Bicomplex(2, 4)

    def test_d_modulus_and_polar(self, space):
        f = TFunction.from_atoms(space, {"a": Bicomplex(3 + 4j, -2), "b": Bicomplex(0, 1)})
        mods = f.d_modulus()
        assert mods.value_at(0) == Bicomplex(5, 2)
        alpha = f.polar_factor()
        # unit modulus everywhere, products reconstruct the values
        assert np.all(np.abs(np.abs(alpha.e1) - 1) <= 1e-15)
        assert alpha.value_at(1).e1 == 1.0  # convention at zeros
        recon = alpha.e1 * np.abs(f.e1)
        assert np.allclose(recon, f.e1, atol=1e-14)

    def test_immutability(self, space):
        f = TFunction.constant(space, 1.0)
        with pytest.raises(AttributeError, match="^TFunction is immutable$"):
            f.e1 = np.zeros(2)
        with pytest.raises(ValueError):
            f.e1[0] = 2.0


def test_unimodular_factor_zero_convention():
    values = np.array([0.0 + 0j, -2.0, 3j])
    out = unimodular_factor(values)
    assert out[0] == 1.0
    assert out[1] == -1.0
    assert out[2] == 1j


def test_unimodular_factor_axis_aligned_is_exact():
    # z/|z| through complex division drops an ulp on ~14% of real
    # values; axis-aligned entries must come out as literal units
    rng = np.random.default_rng(7)
    reals = rng.standard_normal(2000)
    out_r = unimodular_factor(reals + 0j)
    assert set(np.unique(out_r)) <= {1.0 + 0j, -1.0 + 0j}
    out_i = unimodular_factor(1j * reals)
    assert set(np.unique(out_i)) <= {1j, -1j}
    np.testing.assert_array_equal(out_r.real, np.sign(reals))
    # genuinely complex entries still have unit modulus within an ulp
    mixed = rng.standard_normal(100) + 1j * rng.standard_normal(100)
    assert np.all(np.abs(np.abs(unimodular_factor(mixed)) - 1.0) < 1e-15)


class TestIntegrate:
    def test_sign_flip_example(self, space, prob):
        f = TFunction.from_atoms(space, {"a": Bicomplex(1, 1), "b": Bicomplex(-1, 1)})
        value = integrate(f, prob)
        assert value == Bicomplex(0, 2)
        report = check_modulus_inequality(f, prob)
        assert report.lhs == Hyperbolic(0, 2)
        assert report.rhs == Hyperbolic(2, 2)
        assert report.holds

    def test_indicator_recovers_measure(self, space, prob):
        e = SetMask(space, 0b01)
        ind = TFunction.indicator(e)
        assert integrate(ind, prob) == prob.of(e)

    def test_restricted_integral(self, space, prob):
        f = TFunction.from_atoms(space, {"a": Bicomplex(5, 5), "b": Bicomplex(7, 7)})
        assert integrate(f, prob, SetMask(space, 0b10)) == Bicomplex(7, 7)

    def test_requires_d_measure(self, space):
        signed = TMeasure.from_atoms(space, {"a": Bicomplex(-1, 1)})
        f = TFunction.constant(space, 1.0)
        with pytest.raises(ValueError, match="D-measure"):
            integrate(f, signed)

    def test_space_mismatch(self, space, prob):
        other = FiniteSpace(("x", "y"))
        with pytest.raises(ValueError):
            integrate(TFunction.constant(other, 1.0), prob)

    def test_linearity_with_bicomplex_scalars(self, space, prob):
        f = TFunction.from_atoms(space, {"a": Bicomplex(2, -1), "b": Bicomplex(1j, 3)})
        g = TFunction.from_atoms(space, {"a": Bicomplex(-4, 2), "b": Bicomplex(5, 1 - 1j)})
        alpha = Bicomplex(2 + 1j, -3)
        beta = Bicomplex(0, 4j)
        assert check_linearity(f, g, alpha, beta, prob)
        lhs = integrate(f.scaled(alpha) + g.scaled(beta), prob)
        rhs = alpha * integrate(f, prob) + beta * integrate(g, prob)
        assert lhs == rhs  # exact on integer data

    def test_in_l1(self, space, prob):
        assert in_l1(TFunction.constant(space, 1j), prob)
        inf_f = TFunction(space, np.array([np.inf, 0.0]), np.zeros(2))
        assert not in_l1(inf_f, prob)


class TestIndefiniteIntegral:
    def test_atomwise_product(self, space, prob):
        g = TFunction.from_atoms(space, {"a": Bicomplex(2, -1), "b": Bicomplex(1j, 0)})
        lam = indefinite_integral(g, prob)
        assert lam.atom(0) == Bicomplex(2, -1)
        assert lam.atom(1) == Bicomplex(1j, 0)
        e = SetMask(space, 0b01)
        assert lam.of(e) == integrate(g, prob, e)


def _mk_fn(space, vals):
    return TFunction.from_atoms(
        space, {lab: Bicomplex(v, v) for lab, v in zip(space.atoms, vals)}
    )


class TestDct:
    def test_successful_run(self, space, prob):
        f = _mk_fn(space, [1.0, 2.0])
        seq = [_mk_fn(space, [1 + 1 / k, 2 - 1 / k]) for k in range(1, 64)]
        g = _mk_fn(space, [4.0, 4.0])
        report = dct_run(seq, f, g, prob, tol=0.05)
        assert report.domination_ok
        assert report.success
        assert len(report.l1_limit) == len(seq)
        assert len(report.integral_trace) == len(seq)
        # the L1 gaps shrink monotonically here
        assert leq_d(report.l1_limit[-1], report.l1_limit[0])
        assert report.final_gap == report.l1_limit[-1]

    def test_domination_violation_flagged(self, space, prob):
        f = _mk_fn(space, [0.0, 0.0])
        seq = [_mk_fn(space, [5.0, 5.0])]
        g = _mk_fn(space, [1.0, 1.0])
        report = dct_run(seq, f, g, prob, tol=1.0)
        assert not report.domination_ok

    def test_non_converging_sequence(self, space, prob):
        f = _mk_fn(space, [0.0, 0.0])
        seq = [_mk_fn(space, [1.0, 1.0])] * 10
        g = _mk_fn(space, [2.0, 2.0])
        report = dct_run(seq, f, g, prob, tol=1e-3)
        assert report.domination_ok
        assert not report.success

    def test_validation(self, space, prob):
        f = _mk_fn(space, [0.0, 0.0])
        g = _mk_fn(space, [1.0, 1.0])
        with pytest.raises(ValueError, match="nonempty"):
            dct_run([], f, g, prob, tol=0.1)
        with pytest.raises(ValueError, match="tol"):
            dct_run([f], f, g, prob, tol=0.0)
        other = FiniteSpace(("x", "y"))
        with pytest.raises(ValueError):
            dct_run([TFunction.constant(other, 1.0)], f, g, prob, tol=0.1)
        bad_g = TFunction(space, np.array([np.inf, 1.0]), np.ones(2))
        with pytest.raises(ValueError, match="integrable"):
            dct_run([f], f, bad_g, prob, tol=0.1)

    def test_integral_trace_matches_direct_integrals(self, space, prob):
        seq = [_mk_fn(space, [1 / k, -1 / k]) for k in range(1, 6)]
        f = _mk_fn(space, [0.0, 0.0])
        g = _mk_fn(space, [2.0, 2.0])
        report = dct_run(seq, f, g, prob, tol=1.0)
        for fn, traced in zip(seq, report.integral_trace):
            assert traced == integrate(fn, prob)
