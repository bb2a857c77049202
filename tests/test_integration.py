"""Integration: linear functionals, the modulus bound, dominated convergence."""

import numpy as np
import pytest

from hypmeasure import (
    Bicomplex,
    FiniteSpace,
    Hyperbolic,
    NotIntegrableError,
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
from hypmeasure import generators as gen


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
        ind = TFunction.indicator(space.singleton(1))
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
        e = space.singleton(0)
        ind = TFunction.indicator(e)
        assert integrate(ind, prob) == prob.of(e)

    def test_restricted_integral(self, space, prob):
        f = TFunction.from_atoms(space, {"a": Bicomplex(5, 5), "b": Bicomplex(7, 7)})
        assert integrate(f, prob, space.singleton(1)) == Bicomplex(7, 7)

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
        e = space.singleton(0)
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


# ------------------------------------------------- scalar references for dct_run


def _hex(z):
    # float.hex tells -0.0 from +0.0, so equal strings mean equal bits.
    z = complex(z)
    return z.real.hex(), z.imag.hex()


def _scalar_integral(v1, v2, m1, m2):
    """The ascending scalar loop: numpy scalar products, a sum from +0.0."""
    s1 = s2 = 0j
    for i in range(len(m1)):
        s1 += v1[i] * m1[i]
        s2 += v2[i] * m2[i]
    return complex(s1), complex(s2)


def _dct_traces_reference(seq, f, mu):
    """l1 and integral traces term by term, as scalar integrals of tables."""
    m1, m2 = mu.e1.real, mu.e2.real
    l1, ints = [], []
    for fn in seq:
        gap = (fn - f).d_modulus()
        w1, w2 = _scalar_integral(gap.e1, gap.e2, m1, m2)
        l1.append((w1.real.hex(), w2.real.hex()))
        ints.append(tuple(map(_hex, _scalar_integral(fn.e1, fn.e2, m1, m2))))
    return l1, ints


def _edge_values(rng, shape, scale):
    """Random complex values with -0.0, subnormals and tiny entries mixed in."""
    out = (rng.standard_normal(shape) + 1j * rng.standard_normal(shape)) * scale
    specials = np.array([
        complex(-0.0, -0.0), complex(-0.0, 0.0), complex(0.0, -0.0),
        5e-324, -5e-324j, complex(-1e-200, 1e-200), complex(2e-300, -3e-300),
    ])
    hit = rng.random(shape) < 0.3
    out[hit] = rng.choice(specials, size=int(hit.sum()))
    return out


@pytest.mark.parametrize("n_terms", [1, 2, 100])
@pytest.mark.parametrize("n", [1, 8, 9, 16, 200])
def test_dct_traces_equal_the_scalar_loop_bitwise(n_terms, n):
    rng = np.random.default_rng([n_terms, n])
    space = FiniteSpace(tuple(f"x{i}" for i in range(n)))
    # Masses of 1e-200 turn the 1e-200-sized values into products that
    # underflow, to -0.0 where the value is negative; some masses are -0.0.
    m1 = np.abs(rng.standard_normal(n)) * 10.0 ** rng.integers(-200, 3, size=n)
    m2 = np.abs(rng.standard_normal(n))
    m1[rng.random(n) < 0.2] = -0.0
    mu = TMeasure(space, m1, m2)
    scale = 10.0 ** rng.integers(-200, 200, size=n)
    seq = [
        TFunction(space, _edge_values(rng, n, scale), _edge_values(rng, n, 1.0))
        for _ in range(n_terms)
    ]
    # One term of all -0.0 values: every product is a zero, and the sums
    # must still read +0.0.
    seq[-1] = TFunction(space, np.full(n, complex(-0.0, -0.0)), seq[-1].e2)
    f = TFunction(space, _edge_values(rng, n, scale), _edge_values(rng, n, 1.0))
    g = TFunction.constant(space, 1.0)
    report = dct_run(seq, f, g, mu, tol=1.0)
    want_l1, want_ints = _dct_traces_reference(seq, f, mu)
    assert [(h.e1.hex(), h.e2.hex()) for h in report.l1_limit] == want_l1
    assert [(_hex(b.e1), _hex(b.e2)) for b in report.integral_trace] == want_ints
    assert report.final_gap == report.l1_limit[-1]
    for fn, traced in zip(seq, report.integral_trace):
        got = integrate(fn, mu)
        assert (_hex(got.e1), _hex(got.e2)) == (_hex(traced.e1), _hex(traced.e2))


def test_dct_names_the_first_non_integrable_term():
    space = FiniteSpace(("a", "b", "c"))
    mu = TMeasure(space, [1.0, 9.0, 1.0], [1.0, 1.0, 1.0])
    g = TFunction.constant(space, 1.0)
    ok = TFunction.constant(space, 0.5)

    def term(value, atom=1):
        e1 = np.full(3, 0.5, dtype=complex)
        e1[atom] = value
        return TFunction(space, e1, np.full(3, 0.5))

    cases = [
        ([ok, term(np.nan), term(np.inf)], ok, 1),
        ([ok, ok, term(1e308)], ok, 2),  # 1e308 * 9 overflows
        ([ok, ok], term(np.nan), None),
        ([ok, term(np.nan)], term(np.nan), 1),
        # Term and limit integrable, their distance 2e307 * 9 is not.
        ([ok, term(1e307), ok], term(-1e307), 1),
    ]
    for seq, limit, want in cases:
        verdicts = [in_l1(fn, mu) for fn in seq]
        with pytest.raises(NotIntegrableError) as info:
            dct_run(seq, limit, g, mu, tol=1.0)
        assert info.value.term == want
        assert str(info.value) == "function is not integrable against this measure"
        # The batched verdicts are in_l1's: every term before the named
        # one is integrable, and the limit is named only after all terms.
        if want is None:
            assert all(verdicts) and not in_l1(limit, mu)
        else:
            assert all(verdicts[:want])


def _dct_instance_reference(rng, space, n_terms):
    """The sequence of gen_dct_instance with 2 * n_terms separate draws."""
    n = space.size
    f = gen.gen_function(rng, space)
    g1 = rng.uniform(0.5, 2.0, size=n)
    g2 = rng.uniform(0.5, 2.0, size=n)
    rng.uniform(0.1, 1.0, size=n)
    rng.uniform(0.1, 1.0, size=n)

    def noise():
        return 0.9 * np.exp(1j * rng.uniform(0.0, 2.0 * np.pi, size=n))

    seq = []
    for k in range(1, n_terms + 1):
        e1 = f.e1 + (g1 / k) * noise()
        e2 = f.e2 + (g2 / k) * noise()
        seq.append((e1, e2))
    return seq


@pytest.mark.parametrize("n", [1, 5, 16, 200])
def test_dct_instance_draws_the_stream_of_separate_draws(n):
    space = gen.make_space(n)
    for seed, n_terms in ((n, 1), (n + 1, 2), (n + 2, 100)):
        seq, *_ = gen.gen_dct_instance(np.random.default_rng(seed), space, n_terms)
        want = _dct_instance_reference(np.random.default_rng(seed), space, n_terms)
        assert len(seq) == len(want)
        for fn, (e1, e2) in zip(seq, want):
            assert fn.e1.tobytes() == e1.tobytes()
            assert fn.e2.tobytes() == e2.tobytes()


def test_dct_terms_are_read_only_views_of_one_stack():
    space = gen.make_space(4)
    seq, *_ = gen.gen_dct_instance(np.random.default_rng(0), space, 5)
    stack = seq[0].c.base
    assert stack.shape == (5, 2, 4) and not stack.flags.writeable
    assert all(fn.c.base is stack and fn.e1.base is stack for fn in seq)


@pytest.mark.parametrize("n", [1, 9, 10, 11, 1000])
def test_make_space_labels_are_zero_padded(n):
    width = len(str(n - 1))
    assert gen.make_space(n).atoms == tuple(f"x{i:0{width}d}" for i in range(n))


@pytest.mark.parametrize("prefix", ["x", gen.BIN_PREFIX])
def test_make_space_labels_across_interleaved_calls(prefix, monkeypatch):
    # From no cached labels on: growing, shrinking and crossing each width.
    monkeypatch.setattr(gen, "_LABELS", {})
    sizes = [3, 9, 10, 1, 11, 99, 100, 50, 101, 9, 999, 1000, 10, 1001, 998, 2, 1000, 100]
    for n in sizes:
        width = len(str(n - 1))
        assert gen.make_space(n, prefix).atoms == tuple(f"{prefix}{i:0{width}d}" for i in range(n))


def test_spaces_of_one_label_tuple_stay_distinct():
    a, b = gen.make_space(500), gen.make_space(500)
    alone = FiniteSpace(tuple(f"x{i:03d}" for i in range(500)))
    assert a is not b and a == b == alone and hash(a) == hash(alone)
    assert gen.make_space(499) != a
    for space in (a, b):
        order, keys = space._json_keys
        assert order.tolist() == alone._json_keys[0].tolist() == list(range(500))
        assert keys == alone._json_keys[1] == [f'"x{i:03d}"' for i in range(500)]
    assert a._json_keys is not b._json_keys
