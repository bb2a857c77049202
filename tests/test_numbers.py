"""Scalar arithmetic, the componentwise partial order, and series witnesses."""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hypmeasure import (
    E1,
    E2,
    J,
    ONE,
    ZERO,
    Bicomplex,
    Hyperbolic,
    Order,
    check_convergence,
    check_series,
    compare_d,
    leq_d,
    lt_d,
    sup_d,
)

ints = st.integers(-50, 50)
hyp_int = st.builds(lambda a, b: Hyperbolic(float(a), float(b)), ints, ints)
bc_int = st.builds(
    lambda a, b, c, d: Bicomplex(complex(a, b), complex(c, d)), ints, ints, ints, ints
)


class TestHyperbolic:
    def test_componentwise_product(self):
        assert Hyperbolic(2, 1) * Hyperbolic(0.5, 2) == Hyperbolic(1, 2)

    def test_idempotent_units(self):
        assert E1 * E1 == E1
        assert E2 * E2 == E2
        assert E1 * E2 == ZERO
        assert E1 + E2 == ONE
        assert J == E1 - E2
        assert J * J == ONE

    def test_real_coercion(self):
        assert 2 * Hyperbolic(1, 3) == Hyperbolic(2, 6)
        assert Hyperbolic(1, 3) + 1 == Hyperbolic(2, 4)
        assert 1 - Hyperbolic(1, 3) == Hyperbolic(0, -2)

    def test_unsupported_operand(self):
        with pytest.raises(TypeError):
            Hyperbolic(1, 1) + "x"

    def test_d_modulus(self):
        assert Hyperbolic(-3, 4).d_modulus() == Hyperbolic(3, 4)
        assert Hyperbolic(0, 0).d_modulus() == ZERO

    def test_in_d_plus(self):
        assert Hyperbolic(0, 2).in_d_plus()
        assert not Hyperbolic(-1e-300, 2).in_d_plus()

    def test_reciprocal(self):
        assert Hyperbolic(2, -4).reciprocal() == Hyperbolic(0.5, -0.25)
        with pytest.raises(ValueError, match="not invertible"):
            E1.reciprocal()
        with pytest.raises(ValueError, match="not invertible"):
            ZERO.reciprocal()

    def test_as_bicomplex(self):
        b = Hyperbolic(2, -1).as_bicomplex()
        assert b == Bicomplex(2 + 0j, -1 + 0j)

    @given(hyp_int, hyp_int, hyp_int)
    @settings(max_examples=200, deadline=None)
    def test_ring_laws(self, a, b, c):
        assert a + b == b + a
        assert (a + b) + c == a + (b + c)
        assert a * b == b * a
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c
        assert a * ONE == a
        assert a + ZERO == a


class TestBicomplex:
    def test_canonical_round_trip(self):
        b = Bicomplex.from_canonical(1 + 0j, 1j)
        assert b == Bicomplex(2 + 0j, 0j)
        assert b.to_canonical() == (1 + 0j, 1j)

    def test_canonical_of_components(self):
        assert Bicomplex(2 + 0j, 0j).to_canonical() == (1 + 0j, 1j)

    def test_zero_divisor_criterion(self):
        e1 = Bicomplex(1, 0)
        e2 = Bicomplex(0, 1)
        assert e1.is_zero_divisor() and e2.is_zero_divisor()
        assert (e1 * e2).is_zero()
        assert not Bicomplex.zero().is_zero_divisor()
        assert not Bicomplex(2, 3).is_zero_divisor()
        # zero divisor iff z1^2 + z2^2 = 0 in canonical coordinates
        for zd in (e1, e2, Bicomplex(5j, 0), Bicomplex(0, 2 - 1j)):
            z1, z2 = zd.to_canonical()
            assert z1 * z1 + z2 * z2 == 0

    def test_division(self):
        a = Bicomplex(4 + 2j, -6)
        b = Bicomplex(2, 3)
        assert (a / b) * b == a
        with pytest.raises(ValueError, match="not invertible"):
            a / Bicomplex(1, 0)

    def test_d_modulus(self):
        assert Bicomplex(3 + 4j, -1).d_modulus() == Hyperbolic(5, 1)

    def test_as_hyperbolic(self):
        assert Bicomplex(2, -3).as_hyperbolic() == Hyperbolic(2, -3)
        with pytest.raises(ValueError):
            Bicomplex(1j, 0).as_hyperbolic()

    def test_complex_coercion(self):
        b = Bicomplex(1, 2) * (1 + 1j)
        assert b == Bicomplex(1 + 1j, 2 + 2j)

    @given(bc_int, bc_int, bc_int)
    @settings(max_examples=200, deadline=None)
    def test_ring_laws(self, a, b, c):
        assert a + b == b + a
        assert (a + b) + c == a + (b + c)
        assert a * b == b * a
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c
        assert a * Bicomplex.one() == a

    @given(bc_int, bc_int)
    @settings(max_examples=200, deadline=None)
    def test_canonical_product_rule(self, a, b):
        # (z1 + i2 w... ) multiplication mirrors componentwise product.
        z1, z2 = a.to_canonical()
        w1, w2 = b.to_canonical()
        p1, p2 = (a * b).to_canonical()
        assert p1 == z1 * w1 - z2 * w2
        assert p2 == z1 * w2 + z2 * w1


class TestMixedOperands:
    """Hyperbolic operands meet bicomplex ones through the bicomplex side."""

    h = Hyperbolic(2, -3)
    b = Bicomplex(1 + 1j, 4 - 2j)

    @pytest.mark.parametrize(
        "op, want",
        [
            (lambda x, y: x + y, Bicomplex(3 + 1j, 1 - 2j)),
            (lambda x, y: y + x, Bicomplex(3 + 1j, 1 - 2j)),
            (lambda x, y: x - y, Bicomplex(1 - 1j, -7 + 2j)),
            (lambda x, y: y - x, Bicomplex(-1 + 1j, 7 - 2j)),
            (lambda x, y: x * y, Bicomplex(2 + 2j, -12 + 6j)),
            (lambda x, y: y * x, Bicomplex(2 + 2j, -12 + 6j)),
        ],
        ids=["h+b", "b+h", "h-b", "b-h", "h*b", "b*h"],
    )
    def test_hyperbolic_with_bicomplex_is_bicomplex(self, op, want):
        got = op(self.h, self.b)
        assert type(got) is Bicomplex
        assert got == want

    @pytest.mark.parametrize(
        "op",
        [
            lambda h: h + 1j,
            lambda h: 1j + h,
            lambda h: h - 1j,
            lambda h: 1j - h,
            lambda h: h * 1j,
            lambda h: 1j * h,
        ],
        ids=["h+c", "c+h", "h-c", "c-h", "h*c", "c*h"],
    )
    def test_hyperbolic_with_complex_is_refused(self, op):
        with pytest.raises(TypeError):
            op(self.h)

    def test_results_keep_their_type(self):
        assert type(self.h + 1) is Hyperbolic
        assert type(-self.h) is Hyperbolic
        assert type(self.b - 1j) is Bicomplex
        assert type(self.b.d_modulus()) is Hyperbolic

    def test_equality_across_types(self):
        assert Hyperbolic(1, 2) != Bicomplex(1, 2)
        assert Bicomplex(1, 2) != Hyperbolic(1, 2)
        assert Hyperbolic(1, 2).as_bicomplex() == Bicomplex(1, 2)
        assert repr(self.h + self.b) == "Bicomplex((3+1j), (1-2j))"
        assert repr(self.h - 1) == "Hyperbolic(1.0, -4.0)"


class TestOrder:
    def test_compare_cases(self):
        assert compare_d(Hyperbolic(1, 1), Hyperbolic(1, 1)) is Order.EQUAL
        assert compare_d(Hyperbolic(0, 1), Hyperbolic(1, 1)) is Order.LESS
        assert compare_d(Hyperbolic(2, 1), Hyperbolic(1, 1)) is Order.GREATER
        assert compare_d(Hyperbolic(0, 1), Hyperbolic(1, 0)) is Order.INCOMPARABLE

    def test_lenient_strict_order(self):
        # equality in one component is allowed as long as the pair differs
        assert lt_d(Hyperbolic(0, 0), Hyperbolic(0, 1))
        assert lt_d(Hyperbolic(1, 1), Hyperbolic(2, 1))
        assert not lt_d(Hyperbolic(1, 1), Hyperbolic(1, 1))
        assert not lt_d(Hyperbolic(1, 0), Hyperbolic(0, 1))

    def test_sup_pairwise(self):
        assert sup_d([Hyperbolic(-1, 0), Hyperbolic(0, -1)]) == Hyperbolic(0, 0)

    def test_sup_empty(self):
        with pytest.raises(ValueError, match="empty"):
            sup_d([])

    @given(st.lists(hyp_int, min_size=1, max_size=16))
    @settings(max_examples=200, deadline=None)
    def test_sup_is_least_upper_bound(self, items):
        s = sup_d(items)
        assert all(leq_d(h, s) for h in items)
        # attained componentwise, hence no smaller upper bound exists
        assert s.e1 in {h.e1 for h in items}
        assert s.e2 in {h.e2 for h in items}

    @given(hyp_int, hyp_int, hyp_int)
    @settings(max_examples=200, deadline=None)
    def test_partial_order_axioms(self, a, b, c):
        assert leq_d(a, a)
        if leq_d(a, b) and leq_d(b, a):
            assert a == b
        if leq_d(a, b) and leq_d(b, c):
            assert leq_d(a, c)

    def test_real_embedding_respects_order(self):
        assert leq_d(Hyperbolic.from_real(1.5), Hyperbolic.from_real(2.0))
        assert not leq_d(Hyperbolic.from_real(2.0), Hyperbolic.from_real(1.5))


class TestConvergence:
    def test_harmonic_prefix(self):
        prefix = [Hyperbolic(1 / (i + 1), 1 / (i + 1)) for i in range(12)]
        eps = Hyperbolic(0.2, 0.2)
        assert check_convergence(prefix, ZERO, eps, tail_start=6)
        # the element 1/5 = 0.2 sits exactly at epsilon, so the lenient
        # strict comparison rejects a tail starting that early
        assert not check_convergence(prefix, ZERO, eps, tail_start=4)

    def test_constant_prefix(self):
        c = Hyperbolic(3, -1)
        assert check_convergence([c] * 5, c, Hyperbolic(1e-12, 1e-12), 0)

    def test_tail_start_bounds(self):
        prefix = [ZERO] * 3
        with pytest.raises(ValueError):
            check_convergence(prefix, ZERO, ONE, tail_start=3)
        with pytest.raises(ValueError):
            check_convergence(prefix, ZERO, ONE, tail_start=-1)

    def test_epsilon_must_be_positive(self):
        with pytest.raises(ValueError):
            check_convergence([ZERO], ZERO, Hyperbolic(0, 1), 0)


class TestSeries:
    def test_geometric_series(self):
        terms = [Hyperbolic(0.5**k, 0.5**k) for k in range(20)]
        w = check_series(terms, Hyperbolic(0.01, 0.01))
        assert w.cauchy_witness and w.abs_convergent_witness

    def test_alternating_unit_series(self):
        terms = [Hyperbolic((-1.0) ** k, (-1.0) ** k) for k in range(20)]
        w = check_series(terms, Hyperbolic(0.5, 0.5))
        assert not w.cauchy_witness
        assert not w.abs_convergent_witness

    def test_abs_convergence_implies_cauchy(self):
        for scale in (1.0, -2.0, 0.25):
            terms = [Hyperbolic(scale * 0.5**k, -scale * 0.3**k) for k in range(15)]
            w = check_series(terms, Hyperbolic(0.05, 0.05))
            if w.abs_convergent_witness:
                assert w.cauchy_witness

    def test_component_independence(self):
        # converges in e1 only: the witness must see the e2 failure
        terms = [Hyperbolic(0.5**k, (-1.0) ** k) for k in range(16)]
        w = check_series(terms, Hyperbolic(0.1, 0.1))
        assert not w.cauchy_witness


def test_repr_is_informative():
    assert repr(Hyperbolic(1, 2)) == "Hyperbolic(1.0, 2.0)"
    assert repr(Bicomplex(1j, 2)) == "Bicomplex(1j, (2+0j))"


def test_hash_consistency():
    assert hash(Hyperbolic(1, 2)) == hash(Hyperbolic(1.0, 2.0))
    d = {Bicomplex(1, 2): "x"}
    assert d[Bicomplex(1 + 0j, 2 + 0j)] == "x"


def test_modulus_subadditive_and_multiplicative():
    a = Bicomplex(3 + 4j, -2)
    b = Bicomplex(1 - 1j, 5j)
    sum_mod = (a + b).d_modulus()
    bound = a.d_modulus() + b.d_modulus()
    assert leq_d(sum_mod, bound + Hyperbolic(1e-12, 1e-12))
    prod_mod = (a * b).d_modulus()
    exact = a.d_modulus() * b.d_modulus()
    assert prod_mod.isclose(exact, 1e-12)
    assert math.isclose(prod_mod.e1, 5 * math.sqrt(2))
