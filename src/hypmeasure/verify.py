"""Named verification suites over every module's invariants.

Each suite draws seeded random instances and checks one family of
guarantees; the registry keys are stable names a CLI or CI run can
select with a glob. Case ``k`` of suite ``s`` under seed ``q`` always
uses the generator ``default_rng([q, crc32(s), k])``.

A suite is a generator of ``(check, verdict)`` pairs, in the convention
of the certifiers (``certify_*``, ``check_lattice_properties``,
``continuity_probe``), whose dicts it yields from: ``True`` holds,
``False`` fails and ``None`` is vacuous (a hypothesis that did not hold
tested nothing). The first verdict that is neither ``None`` nor true is
the case's failure, and the checks after it are never evaluated, so a
check may rely on the ones before it. A failure names its check, its
suite, seed and case; the case's generator regenerates every value the
check saw.

Heavy suites run a documented fraction of the requested case budget
(see ``scale`` in the registry) so the default budget stays
interactive.
"""

from __future__ import annotations

import fnmatch
import time
import zlib
from dataclasses import dataclass
from typing import Callable, Iterable, Optional

import numpy as np
from numpy.random import Generator, default_rng

from . import decomposition as dec
from . import dynamics as dyn
from . import generators as gen
from .codec import (
    dumps_canonical,
    function_to_obj,
    map_to_obj,
    measure_to_obj,
    parse_function,
    parse_map,
    parse_measure,
)
from .integration import (
    TFunction,
    check_linearity,
    check_modulus_inequality,
    dct_run,
    integrate,
)
from .measures import (
    KIND_RANK,
    TMeasure,
    _as_components,
    _close,
    _slack,
    dominates,
    normalize_to_probability,
    probability_variant,
    subset_sums,
    total_variation_bruteforce,
    variation_measure,
)
from .numbers import (
    Bicomplex,
    Hyperbolic,
    Order,
    check_convergence,
    check_series,
    _lt_d_rows,
    compare_d,
    leq_d,
    lt_d,
    sup_d,
)
from .spaces import SetMask

__all__ = ["SuiteResult", "VerifyReport", "suite_names", "run_suite", "run_verify"]


@dataclass(frozen=True)
class SuiteResult:
    """Outcome of one suite run."""

    name: str
    cases: int
    failures: int
    first_counterexample: Optional[dict]
    seconds: float

    @property
    def passed(self) -> bool:
        return self.failures == 0

    def to_obj(self) -> dict:
        return {
            "name": self.name,
            "cases": self.cases,
            "failures": self.failures,
            "first_counterexample": self.first_counterexample,
            "seconds": self.seconds,
            "passed": self.passed,
        }


@dataclass(frozen=True)
class VerifyReport:
    """All requested suites, sorted by name."""

    suites: tuple[SuiteResult, ...]
    all_passed: bool
    total_seconds: float

    def to_obj(self) -> dict:
        return {
            "suites": [s.to_obj() for s in self.suites],
            "all_passed": self.all_passed,
            "total_seconds": self.total_seconds,
        }


_Verdicts = Iterable[tuple[str, Optional[bool]]]
_Runner = Callable[[Generator], _Verdicts]
_REGISTRY: list[tuple[str, int, _Runner]] = []


def _suite(name: str, scale: int = 1):
    def deco(fn: _Runner) -> _Runner:
        _REGISTRY.append((name, scale, fn))
        return fn

    return deco


def suite_names() -> list[str]:
    return sorted(name for name, _, _ in _REGISTRY)


def _laws_close(laws: dict) -> _Verdicts:
    """Each law's verdict: its two sides lie within the rounding bound of
    ``_close``, all laws in one pass. A law maps its name to (got, want,
    n, total): two bicomplex or hyperbolic values (or pairs of numbers),
    each rounded from n terms whose moduli sum to ``total`` per
    component."""
    got, want, n, total = zip(*laws.values())
    got, want = (
        np.array([v if isinstance(v, tuple) else (v.e1, v.e2) for v in side])
        for side in (got, want)
    )
    n = np.array(n)[:, None]
    total = np.array([t if np.ndim(t) else (t, t) for t in total])
    return zip(laws, (np.abs(got - want) <= _slack(n, total, n)).all(axis=1).tolist())


# ---------------------------------------------------------------- algebra


def _rand_bc(rng: Generator, bound: float = 5.0) -> Bicomplex:
    return Bicomplex(
        complex(rng.uniform(-bound, bound), rng.uniform(-bound, bound)),
        complex(rng.uniform(-bound, bound), rng.uniform(-bound, bound)),
    )


def _rand_hyp(rng: Generator, bound: float = 5.0) -> Hyperbolic:
    return Hyperbolic(rng.uniform(-bound, bound), rng.uniform(-bound, bound))


@_suite("algebra")
def _run_algebra(rng: Generator) -> _Verdicts:
    a, b, c = _rand_bc(rng), _rand_bc(rng), _rand_bc(rng)
    e1 = Bicomplex(1, 0)
    e2 = Bicomplex(0, 1)
    one = Bicomplex.one()

    yield "add-commutative", (a + b) == (b + a)
    yield "mul-commutative", (a * b) == (b * a)
    yield "idempotent-units", (e1 * e2).is_zero() and (e1 + e2) == one
    yield "idempotent-squares", e1 * e1 == e1 and e2 * e2 == e2
    yield "multiplicative-identity", (a * one) == a

    w = complex(rng.uniform(0.5, 5.0), rng.uniform(-5.0, 5.0))
    zd = Bicomplex(w, 0j) if rng.random() < 0.5 else Bicomplex(0j, w)
    yield "zero-divisor-flag", zd.is_zero_divisor()
    s1, s2 = zd.to_canonical()
    yield "zero-divisor-canonical-criterion", s1 * s1 + s2 * s2 == 0
    yield "zero-not-divisor", not Bicomplex.zero().is_zero_divisor()
    invertible = a.e1 != 0 and a.e2 != 0
    yield "invertible-flagged-divisor", not a.is_zero_divisor() if invertible else None

    m = a.d_modulus()
    yield "modulus-in-d-plus", m.in_d_plus()
    yield "modulus-zero", Bicomplex.zero().d_modulus() == Hyperbolic(0, 0)
    yield "modulus-definite", m != Hyperbolic(0, 0) if not a.is_zero() else None

    x, y, z = _rand_hyp(rng), _rand_hyp(rng), _rand_hyp(rng)
    u = Hyperbolic(
        float(rng.uniform(0.1, 5.0) * rng.choice([-1.0, 1.0])),
        float(rng.uniform(0.1, 5.0) * rng.choice([-1.0, 1.0])),
    )
    try:
        Hyperbolic(u.e1, 0.0).reciprocal()
    except ValueError:
        refused = True
    else:
        refused = False
    yield "zero-divisor-reciprocal-accepted", refused

    # Laws that hold up to rounding: two roundings of one value, scaled by
    # the operands' moduli; n = 3 for a sum of three, 2 for two products
    # (or a product and a quotient). The canonical pairs mix both
    # components, so they scale by the sum of both moduli.
    ma, mb, mc, mx, my, mz = (np.abs((v.e1, v.e2)) for v in (a, b, c, x, y, z))
    z1, z2 = a.to_canonical()
    w1, w2 = b.to_canonical()
    yield from _laws_close(
        {
            "add-associative": ((a + b) + c, a + (b + c), 3, ma + mb + mc),
            "mul-associative": ((a * b) * c, a * (b * c), 2, ma * mb * mc),
            "distributive": (a * (b + c), a * b + a * c, 2, ma * (mb + mc)),
            "division-inverts-product": ((a * b) / b, a, 2, ma),
            "canonical-round-trip": (Bicomplex.from_canonical(z1, z2), a, 2, ma.sum()),
            "canonical-product-rule": (
                (a * b).to_canonical(),
                (z1 * w1 - z2 * w2, z1 * w2 + z2 * w1),
                2,
                ma.sum() * mb.sum(),
            ),
            "hyp-mul-associative": ((x * y) * z, x * (y * z), 2, mx * my * mz),
            "hyp-distributive": (x * (y + z), x * y + x * z, 2, mx * (my + mz)),
            "hyp-reciprocal": (u * u.reciprocal(), Hyperbolic(1, 1), 1, 1.0),
        }
    )


# ------------------------------------------------------------------ order


@_suite("order")
def _run_order(rng: Generator) -> _Verdicts:
    n = int(rng.integers(1, 65))
    items = [_rand_hyp(rng) for _ in range(n)]
    s = sup_d(items)
    yield "sup-not-upper-bound", all(leq_d(h, s) for h in items)
    yield "sup-not-attained-componentwise", (
        s.e1 in {h.e1 for h in items} and s.e2 in {h.e2 for h in items}
    )

    a = _rand_hyp(rng)
    yield "not-reflexive", compare_d(a, a) is Order.EQUAL
    b = a if rng.random() < 0.5 else _rand_hyp(rng)
    yield "antisymmetry", a == b if leq_d(a, b) and leq_d(b, a) else None
    inc1 = Hyperbolic(rng.uniform(0, 3), rng.uniform(0, 3))
    inc2 = Hyperbolic(rng.uniform(0, 3), rng.uniform(0, 3))
    mid = a + inc1
    top = mid + inc2
    yield "transitivity", leq_d(a, mid) and leq_d(mid, top) and leq_d(a, top)

    x = float(rng.uniform(-5, 5))
    y = float(rng.uniform(-5, 5))
    cmp_real = compare_d(Hyperbolic.from_real(x), Hyperbolic.from_real(y))
    want = Order.EQUAL if x == y else (Order.LESS if x < y else Order.GREATER)
    yield "real-embedding-order", cmp_real is want

    yield "incomparable-pair", (
        compare_d(Hyperbolic(0, 1), Hyperbolic(1, 0)) is Order.INCOMPARABLE
    )
    yield "lenient-strict-less", lt_d(Hyperbolic(0, 0), Hyperbolic(0, 1))
    yield "strict-irreflexive", not lt_d(a, a)


# ----------------------------------------------------------------- series


@_suite("series", scale=10)
def _run_series(rng: Generator) -> _Verdicts:
    length = int(rng.integers(8, 21))
    eps = Hyperbolic(0.1, 0.1)

    geometric = [Hyperbolic(0.5**k, 0.5**k) for k in range(length)]
    w = check_series(geometric, eps)
    yield "geometric-series-witness", w.cauchy_witness and w.abs_convergent_witness

    alternating = [Hyperbolic((-1.0) ** k, (-1.0) ** k) for k in range(length)]
    w = check_series(alternating, Hyperbolic(0.5, 0.5))
    yield "alternating-series-witness", not (w.cauchy_witness or w.abs_convergent_witness)

    zeros = [Hyperbolic(0, 0)] * length
    w = check_series(zeros, eps)
    yield "zero-series-witness", w.cauchy_witness and w.abs_convergent_witness

    terms = [_rand_hyp(rng, 1.0) * (0.5**k) for k in range(length)]
    w = check_series(terms, Hyperbolic(3.0, 3.0))
    yield "abs-implies-cauchy", w.cauchy_witness if w.abs_convergent_witness else None

    prefix = [Hyperbolic(1.0 / (k + 1), 1.0 / (k + 1)) for k in range(12)]
    zero, tol = Hyperbolic(0, 0), Hyperbolic(0.2, 0.2)
    yield "harmonic-prefix-converges", check_convergence(prefix, zero, tol, 6)
    yield "harmonic-prefix-early-tail", not check_convergence(prefix, zero, tol, 3)
    cst = _rand_hyp(rng)
    yield "constant-prefix", check_convergence([cst] * 5, cst, Hyperbolic(1e-9, 1e-9), 0)


# ------------------------------------------------------------- measure-ops


def _random_mask(rng: Generator, space) -> SetMask:
    bits = int(rng.integers(0, 1 << space.size))
    return SetMask(space, np.array([bits >> i & 1 for i in range(space.size)], dtype=bool))


@_suite("measure-ops")
def _run_measure_ops(rng: Generator) -> _Verdicts:
    space = gen.make_space(int(rng.integers(1, 9)))
    a = gen.gen_t_measure(rng, space)
    b = gen.gen_t_measure(rng, space)
    c = _rand_hyp(rng)
    e = _random_mask(rng, space)
    # Sums over the n atoms of e (or of X), scaled by their terms' moduli.
    n = space.size
    tv_e, tv_b, tv_x = a.total_variation(e), b.total_variation(e), a.total_variation(space.full())
    tv_a = np.array([tv_e.e1, tv_e.e2])
    yield from _laws_close(
        {
            "additivity-of-sum": ((a + b).of(e), a.of(e) + b.of(e), n, tv_a + (tv_b.e1, tv_b.e2)),
            "scaling-commutes": (
                a.scaled(c).of(e), c.as_bicomplex() * a.of(e), n, np.abs((c.e1, c.e2)) * tv_a
            ),
            "tv-additive-disjoint": (
                tv_x, tv_e + a.total_variation(e.complement()), n, (tv_x.e1, tv_x.e2)
            ),
        }
    )

    d = gen.gen_d_measure(rng, space)
    yield "d-closure-under-scaling", d.scaled(c.d_modulus()).is_d_measure()
    yield "d-closure-under-addition", (d + gen.gen_d_measure(rng, space)).is_d_measure()

    signed = gen.gen_signed_measure(rng, space)
    perturbed = TMeasure(space, signed.e1 + 1j, signed.e2)
    yield "classification-monotonicity", KIND_RANK[perturbed.kind] <= KIND_RANK[signed.kind]

    var = variation_measure(a)
    yield "variation-not-d-measure", var.is_d_measure()
    ve = var.of(e)
    yield "variation-measure-agrees", Hyperbolic(ve.e1.real, ve.e2.real) == a.total_variation(e)
    # |a|_D dominates a atom by atom by construction; its half must not,
    # unless a is zero, so the check can fail.
    yield "variation-dominates", dominates(var, a) and not (
        (a.c != 0).any() and dominates(var.scaled(0.5), a)
    )
    yield "self-domination", dominates(d, d)

    if d.total() != Bicomplex.zero():
        try:
            probability_variant(normalize_to_probability(d))
        except ValueError:
            normalized = False
        else:
            normalized = True
        yield "normalized-not-probability", normalized
    yield "finite-measure-flagged", a.is_finite()
    bad = TMeasure(space, np.full(space.size, np.inf), np.zeros(space.size))
    yield "infinite-measure-passed", not bad.is_finite()


# -------------------------------------------------------- total-variation


@_suite("total-variation")
def _run_total_variation(rng: Generator) -> _Verdicts:
    space = gen.make_space(int(rng.integers(1, 7)))
    n = space.size
    # Axis-aligned Gaussian-integer masses keep every partition sum
    # and every modulus exact, so the two routes must agree exactly.
    def axis_values() -> np.ndarray:
        mag = rng.integers(-9, 10, size=n).astype(float)
        imag_axis = rng.random(n) < 0.5
        return np.where(imag_axis, 1j * mag, mag + 0j)

    mu = TMeasure(space, axis_values(), axis_values())
    masks = [space.full()] + [_random_mask(rng, space) for _ in range(3)]
    yield "closed-form-vs-bruteforce", all(
        mu.total_variation(e) == total_variation_bruteforce(mu, e) for e in masks
    )
    yield "empty-set-tv", total_variation_bruteforce(mu, space.empty()) == Hyperbolic(0, 0)


# ------------------------------------------------------------ integration


@_suite("integration")
def _run_integration(rng: Generator) -> _Verdicts:
    space = gen.make_space(int(rng.integers(1, 9)))
    exact_mode = rng.random() < 0.5
    mode = "integer" if exact_mode else "float"
    f = gen.gen_function(rng, space, mode=mode)
    g = gen.gen_function(rng, space, mode=mode)
    mu = gen.gen_d_measure(rng, space, mode=mode)
    if exact_mode:
        alpha = Bicomplex(
            complex(rng.integers(-9, 10), rng.integers(-9, 10)),
            complex(rng.integers(-9, 10), rng.integers(-9, 10)),
        )
        beta = Bicomplex(
            complex(rng.integers(-9, 10), rng.integers(-9, 10)),
            complex(rng.integers(-9, 10), rng.integers(-9, 10)),
        )
    else:
        alpha = _rand_bc(rng, 3.0)
        beta = _rand_bc(rng, 3.0)

    yield "linearity", check_linearity(f, g, alpha, beta, mu)
    if exact_mode:
        lhs = integrate(f.scaled(alpha) + g.scaled(beta), mu)
        rhs = alpha * integrate(f, mu) + beta * integrate(g, mu)
        yield "linearity-exact-integers", lhs == rhs

    report = check_modulus_inequality(f, mu)
    yield "modulus-inequality", report.holds

    yield from dec.certify_polar(f, f.polar_factor()).items()

    e = _random_mask(rng, space)
    rest = e.complement()
    whole = integrate(f, mu)
    parts = integrate(f, mu, e) + integrate(f, mu, rest)
    # report.rhs is the integral of |f|_D, the sum|x| of both sides.
    total = np.array([report.rhs.e1, report.rhs.e2])
    yield "integral-additive-over-masks", _close(
        np.array([whole.e1 - parts.e1, whole.e2 - parts.e2]), 0.0, space.size, total, space.size
    )

    # Independent oracle with the same ascending-order contract.
    s1 = 0j
    s2 = 0j
    for i in range(space.size):
        s1 += f.e1[i] * mu.e1[i].real
        s2 += f.e2[i] * mu.e2[i].real
    yield "summation-order-contract", whole == Bicomplex(complex(s1), complex(s2))


# ------------------------------------------------------------------- dct


@_suite("dct", scale=5)
def _run_dct(rng: Generator) -> _Verdicts:
    space = gen.make_space(int(rng.integers(1, 7)))
    seq, f, g, dominator, mu = gen.gen_dct_instance(rng, space, n_terms=100)
    int_g = integrate(g, mu)
    threshold = Hyperbolic(0.05 * int_g.e1.real, 0.05 * int_g.e2.real)
    report = dct_run(seq, f, dominator, mu, tol=1.0)
    yield "domination-hypothesis", report.domination_ok
    yield "gap-above-threshold", lt_d(report.final_gap, threshold)
    yield "trace-length", len(report.l1_limit) == len(report.integral_trace) == len(seq)
    yield "no-crossing-within-budget", any(lt_d(gap, threshold) for gap in report.l1_limit)


# ------------------------------------------------------------ jordan-hahn


@_suite("jordan-hahn")
def _run_jordan_hahn(rng: Generator) -> _Verdicts:
    space = gen.make_space(int(rng.integers(1, 7)))
    # Exactness claims run on integer masses; every third case draws
    # floats, where the sign classification must still be exact.
    mode = "float" if rng.integers(3) == 0 else "integer"
    mu = gen.gen_signed_measure(rng, space, mode=mode)
    pair = dec.jordan(mu)
    yield "jordan-parts-not-d", pair.mu_plus.is_d_measure() and pair.mu_minus.is_d_measure()
    yield from dec.certify_jordan(mu, pair).items()

    p = dec.hahn(mu)
    yield "partition-not-disjoint-cover", (
        p.A.member.astype(int) + p.B.member + p.C.member + p.D.member == 1
    ).all()
    yield from dec.certify_hahn(mu, p).items()
    yield "zero-atom-not-in-A", not (
        (mu.e1.real == 0) & (mu.e2.real == 0) & ~p.A.member
    ).any()

    p2 = dec.hahn(variation_measure(mu))
    yield "d-plus-measure-hahn-cells", p2.B.is_empty() and p2.C.is_empty() and p2.D.is_empty()


# ---------------------------------------------------------- polar-measure


@_suite("polar-measure")
def _run_polar_measure(rng: Generator) -> _Verdicts:
    space = gen.make_space(int(rng.integers(1, 7)))
    mu = gen.gen_t_measure(rng, space)
    yield from dec.certify_polar(mu, dec.polar_density(mu)).items()
    yield "zero-mass-convention", (dec.polar_density(TMeasure.zero(space)).c == 1.0).all()


# -------------------------------------------------------------------- lrn


@_suite("lrn")
def _run_lrn(rng: Generator) -> _Verdicts:
    space = gen.make_space(int(rng.integers(1, 7)))
    mu = gen.gen_d_measure(rng, space)
    lam = gen.gen_t_measure(rng, space)
    res = dec.lebesgue_radon_nikodym(lam, mu)
    yield from dec.certify_lrn(lam, mu, res).items()
    # Uniqueness: moving mass between the parts on any atom must break
    # the sum, absolute continuity or singularity.
    atom = int(rng.integers(0, space.size))
    shift = TMeasure(space, np.eye(space.size)[atom] * 0.5, np.zeros(space.size))
    moved = dec.LRNResult(res.lambda_ac + shift, res.lambda_sing - shift, res.density)
    verdicts = dec.certify_lrn(lam, mu, moved)
    yield "lrn-uniqueness", not all(
        verdicts[k] for k in ("lrn_sum", "lrn_abs_continuous", "lrn_singular")
    )


# ---------------------------------------------------------- indefinite-tv


@_suite("indefinite-tv")
def _run_indefinite_tv(rng: Generator) -> _Verdicts:
    space = gen.make_space(int(rng.integers(1, 7)))
    mu = gen.gen_d_measure(rng, space)
    g = gen.gen_function(rng, space)
    e = _random_mask(rng, space)
    yield "tv-vs-integral-of-modulus", dec.tv_of_indefinite_integral(g, mu, e).equal
    ones = TFunction.constant(space, 1.0)
    res_id = dec.tv_of_indefinite_integral(ones, mu, e)
    me = np.array(_as_components(mu.of(e))).real
    yield "unit-integrand-identity", _close(
        np.array([res_id.tv.e1, res_id.tv.e2]), me, space.size, me, space.size
    )


# ---------------------------------------------------------- epsilon-delta


@_suite("epsilon-delta")
def _run_epsilon_delta(rng: Generator) -> _Verdicts:
    space = gen.make_space(int(rng.integers(1, 11)))
    mu = gen.gen_d_measure(rng, space)
    if rng.random() < 0.5:
        g = gen.gen_function(rng, space)
        lam = TMeasure(space, g.e1 * mu.e1.real, g.e2 * mu.e2.real)
    else:
        lam = gen.gen_t_measure(rng, space)

    lam_sums = np.abs(subset_sums(lam.c))
    m1, m2 = lam_sums.max(axis=1).tolist()
    eps = Hyperbolic(
        m1 * rng.uniform(0.3, 1.2) if m1 > 0 else 1.0,
        m2 * rng.uniform(0.3, 1.2) if m2 > 0 else 1.0,
    )

    delta = dec.epsilon_delta_witness(lam, mu, eps)
    yield "witness-vs-absolute-continuity", (delta is None) != dec.abs_continuous(lam, mu)
    if delta is not None:
        yield "delta-not-positive", delta.e1 > 0 and delta.e2 > 0
        hyp = _lt_d_rows(subset_sums(mu.c.real), np.array([[delta.e1], [delta.e2]]))
        concl = _lt_d_rows(lam_sums, np.array([[eps.e1], [eps.e2]]))
        yield "delta-fails-subset", (~hyp | concl).all()


# ---------------------------------------------------------------- lattice


@_suite("lattice")
def _run_lattice(rng: Generator) -> _Verdicts:
    space = gen.make_space(int(rng.integers(1, 7)))
    mu = gen.gen_d_measure(rng, space)
    choice = rng.random()
    if choice < 0.4:
        g = gen.gen_function(rng, space)
        lam_p = TMeasure(space, g.e1 * mu.e1.real, g.e2 * mu.e2.real)
        null1 = mu.e1.real == 0
        null2 = mu.e2.real == 0
        r = gen.gen_t_measure(rng, space)
        lam_pp = TMeasure(
            space,
            np.where(null1, r.e1, 0.0),
            np.where(null2, r.e2, 0.0),
        )
        lam = lam_p + lam_pp
    elif choice < 0.7:
        lam_p = gen.gen_t_measure(rng, space)
        lam_pp = gen.gen_t_measure(rng, space)
        lam = gen.gen_t_measure(rng, space)
    else:
        lam_p = gen.gen_t_measure(rng, space)
        lam_pp = TMeasure.zero(space)
        lam = TMeasure.zero(space)
    return dec.check_lattice_properties(lam, lam_p, lam_pp, mu).items()


# ------------------------------------------------------ change-of-variables


@_suite("change-of-variables")
def _run_change_of_variables(rng: Generator) -> _Verdicts:
    space = gen.make_space(int(rng.integers(1, 7)))
    variant = ["full", "e1", "e2"][int(rng.integers(0, 3))]
    mu = gen.gen_d_probability(rng, space, variant=variant, dyadic=True)
    phi = gen.gen_function(rng, space, mode="integer")
    f = gen.gen_map(rng, space)
    res = dyn.change_of_variables_check(f, mu, phi)
    yield "cov-tolerance", res.equal
    yield "cov-not-exact-on-dyadics", res.lhs == res.rhs
    ind = TFunction.indicator(_random_mask(rng, space))
    res_ind = dyn.change_of_variables_check(f, mu, ind)
    yield "cov-indicator-base-case", res_ind.lhs == res_ind.rhs


# ---------------------------------------------------- pushforward-linearity


@_suite("pushforward-linearity")
def _run_pushforward_linearity(rng: Generator) -> _Verdicts:
    space = gen.make_space(int(rng.integers(1, 7)))
    variant = ["full", "e1", "e2"][int(rng.integers(0, 3))]
    a = gen.gen_d_probability(rng, space, variant=variant, dyadic=True)
    b = gen.gen_d_probability(rng, space, variant=variant, dyadic=True)
    t = float(rng.integers(0, 65)) / 64.0
    f = gen.gen_map(rng, space)
    lhs = dyn.pushforward(f, dyn.convex_combine(a, b, t))
    rhs = dyn.convex_combine(dyn.pushforward(f, a), dyn.pushforward(f, b), t)
    yield "pushforward-convex-linearity", lhs.equal_exact(rhs)
    yield "mass-not-preserved", dyn.pushforward(f, a).total() == a.total()


# ------------------------------------------------------------- cesaro-hull


@_suite("cesaro-hull", scale=20)
def _run_cesaro_hull(rng: Generator) -> _Verdicts:
    sizes = [2, 3, 5, 8, 13, 40, 150, 1000]
    n = int(sizes[int(rng.integers(0, len(sizes)))])
    space = gen.make_space(n)
    f = gen.gen_map_with_small_cycles(rng, space)
    variant = ["full", "e1", "e2"][int(rng.integers(0, 3))]
    mu0 = gen.gen_d_probability(rng, space, variant=variant, dyadic=True)
    trace = dyn.cesaro_invariant(f, mu0, max_iter=200, tol=1e-12)
    yield "cesaro-did-not-converge", trace.converged
    limit = trace.limit
    yield "cesaro-limit-not-invariant", dyn.is_invariant(f, limit)
    yield "cesaro-limit-outside-hull", dyn.in_invariant_hull(f, limit)
    basis = dyn.invariant_basis_bruteforce(f)
    yield "empty-basis", len(basis) > 0
    yield "basis-element-not-invariant", all(dyn.is_invariant(f, m) for m in basis)

    # Oracle: after burn-in, the limit is the per-cycle average of the
    # advanced initial measure.
    base = (
        dyn.pushforward_iter(f, mu0, trace.burn_in)
        if trace.burn_in > 0
        else mu0
    )
    masses = base.c.real
    _, order, starts = f._cycle_structure()
    lengths = np.concatenate((starts[1:], [len(order)])) - starts
    expected = np.zeros_like(masses)
    sums = np.add.reduceat(masses[:, order], starts, axis=1)
    expected[:, order] = np.repeat(sums / lengths, lengths, axis=1)
    yield "cesaro-limit-vs-cycle-average", _close(
        limit.c.real, expected, n, masses.sum(axis=1, keepdims=True), n
    )


# ------------------------------------------------------- invariant-nonempty


@_suite("invariant-nonempty")
def _run_invariant_nonempty(rng: Generator) -> _Verdicts:
    n = int(rng.integers(1, 1001))
    space = gen.make_space(n)
    f = gen.gen_map(rng, space)
    basis = dyn.invariant_basis_bruteforce(f)
    yield "no-invariant-measure", len(basis) > 0
    first = basis[0]
    yield "basis-not-probability", probability_variant(first) == Hyperbolic(1.0, 1.0)
    yield "basis-not-invariant", dyn.is_invariant(f, first)


# -------------------------------------------------------------- continuity


@_suite("continuity", scale=5)
def _run_continuity(rng: Generator) -> _Verdicts:
    space = gen.make_space(int(rng.integers(2, 7)))
    f = gen.gen_map(rng, space)
    mu = gen.gen_d_probability(rng, space)
    nu = gen.gen_d_probability(rng, space)
    fns = [gen.gen_function(rng, space) for _ in range(3)]
    seq = [
        dyn.convex_combine(mu, nu, 1.0 - 1.0 / k) for k in range(1, 12)
    ]
    probe = dyn.continuity_probe(f, seq, mu, fns, tol=1.0)
    yield "continuity-linear-sequence", probe["pushforward_continuity"]
    # A constant sequence meets the hypothesis, so the verdict must be True.
    const = dyn.continuity_probe(f, [mu] * 3, mu, fns, tol=1e-9)
    yield "continuity-constant-sequence", const["pushforward_continuity"] is True

    g = gen.gen_map_with_small_cycles(rng, space)
    basis = dyn.invariant_basis_bruteforce(g)
    if len(basis) >= 2:
        combo = dyn.convex_combine(basis[0], basis[1], float(rng.random()))
        yield "convex-combination-not-invariant", dyn.is_invariant(g, combo)


# ------------------------------------------------------------------- codec


@_suite("codec", scale=5)
def _run_codec(rng: Generator) -> _Verdicts:
    space = gen.make_space(int(rng.integers(1, 7)))
    mu = gen.gen_t_measure(rng, space)
    doc = measure_to_obj(mu)
    back = parse_measure(doc)
    yield "measure-round-trip", back.equal_exact(mu)
    yield "measure-serialization-determinism", (
        dumps_canonical(doc) == dumps_canonical(measure_to_obj(back))
    )

    fn = gen.gen_function(rng, space)
    yield "function-round-trip", parse_function(function_to_obj(fn)).equal_exact(fn)

    pm = gen.gen_map(rng, space)
    yield "map-round-trip", np.array_equal(parse_map(map_to_obj(pm)).image, pm.image)


# ------------------------------------------------------------------ driver


def _case_rng(seed: int, suite_name: str, case: int) -> Generator:
    return default_rng([seed, zlib.crc32(suite_name.encode()), case])


def run_suite(name: str, seed: int, cases: int) -> SuiteResult:
    """Run one registered suite at the given case budget.

    A case fails at its first verdict that is neither None nor true, and
    its failure is ``{"suite", "seed", "case", "check"}``. A case that
    raises is a failure whose check is ``raised``, with the exception's
    type and message as its ``error``.
    """
    for reg_name, scale, runner in _REGISTRY:
        if reg_name == name:
            break
    else:
        raise ValueError(f"unknown suite {name!r}")
    effective = max(1, cases // scale)
    failures = 0
    first: Optional[dict] = None
    start = time.perf_counter()
    for case in range(effective):
        try:
            verdicts = runner(_case_rng(seed, name, case))
            check = next((c for c, v in verdicts if v is not None and not v), None)
            detail = None if check is None else {"check": check}
        except Exception as exc:  # a failing case; (suite, seed, case) replays it
            detail = {"check": "raised", "error": f"{type(exc).__name__}: {exc}"}
        if detail is not None:
            failures += 1
            if first is None:
                first = {"suite": name, "seed": seed, "case": case, **detail}
    seconds = time.perf_counter() - start
    return SuiteResult(
        name=name,
        cases=effective,
        failures=failures,
        first_counterexample=first,
        seconds=seconds,
    )


def run_verify(
    seed: int = 42, cases: int = 1000, suite_glob: str = "*"
) -> VerifyReport:
    """Run every registered suite matching the glob, sorted by name.

    Results are deterministic in (seed, cases) apart from the
    recorded wall times.
    """
    names = [n for n in suite_names() if fnmatch.fnmatch(n, suite_glob)]
    if not names:
        raise ValueError(f"no suite matches {suite_glob!r}")
    start = time.perf_counter()
    results = tuple(run_suite(name, seed, cases) for name in names)
    total = time.perf_counter() - start
    return VerifyReport(
        suites=results,
        all_passed=all(r.passed for r in results),
        total_seconds=total,
    )
