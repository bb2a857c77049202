"""Named verification suites over every module's invariants.

Each suite draws seeded random instances and checks one family of
guarantees; the registry keys are stable names a CLI or CI run can
select with a glob. A failure records the first counterexample with
enough information (seed, suite, case index) to regenerate it
exactly: case ``k`` of suite ``s`` under seed ``q`` always uses the
generator ``default_rng([q, crc32(s), k])``.

Heavy suites run a documented fraction of the requested case budget
(see ``scale`` in the registry) so the default budget stays
interactive.
"""

from __future__ import annotations

import fnmatch
import time
import zlib
from dataclasses import dataclass
from typing import Callable, Optional

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


_Runner = Callable[[Generator], Optional[dict]]
_REGISTRY: list[tuple[str, int, _Runner]] = []


def _suite(name: str, scale: int = 1):
    def deco(fn: _Runner) -> _Runner:
        _REGISTRY.append((name, scale, fn))
        return fn

    return deco


def suite_names() -> list[str]:
    return sorted(name for name, _, _ in _REGISTRY)


def _fail(check: str, **detail) -> dict:
    return {"check": check, **{k: repr(v) for k, v in detail.items()}}


def _first_false(verdicts: dict, **detail) -> Optional[dict]:
    """The failure named after the first verdict that is False; a None
    verdict (vacuous) tested nothing and is not one."""
    for verdict, value in verdicts.items():
        if value is False:
            return _fail(verdict, **detail)
    return None


def _first_not_close(laws: dict, **detail) -> Optional[dict]:
    """The failure named after the first law whose two sides are apart by
    more than the rounding bound (``_close``); all laws are checked in one
    call. A law maps its name to (got, want, n, total): two bicomplex or
    hyperbolic values (or pairs of numbers), each rounded from n terms
    whose moduli sum to ``total`` per component."""
    got, want, n, total = zip(*laws.values())
    got, want = (
        np.array([v if isinstance(v, tuple) else (v.e1, v.e2) for v in side])
        for side in (got, want)
    )
    n = np.array(n)[:, None]
    total = np.array([t if np.ndim(t) else (t, t) for t in total])
    if _close(got, want, n, total, n):
        return None
    for name, *row in zip(laws, got, want, n, total):
        if not _close(*row, row[2]):
            return _fail(name, **detail)
    return None


# ---------------------------------------------------------------- algebra


def _rand_bc(rng: Generator, bound: float = 5.0) -> Bicomplex:
    return Bicomplex(
        complex(rng.uniform(-bound, bound), rng.uniform(-bound, bound)),
        complex(rng.uniform(-bound, bound), rng.uniform(-bound, bound)),
    )


def _rand_hyp(rng: Generator, bound: float = 5.0) -> Hyperbolic:
    return Hyperbolic(rng.uniform(-bound, bound), rng.uniform(-bound, bound))


@_suite("algebra")
def _run_algebra(rng: Generator) -> Optional[dict]:
    a, b, c = _rand_bc(rng), _rand_bc(rng), _rand_bc(rng)
    e1 = Bicomplex(1, 0)
    e2 = Bicomplex(0, 1)
    one = Bicomplex.one()

    if (a + b) != (b + a):
        return _fail("add-commutative", a=a, b=b)
    if (a * b) != (b * a):
        return _fail("mul-commutative", a=a, b=b)
    if not (e1 * e2).is_zero() or (e1 + e2) != one:
        return _fail("idempotent-units")
    if e1 * e1 != e1 or e2 * e2 != e2:
        return _fail("idempotent-squares")
    if (a * one) != a:
        return _fail("multiplicative-identity", a=a)

    w = complex(rng.uniform(0.5, 5.0), rng.uniform(-5.0, 5.0))
    zd = Bicomplex(w, 0j) if rng.random() < 0.5 else Bicomplex(0j, w)
    if not zd.is_zero_divisor():
        return _fail("zero-divisor-flag", zd=zd)
    s1, s2 = zd.to_canonical()
    if s1 * s1 + s2 * s2 != 0:
        return _fail("zero-divisor-canonical-criterion", zd=zd)
    if Bicomplex.zero().is_zero_divisor():
        return _fail("zero-not-divisor")
    if a.e1 != 0 and a.e2 != 0 and a.is_zero_divisor():
        return _fail("invertible-flagged-divisor", a=a)

    m = a.d_modulus()
    if not m.in_d_plus():
        return _fail("modulus-in-d-plus", a=a)
    if Bicomplex.zero().d_modulus() != Hyperbolic(0, 0):
        return _fail("modulus-zero")
    if not a.is_zero() and m == Hyperbolic(0, 0):
        return _fail("modulus-definite", a=a)

    x, y, z = _rand_hyp(rng), _rand_hyp(rng), _rand_hyp(rng)
    u = Hyperbolic(
        float(rng.uniform(0.1, 5.0) * rng.choice([-1.0, 1.0])),
        float(rng.uniform(0.1, 5.0) * rng.choice([-1.0, 1.0])),
    )
    try:
        Hyperbolic(u.e1, 0.0).reciprocal()
        return _fail("zero-divisor-reciprocal-accepted", u=u)
    except ValueError:
        pass

    # Laws that hold up to rounding: two roundings of one value, scaled by
    # the operands' moduli; n = 3 for a sum of three, 2 for two products
    # (or a product and a quotient). The canonical pairs mix both
    # components, so they scale by the sum of both moduli.
    ma, mb, mc, mx, my, mz = (np.abs((v.e1, v.e2)) for v in (a, b, c, x, y, z))
    z1, z2 = a.to_canonical()
    w1, w2 = b.to_canonical()
    return _first_not_close(
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
        },
        a=a, b=b, c=c, x=x, y=y, z=z, u=u,
    )


# ------------------------------------------------------------------ order


@_suite("order")
def _run_order(rng: Generator) -> Optional[dict]:
    n = int(rng.integers(1, 65))
    items = [_rand_hyp(rng) for _ in range(n)]
    s = sup_d(items)
    for h in items:
        if not leq_d(h, s):
            return _fail("sup-not-upper-bound", item=h, sup=s)
    if s.e1 not in {h.e1 for h in items} or s.e2 not in {h.e2 for h in items}:
        return _fail("sup-not-attained-componentwise", sup=s)

    a = _rand_hyp(rng)
    if compare_d(a, a) is not Order.EQUAL:
        return _fail("not-reflexive", a=a)
    b = a if rng.random() < 0.5 else _rand_hyp(rng)
    if leq_d(a, b) and leq_d(b, a) and a != b:
        return _fail("antisymmetry", a=a, b=b)
    inc1 = Hyperbolic(rng.uniform(0, 3), rng.uniform(0, 3))
    inc2 = Hyperbolic(rng.uniform(0, 3), rng.uniform(0, 3))
    mid = a + inc1
    top = mid + inc2
    if not (leq_d(a, mid) and leq_d(mid, top) and leq_d(a, top)):
        return _fail("transitivity", a=a, mid=mid, top=top)

    x = float(rng.uniform(-5, 5))
    y = float(rng.uniform(-5, 5))
    cmp_real = compare_d(Hyperbolic.from_real(x), Hyperbolic.from_real(y))
    want = Order.EQUAL if x == y else (Order.LESS if x < y else Order.GREATER)
    if cmp_real is not want:
        return _fail("real-embedding-order", x=x, y=y)

    if compare_d(Hyperbolic(0, 1), Hyperbolic(1, 0)) is not Order.INCOMPARABLE:
        return _fail("incomparable-pair")
    if not lt_d(Hyperbolic(0, 0), Hyperbolic(0, 1)):
        return _fail("lenient-strict-less")
    if lt_d(a, a):
        return _fail("strict-irreflexive", a=a)
    return None


# ----------------------------------------------------------------- series


@_suite("series", scale=10)
def _run_series(rng: Generator) -> Optional[dict]:
    length = int(rng.integers(8, 21))
    eps = Hyperbolic(0.1, 0.1)

    geometric = [Hyperbolic(0.5**k, 0.5**k) for k in range(length)]
    w = check_series(geometric, eps)
    if not (w.cauchy_witness and w.abs_convergent_witness):
        return _fail("geometric-series-witness", length=length)

    alternating = [Hyperbolic((-1.0) ** k, (-1.0) ** k) for k in range(length)]
    w = check_series(alternating, Hyperbolic(0.5, 0.5))
    if w.cauchy_witness or w.abs_convergent_witness:
        return _fail("alternating-series-witness", length=length)

    zeros = [Hyperbolic(0, 0)] * length
    w = check_series(zeros, eps)
    if not (w.cauchy_witness and w.abs_convergent_witness):
        return _fail("zero-series-witness")

    terms = [_rand_hyp(rng, 1.0) * (0.5**k) for k in range(length)]
    w = check_series(terms, Hyperbolic(3.0, 3.0))
    if w.abs_convergent_witness and not w.cauchy_witness:
        return _fail("abs-implies-cauchy", terms=len(terms))

    prefix = [Hyperbolic(1.0 / (k + 1), 1.0 / (k + 1)) for k in range(12)]
    if not check_convergence(prefix, Hyperbolic(0, 0), Hyperbolic(0.2, 0.2), 6):
        return _fail("harmonic-prefix-converges")
    if check_convergence(prefix, Hyperbolic(0, 0), Hyperbolic(0.2, 0.2), 3):
        return _fail("harmonic-prefix-early-tail")
    cst = _rand_hyp(rng)
    if not check_convergence([cst] * 5, cst, Hyperbolic(1e-9, 1e-9), 0):
        return _fail("constant-prefix", cst=cst)
    return None


# ------------------------------------------------------------- measure-ops


def _random_mask(rng: Generator, space) -> SetMask:
    bits = int(rng.integers(0, 1 << space.size))
    return SetMask(space, np.array([bits >> i & 1 for i in range(space.size)], dtype=bool))


@_suite("measure-ops")
def _run_measure_ops(rng: Generator) -> Optional[dict]:
    space = gen.make_space(int(rng.integers(1, 9)))
    a = gen.gen_t_measure(rng, space)
    b = gen.gen_t_measure(rng, space)
    c = _rand_hyp(rng)
    e = _random_mask(rng, space)
    # Sums over the n atoms of e (or of X), scaled by their terms' moduli.
    n = space.size
    tv_e, tv_b, tv_x = a.total_variation(e), b.total_variation(e), a.total_variation(space.full())
    tv_a = np.array([tv_e.e1, tv_e.e2])
    laws = {
        "additivity-of-sum": ((a + b).of(e), a.of(e) + b.of(e), n, tv_a + (tv_b.e1, tv_b.e2)),
        "scaling-commutes": (
            a.scaled(c).of(e), c.as_bicomplex() * a.of(e), n, np.abs((c.e1, c.e2)) * tv_a
        ),
        "tv-additive-disjoint": (
            tv_x, tv_e + a.total_variation(e.complement()), n, (tv_x.e1, tv_x.e2)
        ),
    }
    if failed := _first_not_close(laws, e=e.labels(), c=c):
        return failed

    d = gen.gen_d_measure(rng, space)
    nonneg = c.d_modulus()
    if not d.scaled(nonneg).is_d_measure():
        return _fail("d-closure-under-scaling", c=nonneg)
    if not (d + gen.gen_d_measure(rng, space)).is_d_measure():
        return _fail("d-closure-under-addition")

    signed = gen.gen_signed_measure(rng, space)
    perturbed = TMeasure(space, signed.e1 + 1j, signed.e2)
    if KIND_RANK[perturbed.kind] > KIND_RANK[signed.kind]:
        return _fail("classification-monotonicity", kind=perturbed.kind)

    var = variation_measure(a)
    if not var.is_d_measure():
        return _fail("variation-not-d-measure")
    ve = var.of(e)
    if Hyperbolic(ve.e1.real, ve.e2.real) != a.total_variation(e):
        return _fail("variation-measure-agrees", e=e.labels())
    # |a|_D dominates a atom by atom by construction; its half must not,
    # unless a is zero, so the check can fail.
    if not dominates(var, a) or ((a.c != 0).any() and dominates(var.scaled(0.5), a)):
        return _fail("variation-dominates", a=a)
    if not dominates(d, d):
        return _fail("self-domination", d=d)

    if d.total() != Bicomplex.zero():
        p = normalize_to_probability(d)
        probability_variant(p)
    if not a.is_finite():
        return _fail("finite-measure-flagged", a=a)
    bad = TMeasure(space, np.full(space.size, np.inf), np.zeros(space.size))
    if bad.is_finite():
        return _fail("infinite-measure-passed")
    return None


# -------------------------------------------------------- total-variation


@_suite("total-variation")
def _run_total_variation(rng: Generator) -> Optional[dict]:
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
    for e in masks:
        closed = mu.total_variation(e)
        brute = total_variation_bruteforce(mu, e)
        if closed != brute:
            return _fail(
                "closed-form-vs-bruteforce",
                mask=e.labels(),
                closed=closed,
                brute=brute,
            )
    if total_variation_bruteforce(mu, space.empty()) != Hyperbolic(0, 0):
        return _fail("empty-set-tv")
    return None


# ------------------------------------------------------------ integration


@_suite("integration")
def _run_integration(rng: Generator) -> Optional[dict]:
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

    if not check_linearity(f, g, alpha, beta, mu):
        return _fail("linearity", alpha=alpha, beta=beta)
    if exact_mode:
        lhs = integrate(f.scaled(alpha) + g.scaled(beta), mu)
        rhs = alpha * integrate(f, mu) + beta * integrate(g, mu)
        if lhs != rhs:
            return _fail("linearity-exact-integers", lhs=lhs, rhs=rhs)

    report = check_modulus_inequality(f, mu)
    if not report.holds:
        return _fail("modulus-inequality", lhs=report.lhs, rhs=report.rhs)

    if failed := _first_false(dec.certify_polar(f, f.polar_factor())):
        return failed

    e = _random_mask(rng, space)
    rest = e.complement()
    whole = integrate(f, mu)
    parts = integrate(f, mu, e) + integrate(f, mu, rest)
    # report.rhs is the integral of |f|_D, the sum|x| of both sides.
    total = np.array([report.rhs.e1, report.rhs.e2])
    if not _close(np.array([whole.e1 - parts.e1, whole.e2 - parts.e2]), 0.0, space.size, total, space.size):
        return _fail("integral-additive-over-masks", e=e.labels())

    # Independent oracle with the same ascending-order contract.
    s1 = 0j
    s2 = 0j
    for i in range(space.size):
        s1 += f.e1[i] * mu.e1[i].real
        s2 += f.e2[i] * mu.e2[i].real
    if whole != Bicomplex(complex(s1), complex(s2)):
        return _fail("summation-order-contract")
    return None


# ------------------------------------------------------------------- dct


@_suite("dct", scale=5)
def _run_dct(rng: Generator) -> Optional[dict]:
    space = gen.make_space(int(rng.integers(1, 7)))
    seq, f, g, dominator, mu = gen.gen_dct_instance(rng, space, n_terms=100)
    int_g = integrate(g, mu)
    threshold = Hyperbolic(0.05 * int_g.e1.real, 0.05 * int_g.e2.real)
    report = dct_run(seq, f, dominator, mu, tol=1.0)
    if not report.domination_ok:
        return _fail("domination-hypothesis")
    if not lt_d(report.final_gap, threshold):
        return _fail("gap-above-threshold", gap=report.final_gap, threshold=threshold)
    if len(report.l1_limit) != len(seq) or len(report.integral_trace) != len(seq):
        return _fail("trace-length")
    crossed = any(lt_d(gap, threshold) for gap in report.l1_limit)
    if not crossed:
        return _fail("no-crossing-within-budget")
    return None


# ------------------------------------------------------------ jordan-hahn


@_suite("jordan-hahn")
def _run_jordan_hahn(rng: Generator) -> Optional[dict]:
    space = gen.make_space(int(rng.integers(1, 7)))
    # Exactness claims run on integer masses; every third case draws
    # floats, where the sign classification must still be exact.
    mode = "float" if rng.integers(3) == 0 else "integer"
    mu = gen.gen_signed_measure(rng, space, mode=mode)
    pair = dec.jordan(mu)
    if not pair.mu_plus.is_d_measure() or not pair.mu_minus.is_d_measure():
        return _fail("jordan-parts-not-d")
    if failed := _first_false(dec.certify_jordan(mu, pair)):
        return failed

    p = dec.hahn(mu)
    if not (p.A.member.astype(int) + p.B.member + p.C.member + p.D.member == 1).all():
        return _fail("partition-not-disjoint-cover")
    if failed := _first_false(dec.certify_hahn(mu, p), mu=mu):
        return failed
    stray = np.flatnonzero((mu.e1.real == 0) & (mu.e2.real == 0) & ~p.A.member)
    if stray.size:
        return _fail("zero-atom-not-in-A", atom=int(stray[0]))

    nonneg = variation_measure(mu)
    p2 = dec.hahn(nonneg)
    if not (p2.B.is_empty() and p2.C.is_empty() and p2.D.is_empty()):
        return _fail("d-plus-measure-hahn-cells")
    return None


# ---------------------------------------------------------- polar-measure


@_suite("polar-measure")
def _run_polar_measure(rng: Generator) -> Optional[dict]:
    space = gen.make_space(int(rng.integers(1, 7)))
    mu = gen.gen_t_measure(rng, space)
    if failed := _first_false(dec.certify_polar(mu, dec.polar_density(mu)), mu=mu):
        return failed
    zero = TMeasure.zero(space)
    hz = dec.polar_density(zero)
    if not (hz.c == 1.0).all():
        return _fail("zero-mass-convention")
    return None


# -------------------------------------------------------------------- lrn


@_suite("lrn")
def _run_lrn(rng: Generator) -> Optional[dict]:
    space = gen.make_space(int(rng.integers(1, 7)))
    mu = gen.gen_d_measure(rng, space)
    lam = gen.gen_t_measure(rng, space)
    res = dec.lebesgue_radon_nikodym(lam, mu)
    if failed := _first_false(dec.certify_lrn(lam, mu, res)):
        return failed
    # Uniqueness: moving mass between the parts on any atom must break
    # the sum, absolute continuity or singularity.
    atom = int(rng.integers(0, space.size))
    shift = TMeasure(space, np.eye(space.size)[atom] * 0.5, np.zeros(space.size))
    moved = dec.LRNResult(res.lambda_ac + shift, res.lambda_sing - shift, res.density)
    verdicts = dec.certify_lrn(lam, mu, moved)
    if all(verdicts[k] for k in ("lrn_sum", "lrn_abs_continuous", "lrn_singular")):
        return _fail("lrn-uniqueness", atom=atom)
    return None


# ---------------------------------------------------------- indefinite-tv


@_suite("indefinite-tv")
def _run_indefinite_tv(rng: Generator) -> Optional[dict]:
    space = gen.make_space(int(rng.integers(1, 7)))
    mu = gen.gen_d_measure(rng, space)
    g = gen.gen_function(rng, space)
    e = _random_mask(rng, space)
    res = dec.tv_of_indefinite_integral(g, mu, e)
    if not res.equal:
        return _fail("tv-vs-integral-of-modulus", tv=res.tv, iom=res.integral_of_modulus)
    ones = TFunction.constant(space, 1.0)
    res_id = dec.tv_of_indefinite_integral(ones, mu, e)
    me = np.array(_as_components(mu.of(e))).real
    if not _close(np.array([res_id.tv.e1, res_id.tv.e2]), me, space.size, me, space.size):
        return _fail("unit-integrand-identity")
    return None


# ---------------------------------------------------------- epsilon-delta


@_suite("epsilon-delta")
def _run_epsilon_delta(rng: Generator) -> Optional[dict]:
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
    ac = dec.abs_continuous(lam, mu)
    if (delta is None) == ac:
        return _fail("witness-vs-absolute-continuity", ac=ac)
    if delta is None:
        return None
    if not (delta.e1 > 0 and delta.e2 > 0):
        return _fail("delta-not-positive", delta=delta)
    hyp = _lt_d_rows(subset_sums(mu.c.real), np.array([[delta.e1], [delta.e2]]))
    concl = _lt_d_rows(lam_sums, np.array([[eps.e1], [eps.e2]]))
    if not (~hyp | concl).all():
        bad = int(np.flatnonzero(hyp & ~concl)[0])
        return _fail("delta-fails-subset", subset_bits=bad, delta=delta, eps=eps)
    return None


# ---------------------------------------------------------------- lattice


@_suite("lattice")
def _run_lattice(rng: Generator) -> Optional[dict]:
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
    return _first_false(dec.check_lattice_properties(lam, lam_p, lam_pp, mu))


# ------------------------------------------------------ change-of-variables


@_suite("change-of-variables")
def _run_change_of_variables(rng: Generator) -> Optional[dict]:
    space = gen.make_space(int(rng.integers(1, 7)))
    variant = ["full", "e1", "e2"][int(rng.integers(0, 3))]
    mu = gen.gen_d_probability(rng, space, variant=variant, dyadic=True)
    phi = gen.gen_function(rng, space, mode="integer")
    f = gen.gen_map(rng, space)
    res = dyn.change_of_variables_check(f, mu, phi)
    if not res.equal:
        return _fail("cov-tolerance", lhs=res.lhs, rhs=res.rhs)
    if res.lhs != res.rhs:
        return _fail("cov-not-exact-on-dyadics", lhs=res.lhs, rhs=res.rhs)
    ind = TFunction.indicator(_random_mask(rng, space))
    res_ind = dyn.change_of_variables_check(f, mu, ind)
    if res_ind.lhs != res_ind.rhs:
        return _fail("cov-indicator-base-case")
    return None


# ---------------------------------------------------- pushforward-linearity


@_suite("pushforward-linearity")
def _run_pushforward_linearity(rng: Generator) -> Optional[dict]:
    space = gen.make_space(int(rng.integers(1, 7)))
    variant = ["full", "e1", "e2"][int(rng.integers(0, 3))]
    a = gen.gen_d_probability(rng, space, variant=variant, dyadic=True)
    b = gen.gen_d_probability(rng, space, variant=variant, dyadic=True)
    t = float(rng.integers(0, 65)) / 64.0
    f = gen.gen_map(rng, space)
    lhs = dyn.pushforward(f, dyn.convex_combine(a, b, t))
    rhs = dyn.convex_combine(dyn.pushforward(f, a), dyn.pushforward(f, b), t)
    if not lhs.equal_exact(rhs):
        return _fail("pushforward-convex-linearity", t=t)
    pa = dyn.pushforward(f, a)
    if pa.total() != a.total():
        return _fail("mass-not-preserved")
    return None


# ------------------------------------------------------------- cesaro-hull


@_suite("cesaro-hull", scale=20)
def _run_cesaro_hull(rng: Generator) -> Optional[dict]:
    sizes = [2, 3, 5, 8, 13, 40, 150, 1000]
    n = int(sizes[int(rng.integers(0, len(sizes)))])
    space = gen.make_space(n)
    f = gen.gen_map_with_small_cycles(rng, space)
    variant = ["full", "e1", "e2"][int(rng.integers(0, 3))]
    mu0 = gen.gen_d_probability(rng, space, variant=variant, dyadic=True)
    trace = dyn.cesaro_invariant(f, mu0, max_iter=200, tol=1e-12)
    if not trace.converged:
        return _fail("cesaro-did-not-converge", size=n)
    limit = trace.limit
    if not dyn.is_invariant(f, limit, 1e-12):
        return _fail("cesaro-limit-not-invariant", size=n)
    if not dyn.in_invariant_hull(f, limit):
        return _fail("cesaro-limit-outside-hull", size=n)
    basis = dyn.invariant_basis_bruteforce(f)
    if not basis:
        return _fail("empty-basis", size=n)
    for i, m in enumerate(basis):
        if not dyn.is_invariant(f, m, 1e-12):
            return _fail("basis-element-not-invariant", index=i)

    # Oracle: after burn-in, the limit is the per-cycle average of the
    # advanced initial measure.
    base = (
        dyn.pushforward_iter(f, mu0, trace.burn_in)
        if trace.burn_in > 0
        else mu0
    )
    masses = base.c.real
    expected = np.zeros_like(masses)
    for cycle in f._cycle_structure()[1]:
        expected[:, cycle] = masses[:, cycle].sum(axis=1, keepdims=True) / len(cycle)
    if not _close(limit.c.real, expected, n, masses.sum(axis=1, keepdims=True), n):
        return _fail("cesaro-limit-vs-cycle-average", size=n)
    return None


# ------------------------------------------------------- invariant-nonempty


@_suite("invariant-nonempty")
def _run_invariant_nonempty(rng: Generator) -> Optional[dict]:
    n = int(rng.integers(1, 1001))
    space = gen.make_space(n)
    f = gen.gen_map(rng, space)
    basis = dyn.invariant_basis_bruteforce(f)
    if not basis:
        return _fail("no-invariant-measure", size=n)
    first = basis[0]
    if probability_variant(first) != Hyperbolic(1.0, 1.0):
        return _fail("basis-not-probability")
    if not dyn.is_invariant(f, first, 1e-12):
        return _fail("basis-not-invariant", size=n)
    return None


# -------------------------------------------------------------- continuity


@_suite("continuity", scale=5)
def _run_continuity(rng: Generator) -> Optional[dict]:
    space = gen.make_space(int(rng.integers(2, 7)))
    f = gen.gen_map(rng, space)
    mu = gen.gen_d_probability(rng, space)
    nu = gen.gen_d_probability(rng, space)
    fns = [gen.gen_function(rng, space) for _ in range(3)]
    seq = [
        dyn.convex_combine(mu, nu, 1.0 - 1.0 / k) for k in range(1, 12)
    ]
    if dyn.continuity_probe(f, seq, mu, fns, tol=1.0)["pushforward_continuity"] is False:
        return _fail("continuity-linear-sequence")
    # A constant sequence meets the hypothesis, so the verdict must be True.
    const = dyn.continuity_probe(f, [mu] * 3, mu, fns, tol=1e-9)
    if const["pushforward_continuity"] is not True:
        return _fail("continuity-constant-sequence")

    g = gen.gen_map_with_small_cycles(rng, space)
    basis = dyn.invariant_basis_bruteforce(g)
    if len(basis) >= 2:
        t = float(rng.random())
        combo = dyn.convex_combine(basis[0], basis[1], t)
        if not dyn.is_invariant(g, combo, 1e-12):
            return _fail("convex-combination-not-invariant", t=t)
    return None


# ------------------------------------------------------------------- codec


@_suite("codec", scale=5)
def _run_codec(rng: Generator) -> Optional[dict]:
    space = gen.make_space(int(rng.integers(1, 7)))
    mu = gen.gen_t_measure(rng, space)
    doc = measure_to_obj(mu)
    back = parse_measure(doc)
    if not back.equal_exact(mu):
        return _fail("measure-round-trip")
    if dumps_canonical(doc) != dumps_canonical(measure_to_obj(back)):
        return _fail("measure-serialization-determinism")

    fn = gen.gen_function(rng, space)
    if not parse_function(function_to_obj(fn)).equal_exact(fn):
        return _fail("function-round-trip")

    pm = gen.gen_map(rng, space)
    back_pm = parse_map(map_to_obj(pm))
    if not np.array_equal(back_pm.image, pm.image):
        return _fail("map-round-trip")
    return None


# ------------------------------------------------------------------ driver


def _case_rng(seed: int, suite_name: str, case: int) -> Generator:
    return default_rng([seed, zlib.crc32(suite_name.encode()), case])


def run_suite(name: str, seed: int, cases: int) -> SuiteResult:
    """Run one registered suite at the given case budget.

    A case that raises is a failure whose check is ``raised``, with the
    exception's type and message as its ``error``.
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
            detail = runner(_case_rng(seed, name, case))
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
