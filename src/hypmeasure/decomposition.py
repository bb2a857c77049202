"""Decompositions of T-measures on finite atomic spaces.

Everything here is computed atomwise: the Jordan positive and negative
parts, the polar density against the total variation, the four-set
Hahn partition, and the Lebesgue decomposition with its Radon-Nikodym
density as a ratio of atom masses. Atomic spaces make the classical
existence proofs constructive and exact.

Constructions and certificates are O(n) at any size. Each construction
has one certifier, ``certify_*``, with named verdicts (True or False),
all atomwise: an identity on a set is the sum of the identities on its
atoms, and the Hahn formulas also need their modulus terms to keep one
sign per cell (``certify_hahn``). ``check_lattice_properties`` names its
verdicts the same way, None there meaning a false hypothesis (vacuous).
The Jordan, Hahn and Lebesgue-part verdicts are exact; the polar,
density and integral ones compare within the package's one rounding
bound, ``measures._close``, worked out from the inputs with no tolerance
to set, so they fail at any scale; integration and dynamics checks use
the same bound.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InternalInvariantError
from .integration import TFunction, indefinite_integral, integrate
from .measures import (
    AtomTable,
    MeasureKind,
    TMeasure,
    _close,
    _masked_sum,
    variation_measure,
)
from .numbers import Hyperbolic
from .spaces import SetMask

__all__ = [
    "JordanPair",
    "jordan",
    "polar_density",
    "HahnPartition",
    "hahn",
    "certify_jordan",
    "certify_hahn",
    "certify_polar",
    "certify_lrn",
    "is_concentrated",
    "mutually_singular",
    "abs_continuous",
    "check_lattice_properties",
    "LRNResult",
    "lebesgue_radon_nikodym",
    "epsilon_delta_witness",
    "TvOfIndefinite",
    "tv_of_indefinite_integral",
]


def _require_signed_d(mu: TMeasure) -> np.ndarray:
    """The real (2, n) masses of a signed D-measure."""
    if mu.kind is MeasureKind.T:
        raise ValueError("not a signed D-measure")
    return mu.c.real


@dataclass(frozen=True)
class JordanPair:
    """Positive and negative parts of a signed D-measure.

    Satisfies mu_plus - mu_minus = mu and mu_plus + mu_minus = |mu|_D
    atomwise, exactly on exactly-representable inputs.
    """

    mu_plus: TMeasure
    mu_minus: TMeasure


def jordan(mu: TMeasure) -> JordanPair:
    """Jordan decomposition mu = mu_plus - mu_minus.

    Componentwise positive/negative parts of the atom masses; both
    outputs are D-measures.

    Raises
    ------
    ValueError
        If any atom mass has a nonzero imaginary part.
    """
    x = _require_signed_d(mu)
    plus = TMeasure(mu.space, *np.maximum(x, 0.0))
    minus = TMeasure(mu.space, *np.maximum(-x, 0.0))
    return JordanPair(mu_plus=plus, mu_minus=minus)


def certify_jordan(mu: TMeasure, pair: JordanPair) -> dict[str, bool]:
    """Verdicts ``jordan_difference`` (mu_plus - mu_minus = mu) and
    ``jordan_variation`` (mu_plus + mu_minus = |mu|_D), atomwise and
    exact: at every atom one of the parts is zero."""
    return {
        "jordan_difference": (pair.mu_plus - pair.mu_minus).equal_exact(mu),
        "jordan_variation": (pair.mu_plus + pair.mu_minus).equal_exact(
            variation_measure(mu)
        ),
    }


def polar_density(mu: TMeasure) -> TFunction:
    """The unimodular density h with mu(E) = integral of h d|mu|_D.

    h(x) is the atom mass divided by its modulus, componentwise, with
    the convention h-component = 1 where the mass vanishes. For real
    masses the values are exactly +1 or -1. It is the polar factor of
    the masses read as a function.
    """
    return TFunction(mu.space, *mu.c).polar_factor()


def certify_polar(table: AtomTable, h: TFunction) -> dict[str, bool]:
    """Verdicts ``polar_unimodular`` (|h|_D = 1) and ``polar_reconstruction``
    (h * |x|_D = x), atomwise, for a measure and its polar density or a
    function and its polar factor. Each atom is compared within a
    rounding bound scaled by its modulus, plus the subnormal floor."""
    table._check_space(h)
    x, hx = table.c, h.c
    return {
        "polar_unimodular": _close(np.abs(hx), 1.0, 1, 1.0, 1),
        "polar_reconstruction": _close(hx * np.abs(x), x, 1, np.abs(x), 1),
    }


@dataclass(frozen=True)
class HahnPartition:
    """Four disjoint sets covering X, classified by the polar density.

    h = e1+e2 on A, -e1-e2 on B, e1-e2 on C, -e1+e2 on D. Zero-mass
    atoms have h = e1+e2 by convention and land in A.
    """

    A: SetMask
    B: SetMask
    C: SetMask
    D: SetMask


def hahn(mu: TMeasure) -> HahnPartition:
    """Hahn partition of a signed D-measure, in O(n) atoms.

    Classifies every atom by the signs of the polar density. The two
    formulas tying the cells to the Jordan parts are certified
    separately, on every subset, by ``certify_hahn``.

    Raises
    ------
    ValueError
        If the measure is not signed-D.
    InternalInvariantError
        If the polar density fails to be of the (+-1, +-1) form,
        which is impossible for signed-D input.
    """
    _require_signed_d(mu)
    h = polar_density(mu).c
    if not ((h == 1.0) | (h == -1.0)).all():
        raise InternalInvariantError(
            "polar density is not of the (+-1, +-1) form",
            payload={"h_e1": h[0].tolist(), "h_e2": h[1].tolist()},
        )
    pos1, pos2 = h.real > 0
    cells = (pos1 & pos2, ~pos1 & ~pos2, pos1 & ~pos2, ~pos1 & pos2)  # A, B, C, D
    return HahnPartition(*(SetMask(mu.space, flags) for flags in cells))


# A side that overflows is inf, and an infinite mass can make it NaN;
# neither equals a Jordan part, and neither warns.
@np.errstate(over="ignore", invalid="ignore")
def certify_hahn(mu: TMeasure, partition: HahnPartition) -> dict[str, bool]:
    """Verdicts ``hahn_mu_plus`` and ``hahn_mu_minus``: the Hahn formulas
    against the Jordan parts on every subset E,

        mu_plus(E)  = mu(E & A) + e1*|mu(E & C)|_D + e2*|mu(E & D)|_D
        mu_minus(E) = -mu(E & B) - mu(E & C) - mu(E & D)
                      + e1*|mu(E & C)|_D + e2*|mu(E & D)|_D

    exactly, with no sums and no cap, in O(n) at any size.

    Sign test: if component e1 keeps one sign on C and e2 one sign on D,
    the modulus terms are additive, and so is each formula; a formula
    then holds on every E iff it holds on every atom. If e1 takes both
    strict signs on C (or e2 on D), the modulus of two such atoms' sum is
    below the sum of their moduli, so both formulas fail on that pair or
    on one of its atoms, and both verdicts are False.

    Atom test: at an atom of mass x each side is, per component, a sum
    of the terms +-x and |x| that its cells select, in the formula's
    order, so every partial sum is an integer multiple of x. Where the
    side equals the Jordan part (x, -x or 0 there), every partial sum is
    0, +-x or +-2x, which are exact. A side that rounds or overflows
    passes through +-3x, or +-2x past the float range, and ends at least
    |x| away from the part, or at inf: it never matches. So the
    comparison is exact at every scale, subnormal masses included.

    Raises
    ------
    ValueError
        If the measure is not signed-D or a cell is of another space.
    """
    x = _require_signed_d(mu)
    cells = (partition.A, partition.B, partition.C, partition.D)
    for cell in cells:
        cell.check_space(mu.space)
    a, b, c, d = (cell.member for cell in cells)
    # Component e1 takes its modulus on C, e2 on D.
    moduli = np.array((c, d))
    signs_ok = not ((moduli & (x > 0)).any(axis=1) & (moduli & (x < 0)).any(axis=1)).any()
    mixed = np.abs(np.where(moduli, x, 0.0))
    plus = mixed + np.where(a, x, 0.0)
    minus = np.where(b, -x, 0.0) - np.where(c, x, 0.0) - np.where(d, x, 0.0) + mixed
    jp = jordan(mu)
    return {
        "hahn_mu_plus": signs_ok and bool((plus == jp.mu_plus.c.real).all()),
        "hahn_mu_minus": signs_ok and bool((minus == jp.mu_minus.c.real).all()),
    }


def is_concentrated(lam: TMeasure, a: SetMask) -> bool:
    """True iff every atom outside ``a`` has zero mass in both components."""
    a.check_space(lam.space)
    return lam.support_mask().is_subset_of(a)


def mutually_singular(a: TMeasure, b: TMeasure) -> bool:
    """Componentwise mutual singularity.

    On an atomic space this holds iff, for each component index, no
    atom carries nonzero mass of both measures at once; the splitting
    of X is then the support of ``a`` against its complement.
    """
    a._check_space(b)
    return not ((a.c != 0) & (b.c != 0)).any()


def abs_continuous(lam: TMeasure, mu: TMeasure) -> bool:
    """Componentwise absolute continuity of lam with respect to mu.

    True iff for each component i, every mu_i-null atom is lam_i-null.

    Raises
    ------
    ValueError
        On space mismatch or a non-D reference measure.
    """
    lam._check_space(mu)
    if not mu.is_d_measure():
        raise ValueError("reference measure must be a D-measure")
    return bool((lam.c[mu.c.real == 0.0] == 0).all())


def check_lattice_properties(
    lam: TMeasure, lam_p: TMeasure, lam_pp: TMeasure, mu: TMeasure
) -> dict[str, bool | None]:
    """Verdicts on the seven modulus/continuity/singularity implications.

    Each verdict is None when its hypothesis is false (vacuous; the
    conclusion is not computed), else whether its conclusion holds:

    a) ``concentration_to_modulus``: lam concentrated on A implies
       |lam|_D concentrated on A, for every A; checked at once as
       support(|lam|_D) inside support(lam), so it is never None.
    b) ``singularity_to_moduli``: lam_p and lam_pp mutually singular
       implies their moduli are.
    c) ``singular_sum_closed``: lam_p and lam_pp both singular to mu
       implies their sum is.
    d) ``abs_continuous_sum_closed``: lam_p and lam_pp both absolutely
       continuous w.r.t. mu implies their sum is.
    e) ``abs_continuity_to_modulus``: lam absolutely continuous w.r.t.
       mu implies |lam|_D is.
    f) ``ac_and_singular_are_singular``: lam_p absolutely continuous and
       lam_pp singular w.r.t. mu implies lam_p and lam_pp are mutually
       singular.
    g) ``ac_and_singular_is_zero``: lam both absolutely continuous and
       singular w.r.t. mu implies lam = 0.

    Raises
    ------
    ValueError
        On space mismatch or a non-D reference measure.
    """
    for m in (lam_p, lam_pp):
        lam._check_space(m)
    var_lam = variation_measure(lam)
    ac, ac_p, ac_pp = (abs_continuous(m, mu) for m in (lam, lam_p, lam_pp))
    sing, sing_p, sing_pp = (mutually_singular(m, mu) for m in (lam, lam_p, lam_pp))
    apart = mutually_singular(lam_p, lam_pp)
    return {
        "concentration_to_modulus": is_concentrated(var_lam, lam.support_mask()),
        "singularity_to_moduli": (
            mutually_singular(*map(variation_measure, (lam_p, lam_pp))) if apart else None
        ),
        "singular_sum_closed": (
            mutually_singular(lam_p + lam_pp, mu) if sing_p and sing_pp else None
        ),
        "abs_continuous_sum_closed": abs_continuous(lam_p + lam_pp, mu) if ac_p and ac_pp else None,
        "abs_continuity_to_modulus": abs_continuous(var_lam, mu) if ac else None,
        "ac_and_singular_are_singular": apart if ac_p and sing_pp else None,
        "ac_and_singular_is_zero": bool((lam.c == 0).all()) if ac and sing else None,
    }


@dataclass(frozen=True)
class LRNResult:
    """Lebesgue decomposition with Radon-Nikodym density.

    lambda_ac + lambda_sing = lambda atomwise; lambda_ac is
    absolutely continuous and lambda_sing singular with respect to
    the reference; lambda_ac(E) equals the integral of the density
    over E for every subset.
    """

    lambda_ac: TMeasure
    lambda_sing: TMeasure
    density: TFunction


def lebesgue_radon_nikodym(lam: TMeasure, mu: TMeasure) -> LRNResult:
    """Split lam into parts absolutely continuous and singular to mu.

    Componentwise: the part of lam_i sitting on the support of mu_i
    is absolutely continuous with density lam_i/mu_i; the part on the
    mu_i-null atoms is singular. The pair is unique atomwise;
    ``certify_lrn`` checks its invariants.

    Raises
    ------
    ValueError
        On space mismatch or a non-D reference measure.
    """
    lam._check_space(mu)
    if not mu.is_d_measure():
        raise ValueError("reference measure must be a D-measure")

    x = lam.c
    m = mu.c.real
    supp = m > 0.0
    # Off the support the quotient is discarded. numpy divides through 1 / m,
    # which overflows for a subnormal m: redo such entries part by part (the
    # rest keep numpy's bits); a quotient past the float range stays inf.
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        h = np.where(supp, x / np.where(supp, m, 1.0), 0.0)
        redo = ~np.isfinite(h)
        h.real[redo] = x.real[redo] / m[redo]
        h.imag[redo] = x.imag[redo] / m[redo]
    return LRNResult(
        lambda_ac=TMeasure(lam.space, *np.where(supp, x, 0.0)),
        lambda_sing=TMeasure(lam.space, *np.where(supp, 0.0, x)),
        density=TFunction(lam.space, *h),
    )


def certify_lrn(lam: TMeasure, mu: TMeasure, result: LRNResult) -> dict[str, bool]:
    """Verdicts ``lrn_sum``, ``lrn_abs_continuous``, ``lrn_singular`` and
    ``lrn_density`` for a Lebesgue decomposition of lam against mu.

    The first three are exact and together make the pair the (atomwise
    unique) decomposition: ac + sing = lam, ac absolutely continuous and
    sing singular with respect to mu. The last compares density * mu with
    ac atomwise, within a rounding bound scaled by |lam|_D and a floor
    of 1 + mu: the density is rounded before it is multiplied by mu.

    Raises
    ------
    ValueError
        On space mismatch or a non-D reference measure.
    """
    ac, sing, density = result.lambda_ac, result.lambda_sing, result.density
    for other in (mu, ac, density):
        lam._check_space(other)
    return {
        "lrn_sum": (ac + sing).equal_exact(lam),
        "lrn_abs_continuous": abs_continuous(ac, mu),
        "lrn_singular": mutually_singular(sing, mu),
        "lrn_density": _close(density.c * mu.c.real, ac.c, 1, np.abs(lam.c), 1 + mu.c.real),
    }


def epsilon_delta_witness(
    lam: TMeasure, mu: TMeasure, epsilon: Hyperbolic
) -> Hyperbolic | None:
    """A delta certifying the epsilon-delta form of continuity.

    Returns a strictly positive delta such that every subset E with
    |mu(E)|_D strictly below delta has |lam(E)|_D strictly below
    epsilon, or None when lam is not absolutely continuous with
    respect to mu (then no delta can work: a mu-null set carries lam
    mass).

    Per component, delta_i is half the smallest positive mu_i atom mass,
    or 1 when mu_i has none, in O(n) at any size. Under the
    component-lenient order mu_i(E) may equal delta_i, and halving keeps
    E clear of every atom of positive mu_i mass: an ascending sum of
    D+ masses is at least each of them. So E holds only mu_i-null atoms,
    and under absolute continuity lam_i(E) = 0 < epsilon_i.

    Raises
    ------
    ValueError
        If epsilon is not strictly positive in both components, or the
        smallest positive mu_i mass is the smallest subnormal (5e-324):
        its half rounds to 0, and no positive float lies below it.
    """
    if not (epsilon.e1 > 0.0 and epsilon.e2 > 0.0):
        raise ValueError("epsilon must be strictly positive in both components")
    lam._check_space(mu)
    if not abs_continuous(lam, mu):
        return None
    m = mu.c.real
    smallest = m.min(axis=1, where=m > 0.0, initial=np.inf)
    delta = np.where(smallest == np.inf, 1.0, smallest / 2.0)
    if (delta == 0.0).any():
        raise ValueError("no positive delta: the smallest reference mass is 5e-324")
    return Hyperbolic(*delta.tolist())


@dataclass(frozen=True)
class TvOfIndefinite:
    """Total variation of an indefinite integral against the integral
    of the integrand's modulus."""

    tv: Hyperbolic
    integral_of_modulus: Hyperbolic
    equal: bool


def tv_of_indefinite_integral(g: TFunction, mu: TMeasure, e: SetMask) -> TvOfIndefinite:
    """Check |lambda|_D(E) = integral of |g|_D over E, for lambda the
    indefinite integral of g against mu.

    Both sides are computed independently (total variation of the
    product measure against the integral of the modulus) and compared
    within the certifiers' bound (``_close``), whose floor counts mu(E)
    more: |g|_D is rounded before it is multiplied by the masses.
    """
    lam = indefinite_integral(g, mu)
    tv = lam.total_variation(e)
    iom_bc = integrate(g.d_modulus(), mu, e)
    iom = Hyperbolic(iom_bc.e1.real, iom_bc.e2.real)
    got, want = np.array([[tv.e1, tv.e2], [iom.e1, iom.e2]])
    n = mu.space.size
    equal = _close(got, want, n, want, n + _masked_sum(mu.c.real, e))
    return TvOfIndefinite(tv=tv, integral_of_modulus=iom, equal=equal)
