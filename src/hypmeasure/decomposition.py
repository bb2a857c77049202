"""Decompositions of T-measures on finite atomic spaces.

Everything here is computed atomwise: the Jordan positive and negative
parts, the polar density against the total variation, the four-set
Hahn partition, and the Lebesgue decomposition with its Radon-Nikodym
density as a ratio of atom masses. Atomic spaces make the classical
existence proofs constructive and exact.

Constructions are O(n) at any size. Each has one certifier, ``certify_*``,
with named verdicts (True, False, or None when not run): Jordan, polar
and LRN atomwise, the Hahn formulas on every subset up to 20 atoms.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InternalInvariantError
from .integration import TFunction, indefinite_integral, integrate
from .measures import (
    SUBSET_CAP,
    AtomTable,
    MeasureKind,
    TMeasure,
    subset_sums,
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
    "LatticeReport",
    "check_lattice_properties",
    "LRNResult",
    "lebesgue_radon_nikodym",
    "epsilon_delta_witness",
    "TvOfIndefinite",
    "tv_of_indefinite_integral",
]


# A sum of n terms in ascending order is off by at most (n - 1)*u*sum|x|,
# u = eps/2. A checked identity compares two such sums, with at most
# three more roundings on one side (the Hahn cell combination; atomwise,
# a division and a product): (2n + 1)*u*sum|x| in all. So c = 4 in the
# bound tol + c*n*eps*sum|x| covers every n >= 1, with room for
# second-order terms and for the rounding of sum|x| itself.
_ROUNDING = 4.0 * float(np.finfo(np.float64).eps)


def _close(got, want, scale, tol: float) -> bool:
    """Whether |got - want| <= tol + 4*eps*scale, with scale = n*sum|x|."""
    return bool((np.abs(got - want) <= tol + _ROUNDING * scale).all())


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


def certify_polar(
    table: AtomTable, h: TFunction, tol: float = 1e-12
) -> dict[str, bool]:
    """Verdicts ``polar_unimodular`` (|h|_D = 1) and ``polar_reconstruction``
    (h * |x|_D = x), atomwise, for a measure and its polar density or a
    function and its polar factor. Each atom is compared within ``tol``
    plus a rounding bound scaled by its modulus."""
    table._check_space(h)
    x, hx = table.c, h.c
    return {
        "polar_unimodular": _close(np.abs(hx), 1.0, 1.0, tol),
        "polar_reconstruction": _close(hx * np.abs(x), x, np.abs(x), tol),
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
    return HahnPartition(
        *(mu.space.subset_of_indices(np.flatnonzero(flags)) for flags in cells)
    )


def certify_hahn(
    mu: TMeasure, partition: HahnPartition, tol: float = 1e-12
) -> dict[str, bool | None]:
    """Verdicts ``hahn_mu_plus`` and ``hahn_mu_minus``: the Hahn formulas
    against the Jordan parts on every subset E,

        mu_plus(E)  = mu(E & A) + e1*|mu(E & C)|_D + e2*|mu(E & D)|_D
        mu_minus(E) = -mu(E & B) - mu(E & C) - mu(E & D)
                      + e1*|mu(E & C)|_D + e2*|mu(E & D)|_D

    within ``tol`` plus a rounding bound scaled by |mu|_D(E). Above the
    20-atom subset cap both verdicts are None (not run).

    Raises
    ------
    ValueError
        If the measure is not signed-D or a cell is of another space.
    """
    x = _require_signed_d(mu)
    cells = (partition.A, partition.B, partition.C, partition.D)
    for cell in cells:
        mu._check_mask(cell)
    n = mu.space.size
    if n > SUBSET_CAP:
        return {"hahn_mu_plus": None, "hahn_mu_minus": None}
    inside = np.zeros((4, n))
    for row, cell in zip(inside, cells):
        row[list(cell.indices())] = 1.0
    jp = jordan(mu)
    plus_ok = minus_ok = True
    # Component e1 takes its modulus on C, component e2 on D. One
    # component and one 2**n array per cell at a time: at 20 atoms, one
    # (2, 4, 2**n) or (4, 2**n) block of sums raises the peak RSS.
    for x_i, p, m, mixed_cell in zip(
        x, jp.mu_plus.c.real, jp.mu_minus.c.real, (2, 3)
    ):
        a, b, c, d = sums = [subset_sums(x_i * flags) for flags in inside]
        mixed = np.abs(sums[mixed_cell])
        plus, minus = subset_sums(p), subset_sums(m)
        scale = n * (plus + minus)
        plus_ok = plus_ok and _close(a + mixed, plus, scale, tol)
        minus_ok = minus_ok and _close(-b - c - d + mixed, minus, scale, tol)
    return {"hahn_mu_plus": plus_ok, "hahn_mu_minus": minus_ok}


def is_concentrated(lam: TMeasure, a: SetMask) -> bool:
    """True iff every atom outside ``a`` has zero mass in both components."""
    lam._check_mask(a)
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


@dataclass(frozen=True)
class LatticeReport:
    """Seven checked implications tying moduli, concentration,
    absolute continuity and singularity together.

    Each field is the truth value of one implication evaluated on the
    supplied measures; an implication with a false hypothesis counts
    as true.
    """

    concentration_to_modulus: bool
    singularity_to_moduli: bool
    singular_sum_closed: bool
    abs_continuous_sum_closed: bool
    abs_continuity_to_modulus: bool
    ac_and_singular_are_singular: bool
    ac_and_singular_is_zero: bool

    def all_hold(self) -> bool:
        return (
            self.concentration_to_modulus
            and self.singularity_to_moduli
            and self.singular_sum_closed
            and self.abs_continuous_sum_closed
            and self.abs_continuity_to_modulus
            and self.ac_and_singular_are_singular
            and self.ac_and_singular_is_zero
        )


def _implies(hypothesis: bool, conclusion: bool) -> bool:
    return (not hypothesis) or conclusion


def check_lattice_properties(
    lam: TMeasure, lam_p: TMeasure, lam_pp: TMeasure, mu: TMeasure
) -> LatticeReport:
    """Evaluate the seven modulus/continuity/singularity implications.

    a) lam concentrated on A implies |lam|_D concentrated on A, for
       every A; equivalent to support(|lam|_D) being inside
       support(lam), which is checked directly.
    b) lam_p and lam_pp mutually singular implies their moduli are.
    c) lam_p and lam_pp both singular to mu implies their sum is.
    d) lam_p and lam_pp both absolutely continuous w.r.t. mu implies
       their sum is.
    e) lam absolutely continuous w.r.t. mu implies |lam|_D is.
    f) lam_p absolutely continuous and lam_pp singular w.r.t. mu
       implies lam_p and lam_pp are mutually singular.
    g) lam both absolutely continuous and singular w.r.t. mu implies
       lam = 0.

    Raises
    ------
    ValueError
        On space mismatch or a non-D reference measure.
    """
    for m in (lam_p, lam_pp):
        lam._check_space(m)

    var_lam = variation_measure(lam)
    # a) supports of a measure and its modulus coincide atomwise, so
    # concentration transfers for every A at once.
    a_ok = is_concentrated(var_lam, lam.support_mask())

    b_ok = _implies(
        mutually_singular(lam_p, lam_pp),
        mutually_singular(variation_measure(lam_p), variation_measure(lam_pp)),
    )
    c_ok = _implies(
        mutually_singular(lam_p, mu) and mutually_singular(lam_pp, mu),
        mutually_singular(lam_p + lam_pp, mu),
    )
    d_ok = _implies(
        abs_continuous(lam_p, mu) and abs_continuous(lam_pp, mu),
        abs_continuous(lam_p + lam_pp, mu),
    )
    e_ok = _implies(abs_continuous(lam, mu), abs_continuous(var_lam, mu))
    f_ok = _implies(
        abs_continuous(lam_p, mu) and mutually_singular(lam_pp, mu),
        mutually_singular(lam_p, lam_pp),
    )
    g_ok = _implies(
        abs_continuous(lam, mu) and mutually_singular(lam, mu),
        bool((lam.c == 0).all()),
    )
    return LatticeReport(
        concentration_to_modulus=bool(a_ok),
        singularity_to_moduli=b_ok,
        singular_sum_closed=c_ok,
        abs_continuous_sum_closed=d_ok,
        abs_continuity_to_modulus=e_ok,
        ac_and_singular_are_singular=f_ok,
        ac_and_singular_is_zero=g_ok,
    )


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
    # Off the support the quotient is discarded; on it, a tiny reference
    # mass can overflow it to inf, which the density then reports.
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        h = np.where(supp, x / np.where(supp, m, 1.0), 0.0)
    return LRNResult(
        lambda_ac=TMeasure(lam.space, *np.where(supp, x, 0.0)),
        lambda_sing=TMeasure(lam.space, *np.where(supp, 0.0, x)),
        density=TFunction(lam.space, *h),
    )


def certify_lrn(
    lam: TMeasure, mu: TMeasure, result: LRNResult, tol: float = 1e-12
) -> dict[str, bool]:
    """Verdicts ``lrn_sum``, ``lrn_abs_continuous``, ``lrn_singular`` and
    ``lrn_density`` for a Lebesgue decomposition of lam against mu.

    The first three are exact and together make the pair the (atomwise
    unique) decomposition: ac + sing = lam, ac absolutely continuous and
    sing singular with respect to mu. The last compares density * mu with
    ac atomwise, within ``tol`` plus a rounding bound scaled by |lam|_D.

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
        "lrn_density": _close(density.c * mu.c.real, ac.c, np.abs(lam.c), tol),
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

    The constructive choice takes, per component, half the smallest
    mu_i(E) among subsets with |lam_i(E)| >= epsilon_i; halving keeps
    the guarantee strict under the component-lenient order. Components
    with no offending subset get delta_i = 1.

    Raises
    ------
    ValueError
        If epsilon is not strictly positive in both components, or
        the space exceeds the subset-enumeration cap.
    """
    if not (epsilon.e1 > 0.0 and epsilon.e2 > 0.0):
        raise ValueError("epsilon must be strictly positive in both components")
    lam._check_space(mu)
    if lam.space.size > SUBSET_CAP:
        raise ValueError(f"space too large for subset enumeration (> {SUBSET_CAP})")
    if not abs_continuous(lam, mu):
        return None

    deltas = []
    for lam_sums, mu_sums, eps_i in zip(
        np.abs(subset_sums(lam.c)),
        subset_sums(mu.c.real),
        (epsilon.e1, epsilon.e2),
    ):
        offending = mu_sums[lam_sums >= eps_i]
        if offending.size == 0:
            deltas.append(1.0)
            continue
        smallest = float(np.min(offending))
        if smallest <= 0.0:
            # An offending subset with zero mu-mass contradicts
            # absolute continuity on a finite space.
            raise InternalInvariantError(
                "offending subset with zero reference mass",
                payload={"epsilon": [epsilon.e1, epsilon.e2]},
            )
        deltas.append(smallest / 2.0)
    return Hyperbolic(deltas[0], deltas[1])


@dataclass(frozen=True)
class TvOfIndefinite:
    """Total variation of an indefinite integral against the integral
    of the integrand's modulus."""

    tv: Hyperbolic
    integral_of_modulus: Hyperbolic
    equal: bool


def tv_of_indefinite_integral(
    g: TFunction, mu: TMeasure, e: SetMask, tol: float = 1e-12
) -> TvOfIndefinite:
    """Check |lambda|_D(E) = integral of |g|_D over E, for lambda the
    indefinite integral of g against mu.

    Both sides are computed independently (total variation of the
    product measure against the integral of the modulus) and compared
    within ``tol``.
    """
    lam = indefinite_integral(g, mu)
    tv = lam.total_variation(e)
    iom_bc = integrate(g.d_modulus(), mu, e)
    iom = Hyperbolic(iom_bc.e1.real, iom_bc.e2.real)
    equal = abs(tv.e1 - iom.e1) <= tol and abs(tv.e2 - iom.e2) <= tol
    return TvOfIndefinite(tv=tv, integral_of_modulus=iom, equal=equal)
