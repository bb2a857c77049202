"""Decompositions of T-measures on finite atomic spaces.

Everything here is computed atomwise: the Jordan positive and negative
parts, the polar density against the total variation, the four-set
Hahn partition, and the Lebesgue decomposition with its Radon-Nikodym
density as a ratio of atom masses. Atomic spaces make the classical
existence proofs constructive and exact.

Constructions are O(n) at any size. Certifying the Hahn formulas on
every subset is a separate step, ``hahn_formulas_hold``, capped at 20
atoms.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InternalInvariantError
from .integration import TFunction, indefinite_integral, integrate, unimodular_factor
from .measures import (
    SUBSET_CAP,
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
    "hahn_formulas_hold",
    "is_concentrated",
    "mutually_singular",
    "abs_continuous",
    "LatticeReport",
    "check_lattice_properties",
    "LRNResult",
    "lebesgue_radon_nikodym",
    "lrn_pair_is_valid",
    "epsilon_delta_witness",
    "TvOfIndefinite",
    "tv_of_indefinite_integral",
]


def _require_signed_d(mu: TMeasure) -> tuple[np.ndarray, np.ndarray]:
    if mu.kind is MeasureKind.T:
        raise ValueError("not a signed D-measure")
    return mu.e1.real, mu.e2.real


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
    u, v = _require_signed_d(mu)
    plus = TMeasure(mu.space, np.maximum(u, 0.0), np.maximum(v, 0.0))
    minus = TMeasure(mu.space, np.maximum(-u, 0.0), np.maximum(-v, 0.0))
    return JordanPair(mu_plus=plus, mu_minus=minus)


def polar_density(mu: TMeasure) -> TFunction:
    """The unimodular density h with mu(E) = integral of h d|mu|_D.

    h(x) is the atom mass divided by its modulus, componentwise, with
    the convention h-component = 1 where the mass vanishes. For real
    masses the values are exactly +1 or -1.
    """
    return TFunction(
        mu.space, unimodular_factor(mu.e1), unimodular_factor(mu.e2)
    )


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
    separately, on every subset, by ``hahn_formulas_hold``.

    Raises
    ------
    ValueError
        If the measure is not signed-D.
    InternalInvariantError
        If the polar density fails to be of the (+-1, +-1) form,
        which is impossible for signed-D input.
    """
    _require_signed_d(mu)
    h = polar_density(mu)
    h1 = h.e1.real
    h2 = h.e2.real
    if not (
        np.all(np.abs(h1) == 1.0)
        and np.all(np.abs(h2) == 1.0)
        and np.all(h.e1.imag == 0.0)
        and np.all(h.e2.imag == 0.0)
    ):
        raise InternalInvariantError(
            "polar density is not of the (+-1, +-1) form",
            payload={"h_e1": h.e1.tolist(), "h_e2": h.e2.tolist()},
        )

    pos1 = h1 > 0
    pos2 = h2 > 0
    cells = {
        "A": pos1 & pos2,
        "B": ~pos1 & ~pos2,
        "C": pos1 & ~pos2,
        "D": ~pos1 & pos2,
    }
    return HahnPartition(
        **{
            name: mu.space.subset_of_indices(np.flatnonzero(flags))
            for name, flags in cells.items()
        }
    )


def hahn_formulas_hold(
    mu: TMeasure, partition: HahnPartition, tol: float = 1e-12
) -> tuple[bool, bool]:
    """Subset-exhaustive check of both Hahn formulas, (plus_ok, minus_ok).

    Compares against the Jordan parts, for every subset E of the space:

        mu_plus(E)  = mu(E & A) + e1*|mu(E & C)|_D + e2*|mu(E & D)|_D
        mu_minus(E) = -mu(E & B) - mu(E & C) - mu(E & D)
                      + e1*|mu(E & C)|_D + e2*|mu(E & D)|_D

    Raises
    ------
    ValueError
        If the measure is not signed-D, a cell belongs to another
        space, or the space exceeds the subset-enumeration cap of 20
        atoms.
    """
    u, v = _require_signed_d(mu)
    if mu.space.size > SUBSET_CAP:
        raise ValueError(f"space too large for subset enumeration (> {SUBSET_CAP})")

    def cell_sums(cell: SetMask) -> tuple[np.ndarray, np.ndarray]:
        mu._check_mask(cell)
        inside = np.zeros(mu.space.size)
        inside[list(cell.indices())] = 1.0
        return subset_sums(u * inside), subset_sums(v * inside)

    a1, a2 = cell_sums(partition.A)
    b1, b2 = cell_sums(partition.B)
    c1, c2 = cell_sums(partition.C)
    d1, d2 = cell_sums(partition.D)
    jp = jordan(mu)
    plus1 = subset_sums(jp.mu_plus.e1.real)
    plus2 = subset_sums(jp.mu_plus.e2.real)
    minus1 = subset_sums(jp.mu_minus.e1.real)
    minus2 = subset_sums(jp.mu_minus.e2.real)
    abs_c1 = np.abs(c1)
    abs_d2 = np.abs(d2)

    formula_plus1 = a1 + abs_c1
    formula_plus2 = a2 + abs_d2
    formula_minus1 = -b1 - c1 - d1 + abs_c1
    formula_minus2 = -b2 - c2 - d2 + abs_d2

    plus_ok = bool(
        np.all(np.abs(formula_plus1 - plus1) <= tol)
        and np.all(np.abs(formula_plus2 - plus2) <= tol)
    )
    minus_ok = bool(
        np.all(np.abs(formula_minus1 - minus1) <= tol)
        and np.all(np.abs(formula_minus2 - minus2) <= tol)
    )
    return plus_ok, minus_ok


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
    clash1 = (a.e1 != 0) & (b.e1 != 0)
    clash2 = (a.e2 != 0) & (b.e2 != 0)
    return not bool(np.any(clash1) or np.any(clash2))


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
    null1 = mu.e1.real == 0.0
    null2 = mu.e2.real == 0.0
    return bool(
        np.all(lam.e1[null1] == 0) and np.all(lam.e2[null2] == 0)
    )


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
        bool(np.all(lam.e1 == 0) and np.all(lam.e2 == 0)),
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
    mu_i-null atoms is singular. The pair is unique atomwise; the
    ``lrn`` verify suite and ``decompose`` check its invariants.

    Raises
    ------
    ValueError
        On space mismatch or a non-D reference measure.
    """
    lam._check_space(mu)
    if not mu.is_d_measure():
        raise ValueError("reference measure must be a D-measure")

    m1 = mu.e1.real
    m2 = mu.e2.real
    supp1 = m1 > 0.0
    supp2 = m2 > 0.0
    ac = TMeasure(
        lam.space,
        np.where(supp1, lam.e1, 0.0),
        np.where(supp2, lam.e2, 0.0),
    )
    sing = TMeasure(
        lam.space,
        np.where(supp1, 0.0, lam.e1),
        np.where(supp2, 0.0, lam.e2),
    )
    with np.errstate(divide="ignore", invalid="ignore"):
        h1 = np.where(supp1, lam.e1 / np.where(supp1, m1, 1.0), 0.0)
        h2 = np.where(supp2, lam.e2 / np.where(supp2, m2, 1.0), 0.0)
    density = TFunction(lam.space, h1, h2)

    return LRNResult(lambda_ac=ac, lambda_sing=sing, density=density)


def lrn_pair_is_valid(
    lam: TMeasure, mu: TMeasure, ac: TMeasure, sing: TMeasure
) -> bool:
    """Whether (ac, sing) is a legal Lebesgue decomposition of lam.

    Legal means ac + sing = lam atomwise (exactly), ac absolutely
    continuous and sing singular with respect to mu. Used to verify
    atomwise uniqueness: perturbing a valid pair on any atom breaks
    one of the three conditions.
    """
    return (
        (ac + sing).equal_exact(lam)
        and abs_continuous(ac, mu)
        and mutually_singular(sing, mu)
    )


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
    for lam_comp, mu_comp, eps_i in (
        (lam.e1, mu.e1.real, epsilon.e1),
        (lam.e2, mu.e2.real, epsilon.e2),
    ):
        lam_sums = np.abs(subset_sums(lam_comp))
        mu_sums = subset_sums(mu_comp)
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
