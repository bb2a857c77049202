"""
Jordan, Hahn, polar and Lebesgue decompositions
===============================================

The four structure theorems on one small example each, ending with
the constructive epsilon-delta witness for absolute continuity.
"""

from hypmeasure import (
    Bicomplex,
    FiniteSpace,
    Hyperbolic,
    TMeasure,
    abs_continuous,
    epsilon_delta_witness,
    hahn,
    hahn_formulas_hold,
    jordan,
    lebesgue_radon_nikodym,
    mutually_singular,
    polar_density,
    variation_measure,
)

space = FiniteSpace(("a", "b"))

# Jordan: componentwise positive and negative parts. Difference gives
# the measure back, sum gives its variation, both exactly.
mu = TMeasure.from_atoms(space, {"a": Bicomplex(3, -2), "b": Bicomplex(-1, 4)})
pair = jordan(mu)
print("mu+ (a) =", pair.mu_plus.atom(0), "  mu- (a) =", pair.mu_minus.atom(0))
assert (pair.mu_plus - pair.mu_minus).equal_exact(mu)
assert (pair.mu_plus + pair.mu_minus).equal_exact(variation_measure(mu))

# Hahn: four cells classified by the sign pattern of the polar
# density. Atom a is positive/negative -> cell C; atom b is the
# mirror image -> cell D.
cells = hahn(mu)
print("cells   : A =", cells.A.labels(), " B =", cells.B.labels(),
      " C =", cells.C.labels(), " D =", cells.D.labels())
# Certify both Hahn formulas against the Jordan parts on every subset.
assert hahn_formulas_hold(mu, cells) == (True, True)

# Polar: a unimodular density against the variation measure. For
# real masses the values are literal signs.
h = polar_density(mu)
print("h(a)    =", h.value_at(0), "  h(b) =", h.value_at(1))
assert h.value_at(0) == Bicomplex(1, -1)

# Lebesgue decomposition with a Radon-Nikodym density: the reference
# charges only atom a, so everything on b is singular and the density
# lives on a alone.
ref = TMeasure.from_atoms(space, {"a": Bicomplex(1, 1)})
lam = TMeasure.from_atoms(space, {"a": Bicomplex(2, 3), "b": Bicomplex(5, 0)})
dec = lebesgue_radon_nikodym(lam, ref)
print("ac      =", dec.lambda_ac.atom(0), "on a; singular =", dec.lambda_sing.atom(1), "on b")
print("density =", dec.density.value_at(0), "on a")
assert (dec.lambda_ac + dec.lambda_sing).equal_exact(lam)
assert abs_continuous(dec.lambda_ac, ref)
assert mutually_singular(dec.lambda_sing, ref)
assert dec.density.value_at(0) == Bicomplex(2, 3)

# The epsilon-delta witness is constructive: it scans subset masses
# and returns half the smallest offending reference mass, so the
# implication "mu(E) small => lambda(E) small" can be checked by
# exhaustive enumeration.
delta = epsilon_delta_witness(ref, ref, Hyperbolic(0.5, 0.5))
print("delta   =", delta, "for epsilon = (0.5, 0.5)")
assert delta == Hyperbolic(0.5, 0.5)

print("\nall four decompositions verified")
