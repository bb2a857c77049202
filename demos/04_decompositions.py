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
    certify_hahn,
    certify_jordan,
    certify_lrn,
    certify_polar,
    epsilon_delta_witness,
    hahn,
    jordan,
    lebesgue_radon_nikodym,
    polar_density,
)

space = FiniteSpace(("a", "b"))

# Jordan: componentwise positive and negative parts. Difference gives
# the measure back, sum gives its variation, both exactly.
mu = TMeasure.from_atoms(space, {"a": Bicomplex(3, -2), "b": Bicomplex(-1, 4)})
pair = jordan(mu)
print("mu+ (a) =", pair.mu_plus.atom(0), "  mu- (a) =", pair.mu_minus.atom(0))
assert certify_jordan(mu, pair) == {"jordan_difference": True, "jordan_variation": True}

# Hahn: four cells classified by the sign pattern of the polar
# density. Atom a is positive/negative -> cell C; atom b is the
# mirror image -> cell D.
cells = hahn(mu)
print("cells   : A =", cells.A.labels(), " B =", cells.B.labels(),
      " C =", cells.C.labels(), " D =", cells.D.labels())
# Certify both Hahn formulas against the Jordan parts on every subset.
assert certify_hahn(mu, cells) == {"hahn_mu_plus": True, "hahn_mu_minus": True}

# Polar: a unimodular density against the variation measure. For
# real masses the values are literal signs.
h = polar_density(mu)
print("h(a)    =", h.value_at(0), "  h(b) =", h.value_at(1))
assert h.value_at(0) == Bicomplex(1, -1)
assert all(certify_polar(mu, h).values())

# Lebesgue decomposition with a Radon-Nikodym density: the reference
# charges only atom a, so everything on b is singular and the density
# lives on a alone.
ref = TMeasure.from_atoms(space, {"a": Bicomplex(1, 1)})
lam = TMeasure.from_atoms(space, {"a": Bicomplex(2, 3), "b": Bicomplex(5, 0)})
dec = lebesgue_radon_nikodym(lam, ref)
print("ac      =", dec.lambda_ac.atom(0), "on a; singular =", dec.lambda_sing.atom(1), "on b")
print("density =", dec.density.value_at(0), "on a")
# Sum, absolute continuity, singularity and density, one verdict each.
print("checks  =", certify_lrn(lam, ref, dec))
assert all(certify_lrn(lam, ref, dec).values())
assert dec.density.value_at(0) == Bicomplex(2, 3)

# The epsilon-delta witness is constructive: it scans subset masses
# and returns half the smallest offending reference mass, so the
# implication "mu(E) small => lambda(E) small" can be checked by
# exhaustive enumeration.
delta = epsilon_delta_witness(ref, ref, Hyperbolic(0.5, 0.5))
print("delta   =", delta, "for epsilon = (0.5, 0.5)")
assert delta == Hyperbolic(0.5, 0.5)

print("\nall four decompositions verified")
