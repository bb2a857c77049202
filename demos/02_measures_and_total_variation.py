"""
Measures on finite spaces and the total variation formula
==========================================================

Building measures atom by atom, classifying them, and checking the
closed-form total variation against brute-force enumeration of
measurable partitions.
"""

from hypmeasure import (
    Bicomplex,
    FiniteSpace,
    TMeasure,
    total_variation_bruteforce,
    variation_measure,
)

# A finite measurable space is an ordered tuple of atom labels; every
# subset is measurable and held as a boolean row over the atoms.
space = FiniteSpace(("a", "b", "c"))
print("space:", space.atoms, "with", 2**space.size, "measurable sets")

# Atom masses are bicomplex; omitted atoms carry zero. The kind is
# derived from the data, never declared.
mu = TMeasure.from_atoms(
    space,
    {"a": Bicomplex(3 + 4j, 5), "b": Bicomplex(5, -12j), "c": Bicomplex(-8, 6j)},
)
print("kind:", mu.kind.value)
for i, label in enumerate(space.atoms):
    print(f"  mu({label}) = {mu.atom(i)}")

# The total variation takes one modulus per atom and sums; the
# brute-force route enumerates every partition of the set and keeps
# the supremum. On these Gaussian-integer masses both are exact and
# must agree to the last bit.
e = space.full()
closed = mu.total_variation(e)
brute = total_variation_bruteforce(mu, e)
print("closed form :", closed)
print("brute force :", brute)
assert closed == brute

# Cancellation is the whole point: the raw set value can vanish while
# the variation keeps every atom's contribution.
flip = TMeasure.from_atoms(space, {"a": Bicomplex(1, -1), "b": Bicomplex(-1, 1)})
print("flip(full)  =", flip.of(space.full()))
print("|flip|(full)=", flip.total_variation(space.full()))
assert flip.of(space.full()) == Bicomplex.zero()
assert flip.total_variation(space.full()).e1 == 2.0

# variation_measure packages |mu| as a measure again, and it
# dominates: no subset's modulus exceeds its variation mass.
var = variation_measure(mu)
sub = space.subset_of_labels(["a", "b"])
print("|mu|({a,b}) =", var.of(sub))
print("mu({a,b})   =", mu.of(sub), "with modulus", mu.of(sub).d_modulus())

print("\ntotal variation agrees with enumeration")
