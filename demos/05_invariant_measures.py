"""
Push-forward dynamics and invariant measures by averaging
=========================================================

Transporting probabilities along a point map, finding an invariant
measure as a Cesaro limit, and confirming it lies in the hull of the
brute-force cycle basis.
"""

import numpy as np

from hypmeasure import (
    Bicomplex,
    FiniteSpace,
    PointMap,
    TFunction,
    TMeasure,
    cesaro_invariant,
    change_of_variables_check,
    in_invariant_hull,
    invariant_basis_bruteforce,
    is_invariant,
    pushforward,
)

# A map with one 2-cycle {a, b} and a transient tail c -> a.
space = FiniteSpace(("a", "b", "c"))
f = PointMap.from_labels(space, {"a": "b", "b": "a", "c": "a"})
print("map:", f)

# Push-forward moves each atom's mass to its image and preserves the
# total mass.
mu0 = TMeasure.from_atoms(space, {"c": Bicomplex(1, 1)})
nu = pushforward(f, mu0)
print("delta_c pushed once lands on:", [l for l in nu.space.atoms if nu.atom(space.index_of(l)) != Bicomplex.zero()])

# Change of variables: integrating against the push-forward equals
# integrating the pulled-back function, exactly on these inputs.
phi = TFunction.from_atoms(
    space, {"a": Bicomplex(2, 1), "b": Bicomplex(-1, 3), "c": Bicomplex(0, -2)}
)
cov = change_of_variables_check(f, nu, phi)
print("change of variables:", cov.lhs, "==", cov.rhs, "->", cov.equal)
assert cov.equal

# Cesaro averaging: advance past the transient tail, then average the
# orbit. On the 2-cycle the running mean becomes exactly invariant.
trace = cesaro_invariant(f, mu0, max_iter=100, tol=1e-12)
limit = trace.limit
print("burn-in:", trace.burn_in, " iterations:", len(trace.gaps),
      " converged:", trace.converged)
print("limit masses:", [str(limit.atom(i)) for i in range(space.size)])
assert trace.converged
assert is_invariant(f, limit)

# The extremal invariant measures are the uniform distributions on
# the cycles; every Cesaro limit is a componentwise mixture of them.
basis = invariant_basis_bruteforce(f)
print("basis size:", len(basis))
assert len(basis) == 1
assert in_invariant_hull(f, limit)
assert np.allclose(basis[0].e1.real, [0.5, 0.5, 0.0])

print("\ninvariant measure found and certified")
