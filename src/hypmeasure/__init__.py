"""Constructive bicomplex and hyperbolic measure theory on finite spaces.

The package models measures whose values live in the bicomplex ring
(or its hyperbolic subring), everything stored as atom-indexed tables:
arithmetic and the partial order on the scalars, measures with total
variation, Lebesgue-style integration with a dominated-convergence
harness, the classical decompositions (Jordan, Hahn, polar,
Lebesgue/Radon-Nikodym) in exact atomwise form, push-forward dynamics
with invariant-measure search, and a seeded verification suite runner
behind both a Python API and a JSON command line.
"""

from types import ModuleType as _ModuleType

from .codec import (
    bicomplex_to_obj,
    dumps_canonical,
    function_to_obj,
    hyperbolic_to_obj,
    map_to_obj,
    mask_to_obj,
    measure_to_obj,
    parse_bicomplex,
    parse_function,
    parse_hyperbolic,
    parse_map,
    parse_mask,
    parse_measure,
    parse_space,
    space_to_obj,
)
from .decomposition import (
    HahnPartition,
    JordanPair,
    LRNResult,
    TvOfIndefinite,
    abs_continuous,
    certify_hahn,
    certify_jordan,
    certify_lrn,
    certify_polar,
    check_lattice_properties,
    epsilon_delta_witness,
    hahn,
    is_concentrated,
    jordan,
    lebesgue_radon_nikodym,
    mutually_singular,
    polar_density,
    tv_of_indefinite_integral,
)
from .dynamics import (
    CesaroTrace,
    CovCheck,
    PointMap,
    cesaro_invariant,
    change_of_variables_check,
    continuity_probe,
    convex_combine,
    in_invariant_hull,
    invariant_basis_bruteforce,
    is_invariant,
    pushforward,
    pushforward_iter,
)
from .errors import InternalInvariantError, NotIntegrableError, SchemaError
from .integration import (
    DCTReport,
    ModulusCheck,
    TFunction,
    check_linearity,
    check_modulus_inequality,
    dct_run,
    in_l1,
    indefinite_integral,
    integrate,
    unimodular_factor,
)
from .measures import (
    MeasureKind,
    TMeasure,
    dominates,
    normalize_to_probability,
    probability_variant,
    subset_sums,
    total_variation_bruteforce,
    variation_measure,
)
from .numbers import (
    E1,
    E2,
    J,
    ONE,
    ZERO,
    Bicomplex,
    Hyperbolic,
    Order,
    SeriesWitness,
    check_convergence,
    check_series,
    compare_d,
    leq_d,
    lt_d,
    sup_d,
)
from .spaces import FiniteSpace, SetMask, all_subsets, set_partitions
from .verify import SuiteResult, VerifyReport, run_suite, run_verify, suite_names

__version__ = "0.1.0"

# The public names are the ones imported above, listed once.
__all__ = sorted(
    name
    for name, value in globals().items()
    if not name.startswith("_") and not isinstance(value, _ModuleType)
)
