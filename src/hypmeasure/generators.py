"""Seeded random instances for tests, the verifier and the CLI.

All generators draw from a caller-supplied ``numpy.random.Generator``,
so a seed fully determines every instance. Three value modes exist:

* ``"float"``: components uniform on [-5, 5] (measures) or [-3, 3]
  (functions), with independent imaginary parts where complex values
  are wanted; mixed signs appear atomwise with probability 1/2 per
  component pair.
* ``"integer"``: integer components in [-9, 9]; sums and
  decompositions of such instances are exact in double precision.
* ``"dyadic"``: multiples of 1/64; products against small integers
  and convex combinations stay exact.
"""

from __future__ import annotations

import numpy as np
from numpy.random import Generator

from .dynamics import PointMap
from .integration import TFunction
from .measures import TMeasure
from .spaces import FiniteSpace

__all__ = [
    "make_space",
    "gen_t_measure",
    "gen_d_measure",
    "gen_signed_measure",
    "gen_d_probability",
    "gen_function",
    "gen_map",
    "gen_map_with_small_cycles",
    "gen_interval_map_discretization",
    "gen_dct_instance",
]

DYADIC = 64
# Chance that gen_d_measure zeroes a component mass.
ZERO_PROB = 0.25
# Longest cycle gen_map_with_small_cycles builds.
MAX_CYCLE = 6
# Label prefix of gen_interval_map_discretization's bins.
BIN_PREFIX = "b"


def make_space(n_atoms: int, prefix: str = "x") -> FiniteSpace:
    """A space with zero-padded labels, so label order = index order."""
    if n_atoms < 1:
        raise ValueError("need at least one atom")
    width = len(str(n_atoms - 1))
    return FiniteSpace(tuple(prefix + str(i).zfill(width) for i in range(n_atoms)))


def _real_values(rng: Generator, n: int, mode: str, bound: float) -> np.ndarray:
    if mode == "integer":
        return rng.integers(-9, 10, size=n).astype(float)
    if mode == "dyadic":
        span = int(bound * DYADIC)
        return rng.integers(-span, span + 1, size=n) / DYADIC
    return rng.uniform(-bound, bound, size=n)


def _complex_values(rng: Generator, n: int, mode: str, bound: float) -> np.ndarray:
    return _real_values(rng, n, mode, bound) + 1j * _real_values(
        rng, n, mode, bound
    )


def gen_t_measure(
    rng: Generator, space: FiniteSpace, mode: str = "float"
) -> TMeasure:
    """A measure with complex component masses."""
    n = space.size
    return TMeasure(
        space, _complex_values(rng, n, mode, 5.0), _complex_values(rng, n, mode, 5.0)
    )


def gen_signed_measure(
    rng: Generator, space: FiniteSpace, mode: str = "float"
) -> TMeasure:
    """A measure with real component masses of either sign."""
    n = space.size
    return TMeasure(
        space, _real_values(rng, n, mode, 5.0), _real_values(rng, n, mode, 5.0)
    )


def gen_d_measure(
    rng: Generator, space: FiniteSpace, mode: str = "float"
) -> TMeasure:
    """A measure with masses in D+.

    Each component mass is zeroed independently with probability
    ``ZERO_PROB`` so that null atoms (the interesting case for
    absolute continuity) appear regularly.
    """
    n = space.size
    u = np.abs(_real_values(rng, n, mode, 5.0))
    v = np.abs(_real_values(rng, n, mode, 5.0))
    u[rng.random(n) < ZERO_PROB] = 0.0
    v[rng.random(n) < ZERO_PROB] = 0.0
    return TMeasure(space, u, v)


def gen_d_probability(
    rng: Generator,
    space: FiniteSpace,
    variant: str = "full",
    dyadic: bool = False,
) -> TMeasure:
    """A D-probability with total mass e1+e2 (``"full"``), e1 or e2.

    Dyadic mode distributes 64 equal quanta per component
    (multinomially), so masses are multiples of 1/64 and the total is
    exactly 1.
    """
    if variant not in ("full", "e1", "e2"):
        raise ValueError("variant must be full, e1 or e2")
    n = space.size

    def component() -> np.ndarray:
        if dyadic:
            probs = np.full(n, 1.0 / n)
            return rng.multinomial(DYADIC, probs) / DYADIC
        w = rng.random(n)
        return w / w.sum()

    zeros = np.zeros(n)
    u = component() if variant in ("full", "e1") else zeros
    v = component() if variant in ("full", "e2") else zeros.copy()
    return TMeasure(space, u, v)


def gen_function(rng: Generator, space: FiniteSpace, mode: str = "float") -> TFunction:
    """A function table with complex bicomplex values."""
    n = space.size
    return TFunction(
        space, _complex_values(rng, n, mode, 3.0), _complex_values(rng, n, mode, 3.0)
    )


def gen_map(rng: Generator, space: FiniteSpace) -> PointMap:
    """A uniformly random total self-map."""
    return PointMap(space, rng.integers(0, space.size, size=space.size))


def gen_map_with_small_cycles(rng: Generator, space: FiniteSpace) -> PointMap:
    """A self-map whose cycles all have length <= MAX_CYCLE.

    The leading atoms are arranged into one to three short cycles and
    every later atom points to a strictly earlier one, so no further
    cycles can form and the least common period stays small. Useful
    when averaging runs must converge within a modest iteration
    budget.
    """
    n = space.size
    image = np.zeros(n, dtype=np.int64)
    n_cycles = int(rng.integers(1, 4))
    lengths = []
    used = 0
    for _ in range(n_cycles):
        remaining = n - used
        if remaining == 0:
            break
        length = int(rng.integers(1, min(MAX_CYCLE, remaining) + 1))
        lengths.append(length)
        used += length
    pos = 0
    for length in lengths:
        for k in range(length):
            image[pos + k] = pos + (k + 1) % length
        pos += length
    for i in range(pos, n):
        image[i] = int(rng.integers(0, i))
    return PointMap(space, image)


def gen_interval_map_discretization(
    bins: int, breakpoints: "list[tuple[float, float]] | None" = None
) -> tuple[FiniteSpace, PointMap]:
    """Discretize a piecewise-linear self-map of [0, 1] onto bins.

    The unit interval splits into ``bins`` equal cells; each cell is
    represented by its midpoint, the map value at the midpoint is
    linearly interpolated between the breakpoints, and the image cell
    is the one containing that value. Defaults to the tent map. Bin
    labels start with ``BIN_PREFIX``.

    Raises
    ------
    ValueError
        If breakpoints are malformed or leave [0, 1].
    """
    if bins < 1:
        raise ValueError("need at least one bin")
    if breakpoints is None:
        breakpoints = [(0.0, 0.0), (0.5, 1.0), (1.0, 0.0)]
    if len(breakpoints) < 2:
        raise ValueError("need at least two breakpoints")
    xs = np.array([p[0] for p in breakpoints], dtype=float)
    ys = np.array([p[1] for p in breakpoints], dtype=float)
    if np.any(np.diff(xs) <= 0):
        raise ValueError("breakpoint x-values must be strictly increasing")
    if xs[0] != 0.0 or xs[-1] != 1.0:
        raise ValueError("breakpoints must span [0, 1]")
    if np.any(ys < 0.0) or np.any(ys > 1.0):
        raise ValueError("breakpoint values must stay inside [0, 1]")
    space = make_space(bins, prefix=BIN_PREFIX)
    centers = (np.arange(bins) + 0.5) / bins
    values = np.interp(centers, xs, ys)
    targets = np.clip(np.floor(values * bins).astype(np.int64), 0, bins - 1)
    return space, PointMap(space, targets)


def gen_dct_instance(
    rng: Generator, space: FiniteSpace, n_terms: int
) -> tuple[list[TFunction], TFunction, TFunction, TFunction, TMeasure]:
    """A dominated sequence f_n = f + (g/n) * sigma_n.

    The noise factors sigma_n are complex with modulus 0.9 (strictly
    inside the unit disk, keeping the domination check away from
    float ties), g has strictly positive components, and the
    dominator returned is |f|_D + g, which bounds every term. The
    measure gives every atom strictly positive component masses, so
    the integral of g is positive in both components.
    """
    n = space.size
    f = gen_function(rng, space)
    # Each draw of two rows of n is the stream of two draws of n, e1 first.
    g_rows = rng.uniform(0.5, 2.0, size=(2, n))
    g = TFunction(space, *g_rows)
    dominator = TFunction(space, *(np.abs(f.c) + g_rows))
    mu = TMeasure(space, *rng.uniform(0.1, 1.0, size=(2, n)))

    # One draw of the stream that n_terms * 2 draws of n angles would
    # consume, in that order: term by term, e1 before e2.
    theta = rng.uniform(0.0, 2.0 * np.pi, size=(n_terms, 2, n))
    noise = 0.9 * np.exp(1j * theta)
    # Term k is f + (g / k) * noise[k - 1]; one broadcast gives each term's own bits.
    k = np.arange(1.0, n_terms + 1.0)[:, None, None]
    return TFunction._views(space, f.c + (g_rows / k) * noise), f, g, dominator, mu
