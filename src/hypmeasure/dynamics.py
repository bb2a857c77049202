"""Push-forward dynamics of D-probability measures on finite spaces.

A point map is a total self-map of the atom set. Push-forward moves
atom masses along the map; a measure is invariant when push-forward
fixes it. On a finite space the invariant measures are spanned by
uniform distributions on the cycles of the functional graph, and
Cesaro averages of push-forward orbits converge onto that span.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

from .integration import TFunction, integrate
from .measures import TMeasure, _ascending_sum, _at_most, _close, probability_variant
from .numbers import Bicomplex, Hyperbolic, _lt_d_rows, lt_d
from .spaces import FiniteSpace, SetMask

__all__ = [
    "PointMap",
    "pushforward",
    "pushforward_iter",
    "is_invariant",
    "CovCheck",
    "change_of_variables_check",
    "convex_combine",
    "CesaroTrace",
    "cesaro_invariant",
    "invariant_basis_bruteforce",
    "in_invariant_hull",
    "continuity_probe",
]


class PointMap:
    """A total map from atoms to atoms of one finite space.

    Parameters
    ----------
    space : FiniteSpace
    image : array_like of int
        image[x] is the index the atom x maps to.
    """

    __slots__ = ("space", "image", "_cycle_cache")

    def __init__(self, space: FiniteSpace, image) -> None:
        arr = np.array(image, dtype=np.int64)
        if arr.shape != (space.size,):
            raise ValueError("image must assign one target per atom")
        if arr.size and (arr.min() < 0 or arr.max() >= space.size):
            raise ValueError("image indices out of range")
        arr.setflags(write=False)
        object.__setattr__(self, "space", space)
        object.__setattr__(self, "image", arr)
        object.__setattr__(self, "_cycle_cache", None)

    def __setattr__(self, name, value):
        raise AttributeError("PointMap is immutable")

    @classmethod
    def from_labels(cls, space: FiniteSpace, mapping: Mapping[str, str]) -> "PointMap":
        """Build from a label-to-label mapping; must be total."""
        image = np.empty(space.size, dtype=np.int64)
        seen = np.zeros(space.size, dtype=bool)
        for src, dst in mapping.items():
            i = space.index_of(src)
            image[i] = space.index_of(dst)
            seen[i] = True
        if not seen.all():
            missing = [space.atoms[i] for i in np.flatnonzero(~seen)]
            raise ValueError(f"map is not total; missing {missing}")
        return cls(space, image)

    def apply(self, index: int) -> int:
        return int(self.image[index])

    def preimage(self, a: SetMask) -> SetMask:
        """The exact preimage mask f^{-1}(A)."""
        a.check_space(self.space)
        return SetMask(self.space, a.member[self.image])

    def pullback(self, phi: TFunction) -> TFunction:
        """The composition phi after this map."""
        if phi.space != self.space:
            raise ValueError("function lives on a different space")
        return TFunction(self.space, *phi.c[:, self.image])

    def _cycle_structure(self) -> tuple[np.ndarray, tuple[np.ndarray, ...]]:
        """On-cycle flags and the cycles, computed once per map.

        Each cycle is a read-only index array that starts at its smallest
        member and follows the map; cycles are ordered by that member.
        """
        cached = self._cycle_cache
        if cached is None:
            on_cycle = _cycle_flags(self.image)
            cycles = tuple(
                np.array(c, dtype=np.int64) for c in _cycles(self.image, on_cycle)
            )
            for arr in (on_cycle, *cycles):
                arr.setflags(write=False)
            cached = (on_cycle, cycles)
            object.__setattr__(self, "_cycle_cache", cached)
        return cached

    def __repr__(self) -> str:
        pairs = ", ".join(
            f"{self.space.atoms[i]}->{self.space.atoms[int(self.image[i])]}"
            for i in range(self.space.size)
        )
        return f"PointMap({pairs})"


def _pusher(image: np.ndarray):
    """The push of real (2, n) masses along the map, as a function.

    One bincount over both rows, the e2 row's targets offset by n. It
    adds each atom's incoming masses in ascending source index order,
    which keeps push-forward values bit-reproducible.
    """
    n = len(image)
    targets = np.concatenate((image, image + n))

    def push(m: np.ndarray) -> np.ndarray:
        return np.bincount(targets, weights=m.ravel(), minlength=2 * n).reshape(2, n)

    return push


def _require_same_space(f: PointMap, mu: TMeasure) -> None:
    if f.space != mu.space:
        raise ValueError("map and measure live on different spaces")


def pushforward(f: PointMap, mu: TMeasure) -> TMeasure:
    """Push a D-probability forward: mass of x moves to f(x).

    Componentwise (f_*mu)({y}) sums mu({x}) over the preimage of y;
    the total mass is preserved.

    Raises
    ------
    ValueError
        On space mismatch or when mu is not a D-probability.
    """
    _require_same_space(f, mu)
    probability_variant(mu)
    return TMeasure(f.space, *_pusher(f.image)(mu.c.real))


def pushforward_iter(f: PointMap, mu: TMeasure, i: int) -> TMeasure:
    """The i-fold push-forward, i >= 1.

    Gives the bits of i single pushes; once the tails are empty the time
    no longer grows with i.
    """
    if i < 1:
        raise ValueError("iteration count must be >= 1")
    _require_same_space(f, mu)
    probability_variant(mu)
    push = _pusher(f.image)
    m, pushes = _settle(f, push(mu.c.real), i - 1, push)
    rest = i - 1 - pushes
    if rest:
        # No atom holds -0.0 after a push (a bincount sum starts at
        # +0.0) and every tail atom now holds +0.0, so each further push
        # moves the cycle atoms' values to their images unchanged.
        src = np.flatnonzero(f._cycle_structure()[0])
        out = np.zeros_like(m)
        out[:, _power(f.image, rest)[src]] = m[:, src]
        m = out
    return TMeasure(f.space, *m)


def _settle(f: PointMap, m: np.ndarray, limit: int, push) -> tuple[np.ndarray, int]:
    """Push while an off-cycle atom holds nonzero mass, at most limit times.

    Returns the (2, n) masses and the number of pushes. On non-negative
    masses that number is the longest tail below an atom with nonzero
    mass; -0.0 reads as zero.
    """
    pushes = 0
    if limit < 1:
        return m, pushes
    tail = np.flatnonzero(~f._cycle_structure()[0])
    while pushes < limit and m[:, tail].any():
        m = push(m)
        pushes += 1
    return m, pushes


def _power(image: np.ndarray, r: int) -> np.ndarray:
    """The index array of the r-fold composition of the map, r >= 0."""
    result = np.arange(len(image))
    while r:
        if r & 1:
            result = image[result]
        image = image[image]
        r >>= 1
    return result


def is_invariant(f: PointMap, mu: TMeasure, tol: float) -> bool:
    """Whether f_*mu = mu within tol, atomwise.

    Each atom's mass difference must be strictly below tol*(e1+e2) in
    the component-lenient order; on an atomic space this controls
    every subset up to |X|*tol.

    Raises
    ------
    ValueError
        If tol is not positive.
    """
    if tol <= 0.0:
        raise ValueError("tol must be positive")
    nu = pushforward(f, mu)
    return bool(_lt_d_rows(np.abs(nu.c - mu.c), tol).all())


@dataclass(frozen=True)
class CovCheck:
    """Both sides of the change-of-variables identity."""

    lhs: Bicomplex
    rhs: Bicomplex
    equal: bool


def change_of_variables_check(f: PointMap, mu: TMeasure, phi: TFunction) -> CovCheck:
    """Compare the integral of phi against f_*mu with the integral of
    phi after f against mu.

    Both sides are independent finite sums and agree exactly on
    exactly-representable inputs; ``equal`` allows the rounding bound
    (``_close``) of the n-term sum of |phi after f| * mu.
    """
    _require_same_space(f, mu)
    if phi.space != f.space:
        raise ValueError("function lives on a different space")
    pulled = f.pullback(phi)
    lhs = integrate(phi, pushforward(f, mu))
    rhs = integrate(pulled, mu)
    n = f.space.size
    with np.errstate(over="ignore"):
        total = _ascending_sum(np.abs(pulled.c) * mu.c.real)
    equal = _close(np.array([lhs.e1 - rhs.e1, lhs.e2 - rhs.e2]), 0.0, n, total, n)
    return CovCheck(lhs=lhs, rhs=rhs, equal=equal)


def convex_combine(a: TMeasure, b: TMeasure, t: float) -> TMeasure:
    """t*a + (1-t)*b for two D-probabilities of the same variant.

    Invariance is preserved: if both inputs are invariant under a map
    then so is the combination.

    Raises
    ------
    ValueError
        If t is outside [0,1], spaces differ, or the inputs have
        different total-mass variants.
    """
    if not 0.0 <= t <= 1.0:
        raise ValueError("t must lie in [0, 1]")
    a._check_space(b)
    va = probability_variant(a)
    vb = probability_variant(b)
    if va != vb:
        raise ValueError("mismatched total-mass variants")
    return TMeasure(a.space, *(t * a.c.real + (1.0 - t) * b.c.real))


def _cycle_flags(image: np.ndarray) -> np.ndarray:
    # Every orbit reaches its cycle within n steps and the map permutes
    # each cycle, so the on-cycle atoms are exactly the image of the
    # n-fold map.
    on_cycle = np.zeros(len(image), dtype=bool)
    on_cycle[_power(image, len(image))] = True
    return on_cycle


def _cycles(image: np.ndarray, on_cycle: np.ndarray) -> list[list[int]]:
    """Cycles of the functional graph, ordered by smallest member."""
    step = image.tolist()
    seen = [False] * len(step)
    cycles: list[list[int]] = []
    for start in np.flatnonzero(on_cycle).tolist():
        if seen[start]:
            continue
        cycle = []
        x = start
        while not seen[x]:
            seen[x] = True
            cycle.append(x)
            x = step[x]
        cycles.append(cycle)
    return cycles


@dataclass(frozen=True)
class CesaroTrace:
    """Trace of the averaged push-forward orbit.

    ``gaps[k]`` is the total atomwise D-modulus of the invariance
    defect of the running average over the first k+1 orbit terms, and
    ``limit`` the last of those averages, after ``len(gaps)`` terms.
    ``burn_in`` records how many push-forwards emptied the tails before
    averaging started.
    """

    limit: TMeasure
    gaps: tuple[Hyperbolic, ...]
    converged: bool
    burn_in: int


def cesaro_invariant(
    f: PointMap, mu0: TMeasure, max_iter: int, tol: float
) -> CesaroTrace:
    """Average the push-forward orbit of mu0 until it is invariant.

    First pushes mu0 until no mass is left on the transient tails (the
    literal recurrence started at mu0 has gap (1/n)*|f_*^n mu0 - mu0|,
    which decays only like 1/n while mu0 holds transient mass). Then
    computes running averages mu_n = (1/n) * sum of the first n orbit
    terms and stops once the invariance gap of mu_n falls strictly
    below tol*(e1+e2); with all mass on cycles the gap closes exactly
    at the period of the occupied cycles (up to float roundoff).

    Raises
    ------
    ValueError
        If max_iter < 1, tol <= 0, or mu0 is not a D-probability.
    """
    if max_iter < 1:
        raise ValueError("max_iter must be >= 1")
    if tol <= 0.0:
        raise ValueError("tol must be positive")
    _require_same_space(f, mu0)
    probability_variant(mu0)

    push = _pusher(f.image)
    cur, burn = _settle(f, mu0.c.real, f.space.size, push)

    total = np.zeros_like(cur)
    bound = Hyperbolic(tol, tol)
    gaps: list[Hyperbolic] = []
    converged = False
    for n in range(1, max_iter + 1):
        total += cur
        avg = total / n
        # np.sum of each row, as one reduction along the atom axis.
        gap = Hyperbolic(*np.abs(push(avg) - avg).sum(axis=1).tolist())
        gaps.append(gap)
        if lt_d(gap, bound):
            converged = True
            break
        cur = push(cur)
    return CesaroTrace(
        limit=TMeasure(f.space, *avg),
        gaps=tuple(gaps),
        converged=converged,
        burn_in=burn,
    )


def invariant_basis_bruteforce(f: PointMap) -> list[TMeasure]:
    """Uniform D-probabilities on the cycles of the functional graph.

    These are the extremal invariant measures: every output passes
    is_invariant at tight tolerance, and Cesaro limits lie in their
    componentwise convex hull. Ordered by smallest cycle member.
    """
    basis = []
    for cycle in f._cycle_structure()[1]:
        mass = np.zeros(f.space.size)
        mass[cycle] = 1.0 / len(cycle)
        basis.append(TMeasure(f.space, mass, mass.copy()))
    return basis


def in_invariant_hull(f: PointMap, mu: TMeasure) -> bool:
    """Whether mu lies in the componentwise hull of the cycle basis.

    Componentwise: each component of mu must vanish off the cycles, be
    constant and nonnegative along each cycle, with cycle weights
    summing to that component's total mass. Degenerate variants are
    covered because a zero component has all weights zero. Each test
    allows the rounding bound (``_close``) of n terms of the
    component's masses, along a cycle those of the cycle.
    """
    _require_same_space(f, mu)
    on_cycle, cycles = f._cycle_structure()
    n, m = f.space.size, mu.c.real
    # The cycles' masses side by side, each cycle from its offset on.
    on = m[:, np.concatenate(cycles)]
    starts = np.cumsum([0, *map(len, cycles[:-1])])
    low = np.minimum.reduceat(on, starts, axis=1)
    mass = np.add.reduceat(np.abs(on), starts, axis=1)
    total = np.abs(m).sum(axis=1)
    return (
        _close(m[:, ~on_cycle], 0.0, n, total[:, None], n)
        and _close(np.maximum.reduceat(on, starts, axis=1), low, n, mass, n)
        and _at_most(0.0, low, n, mass, n)
        and _close(on.sum(axis=1), m.sum(axis=1), n, total, n)
    )


def continuity_probe(
    f: PointMap,
    mu_seq: Sequence[TMeasure],
    mu_lim: TMeasure,
    test_fns: Sequence[TFunction],
    tol: float,
) -> dict[str, bool | None]:
    """Probe continuity of push-forward under weak convergence.

    The one verdict, ``pushforward_continuity``, is None when the last
    sequence term's test integrals are not within tol of the limit's
    (vacuous; the pushed-forward measures are not computed), else
    whether the pushed-forward last term's test integrals are within
    tol of the pushed-forward limit's.

    Raises
    ------
    ValueError
        On an empty sequence, empty test set, space mismatch, or
        non-positive tol.
    """
    if tol <= 0.0:
        raise ValueError("tol must be positive")
    if not mu_seq:
        raise ValueError("measure sequence must be nonempty")
    if not test_fns:
        raise ValueError("need at least one test function")
    _require_same_space(f, mu_lim)
    last = mu_seq[-1]
    bound = Hyperbolic(tol, tol)

    def close_under(m_a: TMeasure, m_b: TMeasure) -> bool:
        return all(
            lt_d((integrate(phi, m_a) - integrate(phi, m_b)).d_modulus(), bound)
            for phi in test_fns
        )

    hypothesis = close_under(last, mu_lim)
    conclusion = close_under(pushforward(f, last), pushforward(f, mu_lim)) if hypothesis else None
    return {"pushforward_continuity": conclusion}
