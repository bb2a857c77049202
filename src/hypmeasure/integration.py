"""Bicomplex Lebesgue integration on finite atomic spaces.

A function is an atom-indexed table of bicomplex values; on a finite
discrete space every such table is measurable, so the integral against
a D-measure is the pair of componentwise weighted sums. Summation runs
in ascending atom index order, which makes every integral value
bit-reproducible across runs and threads.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .numbers import Bicomplex, Hyperbolic, lt_d
from .errors import NotIntegrableError
from .measures import (
    AtomTable,
    TMeasure,
    _MassLike,
    _as_components,
    _at_most,
    _ascending_sum,
    _close,
    _from_atoms,
    _masked_sum,
)
from .spaces import FiniteSpace, SetMask

__all__ = [
    "TFunction",
    "unimodular_factor",
    "in_l1",
    "integrate",
    "check_linearity",
    "ModulusCheck",
    "check_modulus_inequality",
    "DCTReport",
    "dct_run",
    "indefinite_integral",
]


class TFunction(AtomTable):
    """An atom table read as a function: pointwise values and scalars."""

    __slots__ = ()
    _PLURAL = "functions"
    _SCALARS = (int, float, complex, Hyperbolic, Bicomplex)

    from_atoms = classmethod(_from_atoms)
    value_at = AtomTable.atom

    @classmethod
    def constant(cls, space: FiniteSpace, value: _MassLike) -> "TFunction":
        c1, c2 = _as_components(value)
        return cls(space, np.full(space.size, c1), np.full(space.size, c2))

    @classmethod
    def indicator(cls, mask: SetMask) -> "TFunction":
        """Characteristic function of a subset, 1 on it and 0 off it."""
        bits = np.zeros(mask.space.size, dtype=np.complex128)
        for i in mask.indices():
            bits[i] = 1.0
        return cls(mask.space, bits, bits)

    def d_modulus(self) -> "TFunction":
        """Atomwise D-modulus; the result is D+-valued."""
        return TFunction(self.space, *np.abs(self.c))

    def polar_factor(self) -> "TFunction":
        """The unimodular factor alpha with alpha * |f| = f.

        Each component of alpha has modulus 1 at every atom; where a
        component of f vanishes the factor is set to 1, the canonical
        unimodular choice.
        """
        return TFunction(self.space, *unimodular_factor(self.c))


def unimodular_factor(values: np.ndarray) -> np.ndarray:
    """w / |w| entrywise, with 1 substituted where w = 0.

    Axis-aligned entries (purely real or purely imaginary) become
    exact units: complex division can lose an ulp even when the
    quotient is a sign, and sign classification downstream needs the
    literal +-1.
    """
    out = np.ones_like(values)
    re = values.real
    im = values.imag
    real_nz = (im == 0.0) & (re != 0.0)
    imag_nz = (re == 0.0) & (im != 0.0)
    out[real_nz] = np.sign(re[real_nz])
    out[imag_nz] = 1j * np.sign(im[imag_nz])
    mixed = (re != 0.0) & (im != 0.0)
    w = values[mixed]
    # Below the smallest normal float |w| is rounded to a subnormal spacing,
    # and numpy divides through 1 / |w|, which can overflow: scale such
    # entries up first, exactly, by a power of two.
    w[np.abs(w) < 2.0**-1022] *= 2.0**1022
    out[mixed] = w / np.abs(w)
    return out


def _check_integrand(f: TFunction, mu: TMeasure) -> None:
    if f.space != mu.space:
        raise ValueError("function and measure live on different spaces")
    if not mu.is_d_measure():
        raise ValueError("integration needs a D-measure")


@np.errstate(over="ignore", invalid="ignore")
def in_l1(f: TFunction, mu: TMeasure) -> bool:
    """Whether both component integrals of |f| are finite.

    They are the ascending sums of |f_i| * mu_i. It fails when
    non-finite values were ingested or when finite values overflow in a
    product; that is the answer, so numpy's overflow and inf*0 warnings
    are silenced.
    """
    _check_integrand(f, mu)
    return bool(np.isfinite(_ascending_sum(np.abs(f.c) * mu.c.real)).all())


def integrate(f: TFunction, mu: TMeasure, e: SetMask | None = None) -> Bicomplex:
    """Integral of f against a D-measure over a subset (default X).

    Computed as componentwise weighted sums in ascending atom index
    order.

    Raises
    ------
    ValueError
        On space mismatch, a non-D measure, or a non-integrable table.
    """
    _check_integrand(f, mu)
    if e is not None and e.space != f.space:
        raise ValueError("mask does not belong to the integrand's space")
    if not in_l1(f, mu):
        raise ValueError("function is not integrable against this measure")
    # The array product can differ from the scalar one only in the sign of
    # a zero part, which the ascending sum does not keep.
    return Bicomplex(*_masked_sum(f.c * mu.c.real, e).tolist())


def check_linearity(
    f: TFunction, g: TFunction, alpha: Bicomplex, beta: Bicomplex, mu: TMeasure
) -> bool:
    """Whether integration is linear for the given scalars and tables.

    Verifies that alpha*f + beta*g stays integrable and that
    integrate(alpha*f + beta*g) equals alpha*integrate(f) +
    beta*integrate(g) in both components, within the rounding bound
    (``_close``) of the n-term sums of (|alpha||f| + |beta||g|)*mu. Its
    floor counts 1 + |alpha| + |beta| per term and per unit of mass.
    Scalars may be arbitrary bicomplex numbers; complex scalars are the
    special case with equal components.
    """
    f._check_space(g)
    combo = f.scaled(alpha) + g.scaled(beta)
    if not in_l1(combo, mu):
        return False
    lhs = integrate(combo, mu)
    rhs = alpha * integrate(f, mu) + beta * integrate(g, mu)
    a, b = np.abs([_as_components(alpha), _as_components(beta)])[..., None]
    n, m = f.space.size, mu.c.real
    with np.errstate(over="ignore"):
        total = _ascending_sum((a * np.abs(f.c) + b * np.abs(g.c)) * m)
        floors = (1.0 + a + b)[:, 0] * (n + _ascending_sum(m))
    return _close(np.array([lhs.e1 - rhs.e1, lhs.e2 - rhs.e2]), 0.0, n, total, floors)


@dataclass(frozen=True)
class ModulusCheck:
    """Both sides of the integral modulus inequality."""

    lhs: Hyperbolic
    rhs: Hyperbolic
    holds: bool


def check_modulus_inequality(f: TFunction, mu: TMeasure) -> ModulusCheck:
    """Evaluate |integral of f|_D against the integral of |f|_D.

    ``holds`` reports lhs <= rhs componentwise within the one-sided
    rounding bound (``_at_most``) of the n-term sum rhs: the two sides
    can tie mathematically (no cancellation) and then differ by a few
    ulps. Its floor counts mu more, as |f|_D is rounded before it meets
    the masses.
    """
    lhs = integrate(f, mu).d_modulus()
    rhs_bc = integrate(f.d_modulus(), mu)
    rhs = Hyperbolic(rhs_bc.e1.real, rhs_bc.e2.real)
    sides = np.array([[lhs.e1, lhs.e2], [rhs.e1, rhs.e2]])
    n = f.space.size
    with np.errstate(over="ignore"):
        holds = _at_most(*sides, n, sides[1], n + _ascending_sum(mu.c.real))
    return ModulusCheck(lhs=lhs, rhs=rhs, holds=holds)


@dataclass(frozen=True)
class DCTReport:
    """Outcome of a dominated-convergence run.

    ``l1_limit`` traces the integrals of |f_n - f|_D, one entry per
    sequence term; ``integral_trace`` the integrals of f_n;
    ``final_gap`` is the last l1 entry. ``success`` records whether
    the two convergence conclusions hold at the last term within the
    requested tolerance; domination is reported separately and is not
    folded into ``success``.
    """

    domination_ok: bool
    l1_limit: tuple[Hyperbolic, ...]
    integral_trace: tuple[Bicomplex, ...]
    final_gap: Hyperbolic
    success: bool


def dct_run(
    fn_seq: Sequence[TFunction],
    f_limit: TFunction,
    g: TFunction,
    mu: TMeasure,
    tol: float,
) -> DCTReport:
    """Dominated-convergence harness over a finite function sequence.

    Checks the domination hypothesis |f_n,i(x)| <= g_i(x) for every
    term, component and atom, within the one-sided rounding bound
    (``_at_most``) of g_i(x) against float ties,
    and traces the two conclusions: the integrals of |f_n - f|_D
    heading to zero and the integrals of f_n heading to the integral
    of f.

    The terms are stacked into one (K, 2, n) array, so each trace is one
    array expression; every integral is still an ascending sum per row,
    with the bits of :func:`integrate` on that term.

    Raises
    ------
    NotIntegrableError
        On a term or limit that is not integrable, or a term whose
        distance |f_n - f|_D to the limit is not: the first such term,
        else the limit, else the first such distance.
    ValueError
        On an empty sequence, space mismatch, non-positive tol, or a
        non-integrable dominator.
    """
    if not fn_seq:
        raise ValueError("sequence must be nonempty")
    if tol <= 0.0:
        raise ValueError("tol must be positive")
    space = f_limit.space
    for fn in fn_seq:
        if fn.space != space:
            raise ValueError("sequence terms live on different spaces")
    if g.space != space or mu.space != space:
        raise ValueError("dominator, limit and measure must share one space")
    if not in_l1(g, mu):
        raise ValueError("dominator is not integrable")

    # Table k < K is the term f_k, table K the limit.
    n_terms = len(fn_seq)
    rows = np.array([*(fn.c for fn in fn_seq), f_limit.c])
    m = mu.c.real
    with np.errstate(over="ignore", invalid="ignore"):
        domination_ok = _at_most(np.abs(rows[:-1]), g.c.real, 1, g.c.real, 1)
        # The component integrals of |f_k|_D and |f_k - f|_D, per table.
        term_l1 = _ascending_sum(np.abs(rows) * m)
        gap_l1 = _ascending_sum(np.abs(rows[:-1] - rows[-1]) * m)
        bad = [
            k
            for sums in (term_l1, gap_l1)
            for k in np.flatnonzero(~np.isfinite(sums).all(axis=-1)).tolist()
        ]
        if bad:
            raise NotIntegrableError(None if bad[0] == n_terms else bad[0])
        # |f_n - f|_D is real, so the l1 sums of the gaps are their
        # integrals: a real product is the real part of the complex one
        # integrate would form.
        ints = _ascending_sum(rows * m).tolist()
    l1_trace = tuple(Hyperbolic(u, v) for u, v in gap_l1.tolist())
    *integral_trace, limit_int = (Bicomplex(w1, w2) for w1, w2 in ints)

    final_gap = l1_trace[-1]
    bound = Hyperbolic(tol, tol)
    last_int_gap = (integral_trace[-1] - limit_int).d_modulus()
    success = lt_d(final_gap, bound) and lt_d(last_int_gap, bound)
    return DCTReport(
        domination_ok=domination_ok,
        l1_limit=l1_trace,
        integral_trace=tuple(integral_trace),
        final_gap=final_gap,
        success=success,
    )


def indefinite_integral(g: TFunction, mu: TMeasure) -> TMeasure:
    """The measure E -> integral of g over E against mu.

    On an atomic space this is the measure with atom masses
    g_i(x) * mu_i({x}).

    Raises
    ------
    ValueError
        If g is not integrable against mu.
    """
    if not in_l1(g, mu):
        raise ValueError("function is not integrable against this measure")
    return TMeasure(mu.space, *(g.c * mu.c.real))
