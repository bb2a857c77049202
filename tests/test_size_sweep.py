"""Checks that compare a sum with a constant hold at every size.

``probability_variant`` compares the ascending fold of a D-probability's
masses with 1 and 0. On adversarial masses (equal, geometric, sorted
either way) the fold's rounding errors can all lean one way, so the gap
grows with n. Each probability here is ``w / math.fsum(w)``: its exact
total (``math.fsum``) lies within two ulps of 1, so it must be accepted
at every size, as the e1+e2, e1 and e2 variant alike.
"""

import math

import numpy as np

from hypmeasure import FiniteSpace, Hyperbolic, TMeasure
from hypmeasure.measures import probability_variant

EPS = np.finfo(np.float64).eps
SHAPES = ("equal", "geometric", "ascending", "descending")
DENSE = 2000
# A seeded log-uniform sample past DENSE, with 10**6 and 37,669: the first
# size at which an absolute slack of 1e-12 refused the uniform start.
_DRAWS = np.random.default_rng(13).uniform(math.log(DENSE), math.log(10**6), 2)
SAMPLE = sorted({37_669, 10**6, *np.exp(_DRAWS).astype(int).tolist()})


def _weights(shape, n):
    if shape == "equal":
        return np.ones(n)
    if shape == "geometric":
        return np.geomspace(1.0, 2.0**-40, n)
    ascending = np.arange(1.0, n + 1.0)
    return ascending if shape == "ascending" else ascending[::-1]


def _accepts_every_variant(labels, n):
    space = FiniteSpace(labels[:n])
    zero = np.zeros(n)
    for shape in SHAPES:
        w = _weights(shape, n)
        p = w / math.fsum(w.tolist())
        # The oracle: the exact total of the masses is 1 within two ulps.
        assert abs(math.fsum(p.tolist()) - 1.0) <= 2 * EPS
        for e1, e2 in ((p, p), (p, zero), (zero, p)):
            want = Hyperbolic(float(e1 is p), float(e2 is p))
            assert probability_variant(TMeasure(space, e1, e2)) == want, (n, shape)


def test_every_size_up_to_dense():
    labels = tuple(map(str, range(DENSE)))
    for n in range(1, DENSE + 1):
        _accepts_every_variant(labels, n)


def test_sampled_sizes_up_to_a_million():
    labels = tuple(map(str, range(SAMPLE[-1])))
    for n in SAMPLE:
        _accepts_every_variant(labels, n)
