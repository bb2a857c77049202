"""Jordan, Hahn, polar and Lebesgue decompositions with subset oracles."""

import warnings
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import hypmeasure.decomposition as decomposition_mod
from hypmeasure import (
    Bicomplex,
    FiniteSpace,
    HahnPartition,
    Hyperbolic,
    InternalInvariantError,
    JordanPair,
    LRNResult,
    SetMask,
    TFunction,
    TMeasure,
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
    subset_sums,
    tv_of_indefinite_integral,
    variation_measure,
)
from hypmeasure.numbers import _lt_d_rows


@pytest.fixture
def space():
    return FiniteSpace(("a", "b"))


class TestJordan:
    def test_single_atom_split(self, space):
        mu = TMeasure.from_atoms(space, {"a": Bicomplex(3, -2)})
        pair = jordan(mu)
        assert pair.mu_plus.atom(0) == Bicomplex(3, 0)
        assert pair.mu_minus.atom(0) == Bicomplex(0, 2)
        assert (pair.mu_plus - pair.mu_minus).equal_exact(mu)
        assert (pair.mu_plus + pair.mu_minus).equal_exact(variation_measure(mu))

    def test_rejects_complex_masses(self, space):
        with pytest.raises(ValueError, match="signed D-measure"):
            jordan(TMeasure.from_atoms(space, {"a": Bicomplex(1j, 0)}))

    def test_parts_are_nonnegative(self, space):
        mu = TMeasure.from_atoms(space, {"a": Bicomplex(-5, 7), "b": Bicomplex(2, -3)})
        pair = jordan(mu)
        assert pair.mu_plus.is_d_measure()
        assert pair.mu_minus.is_d_measure()


class TestHahn:
    def test_single_atom_cells(self, space):
        mu = TMeasure.from_atoms(space, {"a": Bicomplex(3, -2)})
        p = hahn(mu)
        assert p.C.labels() == ["a"]
        assert p.A.labels() == ["b"]  # zero atoms land in A
        assert certify_hahn(mu, p) == {"hahn_mu_plus": True, "hahn_mu_minus": True}

        p2 = hahn(TMeasure.from_atoms(space, {"a": Bicomplex(-1, 1)}))
        assert p2.D.labels() == ["a"]

    def test_nonnegative_measure_collapses_to_a(self, space):
        mu = TMeasure.from_atoms(space, {"a": Bicomplex(2, 3), "b": Bicomplex(1, 0)})
        p = hahn(mu)
        assert p.A.labels() == ["a", "b"]
        assert p.B.is_empty()
        assert p.C.is_empty()
        assert p.D.is_empty()

    def test_cells_partition_space(self):
        space = FiniteSpace(tuple("pqrs"))
        mu = TMeasure.from_atoms(
            space,
            {
                "p": Bicomplex(2, 3),
                "q": Bicomplex(-1, -4),
                "r": Bicomplex(5, -1),
                "s": Bicomplex(-2, 6),
            },
        )
        p = hahn(mu)
        assert p.A.labels() == ["p"]
        assert p.B.labels() == ["q"]
        assert p.C.labels() == ["r"]
        assert p.D.labels() == ["s"]

    def test_formula_matches_jordan_on_every_subset(self):
        # Independent subset oracle: mu+/mu- computed directly from
        # atom signs, compared with the cell-based formulas.
        space = FiniteSpace(tuple("pqrs"))
        masses = {"p": (2, 3), "q": (-1, -4), "r": (5, -1), "s": (-2, 6)}
        mu = TMeasure.from_atoms(
            space, {k: Bicomplex(u, v) for k, (u, v) in masses.items()}
        )
        assert certify_hahn(mu, hahn(mu)) == {"hahn_mu_plus": True, "hahn_mu_minus": True}
        vals = [masses[lab] for lab in space.atoms]
        for bits in range(16):
            members = [i for i in range(4) if bits >> i & 1]
            plus = (
                sum(max(vals[i][0], 0) for i in members),
                sum(max(vals[i][1], 0) for i in members),
            )
            minus = (
                sum(max(-vals[i][0], 0) for i in members),
                sum(max(-vals[i][1], 0) for i in members),
            )
            e = SetMask(space, bits)
            pair = jordan(mu)
            got_plus = pair.mu_plus.of(e)
            got_minus = pair.mu_minus.of(e)
            assert (got_plus.e1.real, got_plus.e2.real) == plus
            assert (got_minus.e1.real, got_minus.e2.real) == minus

    def test_rejects_complex(self, space):
        with pytest.raises(ValueError):
            hahn(TMeasure.from_atoms(space, {"a": Bicomplex(1j, 0)}))

    @pytest.mark.parametrize("n", [21, 10_000])
    def test_partition_past_the_subset_cap(self, n):
        # Construction is atomwise, so it has no size cap.
        rng = np.random.default_rng(n)
        space = FiniteSpace(tuple(f"x{i}" for i in range(n)))
        u = rng.integers(-2, 3, size=n).astype(float)
        v = rng.integers(-2, 3, size=n).astype(float)
        p = hahn(TMeasure(space, u, v))
        cells = [p.A.bits, p.B.bits, p.C.bits, p.D.bits]
        assert sum(cells) == space.full().bits
        assert all(
            cells[i] & cells[j] == 0 for i in range(4) for j in range(i + 1, 4)
        )
        pos_u, pos_v = u >= 0, v >= 0
        assert list(p.A.indices()) == list(np.flatnonzero(pos_u & pos_v))
        assert list(p.B.indices()) == list(np.flatnonzero(~pos_u & ~pos_v))
        assert list(p.C.indices()) == list(np.flatnonzero(pos_u & ~pos_v))
        assert list(p.D.indices()) == list(np.flatnonzero(~pos_u & pos_v))

    @pytest.mark.parametrize("n", [21, 10_000])
    def test_certifier_runs_at_any_size(self, n):
        # The formulas are checked atom by atom, so no size reads None.
        rng = np.random.default_rng(n)
        space = FiniteSpace(tuple(f"x{i}" for i in range(n)))
        mu = TMeasure(space, rng.normal(size=n), rng.normal(size=n))
        p = hahn(mu)
        assert certify_hahn(mu, p) == {"hahn_mu_plus": True, "hahn_mu_minus": True}
        swapped = HahnPartition(A=p.A, B=p.B, C=p.D, D=p.C)
        assert certify_hahn(mu, swapped) == {"hahn_mu_plus": False, "hahn_mu_minus": False}

    def test_certifier_rejects_swapped_cells(self):
        space = FiniteSpace(tuple("pqrs"))
        mu = TMeasure.from_atoms(
            space,
            {
                "p": Bicomplex(2, 3),
                "q": Bicomplex(-1, -4),
                "r": Bicomplex(5, -1),
                "s": Bicomplex(-2, 6),
            },
        )
        p = hahn(mu)
        assert certify_hahn(mu, p) == {"hahn_mu_plus": True, "hahn_mu_minus": True}
        swapped = HahnPartition(A=p.A, B=p.B, C=p.D, D=p.C)
        assert certify_hahn(mu, swapped) == {"hahn_mu_plus": False, "hahn_mu_minus": False}

    @pytest.mark.parametrize("n", [14, 20])
    def test_certifier_rejects_an_error_at_the_highest_atom(self, n):
        # Only subsets holding the last atom see the error: a check that
        # stops early, or never reaches that atom, passes this partition.
        rng = np.random.default_rng(n)
        space = FiniteSpace(tuple(f"x{i}" for i in range(n)))
        u = rng.normal(size=n)
        v = rng.normal(size=n)
        u[-1], v[-1] = 3.0, 2.0
        mu = TMeasure(space, u, v)
        p = hahn(mu)
        assert p.A.contains(n - 1)
        assert certify_hahn(mu, p) == {"hahn_mu_plus": True, "hahn_mu_minus": True}
        top = space.singleton(n - 1)
        moved = HahnPartition(A=p.A.difference(top), B=p.B | top, C=p.C, D=p.D)
        assert certify_hahn(mu, moved) == {"hahn_mu_plus": False, "hahn_mu_minus": False}

    def test_certifier_rejects_cells_of_another_space(self, space):
        mu = TMeasure.from_atoms(space, {"a": Bicomplex(1, 1)})
        other = FiniteSpace(("a", "c"))
        p = hahn(TMeasure.from_atoms(other, {"a": Bicomplex(1, 1)}))
        with pytest.raises(ValueError, match="space"):
            certify_hahn(mu, p)

    def test_float_masses_classify_exactly(self, space):
        # complex division loses an ulp on many real values; the sign
        # classification must not inherit that
        mu = TMeasure.from_atoms(
            space,
            {
                "a": Bicomplex(-0.9916465549964624, 1.3402152455545335),
                "b": Bicomplex(0.6204748998199404, -0.283587060434),
            },
        )
        p = hahn(mu)
        assert p.D.labels() == ["a"]
        assert p.C.labels() == ["b"]
        assert certify_hahn(mu, p) == {"hahn_mu_plus": True, "hahn_mu_minus": True}


def _reference_certify_hahn(mu, partition):
    """The Hahn certificate by exact enumeration: both formulas against
    the Jordan parts on every subset, in Fraction arithmetic."""
    x = [[Fraction(v) for v in row] for row in mu.c.real.tolist()]
    n = mu.space.size
    cells = [set(cell.indices()) for cell in (partition.A, partition.B, partition.C, partition.D)]
    plus_ok = minus_ok = True
    for bits in range(1 << n):
        members = [k for k in range(n) if bits >> k & 1]
        a, b, c, d = (
            [sum((x[i][k] for k in members if k in cell), Fraction(0)) for i in range(2)]
            for cell in cells
        )
        mixed = [abs(c[0]), abs(d[1])]
        for i in range(2):
            plus = sum((max(x[i][k], 0) for k in members), Fraction(0))
            minus = sum((max(-x[i][k], 0) for k in members), Fraction(0))
            plus_ok &= a[i] + mixed[i] == plus
            minus_ok &= -b[i] - c[i] - d[i] + mixed[i] == minus
    return {"hahn_mu_plus": plus_ok, "hahn_mu_minus": minus_ok}


@st.composite
def _signed_measures(draw):
    n = draw(st.integers(1, 7))
    unit = st.one_of(st.just(0.0), st.floats(-1.0, 1.0, allow_subnormal=False))
    masses = np.array(draw(st.lists(unit, min_size=2 * n, max_size=2 * n))).reshape(2, n)
    # Subnormal masses up to masses whose sums overflow (at 1e308).
    exponent = st.sampled_from([-318, -300, 0, 300, 308]) | st.integers(-318, 308)
    scale = 10.0 ** draw(exponent)
    return TMeasure(FiniteSpace(tuple(f"x{i}" for i in range(n))), *(masses * scale))


@settings(max_examples=60, deadline=None)
@given(mu=_signed_measures(), data=st.data())
def test_certify_hahn_matches_the_exact_reference(mu, data):
    # Same verdicts as exact subset enumeration on the correct partition
    # and six wrong ones: swapped, overlapping and moved cells.
    p = hahn(mu)
    atom = mu.space.singleton(data.draw(st.integers(0, mu.space.size - 1)))
    others = [cell.difference(atom) for cell in (p.A, p.B, p.C, p.D)]
    partitions = [
        p,
        HahnPartition(A=p.B, B=p.A, C=p.C, D=p.D),
        HahnPartition(A=p.A, B=p.B, C=p.D, D=p.C),
        HahnPartition(A=p.A | p.B, B=p.B, C=p.C, D=p.D),
        HahnPartition(others[0], others[1], others[2] | atom, others[3]),
        HahnPartition(others[0], others[1], others[2], others[3] | atom),
        HahnPartition(A=p.A, B=p.B, C=p.C | atom, D=p.D),
    ]
    for partition in partitions:
        assert certify_hahn(mu, partition) == _reference_certify_hahn(mu, partition)


class TestPolar:
    def test_real_signs(self, space):
        h = polar_density(TMeasure.from_atoms(space, {"a": Bicomplex(3, -2)}))
        assert h.value_at(0) == Bicomplex(1, -1)

    def test_complex_phase(self, space):
        h = polar_density(TMeasure.from_atoms(space, {"a": Bicomplex(3 + 4j, 2)}))
        got = h.value_at(0)
        assert abs(got.e1 - (0.6 + 0.8j)) <= 1e-15
        assert got.e2 == 1

    def test_zero_atoms_get_unit(self, space):
        h = polar_density(TMeasure.zero(space))
        assert h.value_at(0) == Bicomplex.one()

    def test_reconstruction_on_all_subsets(self):
        space = FiniteSpace(tuple("pqr"))
        mu = TMeasure.from_atoms(
            space,
            {"p": Bicomplex(1 - 2j, 3), "q": Bicomplex(-4, 1j), "r": Bicomplex(0, -2)},
        )
        h = polar_density(mu)
        var = variation_measure(mu)
        for bits in range(8):
            e = SetMask(space, bits)
            recon1 = sum(h.e1[i] * var.e1[i].real for i in e.indices())
            recon2 = sum(h.e2[i] * var.e2[i].real for i in e.indices())
            value = mu.of(e)
            assert abs(recon1 - value.e1) <= 1e-12
            assert abs(recon2 - value.e2) <= 1e-12


class TestSingularityPredicates:
    def test_concentration(self, space):
        mu = TMeasure.from_atoms(space, {"a": Bicomplex(1, 2)})
        assert is_concentrated(mu, SetMask(space, 0b01))
        assert not is_concentrated(mu, SetMask(space, 0b10))
        assert is_concentrated(TMeasure.zero(space), space.empty())
        # past 64 atoms, against a pointwise reference
        n = 150
        big = FiniteSpace(tuple(f"x{i}" for i in range(n)))
        rng = np.random.default_rng(11)
        e1 = np.where(rng.random(n) < 0.3, rng.standard_normal(n), 0.0)
        e2 = np.where(rng.random(n) < 0.3, 1j * rng.standard_normal(n), -0.0)
        e1[100] = np.nan  # NaN is support
        lam = TMeasure(big, e1, e2)

        def reference(a):
            return all(
                lam.e1[i] == 0 and lam.e2[i] == 0
                for i in range(n)
                if not a.contains(i)
            )

        support = lam.support_mask()
        masks = [support, big.full(), big.empty(), support.complement()]
        masks.append(SetMask(big, support.bits & ~(1 << 100)))
        masks += [
            big.subset_of_indices(np.flatnonzero(rng.random(n) < p))
            for p in (0.5, 0.9, 0.99)
        ]
        for a in masks:
            assert is_concentrated(lam, a) == reference(a)
        assert is_concentrated(lam, support)
        assert not is_concentrated(lam, masks[4])

    def test_mutually_singular(self, space):
        a = TMeasure.from_atoms(space, {"a": Bicomplex(1, 1)})
        b = TMeasure.from_atoms(space, {"b": Bicomplex(2, -1j)})
        assert mutually_singular(a, b)
        assert not mutually_singular(a, a)

    def test_componentwise_clash_rule(self, space):
        # same atom, but the components never overlap pairwise
        a = TMeasure.from_atoms(space, {"a": Bicomplex(1, 0)})
        b = TMeasure.from_atoms(space, {"a": Bicomplex(0, 1)})
        assert mutually_singular(a, b)

    def test_abs_continuous(self, space):
        mu = TMeasure.from_atoms(space, {"a": Bicomplex(1, 1)})
        lam = TMeasure.from_atoms(space, {"a": Bicomplex(5, -2j)})
        assert abs_continuous(lam, mu)
        bad = TMeasure.from_atoms(space, {"b": Bicomplex(1, 0)})
        assert not abs_continuous(bad, mu)
        assert abs_continuous(lam, lam.scaled(0.0) + mu)

    def test_abs_continuous_needs_d_reference(self, space):
        lam = TMeasure.from_atoms(space, {"a": Bicomplex(1, 1)})
        signed = TMeasure.from_atoms(space, {"a": Bicomplex(-1, 1)})
        with pytest.raises(ValueError, match="D-measure"):
            abs_continuous(lam, signed)


class TestLrn:
    def test_worked_example(self, space):
        mu = TMeasure.from_atoms(space, {"a": Bicomplex(1, 1)})
        lam = TMeasure.from_atoms(space, {"a": Bicomplex(2, 3), "b": Bicomplex(5, 0)})
        res = lebesgue_radon_nikodym(lam, mu)
        assert res.lambda_ac.atom(0) == Bicomplex(2, 3)
        assert res.lambda_ac.atom(1) == Bicomplex.zero()
        assert res.lambda_sing.atom(1) == Bicomplex(5, 0)
        assert res.density.value_at(0) == Bicomplex(2, 3)
        assert res.density.value_at(1) == Bicomplex.zero()
        assert (res.lambda_ac + res.lambda_sing).equal_exact(lam)
        assert abs_continuous(res.lambda_ac, mu)
        assert mutually_singular(res.lambda_sing, mu)

    def test_already_continuous(self, space):
        mu = TMeasure.from_atoms(space, {"a": Bicomplex(1, 2), "b": Bicomplex(3, 1)})
        lam = TMeasure.from_atoms(space, {"a": Bicomplex(1j, 1), "b": Bicomplex(2, -1)})
        res = lebesgue_radon_nikodym(lam, mu)
        assert res.lambda_sing.equal_exact(TMeasure.zero(space))

    def test_already_singular(self, space):
        mu = TMeasure.from_atoms(space, {"a": Bicomplex(1, 1)})
        lam = TMeasure.from_atoms(space, {"b": Bicomplex(4, -2)})
        res = lebesgue_radon_nikodym(lam, mu)
        assert res.lambda_ac.equal_exact(TMeasure.zero(space))
        assert np.all(res.density.e1 == 0) and np.all(res.density.e2 == 0)

    def test_density_reproduces_on_all_subsets(self):
        space = FiniteSpace(tuple("pqr"))
        mu = TMeasure.from_atoms(
            space, {"p": Bicomplex(2, 1), "q": Bicomplex(0, 4), "r": Bicomplex(3, 0)}
        )
        lam = TMeasure.from_atoms(
            space,
            {"p": Bicomplex(1 + 1j, -2), "q": Bicomplex(5, 2j), "r": Bicomplex(-1, 7)},
        )
        res = lebesgue_radon_nikodym(lam, mu)
        for bits in range(8):
            e = SetMask(space, bits)
            want = res.lambda_ac.of(e)
            got1 = sum(res.density.e1[i] * mu.e1[i].real for i in e.indices())
            got2 = sum(res.density.e2[i] * mu.e2[i].real for i in e.indices())
            assert abs(got1 - want.e1) <= 1e-12
            assert abs(got2 - want.e2) <= 1e-12

    def test_uniqueness_atomwise(self, space):
        mu = TMeasure.from_atoms(space, {"a": Bicomplex(1, 1)})
        lam = TMeasure.from_atoms(space, {"a": Bicomplex(2, 3), "b": Bicomplex(5, 0)})
        res = lebesgue_radon_nikodym(lam, mu)
        assert all(certify_lrn(lam, mu, res).values())

        def pair_is_valid(ac, sing):
            verdicts = certify_lrn(lam, mu, LRNResult(ac, sing, res.density))
            return all(
                verdicts[k] for k in ("lrn_sum", "lrn_abs_continuous", "lrn_singular")
            )

        shift = TMeasure.from_atoms(space, {"a": Bicomplex(1, 0)})
        assert not pair_is_valid(res.lambda_ac + shift, res.lambda_sing - shift)
        off = TMeasure.from_atoms(space, {"b": Bicomplex(1, 0)})
        assert not pair_is_valid(res.lambda_ac + off, res.lambda_sing - off)

    def test_requires_d_reference(self, space):
        lam = TMeasure.from_atoms(space, {"a": Bicomplex(1, 1)})
        with pytest.raises(ValueError, match="D-measure"):
            lebesgue_radon_nikodym(lam, TMeasure.from_atoms(space, {"a": Bicomplex(-1, 1)}))


class TestEpsilonDelta:
    def test_identity_pair(self, space):
        mu = TMeasure.from_atoms(space, {"a": Bicomplex(1, 1)})
        eps = Hyperbolic(0.5, 0.5)
        delta = epsilon_delta_witness(mu, mu, eps)
        # only the full atom offends; half its mass certifies
        assert delta == Hyperbolic(0.5, 0.5)

    def test_zero_measure_gets_unit_delta(self, space):
        # A reference component with no positive mass gets delta_i = 1;
        # the other gets half its smallest positive mass, whatever lam is.
        zero = TMeasure.zero(space)
        assert epsilon_delta_witness(zero, zero, Hyperbolic(1, 1)) == Hyperbolic(1, 1)
        mu = TMeasure.from_atoms(space, {"a": Bicomplex(3, 0), "b": Bicomplex(1, 0)})
        assert epsilon_delta_witness(zero, mu, Hyperbolic(1, 1)) == Hyperbolic(0.5, 1)

    def test_smallest_subnormal_reference_mass_has_no_delta(self, space):
        # Half of 5e-324 rounds to 0, and no positive float lies below it:
        # the set {a} has mu(a) = (5e-324, 1) and lam_1(a) >= epsilon_1.
        mu = TMeasure.from_atoms(space, {"a": Bicomplex(5e-324, 1), "b": Bicomplex(1, 1)})
        with pytest.raises(ValueError, match="5e-324"):
            epsilon_delta_witness(mu, mu, Hyperbolic(4e-324, 1))
        # One subnormal spacing above it, the half is a positive delta.
        mu = TMeasure.from_atoms(space, {"a": Bicomplex(1e-323, 1), "b": Bicomplex(1, 1)})
        assert epsilon_delta_witness(mu, mu, Hyperbolic(4e-324, 1)) == Hyperbolic(5e-324, 0.5)

    def test_no_witness_without_continuity(self, space):
        mu = TMeasure.from_atoms(space, {"a": Bicomplex(1, 1)})
        lam = TMeasure.from_atoms(space, {"b": Bicomplex(3, 0)})
        assert epsilon_delta_witness(lam, mu, Hyperbolic(1, 1)) is None

    def test_epsilon_validation(self, space):
        mu = TMeasure.from_atoms(space, {"a": Bicomplex(1, 1)})
        with pytest.raises(ValueError, match="positive"):
            epsilon_delta_witness(mu, mu, Hyperbolic(0, 1))

    def test_witness_certifies_exhaustively(self):
        space = FiniteSpace(tuple("pqr"))
        mu = TMeasure.from_atoms(
            space, {"p": Bicomplex(0.25, 1), "q": Bicomplex(1, 0.125), "r": Bicomplex(2, 3)}
        )
        lam = mu.scaled(Hyperbolic(3, 2))
        eps = Hyperbolic(1.0, 1.0)
        delta = epsilon_delta_witness(lam, mu, eps)
        assert delta is not None and delta.e1 > 0 and delta.e2 > 0
        for bits in range(8):
            e = SetMask(space, bits)
            mu_val = mu.of(e)
            lam_mod = lam.of(e).d_modulus()
            hyp = (
                mu_val.e1.real <= delta.e1
                and mu_val.e2.real <= delta.e2
                and (mu_val.e1.real, mu_val.e2.real) != (delta.e1, delta.e2)
            )
            concl = (
                lam_mod.e1 <= eps.e1
                and lam_mod.e2 <= eps.e2
                and (lam_mod.e1, lam_mod.e2) != (eps.e1, eps.e2)
            )
            assert concl or not hyp

    def test_delta_passes_the_subset_oracle(self):
        # Every subset below delta in the strict order has |lam| below
        # epsilon, on random pairs with null atoms, unit deltas and no
        # witness; delta is half the smallest positive reference mass.
        rng = np.random.default_rng(12)
        outcomes = set()
        for case in range(200):
            n = int(rng.integers(1, 11)) if case % 25 else int(rng.integers(14, 16))
            space = FiniteSpace(tuple(f"x{i}" for i in range(n)))
            mu = TMeasure(space, *np.abs(rng.normal(size=(2, n))) * (rng.random((2, n)) < 0.8))
            lam = TMeasure(space, *(rng.normal(size=(2, n)) + 1j * rng.normal(size=(2, n))))
            if case % 3:
                lam = TMeasure(space, *np.where(mu.c != 0, lam.c, 0))
            lam_sums = np.abs(subset_sums(lam.c))
            top = lam_sums.max(axis=1)
            eps = Hyperbolic(*(top * rng.uniform(0.3, 1.2, 2) + (top == 0)))
            delta = epsilon_delta_witness(lam, mu, eps)
            outcomes.add("none" if delta is None else (delta.e1 == 1.0) + (delta.e2 == 1.0))
            if delta is None:
                assert not abs_continuous(lam, mu)
                continue
            m = mu.c.real
            for got, row in zip((delta.e1, delta.e2), m):
                assert got == (row[row > 0].min() / 2 if (row > 0).any() else 1.0)
            hyp = _lt_d_rows(subset_sums(m), np.array([[delta.e1], [delta.e2]]))
            concl = _lt_d_rows(lam_sums, np.array([[eps.e1], [eps.e2]]))
            assert (~hyp | concl).all()
        assert {"none", 0, 1} <= outcomes


LATTICE = (
    "concentration_to_modulus",
    "singularity_to_moduli",
    "singular_sum_closed",
    "abs_continuous_sum_closed",
    "abs_continuity_to_modulus",
    "ac_and_singular_are_singular",
    "ac_and_singular_is_zero",
)


def _at(space, **masses):
    return TMeasure.from_atoms(space, {k: Bicomplex(*v) for k, v in masses.items()})


class TestLattice:
    """Each implication reads None when its hypothesis fails and True when
    it holds; they are theorems, so only a faulty helper reads False."""

    SPACE = FiniteSpace(("a", "b", "c"))
    MU = _at(SPACE, a=(1, 1))  # every lattice case's reference measure
    BOTH = _at(SPACE, a=(1, 1), b=(1, 1))  # mass on and off MU's support

    def test_constructed_instances_hold(self):
        lam_p = _at(self.SPACE, a=(2, -1j))  # ac wrt mu
        lam_pp = _at(self.SPACE, b=(0, 3))  # singular
        # Their sum is neither ac nor singular.
        verdicts = (True, True, None, None, None, True, None)
        got = check_lattice_properties(lam_p + lam_pp, lam_p, lam_pp, self.MU)
        assert got == dict(zip(LATTICE, verdicts))

    def test_zero_forced_when_both(self):
        # Zero measures satisfy every hypothesis.
        zero = TMeasure.zero(self.SPACE)
        assert check_lattice_properties(zero, zero, zero, self.MU) == dict.fromkeys(LATTICE, True)

    @pytest.mark.parametrize(
        "lam, lam_p, lam_pp, verdicts",
        [
            pytest.param(
                # Both parts singular to mu, on disjoint atoms.
                _at(SPACE, b=(1, 0), c=(0, 1)), _at(SPACE, b=(1, 0)), _at(SPACE, c=(0, 1)),
                (True, True, True, None, None, None, None),
                id="both-singular",
            ),
            pytest.param(
                # Both parts ac on the same atom, hence not mutually singular.
                _at(SPACE, a=(4, 2)), _at(SPACE, a=(1, 1j)), _at(SPACE, a=(3, -1)),
                (True, None, None, True, True, None, None),
                id="both-ac",
            ),
            pytest.param(
                # Every hypothesis but (a)'s fails.
                BOTH, BOTH, BOTH,
                (True,) + (None,) * 6,
                id="vacuous",
            ),
        ],
    )
    def test_verdicts(self, lam, lam_p, lam_pp, verdicts):
        assert check_lattice_properties(lam, lam_p, lam_pp, self.MU) == dict(zip(LATTICE, verdicts))

    def test_vacuous_conclusions_are_not_computed(self, monkeypatch):
        # The sum appears only in the conclusions of (c) and (d).
        def boom(*_):
            raise AssertionError("conclusion computed")

        monkeypatch.setattr(TMeasure, "__add__", boom)
        verdicts = check_lattice_properties(self.BOTH, self.BOTH, self.BOTH, self.MU)
        assert verdicts["singular_sum_closed"] is verdicts["abs_continuous_sum_closed"] is None

    @pytest.mark.parametrize(
        "target, helper, fake, lam, lam_p, lam_pp, false",
        [
            pytest.param(
                # A modulus that spreads mass over every atom.
                decomposition_mod, "variation_measure", lambda m: TMeasure(m.space, np.ones(3), np.ones(3)),
                _at(SPACE, a=(1, 1)), _at(SPACE, a=(1, 1)), _at(SPACE, b=(1, 1)),
                {"concentration_to_modulus", "singularity_to_moduli", "abs_continuity_to_modulus"},
                id="modulus",
            ),
            pytest.param(
                # A sum that spreads mass over every atom.
                TMeasure, "__add__", lambda m, other: TMeasure(m.space, np.ones(3), np.ones(3)),
                TMeasure.zero(SPACE), TMeasure.zero(SPACE), TMeasure.zero(SPACE),
                {"singular_sum_closed", "abs_continuous_sum_closed"},
                id="sum",
            ),
            pytest.param(
                # An absolute-continuity test that answers yes to everything.
                decomposition_mod, "abs_continuous", lambda lam, mu: True,
                _at(SPACE, b=(1, 1)), _at(SPACE, b=(1, 1)), _at(SPACE, b=(1, 1)),
                {"ac_and_singular_are_singular", "ac_and_singular_is_zero"},
                id="abs-continuity",
            ),
        ],
    )
    def test_a_faulty_helper_reads_false(self, target, helper, fake, lam, lam_p, lam_pp, false, monkeypatch):
        monkeypatch.setattr(target, helper, fake)
        verdicts = check_lattice_properties(lam, lam_p, lam_pp, self.MU)
        assert {name for name, value in verdicts.items() if value is False} == false

    def test_space_mismatch(self, space):
        other = FiniteSpace(("x", "y"))
        with pytest.raises(ValueError):
            check_lattice_properties(
                TMeasure.zero(space),
                TMeasure.zero(space),
                TMeasure.zero(space),
                TMeasure.zero(other),
            )


class TestTvOfIndefinite:
    def test_unit_integrand(self, space):
        mu = TMeasure.from_atoms(space, {"a": Bicomplex(2, 1), "b": Bicomplex(3, 4)})
        ones = TFunction.constant(space, 1.0)
        res = tv_of_indefinite_integral(ones, mu, space.full())
        assert res.equal
        total = mu.of(space.full())
        assert res.tv == Hyperbolic(total.e1.real, total.e2.real)

    def test_mixed_signs(self, space):
        mu = TMeasure.from_atoms(space, {"a": Bicomplex(1, 1), "b": Bicomplex(1, 1)})
        g = TFunction.from_atoms(space, {"a": Bicomplex(1, 1), "b": Bicomplex(-1, -1)})
        res = tv_of_indefinite_integral(g, mu, space.full())
        assert res.equal
        assert res.tv == Hyperbolic(2, 2)
        # the raw set value cancels; the variation does not
        lam_total = sum(g.e1[i] * mu.e1[i].real for i in range(2))
        assert lam_total == 0

    def test_zero_integrand(self, space):
        mu = TMeasure.from_atoms(space, {"a": Bicomplex(1, 1)})
        res = tv_of_indefinite_integral(TFunction.constant(space, 0.0), mu, space.full())
        assert res.equal and res.tv == Hyperbolic(0, 0)


def test_internal_invariant_error_carries_payload():
    err = InternalInvariantError("boom", {"k": 1})
    assert err.payload == {"k": 1}
    assert str(err) == "boom"


def _bumped(table, atom, d1=0.0, d2=0.0):
    """``table`` with (d1, d2) added to one atom's components."""
    e1, e2 = table.e1.copy(), table.e2.copy()
    e1[atom] += d1
    e2[atom] += d2
    return type(table)(table.space, e1, e2)


def _perturbed_verdicts(verdict, scale):
    """Certify a valid decomposition and one with a single input perturbed
    so that ``verdict`` must fail; returns both verdict dicts. The signed
    measure's masses are multiplied by ``scale``."""
    space = FiniteSpace(tuple("pqrs"))
    # One atom per Hahn cell: p in A, q in B, r in C, s in D.
    mu = TMeasure(space, [2, -1, 5, -2], [3, -4, -1, 6]).scaled(scale)
    # The reference is null at q in e1 and at s in e2.
    ref = TMeasure(space, [1, 0, 2, 4], [3, 1, 0.5, 0])
    lam = TMeasure(space, [1 + 2j, 7, -3, 0.5j], [2, -1j, 4, 9])
    certify = {
        "jordan": lambda pair: certify_jordan(mu, pair),
        "hahn": lambda cells: certify_hahn(mu, cells),
        "polar": lambda h: certify_polar(mu, h),
        "lrn": lambda res: certify_lrn(lam, ref, res),
    }
    valid = {
        "jordan": jordan(mu),
        "hahn": hahn(mu),
        "polar": polar_density(mu),
        "lrn": lebesgue_radon_nikodym(lam, ref),
    }
    pair, cells, h, res = valid.values()
    ac, sing, density = res.lambda_ac, res.lambda_sing, res.density
    family, perturbed = {
        "jordan_difference": (
            "jordan",
            JordanPair(_bumped(pair.mu_plus, 0, 1.0), _bumped(pair.mu_minus, 0, -1.0)),
        ),
        "jordan_variation": (
            "jordan",
            JordanPair(_bumped(pair.mu_plus, 0, 1.0), _bumped(pair.mu_minus, 0, 1.0)),
        ),
        "hahn_mu_plus": ("hahn", HahnPartition(A=cells.A, B=cells.B, C=cells.D, D=cells.C)),
        "hahn_mu_minus": ("hahn", HahnPartition(A=cells.B, B=cells.A, C=cells.C, D=cells.D)),
        "polar_unimodular": ("polar", TFunction(space, h.e1 * [1, 1, 2, 1], h.e2)),
        "polar_reconstruction": ("polar", TFunction(space, h.e1 * [1, -1, 1, 1], h.e2)),
        "lrn_sum": ("lrn", LRNResult(_bumped(ac, 0, 1.0), sing, density)),
        # q carries lam mass on a reference-null atom; move it into ac.
        "lrn_abs_continuous": (
            "lrn", LRNResult(_bumped(ac, 1, 7.0), _bumped(sing, 1, -7.0), density)
        ),
        # p carries lam mass on a reference atom; move it into sing.
        "lrn_singular": (
            "lrn", LRNResult(_bumped(ac, 0, -(1 + 2j)), _bumped(sing, 0, 1 + 2j), density)
        ),
        "lrn_density": ("lrn", LRNResult(ac, sing, _bumped(density, 2, 0.0, 1e-6))),
    }[verdict]
    return certify[family](valid[family]), certify[family](perturbed)


_VERDICTS = [
    "jordan_difference", "jordan_variation",
    "hahn_mu_plus", "hahn_mu_minus",
    "polar_unimodular", "polar_reconstruction",
    "lrn_sum", "lrn_abs_continuous", "lrn_singular", "lrn_density",
]


@pytest.mark.parametrize(
    "verdict, scale",
    [pytest.param(verdict, 1.0, id=verdict) for verdict in _VERDICTS]
    # Masses of a few subnormal spacings, where a rounding floor of that
    # size would accept the swapped cells.
    + [
        pytest.param(verdict, 5e-324, id=f"{verdict}-subnormal")
        for verdict in ("hahn_mu_plus", "hahn_mu_minus")
    ],
)
def test_every_verdict_can_fail(verdict, scale):
    valid, broken = _perturbed_verdicts(verdict, scale)
    assert all(value is True for value in valid.values())
    assert broken[verdict] is False


def _scaled_measures(sigma, count=100, n=8, ref_sigma=1.0):
    """Random signed measures of mass scale ``sigma`` with D-references."""
    rng = np.random.default_rng(2024)
    space = FiniteSpace(tuple(f"x{i}" for i in range(n)))
    for _ in range(count):
        mu = TMeasure(space, rng.normal(0, sigma, n), rng.normal(0, sigma, n))
        ref = TMeasure(space, *np.abs(rng.normal(0, 3, (2, n))) * ref_sigma)
        yield mu, ref


def _check_hahn_holds_and_a_cell_swap_fails(sigma):
    swapped_cases = 0
    for mu, _ in _scaled_measures(sigma):
        cells = hahn(mu)
        assert certify_hahn(mu, cells) == {"hahn_mu_plus": True, "hahn_mu_minus": True}
        if cells.C.is_empty() and cells.D.is_empty():
            continue  # swapping two empty cells changes nothing
        swapped = HahnPartition(A=cells.A, B=cells.B, C=cells.D, D=cells.C)
        assert certify_hahn(mu, swapped) == {"hahn_mu_plus": False, "hahn_mu_minus": False}
        swapped_cases += 1
    assert swapped_cases >= 90


def _check_density_perturbed_by_one_part_in_1e9_fails(sigma):
    for mu, ref in _scaled_measures(sigma):
        res = lebesgue_radon_nikodym(mu, ref)
        assert all(certify_lrn(mu, ref, res).values())
        atom = 3
        bump = res.density.e1[atom] * 1e-9
        wrong = LRNResult(res.lambda_ac, res.lambda_sing, _bumped(res.density, atom, bump))
        assert certify_lrn(mu, ref, wrong)["lrn_density"] is False


class TestLargeMasses:
    """Rounding grows with the masses; the certifiers' bound grows with it."""

    SIGMA = 1e9

    def test_hahn_holds_and_a_cell_swap_fails(self):
        _check_hahn_holds_and_a_cell_swap_fails(self.SIGMA)

    def test_density_perturbed_by_one_part_in_1e9_fails(self):
        _check_density_perturbed_by_one_part_in_1e9_fails(self.SIGMA)


class TestEveryScale:
    """The bound is worked out from the masses, with no absolute tolerance,
    so a wrong certificate fails and a right one passes at every scale."""

    @pytest.mark.parametrize("sigma", [1e-318, 1e-300, 1e150], ids=["subnormal", "1e-300", "1e150"])
    def test_hahn_holds_and_a_cell_swap_fails(self, sigma):
        _check_hahn_holds_and_a_cell_swap_fails(sigma)

    @pytest.mark.parametrize("sigma", [1e-300, 1e150])
    def test_density_perturbed_by_one_part_in_1e9_fails(self, sigma):
        _check_density_perturbed_by_one_part_in_1e9_fails(sigma)

    @pytest.mark.parametrize("sigma", [1e-300, 1e150])
    def test_polar_holds_and_a_rotated_factor_fails(self, sigma):
        for mu, _ in _scaled_measures(sigma, count=30):
            t = TMeasure(mu.space, mu.e1 + 1j * mu.e2[::-1], mu.e2 - 1j * mu.e1[::-1])
            h = polar_density(t)
            assert certify_polar(t, h) == {"polar_unimodular": True, "polar_reconstruction": True}
            rotated = TFunction(t.space, h.e1 * np.exp(1e-9j), h.e2)
            assert certify_polar(t, rotated)["polar_reconstruction"] is False

    @pytest.mark.parametrize("sigma", [1e-310, 1e-318])
    def test_polar_of_subnormal_complex_masses(self, sigma):
        # numpy divides w by |w| through 1 / |w|, which overflows here, and
        # |w| itself is rounded to a subnormal spacing.
        for mu, _ in _scaled_measures(sigma, count=30):
            t = TMeasure(mu.space, mu.e1 + 1j * mu.e2[::-1], mu.e2 - 1j * mu.e1[::-1])
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                h = polar_density(t)
            assert certify_polar(t, h) == {"polar_unimodular": True, "polar_reconstruction": True}

    def test_density_against_subnormal_reference_masses(self):
        # Atoms x0-x3 carry subnormal reference masses, where numpy's 1 / m
        # overflows; x4-x7 keep the bits of numpy's division.
        for mu, ref in _scaled_measures(1e-318, count=30):
            m = ref.c.real.copy()
            m[:, :4] *= 1e-318
            ref = TMeasure(ref.space, *m)
            res = lebesgue_radon_nikodym(mu, ref)
            assert res.density.is_finite()
            assert all(certify_lrn(mu, ref, res).values())
            assert res.density.c[:, 4:].tobytes() == (mu.c[:, 4:] / m[:, 4:]).tobytes()

    @pytest.mark.parametrize("lam_sigma, ref_sigma", [(1e-300, 1e30), (1e-318, 1e3)])
    def test_density_floor_follows_the_reference_mass(self, lam_sigma, ref_sigma):
        # A density that rounds below the normal range is multiplied back
        # by the reference mass, and so is its rounding.
        for mu, ref in _scaled_measures(lam_sigma, count=30, ref_sigma=ref_sigma):
            assert all(certify_lrn(mu, ref, lebesgue_radon_nikodym(mu, ref)).values())

    @pytest.mark.parametrize("mass", [1e6, 1e150])
    def test_tv_of_indefinite_integral_holds(self, mass):
        rng = np.random.default_rng(6)
        for _ in range(200):
            n = int(rng.integers(1, 9))
            space = FiniteSpace(tuple(f"x{i}" for i in range(n)))
            mu = TMeasure(space, *np.abs(rng.normal(0, mass, (2, n))))
            g = TFunction(space, *(rng.normal(size=(2, n)) + 1j * rng.normal(size=(2, n))))
            assert tv_of_indefinite_integral(g, mu, space.full()).equal

    def test_tv_floor_follows_the_measure(self):
        # |g|_D of a subnormal g is rounded before it meets the masses.
        rng = np.random.default_rng(7)
        for _ in range(50):
            space = FiniteSpace(tuple(f"x{i}" for i in range(6)))
            mu = TMeasure(space, *np.abs(rng.normal(0, 1e10, (2, 6))))
            g = TFunction(space, *(rng.normal(0, 1e-318, (2, 6)) * (1 + 1j)))
            assert tv_of_indefinite_integral(g, mu, space.full()).equal
