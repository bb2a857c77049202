"""Jordan, Hahn, polar and Lebesgue decompositions with subset oracles."""

import numpy as np
import pytest

from hypmeasure import (
    Bicomplex,
    FiniteSpace,
    HahnPartition,
    Hyperbolic,
    InternalInvariantError,
    SetMask,
    TFunction,
    TMeasure,
    abs_continuous,
    check_lattice_properties,
    epsilon_delta_witness,
    hahn,
    hahn_formulas_hold,
    is_concentrated,
    jordan,
    lebesgue_radon_nikodym,
    lrn_pair_is_valid,
    mutually_singular,
    polar_density,
    tv_of_indefinite_integral,
    variation_measure,
)


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
        assert hahn_formulas_hold(mu, p) == (True, True)

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
        assert hahn_formulas_hold(mu, hahn(mu)) == (True, True)
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

    def test_certifier_refuses_past_the_cap(self):
        space = FiniteSpace(tuple(f"x{i}" for i in range(21)))
        mu = TMeasure(space, np.ones(21), -np.ones(21))
        p = hahn(mu)
        with pytest.raises(ValueError, match="subset enumeration"):
            hahn_formulas_hold(mu, p)

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
        assert hahn_formulas_hold(mu, p) == (True, True)
        swapped = HahnPartition(A=p.A, B=p.B, C=p.D, D=p.C)
        assert hahn_formulas_hold(mu, swapped) == (False, False)

    def test_certifier_rejects_cells_of_another_space(self, space):
        mu = TMeasure.from_atoms(space, {"a": Bicomplex(1, 1)})
        other = FiniteSpace(("a", "c"))
        p = hahn(TMeasure.from_atoms(other, {"a": Bicomplex(1, 1)}))
        with pytest.raises(ValueError, match="space"):
            hahn_formulas_hold(mu, p)

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
        assert hahn_formulas_hold(mu, p) == (True, True)


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
        assert lrn_pair_is_valid(lam, mu, res.lambda_ac, res.lambda_sing)
        shift = TMeasure.from_atoms(space, {"a": Bicomplex(1, 0)})
        assert not lrn_pair_is_valid(
            lam, mu, res.lambda_ac + shift, res.lambda_sing - shift
        )
        off = TMeasure.from_atoms(space, {"b": Bicomplex(1, 0)})
        assert not lrn_pair_is_valid(
            lam, mu, res.lambda_ac + off, res.lambda_sing - off
        )

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
        mu = TMeasure.from_atoms(space, {"a": Bicomplex(1, 1)})
        delta = epsilon_delta_witness(TMeasure.zero(space), mu, Hyperbolic(1, 1))
        assert delta == Hyperbolic(1, 1)

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


class TestLattice:
    def test_constructed_instances_hold(self, space):
        mu = TMeasure.from_atoms(space, {"a": Bicomplex(1, 1)})
        lam_p = TMeasure.from_atoms(space, {"a": Bicomplex(2, -1j)})  # ac wrt mu
        lam_pp = TMeasure.from_atoms(space, {"b": Bicomplex(0, 3)})  # singular
        report = check_lattice_properties(lam_p + lam_pp, lam_p, lam_pp, mu)
        assert report.all_hold()

    def test_zero_forced_when_both(self, space):
        mu = TMeasure.from_atoms(space, {"a": Bicomplex(1, 1)})
        zero = TMeasure.zero(space)
        report = check_lattice_properties(zero, zero, zero, mu)
        assert report.all_hold()
        assert report.ac_and_singular_is_zero

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
