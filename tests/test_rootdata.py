from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qloopk.rootdata import (CartanDatum, GradingShift, QSPParams,
                             RootDataError, RootVec, SatakeDiagram, affine_A,
                             bilinear, build_Y0, classical_in_root_basis,
                             longest_element, opposition_involution,
                             positive_roots, reflect, rho, shift_exponent,
                             theta_on_coroots, theta_on_roots, validate_gsat,
                             validate_params, weyl_act)
from qloopk.scalars import Rat, const, one, zero


def rv(cd, *coords):
    return RootVec(cd, tuple(Fraction(c) for c in coords))


class TestCartanDatum:
    def test_affine_a1(self):
        cd = affine_A(1)
        assert cd.a[0] == (2, -2) and cd.a[1] == (-2, 2)
        assert cd.marks == (1, 1)

    def test_affine_a2(self):
        cd = affine_A(2)
        assert cd.rank == 2
        for i in range(3):
            assert cd.a[i][i] == 2
            assert cd.a[i][(i + 1) % 3] == -1

    def test_delta_kills_coroots(self):
        cd = affine_A(2)
        d = cd.delta()
        for i in cd.nodes:
            assert d.pair_coroot(i) == 0

    def test_bilinear_symmetry(self):
        cd = affine_A(3)
        x, y = cd.alpha(1), cd.alpha(2)
        assert bilinear(x, y) == bilinear(y, x) == Fraction(-1)
        assert bilinear(x, x) == Fraction(2)


class TestWeyl:
    def test_reflection_involution(self):
        cd = affine_A(2)
        mu = rv(cd, 1, 2, -1)
        assert reflect(reflect(mu, 1), 1).coords == mu.coords

    def test_positive_roots_a2(self):
        cd = affine_A(2)
        assert len(positive_roots(cd, (1, 2))) == 3

    def test_longest_word_a2(self):
        cd = affine_A(2)
        assert longest_element(cd, (1, 2)) == (1, 2, 1)

    def test_longest_word_negates_positives(self):
        cd = affine_A(3)
        X = (1, 2, 3)
        word = longest_element(cd, X)
        for beta in positive_roots(cd, X):
            img = weyl_act(cd, word, beta)
            assert all(c <= 0 for c in img.coords)

    def test_opposition_involution_a2(self):
        cd = affine_A(2)
        oi = opposition_involution(cd, (1, 2))
        assert oi[1] == 2 and oi[2] == 1


class TestValidation:
    def test_valid_onsager(self):
        assert validate_gsat(affine_A(1), (), (0, 1)).valid

    def test_valid_with_X(self):
        assert validate_gsat(affine_A(2), (1, 2), (0, 2, 1)).valid

    def test_gsat2_violation(self):
        rep = validate_gsat(affine_A(2), (1,), (0, 1, 2))
        assert not rep.valid and rep.condition == "gsat.2"

    def test_tau_not_involution(self):
        cd = affine_A(2)
        rep = validate_gsat(cd, (), (1, 2, 0))
        assert not rep.valid and rep.condition == "tau"

    def test_X_proper(self):
        cd = affine_A(1)
        rep = validate_gsat(cd, (0, 1), (0, 1))
        assert not rep.valid and rep.condition == "gsat.1"

    def test_diagram_constructor_rejects(self):
        with pytest.raises(RootDataError):
            SatakeDiagram(affine_A(2), (1,), (0, 1, 2))

    def test_params_gamma_nonzero(self):
        d = SatakeDiagram(affine_A(1), (), (0, 1))
        rep = validate_params(d, {0: zero, 1: one}, {0: zero, 1: zero})
        assert not rep.valid and rep.condition == "params.gamma"

    def test_params_sigma_outside_Ins(self):
        # on the affine sl3 diagram with tau = id, off-diagonal entries are
        # odd, so every sigma is forced to vanish
        d = SatakeDiagram(affine_A(2), (), (0, 1, 2))
        assert d.I_ns() == {0, 1, 2}
        rep = validate_params(d, {i: one for i in range(3)},
                              {0: const("s0"), 1: zero, 2: zero})
        assert not rep.valid and rep.condition == "params.sigma"

    def test_params_valid_onsager(self):
        d = SatakeDiagram(affine_A(1), (), (0, 1))
        g = const("g0")
        rep = validate_params(d, {0: g.inv(), 1: g},
                              {0: const("s0"), 1: const("s1")})
        assert rep.valid
        QSPParams(d, {0: g.inv(), 1: g}, {0: const("s0"), 1: const("s1")})


class TestTheta:
    @pytest.mark.parametrize("n,X,tau", [
        (1, (), (0, 1)),
        (2, (1, 2), (0, 2, 1)),
        (3, (2,), (0, 3, 2, 1)),
    ])
    def test_involution_on_roots(self, n, X, tau):
        d = SatakeDiagram(affine_A(n), X, tau)
        for i in d.cartan.nodes:
            al = d.cartan.alpha(i)
            assert theta_on_roots(d, theta_on_roots(d, al)).coords == al.coords

    def test_theta_negates_delta(self):
        d = SatakeDiagram(affine_A(2), (1, 2), (0, 2, 1))
        img = theta_on_roots(d, d.cartan.delta())
        assert img.coords == tuple(-c for c in d.cartan.delta().coords)

    def test_onsager_theta_is_minus_id(self):
        d = SatakeDiagram(affine_A(1), (), (0, 1))
        for i in (0, 1):
            al = d.cartan.alpha(i)
            assert theta_on_roots(d, al).coords == tuple(-c for c in al.coords)

    def test_theta_fixes_X_roots(self):
        d = SatakeDiagram(affine_A(2), (1, 2), (0, 2, 1))
        beta = d.cartan.alpha(1)
        img = theta_on_roots(d, beta)
        # theta restricted to the span of X-roots is -w_X tau, an
        # automorphism of that root system
        assert img.coords[0] == 0

    def test_coroot_involution(self):
        d = SatakeDiagram(affine_A(3), (2,), (0, 3, 2, 1))
        e = (Fraction(1), Fraction(0), Fraction(0), Fraction(0))
        assert theta_on_coroots(d, theta_on_coroots(d, e)) == e


class TestShifts:
    def test_tau_minimal_onsager(self):
        d = SatakeDiagram(affine_A(1), (), (0, 1))
        assert GradingShift.tau_minimal(d).s == (1, 0)

    def test_tau_minimal_with_moved_zero(self):
        d = SatakeDiagram(affine_A(2), (), (1, 0, 2))
        assert GradingShift.tau_minimal(d).s == (1, 1, 0)

    def test_principal(self):
        cd = affine_A(2)
        assert GradingShift.principal(cd).s == (1, 1, 1)

    def test_exponent_on_delta(self):
        cd = affine_A(2)
        sh = GradingShift.principal(cd)
        assert sh.exponent(cd.delta()) == Fraction(3)

    def test_shift_exponent_integrality(self):
        d = SatakeDiagram(affine_A(1), (), (0, 1))
        sh = GradingShift.tau_minimal(d)
        assert shift_exponent(sh, d.cartan.alpha(0)) == 1
        half = RootVec(d.cartan, (Fraction(1, 2), Fraction(0)))
        with pytest.raises(RootDataError):
            shift_exponent(sh, half)

    def test_tau_invariance(self):
        d = SatakeDiagram(affine_A(2), (), (1, 0, 2))
        s = GradingShift.tau_minimal(d).s
        assert all(s[d.tau[i]] == s[i] for i in d.cartan.nodes)


class TestAuxiliary:
    def test_build_Y0_onsager(self):
        d = SatakeDiagram(affine_A(1), (), (0, 1))
        y0 = build_Y0(d)
        assert y0.X == (1,) and y0.tau == (0, 1)

    def test_build_Y0_restricted_rank_one(self):
        d = SatakeDiagram(affine_A(2), (), (0, 1, 2))
        y0 = build_Y0(d)
        assert y0.restricted_rank() == 1

    def test_classical_lift_a1(self):
        cd = affine_A(1)
        lam = classical_in_root_basis(cd, [Fraction(1)])
        assert lam.coords == (Fraction(0), Fraction(1, 2))

    def test_classical_lift_pairs_back(self):
        cd = affine_A(3)
        vals = [Fraction(2), Fraction(-1), Fraction(1)]
        lam = classical_in_root_basis(cd, vals)
        for i, v in enumerate(vals, start=1):
            assert lam.pair_coroot(i) == v
