import pytest

from qloopk.braid import (BraidError, GaugeInvalid, RealizedTwist, TwistSpec,
                          braid_SX, cartan_correction, gauge_matrix, lusztig_T,
                          realize_twist, t_theta_matrix, theta_q_Fs)
from qloopk.linalg import Mat, invert
from qloopk.repcore import Rep, build_eval_rep_sl2, build_vector_rep_slN_eval
from qloopk.rootdata import (GradingShift, QSPParams, SatakeDiagram, affine_A,
                             build_Y0)
from qloopk.scalars import Rat, const, one, q, zero


@pytest.fixture(scope="module")
def d1():
    return SatakeDiagram(affine_A(1), (), (0, 1))


class TestLusztigOperators:
    def test_fundamental(self, fund):
        T = lusztig_T(fund, 1)
        assert T == Mat([[zero, one], [-q, zero]])

    def test_spin1(self, spin1):
        T = lusztig_T(spin1, 1)
        expect = Mat.zeros(3)
        expect.data[0][2] = one
        expect.data[1][1] = -(q ** 2)
        expect.data[2][0] = q ** 2
        assert T == expect

    def test_invertible(self, fund, spin1):
        for rep in (fund, spin1):
            T = lusztig_T(rep, 1)
            assert invert(T) @ T == Mat.identity(rep.dim)

    def test_braid_relation_sl3(self, vec3):
        T1, T2 = lusztig_T(vec3, 1), lusztig_T(vec3, 2)
        assert T1 @ T2 @ T1 == T2 @ T1 @ T2

    def test_conjugation_swaps_weight_operators(self, fund):
        # T K_1 T^{-1} = K_1^{-1} on the reflected module
        T = lusztig_T(fund, 1)
        assert T @ fund.K[1] @ invert(T) == fund.Kinv(1)

    def test_braid_SX_word(self, vec3):
        d = SatakeDiagram(affine_A(2), (1, 2), (0, 2, 1))
        assert d.wX_word() == (1, 2, 1)
        assert braid_SX(vec3, d) == (lusztig_T(vec3, 1) @ lusztig_T(vec3, 2)
                                     @ lusztig_T(vec3, 1))


class TestCartanCorrection:
    def test_fundamental_trivial(self, fund, d1):
        assert cartan_correction(fund, d1) == Mat.identity(2)

    def test_spin1(self, spin1, d1):
        assert cartan_correction(spin1, d1) == Mat.diagonal([one, q, one])

    def test_normalized_first_entry(self, vec3):
        d = SatakeDiagram(affine_A(2), (1, 2), (0, 2, 1))
        xi = cartan_correction(vec3, d)
        assert xi[0, 0] == one


class TestThetaQ:
    def test_onsager_theta_q_F(self, fund, d1):
        assert theta_q_Fs(fund, d1, [0, 1]) == {0: -fund.E[0], 1: -fund.E[1]}

    def test_rejects_X_nodes(self, vec3):
        d = SatakeDiagram(affine_A(2), (1, 2), (0, 2, 1))
        with pytest.raises(BraidError):
            theta_q_Fs(vec3, d, [0, 1])

    def test_weight_shape(self, spin1, d1):
        # theta_q(F_i) raises the classical weight by alpha_i for theta = -id
        M = theta_q_Fs(spin1, d1, [1])[1]
        for r in range(3):
            for c in range(3):
                if not M[r, c].is_zero():
                    assert r == c - 1


class TestTwists:
    def test_spec_roundtrip(self, d1):
        for spec in ("semi-standard", "standard"):
            ts = TwistSpec.from_json(d1, spec)
            assert TwistSpec.from_json(d1, ts.to_json()["gauge"]).gauge == spec
        aux = TwistSpec.from_json(d1, {"auxiliary": {"Y": [1]}})
        assert aux.Y == (1,)

    def test_unknown_gauge(self, d1):
        with pytest.raises(GaugeInvalid):
            TwistSpec.from_json(d1, "mystery")

    def test_admissibility_gamma_delta(self, d1):
        g0 = const("g0")
        good = QSPParams(d1, {0: g0.inv(), 1: g0}, {0: zero, 1: zero})
        bad = QSPParams(d1, {0: g0, 1: g0}, {0: zero, 1: zero})
        shift = GradingShift.tau_minimal(d1)
        tw = TwistSpec(d1, "semi-standard")
        tw.check_admissible(shift, good)
        with pytest.raises(GaugeInvalid):
            tw.check_admissible(shift, bad)

    def test_semi_standard_realization(self, fund, d1):
        rt = realize_twist(fund, TwistSpec(d1, "semi-standard"))
        assert rt.conjugator.is_identity()
        # omega tau pullback: E and F swap up to sign, K inverts
        assert rt.target.K[1] == fund.Kinv(1)

    def test_semi_standard_involutive(self, fund, d1):
        tw = TwistSpec(d1, "semi-standard")
        twice = realize_twist(realize_twist(fund, tw).target, tw).target
        for i in (0, 1):
            assert twice.E[i] == fund.E[i]
            assert twice.F[i] == fund.F[i]
            assert twice.K[i] == fund.K[i]

    def test_auxiliary_fixes_selfdual_point(self, d1):
        V = build_eval_rep_sl2(1, one)
        rt = realize_twist(V, TwistSpec(d1, "auxiliary", Y=(1,)))
        for i in (0, 1):
            assert rt.target.E[i] == V.E[i]
            assert rt.target.F[i] == V.F[i]
            assert rt.target.K[i] == V.K[i]

    def test_auxiliary_rejects_wrong_Y(self, fund, d1):
        # tau(0) = 0 on d1, so the auxiliary gauge needs Y = (1,)
        with pytest.raises(GaugeInvalid, match="nodes minus"):
            realize_twist(fund, TwistSpec(d1, "auxiliary", Y=()))

    def test_auxiliary_inverts_evaluation_point(self, fund, a, d1):
        rt = realize_twist(fund, TwistSpec(d1, "auxiliary", Y=(1,)))
        mirror = build_eval_rep_sl2(1, a.inv())
        for i in (0, 1):
            assert rt.target.E[i] == mirror.E[i]
            assert rt.target.F[i] == mirror.F[i]
            assert rt.target.K[i] == mirror.K[i]

    def test_t_theta_invertible(self, fund, spin1, d1):
        for rep in (fund, spin1):
            M = t_theta_matrix(rep, d1)
            assert invert(M) @ M == Mat.identity(rep.dim)


def _realize_twist_reference(rep, spec):
    """(conjugator, target) of the twist realized at the module's own point,
    with the pullback along ω∘τ written out: realize_twist as it was before
    the orbit rule."""
    nodes, tau = rep.cartan.nodes, spec.diagram.tau
    pulled = Rep(rep.cartan, rep.dim, {i: -rep.F[tau[i]] for i in nodes},
                 {i: -rep.E[tau[i]] for i in nodes},
                 {i: rep.Kinv(tau[i]) for i in nodes},
                 tuple(tuple(-wt[tau[i]] for i in nodes) for wt in rep.weights))
    if spec.gauge == "semi-standard":
        return Mat.identity(rep.dim), pulled
    C = gauge_matrix(rep, spec) @ invert(t_theta_matrix(pulled, spec.diagram))
    return C, pulled.conjugated(C)


def _twist_specs(diagram):
    # the realization takes any diagonal values; admissibility is solve_K's
    beta = {i: const("g0") ** (i + 1) for i in diagram.cartan.nodes}
    return {"semi-standard": TwistSpec(diagram, "semi-standard"),
            "standard": TwistSpec(diagram, "standard"),
            "auxiliary": TwistSpec(diagram, "auxiliary",
                                   Y=build_Y0(diagram).X),
            "diagonal": TwistSpec(diagram, "diagonal", beta=beta)}


ORACLE_MODULES = {
    "spin1/2": (lambda x: build_eval_rep_sl2(1, x), (0, 1)),
    "spin1": (lambda x: build_eval_rep_sl2(2, x), (0, 1)),
    "spin3/2": (lambda x: build_eval_rep_sl2(3, x), (0, 1)),
    "sl3": (lambda x: build_vector_rep_slN_eval(3, x), (0, 2, 1)),
}


class TestRealizationOracle:
    """realize_twist, which realizes the twist of V_a as that of its
    unit-point module at the point a⁻¹, against the realization at the
    module's own point."""

    @pytest.mark.parametrize("gauge", ["semi-standard", "standard",
                                       "auxiliary", "diagonal"])
    @pytest.mark.parametrize("module", ORACLE_MODULES)
    def test_matches_own_point(self, a, module, gauge):
        build, tau = ORACLE_MODULES[module]
        diagram = SatakeDiagram(affine_A(len(tau) - 1), (), tau)
        spec = _twist_specs(diagram)[gauge]
        for x in (a, Rat(2), 1 + q, Rat(-1), one):
            V = build(x)
            realized = realize_twist(V, spec)
            C, target = _realize_twist_reference(V, spec)
            assert realized.conjugator == C
            assert realized.target.weights == target.weights
            assert realized.target.same_action(target)
            assert realized.target.point == x.inv()
