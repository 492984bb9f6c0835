import pytest

from qloopk.braid import (BraidError, GaugeInvalid, TwistSpec, braid_SX,
                          cartan_correction, gauge_matrix, lusztig_T,
                          realize_twist, t_theta_matrix, theta_q_Fs)
from qloopk.linalg import Mat, invert
from qloopk.repcore import (Rep, build_eval_rep_sl2, build_vector_rep_slN_eval,
                            verify_relations)
from qloopk.rootdata import GradingShift, QSPParams, SatakeDiagram, affine_A
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
        assert aux.to_json() == {"gauge": {"auxiliary": {"Y": [1]}}}
        assert TwistSpec.from_json(d1, aux.to_json()["gauge"]) == aux

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
        Vt = realize_twist(fund, TwistSpec(d1, "semi-standard"))
        # omega tau pullback: E and F swap up to sign, K inverts
        assert Vt.K[1] == fund.Kinv(1)
        assert Vt.E[1] == -fund.F[1] and Vt.F[1] == -fund.E[1]

    def test_semi_standard_involutive(self, fund, d1):
        tw = TwistSpec(d1, "semi-standard")
        twice = realize_twist(realize_twist(fund, tw), tw)
        for i in (0, 1):
            assert twice.E[i] == fund.E[i]
            assert twice.F[i] == fund.F[i]
            assert twice.K[i] == fund.K[i]

    def test_auxiliary_fixes_selfdual_point(self, d1):
        V = build_eval_rep_sl2(1, one)
        Vt = realize_twist(V, TwistSpec(d1, "auxiliary"))
        for i in (0, 1):
            assert Vt.E[i] == V.E[i]
            assert Vt.F[i] == V.F[i]
            assert Vt.K[i] == V.K[i]

    def test_auxiliary_rejects_wrong_Y(self, d1):
        # tau(0) = 0 on d1, so the auxiliary gauge needs Y = (1,)
        for Y in ([], [0, 1], [1, 1]):
            with pytest.raises(GaugeInvalid, match="nodes minus"):
                TwistSpec.from_json(d1, {"auxiliary": {"Y": Y}})

    def test_auxiliary_Y_is_derived(self):
        # on affine sl3, Y = nodes minus {0, tau(0)}, read in any order
        for tau, Y in (((0, 2, 1), (1, 2)), ((1, 0, 2), (2,))):
            d = SatakeDiagram(affine_A(2), (), tau)
            assert TwistSpec(d, "auxiliary").Y == Y
            aux = TwistSpec.from_json(d, {"auxiliary": {"Y": list(reversed(Y))}})
            assert aux == TwistSpec(d, "auxiliary") and aux.Y == Y
            with pytest.raises(GaugeInvalid):
                TwistSpec.from_json(d, {"auxiliary": {"Y": [1]}})

    def test_auxiliary_inverts_evaluation_point(self, fund, a, d1):
        Vt = realize_twist(fund, TwistSpec(d1, "auxiliary"))
        mirror = build_eval_rep_sl2(1, a.inv())
        for i in (0, 1):
            assert Vt.E[i] == mirror.E[i]
            assert Vt.F[i] == mirror.F[i]
            assert Vt.K[i] == mirror.K[i]

    def test_t_theta_invertible(self, fund, spin1, d1):
        for rep in (fund, spin1):
            M = t_theta_matrix(rep, d1)
            assert invert(M) @ M == Mat.identity(rep.dim)

    @pytest.mark.parametrize("X", [(), (1,), (0,)])
    def test_t_theta_shared_on_the_orbit(self, fund, fund_b, X):
        # t_theta reads the weights and the nodes of X only: with node 0
        # outside X, V_a and V_b share the matrix of their unit-point module,
        # which equals the product built directly on each
        d = SatakeDiagram(affine_A(1), X, (0, 1))
        for rep in (fund, fund_b):
            assert t_theta_matrix(rep, d) == (cartan_correction(rep, d)
                                              @ braid_SX(rep, d))
        shared = t_theta_matrix(fund, d) is t_theta_matrix(fund_b, d)
        assert shared == (0 not in X)


def _realize_twist_reference(rep, spec):
    """The twist realized at the module's own point, with the pullback along
    ω∘τ written out: realize_twist as it was before the orbit rule."""
    nodes, tau = rep.cartan.nodes, spec.diagram.tau
    pulled = Rep(rep.cartan, rep.dim, {i: -rep.F[tau[i]] for i in nodes},
                 {i: -rep.E[tau[i]] for i in nodes},
                 {i: rep.Kinv(tau[i]) for i in nodes},
                 tuple(tuple(-wt[tau[i]] for i in nodes) for wt in rep.weights))
    if spec.gauge == "semi-standard":
        return pulled
    C = gauge_matrix(rep, spec) @ invert(t_theta_matrix(pulled, spec.diagram))
    return pulled.conjugated(C)


def _twist_specs(diagram):
    # the realization takes any diagonal values; admissibility is solve_K's
    beta = {i: const("g0") ** (i + 1) for i in diagram.cartan.nodes}
    return {"semi-standard": TwistSpec(diagram, "semi-standard"),
            "standard": TwistSpec(diagram, "standard"),
            "auxiliary": TwistSpec(diagram, "auxiliary"),
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
            Vt = realize_twist(V, spec)
            target = _realize_twist_reference(V, spec)
            assert Vt.weights == target.weights
            assert Vt.same_action(target)
            assert Vt.point == x.inv()

    @pytest.mark.parametrize("gauge", ["semi-standard", "standard",
                                       "auxiliary", "diagonal"])
    @pytest.mark.parametrize("module", ORACLE_MODULES)
    def test_twist_is_a_module(self, a, module, gauge):
        build, tau = ORACLE_MODULES[module]
        diagram = SatakeDiagram(affine_A(len(tau) - 1), (), tau)
        spec = _twist_specs(diagram)[gauge]
        for x in (a, Rat(2), 1 + q, Rat(-1), one):
            report = verify_relations(realize_twist(build(x), spec))
            assert report.ok, (x, report.failures)
