import dataclasses

import pytest

from qloopk.braid import GaugeInvalid, TwistSpec
from qloopk.cli import Scenario, _load_scenario
from qloopk.kmat import (AmbiguousNormalization, KernelDimension, KmatError,
                         NotRestrictable, check_intertwining, convert_grading,
                         gauge_matrix, qsp_generators, solve_K,
                         verify_K_unitarity, verify_gre, verify_standard_re)
from qloopk.linalg import Mat
from qloopk.repcore import build_eval_rep_sl2
from qloopk.rootdata import (GradingShift, QSPParams, SatakeDiagram, affine_A)
from qloopk.scalars import PoleAtPoint, Rat, const, one, parse, zero


@pytest.fixture(scope="module")
def K_fund(fund, onsager):
    o = onsager
    return solve_K(fund, o["twist"], o["shift"], o["params"])


class TestGenerators:
    def test_onsager_B0(self, fund, onsager):
        o = onsager
        gens = dict(qsp_generators(fund, o["params"], o["shift"],
                                   parse("z")))
        B0 = gens["B0"]
        # z^{-1} F_0 - gamma_0 z E_0 + sigma_0 K_0^{-1}
        assert B0[0, 1] == parse("1/(z*a)")
        assert B0[1, 0] == -(o["g0"].inv() * parse("z*a"))
        assert B0[0, 0] == const("s0") * parse("q")

    def test_X_node_untwisted(self, vec3):
        d = SatakeDiagram(affine_A(2), (1, 2), (0, 2, 1))
        params = QSPParams(d, {0: const("g0"), 1: one, 2: one},
                           {0: zero, 1: zero, 2: zero})
        shift = GradingShift.tau_minimal(d)
        gens = dict(qsp_generators(vec3, params, shift, parse("z")))
        assert gens["B1"] == vec3.F[1]
        assert "E1" in gens and "K1" in gens and "K1^-1" in gens
        # restricted rank one: no extra Cartan generators
        assert not any(k.startswith("Kh") for k in gens)


class TestSolve:
    def test_kernel_line_and_residual(self, fund, onsager, K_fund):
        o = onsager
        assert K_fund.kernel_dim == 1
        rep = check_intertwining(K_fund.matrix, fund, K_fund.realized,
                                 o["shift"], o["params"])
        assert rep.ok, rep.detail

    def test_fundamental_entries(self, K_fund):
        K = K_fund.matrix
        den = parse("q*z^2*a^2 - q")
        assert K[0, 0] == one
        assert K[1, 1] == const("g0")
        assert K[0, 1] == parse("q^2*z*a*g0*s0 - q^2*s1 - z*a*g0*s0 + s1") / den
        assert K[1, 0] == parse("q^2*z^2*a^2*s1 - q^2*z*a*g0*s0"
                                " - z^2*a^2*s1 + z*a*g0*s0") / den

    def test_noncanonical_flag(self, K_fund):
        assert K_fund.normalization["mode"] == "first-entry"
        assert K_fund.normalization["flag"] == "non-canonical"

    def test_spin1(self, spin1, onsager):
        o = onsager
        res = solve_K(spin1, o["twist"], o["shift"], o["params"])
        assert res.kernel_dim == 1
        assert res.matrix.shape() == (3, 3)

    def test_gauge_normalization_sigma0(self, fund, onsager_sigma0):
        o = onsager_sigma0
        res = solve_K(fund, o["twist"], o["shift"], o["params"])
        assert res.normalization["mode"] == "gauge-hw"
        assert res.matrix == Mat.diagonal([one, o["g0"]])

    def test_inadmissible_gamma(self, fund, onsager):
        d = onsager["diagram"]
        g0 = onsager["g0"]
        bad = QSPParams(d, {0: g0, 1: g0}, {0: zero, 1: zero})
        with pytest.raises(GaugeInvalid):
            solve_K(fund, onsager["twist"], onsager["shift"], bad)

    def test_regular_at_zero(self, K_fund):
        at0 = K_fund.matrix.substitute({"z": zero})
        assert at0[0, 0] == one


class TestGRE:
    def test_exact(self, fund, fund_b, onsager, K_fund):
        o = onsager
        rep = verify_gre(fund, fund_b, o["twist"], o["shift"], o["params"],
                         KV=K_fund)
        assert rep.ok, rep.detail

    def test_monomial_rescaling_invariance(self, fund, fund_b, onsager, K_fund):
        o = onsager
        scaled = dataclasses.replace(
            K_fund, matrix=K_fund.matrix.scale(parse("q*z^2")))
        rep = verify_gre(fund, fund_b, o["twist"], o["shift"], o["params"],
                         KV=scaled)
        assert rep.ok, rep.detail

    def test_perturbed_entry_fails(self, fund, fund_b, onsager, K_fund):
        o = onsager
        bad_m = Mat([row[:] for row in K_fund.matrix.data])
        bad_m.data[0][0] = bad_m.data[0][0] + parse("z")
        bad = dataclasses.replace(K_fund, matrix=bad_m)
        rep = verify_gre(fund, fund_b, o["twist"], o["shift"], o["params"],
                         KV=bad)
        assert not rep.ok
        assert rep.detail == (
            "residual at (0,1): (q^6*z^2*a*s1 - q^4*z^2*w*a*b*g0*s0"
            " - 2*q^4*z^2*a*s1 + 2*q^2*z^2*w*a*b*g0*s0 + q^2*z^2*a*s1"
            " - z^2*w*a*b*g0*s0)/(q^5*z*a - q^3*z^2*w*a^2*b - q^3*w*b"
            " + q*z*w^2*a*b^2)")
        rep = check_intertwining(bad_m, fund, K_fund.realized,
                                 o["shift"], o["params"])
        assert rep.detail == "B0 residual at (0,0): (q^2*z*s0 - z*s0)/(q)"


class TestStandardRE:
    def test_exact_at_selfdual_point(self, onsager):
        o = onsager
        V = build_eval_rep_sl2(1, one)
        W = build_eval_rep_sl2(1, one)
        rep = verify_standard_re(V, W, o["params"], o["shift"])
        assert rep.ok, rep.detail

    def test_equal_modules_solved_once(self, onsager, monkeypatch):
        # V = W reuses K_V and R_VW; the report is the one two separately
        # built equal modules give, and an unequal pair still solves twice
        from qloopk import kmat
        o = onsager
        V = build_eval_rep_sl2(1, one)
        expected = verify_standard_re(V, build_eval_rep_sl2(1, one),
                                      o["params"], o["shift"])
        calls = []

        def counted(name):
            solve = getattr(kmat, name)

            def wrapper(*args, **kwargs):
                calls.append(name)
                return solve(*args, **kwargs)
            return wrapper

        for name in ("solve_K", "solve_R"):
            monkeypatch.setattr(kmat, name, counted(name))
        assert verify_standard_re(V, V, o["params"], o["shift"]) == expected
        assert sorted(calls) == ["solve_K", "solve_R"]
        calls.clear()
        rep = verify_standard_re(V, build_eval_rep_sl2(2, one),
                                 o["params"], o["shift"])
        assert rep.ok, rep.detail
        assert sorted(calls) == ["solve_K", "solve_K", "solve_R", "solve_R"]

    def test_not_restrictable(self, onsager):
        d = SatakeDiagram(affine_A(2), (), (1, 0, 2))
        params = QSPParams(d, {i: one for i in range(3)},
                           {i: zero for i in range(3)})
        shift = GradingShift.tau_minimal(d)
        V = build_eval_rep_sl2(1, one)
        with pytest.raises(NotRestrictable):
            verify_standard_re(V, V, params, shift)

    def test_moved_evaluation_point_reported(self, fund, onsager):
        # the boundary twist inverts the evaluation point, so a generic
        # module is not fixed and the standard form is unavailable
        o = onsager
        rep = verify_standard_re(fund, fund, o["params"], o["shift"])
        assert not rep.ok
        assert rep.detail == "twist does not fix V; standard form unavailable"


class TestSpin1Scenario:
    """The shipped spin-1 scenario, as ``kmatrix verify-gre`` and
    ``kmatrix verify-re`` build it."""

    def test_gre(self):
        sc = Scenario(_load_scenario("qonsager-sl2-spin1"), {})
        rep = verify_gre(sc.reps["V"], sc.reps["W"], sc.twist, sc.shift,
                         sc.params)
        assert rep.ok, rep.detail

    def test_standard_re(self):
        sc = Scenario.stage(_load_scenario("qonsager-sl2-spin1"), "verify-re", {})
        rep = verify_standard_re(sc.reps["V"], sc.reps["W"], sc.params, sc.shift)
        assert rep.ok, rep.detail


class TestUnitarity:
    def test_paired_normalization(self, fund, onsager_sigma0):
        o = onsager_sigma0
        rep = verify_K_unitarity(fund, o["twist"], o["shift"], o["params"])
        assert rep.ok, rep.detail

    def test_spin1_alignment_limit_reported(self, spin1, onsager_sigma0):
        # beyond the fundamental module the intertwiner has z-dependent
        # components below the top vector, so the strict gauge alignment
        # fails and the check reports instead of asserting
        o = onsager_sigma0
        rep = verify_K_unitarity(spin1, o["twist"], o["shift"], o["params"])
        assert not rep.ok
        assert rep.detail == "source K not gauge-normalizable"

    def test_generic_sigma_reported(self, fund, onsager):
        o = onsager
        rep = verify_K_unitarity(fund, o["twist"], o["shift"], o["params"])
        assert not rep.ok
        assert rep.detail == "source K not gauge-normalizable"


class TestConversion:
    def test_matches_direct_solve(self, fund, onsager):
        o = onsager
        Kpr = solve_K(fund, o["twist"],
                      GradingShift.principal(o["cartan"]), o["params"])
        converted = convert_grading(Kpr, fund)
        direct = solve_K(fund, o["twist"], o["shift"], o["params"])
        ratio = None
        for i in range(2):
            for j in range(2):
                x, y = converted[i, j], direct.matrix[i, j]
                assert x.is_zero() == y.is_zero()
                if not x.is_zero():
                    r = x / y
                    ratio = ratio if ratio is not None else r
                    assert r == ratio

    def test_converted_satisfies_tau_minimal_system(self, fund, onsager):
        o = onsager
        Kpr = solve_K(fund, o["twist"],
                      GradingShift.principal(o["cartan"]), o["params"])
        converted = convert_grading(Kpr, fund)
        direct = solve_K(fund, o["twist"], o["shift"], o["params"])
        rep = check_intertwining(converted, fund, direct.realized,
                                 o["shift"], o["params"])
        assert rep.ok, rep.detail


class TestGaugeMatrix:
    def test_diagonal_rejects_half_integral_weights(self, fund, onsager):
        # weights shifted by 1/2 pair non-integrally with the coroots; the
        # diagonal gauge used to truncate them to [[bb, 0], [0, 1]]
        from fractions import Fraction

        from qloopk.braid import realize_twist
        half = Fraction(1, 2)
        shifted = dataclasses.replace(
            fund, weights=tuple(tuple(x + half for x in wt) for wt in fund.weights))
        spec = TwistSpec(onsager["diagram"], "diagonal", beta={1: const("bb")})
        with pytest.raises(GaugeInvalid):
            gauge_matrix(shifted, spec)
        with pytest.raises(GaugeInvalid):
            realize_twist(shifted, spec)
