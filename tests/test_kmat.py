import dataclasses

import pytest

from qloopk import braid, cli, kmat, rmat
from qloopk.braid import GaugeInvalid, TwistSpec, realize_twist
from qloopk.cli import Scenario, _load_scenario
from qloopk.kmat import (AmbiguousNormalization, KmatError,
                         KMatrixResult, NotRestrictable, check_intertwining,
                         convert_grading, gauge_matrix, normalize_K,
                         normalize_K_paired, qsp_generators, solve_K,
                         verify_K_unitarity, verify_gre, verify_standard_re)
from qloopk.linalg import Mat, intertwiner_kernel, kron, permute, swap
from qloopk.repcore import (build_eval_rep_sl2, build_vector_rep_slN_eval,
                             pullback_chevalley_tau)
from qloopk.rmat import CheckReport, check_product, solve_R
from qloopk.rootdata import GradingShift, QSPParams, SatakeDiagram, affine_A
from qloopk.scalars import PoleAtPoint, Rat, const, one, parse, q, w, z, zero


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
        rep = check_intertwining(K_fund.matrix, fund, K_fund.target,
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
        rep = check_intertwining(bad_m, fund, K_fund.target,
                                 o["shift"], o["params"])
        assert rep.detail == "B0 residual at (0,0): (q^2*z*s0 - z*s0)/(q)"

    def test_twisted_modules_solved_apart(self, fund, fund_b, onsager, K_fund,
                                          monkeypatch):
        # the semi-standard twist moves both evaluation points, so V, W and
        # their twisted modules are four distinct modules and need four R
        o = onsager
        pairs = []
        monkeypatch.setattr(kmat, "_R_at", lambda X, Y, z: pairs.append((X, Y))
                            or rmat._R_at(X, Y, z))
        rep = verify_gre(fund, fund_b, o["twist"], o["shift"], o["params"],
                         KV=K_fund)
        assert rep.ok, rep.detail
        assert len(pairs) == 4
        assert not any(X.same_module(X0) and Y.same_module(Y0)
                       for i, (X, Y) in enumerate(pairs)
                       for X0, Y0 in pairs[:i])

    def test_each_R_substituted_once(self, fund, fund_b, onsager, K_fund,
                                     monkeypatch):
        # each nonzero entry of the four unit-point R-matrices goes through
        # Rat.substitute once, straight to its spectral value; the only other
        # substitution is K_W at w
        o = onsager
        KW = solve_K(fund_b, o["twist"], o["shift"], o["params"])
        units = [rmat._solve_unit(X.unit, Y.unit).matrix for X, Y in
                 ((fund, fund_b), (KW.target, K_fund.target),
                  (K_fund.target, fund_b), (KW.target, fund))]
        calls = []
        original = Rat.substitute
        monkeypatch.setattr(Rat, "substitute", lambda x, at: calls.append(x)
                            or original(x, at))
        rep = verify_gre(fund, fund_b, o["twist"], o["shift"], o["params"],
                         KV=K_fund, KW=KW)
        assert rep.ok, rep.detail

        def nonzeros(m):
            return [x for row in m.data for x in row if not x.is_zero()]

        assert not any(x.is_zero() for x in calls)
        assert len(calls) == sum(map(len, map(nonzeros, units + [KW.matrix])))
        ids = {id(x) for x in calls}
        for m in units:
            assert {id(x) for x in nonzeros(m)} <= ids


class TestStandardRE:
    def test_exact_at_selfdual_point(self, onsager):
        o = onsager
        V = build_eval_rep_sl2(1, one)
        W = build_eval_rep_sl2(1, one)
        rep = verify_standard_re(V, W, o["params"], o["shift"])
        assert rep.ok, rep.detail

    def test_equal_modules_solved_once(self, onsager, monkeypatch):
        # V = W eliminates K and R once; the report is the one two separately
        # built equal modules give, and an unequal pair eliminates each twice
        o = onsager
        V = build_eval_rep_sl2(1, one)
        expected = verify_standard_re(V, build_eval_rep_sl2(1, one),
                                      o["params"], o["shift"])
        calls = []

        def spy(name):
            def counted(*args):
                calls.append(name)
                return intertwiner_kernel(*args)
            return counted

        def cold():
            calls.clear()
            kmat._solve_unit.cache_clear()
            rmat._solve_unit.cache_clear()

        monkeypatch.setattr(kmat, "intertwiner_kernel", spy("K"))
        monkeypatch.setattr(rmat, "intertwiner_kernel", spy("R"))
        cold()
        assert verify_standard_re(V, V, o["params"], o["shift"]) == expected
        assert sorted(calls) == ["K", "R"]
        cold()
        rep = verify_standard_re(V, build_eval_rep_sl2(2, one),
                                 o["params"], o["shift"])
        assert rep.ok, rep.detail
        assert sorted(calls) == ["K", "K", "R", "R"]

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


def _auxiliary(diagram):
    return TwistSpec(diagram, "auxiliary")


def _standard_re_reference(V, W, KV, KW):
    """Differential oracle: the standard reflection equation
    R_21(w/z) K_2(w) R(zw) K_1(z) = K_1(z) R_21(zw) K_2(w) R(w/z), with
    R_21 the flipped R(W, V), written out independently of verify_gre."""
    R_VW = solve_R(V, W).matrix
    R_21 = permute(solve_R(W, V).matrix, swap(W.dim, V.dim))
    Kv = kron(KV.matrix, Mat.identity(W.dim))
    Kw = kron(Mat.identity(V.dim), KW.matrix.substitute({"z": w}))
    return check_product(
        [R_21.substitute({"z": w / z}), Kw, R_VW.substitute({"z": z * w}), Kv],
        [Kv, R_21.substitute({"z": z * w}), Kw, R_VW.substitute({"z": w / z})])


class TestStandardREOracle:
    """verify_standard_re, which checks the generalized reflection equation
    under the auxiliary twist, against the standard product written out."""

    @pytest.mark.parametrize("spins", [(1, 1), (1, 2), (2, 2)],
                             ids=["fund-fund", "fund-spin1", "spin1-spin1"])
    def test_same_report(self, onsager, spins):
        o = onsager
        V, W = (build_eval_rep_sl2(s, one) for s in spins)
        twist = _auxiliary(o["diagram"])
        KV, KW = (solve_K(M, twist, o["shift"], o["params"]) for M in (V, W))
        expected = _standard_re_reference(V, W, KV, KW)
        assert expected == CheckReport(True)
        assert verify_standard_re(V, W, o["params"], o["shift"]) == expected

    def test_perturbed_K_same_detail(self, onsager):
        o = onsager
        V, W = build_eval_rep_sl2(1, one), build_eval_rep_sl2(2, one)
        twist = _auxiliary(o["diagram"])
        KV, KW = (solve_K(M, twist, o["shift"], o["params"]) for M in (V, W))
        bad_m = Mat([row[:] for row in KV.matrix.data])
        bad_m.data[0][0] = bad_m.data[0][0] + parse("z")
        bad = dataclasses.replace(KV, matrix=bad_m)
        expected = _standard_re_reference(V, W, bad, KW)
        assert not expected.ok
        assert verify_gre(V, W, twist, o["shift"], o["params"],
                          bad, KW) == expected


class TestSpin1Scenario:
    """The shipped spin-1 scenario, as ``kmatrix verify-gre`` and
    ``kmatrix verify-re`` build it."""

    def test_gre(self):
        sc = Scenario(_load_scenario("qonsager-sl2-spin1"), {})
        rep = verify_gre(sc.reps["V"], sc.reps["W"], sc.twist, sc.shift,
                         sc.params)
        assert rep.ok, rep.detail

    def test_standard_re(self):
        sc = Scenario(_load_scenario("qonsager-sl2-spin1"), {}).stage("verify-re")
        rep = verify_standard_re(sc.reps["V"], sc.reps["W"], sc.params, sc.shift)
        assert rep.ok, rep.detail


class TestProductChecks:
    """The product checks behind YBE, GRE, R- and K-unitarity and
    intertwining, on sparse packed integers."""

    @pytest.fixture
    def matmuls(self, monkeypatch):
        """Counts ``Mat.__matmul__`` calls made inside ``check_product``."""
        inside, calls = [], []
        matmul, check = Mat.__matmul__, rmat.product_residual

        def counted(self, other):
            if inside:
                calls.append(1)
            return matmul(self, other)

        def residual(lhs, rhs):
            inside.append(1)
            try:
                return check(lhs, rhs)
            finally:
                inside.pop()

        monkeypatch.setattr(Mat, "__matmul__", counted)
        monkeypatch.setattr(rmat, "product_residual", residual)
        return calls

    def test_no_matmul_in_sl3_ybe(self, a, b, matmuls):
        u, v, w = (build_vector_rep_slN_eval(3, x) for x in (a, b, const("c")))
        assert rmat.verify_YBE(u, v, w).ok
        assert matmuls == []

    def test_no_matmul_in_spin1_gre(self, matmuls):
        sc = Scenario(_load_scenario("qonsager-sl2-spin1"), {})
        assert verify_gre(sc.reps["V"], sc.reps["W"], sc.twist, sc.shift,
                          sc.params).ok
        assert matmuls == []

    def test_failure_details(self, a, b, fund, fund_b, onsager, K_fund):
        """Failing checks name the first nonzero entry of the difference by
        the same canonical fraction as the dense ``Mat`` products did."""
        o = onsager
        U = build_eval_rep_sl2(1, const("c"))
        R = solve_R(fund, fund_b).matrix
        K = K_fund.matrix
        # R23 at the wrong spectral value
        wrong = R.substitute({"z": z * z})
        assert rmat.verify_YBE(fund, fund_b, U, Rvw=wrong).detail == (
            'residual at (1,2): (q^5*z*w^2*a*b^2 - q^5*z*w*a^2*c -'
            ' 2*q^3*z*w^2*a*b^2 + 2*q^3*z*w*a^2*c + q*z*w^2*a*b^2 -'
            ' q*z*w*a^2*c)/(q^6*a^3 - q^4*z*w*a^2*c - q^4*w^2*a^2*b -'
            ' q^4*z*a^2*b + q^2*z*w^3*a*b*c + q^2*z^2*w*a*b*c +'
            ' q^2*z*w^2*a*b^2 - z^2*w^3*b^2*c)')
        # R21(z) R(z) is not the identity
        Rwv = permute(solve_R(fund_b, fund).matrix, swap(2, 2))
        assert check_product([Rwv, R], []).detail == (
            'residual at (1,1): (q^2*z^2*a*b - q^2*a*b - z^2*a*b +'
            ' a*b)/(q^4*a*b - q^2*z*a^2 - q^2*z*b^2 + z^2*a*b)')
        # K(1/z) K(z) against the identity: every lcm left over
        assert check_product([K.substitute({"z": z.inv()}), K], [],
                             label="K ").detail == (
            'K residual at (0,0): (-q^4*z^3*a^3*g0*s0*s1 + q^4*z^4*a^2*s1^2'
            ' + q^4*z^2*a^2*g0^2*s0^2 - q^4*z^3*a*g0*s0*s1 +'
            ' 2*q^2*z^3*a^3*g0*s0*s1 - 2*q^2*z^4*a^2*s1^2 -'
            ' 2*q^2*z^2*a^2*g0^2*s0^2 + 2*q^2*z^3*a*g0*s0*s1 -'
            ' z^3*a^3*g0*s0*s1 + z^4*a^2*s1^2 + z^2*a^2*g0^2*s0^2 -'
            ' z^3*a*g0*s0*s1)/(q^2*z^4*a^2 - q^2*z^2*a^4 - q^2*z^2 +'
            ' q^2*a^2)')
        # [K, L] against [R, K] with K at the wrong spectral parameter
        assert check_intertwining(K.substitute({"z": w}), fund, K_fund.target,
                                  o["shift"], o["params"]).detail == (
            'B0 residual at (0,0): (-q^2*z^2*w*a^2*g0*s0 +'
            ' q^2*z*w^2*a^2*g0*s0 + q^2*z^2*a*s1 - q^2*w^2*a*s1 -'
            ' q^2*z*g0*s0 + q^2*w*g0*s0 + z^2*w*a^2*g0*s0 - z*w^2*a^2*g0*s0'
            ' - z^2*a*s1 + w^2*a*s1 + z*g0*s0 - w*g0*s0)/(q*z*w^2*a^2*g0 -'
            ' q*z*g0)')


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

    @pytest.mark.parametrize("H", [2, 3])
    def test_rewrite_power_round_trip(self, H):
        # 1/(z - a^2) leads with -a^2 in graded-lex order, but its image
        # 1/(z^3 - a^2) leads with z^3, so the rewrite must renormalize signs
        a, g0 = const("a"), const("g0")
        for x in (zero, one, z, z.inv() * (z + 1) ** 2, (z + a) / (z - q),
                  (z ** 2 - g0 * q) / (a * z ** 3 + 1), one / (z - a ** 2),
                  -(z * w + 3) / (2 * z ** 2 - a)):
            assert kmat._rewrite_power(x.substitute({"z": z ** H}), H) == x

    @pytest.mark.parametrize("x", [z, z + 1, (z ** 2 + 1) / (z ** 3 - q),
                                   (z ** 4 + z) / (z ** 2 - 1)])
    def test_rewrite_power_rejects_other_powers(self, x):
        with pytest.raises(KmatError, match="not a function of z\\^H"):
            kmat._rewrite_power(x, 2)

    def test_converted_satisfies_tau_minimal_system(self, fund, onsager):
        o = onsager
        Kpr = solve_K(fund, o["twist"],
                      GradingShift.principal(o["cartan"]), o["params"])
        converted = convert_grading(Kpr, fund)
        direct = solve_K(fund, o["twist"], o["shift"], o["params"])
        rep = check_intertwining(converted, fund, direct.target,
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


def _solve_K_reference(rep, twist, shift, params, normalize=True):
    """The intertwiner solve at the module's own point, with no memo and no
    substitution: solve_K as it was before it solved at the unit point."""
    twist.check_admissible(shift, params)
    target = realize_twist(rep, twist)
    src = qsp_generators(rep, params, shift, z)
    tgt = qsp_generators(target, params, shift, z.inv())
    n = rep.dim
    K = intertwiner_kernel(
        [(L, R) for (_, L), (_, R) in zip(src, tgt)],
        {(r, c): r * n + c for r in range(n) for c in range(n)})
    res = KMatrixResult(K, 1, twist, shift, target)
    return normalize_K(res, rep) if normalize else res


def _solved_alike(rep, o, twist=None, normalize=True):
    twist = twist or o["twist"]
    args = (rep, twist, o["shift"], o["params"])
    return (solve_K(*args, normalize=normalize).to_json()
            == _solve_K_reference(*args, normalize=normalize).to_json())


SPINS = {"spin1/2": 1, "spin1": 2, "spin3/2": 3}

ORBIT_POINTS = {
    "a,b": lambda a, b: (a, b),
    "a,a": lambda a, b: (a, a),
    "2,3": lambda a, b: (Rat(2), Rat(3)),
    "1+q,b": lambda a, b: (1 + q, b),
    "a,1/a": lambda a, b: (a, a.inv()),
}


class TestOrbitOracle:
    """solve_K, which eliminates once per unit-point module and substitutes
    z ↦ z·a, against the direct solve at the module's own point."""

    @pytest.mark.parametrize("point", ORBIT_POINTS)
    @pytest.mark.parametrize("spin", SPINS)
    def test_matches_direct_solve(self, a, b, onsager, onsager_sigma0,
                                  spin, point):
        V, W = (build_eval_rep_sl2(SPINS[spin], x)
                for x in ORBIT_POINTS[point](a, b))
        for rep in (V, W):
            assert _solved_alike(rep, onsager)
        # verify_K_unitarity's pair: the gauge-normalized K_V and the
        # unnormalized K of the twisted module at the point 1/a
        assert _solved_alike(V, onsager_sigma0)
        Vt = realize_twist(V, onsager["twist"])
        assert _solved_alike(Vt, onsager_sigma0, normalize=False)

    @pytest.mark.parametrize("gauge", ["standard", "auxiliary", "diagonal"])
    def test_other_gauges(self, a, onsager, gauge):
        d, g0 = onsager["diagram"], onsager["g0"]
        twist = {"standard": TwistSpec(d, "standard"),
                 "auxiliary": _auxiliary(d),
                 "diagonal": TwistSpec(d, "diagonal",
                                       beta={0: g0.inv(), 1: g0})}[gauge]
        for spin in (1, 2):
            assert _solved_alike(build_eval_rep_sl2(spin, a), onsager, twist)


class TestUnitPointMemo:
    @pytest.fixture
    def eliminations(self, monkeypatch):
        """Count the intertwiner eliminations of kmat, from an empty memo."""
        calls = []

        def counted(*args):
            calls.append(args)
            return intertwiner_kernel(*args)

        kmat._solve_unit.cache_clear()
        monkeypatch.setattr(kmat, "intertwiner_kernel", counted)
        return calls

    @pytest.mark.parametrize("scenario, count",
                             [("qonsager-sl2-fundamental", 4),
                              ("qonsager-sl2-spin1", 3)])
    def test_pipeline_eliminations(self, capsys, eliminations, scenario, count):
        # K(V_1) serves K_V and K_W; verify-re solves K(V_1) under the
        # auxiliary twist, and verify-unitarity K(V_1) at sigma = 0 and, for
        # the fundamental module only, K(ω*V_1) for the twisted module
        cli.main(["pipeline", "run", scenario])
        capsys.readouterr()
        assert len(eliminations) == count

    def test_memo_serves_fresh_results(self, a, b, onsager_sigma0):
        o = onsager_sigma0
        args = (o["twist"], o["shift"], o["params"])
        V, W = build_eval_rep_sl2(1, a), build_eval_rep_sl2(1, b)
        expected = solve_K(W, *args).to_json()
        served = solve_K(V, *args)
        served.matrix.data[0][0] = Rat(7)
        served.matrix.data[1][0] = q
        assert solve_K(W, *args).to_json() == expected
        Vt = realize_twist(V, o["twist"])
        raw = solve_K(Vt, *args, normalize=False)
        expected = raw.to_json()
        normalize_K_paired(raw, V, o["twist"])
        assert raw.to_json() != expected
        assert solve_K(Vt, *args, normalize=False).to_json() == expected

    def test_independent_of_registrations_and_memo(self, a, b, onsager):
        o = onsager
        args = (o["twist"], o["shift"], o["params"])
        V, W = build_eval_rep_sl2(2, a), build_eval_rep_sl2(2, b)
        before = [solve_K(M, *args).to_json() for M in (V, W)]
        const("unit_point_K_probe")  # rebuilds the field
        after = [solve_K(M, *args).to_json() for M in (V, W)]
        kmat._solve_unit.cache_clear()
        braid._realize.cache_clear()
        cold = [solve_K(M, *args).to_json() for M in (V, W)]
        assert before == after == cold == [
            _solve_K_reference(M, *args).to_json() for M in (V, W)]

    def test_copies_and_moved_node_solved_directly(self, a, onsager,
                                                   eliminations):
        # a dataclasses.replace copy, and a pullback whose τ moves node 0,
        # have point 1 and their own unit: each is eliminated as it is
        V = build_eval_rep_sl2(1, a)
        solve_K(V, onsager["twist"], onsager["shift"], onsager["params"])
        for X in (dataclasses.replace(V), pullback_chevalley_tau(V, (1, 0))):
            assert X.point.is_one() and X.unit is X
            count = len(eliminations)
            assert _solved_alike(X, onsager)
            assert len(eliminations) == count + 1
