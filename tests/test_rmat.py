import dataclasses

import pytest

from qloopk import braid, cli, rmat
from qloopk.braid import realize_twist
from qloopk.irred import ELL
from qloopk.linalg import Mat, intertwiner_kernel, kron
from qloopk.repcore import (Rep, build_eval_rep_sl2, build_vector_rep_slN_eval,
                            coproduct, pullback_chevalley_tau)
from qloopk.rmat import (NoHighestWeightVector, RMatrixResult, _r13,
                         _tensor_weight_classes, check_product,
                         detect_degeneration,
                         solve_R, verify_R_unitarity, verify_YBE)
from qloopk.scalars import Rat, const, one, parse, q, z


@pytest.fixture(scope="module")
def R_fund(fund, fund_b):
    return solve_R(fund, fund_b)


class TestSolve:
    def test_golden_matrix(self, R_fund):
        R = R_fund.matrix
        den = parse("q^2*a - z*b")
        assert R[0, 0] == one and R[3, 3] == one
        assert R[1, 1] == parse("-q*z*b + q*a") / den
        assert R[1, 2] == parse("q^2*z*b - z*b") / den
        assert R[2, 1] == parse("q^2*a - a") / den
        assert R[2, 2] == R[1, 1]
        for r, c in ((0, 1), (0, 2), (0, 3), (1, 0), (1, 3),
                     (2, 0), (2, 3), (3, 0), (3, 1), (3, 2)):
            assert R[r, c].is_zero()

    def test_kernel_line(self, R_fund):
        assert R_fund.kernel_dim == 1
        assert R_fund.hw_index == 0

    def test_intertwines(self, fund, fund_b, R_fund):
        R = R_fund.matrix
        for i in fund.cartan.nodes:
            for A, B in zip(coproduct(fund, fund_b, i, z=z),
                            coproduct(fund, fund_b, i, op=True, z=z)):
                assert (R @ A - B @ R).is_zero()

    def test_sl3_vector_pair(self, a, b):
        V = build_vector_rep_slN_eval(3, a)
        W = build_vector_rep_slN_eval(3, b)
        res = solve_R(V, W)
        assert res.kernel_dim == 1
        assert res.matrix.shape() == (9, 9)
        assert res.matrix[0, 0] == one


class TestYBE:
    def test_sl2_exact(self, a, b):
        c = const("c")
        U = build_eval_rep_sl2(1, a)
        V = build_eval_rep_sl2(1, b)
        W = build_eval_rep_sl2(1, c)
        report = verify_YBE(U, V, W)
        assert report.ok, report.detail

    def test_mixed_dimensions(self, a, b):
        # spin 1/2 ⊗ spin 1 ⊗ spin 1/2: a wrong leg placement shows here,
        # where it would not on three equal factors
        c = const("c")
        U, V, W = (build_eval_rep_sl2(1, a), build_eval_rep_sl2(2, b),
                   build_eval_rep_sl2(1, c))
        report = verify_YBE(U, V, W)
        assert report.ok, report.detail

    def test_r13_on_basis_indices(self):
        # R13[(a,b,c), (a',b',c')] = R[(a,c), (a',c')] δ_{b b'} on 2 ⊗ 3 ⊗ 2
        du, dv, dw = 2, 3, 2
        R = Mat([[Rat(10 * i + j + 1) for j in range(du * dw)]
                 for i in range(du * dw)])
        R13 = _r13(R, du, dv, dw)
        legs = [(a, b, c) for a in range(du) for b in range(dv) for c in range(dw)]
        for i, (a, b, c) in enumerate(legs):
            for j, (a2, b2, c2) in enumerate(legs):
                expected = R[a * dw + c, a2 * dw + c2] if b == b2 else Rat(0)
                assert R13[i, j] == expected

    def test_detects_corruption(self, fund, fund_b, a, R_fund):
        c = const("c")
        W = build_eval_rep_sl2(1, c)
        bad = Mat([row[:] for row in R_fund.matrix.data])
        bad.data[1][1] = bad.data[1][1] + q
        report = verify_YBE(fund, fund_b, W, Ruv=bad)
        assert not report.ok
        assert report.detail == "residual at (1,2): (-q^3*w*c + q*w*c)/(q^2*b - w*c)"


class TestUnitarity:
    def test_sl2_pair(self, fund, fund_b):
        report = verify_R_unitarity(fund, fund_b)
        assert report.ok, report.detail

    def test_mixed_dimensions(self, a, b):
        report = verify_R_unitarity(build_eval_rep_sl2(1, a), build_eval_rep_sl2(2, b))
        assert report.ok, report.detail

    def test_detects_scaling(self, fund, fund_b, R_fund):
        scaled = R_fund.matrix.scale(q)
        report = verify_R_unitarity(fund, fund_b, Rvw=scaled)
        assert not report.ok
        assert report.detail == "residual at (0,0): q - 1"


class TestDegeneration:
    def test_pole_locus(self, fund, fund_b, a, R_fund):
        kind = detect_degeneration(fund, fund_b, {"b": a * q ** 2, "z": one},
                                   R=R_fund.matrix)
        assert kind == "pole"

    def test_singular_locus(self, fund, fund_b, a, R_fund):
        kind = detect_degeneration(fund, fund_b, {"b": a * q ** -2, "z": one},
                                   R=R_fund.matrix)
        assert kind == "singular"

    def test_generic_point(self, fund, fund_b, a, R_fund):
        kind = detect_degeneration(fund, fund_b, {"b": a, "z": q},
                                   R=R_fund.matrix)
        assert kind == "regular-invertible"


def _system(v, w):
    """The weight classes of V ⊗ W, the unknowns R[r, c] within a class, and
    the (Δ(x), Δ^op(x)) pairs on V ⊗ W_z, in the solver's order."""
    classes = _tensor_weight_classes(v, w)
    unk: dict[tuple[int, int], int] = {}
    for members in classes.values():
        for r in members:
            for c in members:
                unk[(r, c)] = len(unk)
    pairs = []
    for i in v.cartan.nodes:
        pairs += zip(coproduct(v, w, i, z=z), coproduct(v, w, i, op=True, z=z))
    return classes, unk, pairs


def _top_class(classes):
    """The weight-maximal class, by coordinate sum with lex tie-break."""
    return classes[max(classes, key=lambda cw: (sum(cw), cw))]


def _solve_R_reference(v, w) -> RMatrixResult:
    """The intertwiner solve at the modules' own points, with no memo and no
    substitution: solve_R as it was before it solved at the unit point."""
    classes, unk, pairs = _system(v, w)
    R = intertwiner_kernel(pairs, unk)
    block = _top_class(classes)
    if len(block) != 1:
        raise NoHighestWeightVector(
            f"weight-maximal block has dimension {len(block)}")
    hw = block[0]
    pivot = R[hw, hw]
    if pivot.is_zero():
        raise NoHighestWeightVector("solution vanishes on the highest-weight vector")
    scalar = pivot.inv()
    return RMatrixResult(R.scale(scalar), 1, hw, scalar)


MODULES = {
    "spin1/2": lambda x: build_eval_rep_sl2(1, x),
    "spin1": lambda x: build_eval_rep_sl2(2, x),
    "spin3/2": lambda x: build_eval_rep_sl2(3, x),
    "sl3": lambda x: build_vector_rep_slN_eval(3, x),
    "sl4": lambda x: build_vector_rep_slN_eval(4, x),
}

POINTS = {
    "a,b": lambda a, b: (a, b),
    "a,a": lambda a, b: (a, a),
    "b,a": lambda a, b: (b, a),
    "2,3": lambda a, b: (Rat(2), Rat(3)),
    "a,q^2a": lambda a, b: (a, q ** 2 * a),
    "1+q,b": lambda a, b: (1 + q, b),
}


class TestUnitPointOracle:
    """solve_R, which eliminates at the unit point and substitutes
    z ↦ z·b/a, against the direct solve at the modules' own points."""

    @pytest.mark.parametrize("point", POINTS)
    @pytest.mark.parametrize("module", MODULES)
    def test_matches_direct_solve(self, a, b, module, point):
        x, y = POINTS[point](a, b)
        V, W = MODULES[module](x), MODULES[module](y)
        assert solve_R(V, W).to_json() == _solve_R_reference(V, W).to_json()

    def test_mixed_modules(self, a, b):
        V, W = build_eval_rep_sl2(1, a), build_eval_rep_sl2(2, b)
        for X, Y in ((V, W), (W, V)):
            assert solve_R(X, Y).to_json() == _solve_R_reference(X, Y).to_json()


class TestUnitPointMemo:
    def test_returned_matrix_is_a_copy(self, a, b):
        V, W = build_eval_rep_sl2(1, a), build_eval_rep_sl2(1, b)
        first = solve_R(V, W)
        expected = first.to_json()
        first.matrix.data[0][0] = Rat(7)
        first.matrix.data[1][2] = q
        assert solve_R(V, W).to_json() == expected

    def test_independent_of_registrations_and_memo(self, a, b):
        V, W = build_eval_rep_sl2(2, a), build_eval_rep_sl2(2, b)
        before = solve_R(V, W).to_json()
        const("unit_point_memo_probe")  # rebuilds the field
        after = solve_R(V, W).to_json()  # a memo hit
        rmat._solve_unit.cache_clear()
        cold = solve_R(V, W).to_json()  # a memo miss
        assert before == after == cold == _solve_R_reference(V, W).to_json()

    @pytest.fixture
    def eliminations(self, monkeypatch):
        """Count the intertwiner eliminations of rmat, from an empty memo."""
        calls = []

        def counted(*args):
            calls.append(args)
            return intertwiner_kernel(*args)

        rmat._solve_unit.cache_clear()
        monkeypatch.setattr(rmat, "intertwiner_kernel", counted)
        return calls

    def test_sl3_ybe_eliminates_once(self, a, b, eliminations):
        c = const("c")
        reps = [build_vector_rep_slN_eval(3, x) for x in (a, b, c)]
        assert verify_YBE(*reps).ok
        assert len(eliminations) == 1

    def test_cli_spin1_ybe_eliminates_once(self, capsys, eliminations):
        assert cli.main(["rmatrix", "verify-ybe", "--rep", "eval-sl2:2:a",
                         "--rep", "eval-sl2:2:b", "--rep", "eval-sl2:2:c"]) == 0
        assert '"ok": true' in capsys.readouterr().out
        assert len(eliminations) == 1

    @pytest.mark.parametrize("scenario", ["qonsager-sl2-fundamental",
                                          "qonsager-sl2-spin1"])
    def test_pipeline_eliminates_two(self, capsys, eliminations, scenario):
        # verify-gre solves R for four module pairs in two orbits: (V_1, V_1)
        # behind R(V_a, W_b), and (ω*V_1, V_1) behind R(Vt, W) and R(Wt, V);
        # R(Wt, Vt) is the flip of R(V_1, V_1), and verify-re's R(V_1, W_1)
        # is the unit-point solve itself
        cli.main(["pipeline", "run", scenario])
        capsys.readouterr()
        assert len(eliminations) == 2

    def test_flip_checks_normalization(self, a, b, onsager, eliminations,
                                       monkeypatch):
        # a flipped matrix that is not 1 at the pair's highest-weight index
        # is not taken: the pair is eliminated, with the direct solve's result
        V, W = _twisted(build_eval_rep_sl2(1, a), build_eval_rep_sl2(1, b),
                        onsager)[2:]
        flipped = rmat._flipped

        def scaled(v, w):
            m = flipped(v, w)
            return m if m is None else m.scale(q)

        monkeypatch.setattr(rmat, "_flipped", scaled)
        assert solve_R(W, V).to_json() == _solve_R_reference(W, V).to_json()
        assert len(eliminations) == 2  # R(V_1, V_1) and the pair itself

    def test_memo_serves_copies(self, a, b, onsager):
        # the flip and the shared (ω*V_1, V_1) solve are memo hits, and
        # writing into what they hand out changes no later result
        V, W, Vt, Wt = _twisted(build_eval_rep_sl2(2, a),
                                build_eval_rep_sl2(2, b), onsager)
        for X, Y in ((Wt, Vt), (Vt, W), (Wt, V)):
            served = solve_R(X, Y)
            expected = served.to_json()
            served.matrix.data[0][0] = Rat(7)
            served.matrix.data[1][1] = q
            assert solve_R(X, Y).to_json() == expected

    def test_twisted_pairs_independent_of_registrations_and_memo(self, a, b,
                                                                 onsager):
        V, W, Vt, Wt = _twisted(build_eval_rep_sl2(1, a),
                                build_eval_rep_sl2(1, b), onsager)
        pairs = ((V, W), (Wt, Vt), (Vt, W), (Wt, V))
        before = [solve_R(X, Y).to_json() for X, Y in pairs]
        const("orbit_memo_probe")  # rebuilds the field
        after = [solve_R(X, Y).to_json() for X, Y in pairs]
        rmat._solve_unit.cache_clear()
        braid._realize.cache_clear()
        V, W, Vt, Wt = _twisted(build_eval_rep_sl2(1, a),
                                build_eval_rep_sl2(1, b), onsager)
        pairs = ((V, W), (Wt, Vt), (Vt, W), (Wt, V))
        cold = [solve_R(X, Y).to_json() for X, Y in pairs]
        assert before == after == cold == [
            _solve_R_reference(X, Y).to_json() for X, Y in pairs]

    def test_copies_and_moved_node_solved_directly(self, a, b, eliminations):
        # a dataclasses.replace copy, and a pullback whose τ moves node 0,
        # have point 1 and their own unit: each is eliminated as it is
        V, W = build_eval_rep_sl2(1, a), build_eval_rep_sl2(1, b)
        solve_R(V, W)
        copy = dataclasses.replace(V)
        moved = pullback_chevalley_tau(V, (1, 0))
        for X in (copy, moved):
            assert X.point.is_one() and X.unit is X
            count = len(eliminations)
            assert solve_R(X, W).to_json() == _solve_R_reference(X, W).to_json()
            assert len(eliminations) == count + 1


def _twisted(V, W, onsager):
    """V, W and their twisted modules Vt, Wt, as verify_gre forms them."""
    twist = onsager["twist"]
    return V, W, realize_twist(V, twist), realize_twist(W, twist)


def _pulled_back(M):
    """ω*M written out, E_i ↦ -F_i, F_i ↦ -E_i, K_i ↦ K_i⁻¹, as a module
    at point 1: the reference for the twisted modules."""
    nodes = M.cartan.nodes
    return Rep(M.cartan, M.dim, {i: -M.F[i] for i in nodes},
               {i: -M.E[i] for i in nodes},
               tuple(tuple(-x for x in wt) for wt in M.weights))


def _assert_gre_pairs_direct(V, W, onsager, pairs, check=None):
    """solve_R on the (V, W, Vt, Wt) pairs given by index against the direct
    solve on V, W and their written-out pullbacks, or against ``check``
    (v, w, result) on the written-out modules."""
    mods = _twisted(V, W, onsager)
    refs = (V, W, _pulled_back(V), _pulled_back(W))
    for i, j in pairs:
        res = solve_R(mods[i], mods[j])
        if check is None:
            assert res.to_json() == _solve_R_reference(refs[i], refs[j]).to_json()
        else:
            check(refs[i], refs[j], res)


def _rank_mod_ell(pairs, unk) -> int:
    """Rank modulo ELL of the system X·A = B·X over the (A, B) pairs, with X
    supported on ``unk``, at a point fixed by the names that occur."""
    mats = [M for pair in pairs for M in pair]
    names = sorted({nm for M in mats for row in M.data for x in row
                    for nm in x.names()})
    point = {nm: 1009 + 7 * k for k, nm in enumerate(names)}
    res = [[[0 if x.is_zero() else x.residue(point, ELL) for x in row]
            for row in M.data] for M in mats]
    pivots = []  # (lead, row), each row zero at every earlier lead
    for A, B in zip(res[::2], res[1::2]):
        n = len(A)
        for r in range(n):
            for c in range(n):
                row = [0] * len(unk)
                for k in range(n):
                    if (r, k) in unk:
                        row[unk[r, k]] += A[k][c]
                    if (k, c) in unk:
                        row[unk[k, c]] -= B[r][k]
                for lead, prow in pivots:
                    if row[lead] % ELL:
                        f = row[lead]
                        row = [x - f * y for x, y in zip(row, prow)]
                row = [x % ELL for x in row]
                lead = next((j for j, x in enumerate(row) if x), None)
                if lead is not None:
                    inv = pow(row[lead], -1, ELL)
                    pivots.append((lead, [x * inv % ELL for x in row]))
    return len(pivots)


def _certify_R(v, w, res):
    """An exact certificate, without elimination, that ``res`` is the direct
    solve of (v, w): R intertwines Δ with Δ^op on every E_i, F_i and K_i and
    is zero outside the weight classes, and the system restricted to them has
    rank (unknowns − 1) at a point modulo ELL. A full-rank specialization
    bounds the generic kernel to a line, which R (1 at the highest-weight
    index) spans, normalized as the solver normalizes it. Elimination scales
    the line to 1 at its last nonzero unknown, so that entry of R is the
    scalar."""
    R = res.matrix
    classes, unk, pairs = _system(v, w)
    Ks = [(kron(v.K[i], w.K[i]),) * 2 for i in v.cartan.nodes]
    for A, B in pairs + Ks:
        assert check_product([R, A], [B, R]).ok
    n = v.dim * w.dim
    assert all(R[r, c].is_zero() for r in range(n) for c in range(n)
               if (r, c) not in unk)
    (hw,) = _top_class(classes)
    assert res.kernel_dim == 1 and res.hw_index == hw and R[hw, hw].is_one()
    assert _rank_mod_ell(pairs, unk) == len(unk) - 1
    last = max((rc for rc in unk if not R[rc].is_zero()), key=unk.get)
    assert res.scalar == R[last]


SPINS = {"spin1/2": 1, "spin1": 2, "spin3/2": 3}

ORBIT_POINTS = {
    "a,b": lambda a, b: (a, b),
    "a,a": lambda a, b: (a, a),
    "2,3": lambda a, b: (Rat(2), Rat(3)),
    "1+q,b": lambda a, b: (1 + q, b),
    "a,1/a": lambda a, b: (a, a.inv()),
}


class TestOrbitOracle:
    """solve_R, which serves the twisted pairs from two eliminations (the
    pullbacks' unit-point solve and the Chevalley flip), against the direct
    solve of every ordered pair verify_gre forms."""

    @pytest.mark.parametrize("point", ORBIT_POINTS)
    @pytest.mark.parametrize("spin", SPINS)
    def test_matches_direct_solve(self, a, b, onsager, spin, point):
        # at spin 3/2 a direct 16 x 16 solve takes about a second, so only
        # (a, b) is solved directly and the other points are certified
        x, y = ORBIT_POINTS[point](a, b)
        check = _certify_R if spin == "spin3/2" and point != "a,b" else None
        _assert_gre_pairs_direct(build_eval_rep_sl2(SPINS[spin], x),
                                 build_eval_rep_sl2(SPINS[spin], y), onsager,
                                 ((0, 1), (3, 2), (2, 1), (3, 0)), check)

    def test_mixed_spins(self, a, b, onsager):
        # the flip of unequal modules: R(ω*U₁, ω*U₂) = P·R(U₂, U₁)·P
        _assert_gre_pairs_direct(build_eval_rep_sl2(1, a),
                                 build_eval_rep_sl2(2, b), onsager,
                                 ((0, 1), (3, 2), (2, 3), (2, 1), (3, 0)))
