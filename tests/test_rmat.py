import pytest

from qloopk.linalg import Mat, kron
from qloopk.repcore import build_eval_rep_sl2, build_vector_rep_slN_eval, coproduct
from qloopk.rmat import (KernelDimension, _r13, detect_degeneration, solve_R,
                         verify_R_unitarity, verify_YBE)
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
