from fractions import Fraction

import pytest

from qloopk.braid import realize_twist
from qloopk.linalg import Mat
from qloopk.repcore import (RepError, build_eval_rep_sl2, build_rep,
                            build_vector_rep_slN_eval, coproduct,
                            ell_highest_indices, pullback_chevalley_tau,
                            tensor, verify_relations)
from qloopk.scalars import Rat, const, one, p, parse, q, zero


class TestBuilders:
    def test_fundamental_matrices(self, fund, a):
        assert fund.dim == 2
        assert fund.E[1] == Mat([[zero, one], [zero, zero]])
        assert fund.F[1] == Mat([[zero, zero], [one, zero]])
        assert fund.K[1] == Mat.diagonal([q, q.inv()])
        assert fund.E[0] == fund.F[1].scale(a)
        assert fund.F[0] == fund.E[1].scale(a.inv())

    def test_fundamental_weights(self, fund):
        assert fund.weights[0] == (Fraction(-1), Fraction(1))
        assert fund.weights[1] == (Fraction(1), Fraction(-1))

    def test_spin1_qintegers(self, spin1):
        assert spin1.dim == 3
        # E_1[k-1, k] is the symmetric quantum integer [k]
        assert spin1.E[1][0, 1] == one
        assert spin1.E[1][1, 2] == q + q.inv()

    def test_vector_rep(self, vec3):
        assert vec3.dim == 3
        assert vec3.E[1][0, 1] == one
        assert vec3.K[2] == Mat.diagonal([one, q, q.inv()])

    def test_build_rep_dispatch(self, a):
        r = build_rep({"kind": "eval-sl2", "spin2": 2, "a": a})
        assert r.dim == 3
        with pytest.raises(RepError):
            build_rep({"kind": "mystery"})

    @pytest.mark.parametrize("build", [
        lambda x: build_eval_rep_sl2(1, x),
        lambda x: build_vector_rep_slN_eval(3, x)], ids=["sl2", "sl3"])
    def test_unit_point_module(self, a, b, build):
        V, W = build(a), build(b)
        assert V.point == a and W.point == b
        unit = V.unit
        assert W.unit is unit and unit.unit is unit and unit.point == one
        assert V.E[0] == unit.E[0].scale(a) and V.F[0] == unit.F[0].scale(a.inv())
        for i in V.cartan.nodes[1:]:
            assert V.E[i] == unit.E[i] and V.F[i] == unit.F[i]
        assert build(one).same_module(unit)

    @pytest.mark.parametrize("point", ["z", "w", "z*a", "1 + w", "q^2*z"])
    def test_point_must_not_involve_spectral_variables(self, a, point):
        x = parse(point)
        for build in (lambda: build_eval_rep_sl2(1, x),
                      lambda: build_vector_rep_slN_eval(3, x)):
            with pytest.raises(RepError, match="spectral"):
                build()

    def test_equality_is_identity(self, a):
        V, W = build_eval_rep_sl2(1, a), build_eval_rep_sl2(1, a)
        assert V == V and V != W and V.same_module(W)
        W.Kinv(0)  # fills a cache, which must not change the comparison
        assert V != W and len({V, W, V}) == 2

    def test_replaced_module_is_its_own_unit(self, fund):
        import dataclasses
        copy = dataclasses.replace(fund, E=dict(fund.E))
        assert copy.unit is copy and copy.point == one

    def test_central_K_product_is_identity(self, fund, spin1, vec3):
        for rep in (fund, spin1, vec3):
            prod = Mat.identity(rep.dim)
            for i in rep.cartan.nodes:
                prod = prod @ rep.K[i].pow(rep.cartan.marks[i])
            assert prod.is_identity()


class TestRelations:
    def test_builders_pass(self, fund, spin1, vec3):
        for rep in (fund, spin1, vec3):
            report = verify_relations(rep)
            assert report.ok, report.failures

    def test_broken_rep_fails(self, fund):
        import dataclasses
        bad = dataclasses.replace(fund, E=dict(fund.E))
        bad.E[1] = fund.E[1].scale(q)
        report = verify_relations(bad)
        assert not report.ok
        assert report.failures

    def test_tensor_passes(self, fund, fund_b):
        report = verify_relations(tensor(fund, fund_b))
        assert report.ok, report.failures

    def test_opposite_coproduct_passes(self, fund, fund_b):
        import dataclasses
        ops = {i: coproduct(fund, fund_b, i, op=True) for i in fund.cartan.nodes}
        op_rep = dataclasses.replace(tensor(fund, fund_b),
                                     E={i: E for i, (E, _) in ops.items()},
                                     F={i: F for i, (_, F) in ops.items()})
        report = verify_relations(op_rep)
        assert report.ok, report.failures


def _weights_read_off_K(rep):
    """Each weight λ(h_i) as the m with K_i = q_i^m, searched over
    |m| ≤ 2·dim + 4: the weights of a conjugate as they were once found."""
    bound = 2 * rep.dim + 4
    return tuple(tuple(next(Fraction(m) for m in range(-bound, bound + 1)
                            if rep.K[i][k, k] == p ** (2 * rep.cartan.d[i] * m))
                       for i in rep.cartan.nodes)
                 for k in range(rep.dim))


class TestStructure:
    def test_ell_highest_fundamental(self, fund):
        assert ell_highest_indices(fund) == [0]

    def test_ell_highest_tensor(self, fund, fund_b):
        # the tensor of two evaluation modules has a unique vector killed
        # by F_0 and the classical raising operators
        assert len(ell_highest_indices(tensor(fund, fund_b))) == 1

    def test_pullback_involutive(self, fund):
        tau = (0, 1)
        back = pullback_chevalley_tau(pullback_chevalley_tau(fund, tau), tau)
        for i in (0, 1):
            assert back.E[i] == fund.E[i]
            assert back.F[i] == fund.F[i]
            assert back.K[i] == fund.K[i]

    @pytest.mark.parametrize("spin2", [1, 2])
    def test_pullback_of_builder_module(self, a, b, spin2, onsager):
        # (ωτ)*V_a with τ = id acts by E_i ↦ -F_i, F_i ↦ -E_i, K_i ↦ K_i⁻¹
        # of V_a; the semi-standard twist realizes it as the pullback of V_1
        # at the point a⁻¹
        V, W = build_eval_rep_sl2(spin2, a), build_eval_rep_sl2(spin2, b)
        Vt, Wt = (realize_twist(M, onsager["twist"]) for M in (V, W))
        for i in (0, 1):
            assert Vt.E[i] == -V.F[i] and Vt.F[i] == -V.E[i]
            assert Vt.K[i] == V.Kinv(i)
        assert Vt.point == a.inv() and Wt.point == b.inv()
        assert Vt.unit is Wt.unit and Vt.unit._pullback_of == (V.unit, (0, 1))
        # the pullback itself is taken at the module's own point, and a τ
        # that moves node 0 moves a to node 1: point 1, its own unit
        for tau in ((0, 1), (1, 0)):
            pulled = pullback_chevalley_tau(V, tau)
            assert pulled.point == one and pulled.unit is pulled
        assert pullback_chevalley_tau(V, (1, 0)).E[1] == -V.F[0]

    def test_pullback_satisfies_relations(self, fund):
        report = verify_relations(pullback_chevalley_tau(fund, (0, 1)))
        assert report.ok, report.failures

    def test_conjugated_recovers_weights(self, fund, spin1, a):
        # a swap, a 3-cycle (its rows and columns differ) and a scaled
        # 4-cycle on spin 3/2, each a monomial C e_j = c_j e_{perm[j]}
        spin3 = build_eval_rep_sl2(3, a)
        cases = ((fund, (1, 0), (one, one)),
                 (spin1, (1, 2, 0), (one, one, one)),
                 (spin3, (1, 3, 0, 2), (q, Rat(2), -a, one + q)))
        for rep, perm, scale in cases:
            C = Mat.zeros(rep.dim)
            for j, (k, c) in enumerate(zip(perm, scale)):
                C.data[k][j] = c
            moved = rep.conjugated(C)
            assert moved.weights == _weights_read_off_K(moved)
            assert all(moved.weights[k] == rep.weights[j]
                       for j, k in enumerate(perm))
            assert verify_relations(moved).ok

    def test_conjugated_rejects_nondiagonal_K(self, fund):
        # C = [[1, 1], [0, 1]] mixes the two weight vectors: C K_1 C^-1 has
        # the off-diagonal entry (1 - q^2)/q
        with pytest.raises(RepError, match="not diagonal"):
            fund.conjugated(Mat([[one, one], [zero, one]]))

    def test_kinv(self, fund):
        assert fund.K[1] @ fund.Kinv(1) == Mat.identity(2)
