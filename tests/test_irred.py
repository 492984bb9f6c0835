import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qloopk import irred
from qloopk.irred import (DeformationNotUpper, check_generic_tensor_irreducible,
                          check_irreducible,
                          check_modified_nilpotent_irreducible,
                          qsp_deformations)
from qloopk.linalg import Mat
from qloopk.repcore import build_eval_rep_sl2
from qloopk.scalars import Rat, const, one, parse, q, z, zero


def _block_diag_double(mats):
    out = []
    for M in mats:
        n = M.nrows
        B = Mat.zeros(2 * n)
        for i in range(n):
            for j in range(n):
                B.data[i][j] = M[i, j]
                B.data[n + i][n + j] = M[i, j]
        out.append(B)
    return out


class TestBurnside:
    def test_lowering_pair_full(self, fund):
        v = check_irreducible([fund.F[0], fund.F[1]])
        assert v.irreducible is True
        assert v.closure_dim == 4

    def test_specialization_ignores_unrelated_constants(self, fund, monkeypatch):
        # the fast path's images over F_ELL must not move when a constant
        # that sorts before every used name is registered late
        seen = []
        full_mod = irred._full_mod

        def recording(gens, n):
            seen.append(gens)
            return full_mod(gens, n)

        monkeypatch.setattr(irred, "_full_mod", recording)
        mats = [fund.E[0], fund.F[0], fund.E[1]]
        assert irred._specialized_full(mats, fund.dim)
        before = list(seen)
        seen.clear()
        const("AA_unrelated_first")  # sorts before every lower-case name
        assert irred._specialized_full(mats, fund.dim)
        assert before and seen == before

    @pytest.mark.parametrize("make", [
        lambda pole: [Mat([[zero, one], [zero, zero]]),
                      Mat([[zero, zero], [pole, zero]])],
        lambda pole: [Mat.diagonal([one, pole])],
    ], ids=["full", "reducible"])
    def test_pole_modulo_prime_falls_through(self, make, monkeypatch):
        # a denominator divisible by ELL vanishes at every point: each
        # attempt is skipped and the exact closure decides
        calls = []
        monkeypatch.setattr(irred, "_full_mod",
                            lambda gens, n: calls.append(gens) or True)
        mats = make(one / irred.ELL)
        exact = irred.algebra_closure(mats, max_dim=4)
        assert not irred._specialized_full(mats, 2)
        assert calls == []
        v = check_irreducible(mats)
        assert v.irreducible is (exact.dim == 4)
        assert v.closure_dim == exact.dim
        assert "constant specialization" not in v.detail

    def test_one_dimensional(self):
        v = check_irreducible([Mat([[Rat(7)]])])
        assert v.irreducible is True

    def test_diagonal_witness(self):
        v = check_irreducible([Mat.diagonal([one, Rat(2)])])
        assert v.irreducible is False
        assert v.witness == [[one, zero]]

    def test_doubled_module_witness(self, fund):
        gens = _block_diag_double([fund.E[0], fund.E[1], fund.F[0], fund.F[1]])
        v = check_irreducible(gens)
        assert v.irreducible is False
        assert len(v.witness) == 2

    def test_never_overclaims(self):
        # rotation by 90 degrees: irreducible over the reals but the
        # generated algebra is the field Q(i), not full; no rational witness
        rot = Mat([[zero, -one], [one, zero]])
        v = check_irreducible([rot])
        assert v.irreducible is None
        assert v.closure_dim == 2

    @pytest.mark.parametrize("extra", [
        Mat([[zero, one], [zero, zero]]),
        Mat([[one, one], [one, zero]]),
    ])
    def test_monotone_under_more_generators(self, fund, extra):
        base = [fund.F[0], fund.F[1]]
        assert check_irreducible(base).irreducible is True
        assert check_irreducible(base + [extra]).irreducible is True

    def test_agrees_with_line_search_upper_triangular(self):
        # any family of upper-triangular matrices shares the first
        # coordinate line
        gens = [Mat([[one, Rat(3)], [zero, Rat(2)]]),
                Mat([[Rat(2), one], [zero, one]])]
        v = check_irreducible(gens)
        assert v.irreducible is False
        assert v.witness == [[one, zero]]


class TestModifiedNilpotent:
    def test_zero_deformations(self, fund):
        v = check_modified_nilpotent_irreducible(fund, {})
        assert v.irreducible is True

    def test_qsp_deformations_all_spins(self, onsager, a):
        for spin2 in (1, 2):
            V = build_eval_rep_sl2(spin2, a)
            defs = qsp_deformations(V, onsager["params"])
            v = check_modified_nilpotent_irreducible(V, defs)
            assert v.irreducible is True, v.detail

    def test_route_equivalence(self, onsager, a):
        for spin2 in (1, 2):
            V = build_eval_rep_sl2(spin2, a)
            defs = qsp_deformations(V, onsager["params"])
            va = check_modified_nilpotent_irreducible(V, defs)
            vb = check_modified_nilpotent_irreducible(V, defs, route="direct")
            assert va.irreducible == vb.irreducible

    def test_rejects_unknown_route(self, fund):
        with pytest.raises(ValueError, match="drect"):
            check_modified_nilpotent_irreducible(fund, {}, route="drect")

    def test_rejects_lowering_deformation(self, fund):
        with pytest.raises(DeformationNotUpper):
            check_modified_nilpotent_irreducible(
                fund, {0: fund.K[0].scale(z.inv())})

    def test_deformation_shape(self, fund, onsager):
        # the shifted deformations are polynomial in z once z-scaled
        defs = qsp_deformations(fund, onsager["params"])
        for D in defs.values():
            scaled = D.scale(z)
            for i in range(2):
                for j in range(2):
                    e = scaled[i, j]
                    if not e.is_zero():
                        assert all(t[0][1] > 0 for t in e.num().terms)


class TestTensor:
    def test_fundamental_pair_generic(self, fund, fund_b):
        v = check_generic_tensor_irreducible(fund, fund_b)
        assert v.irreducible is True

    def test_with_trivial_factor(self, fund, b):
        triv = build_eval_rep_sl2(0, b)
        v = check_generic_tensor_irreducible(fund, triv)
        assert v.irreducible is True

    def test_degeneration_loci_reported(self, fund, fund_b, a):
        v = check_generic_tensor_irreducible(
            fund, fund_b,
            loci=[{"b": a * q ** 2, "z": one}, {"b": a * q ** -2, "z": one}])
        assert v.irreducible is True
        assert "pole" in v.detail and "singular" in v.detail


_Z_ENTRY = st.tuples(st.integers(-2, 2), st.integers(-2, 2),
                     st.integers(-2, 2)).map(
    lambda t: (Rat(t[0]) + Rat(t[1]) * z) / (Rat(t[2]) + z))


@st.composite
def _generator_sets(draw):
    """1-3 integer n x n matrices, n = 2 or 3, some with one entry in Q(z)."""
    n = draw(st.integers(2, 3))
    rows = st.lists(st.lists(st.integers(-3, 3), min_size=n, max_size=n),
                    min_size=n, max_size=n)
    mats = []
    for _ in range(draw(st.integers(1, 3))):
        m = Mat(draw(rows))
        if draw(st.booleans()):
            m.data[draw(st.integers(0, n - 1))][draw(st.integers(0, n - 1))] \
                = draw(_Z_ENTRY)
        mats.append(m)
    return n, mats


@settings(max_examples=40, deadline=None)
@given(_generator_sets())
def test_fast_path_full_implies_exact_full(case):
    # differential oracle: the F_ELL certificate never claims more than the
    # exact closure over Q(z) proves
    n, mats = case
    if irred._specialized_full(mats, n):
        assert irred.algebra_closure(mats, max_dim=n * n).dim == n * n
