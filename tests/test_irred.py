import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qloopk import irred
from qloopk.braid import theta_q_Fs
from qloopk.irred import (DeformationNotUpper, check_generic_tensor_irreducible,
                          check_irreducible,
                          check_modified_nilpotent_irreducible,
                          qsp_deformations)
from qloopk.linalg import LinalgError, Mat, ShapeMismatch
from qloopk.repcore import build_eval_rep_sl2
from qloopk.rootdata import (GradingShift, QSPParams, SatakeDiagram, affine_A,
                             shift_exponent, theta_on_roots)
from qloopk.scalars import Rat, const, one, z, zero

ELL = irred.ELL


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
        exact = irred.algebra_closure(mats)
        assert not irred._specialized_full(mats, 2)
        assert calls == []
        v = check_irreducible(mats)
        assert v.irreducible is (exact.dim == 4)
        assert v.closure_dim == exact.dim
        assert "constant specialization" not in v.detail

    def test_no_generators(self):
        with pytest.raises(LinalgError, match="no generators"):
            check_irreducible([])

    @pytest.mark.parametrize("other", [
        Mat.identity(3),
        Mat([[one, zero, zero], [zero, one, zero]]),
    ], ids=["3x3", "2x3"])
    def test_mixed_shapes(self, other):
        with pytest.raises(ShapeMismatch):
            check_irreducible([Mat.identity(2), other])

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

    def test_rejects_keys_off_the_nodes(self, fund):
        # filed under node 0 this deformation is rejected; under 7 it must
        # not be dropped in silence
        with pytest.raises(ValueError, match="7"):
            check_modified_nilpotent_irreducible(
                fund, {7: fund.K[0].scale(z.inv())})

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


def _qsp_deformations_reference(V, params):
    """The deformation terms as first written in irred, separately from
    kmat.qsp_generators. The oracle for irred.qsp_deformations."""
    diagram = params.diagram
    cd = diagram.cartan
    pr = GradingShift.principal(cd)
    thF = theta_q_Fs(V, diagram, [i for i in cd.nodes if i not in diagram.X])
    out = {}
    for i, th in thF.items():
        sth = shift_exponent(pr, theta_on_roots(diagram, cd.alpha(i)))
        D = th.scale(params.gamma[i] * z ** (-sth))
        if not params.sigma[i].is_zero():
            D = D + V.Kinv(i).scale(params.sigma[i])
        out[i] = D
    return out


class TestSingleFormula:
    @pytest.mark.parametrize("spin2", [1, 2, 3])
    @pytest.mark.parametrize("datum", ["onsager", "onsager_sigma0"])
    def test_onsager_spins(self, request, datum, spin2, a):
        params = request.getfixturevalue(datum)["params"]
        V = build_eval_rep_sl2(spin2, a)
        defs = qsp_deformations(V, params)
        assert set(defs) == {0, 1}
        assert defs == _qsp_deformations_reference(V, params)

    def test_quasi_split_sl3(self, vec3):
        # X empty, tau = (0 2 1): theta_q(F_1) is built from E_2
        g1 = const("g1")
        diagram = SatakeDiagram(affine_A(2), (), (0, 2, 1))
        params = QSPParams(diagram, {0: one, 1: g1, 2: g1.inv()},
                           {i: zero for i in range(3)})
        defs = qsp_deformations(vec3, params)
        assert set(defs) == {0, 1, 2}
        assert defs == _qsp_deformations_reference(vec3, params)


class TestTensor:
    def test_fundamental_pair_generic(self, fund, fund_b):
        v = check_generic_tensor_irreducible(fund, fund_b)
        assert v.irreducible is True

    def test_with_trivial_factor(self, fund, b):
        triv = build_eval_rep_sl2(0, b)
        v = check_generic_tensor_irreducible(fund, triv)
        assert v.irreducible is True


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
        assert irred.algebra_closure(mats).dim == n * n


def _full_mod_reference(gens, n):
    """The F_ELL closure as first written: nested matrices, column-sparse
    generators and a ``% ELL`` after every operation. The oracle for
    irred._full_mod."""
    full = n * n
    rows = {}  # pivot -> row, 1 there and 0 before

    def add(m) -> bool:
        if len(rows) == full:
            return False
        v = [x for row in m for x in row]
        for j in range(full):
            c = v[j]
            if not c:
                continue
            row = rows.get(j)
            if row is None:
                inv = pow(c, -1, ELL)
                rows[j] = [x * inv % ELL for x in v]
                return True
            v[j:] = [(x - c * y) % ELL for x, y in zip(v[j:], row[j:])]
        return False

    sparse = [[[(k, y) for k, y in enumerate(col) if y] for col in zip(*g)]
              for g in gens]

    def mul(a, cols):
        return [[sum(r[k] * y for k, y in col) % ELL for col in cols]
                for r in a]

    identity = [[int(i == j) for j in range(n)] for i in range(n)]
    frontier = [m for m in [identity] + gens if add(m)]
    while frontier and len(rows) < full:
        frontier = [prod for b in frontier for g in sparse
                    if add(prod := mul(b, g))]
    return len(rows) == full


# a pivot 2 stores a row scaled by (ELL + 1) / 2, so elimination over Z
# leaves nonzero multiples of ELL behind; any residue makes dense, mostly
# full generator sets
_RESIDUE = st.one_of(st.sampled_from([0, 1, 2, ELL - 1]),
                     st.integers(0, ELL - 1))


@st.composite
def _residue_generators(draw):
    n = draw(st.integers(1, 5))
    mat = st.lists(st.lists(_RESIDUE, min_size=n, max_size=n),
                   min_size=n, max_size=n)
    return n, draw(st.lists(mat, min_size=1, max_size=3))


def _upper_block(n, k, entries):
    """n x n with the rows >= k zero in the columns < k."""
    it = iter(entries)
    return [[0 if i >= k > j else next(it) for j in range(n)]
            for i in range(n)]


class TestFullModOracle:
    @settings(max_examples=100, deadline=None)
    @given(_residue_generators())
    def test_matches_reference(self, case):
        n, gens = case
        assert irred._full_mod(gens, n) == _full_mod_reference(gens, n)

    @settings(max_examples=40, deadline=None)
    @given(st.integers(2, 5).flatmap(lambda n: st.tuples(
        st.just(n), st.integers(1, n - 1),
        st.lists(st.lists(_RESIDUE, min_size=n * n, max_size=n * n),
                 min_size=1, max_size=3))))
    def test_block_upper_triangular_not_full(self, case):
        n, k, draws = case
        gens = [_upper_block(n, k, e) for e in draws]
        assert _full_mod_reference(gens, n) is False
        assert irred._full_mod(gens, n) is False

    @settings(max_examples=40, deadline=None)
    @given(st.integers(2, 5).flatmap(lambda n: st.tuples(
        st.just(n), st.lists(st.lists(_RESIDUE, min_size=n, max_size=n),
                             min_size=1, max_size=3))))
    def test_commuting_diagonal_not_full(self, case):
        n, diagonals = case
        gens = [[[d[i] if i == j else 0 for j in range(n)] for i in range(n)]
                for d in diagonals]
        assert _full_mod_reference(gens, n) is False
        assert irred._full_mod(gens, n) is False

    @pytest.mark.parametrize("n", [2, 3, 5])
    def test_single_nilpotent_not_full(self, n):
        # the shift e_i -> e_{i+1}, and with it the shift pair, which is full
        shift = [[int(i == j + 1) for j in range(n)] for i in range(n)]
        back = [list(col) for col in zip(*shift)]
        assert _full_mod_reference([shift], n) is False
        assert irred._full_mod([shift], n) is False
        assert irred._full_mod([shift, back], n) is True

    def test_spin1_tensor_square(self, spin1, b, monkeypatch):
        # the 8 generators of spin 1 (x) spin 1 over F_ELL: the 81-dimensional
        # span fills partway through a round of products
        seen = []
        monkeypatch.setattr(irred, "_full_mod",
                            lambda gens, n: seen.append((gens, n)) or True)
        check_generic_tensor_irreducible(spin1, build_eval_rep_sl2(2, b))
        (gens, n), = seen
        assert n == 9 and len(gens) == 8
        assert _full_mod_reference(gens, n) is True
        monkeypatch.undo()
        assert irred._full_mod(gens, n) is True


def _spying(monkeypatch):
    """Record (vector length, result) of each irred._spans_all call: length
    n for a Norton spin, n^2 for the closure."""
    calls = []
    spans_all = irred._spans_all

    def spy(seeds, sparse, n):
        out = spans_all(seeds, sparse, n)
        calls.append((len(seeds[0]), out))
        return out

    monkeypatch.setattr(irred, "_spans_all", spy)
    return calls


@st.composite
def _mixed_generators(draw):
    """1-4 n x n generators, n = 1-5: diagonal ones, whose values repeat
    often, among dense ones. When k > 0 the dense ones are zero in the rows
    >= k and columns < k, so every generator keeps span(e_0..e_{k-1}), or
    they are the transposes of such, keeping span(e_k..e_{n-1})."""
    n = draw(st.integers(1, 5))
    k = draw(st.integers(0, n - 1))
    lower = draw(st.booleans())
    # diagonal values drawn freely, or from a pool of at most n residues
    values = st.one_of(
        st.lists(_RESIDUE, min_size=n, max_size=n),
        st.lists(_RESIDUE, min_size=1, max_size=n).flatmap(
            lambda pool: st.lists(st.sampled_from(pool), min_size=n,
                                  max_size=n)))
    diagonal = values.map(lambda d: [[d[i] if i == j else 0
                                      for j in range(n)] for i in range(n)])
    block = st.lists(_RESIDUE, min_size=n * n, max_size=n * n).map(
        lambda e: _upper_block(n, k, e)).map(
        lambda m: [list(col) for col in zip(*m)] if lower else m)
    return n, k, draw(st.lists(st.one_of(diagonal, block),
                               min_size=1, max_size=4))


class TestNorton:
    @settings(max_examples=150, deadline=None)
    @given(_mixed_generators())
    def test_matches_reference(self, case):
        n, k, gens = case
        ref = _full_mod_reference(gens, n)
        assert irred._full_mod(gens, n) is ref
        if k:
            assert ref is False

    def test_only_the_transposed_spin_rejects(self, monkeypatch):
        # lower triangular: e_0 spins to F^2 under the generators, but under
        # their transposes it stays on its line
        gens = [[[1, 0], [0, 2]], [[0, 0], [1, 0]]]
        calls = _spying(monkeypatch)
        assert _full_mod_reference(gens, 2) is False
        assert irred._full_mod(gens, 2) is False
        assert calls == [(2, True), (2, False)]

    def test_repeated_value_is_no_certificate(self, monkeypatch):
        # I and a rotation generate F_ELL(i), ELL = 3 mod 4: both spins of
        # e_0 are full, but theta = I - I = 0 has nullity 2
        gens = [[[1, 0], [0, 1]], [[0, ELL - 1], [1, 0]]]
        calls = _spying(monkeypatch)
        assert _full_mod_reference(gens, 2) is False
        assert irred._full_mod(gens, 2) is False
        assert calls == [(4, False)]

    @pytest.mark.parametrize("spin2", [2, 5])
    def test_tensor_squares_skip_the_closure(self, spin2, a, b, monkeypatch):
        # spin 1 (x) spin 1 (n = 9) and spin 5/2 (x) spin 5/2 (n = 36) are
        # decided by two spins of length n, never by a closure of length n^2
        calls = _spying(monkeypatch)
        v = check_generic_tensor_irreducible(build_eval_rep_sl2(spin2, a),
                                             build_eval_rep_sl2(spin2, b))
        n = (spin2 + 1) ** 2
        assert (v.irreducible, v.closure_dim) == (True, n * n)
        assert calls == [(n, True), (n, True)]
