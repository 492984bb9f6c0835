from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qloopk import linalg
from qloopk.linalg import (KernelDimension, LinalgError, Mat, ShapeMismatch,
                           SpanBasis, algebra_closure, intertwiner_kernel,
                           _residual, invert, kron, permute, product_residual,
                           proportionality, rank, rref, swap)
from qloopk.scalars import Rat, kronecker, one, p, q, z, zero


def small_mat(n):
    cell = st.integers(min_value=-3, max_value=3).map(Rat)
    return st.lists(st.lists(cell, min_size=n, max_size=n),
                    min_size=n, max_size=n).map(Mat)


class TestMat:
    def test_identity_and_mul(self):
        m = Mat([[one, q], [z, zero]])
        assert m @ Mat.identity(2) == m
        assert Mat.identity(2) @ m == m

    def test_shape_guard(self):
        with pytest.raises(ShapeMismatch):
            Mat.identity(2) @ Mat.identity(3)

    def test_pow(self):
        m = Mat([[one, one], [zero, one]])
        assert m.pow(3)[0, 1] == Rat(3)

    def test_pow_rejects_negative_and_non_integer_exponents(self):
        # a negative n once looped forever; a Fraction failed inside n & 1
        with pytest.raises(ValueError):
            Mat.identity(2).pow(-1)
        with pytest.raises(TypeError):
            Mat.identity(2).pow(Fraction(1))

    @given(a=small_mat(2), b=small_mat(2), c=small_mat(2))
    @settings(max_examples=30, deadline=None)
    def test_distributivity(self, a, b, c):
        assert a @ (b + c) == a @ b + a @ c

    def test_substitute(self):
        m = Mat([[z, one], [zero, z.inv()]])
        at2 = m.substitute({"z": Rat(2)})
        assert at2[0, 0] == Rat(2) and at2[1, 1] == Rat(Fraction(1, 2))

    def test_substitute_checks_keys_of_zero_matrix(self):
        # zeros are not substituted, but the keys are still checked
        m = Mat.zeros(2)
        assert m.substitute({"z": Rat(2)}) == m
        with pytest.raises(ValueError, match="substitute p"):
            m.substitute({"q": Rat(2)})
        with pytest.raises(TypeError, match="bad substitution target"):
            m.substitute({1: Rat(2)})

    @given(a=small_mat(2), b=small_mat(2), c=st.integers(-2, 2))
    @settings(max_examples=30, deadline=None)
    def test_sums_and_scaling_skip_zeros(self, a, b, c):
        # entrywise, the cheap paths for zero entries give the same values
        c = Rat(c) * q
        n = range(2)
        assert all((a + b)[i, j] == a[i, j] + b[i, j] for i in n for j in n)
        assert all((a - b)[i, j] == a[i, j] - b[i, j] for i in n for j in n)
        assert all(a.scale(c)[i, j] == c * a[i, j] for i in n for j in n)


class TestProportionality:
    def test_scalar_multiple(self):
        c = (z + 1) / q
        b = [one, zero, z, q - 1]
        assert proportionality([c * x for x in b], b) == c

    @pytest.mark.parametrize("a, b", [
        ([one, z], [one, one]),      # two ratios
        ([one, zero], [one, one]),   # zero against nonzero
        ([zero, one], [one, one]),
        ([zero, zero], [zero, zero]),
    ])
    def test_none(self, a, b):
        assert proportionality(a, b) is None

    def test_lengths_must_match(self):
        with pytest.raises(ValueError):
            proportionality([one], [one, one])


class TestKronFlip:
    def test_kron_dims(self):
        a, b = Mat.identity(2), Mat.identity(3)
        assert kron(a, b).shape() == (6, 6)

    def test_identity_leg_copies_entries(self):
        m = Mat([[q / z, one], [zero, z - q]])
        left, right = kron(Mat.identity(2), m), kron(m, Mat.identity(2))
        for i in range(4):
            for j in range(4):
                a, b, c, d = i // 2, i % 2, j // 2, j % 2
                assert left[i, j] == (m[b, d] if a == c else zero)
                assert right[i, j] == (m[a, c] if b == d else zero)
        # the other factor's entries are stored, not multiplied by one
        assert left[2, 2] is m[0, 0] and right[3, 3] is m[1, 1]

    @given(a=small_mat(2), b=small_mat(2))
    @settings(max_examples=20, deadline=None)
    def test_kron_multiplicative(self, a, b):
        assert kron(a, a) @ kron(b, b) == kron(a @ b, a @ b)

    def test_flip_conjugates_kron(self):
        a = Mat([[one, q], [zero, one]])
        b = Mat([[z, zero], [one, one]])
        assert permute(kron(a, b), swap(2, 2)) == kron(b, a)

    def test_flip_rectangular(self):
        a = Mat([[one, q], [zero, z]])
        b = Mat([[z, zero, q], [one, one, zero], [zero, q, Rat(2)]])
        m = kron(a, b)
        assert permute(m, swap(2, 3)) == kron(b, a)
        assert permute(permute(m, swap(2, 3)), swap(3, 2)) == m
        # permute is conjugation by the permutation matrix P e_k = e_{perm[k]},
        # whose inverse sends e_{perm[k]} back to e_k
        P, Pinv = Mat.zeros(6), Mat.zeros(6)
        for k, target in enumerate(swap(2, 3)):
            P.data[target][k] = Pinv.data[k][target] = one
        assert permute(m, swap(2, 3)) == P @ m @ Pinv


class TestSolvers:
    def test_rank_and_nullspace(self):
        m = Mat([[one, q], [q, q * q]])
        assert rank(m) == 1
        ns = SpanBasis(m.ncols, m.data).nullspace()
        assert len(ns) == 1
        v = ns[0]
        assert all((m[i, 0] * v[0] + m[i, 1] * v[1]).is_zero() for i in range(2))

    def test_invert_roundtrip(self):
        m = Mat([[one, z], [q, one + z]])
        assert m @ invert(m) == Mat.identity(2)

    def test_invert_singular(self):
        with pytest.raises(LinalgError):
            invert(Mat([[one, one], [one, one]]))

    def test_rref_idempotent(self):
        m = Mat([[one, q, z], [q, q * q, q * z]])
        r1, piv = rref(m)
        r2, piv2 = rref(r1)
        assert r2 == r1 and piv2 == piv


class TestSpanBasis:
    def test_incremental_dim(self):
        sb = SpanBasis(3)
        assert sb.add([one, zero, zero])
        assert not sb.add([q, zero, zero])
        assert sb.add([zero, one, one])
        assert sb.dim == 2

    def test_nullspace_matches_constraints(self):
        sb = SpanBasis(3)
        sb.add([one, one, zero])
        sb.add([zero, one, one])
        ker = sb.nullspace()
        assert len(ker) == 1
        v = ker[0]
        assert (v[0] + v[1]).is_zero() and (v[1] + v[2]).is_zero()


_INT = st.integers(min_value=-3, max_value=3)
_KERNEL_CELL = st.one_of(
    st.just(zero), _INT.map(Rat),
    st.tuples(_INT, _INT, _INT).map(
        lambda t: (Rat(t[0]) + Rat(t[1]) * z) / (Rat(t[2]) + z)))


@given(ncols=st.integers(1, 5), dependent=st.booleans(), data=st.data())
@settings(max_examples=80, deadline=None)
def test_nullspace_matches_rref(ncols, dependent, data):
    """The kernel read off SpanBasis has the dimension rref gives, lies in
    the kernel, is 1 at each vector's last nonzero entry, and a line equals
    the vector read off the reduced row echelon form."""
    nrows = data.draw(st.integers(1, ncols))
    rows = data.draw(st.lists(st.lists(_KERNEL_CELL, min_size=ncols, max_size=ncols),
                              min_size=nrows, max_size=nrows))
    if dependent:
        c = data.draw(_KERNEL_CELL)
        rows.append([c * x + y for x, y in zip(rows[0], rows[-1])])
    m = Mat(rows)
    ker = SpanBasis(m.ncols, m.data).nullspace()
    r, pivots = rref(m)
    assert rank(m) == len(pivots)
    assert len(ker) == ncols - len(pivots)
    for v in ker:
        assert all(x.is_zero() for x in m.mul_vec(v))
        assert [x for x in v if not x.is_zero()][-1].is_one()
    if len(ker) == 1:
        (f,) = [col for col in range(ncols) if col not in pivots]
        expected = [zero] * ncols
        expected[f] = one
        for i, pc in enumerate(pivots):
            expected[pc] = -r[i, f]
        assert ker[0] == expected


class TestClosure:
    def test_full_matrix_algebra(self):
        e01 = Mat([[zero, one], [zero, zero]])
        e10 = Mat([[zero, zero], [one, zero]])
        assert algebra_closure([e01, e10]).dim == 4

    def test_diagonal_algebra(self):
        d = Mat([[one, zero], [zero, Rat(2)]])
        assert algebra_closure([d]).dim == 2

    def test_includes_identity(self):
        zero2 = Mat.zeros(2)
        assert algebra_closure([zero2]).dim == 1

    def test_monotone_in_generators(self):
        e01 = Mat([[zero, one], [zero, zero]])
        d = Mat([[one, zero], [zero, Rat(2)]])
        assert algebra_closure([d]).dim <= algebra_closure([d, e01]).dim

    @pytest.mark.parametrize("n", [2, 3])
    def test_no_product_once_full(self, n, monkeypatch):
        # the shift pair spans all of M_n partway through a round of
        # products; the closure stops there without being told n^2, which
        # bounds the cost of irred.check_irreducible's exact fallback
        spans, dims_at_product = [], []
        add, matmul = SpanBasis.add, Mat.__matmul__

        def spy_add(self, vec):
            spans.append(self)
            return add(self, vec)

        def spy_matmul(self, other):
            dims_at_product.append(spans[-1].dim)
            return matmul(self, other)

        monkeypatch.setattr(SpanBasis, "add", spy_add)
        monkeypatch.setattr(Mat, "__matmul__", spy_matmul)
        shift = Mat([[one if i == j + 1 else zero for j in range(n)]
                     for i in range(n)])
        back = Mat([[shift[j, i] for j in range(n)] for i in range(n)])
        assert algebra_closure([shift, back]).dim == n * n
        assert dims_at_product and max(dims_at_product) < n * n


# -- product identities over common denominators -----------------------------

_ENTRIES = [zero, one, Rat(-2), Rat(Fraction(1, 3)), q, z.inv(),
            (q - z) / (one + z), one / (z - one), q / (z - one)]


def _square(n):
    return st.lists(st.sampled_from(_ENTRIES), min_size=n * n,
                    max_size=n * n).map(
        lambda xs: Mat([xs[i * n:(i + 1) * n] for i in range(n)]))


def _product(factors, n):
    out = Mat.identity(factors[0].nrows if factors else n)
    for m in factors:
        out = out @ m
    return out


def _rectangular(rows, cols):
    return st.lists(st.sampled_from(_ENTRIES), min_size=rows * cols,
                    max_size=rows * cols).map(
        lambda xs: Mat([xs[i * cols:(i + 1) * cols] for i in range(rows)]))


def _chain(data, dims):
    return [data.draw(_rectangular(r, c)) for r, c in zip(dims, dims[1:])]


def _first_difference(a, b):
    for i in range(a.nrows):
        for j in range(a.ncols):
            if a[i, j] != b[i, j]:
                return i, j, a[i, j] - b[i, j]
    return None


@given(n=st.integers(1, 3),
       mode=st.sampled_from(["random", "equal", "mismatch", "zero", "permuted",
                             "intertwine", "rectangular", "one-sided"]),
       data=st.data())
@settings(max_examples=150, deadline=None)
def test_product_residual_matches_mat_products(n, mode, data):
    """None exactly when the Mat products agree; otherwise the first entry
    of their difference. Covers empty (identity) sides, a zero factor, a
    one-entry mismatch, sides that share factors in permuted order,
    ``[K, L]`` against ``[R, K]``, where K's denominator cancels, chains of
    rectangular factors, and one side against the identity, where the
    lcms of that side are all left over (as in K-unitarity)."""
    lhs = data.draw(st.lists(_square(n), max_size=3))
    if mode == "zero":
        lhs = lhs + [Mat.zeros(n)]
    L = _product(lhs, n)
    if mode == "equal":
        rhs = [L]
    elif mode == "mismatch":
        bad = Mat([row[:] for row in L.data])
        i, j = data.draw(st.integers(0, n - 1)), data.draw(st.integers(0, n - 1))
        bad.data[i][j] = bad.data[i][j] + data.draw(st.sampled_from(_ENTRIES[1:]))
        rhs = [bad]
    elif mode == "permuted":
        rhs = data.draw(st.permutations(lhs))
    elif mode == "intertwine":
        K, A = data.draw(_square(n)), data.draw(_square(n))
        try:
            B = K @ A @ invert(K) if data.draw(st.booleans()) else data.draw(_square(n))
        except LinalgError:
            B = data.draw(_square(n))
        lhs, rhs = [K, A], [B, K]
        L = _product(lhs, n)
    elif mode == "rectangular":
        dims = data.draw(st.lists(st.integers(1, 3), min_size=2, max_size=4))
        lhs = _chain(data, dims)
        L = _product(lhs, n)
        inner = data.draw(st.lists(st.integers(1, 3), max_size=2))
        rhs = data.draw(st.sampled_from([
            [L],                                      # equal
            lhs[:-2] + [_product(lhs[-2:], n)],       # regrouped, equal
            _chain(data, [dims[0], *inner, dims[-1]])]))
    elif mode == "one-sided":
        K = data.draw(_square(n))
        try:
            other = invert(K) if data.draw(st.booleans()) else data.draw(_square(n))
        except LinalgError:
            other = K
        lhs = [other, K]
        L = _product(lhs, n)
        rhs = []
    else:
        rhs = data.draw(st.lists(_square(n), max_size=2))
    if not lhs and not rhs:
        rhs = [Mat.identity(n)]
    expected = _first_difference(L, _product(rhs, n))
    assert product_residual(lhs, rhs) == expected
    if mode in ("equal", "mismatch"):
        assert (expected is None) == (mode == "equal")


class TestProductResidual:
    def test_inverse_pair_against_identity(self):
        m = Mat([[q, one / (z - q)], [z, one]])
        assert product_residual([m, invert(m)], []) is None
        assert product_residual([], [invert(m), m]) is None

    def test_rectangular_chain(self):
        a = Mat([[one, q / z, zero]])
        b = Mat([[z], [one / q], [Rat(5)]])
        assert product_residual([a, b], [Mat([[z + z.inv()]])]) is None
        assert product_residual([b, a], [Mat.zeros(3)]) is not None

    def test_guards(self):
        with pytest.raises(LinalgError):
            product_residual([], [])
        with pytest.raises(ShapeMismatch):
            product_residual([Mat.identity(2)], [Mat.identity(3)])
        with pytest.raises(ShapeMismatch):
            product_residual([Mat.zeros(2, 3), Mat.zeros(2, 2)], [Mat.zeros(2)])

    def test_width_is_the_bound(self, monkeypatch):
        """Entries that differ by 2^(B-1) - p, where B is the proven width:
        packed at B bits the check tells them apart, packed at B - 1 bits
        (p -> 2^(B-1)) it does not, so the bound is what makes it sound."""
        widths = []

        def spy(polys, width):
            widths.append(width)
            return kronecker(polys, width)

        monkeypatch.setattr(linalg, "kronecker", spy)
        B = 12
        lhs, rhs = [Mat([[p + 1]])], [Mat([[Rat(2 ** (B - 1) + 1)]])]
        assert product_residual(lhs, rhs) == (0, 0, p - 2 ** (B - 1))
        # ||p + 1||_1 + ||2^(B-1) + 1||_1 = 2051 < 2^B
        assert widths == [B]
        assert _residual(lhs, rhs, B) == (0, 0, p - 2 ** (B - 1))
        assert _residual(lhs, rhs, B - 1) is None
        # the same in 2 x 2 products sharing a factor with denominator p
        m = Mat([[one / p, p], [one, p * p]])
        lhs = [m, Mat.diagonal([p + 1, one])]
        rhs = [m, Mat.diagonal([Rat(2 ** (B - 1) + 1), one])]
        assert _residual(lhs, rhs, B) == (0, 0, (p - 2 ** (B - 1)) / p)
        assert _residual(lhs, rhs, B - 1) is None
        assert product_residual(lhs, rhs) == (0, 0, (p - 2 ** (B - 1)) / p)


def test_intertwiner_kernel_is_a_line_as_a_matrix():
    # X·A = A·X for A = diag(1, q) holds for every diagonal X: a line on the
    # unknown (0, 0) alone, which comes back as a 2 x 2 matrix, and a plane
    # on (0, 0) and (1, 1)
    A = Mat.diagonal([one, q])
    assert intertwiner_kernel([(A, A)], {(0, 0): 0}) == Mat.diagonal([one, zero])
    with pytest.raises(KernelDimension) as exc:
        intertwiner_kernel([(A, A)], {(0, 0): 0, (1, 1): 1})
    assert exc.value.k == 2
