"""Dense exact linear algebra over the scalar fraction field.

Matrices are small (at most a few hundred rows) but their entries are
multivariate rational functions, so the cost model is dominated by entry
arithmetic, not by dimension. The elimination routines therefore pick pivots
of smallest total degree to keep intermediate entries small, and the matrix
product, sums, scaling and substitution skip structural zeros.

Every linear system is eliminated once, by :class:`SpanBasis`: rank and kernel
are read off its reduced rows. :func:`rref` is kept for :func:`invert` only.
Tensor legs are moved by :func:`permute`, which reindexes entries instead of
multiplying by permutation matrices.

Product identities ``A1 A2 ... = B1 B2 ...`` are decided by
:func:`product_residual` on sparse integer data, without a ``Mat`` or a
``Rat`` per term:

* **Clearing.** Each distinct factor becomes sparse rows of polynomial
  numerators over the lcm of its entry denominators, each distinct entry
  cleared once. Lcms equal on both sides cancel (both sides of a
  Yang-Baxter or reflection equation multiply the same factors, or R and
  its flip R_21, in another order); with the leftovers, ``L/dl == R/dr``
  becomes ``L*dr == R*dl``.
* **Packing.** The generator of largest degree among the numerators and
  the leftover lcms goes to 2**B (:func:`~qloopk.scalars.kronecker`). An
  entry of a product is a sum, over the inner indices, of products of one
  numerator per factor, so by ||f*g||_1 <= ||f||_1 ||g||_1 its coefficients
  are at most (product of the inner dimensions) * prod(largest l1 norm of
  a numerator of each factor) * ||other side's leftover lcm||_1. The two
  sides' bounds add up to M, a bound for the difference ``L*dr - R*dl``,
  and B is the least width with 2**B > M.
* **Comparing.** The packed rows are multiplied touching nonzeros only and
  compared row by row. Substitution at 2**B is a ring homomorphism that
  sends no nonzero polynomial with coefficients below 2**B to zero, so a
  packed entry of the difference vanishes exactly when the exact one does:
  the check decides both ways, and the first packed entry that differs is
  the first exact one. Only that entry is recomputed unpacked and divided
  out.
"""

from __future__ import annotations

import math
from typing import NamedTuple

from .scalars import (Rat, check_targets, clear_denominators, kronecker, one,
                      zero)


class LinalgError(Exception):
    pass


class ShapeMismatch(LinalgError):
    pass


class NotInvertible(LinalgError):
    pass


class KernelDimension(LinalgError):
    def __init__(self, k):
        self.k = k
        super().__init__(f"intertwiner kernel has dimension {k}, expected 1")


class Mat:
    """Matrix with :class:`Rat` entries."""

    __slots__ = ("data", "nrows", "ncols")

    def __init__(self, data):
        rows = [[x if isinstance(x, Rat) else Rat(x) for x in row] for row in data]
        if rows and any(len(r) != len(rows[0]) for r in rows):
            raise ShapeMismatch("ragged rows")
        self.data = rows
        self.nrows = len(rows)
        self.ncols = len(rows[0]) if rows else 0

    # -- constructors -----------------------------------------------------
    @staticmethod
    def zeros(n: int, m: int | None = None) -> "Mat":
        m = n if m is None else m
        return Mat([[zero] * m for _ in range(n)])

    @staticmethod
    def identity(n: int) -> "Mat":
        out = Mat.zeros(n)
        for i in range(n):
            out.data[i][i] = one
        return out

    @staticmethod
    def diagonal(entries) -> "Mat":
        entries = [x if isinstance(x, Rat) else Rat(x) for x in entries]
        out = Mat.zeros(len(entries))
        for i, x in enumerate(entries):
            out.data[i][i] = x
        return out

    @staticmethod
    def unit(n: int, m: int, i: int, j: int) -> "Mat":
        out = Mat.zeros(n, m)
        out.data[i][j] = one
        return out

    # -- basic access -----------------------------------------------------
    def __getitem__(self, ij):
        i, j = ij
        return self.data[i][j]

    def shape(self):
        return (self.nrows, self.ncols)

    # -- arithmetic -------------------------------------------------------
    def __add__(self, other: "Mat") -> "Mat":
        if self.shape() != other.shape():
            raise ShapeMismatch("add: shapes differ")
        return Mat([[b if a.is_zero() else a if b.is_zero() else a + b
                     for a, b in zip(r1, r2)]
                    for r1, r2 in zip(self.data, other.data)])

    def __sub__(self, other: "Mat") -> "Mat":
        if self.shape() != other.shape():
            raise ShapeMismatch("sub: shapes differ")
        return Mat([[a if b.is_zero() else -b if a.is_zero() else a - b
                     for a, b in zip(r1, r2)]
                    for r1, r2 in zip(self.data, other.data)])

    def __neg__(self) -> "Mat":
        return Mat([[-a for a in row] for row in self.data])

    def scale(self, c) -> "Mat":
        c = c if isinstance(c, Rat) else Rat(c)
        if c.is_zero():
            return Mat.zeros(self.nrows, self.ncols)
        return Mat([[a if a.is_zero() else c * a for a in row]
                    for row in self.data])

    def __matmul__(self, other: "Mat") -> "Mat":
        if self.ncols != other.nrows:
            raise ShapeMismatch("matmul: inner dimensions differ")
        # index the nonzero entries once; products are the expensive part
        lrows = [[(j, a) for j, a in enumerate(row) if not a.is_zero()]
                 for row in self.data]
        out = [[zero] * other.ncols for _ in range(self.nrows)]
        for i, items in enumerate(lrows):
            for j, a in items:
                orow = other.data[j]
                for k, b in enumerate(orow):
                    if not b.is_zero():
                        out[i][k] = out[i][k] + a * b
        return Mat(out)

    def pow(self, n: int) -> "Mat":
        if self.nrows != self.ncols:
            raise ShapeMismatch("pow: not square")
        out = Mat.identity(self.nrows)
        base = self
        while n:
            if n & 1:
                out = out @ base
            base = base @ base if n > 1 else base
            n >>= 1
        return out

    def apply(self, f) -> "Mat":
        return Mat([[f(a) for a in row] for row in self.data])

    def substitute(self, assignments: dict) -> "Mat":
        """Entrywise :meth:`Rat.substitute`; zeros are kept as they are, once
        the keys are checked."""
        check_targets(assignments)
        return self.apply(lambda a: a if a.is_zero() else a.substitute(assignments))

    def mul_vec(self, v):
        if len(v) != self.ncols:
            raise ShapeMismatch("mul_vec: length mismatch")
        out = []
        for row in self.data:
            acc = zero
            for a, x in zip(row, v):
                if not a.is_zero() and not x.is_zero():
                    acc = acc + a * x
            out.append(acc)
        return out

    # -- predicates -------------------------------------------------------
    def is_zero(self) -> bool:
        return all(a.is_zero() for row in self.data for a in row)

    def is_identity(self) -> bool:
        if self.nrows != self.ncols:
            return False
        return all((self.data[i][j].is_one() if i == j else self.data[i][j].is_zero())
                   for i in range(self.nrows) for j in range(self.ncols))

    def __eq__(self, other):
        if not isinstance(other, Mat):
            return NotImplemented
        if self.shape() != other.shape():
            return False
        return all(a == b for r1, r2 in zip(self.data, other.data)
                   for a, b in zip(r1, r2))

    def __str__(self):
        return "\n".join("[" + ", ".join(str(a) for a in row) + "]"
                         for row in self.data)

    def to_json(self):
        return [[str(a) for a in row] for row in self.data]


def kron(a: Mat, b: Mat) -> Mat:
    """Kronecker product; basis e_i ⊗ f_j ↦ index i * b.nrows-block + j."""
    out = Mat.zeros(a.nrows * b.nrows, a.ncols * b.ncols)
    for i in range(a.nrows):
        for j in range(a.ncols):
            x = a.data[i][j]
            if x.is_zero():
                continue
            x_one = x.is_one()
            for k in range(b.nrows):
                for l in range(b.ncols):
                    y = b.data[k][l]
                    if not y.is_zero():
                        # an identity leg copies the other factor's entries
                        out.data[i * b.nrows + k][j * b.ncols + l] = (
                            y if x_one else x if y.is_one() else x * y)
    return out


def swap(dim_a: int, dim_b: int) -> list[int]:
    """Index map of the tensor swap A ⊗ B → B ⊗ A: basis vector
    ``i * dim_b + j`` of A ⊗ B goes to ``j * dim_a + i`` of B ⊗ A."""
    return [j * dim_a + i for i in range(dim_a) for j in range(dim_b)]


def permute(m: Mat, perm: list[int]) -> Mat:
    """P·m·P⁻¹ for the permutation matrix with P e_k = e_{perm[k]}: entries
    are moved (``out[perm[i]][perm[j]] = m[i][j]``), never computed."""
    out = Mat.zeros(m.nrows)
    for i, row in enumerate(m.data):
        for j, x in enumerate(row):
            out.data[perm[i]][perm[j]] = x
    return out


def proportionality(a, b):
    """The scalar c with a = c·b entry by entry, for two sequences of
    scalars of one length (a matrix read row by row, or a vector), or None
    if there is none or both are zero."""
    ratio = None
    for x, y in zip(a, b, strict=True):
        if x.is_zero() != y.is_zero():
            return None
        if x.is_zero():
            continue
        r = x / y
        if ratio is None:
            ratio = r
        elif r != ratio:
            return None
    return ratio


def product_residual(lhs: list[Mat], rhs: list[Mat]):
    """Decide ``prod(lhs) == prod(rhs)`` exactly; an empty side is the identity.

    Returns None when the products are equal, and otherwise ``(i, j, value)``
    for the first nonzero entry of ``prod(lhs) - prod(rhs)`` in row-major
    order, the canonical fraction. The module docstring says how it is
    decided.
    """
    return _residual(lhs, rhs)


def _residual(lhs: list[Mat], rhs: list[Mat], width: int | None = None):
    """:func:`product_residual`, packed at ``width`` bits instead of the
    proven width when one is given, which can make the answer wrong."""
    if not lhs and not rhs:
        raise LinalgError("no factors")
    n = (lhs or rhs)[0].nrows
    if _chain_shape(lhs, n) != _chain_shape(rhs, n):
        raise ShapeMismatch("product_residual: shapes differ")
    cleared: dict[int, _Cleared] = {}
    for m in lhs + rhs:
        if id(m) not in cleared:
            cleared[id(m)] = _clear(m)
    sides = [[cleared[id(m)] for m in side] for side in (lhs, rhs)]
    ring = next(iter(cleared.values())).den.ring
    dl, dr = ([c.den for c in side if c.den != 1] for side in sides)
    shared = []
    for d in dl[:]:
        if d in dr:
            dl.remove(d)
            dr.remove(d)
            shared.append(d)
    # L/dl == R/dr  <=>  L*dr == R*dl over the leftover lcms
    scales = [math.prod(dr, start=ring.one), math.prod(dl, start=ring.one)]
    if width is None:
        bound = sum(_coefficient_bound(side, s) for side, s in zip(sides, scales))
        width = max(1, bound.bit_length())
    polys = {id(x): x for c in cleared.values() for row in c.rows
             for x in row.values()}
    polys.update((id(s), s) for s in scales)
    packed = dict(zip(polys, kronecker(list(polys.values()), width)))
    L, R = (_product([[{j: packed[id(x)] for j, x in row.items()} for row in c.rows]
                      for c in side], packed[id(s)], range(n))
            for side, s in zip(sides, scales))
    for i, (a, b) in enumerate(zip(L, R)):
        if a != b:
            j = min(k for k in a.keys() | b.keys() if a.get(k) != b.get(k))
            x, y = (_product([c.rows for c in side], s, [i])[0].get(j, 0)
                    for side, s in zip(sides, scales))
            return i, j, Rat(x - y) / Rat(math.prod(shared + dl + dr, start=ring.one))
    return None


def _chain_shape(factors: list[Mat], n: int) -> tuple[int, int]:
    """The shape of ``prod(factors)``, the n x n identity when there are none."""
    for a, b in zip(factors, factors[1:]):
        if a.ncols != b.nrows:
            raise ShapeMismatch("product_residual: inner dimensions differ")
    return (factors[0].nrows, factors[-1].ncols) if factors else (n, n)


class _Cleared(NamedTuple):
    """A matrix as sparse rows ``{col: numerator}`` of polynomials over
    ``den``, the lcm of its entry denominators, with ``norm`` the largest
    l1 norm of a numerator."""
    rows: list[dict]
    den: object
    norm: int


def _clear(m: Mat) -> _Cleared:
    """``m`` cleared to nonzero numerators. Each distinct entry is cleared
    once: ``kron(R, I)`` repeats every entry of R as the same object."""
    values = {id(x): x for row in m.data for x in row}
    values = {k: x for k, x in values.items() if x}
    nums, den = clear_denominators(values.values())
    num = dict(zip(values, nums))
    rows = [{j: num[id(x)] for j, x in enumerate(row) if id(x) in num}
            for row in m.data]
    return _Cleared(rows, den, max((x.l1_norm() for x in nums), default=0))


def _coefficient_bound(side: list[_Cleared], scale) -> int:
    """The bound of the module docstring on the integer coefficients of the
    cleared product ``side`` times ``scale``."""
    inner = math.prod(len(c.rows) for c in side[1:])
    return inner * math.prod(c.norm for c in side) * scale.l1_norm()


def _product(factors: list[list[dict]], scale, rows) -> list[dict]:
    """The rows ``rows`` of the product of the sparse ``factors`` (lists of
    rows ``{col: entry}``) times ``scale``; no factors is the identity."""
    if not factors:
        return [{i: scale} for i in rows]
    out = [factors[0][i] for i in rows]
    for m in factors[1:]:
        out = [_row_times(row, m) for row in out]
    if scale != 1:
        out = [{k: x * scale for k, x in row.items()} for row in out]
    return out


def _row_times(row: dict, m: list[dict]) -> dict:
    """A sparse row times sparse rows ``m``, touching nonzeros only."""
    acc = {}
    for j, a in row.items():
        for k, b in m[j].items():
            acc[k] = acc[k] + a * b if k in acc else a * b
    return {k: x for k, x in acc.items() if x}


def rref(m: Mat) -> tuple[Mat, list[int]]:
    """Reduced row echelon form; returns (R, pivot_columns).

    Within each column the pivot is the candidate of smallest combined
    numerator/denominator degree (first such row on ties), which keeps the
    rational-function entries from blowing up.
    """
    a = [row[:] for row in m.data]
    nr, nc = m.nrows, m.ncols
    pivots: list[int] = []
    r = 0
    for c in range(nc):
        if r >= nr:
            break
        best, bestscore = -1, None
        for i in range(r, nr):
            if not a[i][c].is_zero():
                score = a[i][c].degree()
                if bestscore is None or score < bestscore:
                    best, bestscore = i, score
        if best < 0:
            continue
        a[r], a[best] = a[best], a[r]
        inv = a[r][c].inv()
        a[r] = [x * inv if not x.is_zero() else x for x in a[r]]
        for i in range(nr):
            if i != r and not a[i][c].is_zero():
                f = a[i][c]
                a[i] = [x - f * y if not y.is_zero() else x
                        for x, y in zip(a[i], a[r])]
        pivots.append(c)
        r += 1
    return Mat(a), pivots


def rank(m: Mat) -> int:
    return SpanBasis(m.ncols, m.data).dim


def invert(m: Mat) -> Mat:
    if m.nrows != m.ncols:
        raise NotInvertible("not square")
    n = m.nrows
    aug = Mat([row[:] + Mat.identity(n).data[i] for i, row in enumerate(m.data)])
    r, pivots = rref(aug)
    if pivots[:n] != list(range(n)):
        raise NotInvertible("singular matrix")
    return Mat([row[n:] for row in r.data])


class SpanBasis:
    """Incrementally reduced echelon basis of a subspace of row vectors.

    Used both for stacking large intertwining systems and for algebra
    closures: feed vectors, the basis keeps only the independent content.
    """

    def __init__(self, ncols: int, vecs=()):
        self.ncols = ncols
        self.rows: list[list[Rat]] = []
        self.pivots: list[int] = []
        for vec in vecs:
            self.add(vec)

    @property
    def dim(self) -> int:
        return len(self.rows)

    def reduce(self, vec) -> list[Rat]:
        v = [x if isinstance(x, Rat) else Rat(x) for x in vec]
        for row, pc in zip(self.rows, self.pivots):
            f = v[pc]
            if not f.is_zero():
                v = [x - f * y if not y.is_zero() else x for x, y in zip(v, row)]
        return v

    def add(self, vec) -> bool:
        """Insert a vector; returns True if it enlarged the span."""
        v = self.reduce(vec)
        pivot, score = -1, None
        for c in range(self.ncols):
            if not v[c].is_zero():
                s = v[c].degree()
                if score is None or s < score:
                    pivot, score = c, s
        if pivot < 0:
            return False
        inv = v[pivot].inv()
        v = [x * inv if not x.is_zero() else x for x in v]
        for i, row in enumerate(self.rows):
            f = row[pivot]
            if not f.is_zero():
                self.rows[i] = [x - f * y if not y.is_zero() else x
                                for x, y in zip(row, v)]
        self.rows.append(v)
        self.pivots.append(pivot)
        return True

    def nullspace(self) -> list[list[Rat]]:
        """Kernel of the matrix whose rows are the stored vectors, read off
        the reduced rows: each non-pivot column f gives ``v[f] = 1`` and
        ``v[pivot_i] = -row_i[f]``. Each vector is scaled to 1 at its last
        nonzero entry, so a one-dimensional kernel is the vector of the
        reduced row echelon form, whatever order the rows arrived in."""
        pivots, basis = set(self.pivots), []
        for f in range(self.ncols):
            if f in pivots:
                continue
            v = [zero] * self.ncols
            v[f] = one
            for row, pc in zip(self.rows, self.pivots):
                v[pc] = -row[f]
            last = max(c for c, x in enumerate(v) if not x.is_zero())
            if last != f:
                inv = v[last].inv()
                v = [x * inv if not x.is_zero() else x for x in v]
            basis.append(v)
        return basis


def intertwiner_kernel(pairs: list[tuple[Mat, Mat]],
                       unknowns: dict[tuple[int, int], int]) -> Mat:
    """The kernel of X ↦ (X·A − B·X) over the ``(A, B)`` pairs, with X
    supported on ``unknowns``, which maps an entry (row, col) of X to its
    coordinate; the kernel must be a line.

    The system gets one row per entry (r, c) of each pair's equation, in pair
    order and then in (r, c) order; rows whose coefficients are all zero are
    skipped. Returns the line's vector as a matrix, which is 1 at its last
    nonzero unknown (:meth:`SpanBasis.nullspace`); raises KernelDimension
    when the kernel is not a line.
    """
    nunk = len(unknowns)
    span = SpanBasis(nunk)
    for A, B in pairs:
        n = A.nrows
        a_by_col = [[(k, A.data[k][c]) for k in range(n)
                     if not A.data[k][c].is_zero()] for c in range(n)]
        b_by_row = [[(k, x) for k, x in enumerate(row) if not x.is_zero()]
                    for row in B.data]
        for r in range(n):
            for c in range(n):
                # (XA - BX)[r, c] = sum_k X[r, k] A[k, c] - B[r, k] X[k, c]
                coeffs: dict[int, Rat] = {}
                for k, x in a_by_col[c]:
                    u = unknowns.get((r, k))
                    if u is not None:
                        coeffs[u] = coeffs.get(u, zero) + x
                for k, x in b_by_row[r]:
                    u = unknowns.get((k, c))
                    if u is not None:
                        coeffs[u] = coeffs.get(u, zero) - x
                if any(not x.is_zero() for x in coeffs.values()):
                    row = [zero] * nunk
                    for u, x in coeffs.items():
                        row[u] = x
                    span.add(row)
    kernel = span.nullspace()
    if len(kernel) != 1:
        raise KernelDimension(len(kernel))
    X = Mat.zeros(pairs[0][0].nrows)
    for (r, c), u in unknowns.items():
        X.data[r][c] = kernel[0][u]
    return X


def square_size(mats: list[Mat]) -> int:
    """The common size n of the n x n generators ``mats``."""
    if not mats:
        raise LinalgError("no generators")
    n = mats[0].nrows
    for m in mats:
        if m.shape() != (n, n):
            raise ShapeMismatch("generators must be square of equal size")
    return n


def algebra_closure(mats: list[Mat]) -> SpanBasis:
    """Echelon basis of the unital matrix algebra generated by ``mats``.

    Seeds with the identity, then multiplies basis elements by generators
    until the span stabilizes or has dimension n^2, all of M_n; no product
    is formed after that.
    """
    n = square_size(mats)
    span = SpanBasis(n * n)

    def vec(m: Mat):
        return [m.data[i][j] for i in range(n) for j in range(n)]

    frontier = []
    for m in [Mat.identity(n)] + list(mats):
        if span.add(vec(m)):
            frontier.append(m)
    while frontier:
        new = []
        for b in frontier:
            for g in mats:
                if span.dim == n * n:
                    return span
                prod = b @ g
                if span.add(vec(prod)):
                    new.append(prod)
        frontier = new
    return span
