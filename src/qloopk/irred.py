"""Restricted irreducibility checks.

A set of operators acts irreducibly on V (over the algebraic closure) iff the
unital algebra it generates is all of End(V); this Burnside-style criterion
is decided exactly by linalg.algebra_closure. For one-parameter families the
z -> 0 specialization argument reduces generic irreducibility over the
rational-function field to a constant-matrix closure: a polynomial family of
operators with an invariant subspace over F(z) has one at z = 0.
All grading shifts in this module are principal (z on every node). The
deformed lowering family is that of the coideal generators B_i, written
once in kmat.deformation_terms.

check_irreducible first tries a certificate over F_ELL, ELL = 2^31 - 1: the
entries are evaluated modulo ELL at one point of (p, z, w, constants). That
evaluation is a ring homomorphism on the fractions defined at the point, so
if the images generate all of M_n(F_ELL), some n^2 words in the generators
have an n^2 x n^2 minor that is nonzero modulo ELL, hence nonzero over
Q(p, z, w, ...), and the generic closure is full. A non-full image proves
nothing; the exact closure then decides.

_full_mod decides whether the images generate M_n(F_ELL), on Python ints.
When a generator is diagonal with a value lambda at exactly one index k,
theta = g - lambda I has nullity 1 and its kernel and that of its transpose
are spanned by e_k; by Norton's criterion (the MeatAxe: R. A. Parker, 1984;
D. F. Holt and S. Rees, J. Austral. Math. Soc. A 57, 1994) the module is
irreducible iff e_k spins to F_ELL^n under the generators and under their
transposes. Nullity 1 makes it absolutely irreducible (its endomorphism
field preserves the line ker theta, so is F_ELL), and by Burnside the
images then generate M_n(F_ELL): the two spins decide exactly, in O(n^3)
integer operations. The tensor checks' generator sets have such a g:
K_i (x) K_i, whose top weight is simple.

Otherwise the closure of the images is spanned: flat row-major matrices,
generators stored by the nonzeros of their rows, and elimination over Z
that takes a residue only where one is tested (the coefficient at a pivot)
or stored (a new span row). That is exact, because every step is a ring
operation over Z and reduction modulo ELL commutes with them. It costs
O(n^6) integer operations at worst.
"""

from __future__ import annotations

from dataclasses import dataclass

from .kmat import deformation_terms
from .linalg import Mat, SpanBasis, algebra_closure, kron, square_size
from .repcore import Rep, coproduct
from .rootdata import GradingShift, QSPParams
from .scalars import PoleAtPoint, Rat, one, z as z_var, zero

ELL = 2 ** 31 - 1  # the prime of the fast path in _specialized_full


class IrredError(Exception):
    pass


class DeformationNotUpper(IrredError):
    pass


@dataclass
class IrredVerdict:
    """Outcome of an irreducibility check.

    irreducible is True (closure is full), False (an explicit invariant
    subspace was found) or None (closure not full but no witness located;
    never an overclaim). witness, when present, is a basis of a proper
    nonzero invariant subspace as coordinate vectors.
    """

    irreducible: bool | None
    dim: int
    closure_dim: int
    witness: list | None = None
    detail: str = ""

    def to_json(self):
        out = {"irreducible": self.irreducible, "dim": self.dim,
               "closure_dim": self.closure_dim, "detail": self.detail}
        if self.witness is not None:
            out["witness"] = [[str(x) for x in v] for v in self.witness]
        return out


def _orbit(closure_mats: list[Mat], vec: list[Rat]) -> SpanBasis:
    n = len(vec)
    span = SpanBasis(n)
    for m in closure_mats:
        span.add(m.mul_vec(vec))
    return span


def _invariant_subspace(closure_mats: list[Mat], n: int):
    """Search for a proper nonzero invariant subspace as a cyclic orbit of
    the closure algebra; candidate seeds are the basis vectors and the
    columns of the closure elements."""
    seeds = []
    for k in range(n):
        e = [zero] * n
        e[k] = one
        seeds.append(e)
    for m in closure_mats:
        for j in range(m.ncols):
            col = [m[i, j] for i in range(m.nrows)]
            if any(not x.is_zero() for x in col):
                seeds.append(col)
    for v in seeds:
        orb = _orbit(closure_mats, v)
        if 0 < orb.dim < n:
            return [list(row) for row in orb.rows]
    return None


def _specialized_full(mats: list[Mat], n: int) -> bool:
    """Sound fast path: evaluate every entry modulo the prime ELL at one
    point assigning p, z, w and the constants occurring in the entries, and
    test whether the images generate all of M_n(F_ELL).

    Evaluation is a ring homomorphism on the fractions whose denominators do
    not vanish at the point, so the images generate the image of the generic
    algebra. If that image is full, n^2 words have an n^2 x n^2 minor nonzero
    modulo ELL, hence nonzero over Q(p, z, w, ...): the generic closure is
    full. A non-full answer proves nothing. An attempt at which a denominator
    vanishes modulo ELL is skipped. The point depends only on the names that
    occur, not on which other constants are registered. Only nonzero entries
    are evaluated: a zero has denominator 1 and residue 0.
    """
    nonzero = [[(i, j, x) for i, row in enumerate(m.data)
                for j, x in enumerate(row) if not x.is_zero()] for m in mats]
    occurring = {nm for entries in nonzero for _, _, x in entries
                 for nm in x.names()}
    names = ["p", "z", "w"] + sorted(occurring - {"p", "z", "w"})
    primes = [3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47]
    for attempt in range(3):
        # name k goes to the rational prime / (2 + attempt), the primes
        # taken cyclically from position attempt
        scale = pow(2 + attempt, -1, ELL)
        point = {nm: primes[(k + attempt) % len(primes)] * scale % ELL
                 for k, nm in enumerate(names)}
        gens = []
        try:
            for entries in nonzero:
                g = [[0] * n for _ in range(n)]
                for i, j, x in entries:
                    g[i][j] = x.residue(point, ELL)
                gens.append(g)
        except PoleAtPoint:
            continue
        if _full_mod(gens, n):
            return True
    return False


def _full_mod(gens: list[list[list[int]]], n: int) -> bool:
    """Whether the unital algebra A generated by the n x n matrices ``gens``
    over F_ELL is all of M_n(F_ELL).

    Norton's decision, when some generator g is diagonal with a value
    lambda that occurs at exactly one index k: theta = g - lambda I lies in
    A and has nullity 1, and both ker theta and ker theta^T are spanned by
    e_k. Norton's criterion: M = F_ELL^n is an irreducible A-module iff e_k
    spins to M under A and under A^T. (A proper submodule U on which theta
    is singular meets ker theta, so contains e_k; if theta is invertible on
    U it is singular on M/U, so U's annihilator, an A^T-submodule of the
    dual, contains e_k.) Then D = End_A(M) is a finite field preserving the
    line ker theta, so D = F_ELL, M is absolutely irreducible, and by
    Burnside A = M_n(F_ELL). Conversely A = M_n(F_ELL) spins every nonzero
    vector to M both ways. So the two spins decide exactly, in O(n^3)
    integer operations per generator.

    Otherwise the closure of linalg.algebra_closure runs, on plain ints:
    breadth-first over words, each new element of the span is multiplied
    on the right by every generator and the product echelon-reduced
    against the span, until a round adds nothing or the span is full. At
    most n^2 * len(gens) products are each reduced against at most n^2
    rows of length n^2: O(n^6) integer operations, about 0.1-0.2 s at
    n = 16 and 1 s at n = 25 on a 2-vCPU VM.
    """
    def nonzeros(m):
        # the nonzero (column, residue) pairs of each row of m
        return [[(c, y % ELL) for c, y in enumerate(row) if y % ELL]
                for row in m]

    sparse = [nonzeros(g) for g in gens]
    for sg in sparse:
        if any(c != i for i, row in enumerate(sg) for c, _ in row):
            continue
        diag = [dict(row).get(i, 0) for i, row in enumerate(sg)]
        simple = [k for k, d in enumerate(diag) if diag.count(d) == 1]
        if simple:
            e = [int(i == simple[0]) for i in range(n)]
            # row vectors: e.g^T is g e, and e.g is g^T e
            transposed = [nonzeros(zip(*g)) for g in gens]
            return (_spans_all([e], transposed, n)
                    and _spans_all([e], sparse, n))
    identity = [int(k % (n + 1) == 0) for k in range(n * n)]
    flat = [[x for row in g for x in row] for g in gens]
    return _spans_all([identity] + flat, sparse, n)


def _spans_all(seeds: list[list[int]], sparse, n: int) -> bool:
    """Whether the seeds and their right multiples by words in the
    generators span all of F_ELL^d, d = len(seed): row vectors (d = n) or
    flat row-major n x n matrices (d = n^2). A generator is given by the
    nonzero (column, value) pairs of each of its rows.

    Breadth-first: each vector that enlarges the span is multiplied by
    every generator in the next round, until a round adds nothing or the
    span is full (no product is formed after that). A product takes one
    ``% ELL`` per entry. Elimination subtracts over Z and reduces only the
    coefficient it tests at each pivot and the row it stores; that is
    exact, because only residues are ever tested.
    """
    full = len(seeds[0])
    # pivot j -> the nonzero (k, residue) pairs, k > j, of a span row that
    # is 1 at j and 0 before it (on the tensor checks' generators, at most
    # 10-20% of the n^2 entries of a row are nonzero)
    rows: dict[int, list[tuple[int, int]]] = {}

    def add(m: list[int]) -> bool:
        v = list(m)
        for j in range(full):
            c = v[j] and v[j] % ELL
            if not c:
                continue
            row = rows.get(j)
            if row is None:
                inv = pow(c, -1, ELL)
                rows[j] = [(k, y) for k in range(j + 1, full)
                           if (y := v[k] * inv % ELL)]
                return True
            for k, y in row:
                v[k] -= c * y
        return False

    def mul(b: list[int], g) -> list[int]:
        # b.g adds b[i, k] * y to out[i, c] over the pairs (c, y) of row k
        out = [0] * full
        for i in range(0, full, n):
            for k, row in enumerate(g):
                x = b[i + k]
                if x:
                    for c, y in row:
                        out[i + c] += x * y
        return [x % ELL for x in out]

    frontier = [m for m in seeds if add(m)]
    while frontier:
        grown = []
        for b in frontier:
            for g in sparse:
                if len(rows) == full:
                    return True
                if add(prod := mul(b, g)):
                    grown.append(prod)
        frontier = grown
    return len(rows) == full


def check_irreducible(mats: list[Mat]) -> IrredVerdict:
    """Burnside criterion: the operators act irreducibly iff their unital
    algebra is all of End(V). Fullness is decided exactly; non-fullness
    triggers an invariant-subspace search instead of a reducibility claim
    (over a non-closed field non-fullness alone proves nothing)."""
    n = square_size(mats)
    if _specialized_full(mats, n):
        return IrredVerdict(True, n, n * n,
                            detail="full closure (constant specialization)")
    closure = algebra_closure(mats)
    if closure.dim == n * n:
        return IrredVerdict(True, n, closure.dim)
    closure_mats = [Mat([row[i * n:(i + 1) * n] for i in range(n)])
                    for row in closure.rows]
    witness = _invariant_subspace(closure_mats, n)
    if witness is not None:
        return IrredVerdict(False, n, closure.dim, witness,
                            f"invariant subspace of dimension {len(witness)}")
    return IrredVerdict(None, n, closure.dim,
                        detail="closure not full; no witness found")


def _poly_vanishing_at_zero(m: Mat) -> bool:
    for i in range(m.nrows):
        for j in range(m.ncols):
            e = m[i, j]
            if e.is_zero():
                continue
            den = e.den()
            if any(t[0][1] != 0 for t in den.terms):
                return False
            if any(t[0][1] <= 0 for t in e.num().terms):
                return False
    return True


def check_modified_nilpotent_irreducible(V: Rep, deformations: dict,
                                         route: str = "specialize") -> IrredVerdict:
    """Generic irreducibility for a deformed lowering family.

    deformations[i] is the z-dependent matrix of the shifted deformation
    term, so that M_i(z) = F_i + z * deformations[i](z) is the action of the
    z-scaled deformed generator under the principal shift. Each z * D_i(z)
    must be polynomial in z and vanish at z = 0 (DeformationNotUpper
    otherwise); then M_i(0) = F_i and the specialization argument applies:
    irreducibility of the F_i alone gives generic irreducibility of the
    family. route='direct' instead closes the M_i(z) over the z-field.
    A key of ``deformations`` that is not a node of V is a ValueError.
    """
    if route not in ("specialize", "direct"):
        raise ValueError(f"unknown route {route!r}")
    cd = V.cartan
    if stray := [k for k in deformations if k not in cd.nodes]:
        raise ValueError(f"deformations under keys {stray}, which are not "
                         f"nodes of {V.label}")
    Ms = {}
    for i in cd.nodes:
        D = deformations.get(i)
        corr = Mat.zeros(V.dim) if D is None else D.scale(z_var)
        if not corr.is_zero() and not _poly_vanishing_at_zero(corr):
            raise DeformationNotUpper(
                f"z * deformation {i} is not polynomial vanishing at z = 0")
        Ms[i] = V.F[i] + corr
    if route == "direct":
        return check_irreducible([Ms[i] for i in cd.nodes])
    return check_irreducible([V.F[i] for i in cd.nodes])


def qsp_deformations(V: Rep, params: QSPParams) -> dict:
    """Deformation matrices D_i for the coideal lowering generators under
    the principal shift: kmat.deformation_terms at that shift and z, so
    that F_i + z D_i is the z-scaled shifted generator."""
    return deformation_terms(V, params,
                             GradingShift.principal(params.diagram.cartan),
                             z_var)


def check_generic_tensor_irreducible(V: Rep, W: Rep) -> IrredVerdict:
    """Generic irreducibility of V tensor W(z) via the z -> 0 specialization
    of the coproduct generator set. Where the tensor product degenerates is
    rmat.detect_degeneration's question, not this one's."""
    gens = []
    for i in V.cartan.nodes:
        if i == 0:
            # z-scaled coproducts specialized at z = 0
            gens.append(kron(V.E[0], Mat.identity(W.dim)))
            gens.append(kron(Mat.identity(V.dim), W.F[0]))
        else:
            gens.extend(coproduct(V, W, i))
        gens.append(kron(V.K[i], W.K[i]))
        gens.append(kron(V.Kinv(i), W.Kinv(i)))
    return check_irreducible(gens)
