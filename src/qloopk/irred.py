"""Restricted irreducibility checks.

A set of operators acts irreducibly on V (over the algebraic closure) iff the
unital algebra it generates is all of End(V); this Burnside-style criterion
is decided exactly by linalg.algebra_closure. For one-parameter families the
z -> 0 specialization argument reduces generic irreducibility over the
rational-function field to a constant-matrix closure: a polynomial family of
operators with an invariant subspace over F(z) has one at z = 0.
All grading shifts in this module are principal (z on every node).

check_irreducible first tries a certificate over F_ELL, ELL = 2^31 - 1: the
entries are evaluated modulo ELL at one point of (p, z, w, constants). That
evaluation is a ring homomorphism on the fractions defined at the point, so
if the images generate all of M_n(F_ELL), some n^2 words in the generators
have an n^2 x n^2 minor that is nonzero modulo ELL, hence nonzero over
Q(p, z, w, ...), and the generic closure is full. A non-full image proves
nothing; the exact closure then decides.
"""

from __future__ import annotations

from dataclasses import dataclass

from .linalg import Mat, SpanBasis, algebra_closure, kron
from .repcore import Rep, coproduct
from .rootdata import GradingShift, QSPParams, shift_exponent, theta_on_roots
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
    occur, not on which other constants are registered.
    """
    occurring = {nm for m in mats for row in m.data for x in row
                 for nm in x.names()}
    names = ["p", "z", "w"] + sorted(occurring - {"p", "z", "w"})
    primes = [3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47]
    for attempt in range(3):
        # name k goes to the rational prime / (2 + attempt), the primes
        # taken cyclically from position attempt
        scale = pow(2 + attempt, -1, ELL)
        point = {nm: primes[(k + attempt) % len(primes)] * scale % ELL
                 for k, nm in enumerate(names)}
        try:
            gens = [[[x.residue(point, ELL) for x in row] for row in m.data]
                    for m in mats]
        except PoleAtPoint:
            continue
        if _full_mod(gens, n):
            return True
    return False


def _full_mod(gens: list[list[list[int]]], n: int) -> bool:
    """Whether the unital algebra generated by the n x n matrices ``gens``
    over F_ELL is all of M_n(F_ELL); the closure of
    linalg.algebra_closure, on plain ints."""
    full = n * n
    rows: dict[int, list[int]] = {}  # pivot -> row, 1 there and 0 before

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

    # each generator as its columns' nonzero (row, value) pairs: generators
    # are sparse, products of them need not be
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


def check_irreducible(mats: list[Mat]) -> IrredVerdict:
    """Burnside criterion: the operators act irreducibly iff their unital
    algebra is all of End(V). Fullness is decided exactly; non-fullness
    triggers an invariant-subspace search instead of a reducibility claim
    (over a non-closed field non-fullness alone proves nothing)."""
    n = mats[0].nrows
    if _specialized_full(mats, n):
        return IrredVerdict(True, n, n * n,
                            detail="full closure (constant specialization)")
    closure = algebra_closure(mats, max_dim=n * n)
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
    """
    if route not in ("specialize", "direct"):
        raise ValueError(f"unknown route {route!r}")
    cd = V.cartan
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
    """Deformation matrices for the coideal lowering generators under the
    principal shift: D_i = gamma_i z^{-pr(theta(alpha_i))} theta_q(F_i)
    + sigma_i K_i^{-1}, so that F_i + z D_i is the z-scaled shifted
    generator."""
    from .braid import theta_q_Fs
    diagram = params.diagram
    cd = diagram.cartan
    pr = GradingShift.principal(cd)
    thF = theta_q_Fs(V, diagram, [i for i in cd.nodes if i not in diagram.X])
    out = {}
    for i, th in thF.items():
        sth = shift_exponent(pr, theta_on_roots(diagram, cd.alpha(i)))
        D = th.scale(params.gamma[i] * z_var ** (-sth))
        if not params.sigma[i].is_zero():
            D = D + V.Kinv(i).scale(params.sigma[i])
        out[i] = D
    return out


def check_generic_tensor_irreducible(V: Rep, W: Rep,
                                     loci: list | None = None) -> IrredVerdict:
    """Generic irreducibility of V tensor W(z) via the z -> 0 specialization
    of the coproduct generator set; loci, when given, are parameter points
    classified by the R-matrix degeneration detector and reported in the
    verdict detail."""
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
    verdict = check_irreducible(gens)
    if loci:
        from .rmat import detect_degeneration, solve_R
        R = solve_R(V, W).matrix
        notes = []
        for point in loci:
            kind = detect_degeneration(V, W, point, R=R)
            notes.append(f"{point}: {kind}")
        verdict.detail = (verdict.detail + "; " if verdict.detail else "") \
            + "loci: " + "; ".join(notes)
    return verdict
