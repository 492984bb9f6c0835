"""Restricted irreducibility checks.

A set of operators acts irreducibly on V (over the algebraic closure) iff the
unital algebra it generates is all of End(V); this Burnside-style criterion
is decided exactly by linalg.algebra_closure. For one-parameter families the
z -> 0 specialization argument reduces generic irreducibility over the
rational-function field to a constant-matrix closure: a polynomial family of
operators with an invariant subspace over F(z) has one at z = 0.
All grading shifts in this module are principal (z on every node).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .linalg import Mat, SpanBasis, algebra_closure, kron
from .repcore import Rep
from .rootdata import GradingShift, QSPParams, shift_exponent, theta_on_roots
from .scalars import Rat, one, z as z_var, zero


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
    """Sound fast path: substitute p and every constant occurring in the
    entries (keeping z and w) by fixed rationals and test fullness there. Rank
    can only drop under specialization, so a full specialized closure
    certifies a full generic closure; a non-full one proves nothing."""
    from fractions import Fraction
    from .scalars import PoleAtPoint
    occurring = {nm for m in mats for row in m.data for x in row
                 for nm in x.names()}
    names = ["p"] + sorted(occurring - {"p", "z", "w"})
    primes = [3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47]
    for attempt in range(3):
        point = {nm: Rat(Fraction(primes[(k + attempt) % len(primes)],
                                  2 + attempt))
                 for k, nm in enumerate(names)}
        try:
            spec = [m.substitute(point) for m in mats]
        except PoleAtPoint:
            continue
        if algebra_closure(spec, max_dim=n * n).dim == n * n:
            return True
    return False


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
    cd = V.cartan
    Iv, Iw = Mat.identity(V.dim), Mat.identity(W.dim)
    gens = []
    for i in cd.nodes:
        if i == 0:
            # z-scaled coproducts specialized at z = 0
            gens.append(kron(V.E[0], Iw))
            gens.append(kron(Iv, W.F[0]))
        else:
            gens.append(kron(V.E[i], Iw) + kron(V.K[i], W.E[i]))
            gens.append(kron(V.F[i], W.Kinv(i)) + kron(Iv, W.F[i]))
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
