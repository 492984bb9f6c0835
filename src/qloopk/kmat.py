"""K-matrices: QSP generator actions, intertwiner solve, normalization,
the generalized reflection equation (the standard one is its case under the
auxiliary twist, which fixes V and W), unitarity, and grading conversion.

The intertwining system is K(z) · pi_{V,z}(b) = pi_{psi*(V),1/z}(b) · K(z)
with b running over the coideal generators: all B_i, the X-subalgebra
generators, and (when the restricted rank exceeds one) the theta-fixed
Cartan lattice generators. Both sides are realized concretely, so solving
is the nullspace computation of linalg.intertwiner_kernel over the scalar
fraction field, with all n^2 entries of K unknown.

When X is empty, tau(0) = 0 and the shift is s = (1, 0, ..., 0), the module's
evaluation point a enters the system only through node 0, as a·z on both
sides. On V_a, B_0 = a⁻¹F_0° z⁻¹ + gamma_0 z a θ_q(F_0)° + sigma_0 K_0⁻¹,
and the other B_i and the Cartan generators carry neither a nor z. The
twisted target is the twist of V_1 at the point a⁻¹ (the orbit rule of
:func:`braid.realize_twist`), taken at 1/z. So :func:`solve_K` eliminates
once per unit-point module (:attr:`Rep.unit`) and maps the kernel line by
z ↦ z·a, an injective map of fields when a and the parameters do not
involve z. The line's canonical vector (1 at its last nonzero entry) maps to
the canonical vector, and normalization runs on the module itself.

Twists, K and R are memoized per unit-point module (``lru_cache`` on its
identity and the values of twist, shift and parameters), so the checks
below just ask for every matrix they need. :func:`verify_gre` takes each R
at its spectral value w/z or z·w straight from the unit-point solution
(:func:`rmat._R_at`), one substitution per R.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache

from .braid import TwistSpec, gauge_matrix, realize_twist, theta_q_Fs
from .linalg import (Mat, intertwiner_kernel, kron, permute, proportionality,
                     swap)
from .repcore import Rep, ell_highest_indices
from .rmat import CheckReport, _first_nonzero, _R_at, check_product
from .rootdata import (GradingShift, QSPParams, SatakeDiagram,
                       classical_in_root_basis, shift_exponent,
                       theta_on_coroots, theta_on_roots)
from .scalars import Rat, _reduced, z as z_var, w as w_var


class KmatError(Exception):
    pass


class AmbiguousNormalization(KmatError):
    pass


class NotRestrictable(KmatError):
    pass


class NotInvolutive(KmatError):
    pass


def _cartan_fixed_generators(diagram: SatakeDiagram) -> list[tuple[int, ...]]:
    """Integer basis of the theta-fixed part of the affine coroot lattice."""
    import sympy as sp
    cd = diagram.cartan
    n1 = len(cd.a)
    cols = []
    for i in range(n1):
        e = [Fraction(0)] * n1
        e[i] = Fraction(1)
        cols.append(theta_on_coroots(diagram, tuple(e)))
    m = sp.Matrix(n1, n1, lambda r, c: sp.Rational(cols[c][r]) - (1 if r == c else 0))
    out = []
    for v in m.nullspace():
        den = sp.lcm([sp.Rational(x).q for x in v])
        w = [int(x * den) for x in v]
        g = 0
        for x in w:
            g = sp.gcd(g, x)
        if g:
            w = [x // int(g) for x in w]
        out.append(tuple(w))
    return out


def deformation_terms(rep: Rep, params: QSPParams, shift: GradingShift,
                      zval) -> dict[int, Mat]:
    """For each node i outside X, the part of the shifted coideal generator
    B_i beyond F_i z^{-s_i}: gamma_i z^{-s(theta(alpha_i))} theta_q(F_i)
    + sigma_i K_i^{-1}."""
    diagram = params.diagram
    cd = diagram.cartan
    thF = theta_q_Fs(rep, diagram, [i for i in cd.nodes if i not in diagram.X])
    out = {}
    for i, th in thF.items():
        sth = shift_exponent(shift, theta_on_roots(diagram, cd.alpha(i)))
        D = th.scale(params.gamma[i] * zval ** (-sth))
        if not params.sigma[i].is_zero():
            D = D + rep.Kinv(i).scale(params.sigma[i])
        out[i] = D
    return out


def qsp_generators(rep: Rep, params: QSPParams, shift: GradingShift,
                   zval) -> list[tuple[str, Mat]]:
    """Matrices of the shifted coideal generators Sigma_z(b) on the module;
    B_i is F_i z^{-s_i}, plus deformation_terms for i outside X."""
    diagram = params.diagram
    zval = zval if isinstance(zval, Rat) else Rat(zval)
    out = []
    D = deformation_terms(rep, params, shift, zval)
    for i in diagram.cartan.nodes:
        m = rep.F[i].scale(zval ** (-shift.s[i]))
        out.append((f"B{i}", m if i in diagram.X else m + D[i]))
    for j in diagram.X:
        out.append((f"E{j}", rep.E[j].scale(zval ** shift.s[j])))
        out.append((f"K{j}", rep.K[j]))
        out.append((f"K{j}^-1", rep.Kinv(j)))
    if diagram.restricted_rank() > 1:
        for h in _cartan_fixed_generators(diagram):
            m = Mat.identity(rep.dim)
            for i, c in enumerate(h):
                if c > 0:
                    m = m @ rep.K[i].pow(c)
                elif c < 0:
                    m = m @ rep.Kinv(i).pow(-c)
            out.append((f"Kh{h}", m))
    return out


@dataclass
class KMatrixResult:
    matrix: Mat
    kernel_dim: int
    twist: TwistSpec
    shift: GradingShift
    target: Rep                      # the twisted module psi*(V)
    normalization: dict = field(default_factory=dict)

    def to_json(self):
        return {"matrix": self.matrix.to_json(),
                "kernel_dim": self.kernel_dim,
                "twist": self.twist.to_json(),
                "shift": list(self.shift.s),
                "normalization": {k: str(v) for k, v in self.normalization.items()}}


def solve_K(rep: Rep, twist: TwistSpec, shift: GradingShift,
            params: QSPParams, normalize: bool = True) -> KMatrixResult:
    twist.check_admissible(shift, params)
    target = realize_twist(rep, twist)
    if _through_za(twist, shift, params):
        K = _solve_unit(rep.unit, twist, shift, params).substitute(
            {"z": z_var * rep.point})
    else:
        K = _kernel(rep, target, shift, params)
    res = KMatrixResult(K, 1, twist, shift, target)
    if normalize:
        res = normalize_K(res, rep)
    return res


def _through_za(twist: TwistSpec, shift: GradingShift,
                params: QSPParams) -> bool:
    """Whether the system depends on the module's point through z·a alone."""
    d = params.diagram
    values = [*(twist.beta or {}).values(), *params.gamma.values(),
              *params.sigma.values()]
    return not (d.X or d.tau[0] != 0 or twist.diagram != d
                or shift.s != (1,) + (0,) * (len(shift.s) - 1)
                or any("z" in v.names() for v in values))


@lru_cache(maxsize=16)
def _solve_unit(unit: Rep, twist: TwistSpec, shift: GradingShift,
                params: QSPParams) -> Mat:
    """The kernel line at the unit point; the memo never hands out its
    matrix (solve_K substitutes into a copy)."""
    return _kernel(unit, realize_twist(unit, twist), shift, params)


def _kernel(rep: Rep, target: Rep, shift: GradingShift,
            params: QSPParams) -> Mat:
    """The kernel line of the intertwining system, as a matrix."""
    src = qsp_generators(rep, params, shift, z_var)
    tgt = qsp_generators(target, params, shift, z_var.inv())
    n = rep.dim
    return intertwiner_kernel(
        [(L, R) for (_, L), (_, R) in zip(src, tgt)],
        {(r, c): r * n + c for r in range(n) for c in range(n)})


def _gauge_hw(rep: Rep, twist: TwistSpec) -> tuple[int, list[Rat]]:
    """The pseudo-highest-weight index lam of the module and the column
    g v_lam of its gauge matrix."""
    hw = ell_highest_indices(rep)
    if len(hw) != 1:
        raise AmbiguousNormalization(f"{len(hw)} pseudo-highest-weight vectors")
    g = gauge_matrix(rep, twist)
    return hw[0], [g[r, hw[0]] for r in range(rep.dim)]


def normalize_K(res: KMatrixResult, rep: Rep) -> KMatrixResult:
    """Scale the kernel line so that K acts on the pseudo-highest-weight
    vector exactly as the gauge operator does; fall back (flagged) to a
    first-entry normalization when that condition cannot be imposed."""
    K = res.matrix
    n = K.nrows
    try:
        lam, gv = _gauge_hw(rep, res.twist)
        u = [K[r, lam] for r in range(n)]
        ref = next((r for r in range(n) if not u[r].is_zero()), None)
        if ref is None or gv[ref].is_zero():
            raise AmbiguousNormalization("K kills the pseudo-highest-weight vector")
        c = proportionality(gv, u)
        if c is None:
            raise AmbiguousNormalization(
                "image of the pseudo-highest-weight vector is not gauge-aligned")
        res.matrix = K.scale(c)
        res.normalization = {"mode": "gauge-hw", "index": lam, "scalar": c}
        return res
    except AmbiguousNormalization as exc:
        i, j, val = _first_nonzero(K)
        res.matrix = K.scale(val.inv())
        res.normalization = {"mode": "first-entry", "flag": "non-canonical",
                             "reason": str(exc), "scalar": val.inv()}
        return res


def normalize_K_paired(res: KMatrixResult, source: Rep, source_twist: TwistSpec) -> KMatrixResult:
    """Normalization for the K-matrix of the pulled-back module, paired with
    the gauge normalization on the source: K'(g v_lam) = v_lam."""
    K = res.matrix
    lam, gv = _gauge_hw(source, source_twist)
    u = K.mul_vec(gv)
    if u[lam].is_zero() or any(not u[r].is_zero() for r in range(K.nrows) if r != lam):
        raise AmbiguousNormalization("paired condition not a scalar multiple")
    c = u[lam].inv()
    res.matrix = K.scale(c)
    res.normalization = {"mode": "gauge-hw-paired", "index": lam, "scalar": c}
    return res


def verify_gre(V: Rep, W: Rep, twist: TwistSpec, shift: GradingShift,
               params: QSPParams,
               KV: KMatrixResult | None = None,
               KW: KMatrixResult | None = None) -> CheckReport:
    """Exact check of the generalized reflection equation on V ⊗ W."""
    KV = KV if KV is not None else solve_K(V, twist, shift, params)
    KW = KW if KW is not None else solve_K(W, twist, shift, params)
    Vt, Wt = KV.target, KW.target
    woz, zw = w_var / z_var, z_var * w_var
    R_VW = _R_at(V, W, woz)
    R_tt = permute(_R_at(Wt, Vt, woz), swap(Wt.dim, Vt.dim))
    R_tW = _R_at(Vt, W, zw)
    R_tV = permute(_R_at(Wt, V, zw), swap(Wt.dim, V.dim))
    Kv = kron(KV.matrix, Mat.identity(W.dim))
    Kw = kron(Mat.identity(V.dim), KW.matrix.substitute({"z": w_var}))
    return check_product([R_tt, Kw, R_tW, Kv], [Kv, R_tV, Kw, R_VW])


def verify_standard_re(V: Rep, W: Rep, params: QSPParams,
                       shift: GradingShift) -> CheckReport:
    """Standard reflection equation: the generalized one under the
    auxiliary restricted-rank-one twist, which must fix V and W; requires a
    restrictable diagram with tau equal to the auxiliary automorphism."""
    diagram = params.diagram
    if 0 in diagram.X or diagram.tau[0] != 0:
        raise NotRestrictable("need 0 not in X and tau(0) = 0")
    from .rootdata import build_Y0
    if build_Y0(diagram).tau != diagram.tau:
        return CheckReport(False, "tau differs from the auxiliary automorphism; "
                                  "only the diagrammatic equation holds")
    twist = TwistSpec(diagram, "auxiliary")
    # equal modules have equal K-matrices: solve once
    KV = solve_K(V, twist, shift, params)
    KW = KV if W.same_module(V) else solve_K(W, twist, shift, params)
    for K, M, name in ((KV, V, "V"), (KW, W, "W")):
        if not K.target.same_action(M):
            return CheckReport(False, f"twist does not fix {name}; "
                                      "standard form unavailable")
    return verify_gre(V, W, twist, shift, params, KV, KW)


def verify_K_unitarity(V: Rep, twist: TwistSpec, shift: GradingShift,
                       params: QSPParams) -> CheckReport:
    """K'_{psi*(V)}(1/z) · K_V(z) = id with the paired gauge normalization."""
    KV = solve_K(V, twist, shift, params)
    if KV.normalization.get("mode") != "gauge-hw":
        return CheckReport(False, "source K not gauge-normalizable")
    Vt = KV.target
    if not realize_twist(Vt, twist).same_action(V):
        raise NotInvolutive("psi^2 does not fix the module")
    Kt = solve_K(Vt, twist, shift, params, normalize=False)
    Kt = normalize_K_paired(Kt, V, twist)
    return check_product([Kt.matrix.substitute({"z": z_var.inv()}), KV.matrix], [])


def _pr_value(rep: Rep, k: int) -> Fraction:
    """Principal-grading value of the k-th basis weight, via the unique
    rational extension of alpha_i ↦ 1 to the classical weight lattice."""
    lam = classical_in_root_basis(rep.cartan, rep.weights[k][1:])
    return sum(lam.coords, Fraction(0))


def _rewrite_power(x: Rat, H: int) -> Rat:
    """Rewrite a rational function of z that depends only on z^H as a
    function of z (i.e. substitute z^H -> z) by dividing its z-exponents.

    The reduced numerator and denominator are coprime, so one of them has a
    term free of z, and x is a function of z^H exactly when every z-exponent
    is a multiple of H. The images stay coprime (a common factor g(z) would
    give the common factor g(z^H)) and keep their coefficients; only the
    sign may need renormalizing, as the graded-lex leading term can move."""
    f = x.f
    if any(m[1] % H for poly in (f.numer, f.denom) for m in poly.itermonoms()):
        raise KmatError("entry is not a function of z^H")
    # z is the second generator
    numer, denom = (poly.new({m[:1] + (m[1] // H,) + m[2:]: c
                              for m, c in poly.iterterms()})
                    for poly in (f.numer, f.denom))
    return Rat(_reduced(f, numer, denom))


def convert_grading(Kpr: KMatrixResult, V: Rep) -> Mat:
    """Turn a principal-shift K-matrix into the tau-minimal one via the
    diagonal intertwiner M_V(z) = z^{pr(lambda)} and the Coxeter-number
    substitution; fractional exponents are cleared by a root substitution."""
    diagram = Kpr.twist.diagram
    cd = V.cartan
    h = cd.rank + 1  # Coxeter number of sl_{n+1}
    h_tau = Fraction(h) if diagram.tau[0] == 0 else Fraction(h + 1, 2)
    target = Kpr.target
    prV = [_pr_value(V, k) for k in range(V.dim)]
    prT = [_pr_value(target, k) for k in range(target.dim)]
    import math
    dens = [f.denominator for f in prV + prT] + [h_tau.denominator]
    M = math.lcm(*dens)
    H = int(M * h_tau)
    Kz = Kpr.matrix.substitute({"z": z_var ** M})
    left = Mat.diagonal([z_var ** int(M * f) for f in prT])
    right = Mat.diagonal([z_var ** int(M * f) for f in prV])
    N = left @ Kz @ right
    return N.apply(lambda e: _rewrite_power(e, H))


def check_intertwining(K: Mat, rep: Rep, target: Rep,
                       shift: GradingShift, params: QSPParams) -> CheckReport:
    """Residual check that K intertwines rep at z with the twisted module
    ``target`` at 1/z on every coideal generator."""
    src = qsp_generators(rep, params, shift, z_var)
    tgt = qsp_generators(target, params, shift, z_var.inv())
    for (name, L), (_, R) in zip(src, tgt):
        report = check_product([K, L], [R, K], label=f"{name} ")
        if not report.ok:
            return report
    return CheckReport(True)
