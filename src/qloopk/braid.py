"""Braid operators, Cartan corrections, and twist realizations on modules.

The quantum pseudo-involution theta_q = Ad(t_theta) ∘ omega ∘ tau is realized
per representation: t_theta = xi_theta * S_X, where S_X is a product of
Lusztig braid operators along the canonical reduced word of w_X and xi_theta
is diagonal on weight vectors. Since t_theta only ever enters through
conjugation or through paired normalization conditions, xi_theta is fixed
only up to a global scalar; we pin it by giving the first basis vector
entry 1.

The orbit rule: when tau(0) = 0, (omega tau)*V_a is (omega tau)*V_1 at the
point a⁻¹ (E_0 = -a⁻¹·F_0°, F_0 = -a·E_0°). With node 0 also outside X
(it never lies in the auxiliary gauge's Y), t_theta and the gauge matrix
are built from weights and T_i, i ≠ 0, so they do not depend on a either.
:func:`realize_twist` then returns the twist of V_1, realized once, at the
point a⁻¹.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

from .linalg import Mat, invert
from .repcore import Rep, _at_point, pullback_chevalley_tau
from .rootdata import (GradingShift, QSPParams, SatakeDiagram, bilinear,
                       build_Y0, classical_in_root_basis, rho, theta_on_roots)
from .scalars import Rat, one, p, q_factorial


class BraidError(Exception):
    pass


class GaugeInvalid(BraidError):
    pass


def _divided_powers(X: Mat, d: int) -> list[Mat]:
    """X^(k) = X^k / [k]_{q_i}! for k = 0, 1, ..., up to the first zero
    power (at most k = dim + 1)."""
    out = [Mat.identity(X.nrows)]
    for k in range(1, X.nrows + 2):
        out.append((out[-1] @ X).scale(q_factorial(k, d).inv()
                                       * q_factorial(k - 1, d)))
        if out[-1].is_zero():
            break
    return out


def lusztig_T(rep: Rep, i: int) -> Mat:
    """Braid group operator T''_{i,1} on the module.

    Columns: on a weight vector v with m = lambda(h_i),
    T v = sum over a, c >= 0 with b = m + a + c >= 0 of
    (-1)^b q_i^{b - ac} E_i^{(a)} F_i^{(b)} E_i^{(c)} v  (divided powers).
    """
    d = rep.cartan.d[i]
    qi = p ** (2 * d)
    n = rep.dim
    Ed, Fd = _divided_powers(rep.E[i], d), _divided_powers(rep.F[i], d)
    emax, bmax = len(Ed) - 1, len(Fd) - 1
    EF: dict[tuple[int, int], Mat] = {}  # E^(a) F^(b), shared by all columns
    out = Mat.zeros(n)
    for col in range(n):
        m = rep.weights[col][i]
        if m.denominator != 1:
            raise BraidError("non-integral weight pairing")
        m = int(m)
        for c in range(emax + 1):
            vc = [Ed[c][r, col] for r in range(n)]
            if all(x.is_zero() for x in vc):
                continue
            for a in range(emax + 1):
                b = m + a + c
                if b < 0 or b > bmax:
                    continue
                coeff = (qi ** (b - a * c))
                if b % 2 == 1:
                    coeff = -coeff
                if (a, b) not in EF:
                    EF[a, b] = Ed[a] @ Fd[b]
                for r, acc in enumerate(EF[a, b].mul_vec(vc)):
                    if not acc.is_zero():
                        out.data[r][col] = out.data[r][col] + coeff * acc
    return out


def braid_SX(rep: Rep, diagram: SatakeDiagram) -> Mat:
    """Product of Lusztig operators along a reduced word for w_X."""
    out = Mat.identity(rep.dim)
    for i in diagram.wX_word():
        out = out @ lusztig_T(rep, i)
    return out


def _xi_exponent(diagram: SatakeDiagram, weight) -> Fraction:
    """q-exponent <theta(lam), lam>/2 + <lam, rho_X> for a classical weight
    given by its coroot values; any affine lift gives the same answer."""
    cd = diagram.cartan
    lam = classical_in_root_basis(cd, weight[1:])
    th = theta_on_roots(diagram, lam)
    return bilinear(th, lam) / 2 + bilinear(lam, rho(cd, diagram.X))


def cartan_correction(rep: Rep, diagram: SatakeDiagram) -> Mat:
    """Diagonal operator xi_theta, normalized to 1 on the first basis vector.

    Raw entries are q^{<theta(lam),lam>/2 + <lam,rho_X>}; the global factor
    is immaterial (the operator enters through Ad and paired normalizations)
    and is fixed so every entry is an integer power of p.
    """
    exps = [_xi_exponent(diagram, rep.weights[k]) for k in range(rep.dim)]
    base = exps[0]
    entries = []
    for e in exps:
        pexp = 2 * (e - base)
        if pexp.denominator != 1:
            raise BraidError(f"non-integral relative exponent {pexp} in xi")
        entries.append(p ** int(pexp))
    return Mat.diagonal(entries)


def t_theta_matrix(rep: Rep, diagram: SatakeDiagram) -> Mat:
    """Realized matrix of t_theta = xi_theta * S_X on the module, built once
    per module and diagram and shared: no caller writes to it. It reads only
    the weights and the E_i, F_i of nodes i in X, so with node 0 outside X a
    module shares it with its unit-point module."""
    return _t_theta(rep if 0 in diagram.X else rep.unit, diagram)


@lru_cache(maxsize=32)
def _t_theta(rep: Rep, diagram: SatakeDiagram) -> Mat:
    return cartan_correction(rep, diagram) @ braid_SX(rep, diagram)


def theta_q_Fs(rep: Rep, diagram: SatakeDiagram, nodes) -> dict[int, Mat]:
    """Matrices of theta_q(F_i) = Ad(t_theta)(-E_{tau(i)}) on the module, for
    each node i of ``nodes``; t_theta and its inverse are built once."""
    for i in nodes:
        if i in diagram.X:
            raise BraidError(f"node {i} lies in X; B_{i} = F_{i} needs no twist")
    if not nodes:
        return {}
    M = t_theta_matrix(rep, diagram)
    Minv = invert(M)
    return {i: M @ (-rep.E[diagram.tau[i]]) @ Minv for i in nodes}


@dataclass(frozen=True)
class TwistSpec:
    """Choice of gauge g defining the twist psi = Ad(g) ∘ theta_q^{-1}."""

    diagram: SatakeDiagram
    gauge: str = "semi-standard"     # semi-standard | standard | auxiliary | diagonal
    beta: dict | None = None         # for the diagonal gauge: node -> Rat

    def __hash__(self):
        return hash((self.diagram, self.gauge,
                     tuple(sorted((self.beta or {}).items()))))

    @property
    def Y(self) -> tuple[int, ...]:
        """Y of the auxiliary gauge g = S_Y^{-1} S_X: the nodes other than
        0 and tau(0), the only choice the diagram admits."""
        return build_Y0(self.diagram).X

    @staticmethod
    def from_json(diagram: SatakeDiagram, spec) -> "TwistSpec":
        if isinstance(spec, str):
            if spec not in ("semi-standard", "standard"):
                raise GaugeInvalid(f"unknown gauge {spec!r}")
            return TwistSpec(diagram, spec)
        if isinstance(spec, dict) and "auxiliary" in spec:
            twist = TwistSpec(diagram, "auxiliary")
            Y = spec["auxiliary"]["Y"]
            if len(Y) != len(twist.Y) or set(Y) != set(twist.Y):
                raise GaugeInvalid(
                    "auxiliary gauge expects Y = nodes minus {0, tau(0)}")
            return twist
        if isinstance(spec, dict) and "diagonal" in spec:
            return TwistSpec(diagram, "diagonal",
                             beta={int(k): Rat(v) for k, v in spec["diagonal"].items()})
        raise GaugeInvalid(f"unparseable gauge spec {spec!r}")

    def to_json(self):
        if self.gauge == "auxiliary":
            return {"gauge": {"auxiliary": {"Y": list(self.Y)}}}
        if self.gauge == "diagonal":
            return {"gauge": {"diagonal": {str(k): str(v)
                                           for k, v in self.beta.items()}}}
        return {"gauge": self.gauge}

    def check_admissible(self, shift: GradingShift, params: QSPParams):
        """G_QSP membership: s vanishes on Y, and the diagonal part satisfies
        beta(delta) = gamma(delta). The braid and Cartan-correction factors
        are trivial on delta, so every non-diagonal gauge here needs
        gamma(delta) = 1."""
        if self.gauge == "auxiliary":
            for i in self.Y:
                if shift.s[i] != 0:
                    raise GaugeInvalid(
                        f"auxiliary gauge needs s(alpha_{i}) = 0 on Y")
        cd = self.diagram.cartan
        gamma_delta = one
        for i in cd.nodes:
            gamma_delta = gamma_delta * params.gamma[i] ** cd.marks[i]
        if self.gauge == "diagonal":
            beta = self.beta or {}
            beta_delta = one
            for i in cd.nodes:
                if i in beta:
                    beta_delta = beta_delta * beta[i] ** cd.marks[i]
            if beta_delta != gamma_delta:
                raise GaugeInvalid("beta(delta) != gamma(delta)")
        elif not gamma_delta.is_one():
            raise GaugeInvalid(
                f"gauge requires gamma(delta) = 1, got {gamma_delta}")


def gauge_matrix(rep: Rep, spec: TwistSpec) -> Mat:
    """Realized matrix of the gauge operator g on the module."""
    if spec.gauge == "semi-standard":
        return t_theta_matrix(rep, spec.diagram)
    if spec.gauge == "standard":
        return Mat.identity(rep.dim)
    if spec.gauge == "auxiliary":
        return (invert(t_theta_matrix(rep, build_Y0(spec.diagram)))
                @ t_theta_matrix(rep, spec.diagram))
    if spec.gauge == "diagonal":
        beta = spec.beta or {}
        entries = []
        for wt in rep.weights:
            val = one
            for i in rep.cartan.nodes:
                h = wt[i]
                if h.denominator != 1:
                    raise GaugeInvalid("diagonal gauge needs integral coroot values")
                if i in beta and h != 0:
                    val = val * beta[i] ** int(h)
            entries.append(val)
        return Mat.diagonal(entries)
    raise GaugeInvalid(f"unknown gauge {spec.gauge!r}")


def realize_twist(rep: Rep, spec: TwistSpec) -> Rep:
    """The module psi*(V) for psi = Ad(g) ∘ theta_q^{-1}.

    Generally pi_{psi*(V)}(x) = C · pi_{(omega tau)*(V)}(x) · C^{-1} with
    C = pi_V(g) · T'^{-1}, where T' realizes t_theta on the omega-tau
    pullback. The semi-standard gauge g = t_theta collapses to psi =
    omega∘tau, the pullback itself. Under the orbit rule (module docstring)
    it is the twist of the unit-point module at the point a⁻¹.
    """
    diagram = spec.diagram
    if diagram.tau[0] != 0 or (spec.gauge != "semi-standard"
                               and 0 in diagram.X):
        return _realize(rep, spec)
    return _at_point(_realize(rep.unit, spec), rep.point.inv(),
                     f"psi*({rep.label})")


@lru_cache(maxsize=16)
def _realize(rep: Rep, spec: TwistSpec) -> Rep:
    """The twist realized at the module's own point, memoized on the
    module's identity and the spec's value. A module the twist fixes (same
    action and weights) is returned itself."""
    pulled = pullback_chevalley_tau(rep, spec.diagram.tau)
    if spec.gauge == "semi-standard":
        target = pulled
    else:
        C = gauge_matrix(rep, spec) @ invert(t_theta_matrix(pulled, spec.diagram))
        target = pulled.conjugated(C, label=f"psi*({rep.label})")
    return rep if target.same_module(rep) else target
