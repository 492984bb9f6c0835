"""Finite-dimensional evaluation representations of quantum loop algebras.

A representation stores explicit matrices for the Chevalley generators
E_i, F_i, K_i on all affine nodes, together with the affine weight of every
basis vector (values on the coroots h_0..h_n, summing against the comarks to
zero since the central charge acts trivially). Builders for the standard
spin-j evaluation modules of the affine sl2 and the vector evaluation module
of affine slN are provided; everything downstream only consumes the matrices,
so further modules can be plugged in directly.

The builders make each module from one unit-point module per (kind, size),
built once: the evaluation point a enters only through E_0 = a·E_0° and
F_0 = a⁻¹·F_0°, and the other matrices are the unit-point module's own.
Under the orbit rule of :func:`braid.realize_twist` (τ(0) = 0, and node 0
outside X and Y) the twist of V_a is the twist of V_1 at the point a⁻¹, so
every solve on the orbit of a unit-point module can be done once, at that
module. Modules are not written to after they are built.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache

from .linalg import Mat, kron
from .rootdata import CartanDatum, DatumMismatch, affine_A
from .scalars import Rat, one, q_binomial, q_int


class RepError(Exception):
    pass


@dataclass(eq=False)
class Rep:
    """A module given by its generator matrices and basis weights.

    ``point`` is the evaluation point a of a module made by
    :func:`_at_point`, whose node-0 matrices are a^{±1} times those of the
    unit-point module ``_unit``: a builder's module, or a⁻¹ for the twist of
    one under the orbit rule of :func:`braid.realize_twist`. Every other
    module (other twists, conjugates, pullbacks, tensors, and copies made by
    ``dataclasses.replace``) has ``point = 1`` and is its own unit-point
    module. ``_pullback_of`` is (U, τ) for a module built as (ωτ)*U by
    :func:`pullback_chevalley_tau`. Equality and hashing are by identity;
    :meth:`same_action` and :meth:`same_module` compare modules.
    """

    cartan: CartanDatum
    dim: int
    E: dict[int, Mat]
    F: dict[int, Mat]
    K: dict[int, Mat]
    weights: tuple[tuple[Fraction, ...], ...]  # weights[k][i] = lambda_k(h_i)
    label: str = ""
    point: Rat = field(default=one, init=False)
    _unit: "Rep | None" = field(default=None, init=False, repr=False)
    _pullback_of: "tuple[Rep, tuple[int, ...]] | None" = field(
        default=None, init=False, repr=False)
    _Kinv: dict[int, Mat] = field(default_factory=dict, init=False, repr=False)

    @property
    def unit(self) -> "Rep":
        """The module at evaluation point 1 that this one rescales."""
        return self._unit or self

    def Kinv(self, i: int) -> Mat:
        if i not in self._Kinv:
            # K_i is diagonal in every module we build
            self._Kinv[i] = Mat.diagonal([self.K[i][k, k].inv()
                                          for k in range(self.dim)])
        return self._Kinv[i]

    def classical_weight(self, k: int) -> tuple[Fraction, ...]:
        return self.weights[k][1:]

    def same_action(self, other: "Rep") -> bool:
        """Whether both modules give every E_i, F_i, K_i the same matrix."""
        return all(self.E[i] == other.E[i] and self.F[i] == other.F[i]
                   and self.K[i] == other.K[i] for i in self.cartan.nodes)

    def same_module(self, other: "Rep") -> bool:
        """Same action and same weights: equal modules, whatever their labels."""
        return self.same_action(other) and self.weights == other.weights

    def conjugated(self, C: Mat, label: str = "") -> "Rep":
        """The equivalent module with action x ↦ C x C^{-1}.

        Requires C to permute-and-scale weight vectors so that the diagonal
        weight bookkeeping stays valid; a non-diagonal C K_i C^{-1} raises.
        """
        from .linalg import invert
        Ci = invert(C)

        def conj(m: Mat) -> Mat:
            return C @ m @ Ci

        newK = {i: conj(self.K[i]) for i in self.cartan.nodes}
        for i, m in newK.items():
            if m != Mat.diagonal([m[k, k] for k in range(self.dim)]):
                raise RepError(f"conjugated K_{i} is not diagonal")
        weights = _weights_from_K(self.cartan, newK, self.dim)
        return Rep(self.cartan, self.dim,
                   {i: conj(self.E[i]) for i in self.cartan.nodes},
                   {i: conj(self.F[i]) for i in self.cartan.nodes},
                   newK, weights, label or (self.label + ".conj"))


def _q_power(expo) -> Rat:
    """q**e for a (half-)integer e, via the square root p."""
    e = Fraction(expo)
    half = e * 2
    if half.denominator != 1:
        raise RepError(f"weight exponent {e} is not half-integral")
    from .scalars import p
    return p ** int(half)


def _weights_from_K(cartan: CartanDatum, K: dict[int, Mat], dim: int):
    """Recover integral weights from diagonal K-matrices, K_i = q_i^{lambda(h_i)}."""
    from .scalars import q
    weights = []
    for k in range(dim):
        row = []
        for i in cartan.nodes:
            entry = K[i][k, k]
            # search small exponents; module weights are tiny here
            for m in range(-2 * dim - 4, 2 * dim + 5):
                if entry == _q_power(cartan.d[i] * m):
                    row.append(Fraction(m))
                    break
            else:
                raise RepError(f"K_{i} entry {entry} is not a power of q_i")
        weights.append(tuple(row))
    return tuple(weights)


def _evaluation_point(a) -> Rat:
    a = a if isinstance(a, Rat) else Rat(a)
    if a.is_zero():
        raise RepError("evaluation point must be nonzero")
    if a.names() & {"z", "w"}:
        raise RepError("evaluation point must not involve the spectral "
                       "variables z and w")
    return a


def _at_point(unit: Rep, a: Rat, label: str) -> Rep:
    """``unit`` at evaluation point ``a``: E_0 = a·E_0°, F_0 = a⁻¹·F_0°."""
    rep = Rep(unit.cartan, unit.dim, {**unit.E, 0: unit.E[0].scale(a)},
              {**unit.F, 0: unit.F[0].scale(a.inv())}, dict(unit.K),
              unit.weights, label)
    rep.point, rep._unit = a, unit
    return rep


def build_eval_rep_sl2(spin2: int, a) -> Rep:
    """Spin-j evaluation module of affine sl2, spin2 = 2j, point ``a``.

    Basis v_0 (highest) .. v_{2j}; the affine node acts through the
    evaluation parameter: E_0 = a * (F_1 shape), F_0 = a^{-1} * (E_1 shape).
    """
    if spin2 < 0:
        raise RepError("spin2 must be nonnegative")
    a = _evaluation_point(a)
    return _at_point(_unit_eval_sl2(spin2), a, f"sl2-spin{spin2}/2(a={a})")


@lru_cache(maxsize=None)
def _unit_eval_sl2(spin2: int) -> Rep:
    cd = affine_A(1)
    n = spin2 + 1
    E1 = Mat.zeros(n)
    F1 = Mat.zeros(n)
    for k in range(n):
        if k >= 1:
            E1.data[k - 1][k] = q_int(k)
        if k + 1 < n:
            F1.data[k + 1][k] = q_int(spin2 - k)
    K1 = Mat.diagonal([_q_power(spin2 - 2 * k) for k in range(n)])
    K0 = Mat.diagonal([_q_power(2 * k - spin2) for k in range(n)])
    weights = tuple((Fraction(2 * k - spin2), Fraction(spin2 - 2 * k))
                    for k in range(n))
    return Rep(cd, n, {0: F1, 1: E1}, {0: E1, 1: F1}, {0: K0, 1: K1},
               weights, f"sl2-spin{spin2}/2(a=1)")


def build_vector_rep_slN_eval(N: int, a) -> Rep:
    """Vector evaluation module of affine slN on basis e_1..e_N."""
    if N < 2:
        raise RepError("N >= 2 required")
    a = _evaluation_point(a)
    return _at_point(_unit_vector_slN(N), a, f"sl{N}-vector(a={a})")


@lru_cache(maxsize=None)
def _unit_vector_slN(N: int) -> Rep:
    cd = affine_A(N - 1)
    E = {i: Mat.unit(N, N, i - 1, i) for i in range(1, N)}
    F = {i: Mat.unit(N, N, i, i - 1) for i in range(1, N)}
    E[0] = Mat.unit(N, N, N - 1, 0)
    F[0] = Mat.unit(N, N, 0, N - 1)
    weights = []
    for k in range(1, N + 1):
        row = [Fraction((1 if k == N else 0) - (1 if k == 1 else 0))]
        for i in range(1, N):
            row.append(Fraction((1 if k == i else 0) - (1 if k == i + 1 else 0)))
        weights.append(tuple(row))
    K = {i: Mat.diagonal([_q_power(w[i]) for w in weights]) for i in cd.nodes}
    return Rep(cd, N, E, F, K, tuple(weights), f"sl{N}-vector(a=1)")


def build_rep(spec: dict) -> Rep:
    """Construct a module from its JSON description."""
    kind = spec.get("kind")
    if kind == "eval-sl2":
        return build_eval_rep_sl2(int(spec["spin2"]), Rat(spec.get("a", 1)))
    if kind == "eval-vector":
        return build_vector_rep_slN_eval(int(spec["N"]), Rat(spec.get("a", 1)))
    raise RepError(f"unknown representation kind {kind!r}")


def _comm(a: Mat, b: Mat) -> Mat:
    return a @ b - b @ a


@dataclass(frozen=True)
class RelationReport:
    ok: bool
    failures: tuple[str, ...] = ()

    def to_json(self):
        return {"ok": self.ok, "failures": list(self.failures)}


def verify_relations(rep: Rep) -> RelationReport:
    """Exhaustive check of the level-zero Drinfeld-Jimbo relations."""
    from .scalars import p, q
    cd = rep.cartan
    fails: list[str] = []
    qmqi = q - q.inv()
    for i in cd.nodes:
        Ki, Kiv = rep.K[i], rep.Kinv(i)
        if not (Ki @ Kiv).is_identity():
            fails.append(f"K_{i} not invertible as stored")
        for j in cd.nodes:
            if not _comm(Ki, rep.K[j]).is_zero():
                fails.append(f"[K_{i}, K_{j}] != 0")
            sc = p ** (2 * cd.d[i] * cd.a[i][j])
            if not (Ki @ rep.E[j] @ Kiv - rep.E[j].scale(sc)).is_zero():
                fails.append(f"K_{i} E_{j} K_{i}^-1 != q_i^a_ij E_{j}")
            if not (Ki @ rep.F[j] @ Kiv - rep.F[j].scale(sc.inv())).is_zero():
                fails.append(f"K_{i} F_{j} K_{i}^-1 != q_i^-a_ij F_{j}")
            target = Mat.zeros(rep.dim)
            if i == j:
                qi = p ** (2 * cd.d[i])
                target = (Ki - Kiv).scale((qi - qi.inv()).inv())
            if not (_comm(rep.E[i], rep.F[j]) - target).is_zero():
                fails.append(f"[E_{i}, F_{j}] wrong")
            if i != j:
                for gen, name in ((rep.E, "E"), (rep.F, "F")):
                    m = 1 - cd.a[i][j]
                    acc = Mat.zeros(rep.dim)
                    for s in range(m + 1):
                        t = gen[i].pow(m - s) @ gen[j] @ gen[i].pow(s)
                        t = t.scale(q_binomial(m, s, cd.d[i]))
                        acc = acc + t if s % 2 == 0 else acc - t
                    if not acc.is_zero():
                        fails.append(f"Serre({name}_{i}, {name}_{j}) != 0")
    # trivial central charge: product of K_i over the comarks is the identity
    prod = Mat.identity(rep.dim)
    for i in cd.nodes:
        dual_mark = cd.marks[i] * cd.d[i] // cd.d[0]
        prod = prod @ rep.K[i].pow(dual_mark)
    if not prod.is_identity():
        fails.append("central K product != 1")
    # weight bookkeeping matches the K action
    for k in range(rep.dim):
        for i in cd.nodes:
            if rep.K[i][k, k] != _q_power(Fraction(cd.d[i]) * rep.weights[k][i]):
                fails.append(f"weight of basis vector {k} at node {i} inconsistent")
    return RelationReport(not fails, tuple(dict.fromkeys(fails)))


def coproduct(v: Rep, w: Rep, i: int, op: bool = False,
              z: Rat = one) -> tuple[Mat, Mat]:
    """Matrices of Δ(E_i), Δ(F_i) on V ⊗ W_z, where
    Δ(E_i) = E_i ⊗ 1 + K_i ⊗ E_i,  Δ(F_i) = F_i ⊗ K_i^{-1} + 1 ⊗ F_i,
    or of the opposite coproduct Δ^op = (flip) ∘ Δ when ``op`` is set. W_z
    carries the homogeneous grading shift: its node-0 generators E_0, F_0
    are scaled by z, 1/z."""
    Ew, Fw = w.E[i], w.F[i]
    if i == 0 and not z.is_one():
        Ew, Fw = Ew.scale(z), Fw.scale(z.inv())
    Iv, Iw = Mat.identity(v.dim), Mat.identity(w.dim)
    if op:
        return (kron(Iv, Ew) + kron(v.E[i], w.K[i]),
                kron(v.F[i], Iw) + kron(v.Kinv(i), Fw))
    return (kron(v.E[i], Iw) + kron(v.K[i], Ew),
            kron(v.F[i], w.Kinv(i)) + kron(Iv, Fw))


def tensor(v: Rep, w: Rep) -> Rep:
    """Tensor product V ⊗ W through :func:`coproduct`."""
    if v.cartan != w.cartan:
        raise DatumMismatch("tensor factors over different data")
    cd = v.cartan
    E, F, K = {}, {}, {}
    for i in cd.nodes:
        E[i], F[i] = coproduct(v, w, i)
        K[i] = kron(v.K[i], w.K[i])
    weights = tuple(tuple(a + b for a, b in zip(v.weights[k], w.weights[l]))
                    for k in range(v.dim) for l in range(w.dim))
    return Rep(cd, v.dim * w.dim, E, F, K, weights,
               f"({v.label})⊗({w.label})")


def pullback_chevalley_tau(rep: Rep, tau) -> Rep:
    """Pullback along ω ∘ τ (Chevalley involution composed with a diagram
    automorphism): E_i ↦ -F_{τ(i)}, F_i ↦ -E_{τ(i)}, K_i ↦ K_{τ(i)}^{-1}."""
    tau = tuple(tau)
    cd = rep.cartan
    E = {i: -rep.F[tau[i]] for i in cd.nodes}
    F = {i: -rep.E[tau[i]] for i in cd.nodes}
    K = {i: rep.Kinv(tau[i]) for i in cd.nodes}
    weights = tuple(tuple(-wt[tau[i]] for i in cd.nodes) for wt in rep.weights)
    out = Rep(cd, rep.dim, E, F, K, weights, f"(ωτ)*({rep.label})")
    out._pullback_of = (rep, tau)
    return out


def ell_highest_indices(rep: Rep) -> list[int]:
    """Basis indices killed by every classical E_i and by F_0."""
    out = []
    for k in range(rep.dim):
        killed = all(all(rep.E[i][r, k].is_zero() for r in range(rep.dim))
                     for i in range(1, rep.cartan.rank + 1))
        killed = killed and all(rep.F[0][r, k].is_zero() for r in range(rep.dim))
        if killed:
            out.append(k)
    return out
