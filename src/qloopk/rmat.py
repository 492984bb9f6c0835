"""Rational R-matrices: intertwiner solve, Yang-Baxter, unitarity, degeneration.

The solver imposes R(z) · (pi_V ⊗ pi_{W,z})(Δ(x)) = (pi_V ⊗ pi_{W,z})(Δ^op(x)) · R(z)
over the Chevalley generators, with the second factor carrying the homogeneous
grading shift (z on the affine node only), and takes the kernel with
linalg.intertwiner_kernel. Unknowns are restricted to entries connecting equal
classical-weight classes, which the K-generator conditions force anyway; this
keeps the sl3 system at 15 unknowns instead of 81.

R depends on the evaluation points a of V and b of W only through z·b/a
(Jimbo, Commun. Math. Phys. 102 (1986)), so :func:`solve_R` eliminates only
the pair of unit-point modules (:attr:`Rep.unit`), once per pair in a small
memo, and maps that solution by z ↦ z·b/a. The result is exact. Under the
coproduct, each equation of V_a ⊗ W_{b,z} is a^{±1} times the equation of
V_1 ⊗ W_{1,u} at u = z·b/a, and nothing else depends on a, b or z. The
builders reject points that involve z or w, so u ↦ z·b/a is an injective
map of fields: kernel dimension, the highest-weight pivot and the scaling
carry over, and every entry is the canonical fraction a direct solve gives.
The same holds for the twists of builder modules under the orbit rule,
which have the point a⁻¹ and a unit-point module of their own, or V_1
itself when the twist fixes V_1 (:mod:`braid`). Other
modules have point 1 and are solved as they are; their action must not
involve z or w either.

One more pair needs no elimination. The Chevalley involution ω (E_i ↦ -F_i,
F_i ↦ -E_i, K_i ↦ K_i⁻¹) is an algebra automorphism and a coalgebra
anti-automorphism, Δ∘ω = (ω⊗ω)∘Δ^op, and ω*U at z is U at 1/z pulled back
along ω. So for V = ω*U₁ and W = ω*U₂ (the pullbacks with τ = id), the
matrices of Δ and Δ^op on V ⊗ W_z are those of Δ^op and Δ on U₁ ⊗ U₂,1/z;
conjugated by the flip P of the legs they are those of Δ and Δ^op on
U₂ ⊗ U₁,z at generators scaled by the grading. Hence X ↦ P·X·P maps the
solutions for (U₂, U₁) onto those for (V, W), and P·R(U₂, U₁)·P spans the
kernel, a line. :func:`_solve_unit` takes it when its entry at the pair's
own highest-weight index is exactly 1, which makes it the normalized
solution; otherwise it eliminates.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

from .linalg import (KernelDimension, Mat, intertwiner_kernel, kron, permute,
                     product_residual, rank, swap)
from .repcore import Rep, coproduct
from .scalars import PoleAtPoint, Rat, z as z_var


class RmatError(Exception):
    pass


class NoHighestWeightVector(RmatError):
    pass


@dataclass
class RMatrixResult:
    matrix: Mat
    kernel_dim: int
    hw_index: int
    scalar: Rat

    def to_json(self):
        return {"matrix": self.matrix.to_json(),
                "kernel_dim": self.kernel_dim,
                "normalization": {"hw_index": self.hw_index,
                                  "scalar": str(self.scalar)}}


def _tensor_weight_classes(v: Rep, w: Rep) -> dict[tuple, list[int]]:
    classes: dict[tuple, list[int]] = {}
    for i in range(v.dim):
        for j in range(w.dim):
            cw = tuple(a + b for a, b in
                       zip(v.classical_weight(i), w.classical_weight(j)))
            classes.setdefault(cw, []).append(i * w.dim + j)
    return classes


def solve_R(v: Rep, w: Rep) -> RMatrixResult:
    """Solve for the R-matrix, normalized on the highest-weight tensor
    vector: the unit-point solution at z·b/a for points a of V and b of W.
    Raises KernelDimension if the solution space is not a line,
    NoHighestWeightVector if the weight-maximal block is not 1-dim."""
    res = _solve_unit(v.unit, w.unit)
    at = {"z": z_var * w.point / v.point}
    return RMatrixResult(res.matrix.substitute(at), res.kernel_dim,
                         res.hw_index, res.scalar.substitute(at))


def _flipped(v: Rep, w: Rep) -> Mat | None:
    """P·R(U₂, U₁)·P when v = ω*U₁ and w = ω*U₂, else None (also when
    R(U₂, U₁) cannot be solved: then the pair is eliminated as it is)."""
    if v._pullback_of is None or w._pullback_of is None:
        return None
    (U1, t1), (U2, t2) = v._pullback_of, w._pullback_of
    if t1 != tuple(range(len(t1))) or t2 != t1:
        return None
    try:
        return permute(solve_R(U2, U1).matrix, swap(w.dim, v.dim))
    except (RmatError, KernelDimension):
        return None


@lru_cache(maxsize=16)
def _solve_unit(v: Rep, w: Rep) -> RMatrixResult:
    """The intertwiner solve itself; the memo is keyed on module identity
    and never hands out its matrix (solve_R substitutes into a copy)."""
    classes = _tensor_weight_classes(v, w)
    # unknowns: (r, c) with equal class
    unk: dict[tuple[int, int], int] = {}
    for members in classes.values():
        for r in members:
            for c in members:
                unk[(r, c)] = len(unk)
    # normalization block: weight-maximal class by coordinate sum, lex tie-break
    top = classes[max(classes, key=lambda cw: (sum(cw), cw))]
    flipped = _flipped(v, w)
    if flipped is not None and len(top) == 1 and flipped[top[0], top[0]].is_one():
        # elimination would scale its kernel vector to 1 at the last nonzero
        # unknown (SpanBasis.nullspace), so it would report that entry
        last = max((rc for rc in unk if not flipped[rc].is_zero()), key=unk.get)
        return RMatrixResult(flipped, 1, top[0], flipped[last])
    pairs = []
    for i in v.cartan.nodes:
        pairs += zip(coproduct(v, w, i, z=z_var), coproduct(v, w, i, op=True, z=z_var))
    R = intertwiner_kernel(pairs, unk)
    if len(top) != 1:
        raise NoHighestWeightVector(
            f"weight-maximal block has dimension {len(top)}")
    hw = top[0]
    pivot = R[hw, hw]
    if pivot.is_zero():
        raise NoHighestWeightVector("solution vanishes on the highest-weight vector")
    scalar = pivot.inv()
    return RMatrixResult(R.scale(scalar), 1, hw, scalar)


@dataclass(frozen=True)
class CheckReport:
    ok: bool
    detail: str = ""

    def to_json(self):
        return {"ok": self.ok, "detail": self.detail}


def check_product(lhs: list[Mat], rhs: list[Mat], label: str = "") -> CheckReport:
    """Exact check of ``prod(lhs) == prod(rhs)`` (an empty side is the
    identity); a failure names the first nonzero entry of the difference."""
    residual = product_residual(lhs, rhs)
    if residual is None:
        return CheckReport(True)
    i, j, val = residual
    return CheckReport(False, f"{label}residual at ({i},{j}): {val}")


def _first_nonzero(m: Mat):
    for i in range(m.nrows):
        for j in range(m.ncols):
            if not m[i, j].is_zero():
                return i, j, m[i, j]
    return None


def _r13(Ruw: Mat, du: int, dv: int, dw: int) -> Mat:
    """R_UW on the first and last legs of U ⊗ V ⊗ W: R_UW ⊗ 1 on U ⊗ W ⊗ V,
    with the last two legs swapped."""
    legs = [a * dv * dw + k for a in range(du) for k in swap(dw, dv)]
    return permute(kron(Ruw, Mat.identity(dv)), legs)


def verify_YBE(u: Rep, v: Rep, w: Rep,
               Ruv: Mat | None = None, Ruw: Mat | None = None,
               Rvw: Mat | None = None) -> CheckReport:
    """Exact two-variable Yang-Baxter check:
    R12(z) R13(zw) R23(w) = R23(w) R13(zw) R12(z) on U ⊗ V ⊗ W."""
    from .scalars import w as w_var
    Ruv = Ruv if Ruv is not None else solve_R(u, v).matrix
    Ruw = Ruw if Ruw is not None else solve_R(u, w).matrix
    Rvw = Rvw if Rvw is not None else solve_R(v, w).matrix
    R12 = kron(Ruv, Mat.identity(w.dim))
    R13 = _r13(Ruw.substitute({"z": z_var * w_var}), u.dim, v.dim, w.dim)
    R23 = kron(Mat.identity(u.dim), Rvw.substitute({"z": w_var}))
    return check_product([R12, R13, R23], [R23, R13, R12])


def verify_R_unitarity(v: Rep, w: Rep,
                       Rvw: Mat | None = None, Rwv: Mat | None = None) -> CheckReport:
    """R_VW(z)^{-1} = (1 2) ∘ R_WV(1/z) ∘ (1 2), checked without inversion."""
    Rvw = Rvw if Rvw is not None else solve_R(v, w).matrix
    Rwv = Rwv if Rwv is not None else solve_R(w, v).matrix
    R21 = permute(Rwv.substitute({"z": z_var.inv()}), swap(w.dim, v.dim))
    return check_product([R21, Rvw], [])


def detect_degeneration(v: Rep, w: Rep, point: dict,
                        R: Mat | None = None) -> str:
    """Classify R at a parameter point: 'pole', 'singular', or
    'regular-invertible'."""
    R = R if R is not None else solve_R(v, w).matrix
    try:
        at = R.substitute(point)
    except PoleAtPoint:
        return "pole"
    if rank(at) < at.nrows:
        return "singular"
    return "regular-invertible"
