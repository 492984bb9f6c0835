"""Affine Cartan data, Weyl combinatorics, Satake diagrams and grading shifts.

Everything is table-free: a datum is constructed from its extended Cartan
matrix, symmetrizers and marks, so further untwisted types can be added by
supplying those. Builders for the untwisted type-A series are provided.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field
from fractions import Fraction

from .scalars import Rat


class RootDataError(Exception):
    pass


class DatumMismatch(RootDataError):
    pass


class NotFiniteType(RootDataError):
    pass


@dataclass(frozen=True)
class CartanDatum:
    """Untwisted affine Cartan datum on nodes 0..n."""

    label: str
    a: tuple[tuple[int, ...], ...]  # extended Cartan matrix
    d: tuple[int, ...]              # symmetrizers, (d_i a_ij) symmetric
    marks: tuple[int, ...]          # coefficients of delta, marks[0] == 1

    def __post_init__(self):
        n1 = len(self.a)
        assert all(len(row) == n1 for row in self.a)
        for i in range(n1):
            assert self.a[i][i] == 2
            for j in range(n1):
                if i != j:
                    assert self.a[i][j] <= 0
                    assert (self.a[i][j] == 0) == (self.a[j][i] == 0)
                assert self.d[i] * self.a[i][j] == self.d[j] * self.a[j][i]
        assert self.marks[0] == 1
        for i in range(n1):
            assert sum(self.marks[j] * self.a[i][j] for j in range(n1)) == 0, \
                "marks must span the kernel (delta)"

    @property
    def nodes(self) -> range:
        return range(len(self.a))

    @property
    def rank(self) -> int:
        return len(self.a) - 1

    def delta(self) -> "RootVec":
        return RootVec(self, tuple(Fraction(m) for m in self.marks))

    def alpha(self, i: int) -> "RootVec":
        c = [Fraction(0)] * len(self.a)
        c[i] = Fraction(1)
        return RootVec(self, tuple(c))

    def zero(self) -> "RootVec":
        return RootVec(self, tuple(Fraction(0) for _ in self.a))


def affine_A(n: int) -> CartanDatum:
    """The untwisted affine datum of type A_n (n >= 1)."""
    if n < 1:
        raise ValueError("n >= 1 required")
    m = n + 1
    if n == 1:
        a = ((2, -2), (-2, 2))
    else:
        rows = []
        for i in range(m):
            row = [0] * m
            row[i] = 2
            row[(i + 1) % m] = -1
            row[(i - 1) % m] = -1
            rows.append(tuple(row))
        a = tuple(rows)
    return CartanDatum(f"A{n}^(1)", a, (1,) * m, (1,) * m)


@dataclass(frozen=True)
class RootVec:
    """Element of the rational span of the affine simple roots."""

    cartan: CartanDatum
    coords: tuple[Fraction, ...]

    def _check(self, other: "RootVec"):
        if self.cartan is not other.cartan and self.cartan != other.cartan:
            raise DatumMismatch("root vectors over different data")

    def __add__(self, other):
        self._check(other)
        return RootVec(self.cartan, tuple(x + y for x, y in zip(self.coords, other.coords)))

    def __sub__(self, other):
        self._check(other)
        return RootVec(self.cartan, tuple(x - y for x, y in zip(self.coords, other.coords)))

    def __neg__(self):
        return RootVec(self.cartan, tuple(-x for x in self.coords))

    def scale(self, c) -> "RootVec":
        c = Fraction(c)
        return RootVec(self.cartan, tuple(c * x for x in self.coords))

    def pair_coroot(self, i: int) -> Fraction:
        """<mu, h_i> via <alpha_j, h_i> = a_ij."""
        a = self.cartan.a
        return sum((c * a[i][j] for j, c in enumerate(self.coords)), Fraction(0))

    def is_zero(self) -> bool:
        return all(x == 0 for x in self.coords)

    def __str__(self):
        return "(" + ", ".join(str(x) for x in self.coords) + ")"


def bilinear(mu: RootVec, nu: RootVec) -> Fraction:
    """Normalized invariant form, (alpha_i, alpha_j) = d_i a_ij."""
    mu._check(nu)
    cd = mu.cartan
    out = Fraction(0)
    for i, x in enumerate(mu.coords):
        if x == 0:
            continue
        for j, y in enumerate(nu.coords):
            if y:
                out += x * y * cd.d[i] * cd.a[i][j]
    return out


def reflect(mu: RootVec, i: int) -> RootVec:
    return mu - mu.cartan.alpha(i).scale(mu.pair_coroot(i))


def weyl_act(cartan: CartanDatum, word, mu: RootVec) -> RootVec:
    """Apply s_{word[0]} ∘ ... ∘ s_{word[-1]}: rightmost letter acts first."""
    if mu.cartan != cartan:
        raise DatumMismatch("vector not over the given datum")
    out = mu
    for i in reversed(list(word)):
        out = reflect(out, i)
    return out


def positive_roots(cartan: CartanDatum, X) -> list[RootVec]:
    """Positive roots of the finite subsystem on X, by reflection closure."""
    X = sorted(set(X))
    if len(X) == len(cartan.a):
        raise NotFiniteType("X must be a proper subset")
    roots = {cartan.alpha(i).coords for i in X}
    frontier = set(roots)
    bound = 10000
    while frontier:
        new = set()
        for c in frontier:
            v = RootVec(cartan, c)
            for i in X:
                img = reflect(v, i)
                if all(x >= 0 for x in img.coords) and img.coords not in roots:
                    new.add(img.coords)
        roots |= new
        frontier = new
        if len(roots) > bound:
            raise NotFiniteType(f"subsystem on {X} does not close up")
    return [RootVec(cartan, c) for c in sorted(roots)]


def rho(cartan: CartanDatum, X) -> RootVec:
    """Half-sum of the positive roots of the subsystem on X, in root coords."""
    out = cartan.zero()
    for r in positive_roots(cartan, X):
        out = out + r
    return out.scale(Fraction(1, 2))


def longest_element(cartan: CartanDatum, X) -> tuple[int, ...]:
    """Canonical reduced word for w_X by greedy descent on rho_X.

    Deterministic: at each step the smallest node with positive pairing is
    chosen. Length equals |Delta_X^+|.
    """
    X = sorted(set(X))
    if not X:
        return ()
    if len(X) == len(cartan.a):
        raise NotFiniteType("X must be a proper subset")
    lam = rho(cartan, X)
    word: list[int] = []
    npos = len(positive_roots(cartan, X))
    while True:
        for i in X:
            if lam.pair_coroot(i) > 0:
                word.append(i)
                lam = reflect(lam, i)
                break
        else:
            break
        if len(word) > npos:
            raise RootDataError("descent failed to terminate")
    # letters were applied left-to-right to rho; w_X = s_{i_k}...s_{i_1};
    # reverse so that weyl_act(word, .) applies them in the same order.
    word.reverse()
    assert len(word) == npos
    return tuple(word)


def opposition_involution(cartan: CartanDatum, X) -> dict[int, int]:
    """oi_X(i) = the unique j in X with w_X(alpha_i) = -alpha_j."""
    X = sorted(set(X))
    word = longest_element(cartan, X)
    out = {}
    for i in X:
        img = -weyl_act(cartan, word, cartan.alpha(i))
        for j in X:
            if img.coords == cartan.alpha(j).coords:
                out[i] = j
                break
        else:
            raise RootDataError("w_X did not permute simple roots of X")
    return out


@dataclass(frozen=True)
class SatakeDiagram:
    """Generalized affine Satake diagram (X, tau) over a Cartan datum."""

    cartan: CartanDatum
    X: tuple[int, ...]
    tau: tuple[int, ...]  # tau[i] is the image of node i

    def __post_init__(self):
        rep = validate_gsat(self.cartan, self.X, self.tau)
        if not rep.valid:
            raise RootDataError(f"invalid Satake diagram: {rep.condition}: {rep.detail}")

    def wX_word(self) -> tuple[int, ...]:
        return longest_element(self.cartan, self.X)

    def restricted_rank(self) -> int:
        rest = [i for i in self.cartan.nodes if i not in self.X]
        orbits = set()
        for i in rest:
            orbits.add(frozenset({i, self.tau[i]}))
        return len(orbits)

    def I_diff(self) -> set[int]:
        cd, X, tau = self.cartan, set(self.X), self.tau
        out = set()
        for i in cd.nodes:
            if i in X or tau[i] == i:
                continue
            if cd.a[i][tau[i]] != 0 or any(cd.a[i][j] != 0 for j in X):
                out.add(i)
        return out

    def I_ns(self) -> set[int]:
        cd, X, tau = self.cartan, set(self.X), self.tau
        return {i for i in cd.nodes
                if i not in X and tau[i] == i and all(cd.a[i][j] == 0 for j in X)}

    def to_json(self) -> dict:
        return {"type": "A", "n": self.cartan.rank,
                "X": list(self.X), "tau": list(self.tau)}


@dataclass(frozen=True)
class ValidationReport:
    valid: bool
    condition: str = ""
    detail: str = ""

    def to_json(self) -> dict:
        if self.valid:
            return {"valid": True}
        return {"valid": False, "condition": self.condition, "detail": self.detail}


def _component(cartan: CartanDatum, nodes, start) -> set[int]:
    nodes = set(nodes)
    seen = {start}
    stack = [start]
    while stack:
        u = stack.pop()
        for v in nodes:
            if v not in seen and cartan.a[u][v] != 0:
                seen.add(v)
                stack.append(v)
    return seen


def validate_gsat(cartan: CartanDatum, X, tau) -> ValidationReport:
    """Check the generalized Satake diagram conditions; names the first failure."""
    X = sorted(set(X))
    tau = tuple(tau)
    nodes = list(cartan.nodes)
    if sorted(tau) != nodes:
        return ValidationReport(False, "tau", "not a permutation of the nodes")
    for i in nodes:
        if tau[tau[i]] != i:
            return ValidationReport(False, "tau", f"tau not involutive at node {i}")
        for j in nodes:
            if cartan.a[i][j] != cartan.a[tau[i]][tau[j]]:
                return ValidationReport(
                    False, "tau", f"not a diagram automorphism at ({i},{j})")
    if len(X) == len(nodes):
        return ValidationReport(False, "gsat.1", "X must be a proper subset")
    if any(tau[i] not in X for i in X):
        return ValidationReport(False, "tau", "tau does not preserve X")
    oi = opposition_involution(cartan, X)
    for i in X:
        if tau[i] != oi[i]:
            return ValidationReport(
                False, "gsat.1",
                f"tau({i})={tau[i]} but opposition involution gives {oi[i]}")
    for i in nodes:
        if i in X or tau[i] != i:
            continue
        comp = _component(cartan, set(X) | {i}, i)
        if len(comp) == 2:
            j, k = sorted(comp)
            if cartan.a[j][k] * cartan.a[k][j] == 1:
                return ValidationReport(
                    False, "gsat.2",
                    f"component {sorted(comp)} of X ∪ {{{i}}} is of type A2")
    return ValidationReport(True)


def validate_params(diagram: SatakeDiagram, gamma: dict, sigma: dict) -> ValidationReport:
    """Check the QSP parameter constraints for (gamma, sigma)."""
    cd, X, tau = diagram.cartan, set(diagram.X), diagram.tau
    gamma = {i: Rat(v) for i, v in gamma.items()}
    sigma = {i: Rat(v) for i, v in sigma.items()}
    for i in cd.nodes:
        if i not in gamma:
            return ValidationReport(False, "params.gamma", f"gamma missing at node {i}")
        if i not in sigma:
            return ValidationReport(False, "params.sigma", f"sigma missing at node {i}")
    for i in cd.nodes:
        if gamma[i].is_zero():
            return ValidationReport(False, "params.gamma", f"gamma_{i} must be nonzero")
    for i in X:
        if not gamma[i].is_one():
            return ValidationReport(False, "params.gamma", f"gamma_{i} != 1 for {i} in X")
    idiff = diagram.I_diff()
    for i in cd.nodes:
        if i in X:
            continue
        if not ({i, tau[i]} & idiff) and gamma[i] != gamma[tau[i]]:
            return ValidationReport(
                False, "params.gamma",
                f"gamma_{i} != gamma_{tau[i]} outside I_diff orbits")
    ins = diagram.I_ns()
    for i in cd.nodes:
        if i not in ins and not sigma[i].is_zero():
            return ValidationReport(False, "params.sigma",
                                    f"sigma_{i} != 0 but {i} not in I_ns")
    for i in ins:
        for j in ins:
            if cd.a[i][j] % 2 != 0 and not sigma[j].is_zero():
                return ValidationReport(
                    False, "params.sigma",
                    f"a_{i}{j} odd requires sigma_{j} = 0")
    return ValidationReport(True)


@dataclass(frozen=True)
class QSPParams:
    diagram: SatakeDiagram
    gamma: dict = field(default_factory=dict)
    sigma: dict = field(default_factory=dict)

    def __post_init__(self):
        rep = validate_params(self.diagram, self.gamma, self.sigma)
        if not rep.valid:
            raise RootDataError(f"invalid QSP parameters: {rep.condition}: {rep.detail}")
        object.__setattr__(self, "gamma", {i: Rat(v) for i, v in self.gamma.items()})
        object.__setattr__(self, "sigma", {i: Rat(v) for i, v in self.sigma.items()})

    def __hash__(self):
        return hash((self.diagram, tuple(sorted(self.gamma.items())),
                     tuple(sorted(self.sigma.items()))))


def theta_on_roots(diagram: SatakeDiagram, mu: RootVec) -> RootVec:
    """theta(mu) = -w_X(tau(mu)) on the affine root lattice."""
    cd = diagram.cartan
    if mu.cartan != cd:
        raise DatumMismatch("vector not over the diagram's datum")
    tau = diagram.tau
    coords = [Fraction(0)] * len(cd.a)
    for i, c in enumerate(mu.coords):
        coords[tau[i]] += c
    return -weyl_act(cd, diagram.wX_word(), RootVec(cd, tuple(coords)))


def theta_on_coroots(diagram: SatakeDiagram, coords: tuple) -> tuple:
    """theta on the affine coroot lattice, coords in the h_i basis."""
    cd = diagram.cartan
    tau = diagram.tau
    c = [Fraction(0)] * len(cd.a)
    for i, x in enumerate(coords):
        c[tau[i]] += Fraction(x)
    # Weyl action on coroots: s_i(h_j) = h_j - a_ji h_i
    for i in reversed(diagram.wX_word()):
        pairing = sum(c[j] * cd.a[j][i] for j in cd.nodes)
        c[i] -= pairing
    return tuple(-x for x in c)


@dataclass(frozen=True)
class GradingShift:
    """tau-invariant grading shift: s on the affine simple roots, extended
    linearly to the root lattice."""

    cartan: CartanDatum
    s: tuple[int, ...]

    def __post_init__(self):
        assert all(v >= 0 for v in self.s)

    @staticmethod
    def principal(cartan: CartanDatum) -> "GradingShift":
        return GradingShift(cartan, (1,) * len(cartan.a))

    @staticmethod
    def tau_minimal(diagram: SatakeDiagram) -> "GradingShift":
        cd = diagram.cartan
        orbit = {0, diagram.tau[0]}
        return GradingShift(cd, tuple(1 if i in orbit else 0 for i in cd.nodes))

    def exponent(self, mu: RootVec) -> Fraction:
        if mu.cartan != self.cartan:
            raise DatumMismatch("vector not over the shift's datum")
        return sum((c * self.s[i] for i, c in enumerate(mu.coords)), Fraction(0))


def shift_exponent(shift: GradingShift, mu: RootVec) -> int:
    v = shift.exponent(mu)
    if v.denominator != 1:
        raise RootDataError(f"non-integral shift exponent {v}")
    return int(v)


@functools.lru_cache(maxsize=None)
def build_Y0(diagram: SatakeDiagram) -> SatakeDiagram:
    """Auxiliary restricted-rank-one diagram (Y0, eta0) used to recover the
    standard reflection equation: Y0 = nodes minus {0, tau(0)}, eta0 swaps 0
    with tau(0) and restricts to the opposition involution on Y0. Memoized:
    twists read it on every solve."""
    cd = diagram.cartan
    t0 = diagram.tau[0]
    Y0 = tuple(i for i in cd.nodes if i not in (0, t0))
    eta = list(cd.nodes)
    eta[0], eta[t0] = t0, 0
    oi = opposition_involution(cd, Y0)
    for i in Y0:
        eta[i] = oi[i]
    return SatakeDiagram(cd, Y0, tuple(eta))


def classical_in_root_basis(cartan: CartanDatum, hvals) -> RootVec:
    """Lift a classical weight, given by its values on the finite coroots
    h_1..h_n, into the rational span of the finite simple roots."""
    h = [Fraction(x) for x in hvals[:cartan.rank]]
    coords = [sum((c * x for c, x in zip(row, h)), Fraction(0))
              for row in _finite_cartan_inverse(cartan.a)]
    return RootVec(cartan, (Fraction(0), *coords))


@functools.lru_cache(maxsize=None)
def _finite_cartan_inverse(a) -> tuple[tuple[Fraction, ...], ...]:
    """Inverse of the finite part (nodes 1..n) of the Cartan matrix ``a``."""
    import sympy as sp

    n = len(a) - 1
    inv = sp.Matrix(n, n, lambda i, j: a[i + 1][j + 1]).inv()
    return tuple(tuple(Fraction(int(x.p), int(x.q)) for x in inv.row(i))
                 for i in range(n))
