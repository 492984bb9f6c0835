"""Exact rational-function arithmetic in the deformation and spectral parameters.

Every scalar in the library is a :class:`Rat`: a reduced fraction of
multivariate polynomials with integer coefficients in

* ``p`` -- a square root of the quantum parameter, ``q = p**2`` (half-integer
  powers of ``q`` arise from the Cartan correction exponent);
* ``z``, ``w`` -- spectral parameters;
* any number of named constants (evaluation points ``a, b, ...``, coideal
  parameters ``g0, g1, s0, s1, ...``) registered on first use by :func:`const`.

A value is an element of one sparse fraction field over ZZ (sympy's
``FracField``, graded-lex order) on ``p, z, w`` and then the registered
constants in sorted order. The field is built once per tuple of names and
kept: registering switches to the field of the new names, and
:func:`parse_all` registers all names of a batch of texts in one switch.
An older value moves to the current field when next used, by remapping its
exponent tuples (:func:`_moved`). Printing, hashing and equality do not
depend on which other constants are registered, or in which order.

Arithmetic is Henrici's on reduced fractions (Knuth, TAOCP vol. 2, 4.5.1):
a product cancels only crosswise, numerator against the other factor's
denominator, and a sum cancels only against the gcd of the two denominators.
No gcd is ever taken of an unreduced numerator and denominator, and the
results are exactly the canonical forms the field itself would give.
:func:`clear_denominators` puts values over one common denominator, so that
products of many values can be formed in the polynomial ring, without gcds,
and :func:`kronecker` packs such polynomials into integer coefficients of
one generator fewer.

Arithmetic and :func:`clear_denominators` take every gcd through
:func:`_cofactors`, and none against a denominator 1, where nothing can
cancel. It settles a monomial operand, equal or opposite operands, and
operands whose generators nest without sympy's heuristic gcd, and takes
every other gcd in the ring of only the generators its two operands
contain. sympy's heuristic gcd costs a pass per generator of its ring, so a
gcd then costs the same however many constants are registered. The result
is the same polynomial: a gcd does not depend on generators neither operand
contains, and dropping zero exponents keeps the graded-lex order of the
others, so sympy fixes its sign from the same leading term.

:meth:`Rat.substitute` sends one generator to a Laurent monomial with
coefficient 1 (the spectral maps z ↦ w/z, z·w, w, 1/z, z^M) by remapping
exponents, without a gcd, when the value does not depend on the monomial's
other generators: the map is then injective on exponents and keeps numerator
and denominator coprime up to a monomial, which is divided out (see
:func:`_monomial_map`). Every other substitution, including z ↦ 1 and any
evaluation at a number, clears the values' denominators and reduces with the
field's gcd.

:func:`parse` reads text by recursive descent, never by ``eval``::

    expr     := term (("+" | "-") term)*
    term     := factor (("*" | "/") factor)*
    factor   := ("+" | "-") factor | atom [("^" | "**") exponent]
    exponent := ["+" | "-"] INT | "(" ["+" | "-"] INT ")"
    atom     := INT | NAME | "(" expr ")"

where NAME is ``p``, ``q`` (= ``p^2``), ``z``, ``w`` or a registered
constant. Anything else raises :class:`ParseError`.
"""

from __future__ import annotations

import math
import operator
import re
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

import sympy as sp
from sympy.polys.domains import ZZ
from sympy.polys.fields import FracElement, FracField
from sympy.polys.orderings import grlex
from sympy.polys.rings import PolyElement


class ScalarError(Exception):
    pass


class DivisionByZero(ScalarError):
    pass


class PoleAtPoint(ScalarError):
    """Substitution made a denominator vanish; carries the assignment."""

    def __init__(self, assignments):
        self.assignments = dict(assignments)
        super().__init__(f"denominator vanishes under {self.assignments}")


class ParseError(ScalarError):
    pass


_CORE = ("p", "z", "w")
_NAME = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")
_consts: set[str] = set()


def _field_on(consts) -> tuple[FracField, dict[str, int]]:
    """The field on the core generators and ``consts``, with each name's
    generator index; one build per set of names."""
    return _field_named(_CORE + tuple(sorted(consts)))


@lru_cache(maxsize=32)
def _field_named(names: tuple) -> tuple[FracField, dict[str, int]]:
    return (FracField([sp.Symbol(n) for n in names], ZZ, grlex),
            {n: i for i, n in enumerate(names)})


def _rebuild_field() -> None:
    global _field, _index
    _field, _index = _field_on(_consts)


_rebuild_field()


def const(name: str) -> "Rat":
    """A named symbolic constant (evaluation point, QSP parameter, ...)."""
    if name in _CORE + ("q",) or not _NAME.fullmatch(name):
        raise ValueError(f"{name!r} is reserved or not a valid name")
    if name not in _consts:
        _consts.add(name)
        _rebuild_field()
    return _gen(name)


def _gen(name: str) -> "Rat":
    return Rat(_field.gens[_index[name]])


def _moved(f: FracElement, field: FracField) -> FracElement:
    """``f`` in ``field``, whose generators include those of ``f``'s field.
    New generators change neither the gcd of numerator and denominator nor
    which denominator term leads in graded-lex order, so the reduced form
    carries over without a gcd, its exponent tuples remapped."""
    back = _exponent_map(f.field.symbols, field.symbols)
    new = field.ring.dtype
    return field.raw_new(*(new({back(m + (0,)): c for m, c in poly.items()})
                           for poly in (f.numer, f.denom)))


@lru_cache(maxsize=64)
def _exponent_map(old: tuple, new: tuple):
    """Reads an exponent tuple over the generators ``old``, with a 0
    appended, as one over ``new``: the 0 fills the generators ``old`` lacks."""
    return operator.itemgetter(*(old.index(s) if s in old else len(old)
                                 for s in new))


def _frac(x) -> FracElement:
    """``x`` as an element of the current field."""
    if isinstance(x, Rat):
        f = x.f
        if f.field is not _field:
            f = _moved(f, _field)
            object.__setattr__(x, "f", f)
        return f
    if isinstance(x, FracElement):  # made in the current field
        return x
    if isinstance(x, PolyElement):  # in the current field's ring
        return _field.raw_new(x)
    ring = _field.ring
    if isinstance(x, int):
        return _field.raw_new(ring.ground_new(x))
    if isinstance(x, Fraction):
        return _field.raw_new(ring.ground_new(x.numerator),
                              ring.ground_new(x.denominator))
    if isinstance(x, str):
        return _frac(parse(x))
    raise TypeError(f"cannot coerce {type(x).__name__} to Rat")


def _is_one(poly) -> bool:
    return len(poly) == 1 and poly.get(poly.ring.zero_monom) == 1


def _reduced(f: FracElement, numer, denom) -> FracElement:
    """``numer/denom`` in the field of ``f``, for a coprime pair, signed like
    ``FracElement.new``: the denominator's leading coefficient is positive."""
    if denom.LC < 0:
        numer, denom = -numer, -denom
    return f.raw_new(numer, denom)


def _inverse(f: FracElement) -> FracElement:
    if not f:
        raise DivisionByZero("inverse of zero")
    return _reduced(f, f.denom, f.numer)


@lru_cache(maxsize=256)
def _compact(ring, used: tuple):
    """The ring on the generators ``used`` of ``ring``, in ``ring``'s order,
    with maps of exponent tuples into it and back; ``back`` reads a compact
    tuple with a 0 appended, which fills the unused positions."""
    small = ring.clone(symbols=[ring.symbols[i] for i in used])
    back = operator.itemgetter(*(used.index(j) if j in used else len(used)
                                 for j in range(ring.ngens)))
    if len(used) == 1:
        i, = used
        return small, lambda m: (m[i],), back
    return small, operator.itemgetter(*used), back


def _cofactors(f, g):
    """``f.cofactors(g)``: the gcd h and the quotients f/h and g/h. Arithmetic
    and :func:`clear_denominators` take every gcd here. Four cases, in order:

    * a monomial operand: the integer gcd of all coefficients times the
      smallest exponents, as sympy's ``_gcd_monom`` gives it, with no call
      into sympy, and ``(1, f, g)`` as soon as both gcds reach 1;
    * f = ±g: h is f with the sign below;
    * the generators of one operand a strict subset of the other's: h is
      the gcd of the smaller operand and each coefficient of the larger one
      with respect to the extra generators, stopping at 1. A common divisor
      divides the smaller operand, so it does not contain the extra
      generators, and then it divides the larger operand exactly when it
      divides each of those coefficients;
    * otherwise sympy's gcd, in the ring of only the generators that ``f``
      or ``g`` contain (or sympy's own ``cofactors`` when they use every
      generator). Its heuristic gcd evaluates, interpolates and
      trial-divides once per generator of its ring, so a generator that
      neither operand contains costs as much as one they do. The gcd does
      not depend on such generators, and dropping their zero exponents
      keeps the graded-lex order of the others.

    sympy divides the exponents of both operands by their common divisors
    before its heuristic gcd, which gives h a positive leading coefficient
    in the graded-lex order of those divided exponents when it succeeds at
    its first interpolation. The second and third cases fix the sign by
    that rule (:func:`_sign_as_sympy`), and all three results equal sympy's
    exactly for coefficients of the sizes that occur here. With coefficients
    in the thousands the heuristic can settle later, with the other sign
    (f = g = -7p^2 - 4852p - 693 gives h = f); h and both cofactors then
    flip together, which leaves every reduced fraction built from them
    unchanged.
    """
    ring = f.ring
    if not f or not g:
        return f.cofactors(g)
    if len(f) == 1 or len(g) == 1:
        (m, c), = (f if len(f) == 1 else g).items()
        for mx, cx in (g if len(f) == 1 else f).items():
            m, c = ring.monomial_gcd(m, mx), ZZ.gcd(c, cx)
            if c == 1 and m == ring.zero_monom:
                return ring.one, f, g
        return (ring.dtype({m: c}),) + tuple(
            ring.dtype({ring.monomial_ldiv(mx, m): cx // c for mx, cx in x.items()})
            for x in (f, g))
    if len(f) == len(g) and (f == g or f == -g):
        s = _sign_as_sympy(f, f, g)
        return f.mul_ground(s), ring(s), ring(s if f == g else -s)
    fused, gused = ({i for i, k in enumerate(map(max, zip(*x))) if k} for x in (f, g))
    if fused < gused or gused < fused:
        small, large = (f, g) if fused < gused else (g, f)
        extra = tuple(sorted(fused ^ gused))
        coeffs: dict[tuple, dict] = {}
        for m, c in large.items():
            coeffs.setdefault(tuple(m[i] for i in extra), {})[
                tuple(0 if i in extra else k for i, k in enumerate(m))] = c
        h = small
        for c in coeffs.values():
            h = _cofactors(h, ring.dtype(c))[0]
            if h.is_ground and abs(h.LC) == 1:
                return ring.one, f, g
        h = h.mul_ground(_sign_as_sympy(h, f, g))
        return h, f.exquo(h), g.exquo(h)
    used = tuple(sorted(fused | gused))
    if len(used) == ring.ngens:
        return f.cofactors(g)
    small, pick, back = _compact(ring, used)
    h, cf, cg = (small.dtype({pick(m): c for m, c in f.items()})
                 .cofactors(small.dtype({pick(m): c for m, c in g.items()})))
    return tuple(ring.dtype({back(m + (0,)): c for m, c in poly.items()})
                 for poly in (h, cf, cg))


def _sign_as_sympy(h, f, g) -> int:
    """±1, whichever gives ``h`` a positive leading coefficient in graded-lex
    order once its exponents are divided by the gcd of each generator's
    exponents in ``f`` and ``g``, as sympy deflates them before a gcd."""
    J = [math.gcd(*col) or 1 for col in zip(*f, *g)]
    _, c = max(h.items(), key=lambda t: grlex(tuple(map(operator.floordiv, t[0], J))))
    return 1 if c > 0 else -1


def _lcm(f, g):
    """``f.lcm(g)``, the lcm sympy gives over ZZ, with its gcd taken by
    :func:`_cofactors`: the product of the primitive parts divided by their
    gcd, times the lcm of the contents."""
    fc, f = f.primitive()
    gc, g = g.primitive()
    _, _, cg = _cofactors(f, g)
    return (f * cg).mul_ground(ZZ.lcm(fc, gc))


def _mul(f: FracElement, g: FracElement) -> FracElement:
    """Product of reduced fractions: n1 is coprime to d1 and n2 to d2, so
    only n1 against d2 and n2 against d1 can cancel, and nothing cancels
    against a denominator 1."""
    n1, d1, n2, d2 = f.numer, f.denom, g.numer, g.denom
    if not n1 or not n2:
        return f.field.zero
    if _is_one(d1) and _is_one(d2):
        return f.raw_new(n1 * n2)
    if not _is_one(d2):
        _, n1, d2 = _cofactors(n1, d2)
    if not _is_one(d1):
        _, n2, d1 = _cofactors(n2, d1)
    return _reduced(f, n1 * n2, d1 * d2)


def _add(f: FracElement, g: FracElement) -> FracElement:
    """Sum of reduced fractions: with h = gcd(d1, d2), the numerator
    t = n1*(d2/h) + n2*(d1/h) is coprime to (d1/h)*(d2/h), so only gcd(t, h)
    can cancel. With d1 = 1 that leaves nothing to cancel, as
    gcd(n1*d2 + n2, d2) = gcd(n2, d2) = 1; likewise with d2 = 1."""
    n1, d1, n2, d2 = f.numer, f.denom, g.numer, g.denom
    if not n1:
        return g
    if not n2:
        return f
    if dict.__eq__(d1, d2):  # one ring, so comparing the terms suffices
        t = n1 + n2
        if not t:
            return f.field.zero
        if _is_one(d1):
            return f.raw_new(t)
        _, t, d = _cofactors(t, d1)
        return _reduced(f, t, d)
    # unequal reduced denominators cannot give a zero sum
    if _is_one(d1) or _is_one(d2):
        return _reduced(f, n1 * d2 + n2 * d1, d1 * d2)
    h, e1, e2 = _cofactors(d1, d2)
    t = n1 * e2 + n2 * e1
    if not _is_one(h):
        _, t, h = _cofactors(t, h)
    return _reduced(f, t, h * e1 * e2)


class Rat:
    """An immutable, reduced element of the field Q(p, z, w, constants...)."""

    __slots__ = ("f",)

    def __init__(self, x=0):
        object.__setattr__(self, "f", _frac(x))

    def __setattr__(self, *a):
        raise AttributeError("Rat is immutable")

    # -- arithmetic -------------------------------------------------------
    def __add__(self, other):
        return _rat(_add(_frac(self), _frac(other)))

    __radd__ = __add__

    def __sub__(self, other):
        return _rat(_add(_frac(self), -_frac(other)))

    def __rsub__(self, other):
        return _rat(_add(_frac(other), -_frac(self)))

    def __mul__(self, other):
        return _rat(_mul(_frac(self), _frac(other)))

    __rmul__ = __mul__

    def __truediv__(self, other):
        g = _frac(other)
        if not g:
            raise DivisionByZero("division by zero")
        return _rat(_mul(_frac(self), _inverse(g)))

    def __rtruediv__(self, other):
        return Rat(other) / self

    def __pow__(self, n):
        n = operator.index(n)
        f = _frac(self)
        if n < 0:
            f, n = _inverse(f), -n
        return _rat(f ** n if n else f.field.one)  # PolyElement refuses 0**0

    def __neg__(self):
        return _rat(-_frac(self))

    def inv(self) -> "Rat":
        return _rat(_inverse(_frac(self)))

    # -- predicates -------------------------------------------------------
    def is_zero(self) -> bool:
        return not self.f.numer

    def is_one(self) -> bool:
        return self.f.numer == self.f.denom

    def __eq__(self, other) -> bool:
        try:
            g = _frac(other)
        except (TypeError, ParseError):
            return NotImplemented
        return _frac(self) == g

    def __hash__(self):
        # a rational number hashes like the int or Fraction it equals; any
        # other value by its printed form, which is canonical and independent
        # of registrations
        f = self.f
        if f.numer.is_ground and f.denom.is_ground:
            return hash(Fraction(int(f.numer.LC), int(f.denom.LC)))
        return hash(str(self))

    def __bool__(self):
        return not self.is_zero()

    # -- structure --------------------------------------------------------
    def num(self) -> "Poly":
        """Numerator over the current generators, scaled so that :meth:`den`
        has coprime integer coefficients and a positive leading term."""
        f = _frac(self)
        return _scaled(f.numer, f.denom.content())

    def den(self) -> "Poly":
        f = _frac(self)
        return _scaled(f.denom, f.denom.content())

    def degree(self) -> int:
        """Total degree of the numerator plus that of the denominator."""
        return sum(max(map(sum, poly.itermonoms()), default=0)
                   for poly in (self.f.numer, self.f.denom))

    def names(self) -> set[str]:
        """Names of the variables and constants the value depends on."""
        f = self.f
        used = {i for poly in (f.numer, f.denom) for e in poly.itermonoms()
                for i, k in enumerate(e) if k}
        return {f.field.symbols[i].name for i in used}

    def substitute(self, assignments: dict) -> "Rat":
        """Evaluate at a partial assignment of variables/constants.

        Raises PoleAtPoint if the (reduced) denominator vanishes there.
        Zero comes back as is, once the keys are checked, and so does every
        value when the one assignment sends a generator to itself (z ↦ z).
        """
        check_targets(assignments)
        vals = {_index[k]: _frac(v) for k, v in assignments.items() if k in _index}
        if not vals or self.is_zero():
            return self
        f = _frac(self)
        if len(vals) == 1:
            (i, v), = vals.items()
            if v == _field.gens[i]:
                return self
            mapped = _monomial_map(f, i, v)
            if mapped is not None:
                return _rat(mapped)
        # clear the values' denominators to a common power in both parts
        d = {i: max(e[i] for poly in (f.numer, f.denom) for e in poly.itermonoms())
             for i in vals}
        numer, denom = (_cleared(poly, vals, d) for poly in (f.numer, f.denom))
        if not denom:
            raise PoleAtPoint({k: str(Rat(v)) for k, v in assignments.items()})
        return _rat(_field.new(numer, denom))

    def residue(self, point: dict[str, int], prime: int) -> int:
        """The value modulo ``prime`` at ``point`` (name -> integer), read from
        the reduced numerator and denominator; ``point`` must assign every
        name the value depends on.

        Raises PoleAtPoint if the denominator vanishes there modulo ``prime``.
        """
        f = self.f
        names = [s.name for s in f.field.symbols]

        def at(poly) -> int:
            total = 0
            for e, c in poly.iterterms():
                for i, k in enumerate(e):
                    if k:
                        c = c * pow(point[names[i]], k, prime) % prime
                total += c
            return total % prime

        den = at(f.denom)
        if not den:
            raise PoleAtPoint(point)
        return at(f.numer) * pow(den, -1, prime) % prime

    # -- printing ---------------------------------------------------------
    def __str__(self) -> str:
        f = self.f
        content = f.denom.content()
        ns = _poly_str(f.numer, content)
        if f.denom.is_ground:
            return ns
        return f"({ns})/({_poly_str(f.denom, content)})"

    def __repr__(self) -> str:
        return f"Rat({str(self)!r})"


_set_f = Rat.f.__set__


def _rat(f: FracElement) -> Rat:
    """``f`` wrapped as a Rat, without :class:`Rat`'s coercion."""
    x = object.__new__(Rat)
    _set_f(x, f)
    return x


def check_targets(assignments: dict) -> None:
    """Reject substitution keys that are not names (TypeError) and ``q``,
    which is p² and not a generator (ValueError)."""
    for k in assignments:
        if not isinstance(k, str):
            raise TypeError(f"bad substitution target {k!r}")
        if k == "q":
            raise ValueError("substitute p, not q")


def clear_denominators(values) -> tuple[list, object]:
    """Polynomial numerators of ``values`` over one common denominator ``den``,
    the lcm of their denominators, all in the field's polynomial ring:
    ``values[k] == numerators[k] / den``.

    Takes one lcm per distinct denominator and clears each value by an exact
    quotient, with no other gcd.
    """
    fs = [_frac(x) for x in values]
    distinct = dict.fromkeys(f.denom for f in fs)
    den = _field.ring.one
    for d in distinct:
        if not _is_one(d) and d != den:
            den = d if _is_one(den) else _lcm(den, d)
    quo = {d: den.exquo(d) for d in distinct}
    return [f.numer * quo[f.denom] for f in fs], den


def kronecker(polys: list, width: int) -> list:
    """Kronecker substitution (L. Kronecker, 1882): ``polys`` with their
    generator of largest degree (the first on ties) sent to 2**width, as
    polynomials with integer coefficients in the other generators they use,
    or as integers when there are none.

    Substitution is a ring homomorphism, and it is one-to-one on polynomials
    whose integer coefficients are below 2**width in absolute value: if such
    an h is nonzero, let c be its lowest coefficient at some monomial of
    the other generators; 2**width does not divide c, so h is not 0 there.
    """
    degrees = [max(col) for col in zip(*(f.degrees() for f in polys if f))] or [0]
    gen = degrees.index(max(degrees))
    rest = tuple(i for i, k in enumerate(degrees) if k and i != gen)
    if not rest:
        return [sum(c << width * m[gen] for m, c in f.items()) for f in polys]
    small, pick, _ = _compact(polys[0].ring, rest)
    out = []
    for f in polys:
        g = small.zero
        for m, c in f.items():
            k = pick(m)
            g[k] = g.get(k, 0) + (c << width * m[gen])
        g.strip_zero()
        out.append(g)
    return out


def _scaled(poly, content) -> "Poly":
    return Poly(tuple((e, Fraction(c, content)) for e, c in poly.terms()))


def _cleared(poly, vals: dict, d: dict):
    """``poly`` at ``vals`` (generator index -> value) times the product of
    ``den(vals[i])**d[i]``, which keeps it a polynomial."""
    ring, out = poly.ring, poly.ring.zero
    for e, c in poly.iterterms():
        t = ring({tuple(0 if i in vals else k for i, k in enumerate(e)): c})
        for i, v in vals.items():  # PolyElement refuses 0**0
            t *= (v.numer ** e[i] if e[i] else 1) * v.denom ** (d[i] - e[i])
        out += t
    return out


def _monomial_map(f: FracElement, i: int, v: FracElement) -> FracElement | None:
    """``f`` with generator ``i`` sent to ``v``, by remapping exponents, when
    ``v`` is a Laurent monomial with coefficient 1 other than 1 itself and
    ``f`` does not depend on the other generators of ``v``; None otherwise.

    The result needs no gcd. Let K be the field of the generators other
    than x_i and those of ``v``. The coprime numerator and denominator of
    ``f`` satisfy a Bezout identity in K[x_i^±1]; x_i ↦ v is an injective
    K-algebra map, so the identity carries over, and the images share no
    factor except monomials in x_i and the generators of ``v`` and elements
    of K. Distinct x_i-exponents stay distinct monomials, so a common factor
    from K would divide every coefficient of ``f``'s numerator and
    denominator alike, which are coprime. The remaining monomial is divided
    out by moving both to their lowest common monomial.
    """
    if len(v.numer) != 1 or len(v.denom) != 1:
        return None
    (top, c), = v.numer.items()
    (bottom, d), = v.denom.items()
    e = tuple(a - b for a, b in zip(top, bottom))
    others = [j for j, k in enumerate(e) if k and j != i]
    if c != 1 or d != 1 or not any(e) or any(
            m[j] for poly in (f.numer, f.denom) for m in poly.itermonoms()
            for j in others):
        return None
    parts = [[(tuple((0 if j == i else a) + m[i] * b
                     for j, (a, b) in enumerate(zip(m, e))), coeff)
              for m, coeff in poly.iterterms()] for poly in (f.numer, f.denom)]
    low = tuple(map(min, zip(*(m for part in parts for m, _ in part))))
    numer, denom = (f.numer.new({tuple(a - b for a, b in zip(m, low)): coeff
                                 for m, coeff in part}) for part in parts)
    return _reduced(f, numer, denom)


def _poly_str(poly, content) -> str:
    """Deterministic graded-lex string of ``poly / content``; even powers of p
    print as powers of q."""
    terms = poly.terms()
    use_q = all(e[0] % 2 == 0 for e, _ in terms)
    names = ["q" if use_q else "p"] + [s.name for s in poly.ring.symbols[1:]]
    out = ""
    for e, c in terms:
        e = (e[0] // 2 if use_q else e[0],) + e[1:]
        body = "*".join(n if k == 1 else f"{n}^{k}" for n, k in zip(names, e) if k)
        coeff = Fraction(c, content)
        mag = str(abs(coeff))
        frag = (body if mag == "1" else f"{mag}*{body}") if body else mag
        lead = "-" if coeff < 0 else ""
        out += (f" {lead or '+'} " if out else lead) + frag
    return out or "0"


@dataclass(frozen=True)
class Poly:
    """Polynomial as exponent tuples (over p, z, w, consts...) mapped to
    nonzero rational coefficients, in graded-lex order."""

    terms: tuple  # ((exps, Fraction), ...) sorted graded-lex descending

    def total_degree(self) -> int:
        return max((sum(e) for e, _ in self.terms), default=0)


# -- parsing --------------------------------------------------------------

_TOKEN = re.compile(r"[0-9]+|[A-Za-z_][A-Za-z0-9_]*|\*\*|\S")


def parse(s: str, register: bool = False) -> Rat:
    """Read ``s`` by recursive descent over the grammar in the module
    docstring, building field elements directly.

    With ``register``, a NAME that is not yet a constant becomes one, but
    only once all of ``s`` has parsed: the value is built in the field that
    the registrations will make, and a failed parse registers nothing.
    """
    return parse_all([s], register)[0]


def parse_all(texts, register: bool = False) -> list[Rat]:
    """:func:`parse` of each of ``texts``. With ``register``, the names
    they introduce are registered together, once every text has parsed:
    one field for all of them, and nothing registered if one text fails."""
    toks = [_TOKEN.findall(s) + [""] for s in texts]
    new = {t for ts in toks for t in ts if _NAME.fullmatch(t) and t != "q"
           and t not in _index} if register else set()
    field, index = _field_on(_consts | new) if new else (_field, _index)
    values = [_read(s, ts, field, index) for s, ts in zip(texts, toks)]
    if new:
        _consts.update(new)
        _rebuild_field()
    return [_rat(x) for x in values]


def _read(s: str, toks: list, field: FracField, index: dict) -> FracElement:
    """The value of ``s``, given as its tokens, in ``field``."""
    pos = 0

    def fail(why):
        raise ParseError(f"cannot parse {s!r}: {why}")

    def take(*ops):
        nonlocal pos
        if toks[pos] not in ops:
            return ""
        pos += 1
        return toks[pos - 1]

    def expect(ok):
        if not ok:
            fail(f"unexpected {toks[pos]!r}" if toks[pos] else "unexpected end")

    def number():
        expect(toks[pos].isascii() and toks[pos].isdigit())
        return int(take(toks[pos]))

    def expr():
        x = term()
        while op := take("+", "-"):
            x = _add(x, term() if op == "+" else -term())
        return x

    def term():
        x = factor()
        while op := take("*", "/"):
            x = _mul(x, factor() if op == "*" else _inverse(factor()))
        return x

    def factor():
        if op := take("+", "-"):
            return -factor() if op == "-" else factor()
        x = atom()
        if take("^", "**"):
            paren = take("(")
            n = -number() if take("+", "-") == "-" else number()
            if n < 0:
                x, n = _inverse(x), -n
            x = x ** n if n else field.one  # PolyElement refuses 0**0
            expect(not paren or take(")"))
        return x

    def atom():
        if take("("):
            x = expr()
            expect(take(")"))
            return x
        if toks[pos] == "q":
            take("q")
            return field.gens[0] ** 2
        if toks[pos] in index:
            return field.gens[index[take(toks[pos])]]
        if _NAME.fullmatch(toks[pos]):
            fail(f"unknown name {toks[pos]!r}")
        return field.raw_new(field.ring.ground_new(number()))

    try:
        x = expr()
        expect(not toks[pos])
    except DivisionByZero:
        fail("division by zero")
    except RecursionError:
        fail("nested too deeply")
    return x


zero = Rat(0)
one = Rat(1)
p = _gen("p")
q = p ** 2
z = _gen("z")
w = _gen("w")


def q_int(n: int, d: int = 1) -> Rat:
    """Quantum integer [n] in q_i = q^d: (q_i^n - q_i^-n)/(q_i - q_i^-1),
    summed as the Laurent polynomial q_i^(n-1) + q_i^(n-3) + ... + q_i^(1-n)."""
    if n < 0:
        return -q_int(-n, d)
    return sum((p ** (2 * d * (n - 1 - 2 * k)) for k in range(n)), zero)


def q_factorial(n: int, d: int = 1) -> Rat:
    out = one
    for k in range(1, n + 1):
        out = out * q_int(k, d)
    return out


def q_binomial(n: int, k: int, d: int = 1) -> Rat:
    """Gaussian binomial [n choose k] in q_i = q^d."""
    if k < 0 or k > n:
        return zero
    num, den = one, one
    for j in range(1, k + 1):
        num = num * q_int(n - k + j, d)
        den = den * q_int(j, d)
    return num / den
