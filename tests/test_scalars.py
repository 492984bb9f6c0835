from fractions import Fraction

import pytest
import sympy as sp
from sympy.polys.rings import PolyElement
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from qloopk import scalars
from qloopk.scalars import (DivisionByZero, ParseError, PoleAtPoint, Rat,
                            clear_denominators, const, one, p, parse, q,
                            q_binomial, q_factorial, q_int, w, z, zero)


def rational_strategy():
    num = st.integers(min_value=-6, max_value=6)
    den = st.integers(min_value=1, max_value=4)
    return st.builds(lambda n, d: Rat(Fraction(n, d)), num, den)


def small_expr():
    atoms = st.sampled_from([one, q, z, q + one, z - q, Rat(3)])
    return atoms


class TestArithmetic:
    def test_field_identities(self):
        x = (q * z - one) / (z + q)
        assert (x - x).is_zero()
        assert (x / x).is_one()
        assert x * x.inv() == one

    def test_cancellation(self):
        assert (z ** 2 - one) / (z - one) == z + one

    def test_zero_division(self):
        with pytest.raises(DivisionByZero):
            one / zero

    def test_power_laws(self):
        assert p ** 2 == q
        assert z ** -1 == z.inv()
        assert (q ** 3) * (q ** -3) == one

    @given(x=rational_strategy(), y=rational_strategy(), t=small_expr())
    @settings(max_examples=40, deadline=None)
    def test_commutative_ring_axioms(self, x, y, t):
        assert x + y == y + x
        assert x * y == y * x
        assert (x + y) * t == x * t + y * t

    @given(x=small_expr())
    @settings(max_examples=20, deadline=None)
    def test_inverse_roundtrip(self, x):
        if not x.is_zero():
            assert x.inv().inv() == x


class TestEqualityAndHash:
    @pytest.mark.parametrize("number", [0, 1, -3, Fraction(1, 2), Fraction(-7, 3)])
    def test_rational_values_hash_like_the_number(self, number):
        x = Rat(number)
        assert x == number and hash(x) == hash(number)
        assert number in {x} and x in {number}

    @pytest.mark.parametrize("text", ["foo", "1/0", "z^"])
    def test_unparsable_text_is_unequal(self, text):
        assert not Rat(1) == text
        assert Rat(1) != text

    def test_text_that_parses_compares_by_value(self):
        assert Rat(1) == "1"
        assert z / q == "z/q"


class TestPrinting:
    def test_even_p_powers_print_as_q(self):
        assert str(p ** 2) == "q"
        assert str(p ** 3) == "p^3"
        assert str(p ** -2) == "(1)/(q)"

    def test_canonical_fraction(self):
        assert str((q * q - one) / (q * z - q)) == "(q^2 - 1)/(q*z - q)"

    def test_integers(self):
        assert str(Rat(5)) == "5"


class TestParseSubstitute:
    def test_roundtrip(self):
        x = (q ** 3 * z - one) / q
        assert parse(str(x)) == x

    def test_parse_expression(self):
        assert parse("q^2*z - 1/q") == q ** 2 * z - q.inv()

    def test_unknown_symbol(self):
        with pytest.raises(ParseError):
            parse("not_a_registered_name_xyzzy")

    def test_no_code_is_run(self):
        with pytest.raises(ParseError):
            parse("__import__('os').getpid() * 0 + 1")

    def test_grammar(self):
        a = const("a")
        assert parse("-q^2*a/(1 - z)") == -(q ** 2 * a) / (one - z)
        assert parse("z**-2 + z^(+3) - w^(-1)") == z ** -2 + z ** 3 - w.inv()
        assert parse("2*-z") == Rat(-2) * z
        assert parse(" +p ") == p

    @pytest.mark.parametrize("text", ["", "2.5", "z^a", "z^", "(z", "z)",
                                      "f(z)", "z z", "1/0", "0^-1", "z^2^3",
                                      "a b", "z; 1"])
    def test_malformed(self, text):
        with pytest.raises(ParseError):
            parse(text)

    def test_register_after_parse(self):
        x = parse("late_reg_x^2 / (1 - late_reg_y)", register=True)
        assert {"late_reg_x", "late_reg_y"} <= scalars._consts
        assert x == const("late_reg_x") ** 2 / (one - const("late_reg_y"))

    @pytest.mark.parametrize("text", ["late_bad_x + f(late_bad_y)",
                                      "late_bad_x / (late_bad_y - late_bad_y)",
                                      "__import__('os')"])
    def test_failed_parse_registers_nothing(self, text):
        before = set(scalars._consts)
        with pytest.raises(ParseError):
            parse(text, register=True)
        assert scalars._consts == before

    def test_substitute(self):
        x = z ** 2 + q
        assert x.substitute({"z": Rat(2)}) == q + Rat(4)

    def test_identity_substitution_returns_value(self):
        # z ↦ z (R at equal points, K at a = 1) maps nothing
        x = (z * w - q) / (z ** 2 + const("a"))
        assert x.substitute({"z": z}) is x
        assert x.substitute({"p": p}) is x
        assert x.substitute({"z": w}) == (w * w - q) / (w ** 2 + const("a"))

    @pytest.mark.parametrize("value", [zero, Rat(0) * z],
                             ids=["zero", "product"])
    def test_substitute_zero(self, value):
        # zero comes back as is, but only after the keys are checked
        assert value.substitute({"z": Rat(2), "p": q}) is value
        with pytest.raises(ValueError, match="substitute p"):
            value.substitute({"q": Rat(2)})
        with pytest.raises(TypeError, match="bad substitution target"):
            value.substitute({1: Rat(2)})

    def test_pole(self):
        x = one / (z - one)
        with pytest.raises(PoleAtPoint):
            x.substitute({"z": one})

    def test_const_registry(self):
        c = const("test_scalar_c")
        assert c == const("test_scalar_c")
        with pytest.raises(ValueError):
            const("q")


class TestQCombinatorics:
    def test_q_int(self):
        assert str(q_int(3)) == "(q^4 + q^2 + 1)/(q^2)"
        assert q_int(1) == one
        assert q_int(0).is_zero()

    def test_q_int_negative_symmetry(self):
        assert q_int(-3) == -q_int(3)

    def test_q_factorial(self):
        assert q_factorial(3) == q_int(1) * q_int(2) * q_int(3)

    def test_q_binomial_symmetry(self):
        assert q_binomial(5, 2) == q_binomial(5, 3)

    def test_q_binomial_pascal(self):
        # [n k] = q^k [n-1 k] + q^{k-n} [n-1 k-1]
        n, k = 4, 2
        lhs = q_binomial(n, k)
        rhs = q ** k * q_binomial(n - 1, k) \
            + q ** (k - n) * q_binomial(n - 1, k - 1)
        assert lhs == rhs

    def test_doubled_parameter(self):
        assert q_int(2, 2) == (q ** 4 - q ** -4) / (q ** 2 - q ** -2)

    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_q_int_matches_quotient(self, d):
        qi = p ** (2 * d)
        for n in range(-4, 6):
            if n:
                assert q_int(n, d) == (qi ** n - qi ** -n) / (qi - qi ** -1)


# -- registration order ------------------------------------------------------

def test_registration_does_not_change_hash_str_or_eq():
    a = const("a")

    def make():
        return (z + a) / (q - a * w), z + a

    x, y = make()
    before = [hash(x), str(x), hash(y), str(y)]
    table = {x: "x", y: "y"}
    const("AA_registered_late")  # sorts before every lower-case name
    assert [hash(x), str(x), hash(y), str(y)] == before
    x2, y2 = make()
    assert (x, y) == (x2, y2)
    assert [hash(x2), str(x2), hash(y2), str(y2)] == before
    assert table[x] == table[x2] == "x" and table[y] == table[y2] == "y"


# names of the old field, and new ones sorting before, between and after them
_OLD_NAMES = ("rb_f", "rb_m", "rb_t")
_NEW_NAMES = ("RB", "rb_a", "rb_h", "rb_p", "rb_z")


@st.composite
def _rebase_cases(draw):
    """A fraction over the core generators and some of ``_OLD_NAMES``, with
    numerator and denominator drawn independently, and a larger set of
    names to move it to."""
    old = draw(st.sets(st.sampled_from(_OLD_NAMES)))
    new = old | draw(st.sets(st.sampled_from(_NEW_NAMES), min_size=1))
    field = scalars._field_on(old)[0]
    ring = field.ring
    terms = st.lists(st.tuples(st.tuples(*[st.integers(0, 3)] * ring.ngens),
                               st.integers(-9, 9)), max_size=5)
    numer, denom = (ring.from_dict(dict(draw(terms))) for _ in range(2))
    return field.raw_new(numer, denom or ring.one), scalars._field_on(new)[0]


@given(case=_rebase_cases())
@settings(max_examples=150, deadline=None)
def test_rebase_by_exponent_map_equals_set_ring(case):
    """Moving a value into a field with more names by remapping exponent
    tuples gives exactly the terms sympy's ``set_ring`` gives."""
    f, field = case
    moved = scalars._moved(f, field)
    assert moved.field is field
    for mine, poly in ((moved.numer, f.numer), (moved.denom, f.denom)):
        ref = poly.set_ring(field.ring)
        assert mine.ring == field.ring and dict(mine) == dict(ref)


def test_fields_are_built_once_per_name_tuple():
    assert scalars._field_on({"rb_f", "rb_m"}) is scalars._field_on(["rb_m", "rb_f"])


def test_parse_all_registers_together(monkeypatch):
    """A batch registers its new names in one field build, and only once
    every text has parsed."""
    builds = []
    real = scalars.FracField
    monkeypatch.setattr(scalars, "FracField",
                        lambda *args: builds.append(args) or real(*args))
    before = set(scalars._consts)
    with pytest.raises(ParseError):
        scalars.parse_all(["batch_x + 1", "batch_y", "batch_z +"], register=True)
    assert scalars._consts == before
    builds.clear()
    x, y = scalars.parse_all(["batch_x + 1", "batch_y/batch_x"], register=True)
    assert scalars._consts == before | {"batch_x", "batch_y"}
    assert len(builds) == 1
    assert (x, y) == (const("batch_x") + 1, const("batch_y") / const("batch_x"))


# -- differential oracle: the fraction field against sympy's cancel ----------

_ORACLE_CONST = "oracle_c"
_SYM = {"p": sp.Symbol("p"), "z": sp.Symbol("z"), "w": sp.Symbol("w"),
        _ORACLE_CONST: sp.Symbol(_ORACLE_CONST)}
_SYM["q"] = _SYM["p"] ** 2


def _trees():
    leaf = st.one_of(st.sampled_from(["p", "q", "z", "w", _ORACLE_CONST]),
                     st.integers(min_value=-3, max_value=3))
    return st.recursive(leaf, lambda t: st.one_of(
        st.tuples(st.sampled_from("+-*/"), t, t),
        st.tuples(st.just("^"), t, st.integers(min_value=-2, max_value=3))),
        max_leaves=8)


def _evaluate(tree, atom):
    if not isinstance(tree, tuple):
        return atom(tree)
    op, left, right = tree
    x = _evaluate(left, atom)
    if op == "^":
        return x ** right
    y = _evaluate(right, atom)
    return {"+": lambda: x + y, "-": lambda: x - y,
            "*": lambda: x * y, "/": lambda: x / y}[op]()


def _as_rat(tree):
    const(_ORACLE_CONST)
    atoms = {"p": p, "q": q, "z": z, "w": w}
    return _evaluate(tree, lambda t: Rat(t) if isinstance(t, int)
                     else atoms[t] if t in atoms else const(t))


def _as_expr(tree):
    return _evaluate(tree, lambda t: sp.Integer(t) if isinstance(t, int)
                     else _SYM[t])


def _from_printed(x: Rat):
    return sp.parse_expr(str(x).replace("^", "**"), local_dict=_SYM)


def _rat_or_reject(tree):
    try:
        return _as_rat(tree)
    except DivisionByZero:
        assume(False)


@given(tree=_trees())
@settings(max_examples=60, deadline=None)
def test_differential_oracle(tree):
    x = _rat_or_reject(tree)
    assert sp.cancel(_as_expr(tree) - _from_printed(x)) == 0


@given(left=_trees(), right=_trees())
@settings(max_examples=40, deadline=None)
def test_equal_values_print_identically(left, right):
    x, y = _rat_or_reject(left), _rat_or_reject(right)
    assert str(x + y - y) == str(x)
    if not y.is_zero():
        assert str((x * y) / y) == str(x)
        assert hash((x * y) / y) == hash(x)


@given(tree=_trees())
@settings(max_examples=60, deadline=None)
def test_parse_roundtrip(tree):
    x = _rat_or_reject(tree)
    assert parse(str(x)) == x
    assert str(parse(str(x))) == str(x)


# -- differential oracle: Henrici arithmetic against the field's operators ---

# a term c * p^i * z^j * w^k * oracle_c^l is (i, j, k, l, c)
_term = st.tuples(st.integers(0, 2), st.integers(0, 2), st.integers(0, 1),
                  st.integers(0, 1), st.integers(-3, 3))
_numerators = st.one_of(st.just([]),                        # zero
                        st.lists(_term, min_size=1, max_size=3))
_ONE = [(0, 0, 0, 0, 1)]
_denominators = st.one_of(
    st.just(_ONE),                                                   # one
    st.sampled_from([-4, -2, 3, 6]).map(lambda c: [(0, 0, 0, 0, c)]),  # integer
    st.tuples(st.integers(0, 3), st.integers(0, 2), st.integers(0, 1),
              st.integers(0, 1),
              st.sampled_from([-2, -1, 1, 3])).map(lambda t: [t]),   # monomial
    st.lists(_term, min_size=1, max_size=3))                         # general


def _poly(terms):
    const(_ORACLE_CONST)
    ring = scalars._field.ring
    P, Z, W = ring.gens[:3]
    C = ring.gens[scalars._index[_ORACLE_CONST]]
    return sum((c * P ** i * Z ** j * W ** k * C ** l for i, j, k, l, c in terms),
               ring.zero)


@given(nf=_numerators, df=_denominators, ng=_numerators, dg=_denominators,
       denominators=st.sampled_from(["drawn", "shared", "f is 1", "g is 1"]))
@settings(max_examples=150, deadline=None)
def test_henrici_matches_field_operators(nf, df, ng, dg, denominators):
    """Rat's + - * / give exactly the numerator and denominator that
    FracElement's own operators give, which cancel the unreduced result:
    with the denominators drawn apart, shared, or one of them 1."""
    df, dg = {"drawn": (df, dg), "shared": (df, df),
              "f is 1": (_ONE, dg), "g is 1": (df, _ONE)}[denominators]
    assume(_poly(df) and _poly(dg))
    field = scalars._field
    f, g = field.new(_poly(nf), _poly(df)), field.new(_poly(ng), _poly(dg))
    x, y = Rat(f), Rat(g)
    cases = [(x + y, f + g), (x - y, f - g), (x * y, f * g),
             (x + x, f + f), (x - x, f - f), (-x * y, -f * g)]
    if g:
        cases.append((x / y, f / g))
    for mine, ref in cases:
        assert (mine.f.numer, mine.f.denom) == (ref.numer, ref.denom)


def test_clear_denominators():
    values = [zero, one / (q - z), z / (q * (q - z)), Rat(Fraction(-3, 2)), w]
    nums, den = clear_denominators(values)
    ring = scalars._field.ring
    assert all(x.ring == ring for x in nums + [den])
    assert [Rat(n) / Rat(den) for n in nums] == values


@given(dens=st.lists(_denominators, min_size=1, max_size=4))
@settings(max_examples=60, deadline=None)
def test_clear_denominators_takes_sympys_lcm(dens):
    """The common denominator is the one repeated ``den.lcm(d)`` calls give,
    over the distinct denominators in order of first appearance."""
    assume(all(_poly(d) for d in dens))
    field = scalars._field
    values = [Rat(field.new(field.ring.one, _poly(d))) for d in dens]
    ref = field.ring.one
    for x in values:
        d = x.f.denom
        if d != 1 and d != ref:
            ref = d if ref == 1 else ref.lcm(d)
    _, den = clear_denominators(values)
    assert den == ref


# -- gcds in the ring of the operands' generators ----------------------------

# p, z, w and two constants
_GCD_RING = scalars._field_on({"gcd_c", "gcd_d"})[0].ring
_N = _GCD_RING.ngens


def _gcd_operand(gens):
    """A polynomial in the generators ``gens`` (indices) only: zero, an
    integer, a monomial or a sum of up to four terms."""
    exps = st.tuples(*(st.integers(0, 2) if i in gens else st.just(0)
                       for i in range(_N)))
    return st.lists(st.tuples(exps, st.integers(-4, 4)), max_size=4).map(
        lambda terms: sum((c * _GCD_RING.from_dict({e: 1}) for e, c in terms),
                          _GCD_RING.zero))


@st.composite
def _gcd_pairs(draw):
    """f = a*c and g = b*c, with a, b, c each over its own subset of the
    generators; subsets may be empty, disjoint or everything."""
    subsets = st.one_of(st.sets(st.integers(0, _N - 1)), st.just(set(range(_N))))
    a, b, c = (draw(_gcd_operand(draw(subsets))) for _ in range(3))
    c = c or _GCD_RING.one
    return a * c, b * c


@given(pair=_gcd_pairs())
@example(pair=(_GCD_RING.gens[1] ** 2 - 1, _GCD_RING.gens[1] - 1))  # one generator
@example(pair=(_GCD_RING.gens[0] + 1, _GCD_RING.gens[3] + 1))  # disjoint
@example(pair=(_GCD_RING.gens[2] * _GCD_RING.gens[4], _GCD_RING.gens[2] + 1))  # monomial
@example(pair=(_GCD_RING(6), 2 * _GCD_RING.gens[0] + 4))  # integer
@example(pair=(sum(_GCD_RING.gens) * (_GCD_RING.gens[0] - 1),
               sum(_GCD_RING.gens) * (_GCD_RING.gens[4] + 2)))  # every generator
@settings(max_examples=200, deadline=None)
def test_compact_cofactors_equal_full_ring_cofactors(pair):
    """The gcd and cofactors taken in the ring of the operands' generators
    are exactly (same sign, same ring) what the full ring gives."""
    f, g = pair
    mine, ref = scalars._cofactors(f, g), f.cofactors(g)
    assert all(x.ring == _GCD_RING for x in mine)
    assert mine == ref
    if f and g:
        assert scalars._lcm(f, g) == f.lcm(g)


@st.composite
def _cofactor_cases(draw):
    """A pair for each case of ``scalars._cofactors``: a monomial operand,
    f = ±g, the generators of one operand a strict subset of the other's,
    and two operands on arbitrary generators; the last three share a
    random factor."""
    case = draw(st.sampled_from(["monomial", "sign", "subset", "other"]))
    gens = st.sets(st.integers(0, _N - 1))
    if case == "monomial":
        mono = _gcd_operand(draw(gens)).filter(lambda f: len(f) == 1)
        f = draw(mono)
        g = draw(st.one_of(mono, _gcd_operand(draw(gens))))
        return (f, g) if draw(st.booleans()) else (g, f)
    small = draw(gens)
    large = small | draw(gens) if case == "subset" else draw(gens)
    c = draw(_gcd_operand(small)) or _GCD_RING.one
    f = draw(_gcd_operand(small)) * c
    if case == "sign":
        return f, draw(st.sampled_from([1, -1])) * f
    g = draw(_gcd_operand(large)) * c
    return (f, g) if draw(st.booleans()) else (g, f)


_P, _Z = _GCD_RING.gens[:2]


@given(pair=_cofactor_cases())
# sympy takes the sign after dividing the exponents of p by 2, which puts z^2
# ahead of p^2: h = f, though the leading coefficient of f is -1
@example(pair=(-_P ** 2 + _Z ** 2 + _Z, _P ** 2 - _Z ** 2 - _Z))
@example(pair=((_P ** 2 + 1) * (_GCD_RING.gens[3] - 2), _P ** 4 - 1))  # subset
@settings(max_examples=200, deadline=None)
def test_cofactor_cases_equal_sympys(pair):
    """Every case of ``_cofactors`` gives exactly ``f.cofactors(g)``: the
    same gcd, sign included, and the same cofactors, in the same ring."""
    f, g = pair
    mine = scalars._cofactors(f, g)
    assert all(x.ring == _GCD_RING for x in mine)
    assert mine == f.cofactors(g)


def test_gcds_ignore_unused_generators(monkeypatch):
    """With six constants registered, arithmetic on values in p and z takes
    every gcd in a ring of generators its operands use, and none against a
    denominator 1."""
    for k in range(6):
        const(f"unused_gen_{k}")
    calls = []
    real = PolyElement.cofactors

    def spy(f, g):
        calls.append((f, g))
        return real(f, g)

    monkeypatch.setattr(PolyElement, "cofactors", spy)
    x = (p + z) / (p - z)                      # Rat division: cross-cancels
    y = (p * z + 1) / (z + 2)
    values = [x * y, x + y, x - x * y, (p + z) * y, y + (p + z),
              x * (p - z), y * (z + 2) + x]
    assert values[5] == p + z and values[6] == p * z + 1 + x
    assert calls
    for f, g in calls:
        used = {i for poly in (f, g) for m in poly for i, k in enumerate(m) if k}
        assert len(used) == f.ring.ngens, (f.ring.symbols, f, g)
        assert f != 1 and g != 1


# -- substitution of a Laurent monomial: exponent remapping, no gcd ----------

_MONOMIALS = {"w/z": w / z, "z*w": z * w, "w": w, "1/z": z.inv(), "z^2": z ** 2,
              "z^3": z ** 3, "q*z": q * z}
_laurent_term = st.tuples(st.integers(-3, 3).filter(bool), st.integers(0, 1),
                          st.integers(0, 1), st.integers(-1, 2), st.integers(0, 2))
_laurent = st.lists(_laurent_term, min_size=1, max_size=3)


def _from_terms(terms, with_w):
    """Sum of c * p^i * a^j * z^k, times w^l too when ``with_w``."""
    a = const("a")
    return sum((Rat(c) * p ** i * a ** j * z ** k * (w ** l if with_w else one)
                for c, i, j, k, l in terms), zero)


def _general_substitute(x, name, value):
    """``x`` at ``name = value`` by the general path: clear the value's
    denominator to a common power, then reduce with the field's gcd."""
    f, v, i = scalars._frac(x), scalars._frac(value), scalars._index[name]
    d = {i: max(e[i] for poly in (f.numer, f.denom) for e in poly.itermonoms())}
    return scalars._field.new(scalars._cleared(f.numer, {i: v}, d),
                              scalars._cleared(f.denom, {i: v}, d))


@given(terms=st.tuples(_laurent, _laurent, st.booleans(), st.booleans()),
       simple=st.one_of(st.none(), st.just(zero), rational_strategy()),
       image=st.sampled_from(sorted(_MONOMIALS)))
# z - w at z = w is 0; remapping exponents would merge z and w into one term
@example(terms=([(1, 0, 0, 1, 0), (-1, 0, 0, 0, 1)], [(1, 0, 0, 0, 0)], True,
                False), simple=None, image="w")
@settings(max_examples=150, deadline=None)
def test_monomial_substitution_matches_general_path(terms, simple, image):
    """Sending z to a Laurent monomial gives exactly the numerator and
    denominator of the general path, on values in Q(p, a, z), on values that
    also depend on w, on zero and on constants. The remapping is taken
    exactly when the value does not depend on the image's other generators."""
    if simple is None:
        num, den, wn, wd = terms
        try:
            x = _from_terms(num, wn) / _from_terms(den, wd)
        except DivisionByZero:
            assume(False)
    else:
        x = simple
    m = _MONOMIALS[image]
    ref = _general_substitute(x, "z", m)
    mine = x.substitute({"z": m})
    assert (mine.f.numer, mine.f.denom) == (ref.numer, ref.denom)
    taken = scalars._monomial_map(scalars._frac(x), scalars._index["z"],
                                  scalars._frac(m)) is not None
    assert taken == (not x.names() & (m.names() - {"z"}))


@pytest.mark.parametrize("image", ["1", "2*z", "-z", "z + 1", "w/z"])
def test_non_monomial_images_fall_through(image):
    # z -> 1 is an evaluation (not injective on exponents), 2*z and -z have
    # a coefficient other than 1, z + 1 is no monomial, and w/z meets a value
    # that depends on w; each stays on the general path and agrees with it
    x = (z * w - q) / (z ** 2 + w)
    m = parse(image)
    assert scalars._monomial_map(scalars._frac(x), scalars._index["z"],
                                 scalars._frac(m)) is None
    ref = _general_substitute(x, "z", m)
    mine = x.substitute({"z": m})
    assert (mine.f.numer, mine.f.denom) == (ref.numer, ref.denom)
