"""Exact sparse polynomials over Q in the four structure parameters.

Every quantity in the engine lives in the ring Q[a, b, g, d] where the
ASCII names a, b, g, d stand for the parameters alpha, beta, gamma,
delta.  A polynomial keeps its value in integer form: a map from
exponent tuples to nonzero ``int`` numerators and one positive ``int``
denominator, canonical at all times (the gcd of the denominator and all
numerators is 1), so equality is a plain comparison and "is zero" is
"map empty".  No floating point appears anywhere.  The ring operations
do integer arithmetic only: a sum or difference brings both numerator
maps to the lcm of the denominators, copies the left one and inserts
each term of the right one as it is (negated for a difference).  Every
product is a call of ``_sum_of_products``, the one loop that multiplies
numerator maps: a sum of products s*p*q (the index formulas of
curvature and covariant derivatives) inserts each s*n1*n2 into one map
over the lcm of the products' denominators, p*q is the sum of the one
triple (p, q, 1), and a substitution is the sum over the terms of each
one's unassigned monomial times the value of its assigned factors.
Numerators are added only where two terms meet, a sum that cancels is
deleted, and one ``gcd`` brings each result to canonical form, where a
fold of binary operations takes one per step.  p + 0, 0 + p and p - 0
return p itself, with no copy.  The integer form is the only stored
form: parsing builds it through the ring operations, rendering and
hashing read it, and ``terms``, the read-only ``{exponent tuple:
Fraction}`` view for callers, is built anew on each read.  Evaluation
is exact integer arithmetic: one pass over the numerators computes the
polynomial's integer form, its value with every denominator cleared,
from the point's numerators and denominators.  A zero test
(``vanishes_at``) is that integer compared with 0 and builds no
``Fraction``; ``eval_at`` divides it by the cleared denominator, for
the values a report shows.  The same integer forms, as source text,
write the condition kernels (``_condition_kernel``): one compiled
boolean function of the point's integers per question "these vanish,
those do not", so a side-condition set or a family tests a point in
one call of the sampling loops.  A term's text joins factor texts
n_i^e*d_i^(top-e), each written once per (variable, exponent, top
exponent) when first needed (``_factor_text``), and a kernel writes a
repeated condition once.  Polynomials are evaluated at a
:class:`Point`, which stores its coordinates as integer pairs only;
``eval_at`` builds one from any other mapping.  Points and
substitutions read variable names and aliases in one place
(``_read_names``).

Printed output orders terms graded-lexicographically (total degree
first, then exponent tuple), descending, so rendering is deterministic;
each coefficient is its numerator over the denominator, reduced by one
``gcd``.  The human text form (``-(a^2+b^2)``) round-trips through
:func:`parse`, which reads all formula text in one operator-precedence
pass over the characters; other words than the variables come from the
name table it is given (liealg.sign_names, classify.table_names).
``Polynomial.to_json`` writes a term list for JSON output.
"""

from __future__ import annotations

from collections.abc import Mapping
from fractions import Fraction
from functools import cache, lru_cache, reduce
from math import gcd, lcm
from operator import ge, mul, sub
from types import MappingProxyType
from typing import Union

VARS = ("a", "b", "g", "d")
GREEK = {"a": "α", "b": "β", "g": "γ", "d": "δ"}
_GREEK_NAMES = tuple(GREEK[v] for v in VARS)
_VAR_INDEX = {v: i for i, v in enumerate(VARS)}
# Spelled-out and Greek aliases accepted on input.
_VAR_ALIASES = {
    "alpha": "a", "beta": "b", "gamma": "g", "delta": "d",
    "α": "a", "β": "b", "γ": "g", "δ": "d",
}

# every accepted spelling of a variable -> its index in VARS
_NAME_INDEX = {**_VAR_INDEX, **{k: _VAR_INDEX[v] for k, v in _VAR_ALIASES.items()}}

Rational = Union[int, Fraction]
_FRACTION_ZERO = Fraction(0)


class PolyError(ValueError):
    pass


def _read_names(values: Mapping[str, object], convert) -> dict:
    """{index in VARS: convert(value)} for a mapping keyed by variable
    names and aliases; PolyError for an unknown name or a variable given
    twice, under two spellings."""
    out = {}
    for name, v in values.items():
        i = _NAME_INDEX.get(name)
        if i is None:
            raise PolyError(f"unknown variable {name!r}")
        if i in out:
            given = [n for n in values if _NAME_INDEX.get(n) == i]
            raise PolyError(f"variable {VARS[i]!r} is given twice: {given}")
        out[i] = convert(v)
    return out


def quoted(text: str) -> str:
    """repr(text) for an error message, cut after 60 characters by "..."."""
    r = repr(text)
    return r if len(r) <= 60 else r[:60] + "..."


def _as_fraction(c: Rational) -> Fraction:
    if isinstance(c, Fraction):
        return c
    # a bool is an int to isinstance, but True is no exact rational here
    if isinstance(c, int) and type(c) is not bool:
        return Fraction(c)
    raise PolyError(f"not an exact rational: {c!r}")


class Point(Mapping):
    """An exact point of Q^4: a read-only mapping from VARS to Fraction.

    Construction resolves aliases and checks every coordinate once: each
    variable given exactly once, under its name or an alias, as an int or
    Fraction.  The point keeps its coordinates as the integers n0, d0,
    ..., n3, d3 of their lowest-terms ratios n_i/d_i (d_i > 0), in VARS
    order: what evaluation and the condition kernels read, and its only
    stored form.  Reading a coordinate builds its Fraction, so a sampled point
    that no report shows builds none."""

    __slots__ = ("_ints",)

    def __init__(self, values: Mapping[str, Rational]):
        coords = _read_names(values, _ratio)
        missing = [v for i, v in enumerate(VARS) if i not in coords]
        if missing:
            raise PolyError(f"point misses variables {missing}")
        object.__setattr__(self, "_ints", sum(map(coords.get, range(len(VARS))), ()))

    @staticmethod
    def _of_ints(ints: tuple) -> "Point":
        """The point with coordinates n/m for the (n, m) pairs that ints
        lists one after another, in VARS order, unchecked: for pairs the
        program made itself, each in lowest terms with m > 0, as
        Fraction.as_integer_ratio gives them."""
        point = object.__new__(Point)
        object.__setattr__(point, "_ints", ints)
        return point

    @staticmethod
    def of(point: Mapping[str, Rational]) -> "Point":
        """point itself when it is a Point, else the Point it spells."""
        # type(), not isinstance(), which is slow on an ABC subclass
        return point if type(point) is Point else Point(point)

    def __setattr__(self, *_):
        raise AttributeError("Point is immutable")
    __delattr__ = __setattr__

    def __getitem__(self, name: str) -> Fraction:
        i = 2 * _VAR_INDEX[name]
        return Fraction(self._ints[i], self._ints[i + 1])

    def __iter__(self):
        return iter(VARS)

    def __len__(self) -> int:
        return len(VARS)

    def __repr__(self):
        return f"Point({dict(self)!r})"

    def text(self) -> str:
        """The coordinates as "a = ..., b = ..., d = ..., g = ...", sorted by name."""
        return ", ".join(f"{v} = {self[v]}" for v in sorted(VARS))

    def __reduce__(self):
        # copy and pickle rebuild through __init__; __setattr__ refuses
        # their default slot writes
        return Point, (dict(self),)


@cache
def _factor_text(i: int, e: int, top: int) -> str:
    """The text of n_i^e * d_i^(top - e) in a kernel, for 0 <= e <= top
    and top > 0, so never empty, written once per (i, e, top) when a
    kernel first needs it: a power is its base repeated up to four times,
    which CPython multiplies faster than it raises small ints to a power,
    and base**k above that."""
    factors = []
    for name, k in ((f"n{i}", e), (f"d{i}", top - e)):
        factors += [name] * k if k <= 4 else [f"{name}**{k}"]
    return "*".join(factors)


@lru_cache(maxsize=1024)
def _make_kernel(expression: str):
    """The function k(n0, d0, ..., n3, d3) returning expression, which
    _condition_kernel writes from integer literals and those eight names:
    comparisons of polynomials' integer forms with 0, joined by and.  The
    function runs with no globals and no builtins.  Equal expressions
    built apart (an audit builds each family's conditions per branch)
    share one function."""
    namespace = {}
    exec(f"def k(n0, d0, n1, d1, n2, d2, n3, d3):\n    return {expression}\n",
         {"__builtins__": {}}, namespace)
    return namespace["k"]


def _condition_kernel(conditions):
    """The kernel k(n0, d0, ..., n3, d3) -> bool of "the point meets
    conditions", which has the polynomial tuples equalities and
    inequations (a liealg.ConstraintSet): every equality vanishes and no
    inequation does.  Each condition tests a polynomial's integer form
    for 0 ("not (form)" for an equality, "form != 0" for an inequation),
    which decides it exactly (see Polynomial._integer_form); the
    conditions run in their given order and stop at the first that
    fails, and a repeated test is written once, where it first occurs.
    A zero equality is left out, so a set without conditions is met
    everywhere."""
    tests = [f"not ({p._integer_form()})" for p in conditions.equalities if p]
    tests += [f"{q._integer_form()} != 0" for q in conditions.inequations]
    return _make_kernel(" and ".join(dict.fromkeys(tests)) or "True")


def _term_key(exps):
    # graded lex, built so that sorting descending puts higher total
    # degree first and breaks ties on the exponent tuple
    return (sum(exps), exps)


class Polynomial:
    """Immutable multivariate polynomial over Q in the fixed variables,
    kept as integer numerators over one positive denominator."""

    # _nums and _den hold the value (see the module docstring), and
    # nothing else is kept
    __slots__ = ("_nums", "_den")

    def __init__(self, terms: Mapping[tuple, Rational] | None = None):
        clean = {}
        if terms:
            for exps, coeff in terms.items():
                exps = tuple(exps)
                if len(exps) != len(VARS) or not all(
                        type(e) is not bool and isinstance(e, int) and e >= 0 for e in exps):
                    raise PolyError(f"bad exponent tuple {exps!r}")
                c = _as_fraction(coeff)
                clean[exps] = clean[exps] + c if exps in clean else c
            clean = {e: c for e, c in clean.items() if c}
        # the lcm of lowest-terms denominators shares no factor with all
        # the numerators it gives, so the form is canonical as built
        den = lcm(*(c.denominator for c in clean.values()))
        object.__setattr__(self, "_nums", {e: c.numerator * (den // c.denominator)
                                           for e, c in clean.items()})
        object.__setattr__(self, "_den", den)

    def __setattr__(self, *_):
        raise AttributeError("Polynomial is immutable")
    __delattr__ = __setattr__

    def __reduce__(self):
        # copy and pickle rebuild from the integer form; __setattr__
        # refuses their slot writes
        return _raw, (self._nums, self._den)

    @property
    def terms(self) -> Mapping[tuple, Fraction]:
        """The read-only map from exponent tuples to nonzero Fraction
        coefficients, built from the integer form on each read."""
        den = self._den
        return MappingProxyType({e: Fraction(n, den) for e, n in self._nums.items()})

    # -- constructors -------------------------------------------------

    @staticmethod
    def zero() -> "Polynomial":
        return ZERO

    @staticmethod
    def const(c: Rational) -> "Polynomial":
        n, d = _ratio(c)
        return _raw({_CONST: n}, d) if n else ZERO

    @staticmethod
    def var(name: str) -> "Polynomial":
        i = _NAME_INDEX.get(name)
        if i is None:
            raise PolyError(f"unknown variable {name!r}; expected one of {VARS}")
        return _VARIABLES[i]

    # -- ring operations ----------------------------------------------

    def __add__(self, other) -> "Polynomial":
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        if not other._nums:
            return self
        if not self._nums:
            return other
        return self._merge(other, 1)

    __radd__ = __add__

    def __neg__(self) -> "Polynomial":
        if not self._nums:
            return self
        return _raw({e: -n for e, n in self._nums.items()}, self._den)

    def __sub__(self, other) -> "Polynomial":
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        if not other._nums:
            return self
        return self._merge(other, -1)

    def __rsub__(self, other) -> "Polynomial":
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return other - self

    def _merge(self, other: "Polynomial", sign: int) -> "Polynomial":
        """self + sign*other, sign 1 or -1, for a nonzero other: both
        numerator maps brought to the lcm of the denominators, the left
        one copied and each right term inserted as it is, or added where
        the two meet (a sum that cancels is deleted)."""
        den, right_den = self._den, other._den
        if den == right_den:
            merged = dict(self._nums)
            factor = sign
        else:
            g = gcd(den, right_den)
            left_factor = right_den // g
            merged = {e: n * left_factor for e, n in self._nums.items()}
            factor = sign * (den // g)
            den *= left_factor
        for exps, n in other._nums.items():
            n *= factor
            if exps in merged:
                s = merged[exps] + n
                if s:
                    merged[exps] = s
                else:
                    del merged[exps]
            else:
                merged[exps] = n
        return _normal(merged, den)

    def __mul__(self, other) -> "Polynomial":
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return _sum_of_products(((self, other, 1),))

    __rmul__ = __mul__

    def __pow__(self, n: int) -> "Polynomial":
        if not isinstance(n, int) or type(n) is bool or n < 0:
            raise PolyError(f"exponent must be a non-negative integer, got {n!r}")
        if not n:
            return ONE
        out = self
        for _ in range(n - 1):
            out = out * self
        return out

    def scale(self, c: Rational) -> "Polynomial":
        n, d = _ratio(c)
        if not n:
            return ZERO
        return _normal({e: m * n for e, m in self._nums.items()}, self._den * d)

    # -- queries -------------------------------------------------------

    def is_zero(self) -> bool:
        return not self._nums

    def is_constant(self) -> bool:
        return all(e == _CONST for e in self._nums)

    def constant_value(self) -> Fraction:
        if not self.is_constant():
            raise PolyError(f"not a constant: {self}")
        return Fraction(self._nums.get(_CONST, 0), self._den)

    def degree(self) -> int:
        """Total degree; -1 for the zero polynomial."""
        if not self._nums:
            return -1
        return max(sum(e) for e in self._nums)

    def variables(self) -> set:
        used = set()
        for exps in self._nums:
            for v, e in zip(VARS, exps):
                if e:
                    used.add(v)
        return used

    def _lead(self) -> tuple:
        # exponents of the graded-lex leading term of a nonzero polynomial
        return max(self._nums, key=_term_key)

    def monic(self) -> "Polynomial":
        """Divide by the leading coefficient (zero stays zero)."""
        if not self._nums:
            return self
        return self.scale(Fraction(self._den, self._nums[self._lead()]))

    def remainder(self, *divisors: "Polynomial") -> "Polynomial":
        """self reduced by each divisor in turn, in the given order: minus
        a multiple of the divisor, with no term a multiple of its graded-lex
        leading term.  A zero divisor, or none at all, leaves the
        polynomial.  Each step cancels the largest such term and brings in
        smaller ones, and the order is a well-order, so each loop ends."""
        p = self
        for divisor in divisors:
            if not divisor._nums:
                continue
            lead = divisor._lead()
            # the lead coefficient of the divisor is lead_num / lead_den
            lead_num, lead_den = divisor._nums[lead], divisor._den
            while True:
                hits = [e for e in p._nums if all(map(ge, e, lead))]
                if not hits:
                    break
                top = max(hits, key=_term_key)
                c = Fraction(p._nums[top] * lead_den, p._den * lead_num)
                quotient = _raw({tuple(map(sub, top, lead)): c.numerator}, c.denominator)
                p = p - quotient * divisor
        return p

    def __eq__(self, other) -> bool:
        if type(other) is bool:
            # no rational (see _as_fraction), so equal to no polynomial
            return NotImplemented
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self._den == other._den and self._nums == other._nums

    def __hash__(self):
        # a constant, 0 included, equals its value (see __eq__), so it hashes
        # as that value: 3 in {Polynomial.const(3)} depends on it; no engine
        # store is keyed by polynomials, only callers' sets and dicts are
        if self.is_constant():
            return hash(self.constant_value())
        return hash((self._den, frozenset(self._nums.items())))

    def __bool__(self):
        return bool(self._nums)

    # -- substitution and evaluation ------------------------------------

    def substitute(self, assignment: Mapping[str, "Polynomial | Rational"]) -> "Polynomial":
        """Simultaneous substitution of variables, each named once under its
        name or an alias; unassigned ones pass through.  One
        _sum_of_products triple per term: its unassigned monomial over
        _den, the value of its assigned factors (built once per tuple of
        assigned exponents) and its numerator."""
        subs = _read_names(
            assignment, lambda v: v if isinstance(v, Polynomial) else Polynomial.const(v))
        values, terms = {}, []
        for exps, n in self._nums.items():
            key = tuple([exps[i] for i in subs])
            if key not in values:
                powers = [subs[i] ** e for i, e in zip(subs, key) if e]
                values[key] = reduce(mul, powers) if powers else ONE
            rest = tuple([0 if i in subs else e for i, e in enumerate(exps)])
            terms.append((_raw({rest: 1}, self._den), values[key], n))
        return _sum_of_products(terms)

    def eval_at(self, point: Mapping[str, Rational]) -> Fraction:
        """Exact value at a Point, or at any mapping Point accepts: the
        integer value over its cleared denominator (see _integer_value),
        so the value is the only Fraction built."""
        total, den = self._integer_value(Point.of(point)._ints)
        return Fraction(total, den) if total else _FRACTION_ZERO

    def vanishes_at(self, point: Mapping[str, Rational]) -> bool:
        """Whether the value at point is 0, decided on the integer value
        alone: no Fraction is built."""
        return not self._integer_value(Point.of(point)._ints)[0]

    def _integer_value(self, ints: tuple) -> tuple:
        """(total, den) with total/den the value at the point whose
        integers are ints (n0, d0, ..., n3, d3): total is the integer form
        (see _integer_form) computed in one pass over _nums, the sum of
        n * prod n_i^e_i * d_i^(top_i - e_i), and den is _den times the
        product of the d_i^top_i."""
        nums = self._nums
        if not nums:
            return 0, self._den
        n0, d0, n1, d1, n2, d2, n3, d3 = ints
        t0, t1, t2, t3 = map(max, zip(*nums))
        total = 0
        for (e0, e1, e2, e3), n in nums.items():
            total += (n * n0 ** e0 * d0 ** (t0 - e0) * n1 ** e1 * d1 ** (t1 - e1)
                      * n2 ** e2 * d2 ** (t2 - e2) * n3 ** e3 * d3 ** (t3 - e3))
        return total, self._den * d0 ** t0 * d1 ** t1 * d2 ** t2 * d3 ** t3

    def _integer_form(self) -> str:
        """The value times _den times the product of the d_i^top_i, for
        top_i the highest exponent of variable i, as one integer sum of
        products of the stored numerators in the point's n0, d0, ..., n3,
        d3: scaled by d_i^top_i, the power (n_i/d_i)^e becomes
        n_i^e * d_i^(top_i - e).  That factor is a nonzero integer, so
        the form is 0 exactly where the value is (the source text of the
        sum _integer_value computes)."""
        nums = self._nums
        tops = tuple((i, top) for i, top in enumerate(map(max, zip(*nums))) if top)
        products = []
        for exps, n in nums.items():
            factors = [] if n == 1 else [str(n)]
            factors += [_factor_text(i, exps[i], top) for i, top in tops]
            products.append("*".join(factors) or "1")
        return " + ".join(products) or "0"

    # -- rendering -------------------------------------------------------

    def text(self, greek: bool = False) -> str:
        nums = self._nums
        if not nums:
            return "0"
        names = _GREEK_NAMES if greek else VARS
        order = sorted(nums, key=_term_key, reverse=True)
        # the -(...) form when every coefficient is negative
        sign = -1 if len(order) > 1 and all(n < 0 for n in nums.values()) else 1
        parts = []
        for exps in order:
            n = sign * nums[exps]
            if parts and n > 0:
                parts.append("+")
            factors = [name if e == 1 else f"{name}^{e}" for name, e in zip(names, exps) if e]
            coeff = _coeff_text(n, self._den)
            if not factors:
                parts.append(coeff)
            elif coeff in ("1", "-1"):
                # a unit coefficient shows as its sign alone
                parts.append(coeff[:-1] + "*".join(factors))
            else:
                parts.append(coeff + "*" + "*".join(factors))
        return "".join(parts) if sign == 1 else "-(" + "".join(parts) + ")"

    def __str__(self):
        return self.text()

    def __repr__(self):
        return f"Polynomial({self.text()})"

    def to_json(self) -> list:
        return [{"coeff": _coeff_text(self._nums[exps], self._den),
                 "exps": {v: e for v, e in zip(VARS, exps) if e}}
                for exps in sorted(self._nums, key=_term_key, reverse=True)]


def _coeff_text(n: int, den: int) -> str:
    """n/den in lowest terms as "n" or "n/d", as str of a Fraction."""
    g = gcd(n, den)
    return str(n // g) if g == den else f"{n // g}/{den // g}"


def _raw(nums: dict, den: int) -> Polynomial:
    """The polynomial with numerators nums over den, unchecked: for
    integer forms the program made canonical itself."""
    p = object.__new__(Polynomial)
    object.__setattr__(p, "_nums", nums)
    object.__setattr__(p, "_den", den)
    return p


def _normal(nums: dict, den: int) -> Polynomial:
    """The polynomial with nonzero int numerators nums over den > 0,
    brought to canonical form by one gcd: ZERO when nums is empty."""
    if not nums:
        return ZERO
    if den != 1:
        g = gcd(den, *nums.values())
        if g != 1:
            nums = {e: n // g for e, n in nums.items()}
            den //= g
    return _raw(nums, den)


def _sum_of_products(terms) -> Polynomial:
    """sum of s*p*q over the (p, q, s) triples terms, p and q polynomials
    and s an int, in one numerator map: each product of two nonzero
    factors is inserted term by term over the running lcm of the
    products' denominators (the map is rescaled when it grows); a triple
    with a zero factor or s = 0 is skipped, and one gcd brings the sum to
    canonical form.  p * q is the call with the one triple (p, q, 1)."""
    acc: dict = {}
    den = 1
    for p, q, s in terms:
        left, right = p._nums, q._nums
        if not left or not right or not s:
            continue
        d = p._den * q._den
        if d != den:
            g = gcd(den, d)
            if d != g:
                grow = d // g
                acc = {e: n * grow for e, n in acc.items()}
                den *= grow
            s *= den // d
        right = right.items()
        for (x0, x1, x2, x3), n1 in left.items():
            n1 *= s
            for (y0, y1, y2, y3), n2 in right:
                exps = (x0 + y0, x1 + y1, x2 + y2, x3 + y3)
                if exps in acc:
                    t = acc[exps] + n1 * n2
                    if t:
                        acc[exps] = t
                    else:
                        del acc[exps]
                else:
                    acc[exps] = n1 * n2
    return _normal(acc, den)


def _ratio(c: Rational) -> tuple:
    """(n, d) with c = n/d in lowest terms and d > 0, for an exact rational c."""
    return (c, 1) if type(c) is int else _as_fraction(c).as_integer_ratio()


def _coerce(x) -> "Polynomial":
    # type() first: nearly every operand is a Polynomial already
    if type(x) is Polynomial or isinstance(x, Polynomial):
        return x
    if isinstance(x, (int, Fraction)):
        return Polynomial.const(x)
    return NotImplemented


_CONST = (0, 0, 0, 0)
ZERO = _raw({}, 1)
ONE = _raw({_CONST: 1}, 1)
# the four variables, shared by every Polynomial.var call
_VARIABLES = A, B, G, D = tuple(_raw({tuple(int(j == i) for j in range(len(VARS))): 1}, 1)
                                for i in range(len(VARS)))


# -- parsing ---------------------------------------------------------------


class PolyParseError(PolyError):
    pass


# Largest degree of any power or product that parse computes, so also
# the largest exponent; the transcribed tables need at most 3.  Checked
# before each operation, it bounds the work per operator in the text.
MAX_DEGREE = 12
# Longest number parse reads, far below CPython's 4,300-digit int() limit.
MAX_DIGITS = 100
# Deepest nesting of parentheses and unary signs together that parse
# reads; the transcribed tables reach 2.
MAX_NESTING = 50
# only the ASCII digits make numbers: int() would reject "²" with a bare ValueError
_DIGITS = "0123456789"

# what parse reads next: an operand; "^" after an atom (a number, a name
# or a parenthesized group); the exponent after "^"; an operator
_OPERAND, _ATOM, _EXPONENT, _FACTOR = range(4)
# the operators that one of + - (or the end, or ")") and one of * / apply
# first: unary signs bind tighter than both, and all four group to the left
_BINARY, _PRODUCTS = ("u-", "u+", "+", "-", "*", "/"), ("u-", "u+", "*", "/")


def _word(text: str, i: int, names) -> tuple:
    """(end, (value, degree)) of the word that starts at text[i]: a
    variable or alias, else an entry of names, else an unknown name."""
    j, n = i + 1, len(text)
    # digits after a letter belong to the word: "a2" is a name, not 2*a
    while j < n and (text[j].isalpha() or text[j] in _DIGITS):
        j += 1
    word = text[i:j]
    k = _NAME_INDEX.get(word)
    if k is not None:
        return j, (_VARIABLES[k], 1)
    if names and word in names:
        value = names[word]
        return j, (value, value.degree())
    raise PolyParseError(f"unknown name {quoted(word)} in {quoted(text)}")


def _number(text: str, i: int) -> tuple:
    """(end, value) of the run of ASCII digits that starts at text[i]."""
    j, n = i + 1, len(text)
    while j < n and text[j] in _DIGITS:
        j += 1
    if j - i > MAX_DIGITS:
        raise PolyParseError(f"a number of {j - i} digits; at most {MAX_DIGITS}")
    return j, int(text[i:j])


def _reduce(operands: list, ops: list, operators: tuple, text: str) -> None:
    """Apply the operators on top of ops while they are in operators: a
    unary sign to the top (polynomial, degree) operand, a binary
    operator to the top two."""
    while ops and ops[-1] in operators:
        op = ops.pop()
        if op[0] == "u":
            if op == "u-":
                value, degree = operands[-1]
                operands[-1] = -value, degree
            continue
        right, dr = operands.pop()
        left, dl = operands[-1]
        if op == "*":
            if dl + dr > MAX_DEGREE:
                raise PolyParseError(f"degree above {MAX_DEGREE} in {quoted(text)}")
            operands[-1] = left * right, (dl + dr if dl >= 0 and dr >= 0 else -1)
        elif op == "/":
            if dr:  # degree 0 is a nonzero constant
                raise PolyParseError(f"division only by nonzero constants in {quoted(text)}")
            # times the reciprocal den/num of the constant, in integer form
            num = right._nums[_CONST]
            operands[-1] = left * _raw({_CONST: right._den if num > 0 else -right._den},
                                       abs(num)), dl
        else:
            value = left + right if op == "+" else left - right
            # a sum of equal degrees may cancel its top terms
            operands[-1] = value, (max(dl, dr) if dl != dr
                                   else max(map(sum, value._nums), default=-1))


def parse(text: str, names: Mapping[str, Polynomial] | None = None) -> Polynomial:
    """Parse the human text form (also accepts alpha/beta/gamma/delta and Greek).

    names maps further words to their values, e.g. the G4 sign h
    (liealg.sign_names); a variable name cannot be redefined.

    One operator-precedence loop reads the characters once: operands,
    (polynomial, degree) pairs, wait on one stack and operators on
    another: "(", unary signs and + - * /, with a product where an
    operand follows an operand or ")".  ^ takes a number and applies at
    once, so a sign applies to the atom after it and that atom's power."""
    operands, ops = [], []
    state = _OPERAND
    i, n = 0, len(text)
    while i < n:
        ch = text[i]
        if state == _OPERAND:
            if ch in _DIGITS:
                i, k = _number(text, i)
                operands.append((_raw({_CONST: k}, 1), 0) if k else (ZERO, -1))
                state = _ATOM
                continue
            if ch.isalpha():
                i, operand = _word(text, i, names)
                operands.append(operand)
                state = _ATOM
                continue
            if ch in "(+-":
                # the nesting is the number of open "(" and waiting signs
                if ops.count("(") + ops.count("u-") + ops.count("u+") >= MAX_NESTING:
                    raise PolyParseError(f"nesting deeper than {MAX_NESTING} in {quoted(text)}")
                ops.append(ch if ch == "(" else "u" + ch)
                i += 1
                continue
            if ch in ")*/^":
                raise PolyParseError(f"unexpected {quoted(ch)} in {quoted(text)}")
        elif state == _EXPONENT:
            if ch in _DIGITS:
                i, k = _number(text, i)
                base, d = operands[-1]
                if k > MAX_DEGREE or d * k > MAX_DEGREE:
                    raise PolyParseError(f"degree above {MAX_DEGREE} in {quoted(text)}")
                operands[-1] = base ** k, (d * k if d >= 0 else -1) if k else 0
                state = _FACTOR
                continue
            if ch == "-":
                raise PolyParseError(f"negative exponent in {quoted(text)}")
            if ch in "+*/^()" or ch.isalpha():
                got = text[i:_word(text, i, names)[0]] if ch.isalpha() else ch
                raise PolyParseError(f"expected a number, got {quoted(got)} in {quoted(text)}")
        elif ch == "^" and state == _ATOM:
            state = _EXPONENT
            i += 1
            continue
        # a factor is complete: an operator, or a product before an operand
        elif ch in "+-*/":
            if ops and ops[-1] in _BINARY:
                _reduce(operands, ops, _BINARY if ch in "+-" else _PRODUCTS, text)
            ops.append(ch)
            state = _OPERAND
            i += 1
            continue
        elif ch in _DIGITS or ch.isalpha() or ch == "(":
            if ops and ops[-1] in _PRODUCTS:
                _reduce(operands, ops, _PRODUCTS, text)
            ops.append("*")
            state = _OPERAND
            continue
        elif ch in ")^":
            _reduce(operands, ops, _BINARY, text)
            if not ops:
                raise PolyParseError(f"trailing input in {quoted(text)}")
            if ch == "^":
                raise PolyParseError(f"expected ')', got '^' in {quoted(text)}")
            ops.pop()
            state = _ATOM
            i += 1
            continue
        if not ch.isspace():
            raise PolyParseError(f"unexpected character {ch!r} in {quoted(text)}")
        i += 1
    if state == _OPERAND:
        if not ops:
            raise PolyParseError("empty polynomial text")
        raise PolyParseError(f"expected a number, a name or '(' before the end of {quoted(text)}")
    if state == _EXPONENT:
        raise PolyParseError(f"expected a number before the end of {quoted(text)}")
    _reduce(operands, ops, _BINARY, text)
    if ops:
        raise PolyParseError(f"expected ')' before the end of {quoted(text)}")
    return operands[0][0]
