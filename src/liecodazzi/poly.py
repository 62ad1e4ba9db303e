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
each term of the right one as it is (negated for a difference), and a
product inserts n1*n2 for each new exponent tuple over the product of
the denominators; numerators are added only where two terms meet, a sum
that cancels is deleted, and each result is brought to canonical form
by one ``gcd`` of its denominator and numerators.  p + 0, 0 + p and
p - 0 return p itself, with no copy.  ``terms`` is the read-only
``{exponent tuple: Fraction}`` view, built on its first read, for
rendering, hashing and callers.  Evaluation is exact integer
arithmetic: on its first evaluation a polynomial compiles its integer
form into one straight-line function of the point's numerators and
denominators (its kernel), built from integer literals, ``+``, ``-``,
``*`` and ``**`` alone.  A zero test (``vanishes_at``) is the kernel's
value compared with 0 and builds no ``Fraction``; ``eval_at`` divides
the same value by the denominator, for the values a report shows.  The
same integer forms write the condition kernels (``_condition_kernel``):
one boolean function of the point's integers per question "these
vanish, those do not", so a side-condition set or a family tests a
point in one call.  Polynomials are evaluated at a :class:`Point`,
which keeps its coordinates as integer pairs; ``eval_at`` builds one
from any other mapping.

Printed output orders terms graded-lexicographically (total degree
first, then exponent tuple), descending, so rendering is deterministic.
The human text form (``-(a^2+b^2)``) round-trips through :func:`parse`;
``Polynomial.to_json`` writes a term list for JSON output.  parse reads
all formula text; other words than the variables come from the name
table it is given (liealg.sign_names, classify.table_names).
"""

from __future__ import annotations

from collections.abc import Mapping
from fractions import Fraction
from functools import lru_cache
from math import gcd, lcm
from operator import ge, sub
from types import MappingProxyType
from typing import Union

VARS = ("a", "b", "g", "d")
GREEK = {"a": "α", "b": "β", "g": "γ", "d": "δ"}
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


def _given_twice(names: Mapping[str, object], i: int) -> PolyError:
    """The error for a mapping that names variable i under two spellings."""
    given = [n for n in names if _NAME_INDEX.get(n) == i]
    return PolyError(f"variable {VARS[i]!r} is given twice: {given}")


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
    order: the arguments of a polynomial's kernel.  The Fraction
    coordinates are built on the first read, so a sampled point that no
    report shows never builds them."""

    __slots__ = ("_ints", "_values")

    def __init__(self, values: Mapping[str, Rational]):
        coords = [None] * len(VARS)
        for name, v in values.items():
            i = _NAME_INDEX.get(name)
            if i is None:
                raise PolyError(f"unknown variable {name!r}")
            if coords[i] is not None:
                raise _given_twice(values, i)
            coords[i] = v if type(v) is Fraction else _as_fraction(v)
        # "is None", not "None in coords", which calls Fraction.__eq__
        missing = [v for v, c in zip(VARS, coords) if c is None]
        if missing:
            raise PolyError(f"point misses variables {missing}")
        ints = ()
        for c in coords:
            ints += c.as_integer_ratio()
        object.__setattr__(self, "_ints", ints)
        object.__setattr__(self, "_values", tuple(coords))

    @staticmethod
    def _of_ints(ints: tuple) -> "Point":
        """The point with coordinates n/m for the (n, m) pairs that ints
        lists one after another, in VARS order, unchecked: for pairs the
        program made itself, each in lowest terms with m > 0, as
        Fraction.as_integer_ratio gives them."""
        point = object.__new__(Point)
        object.__setattr__(point, "_ints", ints)
        return point

    @property
    def _pairs(self) -> tuple:
        """The coordinates as (numerator, denominator) pairs, in VARS order."""
        ints = self._ints
        return tuple(zip(ints[0::2], ints[1::2]))

    @staticmethod
    def of(point: Mapping[str, Rational]) -> "Point":
        """point itself when it is a Point, else the Point it spells."""
        # type(), not isinstance(), which is slow on an ABC subclass
        return point if type(point) is Point else Point(point)

    def __setattr__(self, *_):
        raise AttributeError("Point is immutable")

    def __getitem__(self, name: str) -> Fraction:
        try:
            values = self._values
        except AttributeError:
            values = tuple(Fraction(n, d) for n, d in self._pairs)
            object.__setattr__(self, "_values", values)
        return values[_VAR_INDEX[name]]

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


def _power(name: str, e: int) -> list:
    """The factors of name^e in a kernel: name repeated up to four times,
    which CPython multiplies faster than it raises small ints to a power."""
    return [name] * e if e <= 4 else [f"{name}**{e}"]


@lru_cache(maxsize=1024)
def _make_kernel(expression: str):
    """The function k(n0, d0, ..., n3, d3) returning expression.  Two
    callers write the expression from integer literals and those eight
    names: Polynomial._compile a sum of products (a polynomial's integer
    form), _condition_kernel comparisons of such sums with 0 joined by
    and.  The function runs with no globals and no builtins.  Equal
    expressions built apart (an audit builds each family's conditions per
    branch) share one function."""
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
    fails.  A zero equality is left out, so a set without conditions is
    met everywhere."""
    tests = [f"not ({p._integer_form()[0]})" for p in conditions.equalities if p]
    tests += [f"{q._integer_form()[0]} != 0" for q in conditions.inequations]
    return _make_kernel(" and ".join(tests) or "True")


def _term_key(exps):
    # graded lex, built so that sorting descending puts higher total
    # degree first and breaks ties on the exponent tuple
    return (sum(exps), exps)


class Polynomial:
    """Immutable multivariate polynomial over Q in the fixed variables,
    kept as integer numerators over one positive denominator."""

    # _nums and _den hold the value (see the module docstring); _terms
    # holds the Fraction view once read (see terms); _kernel and _tops
    # hold the compiled integer form once the first evaluation has built
    # it (see _compile)
    __slots__ = ("_nums", "_den", "_terms", "_kernel", "_tops")

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

    def __reduce__(self):
        # copy and pickle rebuild from the integer form (the kernel is
        # compiled again on first evaluation); __setattr__ refuses their
        # slot writes
        return _raw, (self._nums, self._den)

    @property
    def terms(self) -> Mapping[tuple, Fraction]:
        """The read-only map from exponent tuples to nonzero Fraction
        coefficients, built on its first read and kept."""
        try:
            return self._terms
        except AttributeError:
            den = self._den
            view = MappingProxyType({e: Fraction(n, den) for e, n in self._nums.items()})
            object.__setattr__(self, "_terms", view)
            return view

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
        prod: dict = {}
        right = other._nums.items()
        for (x0, x1, x2, x3), n1 in self._nums.items():
            for (y0, y1, y2, y3), n2 in right:
                exps = (x0 + y0, x1 + y1, x2 + y2, x3 + y3)
                if exps in prod:
                    s = prod[exps] + n1 * n2
                    if s:
                        prod[exps] = s
                    else:
                        del prod[exps]
                else:
                    prod[exps] = n1 * n2
        return _normal(prod, self._den * other._den)

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

    def leading_coeff(self) -> Fraction:
        """Coefficient of the graded-lex leading term; 0 for zero."""
        return Fraction(self._nums[self._lead()], self._den) if self._nums else _FRACTION_ZERO

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
        terms = self.terms
        if not terms:
            return hash(0)
        if len(terms) == 1 and _CONST in terms:
            return hash(terms[_CONST])
        return hash(frozenset(terms.items()))

    def __bool__(self):
        return bool(self._nums)

    # -- substitution and evaluation ------------------------------------

    def substitute(self, assignment: Mapping[str, "Polynomial | Rational"]) -> "Polynomial":
        """Simultaneous substitution of variables; unassigned pass through.

        Each variable may be named once, under its name or an alias."""
        if not assignment:
            return self
        subs = {}
        for name, val in assignment.items():
            i = _NAME_INDEX.get(name)
            if i is None:
                raise PolyError(f"unknown variable {name!r}")
            if i in subs:
                raise _given_twice(assignment, i)
            subs[i] = val if isinstance(val, Polynomial) else Polynomial.const(val)
        out = ZERO
        den = self._den
        for exps, n in self._nums.items():
            # the unassigned variables and the coefficient as one monomial
            term = _normal({tuple(0 if i in subs else e for i, e in enumerate(exps)): n}, den)
            for i, e in enumerate(exps):
                if e and i in subs:
                    term = term * subs[i] ** e
            out = out + term
        return out

    def eval_at(self, point: Mapping[str, Rational]) -> Fraction:
        """Exact value at a Point, or at any mapping Point accepts: the
        kernel's integer over the cleared denominator (see _compile), so
        the value is the only Fraction built."""
        ints = Point.of(point)._ints
        try:
            kernel = self._kernel
        except AttributeError:
            kernel = self._compile()
        total = kernel(*ints)
        if not total:
            return _FRACTION_ZERO
        den = self._den
        for i, top in self._tops:
            den *= ints[2 * i + 1] ** top
        return Fraction(total, den)

    def vanishes_at(self, point: Mapping[str, Rational]) -> bool:
        """Whether the value at point is 0, decided on the kernel's
        integer alone: no denominator and no Fraction is built."""
        ints = Point.of(point)._ints
        try:
            kernel = self._kernel
        except AttributeError:
            kernel = self._compile()
        return not kernel(*ints)

    def _integer_form(self) -> tuple:
        """(expression, tops): tops is the pairs (i, highest exponent of
        variable i) for the variables that occur.  Scaled by d_i^top_i,
        the power (n_i/d_i)^e becomes n_i^e * d_i^(top_i - e), so
        expression, in the point's n0, d0, ..., n3, d3, is the value
        times _den times the product of the d_i^top_i, as one integer sum
        of products of the stored numerators.  That factor is a nonzero
        integer, so expression is 0 exactly where the value is."""
        nums = self._nums
        tops = tuple((i, top) for i, top in enumerate(map(max, zip(*nums))) if top)
        products = []
        for exps, n in nums.items():
            factors = [] if n == 1 else [str(n)]
            for i, top in tops:
                factors += _power(f"n{i}", exps[i]) + _power(f"d{i}", top - exps[i])
            products.append("*".join(factors) or "1")
        return " + ".join(products) or "0", tops

    def _compile(self):
        """Build the kernel of the integer form on the first evaluation
        and keep it, with the tops that scale _den to divide its value by."""
        expression, tops = self._integer_form()
        kernel = _make_kernel(expression)
        object.__setattr__(self, "_kernel", kernel)
        object.__setattr__(self, "_tops", tops)
        return kernel

    # -- rendering -------------------------------------------------------

    def sorted_terms(self):
        """Terms in descending graded-lex order."""
        return sorted(self.terms.items(), key=lambda t: _term_key(t[0]), reverse=True)

    def text(self, greek: bool = False) -> str:
        if not self._nums:
            return "0"
        names = [GREEK[v] if greek else v for v in VARS]
        terms = self.sorted_terms()
        if len(terms) > 1 and all(c < 0 for _, c in terms):
            return "-(" + (-self).text(greek=greek) + ")"
        parts = []
        for exps, coeff in terms:
            s = _term_text(exps, coeff, names)
            if parts and not s.startswith("-"):
                parts.append("+")
            parts.append(s)
        return "".join(parts)

    def __str__(self):
        return self.text()

    def __repr__(self):
        return f"Polynomial({self.text()})"

    def to_json(self) -> list:
        out = []
        for exps, coeff in self.sorted_terms():
            out.append({
                "coeff": str(coeff),
                "exps": {v: e for v, e in zip(VARS, exps) if e},
            })
        return out


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


def _term_text(exps, coeff, names) -> str:
    factors = []
    for name, e in zip(names, exps):
        if e == 1:
            factors.append(name)
        elif e > 1:
            factors.append(f"{name}^{e}")
    if not factors:
        return str(coeff)
    body = "*".join(factors)
    if coeff == 1:
        return body
    if coeff == -1:
        return "-" + body
    return f"{coeff}*{body}"


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
# reads, far below the recursion limit; the transcribed tables reach 2.
MAX_NESTING = 50
# only the ASCII digits make numbers: int() would reject "²" with a bare ValueError
_DIGITS = "0123456789"


def _tokenize(text: str, names: Mapping[str, Polynomial] | None):
    """Tokens (kind, source text, value); a word is a variable or alias,
    else an entry of names, else an unknown name."""
    tokens = []
    i, n = 0, len(text)
    while i < n:
        ch = text[i]
        if ch.isspace():
            i += 1
            continue
        if ch in "+-*/^()":
            tokens.append((ch, ch, None))
            i += 1
            continue
        if ch in _DIGITS:
            j = i
            while j < n and text[j] in _DIGITS:
                j += 1
            if j - i > MAX_DIGITS:
                raise PolyParseError(f"a number of {j - i} digits; at most {MAX_DIGITS}")
            tokens.append(("num", text[i:j], int(text[i:j])))
            i = j
            continue
        if ch.isalpha():
            j = i
            # digits after a letter belong to the word: "a2" is a name, not 2*a
            while j < n and (text[j].isalpha() or text[j] in _DIGITS):
                j += 1
            word = text[i:j]
            if word in _NAME_INDEX:
                value = Polynomial.var(word)
            elif names and word in names:
                value = names[word]
            else:
                raise PolyParseError(f"unknown name {quoted(word)} in {quoted(text)}")
            tokens.append(("word", word, value))
            i = j
            continue
        raise PolyParseError(f"unexpected character {ch!r} in {quoted(text)}")
    return tokens


class _Parser:
    def __init__(self, tokens, source):
        self.tokens = tokens
        self.pos = 0
        self.source = quoted(source)  # as error messages show it
        self.depth = 0  # open parentheses and unary signs

    def peek(self):
        return self.tokens[self.pos] if self.pos < len(self.tokens) else (None, None, None)

    def next(self):
        tok = self.peek()
        self.pos += 1
        return tok

    def expect(self, kind):
        tok = self.next()
        if tok[0] != kind:
            raise PolyParseError(f"expected {kind!r}, got {quoted(tok[1])} in {self.source}")
        return tok

    def nested(self, parse) -> Polynomial:
        """parse() one level deeper, inside a parenthesis or a unary sign."""
        self.depth += 1
        if self.depth > MAX_NESTING:
            raise PolyParseError(f"nesting deeper than {MAX_NESTING} in {self.source}")
        out = parse()
        self.depth -= 1
        return out

    def parse_expr(self) -> Polynomial:
        out = self.parse_term()
        while self.peek()[0] in ("+", "-"):
            op = self.next()[0]
            rhs = self.parse_term()
            out = out + rhs if op == "+" else out - rhs
        return out

    def product(self, left: Polynomial, right: Polynomial) -> Polynomial:
        if left.degree() + right.degree() > MAX_DEGREE:
            raise PolyParseError(f"degree above {MAX_DEGREE} in {self.source}")
        return left * right

    def parse_term(self) -> Polynomial:
        out = self.parse_factor()
        while True:
            kind = self.peek()[0]
            if kind in ("*", "/"):
                op = self.next()[0]
                rhs = self.parse_factor()
                if op == "*":
                    out = self.product(out, rhs)
                else:
                    if not rhs.is_constant() or rhs.is_zero():
                        raise PolyParseError(
                            f"division only by nonzero constants in {self.source}")
                    out = out.scale(Fraction(1) / rhs.constant_value())
            elif kind in ("num", "word", "("):
                # implicit multiplication, e.g. "2a" or "a(b+g)"
                out = self.product(out, self.parse_factor())
            else:
                return out

    def parse_factor(self) -> Polynomial:
        kind = self.peek()[0]
        if kind in ("-", "+"):
            self.next()
            inner = self.nested(self.parse_factor)
            return -inner if kind == "-" else inner
        base = self.parse_atom()
        if self.peek()[0] == "^":
            self.next()
            if self.peek()[0] == "-":
                raise PolyParseError(f"negative exponent in {self.source}")
            tok = self.expect("num")
            if tok[2] > MAX_DEGREE or base.degree() * tok[2] > MAX_DEGREE:
                raise PolyParseError(f"degree above {MAX_DEGREE} in {self.source}")
            return base ** tok[2]
        return base

    def parse_atom(self) -> Polynomial:
        kind, word, val = self.next()
        if kind == "num":
            return Polynomial.const(val)
        if kind == "word":
            return val
        if kind == "(":
            inner = self.nested(self.parse_expr)
            self.expect(")")
            return inner
        raise PolyParseError(f"unexpected {quoted(word)} in {self.source}")


def parse(text: str, names: Mapping[str, Polynomial] | None = None) -> Polynomial:
    """Parse the human text form (also accepts alpha/beta/gamma/delta and Greek).

    names maps further words to their values, e.g. the G4 sign h
    (liealg.sign_names); a variable name cannot be redefined."""
    tokens = _tokenize(text, names)
    if not tokens:
        raise PolyParseError("empty polynomial text")
    parser = _Parser(tokens, text)
    out = parser.parse_expr()
    if parser.pos != len(tokens):
        raise PolyParseError(f"trailing input in {quoted(text)}")
    return out

