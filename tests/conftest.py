"""Shared helpers: the eight groups, bracket tables the families do not
give (raw_algebra, abelian), a connection applied to any two frame
vectors (apply), a frame vector times a scalar (scale_frame), the
metric g and its frame table, membership of a
solution family (contains), the graded-lex leading coefficient
(leading_coeff), seeded
random rationals and polynomials for property tests, polynomials that
log the reads of their terms (tracked), the walk that
compiled condition tests are checked against, the recursive-descent
parser and the Fraction renderer that poly.parse and Polynomial.text
are checked against (reference_parse, reference_text), the kernel
writer that Polynomial._integer_form is checked against
(reference_integer_form), the term-by-term substitution that
Polynomial.substitute is checked against (reference_substitute), and
the command
line, or any code, in a fresh interpreter.  Each test and each test module's
import run under one time limit, so a fault that loops fails the suite
instead of hanging it."""

import contextlib
import os
import signal
import subprocess
import sys
from fractions import Fraction

import pytest

import liecodazzi
from liecodazzi.liealg import (
    FAMILIES, METRIC_SIGNATURE, PAIRS, ConstraintSet, FrameVector, LieAlgebra, _antisymmetric,
    _bilinear, branches, make_group,
)
from liecodazzi.poly import (
    _DIGITS, _FRACTION_ZERO, _NAME_INDEX, GREEK, MAX_DEGREE, MAX_DIGITS, MAX_NESTING, VARS, ZERO,
    Point, Polynomial, PolyError, PolyParseError, _normal, _raw, _term_key, quoted,
)


# the wall seconds that one test, or the import of one test module, may
# take; the slowest test takes about 5
TEST_TIME_LIMIT_S = 60


@contextlib.contextmanager
def _time_limit():
    """Raise TimeoutError in the code running once the block has taken
    TEST_TIME_LIMIT_S, by a SIGALRM interval timer armed on entry and
    disarmed on exit (no limit where the platform has no such timer)."""
    if not hasattr(signal, "setitimer"):
        yield
        return

    def expire(signum, frame):
        raise TimeoutError(f"ran past the {TEST_TIME_LIMIT_S} s limit of one test")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, TEST_TIME_LIMIT_S)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


@pytest.hookimpl(hookwrapper=True)
def pytest_runtest_protocol(item, nextitem):
    # one test: its set-up (module fixtures too), call and teardown
    with _time_limit():
        yield


@pytest.hookimpl(hookwrapper=True)
def pytest_make_collect_report(collector):
    # a test module builds polynomials at import, so a looping fault can
    # hang its collection; it becomes a collection error
    with _time_limit():
        yield


def all_groups():
    """The eight symbolic groups: G1..G7, with G4 once per metric sign."""
    return [make_group(f, eta=e) for f in FAMILIES for e in branches(f)]


def raw_algebra(b12, b13, b23, constraints=ConstraintSet(), family="raw"):
    """A group with the brackets [e1,e2] = b12, [e1,e3] = b13 and
    [e2,e3] = b23 (FrameVectors), filled in by antisymmetry: arbitrary
    structure constants, with no Jacobi or constraint check."""
    return LieAlgebra(family=family, eta=None,
                      brackets=_antisymmetric(dict(zip(PAIRS, (b12, b13, b23)))),
                      constraints=constraints)


def abelian():
    """All brackets zero: the flat case."""
    z = FrameVector.zero()
    return raw_algebra(z, z, z, family="abelian")


def apply(C, X, Y):
    """nabla_X Y for the connection C by bilinear extension of its
    coefficient table C.gamma: the definition that the index formulas of
    tensorcalc are checked against."""
    return _bilinear(C.gamma, X, Y)


def scale_frame(v, s):
    """The FrameVector v with each component times s, a polynomial or an
    exact rational."""
    return FrameVector(*(x * s for x in v.c))


def metric(X, Y):
    """g(X, Y) with the fixed signature (+, +, -); e3 is timelike."""
    out = Polynomial.zero()
    for eps, x, y in zip(METRIC_SIGNATURE, X.c, Y.c):
        out = out + (x * y).scale(eps)
    return out


# the metric as a (0,2)-tensor table, METRIC_TABLE[i, j] = g(e_i, e_j)
METRIC_TABLE = {(i, j): Polynomial.const(eps if i == j else 0)
                for i, eps in enumerate(METRIC_SIGNATURE, 1) for j in (1, 2, 3)}


def contains(family, point):
    """Whether the point lies on the SolutionFamily: one call of the
    compiled test of its conditions (see ConstraintSet)."""
    return family._conditions._admits(*Point.of(point)._ints)


def leading_coeff(p):
    """Coefficient of the graded-lex leading term of the Polynomial p; 0
    for zero."""
    return Fraction(p._nums[p._lead()], p._den) if p._nums else _FRACTION_ZERO


def reference_substitute(p, assignment):
    """Polynomial.substitute term by term: each term's unassigned monomial
    times a binary product per assigned power, added up by binary +."""
    subs = {}
    for name, val in assignment.items():
        i = _NAME_INDEX.get(name)
        if i is None:
            raise PolyError(f"unknown variable {name!r}")
        if i in subs:
            given = [n for n in assignment if _NAME_INDEX.get(n) == i]
            raise PolyError(f"variable {VARS[i]!r} is given twice: {given}")
        subs[i] = val if isinstance(val, Polynomial) else Polynomial.const(val)
    out = ZERO
    den = p._den
    for exps, n in p._nums.items():
        # the unassigned variables and the coefficient as one monomial
        term = _normal({tuple(0 if i in subs else e for i, e in enumerate(exps)): n}, den)
        for i, e in enumerate(exps):
            if e and i in subs:
                term = term * subs[i] ** e
        out = out + term
    return out


def walk_violated(constraints, point):
    """ConstraintSet.violated as a walk over the polynomials, each tested
    with vanishes_at: the first equality that does not vanish, else the
    first inequation that does, as (polynomial, kind); None when none."""
    for p in constraints.equalities:
        if not p.vanishes_at(point):
            return p, "equality"
    for q in constraints.inequations:
        if q.vanishes_at(point):
            return q, "inequation"
    return None


def run_python(*argv, timeout=None):
    """Run `python argv` in a fresh interpreter that imports this
    checkout's package, without LIECODAZZI_SEED; the CompletedProcess
    with bytes output."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(liecodazzi.__file__)))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (src, env.get("PYTHONPATH"))))
    env.pop("LIECODAZZI_SEED", None)
    return subprocess.run([sys.executable, *argv],
                          capture_output=True, env=env, timeout=timeout, check=False)


def run_cli(*argv, timeout=None):
    """Run `python -m liecodazzi.cli argv` by run_python."""
    return run_python("-m", "liecodazzi.cli", *argv, timeout=timeout)


def random_rational(rng, lo=-10, hi=10, max_den=10):
    return Fraction(rng.randint(lo, hi), rng.randint(1, max_den))


def random_point(rng):
    return {v: random_rational(rng) for v in VARS}


def random_poly(rng, max_terms=5, max_exp=3):
    terms = {}
    for _ in range(rng.randint(0, max_terms)):
        exps = tuple(rng.randint(0, max_exp) for _ in VARS)
        terms[exps] = terms.get(exps, 0) + random_rational(rng)
    return Polynomial(terms)


class _LoggedNums(dict):
    """A numerator map that appends itself to log on each read of its
    terms (iteration, keys, values, items or a lookup); a truth test or
    len() reads no term and is not logged."""

    __slots__ = ("log",)

    def __iter__(self):
        self.log.append(self)
        return super().__iter__()

    def keys(self):
        self.log.append(self)
        return super().keys()

    def values(self):
        self.log.append(self)
        return super().values()

    def items(self):
        self.log.append(self)
        return super().items()

    def __getitem__(self, exps):
        self.log.append(self)
        return super().__getitem__(exps)


def tracked(p, log):
    """A copy of the polynomial p whose numerator map appends itself to
    the list log each time a term of it is read, so a test sees which
    factors a ring operation multiplied out: log holds copy._nums."""
    nums = _LoggedNums(p._nums)
    nums.log = log
    return _raw(nums, p._den)


def read_in(log, p):
    """Whether the numerator map of the tracked polynomial p is in log."""
    return any(nums is p._nums for nums in log)


# -- reference parser and renderer ----------------------------------------
#
# A tokenizer with a recursive descent over its tokens, and a renderer
# with Fraction coefficients: the references that poly.parse, one loop
# over the characters, and Polynomial.text, on the integer form, are
# checked against.


def _tokenize(text, names):
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


def reference_parse(text, names=None):
    """poly.parse as a tokenizer and a recursive descent over the tokens."""
    tokens = _tokenize(text, names)
    if not tokens:
        raise PolyParseError("empty polynomial text")
    parser = _Parser(tokens, text)
    out = parser.parse_expr()
    if parser.pos != len(tokens):
        raise PolyParseError(f"trailing input in {quoted(text)}")
    return out


def reference_sorted_terms(p):
    """(exponent tuple, Fraction coefficient) pairs of the polynomial p
    in descending graded-lex order."""
    den = p._den
    return [(e, Fraction(p._nums[e], den))
            for e in sorted(p._nums, key=_term_key, reverse=True)]


def _term_text(exps, coeff, names):
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


def reference_text(p, greek=False):
    """Polynomial.text with Fraction coefficients."""
    if not p._nums:
        return "0"
    names = [GREEK[v] if greek else v for v in VARS]
    terms = reference_sorted_terms(p)
    if len(terms) > 1 and all(c < 0 for _, c in terms):
        return "-(" + reference_text(-p, greek=greek) + ")"
    parts = []
    for exps, coeff in terms:
        s = _term_text(exps, coeff, names)
        if parts and not s.startswith("-"):
            parts.append("+")
        parts.append(s)
    return "".join(parts)


def _power(name, e):
    """The factors of name^e in a kernel: name repeated up to four times,
    which CPython multiplies faster than it raises small ints to a power."""
    return [name] * e if e <= 4 else [f"{name}**{e}"]


def reference_integer_form(p):
    """Polynomial._integer_form with each term's factors written anew."""
    nums = p._nums
    tops = tuple((i, top) for i, top in enumerate(map(max, zip(*nums))) if top)
    products = []
    for exps, n in nums.items():
        factors = [] if n == 1 else [str(n)]
        for i, top in tops:
            factors += _power(f"n{i}", exps[i]) + _power(f"d{i}", top - exps[i])
        products.append("*".join(factors) or "1")
    return " + ".join(products) or "0"
