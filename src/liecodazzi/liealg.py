"""The seven 3-dimensional Lorentzian Lie algebra families.

Each family g_1..g_7 is given by structure constants on a fixed
pseudo-orthonormal frame e1, e2, e3 (e3 timelike, metric diag(1,1,-1))
with parameters alpha, beta, gamma, delta subject to the family's
printed side conditions, all seven read by poly.parse from one table
of texts, _FAMILY_TEXTS.  The bracket table holds all nine [e_i, e_j],
read as L.brackets[i, j] like every other frame table: the family gives
the entries i < j and _antisymmetric fills in the rest.  eta (only g_4
has one) is resolved to +1 or -1 at construction time and never appears
as a ring symbol: texts write it h, which sign_names turns into the
constant when they are parsed.
"""

from __future__ import annotations

import functools
import random
from fractions import Fraction
from math import gcd
from typing import Mapping, Optional

from .poly import Point, Polynomial, Rational, _condition_kernel, _sum_of_products, parse

# each family as printed: the component texts of [e1,e2], [e1,e3] and
# [e2,e3], then the texts of its equalities and of its inequations
_FAMILY_TEXTS = {
    "G1": ((("a", "0", "-b"), ("-a", "-b", "0"), ("b", "a", "a")), (), ("a",)),
    "G2": ((("0", "g", "-b"), ("0", "-b", "-g"), ("a", "0", "0")), (), ("g",)),
    "G3": ((("0", "0", "-g"), ("0", "-b", "0"), ("a", "0", "0")), (), ()),
    "G4": ((("0", "-1", "2*h-b"), ("0", "-b", "1"), ("a", "0", "0")), (), ()),
    "G5": ((("0", "0", "0"), ("a", "b", "0"), ("g", "d", "0")), ("a*g+b*d",), ("a+d",)),
    "G6": ((("0", "a", "b"), ("0", "g", "d"), ("0", "0", "0")), ("a*g-b*d",), ("a+d",)),
    "G7": ((("-a", "-b", "-b"), ("a", "b", "b"), ("g", "d", "d")), ("a*g",), ("a+d",)),
}
FAMILIES = tuple(_FAMILY_TEXTS)
METRIC_SIGNATURE = (1, 1, -1)


def branches(family: str) -> tuple:
    """The metric signs eta a family is built with: G4 has both signs,
    every other family none."""
    return (1, -1) if family.upper() == "G4" else (None,)


def sign_names(eta: Optional[int]) -> dict:
    """The word h for the metric sign eta, as a poly.parse name table:
    {"h": +1 or -1} on a G4 branch, empty otherwise."""
    return {} if eta is None else {"h": Polynomial.const(eta)}


class ConstraintViolation(ValueError):
    """A numeric instance breaks one of the family's side conditions."""

    def __init__(self, polynomial: Polynomial, kind: str):
        self.polynomial = polynomial
        self.kind = kind  # "equality" or "inequation"
        want = "= 0" if kind == "equality" else "!= 0"
        super().__init__(f"constraint violated: {polynomial} {want}")


class SamplerStarvation(RuntimeError):
    """No admissible parameter point found within the attempt budget."""


class FrameVector:
    """Vector with three polynomial components in the fixed frame."""

    __slots__ = ("c",)

    def __init__(self, c1, c2, c3):
        comps = []
        for x in (c1, c2, c3):
            if isinstance(x, Polynomial):
                comps.append(x)
            else:
                comps.append(Polynomial.const(x))
        object.__setattr__(self, "c", tuple(comps))

    def __setattr__(self, *_):
        raise AttributeError("FrameVector is immutable")
    __delattr__ = __setattr__

    def __reduce__(self):
        # copy and pickle rebuild through __init__, as for Polynomial
        return FrameVector, self.c

    @staticmethod
    def zero() -> "FrameVector":
        return FrameVector(0, 0, 0)

    def __add__(self, other: "FrameVector") -> "FrameVector":
        return FrameVector(*(x + y for x, y in zip(self.c, other.c)))

    def __sub__(self, other: "FrameVector") -> "FrameVector":
        return FrameVector(*(x - y for x, y in zip(self.c, other.c)))

    def __neg__(self) -> "FrameVector":
        return _frame(tuple([-x for x in self.c]))

    def is_zero(self) -> bool:
        return all(x.is_zero() for x in self.c)

    def __eq__(self, other):
        return isinstance(other, FrameVector) and self.c == other.c

    def __hash__(self):
        return hash(self.c)

    def text(self, greek: bool = False) -> str:
        if self.is_zero():
            return "0"
        frame = "ẽ" if greek else "e"
        parts = []
        for i, comp in enumerate(self.c, start=1):
            if comp.is_zero():
                continue
            body = comp.text(greek=greek)
            if len(comp._nums) > 1:
                body = f"({body})"
            unit = f"{frame}{i}"
            s = unit if comp == 1 else "-" + unit if comp == -1 else f"{body}*{unit}"
            if parts and not s.startswith("-"):
                parts.append("+")
            parts.append(s)
        return "".join(parts)

    def __repr__(self):
        return f"FrameVector({self.text()})"

    def to_json(self) -> list:
        return [comp.to_json() for comp in self.c]


def _frame(c: tuple) -> FrameVector:
    """The frame vector with the three Polynomial components c, unchecked:
    for components the program built itself."""
    v = object.__new__(FrameVector)
    object.__setattr__(v, "c", c)
    return v


E1 = FrameVector(1, 0, 0)
E2 = FrameVector(0, 1, 0)
E3 = FrameVector(0, 0, 1)
BASIS = (E1, E2, E3)

# the index pairs i < j of an antisymmetric frame table
PAIRS = ((1, 2), (1, 3), (2, 3))


def _antisymmetric(upper: Mapping[tuple, FrameVector]) -> dict:
    """The full table of a tensor antisymmetric in its first two indices,
    from the entries (i, j, ...) with i < j."""
    entries = dict(upper)
    zero = FrameVector.zero()
    for (i, j, *rest), v in upper.items():
        entries[(j, i, *rest)] = -v
        entries[(i, i, *rest)] = entries[(j, j, *rest)] = zero
    return entries


class _Record:
    """An immutable record.  Its fields are the parameters of the class's
    own __init__, which stores them with one vars(self).update(...);
    _fields lists them in order.  Records of one class compare and hash
    by their field values, and show as Name(field=value, ...).  They keep
    a __dict__, so a cached_property can fill it, and copy and pickle
    restore it without going through __setattr__."""

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        code = cls.__init__.__code__
        cls._fields = code.co_varnames[1:code.co_argcount]

    def __setattr__(self, *_):
        raise AttributeError(f"{type(self).__name__} is immutable")
    __delattr__ = __setattr__

    def _values(self) -> tuple:
        d = vars(self)
        return tuple([d[f] for f in self._fields])

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._values() == other._values()
        return NotImplemented

    def __hash__(self):
        return hash(self._values())

    def __repr__(self):
        fields = ", ".join(f"{f}={v!r}" for f, v in zip(self._fields, self._values()))
        return f"{type(self).__qualname__}({fields})"

    def _replace(self, **changes):
        """A copy with some fields changed, built by __init__, so its
        checks run again."""
        return type(self)(**dict(zip(self._fields, self._values()), **changes))


class ConstraintSet(_Record):
    """Side conditions: the equalities vanish and the inequations do not.

    On first use the whole question compiles into one kernel,
    _admits(n0, d0, ..., n3, d3) -> bool of a point's integer pairs
    (poly._condition_kernel), so an admissible point costs one call.
    Copies and pickles rebuild the set from its conditions and compile
    the kernel again: a generated function cannot be pickled."""

    def __init__(self, equalities: tuple = (), inequations: tuple = ()):
        vars(self).update(equalities=equalities, inequations=inequations)

    @functools.cached_property
    def _admits(self):
        return _condition_kernel(self)

    def __reduce__(self):
        return ConstraintSet, (self.equalities, self.inequations)

    def violated(self, point: Mapping[str, Rational]) -> Optional[tuple]:
        """The first side condition the point breaks, as (polynomial,
        "equality" | "inequation"), or None when the point is admissible.
        One kernel call decides; the conditions are walked one by one
        only to name the broken one."""
        point = Point.of(point)
        if self._admits(*point._ints):
            return None
        for p in self.equalities:
            if not p.vanishes_at(point):
                return p, "equality"
        for p in self.inequations:
            if p.vanishes_at(point):
                return p, "inequation"
        return None


class LieAlgebra(_Record):
    def __init__(self, family: str, eta: Optional[int],
                 brackets: Mapping[tuple, FrameVector], constraints: ConstraintSet,
                 params: Optional[Point] = None):
        # brackets[(i, j)] = [e_i, e_j] for all i, j in 1..3.  derived is no
        # field: ("connection", kind) -> Connection, filled by
        # connection.make_connection, and ("derivation", kind) -> {table
        # name: table}, filled one table at a time by classify._derived;
        # they live and die with the group and are shared, so treat them
        # as read-only
        vars(self).update(family=family, eta=eta, brackets=brackets,
                          constraints=constraints, params=params, derived={})

    def label(self) -> str:
        if self.eta is None:
            return self.family
        return f"{self.family}(eta={'+1' if self.eta > 0 else '-1'})"

    def to_json(self) -> dict:
        out = {
            "family": self.family,
            "brackets": {
                f"e{i}e{j}": self.brackets[(i, j)].to_json() for i, j in PAIRS
            },
            "equalities": [p.text() for p in self.constraints.equalities],
            "inequations": [p.text() for p in self.constraints.inequations],
        }
        if self.eta is not None:
            out["eta"] = self.eta
        if self.params is not None:
            out["params"] = {k: str(v) for k, v in sorted(self.params.items())}
        return out


def _bilinear(table: Mapping[tuple, FrameVector], X: FrameVector,
              Y: FrameVector) -> FrameVector:
    """sum_ij X^i Y^j table[i, j], each component one poly._sum_of_products
    call over the pairs i, j of nonzero coordinates, handed only the
    nonzero components of table[i, j], so no product has a zero factor."""
    pairs = [(table[i, j].c, xi * yj)
             for i, xi in enumerate(X.c, start=1) if xi
             for j, yj in enumerate(Y.c, start=1) if yj]
    return _frame(tuple(_sum_of_products([(c[m], s, 1) for c, s in pairs if c[m]])
                        for m in range(3)))


def bracket(L: LieAlgebra, X: FrameVector, Y: FrameVector) -> FrameVector:
    """Bilinear antisymmetric extension of the structure constants."""
    return _bilinear(L.brackets, X, Y)


# -- groups --------------------------------------------------------------

def make_group(family: str, eta: Optional[int] = None,
               numeric_params: Optional[Mapping[str, Rational]] = None) -> LieAlgebra:
    """Build one of G1..G7, symbolic or at a numeric parameter point.

    eta must be one of branches(family): the int +1 or -1 for G4, None
    otherwise; any other value, True and 1.0 included, raises ValueError.
    numeric_params is a Point, or any mapping poly.Point accepts: each
    of the four parameters given once as an exact rational (int or
    Fraction), else PolyError.  The instance is checked against the
    family's conditions, has the symbolic brackets evaluated at the
    point (eval_at) and keeps the point as params.
    The symbolic groups are built once per (family, eta) and shared, so
    their derived objects are computed once per process.
    """
    family = family.upper()
    signs = branches(family)
    # True and 1.0 equal 1, and the cache below would take them for it
    if eta not in signs or type(eta) not in (int, type(None)):
        raise ValueError(f"{family} takes no eta" if signs == (None,)
                         else f"{family} requires eta=+1 or eta=-1")
    if family not in _FAMILY_TEXTS:
        raise ValueError(f"unknown family {family!r}; expected one of {FAMILIES}")
    symbolic = _symbolic_group(family, eta)
    if numeric_params is None:
        return symbolic
    params = Point.of(numeric_params)
    broken = symbolic.constraints.violated(params)
    if broken is not None:
        raise ConstraintViolation(*broken)
    upper = symbolic.brackets
    brackets = _antisymmetric({k: FrameVector(*(x.eval_at(params) for x in upper[k].c))
                               for k in PAIRS})
    return LieAlgebra(family=family, eta=eta, brackets=brackets,
                      constraints=symbolic.constraints, params=params)


@functools.lru_cache(maxsize=None)
def _symbolic_group(family: str, eta: Optional[int]) -> LieAlgebra:
    # at most eight entries: make_group passes known (family, eta) only
    rows, equalities, inequations = _FAMILY_TEXTS[family]
    names = sign_names(eta)
    brackets = _antisymmetric({key: FrameVector(*(parse(t, names) for t in texts))
                               for key, texts in zip(PAIRS, rows)})
    constraints = ConstraintSet(equalities=tuple(map(parse, equalities)),
                                inequations=tuple(map(parse, inequations)))
    L = LieAlgebra(family=family, eta=eta, brackets=brackets, constraints=constraints)
    J = jacobiator(L)
    if not J.is_zero():
        raise ValueError(f"{L.label()} breaks the Jacobi identity: J(e1, e2, e3) = {J.text()}")
    return L


# -- constraint-variety sampling ----------------------------------------

# draws since its last point that _admissible_ints may miss before it gives up
_SAMPLE_ATTEMPTS = 1000


# the pairs _rand_pairs draws, indexed by its raw bits: row n + 10 holds
# n/1 .. n/10 in lowest terms; None marks the bits it draws again (rows
# 21..31, entries 10..15, and the zero row 10 when the draw is nonzero)
_ROWS = tuple(tuple(Fraction(n, den).as_integer_ratio() for den in range(1, 11)) + (None,) * 6
              for n in range(-10, 11)) + (None,) * 11
_NONZERO_ROWS = _ROWS[:10] + (None,) + _ROWS[11:]


def _rand_pairs(rng: random.Random, nonzero: bool = False):
    """Endless random rationals as (numerator, denominator) pairs in
    lowest terms: Fraction(randint(-10, 10), randint(1, 10)), with the same
    rng state after each yield; with nonzero, the numerator 0 is drawn
    again.  The generator draws only when it is resumed, so other draws
    from rng may come between two yields."""
    # randint(lo, hi) is lo + _randbelow(hi - lo + 1), and _randbelow(n)
    # calls getrandbits(n.bit_length()) until the value is below n: 5 bits
    # for the 21 rows, 4 for the 10 entries
    getrandbits = rng.getrandbits
    rows = _NONZERO_ROWS if nonzero else _ROWS
    while True:
        row = rows[getrandbits(5)]
        while row is None:
            row = rows[getrandbits(5)]
        pair = row[getrandbits(4)]
        while pair is None:
            pair = row[getrandbits(4)]
        yield pair


def _admissible_ints(L: LieAlgebra, rng: random.Random):
    """Endless random rational points satisfying the family's equalities
    and inequations, each as the eight ints n0, d0, ..., n3, d3 of
    Point._of_ints.  Equalities are met by explicit parameterization:
    G5/G6 solve for delta when the beta coefficient is nonzero, G7
    samples the alpha=0 and gamma=0 branches.  Each step of one loop
    takes four pairs of one _rand_pairs stream (zip draws them in the
    order alpha, beta, gamma, delta) and the G7 coin after them, and is
    tested by one call of the group's compiled test; a G5/G6 draw with
    beta = 0 is a miss without a test.  SamplerStarvation after
    _SAMPLE_ATTEMPTS misses since the last point.  Like _rand_pairs, it
    draws only when it is resumed."""
    admits = L.constraints._admits
    pairs = _rand_pairs(rng)
    solve = L.family in ("G5", "G6")
    # delta = -alpha*gamma/beta on G5 and +alpha*gamma/beta on G6
    flip = L.family == "G6"
    coin = rng.random if L.family == "G7" else None
    misses = 0
    for (a, ad), (b, bd), (g, gd), (d, dd) in zip(pairs, pairs, pairs, pairs):
        if solve:
            if b:
                # delta as a pair in lowest terms with the sign on the numerator
                d, dd = a * g * bd, ad * gd * b
                if (dd < 0) == flip:
                    d = -d
                k = gcd(d, dd)
                d, dd = d // k, abs(dd) // k
        elif coin is not None:
            if coin() < 0.5:
                a, ad = 0, 1
            else:
                g, gd = 0, 1
        # a G5/G6 draw with beta = 0 has no delta
        if (b or not solve) and admits(a, ad, b, bd, g, gd, d, dd):
            misses = 0
            yield a, ad, b, bd, g, gd, d, dd
        else:
            misses += 1
            if misses >= _SAMPLE_ATTEMPTS:
                raise SamplerStarvation(
                    f"no admissible point for {L.label()} in {_SAMPLE_ATTEMPTS} attempts")


def sample_constraint_point(L: LieAlgebra, rng: random.Random) -> Point:
    """One random rational point satisfying the family's equalities and
    inequations: the next point of _admissible_ints(L, rng)."""
    return Point._of_ints(next(_admissible_ints(L, rng)))


# -- well-formedness ------------------------------------------------------

def jacobiator(L: LieAlgebra) -> FrameVector:
    """J(e1, e2, e3) = [e1,[e2,e3]] + [e2,[e3,e1]] + [e3,[e1,e2]], each
    component reduced modulo the equalities by Polynomial.remainder, as
    in check_on_family; no point is drawn.  It needs an antisymmetric
    table, which _antisymmetric makes for every group and numeric
    instance: the Jacobiator is then alternating and trilinear,
    so in dimension 3 it vanishes on every basis triple exactly when it
    vanishes on this one.  The zero vector means a Lie bracket on the
    constraint variety."""
    b = L.brackets
    J = bracket(L, E1, b[2, 3]) + bracket(L, E2, b[3, 1]) + bracket(L, E3, b[1, 2])
    return FrameVector(*(c.remainder(*L.constraints.equalities) for c in J.c))
