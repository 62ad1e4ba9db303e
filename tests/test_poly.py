"""Polynomial ring: canonical form, ring axioms, substitution, parsing."""

import ast
import copy
import inspect
import operator
import pickle
import random
import sys
from fractions import Fraction
from math import gcd

import pytest

from conftest import (
    leading_coeff, random_point, random_poly, random_rational, read_in, reference_integer_form,
    reference_substitute, run_python, tracked,
)
from liecodazzi import poly
from liecodazzi.classify import _point_json, build_system
from liecodazzi.liealg import E1, ConstraintSet, FrameVector, make_group
from liecodazzi.poly import (
    GREEK, A, B, D, G, ONE, VARS, ZERO, Point, Polynomial, PolyError, PolyParseError,
    _sum_of_products, parse,
)


def merge_oracle(p, q, sign=1):
    """Independent addition oracle (subtraction with sign=-1): merge raw
    term maps, drop zeros."""
    merged = dict(p.terms)
    for exps, c in q.terms.items():
        merged[exps] = merged.get(exps, Fraction(0)) + sign * c
    return {e: c for e, c in merged.items() if c != 0}


def product_oracle(p, q):
    """Independent multiplication oracle: every pair of terms, summed per
    exponent tuple, zeros dropped."""
    prod = {}
    for e1, c1 in p.terms.items():
        for e2, c2 in q.terms.items():
            exps = tuple(x + y for x, y in zip(e1, e2))
            prod[exps] = prod.get(exps, Fraction(0)) + c1 * c2
    return {e: c for e, c in prod.items() if c != 0}


def checked_op(op, p, q):
    """op(p, q), asserted canonical and leaving both operands' terms as they were."""
    before = (dict(p.terms), dict(q.terms))
    out = op(p, q)
    assert_canonical(out)
    assert (p.terms, q.terms) == before
    return out


def assert_canonical(p):
    """p's stored integer form is canonical: a positive int denominator,
    nonzero int (not bool) numerators, no factor shared by all of them,
    and terms the Fraction view of exactly that form."""
    den, nums = p._den, p._nums
    assert type(den) is int and den > 0, (den, nums)
    assert all(type(n) is int and n != 0 for n in nums.values()), nums
    assert gcd(den, *nums.values()) == 1, (den, nums)
    assert all(len(e) == 4 and all(type(x) is int and x >= 0 for x in e) for e in nums)
    assert p.terms == {e: Fraction(n, den) for e, n in nums.items()}
    assert all(type(c) is Fraction for c in p.terms.values())


# -- add ---------------------------------------------------------------


def test_add_disjoint_terms():
    assert A ** 2 + B ** 2 == parse("a^2+b^2")


def test_add_cancellation():
    assert (A * B + (-(A * B))).is_zero()


def test_add_matches_term_merge_oracle():
    rng = random.Random(101)
    for _ in range(100):
        p, q = random_poly(rng), random_poly(rng)
        assert checked_op(operator.add, p, q).terms == merge_oracle(p, q)


def test_sub_matches_term_merge_oracle():
    rng = random.Random(109)
    for _ in range(200):
        p, q = random_poly(rng), random_poly(rng)
        assert checked_op(operator.sub, p, q).terms == merge_oracle(p, q, sign=-1)
        # q shares p's monomials, so whole terms cancel
        shared = p + q
        assert checked_op(operator.sub, shared, p).terms == merge_oracle(shared, p, sign=-1)
        assert checked_op(operator.sub, p, p).terms == {}


# -- mul ---------------------------------------------------------------


def test_reflected_subtraction_takes_the_polynomial_away():
    # a number minus a polynomial runs Polynomial.__rsub__
    assert 1 - A == parse("1-a")
    assert Fraction(1, 2) - A == parse("1/2-a")


def test_zero_has_degree_minus_one():
    assert (ZERO.degree(), ONE.degree(), parse("a*b^2+g").degree()) == (-1, 0, 3)


def test_mul_variable_square():
    assert A * A == A ** 2


def test_mul_annihilator():
    assert ((A + D) * ZERO).is_zero()


@pytest.mark.parametrize("p", [ZERO, ONE, A, A - B, parse("a^2*g/2 - 3*b*d + 1")])
def test_pow_is_repeated_product(p):
    product = ONE
    for n in range(6):
        assert p ** n == product, n
        product = product * p


def test_mul_matches_product_oracle_on_cancelling_products():
    rng = random.Random(110)
    for _ in range(100):
        p, q = random_poly(rng), random_poly(rng)
        assert checked_op(operator.mul, p, q).terms == product_oracle(p, q)
        # (p+q)(p-q): the cross terms pq and -qp cancel
        s, d = p + q, p - q
        assert checked_op(operator.mul, s, d).terms == product_oracle(s, d)
        assert s * d == p * p - q * q
        # p(q - q) and (p - p)q: products of a zero
        assert checked_op(operator.mul, p, q - q).terms == {}
        assert checked_op(operator.mul, p - p, q).terms == {}
    # terms that cancel inside one product: (a - b)(a + b)(a^2 + b^2) = a^4 - b^4
    assert checked_op(operator.mul, (A - B) * (A + B), A ** 2 + B ** 2) == A ** 4 - B ** 4


def test_mul_matches_evaluation_oracle():
    # (a-b)(a+b) = a^2-b^2, checked pointwise at 20 random rational points
    lhs = (A - B) * (A + B)
    assert lhs == A ** 2 - B ** 2
    rng = random.Random(102)
    for _ in range(20):
        pt = random_point(rng)
        assert lhs.eval_at(pt) == (A - B).eval_at(pt) * (A + B).eval_at(pt)


# -- sum of products ---------------------------------------------------


def fold(terms):
    """sum of s*p*q over the triples (p, q, s) by binary +, each product
    the Fraction convolution of product_oracle: binary * is itself a
    _sum_of_products call, so it cannot check the kernel."""
    total = ZERO
    for p, q, s in terms:
        total = total + Polynomial({e: s * c for e, c in product_oracle(p, q).items()})
    return total


def checked_sum_of_products(terms):
    """_sum_of_products(terms) of tracked copies of the factors, asserted
    canonical, equal to the fold of oracle products and binary +, and
    multiplying out exactly the triples with two nonzero factors and
    s != 0."""
    log = []
    copies = [(tracked(p, log), tracked(q, log), s) for p, q, s in terms]
    out = _sum_of_products(copies)
    assert_canonical(out)
    assert out == fold(terms)
    for p, q, s in copies:
        multiplied = bool(p and q and s)
        assert read_in(log, p) == read_in(log, q) == multiplied, (p, q, s)
    return out


def test_sum_of_products_matches_the_fold_of_binary_operations():
    rng = random.Random(132)
    for _ in range(200):
        terms = [(random_poly(rng), random_poly(rng), rng.randint(-3, 3))
                 for _ in range(rng.randint(1, 6))]
        checked_sum_of_products(terms)


def test_sum_of_products_brings_mixed_denominators_to_one():
    half, third = Polynomial.const(Fraction(1, 2)), Polynomial.const(Fraction(-2, 3))
    quarter_a = A.scale(Fraction(1, 4))
    terms = [(half, A, 1), (third, B, -1), (quarter_a, half, 2),
             (A, B.scale(Fraction(5, 6)), 1)]
    out = checked_sum_of_products(terms)
    assert out == (A.scale(Fraction(3, 4)) + B.scale(Fraction(2, 3))
                   + (A * B).scale(Fraction(5, 6)))
    assert out._den == 12
    # constants with denominators whose products sum to an integer
    terms = [(half, half, 2), (third, Polynomial.const(Fraction(3, 4)), -1)]
    assert checked_sum_of_products(terms) == Polynomial.const(1)
    # a denominator that a later product shares in part: 4, then 6, then 12
    terms = [(quarter_a, ONE, 1), (B.scale(Fraction(1, 6)), ONE, 1),
             (G, Polynomial.const(Fraction(1, 12)), 1)]
    assert checked_sum_of_products(terms)._den == 12


def test_sum_of_products_that_cancels_is_zero():
    rng = random.Random(133)
    for _ in range(50):
        p, q, r = random_poly(rng), random_poly(rng), random_poly(rng)
        assert checked_sum_of_products([(p, q, 1), (q, p, -1)]) is ZERO
        # p(q + r) - pq - pr, with the halves of a product cancelling apart
        terms = [(p, q + r, 2), (q, p, -2), (r.scale(2), p, -1)]
        assert checked_sum_of_products(terms) is ZERO
    # cancelling terms before the rest: a^2 - a^2 + b
    assert checked_sum_of_products([(A, A, 1), (A, A, -1), (B, ONE, 1)]) == B


def test_sum_of_products_of_nothing_or_of_zero_factors_is_zero():
    assert _sum_of_products([]) is ZERO
    assert _sum_of_products(iter(())) is ZERO
    assert checked_sum_of_products([(ZERO, ZERO, 1), (ZERO, A, -1), (B + 1, ZERO, 2)]) is ZERO
    assert checked_sum_of_products([(A, B, 0)]) is ZERO
    # the zero triples are skipped among nonzero ones
    terms = [(ZERO, A, 1), (A, B, 3), (G, ZERO, -1), (B, A, 0)]
    assert checked_sum_of_products(terms) == (A * B).scale(3)


# -- scale -------------------------------------------------------------


def test_scale_half():
    assert (A ** 2).scale(Fraction(1, 2)) == parse("a^2/2")


def test_scale_identity_and_zero():
    rng = random.Random(103)
    for _ in range(20):
        p = random_poly(rng)
        assert p.scale(1) == p
        assert p.scale(0).is_zero()


def test_scale_minus_two():
    assert (A * B).scale(Fraction(1, 2)).scale(-2) == -(A * B)


# -- substitute --------------------------------------------------------


def test_substitute_to_zero():
    p = Polynomial.const(2) * A ** 2 * B
    assert p.substitute({"a": ZERO}).is_zero()


def test_substitute_partial():
    p = A ** 2 + B * G
    assert p.substitute({"b": ZERO, "g": ZERO}) == A ** 2


def test_substitute_poly_value_vanishes():
    p = A.scale(Fraction(1, 2)) * (A ** 2 - B ** 2)
    q = p.substitute({"b": A})
    assert q.is_zero()
    rng = random.Random(104)
    for _ in range(10):
        pt = random_point(rng)
        assert q.eval_at(pt) == 0


def test_substitute_eval_composition():
    rng = random.Random(105)
    for _ in range(50):
        p, q = random_poly(rng), random_poly(rng)
        pt = random_point(rng)
        composed = {**pt, "b": q.eval_at(pt)}
        assert p.substitute({"b": q}).eval_at(pt) == p.eval_at(composed)
        # rational values, and a whole Point, substitute like polynomials
        assert p.substitute({"b": pt["b"]}).eval_at(pt) == p.eval_at(pt)
        assert p.substitute(Point(pt)) == Polynomial.const(p.eval_at(pt))


# every spelling of the four variables, in VARS order
SPELLINGS = (VARS, ("alpha", "beta", "gamma", "delta"), tuple(GREEK[v] for v in VARS))


def random_value(rng):
    """A value to assign: 0 (as an int or ZERO), a rational, a variable
    (often one that is assigned too, so values swap), or a polynomial."""
    r = rng.random()
    if r < 0.25:
        return rng.choice((0, ZERO))
    if r < 0.5:
        return random_rational(rng)
    if r < 0.75:
        return Polynomial.var(rng.choice(VARS))
    return random_poly(rng, max_terms=3, max_exp=2)


def random_assignment(rng):
    """A mapping of one to four variables, in one random spelling each, to
    random values; every fourth one a whole Point."""
    if rng.random() < 0.25:
        return Point(random_point(rng))
    chosen = rng.sample(range(len(VARS)), rng.randint(1, len(VARS)))
    return {rng.choice(SPELLINGS)[i]: random_value(rng) for i in chosen}


def test_substitute_matches_the_term_by_term_reference():
    # one kernel sum against a binary product per assigned power and a
    # binary sum per term, on the integer form itself
    rng = random.Random(137)
    for _ in range(2400):
        p, assignment = random_poly(rng), random_assignment(rng)
        got, want = p.substitute(assignment), reference_substitute(p, assignment)
        assert (got._nums, got._den) == (want._nums, want._den), (p, assignment)
    # substitution is simultaneous: the values read the variables as they were
    p = A ** 2 * B + 3 * B - G
    for swap in ({"a": B, "b": A}, {"β": A, "alpha": B}):
        assert p.substitute(swap) == reference_substitute(p, swap) == B ** 2 * A + 3 * A - G
    assert p.substitute({"a": B, "b": A + G, "g": 0}) == B ** 2 * (A + G) + 3 * (A + G)


def test_substitute_rejects_what_the_reference_rejects():
    for assignment in ({"x": 1}, {"a": 1, "alpha": 2}, {"δ": A, "b": 0, "d": 1},
                       {"a": 1.5}, {"g": True}, {"beta": "b"}):
        with pytest.raises(PolyError) as want:
            reference_substitute(A + B, assignment)
        with pytest.raises(PolyError) as got:
            (A + B).substitute(assignment)
        assert str(got.value) == str(want.value)


def test_substitute_is_one_kernel_call(monkeypatch):
    # a substitution hands the kernel its whole sum in one call; the only
    # other calls are the products inside the values, each built once
    kernel, direct, total = poly._sum_of_products, [], []
    code = Polynomial.substitute.__code__

    def counted(terms):
        total.append(1)
        if sys._getframe(1).f_code is code:
            direct.append(1)
        return kernel(terms)

    monkeypatch.setattr(poly, "_sum_of_products", counted)
    rng = random.Random(138)
    for _ in range(300):
        p, assignment = random_poly(rng), random_assignment(rng)
        del direct[:]
        p.substitute(assignment)
        assert len(direct) == 1, (p, assignment)
    # terms with at most one assigned factor, of degree 1, need no product
    p, assignment, want = A * B + G * D + B, {"a": B + 1, "gamma": 2}, parse("b^2+2b+2d")
    del total[:]
    assert p.substitute(assignment) == want and len(total) == 1
    # the value (b+g)^2 of the three terms with a^2 is built once, by one product
    p, assignment, want = parse("a^2*b+a^2*g+a^2"), {"a": B + G}, parse("(b+g)^3+(b+g)^2")
    del total[:]
    assert p.substitute(assignment) == want and len(total) == 2


# -- eval --------------------------------------------------------------


def test_eval_simple():
    pt = {"a": 3, "b": 4, "g": 0, "d": 0}
    assert (A ** 2 + B ** 2).eval_at(pt) == 25
    assert ZERO.eval_at(pt) == 0


def test_eval_requires_total_point():
    with pytest.raises(PolyError):
        A.eval_at({"a": 1, "b": 2, "g": 3})


def test_eval_is_ring_homomorphism():
    rng = random.Random(106)
    for _ in range(100):
        p, q = random_poly(rng), random_poly(rng)
        pt = random_point(rng)
        assert (p + q).eval_at(pt) == p.eval_at(pt) + q.eval_at(pt)
        assert (p * q).eval_at(pt) == p.eval_at(pt) * q.eval_at(pt)


def eval_oracle(p, point):
    """Term-by-term Fraction reference for eval_at."""
    vals = [Fraction(point[v]) for v in VARS]
    total = Fraction(0)
    for exps, coeff in p.terms.items():
        value = coeff
        for x, e in zip(vals, exps):
            value *= x ** e
        total += value
    return total


def test_eval_matches_fraction_oracle():
    rng = random.Random(110)
    dens = (1, 2, 3, 5, 7, 12, 35)
    for _ in range(300):
        terms = {}
        for _ in range(rng.randint(0, 8)):
            exps = tuple(rng.randint(0, 4) for _ in VARS)
            terms[exps] = Fraction(rng.randint(-20, 20), rng.choice(dens))
        p = Polynomial(terms)
        # negative and int coordinates next to Fractions
        pt = {v: rng.choice((rng.randint(-6, 6), random_rational(rng)))
              for v in VARS}
        want = eval_oracle(p, pt)
        got = p.eval_at(pt)
        assert type(got) is Fraction and got == want, (p, pt)
        assert p.eval_at(pt) == want
    pt = {"a": Fraction(-3, 4), "b": 2, "g": Fraction(5, 6), "d": -1}
    for p in (ZERO, ONE, Polynomial.const(Fraction(-7, 3)),
              (A - G).scale(Fraction(1, 6)) * (B ** 2 + D).scale(Fraction(2, 5))):
        assert p.eval_at(pt) == eval_oracle(p, pt)
    spelled = {"alpha": Fraction(-3, 4), "β": 2, "gamma": Fraction(5, 6), "δ": -1}
    p = parse("a^3*b/7-g*d^2/4+1/3")
    assert p.eval_at(spelled) == p.eval_at(pt) == eval_oracle(p, pt)


def test_a_constant_hashes_as_the_number_it_equals():
    for c in (0, 3, -2, Fraction(5, 7)):
        p = Polynomial.const(c)
        assert p == c and hash(p) == hash(c)
        assert c in {p} and p in {c} and {p: "x"}[c] == "x"
    # constants that arithmetic leaves behind, whatever their denominators were
    for p, c in ((parse("6/4"), Fraction(3, 2)), (A.scale(Fraction(1, 2)) * 4 - 2 * A + 5, 5),
                 (parse("a/3") - A.scale(Fraction(1, 3)), 0), (parse("(a/6+1/4)*12-2a"), 3)):
        assert_canonical(p)
        assert p == c and hash(p) == hash(c) and c in {p}, (p, c)
    assert Polynomial.zero() == 0 and 0 in {Polynomial.zero()}
    assert 3 in {Polynomial.const(3)} and 3 not in {A + 3}
    assert hash(A + 3) == hash(3 + A) and hash(parse("a*b/2")) == hash((B * A).scale(Fraction(1, 2)))


def test_eval_leaves_equality_hash_and_immutability_alone():
    p = parse("a^2/3-b*g/5+d/2")
    twin = parse("d/2+a^2/3-g*b/5")
    before = hash(p)
    pt = {"a": 1, "b": Fraction(-2, 3), "g": 4, "d": Fraction(1, 7)}
    first = p.eval_at(pt)
    assert p.eval_at(pt) == first == eval_oracle(p, pt)
    assert p == twin and hash(p) == before == hash(twin)
    with pytest.raises(AttributeError):
        p.terms = {}
    with pytest.raises(AttributeError):
        p.anything = 1


def test_eval_rejects_bad_points():
    p = A + B
    full = {"a": 1, "b": 2, "g": 3, "d": 4}
    for method in (p.eval_at, p.vanishes_at):
        with pytest.raises(PolyError, match="unknown variable"):
            method({**full, "x": 1})
        with pytest.raises(PolyError, match="misses variables"):
            method({"a": 1, "b": 2, "g": 3})
        with pytest.raises(PolyError, match="not an exact rational"):
            method({**full, "b": 0.5})


def test_vanishes_at_is_the_zero_test_of_eval_at():
    # table points, 30-digit coordinates and zero coordinates; a factor
    # a, a - b or g*d - 1 makes some polynomials vanish at some of them,
    # so both answers occur
    rng = random.Random(118)
    big = Fraction(10 ** 29 + 7, 3 * 10 ** 29 + 1)
    raws = [random_point(rng) for _ in range(12)]
    raws += [{"a": big, "b": big, "g": -big, "d": 1 / big},
             {"a": Fraction(-10 ** 30 + 1, 7), "b": 0, "g": big, "d": Fraction(3, 4)},
             {"a": 0, "b": 0, "g": 0, "d": 0},
             {"a": 0, "b": Fraction(2, 3), "g": Fraction(3, 2), "d": Fraction(2, 3)}]
    points = [Point(raw) for raw in raws]
    factors = (ONE, A, A - B, G * D - 1)
    polys = [random_poly(rng) * rng.choice(factors) for _ in range(150)]
    polys += [ZERO, ONE, Polynomial.const(Fraction(-7, 3))]
    seen = set()
    for p in polys:
        for raw, pt in zip(raws, points):
            got = p.vanishes_at(pt)
            assert got is (p.eval_at(pt) == 0) is (eval_oracle(p, raw) == 0), (p, raw)
            assert p.vanishes_at(raw) is got
            seen.add(got)
    assert seen == {True, False}
    assert all(ZERO.vanishes_at(pt) for pt in points)
    assert not any(ONE.vanishes_at(pt) for pt in points)


# -- kernels -------------------------------------------------------------

BIG = 10 ** 99 + 289  # 100 digits
KERNEL_ARGS = ("n0", "d0", "n1", "d1", "n2", "d2", "n3", "d3")


def kernel_test_polys(rng):
    """Seeded random polynomials, some with a factor that vanishes on the
    kernel test points; constants, the zero polynomial, degree 12 and
    100-digit coefficients."""
    polys = [random_poly(rng) * rng.choice((ONE, A - B, G * D - 1)) for _ in range(120)]
    polys += [ZERO, ONE, Polynomial.const(-BIG), Polynomial.const(Fraction(BIG, 7))]
    polys += [parse("a^12-3*b^5*g^7/11+(a-d)^6*(b+g)^6"), (A - B) * G ** 11,
              parse(f"{BIG}*a^2*b-{BIG}/{BIG - 2}*g^5*d+3"), D ** 12 - Polynomial.const(BIG)]
    return polys


def kernel_test_points(rng):
    """Table, negative, zero and 30-digit coordinates, with a = b and
    g*d = 1 among them."""
    big = Fraction(10 ** 29 + 7, 3 * 10 ** 29 + 1)
    raws = [random_point(rng) for _ in range(6)]
    raws += [{"a": big, "b": big, "g": -big, "d": -1 / big},
             {"a": Fraction(-10 ** 30 + 1, 7), "b": 0, "g": big, "d": 1 / big},
             {"a": 0, "b": 0, "g": 0, "d": 0},
             {"a": -3, "b": -3, "g": Fraction(-5, 2), "d": Fraction(-2, 5)},
             {"a": 10 ** 30, "b": -(10 ** 30), "g": 1, "d": Fraction(-1, 10 ** 30)}]
    return raws


def test_kernel_values_and_zero_tests_match_the_oracle():
    rng = random.Random(119)
    raws = kernel_test_points(rng)
    seen = set()
    for p in kernel_test_polys(rng):
        for raw in raws:
            want = eval_oracle(p, raw)
            for pt in (Point(raw), raw):
                got = p.eval_at(pt)
                assert type(got) is Fraction and got == want, (p, raw)
                assert p.vanishes_at(pt) is (want == 0), (p, raw)
            seen.add(want == 0)
    assert seen == {True, False}


def test_evaluation_compiles_no_kernel(monkeypatch):
    # a value shown once is cheaper to compute from the integer form than
    # to compile; only the condition kernels of the sampling loops compile
    builds = []
    monkeypatch.setattr(poly, "_make_kernel", lambda expression: builds.append(expression))
    rng = random.Random(120)
    raws = kernel_test_points(rng)
    for p in kernel_test_polys(rng):
        for raw in raws:
            want = eval_oracle(p, raw)
            for pt in (Point(raw), raw):
                got = p.eval_at(pt)
                assert type(got) is Fraction and got == want, (p, raw)
                assert p.vanishes_at(pt) is (want == 0), (p, raw)
    assert builds == []


def integer_form_test_polys(rng):
    """Seeded random polynomials with unit, integer and fractional
    coefficients, exponents up to MAX_DEGREE (above 4 a power is written
    with **) and top exponents from 1 to MAX_DEGREE, and the constants."""
    polys = [ZERO, ONE, -ONE, Polynomial.const(7), Polynomial.const(Fraction(-3, 4))]
    for _ in range(400):
        top = rng.randint(1, poly.MAX_DEGREE)
        terms = {}
        for _ in range(rng.randint(1, 6)):
            exps = tuple(rng.randint(0, top) for _ in VARS)
            terms[exps] = rng.choice((1, -1, 1, -1, rng.randint(-99, 99),
                                      Fraction(rng.randint(-9, 9), rng.randint(1, 9))))
        polys.append(Polynomial(terms))
    return polys


def test_integer_form_is_the_reference_writers_text():
    polys = integer_form_test_polys(random.Random(121))
    nums = {n for p in polys for n in p._nums.values()}
    exps = {e for p in polys for t in p._nums for e in t}
    assert {1, -1} <= nums and {0, 5, poly.MAX_DEGREE} <= exps
    for p in polys:
        assert p._integer_form() == reference_integer_form(p), p


def test_factor_texts_are_written_on_first_use_not_at_import():
    # a command that compiles no kernel writes no factor text
    out = run_python("-c", "import liecodazzi.cli, liecodazzi.poly as p; "
                           "print(p._factor_text.cache_info().currsize)")
    assert (out.returncode, out.stdout.split()) == (0, [b"0"]), out.stderr


def test_condition_kernel_source_tests_integer_forms_against_zero(monkeypatch):
    sources = []
    build = poly._make_kernel
    monkeypatch.setattr(poly, "_make_kernel", lambda expression: sources.append(expression)
                        or build(expression))
    rng = random.Random(122)
    raws = kernel_test_points(rng)
    polys = kernel_test_polys(rng) + [ZERO, Polynomial.const(-2)]
    sets = [ConstraintSet(tuple(rng.sample(polys, rng.randint(0, 2))),
                          tuple(rng.sample(polys, rng.randint(0, 2)))) for _ in range(12)]
    # sets that repeat a condition, as a residual system repeats a residual
    p, q, r = A - B, G * D - 1, A + D ** 5
    sets += [ConstraintSet((p, q, p, ZERO, p), (r, r)), ConstraintSet((r, r, r), ()),
             ConstraintSet((), (q, p, q))]
    kernels = [poly._condition_kernel(s) for s in sets]
    assert len(sources) == len(kernels)
    # each distinct test once, in first-occurrence order: for a set with no
    # repeated condition, the text of the reference writer's conditions
    for s, expression in zip(sets, sources):
        tests = [f"not ({reference_integer_form(p)})" for p in s.equalities if p]
        tests += [f"{reference_integer_form(q)} != 0" for q in s.inequations]
        assert expression == (" and ".join(dict.fromkeys(tests)) or "True")
    assert [len(e.split(" and ")) for e in sources[-3:]] == [3, 1, 2]
    for kernel in kernels:
        assert tuple(inspect.signature(kernel).parameters) == KERNEL_ARGS
        assert kernel.__code__.co_names == () and kernel.__globals__ == {"__builtins__": {}}
    allowed = (ast.Expression, ast.BinOp, ast.UnaryOp, ast.BoolOp, ast.Compare, ast.Add,
               ast.Sub, ast.Mult, ast.Pow, ast.USub, ast.Not, ast.And, ast.NotEq, ast.Load)
    for expression in sources:
        for node in ast.walk(ast.parse(expression, mode="eval")):
            if isinstance(node, ast.Constant):
                assert type(node.value) in (int, bool), expression
            elif isinstance(node, ast.Name):
                assert node.id in KERNEL_ARGS, expression
            else:
                assert isinstance(node, allowed), (ast.dump(node), expression)
    # each kernel against the oracle's values: its set is met
    seen = set()
    for s, kernel in zip(sets, kernels):
        for raw in raws:
            want = (all(eval_oracle(p, raw) == 0 for p in s.equalities)
                    and all(eval_oracle(q, raw) != 0 for q in s.inequations))
            assert kernel(*Point(raw)._ints) is want, (s, raw)
            seen.add(want)
    assert seen == {True, False}


# -- Point -------------------------------------------------------------


def test_eval_at_a_shared_point_matches_the_oracle_in_either_order():
    # the polynomials give one variable different top exponents, so their
    # integer values scale one coordinate differently, whichever order
    # they run in
    p, q = parse("a^3*b-g/2+d"), parse("a*b^4-3*d^2/5+a^2")
    rng = random.Random(111)
    for _ in range(100):
        raw = random_point(rng)
        polys = [p, q] + [random_poly(rng, max_exp=e) for e in (1, 2, 4)]
        want = [eval_oracle(r, raw) for r in polys]
        for order in (slice(None), slice(None, None, -1)):
            pt = Point(raw)
            assert [r.eval_at(pt) for r in polys[order]] == want[order]
            assert [r.eval_at(pt) for r in polys] == want


def test_points_sharing_coordinate_values_share_correct_tables():
    # coordinate values repeat within a point (a = b = 3/4) and across
    # points, next to 30-digit coordinates; polynomials with different top
    # exponents interleave, in both orders
    big = Fraction(10 ** 29 + 7, 3 * 10 ** 29 + 1)
    q = Fraction(3, 4)
    raws = [
        {"a": q, "b": q, "g": -q, "d": 0},
        {"a": big, "b": q, "g": -big, "d": q},
        {"a": 1, "b": q, "g": q, "d": Fraction(-10 ** 30 + 1, 7)},
        {"a": big, "b": big, "g": big, "d": big},
        {"a": q, "b": Fraction(-3, 4), "g": 0, "d": -1},
    ]
    rng = random.Random(117)
    polys = [parse("a^3*b-g/2+d"), parse("a*b^4-3*d^2/5+a^2"), parse("a^5-b^5+g*d")]
    polys += [random_poly(rng, max_exp=e) for e in (1, 2, 4, 6)]
    points = [Point(raw) for raw in raws]
    for _ in range(3):
        for p in polys:
            for raw, pt in zip(raws, points):
                assert p.eval_at(pt) == eval_oracle(p, raw), (p, raw)
        polys.reverse()


def test_coordinate_built_point_equals_the_checked_one():
    rng = random.Random(121)
    for raw in kernel_test_points(rng) + [random_point(rng) for _ in range(50)]:
        checked = Point(raw)
        pairs = tuple(Fraction(raw[v]).as_integer_ratio() for v in VARS)
        built = Point._of_ints(sum(pairs, ()))
        assert dict(built) == dict(checked) == {v: Fraction(raw[v]) for v in VARS}
        assert built._ints == checked._ints == sum(pairs, ())
        assert built == checked and built.text() == checked.text()
        assert all(type(built[v]) is Fraction for v in VARS)
    coords = (Fraction(3, 4), Fraction(3, 4), Fraction(-7, 2), Fraction(0))
    pt = Point._of_ints(sum((c.as_integer_ratio() for c in coords), ()))
    raw = dict(zip(VARS, coords))
    assert pt == Point(raw) == raw and pt._ints == Point(raw)._ints
    assert pt._ints == (3, 4, 3, 4, -7, 2, 0, 1)
    for twin in (copy.copy(pt), copy.deepcopy(pt), pickle.loads(pickle.dumps(pt))):
        assert type(twin) is Point and twin == pt and twin._ints == pt._ints
    p = parse("a^2*b-g^3/5+d")
    assert p.eval_at(pt) == p.eval_at(raw) == eval_oracle(p, raw)


def test_point_is_an_immutable_mapping_equal_to_its_dict():
    raw = {"a": 1, "b": Fraction(-2, 3), "g": 0, "d": Fraction(5, 7)}
    pt = Point(raw)
    assert pt == raw and dict(pt) == raw and list(pt) == list(VARS) and len(pt) == 4
    assert all(type(pt[v]) is Fraction for v in VARS)
    assert Point.of(pt) is pt and Point.of(raw) == pt
    assert Point({"alpha": 1, "β": Fraction(-2, 3), "gamma": 0, "δ": Fraction(5, 7)}) == pt
    assert pt != {**raw, "d": 0}
    with pytest.raises(KeyError):
        pt["alpha"]  # the keys are VARS; aliases are read at construction
    with pytest.raises(TypeError):
        pt["a"] = 2
    with pytest.raises(AttributeError):
        pt.a = 2
    with pytest.raises(AttributeError):
        pt._ints = (0, 1) * 4
    assert pt == raw
    for twin in (copy.copy(pt), copy.deepcopy(pt), pickle.loads(pickle.dumps(pt))):
        assert type(twin) is Point and twin == pt


def test_point_text_lists_the_coordinates_by_name():
    pt = Point({"d": Fraction(5, 7), "alpha": 1, "g": 0, "b": Fraction(-2, 3)})
    assert pt.text() == "a = 1, b = -2/3, d = 5/7, g = 0"


def test_point_rejects_bad_input_with_the_eval_messages():
    full = {"a": 1, "b": 2, "g": 3, "d": 4}
    with pytest.raises(PolyError, match="unknown variable 'x'"):
        Point({**full, "x": 1})
    with pytest.raises(PolyError, match=r"point misses variables \['d'\]"):
        Point({"a": 1, "b": 2, "g": 3})
    with pytest.raises(PolyError, match="not an exact rational: 0.5"):
        Point({**full, "b": 0.5})


def test_polynomial_rejects_an_exponent_that_is_not_an_int():
    # int() would read 1.5 as 1, True as 1 and "2" as 2
    for exps in ((1.5, 0, 0, 0), (True, 0, 0, 0), (0, 0, False, 0), (Fraction(2), 0, 0, 0),
                 ("2", 0, 0, 0), (0, -1, 0, 0), (1, 0, 0)):
        with pytest.raises(PolyError, match="bad exponent tuple"):
            Polynomial({exps: 1})
    assert Polynomial({(2, 0, 0, 1): 3, (0, 0, 0, 0): -1}) == parse("3*a^2*d-1")


def test_bools_are_not_exact_rationals():
    # a bool is an int to isinstance, and would pass as 0 or 1
    p = parse("a+b")
    spellings = (lambda: Polynomial.const(True), lambda: Point({"a": True, "b": 0, "g": 0, "d": 0}),
                 lambda: p ** True, lambda: p + True, lambda: False * p, lambda: p.scale(True),
                 lambda: p.substitute({"a": True}), lambda: p.eval_at({"a": 1, "b": 0, "g": 0, "d": False}))
    for spelling in spellings:
        with pytest.raises(PolyError):
            spelling()
    # equality asks no rationality: no polynomial equals a bool
    assert ONE != True and not ONE == True and ZERO != False
    assert p ** 1 == p + 0 == p and Polynomial.const(1) == ONE


def test_point_json_of_a_point_is_unchanged():
    raw = {"d": Fraction(5, 7), "a": 1, "g": 0, "b": Fraction(-2, 3)}
    assert _point_json(Point(raw)) == _point_json(raw) == {
        "a": "1", "b": "-2/3", "d": "5/7", "g": "0"}


def test_a_variable_given_twice_is_rejected():
    # a second spelling of a variable must not silently replace the first
    twice = {"a": 1, "alpha": 2, "b": 0, "g": 0, "d": 0}
    with pytest.raises(PolyError, match=r"variable 'a' is given twice: \['a', 'alpha'\]"):
        A.eval_at(twice)
    with pytest.raises(PolyError, match="variable 'a' is given twice"):
        make_group("G2", numeric_params={**twice, "g": 3})
    with pytest.raises(PolyError, match="variable 'g' is given twice"):
        Point({"a": 1, "b": 0, "γ": 2, "gamma": 2, "d": 0})


def test_substitute_rejects_a_variable_given_twice():
    with pytest.raises(PolyError, match=r"variable 'a' is given twice: \['a', 'alpha'\]"):
        A.substitute({"a": 1, "alpha": 2})
    with pytest.raises(PolyError, match=r"variable 'b' is given twice: \['b', 'beta'\]"):
        (A + B).substitute({"b": A, "beta": 0})
    with pytest.raises(PolyError, match=r"variable 'g' is given twice: \['γ', 'g'\]"):
        (A + G).substitute({"γ": 1, "g": 1})
    assert (A + G).substitute({"gamma": A}) == A.scale(2)


# -- is_zero -----------------------------------------------------------


def test_is_zero_on_cancellation():
    assert (A * B - A * B).is_zero()
    assert not (A ** 2 * G).is_zero()


def test_is_zero_implies_zero_evaluation():
    rng = random.Random(107)
    for _ in range(100):
        p, q = random_poly(rng), random_poly(rng)
        candidates = [p - p, p * q - q * p, (p + q) - q - p]
        for c in candidates:
            assert c.is_zero()
            for _ in range(10):
                assert c.eval_at(random_point(rng)) == 0


# -- ring axioms (acceptance: 500 random cases) --------------------------


def test_ring_axioms_500_cases():
    rng = random.Random(108)
    for _ in range(500):
        p, q, r = random_poly(rng), random_poly(rng), random_poly(rng)
        assert p + q == q + p
        assert p * q == q * p
        assert (p + q) + r == p + (q + r)
        assert (p * q) * r == p * (q * r)
        assert p * (q + r) == p * q + p * r
        assert (p + (-p)).is_zero()
        assert p + ZERO == p
        assert p * ONE == p
        for result in (p + q, p * q, -p, p - q):
            assert_canonical(result)


# -- rendering and parsing ----------------------------------------------


def test_text_negative_group():
    assert (-(A ** 2 + B ** 2)).text() == "-(a^2+b^2)"


def test_text_examples():
    assert ZERO.text() == "0"
    assert (A * B).scale(Fraction(-1, 2)).text() == "-1/2*a*b"
    assert (A ** 2 - B ** 2).text() == "a^2-b^2"
    assert (A + D).text(greek=True) == "α+δ"


def test_text_ordering_deterministic():
    p = A + B ** 2 + G * D + Polynomial.const(Fraction(1, 3))
    assert p.text() == "b^2+g*d+a+1/3"


def test_parse_accepts_aliases_and_implicit_mul():
    assert parse("alpha") == A
    assert parse("2a") == A.scale(2)
    assert parse("a(b+g)") == A * (B + G)
    assert parse("α^2") == A ** 2


def test_parse_rejects_junk():
    for bad in ("", "a +", "x", "a^-2", "a/(b)", "2//3", "(a"):
        with pytest.raises(PolyParseError):
            parse(bad)


def test_parse_reads_a_name_and_its_digits_as_one_word():
    # "a2" is no name, not 2*a; a number before a name still multiplies
    for text, word in (("a2", "a2"), ("2a2", "a2"), ("b+alpha1", "alpha1"), ("α2", "α2")):
        with pytest.raises(PolyParseError, match=f"unknown name '{word}' in"):
            parse(text)
    assert parse("2a") == A.scale(2)
    assert parse("a^2b") == A ** 2 * B


def test_parse_takes_only_ascii_digits_as_numbers():
    for bad in ("a^²", "²", "a²", "b+١"):
        with pytest.raises(PolyParseError):
            parse(bad)


def test_parse_resolves_a_name_table():
    names = {"h": Polynomial.const(-1), "m": A + B}
    assert parse("2*h-b", names) == B.scale(-1) - 2
    assert parse("m^2h", names) == -(A + B) ** 2
    # variables and their aliases come first; other words stay unknown
    assert parse("alpha", {"alpha": B}) == A
    for bad in ("h", "m"):
        with pytest.raises(PolyParseError, match=f"unknown name '{bad}' in"):
            parse(bad)
    with pytest.raises(PolyParseError, match="unknown name 'h1' in"):
        parse("h1", names)


def test_parse_caps_degrees():
    cap = poly.MAX_DEGREE
    assert parse(f"a^{cap}") == A ** cap
    assert parse(f"(a+b)^{cap // 2}(a-b)^{cap // 2}") == (A * A - B * B) ** (cap // 2)
    # rejected before the power or product is computed, so each call is cheap
    for bad in (f"a^{cap + 1}", "b^99999999", "(a+b)^99999999", f"(a^2)^{cap}",
                f"a^{cap}*b", "(a+b+g+d)^12" * 3):
        with pytest.raises(PolyParseError, match="degree above"):
            parse(bad)


def test_parse_caps_number_length():
    cap = poly.MAX_DIGITS
    assert parse("9" * cap) == Polynomial.const(10 ** cap - 1)
    # rejected before int(), whose own 4,300-digit limit raises a bare ValueError
    for bad in ("1" * (cap + 1), "a+" + "1" * 5000, "1/" + "7" * 5000):
        with pytest.raises(PolyParseError, match=f"at most {cap}"):
            parse(bad)


def test_parse_caps_nesting():
    cap = poly.MAX_NESTING
    half = cap // 2
    assert parse("(" * cap + "a" + ")" * cap) == A
    assert parse("-" * cap + "a") == A.scale((-1) ** cap)
    assert parse("+" * cap + "a") == A
    assert parse("-(" * half + "a" + ")" * half) == A.scale((-1) ** half)
    # the depth is the current nesting, not a count over the whole text
    assert parse("+".join(["(" * cap + "a" + ")" * cap] * 3)) == A.scale(3)
    # rejected before the recursion limit, which raised a bare RecursionError
    for bad in ("(" * (cap + 1) + "a" + ")" * (cap + 1), "-" * (cap + 1) + "a",
                "+" * (cap + 1) + "a", "-(" * half + "-a" + ")" * half,
                "(" * 300 + "a" + ")" * 300, "-" * 1000 + "a",
                # a closed level must not leave room for an extra one
                "(a)+" + "(" * (cap + 1) + "a" + ")" * (cap + 1),
                "(a)*" + "-" * (cap + 1) + "a"):
        with pytest.raises(PolyParseError, match=f"nesting deeper than {cap}"):
            parse(bad)


def test_text_round_trip():
    rng = random.Random(109)
    for _ in range(200):
        p = random_poly(rng)
        assert parse(p.text()) == p
        assert parse(p.text(greek=True)) == p


def test_to_json_format():
    assert ZERO.to_json() == []
    assert (A ** 2 * B).scale(Fraction(3, 2)).to_json() == [
        {"coeff": "3/2", "exps": {"a": 2, "b": 1}}
    ]


def test_monic_and_leading_coeff():
    p = (A ** 2).scale(-2) + B
    assert leading_coeff(p) == -2
    assert p.monic() == A ** 2 - B.scale(Fraction(1, 2))
    assert ZERO.monic() == ZERO


def test_no_operation_leaves_a_float_coefficient():
    # every division is a Fraction or integer one: an int / int slip would
    # store a float numerator or show a float coefficient
    half = Fraction(1, 2)
    results = {
        "monic": (2 * A + 1).monic(),
        "monic of a negative lead": (-(A.scale(3)) + Fraction(2, 5)).monic(),
        "monic of a constant": parse("7/3").monic(),
        "scale by a Fraction": (A * B + 3).scale(Fraction(2, 3)),
        "scale by an int": parse("a/4+b/6").scale(6),
        "parse division": parse("a/2"),
        "parse division by a fraction": parse("b/(3/4) - 5/10"),
        "remainder": (A ** 4).remainder(B ** 2 - (A ** 2).scale(2)),
        "remainder by a fraction lead": parse("a^2*b+3*a*g").remainder(parse("2*a/3-d")),
    }
    for what, p in results.items():
        assert_canonical(p)
        assert all(type(c) is Fraction for c in p.terms.values()), what
        assert all(type(c) is Fraction for c in (leading_coeff(p), leading_coeff(p.monic()))), what
    assert results["monic"] == A + half and results["parse division"] == A.scale(half)
    assert results["monic of a negative lead"] == A - Fraction(2, 15)
    assert results["monic of a constant"] == ONE
    assert results["scale by an int"] == parse("3*a/2+b")
    assert results["parse division by a fraction"] == parse("4*b/3-1/2")
    assert results["remainder by a fraction lead"] == parse("9*b*d^2/4+9*g*d/2")
    for c in (parse("9/6").constant_value(), ZERO.constant_value(), leading_coeff(ZERO)):
        assert type(c) is Fraction


# -- remainder ---------------------------------------------------------


def test_remainder_matches_sympy_reduced():
    sympy = pytest.importorskip("sympy")
    syms = sympy.symbols("a b g d")

    def to_sympy(p):
        return sympy.Add(*(sympy.Rational(c.numerator, c.denominator)
                           * sympy.Mul(*(s ** e for s, e in zip(syms, exps)))
                           for exps, c in p.terms.items()))

    def from_sympy(expr):
        return Polynomial({exps: Fraction(int(c.p), int(c.q))
                           for exps, c in sympy.Poly(expr, *syms).terms()})

    rng = random.Random(223)
    checked = 0
    for _ in range(150):
        p, f = random_poly(rng), random_poly(rng, max_terms=3, max_exp=2)
        if f.is_zero():
            continue
        _, r = sympy.reduced(to_sympy(p), [to_sympy(f)], *syms, order="grlex", domain="QQ")
        assert p.remainder(f) == from_sympy(r), (p, f)
        checked += 1
    assert checked > 100


def test_remainder_by_zero_constant_and_monomial_divisors():
    p = parse("a^2*b+3*a*g-d+5")
    assert p.remainder(ZERO) == p
    assert p.remainder(parse("7")) == ZERO
    assert p.remainder(parse("-2*a")) == parse("5-d")
    assert p.remainder(A * G) == parse("a^2*b-d+5")
    assert ZERO.remainder(A) == ZERO


def test_remainder_by_several_divisors_reduces_by_each_in_turn():
    rng = random.Random(227)
    for _ in range(50):
        p, f, g = random_poly(rng), random_poly(rng, max_terms=3), random_poly(rng, max_terms=3)
        assert p.remainder(f, g) == p.remainder(f).remainder(g), (p, f, g)
        assert p.remainder() == p


def test_remainder_ends_when_the_tail_shares_variables_with_the_lead():
    # each step brings in a smaller term of the same variables
    assert (A ** 5).remainder(A ** 2 - A * B) == A * B ** 4
    assert (A ** 3 * B ** 3).remainder(A * B - A) == A ** 3
    assert (A ** 4).remainder(B ** 2 - (A ** 2).scale(2)) == (B ** 4).scale(Fraction(1, 4))


def test_errors_quote_at_most_60_characters_of_the_input():
    assert poly.quoted("a+b") == "'a+b'"
    assert poly.quoted("x" * 5000) == "'" + "x" * 59 + "..."
    for bad in ("a=" + "(" * 300 + "b" + ")" * 300, "x" * 5000, "a+" * 3000 + "?"):
        with pytest.raises(PolyParseError) as exc:
            parse(bad)
        assert len(str(exc.value)) <= 200


def test_immutability():
    with pytest.raises(AttributeError):
        A.terms = {}


def test_negation_of_zero_is_zero_itself():
    assert -ZERO is ZERO
    zero = Polynomial({(1, 0, 0, 0): 0})
    assert -zero is zero and zero == ZERO
    assert -(-A) == A and (-A)._nums == {(1, 0, 0, 0): -1}


def test_a_negated_frame_vector_is_an_immutable_value():
    # FrameVector.__neg__ builds its result without re-checking the
    # components; it must still be a FrameVector like one built by __init__
    v = FrameVector(A, Fraction(1, 2), 0)
    neg = -v
    assert type(neg) is FrameVector and neg == FrameVector(-A, Fraction(-1, 2), 0)
    assert neg.c[2] is ZERO and -neg == v and hash(-neg) == hash(v)
    with pytest.raises(AttributeError):
        neg.c = (A, A, A)
    with pytest.raises(AttributeError):
        del neg.c
    with pytest.raises(AttributeError):
        neg.other = 1
    assert neg == FrameVector(-A, Fraction(-1, 2), 0)
    for twin in (copy.copy(neg), copy.deepcopy(neg), pickle.loads(pickle.dumps(neg))):
        assert type(twin) is FrameVector and twin == neg and hash(twin) == hash(neg)
        assert type(twin.c) is tuple and all(type(x) is Polynomial for x in twin.c)


@pytest.mark.parametrize("value, names", [
    (parse("a^2/3-b*g/5+d/2"), ("_nums", "_den")), (ZERO, ("_nums", "_den")),
    (Point({"a": 1, "b": Fraction(-2, 3), "g": 0, "d": 5}), ("_ints",)),
    (FrameVector(A, Fraction(1, 2), 0), ("c",)), (E1, ("c",)),
], ids=["polynomial", "zero", "point", "frame-vector", "e1"])
def test_stored_attributes_cannot_be_deleted(value, names):
    # ZERO, E1 and every cached table entry are shared, so a deletion
    # would break every later reader of them
    before = copy.deepcopy(value)
    for name in names:
        with pytest.raises(AttributeError):
            delattr(value, name)
    with pytest.raises(AttributeError):
        del value.anything
    assert value == before


def test_copies_and_pickles_equal_their_original():
    L = make_group("G1")
    build_system(L, "bott", "codazzi")  # fills L.derived
    p = parse("a+b/2")
    p.eval_at({"a": 1, "b": 1, "g": 0, "d": 0})  # keeps nothing on p
    assert p.terms  # nor does the Fraction view
    for original in (p, E1, L):
        for twin in (copy.copy(original), copy.deepcopy(original),
                     pickle.loads(pickle.dumps(original))):
            assert type(twin) is type(original) and twin == original
    for twin in (copy.copy(p), copy.deepcopy(p), pickle.loads(pickle.dumps(p))):
        assert_canonical(twin)
        assert (twin._nums, twin._den, hash(twin)) == (p._nums, p._den, hash(p))
    assert copy.copy(p).eval_at({"a": 1, "b": 1, "g": 0, "d": 0}) == Fraction(3, 2)
    big = parse(f"{BIG}*a^2*b-g^5*d/7+3")
    pt = Point({"a": Fraction(-2, 3), "b": 5, "g": 0, "d": Fraction(10 ** 30, 7)})
    value = big.eval_at(pt)
    for twin in (copy.copy(big), copy.deepcopy(big), pickle.loads(pickle.dumps(big))):
        assert twin == big and hash(twin) == hash(big) and twin.terms == big.terms
        assert twin.eval_at(pt) == value and twin.vanishes_at(pt) is big.vanishes_at(pt) is False
