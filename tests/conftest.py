"""Shared helpers: seeded random rationals and polynomials for property tests."""

from fractions import Fraction

from liecodazzi.poly import VARS, Polynomial


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
