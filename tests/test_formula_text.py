"""Formula text against its references: poly.parse against the recursive
descent it replaced (reference_parse) on the data files, on seeded texts
of the grammar and on corruptions of them, and Polynomial.text and
to_json against the Fraction renderer (reference_text) on random and
derived polynomials."""

import json
import random
from importlib import resources

import pytest

from conftest import (
    all_groups, random_poly, random_rational, reference_parse, reference_sorted_terms,
    reference_text,
)
from liecodazzi.classify import OBJECTS, STRUCTURES, build_system, compute_object, table_names
from liecodazzi.connection import KINDS
from liecodazzi.poly import (
    A, MAX_NESTING, VARS, ZERO, Polynomial, PolyParseError, parse,
)

DATA_FILES = ("claims.json", "printed_bott.json", "printed_canonical.json", "printed_kn.json",
              "printed_systems.json")

# every spelling of a variable that parse reads
SPELLINGS = ("a", "b", "g", "d", "alpha", "beta", "gamma", "delta", "α", "β", "γ", "δ")


def outcome(parser, text, names=None):
    """The integer form of parser(text, names), its terms in insertion
    order, or the error message when it raises PolyParseError."""
    try:
        p = parser(text, names)
    except PolyParseError as exc:
        return "error: " + str(exc)
    return list(p._nums.items()), p._den


def outcomes(text, names=None):
    """(outcome of parse, outcome of reference_parse) on text."""
    return outcome(parse, text, names), outcome(reference_parse, text, names)


def both_fail(new, old):
    return isinstance(new, str) and isinstance(old, str)


def data_strings(node):
    """Every string value (not key) in a parsed JSON document."""
    if isinstance(node, str):
        yield node
    elif isinstance(node, dict):
        for value in node.values():
            yield from data_strings(value)
    elif isinstance(node, list):
        for value in node:
            yield from data_strings(value)


def test_parse_matches_the_reference_on_every_data_file_string():
    # every string of the five data files, formula or not, on each
    # branch's name table: formulas must give identical integer forms,
    # and ids, comments and garbled prints must fail in both
    texts = set()
    for name in DATA_FILES:
        with resources.files("liecodazzi.data").joinpath(name).open(encoding="utf-8") as fh:
            texts.update(data_strings(json.load(fh)))
    parsed = set()
    for eta in (None, 1, -1):
        names = table_names(eta)
        for text in sorted(texts):
            new, old = outcomes(text, names)
            assert new == old or both_fail(new, old), (text, eta)
            if not isinstance(new, str):
                parsed.add(text)
    assert len(parsed) == 238


def random_text(rng, depth=0):
    """A seeded text of the parse grammar: sums of products with implicit
    products, unary sign chains, powers, division by constants, aliases,
    Greek names and whitespace."""
    def space():
        return rng.choice(("", "", "", " ", "  ", "\t"))

    def atom():
        roll = rng.random()
        if roll < 0.3:
            return str(rng.randint(0, 12))
        if roll < 0.85 or depth >= 2:
            return rng.choice(SPELLINGS)
        return "(" + space() + random_text(rng, depth + 1) + space() + ")"

    def factor(signed=True):
        signs = ""
        if signed and rng.random() < 0.3:
            # mostly short chains, now and then up to the cap or past it
            roll = rng.random()
            length = (MAX_NESTING + 1 if roll < 0.01 else MAX_NESTING - depth if roll < 0.04
                      else rng.choice((1, 1, 2, 3)))
            signs = "".join(rng.choice("+-") + space() for _ in range(length))
        text = signs + atom()
        if rng.random() < 0.25:
            text += space() + "^" + space() + str(rng.randint(0, 3))
        return text

    def term():
        text = factor()
        for _ in range(rng.randint(0, 2)):
            roll = rng.random()
            if roll < 0.4:
                text += space() + "*" + space() + factor()
            elif roll < 0.6:
                m, k = rng.randint(1, 9), rng.randint(1, 9)
                divisor = rng.choice((str(m), f"({m}/{k})", f"(-{m})"))
                text += space() + "/" + space() + divisor
            else:
                # an implicit product: a space keeps "a b" and "2 3" apart
                right = factor(signed=False)
                glue = " " if text[-1].isalnum() and right[0].isalnum() and not (
                    text[-1].isdigit() and right[0].isalpha()) else space()
                text += glue + right
        return text

    text = term()
    for _ in range(rng.randint(0, 3)):
        text += space() + rng.choice("+-") + space() + term()
    return text


def grammar_texts(seed, count):
    rng = random.Random(seed)
    return [random_text(rng) for _ in range(count)]


def test_parse_matches_the_reference_on_grammar_texts():
    parsed = 0
    for text in grammar_texts(401, 2000):
        new, old = outcomes(text)
        # the same integer form, or the same error message
        assert new == old, text
        parsed += not isinstance(new, str)
    # nearly all of them parse; the rest break a cap in both
    assert parsed > 0.9 * 2000


def corrupt(rng, text):
    """text with one character dropped, doubled, or swapped with the next."""
    i = rng.randrange(len(text))
    how = rng.choice(("drop", "double", "swap"))
    if how == "drop":
        return text[:i] + text[i + 1:]
    if how == "double":
        return text[:i] + text[i] + text[i:]
    return text[:i] + text[i + 1:i + 2] + text[i] + text[i + 2:]


def test_parse_agrees_with_the_reference_on_corrupted_texts():
    # a corrupted text may have several faults, which the two parsers
    # report in different orders; they must agree on whether it parses
    rng = random.Random(409)
    failed = 0
    for text in grammar_texts(403, 2000):
        text = corrupt(rng, text)
        new, old = outcomes(text)
        assert new == old or both_fail(new, old), text
        failed += isinstance(new, str)
    assert 0.1 * 2000 < failed < 0.9 * 2000


def test_parse_degree_cap_reads_the_actual_degree():
    # a cancelled sum has degree -1 (zero), not the degree of its terms
    assert parse("(a^12-a^12)*a") == ZERO
    assert parse("(a^12+b-a^12)*a^11") == parse("a^11*b")
    assert parse("(a^12-a^12)^12") == ZERO
    with pytest.raises(PolyParseError, match="degree above"):
        parse("(a^12+b-a^12)*a^12")
    # zero to a power is zero, of degree -1, as for the reference
    new, old = outcomes("m*0^12", {"m": A ** 20})
    assert new == old == "error: degree above 12 in 'm*0^12'"


@pytest.mark.parametrize("text, message", [
    ("a +", "expected a number, a name or '(' before the end of 'a +'"),
    ("(b", "expected ')' before the end of '(b'"),
    ("a^", "expected a number before the end of 'a^'"),
    ("a^b", "expected a number, got 'b' in 'a^b'"),
    ("-", "expected a number, a name or '(' before the end of '-'"),
    ("((a)", "expected ')' before the end of '((a)'"),
    ("a^(2)", "expected a number, got '(' in 'a^(2)'"),
])
def test_end_of_input_errors_name_the_end_and_a_number(text, message):
    with pytest.raises(PolyParseError) as exc:
        parse(text)
    assert str(exc.value) == message
    assert "None" not in message and "'num'" not in message


def random_negative_poly(rng):
    """A polynomial with at least two terms, every coefficient negative."""
    terms = {}
    while len(terms) < 2:
        terms[tuple(rng.randint(0, 3) for _ in VARS)] = -abs(random_rational(rng, 1, 9))
    return Polynomial(terms)


def reference_to_json(p):
    return [{"coeff": str(c), "exps": {v: e for v, e in zip(VARS, exps) if e}}
            for exps, c in reference_sorted_terms(p)]


def derived_polynomials():
    """Every entry of every compute_object table and every build_system
    residual, over the eight groups and the four connection kinds."""
    out = []
    for L in all_groups():
        for kind in KINDS:
            tables = [compute_object(L, kind, obj) for obj in OBJECTS]
            tables += [build_system(L, kind, s).entries for s in STRUCTURES]
            for table in tables:
                for value in table.values():
                    out.extend(getattr(value, "c", (value,)))
    return out


def test_text_and_to_json_match_the_fraction_renderer():
    rng = random.Random(419)
    polys = [random_poly(rng) for _ in range(400)]
    polys += [random_negative_poly(rng) for _ in range(200)]
    polys += [Polynomial.const(random_rational(rng)) for _ in range(100)]
    polys += [ZERO, -A, A.scale(random_rational(rng, 1, 9, 9)), -(A + 1)]
    derived = derived_polynomials()
    assert len(derived) > 3000 and any(len(p._nums) > 4 for p in derived)
    for p in polys + derived:
        for greek in (False, True):
            assert p.text(greek=greek) == reference_text(p, greek=greek), p
        assert p.to_json() == reference_to_json(p), p
