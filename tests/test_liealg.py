"""Family construction, brackets, constraint sampling, Jacobi."""

import copy
import pickle
import random
from fractions import Fraction

import pytest

from conftest import abelian, all_groups, random_point, random_poly, raw_algebra, walk_violated
from liecodazzi import cli, liealg
from liecodazzi.liealg import (
    BASIS, ConstraintSet, ConstraintViolation, E1, E2, FrameVector,
    SamplerStarvation, _admissible_ints, _bilinear, _rand_pairs, bracket, jacobiator,
    make_group, sample_constraint_point,
)
from liecodazzi.poly import VARS, ZERO, Point, Polynomial, PolyError, parse


# -- construction --------------------------------------------------------


def test_g1_structure():
    L = make_group("G1")
    assert L.brackets[(1, 2)] == FrameVector(parse("a"), 0, parse("-b"))
    assert L.brackets[(1, 3)] == FrameVector(parse("-a"), parse("-b"), 0)
    assert L.brackets[(2, 3)] == FrameVector(parse("b"), parse("a"), parse("a"))
    assert [str(p) for p in L.constraints.inequations] == ["a"]
    assert L.constraints.equalities == ()


def test_g4_needs_eta():
    with pytest.raises(ValueError):
        make_group("G4")
    with pytest.raises(ValueError):
        make_group("G4", eta=2)
    with pytest.raises(ValueError):
        make_group("G1", eta=1)


@pytest.mark.parametrize("warm", [False, True], ids=["cold", "warm"])
@pytest.mark.parametrize("eta", [True, False, 1.0, -1.0, Fraction(1)], ids=repr)
def test_eta_must_be_an_int_on_a_cold_or_warm_cache(eta, warm):
    # True == 1 and 1.0 == 1, so a cached eta=1 group must not answer them
    liealg._symbolic_group.cache_clear()
    if warm:
        for sign in (1, -1):
            make_group("G4", eta=sign)
    with pytest.raises(ValueError, match="G4 requires eta=\\+1 or eta=-1"):
        make_group("G4", eta=eta)
    with pytest.raises(ValueError, match="G1 takes no eta"):
        make_group("G1", eta=eta)


@pytest.mark.parametrize("family, eta, message", [
    ("G8", None, "unknown family 'G8'; expected one of "
                 "('G1', 'G2', 'G3', 'G4', 'G5', 'G6', 'G7')"),
    ("g8", None, "unknown family 'G8'; expected one of "
                 "('G1', 'G2', 'G3', 'G4', 'G5', 'G6', 'G7')"),
    ("G8", 1, "G8 takes no eta"),
])
def test_make_group_names_an_unknown_family(family, eta, message):
    # the eta check comes first, and nothing is cached for the unknown name
    cached = liealg._symbolic_group.cache_info().currsize
    with pytest.raises(ValueError) as exc:
        make_group(family, eta=eta)
    assert str(exc.value) == message
    assert liealg._symbolic_group.cache_info().currsize == cached


def test_numeric_instance_violating_inequation():
    with pytest.raises(ConstraintViolation) as exc:
        make_group("G1", numeric_params={"a": 0, "b": 1, "g": 0, "d": 0})
    assert str(exc.value.polynomial) == "a"


def test_numeric_instance_violating_g5_inequation():
    # equality a*g+b*d=0 holds here, the failure is a+d != 0
    with pytest.raises(ConstraintViolation) as exc:
        make_group("G5", numeric_params={"a": 1, "b": 1, "g": 1, "d": -1})
    assert str(exc.value.polynomial) == "a+d"


def test_numeric_instance_violating_equality():
    with pytest.raises(ConstraintViolation) as exc:
        make_group("G6", numeric_params={"a": 1, "b": 1, "g": 1, "d": 2})
    assert exc.value.kind == "equality"


def test_constraint_violation_texts_say_which_way_the_condition_broke():
    with pytest.raises(ConstraintViolation) as exc:
        make_group("G6", numeric_params={"a": 1, "b": 1, "g": 1, "d": 2})
    assert str(exc.value) == "constraint violated: a*g-b*d = 0"
    with pytest.raises(ConstraintViolation) as exc:
        make_group("G5", numeric_params={"a": 1, "b": 1, "g": 1, "d": -1})
    assert str(exc.value) == "constraint violated: a+d != 0"


def test_numeric_instance_rejects_floats():
    with pytest.raises(PolyError):
        make_group("G1", numeric_params={"a": 0.1, "b": 0, "g": 0, "d": 0})


def test_numeric_instance_substitutes_brackets():
    L = make_group("G2", numeric_params={"a": 2, "b": Fraction(1, 2), "g": 3, "d": 0})
    assert L.brackets[(2, 3)] == FrameVector(2, 0, 0)
    assert L.brackets[(1, 2)] == FrameVector(0, 3, Fraction(-1, 2))


def test_numeric_instances_evaluate_and_substitute_nothing(monkeypatch):
    # each bracket component of a numeric instance is its symbolic
    # component evaluated at the point, with no substitution
    substituted = []
    substitute = Polynomial.substitute
    monkeypatch.setattr(Polynomial, "substitute",
                        lambda p, assignment: substituted.append(p) or substitute(p, assignment))
    rng = random.Random(139)
    for symbolic in all_groups():
        point = sample_constraint_point(symbolic, rng)
        L = make_group(symbolic.family, eta=symbolic.eta, numeric_params=point)
        assert L.params is point and L.brackets.keys() == symbolic.brackets.keys()
        for key, v in symbolic.brackets.items():
            assert L.brackets[key] == FrameVector(*(x.eval_at(point) for x in v.c))
    assert substituted == []


def bracket_tables():
    """Every kind of group: the eight symbolic ones, a numeric instance,
    abelian() and a raw_algebra table that is not a Lie algebra."""
    yield from all_groups()
    yield make_group("G2", numeric_params={"a": 2, "b": Fraction(1, 2), "g": 3, "d": 0})
    yield abelian()
    yield raw_algebra(FrameVector(1, 0, 0), FrameVector(0, 1, 0), FrameVector(2, 0, 3))


def test_bracket_table_holds_all_nine_antisymmetric_entries():
    for L in bracket_tables():
        assert sorted(L.brackets) == [(i, j) for i in (1, 2, 3) for j in (1, 2, 3)]
        for i in (1, 2, 3):
            assert L.brackets[i, i].is_zero(), (L.label(), i)
            for j in (1, 2, 3):
                assert L.brackets[j, i] == -L.brackets[i, j], (L.label(), i, j)
                assert bracket(L, BASIS[i - 1], BASIS[j - 1]) == L.brackets[i, j]


def test_numeric_instance_keeps_its_checked_point():
    raw = {"alpha": 2, "b": Fraction(1, 2), "γ": 3, "d": 0}
    L = make_group("G2", numeric_params=raw)
    assert type(L.params) is Point and L.params == Point(raw)
    assert make_group("G2", numeric_params=L.params).params is L.params
    assert L.to_json()["params"] == {"a": "2", "b": "1/2", "d": "0", "g": "3"}
    with pytest.raises(PolyError, match="unknown variable 'x'"):
        make_group("G2", numeric_params={**raw, "x": 1})
    with pytest.raises(PolyError, match="misses variables"):
        make_group("G2", numeric_params={"a": 2, "b": 1})


@pytest.mark.parametrize("greek", [False, True], ids=["ascii", "greek"])
def test_frame_vector_text(greek):
    e = "ẽ" if greek else "e"
    a, b = ("α", "β") if greek else ("a", "b")
    cases = [
        (FrameVector.zero(), "0"),
        (FrameVector(parse("-2*a"), 0, 0), f"-2*{a}*{e}1"),
        (FrameVector(0, parse("a-b/2"), 0), f"({a}-1/2*{b})*{e}2"),
        (FrameVector(0, 0, parse("-a-b")), f"(-({a}+{b}))*{e}3"),
        (FrameVector(1, -1, 0), f"{e}1-{e}2"),
        (FrameVector(-1, 0, 1), f"-{e}1+{e}3"),
        (FrameVector(parse("a*b"), parse("-b^2+a"), Fraction(-1, 2)),
         f"{a}*{b}*{e}1+(-{b}^2+{a})*{e}2-1/2*{e}3"),
        (FrameVector(parse("-a"), parse("-a-b"), parse("b")),
         f"-{a}*{e}1+(-({a}+{b}))*{e}2+{b}*{e}3"),
    ]
    for v, text in cases:
        assert v.text(greek=greek) == text


# -- bracket -------------------------------------------------------------


def test_bracket_g3_basis():
    L = make_group("G3")
    assert bracket(L, E1, E2) == FrameVector(0, 0, parse("-g"))


def test_bracket_g4_eta_branches():
    Lp = make_group("G4", eta=1)
    assert bracket(Lp, E1, E2) == FrameVector(0, -1, parse("2-b"))
    Lm = make_group("G4", eta=-1)
    assert bracket(Lm, E1, E2) == FrameVector(0, -1, parse("-2-b"))


def test_bracket_antisymmetry_identity():
    for L in all_groups():
        for i in range(3):
            for j in range(3):
                lhs = bracket(L, BASIS[i], BASIS[j])
                rhs = -bracket(L, BASIS[j], BASIS[i])
                assert lhs == rhs, (L.label(), i, j)


def test_bracket_of_vector_with_itself_vanishes():
    rng = random.Random(201)
    for L in all_groups():
        X = FrameVector(random_poly(rng), random_poly(rng), random_poly(rng))
        assert bracket(L, X, X).is_zero()


def test_bracket_bilinearity():
    L = make_group("G1")
    rng = random.Random(202)
    X = FrameVector(random_poly(rng), random_poly(rng), random_poly(rng))
    Y = FrameVector(random_poly(rng), random_poly(rng), random_poly(rng))
    Z = FrameVector(random_poly(rng), random_poly(rng), random_poly(rng))
    assert bracket(L, X + Y, Z) == bracket(L, X, Z) + bracket(L, Y, Z)


def sparse_vector(rng):
    """A FrameVector of random polynomials, each component zero with
    probability 1/2."""
    return FrameVector(*(random_poly(rng) if rng.random() < 0.5 else 0 for _ in range(3)))


def test_bilinear_matches_the_plain_double_sum():
    rng = random.Random(203)
    for _ in range(50):
        table = {(i, j): sparse_vector(rng) for i in (1, 2, 3) for j in (1, 2, 3)}
        X, Y = sparse_vector(rng), sparse_vector(rng)
        # sum_ij X^i Y^j table(i, j) over every (i, j), zeros included
        plain = [Polynomial.zero()] * 3
        for i in (1, 2, 3):
            for j in (1, 2, 3):
                for m in range(3):
                    plain[m] = plain[m] + X.c[i - 1] * Y.c[j - 1] * table[i, j].c[m]
        out = _bilinear(table, X, Y)
        assert out == FrameVector(*plain)
        assert all(all(c != 0 for c in comp.terms.values()) for comp in out.c)


# -- sampling ----------------------------------------------------------------


def test_sample_points_respect_constraints():
    rng = random.Random(204)
    for L in all_groups():
        for _ in range(25):
            pt = sample_constraint_point(L, rng)
            for p in L.constraints.equalities:
                assert p.eval_at(pt) == 0
            for p in L.constraints.inequations:
                assert p.eval_at(pt) != 0
            assert type(pt) is Point
            assert all(isinstance(v, Fraction) for v in pt.values())


def test_group_tests_agree_with_the_polynomial_walk():
    # each group's compiled test at every group's admissible points and at
    # unconstrained points, so both answers occur on every group with a
    # condition; violated names the condition the walk names
    rng = random.Random(1400)
    groups = all_groups()
    points = [Point(random_point(rng)) for _ in range(200)]
    points += [sample_constraint_point(L, rng) for L in groups for _ in range(30)]
    points += [Point(dict.fromkeys(VARS, 0))]
    for L in groups:
        outcomes = set()
        for pt in points:
            want = walk_violated(L.constraints, pt)
            assert L.constraints._admits(*pt._ints) is (want is None), (L.label(), pt)
            assert L.constraints.violated(pt) == want, (L.label(), pt)
            outcomes.add(want is None)
        assert outcomes == ({True, False} if L.constraints.inequations else {True})


def test_condition_tests_of_empty_zero_and_constant_sets():
    rng = random.Random(1401)
    points = [Point(random_point(rng)) for _ in range(50)] + [Point(dict.fromkeys(VARS, 0))]
    three = Polynomial.const(3)
    cases = [
        (ConstraintSet(), None),                               # admits everything
        (ConstraintSet(inequations=(ZERO,)), (ZERO, "inequation")),  # admits nothing
        (ConstraintSet(equalities=(ZERO,)), None),             # a zero equality is skipped
        (ConstraintSet(equalities=(ZERO, three)), (three, "equality")),  # admits nothing
        (ConstraintSet(equalities=(ZERO,), inequations=(three,)), None),
    ]
    for constraints, want in cases:
        for pt in points:
            assert constraints._admits(*pt._ints) is (want is None)
            assert constraints.violated(pt) == want == walk_violated(constraints, pt)


def test_condition_sets_copy_and_pickle_without_their_kernel():
    L = make_group("G5")
    pt = sample_constraint_point(L, random.Random(3))
    assert L.constraints.violated(pt) is None  # builds the kernel
    for original in (L.constraints, L):
        for twin in (copy.copy(original), copy.deepcopy(original),
                     pickle.loads(pickle.dumps(original))):
            assert twin == original
    twin = pickle.loads(pickle.dumps(L.constraints))
    assert twin.violated(pt) is None
    assert twin.violated({**pt, "a": 1}) == walk_violated(L.constraints, Point({**pt, "a": 1}))


def test_sample_deterministic_for_seed():
    L = make_group("G5")
    a = [sample_constraint_point(L, random.Random(7)) for _ in range(5)]
    b = [sample_constraint_point(L, random.Random(7)) for _ in range(5)]
    assert a == b


def test_sampler_starvation():
    # the inequation 0 != 0 holds at no point
    z = FrameVector.zero()
    L = raw_algebra(z, z, z, ConstraintSet(inequations=(Polynomial.zero(),)))
    with pytest.raises(SamplerStarvation):
        sample_constraint_point(L, random.Random(1))


def test_g7_sampler_covers_both_branches():
    L = make_group("G7")
    rng = random.Random(205)
    pts = [sample_constraint_point(L, rng) for _ in range(50)]
    assert any(pt["a"] == 0 for pt in pts)
    assert any(pt["g"] == 0 and pt["a"] != 0 for pt in pts)


def reference_rand_rational(rng, nonzero=False):
    """The draw as first written: randint numerator, then denominator."""
    num = rng.randint(-10, 10)
    while nonzero and num == 0:
        num = rng.randint(-10, 10)
    return Fraction(num, rng.randint(1, 10))


def reference_constraint_point(L, rng):
    """sample_constraint_point as first written: a dict of draws in VARS
    order, solved or zeroed by family, checked through Point(dict)."""
    while True:
        pt = {v: reference_rand_rational(rng) for v in VARS}
        if L.family == "G5":
            if pt["b"] == 0:
                continue
            pt["d"] = -pt["a"] * pt["g"] / pt["b"]
        elif L.family == "G6":
            if pt["b"] == 0:
                continue
            pt["d"] = pt["a"] * pt["g"] / pt["b"]
        elif L.family == "G7":
            pt["a" if rng.random() < 0.5 else "g"] = Fraction(0)
        point = Point(pt)
        if L.constraints.violated(point) is None:
            return point


def test_table_draws_repeat_the_randint_stream():
    # same values and same generator state after every draw, with nonzero
    # either way from two streams on one generator and other calls on the
    # generator in between
    new, ref = random.Random(1212), random.Random(1212)
    streams = {nonzero: _rand_pairs(new, nonzero).__next__ for nonzero in (False, True)}
    for n in range(100_000):
        nonzero = n % 3 == 0
        assert streams[nonzero]() == reference_rand_rational(ref, nonzero).as_integer_ratio()
        assert new.getstate() == ref.getstate()
        if n % 7 == 0:
            assert new.random() == ref.random()
    assert new.getstate() == ref.getstate()


def test_constraint_points_repeat_the_reference_sampler():
    # the public one-point call, and one _admissible_ints stream read point
    # by point: the same points and the same generator state after each
    for L in all_groups():
        public, stream, ref = (random.Random(1213) for _ in range(3))
        points = _admissible_ints(L, stream)
        for _ in range(200):
            want = reference_constraint_point(L, ref)
            for pt, rng in ((sample_constraint_point(L, public), public),
                            (Point._of_ints(next(points)), stream)):
                assert pt == want and pt._ints == Point(want)._ints, L.label()
                assert rng.getstate() == ref.getstate(), L.label()


def budgeted_reference_points(L, rng, budget):
    """reference_constraint_point as a stream with an attempt budget:
    SamplerStarvation once `budget` draws in a row since the last point
    give none, a G5/G6 draw with beta = 0 counting as one."""
    misses = 0
    while True:
        pt = {v: reference_rand_rational(rng) for v in VARS}
        point = None
        if L.family in ("G5", "G6"):
            if pt["b"] != 0:
                pt["d"] = (-1 if L.family == "G5" else 1) * pt["a"] * pt["g"] / pt["b"]
                point = Point(pt)
        else:
            if L.family == "G7":
                pt["a" if rng.random() < 0.5 else "g"] = Fraction(0)
            point = Point(pt)
        if point is not None and L.constraints.violated(point) is None:
            misses = 0
            yield point
        else:
            misses += 1
            if misses == budget:
                raise SamplerStarvation


def test_the_attempt_budget_counts_misses_since_the_last_point(monkeypatch):
    # with a budget of 1 to 3 misses, the same points, the same generator
    # state after each, and starvation after the same draw as the reference
    starved = 0
    for budget in (1, 2, 3):
        monkeypatch.setattr(liealg, "_SAMPLE_ATTEMPTS", budget)
        for L in all_groups():
            for seed in range(25):
                new, ref = random.Random(seed), random.Random(seed)
                points, want = _admissible_ints(L, new), budgeted_reference_points(L, ref, budget)
                for _ in range(12):
                    try:
                        expected = next(want)
                    except SamplerStarvation:
                        with pytest.raises(SamplerStarvation,
                                           match=f"in {budget} attempts"):
                            next(points)
                        assert new.getstate() == ref.getstate(), (L.label(), seed)
                        starved += 1
                        break
                    assert Point._of_ints(next(points)) == expected, (L.label(), seed)
                    assert new.getstate() == ref.getstate(), (L.label(), seed)
    assert starved


# -- Jacobi -------------------------------------------------------------------


def test_jacobi_all_families():
    for L in all_groups() + [abelian()]:
        assert jacobiator(L) == FrameVector.zero(), L.label()


def unconstrained(L):
    """L's bracket table with no equalities, so its Jacobiator is reduced
    by nothing."""
    b = L.brackets
    return raw_algebra(b[1, 2], b[1, 3], b[2, 3])


def test_jacobi_g1_identically_zero():
    L = make_group("G1")
    assert jacobiator(L) == FrameVector.zero()
    assert jacobiator(unconstrained(L)) == FrameVector.zero()


def test_jacobi_g6_holds_on_variety():
    # Jacobi turns out to be an identity for G6 as well; the equality
    # a*g-b*d=0 is a classification side condition, not a Jacobi
    # consequence.  The check still passes on the constraint variety.
    L = make_group("G6")
    assert L.constraints.equalities
    assert jacobiator(L) == FrameVector.zero()
    assert jacobiator(unconstrained(L)) == FrameVector.zero()


def test_jacobi_abelian():
    assert jacobiator(abelian()) == FrameVector.zero()
    assert not abelian().constraints.equalities


def test_jacobi_detects_broken_structure():
    # a deliberately non-Lie bracket table must fail
    bad = raw_algebra(FrameVector(1, 0, 0), FrameVector(0, 1, 0),
                      FrameVector.zero())
    assert jacobiator(bad) == FrameVector(0, -1, 0)


A = Polynomial.var("a")


def off_grid_table():
    """A non-Lie table whose equality a = 11 no sampled point meets: draws
    are n/m with |n| <= 10 and 1 <= m <= 10."""
    return raw_algebra(FrameVector(A, 0, 0), FrameVector(0, A, 0), FrameVector.zero(),
                       ConstraintSet(equalities=(parse("a-11"),)))


def test_jacobi_decides_where_the_sampler_starves():
    bad = off_grid_table()
    with pytest.raises(SamplerStarvation):
        sample_constraint_point(bad, random.Random(1))
    # J(e1, e2, e3) is -a^2 e2, which is -121 e2 modulo a - 11
    assert jacobiator(bad) == FrameVector(0, -121, 0)


def test_jacobi_passes_residuals_in_the_equalities():
    # not a Lie algebra for a != 0, but J(e1, e2, e3) = -a^2 e2 lies in <a>
    rows = FrameVector(A, 0, 0), FrameVector(0, A, 0), FrameVector.zero()
    assert jacobiator(raw_algebra(*rows)) == FrameVector(0, -A * A, 0)
    assert jacobiator(raw_algebra(*rows, ConstraintSet(equalities=(A,)))) == FrameVector.zero()


def test_jacobi_draws_no_point(monkeypatch):
    def no_draw(L, rng):
        raise AssertionError("jacobiator drew a point")

    monkeypatch.setattr(liealg, "sample_constraint_point", no_draw)
    for L in all_groups() + [abelian()]:
        assert jacobiator(L).is_zero(), L.label()
    assert not jacobiator(off_grid_table()).is_zero()


def jacobi_on_every_triple(L):
    """The reference the one-triple Jacobiator replaces: every basis
    triple's residual reduces to 0 modulo the equalities."""
    for X in BASIS:
        for Y in BASIS:
            for Z in BASIS:
                r = (bracket(L, X, bracket(L, Y, Z)) + bracket(L, Y, bracket(L, Z, X))
                     + bracket(L, Z, bracket(L, X, Y)))
                if any(c.remainder(*L.constraints.equalities) for c in r.c):
                    return False
    return True


def bracket_text_edits():
    """Every single-component edit of the bracket texts, on both G4 signs:
    a sign flip -(t) of each component, and a for each 0."""
    for family, (rows, equalities, inequations) in liealg._FAMILY_TEXTS.items():
        for eta in liealg.branches(family):
            names = liealg.sign_names(eta)
            constraints = ConstraintSet(tuple(parse(t) for t in equalities),
                                        tuple(parse(t) for t in inequations))
            for r, row in enumerate(rows):
                for c, text in enumerate(row):
                    for edit in (f"-({text})",) + (("a",) if text == "0" else ()):
                        texts = [list(x) for x in rows]
                        texts[r][c] = edit
                        yield raw_algebra(*(FrameVector(*(parse(t, names) for t in x))
                                            for x in texts), constraints, family)


def test_one_triple_decides_as_every_triple_does():
    tables = list(bracket_text_edits())
    assert len(tables) == 102
    verdicts = [jacobiator(L).is_zero() for L in tables]
    assert verdicts.count(False) == 48
    assert verdicts == [jacobi_on_every_triple(L) for L in tables]


def test_a_group_refuses_a_bracket_text_that_breaks_jacobi(monkeypatch, capsys):
    # [e1,e2] = -a e1 - b e3 in place of a e1 - b e3: J = -2a^2 e1 - 2ab e2
    rows, equalities, inequations = liealg._FAMILY_TEXTS["G1"]
    liealg._symbolic_group.cache_clear()
    monkeypatch.setitem(liealg._FAMILY_TEXTS, "G1",
                        ((("-a", "0", "-b"),) + rows[1:], equalities, inequations))
    try:
        with pytest.raises(ValueError, match="Jacobi") as err:
            make_group("G1")
        assert str(err.value).endswith("J(e1, e2, e3) = -2*a^2*e1-2*a*b*e2")
        assert cli.main(["compute", "--family", "G1", "--connection", "bott"]) == 2
        assert "Jacobi" in capsys.readouterr().err
    finally:
        # before monkeypatch restores the texts: no group built from them stays
        liealg._symbolic_group.cache_clear()


def test_family_json_shape():
    L = make_group("G4", eta=1)
    data = L.to_json()
    assert data["family"] == "G4"
    assert data["eta"] == 1
    assert set(data["brackets"]) == {"e1e2", "e1e3", "e2e3"}
    assert data["inequations"] == []
    assert make_group("G1").to_json()["inequations"] == ["a"]
