"""Tests for the residual systems, family checks, sampling and audits."""

import dataclasses
import hashlib
import json
import pickle
import random
from fractions import Fraction
from math import gcd

import pytest

from conftest import all_groups, walk_violated
from liecodazzi import classify
from liecodazzi.poly import Point, Polynomial, PolyError, parse
from liecodazzi.liealg import (
    ConstraintSet, ConstraintViolation, SamplerStarvation, make_group, sample_constraint_point,
)
from liecodazzi.tensorcalc import PAIRS, cov_deriv_02, curvature, ricci, symmetrize, torsion
from liecodazzi.connection import make_connection
from liecodazzi.classify import (
    RegisterEntry,
    SolutionFamily,
    Verdict,
    build_system,
    check_on_family,
    compute_object,
    load_claims,
    load_printed_systems,
    load_printed_tables,
    register_json,
    sample_family_member,
    sample_necessity,
    systems_equivalent,
    table_names,
    verify_paper_theorems,
)


# -- table shorthand ---------------------------------------------------------


def test_table_names_m_constants():
    for eta in (None, 1, -1):
        names = table_names(eta)
        assert parse("m1+m2+m3", names) == parse("(3*a-b-g)/2")
        assert parse("m3*g", names) == parse("g*(a+b-g)/2")


def test_table_names_n_resolve_eta():
    assert parse("n3", table_names(1)) == parse("a/2+1")
    assert parse("n3", table_names(-1)) == parse("a/2-1")
    assert parse("n1-n2", table_names(1)) == parse("2-b")
    assert parse("2*h-b", table_names(-1)) == parse("-2-b")


def test_table_names_mix_with_variable_aliases():
    assert parse("alpha*m1", table_names(None)) == parse("a*(a-b-g)/2")


def test_table_names_without_eta_know_no_sign():
    # G3 tables use m1..m3 only; n1..n3 and h need a G4 branch
    for word in ("n3", "h"):
        with pytest.raises(PolyError, match=f"unknown name '{word}'"):
            parse(word, table_names(None))


def test_table_names_respect_word_boundaries():
    # m1 inside a longer word is no abbreviation
    with pytest.raises(PolyError, match="unknown name 'm12'"):
        parse("m12", table_names(1))


def test_table_names_are_built_once_and_read_only():
    assert table_names(1) is table_names(1)
    with pytest.raises(TypeError):
        table_names(1)["h"] = Polynomial.zero()


# -- system construction -----------------------------------------------------


def test_g1_bott_codazzi_reduced():
    system = build_system(make_group("G1"), "bott", "codazzi")
    assert [p.text() for p in system.reduced()] == ["a^2*b", "a^3", "a^3-a*b^2"]


def test_g1_bott_quasistatistical_adds_pairing_equation():
    system = build_system(make_group("G1"), "bott", "quasistatistical")
    assert [p.text() for p in system.reduced()] == [
        "a*b^2", "a^2*b", "a^3", "a^3-a*b^2"]


def test_g3_bott_systems_trivial():
    L = make_group("G3")
    assert build_system(L, "bott", "codazzi").is_trivial()
    assert build_system(L, "bott", "quasistatistical").is_trivial()


def test_case_id_includes_eta_branch():
    system = build_system(make_group("G4", eta=1), "kn", "codazzi")
    assert system.case_id == "G4(eta=+1)/kobayashi-nomizu/codazzi"


def test_build_system_rejects_unknown_structure():
    with pytest.raises(ValueError):
        build_system(make_group("G1"), "bott", "statistical")


def test_quasistat_minus_codazzi_is_torsion_pairing_everywhere():
    for L in all_groups():
        for kind in ("levi_civita", "bott", "canonical", "kobayashi_nomizu"):
            cod = build_system(L, kind, "codazzi")
            qs = build_system(L, kind, "quasistatistical")
            C = make_connection(L, kind)
            omega = symmetrize(ricci(curvature(C)))
            T = torsion(C)
            for x, y in PAIRS:
                for j in (1, 2, 3):
                    pairing = sum(
                        (T[x, y].c[k - 1] * omega[k, j] for k in (1, 2, 3)),
                        Polynomial.zero())
                    assert qs.entries[(x, y, j)] - cod.entries[(x, y, j)] == pairing


def test_residuals_antisymmetric_in_first_pair():
    for L in all_groups():
        for kind in ("bott", "canonical"):
            C = make_connection(L, kind)
            omega = symmetrize(ricci(curvature(C)))
            D = cov_deriv_02(C, omega)
            T = torsion(C)
            qs = build_system(L, kind, "quasistatistical")
            for x, y in PAIRS:
                for j in (1, 2, 3):
                    swapped = D[y, x, j] - D[x, y, j] + sum(
                        (T[y, x].c[k - 1] * omega[k, j] for k in (1, 2, 3)),
                        Polynomial.zero())
                    assert swapped == -qs.entries[(x, y, j)]


def test_bott_and_kobayashi_nomizu_systems_coincide():
    # on every group here the two connections have the same table,
    # so the residual systems must agree as well
    for L in all_groups():
        for structure in ("codazzi", "quasistatistical"):
            assert build_system(L, "bott", structure).entries == \
                build_system(L, "kn", structure).entries


# -- solution families -------------------------------------------------------


def test_from_text_assignments_and_inequations():
    fam = SolutionFamily.from_text("a=0, b=g/2, d!=0")
    assert fam.assignment["a"] == Polynomial.zero()
    assert fam.assignment["b"] == parse("g/2")
    assert fam.extra_inequations == (parse("d"),)


def test_from_text_accepts_greek_names():
    fam = SolutionFamily.from_text("alpha=0,beta!=0")
    assert set(fam.assignment) == {"a"}
    assert fam.extra_inequations == (parse("b"),)


def test_from_text_rejects_bad_clauses():
    with pytest.raises(PolyError):
        SolutionFamily.from_text("a+b")
    with pytest.raises(PolyError):
        SolutionFamily.from_text("a!=1")
    with pytest.raises(PolyError):
        SolutionFamily.from_text("a*b=0")


def test_assignment_values_must_be_free():
    with pytest.raises(PolyError):
        SolutionFamily.from_text("a=0,b=a/2")


def test_from_spec_resolves_eta():
    fam = SolutionFamily.from_spec({"assign": {"b": "a/2+h"}}, eta=-1)
    assert fam.assignment["b"] == parse("a/2-1")


def test_families_and_printed_systems_share_one_formula_cache():
    # a data-file text is parsed once per (text, eta), whichever reader asks
    system = next(s for s in load_printed_systems() if s.id == "(2.34)")
    for eta in (1, -1):
        for pos, printed in system.materialize(eta):
            text = system.equations[pos - 1]
            fam = SolutionFamily.from_spec({"require_nonzero": [text]}, eta)
            assert fam.extra_inequations[0] is printed, (eta, text)
    # so family texts may use the table shorthand too
    fam = SolutionFamily.from_spec({"assign": {"d": "n3"}}, eta=-1)
    assert fam.assignment["d"] == parse("a/2-1")


@pytest.mark.parametrize("spec", [
    {"assign": {"a": "0"}, "require_nonzer": ["g"]},
    {"assign": {"a": "0"}, "quadratics": [["b^2", "2*a^2"]]},
])
def test_from_spec_rejects_unknown_keys(spec):
    # a misspelt condition would otherwise be dropped without a word
    bad = next(k for k in spec if k != "assign")
    with pytest.raises(ValueError, match=bad):
        SolutionFamily.from_spec(spec)


def test_contains_checks_all_conditions():
    fam = SolutionFamily.from_text("a=0,g!=0")
    point = {"a": 0, "b": 3, "g": 1, "d": 0}
    assert fam.contains(point)
    assert not fam.contains({**point, "a": 1})
    assert not fam.contains({**point, "g": 0})


def test_contains_quadratic_relation():
    fam = SolutionFamily(quadratic_relations=((parse("b^2"), parse("2*a^2")),))
    assert fam.contains({"a": 0, "b": 0, "g": 1, "d": 2})
    assert not fam.contains({"a": 1, "b": 1, "g": 0, "d": 0})


def test_contains_a_point_where_the_relation_sides_are_equal_and_nonzero():
    fam = SolutionFamily(quadratic_relations=((parse("a^2"), parse("b^2")),))
    assert fam.contains({"a": 1, "b": 1, "g": 0, "d": 0})
    assert not fam.contains({"a": 1, "b": 2, "g": 0, "d": 0})


def test_describe_renders_both_alphabets():
    fam = SolutionFamily.from_text("a=0,g!=0")
    assert fam.describe() == "a = 0, g != 0"
    assert fam.describe(greek=True) == "α = 0, γ ≠ 0"
    assert SolutionFamily().describe() == "no restriction"


def contains_oracle(family, point):
    """The coordinate-compare definition of SolutionFamily.contains: each
    assigned coordinate equals its value, each relation's sides are
    equal and no extra inequation is 0."""
    point = Point.of(point)
    for var in sorted(family.assignment):
        if point[var] != family.assignment[var].eval_at(point):
            return False
    for lhs, rhs in family.quadratic_relations:
        if lhs.eval_at(point) != rhs.eval_at(point):
            return False
    return all(q.eval_at(point) != 0 for q in family.extra_inequations)


def test_contains_matches_the_coordinate_compare_oracle():
    # every claim family, printed and recomputed, at the points the sampler
    # draws on its group (mostly outside) and at its own member points
    # (inside), so both answers occur
    outcomes = set()
    for index, claim in enumerate(load_claims()):
        for eta in claim.branches():
            L = make_group(claim.family, eta=eta)
            rng = random.Random(1300 + index)
            for spec in claim.families + claim.recomputed_families:
                fam = SolutionFamily.from_spec(spec, eta)
                points = [sample_constraint_point(L, rng) for _ in range(40)]
                if not fam.quadratic_relations:
                    points += [sample_family_member(L, fam, rng) for _ in range(5)]
                for pt in points:
                    got = fam.contains(pt)
                    assert got == contains_oracle(fam, pt), (claim.anchor, spec, pt)
                    outcomes.add(got)
    assert outcomes == {True, False}


def test_compiled_tests_agree_with_the_polynomial_walk():
    # per claim branch, at 200 points the sampler draws on the group
    # (mostly off the families) and at member points of each family (on
    # it): every family's test and the residual test sample_necessity
    # builds, against walks over their polynomials
    outcomes = {"family": set(), "system": set()}
    for index, claim in enumerate(load_claims()):
        for eta in claim.branches():
            L = make_group(claim.family, eta=eta)
            rng = random.Random(1500 + index)
            system = build_system(L, claim.connection, claim.structure)
            residuals = ConstraintSet(equalities=tuple(system.entries.values()))
            fams = [SolutionFamily.from_spec(s, eta)
                    for s in claim.families + claim.recomputed_families]
            points = [sample_constraint_point(L, rng) for _ in range(200)]
            points += [sample_family_member(L, f, rng) for f in fams
                       if not f.quadratic_relations for _ in range(5)]
            for pt in points:
                for f in fams:
                    want = walk_violated(f._conditions, pt)
                    assert f.contains(pt) is (want is None), (claim.anchor, f.describe(), pt)
                    assert f._conditions.violated(pt) == want, (claim.anchor, f.describe(), pt)
                    outcomes["family"].add(want is None)
                want = walk_violated(residuals, pt)
                holds = all(p.vanishes_at(pt) for p in system.entries.values())
                assert residuals._admits(*pt._ints) is holds is (want is None)
                assert residuals.violated(pt) == want, (system.case_id, pt)
                outcomes["system"].add(holds)
    assert all(seen == {True, False} for seen in outcomes.values()), outcomes


def test_families_pickle_after_their_tests_ran():
    system = build_system(make_group("G2"), "bott", "codazzi")
    fam = SolutionFamily.from_text("a=0,b=0")
    report = sample_necessity(system, [fam], 20, 1)  # builds the family's kernel
    assert fam.contains({"a": 0, "b": 0, "g": 1, "d": 2})
    twin = pickle.loads(pickle.dumps(fam))
    assert twin == fam
    assert sample_necessity(system, [twin], 20, 1) == report


# -- deciding on families ----------------------------------------------------


def test_check_holds_g2_bott_codazzi_on_zero_family():
    system = build_system(make_group("G2"), "bott", "codazzi")
    result = check_on_family(system, SolutionFamily.from_text("a=0,b=0"))
    assert result.holds and not result.residuals


def test_check_reports_residuals_g1():
    system = build_system(make_group("G1"), "bott", "codazzi")
    result = check_on_family(system, SolutionFamily.from_text("b=0"))
    assert not result.holds
    assert all(p.monic() == parse("a^3") for p in result.residuals.values())


def test_check_conflict_with_family_inequation():
    system = build_system(make_group("G1"), "bott", "codazzi")
    with pytest.raises(ConstraintViolation):
        check_on_family(system, SolutionFamily.from_text("a=0"))


def test_check_conflict_with_family_equality():
    system = build_system(make_group("G5"), "bott", "codazzi")
    with pytest.raises(ConstraintViolation):
        check_on_family(system, SolutionFamily.from_text("a=0,d=0"))


def test_check_uses_quadratic_rewrite_g6():
    system = build_system(make_group("G6"), "canonical", "quasistatistical")
    fam = SolutionFamily.from_spec({
        "assign": {"d": "0", "g": "0"},
        "require_nonzero": ["a"],
        "quadratic": [["b^2", "2*a^2"]],
    })
    assert check_on_family(system, fam).holds


def hand_built(group, *texts):
    """A system on the group whose residuals are the given texts."""
    entries = {(1, 2, j): parse(t) for j, t in enumerate(texts, 1)}
    return classify.PolySystem("hand-built", entries, make_group(group))


def test_check_uses_constraint_monomial_rule():
    # on G6 with g = 0 the equality a*g - b*d = 0 forces b*d = 0
    system = build_system(make_group("G6"), "bott", "codazzi")
    fam = SolutionFamily.from_text("g=0,b=0")
    assert check_on_family(system, fam).holds
    # on G7 with g = 1 the equality a*g = 0 forces a = 0
    assert check_on_family(hand_built("G7", "a*b"), SolutionFamily.from_text("g=1")).holds


def test_check_reduces_powers_by_the_relation():
    fam = SolutionFamily(quadratic_relations=((parse("b^2"), parse("2*a^2")),))
    assert check_on_family(hand_built("G3", "b^4-4*a^4", "a*b^3-2*a^3*b"), fam).holds
    # the relation's leading term is a^2, so a^2 is what the remainder replaces
    result = check_on_family(hand_built("G3", "b^2-a^2"), fam)
    assert result.residuals == {(1, 2, 1): parse("b^2/2")}


def test_check_decides_a_non_monomial_relation():
    fam = SolutionFamily(quadratic_relations=((parse("b^2+a"), parse("a^2")),))
    assert check_on_family(hand_built("G3", "(b^2+a-a^2)*g"), fam).holds
    assert not check_on_family(hand_built("G3", "b"), fam).holds
    assert fam.contains({"a": 0, "b": 0, "g": 1, "d": 1})
    assert not fam.contains({"a": 1, "b": 1, "g": 1, "d": 1})


def test_check_reduces_by_a_binomial_equality():
    # on G6 with b = 1 the equality a*g - b*d = 0 reads a*g = d
    fam = SolutionFamily.from_text("b=1")
    assert check_on_family(hand_built("G6", "a*(a*g-d)"), fam).holds
    result = check_on_family(build_system(make_group("G6"), "bott", "codazzi"), fam)
    assert result.residuals[(1, 2, 2)] == parse("-d")


def test_check_ignores_a_zero_relation_and_rejects_a_constant_one():
    zero = SolutionFamily.from_spec({"assign": {"b": "2*a"}, "quadratic": [["b", "2*a"]]})
    result = check_on_family(hand_built("G3", "b-2*a", "a"), zero)
    assert result.residuals == {(1, 2, 2): parse("a")}
    constant = SolutionFamily.from_spec({"assign": {"a": "1"}, "quadratic": [["a", "2"]]})
    with pytest.raises(ConstraintViolation) as exc:
        check_on_family(hand_built("G3", "b"), constant)
    assert exc.value.kind == "equality" and exc.value.polynomial == parse("a-2")


# -- sampling ----------------------------------------------------------------


def test_sample_family_member_obeys_everything():
    L = make_group("G2")
    fam = SolutionFamily.from_text("a=0,b=0")
    rng = random.Random(5)
    for _ in range(20):
        pt = sample_family_member(L, fam, rng)
        assert type(pt) is Point
        assert pt["a"] == 0 and pt["b"] == 0 and pt["g"] != 0
        assert fam.contains(pt)


def test_sample_family_member_starves_on_conflict():
    L = make_group("G1")
    fam = SolutionFamily.from_text("a=0")
    with pytest.raises(SamplerStarvation):
        sample_family_member(L, fam, random.Random(0))


def test_sample_necessity_requires_positive_trials():
    system = build_system(make_group("G1"), "bott", "codazzi")
    with pytest.raises(ValueError):
        sample_necessity(system, [], 0, seed=1)


@pytest.mark.parametrize("trials", [2.5, 3.0, True, "3", None, 0, -3])
def test_sample_necessity_rejects_a_trials_that_is_not_an_int(trials, monkeypatch):
    # 2.5 used to evaluate 3 points and report trials = 3
    system = build_system(make_group("G1"), "bott", "codazzi")
    with pytest.raises(ValueError, match="trials must be a positive integer"):
        sample_necessity(system, [], trials, seed=0)

    # the audit rejects it before any work: its first step would fail here
    def no_work():
        raise AssertionError("the printed tables were read before trials was checked")

    monkeypatch.setattr(classify, "load_printed_tables", no_work)
    with pytest.raises(ValueError, match="trials must be a positive integer"):
        verify_paper_theorems(trials, 0)


def test_sample_necessity_deterministic():
    system = build_system(make_group("G1"), "bott", "codazzi")
    a = sample_necessity(system, [], 40, seed=11)
    b = sample_necessity(system, [], 40, seed=11)
    assert a == b
    assert a.trials == 40 and a.satisfied == 0 and a.violations == 40
    assert a.witness is not None and a.counterexample is None
    assert any(v != 0 for v in a.witness_residuals.values())


def test_sample_necessity_starves_when_exclusion_covers_all():
    system = build_system(make_group("G3"), "bott", "codazzi")
    with pytest.raises(SamplerStarvation):
        sample_necessity(system, [SolutionFamily()], 5, seed=0)


def test_sample_necessity_starves_by_progress_not_by_trials():
    # the exclusion a != 0 is the G1 side condition, so it covers every
    # admissible point: 2,000 attempts, not 200 per requested trial
    system = build_system(make_group("G1"), "bott", "codazzi")
    fam = SolutionFamily.from_text("a!=0")
    with pytest.raises(SamplerStarvation, match="after 2000 attempts"):
        sample_necessity(system, [fam], 10_000, seed=0)


def test_sample_necessity_starvation_bound_grows_by_200_per_evaluated_point(monkeypatch):
    # only points with b = g = d = 0 survive the three exclusions, and
    # seed 0 finds 3 of them: it starves at attempt 2000 + 200*3, each
    # attempt one draw of the stream
    draws = []
    stream = classify._admissible_ints

    def counted(L, rng):
        for ints in stream(L, rng):
            draws.append(ints)
            yield ints

    monkeypatch.setattr(classify, "_admissible_ints", counted)
    system = build_system(make_group("G1"), "bott", "codazzi")
    fams = [SolutionFamily.from_text(t) for t in ("b!=0", "g!=0", "d!=0")]
    with pytest.raises(SamplerStarvation) as info:
        sample_necessity(system, fams, 100, seed=0)
    assert str(info.value).startswith(
        "only 3 of 100 requested points for G1/bott/codazzi after 2600 attempts; ")
    assert len(draws) == 2600


def test_sample_necessity_names_excluded_families_given_as_a_generator():
    # every admissible G7 point has a = 0 or g = 0; a one-shot iterable of
    # the two families must be named in the message like a list of them
    system = build_system(make_group("G7"), "bott", "codazzi")
    texts = ("a=0", "g=0")
    for excluded in ((SolutionFamily.from_text(t) for t in texts),
                     [SolutionFamily.from_text(t) for t in texts]):
        with pytest.raises(SamplerStarvation, match=r"families \[a = 0; g = 0\]"):
            sample_necessity(system, excluded, 5, seed=0)


def test_sample_necessity_skips_excluded_points():
    system = build_system(make_group("G2"), "bott", "codazzi")
    fam = SolutionFamily.from_text("a=0,b=0")
    report = sample_necessity(system, [fam], 60, seed=3)
    assert report.satisfied == 0
    assert report.counterexample is None


# sha256 of the sample_necessity reports, at 200 trials and seed 0, of every
# claim-branch system with the families its claim excludes; a change that
# means to alter the sampler's draws or reports updates it
SAMPLE_SEED0_SHA256 = "bfdeb29ff5e0f1b4945e8b0cb7451846bfb40f635dcd5408d53815a4fb6e35b3"
# the same for seeds 1..7, taken before the zero tests left eval_at
SAMPLE_SHA256 = {
    1: "fe243df0b6c3ccc68e3cb868db65fff4f8fd1495edf4917ac18ea334912d302d",
    2: "3338a7102638cfa239601396f3752f6eeff52a2f7048561d85507d1195dcc950",
    3: "648d474731ac8073462b071a18f708f242707101b1df3aec164ce6ebc15d976f",
    4: "5b6840393749493336b49b46e5560f74b2b1654cc62525eb451d771e47338865",
    5: "b801e35365de775d0a3a104d685aa064975f5e2b5ad01070c3e2aa59e62c7e04",
    6: "b58d54fd89c336b3818bdd186690a59cdcf1e86c91fc65835d4355c35406e180",
    7: "e61276e96e7ad4b41c4f675ad0633cfaa458eea916317ccadad080a11d9fc831",
}


def claim_sample_cases() -> list:
    """The 48 claim-branch systems, each with the families its claim excludes."""
    cases = []
    for claim in load_claims():
        for eta in claim.branches():
            L = make_group(claim.family, eta=eta)
            specs = {"families": claim.families,
                     "never": claim.recomputed_families}.get(claim.status, ())
            excluded = [SolutionFamily.from_spec(s, eta) for s in specs]
            cases.append((build_system(L, claim.connection, claim.structure), excluded))
    assert len(cases) == 48
    return cases


def claim_sample_digest(seed: int) -> str:
    """sha256 of the 48 claim-branch sample reports at 200 trials and seed."""
    reports = [sample_necessity(system, excluded, 200, seed=seed).to_json()
               for system, excluded in claim_sample_cases()]
    return hashlib.sha256(json.dumps(reports, sort_keys=True).encode()).hexdigest()


def test_sample_reports_of_all_claim_systems_are_pinned():
    assert claim_sample_digest(0) == SAMPLE_SEED0_SHA256


@pytest.mark.parametrize("seed", sorted(SAMPLE_SHA256))
def test_sample_reports_of_all_claim_systems_are_pinned_for_more_seeds(seed):
    assert claim_sample_digest(seed) == SAMPLE_SHA256[seed]


def test_sample_necessity_builds_a_point_only_for_what_it_reports(monkeypatch):
    # the draws stay integer tuples: a Point for the first witness and the
    # first counterexample at most, not one per sampled point
    built = []
    of_ints = Point._of_ints
    monkeypatch.setattr(Point, "_of_ints",
                        staticmethod(lambda ints: built.append(ints) or of_ints(ints)))
    for system, excluded in claim_sample_cases():
        built.clear()
        report = sample_necessity(system, excluded, 200, seed=0)
        assert len(built) <= 2, system.case_id
        shown = [p._ints for p in (report.witness, report.counterexample) if p is not None]
        assert sorted(built) == sorted(shown), system.case_id


def test_an_audit_evaluates_each_witness_once(monkeypatch):
    # a never-holds verdict shows the residuals sample_necessity took at
    # its witness; every verdict's residuals are taken once
    evaluated = []
    eval_all = classify._eval_all
    monkeypatch.setattr(classify, "_eval_all", lambda system, point: evaluated.append(
        (system, point)) or eval_all(system, point))
    verdicts, _ = verify_paper_theorems(trials_per_case=20, seed=0)
    assert any(v.status == "never-holds" for v in verdicts)
    assert len({(id(s), id(p)) for s, p in evaluated}) == len(evaluated)


@pytest.mark.parametrize("seed", [None, True, 1.0, "7", -7],
                         ids=["None", "True", "1.0", "str", "-7"])
def test_a_seed_that_is_not_a_non_negative_int_is_rejected(seed):
    # None seeds from the clock, and random.seed reads -7 as 7: neither
    # would be the one stream of its seed
    system = build_system(make_group("G1"), "bott", "codazzi")
    with pytest.raises(ValueError, match="seed must be a non-negative integer"):
        sample_necessity(system, [], 5, seed)
    with pytest.raises(ValueError, match="seed must be a non-negative integer"):
        verify_paper_theorems(5, seed)


# -- compute_object ----------------------------------------------------------


def test_compute_object_key_shapes():
    L = make_group("G1")
    assert len(compute_object(L, "bott", "connection")) == 9
    assert len(compute_object(L, "bott", "curvature")) == 9
    assert len(compute_object(L, "bott", "ricci")) == 9
    assert len(compute_object(L, "bott", "ricci-sym")) == 6
    assert len(compute_object(L, "bott", "nabla-ricci-sym")) == 18
    assert len(compute_object(L, "bott", "torsion")) == 3


def test_compute_object_rejects_unknown():
    with pytest.raises(ValueError):
        compute_object(make_group("G1"), "bott", "weyl")


def test_compute_object_matches_printed_bott_torsion():
    table = compute_object(make_group("G1"), "bott", "torsion")
    assert table["1,2"].c[2] == parse("b")
    assert table["1,3"].is_zero() and table["2,3"].is_zero()


# -- span comparison ---------------------------------------------------------


def test_span_equal_under_recombination():
    left = [parse("a^3"), parse("a^3-a*b^2")]
    right = [parse("a*b^2"), parse("a^3")]
    assert systems_equivalent(left, right)


def test_span_detects_missing_direction():
    assert not systems_equivalent([parse("a^3")], [parse("a^3"), parse("a^2*b")])


def test_span_scaling_is_irrelevant():
    assert systems_equivalent([parse("2*a^3")], [parse("-a^3/3")])


def test_span_comparison_is_exact_for_large_coefficients():
    # rows in floats would read 10^17 + 1 as 10^17 and call the first pair equal
    a, b = Polynomial.var("a"), Polynomial.var("b")
    big = 10 ** 17
    assert not systems_equivalent([(big + 1) * a + big * b], [a + b])
    left = [(big + 1) * a + big * b, b.scale(Fraction(3 * big - 1, 7))]
    assert systems_equivalent(left, [a, b])
    assert systems_equivalent([(big + 1) * a + big * b], [(2 * big + 2) * a + 2 * big * b])


def test_span_of_empty_systems():
    assert systems_equivalent([], [])
    assert systems_equivalent([Polynomial.zero()], [])


def span_test_pairs(rng, count):
    """Seeded pairs of equation lists: up to 13 equations in up to 14
    degree-3 monomials, integer coefficients in [-10, 10] with some rows
    dependent.  In every other pair the right list plants the left span:
    the left rows recombined (row_i += c*row_j), scaled by nonzero
    rationals and shuffled; in the others it is drawn afresh or is the
    left list with one coefficient changed."""
    cubics = [(i, j, k, 3 - i - j - k) for i in range(4) for j in range(4 - i)
              for k in range(4 - i - j)]
    pairs = []
    for n in range(count):
        monos = rng.sample(cubics, rng.randint(1, 14))
        size = rng.randint(1, 13)

        def draw_rows(size):
            rows = [[rng.randint(-10, 10) if rng.random() < 0.6 else 0 for _ in monos]
                    for _ in range(size)]
            for r in rng.sample(range(size), size // 3):  # some dependent rows
                rows[r] = [x - 2 * y for x, y in zip(rows[rng.randrange(size)],
                                                     rows[rng.randrange(size)])]
            return [[Fraction(x) for x in r] for r in rows]

        left = draw_rows(size)
        if n % 2 == 0:
            right = [list(r) for r in left]
            for _ in range(3 * size):
                i, j = rng.randrange(size), rng.randrange(size)
                if i != j:
                    c = Fraction(rng.randint(-5, 5), rng.randint(1, 4))
                    right[i] = [x + c * y for x, y in zip(right[i], right[j])]
            scales = [Fraction(rng.choice((-1, 1)) * rng.randint(1, 9), rng.randint(1, 9))
                      for _ in right]
            right = [[x * c for x in r] for r, c in zip(right, scales)]
            rng.shuffle(right)
        elif rng.random() < 0.5:
            right = draw_rows(rng.randint(1, 13))
        else:
            right = [list(r) for r in left]
            right[rng.randrange(size)][rng.randrange(len(monos))] += rng.choice((-1, 1))

        def polys(rows):
            return [Polynomial(dict(zip(monos, r))) for r in rows]

        pairs.append((polys(left), polys(right), n % 2 == 0))
    return pairs


def test_span_comparison_agrees_with_sympy_ranks():
    sympy = pytest.importorskip("sympy")
    from sympy.polys.matrices import DomainMatrix

    def integer_rows(ps, monos):
        # each row is a polynomial times its denominator: the same span
        return [[p._nums.get(m, 0) for m in monos] for p in ps if p._nums]

    def rank(ps, monos):
        return DomainMatrix.from_list(integer_rows(ps, monos) or [[0] * len(monos)],
                                      sympy.ZZ).rank()

    verdicts = []
    for left, right, planted in span_test_pairs(random.Random(331), 200):
        monos = sorted({e for p in left + right for e in p.terms}, reverse=True)
        ranks = [rank(left, monos), rank(right, monos)]
        want = ranks[0] == ranks[1] == rank(left + right, monos)
        assert systems_equivalent(left, right) is want, (left, right)
        assert want or not planted
        verdicts.append(want)
        for ps, ps_rank in zip((left, right), ranks):
            reduced = classify._rref(integer_rows(ps, monos))
            assert len(reduced) == ps_rank
            pivots = [next(c for c, x in enumerate(row) if x) for row in reduced]
            assert pivots == sorted(set(pivots))
            for row, pivot in zip(reduced, pivots):
                assert gcd(*row) == 1 and row[pivot] > 0, row
                assert all(other[pivot] == 0 for other in reduced if other is not row), reduced
    assert 100 <= verdicts.count(True) < 200


# -- data files --------------------------------------------------------------


def test_printed_tables_load_and_materialize():
    tables = load_printed_tables()
    assert len(tables) == 97
    by_id = {}
    for t in tables:
        by_id.setdefault(t.id, t)
        for eta in t.branches():
            t.materialize(eta)
    # materialize decides each value by its JSON shape; on the shipped data
    # that shape is the one the table's kind asks for
    shapes = {"text": 0, "vector": 0, "garbled": 0}
    for t in tables:
        for value in t.entries.values():
            if isinstance(value, dict):
                assert value.keys() == {"garbled", "raw"} and value["garbled"] is True, (t.id, value)
                shapes["garbled"] += 1
            elif t.kind in classify._VECTOR_KINDS:
                assert isinstance(value, list) and len(value) == 3, (t.id, value)
                assert all(isinstance(x, str) for x in value), (t.id, value)
                shapes["vector"] += 1
            else:
                assert isinstance(value, str), (t.id, value)
                shapes["text"] += 1
    assert shapes == {"text": 430, "vector": 300, "garbled": 2}
    assert by_id["(2.9)"].kind == "connection"
    assert by_id["(2.30)"].branches() == (1, -1)
    assert by_id["(2.9)"].branches() == (None,)


def test_printed_systems_load():
    systems = load_printed_systems()
    assert len(systems) == 31
    ids = {s.id for s in systems}
    assert "(2.21)" in ids and "(5.38)" in ids


def test_loaders_reject_unknown_keys(monkeypatch):
    row = {"family": "G4", "connection": "bott", "structure": "codazzi",
           "anchor": "(0.0)", "status": "always", "eta_template": True}
    monkeypatch.setattr(classify, "_load_json", lambda name: {"claims": [row]})
    with pytest.raises(ValueError, match="eta_template"):
        load_claims()


@pytest.mark.parametrize("status, families, message", [
    ("nevr", (), "unknown status 'nevr'"),
    ("families", (), "lists no families"),
])
def test_loaders_reject_bad_claim_status(monkeypatch, status, families, message):
    # neither may reach the audit as a families row with an empty print
    row = {"family": "G2", "connection": "bott", "structure": "codazzi",
           "anchor": "(0.0)", "status": status, "families": list(families)}
    monkeypatch.setattr(classify, "_load_json", lambda name: {"claims": [row]})
    with pytest.raises(ValueError, match=message):
        load_claims()


@pytest.mark.parametrize("status", ["always", "never"])
def test_loaders_reject_families_on_always_and_never_rows(monkeypatch, status):
    # the audit would take printed families of such a row as its F
    row = {"family": "G2", "connection": "bott", "structure": "codazzi",
           "anchor": "(0.0)", "status": status, "families": [{"assign": {"a": "0"}}]}
    monkeypatch.setattr(classify, "_load_json", lambda name: {"claims": [row]})
    with pytest.raises(ValueError, match=f"status '{status}' lists families"):
        load_claims()


def test_recomputed_families_allowed_on_never_rows():
    claim = classify.Claim(family="G2", connection="bott", structure="codazzi",
                           anchor="(0.0)", status="never",
                           recomputed_families=({"assign": {"a": "0"}},))
    assert claim.recomputed_families and not claim.families


def test_claims_cover_42_cases():
    claims = load_claims()
    assert len(claims) == 42
    seen = {(c.family, c.connection, c.structure) for c in claims}
    assert len(seen) == 42
    statuses = {c.status for c in claims}
    assert statuses == {"always", "families", "never"}


# -- verdicts ----------------------------------------------------------------


def test_verdict_never_requires_explanation():
    with pytest.raises(ValueError):
        Verdict(case_id="x", anchor="(0.0)", status="never-holds")


def test_verdict_discrepancy_requires_both_claims():
    with pytest.raises(ValueError):
        Verdict(case_id="x", anchor="(0.0)", status="paper-discrepancy",
                paper_claim="never-holds")


def test_verdict_rejects_unknown_status():
    with pytest.raises(ValueError):
        Verdict(case_id="x", anchor="(0.0)", status="maybe")


def test_register_validates_severity():
    with pytest.raises(ValueError):
        RegisterEntry("(1.1)", "x", "y", "curious")
    reg = (RegisterEntry("(1.1)", "x", "y", "typo-suspected"),)
    assert [e.location for e in reg] == ["(1.1)"]


def test_audit_printed_tables_rows_of_a_correct_and_a_garbled_print():
    # a hand-built print of the engine's G1 Bott connection gets no row;
    # with one entry garbled, one row that shows the raw text
    engine = compute_object(make_group("G1"), "bott", "connection")
    table = classify.PrintedTable(
        id="(0.1)", family="G1", connection="bott", kind="connection",
        entries={key: [c.text() for c in v.c] for key, v in engine.items()})
    assert classify.audit_printed_tables([table]) == []
    garbled = dataclasses.replace(table, entries={**table.entries, "2,3": {"raw": "\\Gamma_{2"}})
    assert classify.audit_printed_tables([garbled]) == [RegisterEntry(
        "(0.1) entry (2,3)", "\\Gamma_{2", engine["2,3"].text(), "typo-suspected")]


def test_audit_printed_systems_rows_of_a_correct_and_a_garbled_print():
    # a garbled line gets its row; the rest lies inside the span, so no
    # row for the system
    engine = build_system(make_group("G2"), "bott", "codazzi").reduced()
    texts = tuple(p.text() for p in engine)
    printed = classify.PrintedSystem(id="(0.2)", family="G2", connection="bott",
                                     structure="codazzi", equations=texts)
    assert classify.audit_printed_systems([printed]) == []
    garbled = dataclasses.replace(printed, equations=texts[:-1] + ({"raw": "a^2-"},))
    assert classify.audit_printed_systems([garbled]) == [RegisterEntry(
        f"(0.2) equation {len(texts)}", "a^2-",
        "recomputed system: " + "; ".join(texts), "typo-suspected")]


@pytest.fixture(scope="module")
def audit_result():
    return verify_paper_theorems(trials_per_case=60, seed=0)


def test_verify_produces_42_verdicts(audit_result):
    verdicts, _ = audit_result
    assert len(verdicts) == 42
    assert len({v.case_id for v in verdicts}) == 42


def test_g2_bott_codazzi_discrepancy_carries_evidence(audit_result):
    verdicts, register = audit_result
    v = next(v for v in verdicts if v.case_id == "G2/bott/codazzi")
    assert v.status == "paper-discrepancy"
    assert v.paper_claim == "never-holds"
    assert v.recomputed_claim == "holds-on-family: a = 0, b = 0"
    assert v.witness is not None and v.witness["a"] == 0 and v.witness["b"] == 0
    assert set(v.residuals.values()) == {0}
    assert v.to_json()["paper_claim"] == "never-holds"
    rows = [e for e in register if e.location == "(2.21)"]
    assert len(rows) == 1 and rows[0].severity == "verdict-conflict"


@pytest.mark.parametrize("statuses, merged", [
    ({1: "holds-always", -1: "holds-always"}, True),
    ({1: "holds-always", -1: "never-holds"}, False),
    ({1: "never-holds", -1: "holds-always"}, False),
], ids=["agree", "differ", "differ-swapped"])
def test_g4_claim_merges_its_branches_only_when_they_agree(monkeypatch, statuses, merged):
    def branch(claim, L, trials, seed):
        return Verdict(case_id=L.label(), anchor=f"{claim.anchor} {L.eta}",
                       status=statuses[L.eta], explanation=f"branch {L.eta}")

    monkeypatch.setattr(classify, "_audit_branch", branch)
    claim = next(c for c in load_claims() if c.family == "G4")
    verdicts = classify._audit_claim(claim, 0, 200, 0)
    if merged:
        assert [(v.case_id, v.anchor, v.status, v.explanation) for v in verdicts] == [
            (classify.case_id("G4", claim.connection, claim.structure), claim.anchor,
             statuses[1], "branch 1 (both signs of h agree)")]
    else:
        assert [(v.anchor, v.status, v.explanation) for v in verdicts] == [
            (f"{claim.anchor} {eta}", statuses[eta], f"branch {eta}") for eta in (1, -1)]


def test_verify_paper_theorems_defaults_to_200_trials_and_seed_0():
    verdicts, register = verify_paper_theorems()
    assert type(verdicts) is tuple and type(register) is tuple
    assert (verdicts, register) == verify_paper_theorems(200, 0)


def test_g4_verdicts_merge_branches(audit_result):
    verdicts, _ = audit_result
    for v in verdicts:
        if v.case_id.startswith("G4"):
            assert v.case_id.split("/")[0] == "G4"
            assert "(both signs of h agree)" in v.explanation


_A0B0_D = {"assign": {"a": "0", "b": "0"}, "require_nonzero": ["d"]}


@pytest.mark.parametrize("row, expected", [
    # printed always, but the system has nonzero residuals and no sampled solution
    ({"family": "G1", "connection": "bott", "structure": "codazzi", "status": "always"},
     [("(9.9)", "never-holds", {"a": "2/7", "b": "-9/5", "d": "2/5", "g": "3/4"})]),
    # a printed family on which the system does not vanish
    ({"family": "G1", "connection": "bott", "structure": "codazzi", "status": "families",
      "families": ({"assign": {"b": "0"}},)},
     [("(9.9)", "solution set differs: on [b = 0] residual (1,3,1) = -3/2*a^3", None)]),
    # printed families missing the component g = d = 0
    ({"family": "G6", "connection": "bott", "structure": "codazzi", "status": "families",
      "families": (_A0B0_D,)},
     [("(9.9)", "solution set differs: system holds outside the families at "
                "a = -6, b = -2/3, d = 0, g = 0",
       {"a": "-6", "b": "-2/3", "d": "0", "g": "0"})]),
    # printed never, but the system has solutions
    ({"family": "G2", "connection": "bott", "structure": "codazzi", "status": "never"},
     [("(9.9)", "solution set differs: system holds at a = 0, b = 0, d = -3/4, g = -2/5",
       {"a": "0", "b": "0", "d": "-3/4", "g": "-2/5"})]),
    # printed never with incomplete recomputed families: the sampled
    # counterexample outside them must not be dropped
    ({"family": "G6", "connection": "bott", "structure": "codazzi", "status": "never",
      "recomputed_families": (_A0B0_D,)},
     [("(9.9)", "solution set differs: system holds outside the families at "
                "a = -6, b = -2/3, d = 0, g = 0",
       {"a": "-6", "b": "-2/3", "d": "0", "g": "0"})]),
    # G4 discrepancies keep one verdict per sign, each with its own values of h
    ({"family": "G4", "connection": "canonical", "structure": "quasistatistical",
      "status": "never", "recomputed_families": (
          {"assign": {"a": "2*h", "b": "2*h"}}, {"assign": {"a": "0", "b": "h"}})},
     [("(9.9) [eta=+1]", "holds-on-family: a = 2, b = 2 | a = 0, b = 1",
       {"a": "2", "b": "2", "d": "-2/5", "g": "0"}),
      ("(9.9) [eta=-1]", "holds-on-family: a = -2, b = -2 | a = 0, b = -1",
       {"a": "-2", "b": "-2", "d": "-5/2", "g": "-7/4"})]),
], ids=["always-nontrivial", "family-fails", "family-missing", "never-solvable",
        "never-incomplete-recomputed", "g4-discrepancies-unmerged"])
def test_constructed_claims_reach_every_discrepancy_path(row, expected):
    claim = classify.Claim(anchor="(9.9)", **row)
    verdicts = classify._audit_claim(claim, 0, 200, 0)
    got = [(v.anchor, v.recomputed_claim, v.to_json()["witness"]) for v in verdicts]
    assert got == expected
    assert {v.status for v in verdicts} == {"paper-discrepancy"}


def test_member_points_agree_with_the_exact_family_checks():
    # the audit decides each family by check_on_family alone; sampled
    # members of every claim family must agree with that decision
    rng = random.Random(0x5EED)
    checked = 0
    for claim in load_claims():
        for eta in claim.branches():
            L = make_group(claim.family, eta=eta)
            system = build_system(L, claim.connection, claim.structure)
            for spec in claim.recomputed_families or claim.families:
                fam = SolutionFamily.from_spec(spec, eta)
                if fam.quadratic_relations:
                    continue
                assert check_on_family(system, fam).holds, (system.case_id, fam.describe())
                for _ in range(25):
                    pt = sample_family_member(L, fam, rng)
                    assert all(p.vanishes_at(pt) for p in system.entries.values()), \
                        (system.case_id, fam.describe(), pt)
                checked += 1
    assert checked > 0


def test_never_verdicts_explain_themselves(audit_result):
    verdicts, _ = audit_result
    nevers = [v for v in verdicts if v.status == "never-holds"]
    assert len(nevers) == 10
    for v in nevers:
        assert v.explanation
        assert v.witness is not None
        assert any(r != 0 for r in v.residuals.values())


def test_audit_json_deterministic_for_seed():
    v1, r1 = verify_paper_theorems(trials_per_case=25, seed=4)
    v2, r2 = verify_paper_theorems(trials_per_case=25, seed=4)
    blob1 = json.dumps({"v": [x.to_json() for x in v1], "r": register_json(r1)},
                       sort_keys=True)
    blob2 = json.dumps({"v": [x.to_json() for x in v2], "r": register_json(r2)},
                       sort_keys=True)
    assert blob1 == blob2
