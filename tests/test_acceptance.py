"""Acceptance gate.

One test per shipping criterion, so `pytest -v` prints exactly one
PASS/FAIL line for each. The criteria pin the published source tables,
the 42-case classification audit, the structural identities behind the
engine, and the determinism of the audit report.
"""

import json
import random

import pytest

from conftest import random_poly
from liecodazzi.poly import Polynomial
from liecodazzi.liealg import (
    BASIS, bracket, jacobi_check, make_group, sample_constraint_point)
from liecodazzi.connection import apply, make_connection
from liecodazzi.tensorcalc import (
    PAIRS, cov_deriv_02, cov_deriv_metric, curvature, ricci, symmetrize,
    torsion)
from liecodazzi.classify import (
    GarbledValue,
    build_system,
    compute_object,
    load_printed_tables,
    register_json,
    verify_paper_theorems,
)

AUDIT_TRIALS = 200
AUDIT_SEED = 0

# (case id) -> (source anchor, expected audit status)
EXPECTED_STATUS = {
    "G1/bott/codazzi": ("(2.14)", "never-holds"),
    "G2/bott/codazzi": ("(2.21)", "paper-discrepancy"),
    "G3/bott/codazzi": ("(2.27)", "holds-always"),
    "G4/bott/codazzi": ("(2.34)", "holds-on-family"),
    "G5/bott/codazzi": ("(2.40)", "holds-always"),
    "G6/bott/codazzi": ("(2.47)", "holds-on-family"),
    "G7/bott/codazzi": ("(2.54)", "never-holds"),
    "G1/bott/quasistatistical": ("(3.6)", "never-holds"),
    "G2/bott/quasistatistical": ("(3.9)", "holds-on-family"),
    "G3/bott/quasistatistical": ("(3.11)", "holds-always"),
    "G4/bott/quasistatistical": ("(3.14)", "holds-on-family"),
    "G5/bott/quasistatistical": ("(3.16)", "holds-always"),
    "G6/bott/quasistatistical": ("(3.19)", "holds-on-family"),
    "G7/bott/quasistatistical": ("(3.22)", "never-holds"),
    "G1/canonical/codazzi": ("(4.6)", "never-holds"),
    "G2/canonical/codazzi": ("(4.14)", "holds-on-family"),
    "G3/canonical/codazzi": ("(4.22)", "holds-always"),
    "G4/canonical/codazzi": ("(4.31)", "holds-on-family"),
    "G5/canonical/codazzi": ("(4.39)", "holds-always"),
    "G6/canonical/codazzi": ("(4.45)", "holds-on-family"),
    "G7/canonical/codazzi": ("(4.53)", "holds-on-family"),
    "G1/kobayashi-nomizu/codazzi": ("(4.10)", "never-holds"),
    "G2/kobayashi-nomizu/codazzi": ("(4.18)", "holds-on-family"),
    "G3/kobayashi-nomizu/codazzi": ("(4.26)", "holds-always"),
    "G4/kobayashi-nomizu/codazzi": ("(4.36)", "holds-on-family"),
    "G5/kobayashi-nomizu/codazzi": ("(4.41)", "holds-always"),
    "G6/kobayashi-nomizu/codazzi": ("(4.49)", "holds-on-family"),
    "G7/kobayashi-nomizu/codazzi": ("(4.57)", "never-holds"),
    "G1/canonical/quasistatistical": ("(5.5)", "never-holds"),
    "G2/canonical/quasistatistical": ("(5.11)", "holds-on-family"),
    "G3/canonical/quasistatistical": ("(5.17)", "holds-on-family"),
    "G4/canonical/quasistatistical": ("(5.22)", "holds-on-family"),
    "G5/canonical/quasistatistical": ("(5.27)", "holds-always"),
    "G6/canonical/quasistatistical": ("(5.32)", "holds-on-family"),
    "G7/canonical/quasistatistical": ("(5.38)", "holds-on-family"),
    "G1/kobayashi-nomizu/quasistatistical": ("(5.8)", "never-holds"),
    "G2/kobayashi-nomizu/quasistatistical": ("(5.14)", "holds-on-family"),
    "G3/kobayashi-nomizu/quasistatistical": ("(5.19)", "holds-always"),
    "G4/kobayashi-nomizu/quasistatistical": ("(5.25)", "holds-on-family"),
    "G5/kobayashi-nomizu/quasistatistical": ("(5.29)", "holds-always"),
    "G6/kobayashi-nomizu/quasistatistical": ("(5.35)", "holds-on-family"),
    "G7/kobayashi-nomizu/quasistatistical": ("(5.41)", "never-holds"),
}

# solution families claimed by the source for the holds-on-family cases
EXPECTED_FAMILIES = {
    "G4/bott/codazzi": ("a = 0, b = 0",),
    "G6/bott/codazzi": ("a = 0, b = 0, d != 0", "g = 0, a != 0"),
    "G2/bott/quasistatistical": ("a = 0, b = 0, g != 0",),
    "G4/bott/quasistatistical": ("a = 0, b = 0",),
    "G6/bott/quasistatistical": ("a = 0, b = 0, d != 0", "g = 0, a != 0"),
    "G2/canonical/codazzi": ("a = 2*b, g != 0",),
    "G4/canonical/codazzi": ("b = a/2+h",),
    "G6/canonical/codazzi": ("a = 0, b = 0, g = 0, d != 0",
                             "b = 0, g = 0, a != 0",
                             "d = 0, g = 0, a != 0"),
    "G7/canonical/codazzi": ("a = 0, g = 0, d != 0",),
    "G2/kobayashi-nomizu/codazzi": ("a = 0, b = 0, g != 0",),
    "G4/kobayashi-nomizu/codazzi": ("a = 0, b = 0",),
    "G6/kobayashi-nomizu/codazzi": ("a = 0, b = 0, d != 0", "g = 0, a != 0"),
    "G2/canonical/quasistatistical": ("a = 0, b = 0, g != 0",),
    "G3/canonical/quasistatistical": ("g = 0", "g = a+b, g != 0"),
    "G4/canonical/quasistatistical": ("a = 2*h, b = 2*h", "a = 0, b = h"),
    "G6/canonical/quasistatistical": ("a = 0, b = 0, g = 0, d != 0",
                                      "d = 0, g = 0, b^2 = 2*a^2, a != 0",
                                      "b = 0, g = 0, a != 0"),
    "G7/canonical/quasistatistical": ("a = 0, g = 0, d != 0",),
    "G2/kobayashi-nomizu/quasistatistical": ("a = 0, b = 0, g != 0",),
    "G4/kobayashi-nomizu/quasistatistical": ("a = 0, b = 0",),
    "G6/kobayashi-nomizu/quasistatistical": ("a = 0, b = 0, d != 0",
                                             "g = 0, a != 0"),
}

NEGATIVE_CASES = (
    "G1/bott/codazzi", "G7/bott/codazzi",
    "G1/bott/quasistatistical", "G7/bott/quasistatistical",
    "G1/canonical/codazzi", "G1/kobayashi-nomizu/codazzi",
    "G7/kobayashi-nomizu/codazzi",
    "G1/canonical/quasistatistical",
    "G1/kobayashi-nomizu/quasistatistical",
    "G7/kobayashi-nomizu/quasistatistical",
)

# register rows adjudicated against independent recomputation, keyed by
# the kind of table they flag
FLAGGED_SCALAR_AND_VECTOR = frozenset({
    "(2.17) entry (1,3,2)",
    "(2.23) entry (1,3)",
    "(2.31) entry (2,1) [eta=+1]",
    "(2.31) entry (2,2) [eta=+1]",
    "(2.31) entry (2,3) [eta=+1]",
    "(2.31) entry (2,1) [eta=-1]",
    "(2.31) entry (2,2) [eta=-1]",
    "(2.31) entry (2,3) [eta=-1]",
    "(2.50) entry (1,2,3)",
    "(2.52) entry (1,3)",
    "(4.11) entry (1,2)",
    "(4.29) entry (2,3) [eta=+1]",
    "(4.29) entry (2,3) [eta=-1]",
    "(4.42) entry (1,2)",
    "(4.47) entry (2,3)",
    "(4.51) entry (2,2)",
})

FLAGGED_COVARIANT = frozenset({
    "(2.13) entry (2,3,2)",
    "(2.13) entry (3,2,2)",
    "(2.33) entry (1,2,2) [eta=+1]",
    "(2.33) entry (2,1,2) [eta=+1]",
    "(2.33) entry (2,1,3) [eta=+1]",
    "(2.33) entry (1,2,2) [eta=-1]",
    "(2.33) entry (2,1,2) [eta=-1]",
    "(2.33) entry (2,1,3) [eta=-1]",
    "(4.5) entry (1,2,3)",
    "(4.5) entry (2,1,3)",
    "(4.5) entry (1,3,2)",
    "(4.5) entry (3,2,2)",
    "(4.13) entry (2,1,3)",
    "(4.13) entry (3,1,2)",
    "(4.13) entry (1,3,3)",
    "(4.30) entry (2,1,2) [eta=+1]",
    "(4.30) entry (1,2,3) [eta=+1]",
    "(4.30) entry (3,1,3) [eta=+1]",
    "(4.30) entry (2,1,2) [eta=-1]",
    "(4.30) entry (1,2,3) [eta=-1]",
    "(4.30) entry (3,1,3) [eta=-1]",
    "(4.48) entry (1,3,2)",
    "(4.48) entry (2,3,1)",
    "(4.48) entry (3,2,1)",
    "(4.52) entry (1,2,3)",
    "(4.52) entry (2,3,2)",
    "(4.52) entry (3,2,2)",
    "(4.56) entry (1,3,2)",
})

CONNECTION_ANCHORS = frozenset({
    "(2.9)", "(2.16)", "(2.23)", "(2.29)", "(2.36)", "(2.42)", "(2.49)",
    "(4.3)", "(4.7)", "(4.11)", "(4.15)", "(4.19)", "(4.23)", "(4.27)",
    "(4.32)", "(4.37)", "(4.40)", "(4.42)", "(4.46)", "(4.50)", "(4.54)",
})
CURVATURE_ANCHORS = frozenset(
    {"(2.10)", "(2.17)", "(2.24)", "(2.30)", "(2.37)", "(2.43)", "(2.50)"})
RICCI_ANCHORS = frozenset(
    {"(2.11)", "(2.18)", "(2.25)", "(2.31)", "(2.38)", "(2.44)", "(2.51)"})
COVARIANT_ANCHORS = frozenset({
    "(2.13)", "(2.20)", "(2.27)", "(2.33)", "(2.40)", "(2.46)", "(2.53)",
    "(4.5)", "(4.9)", "(4.13)", "(4.17)", "(4.22)", "(4.26)", "(4.30)",
    "(4.35)", "(4.39)", "(4.44)", "(4.48)", "(4.52)", "(4.56)",
})
TORSION_ANCHORS = frozenset({
    "(3.4)", "(3.7)", "(3.10)", "(3.12)", "(3.15)", "(3.17)", "(3.20)",
    "(5.3)", "(5.6)", "(5.9)", "(5.12)", "(5.15)", "(5.18)", "(5.20)",
    "(5.23)", "(5.26)", "(5.28)", "(5.30)", "(5.33)", "(5.36)", "(5.39)",
})

AUDITED_KINDS = ("bott", "canonical", "kobayashi_nomizu")


def all_groups():
    gs = [make_group(f) for f in ("G1", "G2", "G3", "G5", "G6", "G7")]
    gs.append(make_group("G4", eta=1))
    gs.append(make_group("G4", eta=-1))
    return gs


def table_mismatches(kinds):
    """Compare every printed table of the given kinds with recomputation.

    Returns the set of flagged entry locations and the set of table ids
    that were covered.
    """
    locations = set()
    ids = set()
    for tbl in load_printed_tables():
        if tbl.kind not in kinds:
            continue
        ids.add(tbl.id)
        for eta in tbl.branches():
            L = make_group(tbl.family, eta=eta)
            engine = compute_object(L, tbl.connection, tbl.kind)
            printed = tbl.materialize(eta)
            assert set(printed) == set(engine), tbl.id
            suffix = "" if eta is None else f" [eta={'+1' if eta == 1 else '-1'}]"
            for key, value in printed.items():
                if isinstance(value, GarbledValue) or value != engine[key]:
                    locations.add(f"{tbl.id} entry ({key}){suffix}")
    return locations, ids


@pytest.fixture(scope="module")
def audit():
    verdicts, register = verify_paper_theorems(
        trials_per_case=AUDIT_TRIALS, seed=AUDIT_SEED)
    return {v.case_id: v for v in verdicts}, register


def test_criterion_1_lemma_tables_reproduce_modulo_register(audit):
    mismatches, ids = table_mismatches(
        ("connection", "curvature", "ricci", "ricci-sym"))
    assert mismatches == FLAGGED_SCALAR_AND_VECTOR
    assert ids >= CONNECTION_ANCHORS | CURVATURE_ANCHORS | RICCI_ANCHORS
    _, register = audit
    flagged = {e.location for e in register if e.severity == "typo-suspected"}
    assert FLAGGED_SCALAR_AND_VECTOR <= flagged


def test_criterion_2_covariant_ricci_tables_reproduce_modulo_register(audit):
    mismatches, ids = table_mismatches(("nabla-ricci-sym",))
    assert mismatches == FLAGGED_COVARIANT
    assert ids == COVARIANT_ANCHORS
    # the first covariant table prints 18 component equations; all of
    # them are compared and exactly two are flagged
    first = next(t for t in load_printed_tables() if t.id == "(2.13)")
    assert len(first.materialize(None)) == 18
    _, register = audit
    flagged = {e.location for e in register if e.severity == "typo-suspected"}
    assert FLAGGED_COVARIANT <= flagged


def test_criterion_3_torsion_tables_reproduce_exactly(audit):
    mismatches, ids = table_mismatches(("torsion",))
    assert mismatches == set()
    assert ids == TORSION_ANCHORS
    _, register = audit
    for entry in register:
        assert entry.location.split(" ")[0] not in TORSION_ANCHORS


def test_criterion_4_positive_classifications_hold(audit):
    verdicts, _ = audit
    assert set(verdicts) == set(EXPECTED_STATUS)
    for case_id, (anchor, status) in EXPECTED_STATUS.items():
        v = verdicts[case_id]
        assert v.anchor == anchor, case_id
        assert v.status == status, case_id
    for case_id, families in EXPECTED_FAMILIES.items():
        assert verdicts[case_id].families_desc == families, case_id


def test_criterion_5_negative_classifications_rejected_by_sampling(audit):
    verdicts, register = audit
    for case_id in NEGATIVE_CASES:
        v = verdicts[case_id]
        assert v.status == "never-holds", case_id
        assert v.witness is not None, case_id
        assert any(r != 0 for r in v.residuals.values()), case_id
        assert v.explanation, case_id
    # the one classification the recomputation contradicts: the system
    # does admit solutions, so the audit must say so with evidence
    v = verdicts["G2/bott/codazzi"]
    assert v.status == "paper-discrepancy"
    assert v.paper_claim == "never-holds"
    assert v.recomputed_claim == "holds-on-family: a = 0, b = 0"
    assert v.witness is not None
    assert all(r == 0 for r in v.residuals.values())
    conflicts = [e for e in register if e.severity == "verdict-conflict"]
    assert [e.location for e in conflicts] == ["(2.21)"]


def test_criterion_6_structural_identities_hold():
    # polynomial ring axioms on 500 random triples
    rng = random.Random(77)
    zero, one = Polynomial.zero(), Polynomial.const(1)
    for _ in range(500):
        p, q, r = (random_poly(rng) for _ in range(3))
        assert (p + q) + r == p + (q + r)
        assert (p * q) * r == p * (q * r)
        assert p + q == q + p and p * q == q * p
        assert p * (q + r) == p * q + p * r
        assert p + zero == p and p * one == p
        assert p - p == zero

    groups = all_groups()

    # bracket antisymmetry on the frame, Jacobi exactly modulo the equalities
    for L in groups:
        for i in (1, 2, 3):
            assert bracket(L, BASIS[i - 1], BASIS[i - 1]).is_zero()
            for j in (1, 2, 3):
                assert bracket(L, BASIS[i - 1], BASIS[j - 1]) == \
                    -bracket(L, BASIS[j - 1], BASIS[i - 1])
        assert jacobi_check(L).passed

    # Levi-Civita: torsion-free and metric-compatible, symbolically
    for L in groups:
        C = make_connection(L, "levi_civita")
        assert all(v.is_zero() for v in torsion(C).values())
        nabla_g = cov_deriv_metric(C)
        for i in (1, 2, 3):
            for j in (1, 2, 3):
                for k in (1, 2, 3):
                    assert nabla_g[i, j, k].is_zero()

    # curvature and torsion antisymmetry, recomputed from the defining
    # formulas with the arguments swapped
    for L in groups:
        for kind in AUDITED_KINDS:
            C = make_connection(L, kind)
            R, T = curvature(C), torsion(C)
            for i, j in PAIRS:
                ei, ej = BASIS[i - 1], BASIS[j - 1]
                lie = bracket(L, ej, ei)
                assert (apply(C, ej, ei) - apply(C, ei, ej) - lie) == \
                    -T[i, j]
                for k in (1, 2, 3):
                    ek = BASIS[k - 1]
                    swapped = (apply(C, ej, apply(C, ei, ek))
                               - apply(C, ei, apply(C, ej, ek))
                               - apply(C, lie, ek))
                    assert swapped == -R[i, j, k]

    # residual antisymmetry in the first two arguments, and the exact
    # relation between the two structures: qs - codazzi = omega(T(.,.),.)
    for L in groups:
        for kind in AUDITED_KINDS:
            C = make_connection(L, kind)
            omega = symmetrize(ricci(curvature(C)))
            D, T = cov_deriv_02(C, omega), torsion(C)
            cod = build_system(L, kind, "codazzi")
            qs = build_system(L, kind, "quasistatistical")
            for x, y in PAIRS:
                for j in (1, 2, 3):
                    pairing = sum(
                        (T[x, y].c[k - 1] * omega[k, j]
                         for k in (1, 2, 3)), Polynomial.zero())
                    assert cod.entries[(x, y, j)] == \
                        D[x, y, j] - D[y, x, j]
                    assert qs.entries[(x, y, j)] - cod.entries[(x, y, j)] \
                        == pairing
                    swapped_pairing = sum(
                        (T[y, x].c[k - 1] * omega[k, j]
                         for k in (1, 2, 3)), Polynomial.zero())
                    assert D[y, x, j] - D[x, y, j] + swapped_pairing \
                        == -qs.entries[(x, y, j)]

    # dual-path oracle: symbolic tables evaluated at 50 sampled points
    # agree with connections rebuilt from numeric structure constants
    rng = random.Random(4242)
    for L in groups:
        for _ in range(50):
            pt = sample_constraint_point(L, rng)
            Lnum = make_group(L.family, eta=L.eta, numeric_params=pt)
            for kind in ("levi_civita",) + AUDITED_KINDS:
                sym = make_connection(L, kind)
                num = make_connection(Lnum, kind)
                for key in sym.gamma:
                    want = [p.eval_at(pt) for p in sym.gamma[key].c]
                    got = [p.constant_value() for p in num.gamma[key].c]
                    assert want == got, (L.label(), kind, key)


def test_criterion_7_audit_byte_identical_across_runs(audit):
    verdicts, register = verify_paper_theorems(
        trials_per_case=AUDIT_TRIALS, seed=AUDIT_SEED)
    payload = {
        "verdicts": [v.to_json() for v in verdicts],
        "register": register_json(register),
    }
    first = json.dumps(payload, sort_keys=True, indent=2)
    cached_verdicts, cached_register = audit
    repeat = {
        "verdicts": [cached_verdicts[v.case_id].to_json() for v in verdicts],
        "register": register_json(cached_register),
    }
    second = json.dumps(repeat, sort_keys=True, indent=2)
    assert first == second
