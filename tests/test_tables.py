"""Pins the audit register against the published source tables.

Every row below was adjudicated by hand against an independent
recomputation; the engine values are the reference. Any change to this
list means either a data-entry fix or an engine regression, and both
deserve a close look before updating the expectation.
"""

import pytest

from liecodazzi.classify import register_json, verify_paper_theorems

EXPECTED_REGISTER = (
    ("(2.13) entry (2,3,2)", "typo-suspected"),
    ("(2.13) entry (3,2,2)", "typo-suspected"),
    ("(2.17) entry (1,3,2)", "typo-suspected"),
    ("(2.23) entry (1,3)", "typo-suspected"),
    ("(2.31) entry (2,1) [eta=+1]", "typo-suspected"),
    ("(2.31) entry (2,2) [eta=+1]", "typo-suspected"),
    ("(2.31) entry (2,3) [eta=+1]", "typo-suspected"),
    ("(2.31) entry (2,1) [eta=-1]", "typo-suspected"),
    ("(2.31) entry (2,2) [eta=-1]", "typo-suspected"),
    ("(2.31) entry (2,3) [eta=-1]", "typo-suspected"),
    ("(2.33) entry (1,2,2) [eta=+1]", "typo-suspected"),
    ("(2.33) entry (2,1,2) [eta=+1]", "typo-suspected"),
    ("(2.33) entry (2,1,3) [eta=+1]", "typo-suspected"),
    ("(2.33) entry (1,2,2) [eta=-1]", "typo-suspected"),
    ("(2.33) entry (2,1,2) [eta=-1]", "typo-suspected"),
    ("(2.33) entry (2,1,3) [eta=-1]", "typo-suspected"),
    ("(2.50) entry (1,2,3)", "typo-suspected"),
    ("(2.52) entry (1,3)", "typo-suspected"),
    ("(4.5) entry (1,2,3)", "typo-suspected"),
    ("(4.5) entry (2,1,3)", "typo-suspected"),
    ("(4.5) entry (1,3,2)", "typo-suspected"),
    ("(4.5) entry (3,2,2)", "typo-suspected"),
    ("(4.11) entry (1,2)", "typo-suspected"),
    ("(4.13) entry (2,1,3)", "typo-suspected"),
    ("(4.13) entry (3,1,2)", "typo-suspected"),
    ("(4.13) entry (1,3,3)", "typo-suspected"),
    ("(4.29) entry (2,3) [eta=+1]", "typo-suspected"),
    ("(4.29) entry (2,3) [eta=-1]", "typo-suspected"),
    ("(4.30) entry (2,1,2) [eta=+1]", "typo-suspected"),
    ("(4.30) entry (1,2,3) [eta=+1]", "typo-suspected"),
    ("(4.30) entry (3,1,3) [eta=+1]", "typo-suspected"),
    ("(4.30) entry (2,1,2) [eta=-1]", "typo-suspected"),
    ("(4.30) entry (1,2,3) [eta=-1]", "typo-suspected"),
    ("(4.30) entry (3,1,3) [eta=-1]", "typo-suspected"),
    ("(4.42) entry (1,2)", "typo-suspected"),
    ("(4.51) entry (2,2)", "typo-suspected"),
    ("(4.52) entry (1,2,3)", "typo-suspected"),
    ("(4.52) entry (2,3,2)", "typo-suspected"),
    ("(4.52) entry (3,2,2)", "typo-suspected"),
    ("(4.47) entry (2,3)", "typo-suspected"),
    ("(4.48) entry (1,3,2)", "typo-suspected"),
    ("(4.48) entry (2,3,1)", "typo-suspected"),
    ("(4.48) entry (3,2,1)", "typo-suspected"),
    ("(4.56) entry (1,3,2)", "typo-suspected"),
    ("(2.54)", "typo-suspected"),
    ("(3.22)", "typo-suspected"),
    ("(4.6)", "typo-suspected"),
    ("(4.57)", "typo-suspected"),
    ("(5.22) [eta=+1]", "typo-suspected"),
    ("(5.22) [eta=-1]", "typo-suspected"),
    ("(5.38) equation 4", "typo-suspected"),
    ("(5.38) equation 5", "typo-suspected"),
    ("(5.38) equation 6", "typo-suspected"),
    ("(5.38) equation 7", "typo-suspected"),
    ("(5.41)", "typo-suspected"),
    ("(2.21)", "verdict-conflict"),
)

# torsion tables are clean end to end; none of them may ever be flagged
TORSION_ANCHORS = (
    "(3.4)", "(3.7)", "(3.10)", "(3.12)", "(3.15)", "(3.17)", "(3.20)",
    "(5.3)", "(5.6)", "(5.9)", "(5.12)", "(5.15)", "(5.18)", "(5.20)",
    "(5.23)", "(5.26)", "(5.28)", "(5.30)", "(5.33)", "(5.36)", "(5.39)",
)


@pytest.fixture(scope="module")
def register():
    _, reg = verify_paper_theorems(trials_per_case=25, seed=0)
    return reg


def test_register_rows_and_order(register):
    got = tuple((e.location, e.severity) for e in register)
    assert got == EXPECTED_REGISTER


def test_no_torsion_table_is_flagged(register):
    for entry in register:
        anchor = entry.location.split(" ")[0]
        assert anchor not in TORSION_ANCHORS


def test_register_serialization_schema(register):
    blob = register_json(register)
    assert blob["schema"] == "1"
    assert len(blob["entries"]) == len(EXPECTED_REGISTER)
    first = blob["entries"][0]
    assert set(first) == {"location", "printed", "recomputed", "severity"}


def test_spotcheck_scalar_typo(register):
    row = next(e for e in register if e.location == "(2.13) entry (2,3,2)")
    assert row.printed == "-1/2*a^2"
    assert row.recomputed == "-1/2*a^3"


def test_spotcheck_wrong_variable(register):
    row = next(e for e in register if e.location == "(2.52) entry (1,3)")
    assert row.printed == "a*d+d^2"
    assert row.recomputed == "a*b+b*d"


def test_spotcheck_garbled_entry_keeps_raw_text(register):
    plus = next(e for e in register
                if e.location == "(4.29) entry (2,3) [eta=+1]")
    minus = next(e for e in register
                 if e.location == "(4.29) entry (2,3) [eta=-1]")
    assert plus.printed == minus.printed == "(\\frac{n_3-\\beta}{2}"
    assert plus.recomputed == "1/4*a-1/2*b+1/2"
    assert minus.recomputed == "1/4*a-1/2*b-1/2"


def test_spotcheck_system_mismatch_lists_both_spans(register):
    row = next(e for e in register if e.location == "(4.6)")
    assert row.printed == "3/2*a^3; 1/4*a^2*b"
    assert row.recomputed == "a*b^2; a^2*b; a^3"


def test_spotcheck_verdict_conflict(register):
    row = next(e for e in register if e.location == "(2.21)")
    assert row.severity == "verdict-conflict"
    assert row.printed == "never-holds"
    assert row.recomputed == "holds-on-family: a = 0, b = 0"
