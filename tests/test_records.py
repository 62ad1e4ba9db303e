"""The record classes: immutable, compared and hashed by their fields
in class order, shown as Name(field=value, ...), and copied and pickled
field for field.  A cold import of the package loads neither dataclasses
nor inspect."""

import copy
import inspect
import itertools
import pickle

import pytest

from conftest import run_python
from liecodazzi.classify import (
    CheckResult, Claim, GarbledValue, PolySystem, PrintedSystem, PrintedTable, RegisterEntry,
    SampleReport, SolutionFamily, Verdict, build_system,
)
from liecodazzi.connection import Connection, make_connection
from liecodazzi.liealg import ConstraintSet, LieAlgebra, make_group
from liecodazzi.poly import Point, parse


def _group():
    L = make_group("G2")
    return LieAlgebra(family=L.family, eta=L.eta, brackets=dict(L.brackets),
                      constraints=L.constraints)


# each record class with a function that builds a new, equal record on
# every call
RECORDS = {
    ConstraintSet: lambda: ConstraintSet(equalities=(parse("a*g"),),
                                         inequations=(parse("a+d"),)),
    LieAlgebra: _group,
    Connection: lambda: make_connection(_group(), "bott"),
    SolutionFamily: lambda: SolutionFamily.from_text("a=0,g!=0"),
    PolySystem: lambda: build_system(_group(), "bott", "codazzi"),
    CheckResult: lambda: CheckResult(holds=False, residuals={(1, 2, 3): parse("a")}),
    SampleReport: lambda: SampleReport(
        trials=2, violations=1, satisfied=1, witness=Point({"a": 1, "b": 0, "g": 1, "d": 0}),
        witness_residuals={(1, 2, 1): 1}, counterexample=None),
    RegisterEntry: lambda: RegisterEntry("(1.1)", "a", "b", "typo-suspected"),
    GarbledValue: lambda: GarbledValue("\\Gamma_{2"),
    PrintedTable: lambda: PrintedTable(id="(1.1)", family="G1", connection="bott",
                                       kind="ricci", entries={"1,1": "a"}),
    PrintedSystem: lambda: PrintedSystem(id="(1.2)", family="G1", connection="bott",
                                         structure="codazzi", equations=("a", "b")),
    Claim: lambda: Claim(family="G1", connection="bott", structure="codazzi",
                         anchor="Theorem 1", status="never"),
    Verdict: lambda: Verdict(case_id="G1/bott/codazzi", anchor="Theorem 1",
                             status="holds-always", families_desc=("a = 0",)),
}

# the records whose fields hold a dict, and so have no hash
UNHASHABLE = {LieAlgebra, Connection, SolutionFamily, PolySystem, CheckResult, SampleReport,
              PrintedTable}


def field_names(cls) -> list:
    """The parameters of the constructor: the record's fields, in order."""
    return list(inspect.signature(cls).parameters)


@pytest.mark.parametrize("cls", RECORDS, ids=lambda c: c.__name__)
def test_records_refuse_assignment_and_deletion(cls):
    r = RECORDS[cls]()
    name = field_names(cls)[0]
    for change in (lambda: setattr(r, name, None), lambda: delattr(r, name),
                   lambda: setattr(r, "extra", 1)):
        with pytest.raises(AttributeError):
            change()
    assert r == RECORDS[cls]()


@pytest.mark.parametrize("cls", RECORDS, ids=lambda c: c.__name__)
def test_equal_records_compare_and_hash_alike(cls):
    a, b = RECORDS[cls](), RECORDS[cls]()
    assert a is not b and a == b and not a != b
    values = tuple(getattr(a, f) for f in field_names(cls))
    assert a != values
    if cls in UNHASHABLE:
        for r in (a, b):
            with pytest.raises(TypeError):
                hash(r)
    else:
        assert hash(a) == hash(b) == hash(values)


def test_records_of_different_classes_are_never_equal():
    records = [make() for make in RECORDS.values()]
    for x, y in itertools.permutations(records, 2):
        assert x != y and not x == y


def test_a_field_that_differs_makes_records_unequal():
    entry = RegisterEntry("(1.1)", "a", "b", "typo-suspected")
    assert entry != RegisterEntry("(1.1)", "a", "c", "typo-suspected")
    assert GarbledValue("x") != GarbledValue("y")
    # a record is equal to a record of its own class only
    assert Claim(family="G1", connection="bott", structure="codazzi", anchor="T",
                 status="never") != PrintedSystem(id="T", family="G1", connection="bott",
                                                  structure="codazzi", equations=())


@pytest.mark.parametrize("cls", RECORDS, ids=lambda c: c.__name__)
def test_repr_names_the_class_and_its_fields(cls):
    r = RECORDS[cls]()
    fields = ", ".join(f"{f}={getattr(r, f)!r}" for f in field_names(cls))
    assert repr(r) == f"{cls.__name__}({fields})"


@pytest.mark.parametrize("cls", RECORDS, ids=lambda c: c.__name__)
def test_copies_and_pickles_equal_their_original(cls):
    r = RECORDS[cls]()
    shallow = copy.copy(r)
    assert type(shallow) is cls and shallow == r
    assert all(getattr(shallow, f) is getattr(r, f) for f in field_names(cls))
    for twin in (copy.deepcopy(r), pickle.loads(pickle.dumps(r))):
        assert type(twin) is cls and twin == r


def test_derived_store_is_per_group_and_outside_equality():
    a, b = _group(), _group()
    assert a.derived == {} and a.derived is not b.derived
    make_connection(a, "bott")
    assert a.derived and not b.derived
    assert a == b and "derived" not in repr(a) and "derived" not in field_names(LieAlgebra)
    # with a hashable bracket table the hash reads the fields alone
    x, y = (LieAlgebra(family="G1", eta=None, brackets=(), constraints=ConstraintSet())
            for _ in range(2))
    x.derived["seen"] = 1
    assert x == y and hash(x) == hash(y)


def test_defaults_share_no_mutable_dict():
    assert SolutionFamily().assignment == {}
    assert SolutionFamily().assignment is not SolutionFamily().assignment
    tables = [PrintedTable(id="(1.1)", family="G1", connection="bott", kind="ricci")
              for _ in range(2)]
    assert tables[0].entries == {} and tables[0].entries is not tables[1].entries


@pytest.mark.parametrize("cls", RECORDS, ids=lambda c: c.__name__)
def test_fields_are_the_constructor_parameters(cls):
    assert cls._fields == tuple(field_names(cls))


def test_replace_builds_through_the_constructor():
    verdict = RECORDS[Verdict]()
    changed = verdict._replace(anchor="Theorem 2", explanation="why")
    assert (changed.anchor, changed.explanation, changed.status) == (
        "Theorem 2", "why", "holds-always")
    assert verdict.anchor == "Theorem 1"
    # the constructor's checks run again
    with pytest.raises(ValueError, match="needs an explanation"):
        verdict._replace(status="never-holds")
    with pytest.raises(TypeError):
        verdict._replace(colour="red")
    L = _group()
    make_connection(L, "bott")
    twin = L._replace(eta=None)
    assert twin == L and twin.derived == {}


def test_a_cold_import_loads_neither_dataclasses_nor_inspect():
    # each cold command pays for what its import loads: dataclasses
    # brings inspect, and both cost more than a record class written out
    code = ("import sys\nbefore = set(sys.modules)\nimport liecodazzi.cli\n"
            "print(*sorted(set(sys.modules) - before))")
    done = run_python("-c", code, timeout=60)
    assert done.returncode == 0, done.stderr
    added = set(done.stdout.decode().split())
    assert "liecodazzi.cli" in added and "liecodazzi.classify" in added
    assert not added & {"dataclasses", "inspect"}
