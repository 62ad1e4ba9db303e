"""Codazzi and quasi-statistical structure classification.

Throughout, omega denotes the symmetrized Ricci tensor of a connection
nabla on one of the groups G1..G7.  The Codazzi residual of a triple
(x, y, j) with x < y is

    f(x, y, j) = (nabla_x omega)(e_y, e_j) - (nabla_y omega)(e_x, e_j)

and omega is a Codazzi tensor iff the nine residuals vanish.  The
quasi-statistical residual adds the torsion pairing,

    ft(x, y, j) = f(x, y, j) + omega(T(e_x, e_y), e_j).

Each table derived from a connection is named once, as in OBJECTS and
STRUCTURES, by the stage table _STAGES: the tables it reads and the stage
that computes it (curvature <- connection, ..., quasistatistical <-
codazzi, torsion, ricci-sym).  _derived fills one store per (group, kind)
from it on request, and build_system and compute_object read through it.

This module builds both systems exactly, decides them on solution
families, samples admissible parameter points for necessity arguments,
and audits the published tables shipped under data/ against independent
recomputation.  The register of that audit is a tuple of RegisterEntry
rows: the audit passes map printed rows to register rows, and
register_json writes them from the row fields.
Each published verdict is decided one way: recompute the solution set
of the case (holds-always, holds-on-family on the row's families F,
never-holds, or a difference naming its evidence), then compare it with
the print; a mismatch is a paper-discrepancy carrying both claims.
The transcribed tables and families are read with poly.parse and the
name table of their branch (table_names: the sign h and the
abbreviations m1..m3, n1..n3); --solution text knows the sign h only.
"""

import dataclasses
import json
import random
from dataclasses import dataclass, field
from functools import cache, cached_property
from fractions import Fraction
from importlib import resources
from math import gcd
from types import MappingProxyType
from typing import Iterable, Mapping, Optional, Sequence

from .poly import GREEK, VARS, Point, Polynomial, PolyError, parse, quoted
from .liealg import (
    PAIRS,
    ConstraintSet,
    ConstraintViolation,
    FrameVector,
    LieAlgebra,
    SamplerStarvation,
    _admissible_ints,
    _rand_pairs,
    branches,
    make_group,
    sign_names,
)
from .connection import display_name, make_connection, resolve_kind
from .tensorcalc import cov_deriv_02, curvature, ricci, symmetrize, torsion

__all__ = [
    "CheckResult",
    "Claim",
    "GarbledValue",
    "PolySystem",
    "PrintedSystem",
    "PrintedTable",
    "RegisterEntry",
    "SampleReport",
    "SolutionFamily",
    "Verdict",
    "audit_printed_systems",
    "audit_printed_tables",
    "build_system",
    "case_id",
    "check_on_family",
    "compute_object",
    "load_claims",
    "load_printed_systems",
    "load_printed_tables",
    "register_json",
    "sample_family_member",
    "sample_necessity",
    "table_names",
    "verify_paper_theorems",
]

STRUCTURES = ("codazzi", "quasistatistical")

OBJECTS = ("connection", "curvature", "ricci", "ricci-sym",
           "nabla-ricci-sym", "torsion")

SEVERITIES = ("typo-suspected", "verdict-conflict")

# the "schema" of every report: the register and each command-line payload
REPORT_SCHEMA = "1"

_TABLE_FILES = ("printed_bott.json", "printed_canonical.json", "printed_kn.json")

# draws sample_family_member makes before it gives up on a family
_MEMBER_ATTEMPTS = 2000

# the abbreviations of the printed G3/G4 tables; n1..n3 carry the G4 sign h
_M_SHORTHAND = (("m1", "(a-b-g)/2"), ("m2", "(a-b+g)/2"), ("m3", "(a+b-g)/2"))
_N_SHORTHAND = (("n1", "a/2+h-b"), ("n2", "a/2-h"), ("n3", "a/2+h"))


@cache
def table_names(eta: Optional[int]) -> Mapping[str, Polynomial]:
    """The words of the transcribed tables as a parse name table: m1..m3,
    and on a G4 branch also h and n1..n3.  Built once per eta."""
    names = sign_names(eta)
    for word, text in _M_SHORTHAND + (_N_SHORTHAND if names else ()):
        names[word] = parse(text, names)
    return MappingProxyType(names)


@cache
def _data_poly(text: str, eta: Optional[int]) -> Polynomial:
    """A formula of the data files on one branch: parse(text,
    table_names(eta)), once per text and eta; tables, systems and families
    share the immutable result.  A text that does not parse raises on
    every call, as @cache keeps no exception."""
    return parse(text, table_names(eta))


def _key_text(key: tuple) -> str:
    """An index tuple spelled as in the data files and reports: "x,y,j"."""
    return ",".join(map(str, key))


def _residual_json(values: Mapping[tuple, object]) -> dict:
    """A map keyed by index tuple as JSON: "x,y,j" keys, sorted, str values."""
    return {_key_text(k): str(v) for k, v in sorted(values.items())}


def _point_json(point: Optional[Mapping]) -> Optional[dict]:
    return None if point is None else {v: str(point[v]) for v in sorted(point)}


def _eta_suffix(eta: Optional[int]) -> str:
    if eta is None:
        return ""
    return " [eta=+1]" if eta > 0 else " [eta=-1]"


# -- solution families -----------------------------------------------------


def _var_name(text: str, names: Mapping[str, Polynomial]) -> str:
    p = parse(text.strip(), names)
    for v in VARS:
        if p == Polynomial.var(v):
            return v
    raise PolyError(f"not a parameter name: {quoted(text.strip())}")


@dataclass(frozen=True)
class SolutionFamily:
    """A partial parameter assignment cutting out a family of groups.

    assignment maps a variable to a polynomial in the remaining free
    variables.  extra_inequations are polynomials required nonzero on
    the family.  quadratic_relations are pairs (lhs, rhs): the relation
    lhs = rhs holds on the family, which then has no rational
    parametrization to sample.
    """

    assignment: Mapping[str, Polynomial] = field(default_factory=dict)
    extra_inequations: tuple = ()
    quadratic_relations: tuple = ()

    def __post_init__(self):
        for var in self.assignment:
            if var not in VARS:
                raise PolyError(f"unknown variable {var!r} in assignment")
        bad = [v for p in self.assignment.values() for v in p.variables()
               if v in self.assignment]
        if bad:
            raise PolyError(f"assignment values must use free variables only; saw {bad}")

    @classmethod
    def from_spec(cls, spec: Mapping, eta: Optional[int] = None) -> "SolutionFamily":
        """A family from its data-file form; each formula is read once per
        text and eta by _data_poly, as the printed tables are.  A key other
        than assign, require_nonzero and quadratic raises ValueError."""
        unknown = sorted(set(spec) - {"assign", "require_nonzero", "quadratic"})
        if unknown:
            raise ValueError(f"unknown keys {unknown} in a family spec; "
                             "expected assign, require_nonzero or quadratic")
        assignment = {var: _data_poly(txt, eta) for var, txt in spec.get("assign", {}).items()}
        nonzero = tuple(_data_poly(t, eta) for t in spec.get("require_nonzero", ()))
        quads = tuple((_data_poly(l, eta), _data_poly(r, eta))
                      for l, r in spec.get("quadratic", ()))
        return cls(assignment=assignment, extra_inequations=nonzero,
                   quadratic_relations=quads)

    @classmethod
    def from_text(cls, text: str, eta: Optional[int] = None) -> "SolutionFamily":
        """Parse "a=0,b=0,g!=0" into a family.

        h is the sign eta as in from_spec, so it needs the group's eta;
        the m/n shorthand of the printed tables is not solution text."""
        names = sign_names(eta)
        assignment = {}
        nonzero = []
        for tok in text.split(","):
            tok = tok.strip()
            if not tok:
                continue
            if "!=" in tok:
                lhs, rhs = tok.split("!=", 1)
                if parse(rhs.strip(), names) != Polynomial.zero():
                    raise PolyError(f"only '!= 0' conditions are supported: {quoted(tok)}")
                nonzero.append(parse(lhs.strip(), names))
            elif "=" in tok:
                var, rhs = tok.split("=", 1)
                var = _var_name(var, names)
                if var in assignment:
                    raise PolyError(f"{var!r} is assigned twice in {quoted(text)}")
                assignment[var] = parse(rhs.strip(), names)
            else:
                raise PolyError(f"expected var=expr or expr!=0, got {quoted(tok)}")
        return cls(assignment=assignment, extra_inequations=tuple(nonzero))

    @cached_property
    def _conditions(self) -> ConstraintSet:
        """The family as side conditions: it is where x_v - p vanishes for
        each assignment v = p and lhs - rhs for each relation, and no extra
        inequation does."""
        vanish = tuple(Polynomial.var(v) - self.assignment[v] for v in sorted(self.assignment))
        vanish += tuple(lhs - rhs for lhs, rhs in self.quadratic_relations)
        return ConstraintSet(equalities=vanish, inequations=self.extra_inequations)

    def contains(self, point: Mapping[str, Fraction]) -> bool:
        """Whether the point lies on the family: one call of the compiled
        test of its conditions (see ConstraintSet)."""
        return self._conditions._admits(*Point.of(point)._ints)

    def describe(self, greek: bool = False) -> str:
        parts = []
        for var in sorted(self.assignment):
            name = GREEK[var] if greek else var
            parts.append(f"{name} = {self.assignment[var].text(greek=greek)}")
        for lhs, rhs in self.quadratic_relations:
            parts.append(f"{lhs.text(greek=greek)} = {rhs.text(greek=greek)}")
        neq = "≠" if greek else "!="
        for q in self.extra_inequations:
            parts.append(f"{q.text(greek=greek)} {neq} 0")
        return ", ".join(parts) if parts else "no restriction"

    def to_json(self) -> dict:
        out = {"assign": {v: self.assignment[v].text() for v in sorted(self.assignment)}}
        if self.extra_inequations:
            out["require_nonzero"] = [q.text() for q in self.extra_inequations]
        if self.quadratic_relations:
            out["quadratic"] = [[l.text(), r.text()] for l, r in self.quadratic_relations]
        return out


# -- derivations ------------------------------------------------------------


def _quasistatistical(f: Mapping, T: Mapping, omega: Mapping) -> dict:
    out = {}
    for (x, y, j), fxyj in f.items():
        # omega(T(e_x, e_y), e_j), skipping the products with a zero factor
        pairing = Polynomial.zero()
        for k, t in enumerate(T[(x, y)].c, start=1):
            w = omega[(k, j)]
            if t and w:
                pairing = pairing + t * w
        out[(x, y, j)] = fxyj + pairing
    return out


# each table derived from a connection: the tables it reads and the stage
# that computes it from them.  A stage names its function when it runs, so
# it calls whatever the module attribute holds then.
_STAGES = {
    "curvature": (("connection",), lambda C: curvature(C)),
    "ricci": (("curvature",), lambda R: ricci(R)),
    "ricci-sym": (("ricci",), lambda rho: symmetrize(rho)),
    "nabla-ricci-sym": (("connection", "ricci-sym"), lambda C, omega: cov_deriv_02(C, omega)),
    "torsion": (("connection",), lambda C: torsion(C)),
    "codazzi": (("nabla-ricci-sym",), lambda D: {
        (x, y, j): D[(x, y, j)] - D[(y, x, j)] for x, y in PAIRS for j in (1, 2, 3)}),
    "quasistatistical": (("codazzi", "torsion", "ricci-sym"), _quasistatistical),
}


def _derived(L: LieAlgebra, kind: str, name: str) -> dict:
    """The table name of _STAGES for a connection on L, computed on first
    request from the tables it reads.  The tables of a kind live in one
    dict, L.derived[("derivation", kind id)]; on the first request for a
    kind it reuses the dict of a kind whose connection has the same table
    (Bott and Kobayashi-Nomizu coincide on G1..G7).  Every consumer reads
    the same dicts, so treat them as read-only."""
    key = ("derivation", resolve_kind(kind))
    store = L.derived.get(key)
    if store is None:
        C = make_connection(L, kind)
        store = L.derived[key] = next(
            (v for k, v in L.derived.items()
             if k[0] == "derivation" and v["connection"].gamma == C.gamma),
            {"connection": C})
    if name not in store:
        reads, stage = _STAGES[name]
        store[name] = stage(*(_derived(L, kind, r) for r in reads))
    return store[name]


# -- residual systems ------------------------------------------------------


@dataclass(frozen=True)
class PolySystem:
    """Nine labeled residuals over the pairs (x, y) with x < y."""

    case_id: str
    entries: Mapping[tuple, Polynomial]
    algebra: LieAlgebra

    def nonzero(self):
        return [(key, p) for key, p in sorted(self.entries.items()) if not p.is_zero()]

    def is_trivial(self) -> bool:
        return not self.nonzero()

    def reduced(self):
        """Distinct monic residuals, deterministically ordered."""
        seen = {}
        for _, p in self.nonzero():
            m = p.monic()
            seen.setdefault(m.text(), m)
        return [seen[k] for k in sorted(seen)]

    def to_json(self) -> dict:
        return {
            "case": self.case_id,
            "entries": _residual_json(self.entries),
        }


def case_id(label: str, kind: str, structure: str) -> str:
    """The id of a case, e.g. G2/bott/codazzi or G4(eta=+1)/canonical/codazzi."""
    return f"{label}/{display_name(kind)}/{structure}"


def build_system(L: LieAlgebra, kind: str, structure: str) -> PolySystem:
    if structure not in STRUCTURES:
        raise ValueError(f"unknown structure {structure!r}; expected one of {STRUCTURES}")
    return PolySystem(case_id=case_id(L.label(), kind, structure),
                      entries=_derived(L, kind, structure), algebra=L)


# -- deciding a system on a family ------------------------------------------


@dataclass(frozen=True)
class CheckResult:
    holds: bool
    residuals: Mapping[tuple, Polynomial]

    def to_json(self) -> dict:
        return {
            "holds": self.holds,
            "residuals": _residual_json(self.residuals),
        }


def check_on_family(system: PolySystem, family: SolutionFamily) -> CheckResult:
    """Decide whether the system vanishes identically on the family.

    The divisors are the group's equalities and the family's relations
    lhs - rhs, substituted by the assignment; an inequation or residual
    is substituted, then reduced by Polynomial.remainder(*divisors), and
    the remainder is what is left of it on the family.  Raises
    ConstraintViolation when an equality or relation substitutes to a
    nonzero constant, or an inequation reduces to zero."""
    L = system.algebra
    divisors = []
    for rel in L.constraints.equalities + tuple(l - r for l, r in family.quadratic_relations):
        r = rel.substitute(family.assignment)
        if r and r.is_constant():
            raise ConstraintViolation(rel, "equality")
        if r:
            divisors.append(r)
    for q in L.constraints.inequations + family.extra_inequations:
        if not q.substitute(family.assignment).remainder(*divisors):
            raise ConstraintViolation(q, "inequation")
    residuals = {}
    for key, p in system.entries.items():
        r = p.substitute(family.assignment).remainder(*divisors)
        if r:
            residuals[key] = r
    return CheckResult(holds=not residuals, residuals=residuals)


def sample_family_member(L: LieAlgebra, family: SolutionFamily,
                         rng: random.Random) -> Point:
    """One rational parameter point on the family satisfying all side
    conditions.  Free variables are drawn with a strong bias toward zero
    so that families inside the constraint variety are reachable; each
    draw is decided by compiled tests of its ints (see ConstraintSet)."""
    free = [i for i, v in enumerate(VARS) if v not in family.assignment]
    assigned = [(VARS.index(v), p) for v, p in sorted(family.assignment.items())]
    draw = _rand_pairs(rng, nonzero=True).__next__
    on_family, admits = family._conditions._admits, L.constraints._admits
    for _ in range(_MEMBER_ATTEMPTS):
        pairs = [(0, 1)] * len(VARS)
        for i in free:
            if rng.random() >= 0.5:
                pairs[i] = draw()
        # assigned values use free variables only, so the assigned ones may read 0
        probe = Point._of_ints(sum(pairs, ()))
        for i, p in assigned:
            pairs[i] = p.eval_at(probe).as_integer_ratio()
        ints = sum(pairs, ())
        if on_family(*ints) and admits(*ints):
            return Point._of_ints(ints)
    raise SamplerStarvation(
        f"no member of family [{family.describe()}] on {L.label()} "
        f"in {_MEMBER_ATTEMPTS} attempts")


@dataclass(frozen=True)
class SampleReport:
    """Outcome of rejection sampling outside a set of excluded families."""

    trials: int
    violations: int
    satisfied: int
    witness: Optional[Point]            # first point with a nonzero residual
    witness_residuals: Optional[dict]   # residual values at the witness
    counterexample: Optional[Point]     # first point where the system holds

    def to_json(self) -> dict:
        out = {
            "trials": self.trials,
            "violations": self.violations,
            "satisfied": self.satisfied,
            "witness": _point_json(self.witness),
            "counterexample": _point_json(self.counterexample),
        }
        if self.witness_residuals is not None:
            out["witness_residuals"] = _residual_json(self.witness_residuals)
        return out


def _check_trials(trials) -> None:
    # a float or a bool would run: 2.5 evaluated 3 points, reported as trials = 3
    if not isinstance(trials, int) or isinstance(trials, bool) or trials < 1:
        raise ValueError("trials must be a positive integer")


def _check_seed(seed) -> None:
    # random.seed folds a negative int onto its absolute value and seeds
    # None from the clock, so either would break "one seed, one stream"
    if not isinstance(seed, int) or isinstance(seed, bool) or seed < 0:
        raise ValueError("seed must be a non-negative integer")


def sample_necessity(system: PolySystem, excluded: Iterable[SolutionFamily],
                     trials: int, seed: int) -> SampleReport:
    """Evaluate the system at `trials` admissible points outside every
    excluded family.  All points violating the system supports a
    never-holds verdict; a satisfying point refutes the necessity of the
    excluded families.  Deterministic for a fixed seed.

    Each attempt takes the next point of one liealg._admissible_ints
    stream per call, as its eight ints, and decides it by compiled tests
    of them (see ConstraintSet): it is skipped when the test of some
    excluded family admits it, and otherwise the system holds there when
    the test of "every residual vanishes", built once per call, admits
    it.  A Point is built only for the witness and the counterexample.
    trials is an int >= 1 and the seed an int >= 0, else ValueError."""
    _check_trials(trials)
    _check_seed(seed)
    excluded = tuple(excluded)  # read twice: for the tests and by a starvation message
    next_ints = _admissible_ints(system.algebra, random.Random(seed)).__next__
    on_excluded = tuple(f._conditions._admits for f in excluded)
    holds = ConstraintSet(equalities=tuple(system.entries.values()))._admits
    evaluated = violations = satisfied = 0
    witness = witness_res = counterexample = None
    attempts = 0
    while evaluated < trials:
        # starve once fewer than 1 in 200 draws survive the exclusions
        if attempts >= 2000 + 200 * evaluated:
            raise SamplerStarvation(
                f"only {evaluated} of {trials} requested points for {system.case_id} "
                f"after {attempts} attempts; the excluded families "
                f"[{'; '.join(f.describe() for f in excluded) or 'none'}] "
                "leave too little room")
        attempts += 1
        ints = next_ints()
        # a plain loop: any() over a generator here costs more than the
        # kernel calls it makes
        for on in on_excluded:
            if on(*ints):
                break
        else:
            evaluated += 1
            if holds(*ints):
                satisfied += 1
                if counterexample is None:
                    counterexample = Point._of_ints(ints)
            else:
                violations += 1
                if witness is None:
                    witness = Point._of_ints(ints)
                    witness_res = _eval_all(system, witness)
    return SampleReport(trials=evaluated, violations=violations,
                        satisfied=satisfied, witness=witness,
                        witness_residuals=witness_res,
                        counterexample=counterexample)


# -- discrepancy register ----------------------------------------------------


@dataclass(frozen=True)
class RegisterEntry:
    """One print that recomputation contradicts: where it stands, the
    printed and recomputed values as text, and one of SEVERITIES."""

    location: str
    printed: str
    recomputed: str
    severity: str

    def __post_init__(self):
        if self.severity not in SEVERITIES:
            raise ValueError(f"severity must be one of {SEVERITIES}")


def register_json(register: Iterable[RegisterEntry]) -> dict:
    """The register as a report: each row's fields, under the report schema."""
    return {"schema": REPORT_SCHEMA, "entries": [dataclasses.asdict(e) for e in register]}


# -- published data ----------------------------------------------------------


@dataclass(frozen=True)
class GarbledValue:
    """A print too damaged to parse; carries the raw source text."""

    raw: str

    def text(self) -> str:
        """The raw text: a register row shows it as the print of the value."""
        return self.raw


def _printed(value, eta: Optional[int]):
    """A printed value on one branch, by its JSON shape: a garbled dict is
    a GarbledValue, a text a _data_poly, a list of three texts a FrameVector."""
    if isinstance(value, dict):
        return GarbledValue(raw=value["raw"])
    if isinstance(value, str):
        return _data_poly(value, eta)
    return FrameVector(*(_data_poly(t, eta) for t in value))


def _load_json(name: str) -> dict:
    path = resources.files("liecodazzi.data").joinpath(name)
    with path.open("r", encoding="utf-8") as fh:
        return json.load(fh)


_VECTOR_KINDS = ("connection", "curvature", "torsion")

# the index tuples of each object, in table order
_KIND_KEYS = {
    "connection": [(i, j) for i in (1, 2, 3) for j in (1, 2, 3)],
    "curvature": [(x, y, k) for x, y in PAIRS for k in (1, 2, 3)],
    "ricci": [(i, j) for i in (1, 2, 3) for j in (1, 2, 3)],
    "ricci-sym": [(1, 1), (1, 2), (1, 3), (2, 2), (2, 3), (3, 3)],
    "nabla-ricci-sym": [(p, q, j) for x, y in PAIRS for j in (1, 2, 3)
                        for p, q in ((x, y), (y, x))],
    "torsion": PAIRS,
}


class _Published:
    """A transcribed row of the source; G4 rows hold for both signs of h."""

    def branches(self) -> tuple:
        return branches(self.family)


@dataclass(frozen=True)
class PrintedTable(_Published):
    id: str
    family: str
    connection: str
    kind: str
    entries: Mapping[str, object] = field(default_factory=dict)
    all_zero: bool = False

    def materialize(self, eta: Optional[int]):
        """The entries on one branch, each read by _printed; an all-zero
        table has every key of its kind, each a zero of the kind's shape."""
        entries = self.entries
        if self.all_zero:
            zero = ("0", "0", "0") if self.kind in _VECTOR_KINDS else "0"
            entries = dict.fromkeys(map(_key_text, _KIND_KEYS[self.kind]), zero)
        return {key: _printed(value, eta) for key, value in entries.items()}


@dataclass(frozen=True)
class PrintedSystem(_Published):
    id: str
    family: str
    connection: str
    structure: str
    equations: tuple

    def materialize(self, eta: Optional[int]):
        """(position, Polynomial | GarbledValue) pairs on one branch,
        positions 1-based, each equation read by _printed."""
        return [(pos, _printed(eq, eta)) for pos, eq in enumerate(self.equations, start=1)]


@dataclass(frozen=True)
class Claim(_Published):
    family: str
    connection: str
    structure: str
    anchor: str
    status: str
    families: tuple = ()
    recomputed_families: tuple = ()

    def __post_init__(self):
        case = f"claim {self.family}/{self.connection}/{self.structure}"
        if self.status not in ("always", "families", "never"):
            raise ValueError(f"{case}: unknown status {self.status!r}; "
                             "expected always, families or never")
        if self.status == "families" and not self.families:
            raise ValueError(f"{case}: a families claim lists no families")
        if self.status != "families" and self.families:
            raise ValueError(f"{case}: a claim of status {self.status!r} lists families")


def _load_rows(name: str, key: str, cls) -> list:
    """The rows under key in a data file as cls records, lists as tuples."""
    known = {f.name for f in dataclasses.fields(cls)}
    rows = []
    for row in _load_json(name)[key]:
        unknown = sorted(set(row) - known)
        if unknown:
            raise ValueError(f"{name}: unknown keys {unknown} in a {cls.__name__} row")
        rows.append(cls(**{k: tuple(v) if isinstance(v, list) else v
                           for k, v in row.items()}))
    return rows


def load_printed_tables():
    return [t for name in _TABLE_FILES for t in _load_rows(name, "tables", PrintedTable)]


def load_printed_systems():
    return _load_rows("printed_systems.json", "systems", PrintedSystem)


def load_claims():
    return _load_rows("claims.json", "claims", Claim)


# -- recomputation -----------------------------------------------------------


def compute_object(L: LieAlgebra, kind: str, obj: str) -> dict:
    """One derived object of a connection, keyed like the data files.

    The dict is fresh on every call; its values are shared and immutable."""
    if obj not in OBJECTS:
        raise ValueError(f"unknown object {obj!r}; expected one of {OBJECTS}")
    table = make_connection(L, kind).gamma if obj == "connection" else _derived(L, kind, obj)
    return {_key_text(key): table[key] for key in _KIND_KEYS[obj]}


def audit_printed_tables(tables: Iterable[PrintedTable]) -> list:
    """A typo-suspected RegisterEntry for every printed table entry that
    recomputation contradicts, in table and key order; a garbled entry
    equals no value, so it always gets one."""
    rows = []
    for tbl in tables:
        for eta in tbl.branches():
            engine = compute_object(make_group(tbl.family, eta=eta), tbl.connection, tbl.kind)
            rows += [RegisterEntry(f"{tbl.id} entry ({key}){_eta_suffix(eta)}",
                                   pv.text(), engine[key].text(), "typo-suspected")
                     for key, pv in tbl.materialize(eta).items() if pv != engine[key]]
    return rows


def _rref(rows):
    """The reduced row echelon form of the integer rows, each row scaled
    to be primitive with a positive leading entry: unique for their span.
    Fraction-free Gauss-Jordan elimination (Bareiss, Math. Comp. 22
    (1968)): the chosen pivot row is scaled so, and each other row r
    becomes pv*row_r - f*row_lead over its gcd (pv > 0 keeps its sign)."""
    rows = [list(r) for r in rows]
    lead = 0
    for col in range(len(rows[0]) if rows else 0):
        pivot = next((r for r in range(lead, len(rows)) if rows[r][col]), None)
        if pivot is None:
            continue
        row = rows[pivot]
        g = gcd(*row) if row[col] > 0 else -gcd(*row)
        top = [x // g for x in row]
        rows[pivot], rows[lead] = rows[lead], top
        pv = top[col]
        for r, row in enumerate(rows):
            f = row[col]
            if f and r != lead:
                row = [pv * x - f * y for x, y in zip(row, top)]
                g = gcd(*row)
                rows[r] = [x // g for x in row] if g > 1 else row
        lead += 1
    return tuple(map(tuple, rows[:lead]))


def systems_equivalent(left: Sequence[Polynomial], right: Sequence[Polynomial]) -> bool:
    """Equality of the rational linear spans of two equation lists."""
    monos = sorted({e for p in (*left, *right) for e in p._nums}, reverse=True)
    if not monos:
        return True

    def rows(ps):
        # each row is a polynomial times its denominator > 0: the same span
        return [[p._nums.get(m, 0) for m in monos] for p in ps if p._nums]

    return _rref(rows(left)) == _rref(rows(right))


def audit_printed_systems(systems: Iterable[PrintedSystem]) -> list:
    """A typo-suspected RegisterEntry for every printed reduced system that
    recomputation contradicts, in system order.

    Systems are compared as rational linear spans, so scaling and
    recombination of equations never count as differences.  Each garbled
    equation gets a row and is excluded; the remaining printed equations
    must then lie inside the recomputed span.
    """
    rows = []
    for ps in systems:
        for eta in ps.branches():
            system = build_system(make_group(ps.family, eta=eta), ps.connection, ps.structure)
            engine_eqs = system.reduced()
            engine_txt = "; ".join(p.text() for p in engine_eqs)
            parseable = []
            garbled = False
            for pos, eq in ps.materialize(eta):
                if isinstance(eq, GarbledValue):
                    garbled = True
                    rows.append(RegisterEntry(f"{ps.id} equation {pos}{_eta_suffix(eta)}",
                                              eq.raw, f"recomputed system: {engine_txt}",
                                              "typo-suspected"))
                else:
                    parseable.append(eq)
            # with unrecoverable lines only containment can be checked
            if not systems_equivalent(parseable + engine_eqs if garbled else parseable,
                                      engine_eqs):
                rows.append(RegisterEntry(f"{ps.id}{_eta_suffix(eta)}",
                                          "; ".join(p.text() for p in parseable),
                                          engine_txt, "typo-suspected"))
    return rows


# -- verdicts ----------------------------------------------------------------


@dataclass(frozen=True)
class Verdict:
    case_id: str
    anchor: str
    status: str
    families_desc: tuple = ()
    witness: Optional[Point] = None
    residuals: Optional[dict] = None   # residual values at the witness, by index tuple
    explanation: str = ""
    paper_claim: str = ""
    recomputed_claim: str = ""

    def __post_init__(self):
        if self.status not in ("holds-always", "holds-on-family",
                               "never-holds", "paper-discrepancy"):
            raise ValueError(f"unknown status {self.status!r}")
        if self.status == "never-holds" and not self.explanation:
            raise ValueError("a never-holds verdict needs an explanation")
        if self.status == "paper-discrepancy" and not (
                self.paper_claim and self.recomputed_claim):
            raise ValueError("a paper-discrepancy verdict carries both claims")

    def to_json(self) -> dict:
        out = {
            "case": self.case_id,
            "anchor": self.anchor,
            "status": self.status,
            "families": list(self.families_desc),
            "witness": _point_json(self.witness),
            "explanation": self.explanation,
        }
        out["residuals"] = None if self.residuals is None else _residual_json(self.residuals)
        if self.status == "paper-discrepancy":
            out["paper_claim"] = self.paper_claim
            out["recomputed_claim"] = self.recomputed_claim
        return out


def _eval_all(system: PolySystem, point: Mapping[str, Fraction]) -> dict:
    point = Point.of(point)
    return {key: p.eval_at(point) for key, p in system.entries.items()}


def _audit_branch(claim: Claim, L: LieAlgebra, trials: int, seed: int) -> Verdict:
    """Recompute one branch's solution set, then compare it with the print.

    F is the row's recomputed families, else its printed ones.  A trivial
    system holds always, with no sampling.  Otherwise check_on_family
    decides each family in F exactly, once, and one necessity sample is
    drawn outside F; the recomputed status is holds-on-family on a
    nonempty F where every check holds, never-holds on an empty F when no
    sampled point satisfies the system, and otherwise a difference that
    names its evidence.  The witness of a holding verdict is one member
    point of the first holding family without a quadratic relation; a
    difference shows the necessity counterexample, or none.  The verdict
    is that status when it equals the printed claim, else a
    paper-discrepancy carrying both."""
    system = build_system(L, claim.connection, claim.structure)
    eta = L.eta
    shown = tuple(SolutionFamily.from_spec(s, eta) for s in claim.families)
    fams = tuple(SolutionFamily.from_spec(s, eta)
                 for s in claim.recomputed_families) or shown
    desc = tuple(f.describe() for f in fams)
    printed = {"always": "holds-always", "never": "never-holds"}.get(
        claim.status, "holds-on-family: " + " | ".join(f.describe() for f in shown))
    witness = values = None
    if system.is_trivial():
        recomputed, explanation = "holds-always", "all nine residuals vanish identically"
    else:
        evidence = []
        rng = random.Random(seed ^ 0x5EED)
        for fam in fams:
            res = check_on_family(system, fam)
            if not res.holds:
                if not evidence:
                    key = min(res.residuals)
                    evidence.append(f"on [{fam.describe()}] residual ({_key_text(key)}) = "
                                    f"{res.residuals[key].text()}")
            elif witness is None and not fam.quadratic_relations:
                # a family with a relation has no rational parametrization to sample
                witness = sample_family_member(L, fam, rng)
        report = sample_necessity(system, fams, trials, seed)
        cx = report.counterexample
        if cx is not None:
            evidence.append("system holds " + ("outside the families " if fams else "")
                            + "at " + cx.text())
        if evidence:
            recomputed = "solution set differs: " + "; ".join(evidence)
            explanation = "; ".join(evidence)
            witness = cx
        elif not fams:
            recomputed = "never-holds"
            witness, values = report.witness, report.witness_residuals
            key = next(k for k, v in sorted(values.items()) if v)
            explanation = (f"all {report.violations} sampled admissible points violate "
                           f"the system; e.g. f({_key_text(key)}) = {values[key]} "
                           "at the witness")
        else:
            recomputed = "holds-on-family: " + " | ".join(desc)
            if printed == "never-holds":
                explanation = (f"printed verdict excludes any solution, but all nine "
                               f"residuals vanish identically on [{' | '.join(desc)}] "
                               f"and at the sampled member point; {report.violations} "
                               "sampled points outside the family all violate the system")
            else:
                explanation = (f"system vanishes identically on each family; "
                               f"{report.violations} sampled points outside them all "
                               "violate it")
    if values is None and witness is not None:
        # a never-holds witness carries the values sample_necessity took
        values = _eval_all(system, witness)
    return Verdict(
        case_id=system.case_id, anchor=f"{claim.anchor}{_eta_suffix(eta)}",
        status=recomputed.partition(":")[0] if recomputed == printed
        else "paper-discrepancy",
        families_desc=desc, witness=witness,
        residuals=values,
        explanation=explanation, paper_claim=printed, recomputed_claim=recomputed)


def _template_family_desc(claim: Claim) -> tuple:
    descs = []
    for spec in (claim.recomputed_families or claim.families):
        parts = [f"{v} = {spec['assign'][v]}" for v in sorted(spec.get("assign", {}))]
        parts += [f"{l} = {r}" for l, r in spec.get("quadratic", ())]
        parts += [f"{q} != 0" for q in spec.get("require_nonzero", ())]
        descs.append(", ".join(parts) if parts else "no restriction")
    return tuple(descs)


def _audit_claim(claim: Claim, index: int, trials: int, seed: int):
    """One or two Verdicts for a claim.  G4 branches merge when their
    statuses agree and are not discrepancies; a discrepancy keeps the
    recomputed values of its own sign."""
    verdicts = [_audit_branch(claim, make_group(claim.family, eta=eta), trials,
                              seed * 100003 + index * 101 + bi)
                for bi, eta in enumerate(claim.branches())]
    if len(verdicts) == 2 and \
            verdicts[0].status == verdicts[1].status != "paper-discrepancy":
        v = verdicts[0]
        return [dataclasses.replace(
            v, case_id=case_id(claim.family, claim.connection, claim.structure),
            anchor=claim.anchor,
            families_desc=_template_family_desc(claim) if v.families_desc else (),
            explanation=v.explanation + " (both signs of h agree)")]
    return verdicts


def verify_paper_theorems(trials_per_case: int = 200, seed: int = 0):
    """Audit every published table, system, and verdict.

    Returns (verdicts, register), both tuples.  The verdicts cover each of
    the 42 family/connection/structure cases, each once unless its two G4
    sign branches disagree or are discrepancies.  The register is one
    RegisterEntry per print that the recomputation contradicts: the rows
    of the printed tables, then of the printed systems, then a
    verdict-conflict row per paper-discrepancy verdict.
    Ints trials_per_case >= 1 and seed >= 0, else ValueError before any work."""
    _check_trials(trials_per_case)
    _check_seed(seed)
    register = (audit_printed_tables(load_printed_tables())
                + audit_printed_systems(load_printed_systems()))
    verdicts = tuple(v for index, claim in enumerate(load_claims())
                     for v in _audit_claim(claim, index, trials_per_case, seed))
    register += [RegisterEntry(v.anchor, v.paper_claim, v.recomputed_claim, "verdict-conflict")
                 for v in verdicts if v.status == "paper-discrepancy"]
    return verdicts, tuple(register)
