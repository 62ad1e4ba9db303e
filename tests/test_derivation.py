"""The per-group derivation store: shared, lazy, read-only, and invisible
in the audit's output."""

import gc
import hashlib
import json
import random
import sys
import weakref

from conftest import all_groups, run_cli
from liecodazzi import classify, connection, liealg
from liecodazzi.classify import (
    _STAGES, OBJECTS, STRUCTURES, _derived, build_system, compute_object, register_json,
    verify_paper_theorems,
)
from liecodazzi.cli import main
from liecodazzi.connection import (
    KINDS, Connection, bott, canonical, kobayashi_nomizu, levi_civita, make_connection,
    resolve_kind,
)
from liecodazzi.liealg import BASIS, FrameVector, make_group, metric, sample_constraint_point
from liecodazzi.poly import Polynomial
from liecodazzi.tensorcalc import cov_deriv_02, curvature, ricci, symmetrize, torsion

AUDITED_BUILDERS = (bott, canonical, kobayashi_nomizu)

# sha256 of `liecodazzi audit --json --trials 200 --seed 0`; a change that
# means to alter the report updates it
AUDIT_SEED0_SHA256 = "58dd8d6f08486dab5450c265ad0a179a7741674c584ead0f24f215b180009596"
# the same for --seed 7, a second seed whose report is kept byte for byte
AUDIT_SEED7_SHA256 = "f9ce5fa45706889f4567f68c68d1b5781206f782a3e7241e1b7378f45e38c592"

# sha256 of the 256 derived tables of the symbolic groups: the value text
# of every compute_object and the to_json of every build_system, for each
# group, connection kind and object or structure (see derived_tables)
DERIVE_SHA256 = "07c68534b0942b4a30980a590a0702de06b3a11bed2239af88a48d43a41ff269"


def counting(monkeypatch, module, name):
    calls = []
    original = getattr(module, name)

    def wrapper(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(module, name, wrapper)
    return calls


def test_symbolic_groups_are_shared_numeric_ones_are_not():
    assert make_group("G1") is make_group("g1")
    assert make_group("G4", eta=1) is not make_group("G4", eta=-1)
    pt = {"a": 1, "b": 2, "g": 3, "d": 4}
    assert make_group("G1", numeric_params=pt) is not make_group("G1", numeric_params=pt)


def store(L, kind):
    """The dict of tables _derived keeps for a kind on L, or None."""
    return L.derived.get(("derivation", resolve_kind(kind)))


def test_bott_and_kn_share_one_derivation():
    for L in all_groups():
        assert _derived(L, "bott", "codazzi") is _derived(L, "kn", "codazzi"), L.label()
        assert store(L, "bott") is store(L, "kn"), L.label()
        assert store(L, "bott") is not store(L, "canonical"), L.label()


def test_a_shared_derivation_shows_no_connection():
    # KN first: the shared store holds the KN connection, and no table
    # served for Bott may show it
    L = make_group("G3", numeric_params={"a": 1, "b": 2, "g": 3, "d": 0})
    build_system(L, "kn", "quasistatistical")
    served = [compute_object(L, "bott", obj) for obj in OBJECTS]
    served += [build_system(L, "bott", structure).entries for structure in STRUCTURES]
    assert store(L, "bott") is store(L, "kn")
    assert served[0] == {f"{i},{j}": v for (i, j), v in bott(levi_civita(L)).gamma.items()}
    assert not [v for table in served for v in table.values() if isinstance(v, Connection)]


def test_curvature_built_once_per_distinct_table_in_an_audit(monkeypatch):
    # the pure builders give the reference count of distinct tables
    tables = {(L.label(), tuple(sorted(build(levi_civita(L)).gamma.items())))
              for L in all_groups() for build in AUDITED_BUILDERS}
    assert len(tables) == 16
    liealg._symbolic_group.cache_clear()  # start from a cold store
    curvatures = counting(monkeypatch, classify, "curvature")
    levi_civitas = counting(monkeypatch, connection, "levi_civita")
    verify_paper_theorems(trials_per_case=20, seed=0)
    assert len(curvatures) == len(tables)
    assert len(levi_civitas) == len(all_groups())


def test_connection_request_derives_nothing_else(monkeypatch):
    curvatures = counting(monkeypatch, classify, "curvature")
    L = make_group("G5", numeric_params={"a": 2, "b": 2, "g": 1, "d": -1})
    compute_object(L, "bott", "connection")
    assert not curvatures
    assert not [key for key in L.derived if key[0] == "derivation"]
    compute_object(L, "bott", "ricci-sym")
    # a ricci-sym request builds its reads and no nabla-ricci-sym or torsion
    assert list(store(L, "bott")) == ["connection", "curvature", "ricci", "ricci-sym"]
    assert len(curvatures) == 1


def test_each_stage_runs_once_per_distinct_connection_table(monkeypatch):
    # patched where the tracer patches: in every module namespace holding
    # the function, so a stage that kept the function it saw at import
    # would count nothing here, and nothing in a traced run either
    modules = [m for name, m in sorted(sys.modules.items())
               if name.startswith("liecodazzi.") and m is not None]
    stages = (curvature, ricci, symmetrize, cov_deriv_02, torsion)
    calls = {fn.__name__: [] for fn in stages}
    for fn in stages:
        def wrapper(*args, _fn=fn):
            calls[_fn.__name__].append(args)
            return _fn(*args)
        for module in modules:
            for attr, obj in list(vars(module).items()):
                if obj is fn:
                    monkeypatch.setattr(module, attr, wrapper)
    rng = random.Random(0)
    for symbolic in all_groups():
        point = sample_constraint_point(symbolic, rng)
        L = make_group(symbolic.family, eta=symbolic.eta, numeric_params=point)
        lc = levi_civita(L)
        distinct = {tuple(sorted(C.gamma.items()))
                    for C in (lc, *(build(lc) for build in AUDITED_BUILDERS))}
        for counts in calls.values():
            counts.clear()
        for kind in KINDS:
            for structure in STRUCTURES:
                build_system(L, kind, structure)
        assert {name: len(c) for name, c in calls.items()} == dict.fromkeys(
            calls, len(distinct)), L.label()


def test_warm_requests_hash_no_polynomial(monkeypatch):
    # the store is keyed by kind, so a second round of requests looks up
    # the same tables without hashing the connection table
    liealg._symbolic_group.cache_clear()  # start from a cold store
    L = make_group("G2")
    for kind in KINDS:
        for structure in STRUCTURES:
            build_system(L, kind, structure)
    cold = {kind: store(L, kind) for kind in KINDS}
    cold_tables = {(kind, name): _derived(L, kind, name) for kind in KINDS for name in _STAGES}
    hashes = counting(monkeypatch, Polynomial, "__hash__")
    for kind in KINDS:
        for name in _STAGES:
            assert _derived(L, kind, name) is cold_tables[kind, name]
        for obj in OBJECTS:
            compute_object(L, kind, obj)
        for structure in STRUCTURES:
            assert build_system(L, kind, structure).entries is cold_tables[kind, structure]
        assert store(L, kind) is cold[kind]
    assert hashes == []


def test_cold_derivation_multiplies_no_zero(monkeypatch):
    # every product in the chain connection -> curvature -> Ricci -> nabla
    # omega -> residual systems has two nonzero factors
    liealg._symbolic_group.cache_clear()  # start from a cold store
    operands = []
    mul = Polynomial.__mul__

    def recording(p, q):
        operands.append((p, q))
        return mul(p, q)

    monkeypatch.setattr(Polynomial, "__mul__", recording)
    monkeypatch.setattr(Polynomial, "__rmul__", recording)
    for L in all_groups():
        for kind in KINDS:
            for obj in OBJECTS:
                compute_object(L, kind, obj)
            for structure in STRUCTURES:
                build_system(L, kind, structure)
    assert operands
    assert [(p, q) for p, q in operands if not p or not q] == []


def test_cold_derivation_makes_the_documented_ring_operations(monkeypatch):
    # the README's counts: building the eight symbolic groups and deriving
    # all 256 objects and systems from a cold store; a faster ring must
    # make each operation cheaper, not make fewer of them
    liealg._symbolic_group.cache_clear()
    counts = {"mul": 0, "add": 0}
    for name, methods in (("mul", ("__mul__", "__rmul__")), ("add", ("__add__", "__radd__"))):
        original = getattr(Polynomial, methods[0])

        def counted(p, q, name=name, original=original):
            counts[name] += 1
            return original(p, q)

        for method in methods:
            monkeypatch.setattr(Polynomial, method, counted)
    for L in all_groups():
        for kind in KINDS:
            for what in OBJECTS:
                compute_object(L, kind, what)
            for structure in STRUCTURES:
                build_system(L, kind, structure)
    assert counts == {"mul": 1983, "add": 1974}


def test_compute_object_returns_fresh_dicts():
    L = make_group("G3")
    for kind in KINDS:
        for obj in OBJECTS:
            first = compute_object(L, kind, obj)
            want = dict(first)
            first.clear()
            first["1,1"] = None
            assert compute_object(L, kind, obj) == want, (kind, obj)


def test_numeric_instances_do_not_pile_up():
    L = make_group("G2", numeric_params={"a": 1, "b": 2, "g": 3, "d": 0})
    for structure in STRUCTURES:
        build_system(L, "kn", structure)
    assert set(store(L, "kn")) == {"connection", *_STAGES}
    ref, connection_ref = weakref.ref(L), weakref.ref(store(L, "kn")["connection"])
    del L
    gc.collect()
    assert ref() is None and connection_ref() is None


def test_cold_cli_audit_matches_warm_in_process_audit(capsys):
    argv = ["audit", "--json", "--trials", "200", "--seed", "0"]
    cold = run_cli(*argv)
    for L in all_groups():
        for kind in KINDS:
            for structure in STRUCTURES:
                build_system(L, kind, structure)
    capsys.readouterr()
    code = main(argv)
    warm = capsys.readouterr().out
    assert cold.returncode == code == 1
    assert len(json.loads(warm)["verdicts"]) == 42
    assert cold.stdout.decode("utf-8") == warm
    assert hashlib.sha256(cold.stdout).hexdigest() == AUDIT_SEED0_SHA256


def test_cli_audit_of_seed_7_is_pinned():
    out = run_cli("audit", "--json", "--trials", "200", "--seed", "7")
    assert out.returncode == 1
    assert hashlib.sha256(out.stdout).hexdigest() == AUDIT_SEED7_SHA256


def test_the_engine_reads_no_terms_view(monkeypatch, capsys):
    # terms is the Fraction view for callers; a cold audit, its report,
    # the CLI's JSON and every derived table rendered read the integer form
    liealg._symbolic_group.cache_clear()  # start from a cold store
    classify._data_poly.cache_clear()
    reads = []
    terms = Polynomial.terms
    monkeypatch.setattr(Polynomial, "terms", property(lambda p: reads.append(p) or terms.fget(p)))
    verdicts, register = verify_paper_theorems(trials_per_case=200, seed=0)
    json.dumps([v.to_json() for v in verdicts] + [register_json(register)])
    assert main(["list", "--json"]) == 0
    assert main(["compute", "--family", "G3", "--connection", "bott", "--json"]) == 0
    assert len(derived_tables()) == 256
    assert capsys.readouterr().out
    assert reads == []


def derived_tables():
    out = {}
    for L in all_groups():
        for kind in KINDS:
            for obj in OBJECTS:
                out[f"{L.label()}/{kind}/{obj}"] = {
                    key: v.text() for key, v in compute_object(L, kind, obj).items()}
            for structure in STRUCTURES:
                out[f"{L.label()}/{kind}/{structure}"] = build_system(L, kind, structure).to_json()
    return out


def test_derived_tables_are_pinned():
    tables = derived_tables()
    assert len(tables) == 8 * 4 * (6 + 2)
    digest = hashlib.sha256(json.dumps(tables, sort_keys=True).encode()).hexdigest()
    assert digest == DERIVE_SHA256


# -- oracles by general bilinear extension over the frame ---------------------


def pair_oracle(omega, X, Y):
    """omega(X, Y) for any frame vectors X, Y."""
    return sum((omega[i, j] * x * y for i, x in enumerate(X.c, 1)
                for j, y in enumerate(Y.c, 1)), Polynomial.zero())


def ricci_oracle(R, i, j):
    """rho(e_i, e_j), with R(e_i, e_k) e_j rebuilt by linearity in e_j."""
    total = Polynomial.zero()
    for k, weight in ((1, -1), (2, -1), (3, 1)):
        rv = FrameVector.zero()
        for m in (1, 2, 3):
            rv = rv + R[i, k, m].scale(BASIS[j - 1].c[m - 1])
        total = total + metric(rv, BASIS[k - 1]).scale(weight)
    return total


def test_ricci_and_cov_deriv_match_bilinear_oracles():
    for L in all_groups():
        for kind in KINDS:
            R, C = _derived(L, kind, "curvature"), make_connection(L, kind)
            rho = ricci(R)
            for i in (1, 2, 3):
                for j in (1, 2, 3):
                    assert rho[i, j] == ricci_oracle(R, i, j), (L.label(), kind, i, j)
            # rho is asymmetric, so it also tells omega(m, k) from omega(k, m)
            for omega in (_derived(L, kind, "ricci-sym"), rho):
                D = cov_deriv_02(C, omega)
                for i in (1, 2, 3):
                    for j in (1, 2, 3):
                        for k in (1, 2, 3):
                            ej, ek = BASIS[j - 1], BASIS[k - 1]
                            want = -(pair_oracle(omega, C.gamma[(i, j)], ek)
                                     + pair_oracle(omega, ej, C.gamma[(i, k)]))
                            assert D[i, j, k] == want, (L.label(), kind, i, j, k)
