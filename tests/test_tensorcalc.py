"""Curvature, Ricci, covariant derivative, torsion against pinned entries."""

import random

from conftest import abelian, all_groups
from liecodazzi import tensorcalc
from liecodazzi.connection import (
    KINDS, bott, canonical, kobayashi_nomizu, levi_civita, make_connection,
)
from liecodazzi.liealg import (
    FrameVector, make_group, sample_constraint_point,
)
from liecodazzi.poly import Polynomial, _sum_of_products, parse
from liecodazzi.tensorcalc import (
    PAIRS, cov_deriv_02, curvature, ricci, symmetrize, torsion,
)


def fv(c1, c2, c3):
    return FrameVector(parse(str(c1)), parse(str(c2)), parse(str(c3)))


# -- curvature ---------------------------------------------------------------


def test_curvature_bott_g1():
    R = curvature(bott(levi_civita(make_group("G1"))))
    assert R[1, 2, 1] == fv("a*b", "a^2+b^2", 0)
    assert R[1, 2, 2] == fv("-(a^2+b^2)", "-a*b", 0)
    assert R[1, 3, 1] == fv(0, "-3*a^2", 0)
    assert R[2, 3, 3] == fv(0, 0, "-a^2")


def test_curvature_bott_g5_flat():
    R = curvature(bott(levi_civita(make_group("G5"))))
    for i, j in PAIRS:
        for k in (1, 2, 3):
            assert R[i, j, k].is_zero()


def test_curvature_antisymmetry():
    for L in all_groups():
        for kind in ("bott", "canonical", "kobayashi_nomizu"):
            R = curvature(make_connection(L, kind))
            for i, j in PAIRS:
                for k in (1, 2, 3):
                    assert R[i, j, k] == -R[j, i, k]
                    assert R[i, i, k].is_zero()


def test_curvature_flat_connection():
    R = curvature(levi_civita(abelian()))
    assert all(v.is_zero() for v in R.values())


# -- Ricci ---------------------------------------------------------------------


def test_ricci_bott_g1_entries():
    rho = ricci(curvature(bott(levi_civita(make_group("G1")))))
    assert rho[1, 1] == parse("-(a^2+b^2)")
    assert rho[2, 3] == parse("a^2")
    assert rho[3, 2] == Polynomial.zero()
    assert rho[1, 3] == parse("-a*b")


def test_ricci_bott_g2_entry():
    rho = ricci(curvature(bott(levi_civita(make_group("G2")))))
    assert rho[2, 3] == parse("-a*g")


def test_ricci_flat_zero():
    rho = ricci(curvature(levi_civita(abelian())))
    assert all(v.is_zero() for v in rho.values())


# -- symmetrize ------------------------------------------------------------------


def test_symmetrize_bott_g1():
    rho = ricci(curvature(bott(levi_civita(make_group("G1")))))
    srho = symmetrize(rho)
    assert srho[1, 3] == parse("-a*b/2")
    assert srho[2, 3] == parse("a^2/2")
    assert all(srho[i, j] == srho[j, i] for i, j in PAIRS)


def test_symmetrize_idempotent_on_symmetric():
    rho = ricci(curvature(bott(levi_civita(make_group("G3")))))
    srho = symmetrize(rho)
    assert symmetrize(srho) == srho


def test_symmetrize_kn_g5_all_zero():
    srho = symmetrize(ricci(curvature(kobayashi_nomizu(levi_civita(make_group("G5"))))))
    assert all(v.is_zero() for v in srho.values())


def test_symmetrize_output_symmetric_everywhere():
    for L in all_groups():
        for kind in ("bott", "canonical", "kobayashi_nomizu"):
            srho = symmetrize(ricci(curvature(make_connection(L, kind))))
            for i, j in PAIRS:
                assert srho[i, j] == srho[j, i], (L.label(), kind, i, j)


# -- covariant derivative ----------------------------------------------------------


def test_cov_deriv_bott_g1_entries():
    C = bott(levi_civita(make_group("G1")))
    srho = symmetrize(ricci(curvature(C)))
    nabla = cov_deriv_02(C, srho)
    assert nabla[1, 2, 2] == parse("-2*a^2*b")
    assert nabla[3, 2, 3] == parse("a/2*(a^2-b^2)")


def test_cov_deriv_zero_connection():
    L = abelian()
    C = levi_civita(L)
    srho = symmetrize(ricci(curvature(bott(levi_civita(make_group("G1"))))))
    nabla = cov_deriv_02(C, srho)
    assert all(v.is_zero() for v in nabla.values())


def recorded_kernel_calls(monkeypatch):
    """The triples of each call of _sum_of_products from tensorcalc, as
    lists, appended to the returned list as the calls are made."""
    calls = []

    def record(terms):
        calls.append(list(terms))
        return _sum_of_products(calls[-1])

    monkeypatch.setattr(tensorcalc, "_sum_of_products", record)
    return calls


def test_curvature_hands_the_kernel_only_nonzero_products(monkeypatch):
    # curvature reads the support of the connection and bracket tables, so
    # every triple it hands the kernel has two nonzero factors; each
    # component of each entry i < j is one call, even with no triple
    calls = recorded_kernel_calls(monkeypatch)
    triples = 0
    for L in all_groups():
        for kind in KINDS:
            del calls[:]
            curvature(make_connection(L, kind))
            assert len(calls) == 3 * 3 * 3, (L.label(), kind)
            assert all(p and q and s for terms in calls for p, q, s in terms), (L.label(), kind)
            triples += sum(map(len, calls))
    assert triples


def test_cov_deriv_hands_the_kernel_nonzero_connection_factors(monkeypatch):
    # a symmetric omega (the symmetrized Ricci tensor) costs one call per
    # entry j <= k, which (i, k, j) shares; an asymmetric one (rho on G1
    # Bott) costs all 27.  Every triple's connection factor is nonzero
    calls = recorded_kernel_calls(monkeypatch)
    rho_g1 = ricci(curvature(bott(levi_civita(make_group("G1")))))
    assert rho_g1[2, 3] != rho_g1[3, 2]
    for L in all_groups():
        for kind in KINDS:
            C = make_connection(L, kind)
            rho = ricci(curvature(C))
            for omega in (symmetrize(rho), rho):
                symmetric = all(omega[i, j] == omega[j, i] for i, j in PAIRS)
                del calls[:]
                D = cov_deriv_02(C, omega)
                assert len(calls) == (18 if symmetric else 27), (L.label(), kind)
                assert all(p and s == -1 for terms in calls for p, _, s in terms)
                if symmetric:
                    assert all(D[i, j, k] is D[i, k, j] for i, j, k in D), (L.label(), kind)
    del calls[:]
    cov_deriv_02(bott(levi_civita(make_group("G1"))), rho_g1)
    assert len(calls) == 27


# -- torsion -------------------------------------------------------------------------


def test_torsion_bott_g1():
    T = torsion(bott(levi_civita(make_group("G1"))))
    assert T[1, 2] == fv(0, 0, "b")
    assert T[1, 3].is_zero()
    assert T[2, 3].is_zero()


def test_torsion_canonical_g1():
    T = torsion(canonical(levi_civita(make_group("G1"))))
    assert T[1, 3] == fv("a", "b/2", 0)


def test_torsion_levi_civita_always_zero():
    for L in all_groups():
        assert all(v.is_zero() for v in torsion(levi_civita(L)).values()), L.label()


def test_torsion_antisymmetry():
    for L in all_groups():
        for kind in ("bott", "canonical", "kobayashi_nomizu"):
            T = torsion(make_connection(L, kind))
            for i, j in PAIRS:
                assert T[i, j] == -T[j, i]


# -- dual-path numeric oracle ---------------------------------------------------------


def test_tensor_tables_match_numeric_instances():
    rng = random.Random(401)
    kinds = ("bott", "canonical", "kobayashi_nomizu")
    for L in all_groups():
        # the symbolic side does not depend on the point: build it once
        symbolic = {}
        for kind in kinds:
            Csym = make_connection(L, kind)
            Rs = curvature(Csym)
            symbolic[kind] = Rs, ricci(Rs), torsion(Csym)
        for _ in range(50):
            pt = sample_constraint_point(L, rng)
            Lnum = make_group(L.family, eta=L.eta, numeric_params=pt)
            for kind in kinds:
                Rs, rho_s, Ts = symbolic[kind]
                Cnum = make_connection(Lnum, kind)
                Rn = curvature(Cnum)
                for key, v in Rs.items():
                    want = [p.eval_at(pt) for p in v.c]
                    got = [p.constant_value() for p in Rn[key].c]
                    assert want == got, (L.label(), kind, key)
                rho_n = ricci(Rn)
                for key, p in rho_s.items():
                    assert p.eval_at(pt) == rho_n[key].constant_value()
                Tn = torsion(Cnum)
                for key, v in Ts.items():
                    want = [p.eval_at(pt) for p in v.c]
                    got = [p.constant_value() for p in Tn[key].c]
                    assert want == got, (L.label(), kind, key)
