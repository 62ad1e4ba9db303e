"""Curvature, Ricci, covariant derivative, torsion against pinned entries."""

import random

from conftest import all_groups
from liecodazzi.connection import bott, canonical, kobayashi_nomizu, levi_civita, make_connection
from liecodazzi.liealg import (
    FrameVector, abelian, make_group, sample_constraint_point,
)
from liecodazzi.poly import Polynomial, parse
from liecodazzi.tensorcalc import (
    PAIRS, cov_deriv_02, curvature, ricci, symmetrize, torsion,
)


def fv(c1, c2, c3):
    return FrameVector(parse(str(c1)), parse(str(c2)), parse(str(c3)))


# -- curvature ---------------------------------------------------------------


def test_curvature_bott_g1():
    R = curvature(bott(levi_civita(make_group("G1"))))
    assert R.at(1, 2, 1) == fv("a*b", "a^2+b^2", 0)
    assert R.at(1, 2, 2) == fv("-(a^2+b^2)", "-a*b", 0)
    assert R.at(1, 3, 1) == fv(0, "-3*a^2", 0)
    assert R.at(2, 3, 3) == fv(0, 0, "-a^2")


def test_curvature_bott_g5_flat():
    R = curvature(bott(levi_civita(make_group("G5"))))
    for i, j in PAIRS:
        for k in (1, 2, 3):
            assert R.at(i, j, k).is_zero()


def test_curvature_antisymmetry():
    for L in all_groups():
        for kind in ("bott", "canonical", "kobayashi_nomizu"):
            R = curvature(make_connection(L, kind))
            for i, j in PAIRS:
                for k in (1, 2, 3):
                    assert R.at(i, j, k) == -R.at(j, i, k)
                    assert R.at(i, i, k).is_zero()


def test_curvature_flat_connection():
    R = curvature(levi_civita(abelian()))
    assert R.is_zero()


# -- Ricci ---------------------------------------------------------------------


def test_ricci_bott_g1_entries():
    rho = ricci(curvature(bott(levi_civita(make_group("G1")))))
    assert rho.at(1, 1) == parse("-(a^2+b^2)")
    assert rho.at(2, 3) == parse("a^2")
    assert rho.at(3, 2) == Polynomial.zero()
    assert rho.at(1, 3) == parse("-a*b")


def test_ricci_bott_g2_entry():
    rho = ricci(curvature(bott(levi_civita(make_group("G2")))))
    assert rho.at(2, 3) == parse("-a*g")


def test_ricci_flat_zero():
    rho = ricci(curvature(levi_civita(abelian())))
    assert rho.is_zero()


# -- symmetrize ------------------------------------------------------------------


def test_symmetrize_bott_g1():
    rho = ricci(curvature(bott(levi_civita(make_group("G1")))))
    srho = symmetrize(rho)
    assert srho.at(1, 3) == parse("-a*b/2")
    assert srho.at(2, 3) == parse("a^2/2")
    assert all(srho.at(i, j) == srho.at(j, i) for i, j in PAIRS)


def test_symmetrize_idempotent_on_symmetric():
    rho = ricci(curvature(bott(levi_civita(make_group("G3")))))
    srho = symmetrize(rho)
    assert symmetrize(srho).entries == srho.entries


def test_symmetrize_kn_g5_all_zero():
    srho = symmetrize(ricci(curvature(kobayashi_nomizu(levi_civita(make_group("G5"))))))
    assert srho.is_zero()


def test_symmetrize_output_symmetric_everywhere():
    for L in all_groups():
        for kind in ("bott", "canonical", "kobayashi_nomizu"):
            srho = symmetrize(ricci(curvature(make_connection(L, kind))))
            for i, j in PAIRS:
                assert srho.at(i, j) == srho.at(j, i), (L.label(), kind, i, j)


# -- covariant derivative ----------------------------------------------------------


def test_cov_deriv_bott_g1_entries():
    C = bott(levi_civita(make_group("G1")))
    srho = symmetrize(ricci(curvature(C)))
    nabla = cov_deriv_02(C, srho)
    assert nabla.at(1, 2, 2) == parse("-2*a^2*b")
    assert nabla.at(3, 2, 3) == parse("a/2*(a^2-b^2)")


def test_cov_deriv_zero_connection():
    L = abelian()
    C = levi_civita(L)
    srho = symmetrize(ricci(curvature(bott(levi_civita(make_group("G1"))))))
    nabla = cov_deriv_02(C, srho)
    assert nabla.is_zero()


# -- torsion -------------------------------------------------------------------------


def test_torsion_bott_g1():
    T = torsion(bott(levi_civita(make_group("G1"))))
    assert T.at(1, 2) == fv(0, 0, "b")
    assert T.at(1, 3).is_zero()
    assert T.at(2, 3).is_zero()


def test_torsion_canonical_g1():
    T = torsion(canonical(levi_civita(make_group("G1"))))
    assert T.at(1, 3) == fv("a", "b/2", 0)


def test_torsion_levi_civita_always_zero():
    for L in all_groups():
        assert torsion(levi_civita(L)).is_zero(), L.label()


def test_torsion_antisymmetry():
    for L in all_groups():
        for kind in ("bott", "canonical", "kobayashi_nomizu"):
            T = torsion(make_connection(L, kind))
            for i, j in PAIRS:
                assert T.at(i, j) == -T.at(j, i)


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
                for key, v in Rs.entries.items():
                    want = [p.eval_at(pt) for p in v.c]
                    got = [p.constant_value() for p in Rn.at(*key).c]
                    assert want == got, (L.label(), kind, key)
                rho_n = ricci(Rn)
                for key, p in rho_s.entries.items():
                    assert p.eval_at(pt) == rho_n.at(*key).constant_value()
                Tn = torsion(Cnum)
                for key, v in Ts.entries.items():
                    want = [p.eval_at(pt) for p in v.c]
                    got = [p.constant_value() for p in Tn.at(*key).c]
                    assert want == got, (L.label(), kind, key)
