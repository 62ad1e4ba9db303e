"""Curvature, Ricci, symmetrization, covariant derivatives, torsion.

Each object is the paper's index formula on the frame e1, e2, e3, read
from the tables of its inputs: the connection coefficients
C.gamma[(i, j)] = nabla_{e_i} e_j, with Gamma_ij^m its component m, the
brackets L.brackets[(i, j)] = [e_i, e_j], with c_ij^m its component m,
and R(e_i, e_j) e_k.  Curvature and the covariant derivative are sums of
products of those components, each computed as one sum by
poly._sum_of_products, which skips a product with a zero factor.
Every result is a plain dict of frame components keyed by index tuple,
read as table[key] like C.gamma: R[(i, j, k)] = R(e_i, e_j) e_k,
T[(i, j)] = T(e_i, e_j), omega[(i, j)] = omega(e_i, e_j) and
D[(i, j, k)] = (nabla_{e_i} omega)(e_j, e_k).  R and T are filled from
their entries i < j (liealg.PAIRS) by liealg._antisymmetric.
Ricci is the negated trace rho_ij = -sum_k [R(e_i, e_k) e_j]^k, the printed
weights (-1, -1, +1) on g(v, e_k) = eps_k v^k; it is kept as a full,
possibly asymmetric table because the source tables are asymmetric.
The directional-derivative term in the covariant derivative of a
(0,2)-tensor vanishes: every tensor here has constant frame components.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Mapping

from .connection import Connection
from .liealg import PAIRS, FrameVector, _antisymmetric
from .poly import Polynomial, _sum_of_products


def curvature(C: Connection) -> dict:
    """R(e_i,e_j)e_k = nabla_i nabla_j e_k - nabla_j nabla_i e_k - nabla_{[e_i,e_j]} e_k,
    on components R(e_i,e_j)e_k^m = sum_l (Gamma_jk^l Gamma_il^m - Gamma_ik^l Gamma_jl^m
    - c_ij^l Gamma_lk^m): the frame coefficients are constant, so nabla_i
    moves onto the frame vectors alone."""
    gamma = {key: v.c for key, v in C.gamma.items()}
    brackets = C.algebra.brackets
    r = {}
    for i, j in PAIRS:
        gi, gj = (gamma[i, 1], gamma[i, 2], gamma[i, 3]), (gamma[j, 1], gamma[j, 2], gamma[j, 3])
        cij = brackets[i, j].c
        for k in (1, 2, 3):
            gjk, gik = gamma[j, k], gamma[i, k]
            glk = (gamma[1, k], gamma[2, k], gamma[3, k])
            r[(i, j, k)] = FrameVector(*(_sum_of_products(
                term for l in range(3) for term in ((gjk[l], gi[l][m], 1),
                                                    (gik[l], gj[l][m], -1),
                                                    (cij[l], glk[l][m], -1)))
                for m in range(3)))
    return _antisymmetric(r)


def ricci(R: Mapping[tuple, FrameVector]) -> dict:
    """rho(e_i,e_j) = -g(R(e_i,e1)e_j,e1) - g(R(e_i,e2)e_j,e2) + g(R(e_i,e3)e_j,e3),
    the negated trace rho_ij = -sum_k [R(e_i,e_k)e_j]^k, as g(v, e_k) = eps_k v^k."""
    w = {}
    for i in (1, 2, 3):
        for j in (1, 2, 3):
            w[(i, j)] = -sum((R[(i, k, j)].c[k - 1] for k in (1, 2, 3)), Polynomial.zero())
    return w


def symmetrize(rho: Mapping[tuple, Polynomial]) -> dict:
    half = Fraction(1, 2)
    w = {}
    for i in (1, 2, 3):
        for j in (1, 2, 3):
            w[(i, j)] = (rho[(i, j)] + rho[(j, i)]).scale(half)
    return w


def cov_deriv_02(C: Connection, omega: Mapping[tuple, Polynomial]) -> dict:
    """(nabla_{e_i} omega)(e_j, e_k) = -sum_m [G_ij^m omega(e_m, e_k) + G_ik^m omega(e_j, e_m)],
    with G_ij^m component m of nabla_{e_i} e_j, as one sum of six products.

    The term e_i[omega(e_j, e_k)] is zero: omega has constant frame components.
    """
    d = {}
    for i in (1, 2, 3):
        for j in (1, 2, 3):
            for k in (1, 2, 3):
                gij, gik = C.gamma[(i, j)].c, C.gamma[(i, k)].c
                d[(i, j, k)] = _sum_of_products(
                    term for m in (1, 2, 3) for term in ((gij[m - 1], omega[(m, k)], -1),
                                                         (gik[m - 1], omega[(j, m)], -1)))
    return d


def torsion(C: Connection) -> dict:
    """T(e_i,e_j) = nabla_i e_j - nabla_j e_i - [e_i,e_j]."""
    t = {}
    for i, j in PAIRS:
        t[(i, j)] = C.gamma[(i, j)] - C.gamma[(j, i)] - C.algebra.brackets[i, j]
    return _antisymmetric(t)
