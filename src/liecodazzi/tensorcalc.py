"""Curvature, Ricci, symmetrization, covariant derivatives, torsion.

Each object is the paper's index formula on the frame e1, e2, e3, read
from the tables of its inputs: the connection coefficients
C.gamma[(i, j)] = nabla_{e_i} e_j, with Gamma_ij^m its component m, the
brackets L.brackets[(i, j)] = [e_i, e_j], with c_ij^m its component m,
and R(e_i, e_j) e_k.  Curvature and the covariant derivative are sums of
products of those components, each computed as one sum by
poly._sum_of_products.  They read the connection and bracket tables as
their support (_support: per key, the nonzero components with their
index m), so they hand the kernel only products whose frame-table
factors are nonzero, and the covariant derivative only those whose
omega entry is nonzero too.  The covariant derivative of a symmetric
omega is symmetric in its last two indices, so it computes the entries
j <= k once and shares each with (i, k, j); an asymmetric omega gets
all 27.
Every result is a plain dict of frame components keyed by index tuple,
read as table[key] like C.gamma: R[(i, j, k)] = R(e_i, e_j) e_k,
T[(i, j)] = T(e_i, e_j), omega[(i, j)] = omega(e_i, e_j) and
D[(i, j, k)] = (nabla_{e_i} omega)(e_j, e_k).  R and T are filled from
their entries i < j (liealg.PAIRS) by liealg._antisymmetric, and the
symmetrized omega from its entries i <= j.
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
from .liealg import PAIRS, FrameVector, _antisymmetric, _frame
from .poly import Polynomial, _sum_of_products


def _support(table: Mapping[tuple, FrameVector]) -> dict:
    """Each entry of a frame table as its nonzero components: key ->
    ((m, component m), ...), m in 1..3."""
    return {key: tuple((m, x) for m, x in enumerate(v.c, 1) if x) for key, v in table.items()}


def curvature(C: Connection) -> dict:
    """R(e_i,e_j)e_k = nabla_i nabla_j e_k - nabla_j nabla_i e_k - nabla_{[e_i,e_j]} e_k,
    on components R(e_i,e_j)e_k^m = sum_l (Gamma_jk^l Gamma_il^m - Gamma_ik^l Gamma_jl^m
    - c_ij^l Gamma_lk^m): the frame coefficients are constant, so nabla_i
    moves onto the frame vectors alone.  Each product of two nonzero
    components goes to the list of its component m."""
    gamma, brackets = _support(C.gamma), _support(C.algebra.brackets)
    r = {}
    for i, j in PAIRS:
        for k in (1, 2, 3):
            terms = ([], [], [])
            for l, g in gamma[j, k]:
                for m, h in gamma[i, l]:
                    terms[m - 1].append((g, h, 1))
            for l, g in gamma[i, k]:
                for m, h in gamma[j, l]:
                    terms[m - 1].append((g, h, -1))
            for l, c in brackets[i, j]:
                for m, h in gamma[l, k]:
                    terms[m - 1].append((c, h, -1))
            r[(i, j, k)] = _frame(tuple(map(_sum_of_products, terms)))
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
    """(rho_ij + rho_ji)/2: rho_ii on the diagonal, and computed for i < j
    and shared with (j, i)."""
    half = Fraction(1, 2)
    w = {}
    for i in (1, 2, 3):
        w[(i, i)] = rho[(i, i)]
        for j in range(i + 1, 4):
            w[(i, j)] = w[(j, i)] = (rho[(i, j)] + rho[(j, i)]).scale(half)
    return w


def cov_deriv_02(C: Connection, omega: Mapping[tuple, Polynomial]) -> dict:
    """(nabla_{e_i} omega)(e_j, e_k) = -sum_m [G_ij^m omega(e_m, e_k) + G_ik^m omega(e_j, e_m)],
    with G_ij^m component m of nabla_{e_i} e_j, as one sum over the terms
    whose G_ij^m or G_ik^m and omega entry are nonzero.  The formula is
    symmetric in j, k when omega is, so a symmetric omega gets the
    entries j <= k, each shared with (i, k, j).

    The term e_i[omega(e_j, e_k)] is zero: omega has constant frame components.
    """
    gamma = _support(C.gamma)
    symmetric = all(omega[(i, j)] == omega[(j, i)] for i, j in PAIRS)
    # a zero entry as None, which the sums test for by identity
    live = {key: w if w else None for key, w in omega.items()}
    d = {}
    for i in (1, 2, 3):
        for j in (1, 2, 3):
            for k in range(j, 4) if symmetric else (1, 2, 3):
                d[(i, j, k)] = _sum_of_products(
                    [(g, w, -1) for m, g in gamma[i, j] if (w := live[m, k]) is not None]
                    + [(g, w, -1) for m, g in gamma[i, k] if (w := live[j, m]) is not None])
                if symmetric:
                    d[(i, k, j)] = d[(i, j, k)]
    return d


def torsion(C: Connection) -> dict:
    """T(e_i,e_j) = nabla_i e_j - nabla_j e_i - [e_i,e_j]."""
    t = {}
    for i, j in PAIRS:
        t[(i, j)] = C.gamma[(i, j)] - C.gamma[(j, i)] - C.algebra.brackets[i, j]
    return _antisymmetric(t)
