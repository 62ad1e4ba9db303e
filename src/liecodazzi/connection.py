"""The four affine connections as frame coefficient tables.

Levi-Civita comes from the Koszul formula, which collapses to a purely
algebraic expression on a left-invariant frame (all metric entries are
constant, so the three derivative terms drop).  The Bott connection
splits the tangent space as D = span{e1,e2}, D_perp = span{e3} and mixes
projected Levi-Civita derivatives with projected brackets.  The
canonical and Kobayashi-Nomizu connections correct Levi-Civita by the
covariant derivative of the product structure J = diag(1,1,-1).

Bott, canonical and Kobayashi-Nomizu are built from the Levi-Civita
connection of their group (the group is lc.algebra), so make_connection
builds Levi-Civita once per group.  A connection kind has one internal
id (KINDS), a set of command-line aliases resolved by resolve_kind, and
a display name, the id with "_" spelled "-" (display_name).

Everything here treats frame vectors as constant-coefficient
combinations of the left-invariant frame, so connections are bilinear
over ring scalars in both slots.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Mapping

from .liealg import BASIS, METRIC_SIGNATURE, FrameVector, LieAlgebra, metric

KINDS = ("levi_civita", "bott", "canonical", "kobayashi_nomizu")
# command-line aliases, resolved by resolve_kind
KIND_ALIASES = {
    "lc": "levi_civita", "levi-civita": "levi_civita", "levi_civita": "levi_civita",
    "bott": "bott", "b": "bott",
    "canonical": "canonical", "c": "canonical",
    "kn": "kobayashi_nomizu", "k": "kobayashi_nomizu",
    "kobayashi-nomizu": "kobayashi_nomizu", "kobayashi_nomizu": "kobayashi_nomizu",
}


def resolve_kind(kind: str) -> str:
    """The internal id (one of KINDS) of a connection kind or alias."""
    internal = KIND_ALIASES.get(kind.lower())
    if internal is None:
        raise ValueError(f"unknown connection kind; expected one of {sorted(KIND_ALIASES)}")
    return internal


def display_name(kind: str) -> str:
    """The printed name of a connection kind or alias, e.g. kobayashi-nomizu."""
    return resolve_kind(kind).replace("_", "-")


@dataclass(frozen=True)
class Connection:
    kind: str
    # gamma[(i, j)] = nabla_{e_i} e_j as a FrameVector, i, j in 1..3
    gamma: Mapping[tuple, FrameVector]
    algebra: LieAlgebra

    def entry(self, i: int, j: int) -> FrameVector:
        return self.gamma[(i, j)]


def apply(C: Connection, X: FrameVector, Y: FrameVector) -> FrameVector:
    """nabla_X Y by bilinear extension of the coefficient table."""
    out = FrameVector.zero()
    for i in (1, 2, 3):
        xi = X.c[i - 1]
        if xi.is_zero():
            continue
        for j in (1, 2, 3):
            yj = Y.c[j - 1]
            if yj.is_zero():
                continue
            out = out + C.gamma[(i, j)].scale(xi * yj)
    return out


def levi_civita(L: LieAlgebra) -> Connection:
    """Koszul formula against the constant Gram matrix diag(1,1,-1):

    2 g(nabla_{e_i} e_j, e_k)
        = g([e_i,e_j], e_k) - g([e_j,e_k], e_i) + g([e_k,e_i], e_j)
    """
    gamma = {}
    for i in (1, 2, 3):
        for j in (1, 2, 3):
            comps = []
            for k in (1, 2, 3):
                rhs = (metric(L.bracket_basis(i, j), BASIS[k - 1])
                       - metric(L.bracket_basis(j, k), BASIS[i - 1])
                       + metric(L.bracket_basis(k, i), BASIS[j - 1]))
                comps.append(rhs.scale(Fraction(1, 2 * METRIC_SIGNATURE[k - 1])))
            gamma[(i, j)] = FrameVector(*comps)
    return Connection(kind="levi_civita", gamma=gamma, algebra=L)


def _proj_d(v: FrameVector) -> FrameVector:
    return FrameVector(v.c[0], v.c[1], 0)


def _proj_d_perp(v: FrameVector) -> FrameVector:
    return FrameVector(0, 0, v.c[2])


def bott(lc: Connection) -> Connection:
    """Distribution split D = span{e1,e2}, D_perp = span{e3}."""
    L = lc.algebra
    gamma = {}
    for i in (1, 2, 3):
        for j in (1, 2, 3):
            if i <= 2 and j <= 2:
                gamma[(i, j)] = _proj_d(lc.gamma[(i, j)])
            elif i == 3 and j <= 2:
                gamma[(i, j)] = _proj_d(L.bracket_basis(i, j))
            elif i <= 2 and j == 3:
                gamma[(i, j)] = _proj_d_perp(L.bracket_basis(i, j))
            else:
                gamma[(i, j)] = _proj_d_perp(lc.gamma[(i, j)])
    return Connection(kind="bott", gamma=gamma, algebra=L)


def J(v: FrameVector) -> FrameVector:
    """Product structure: J e1 = e1, J e2 = e2, J e3 = -e3."""
    return FrameVector(v.c[0], v.c[1], -v.c[2])


def nabla_J(lc: Connection, X: FrameVector, Y: FrameVector) -> FrameVector:
    """(nabla^L_X J) Y = nabla^L_X (J Y) - J(nabla^L_X Y)."""
    return apply(lc, X, J(Y)) - J(apply(lc, X, Y))


def canonical(lc: Connection) -> Connection:
    """nabla^c_X Y = nabla^L_X Y - (1/2) (nabla_X J) J Y."""
    gamma = {}
    for i in (1, 2, 3):
        for j in (1, 2, 3):
            ei, ej = BASIS[i - 1], BASIS[j - 1]
            corr = nabla_J(lc, ei, J(ej))
            gamma[(i, j)] = lc.gamma[(i, j)] - corr.scale(Fraction(1, 2))
    return Connection(kind="canonical", gamma=gamma, algebra=lc.algebra)


def kobayashi_nomizu(lc: Connection) -> Connection:
    """nabla^k_X Y = nabla^c_X Y - (1/4)[(nabla_Y J) J X - (nabla_{JY} J) X]."""
    can = canonical(lc)
    gamma = {}
    for i in (1, 2, 3):
        for j in (1, 2, 3):
            ei, ej = BASIS[i - 1], BASIS[j - 1]
            corr = nabla_J(lc, ej, J(ei)) - nabla_J(lc, J(ej), ei)
            gamma[(i, j)] = can.gamma[(i, j)] - corr.scale(Fraction(1, 4))
    return Connection(kind="kobayashi_nomizu", gamma=gamma, algebra=lc.algebra)


def make_connection(L: LieAlgebra, kind: str) -> Connection:
    """The connection of the given kind on L, built once per group.

    Levi-Civita is built first and reused by the other three kinds.  The
    result is kept in L.derived and shared, so treat it as read-only; the
    builders above stay uncached."""
    internal = resolve_kind(kind)
    key = ("connection", internal)
    C = L.derived.get(key)
    if C is None:
        if internal == "levi_civita":
            C = levi_civita(L)
        else:
            builder = {"bott": bott, "canonical": canonical,
                       "kobayashi_nomizu": kobayashi_nomizu}[internal]
            C = builder(make_connection(L, "levi_civita"))
        L.derived[key] = C
    return C
