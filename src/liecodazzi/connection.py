"""The four affine connections as frame coefficient tables.

Each connection is an index formula in Gamma_ij = nabla_{e_i} e_j on the
frame e1, e2, e3 with signs eps = METRIC_SIGNATURE = (1, 1, -1).
Levi-Civita is the Koszul formula on components; the metric entries are
constant on a left-invariant frame, so its derivative terms drop.  Bott,
canonical and Kobayashi-Nomizu correct it by the split D + D_perp =
span{e1,e2} + span{e3}, the eigenspaces of the product structure
J = diag(1,1,-1), through one projection pi_j: it keeps the components m
of a vector with eps_m = eps_j, so it projects onto D for j = 1, 2 and
onto D_perp for j = 3.  All three keep pi_j(Gamma_ij) where e_i and e_j
lie in the same block and differ only across the blocks (_projection).

They take the Levi-Civita connection of their group (the group is
lc.algebra), so make_connection builds Levi-Civita once per group and
keeps each connection in L.derived under ("connection", kind).  A
connection kind has one internal id (KINDS), a set of command-line
aliases resolved by resolve_kind, and a display name, the id with "_"
spelled "-" (display_name).

Frame vectors are constant-coefficient combinations of the
left-invariant frame, so connections are bilinear over ring scalars in
both slots.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Mapping

from .liealg import METRIC_SIGNATURE, FrameVector, LieAlgebra, _frame, _Record
from .poly import Polynomial, _sum_of_products

# eps_m: e1, e2 are spacelike and e3 is timelike
_EPS = METRIC_SIGNATURE
# the constant factor 1/2 of the Koszul formula
_HALF = Polynomial.const(Fraction(1, 2))

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


class Connection(_Record):
    def __init__(self, kind: str, gamma: Mapping[tuple, FrameVector], algebra: LieAlgebra):
        # gamma[(i, j)] = nabla_{e_i} e_j as a FrameVector, i, j in 1..3
        vars(self).update(kind=kind, gamma=gamma, algebra=algebra)


def levi_civita(L: LieAlgebra) -> Connection:
    """The Koszul formula on components, with c_ij^k component k of [e_i,e_j]:

    Gamma_ij^k = (1/2)(c_ij^k - eps_k eps_i c_jk^i + eps_k eps_j c_ki^j)

    Each component is one poly._sum_of_products call, handed the terms
    whose bracket component is nonzero, each multiplied by the constant
    polynomial 1/2: each nonzero c_ab^m is the first term of
    Gamma_ab^m, the second of Gamma_ma^b and the third of Gamma_bm^a,
    and the terms are listed in that order.
    """
    live = [(a, b, m, x) for (a, b), v in L.brackets.items() for m, x in enumerate(v.c, 1) if x]
    terms = {(i, j, k): [] for i in (1, 2, 3) for j in (1, 2, 3) for k in (1, 2, 3)}
    for a, b, m, x in live:
        terms[a, b, m].append((x, _HALF, 1))
    for a, b, m, x in live:
        terms[m, a, b].append((x, _HALF, -_EPS[b - 1] * _EPS[m - 1]))
    for a, b, m, x in live:
        terms[b, m, a].append((x, _HALF, _EPS[a - 1] * _EPS[m - 1]))
    gamma = {(i, j): _frame(tuple(_sum_of_products(terms[i, j, k]) for k in (1, 2, 3)))
             for i in (1, 2, 3) for j in (1, 2, 3)}
    return Connection(kind="levi_civita", gamma=gamma, algebra=L)


def _project(v: FrameVector, j: int) -> FrameVector:
    """pi_j v: the components m of v with eps_m = eps_j."""
    return FrameVector(*(x if e == _EPS[j - 1] else 0 for e, x in zip(_EPS, v.c)))


def _projection(lc: Connection, kind: str, mixed: Mapping[tuple, FrameVector]) -> Connection:
    """pi_j(Gamma_ij) where eps_i = eps_j, pi_j(mixed[i, j]) elsewhere; mixed
    is read only at the cross-block keys."""
    gamma = {}
    for i in (1, 2, 3):
        for j in (1, 2, 3):
            v = lc.gamma[(i, j)] if _EPS[i - 1] == _EPS[j - 1] else mixed[i, j]
            gamma[(i, j)] = _project(v, j)
    return Connection(kind=kind, gamma=gamma, algebra=lc.algebra)


def bott(lc: Connection) -> Connection:
    """Bott: pi_j(Gamma_ij) within a block, pi_j([e_i,e_j]) across D and D_perp."""
    return _projection(lc, "bott", lc.algebra.brackets)


def canonical(lc: Connection) -> Connection:
    """nabla^c_X Y = nabla^L_X Y - (1/2) (nabla_X J) J Y: pi_j(Gamma_ij) everywhere."""
    return _projection(lc, "canonical", lc.gamma)


def kobayashi_nomizu(lc: Connection) -> Connection:
    """nabla^k_X Y = nabla^c_X Y - (1/4)[(nabla_Y J) J X - (nabla_{JY} J) X],
    which is pi_j(Gamma_ij) within a block and pi_j(Gamma_ij - Gamma_ji) across.

    Levi-Civita is torsion-free, Gamma_ij - Gamma_ji = [e_i,e_j], so this is
    the Bott connection on every group."""
    mixed = {(i, j): lc.gamma[i, j] - lc.gamma[j, i] for i, j in ((1, 3), (2, 3), (3, 1), (3, 2))}
    return _projection(lc, "kobayashi_nomizu", mixed)


def make_connection(L: LieAlgebra, kind: str) -> Connection:
    """The connection of the given kind on L, built once per group.

    Levi-Civita is built first and reused by the other three kinds.  The
    result is kept in L.derived under ("connection", kind id), beside the
    store of tables classify._derived derives from it, and shared, so treat
    it as read-only; the builders above stay uncached."""
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
