"""Curvature, Ricci, symmetrization, covariant derivatives, torsion.

All operations take a Connection and work entirely on the frame
coefficient level.  The Ricci trace uses the printed sign convention
with weights (-1, -1, +1) over the pseudo-orthonormal frame; it is kept
as a full, possibly asymmetric table because the source tables are
asymmetric.  The directional-derivative term in the covariant
derivative of a (0,2)-tensor vanishes: every tensor here has constant
frame components.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Mapping

from .connection import Connection, apply
from .liealg import BASIS, FrameVector, metric
from .poly import Polynomial

PAIRS = ((1, 2), (1, 3), (2, 3))


@dataclass(frozen=True)
class Curvature:
    # r[(i, j)][k-1] = R(e_i, e_j) e_k for i < j
    r: Mapping[tuple, tuple]
    connection: Connection

    def at(self, i: int, j: int, k: int) -> FrameVector:
        if i == j:
            return FrameVector.zero()
        if i < j:
            return self.r[(i, j)][k - 1]
        return -self.r[(j, i)][k - 1]


@dataclass(frozen=True)
class Tensor02:
    # w[(i, j)] = omega(e_i, e_j)
    w: Mapping[tuple, Polynomial]

    def at(self, i: int, j: int) -> Polynomial:
        return self.w[(i, j)]

    def of(self, X: FrameVector, Y: FrameVector) -> Polynomial:
        out = Polynomial.zero()
        for i in (1, 2, 3):
            for j in (1, 2, 3):
                xi, yj = X.c[i - 1], Y.c[j - 1]
                if xi.is_zero() or yj.is_zero():
                    continue
                out = out + self.w[(i, j)] * xi * yj
        return out

    def is_symmetric(self) -> bool:
        return all(self.w[(i, j)] == self.w[(j, i)] for i, j in PAIRS)


@dataclass(frozen=True)
class Tensor03:
    # d[(i, j, k)] = (nabla_{e_i} omega)(e_j, e_k)
    d: Mapping[tuple, Polynomial]

    def at(self, i: int, j: int, k: int) -> Polynomial:
        return self.d[(i, j, k)]


@dataclass(frozen=True)
class TorsionTensor:
    # t[(i, j)] = T(e_i, e_j) for i < j
    t: Mapping[tuple, FrameVector]

    def at(self, i: int, j: int) -> FrameVector:
        if i == j:
            return FrameVector.zero()
        if i < j:
            return self.t[(i, j)]
        return -self.t[(j, i)]

    def is_zero(self) -> bool:
        return all(v.is_zero() for v in self.t.values())


def curvature(C: Connection) -> Curvature:
    """R(X,Y)Z = nabla_X nabla_Y Z - nabla_Y nabla_X Z - nabla_{[X,Y]} Z."""
    L = C.algebra
    from .liealg import bracket

    r = {}
    for i, j in PAIRS:
        ei, ej = BASIS[i - 1], BASIS[j - 1]
        lie = bracket(L, ei, ej)
        vals = []
        for k in (1, 2, 3):
            ek = BASIS[k - 1]
            vals.append(apply(C, ei, apply(C, ej, ek))
                        - apply(C, ej, apply(C, ei, ek))
                        - apply(C, lie, ek))
        r[(i, j)] = tuple(vals)
    return Curvature(r=r, connection=C)


def ricci(R: Curvature) -> Tensor02:
    """rho(X,Y) = -g(R(X,e1)Y,e1) - g(R(X,e2)Y,e2) + g(R(X,e3)Y,e3)."""
    w = {}
    for i in (1, 2, 3):
        for j in (1, 2, 3):
            ej = BASIS[j - 1]
            total = Polynomial.zero()
            for k, weight in ((1, -1), (2, -1), (3, 1)):
                # R(e_i, e_k) e_j contracted against e_k
                rv = FrameVector.zero()
                for m in (1, 2, 3):
                    rv = rv + R.at(i, k, m).scale(ej.c[m - 1])
                total = total + metric(rv, BASIS[k - 1]).scale(weight)
            w[(i, j)] = total
    return Tensor02(w=w)


def symmetrize(rho: Tensor02) -> Tensor02:
    half = Fraction(1, 2)
    w = {}
    for i in (1, 2, 3):
        for j in (1, 2, 3):
            w[(i, j)] = (rho.w[(i, j)] + rho.w[(j, i)]).scale(half)
    return Tensor02(w=w)


def cov_deriv_02(C: Connection, omega: Tensor02) -> Tensor03:
    """(nabla_{e_i} omega)(e_j, e_k) = -omega(nabla_i e_j, e_k) - omega(e_j, nabla_i e_k).

    The term X[omega(Y,Z)] is zero: omega has constant frame components.
    """
    d = {}
    for i in (1, 2, 3):
        for j in (1, 2, 3):
            for k in (1, 2, 3):
                ej, ek = BASIS[j - 1], BASIS[k - 1]
                d[(i, j, k)] = -(omega.of(C.gamma[(i, j)], ek)
                                 + omega.of(ej, C.gamma[(i, k)]))
    return Tensor03(d=d)


def torsion(C: Connection) -> TorsionTensor:
    """T(X,Y) = nabla_X Y - nabla_Y X - [X,Y]."""
    from .liealg import bracket

    t = {}
    for i, j in PAIRS:
        ei, ej = BASIS[i - 1], BASIS[j - 1]
        t[(i, j)] = (apply(C, ei, ej) - apply(C, ej, ei)
                     - bracket(C.algebra, ei, ej))
    return TorsionTensor(t=t)


def metric_tensor02() -> Tensor02:
    """The flat Lorentzian metric as a (0,2)-tensor table."""
    w = {}
    for i in (1, 2, 3):
        for j in (1, 2, 3):
            w[(i, j)] = metric(BASIS[i - 1], BASIS[j - 1])
    return Tensor02(w=w)


def cov_deriv_metric(C: Connection) -> Tensor03:
    """nabla g; identically zero exactly when C is metric-compatible."""
    return cov_deriv_02(C, metric_tensor02())
