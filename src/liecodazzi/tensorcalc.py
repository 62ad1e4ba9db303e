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
from .liealg import BASIS, FrameVector, bracket, metric
from .poly import Polynomial

PAIRS = ((1, 2), (1, 3), (2, 3))


@dataclass(frozen=True)
class Tensor:
    """The full table of a tensor's frame components, keyed by index tuple:
    entries[(i, j, k)] = R(e_i, e_j) e_k, entries[(i, j)] = T(e_i, e_j) or
    omega(e_i, e_j), entries[(i, j, k)] = (nabla_{e_i} omega)(e_j, e_k).
    Values are FrameVectors or Polynomials."""

    entries: Mapping[tuple, object]

    def at(self, *key):
        return self.entries[key]

    def is_zero(self) -> bool:
        return all(v.is_zero() for v in self.entries.values())


def _antisymmetric(upper: Mapping[tuple, FrameVector]) -> Tensor:
    """The full table of a tensor antisymmetric in its first two indices,
    from the entries (i, j, ...) with i < j."""
    entries = dict(upper)
    zero = FrameVector.zero()
    for (i, j, *rest), v in upper.items():
        entries[(j, i, *rest)] = -v
        entries[(i, i, *rest)] = entries[(j, j, *rest)] = zero
    return Tensor(entries)


def _pair(omega: Tensor, X: FrameVector, Y: FrameVector) -> Polynomial:
    """omega(X, Y) by bilinear extension of a (0,2)-tensor table."""
    out = Polynomial.zero()
    for i in (1, 2, 3):
        for j in (1, 2, 3):
            xi, yj = X.c[i - 1], Y.c[j - 1]
            if xi.is_zero() or yj.is_zero():
                continue
            out = out + omega.at(i, j) * xi * yj
    return out


def curvature(C: Connection) -> Tensor:
    """R(X,Y)Z = nabla_X nabla_Y Z - nabla_Y nabla_X Z - nabla_{[X,Y]} Z."""
    L = C.algebra
    r = {}
    for i, j in PAIRS:
        ei, ej = BASIS[i - 1], BASIS[j - 1]
        lie = bracket(L, ei, ej)
        for k in (1, 2, 3):
            ek = BASIS[k - 1]
            r[(i, j, k)] = (apply(C, ei, apply(C, ej, ek))
                            - apply(C, ej, apply(C, ei, ek))
                            - apply(C, lie, ek))
    return _antisymmetric(r)


def ricci(R: Tensor) -> Tensor:
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
    return Tensor(w)


def symmetrize(rho: Tensor) -> Tensor:
    half = Fraction(1, 2)
    w = {}
    for i in (1, 2, 3):
        for j in (1, 2, 3):
            w[(i, j)] = (rho.at(i, j) + rho.at(j, i)).scale(half)
    return Tensor(w)


def cov_deriv_02(C: Connection, omega: Tensor) -> Tensor:
    """(nabla_{e_i} omega)(e_j, e_k) = -omega(nabla_i e_j, e_k) - omega(e_j, nabla_i e_k).

    The term X[omega(Y,Z)] is zero: omega has constant frame components.
    """
    d = {}
    for i in (1, 2, 3):
        for j in (1, 2, 3):
            for k in (1, 2, 3):
                ej, ek = BASIS[j - 1], BASIS[k - 1]
                d[(i, j, k)] = -(_pair(omega, C.gamma[(i, j)], ek)
                                 + _pair(omega, ej, C.gamma[(i, k)]))
    return Tensor(d)


def torsion(C: Connection) -> Tensor:
    """T(X,Y) = nabla_X Y - nabla_Y X - [X,Y]."""
    t = {}
    for i, j in PAIRS:
        ei, ej = BASIS[i - 1], BASIS[j - 1]
        t[(i, j)] = (apply(C, ei, ej) - apply(C, ej, ei)
                     - bracket(C.algebra, ei, ej))
    return _antisymmetric(t)


def metric_tensor02() -> Tensor:
    """The flat Lorentzian metric as a (0,2)-tensor table."""
    w = {}
    for i in (1, 2, 3):
        for j in (1, 2, 3):
            w[(i, j)] = metric(BASIS[i - 1], BASIS[j - 1])
    return Tensor(w)


def cov_deriv_metric(C: Connection) -> Tensor:
    """nabla g; identically zero exactly when C is metric-compatible."""
    return cov_deriv_02(C, metric_tensor02())
