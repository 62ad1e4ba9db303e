"""The derivation chain checks itself on the tables the engine serves:
the two Bianchi identities with torsion for the four connections on the
eight groups, and the homogeneity of the residual systems.

With R(X,Y) = [nabla_X, nabla_Y] - nabla_[X,Y] and
T(X,Y) = nabla_X Y - nabla_Y X - [X,Y] (Kobayashi and Nomizu,
Foundations of Differential Geometry I, ch. III, Theorem 5.3), the cyclic
sum S over (X, Y, Z) gives

    S R(X,Y)Z = S [T(T(X,Y),Z) + (nabla_X T)(Y,Z)]
    S [(nabla_X R)(Y,Z) + R(T(X,Y),Z)] = 0.

On the frame both sides are trilinear, so e1, e2, e3 is the one triple
to check; the second identity is checked on each e_w.  Every table has
constant frame components, so nabla_X of a computed vector is the
bilinear extension of the connection table.

The two signs of G4 are one group up to an isometry: the frame change
e3 -> -e3 preserves g and J and takes G4(eta=+1) at (alpha, beta) to
G4(eta=-1) at (-alpha, -beta), so every table of one sign is the other's
with each entry signed by the number of 3s in its index.

More generally, every table is a tensor: a constant frame change
f_a = sum_i P_ai e_i that preserves g and J (a rotation or reflection
of the e1-e2 plane, e3 -> -e3) takes the group to one with the brackets
of the new frame, and each of its tables to the old one with every index
transformed by P.  The connection table is one too, its frame
coefficients being constant.
"""

from fractions import Fraction
from itertools import product

import pytest

from conftest import raw_algebra, scale_frame
from liecodazzi.classify import STRUCTURES, _STAGES, _derived, build_system, compute_object
from liecodazzi.connection import KINDS, make_connection
from liecodazzi.liealg import BASIS, FAMILIES, PAIRS, FrameVector, branches, make_group
from liecodazzi.poly import ZERO, Polynomial

GROUPS = [(f, e) for f in FAMILIES for e in branches(f)]
E1, E2, E3 = BASIS


def group_id(group):
    family, eta = group
    return family if eta is None else f"{family}{eta:+d}"


def served(L, kind, obj):
    """compute_object(L, kind, obj) keyed by index tuples, with the
    entries (j, i, ...) of an antisymmetric table filled from (i, j, ...)."""
    table = {tuple(map(int, key.split(","))): v
             for key, v in compute_object(L, kind, obj).items()}
    if obj != "connection":
        for (i, j, *rest), v in list(table.items()):
            table[(j, i, *rest)] = -v
            table[(i, i, *rest)] = table[(j, j, *rest)] = FrameVector.zero()
    return table


def extend(table, *vectors):
    """The multilinear extension sum X^i Y^j ... table[i, j, ...]."""
    out = FrameVector.zero()
    for idx in product((1, 2, 3), repeat=len(vectors)):
        coeff = None
        for vector, i in zip(vectors, idx):
            c = vector.c[i - 1]
            coeff = c if coeff is None else coeff * c
            if not coeff:
                break
        else:
            out = out + scale_frame(table[idx], coeff)
    return out


class Chain:
    """nabla, R and T of one connection as the engine serves them."""

    def __init__(self, family, eta, kind):
        L = make_group(family, eta=eta)
        self.gamma = served(L, kind, "connection")
        self.R = served(L, kind, "curvature")
        self.T = served(L, kind, "torsion")

    def nabla(self, X, Y):
        return extend(self.gamma, X, Y)

    def curv(self, X, Y, Z):
        return extend(self.R, X, Y, Z)

    def tors(self, X, Y):
        return extend(self.T, X, Y)

    def nabla_T(self, X, Y, Z):
        """(nabla_X T)(Y, Z)."""
        return (self.nabla(X, self.tors(Y, Z)) - self.tors(self.nabla(X, Y), Z)
                - self.tors(Y, self.nabla(X, Z)))

    def nabla_R(self, X, Y, Z, W):
        """(nabla_X R)(Y, Z) W."""
        return (self.nabla(X, self.curv(Y, Z, W)) - self.curv(self.nabla(X, Y), Z, W)
                - self.curv(Y, self.nabla(X, Z), W) - self.curv(Y, Z, self.nabla(X, W)))


def cyclic(term):
    """S term(X, Y, Z) over the cyclic permutations of (e1, e2, e3)."""
    out = FrameVector.zero()
    for X, Y, Z in ((E1, E2, E3), (E2, E3, E1), (E3, E1, E2)):
        out = out + term(X, Y, Z)
    return out


CASES = [pytest.param(g, kind, id=f"{group_id(g)}-{kind}") for g in GROUPS for kind in KINDS]


@pytest.mark.parametrize("group, kind", CASES)
def test_first_bianchi_identity_with_torsion(group, kind):
    c = Chain(*group, kind)
    lhs = cyclic(c.curv)
    rhs = cyclic(lambda X, Y, Z: c.tors(c.tors(X, Y), Z) + c.nabla_T(X, Y, Z))
    assert lhs == rhs


@pytest.mark.parametrize("group, kind", CASES)
def test_second_bianchi_identity_with_torsion(group, kind):
    c = Chain(*group, kind)
    for W in BASIS:
        total = cyclic(lambda X, Y, Z: c.nabla_R(X, Y, Z, W) + c.curv(c.tors(X, Y), Z, W))
        assert total.is_zero(), W


def test_the_torsion_terms_are_not_idle():
    # the torsion side of each identity is nonzero somewhere, so a sign
    # slip in T or nabla T shows in the tests above
    torsion_terms, curvature_torsion = 0, 0
    for group in GROUPS:
        for kind in KINDS:
            c = Chain(*group, kind)
            torsion_terms += not cyclic(lambda X, Y, Z: c.tors(c.tors(X, Y), Z)).is_zero()
            curvature_torsion += any(
                not cyclic(lambda X, Y, Z: c.curv(c.tors(X, Y), Z, W)).is_zero() for W in BASIS)
    assert torsion_terms and curvature_torsion


@pytest.mark.parametrize("group", [g for g in GROUPS if g[0] != "G4"], ids=group_id)
def test_residuals_are_homogeneous_of_degree_3(group):
    # the brackets of G1-G3 and G5-G7 are linear in the parameters; G4's
    # eta brings in lower degrees
    L = make_group(group[0], eta=group[1])
    for kind in KINDS:
        for structure in STRUCTURES:
            for key, p in build_system(L, kind, structure).entries.items():
                assert {sum(exps) for exps in p.terms} <= {3}, (kind, structure, key, p)


def indexed_entries(table):
    """The polynomial entries of a frame table by index tuple; the
    component m of a frame-vector entry at key is the entry at key + (m,)."""
    out = {}
    for key, v in table.items():
        if isinstance(v, FrameVector):
            out.update({(*key, m): comp for m, comp in enumerate(v.c, start=1)})
        else:
            out[key] = v
    return out


# (alpha, beta) -> (-alpha, -beta)
_FLIP = {"a": -Polynomial.var("a"), "b": -Polynomial.var("b")}


@pytest.mark.parametrize("kind", KINDS)
def test_the_g4_sign_branches_are_one_group_up_to_an_isometry(kind):
    plus, minus = make_group("G4", eta=1), make_group("G4", eta=-1)
    signed = 0
    for name in ("connection", *_STAGES):
        tables = [make_connection(L, kind).gamma if name == "connection"
                  else _derived(L, kind, name) for L in (plus, minus)]
        want, got = map(indexed_entries, tables)
        assert got.keys() == want.keys(), name
        for key, p in want.items():
            sign = (-1) ** key.count(3)
            assert got[key] == p.substitute(_FLIP).scale(sign), (name, key)
            signed += sign < 0 and not p.is_zero()
    # the sign is not idle: entries with an odd number of 3s are nonzero
    assert signed


def _orthogonal(c, s, flip):
    """Rows P_a of the frame change f_a = sum_i P_ai e_i: f1, f2 turned by
    the angle with cosine c and sine s, mirrored when flip is -1, and f3 = e3."""
    return ((c, s, 0), (-s * flip, c * flip, 0), (0, 0, 1))


# isometries of g that preserve J, with rational entries from Pythagorean
# triples: a rotation, a reflection of the e1-e2 plane, and e3 -> -e3
FRAMES = {
    "rotation": _orthogonal(Fraction(3, 5), Fraction(4, 5), 1),
    "reflection": _orthogonal(Fraction(5, 13), Fraction(12, 13), -1),
    "e3-flip": ((1, 0, 0), (0, 1, 0), (0, 0, -1)),
}


def full_entries(table):
    """indexed_entries of a table, with the entries (y, x, j) of a residual
    table, kept for x < y only, filled by antisymmetry."""
    entries = indexed_entries(table)
    if len(entries) < 3 ** len(next(iter(entries))):
        for (x, y, *rest), p in list(entries.items()):
            entries[(y, x, *rest)] = -p
            entries[(x, x, *rest)] = entries[(y, y, *rest)] = ZERO
    return entries


def in_frame(entries, P):
    """The nonzero entries of a tensor in the frame f_a = sum_i P_ai e_i:
    every index transformed by P, one index at a time (P is orthogonal,
    so a vector's components transform by P as well)."""
    for t in range(len(next(iter(entries)))):
        out = {}
        for key, p in entries.items():
            for a, row in enumerate(P, start=1):
                if p and row[key[t] - 1]:
                    new = (*key[:t], a, *key[t + 1:])
                    out[new] = out.get(new, ZERO) + p.scale(row[key[t] - 1])
        entries = out
    return {key: p for key, p in entries.items() if p}


@pytest.mark.parametrize("frame", FRAMES)
def test_every_table_transforms_as_a_tensor_under_the_isometries(frame):
    P = FRAMES[frame]
    moved = 0
    for family, eta in GROUPS:
        L = make_group(family, eta=eta)
        brackets = in_frame(indexed_entries(L.brackets), P)
        new = raw_algebra(*(FrameVector(*(brackets.get((i, j, m), 0) for m in (1, 2, 3)))
                            for i, j in PAIRS))
        for kind in KINDS:
            for name in ("connection", *_STAGES):
                old_table, new_table = (make_connection(G, kind).gamma if name == "connection"
                                        else _derived(G, kind, name) for G in (L, new))
                old = {k: p for k, p in full_entries(old_table).items() if p}
                want = in_frame(old, P) if old else {}
                got = {k: p for k, p in full_entries(new_table).items() if p}
                assert got == want, (group_id((family, eta)), kind, name)
                moved += got != old
    # the check is not idle: the frame change moves some tables
    assert moved
