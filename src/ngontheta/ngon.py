"""Geodesic N-gon data: exact validation, the sign kernel, the w invariant,
the linking number and the vertex planes.

A collection C_1..C_N of negative vectors is an N-gon when, for all j mod N:
  (1) (C_j, C_j) < 0
  (2) (C_j, C_j)(C_{j+1}, C_{j+1}) - (C_j, C_{j+1})^2 > 0
  (3) (C_j, C_j)(C_{j-1}, C_{j+1}) - (C_j, C_{j-1})(C_j, C_{j+1}) < 0
All checks are integer signs on the collection's Gram, built once per NGon;
the collection also owns the pairings (x, C_j) and their signs.
Its vertices are the pairs (j, j+1 mod N) and its face weights 0: level,
kernel, parity (`even`, true for an N-gon and false for a dodecahedron) and
vertex planes (one negative_planes batch) are _Walls', shared with
dodecahedra.
"""

import functools
import math
import operator
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .qspace import _int_product, _over_lcm, _dot, negative_planes, vec


def sgn(r):
    return 1 if r > 0 else (-1 if r < 0 else 0)


@dataclass(frozen=True)
class Violation:
    j: int          # 1-based edge index
    condition: int  # 1, 2, or 3
    message: str

    def __str__(self):
        return f"N-gon condition ({self.condition}) fails at j={self.j}: {self.message}"


class NGonValidationError(ValueError):
    """Every violated inequality of a collection, condition (1) at each j,
    then (2), then (3); the message names the first."""

    def __init__(self, violations):
        super().__init__(str(violations[0]))
        self.violations = violations


@dataclass(frozen=True)
class KernelValue:
    eps: int
    regular: bool


def _ngon_vectors(space, cs):
    """cs as exact vectors, or ValueError unless space has signature (p, 2)
    and there are N >= 3 of them."""
    if space.sig[1] != 2:
        raise ValueError("N-gon collections live in signature (p, 2)")
    cs = tuple(vec(c) for c in cs)
    if len(cs) < 3:
        raise ValueError("need N >= 3 vectors")
    return cs


def _gram_violations(n, s, den):
    """The violated (j, condition) of the 3N inequalities on the Gram
    (u_j, u_k) = n_jk / (s_j s_k den), s_j, den > 0, by integer signs; only
    a violation's message builds a Fraction."""
    k, out = len(n), ([], [], [])
    for j in range(k):
        jm, jp = (j - 1) % k, (j + 1) % k
        g = n[j][j] * n[jp][jp] - n[j][jp] ** 2
        t = n[j][j] * n[jm][jp] - n[jm][j] * n[j][jp]
        if not n[j][j] < 0:
            cc = Fraction(n[j][j], s[j] ** 2 * den)
            out[0].append(Violation(j + 1, 1, f"(C_{j+1},C_{j+1}) = {cc} not < 0"))
        if not g > 0:
            g = Fraction(g, (s[j] * s[jp] * den) ** 2)
            out[1].append(Violation(j + 1, 2, f"plane Gram determinant {g} not > 0"))
        if not t < 0:
            t = Fraction(t, s[j] ** 2 * s[jm] * s[jp] * den ** 2)
            out[2].append(Violation(j + 1, 3, f"turning quantity {t} not < 0"))
    return out[0] + out[1] + out[2]


def _regular_choice(n, s, q):
    """(k, signs of the (v, u_l)) of the default regular negative vector,
    the one negative-vector helper, from a Gram as in _gram_violations: v =
    sum_{i<q} h^i C_i at the first regular one of h = 0, 1/2, 1/3, ... (k =
    1, 2, ...); k^{q-1} v is a positive multiple of sum_i k^{q-1-i}
    (prod_{j != i} s_j) u_i.

    C_0..C_{q-1} is the first vertex of an N-gon, a face or a dodecahedron
    of N walls.  Its span V is negative definite, so no negative C_l is
    orthogonal to V, and (v, C_l) is a nonzero polynomial of degree < q in
    h: together the N of them vanish at no more than N(q-1) values of h, so
    one of the first N(q-1)+1 gives a regular v, nonzero in V and so
    negative.  Raises RuntimeError when none does, which only a collection
    that is no cell can cause."""
    if all(n[0]):
        return 1, [sgn(p) for p in n[0]]
    scale = math.prod(s[:q])
    for k in range(2, len(n) * (q - 1) + 2):
        c = [k ** (q - 1 - i) * scale // s[i] for i in range(q)]
        signs = [sgn(_dot(c, col)) for col in zip(*n[:q])]
        if all(signs):
            return k, signs
    raise RuntimeError("could not find a regular negative vector")


def _cyclic_w(s):
    """-sum_j s_j s_{j+1} over a cycle of signs."""
    return -sum(s[j - 1] * s[j] for j in range(len(s)))


class _Walls:
    """A wall collection's exact integer core (QuadraticSpace.int_core),
    built once; validation, w, D(v) and the signs of (x, C_j) read it.  A
    cell (NGon, DodecData) adds its vertex table and face weights."""

    def __init__(self, space, cs):
        self.space, self.cs = space, cs
        self._d, self._gc, self._gram = space.int_core(cs)

    def _set_cell(self, vertices, face_w):
        """Fix the cell's vertices, face weights and parity: its kernel is
        even in x when each vertex multiplies an even number of signs and
        every face weight is 0 (x -> -x negates every sign)."""
        self.vertices, self.face_w = np.array(vertices), tuple(face_w)
        self.even = self.vertices.shape[1] % 2 == 0 and not any(self.face_w)

    @functools.cached_property
    def _level_v(self):
        """The level of the default negative vector v (_regular_choice),
        found on first use: validation needs no v."""
        return int(self.level(_regular_choice(self._gram, self._d,
                                              self.space.sig[1])[1]))

    def pairings(self, x):
        """The integers (x', C'_j) den, x' and C'_j the numerators of x and
        C_j over their lcm denominators: positive multiples of (x, C_j)."""
        xn = _over_lcm(vec(x))[1]
        if len(xn) != self.space.dim:
            raise ValueError("dimension mismatch")
        return [_dot(xn, g) for g in self._gc]

    def signs(self, x):
        """The signs of (x, C_j) for a rational vector x."""
        return [sgn(p) for p in self.pairings(x)]

    def sign_matrix(self, xnum):
        """int64 signs of (x, C_j) for int64 rows xnum, each a positive
        multiple of its x, from the rows gc_j that signs(x) reads."""
        return np.sign(_int_product(xnum, self._gc)).astype(np.int64)

    def level(self, s):
        """sum over the vertices of the product of their signs, plus
        face_w . s, for the signs s of (x, C_j) in the last axis: minus the
        w-sum of an N-gon, 8 D of a dodecahedron, as numpy integers."""
        s = np.asarray(s)
        lv = functools.reduce(operator.mul, (s[..., col] for col in
                                             self.vertices.T)).sum(axis=-1)
        return lv + s @ self.face_w if any(self.face_w) else lv

    def level_at(self, v=None):
        """The level of a negative vector v (None: the default v)."""
        if v is None:
            return self._level_v
        v = vec(v)
        if not self.space.inner(v, v) < 0:
            raise ValueError("v must be a negative vector")
        return int(self.level(self.signs(v)))

    def kernel(self, signs):
        """level(x) - level(v) of each row of an integer matrix of the signs
        of (x, C_j), v the default negative vector: eps of an N-gon, 8 P of
        a dodecahedron."""
        return self.level(signs) - self._level_v

    @functools.cached_property
    def vertex_planes(self):
        """The oriented vertex planes [C_a, C_b, ...], one per vertex in
        the order of `vertices`: one negative_planes batch, built on first
        use; validation proved each span negative definite."""
        return negative_planes(self.space, self.cs, self.vertices.tolist())

    @functools.cached_property
    def frames(self):
        """Float data of the completions, built on first use: the stacked
        NegativePlane.frame (a, m) of the vertex planes, shapes (V, q, q)
        and (V, q, dim), and the rows (C_j/|(C_j,C_j)|^{1/2}, .) of the unit
        normals, shape (N, dim)."""
        a, m = zip(*(p.frame for p in self.vertex_planes))
        normals = [self.space.unit_negative(c) for c in self.cs]
        return np.array(a), np.array(m), np.array(normals) @ self.space.gram_f


class NGon(_Walls):
    """A validated N-gon collection. Immutable."""

    def __init__(self, space, cs):
        super().__init__(space, _ngon_vectors(space, cs))
        bad = _gram_violations(self._gram, self._d, space._den)
        if bad:
            raise NGonValidationError(bad)
        self.n = len(self.cs)
        self._set_cell([(j, (j + 1) % self.n) for j in range(self.n)],
                       (0,) * self.n)

    def __repr__(self):
        return f"NGon(N={self.n}, sig={self.space.sig})"


def validate(space, cs):
    """Return an NGon, or raise ValueError if cs is no collection of N >= 3
    vectors in signature (p, 2), or NGonValidationError carrying every
    violated inequality (index j, which of the three conditions)."""
    return NGon(space, cs)


def w_invariant(ngon, v=None):
    """w = -sum_j sgn(v,C_j) sgn(v,C_{j+1}) for any negative v."""
    return -ngon.level_at(v)


def epsilon(ngon, x):
    """eps(x) = w + sum_j sgn(x,C_j) sgn(x,C_{j+1}); total function, sgn(0)=0."""
    s = ngon.signs(x)
    return KernelValue(eps=int(ngon.kernel(s)), regular=all(s))


def linking_number(ngon, x):
    """The linking number of the boundary loop with D_x = {z : z perp x}, for
    a regular x with Q(x) > 0 in any signature (p, 2); eps(x) = 4 link.
    pr_z x has coordinates a = (a_1, a_2) in the frame pr_z C_1, pr_z C_2 of
    a negative plane z, and link is the winding of a about 0, counterclockwise
    positive, as z runs [C_1, C_2] -> [C_2, C_3] -> ... -> [C_N, C_1].  At
    vertex plane j, a_j = M_j^-1 r_j with M_j = ((C_a, C_b)), a in {j, j+1},
    b in {1, 2}, and r_j = ((x, C_j), (x, C_{j+1})).  On edge j, the planes
    [C_{j+1}, (s-1) C_j + s C_{j+2}] for s in [0, 1], a is a positive multiple
    of an affine segment that (x, C_{j+1}) != 0 keeps off 0, so the edge
    turns by less than pi; det M never vanishes there (span(C_1, C_2) is
    negative, z^perp positive), so det M_j = det M_1 > 0.  Hence link is the
    winding of the integer polygon adj(M_j) r_j = det M_j a_j, from _gram
    and pairings(x), counted by signed crossings of the positive a_1 axis:
    exact, with no sampling and no near-edge guard."""
    if not ngon.space.q(x) > 0:
        raise ValueError("linking number needs Q(x) > 0")
    r = ngon.pairings(x)
    if not all(r):
        raise ValueError("x is not regular for this collection")
    pts = []
    for j, k in ngon.vertices.tolist():
        (a, b), (c, d) = ngon._gram[j][:2], ngon._gram[k][:2]
        pts.append((d * r[j] - b * r[k], a * r[k] - c * r[j]))
    link = 0
    for (u0, v0), (u1, v1) in zip(pts, pts[1:] + pts[:1]):
        c = u0 * v1 - u1 * v0       # > 0: 0 lies left of the edge
        if (v0 > 0) != (v1 > 0) and (c > 0) == (v1 > 0):
            link += sgn(c)          # crossed the positive a_1 axis
    return link
