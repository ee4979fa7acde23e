"""Geodesic N-gon data: exact validation, the sign kernel, the w invariant,
vertex planes, boundary-edge sampling, and the alternating-sign translation
used by the two-sign-convention dictionary.

A collection C_1..C_N of negative vectors is an N-gon when, for all j mod N:
  (1) (C_j, C_j) < 0
  (2) (C_j, C_j)(C_{j+1}, C_{j+1}) - (C_j, C_{j+1})^2 > 0
  (3) (C_j, C_j)(C_{j-1}, C_{j+1}) - (C_j, C_{j-1})(C_j, C_{j+1}) < 0
All checks are exact rational arithmetic.
"""

import functools
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .qspace import NegativePlane, rat, vec, vec_add, vec_scale


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
    def __init__(self, violation):
        super().__init__(str(violation))
        self.violation = violation


@dataclass(frozen=True)
class KernelValue:
    eps: int
    regular: bool


def check_conditions(space, cs):
    """Return the list of all violated (j, condition) for the 3N inequalities."""
    n = len(cs)
    out = []
    cc = [space.inner(c, c) for c in cs]
    cross = [space.inner(cs[j], cs[(j + 1) % n]) for j in range(n)]
    for j in range(n):
        if not cc[j] < 0:
            out.append(Violation(j + 1, 1, f"(C_{j+1},C_{j+1}) = {cc[j]} not < 0"))
    for j in range(n):
        g = cc[j] * cc[(j + 1) % n] - cross[j] ** 2
        if not g > 0:
            out.append(Violation(j + 1, 2, f"plane Gram determinant {g} not > 0"))
    for j in range(n):
        jm, jp = (j - 1) % n, (j + 1) % n
        t = cc[j] * space.inner(cs[jm], cs[jp]) - cross[jm] * cross[j]
        if not t < 0:
            out.append(Violation(j + 1, 3, f"turning quantity {t} not < 0"))
    return out


class NGon:
    """A validated N-gon collection. Immutable."""

    def __init__(self, space, cs):
        if space.sig[1] != 2:
            raise ValueError("N-gon collections live in signature (p, 2)")
        cs = tuple(vec(c) for c in cs)
        if len(cs) < 3:
            raise ValueError("need N >= 3 vectors")
        bad = check_conditions(space, cs)
        if bad:
            raise NGonValidationError(bad[0])
        self.space = space
        self.cs = cs
        self.n = len(cs)

    def __repr__(self):
        return f"NGon(N={self.n}, sig={self.space.sig})"

    @functools.cached_property
    def vertex_planes(self):
        """The n oriented vertex planes [C_j, C_{j+1}], built on first use."""
        return tuple(NegativePlane(self.space, (c, self.cs[(j + 1) % self.n]))
                     for j, c in enumerate(self.cs))

    @functools.cached_property
    def _w(self):
        return w_invariant(self)

    def kernel(self, signs):
        """eps = w + sum_j s_j s_{j+1} of each row of an integer matrix of
        the signs s_j of (x, C_j)."""
        return self._w + np.einsum('ij,ij->i', signs,
                                   np.roll(signs, -1, axis=1))


def validate(space, cs):
    """Return an NGon or raise NGonValidationError naming the first violated
    inequality (index j, which of the three conditions)."""
    return NGon(space, cs)


def regular_negative_vector(space, cs):
    """Deterministic negative vector v with all (v, C_j) nonzero: the first
    of C_1, C_1 + C_2/k for k = 2, 3, ... that qualifies (exact checks).
    Raises RuntimeError when none does up to k = 10000."""
    cs = tuple(vec(c) for c in cs)
    for k in range(1, 10001):
        v = cs[0] if k == 1 else vec_add(cs[0], vec_scale(Fraction(1, k), cs[1]))
        if space.inner(v, v) < 0 and all(space.inner(v, c) != 0 for c in cs):
            return v
    raise RuntimeError("could not find a regular negative vector")


def default_negative_vector(walls):
    """regular_negative_vector for the vectors of a wall collection (an NGon
    or a DodecData)."""
    return regular_negative_vector(walls.space, walls.cs)


def w_invariant(ngon, v=None):
    """w = -sum_j sgn(v,C_j) sgn(v,C_{j+1}) for any negative v."""
    space, cs, n = ngon.space, ngon.cs, ngon.n
    if v is None:
        v = default_negative_vector(ngon)
    else:
        v = vec(v)
        if not space.inner(v, v) < 0:
            raise ValueError("w invariant requires a negative vector v")
    s = [sgn(space.inner(v, c)) for c in cs]
    return -sum(s[j] * s[(j + 1) % n] for j in range(n))


def epsilon(ngon, x):
    """eps(x) = w + sum_j sgn(x,C_j) sgn(x,C_{j+1}); total function, sgn(0)=0."""
    space, cs, n = ngon.space, ngon.cs, ngon.n
    x = vec(x)
    s = [sgn(space.inner(x, c)) for c in cs]
    val = w_invariant(ngon) + sum(s[j] * s[(j + 1) % n] for j in range(n))
    return KernelValue(eps=int(val), regular=all(t != 0 for t in s))


def vertex_plane(ngon, j):
    """Oriented negative plane [C_j, C_{j+1}], 1-based j."""
    if not 1 <= j <= ngon.n:
        raise ValueError("vertex index out of range")
    return ngon.vertex_planes[j - 1]


def gamma_sample(ngon, j, s):
    """Point on edge j of the boundary polygon: the plane
    [C_j, (s-1) C_{j-1} + s C_{j+1}] for s in [0,1]."""
    if not 1 <= j <= ngon.n:
        raise ValueError("edge index out of range")
    s = rat(s)
    if not 0 <= s <= 1:
        raise ValueError("edge parameter s must lie in [0, 1]")
    cm = ngon.cs[(j - 2) % ngon.n]
    cp = ngon.cs[j % ngon.n]
    second = vec_add(vec_scale(s - 1, cm), vec_scale(s, cp))
    return NegativePlane(ngon.space, (ngon.cs[j - 1], second))


def illegal_variant_kernel(space, cs, x, v=None):
    """Kernel for a collection whose only defect is the wrap pair (C_N, C_1):
    condition (3) fails exactly at the two indices touching that pair (j=1
    and j=N; a single violation is impossible, since the third conditions
    2-color the vertex planes around a cycle).  Returns
    (w_tilde, eps_tilde(x), term signs) with
      w_tilde = sgn(v,C_N)sgn(v,C_1) - sum_{j<N} sgn(v,C_j)sgn(v,C_{j+1})
      eps_tilde(x) = w_tilde - sgn(x,C_N)sgn(x,C_1) + sum_{j<N} sgn(x,C_j)sgn(x,C_{j+1})
    and term_signs[j] the sign (+1 or -1) carried by the smooth pair term
    (C_j, C_{j+1}) in the matching completion.
    """
    cs = tuple(vec(c) for c in cs)
    n = len(cs)
    bad = check_conditions(space, cs)
    badset = [(b.j, b.condition) for b in bad]
    if badset not in ([(n, 3)], [(1, 3), (n, 3)]):
        raise ValueError(
            "expected condition (3) to fail only at the wrap pair (j=1, j=N); "
            "found " + (", ".join(str(b) for b in bad) if bad else "no violations"))
    if v is None:
        v = regular_negative_vector(space, cs)
    sv = [sgn(space.inner(v, c)) for c in cs]
    w_tilde = sv[n - 1] * sv[0] - sum(sv[j] * sv[j + 1] for j in range(n - 1))
    x = vec(x)
    sx = [sgn(space.inner(x, c)) for c in cs]
    eps_tilde = w_tilde - sx[n - 1] * sx[0] \
        + sum(sx[j] * sx[j + 1] for j in range(n - 1))
    term_signs = [1] * (n - 1) + [-1]
    return int(w_tilde), int(eps_tilde), term_signs


def _abmp_sign(j):
    """Sign s_j = (-1)^{floor((j-1)/2)} of the alternating translation, 1-based."""
    return -1 if ((j - 1) // 2) % 2 else 1


def from_abmp(space, cs_prime):
    """Translate an alternating-convention collection C'_1..C'_N (N even,
    third inequality reversed) into an NGon via C_j = s_j C'_j with
    s = (+,+,-,-,+,+,...)."""
    n = len(cs_prime)
    if n % 2:
        raise ValueError("alternating translation needs even N")
    cs = [vec_scale(_abmp_sign(j + 1), vec(c)) for j, c in enumerate(cs_prime)]
    return validate(space, cs)


def to_abmp(ngon):
    """Inverse of from_abmp (the sign pattern is an involution)."""
    return [vec_scale(_abmp_sign(j + 1), c) for j, c in enumerate(ngon.cs)]


def abmp_kernel(space, cs_prime, x):
    """w + sum_j s_j s_{j+1} sgn(x,C'_j) sgn(x,C'_{j+1}) evaluated on the
    primed data directly; equals epsilon on the translated collection."""
    ngon = from_abmp(space, cs_prime)
    n = ngon.n
    x = vec(x)
    s = [sgn(space.inner(x, vec(c))) for c in cs_prime]
    acc = 0
    for j in range(n):
        jp = (j + 1) % n
        acc += _abmp_sign(j + 1) * _abmp_sign(jp + 1) * s[j] * s[jp]
    return w_invariant(ngon) + acc
