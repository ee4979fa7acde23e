"""Dodecahedral cells in signature (m-3,3): the fixed face-cycle
combinatorics on Z/12Z, the per-face 5-gon conditions on projected
collections, the sign kernels D and P, their error-function completion E,
the rational seed construction, and certified q-expansions.

Faces are labeled by Z/12Z with antipodal involution a -> abar = -(a+1);
the cycle F(i) lists the five faces adjacent to face i, clockwise with
respect to the outward normal.  The collection C_0..C_11 of negative
vectors satisfies the dodecahedron conditions when, for every face i, the
projected 5-tuple R(i) = (P_i C_j)_{j in F(i)} satisfies the 5-gon
conditions inside V_i = C_i^perp.  Validation, w(R(i)), D(v) and the signs
of (x, C_i) read the collection's 12 x 12 integer Gram, built once.  8 D,
8 P and the vertex 3-planes are the shared cell code of ngon._Walls on the
20 vertex triples, with face weights w(R(i)).
"""

import functools
import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .qspace import _dot, _over_lcm, rat, vec
from .ngon import _Walls, _cyclic_w, _gram_violations, _regular_choice


def bar(a):
    """The antipodal face label, -(a+1) mod 12."""
    return (-(a + 1)) % 12


# Cycles of the six `upper' faces; the lower six follow from the involution.
_TOP_CYCLES = {
    0: (1, 2, 3, 4, 5),
    1: (0, 5, bar(3), bar(4), 2),
    2: (0, 1, bar(4), bar(5), 3),
    3: (0, 2, bar(5), bar(1), 4),
    4: (0, 3, bar(1), bar(2), 5),
    5: (0, 4, bar(2), bar(3), 1),
}


@dataclass(frozen=True)
class DodecCombinatorics:
    cycles: dict        # face i -> 5-tuple F(i)
    vertices: tuple     # 20 ordered incidence triples (i, u, v)


@functools.cache
def cycle_table():
    """The fixed face-cycle table with its 20 vertex triples, built once per
    process; tests/test_dodec.py asserts its structural invariants."""
    cycles = dict(_TOP_CYCLES)
    for a in range(6, 12):              # keys in the order 0..11
        cycles[a] = tuple(bar(x) for x in reversed(cycles[bar(a)]))
    seen = {}
    verts = []
    for i, cyc in cycles.items():
        for k in range(5):
            tri = (i, cyc[k], cyc[(k + 1) % 5])
            key = frozenset(tri)
            if key not in seen:
                seen[key] = tri
                verts.append(tri)
    return DodecCombinatorics(cycles=cycles, vertices=tuple(verts))


class DodecValidationError(ValueError):
    def __init__(self, diagnostics):
        msgs = "; ".join(f"face {i}: {v}" for i, v in diagnostics[:4])
        extra = "" if len(diagnostics) <= 4 else f" (+{len(diagnostics) - 4} more)"
        super().__init__("dodecahedron conditions fail: " + msgs + extra)
        self.diagnostics = diagnostics


def _dodec_vectors(space, cs):
    """cs as exact vectors, or ValueError unless space has signature (p, 3)
    and there are 12 of them."""
    if space.sig[1] != 3:
        raise ValueError("dodecahedral collections live in signature (p, 3)")
    cs = tuple(vec(c) for c in cs)
    if len(cs) != 12:
        raise ValueError("need exactly 12 vectors indexed by Z/12Z")
    return cs


def _face_grams(space, d, n, comb):
    """Per face i, the Gram of R(i) as _gram_violations reads it: from
    (C_a, C_b) = n_ab / (d_a d_b den) and n_ii < 0, (P_i C_j, P_i C_k) =
    (n_ij n_ik - n_ii n_jk) / (d_j d_k den |n_ii|).  Raises
    DodecValidationError at the first i with (C_i, C_i) >= 0."""
    for i in comb.cycles:
        if n[i][i] >= 0:
            cc = Fraction(n[i][i], d[i] ** 2 * space._den)
            raise DodecValidationError([(i, f"(C_{i}, C_{i}) = {cc} not < 0")])
    return [([[n[i][j] * n[i][k] - n[i][i] * n[j][k] for k in cyc]
              for j in cyc],
             [d[j] for j in cyc], -space._den * n[i][i])
            for i, cyc in comb.cycles.items()]


class DodecData(_Walls):
    """A validated dodecahedral collection.  Immutable."""

    def __init__(self, space, cs):
        super().__init__(space, _dodec_vectors(space, cs))
        self.comb = cycle_table()
        faces = _face_grams(space, self._d, self._gram, self.comb)
        bad = [(i, v) for i, f in enumerate(faces) for v in _gram_violations(*f)]
        if bad:
            raise DodecValidationError(bad)
        # w(R(i)) = -sum_l sgn((v_i, R(i)_l)) sgn((v_i, R(i)_{l+1})) for the
        # regular negative v_i in V_i that _regular_choice picks
        face_w = [_cyclic_w(_regular_choice(m, s, 2)[1]) for m, s, _ in faces]
        self._set_cell(self.comb.vertices, face_w)

    def __repr__(self):
        return f"DodecData(sig={self.space.sig})"


def validate_dodec(space, cs):
    """Return a DodecData, or raise ValueError if cs is no collection of 12
    vectors in signature (p, 3), or DodecValidationError: at the first face
    i with (C_i, C_i) >= 0, or else carrying every violated 5-gon inequality
    as (face, Violation)."""
    return DodecData(space, cs)


def dodec_P_kernel(dodec, x, v=None):
    """P(x) = D(x) - D(v) for a (deterministic by default) negative v, where
    D(x) = 1/8 sum_nu sgn(x;nu) + 1/8 sum_i w(R(i)) sgn((x,C_i)) and
    sgn(x;nu) is the product of the three signs of the vertex triple.  The
    sign of D is fixed so that D is the pointwise limit of the smooth kernel
    E along regular rays, which the completed series requires."""
    return Fraction(int(dodec.level(dodec.signs(x))) - dodec.level_at(v), 8)


def dodec_E_kernel(dodec, x):
    """E(x) = 1/8 sum_nu E3(nu, x sqrt(2)) + 1/8 sum_i w(R(i)) E1(C_i, x sqrt(2));
    the smooth completion of D (continuous across every wall (x,C_i)=0).
    All 20 vertex terms are one E_frames batch."""
    from scipy.special import erf
    from .errfn import E_frames, SQPI
    a, m, normals = dodec.frames
    xf = np.array([float(v) for v in vec(x)]) * math.sqrt(2.0)
    e1 = erf(SQPI * (normals @ xf))
    return float((np.sum(E_frames(a, m @ xf)) + e1 @ dodec.face_w) / 8.0)


# --- seed construction ------------------------------------------------------

# Rational stand-in for the golden ratio; the dodecahedron conditions are
# open, so the exact validator accepts this approximation.
PHI_HAT = Fraction(809, 500)

# Outward face normals of a regular dodecahedron for the six upper faces,
# labeled to match the cycle table (top face 0, ring 1..5 clockwise with
# respect to the outward normal); the lower six are the negatives.
_SEED_TOP = (
    (0, 1, PHI_HAT),
    (-1, PHI_HAT, 0),
    (1, PHI_HAT, 0),
    (PHI_HAT, 0, 1),
    (0, -1, PHI_HAT),
    (-PHI_HAT, 0, 1),
)
# all 12 normals as integer rows over PHI_HAT.denominator; the normal of
# face bar(a) = 11 - a is minus that of face a
_SEED_NUM = [[int(c * PHI_HAT.denominator) for c in row] for row in _SEED_TOP]
_SEED_NUM += [[-c for c in row] for row in reversed(_SEED_NUM)]


def seed_construction(space, z0_basis, v0, t=0):
    """C_t = C_0 + t * v0: the regular-dodecahedron normals embedded into the
    negative 3-plane spanned by z0_basis (an exact orthogonal basis with equal
    norms), displaced along the positive vector v0 by the 12 rationals t
    (a scalar t is broadcast).  The frame is checked on its int_core Gram,
    and each C_t is formed from integer numerators over one denominator."""
    basis = [vec(b) for b in z0_basis]
    if len(basis) != 3:
        raise ValueError("z0 basis must consist of 3 vectors")
    v0 = vec(v0)
    d, _, n = space.int_core(basis + [v0])
    # (b_a, b_a) = n_aa / (d_a^2 den): equal iff n_aa d_b^2 = n_bb d_a^2
    if any(n[a][a] >= 0 or n[a][a] * d[0] ** 2 != n[0][0] * d[a] ** 2
           for a in range(3)):
        raise ValueError("z0 basis vectors must have equal negative norms")
    if n[0][1] or n[0][2] or n[1][2]:
        raise ValueError("z0 basis must be orthogonal")
    if not n[3][3] > 0:
        raise ValueError("v0 must be a positive vector")
    if any(n[3][:3]):
        raise ValueError("v0 must be orthogonal to the z0 plane")
    try:
        ts = [rat(t)] * 12
    except TypeError:
        ts = [rat(u) for u in t]
    if len(ts) != 12:
        raise ValueError("t must be a scalar or 12 rationals")
    # C_a = (_SEED_NUM[a] . (bn_0, bn_1, bn_2)) / (PHI_HAT.den db)
    #       + tn_a vn / (dt dv), all over den
    db, bn = _over_lcm([c for b in basis for c in b])
    dv, vn = _over_lcm(v0)
    dt, tn = _over_lcm(ts)
    sb = PHI_HAT.denominator * db
    den = math.lcm(sb, dt * dv)
    fb, fv = den // sb, den // (dt * dv)
    m = space.dim
    cols = list(zip(bn[:m], bn[m:2 * m], bn[2 * m:]))   # (b_0, b_1, b_2)_i
    return tuple(tuple(Fraction(fb * _dot(r, b) + fv * t * v, den)
                       for b, v in zip(cols, vn))
                 for r, t in zip(_SEED_NUM, tn))


# --- q-expansion ------------------------------------------------------------

def dodec_series(coset, dodec, nmax, window=None):
    """q-expansion of sum_x P(x) q^{Q(x)} over a window proved exactly at
    the 20 vertex 3-planes, as the N-gon series' is at its vertex planes."""
    from .lattice import _certified_series
    return _certified_series(coset, dodec, rat(nmax), window, 8)
