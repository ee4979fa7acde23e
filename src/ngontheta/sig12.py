"""The explicit signature-(1,2) model: traceless 2x2 matrices with
Q(X) = det(X) and (X,Y) = -tr(XY).

A vector is written [a,b,c] for the matrix [[b, 2c], [-2a, -b]], so
Q([a,b,c]) = 4ac - b^2 and positive vectors of norm n correspond to CM
points of discriminant -n in the upper half plane.  A point z = x + iy is
the ray of P(z) = (1, -2x, x^2 + y^2), a positive multiple of the norm-1
vector X(z).  Along a geodesic polygon the turn at z_j is
-sgn det(P_{j-1}, P_j, P_{j+1}), +1 for a left turn, and the wall of the
edge z_{j-1} -> z_j is C_j = eps_j (-w_3, 2w_2, -w_1) for the Euclidean
cross product w = P_{j-1} x P_j and eps_j the product of the turns before
j; (-w_3, 2w_2, -w_1) is -G^{-1} w for the Gram G of SPACE_ABC, up to a
positive factor.  The module recovers an N-gon from the vertices of a
geodesic polygon (`sig12 recover`), builds the truncated fundamental
domain's 4-gon and its class-number series (`sig12 zagier`); `sig12
winding` prints ngon.linking_number, for any (p, 2).
"""

import math
from fractions import Fraction

from .qspace import (NegativePlane, QuadraticSpace, _dot, _over_lcm, rat,
                     vec, vec_primitive)
from .ngon import validate, sgn

# Gram of (X,Y) = -tr(XY) in [a,b,c] coordinates: (x,x) = 2(4ac - b^2)
SPACE_ABC = QuadraticSpace([[0, 0, 4], [0, -2, 0], [4, 0, 0]])

# an orthogonal pair of norm -1 vectors and their plane, `sig12 zagier`'s z0
E2_ABC = vec((0, 1, 0))
E3_ABC = vec((Fraction(1, 2), 0, Fraction(-1, 2)))
Z0_ABC = NegativePlane(SPACE_ABC, (E2_ABC, E3_ABC))


class OrientationError(ValueError):
    pass


def _ray(z):
    """An integer positive multiple of P(z) = (1, -2x, x^2 + y^2)."""
    x, y = map(rat, z)
    if not y > 0:
        raise ValueError("upper-half-plane point needs y > 0")
    return _over_lcm((1, -2 * x, x * x + y * y))[1]


def _cross(u, v):
    """Euclidean cross product u x v of integer 3-vectors."""
    return (u[1] * v[2] - u[2] * v[1], u[2] * v[0] - u[0] * v[2],
            u[0] * v[1] - u[1] * v[0])


def recover_ngon(zs):
    """The walls C_j above, made primitive, of the geodesic polygon with
    ordered vertices z_j = (x, y).  Raises OrientationError when the
    product of all turns is -1 (reverse the vertex order to negate the
    associated series)."""
    ps = [_ray(z) for z in zs]
    n = len(ps)
    if n < 3:
        raise ValueError("need at least 3 vertices")
    ws = [_cross(ps[j - 1], ps[j]) for j in range(n)]
    # det(P_{j-1}, P_j, P_{j+1}) = (P_{j-1} x P_j) . P_{j+1}
    turns = [-sgn(_dot(w, ps[(j + 1) % n])) for j, w in enumerate(ws)]
    if 0 in turns:
        raise ValueError("three consecutive vertices collinear at index "
                         f"{turns.index(0) + 1}")
    if math.prod(turns) != 1:
        raise OrientationError(
            "total turning is -1 (odd number of right turns); "
            "reverse the vertex order and negate the series")
    cs, eps = [], 1
    for w, t in zip(ws, turns):
        cs.append(vec_primitive((-eps * w[2], 2 * eps * w[1], -eps * w[0])))
        eps *= t
    return validate(SPACE_ABC, cs)


def fundamental_ngon(t):
    """The 4-gon bounding the standard modular fundamental domain truncated
    at height t (t > 1): vertical walls at x = ±1/2, the unit semicircle,
    and the semicircle |z|^2 = t^2 + 1/4."""
    t = rat(t)
    if not t > 1:
        raise ValueError("truncation parameter must exceed 1")
    c1 = (0, -1, Fraction(1, 2))
    c2 = (Fraction(-1, 2), 0, (t * t + Fraction(1, 4)) / 2)
    c3 = (0, 1, Fraction(1, 2))
    c4 = (Fraction(1, 2), 0, Fraction(-1, 2))
    return validate(SPACE_ABC, (c1, c2, c3, c4))


def truncated_class_series(t, nmax):
    """Normalized q-expansion counting (twice) CM points of discriminant -n
    inside the truncated fundamental domain; boundary-incident exponents are
    flagged, not weighted."""
    from .lattice import LatticeCoset, holomorphic_series, certify_window
    ngon = fundamental_ngon(t)
    coset = LatticeCoset(SPACE_ABC)
    window = certify_window(ngon, Z0_ABC, nmax)
    return holomorphic_series(coset, ngon, nmax, window=window,
                              normalized=True)
