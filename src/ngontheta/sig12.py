"""The explicit signature-(1,2) model: traceless 2x2 matrices with
Q(X) = det(X) and (X,Y) = -tr(XY).

A vector is written [a,b,c] for the matrix [[b, 2c], [-2a, -b]], so
Q([a,b,c]) = 4ac - b^2 and positive vectors of norm n correspond to CM
points of discriminant -n in the upper half plane.  The orthogonal basis
  e1 = [1/2, 0, 1/2],  e2 = [0, 1, 0],  e3 = [1/2, 0, -1/2]
has Gram diag(2, -2, -2) and fixes the orientation used by the hyperbolic
cross product.  The module recovers an N-gon from the vertices of a
geodesic polygon (`sig12 recover`), builds the truncated fundamental
domain's 4-gon and its class-number series (`sig12 zagier`); `sig12
winding` prints ngon.linking_number, for any (p, 2).
"""

import math
from dataclasses import dataclass
from fractions import Fraction

from .qspace import NegativePlane, QuadraticSpace, rat, vec, vec_primitive
from .ngon import validate, sgn

# Gram of (X,Y) = -tr(XY) in [a,b,c] coordinates: (x,x) = 2(4ac - b^2)
SPACE_ABC = QuadraticSpace([[0, 0, 4], [0, -2, 0], [4, 0, 0]])
# Gram in the orthogonal e-basis
SPACE_E = QuadraticSpace([[2, 0, 0], [0, -2, 0], [0, 0, -2]])

E2_ABC = vec((0, 1, 0))
E3_ABC = vec((Fraction(1, 2), 0, Fraction(-1, 2)))


def abc_to_e(x):
    a, b, c = vec(x)
    return (a + c, b, a - c)


def e_to_abc(x):
    al, be, ga = vec(x)
    return ((al + ga) / 2, be, (al - ga) / 2)


@dataclass(frozen=True)
class UHPoint:
    x: Fraction
    y: Fraction

    def __post_init__(self):
        object.__setattr__(self, 'x', rat(self.x))
        object.__setattr__(self, 'y', rat(self.y))
        if not self.y > 0:
            raise ValueError("upper-half-plane point needs y > 0")

    @property
    def norm2(self):
        return self.x * self.x + self.y * self.y


def point_to_vector(z):
    """X(z) = [1/(2y), -x/y, |z|^2/(2y)], the norm-1 positive vector at z."""
    z = z if isinstance(z, UHPoint) else UHPoint(*z)
    return (1 / (2 * z.y), -z.x / z.y, z.norm2 / (2 * z.y))


def cross(u0, u1):
    """Hyperbolic cross product in [a,b,c] coordinates (orthogonal to both
    factors; X(z1) x X(z2) spans the geodesic through z1, z2 oriented from
    z1 to z2)."""
    a0, b0, c0 = abc_to_e(u0)
    a1, b1, c1 = abc_to_e(u1)
    ce = (b0 * c1 - c0 * b1, a0 * c1 - c0 * a1, -(a0 * b1 - b0 * a1))
    return e_to_abc(ce)


def alpha(z1, z2, z3):
    """Turning invariant at z2: positive for a left turn of the geodesic
    path z1 -> z2 -> z3, negative for a right turn, zero when collinear."""
    zs = [p if isinstance(p, UHPoint) else UHPoint(*p) for p in (z1, z2, z3)]
    x1, x2, x3 = (p.x for p in zs)
    n1, n2, n3 = (p.norm2 for p in zs)
    num = x1 * (n2 - n3) + x2 * (n3 - n1) + x3 * (n1 - n2)
    return num / (2 * zs[0].y * zs[1].y * zs[2].y)


def turning_sign(z1, z2, z3):
    return sgn(alpha(z1, z2, z3))


class OrientationError(ValueError):
    pass


def recover_ngon(zs):
    """Collection C_j = eps_j X(z_{j-1}) x X(z_j) from the ordered vertices
    of a geodesic polygon, with eps_j the product of the preceding turning
    signs.  Raises OrientationError when the total turning is -1 (reverse
    the vertex order to negate the associated series)."""
    pts = [p if isinstance(p, UHPoint) else UHPoint(*p) for p in zs]
    n = len(pts)
    if n < 3:
        raise ValueError("need at least 3 vertices")
    taus = []
    for j in range(n):
        t = turning_sign(pts[(j - 1) % n], pts[j], pts[(j + 1) % n])
        if t == 0:
            raise ValueError(f"three consecutive vertices collinear at index {j + 1}")
        taus.append(t)
    total = math.prod(taus)
    if total != 1:
        raise OrientationError(
            "total turning is -1 (odd number of right turns); "
            "reverse the vertex order and negate the series")
    return validate(SPACE_ABC, _signed_crosses(pts, taus))


def _signed_crosses(pts, taus):
    """Primitive C_j = eps_j X(z_{j-1}) x X(z_j), with eps_j the product of
    the turning signs taus before index j."""
    cs = []
    eps = 1
    for j, tau in enumerate(taus):
        y = cross(point_to_vector(pts[j - 1]), point_to_vector(pts[j]))
        cs.append(vec_primitive(tuple(eps * t for t in vec(y))))
        eps *= tau
    return cs


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


def truncated_class_series(t, nmax, safety=1.5):
    """Normalized q-expansion counting (twice) CM points of discriminant -n
    inside the truncated fundamental domain; boundary-incident exponents are
    flagged, not weighted."""
    from .lattice import LatticeCoset, holomorphic_series, certify_window
    ngon = fundamental_ngon(t)
    coset = LatticeCoset(SPACE_ABC)
    window = certify_window(ngon, NegativePlane(SPACE_ABC, (E2_ABC, E3_ABC)),
                            nmax, safety=safety)
    return holomorphic_series(coset, ngon, nmax, window=window,
                              normalized=True)
