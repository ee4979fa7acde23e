"""The explicit signature-(1,2) model: traceless 2x2 matrices with
Q(X) = det(X) and (X,Y) = -tr(XY).

A vector is written [a,b,c] for the matrix [[b, 2c], [-2a, -b]], so
Q([a,b,c]) = 4ac - b^2 and positive vectors of norm n correspond to CM
points of discriminant -n in the upper half plane.  The orthogonal basis
  e1 = [1/2, 0, 1/2],  e2 = [0, 1, 0],  e3 = [1/2, 0, -1/2]
has Gram diag(2, -2, -2) and fixes the orientation used by the hyperbolic
cross product.
"""

import cmath
import math
from dataclasses import dataclass
from fractions import Fraction

from .qspace import QuadraticSpace, rat, vec, vec_primitive
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


def one_sign_term(zs, j):
    """tau_j * sgn(|z_j|^2-|z_{j-1}|^2) * sgn(|z_{j+1}|^2-|z_j|^2): the j-th
    summand of -w for the recovered collection (1-based j)."""
    pts = [p if isinstance(p, UHPoint) else UHPoint(*p) for p in zs]
    n = len(pts)
    i = (j - 1) % n
    tau = turning_sign(pts[(i - 1) % n], pts[i], pts[(i + 1) % n])
    return tau * sgn(pts[i].norm2 - pts[(i - 1) % n].norm2) \
        * sgn(pts[(i + 1) % n].norm2 - pts[i].norm2)


def cm_point(x):
    """CM point in the upper half plane of a positive vector [a,b,c]."""
    a, b, c = vec(x)
    d = 4 * a * c - b * b
    if not d > 0:
        raise ValueError("CM point needs Q(x) > 0")
    af, bf = float(a), float(b)
    # a != 0 is automatic for Q > 0; sign chosen to land in Im > 0
    return complex(-bf / (2 * af), math.sqrt(float(d)) / (2 * abs(af)))


def plane_to_point(p):
    """Upper-half-plane point of a norm-positive vector orthogonal to a
    negative plane; p given in [a,b,c] coordinates."""
    p = vec(p)
    marker = p[0] + p[2]      # (p, e1)/2
    if marker < 0:
        p = tuple(-t for t in p)
    elif marker == 0:
        raise ValueError("vector lies on the light cone boundary marker")
    return cm_point(p)


def winding_number(ngon, x):
    """Winding number of the polygon boundary loop around the CM point z_x
    of a regular x.  Edge j runs along the geodesic C_j^perp between two
    vertex points, and (x, C_j) != 0 keeps z_x off that geodesic, so in the
    disc model w = (z - z_x)/(z - conj(z_x)) the edge subtends the principal
    argument of w_j / w_{j-1}, which lies in (-pi, pi).  An edge that
    subtends within 1e-9 of pi raises ValueError."""
    if not ngon.space.q(x) > 0:
        raise ValueError("winding number needs Q(x) > 0")
    if 0 in ngon.signs(x):
        raise ValueError("x is not regular for this collection")
    zx = cm_point(x)
    w = [(z - zx) / (z - zx.conjugate()) for z in
         (plane_to_point(cross(*pl.span)) for pl in ngon.vertex_planes)]
    angles = [cmath.phase(w[j] / w[j - 1]) for j in range(ngon.n)]
    if max(map(abs, angles)) > math.pi - 1e-9:
        raise ValueError("loop passes too close to the CM point")
    k = math.fsum(angles) / (2.0 * math.pi)
    if abs(k - round(k)) > 1e-6:
        raise ValueError(f"accumulated angle {k} not within 1e-6 of an integer")
    return int(round(k))


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


def butterfly_collection():
    """Four vectors whose boundary loop is a figure-eight: the normalized
    kernel is +1 on CM points in the upper lobe, -1 in the lower, 0 outside.
    As printed here the third polygon condition fails at j=1 and j=3;
    flipping the sign of the fourth vector repairs both (butterfly_ngon),
    and the same kernel arises as the difference of the two triangles
    (C'1,C'2,C'3) and (-C'3,-C'1,C'4)."""
    c1 = (Fraction(1, 2), Fraction(-3, 2), Fraction(-5, 4))
    c2 = (Fraction(-1, 2), 0, 2)
    c3 = (Fraction(1, 2), Fraction(3, 2), Fraction(-5, 4))
    c4 = (Fraction(-1, 2), 0, Fraction(1, 2))
    return (vec(c1), vec(c2), vec(c3), vec(c4))


def butterfly_ngon():
    """The valid 4-gon carrying the figure-eight kernel: the butterfly
    collection with the fourth vector negated (w = 0, eps/4 = +1 on the
    upper lobe, -1 on the lower, 0 outside)."""
    c1, c2, c3, c4 = butterfly_collection()
    return validate(SPACE_ABC, (c1, c2, c3, tuple(-t for t in c4)))


def dart_collection():
    """A quadrilateral loop with one reversed edge: vertices (-1,1), (1,1),
    (0,3), (0,3/2) traversed with a single right turn at the last vertex.
    The third polygon condition fails exactly at the wrap pair (j=1, j=4),
    and no sign flips repair it; its kernel goes through
    illegal_variant_kernel (value 4 inside the dart, 0 outside, w~ = 2)."""
    pts = [UHPoint(-1, 1), UHPoint(1, 1), UHPoint(0, 3),
           UHPoint(0, Fraction(3, 2))]
    taus = [turning_sign(pts[j - 1], pts[j], pts[(j + 1) % 4])
            for j in range(4)]
    return tuple(_signed_crosses(pts, taus))


def reduced_forms(n):
    """Reduced positive binary forms [a,b,c] of discriminant b^2-4ac = -n:
    |b| <= a <= c, with b >= 0 if |b| = a or a = c."""
    out = []
    n = int(n)
    bmax = int(math.isqrt(n // 3)) + 1
    for b in range(-bmax, bmax + 1):
        if (b * b + n) % 4:
            continue
        ac = (b * b + n) // 4
        a = max(abs(b), 1)
        while a * a <= ac:
            if a != 0 and ac % a == 0:
                c = ac // a
                if abs(b) <= a <= c:
                    if b < 0 and (abs(b) == a or a == c):
                        a += 1
                        continue
                    out.append((a, b, c))
            a += 1
    return out


def truncated_class_series(t, nmax, safety=1.5):
    """Normalized q-expansion counting (twice) CM points of discriminant -n
    inside the truncated fundamental domain; boundary-incident exponents are
    flagged, not weighted."""
    from .lattice import LatticeCoset, holomorphic_series, certify_window
    ngon = fundamental_ngon(t)
    coset = LatticeCoset(SPACE_ABC)
    window = certify_window(SPACE_ABC, ngon, (E2_ABC, E3_ABC), nmax,
                            safety=safety)
    return holomorphic_series(coset, ngon, nmax, window=window,
                              normalized=True)
