"""Generalized error functions E1, E2, E3.

E_q(c_1..c_q; x) is the average of sgn(y,c_1)...sgn(y,c_q) against the
unit-mass Gaussian centered at pr_z(x) on the negative q-plane
z = span(c_1..c_q).  In orthonormalized plane coordinates the density is
exp(-pi |t - u|^2); the plane is cut by the hyperplanes (y,c_k)=0 into
sign-constant cones, and each cone mass is computed with the radial
integral in closed form and, over the angular variable, fixed
Gauss-Legendre nodes split at the peak (planar cones, batched) or adaptive
quadrature over the spherical triangle (solid cones).  Values lie in [-1,1]
and tend to the product of signs as x grows along a regular direction.
"""

import functools
import math
from itertools import product

import numpy as np
from scipy.integrate import dblquad
from scipy.special import erf, erfc, erfcx

from .qspace import NegativePlane, DegeneratePlaneError, DEFAULT_TOL, rat, vec

SQPI = math.sqrt(math.pi)
# beyond this sign-margin the Gaussian tail is < erfc(7.5*sqrt(pi)) ~ 1e-78
FAST_MARGIN = 7.5
GL_NODES = 64            # Gauss-Legendre nodes per monotone piece of a cone
CONE_BLOCK = 256         # cones per block of node arrays (bounds temporaries)
# a piece of a cone ends where its Gaussian factor has fallen by e^{-46}
# (~1e-20) from the piece's peak; the dropped remainder is smaller still
PIECE_CUT = 46.0


class QuadratureError(RuntimeError):
    pass


def E1(space, c, x):
    """erf(sqrt(pi) * (x, c/|(c,c)|^{1/2})) for a negative vector c."""
    und = space.unit_negative(c)
    t = space.inner_f(x, und)
    return float(erf(SQPI * t))


def _radial_1(e0, b):
    """exp(e0) * exp(pi b^2) * I1(b) with I1(b) = integral_0^inf r exp(-pi (r-b)^2) dr,
    computed without overflow for e0 <= ~700; elementwise on arrays.  With
    1 + erf(t) = 2 - erfcx(t) e^{-t^2} for b >= 0 both signs of b share one
    form; the bracket cancels only where its e^{-pi b^2} factor makes it
    negligible (b > 0) or as in the direct erfcx form (b < 0)."""
    ab = np.abs(b)
    return np.exp(e0) * np.maximum(b, 0.0) + np.exp(e0 - np.pi * b * b) \
        * (1.0 / (2.0 * np.pi) - ab / 2.0 * erfcx(SQPI * ab))


def _radial_2(e0, b):
    """exp(e0) * exp(pi b^2) * I2(b) with I2(b) = integral_0^inf r^2 exp(-pi (r-b)^2) dr."""
    if b >= 0:
        return math.exp(e0) * (1.0 / (4.0 * math.pi) + b * b / 2.0) * (1.0 + erf(SQPI * b)) \
            + math.exp(e0 - math.pi * b * b) * b / (2.0 * math.pi)
    return math.exp(e0 - math.pi * b * b) * \
        (b / (2.0 * math.pi)
         + (1.0 / (4.0 * math.pi) + b * b / 2.0) * erfcx(SQPI * (-b)))


@functools.cache
def _gl_rule():
    """GL_NODES-point Gauss-Legendre on t in [0, 1], as nodes x = t^2 and
    weights w(t) dx/dt for integrals over x in [0, 1]."""
    t, w = np.polynomial.legendre.leggauss(GL_NODES)
    t = (t + 1.0) / 2.0
    return t * t, t * w


def cone_mass_2d(u, g1, g2, amp=0.0):
    """exp(amp) times the Gaussian mass exp(-pi|t-u|^2) of the planar cone
    spanned by g1, g2 (angular extent < pi).  Batched: u, g1, g2 may hold
    one cone per row (shape (K, 2), amp scalar or (K,)), giving K masses;
    a single cone gives a float."""
    single = np.ndim(u) == 1
    u, g1, g2 = (np.asarray(a, dtype=float).reshape(-1, 2) for a in (u, g1, g2))
    amp = np.broadcast_to(np.asarray(amp, dtype=float), (len(u),))
    out = np.empty(len(u))
    for lo in range(0, len(u), CONE_BLOCK):
        sl = slice(lo, lo + CONE_BLOCK)
        out[sl] = _cone_mass_block(u[sl], g1[sl], g2[sl], amp[sl])
    if not np.all(np.isfinite(out)):
        raise QuadratureError("2-D cone mass produced a non-finite value")
    return float(out[0]) if single else out


def _cone_mass_block(u, g1, g2, amp):
    """cone_mass_2d for a block of cones.  The angular integrand depends only
    on the angle from u: it peaks in the direction of u and bottoms out
    opposite it.  Each cone is split there into two monotone pieces; each
    piece is integrated from its peak end outward, with the angle offset
    x = L t^2 and fixed Gauss-Legendre nodes in t."""
    th1 = np.arctan2(g1[:, 1], g1[:, 0])
    th2 = np.arctan2(g2[:, 1], g2[:, 0])
    dth = np.mod(th2 - th1, 2.0 * np.pi)
    flip = dth > np.pi                  # order the rays counterclockwise
    e = np.where(flip[:, None, None], np.stack([g2, g1], 1), np.stack([g1, g2], 1))
    e /= np.linalg.norm(e, axis=2, keepdims=True)
    th1 = np.where(flip, th2, th1)
    dth = np.where(flip, 2.0 * np.pi - dth, dth)
    # at a unit ray e, b = (u, e) is the center's offset along the ray and
    # q = u x e its transverse distance; at the split ray q = 0, b = +-|u|
    b = np.einsum('kej,kj->ke', e, u)
    q = u[:, 0, None] * e[:, :, 1] - u[:, 1, None] * e[:, :, 0]
    r = np.hypot(u[:, 0], u[:, 1])
    phi = np.mod(np.arctan2(u[:, 1], u[:, 0]) - th1, 2.0 * np.pi)
    anti = np.mod(phi + np.pi, 2.0 * np.pi)
    peak, low = phi <= dth, anti <= dth
    split = np.where(peak, phi, np.where(low, anti, 0.0))
    b = np.stack([b[:, 0], np.where(peak, r, np.where(low, -r, b[:, 0])),
                  b[:, 1]], axis=1)
    q = np.stack([q[:, 0], np.where(peak | low, 0.0, q[:, 0]), q[:, 1]], 1)
    length = np.stack([split, dth - split], axis=1)
    start = b[:, :2] >= b[:, 1:]        # a piece starts at its larger-b end
    ba = np.where(start, b[:, :2], b[:, 1:])
    qa = np.where(start, q[:, :2], q[:, 1:])
    turn = np.where(start, 1.0, -1.0)
    # along a piece the angle from u grows; on pieces that start on u's
    # side (b > 0) stop where pi q^2 has grown by PIECE_CUT, i.e. where
    # sin^2 of that angle reaches s2 (past a right angle the integrand is
    # below e^{-pi b^2} < e^{-PIECE_CUT} of its start value anyway)
    with np.errstate(divide='ignore'):
        s2 = (qa * qa + PIECE_CUT / np.pi) / (r * r)[:, None]
    cut = (s2 < 1.0) & (ba > 0)
    reach = np.arcsin(np.sqrt(np.where(cut, s2, 0.0))) \
        - np.arctan2(np.abs(qa), ba)
    length = np.where(cut, np.minimum(length, reach), length)
    s, w = _gl_rule()
    x = length[:, :, None] * s
    cx, sx = np.cos(x), np.sin(x)
    bx = ba[:, :, None] * cx - (turn * qa)[:, :, None] * sx
    qx = qa[:, :, None] * cx + (turn * ba)[:, :, None] * sx
    f = _radial_1(amp[:, None, None] - np.pi * qx * qx, bx)
    return np.sum((f @ w) * length, axis=1)


def cone_dist2(u, b):
    """Squared distance from u to the cone {y : b y >= 0} (0 if u lies
    inside).  Batched: u of shape (..., d) and b of shape (..., d, d).  Used
    for cheap skip bounds; a slight underestimate is fine there, so we use
    0-inside / min-over-rays."""
    u = np.asarray(u, dtype=float)
    b = np.asarray(b, dtype=float)
    inside = np.all(np.einsum('...ij,...j->...i', b, u) >= -1e-12, axis=-1)
    rays = np.linalg.inv(b)
    rays = rays / np.linalg.norm(rays, axis=-2, keepdims=True)
    proj = np.maximum(np.einsum('...i,...ij->...j', u, rays), 0.0)
    d = u[..., :, None] - proj[..., None, :] * rays
    best = np.minimum(np.einsum('...i,...i->...', u, u),
                      np.min(np.einsum('...ij,...ij->...j', d, d), axis=-1))
    return np.where(inside, 0.0, best)[()]


def _plane_setup(space, cs, x, tol):
    """Orthonormalize span(cs); return (functional rows a_k, center u)."""
    plane = NegativePlane(space, cs, tol)
    k = len(cs)
    a = np.empty((k, k))
    for i, c in enumerate(cs):
        cf = np.array([float(v) for v in c])
        # (y, c) for y = sum t_i u_i equals t . a_i, with a_i[k] = (u_k, c)
        a[i] = plane.ortho @ space.gram_f @ cf
    u = plane.coords(np.asarray(x, dtype=float))
    return a, u


def _proportional(c1, c2):
    """Exact proportionality test for rational vectors; returns the sign of
    the ratio or None."""
    c1, c2 = vec(c1), vec(c2)
    i = next((k for k, v in enumerate(c1) if v != 0), None)
    if i is None:
        return None
    if c2[i] == 0:
        return None
    lam = c2[i] / c1[i]
    if all(b == lam * a for a, b in zip(c1, c2)):
        return 1 if lam > 0 else -1
    return None


def E2(space, c1, c2, x, tol=DEFAULT_TOL):
    """Gaussian-averaged sgn(y,c1)sgn(y,c2) over span(c1,c2)."""
    prop = _proportional(c1, c2)
    if prop is not None:
        return float(prop)
    a, u = _plane_setup(space, (vec(c1), vec(c2)), x, tol)
    margins = (a @ u) / np.linalg.norm(a, axis=1)
    if np.min(np.abs(margins)) >= FAST_MARGIN:
        return float(np.prod(np.sign(a @ u)))
    sig = np.array(list(product((1.0, -1.0), repeat=2)))
    gens = np.linalg.inv(sig[:, :, None] * a)
    masses = cone_mass_2d(np.broadcast_to(u, (4, 2)), gens[:, :, 0],
                          gens[:, :, 1])
    total = float(np.sum(sig[:, 0] * sig[:, 1] * masses))
    return min(1.0, max(-1.0, total))


def cone_mass_3d(u, gens, amp=0.0, epsabs=1e-11):
    """exp(amp) times the Gaussian mass of the solid cone spanned by the
    three columns of gens (spherical-triangle angular quadrature)."""
    v = np.asarray(gens, dtype=float).copy()
    for k in range(3):
        v[:, k] /= np.linalg.norm(v[:, k])
    jac = abs(float(np.linalg.det(v)))
    if jac < 1e-14:
        raise QuadratureError("degenerate spherical triangle")
    uu = float(np.dot(u, u))

    def f(t, s):
        y = (1.0 - s - t) * v[:, 0] + s * v[:, 1] + t * v[:, 2]
        r = math.sqrt(float(np.dot(y, y)))
        b = float(np.dot(u, y)) / r
        return _radial_2(amp - math.pi * (uu - b * b), b) * jac / (r ** 3)

    val, err = dblquad(f, 0.0, 1.0, 0.0, lambda s: 1.0 - s,
                       epsabs=epsabs, epsrel=1e-9)
    if not math.isfinite(val):
        raise QuadratureError("3-D cone mass quadrature produced non-finite value")
    return val


def E3(space, c1, c2, c3, x, tol=DEFAULT_TOL):
    """Gaussian-averaged sgn(y,c1)sgn(y,c2)sgn(y,c3) over span(c1,c2,c3)."""
    a, u = _plane_setup(space, (vec(c1), vec(c2), vec(c3)), x, tol)
    margins = (a @ u) / np.linalg.norm(a, axis=1)
    if np.min(np.abs(margins)) >= FAST_MARGIN:
        return float(np.prod(np.sign(a @ u)))
    total = 0.0
    for sig in product((1.0, -1.0), repeat=3):
        b = np.array([sig[i] * a[i] for i in range(3)])
        # skip far-away octants: their mass is below the Gaussian tail bound
        d2 = cone_dist2(u, b)
        if math.pi * d2 > 42.0:   # e^{-42} << 1e-11
            continue
        total += sig[0] * sig[1] * sig[2] * cone_mass_3d(
            u, np.linalg.inv(b), epsabs=epsabs_for(tol))
    return min(1.0, max(-1.0, total))


def epsabs_for(tol):
    return max(tol.quadrature_target * 1e-2, 1e-12)


def j0_value(space, ngon, x):
    """(1/4) sum_j [E2(C_j, C_{j+1}, x*sqrt(2)) - sgn(x,C_j) sgn(x,C_{j+1})]
    for a regular rational x."""
    cs = ngon.cs
    n = len(cs)
    xr = vec(x)
    signs = []
    for c in cs:
        p = space.inner(xr, c)
        if p == 0:
            raise ValueError("x is not regular: (x, C_j) = 0")
        signs.append(1 if p > 0 else -1)
    xf = np.array([float(v) for v in xr]) * math.sqrt(2.0)
    total = 0.0
    for j in range(n):
        total += E2(space, cs[j], cs[(j + 1) % n], xf) \
            - signs[j] * signs[(j + 1) % n]
    return total / 4.0
