"""Generalized error functions E1, E2, E3.

E_q(c_1..c_q; x) is the average of sgn(y,c_1)...sgn(y,c_q) against the
unit-mass Gaussian centered at pr_z(x) on the negative q-plane
z = span(c_1..c_q).  In orthonormalized plane coordinates the density is
exp(-pi |t - u|^2); the plane is cut by the hyperplanes (y,c_k)=0 into 2^q
sign-constant cones.  cone_sum, shared by E2/E3 and the N-gon completion's
rho terms, is the one weighted sum of their masses.  A planar cone's mass
is computed with the radial integral in closed form and, over the angular
variable, fixed Gauss-Legendre nodes split at the peak (batched).  A solid
cone's mass is a 1-D integral over one wall's normal coordinate, on fixed
Gauss-Legendre nodes, of planar slice masses in closed form (a bivariate
normal orthant probability by Owen's T function).  Values lie in [-1,1] and
tend to the product of signs as x grows along a regular direction.
"""

import functools
import math
from itertools import product

import numpy as np

from .qspace import NegativePlane, vec

SQPI = math.sqrt(math.pi)
# beyond this sign-margin the Gaussian tail is < erfc(7.5*sqrt(pi)) ~ 1e-78
FAST_MARGIN = 7.5
CONE_CUT = 42.0           # E2/E3 skip cones of mass below e^{-42} << 1e-11
GL_NODES = 64            # Gauss-Legendre nodes per monotone piece of a cone
CONE_BLOCK = 256         # cones per block of node arrays (bounds temporaries)
# a piece of a cone ends where its Gaussian factor has fallen by e^{-46}
# (~1e-20) from the piece's peak; the dropped remainder is smaller still
PIECE_CUT = 46.0
LINE_NODES = 24          # Gauss-Legendre nodes per piece of a solid cone
WINDOW = 3.0             # slice distance spanned by a window at a fast change
SUM_SLACK = 1e-9         # E2/E3 mass sums further out than this are errors
# SIGNS[:2**q, 3-q:] signs the 2^q cones of a q-frame (q <= 3), + first
SIGNS = np.array(list(product((1.0, -1.0), repeat=3)))


class QuadratureError(RuntimeError):
    pass


def E1(space, c, x):
    """erf(sqrt(pi) * (x, c/|(c,c)|^{1/2})) for a negative vector c."""
    from scipy.special import erf
    und = space.unit_negative(c)
    return float(erf(SQPI * (np.asarray(x, dtype=float) @ space.gram_f @ und)))


def _radial_1(e0, b):
    """exp(e0) * exp(pi b^2) * I1(b) with I1(b) = integral_0^inf r exp(-pi (r-b)^2) dr,
    computed without overflow for e0 <= ~700; elementwise on arrays.  With
    1 + erf(t) = 2 - erfcx(t) e^{-t^2} for b >= 0 both signs of b share one
    form; the bracket cancels only where its e^{-pi b^2} factor makes it
    negligible (b > 0) or as in the direct erfcx form (b < 0)."""
    from scipy.special import erfcx
    ab = np.abs(b)
    return np.exp(e0) * np.maximum(b, 0.0) + np.exp(e0 - np.pi * b * b) \
        * (1.0 / (2.0 * np.pi) - ab / 2.0 * erfcx(SQPI * ab))


@functools.cache
def _gl_rule(n):
    """n-point Gauss-Legendre rule: its nodes s and weights w on [-1, 1],
    and for integrals over x in [0, 1] the nodes x = t^2, t = (s+1)/2, with
    weights w(t) dx/dt."""
    s, w = np.polynomial.legendre.leggauss(n)
    t = (s + 1.0) / 2.0
    return s, w, t * t, t * w


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
    _, _, s, w = _gl_rule(GL_NODES)
    tq, tb = turn * qa, turn * ba
    f = np.empty(length.shape + s.shape)
    for p in range(2):                  # a piece at a time: half the temporaries
        x = length[:, p, None] * s
        cx, sx = np.cos(x), np.sin(x)
        bx = ba[:, p, None] * cx - tq[:, p, None] * sx
        qx = qa[:, p, None] * cx + tb[:, p, None] * sx
        f[:, p] = _radial_1(amp[:, None] - np.pi * qx * qx, bx)
    return np.sum((f @ w) * length, axis=1)


def cone_dist2(u, b, rays):
    """Squared distance from u to the nearest ray of the cone {y : b y >= 0}
    (0 if u lies inside), whose rays are the columns of rays = b^{-1}, for
    float arrays u of shape (..., d), b and rays of shape (..., d, d).  It
    is the distance to a planar cone, whose boundary is its rays, but no
    lower bound for a solid cone, whose nearest point can lie on a facet:
    E3's octant screen drops cones with real mass (open; the values of
    perfbench/refs/dodec_E.json carry it)."""
    inside = np.all(np.einsum('...ij,...j->...i', b, u) >= -1e-12, axis=-1)
    rays = rays / np.linalg.norm(rays, axis=-2, keepdims=True)
    proj = np.maximum(np.einsum('...i,...ij->...j', u, rays), 0.0)
    d = u[..., :, None] - proj[..., None, :] * rays
    best = np.minimum(np.einsum('...i,...i->...', u, u),
                      np.min(np.einsum('...ij,...ij->...j', d, d), axis=-1))
    return np.where(inside, 0.0, best)[()]


def plane_frame(plane):
    """The functional rows a_k of the plane's spanning vectors c_k and the
    map m that takes x (as floats) to the centre u = m x, the orthonormal
    coordinates of pr_z(x)."""
    gf = plane.space.gram_f
    # (y, c) for y = sum t_i u_i equals t . a_i, with a_i[k] = (u_k, c)
    a = [plane.ortho @ gf @ np.array([float(v) for v in c])
         for c in plane.span]
    return np.array(a), -(plane.ortho @ gf)


def E2(space, c1, c2, x):
    """Gaussian-averaged sgn(y,c1)sgn(y,c2) over span(c1,c2); the sign of
    the ratio for exactly proportional c1, c2."""
    c1, c2 = vec(c1), vec(c2)
    i = next((k for k, v in enumerate(c1) if v != 0), None)
    if i is not None and c2[i] != 0 and all(c2[i] * a == c1[i] * b
                                            for a, b in zip(c1, c2)):
        return 1.0 if c2[i] / c1[i] > 0 else -1.0
    return _E(space, (c1, c2), x)


def cone_mass_3d(u, b):
    """Gaussian masses exp(-pi|y-u|^2) of the solid cones {y : b y >= 0}, u
    of shape (K, 3), functional rows b of shape (K, 3, 3).  With n a wall's
    unit normal, the slice at t = (n, y) is a planar cone with apex t p:
    mass = int_0^inf exp(-pi (t - u_n)^2) m(u_perp - t p) dt, m the slice's
    planar cone mass, to a Gaussian factor of e^{-PIECE_CUT}.  The slice mass
    changes on a scale 1/rate where the slice centre crosses a wall (rate
    |c_j|/|g_j|) or passes the apex (rate |p|): split there, at u_n and
    WINDOW/rate either side; LINE_NODES Gauss-Legendre nodes a piece.  A
    slice's mass is the orthant probability of its walls' standardized
    margins (_orthant)."""
    u = np.asarray(u, dtype=float).reshape(-1, 3)
    nb = np.asarray(b, dtype=float).reshape(-1, 3, 3)
    nb = nb / np.linalg.norm(nb, axis=2, keepdims=True)
    if np.any(np.abs(np.linalg.det(nb)) < 1e-14):
        raise QuadratureError("degenerate solid cone")
    # condition on the wall whose normal is least parallel to the other two
    cos = np.abs(nb @ nb.transpose(0, 2, 1)) - 2.0 * np.eye(3)
    pivot = np.argmin(cos.max(axis=2), axis=1)
    nb = np.take_along_axis(
        nb, ((pivot[:, None] + np.arange(3)) % 3)[:, :, None], axis=1)
    n, walls = nb[:, 0], nb[:, 1:]
    e1 = walls[:, 0] - np.sum(walls[:, 0] * n, axis=1, keepdims=True) * n
    e1 /= np.linalg.norm(e1, axis=1, keepdims=True)
    frame = np.stack([e1, np.cross(n, e1)], axis=1)        # basis of n^perp
    # wall j on the slice at t: g_j . s + t c_j >= 0, so p = -g^{-1} c
    g = walls @ frame.transpose(0, 2, 1)
    gn = np.linalg.norm(g, axis=2)
    c = np.einsum('kjd,kd->kj', walls, n)
    ginv = np.linalg.inv(g)
    p = -np.einsum('kij,kj->ki', ginv, c)
    un = np.einsum('kd,kd->k', u, n)
    uperp = np.einsum('kid,kd->ki', frame, u)
    lo = np.maximum(un - math.sqrt(PIECE_CUT / math.pi), 0.0)
    hi = np.maximum(un + math.sqrt(PIECE_CUT / math.pi), lo)
    with np.errstate(divide='ignore', invalid='ignore'):
        at = np.column_stack([-np.einsum('kjd,kd->kj', g, uperp) / c,
                              np.sum(uperp * p, 1) / np.sum(p * p, 1)])
        rate = np.column_stack([np.abs(c) / gn, np.linalg.norm(p, axis=1)])
        knots = np.column_stack([lo, un, hi, at, at - WINDOW / rate,
                                 at + WINDOW / rate])
    knots = np.sort(np.clip(np.nan_to_num(knots, nan=-1.0),
                            lo[:, None], hi[:, None]), axis=1)
    s, w, _, _ = _gl_rule(LINE_NODES)
    length = np.diff(knots, axis=1)[:, :, None] / 2.0
    shape = (len(u), (knots.shape[1] - 1) * LINE_NODES)
    t = (knots[:, :-1, None] + length * (s + 1.0)).reshape(shape)
    wt = (length * w).reshape(shape)
    k, j = np.nonzero(wt > 0.0)       # slices of the pieces of nonzero length
    # wall j's margin on the slice at t, in units of the Gaussian's standard
    # deviation 1/sqrt(2 pi); the walls' correlation is that of g_1, g_2
    rho = np.sum(g[:, 0] * g[:, 1], axis=1) / (gn[:, 0] * gn[:, 1])
    h = (np.einsum('kjd,kd->kj', g, uperp)[k] + t[k, j][:, None] * c[k]) \
        * (math.sqrt(2.0 * math.pi) / gn[k])
    mass = np.zeros(shape)
    mass[k, j] = np.exp(-np.pi * (t[k, j] - un[k]) ** 2) \
        * _orthant(h[:, 0], h[:, 1], rho[k])
    if not np.all(np.isfinite(mass)):
        raise QuadratureError("3-D cone mass produced a non-finite value")
    return np.sum(mass * wt, axis=1)


def _orthant(h, k, rho):
    """P(X <= h, Y <= k) for standard normals X, Y of correlation rho,
    |rho| < 1, elementwise, from Owen's T function (Owen 1956).  An exact
    zero h or k is moved to 1e-300, where Phi2 is continuous, so that the
    arguments of T stay defined."""
    from scipy.special import ndtr, owens_t
    h = np.where(h == 0.0, 1e-300, h)
    k = np.where(k == 0.0, 1e-300, k)
    r = np.sqrt(1.0 - rho * rho)
    with np.errstate(over='ignore'):
        ah, ak = (k - rho * h) / (h * r), (h - rho * k) / (k * r)
    return (ndtr(h) + ndtr(k)) / 2.0 - owens_t(h, ah) - owens_t(k, ak) \
        - 0.5 * ((h < 0.0) != (k < 0.0))


def E3(space, c1, c2, c3, x):
    """Gaussian-averaged sgn(y,c1)sgn(y,c2)sgn(y,c3) over span(c1,c2,c3)."""
    return _E(space, (c1, c2, c3), x)


def _E(space, cs, x):
    a, m = plane_frame(NegativePlane(space, cs))
    return float(E_frames(a[None], (m @ np.asarray(x, dtype=float))[None])[0])


def E_frames(a, u):
    """E2 or E3 for V frames at once: functional rows a of shape (V, q, q)
    and centres u of shape (V, q) in orthonormal plane coordinates.  A frame
    whose margins all reach FAST_MARGIN gets its sign product; the others
    are one cone_sum over their 2^q cones, each weighted by its sign
    product.  A signed sum past 1 + SUM_SLACK raises."""
    margins = np.einsum('vij,vj->vi', a, u) / np.linalg.norm(a, axis=2)
    out = np.prod(np.sign(margins), axis=1)
    slow = np.flatnonzero(np.min(np.abs(margins), axis=1) < FAST_MARGIN)
    if not slow.size:
        return out
    sign = np.prod(SIGNS[:2 ** a.shape[1], 3 - a.shape[1]:], axis=1)
    total = cone_sum(a, slow, u[slow],
                     np.broadcast_to(sign, (slow.size, sign.size)))
    if np.any(np.abs(total) > 1.0 + SUM_SLACK):
        raise QuadratureError(f"cone-mass sum {total!r} is outside [-1, 1]")
    out[slow] = np.clip(total, -1.0, 1.0)
    return out


def cone_sum(a, f, u, weight, amp=0.0, cut=CONE_CUT):
    """sum_c weight[k, c] e^{amp_k} mass(cone c of frame a[f_k], centre u_k)
    per item k: cone c is {y : sigma_c a y >= 0}, sigma_c = SIGNS[c, 3-q:],
    for frames a of shape (F, q, q), q = 2 or 3.  The (k, c) of nonzero
    weight pass one cone_dist2 screen (amp_k - pi dist^2 >= -cut) and one
    cone-mass call; np.bincount adds each item's terms in cone order.  amp
    applies to planar cones only; E3's callers pass none."""
    q = a.shape[1]
    sig = SIGNS[:2 ** q, 3 - q:]
    k, c = np.nonzero(weight)
    amp = np.broadcast_to(np.asarray(amp, dtype=float), (len(u),))[k]
    b = sig[c, :, None] * a[f[k]]
    rays = np.linalg.inv(a)[f[k]] * sig[c, None, :]
    keep = amp - math.pi * cone_dist2(u[k], b, rays) >= -cut
    k, c, b, rays, amp = k[keep], c[keep], b[keep], rays[keep], amp[keep]
    if q == 2:
        mass = cone_mass_2d(u[k], rays[:, :, 0], rays[:, :, 1], amp=amp)
    else:
        mass = cone_mass_3d(u[k], b)
    return np.bincount(k, weight[k, c] * mass, minlength=len(u))


def j0_value(space, ngon, x):
    """(1/4) sum_j [E2(C_j, C_{j+1}, x*sqrt(2)) - sgn(x,C_j) sgn(x,C_{j+1})]
    for a regular rational x."""
    cs, n, s = ngon.cs, ngon.n, ngon.signs(x)
    if 0 in s:
        raise ValueError("x is not regular: (x, C_j) = 0")
    xf = np.array([float(v) for v in vec(x)]) * math.sqrt(2.0)
    return sum(E2(space, cs[j], cs[(j + 1) % n], xf) - s[j] * s[(j + 1) % n]
               for j in range(n)) / 4.0
