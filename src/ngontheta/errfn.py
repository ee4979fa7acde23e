"""Generalized error functions E1, E2, E3.

E_q(c_1..c_q; x) is the average of sgn(y,c_1)...sgn(y,c_q) against the
unit-mass Gaussian centered at pr_z(x) on the negative q-plane
z = span(c_1..c_q).  In orthonormalized plane coordinates the density is
exp(-pi |t - u|^2); the plane is cut by the hyperplanes (y,c_k)=0 into 2^q
sign-constant cones.  E_frames evaluates E2 or E3 on a stack of plane
frames: E2/E3 of one plane and dodec_E_kernel are one call each.
cone_sum, shared by E_frames and the N-gon completion's rho terms, is the
one weighted sum of their masses, under one weight rule: cone sigma of an
item with reference signs s weighs prod_i (sigma_i - s_i).  It sets up a
call's cones once, as one table that its screen and mass read by index:
cone_dist2, cone_mass_2d and cone_mass_3d take item arrays, cone tables
and a required index cone into them, the masses also each item's final
weight amp and a cut: the one form cone_sum passes.  cone_mass_2d screens
planar cones itself, cone_dist2 solid ones.  CONE_CUT, the default cut,
decides when a Gaussian mass is negligible; FAST_MARGIN, E_frames'
fast-path margin, is where a Gaussian factor falls that far.  A planar
cone's mass is computed with the radial integral in closed form; over the
angle, its Gaussian term on u's side integrates in closed form too (a
difference of erfc), and the smooth rest, which has no Gaussian factor in
the angle, takes a short Gauss-Legendre rule (batched): each piece the
fewest nodes of FAR_NODES whose error bound (64/15) M rho^{2-2m}/(rho^2
- 1), M a closed-form bound of the integrand on a Bernstein ellipse E_rho
(Trefethen, ATAP Thm 19.3), a proof, not an estimate, is below e^{-cut}
at the piece's weight, else CONE_NODES.  A solid cone's mass is a 1-D
integral over one wall's normal coordinate of planar slice masses, on
CONE_NODES Gauss-Legendre nodes a piece and no bound: every slice is a
planar cone of cone_mass_2d, weighed at its final weight and cut in runs
of at most SLICE_RUN slices, so cone_mass_2d is the one cone-mass routine.
Values lie in [-1,1] and tend to the product of signs as x grows along a
regular direction.
"""

import functools
import math
from itertools import product

import numpy as np

from .qspace import NegativePlane, _nonzero_2d, vec

SQPI = math.sqrt(math.pi)
CONE_CUT = 42.0           # E2/E3 skip cones of mass below e^{-42} << 1e-11
# where a Gaussian factor exp(-pi d^2) falls below e^{-CONE_CUT}: E2/E3
# take the sign product when every sign margin reaches it
FAST_MARGIN = math.sqrt(CONE_CUT / math.pi)
CONE_NODES = 24          # Gauss-Legendre nodes a piece of a 1-D cone integral
FAR_NODES = (2, 4, 6, 8, 12, 16, CONE_NODES)   # node counts of a far piece
_FAR_LADDER = np.array([min(m for m in FAR_NODES if m >= k)  # the first >= k
                        for k in range(CONE_NODES + 1)])
CONE_BLOCK = 8192        # node elements per block (bounds temporaries)
SLICE_RUN = 2 ** 17      # solid-cone slices per cone_mass_2d call, at most
WINDOW = 3.0             # slice distance spanned by a window at a fast change
SUM_SLACK = 1e-9         # E2/E3 mass sums further out than this are errors
# _SIGNS[:2**q, 3-q:] signs the 2^q cones of a q-frame (q <= 3), + first
_SIGNS = np.array(list(product((1.0, -1.0), repeat=3)))


class QuadratureError(RuntimeError):
    pass


def E1(space, c, x):
    """erf(sqrt(pi) * (x, c/|(c,c)|^{1/2})) for a negative vector c."""
    from scipy.special import erf
    und = space.unit_negative(c)
    return float(erf(SQPI * (np.asarray(x, dtype=float) @ space.gram_f @ und)))


@functools.cache
def _gl_rule(n):
    """n-point Gauss-Legendre rule: its nodes s and weights w on [-1, 1],
    and for integrals over x in [0, 1] the nodes x = t^2, t = (s+1)/2, with
    weights w(t) dx/dt."""
    s, w = np.polynomial.legendre.leggauss(n)
    t = (s + 1.0) / 2.0
    return s, w, t * t, t * w


def _cone_rays(g1, g2):
    """Per cone (rays g1, g2 of shape (C, 2)): unit rays e (C, 2, 2) in
    counterclockwise order and the opening dth."""
    th1, th2 = np.arctan2(g1[:, 1], g1[:, 0]), np.arctan2(g2[:, 1], g2[:, 0])
    dth = np.mod(th2 - th1, 2.0 * np.pi)
    flip = dth > np.pi                  # order the rays counterclockwise
    e = np.where(flip[:, None, None], np.stack([g2, g1], 1), np.stack([g1, g2], 1))
    e /= np.linalg.norm(e, axis=2, keepdims=True)
    return e, np.where(flip, 2.0 * np.pi - dth, dth)


def cone_mass_2d(u, g1, g2, amp, cone, cut=CONE_CUT):
    """exp(amp_k) times the Gaussian mass exp(-pi|t-u_k|^2) of item k's planar
    cone (angular extent < pi), for items u of shape (K, 2) and amp of shape
    (K,): the cone spanned by row cone[k] of the ray tables g1, g2 (shape (C,
    2)).  The rays' order, opening and unit vectors are derived once per table
    row (_cone_rays), the rest per item, each array dropped after its last
    read.  A screen on the b, q and |u| below gives 0 to an item whose cone
    lies farther than sqrt((amp_k + cut)/pi) from u_k.
    In the direction at angle a from u, with b = |u| cos a and q = |u| sin
    a, the radial integral is e^{amp} max(b, 0) e^{-pi q^2} + e^{amp - pi
    |u|^2} g(|b|), g(y) = 1/(2 pi) - (y/2) erfcx(sqrt(pi) y).  The first
    term integrates over the angle in closed form: over a stretch on one
    side of u's direction, to e^{amp} (erfc x_1 - erfc x_2)/2, x = sqrt(pi)
    |q| at the ends of its part with b >= 0, |q| from the cross products u
    x e of its rays (|u| at the perpendicular to u), x_1 <= x_2.  The
    second has no Gaussian factor in the angle: the cone is cut where the
    angle passes a multiple of pi/2, and each part is integrated by
    Gauss-Legendre in t, its angle d to the nearest perpendicular d0 + L
    t^2 from the part's end nearest it, where g(|b|) changes fastest and
    has its kink.  A part takes the fewest nodes of FAR_NODES whose error,
    proved by a Bernstein-ellipse bound (_far_bound; a proof, not an
    estimate), is below e^{-cut} at the part's weight e^{amp - pi |u|^2},
    none if the whole part is, and CONE_NODES if no count is enough."""
    from scipy.special import erfcx
    e, dth = (t[cone] for t in _cone_rays(g1, g2))
    # at a unit ray e, b = (u, e) is the center's offset along the ray and
    # q = u x e its transverse distance
    b = np.einsum('kej,kj->ke', e, u)
    q = u[:, 0, None] * e[:, :, 1] - u[:, 1, None] * e[:, :, 0]
    r = np.hypot(u[:, 0], u[:, 1])
    # x / sqrt(pi): u's distance to a ray, |q| where b >= 0, else |u|
    x = SQPI * np.where(b >= 0.0, np.abs(q), r[:, None])
    inside = (q[:, 0] <= 0.0) & (q[:, 1] >= 0.0)
    x0 = np.where(inside, 0.0, np.minimum(x[:, 0], x[:, 1]))
    live = np.flatnonzero(amp - x0 * x0 >= -cut)
    a0 = np.arctan2(q[live, 0], b[live, 0])     # the last read of b and q
    del e, b, q, x0
    r, x, inside, dth, amp = (np.take(t, live, 0) for t in (
        r, x, inside, dth, amp))
    # closed-form term on the stretches from each ray to u's direction if
    # the cone holds it (x = 0 there), else on the one from ray to ray; a
    # stretch with b < 0 at both ends has x_1 = x_2 and gets 0 (skipped)
    x = np.stack([x[:, 0], np.where(inside, 0.0, x[:, 0]), x[:, 1]], axis=1)
    x1, x2 = np.minimum(x[:, :2], x[:, 1:]), np.maximum(x[:, :2], x[:, 1:])
    n = np.flatnonzero(x1 < x2)         # stretch n of item n // 2
    x1, x2 = x1.ravel()[n], x2.ravel()[n]
    c2 = erfcx(x2)
    near = np.bincount(n // 2, np.exp(amp[n // 2] - x1 * x1) * (
        (erfcx(x1) - c2) - c2 * np.expm1(-(x2 - x1) * (x2 + x1))) / 2.0,
        minlength=len(live))
    lw = amp - np.pi * r * r            # the far term's log weight
    del x, inside, x1, x2, c2, n, amp
    # quadrature term: the angle from u runs over [a0, a0 + dth], cut where
    # it passes a multiple of pi/2 (u's direction, its opposite or a
    # perpendicular) into parts.  On a part |cos| = sin d, with d the angle
    # to the nearest perpendicular, monotone along it from d0 to d0 + step
    turn = np.pi / 2.0 * (np.ceil(a0 / (np.pi / 2.0))[:, None] + [0.0, 1.0])
    a = np.column_stack([a0, np.minimum(turn, (a0 + dth)[:, None]), a0 + dth])
    d = np.abs(np.pi / 2.0 - (a - np.pi * np.floor(a / np.pi)))
    d0, step = np.minimum(d[:, :-1], d[:, 1:]), np.abs(d[:, 1:] - d[:, :-1])
    # the parts of nonzero length, flat: item k = i // 3
    i = np.flatnonzero(step)
    del a0, turn, dth, a, d
    d0, step, rs = d0.ravel()[i], step.ravel()[i], SQPI * r[i // 3]
    # a cone's far term errs by at most e^{-cut}: each of its parts by a third
    nodes = _far_nodes(d0, step, rs, lw[i // 3], cut + math.log(3.0))
    far = np.zeros(len(i))
    for m in FAR_NODES:
        p = np.flatnonzero(nodes == m)
        _, _, s, w = _gl_rule(m)
        for j in _blocks(len(p), m):
            # z = sqrt(pi) |b| at the nodes, where 2 sqrt(pi) g is
            # 1/sqrt(pi) - z erfcx(z) (the weights sum to 1)
            j = p[j]
            z = d0[j, None] + step[j, None] * s
            np.sin(z, out=z)
            z *= rs[j, None]
            zc = erfcx(z)
            zc *= z
            far[j] = (1.0 / SQPI - np.einsum('ij,j->i', zc, w)) * step[j]
    out = np.zeros(len(u))
    out[live] = near + np.exp(lw) \
        * np.bincount(i // 3, far, minlength=len(live)) / (2.0 * SQPI)
    if not np.all(np.isfinite(out)):
        raise QuadratureError("2-D cone mass produced a non-finite value")
    return out


def _far_nodes(d0, step, rs, lw, cut):
    """Each far piece's node count at weight e^{lw}: 0 if the whole piece,
    at most e^{lw} step/(2 pi) as 0 < f <= 1/sqrt(pi) on the real range, is
    below e^{-cut}, else the fewest of FAR_NODES whose error bound
    (_far_bound) is, else CONE_NODES."""
    none = lw + cut + np.log(step / (2.0 * math.pi)) <= 0.0
    lk, lr = _far_bound(d0, step, rs)
    need = np.fmin(np.ceil((lk + lw + cut) / (2.0 * lr)), CONE_NODES)
    return np.where(none, 0, _FAR_LADDER[np.maximum(need, 0.0).astype(int)])


def _far_bound(d0, step, rs):
    """(lk, lr) such that the m-node Gauss rule's error on a far piece, step
    int_{-1}^{1} t f(z) ds / (2 sqrt(pi)), t = (s+1)/2, z = rs sin(d0 +
    step t^2), f(z) = 1/sqrt(pi) - z erfcx(z), is at most e^{lk - 2 m lr}:
    a proof, for m >= 2.  As f(z) = (2/sqrt(pi)) int_0^inf y e^{-y^2 -
    2zy} dy, |f(z)| <= f(Re z) <= (1/sqrt(pi) + 2w) e^{w^2} where Re z >=
    -w.  On the Bernstein ellipse E_rho, rho = a + b, of half-axes a =
    sqrt(1 + b^2) and b: |t| <= (a+1)/2, the angle's imaginary part is
    within Y = step (a+1) b/2, and its real part lies in [d0 - R, d0 +
    step + R + sqrt(R step)], R = step b^2/4, which with R <= 1/2 and d0 +
    step <= pi/2 is below pi.  So Re z >= -w, w = rs max(R - d0, 0) cosh
    Y, and |t f| <= M = (a+1)/2 (1/sqrt(pi) + 2w) e^{w^2}, and the rule
    errs on the integral by at most (64/15) M rho^{2-2m}/(rho^2 - 1)
    (Trefethen, ATAP Thm 19.3, its n = m - 1), where rho^2 - 1 = 2 b rho.
    Each piece takes R = max(d0, 0.8/rs) up to 1/2: the ellipse passes the
    angle 0 only where w <= 0.8 cosh Y."""
    with np.errstate(divide='ignore', over='ignore'):
        reach = np.minimum(np.maximum(d0, 0.8 / rs), 0.5)
    b = 2.0 * np.sqrt(reach / step)
    a1 = np.sqrt(1.0 + b * b) + 1.0
    w = np.maximum(np.subtract(reach, d0, out=reach), 0.0, out=reach)
    w *= rs
    w *= np.cosh(step * a1 * b / 2.0)
    a1 *= 8.0 / (15.0 * SQPI)
    lk = np.log(a1 * (1.0 / SQPI + 2.0 * w) * step / b)
    lk += np.square(w, out=w)
    lr = np.arcsinh(b, out=b)
    lk += lr
    return lk, lr


def _blocks(n, nodes):
    """Slices of range(n) with at most CONE_BLOCK node elements each."""
    step = CONE_BLOCK // nodes
    return (slice(i, i + step) for i in range(0, n, step))


def cone_dist2(u, b, rays, cone):
    """Squared distance from u_k to the nearest ray of item k's cone {y : b
    y >= 0} (0 if u_k lies inside), whose rays are the columns of rays =
    b^{-1}, for items u of shape (K, d) and tables b, rays of shape (C, d,
    d) whose row cone[k] is item k's cone, its rays normalized once per
    row: cone_sum's screen of solid cones (cone_mass_2d screens planar
    ones).  It is no lower bound for a solid cone, whose nearest point can
    lie on a facet: E3's octant screen drops cones with real mass (open;
    the values of perfbench/refs/dodec_E.json carry it)."""
    inside = functools.reduce(
        np.logical_and, (np.einsum('kij,kj->ki', b[cone], u) >= -1e-12).T)
    rays = (rays / np.linalg.norm(rays, axis=1, keepdims=True))[cone]
    proj = np.maximum(np.einsum('ki,kij->kj', u, rays), 0.0)
    d = u[:, :, None] - proj[:, None, :] * rays
    dd = np.einsum('kij,kij->kj', d, d)        # to each ray
    best = functools.reduce(np.minimum, dd.T, np.einsum('ki,ki->k', u, u))
    return np.where(inside, 0.0, best)


def E2(space, c1, c2, x):
    """Gaussian-averaged sgn(y,c1)sgn(y,c2) over span(c1,c2); the sign of
    the ratio for exactly proportional negative c1, c2 (proportional null
    or positive ones raise E1's ValueError).  Far out along one wall the
    value is still that of its float frame: at |x| ~ 1e13 the frame's
    rounding moves the centre by about 1e-3, so a sign margin of 0.05 is
    resolved to no better than that."""
    c1, c2 = vec(c1), vec(c2)
    i = next((k for k, v in enumerate(c1) if v != 0), None)
    if i is not None and c2[i] != 0 and all(c2[i] * a == c1[i] * b
                                            for a, b in zip(c1, c2)):
        space.unit_negative(c1)         # raises unless c1 is negative
        return 1.0 if c2[i] / c1[i] > 0 else -1.0
    return _E(space, (c1, c2), x)


def cone_mass_3d(u, b, amp, cone, cut=CONE_CUT):
    """exp(amp_k) times the Gaussian mass exp(-pi|y-u_k|^2) of item k's
    solid cone {y : b y >= 0}, for items u of shape (K, 3), amp of shape
    (K,) and a table b of functional rows, shape (C, 3, 3), whose row
    cone[k], set up once per row, is item k's cone.  With n a wall's unit
    normal, the slice at t = (n, y) is a planar cone with apex t p: mass =
    int_0^inf exp(amp - pi (t - u_n)^2) m(u_perp - t p) dt, m the slice's
    planar cone mass, over t within sqrt(max(amp + cut, 0)/pi) of u_n,
    where the slice's weight falls to e^{-cut} (cut must be finite).  The
    slice mass changes on a scale 1/rate where the slice centre crosses a
    wall (rate |c_j|/|g_j|) or passes the apex (rate |p|): split there, at
    u_n and WINDOW/rate either side; CONE_NODES Gauss-Legendre nodes a
    piece.  The slice cone's rays are the columns of g^{-1}, g its walls' rows
    in n^perp: every slice is one item of a cone_mass_2d call on that table at
    cut, centre u_perp - t p and amp amp - pi (t - u_n)^2, so its screen and
    far rule run at the slice's final weight; a call takes the slices of whole
    items, at most SLICE_RUN, gathered from their pieces, which bounds its
    temporaries and changes no bit."""
    nb = b / np.linalg.norm(b, axis=2, keepdims=True)
    if np.any(np.abs(np.linalg.det(nb))[cone] < 1e-14):
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
    rays = np.linalg.inv(g)             # the slice cone's rays, its columns
    p = -np.einsum('kij,kj->ki', rays, c)
    n, frame, g, gn, c, p = (a[cone] for a in (n, frame, g, gn, c, p))
    un = np.einsum('kd,kd->k', u, n)
    uperp = np.einsum('kid,kd->ki', frame, u)
    reach = np.sqrt(np.maximum(amp + cut, 0.0) / np.pi)
    lo = np.maximum(un - reach, 0.0)
    hi = np.maximum(un + reach, lo)
    with np.errstate(divide='ignore', invalid='ignore'):
        at = np.column_stack([-np.einsum('kjd,kd->kj', g, uperp) / c,
                              np.sum(uperp * p, 1) / np.sum(p * p, 1)])
        rate = np.column_stack([np.abs(c) / gn, np.linalg.norm(p, axis=1)])
        knots = np.column_stack([lo, un, hi, at, at - WINDOW / rate,
                                 at + WINDOW / rate])
    knots = np.sort(np.clip(np.nan_to_num(knots, nan=-1.0),
                            lo[:, None], hi[:, None]), axis=1)
    s, w, _, _ = _gl_rule(CONE_NODES)
    half = np.diff(knots, axis=1) / 2.0         # each piece's half length
    # slice j of piece i at t = knots_i + half_i (s_j + 1), weight half_i w_j
    live = (half[:, :, None] * w > 0.0).reshape(-1, half.shape[1] * CONE_NODES)
    out = np.empty(len(u))
    step = max(SLICE_RUN // live.shape[1], 1)   # whole items, SLICE_RUN slices
    for lo in range(0, len(u), step):
        run = slice(lo, lo + step)
        k, j = _nonzero_2d(live[run])       # slices of nonzero-length pieces
        kt, (i, j) = k + lo, np.divmod(j, CONE_NODES)
        ts = knots[kt, i] + half[kt, i] * (s + 1.0)[j]
        wt = half[kt, i] * w[j]
        del i, j
        mass = cone_mass_2d(uperp[kt] - ts[:, None] * p[kt], rays[..., 0],
                            rays[..., 1], amp[kt] - np.pi * (ts - un[kt]) ** 2,
                            cone[kt], cut)
        out[run] = np.bincount(k, mass * wt, minlength=len(out[run]))
    return out


def E3(space, c1, c2, c3, x):
    """Gaussian-averaged sgn(y,c1)sgn(y,c2)sgn(y,c3) over span(c1,c2,c3).
    A frame whose sign margins all reach FAST_MARGIN gets the exact sign
    product.  The slow path drifts far out along a wall: at x = (0, b, b,
    0.05) on diag(2, -2, -2, -2), the sum of all eight octants' signed
    cone_mass_3d masses is off the product of the three E1 by 9e-16 at b =
    10, 1e-11 at 1e6, 8e-9 at 1e9 and 7e-6 at 1e12 (from cone_mass_3d's 1-D
    set-up, not the slice masses); E3 itself, by 0.43 already at b = 10,
    because the octant screen (cone_dist2) drops octants with real mass."""
    return _E(space, (c1, c2, c3), x)


def _E(space, cs, x):
    a, m = NegativePlane(space, cs).frame
    return float(E_frames(a[None], (m @ np.asarray(x, dtype=float))[None])[0])


def E_frames(a, u):
    """E2 or E3 for V frames at once: functional rows a of shape (V, q, q)
    and centres u of shape (V, q) in orthonormal plane coordinates.  A frame
    whose margins all reach FAST_MARGIN gets its sign product (each wall's
    far side holds mass below e^{-CONE_CUT}); the others are one cone_sum
    over their 2^q cones with reference signs 0, which weights each cone by
    its sign product.  A signed sum past 1 + SUM_SLACK raises."""
    margins = np.einsum('vij,vj->vi', a, u) / np.linalg.norm(a, axis=2)
    out = functools.reduce(np.multiply, np.sign(margins).T)
    slow = np.flatnonzero(functools.reduce(np.minimum, np.abs(margins).T)
                          < FAST_MARGIN)
    if not slow.size:
        return out
    total = cone_sum(a, slow, u[slow], np.zeros((slow.size, a.shape[1])))
    if np.any(np.abs(total) > 1.0 + SUM_SLACK):
        raise QuadratureError(f"cone-mass sum {total!r} is outside [-1, 1]")
    out[slow] = np.clip(total, -1.0, 1.0)
    return out


def cone_sum(a, f, u, s, amp=0.0, cut=CONE_CUT):
    """sum_c w_kc e^{amp_k} mass(cone c of frame a[f_k], centre u_k) per
    item k: cone c is {y : sigma_c a y >= 0}, sigma_c = _SIGNS[c, 3-q:], for
    frames a of shape (F, q, q), q = 2 or 3, and its weight is the one rule
    w_kc = prod_i (sigma_ci - s_ki) of item k's reference signs s[k] (shape
    (K, q)), formed column by column: s = 0 gives E2/E3's sign products,
    the signs at a vertex the completion's rho weights.  The F 2^q cones
    are one table, row f 2^q + c, that the screen and the mass read by
    index.  The (k, c) of nonzero weight go to one cone-mass call at amp_k
    and cut, screened by amp_k - pi dist^2 >= -cut (cone_mass_2d's own
    screen, cone_dist2's for solid cones); np.bincount adds each item's
    terms in cone order."""
    q = a.shape[1]
    sig = _SIGNS[:2 ** q, 3 - q:]
    weight = functools.reduce(np.multiply, (sig[:, i] - s[:, i, None]
                                            for i in range(q)))
    k, c = _nonzero_2d(weight)
    weight = weight[k, c]
    amp = np.broadcast_to(np.asarray(amp, dtype=float), (len(u),))[k]
    rays = (np.linalg.inv(a)[:, None] * sig[:, None, :]).reshape(-1, q, q)
    cone = f[k] * 2 ** q + c
    if q == 2:
        mass = cone_mass_2d(np.take(u, k, 0), rays[:, :, 0], rays[:, :, 1],
                            amp, cone, cut)
    else:
        b = (sig[:, :, None] * a[:, None]).reshape(-1, q, q)
        keep = amp - math.pi * cone_dist2(u[k], b, rays, cone) >= -cut
        k, weight = k[keep], weight[keep]
        mass = cone_mass_3d(u[k], b, amp[keep], cone[keep], cut)
    return np.bincount(k, weight * mass, minlength=len(u))
