import math
import random
from fractions import Fraction
from itertools import product

import numpy as np
import pytest
from scipy.integrate import quad, dblquad
from scipy.special import erf, erfcx

from ngontheta.qspace import QuadraticSpace
from ngontheta.errfn import (E1, E2, E3, CONE_CUT, FAST_MARGIN,
                             QuadratureError, cone_mass_2d, cone_mass_3d,
                             cone_dist2, cone_sum, _orthant, _radial_1,
                             j0_value)
from ngontheta.lattice import AMP_CAP, RHO_LOG_TOL

SQPI = math.sqrt(math.pi)
SP3 = QuadraticSpace([[2, 0, 0], [0, -2, 0], [0, 0, -2]])
SP4 = QuadraticSpace([[2, 0, 0, 0], [0, -2, 0, 0],
                      [0, 0, -2, 0], [0, 0, 0, -2]])
E2_ = (0, 1, 0)
E3_ = (0, 0, 1)


def _e1_oracle(space, c, x):
    """1-D Gaussian quadrature: average of sgn(t - u) against exp(-pi(t-u)^2)
    with u the coordinate of pr_z(x) on the line through c."""
    cf = np.array([float(v) for v in c])
    u = float(np.array(x) @ space.gram_f @ cf) / \
        math.sqrt(-float(space.inner(c, c)))
    g = lambda t: math.exp(-math.pi * (t - u) ** 2)
    neg, _ = quad(g, -30 + u, 0.0, epsabs=1e-14, limit=300)
    pos, _ = quad(g, 0.0, 30 + u, epsabs=1e-14, limit=300)
    return pos - neg


def test_e1_closed_form_vs_quadrature():
    rng = random.Random(5)
    for _ in range(20):
        c = (0, rng.randint(-4, 4), rng.randint(-4, 4))
        if SP3.inner(c, c) >= 0:
            continue
        x = np.array([rng.uniform(-3, 3) for _ in range(3)])
        assert abs(E1(SP3, c, x) - _e1_oracle(SP3, c, x)) < 1e-10


def _e2_oracle(space, c1, c2, x):
    """Semi-analytic quadrature of the sign product against the plane
    Gaussian: rotate so the first sign wall is an axis, do the inner
    integral in closed form (erf), and quadrature the outer variable."""
    from ngontheta.qspace import NegativePlane
    pl = NegativePlane(space, (c1, c2))
    u = pl.coords(np.asarray(x, dtype=float))
    a = np.array([pl.ortho @ space.gram_f @
                  np.array([float(v) for v in c]) for c in (c1, c2)])
    cth, sth = a[0] / np.linalg.norm(a[0])
    rot = np.array([[cth, sth], [-sth, cth]])
    up = rot @ u
    a1p = a[1] @ rot.T
    assert abs(a1p[1]) > 1e-12  # generic case only

    def f(t1):
        t2star = -a1p[0] * t1 / a1p[1]
        inner = math.copysign(1.0, a1p[1]) * \
            math.erf(math.sqrt(math.pi) * (up[1] - t2star))
        return math.copysign(1.0, t1) * \
            math.exp(-math.pi * (t1 - up[0]) ** 2) * inner

    lo, hi = up[0] - 8, up[0] + 8
    total = 0.0
    for seg in ((lo, 0.0), (0.0, hi)) if lo < 0 < hi else ((lo, hi),):
        val, _ = quad(f, seg[0], seg[1], epsabs=1e-12, limit=300)
        total += val
    return total


def test_e2_vs_direct_quadrature():
    cases = [
        ((0, -1, 0), (0, 0, 1), (0.3, 0.7, -0.4)),
        ((0, 2, 1), (0, -1, 1), (1.5, 0.2, 0.6)),
        ((0, 1, 0), (0, 1, 3), (0.0, 0.0, 0.0)),
        ((0, 1, 2), (0, 3, -1), (2.0, -1.0, 0.5)),
    ]
    for c1, c2, x in cases:
        got = E2(SP3, c1, c2, np.array(x))
        want = _e2_oracle(SP3, c1, c2, x)
        assert abs(got - want) < 1e-8, (c1, c2, x, got, want)


def test_e2_factorization_orthogonal():
    # (c1, c2) = 0: the Gaussian factors, E2 = E1 * E1
    rng = random.Random(11)
    for _ in range(12):
        x = np.array([rng.uniform(-2, 2) for _ in range(3)])
        got = E2(SP3, E2_, E3_, x)
        want = E1(SP3, E2_, x) * E1(SP3, E3_, x)
        assert abs(got - want) < 1e-8


def test_e3_factorization_orthogonal():
    rng = random.Random(13)
    c1, c2, c3 = (0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1)
    for _ in range(6):
        x = np.array([rng.uniform(-1.5, 1.5) for _ in range(4)])
        got = E3(SP4, c1, c2, c3, x)
        want = E1(SP4, c1, x) * E1(SP4, c2, x) * E1(SP4, c3, x)
        assert abs(got - want) < 1e-8
    # partially orthogonal: c3 orthogonal to span(c1, c2)
    c1, c2 = (0, 1, 1, 0), (0, -1, 2, 0)
    for _ in range(4):
        x = np.array([rng.uniform(-1.5, 1.5) for _ in range(4)])
        got = E3(SP4, c1, c2, c3, x)
        want = E2(SP4, c1, c2, x) * E1(SP4, c3, x)
        assert abs(got - want) < 1e-8


def test_projection_invariance():
    # E_q depends only on pr_z(x): adding a vector orthogonal to the plane
    # changes nothing
    rng = random.Random(17)
    c1, c2 = (0, 1, 1), (0, -1, 1)
    for _ in range(8):
        x = np.array([rng.uniform(-2, 2) for _ in range(3)])
        y = x + np.array([rng.uniform(-3, 3), 0.0, 0.0])  # e1 is orthogonal
        assert abs(E2(SP3, c1, c2, x) - E2(SP3, c1, c2, y)) < 1e-8
        assert abs(E1(SP3, c1, x) - E1(SP3, c1, y)) < 1e-8


def test_positive_scaling_invariance():
    rng = random.Random(19)
    c1, c2 = (0, 2, 1), (0, -1, 3)
    for _ in range(8):
        x = np.array([rng.uniform(-2, 2) for _ in range(3)])
        a = E2(SP3, c1, c2, x)
        b = E2(SP3, tuple(3 * v for v in c1),
               tuple(Fraction(1, 7) * v for v in c2), x)
        assert abs(a - b) < 1e-8


def test_limit_is_sign_product():
    # at margin 4 the deviation from the sign product is below 1e-6
    c1, c2 = (0, 1, 0), (0, 1, 3)
    from ngontheta.qspace import NegativePlane
    pl = NegativePlane(SP3, (c1, c2))
    rng = random.Random(23)
    for _ in range(10):
        x = np.array([rng.uniform(-1, 1) for _ in range(3)])
        a = np.array([pl.ortho @ SP3.gram_f @
                      np.array([float(v) for v in c]) for c in (c1, c2)])
        u = pl.coords(x)
        margins = np.abs(a @ u) / np.linalg.norm(a, axis=1)
        if np.min(margins) < 1e-3:
            continue
        r = 4.0 / np.min(margins)
        s = np.sign(a @ u)
        assert abs(E2(SP3, c1, c2, r * x) - s[0] * s[1]) < 1e-6
    c = (0, 1, -2)
    x = np.array([0.4, 0.8, 0.3])
    und = SP3.unit_negative(c)
    m = abs(float(x @ SP3.gram_f @ und))
    assert abs(E1(SP3, c, x * (4.0 / m)) -
               math.copysign(1.0, x @ SP3.gram_f @ und)) < 1e-6


def test_e2_proportional_vectors():
    x = np.array([0.3, 0.1, 0.2])
    assert E2(SP3, (0, 1, 0), (0, 3, 0), x) == 1.0
    assert E2(SP3, (0, 1, 0), (0, -2, 0), x) == -1.0


def test_values_in_unit_interval():
    rng = random.Random(29)
    for _ in range(10):
        c1, c2 = (0, 1, 1), (0, -2, 1)
        x = np.array([rng.uniform(-4, 4) for _ in range(3)])
        v = E2(SP3, c1, c2, x)
        assert -1.0 <= v <= 1.0


def _radial_2(e0, b):
    """exp(e0) * exp(pi b^2) * I2(b) with I2(b) = integral_0^inf r^2
    exp(-pi (r-b)^2) dr (the integrand of the solid-cone oracle below)."""
    if b >= 0:
        return math.exp(e0) * (1.0 / (4.0 * math.pi) + b * b / 2.0) \
            * (1.0 + erf(SQPI * b)) \
            + math.exp(e0 - math.pi * b * b) * b / (2.0 * math.pi)
    return math.exp(e0 - math.pi * b * b) * \
        (b / (2.0 * math.pi)
         + (1.0 / (4.0 * math.pi) + b * b / 2.0) * erfcx(SQPI * (-b)))


def test_radial_integrals_against_quadrature():
    for b in (-3.0, -0.4, 0.0, 0.7, 2.5):
        i1, _ = quad(lambda r: r * math.exp(-math.pi * (r - b) ** 2), 0, 40,
                     epsabs=1e-14)
        i2, _ = quad(lambda r: r * r * math.exp(-math.pi * (r - b) ** 2), 0,
                     40, epsabs=1e-14)
        assert abs(_radial_1(0.0, b) - i1) < 1e-12
        assert abs(_radial_2(0.0, b) - i2) < 1e-12


def _radial_1_scalar(e0, b):
    """Scalar form of errfn._radial_1 (the integrand of the oracle below)."""
    sq = math.sqrt(math.pi)
    if b >= 0:
        return math.exp(e0) * b * (1.0 + erf(sq * b)) / 2.0 \
            + math.exp(e0 - math.pi * b * b) / (2.0 * math.pi)
    return math.exp(e0 - math.pi * b * b) * \
        (1.0 / (2.0 * math.pi) - (-b / 2.0) * erfcx(sq * (-b)))


def _cone_mass_2d_quad(u, g1, g2, amp=0.0, epsabs=1e-13):
    """Adaptive-quadrature cone mass: the reference for the fixed-node
    batched cone_mass_2d."""
    th1 = math.atan2(g1[1], g1[0])
    th2 = math.atan2(g2[1], g2[0])
    dth = (th2 - th1) % (2.0 * math.pi)
    if dth > math.pi:
        th1, th2 = th2, th1
        dth = 2.0 * math.pi - dth
    uu = float(u[0] * u[0] + u[1] * u[1])

    def f(th):
        b = u[0] * math.cos(th) + u[1] * math.sin(th)
        return _radial_1_scalar(amp - math.pi * (uu - b * b), b)

    val, _ = quad(f, th1, th1 + dth, epsabs=epsabs, epsrel=1e-11, limit=200)
    return val


def test_cone_mass_batched_vs_quadrature():
    # tail-heavy grid: amp up to the kernel's cap, centers out to where the
    # rho screen still admits a cone, openings across (0.01, pi - 0.01);
    # only cones that pass the screen are compared
    rng = np.random.default_rng(1606)
    k = 3000
    amp = rng.uniform(0.0, AMP_CAP, k)
    r = np.sqrt(rng.uniform(0.0, (AMP_CAP - RHO_LOG_TOL) / math.pi, k))
    ang = rng.uniform(-math.pi, math.pi, k)
    u = r[:, None] * np.stack([np.cos(ang), np.sin(ang)], axis=1)
    th = rng.uniform(-math.pi, math.pi, k)
    th2 = th + rng.uniform(0.01, math.pi - 0.01, k)
    g1 = rng.uniform(0.2, 5.0, (k, 1)) * np.stack([np.cos(th), np.sin(th)], 1)
    g2 = np.stack([np.cos(th2), np.sin(th2)], axis=1)
    swap = rng.random(k) < 0.5
    g1, g2 = np.where(swap[:, None], g2, g1), np.where(swap[:, None], g1, g2)
    rays = np.stack([g1, g2], axis=2)
    keep = amp - math.pi * cone_dist2(u, np.linalg.inv(rays), rays) \
        >= RHO_LOG_TOL
    assert keep.sum() >= 2000
    u, g1, g2, amp = u[keep], g1[keep], g2[keep], amp[keep]
    got = cone_mass_2d(u, g1, g2, amp=amp)
    for i in range(len(u)):
        want = _cone_mass_2d_quad(u[i], g1[i], g2[i], amp=amp[i])
        assert abs(got[i] - want) <= 1e-12 * max(1.0, abs(want)), \
            (u[i], g1[i], g2[i], amp[i], got[i], want)
    # a single cone gives the same value as its row of the batch
    assert cone_mass_2d(u[7], g1[7], g2[7], amp=amp[7]) == got[7]


def test_cone_mass_full_plane():
    # four quadrant cones tile the plane: masses sum to 1
    u = np.array([0.3, -0.2])
    gens = [np.array([1.0, 0.0]), np.array([0.0, 1.0])]
    total = 0.0
    for s1 in (1, -1):
        for s2 in (1, -1):
            total += cone_mass_2d(u, s1 * gens[0], s2 * gens[1])
    assert abs(total - 1.0) < 1e-10


def test_cone_dist2():
    eye = np.eye(2)
    assert cone_dist2(np.array([0.5, 0.5]), eye, eye) == 0.0
    assert abs(cone_dist2(np.array([-1.0, 0.0]), eye, eye) - 1.0) < 1e-9
    assert abs(cone_dist2(np.array([-1.0, -1.0]), eye, eye) - 2.0) < 1e-9
    # the cone {y : b y >= 0} with rays (1, 0) and (1, 1); batched rows
    b = np.array([[0.0, 1.0], [1.0, -1.0]])
    rays = np.array([[1.0, 1.0], [1.0, 0.0]])       # columns (1, 1), (1, 0)
    assert np.allclose(b @ rays, eye)
    u = np.array([[2.0, 1.0], [0.0, 1.0], [1.0, -1.0], [-1.0, -1.0]])
    want = [0.0, 0.5, 1.0, 2.0]
    got = cone_dist2(u, np.broadcast_to(b, (4, 2, 2)),
                     np.broadcast_to(rays, (4, 2, 2)))
    assert np.allclose(got, want, atol=1e-12)
    assert [cone_dist2(x, b, rays) for x in u] == list(got)


def test_e1_continuity_across_wall():
    c = (0, 1, 0)
    left = E1(SP3, c, np.array([0.0, -1e-9, 0.5]))
    right = E1(SP3, c, np.array([0.0, 1e-9, 0.5]))
    assert abs(left - right) < 1e-6


def test_j0_smooth_kernel(funddom):
    # j0 = (1/4) sum (E2 - sign product) vanishes far from all walls
    val = j0_value(funddom.space, funddom, (20, 1, 21))
    assert abs(val) < 1e-6
    with pytest.raises(ValueError):
        j0_value(funddom.space, funddom, (1, 0, 1))  # on a wall


def _spherical_triangle_mass(u, v, epsabs, epsrel):
    """Gaussian mass of the solid cone spanned by the unit columns of v, by
    adaptive quadrature over the spherical triangle."""
    jac = abs(float(np.linalg.det(v)))
    uu = float(np.dot(u, u))

    def f(t, s):
        y = (1.0 - s - t) * v[:, 0] + s * v[:, 1] + t * v[:, 2]
        r = math.sqrt(float(np.dot(y, y)))
        b = float(np.dot(u, y)) / r
        return _radial_2(-math.pi * (uu - b * b), b) * jac / (r ** 3)

    val, _ = dblquad(f, 0.0, 1.0, 0.0, lambda s: 1.0 - s,
                     epsabs=epsabs, epsrel=epsrel)
    return val


def _cone_mass_3d_dblquad(u, gens, epsabs=1e-13, epsrel=1e-12):
    """Adaptive-quadrature mass of the solid cone spanned by the columns of
    gens: the reference for the fixed-node cone_mass_3d.  When u lies inside
    the cone the triangle is split at u's direction, where the integrand
    peaks; unsplit, the adaptive rule misses a narrow peak (0.606 for a cone
    of mass 1 at |u| = 7.9)."""
    v = np.asarray(gens, dtype=float)
    v = v / np.linalg.norm(v, axis=0)
    if np.all(np.linalg.solve(v, u) > 0):
        w = u / np.linalg.norm(u)
        return sum(_spherical_triangle_mass(
            u, np.column_stack([w, v[:, k], v[:, (k + 1) % 3]]), epsabs,
            epsrel) for k in range(3))
    return _spherical_triangle_mass(u, v, epsabs, epsrel)


def _random_walls(rng):
    """Functional rows of a random solid cone; half the time the third wall
    is tilted towards the span of the first two (ill-conditioned)."""
    b = rng.normal(size=(3, 3))
    if rng.random() < 0.5:
        b[2] = b[2] * 10 ** rng.uniform(-2, 0) \
            + b[0] * rng.normal() + b[1] * rng.normal()
    return b * rng.uniform(0.3, 3.0, (3, 1))


def _unit_det(b):
    return abs(np.linalg.det(b / np.linalg.norm(b, axis=-1, keepdims=True)))


def test_cone_mass_3d_vs_quadrature():
    # cones that pass E3's screen: unit-normal |det| down to 0.02, centres
    # near the apex, outside, and deep inside with the smallest margin just
    # under FAST_MARGIN (|u| <= 12, past which the oracle itself drifts)
    rng = np.random.default_rng(2004)
    us, bs = [], []
    while len(us) < 100:
        b = _random_walls(rng)
        nb = b / np.linalg.norm(b, axis=1, keepdims=True)
        if _unit_det(b) < 0.02:
            continue
        if rng.random() < 0.25:
            u = np.linalg.inv(nb).sum(axis=1)
            u *= rng.uniform(5.0, FAST_MARGIN) / np.min(np.abs(nb @ u))
        else:
            u = rng.normal(size=3)
            u *= rng.uniform(0.0, 4.0) / np.linalg.norm(u)
        if (np.linalg.norm(u) > 12.0 or np.min(np.abs(nb @ u)) >= FAST_MARGIN
                or math.pi * cone_dist2(u, b, np.linalg.inv(b)) > 42.0):
            continue
        us.append(u)
        bs.append(b)
    u, b = np.array(us), np.array(bs)
    margins = np.min(np.abs(np.einsum('kij,kj->ki', b, u))
                     / np.linalg.norm(b, axis=2), axis=1)
    assert min(_unit_det(x) for x in b) < 0.025 and margins.max() > 7.0
    got = cone_mass_3d(u, b)
    for i in range(len(u)):
        want = _cone_mass_3d_dblquad(u[i], np.linalg.inv(b[i]))
        assert abs(got[i] - want) <= 1e-11, (u[i], b[i], got[i], want)
    # a single cone gives the same value as its row of the batch
    assert cone_mass_3d(u[7], b[7])[0] == got[7]


def test_cone_mass_3d_octants_partition_space():
    # no oracle: the 8 sign octants of any nondegenerate walls tile R^3, so
    # their masses, unscreened, sum to 1
    rng = np.random.default_rng(1609)
    bs = []
    while len(bs) < 1000:
        b = _random_walls(rng)
        if _unit_det(b) >= 0.02:
            bs.append(b)
    u = rng.normal(size=(1000, 3))
    u *= rng.uniform(0.0, 4.0, (1000, 1)) / np.linalg.norm(u, axis=1,
                                                           keepdims=True)
    sig = np.array(list(product((1.0, -1.0), repeat=3)))
    b = sig[:, :, None] * np.array(bs)[:, None]
    mass = cone_mass_3d(np.repeat(u, 8, axis=0), b.reshape(-1, 3, 3))
    assert np.max(np.abs(mass.reshape(1000, 8).sum(axis=1) - 1.0)) <= 1e-12


def test_orthant_matches_planar_cone_mass():
    # the closed-form slice mass of cone_mass_3d against cone_mass_2d's
    # quadrature on the same planar cones {g y >= 0}: margins of the centre
    # in units of 1/sqrt(2 pi), correlation of the unit wall normals
    rng = np.random.default_rng(1956)
    g = rng.normal(size=(2000, 2, 2))
    u = rng.normal(size=(2000, 2)) * rng.uniform(0.0, 3.0, (2000, 1))
    gn = np.linalg.norm(g, axis=2)
    rho = np.sum(g[:, 0] * g[:, 1], axis=1) / (gn[:, 0] * gn[:, 1])
    h = np.einsum('kjd,kd->kj', g, u) * math.sqrt(2.0 * math.pi) / gn
    rays = np.linalg.inv(g)
    want = cone_mass_2d(u, rays[:, :, 0], rays[:, :, 1])
    # the bound is the quadrature's: at |rho| -> 1 it errs by ~1e-14
    assert np.max(np.abs(_orthant(h[:, 0], h[:, 1], rho) - want)) <= 1e-13
    # at an exact zero margin: the closed form at the apex, and continuity
    # across the wall elsewhere
    r, k = rng.uniform(-0.99, 0.99, 100), rng.normal(size=100)
    zero = np.zeros(100)
    assert np.max(np.abs(_orthant(zero, zero, r)
                         - (0.25 + np.arcsin(r) / (2.0 * math.pi)))) <= 1e-15
    for a, b in ((zero, k), (k, zero)):
        near = _orthant(a + 1e-9 * (a == 0), b + 1e-9 * (b == 0), r)
        assert np.max(np.abs(_orthant(a, b, r) - near)) <= 1e-8


def test_cone_mass_3d_degenerate():
    b = np.array([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [1.0, 1.0, 0.0]])
    with pytest.raises(QuadratureError):
        cone_mass_3d(np.zeros(3), b)


def test_signed_sum_outside_unit_interval_raises(monkeypatch):
    # E2 and E3 clamp a signed mass sum that overshoots [-1, 1] by rounding
    # and raise on one that overshoots by more.  At x = 0 every octant is
    # evaluated, the all-positive one first; it alone gets a mass.
    import ngontheta.errfn as errfn
    c1, c2, c3 = (0, 1, 0, 0), (0, 1, 1, 0), (0, 0, 1, 1)
    x = np.zeros(4)
    for excess, ok in ((1e-10, True), (1e-6, False)):
        def first(u, *walls, **amp):
            out = np.zeros(len(u))
            out[0] = 1.0 + excess
            return out
        monkeypatch.setattr(errfn, "cone_mass_3d", first)
        monkeypatch.setattr(errfn, "cone_mass_2d", first)
        if ok:
            assert E3(SP4, c1, c2, c3, x) == 1.0
            assert E2(SP4, c1, c2, x) == 1.0
        else:
            with pytest.raises(QuadratureError):
                E3(SP4, c1, c2, c3, x)
            with pytest.raises(QuadratureError):
                E2(SP4, c1, c2, x)


def _cone_sum_loop(a, f, u, weight, amp, cut):
    """cone_sum one (item, cone) at a time, with the sign rows of the cones
    built here: the same screen, then cone_mass_2d or cone_mass_3d on one
    cone; also each screened term's margin amp - pi d^2 + cut."""
    q = a.shape[1]
    sig = np.array(list(product((1.0, -1.0), repeat=q)))
    total, margins = np.zeros(len(u)), []
    for k in range(len(u)):
        for c in range(2 ** q):
            if weight[k, c] == 0:
                continue
            b = sig[c][:, None] * a[f[k]]
            rays = np.linalg.inv(a[f[k]]) * sig[c]
            margin = amp[k] - math.pi * cone_dist2(u[k], b, rays) + cut
            margins.append(margin)
            if margin < 0:
                continue
            if q == 2:
                mass = cone_mass_2d(u[k], rays[:, 0], rays[:, 1], amp=amp[k])
            else:
                mass = cone_mass_3d(u[k], b)[0]
            total[k] += weight[k, c] * mass
    return total, np.array(margins)


def _sum_weights(rng, k, q):
    """Small integer weights, a third of the rows one-hot (so that a term
    near the screen is the whole sum) and some rows all zero."""
    weight = rng.integers(-4, 5, (k, 2 ** q)).astype(float)
    one = rng.random(k) < 1 / 3
    weight[one] = 0.0
    weight[one, rng.integers(0, 2 ** q, one.sum())] = 1.0
    weight[rng.random(k) < 0.05] = 0.0
    return weight


def test_cone_sum_matches_cone_loop():
    # planar frames with amp up to the kernel's cap and the rho screen, and
    # solid frames with E3's screen; centres out to where terms straddle
    # the cut, so that screened-out and kept terms both occur near it
    rng = np.random.default_rng(1305)

    def centres(amp, cut, q):
        # half at random, half at a distance where the cone opposite u
        # (nearest point: the apex) straddles the cut
        k = len(amp)
        d2 = np.where(rng.random(k) < 0.5,
                      rng.uniform(0.0, amp + cut + 10.0),
                      np.maximum(amp + cut + rng.uniform(-2.0, 2.0, k), 0))
        u = rng.normal(size=(k, q))
        return u * np.sqrt(d2 / math.pi)[:, None] \
            / np.linalg.norm(u, axis=1, keepdims=True)

    a2 = rng.normal(size=(6, 2, 2))
    f = rng.integers(0, 6, 400)
    amp = rng.uniform(0.0, AMP_CAP, 400)
    u = centres(amp, -RHO_LOG_TOL, 2)
    a3 = np.array([_random_walls(rng) for _ in range(5)])
    f3 = rng.integers(0, 5, 150)
    u3 = centres(np.zeros(150), CONE_CUT, 3)
    for a, f, u, amp, cut in ((a2, f, u, amp, -RHO_LOG_TOL),
                              (a3, f3, u3, np.zeros(150), CONE_CUT)):
        weight = _sum_weights(rng, len(u), a.shape[1])
        want, margins = _cone_sum_loop(a, f, u, weight, amp, cut)
        got = cone_sum(a, f, u, weight, amp, cut)
        assert np.array_equal(got, want)
        assert np.all(got[~weight.any(axis=1)] == 0.0)
        # terms on both sides of the cut, within 1 of it
        assert np.sum((margins > -1) & (margins < 0)) >= 3
        assert np.sum((margins >= 0) & (margins < 1)) >= 3
    # amp is optional and the cut defaults to E2/E3's
    weight = _sum_weights(rng, 150, 3)
    assert np.array_equal(cone_sum(a3, f3, u3, weight),
                          _cone_sum_loop(a3, f3, u3, weight, np.zeros(150),
                                         CONE_CUT)[0])


def test_cone_sum_empty_pool():
    for q in (2, 3):
        a = np.eye(q)[None]
        got = cone_sum(a, np.zeros(0, dtype=int), np.zeros((0, q)),
                       np.zeros((0, 2 ** q)))
        assert got.shape == (0,)
        zero = cone_sum(a, np.zeros(2, dtype=int), np.zeros((2, q)),
                        np.zeros((2, 2 ** q)))
        assert np.array_equal(zero, np.zeros(2))
