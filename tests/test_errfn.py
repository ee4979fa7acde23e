import functools
import math
import random
from fractions import Fraction
from itertools import product

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from scipy.integrate import quad, dblquad
from scipy.special import erf, erfc, erfcx

from ngontheta.qspace import QuadraticSpace
from ngontheta.errfn import (E1, E2, E3, CONE_CUT, CONE_NODES, FAR_NODES,
                             FAST_MARGIN, QuadratureError, cone_mass_2d,
                             cone_mass_3d, cone_dist2, cone_sum,
                             E_frames, _far_bound, _far_nodes)
from ngontheta.dodec import dodec_E_kernel
from ngontheta.lattice import AMP_CAP, RHO_LOG_TOL

from conftest import butterfly_ngon, j0_value, per_item

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
    u = pl.frame[1] @ np.asarray(x, dtype=float)
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


def test_e2_factorization_far_along_a_wall():
    # far out along one wall, with the other margin small, E2 = E1 * E1
    # holds to rounding: the slow path's masses come from the cross
    # products of u with the rays, not from angles times |u|
    for b in (10.0, 1e3, 1e6, 1e9, 1e12):
        for x in ((0, b, 0.05), (0, 0.05, b), (0, -b, 0.05), (0, b, -0.05),
                  (1.0, -0.05, -b), (0, b, 1e-3)):
            x = np.array(x, dtype=float)
            got = E2(SP3, E2_, E3_, x)
            want = E1(SP3, E2_, x) * E1(SP3, E3_, x)
            assert abs(got - want) < 1e-14, (x, got, want)


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


@pytest.mark.xfail(strict=True, reason="ROADMAP item 1")
def test_e3_equals_e1_cubed_on_orthogonal_frame():
    # an orthogonal frame factors the Gaussian: E3 = E1 E1 E1 to rounding
    # out to |x_i| = 2.9, where E3's octant screen (cone_dist2, the distance
    # to the nearest ray, not to the cone) drops octants of real mass
    c1, c2, c3 = (0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1)
    err = 0.0
    for x in np.random.default_rng(4602).uniform(-2.9, 2.9, (600, 4)):
        want = E1(SP4, c1, x) * E1(SP4, c2, x) * E1(SP4, c3, x)
        err = max(err, abs(E3(SP4, c1, c2, c3, x) - want))
    assert err <= 1e-13


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
        u = pl.frame[1] @ x
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
    # the shortcut needs negative vectors: a null pair and a positive pair
    # raise as E1 does
    for c1, c2 in (((1, 1, 0), (2, 2, 0)), ((1, 0, 0), (-3, 0, 0))):
        with pytest.raises(ValueError, match="requires a negative vector"):
            E2(SP3, c1, c2, x)


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


def _g(y):
    """The smooth part g(y) = 1/(2 pi) - (y/2) erfcx(sqrt(pi) y) of the
    planar radial integral."""
    return 1.0 / (2.0 * math.pi) - y / 2.0 * erfcx(SQPI * y)


def _gauss_term(r, a1, a2):
    """Quadrature of max(r cos a, 0) e^{-pi r^2 sin^2 a} over [a1, a2]."""
    pts = [p for p in (0.0, math.pi / 2.0) if a1 < p < a2]
    val, _ = quad(lambda a: max(r * math.cos(a), 0.0)
                  * math.exp(-math.pi * (r * math.sin(a)) ** 2), a1, a2,
                  points=pts or None, epsabs=1e-15, epsrel=1e-13, limit=200)
    return val


def test_radial_integrals_against_quadrature():
    # I1(b) = integral_0^inf r exp(-pi (r-b)^2) dr = max(b, 0) + e^{-pi b^2}
    # g(|b|), the split that cone_mass_2d integrates over the angle
    for b in (-3.0, -0.4, 0.0, 0.7, 2.5):
        i1, _ = quad(lambda r: r * math.exp(-math.pi * (r - b) ** 2), 0, 40,
                     epsabs=1e-14)
        i2, _ = quad(lambda r: r * r * math.exp(-math.pi * (r - b) ** 2), 0,
                     40, epsabs=1e-14)
        assert abs(max(b, 0.0) + math.exp(-math.pi * b * b) * _g(abs(b))
                   - i1) < 1e-12
        assert abs(_radial_2(0.0, b) - i2) < 1e-12
    # over the angle a from u, on one side of u, the first term integrates
    # to (erfc x_1 - erfc x_2)/2, x = sqrt(pi) r |sin a| up to the
    # perpendicular and sqrt(pi) r past it
    for r, a1, a2 in ((0.3, 0.1, 1.2), (2.0, 0.0, 0.4), (2.0, 0.3, 2.5),
                      (6.0, 0.05, 0.06), (1.5, 1.7, 3.0), (3.0, 0.0, 1.6)):
        x1, x2 = (SQPI * (r * abs(math.sin(a)) if math.cos(a) >= 0 else r)
                  for a in (a1, a2))
        assert abs((erfc(x1) - erfc(x2)) / 2.0 - _gauss_term(r, a1, a2)) \
            < 1e-14
    # cone_mass_2d is the two terms: at |u| = 30 the second underflows, so
    # it gives the closed form alone; at |u| = 2 each term counts
    for r in (30.0, 2.0):
        for a1, a2 in ((-0.01, 0.02), (0.01, 0.05), (-0.3, 1.8),
                       (1.7, 2.9), (-2.9, -1.2)):
            got = per_item(cone_mass_2d, np.array([r, 0.0]), _ray(a1),
                           _ray(a2), 0.0)
            near = sum(_gauss_term(r, lo, hi) for lo, hi in
                       ((max(a1, 0.0), max(a2, 0.0)),
                        (max(-a2, 0.0), max(-a1, 0.0))) if lo < hi)
            smooth, _ = quad(lambda a: _g(r * abs(math.cos(a))), a1, a2,
                             points=[p for p in (-math.pi / 2, math.pi / 2)
                                     if a1 < p < a2] or None, epsabs=1e-15)
            want = near + math.exp(-math.pi * r * r) * smooth
            assert abs(got - want) < 1e-14, (r, a1, a2, got, want)


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
    keep = amp - math.pi * per_item(cone_dist2, u, np.linalg.inv(rays),
                                    rays) >= RHO_LOG_TOL
    assert keep.sum() >= 2000
    u, g1, g2, amp = u[keep], g1[keep], g2[keep], amp[keep]
    got = per_item(cone_mass_2d, u, g1, g2, amp)
    for i in range(len(u)):
        want = _cone_mass_2d_quad(u[i], g1[i], g2[i], amp=amp[i])
        assert abs(got[i] - want) <= 1e-12 * max(1.0, abs(want)), \
            (u[i], g1[i], g2[i], amp[i], got[i], want)
    # a single cone gives the same value as its row of the batch
    assert per_item(cone_mass_2d, u[7], g1[7], g2[7], amp[7]) == got[7]


def test_far_side_cone_mass_vs_quadrature():
    # the rho terms' cones with both signs nonzero: the quadrant of a random
    # frame opposite the centre u, amp across [0, AMP_CAP], centres out to
    # where the rho screen still admits the cone.  Most of them lie on the
    # far side of u (b <= 0 all along) and take no closed-form term; a batch
    # that mixes them with cones holding u gives each cone's single value
    rng = np.random.default_rng(1705)
    k = 400
    a = rng.normal(size=(k, 2, 2))
    amp = rng.uniform(0.0, AMP_CAP, k)
    u = rng.normal(size=(k, 2))
    u *= np.sqrt(rng.uniform(0.0, (amp - RHO_LOG_TOL) / math.pi)
                 / np.sum(u * u, axis=1))[:, None]
    sig = -np.sign(np.einsum('kij,kj->ki', a, u))
    rays = np.linalg.inv(a) * sig[:, None, :]
    keep = amp - math.pi * per_item(cone_dist2, u, sig[:, :, None] * a,
                                    rays) >= RHO_LOG_TOL
    assert keep.sum() >= 300
    u, g1, g2, amp = u[keep], rays[keep, :, 0], rays[keep, :, 1], amp[keep]

    def near(g1, g2):
        # the items with a closed-form term: a ray within a right angle of u
        # (the cone holds -u, so it reaches u's side only through a ray)
        return np.count_nonzero((np.sum(u * g1, 1) > 0)
                                | (np.sum(u * g2, 1) > 0))

    got = per_item(cone_mass_2d, u, g1, g2, amp)
    # an obtuse quadrant can have a ray within a right angle of u
    assert 0 < near(g1, g2) < len(u)
    for i in range(len(u)):
        want = _cone_mass_2d_quad(u[i], g1[i], g2[i], amp=amp[i])
        assert abs(got[i] - want) <= 1e-12 * max(1.0, abs(want)), \
            (u[i], g1[i], g2[i], amp[i], got[i], want)
    # mixed with the quadrants that hold u (u's side), bit for bit
    mix = np.arange(len(u)) % 2 == 0
    g1 = np.where(mix[:, None], -g1, g1)
    g2 = np.where(mix[:, None], -g2, g2)
    assert np.count_nonzero(mix) <= near(g1, g2) < len(u)
    got = per_item(cone_mass_2d, u, g1, g2, amp)
    assert [per_item(cone_mass_2d, u[i], g1[i], g2[i], amp[i])
            for i in range(len(u))] == list(got)


@functools.cache
def _gauss_mp(m, dps):
    """The m-node Gauss-Legendre rule in dps-digit arithmetic: numpy's
    nodes refined by Newton's method on P_m, P_m' = m (x P_m - P_{m-1}) /
    (x^2 - 1), and weights 2 / ((1 - x^2) P_m'(x)^2)."""
    import mpmath
    with mpmath.workdps(dps):
        rule = []
        for x0 in np.polynomial.legendre.leggauss(m)[0]:
            x = mpmath.mpf(x0)
            for _ in range(int(math.log2(dps)) + 2):
                p = mpmath.legendre(m, x)
                dp = m * (x * p - mpmath.legendre(m - 1, x)) / (x * x - 1)
                x -= p / dp
            rule.append((x, 2 / ((1 - x * x) * dp * dp)))
        return rule


@st.composite
def _far_pieces(draw):
    """A far piece (d0, step, r, amp, cut): d0 in [0, pi/2) (0 itself one
    draw in four), step in (0, pi/2 - d0], amp up to AMP_CAP, and r either
    up to 1e3 or up to 1.1 times the radius where the weight e^{amp - pi
    r^2} falls to e^{-cut}, at either cut (E2's and the completion's)."""
    cut = draw(st.sampled_from([CONE_CUT, -RHO_LOG_TOL]))
    angle = st.floats(0.0, math.pi / 2, exclude_max=True)
    d0 = draw(st.one_of(st.just(0.0), angle, angle, angle))
    step = draw(st.floats(1e-6, 1.0)) * (math.pi / 2 - d0)
    amp = draw(st.floats(0.0, AMP_CAP))
    r = draw(st.one_of(st.floats(0.0, 1e3), st.floats(0.0, 1.1).map(
        lambda f: f * math.sqrt((amp + cut) / math.pi))))
    return d0, step, r, amp, cut


@settings(max_examples=30, deadline=None)
@given(st.lists(_far_pieces(), min_size=1, max_size=3))
@example([(0.0, math.pi / 2, 14.0, AMP_CAP, -RHO_LOG_TOL),
          (0.0, 1.2, 13.5, AMP_CAP, -RHO_LOG_TOL),
          (0.0, 0.3, 6.0, 120.0, CONE_CUT), (0.7, 0.8, 2.0, 0.0, CONE_CUT),
          (1.5, 0.0177, 8.78, 274.0, CONE_CUT),
          (math.pi / 2 - 2e-16, 2e-16, 932.25, 0.0, CONE_CUT),
          (0.0, math.pi / 2, 1e3, AMP_CAP, -RHO_LOG_TOL),
          (0.0, math.pi / 2, 5e-324, 0.0, CONE_CUT)])
def test_far_rule_bound_against_mpmath(pieces):
    # each far piece step int_{-1}^{1} t f(z) ds / (2 sqrt(pi)), z = sqrt(pi)
    # r sin(d0 + step t^2), f(z) = 1/sqrt(pi) - z erfcx(z), at weight
    # e^{amp - pi r^2}: the exact m-node Gauss rule errs by no more than
    # _far_bound states, at every count of FAR_NODES; at the count
    # _far_nodes chooses, below CONE_NODES, the weighted error is at most
    # e^{-cut} (the whole piece if it chose 0).  The reference carries 30
    # digits past the weight's, so that e^{-cut} / weight is resolved, and
    # past the rs^4 that z e^{z^2} erfc(z) loses to cancellation.  A
    # cone holding just that piece (rays at pi/2 + d0 and pi/2 + d0 + step
    # from u = (r, 0)) gets that value from cone_mass_2d, within the chosen
    # rule's error and rounding, and in a batch of all the pieces' cones
    # the same bits
    import mpmath
    d0, step, r, amp, cut = (np.array(v) for v in zip(*pieces))
    rs = SQPI * r
    lk, lr = _far_bound(d0, step, rs)
    nodes = _far_nodes(d0, step, rs, amp - math.pi * r * r, cut)
    for i in range(len(pieces)):
        lw = amp[i] - math.pi * r[i] ** 2
        dps = 30 + 4 * math.ceil(math.log10(1.0 + rs[i])) \
            + (max(0, math.ceil((lw + cut[i]) / math.log(10)))
               if nodes[i] < CONE_NODES else 0)
        with mpmath.workdps(dps):
            def h(s):
                t = (s + 1) / 2
                z = rs[i] * mpmath.sin(d0[i] + step[i] * t * t)
                return t * (1 / mpmath.sqrt(mpmath.pi)
                            - z * mpmath.exp(z * z) * mpmath.erfc(z))
            scale = step[i] / (2 * mpmath.sqrt(mpmath.pi))
            exact = mpmath.quad(h, [-1, 1]) * scale
            weight = mpmath.exp(lw)
            err = {0: abs(exact)}
            for m in FAR_NODES:
                err[m] = abs(sum(w * h(x) for x, w in _gauss_mp(m, dps))
                             * scale - exact)
                # the reference's digits are the floor
                bound = mpmath.exp(lk[i] - 2 * m * lr[i]) * (1 + 1e-9)
                assert err[m] <= bound + mpmath.mpf(10) ** (5 - dps) * scale, \
                    (pieces[i], m)
            if nodes[i] < CONE_NODES:
                assert err[nodes[i]] * weight <= math.exp(-cut[i]), \
                    (pieces[i], nodes[i])
            want = float(weight * exact)
            # the rays' angles and the rule's sum round at about 1e-16, and
            # e^{amp - pi r^2} at about (1 + amp) 1e-16 relative
            slack = float(weight * (err[nodes[i]] + 1e-15 * (1 + amp[i])))
        got = per_item(functools.partial(cone_mass_2d, cut=cut[i]),
                       np.array([r[i], 0.0]), _ray(math.pi / 2 + d0[i]),
                       _ray(math.pi / 2 + d0[i] + step[i]), amp[i])
        assert abs(got - want) <= math.exp(-cut[i]) + slack, \
            (pieces[i], got, want)
    # a batch of the pieces' cones, at the first piece's cut, against each
    # cone alone
    u = np.stack([r, np.zeros(len(r))], axis=1)
    g1 = np.stack([_ray(math.pi / 2 + a) for a in d0])
    g2 = np.stack([_ray(math.pi / 2 + a + b) for a, b in zip(d0, step)])
    mass = functools.partial(cone_mass_2d, cut=cut[0])
    got = per_item(mass, u, g1, g2, amp)
    assert [per_item(mass, u[i], g1[i], g2[i], amp[i])
            for i in range(len(u))] == list(got)


def _ray(t):
    return np.array([math.cos(t), math.sin(t)])


def test_near_side_cone_mass_vs_quadrature():
    # cones on u's side, where the closed-form term carries the mass
    rng = np.random.default_rng(3501)
    rmax = math.sqrt((AMP_CAP - RHO_LOG_TOL) / math.pi)
    k = 600
    r = rng.uniform(0.0, rmax, k)
    amp = rng.uniform(0.0, AMP_CAP, k)
    phi = rng.uniform(-math.pi, math.pi, k)
    u = r[:, None] * np.stack([np.cos(phi), np.sin(phi)], axis=1)
    # u inside the cone, out to the rho screen's reach, amp up to AMP_CAP
    lo = phi - rng.uniform(0.0, 1.5, k)
    hi = np.minimum(np.maximum(lo + rng.uniform(0.01, math.pi - 0.01, k),
                               phi + 1e-3), lo + math.pi - 0.01)
    cases = [(u, np.stack([np.cos(lo), np.sin(lo)], axis=1),
              np.stack([np.cos(hi), np.sin(hi)], axis=1), amp)]
    # thin cones off u: openings 1e-3 to 1e-2 within a right angle of u
    lo = phi + rng.uniform(-1.5, 1.5, k)
    hi = lo + rng.uniform(1e-3, 1e-2, k)
    cases.append((u, np.stack([np.cos(lo), np.sin(lo)], axis=1),
                  np.stack([np.cos(hi), np.sin(hi)], axis=1), amp))
    # a ray exactly perpendicular to u = (r, 0), on either side of it
    up, down = np.array([0.0, 1.0]), np.array([0.0, -1.0])
    pairs = [(_ray(-1.0), up), (up, _ray(2.5)), (down, _ray(0.3)),
             (_ray(-2.0), down)]
    r = np.linspace(0.0, rmax, 20)
    cases.append((np.stack([np.repeat(r, 4), np.zeros(80)], axis=1),
                  np.array([g1 for g1, _ in pairs] * 20),
                  np.array([g2 for _, g2 in pairs] * 20),
                  rng.uniform(0.0, AMP_CAP, 80)))
    for u, g1, g2, amp in cases:
        got = per_item(cone_mass_2d, u, g1, g2, amp)
        for i in range(len(u)):
            want = _cone_mass_2d_quad(u[i], g1[i], g2[i], amp=amp[i])
            assert abs(got[i] - want) <= 1e-12 * max(1.0, abs(want)), \
                (u[i], g1[i], g2[i], amp[i], got[i], want)
        # a single cone gives the same value as its row of the batch
        i = rng.integers(len(u))
        assert per_item(cone_mass_2d, u[i], g1[i], g2[i], amp[i]) == got[i]
    # u on a ray at |u| = 1e9, or off it by delta along the normal f: b
    # ties at the ray and at u's direction, and the cone holds the half
    # plane's mass on f's side whichever side of the ray u lies (its far
    # ray is 1e9 sin(pi/4) away).  Axis rays keep u x e exact
    for e in np.eye(2)[[0, 1, 0, 1]] * [[1.0], [1.0], [-1.0], [-1.0]]:
        f = np.array([-e[1], e[0]])
        for delta in (-1e-8, -2e-9, 0.0, 2e-9, 1e-8):
            u = 1e9 * e + delta * f
            assert np.hypot(*u) == 1e9
            for g1, g2, side in ((e, f, 1.0), (e, e + f, 1.0), (e, f - e, 1.0),
                                 (-f, e, -1.0), (e - f, e, -1.0),
                                 (-e - f, e, -1.0)):
                want = (1.0 + side * erf(SQPI * delta)) / 2.0
                assert abs(per_item(cone_mass_2d, u, g1, g2, 0.0) - want) \
                    < 1e-15
                assert per_item(cone_mass_2d, u, -g1, -g2, 0.0) == 0.0
    # u = 0: e^{amp} times the opening over 2 pi
    for amp in (0.0, 300.0, AMP_CAP):
        for dth in (1e-3, 1.0, 3.0):
            got = per_item(cone_mass_2d, np.zeros(2), _ray(0.4),
                           _ray(0.4 + dth), amp)
            assert abs(got / math.exp(amp) - dth / (2.0 * math.pi)) < 1e-15


def test_cone_mass_full_plane():
    # four quadrant cones tile the plane: masses sum to 1
    u = np.array([0.3, -0.2])
    gens = [np.array([1.0, 0.0]), np.array([0.0, 1.0])]
    total = 0.0
    for s1 in (1, -1):
        for s2 in (1, -1):
            total += per_item(cone_mass_2d, u, s1 * gens[0], s2 * gens[1],
                              0.0)
    assert abs(total - 1.0) < 1e-10


def test_cone_dist2():
    eye = np.eye(2)
    assert per_item(cone_dist2, np.array([0.5, 0.5]), eye, eye) == 0.0
    assert abs(per_item(cone_dist2, np.array([-1.0, 0.0]), eye, eye) - 1.0) \
        < 1e-9
    assert abs(per_item(cone_dist2, np.array([-1.0, -1.0]), eye, eye)
               - 2.0) < 1e-9
    # the cone {y : b y >= 0} with rays (1, 0) and (1, 1); batched rows
    b = np.array([[0.0, 1.0], [1.0, -1.0]])
    rays = np.array([[1.0, 1.0], [1.0, 0.0]])       # columns (1, 1), (1, 0)
    assert np.allclose(b @ rays, eye)
    u = np.array([[2.0, 1.0], [0.0, 1.0], [1.0, -1.0], [-1.0, -1.0]])
    want = [0.0, 0.5, 1.0, 2.0]
    got = per_item(cone_dist2, u, np.broadcast_to(b, (4, 2, 2)),
                   np.broadcast_to(rays, (4, 2, 2)))
    assert np.allclose(got, want, atol=1e-12)
    assert [per_item(cone_dist2, x, b, rays) for x in u] == list(got)


def test_planar_screen_matches_cone_dist2(monkeypatch):
    # cone_mass_2d screens its items from the b, q and |u| its mass reads:
    # u's squared distance d^2 to the cone is 0 inside, else that to the
    # nearer ray, q^2 where b >= 0 and |u|^2 where b < 0.  On random planar
    # cones, with u anywhere, inside, on a ray and beyond the apex, it is
    # cone_dist2's up to rounding: an item with amp - pi d^2 above -cut by
    # 1e-12 (pi d^2 + cut), d^2 by cone_dist2, gets a mass, one as far
    # below none, and an item inside gets a mass at amp = -cut.  Every far
    # piece takes CONE_NODES here, so that an item that passes has a
    # positive mass.
    import ngontheta.errfn as errfn
    monkeypatch.setattr(errfn, "_far_nodes",
                        lambda d0, *args: np.full(len(d0), CONE_NODES))
    rng = np.random.default_rng(4301)
    k = 2000
    th = rng.uniform(-math.pi, math.pi, k)
    th2 = th + rng.uniform(0.05, math.pi - 0.05, k) * rng.choice([-1, 1], k)
    g1 = rng.uniform(0.2, 5.0, (k, 1)) * np.stack([np.cos(th), np.sin(th)], 1)
    g2 = rng.uniform(0.2, 5.0, (k, 1)) * np.stack([np.cos(th2), np.sin(th2)],
                                                  1)
    e1, e2 = (g / np.linalg.norm(g, axis=1, keepdims=True) for g in (g1, g2))
    s1, s2 = rng.uniform(0.01, 4.0, (2, k, 1))
    kind = np.arange(k) % 4
    u = np.select([kind[:, None] == j for j in range(4)], [
        rng.normal(size=(k, 2)) * rng.uniform(0.0, 4.0, (k, 1)),
        s1 * e1 + s2 * e2,                                  # inside
        np.where(rng.random((k, 1)) < 0.5, s1 * g1, s2 * g2),   # on a ray
        -(s1 * e1 + s2 * e2)])                              # beyond the apex
    rays = np.stack([g1, g2], axis=2)
    d2 = per_item(cone_dist2, u, np.linalg.inv(rays), rays)
    assert np.all(d2[kind == 1] == 0) and np.all(d2[kind == 2] == 0)
    assert np.sum(d2 > 1.0) > k // 4
    cut, cone = 38.0, np.arange(k)
    slack = 1e-12 * (math.pi * d2 + cut)
    for amp, passes in ((math.pi * d2 - cut + slack, True),
                        (math.pi * d2 - cut - slack, False)):
        mass = cone_mass_2d(u, g1, g2, amp, cone, cut)
        assert np.all((mass > 0) == passes)
    inside = kind == 1
    assert np.all(cone_mass_2d(u[inside], g1[inside], g2[inside],
                               np.full(np.sum(inside), -cut),
                               cone[:np.sum(inside)], cut) > 0)


def _cone_dist2_axis(u, b, rays):
    """cone_dist2 with its inside test reduced by np.all over the last
    axis, as it was before that reduction ran column by column."""
    inside = np.all(np.einsum('...ij,...j->...i', b, u) >= -1e-12, axis=-1)
    rays = rays / np.linalg.norm(rays, axis=-2, keepdims=True)
    proj = np.maximum(np.einsum('...i,...ij->...j', u, rays), 0.0)
    d = u[..., :, None] - proj[..., None, :] * rays
    dd = np.einsum('...ij,...ij->...j', d, d)
    best = functools.reduce(np.minimum, np.moveaxis(dd, -1, 0),
                            np.einsum('...i,...i->...', u, u))
    return np.where(inside, 0.0, best)[()]


def test_column_reductions_match_axis_reductions(monkeypatch):
    # cone_dist2's inside test and E_frames' sign product and least margin
    # reduce column by column, bit for bit as numpy's reductions over the
    # short last axis did: integer frames give exact zero margins, tiny
    # centres margins about the -1e-12 tolerance, and cone_dist2 on one
    # item the same values
    from ngontheta import errfn
    rng = np.random.default_rng(32)
    slow_seen = []

    def no_cone_sum(a, f, u, weight):
        slow_seen.append(f)
        return np.zeros(len(f))

    monkeypatch.setattr(errfn, "cone_sum", no_cone_sum)
    for q in (2, 3):
        a = rng.integers(-2, 3, (3000, q, q)).astype(float)
        a = a[np.abs(np.linalg.det(a)) > 0.5]
        u = rng.integers(-2, 3, (len(a), q)) \
            * rng.choice([1e-13, 1e-3, 1.0, 100.0], (len(a), 1))
        want = _cone_dist2_axis(u, a, np.linalg.inv(a))
        got = per_item(cone_dist2, u, a, np.linalg.inv(a))
        assert np.array_equal(got, want) and 0 < np.sum(want == 0) < len(a)
        assert [per_item(cone_dist2, x, b, r) for x, b, r in zip(
            u[:200], a[:200], np.linalg.inv(a[:200]))] == list(want[:200])
        margins = np.einsum('vij,vj->vi', a, u) / np.linalg.norm(a, axis=2)
        slow = np.flatnonzero(np.min(np.abs(margins), axis=1) < FAST_MARGIN)
        signs = np.prod(np.sign(margins), axis=1)
        signs[slow] = 0.0
        slow_seen.clear()
        got = E_frames(a, u)
        assert len(slow_seen) == 1 and np.array_equal(slow_seen[0], slow)
        assert np.array_equal(got, signs)
        assert np.array_equal(np.signbit(got), np.signbit(signs))
        assert 0 < len(slow) < len(a) and np.any(signs == -1)


def test_fast_margin_frames_match_cone_sum():
    # a frame whose sign margins all reach FAST_MARGIN, the distance at
    # which a Gaussian factor falls below e^{-CONE_CUT}, gets its sign
    # product, within 1e-15 of the cone_sum it skips for E2 and within the
    # solid-cone quadrature's rounding (up to 2.2e-15 on these frames) for
    # E3; a quarter of the frames sit just past FAST_MARGIN on their
    # smallest margin
    assert FAST_MARGIN == math.sqrt(CONE_CUT / math.pi)
    rng = np.random.default_rng(3701)
    for q, n in ((2, 400), (3, 120)):
        a = np.array([rng.normal(size=(2, 2)) if q == 2 else
                      _random_walls(rng) for _ in range(n)])
        nb = a / np.linalg.norm(a, axis=2, keepdims=True)
        m = FAST_MARGIN * (1.0 + 1e-9 + rng.uniform(0.0, 0.5, (n, q)))
        m[rng.random(n) < 0.25, 0] = FAST_MARGIN * (1.0 + 1e-9)
        m *= rng.choice([-1.0, 1.0], (n, q))
        u = np.linalg.solve(nb, m[:, :, None])[:, :, 0]
        fast = E_frames(a, u)
        assert np.array_equal(fast, np.prod(np.sign(m), axis=1))
        slow = cone_sum(a, np.arange(n), u, np.zeros((n, q)))
        assert np.max(np.abs(slow - fast)) <= (1e-15 if q == 2 else 4e-15)


def test_e1_continuity_across_wall():
    c = (0, 1, 0)
    left = E1(SP3, c, np.array([0.0, -1e-9, 0.5]))
    right = E1(SP3, c, np.array([0.0, 1e-9, 0.5]))
    assert abs(left - right) < 1e-6


def test_j0_smooth_kernel(funddom):
    # j0 = (1/4) sum (E2 - sign product) vanishes far from all walls
    val = j0_value(funddom, (20, 1, 21))
    assert abs(val) < 1e-6
    with pytest.raises(ValueError):
        j0_value(funddom, (1, 0, 1))  # on a wall


def _j0_per_edge(space, ngon, x):
    """Oracle: j0 as one E2 call (one NegativePlane) per vertex plane."""
    cs, n, s = ngon.cs, ngon.n, ngon.signs(x)
    xf = np.array([float(v) for v in x]) * math.sqrt(2.0)
    return sum(E2(space, cs[j], cs[(j + 1) % n], xf) - s[j] * s[(j + 1) % n]
               for j in range(n)) / 4.0


def test_j0_value_matches_per_edge_sum_bitwise(funddom):
    # one E_frames batch on ngon.frames gives the per-edge sum bit for bit,
    # on points near the walls (cone-mass path) and far from them
    rng = random.Random(20)
    slow = 0
    for ngon in (funddom, butterfly_ngon()):
        checked = 0
        while checked < 25:
            x = tuple(Fraction(rng.randint(-12, 12), rng.randint(1, 4))
                      for _ in range(3))
            if 0 in ngon.signs(x):
                continue
            checked += 1
            want = _j0_per_edge(ngon.space, ngon, x)
            assert j0_value(ngon, x) == want, x
            slow += want != 0.0
    assert slow >= 10


def _vigneras_residual(f, ginv, x, h):
    """x . grad f - tr(G^{-1} hess f) / (4 pi) at x, by central differences
    of step h in the coordinates of x."""
    e = np.eye(len(x)) * h
    f0 = f(x)
    grad = np.array([f(x + d) - f(x - d) for d in e]) / (2 * h)
    hess = np.empty((len(x), len(x)))
    for i in range(len(x)):
        hess[i, i] = (f(x + e[i]) - 2 * f0 + f(x - e[i])) / (h * h)
        for j in range(i):
            hess[i, j] = hess[j, i] = (
                f(x + e[i] + e[j]) - f(x + e[i] - e[j])
                - f(x - e[i] + e[j]) + f(x - e[i] - e[j])) / (4 * h * h)
    return x @ grad - np.sum(ginv * hess) / (4 * math.pi)


def _max_vigneras_residual(kernel, scale, ginv, xs, h=2e-3):
    """The largest |residual| of f(x) = kernel(scale x) over the points xs,
    Richardson-extrapolated from steps h and h/2."""
    def f(x):
        return kernel(scale * x)
    return max(abs(4 * _vigneras_residual(f, ginv, x, h / 2)
                   - _vigneras_residual(f, ginv, x, h)) / 3 for x in xs)


@pytest.mark.parametrize("kernel", [
    "E1 wall", "E2 vertex sum",
    pytest.param("E dodecahedron", marks=pytest.mark.xfail(
        strict=True, reason="ROADMAP item 1"))])
def test_vigneras_local_modularity(funddom, seed_dodec, kernel):
    # the smooth kernels f(x) = K(sqrt(2) x) solve Vigneras' equation
    # x . grad f - tr(G^{-1} hess f) / (4 pi) = 0, which makes their theta
    # series modular of weight m/2: E1 of one funddom wall, and the sum of
    # E2 over the vertex planes (the smooth form of the completion kernel,
    # tied to it by test_completion_kernel_matches_e2_sum), at 20 seeded
    # points in [-1, 1]^3.  Without the sqrt(2) the residual is of order
    # 1.  The seed dodecahedron's E at 3 seeded points in [-1, 1]^4 and one
    # on the segment to the dodec_E ref (3/2, 3/2, -4/3, -3), 1e-5 from
    # where E3's octant screen drops an octant of mass 0.046; its E is near
    # constant off the walls, so that without the sqrt(2) the residual is
    # of order 1e-4 there.
    xs = np.random.default_rng(7).uniform(-1.0, 1.0, (20, 3))
    floor = 0.1
    if kernel == "E1 wall":
        space = funddom.space

        def k(y):
            return E1(space, funddom.cs[0], y)
    elif kernel == "E2 vertex sum":
        space = funddom.space
        a, m, _ = funddom.frames

        def k(y):
            return float(np.sum(E_frames(a, m @ y)))
    else:
        space = seed_dodec.space
        xs = np.vstack([np.random.default_rng(7).uniform(-1.0, 1.0, (3, 4)),
                        0.8011 * np.array([1.5, 1.5, -4.0 / 3.0, -3.0])])
        floor = 1e-4

        def k(y):
            return dodec_E_kernel(seed_dodec, y / math.sqrt(2.0))
    ginv = np.linalg.inv(space.gram_f)
    assert _max_vigneras_residual(k, math.sqrt(2.0), ginv, xs) <= 1e-8
    assert _max_vigneras_residual(k, 1.0, ginv, xs) > floor


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
    # near the apex, outside, and deep inside with the smallest margin
    # between 5 and 7.5 (|u| <= 12, past which the oracle itself drifts)
    rng = np.random.default_rng(2004)
    us, bs = [], []
    while len(us) < 100:
        b = _random_walls(rng)
        nb = b / np.linalg.norm(b, axis=1, keepdims=True)
        if _unit_det(b) < 0.02:
            continue
        if rng.random() < 0.25:
            u = np.linalg.inv(nb).sum(axis=1)
            u *= rng.uniform(5.0, 7.5) / np.min(np.abs(nb @ u))
        else:
            u = rng.normal(size=3)
            u *= rng.uniform(0.0, 4.0) / np.linalg.norm(u)
        if (np.linalg.norm(u) > 12.0 or np.min(np.abs(nb @ u)) >= 7.5
                or math.pi * per_item(cone_dist2, u, b, np.linalg.inv(b))
                > 42.0):
            continue
        us.append(u)
        bs.append(b)
    u, b = np.array(us), np.array(bs)
    margins = np.min(np.abs(np.einsum('kij,kj->ki', b, u))
                     / np.linalg.norm(b, axis=2), axis=1)
    assert min(_unit_det(x) for x in b) < 0.025 and margins.max() > 7.0
    got = per_item(cone_mass_3d, u, b, 0.0)
    for i in range(len(u)):
        want = _cone_mass_3d_dblquad(u[i], np.linalg.inv(b[i]))
        assert abs(got[i] - want) <= 1e-11, (u[i], b[i], got[i], want)
    # a single cone gives the same value as its row of the batch
    assert per_item(cone_mass_3d, u[7], b[7], 0.0) == got[7]


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
    mass = per_item(cone_mass_3d, np.repeat(u, 8, axis=0), b.reshape(-1, 3, 3),
                    0.0)
    assert np.max(np.abs(mass.reshape(1000, 8).sum(axis=1) - 1.0)) <= 1e-12


def test_cone_mass_3d_exact_octants():
    # the sign octants of the identity frame have product masses, prod_i
    # erfc(-sqrt(pi) sigma_i u_i)/2: each slice of cone_mass_3d is weighed
    # by cone_mass_2d at its final weight, so small masses keep their
    # relative accuracy too
    rng = np.random.default_rng(4401)
    u = rng.uniform(-2.5, 2.5, (3000, 3))
    sig = np.array(list(product((1.0, -1.0), repeat=3)))
    cone = rng.integers(0, 8, 3000)
    got = cone_mass_3d(u, sig[:, :, None] * np.eye(3), np.zeros(3000), cone)
    want = np.prod(erfc(-SQPI * sig[cone] * u), axis=1) / 8.0
    err = np.abs(got - want)
    assert np.max(err) <= 4e-15
    small = want > 1e-12
    assert want.min() < 1e-9 and np.max(err[small] / want[small]) <= 1e-7


@pytest.mark.parametrize("budget", [1, 2000, 20000])
def test_cone_mass_3d_slice_runs_change_no_bit(monkeypatch, budget):
    # cone_mass_3d passes the slices of whole items to cone_mass_2d, at most
    # SLICE_RUN a call (one item a call when an item holds more): under a
    # small budget the masses of identity-frame octants and random solid
    # cones equal those of one run bit for bit
    import ngontheta.errfn as errfn
    rng = np.random.default_rng(4501)
    sig = np.array(list(product((1.0, -1.0), repeat=3)))
    b = np.concatenate([sig[:, :, None] * np.eye(3),
                        [_random_walls(rng) for _ in range(8)]])
    cone = rng.integers(0, len(b), 300)
    u = rng.uniform(-2.5, 2.5, (300, 3))
    slices = []
    mass_2d = errfn.cone_mass_2d

    def counted(*args, **kwargs):
        slices.append(len(args[0]))
        return mass_2d(*args, **kwargs)

    monkeypatch.setattr(errfn, "cone_mass_2d", counted)
    want = cone_mass_3d(u, b, np.zeros(300), cone)
    assert len(slices) == 1 and slices[0] <= errfn.SLICE_RUN
    one_run = slices.pop()
    monkeypatch.setattr(errfn, "SLICE_RUN", budget)
    got = cone_mass_3d(u, b, np.zeros(300), cone)
    assert got.tobytes() == want.tobytes()
    assert len(slices) > 1 and sum(slices) == one_run
    # an item holds at most 11 pieces of CONE_NODES slices
    assert max(slices) <= max(budget, 11 * errfn.CONE_NODES)


def _one_cone_mass_2d_batch(run):
    """The arguments of the one cone_mass_2d call that run() makes."""
    import ngontheta.errfn as errfn
    calls = []
    mass_2d = errfn.cone_mass_2d

    def recorded(*args):
        calls.append(args)
        return mass_2d(*args)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(errfn, "cone_mass_2d", recorded)
        run()
    assert len(calls) == 1
    return calls[0]


@pytest.mark.parametrize("case", ["modularity", "dodec_E"])
def test_cone_mass_2d_is_batch_independent(case, funddom, seed_dodec):
    # cone_mass_2d frees each temporary after its last read, and an item's
    # mass still depends on its own row alone: on the rho batch of a
    # modularity check and on the slice batch of dodec_E_kernel, the whole
    # batch equals, bit for bit, its two uneven parts computed apart
    from ngontheta.lattice import modularity_check
    from ngontheta.sig12 import SPACE_ABC
    run = {"modularity": lambda: modularity_check(SPACE_ABC, funddom,
                                                  complex(0.3, 1.0), 6),
           "dodec_E": lambda: dodec_E_kernel(seed_dodec, (
               Fraction(-1, 4), Fraction(1, 2), Fraction(-1, 2), 0))}[case]
    u, g1, g2, amp, cone, cut = args = _one_cone_mass_2d_batch(run)
    want = cone_mass_2d(*args)
    assert len(u) > 5000 and np.count_nonzero(want) > 4000
    cut_at = len(u) // 3
    got = np.concatenate([cone_mass_2d(u[part], g1, g2, amp[part],
                                       cone[part], cut)
                          for part in (slice(cut_at), slice(cut_at, None))])
    assert got.tobytes() == want.tobytes()


def test_e3_block_frame_factorizes():
    # c3 orthogonal to span(c1, c2): E3 = E2 E1 to rounding, the 2 + 1
    # block frame's slices being planar cones of cone_mass_2d themselves
    rng = np.random.default_rng(4402)
    c1, c2, c3 = (0, 1, 1, 0), (0, -1, 2, 0), (0, 0, 0, 1)
    for x in rng.uniform(-1.5, 1.5, (20, 4)):
        got = E3(SP4, c1, c2, c3, x)
        want = E2(SP4, c1, c2, x) * E1(SP4, c3, x)
        assert abs(got - want) <= 1e-13, (x, got, want)


def test_planar_cone_mass_at_apex_and_across_a_wall():
    # the slice mass of a solid cone is cone_mass_2d's, and a slice centre
    # can sit on a wall or at the apex: at the apex the mass is the
    # opening / 2 pi, 1/4 + arcsin(rho)/(2 pi) for the cone {g y >= 0}
    # whose unit wall normals have correlation rho
    rng = np.random.default_rng(1956)
    g = rng.normal(size=(200, 2, 2))
    gn = np.linalg.norm(g, axis=2)
    rho = np.sum(g[:, 0] * g[:, 1], axis=1) / (gn[:, 0] * gn[:, 1])
    rays = np.linalg.inv(g)
    at_apex = per_item(cone_mass_2d, np.zeros((200, 2)), rays[:, :, 0],
                       rays[:, :, 1], 0.0)
    assert np.max(np.abs(at_apex - (0.25 + np.arcsin(rho) / (2.0 * math.pi)))) \
        <= 1e-15
    # a centre exactly on the line of the ray (1, 0), either side of the
    # apex, and 1e-9 off it on either side: the mass is continuous there
    axis = np.broadcast_to([1.0, 0.0], (200, 2))
    other = rng.normal(size=(200, 2))
    k = rng.normal(size=200) * 2.0
    on = np.column_stack([k, np.zeros(200)])
    for g1, g2 in ((axis, other), (other, axis)):
        mass = per_item(cone_mass_2d, on, g1, g2, 0.0)
        for off in (1e-9, -1e-9):
            near = per_item(cone_mass_2d, on + [0.0, off], g1, g2, 0.0)
            assert np.max(np.abs(mass - near)) <= 1e-8


def test_cone_mass_3d_degenerate():
    b = np.array([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [1.0, 1.0, 0.0]])
    with pytest.raises(QuadratureError):
        per_item(cone_mass_3d, np.zeros(3), b, 0.0)


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


def _cone_sum_loop(a, f, u, s, amp, cut):
    """cone_sum one (item, cone) at a time, with the sign rows of the cones
    and their weights prod_i (sigma_i - s_i) built here: the same screen,
    then cone_mass_2d or cone_mass_3d on one cone at the same amp and cut
    (which sizes the far rule and a solid cone's slices); also each
    screened term's margin amp - pi d^2 + cut."""
    q = a.shape[1]
    sig = np.array(list(product((1.0, -1.0), repeat=q)))
    total, margins = np.zeros(len(u)), []
    for k in range(len(u)):
        for c in range(2 ** q):
            weight = np.prod(sig[c] - s[k])
            if weight == 0:
                continue
            b = sig[c][:, None] * a[f[k]]
            rays = np.linalg.inv(a[f[k]]) * sig[c]
            margin = amp[k] - math.pi * per_item(cone_dist2, u[k], b, rays) \
                + cut
            margins.append(margin)
            if margin < 0:
                continue
            if q == 2:
                mass = per_item(functools.partial(cone_mass_2d, cut=cut),
                                u[k], rays[:, 0], rays[:, 1], amp[k])
            else:
                mass = per_item(functools.partial(cone_mass_3d, cut=cut),
                                u[k], b, amp[k])
            total[k] += weight * mass
    return total, np.array(margins)


def _sum_signs(rng, k, q):
    """Reference signs s in {-1, 0, 1}^q, a third of the rows with no zero
    sign, where one cone alone has nonzero weight (so that a term near the
    screen is the whole sum), and the weights prod_i (sigma_i - s_i) of
    each item's 2^q cones."""
    s = rng.integers(-1, 2, (k, q)).astype(float)
    one = rng.random(k) < 1 / 3
    s[one] = rng.choice([-1.0, 1.0], (one.sum(), q))
    sig = np.array(list(product((1.0, -1.0), repeat=q)))
    return s, np.prod(sig[None] - s[:, None], axis=2)


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
        q = a.shape[1]
        s, weight = _sum_signs(rng, len(u), q)
        # weights 0, +-1, +-2, +-4 and, for solid cones, +-8 all occur
        assert set(weight.ravel()) == {0.0} | {
            t * 2.0 ** i for t in (-1, 1) for i in range(q + 1)}
        want, margins = _cone_sum_loop(a, f, u, s, amp, cut)
        got = cone_sum(a, f, u, s, amp, cut)
        assert np.array_equal(got, want)
        # terms on both sides of the cut, within 1 of it
        assert np.sum((margins > -1) & (margins < 0)) >= 3
        assert np.sum((margins >= 0) & (margins < 1)) >= 3
    # amp is optional and the cut defaults to E2/E3's
    s, _ = _sum_signs(rng, 150, 3)
    assert np.array_equal(cone_sum(a3, f3, u3, s),
                          _cone_sum_loop(a3, f3, u3, s, np.zeros(150),
                                         CONE_CUT)[0])


def test_cone_sum_weighs_solid_cones_at_amp_and_cut(monkeypatch):
    # solid cones take amp and cut as planar cones do: at amp = -3 and 2 a
    # sum is e^{amp} times its amp-0 sum up to e^{-cut}, centres lying
    # within sqrt(39/pi) of the apex so that cone_dist2's screen keeps
    # every cone at each amp; and cone_sum's cut reaches the cone_mass_2d
    # calls that weigh the slices
    import ngontheta.errfn as errfn
    rng = np.random.default_rng(4601)
    a = []
    while len(a) < 5:
        b = _random_walls(rng)
        if _unit_det(b) >= 0.02:
            a.append(b)
    a, f = np.array(a), rng.integers(0, 5, 200)
    u = rng.normal(size=(200, 3))
    u *= rng.uniform(0.0, 3.5, (200, 1)) / np.linalg.norm(u, axis=1,
                                                          keepdims=True)
    s, _ = _sum_signs(rng, 200, 3)
    base = cone_sum(a, f, u, s)
    for amp in (-3.0, 2.0):
        want = math.exp(amp) * base
        got = cone_sum(a, f, u, s, np.full(200, amp))
        assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))
    cuts = []
    mass_2d = errfn.cone_mass_2d

    def recorded(u, g1, g2, amp, cone, cut=CONE_CUT):
        cuts.append(cut)
        return mass_2d(u, g1, g2, amp, cone, cut)

    monkeypatch.setattr(errfn, "cone_mass_2d", recorded)
    got = cone_sum(a, f, u, s, 0.0, 38.0)
    assert len(cuts) >= 1 and set(cuts) == {38.0}
    assert np.max(np.abs(got - base)) <= 1e-13 * np.max(np.abs(base))


def _cone_table_items(rng, rays, k):
    """k item centres for a table of cones with ray columns rays (shape
    (C, q, q)): row cone[i] for item i, and u = 0, a point on a ray, a point
    inside, the point opposite it, or a random point, in turn."""
    q = rays.shape[1]
    cone = rng.integers(0, len(rays), k)
    mix = rng.uniform(0.1, 3.0, (k, q))
    inside = np.einsum('kij,kj->ki', rays[cone], mix)
    u = np.stack([np.zeros((k, q)), rays[cone, :, 0] * mix[:, :1], inside,
                  -inside, rng.normal(size=(k, q)) * 3.0])
    return cone, u[np.arange(k) % 5, np.arange(k)]


def test_cone_table_matches_per_item(monkeypatch):
    # a table of cones read by index gives, bit for bit, what the same cones
    # give in a table of one row per item, and one item in a one-item table
    # what its row of the batch gives: planar cones with rays in either
    # order (so that those given clockwise are flipped), zero and random
    # amp, near side and far; the far pieces go in blocks per node count,
    # every count of FAR_NODES takes pieces, and the CONE_NODES pieces are
    # more than one block of node arrays holds
    import ngontheta.errfn as errfn
    rng = np.random.default_rng(3401)
    blocks = errfn._blocks
    seen = []

    def counted(n, nodes):
        out = list(blocks(n, nodes))
        seen.append((nodes, len(out)))
        return out

    monkeypatch.setattr(errfn, "_blocks", counted)
    th = rng.uniform(-math.pi, math.pi, 12)
    th2 = th + rng.uniform(0.01, math.pi - 0.01, 12) * rng.choice([-1, 1], 12)
    g1 = rng.uniform(0.2, 5.0, (12, 1)) * np.stack([np.cos(th), np.sin(th)], 1)
    g2 = rng.uniform(0.2, 5.0, (12, 1)) * np.stack([np.cos(th2), np.sin(th2)], 1)
    flip = np.mod(th2 - th, 2.0 * math.pi) > math.pi
    assert 0 < np.sum(flip) < 12
    rays = np.stack([g1, g2], axis=2)
    cone, u = _cone_table_items(rng, rays, 3000)
    b = np.linalg.inv(rays)
    got = cone_dist2(u, b, rays, cone)
    assert np.array_equal(got, per_item(cone_dist2, u, b[cone], rays[cone]))
    assert np.sum(got == 0.0) > 1000 and np.sum(got > 0.0) > 1000
    for amp in (np.zeros(3000), rng.uniform(0.0, 300.0, 3000)):
        seen.clear()
        got = cone_mass_2d(u, g1, g2, amp, cone)
        assert [nodes for nodes, _ in seen] == list(FAR_NODES)
        assert all(n >= 1 for _, n in seen) and dict(seen)[CONE_NODES] > 1
        want = per_item(cone_mass_2d, u, g1[cone], g2[cone], amp)
        assert np.array_equal(got, want) and np.sum(got > 1e-3) > 1000
        assert [per_item(cone_mass_2d, u[i], g1[cone[i]], g2[cone[i]], amp[i])
                for i in range(10)] == list(got[:10])
    # solid cones: the screen and the mass
    b3 = np.array([_random_walls(rng) for _ in range(6)])
    r3 = np.linalg.inv(b3)
    cone, u = _cone_table_items(rng, r3, 400)
    got = cone_dist2(u, b3, r3, cone)
    assert np.array_equal(got, per_item(cone_dist2, u, b3[cone], r3[cone]))
    assert [per_item(cone_dist2, u[i], b3[cone[i]], r3[cone[i]])
            for i in range(10)] == list(got[:10])
    assert np.array_equal(cone_mass_3d(u[:60], b3, np.zeros(60), cone[:60]),
                          per_item(cone_mass_3d, u[:60], b3[cone[:60]], 0.0))


def test_cone_sum_sets_up_each_cone_once(monkeypatch):
    # one cone_sum call derives its planar cones' angles once per row of its
    # table of F 2^q cones, not once per item, and makes one cone-mass call,
    # which screens planar cones itself, after one cone_dist2 screen call
    # for solid cones; cone_mass_3d weighs the slices of its solid cones in
    # cone_mass_2d calls of at most SLICE_RUN slices (more than one here),
    # whose planar cones are the slice cones of the same F 8 table rows,
    # set up once per call; its sum is that of the item's cones in a table
    # of one row per item, unscreened, whose masses sum to 1
    import ngontheta.errfn as errfn
    rng = np.random.default_rng(3402)
    rows, calls, slices = [], [], []
    cone_rays = errfn._cone_rays

    def counted_rays(g1, g2):
        rows.append(len(g1))
        return cone_rays(g1, g2)

    def counting(name):
        fn = getattr(errfn, name)

        def counted(*args, **kwargs):
            calls.append(name)
            slices.append(len(args[0]))
            return fn(*args, **kwargs)
        return counted

    monkeypatch.setattr(errfn, "_cone_rays", counted_rays)
    for name in ("cone_dist2", "cone_mass_2d", "cone_mass_3d"):
        monkeypatch.setattr(errfn, name, counting(name))
    for q, frames, items in ((2, 5, 2000), (3, 4, 300)):
        a = rng.normal(size=(frames, q, q))
        f = rng.integers(0, frames, items)
        u = rng.normal(size=(items, q))
        s, weight = _sum_signs(rng, items, q)
        rows.clear()
        calls.clear()
        slices.clear()
        got = cone_sum(a, f, u, s)
        runs = calls.count("cone_mass_2d")
        assert calls == (["cone_mass_2d"] if q == 2 else
                         ["cone_dist2", "cone_mass_3d"] + ["cone_mass_2d"]
                         * runs)
        assert (runs > 1) == (q == 3) and rows == [frames * 2 ** q] * runs
        assert q == 2 or max(slices[2:]) <= errfn.SLICE_RUN
        sig = np.array(list(product((1.0, -1.0), repeat=q)))
        b = (sig[None, :, :, None] * a[f][:, None]).reshape(-1, q, q)
        rays, uu = np.linalg.inv(b), np.repeat(u, 2 ** q, axis=0)
        mass = (per_item(cone_mass_2d, uu, rays[:, :, 0], rays[:, :, 1], 0.0)
                if q == 2 else per_item(cone_mass_3d, uu, b, 0.0)
                ).reshape(items, 2 ** q)
        assert np.all(np.abs(np.sum(mass, axis=1) - 1.0) < 1e-9)
        assert np.all(np.abs(got - np.sum(weight * mass, axis=1)) < 1e-9)


def test_cone_sum_empty_pool():
    for q in (2, 3):
        a = np.eye(q)[None]
        got = cone_sum(a, np.zeros(0, dtype=int), np.zeros((0, q)),
                       np.zeros((0, q)))
        assert got.shape == (0,)
        # reference signs all +1 weigh only the all-negative cone, which the
        # screen drops for centres deep in the all-positive one
        zero = cone_sum(a, np.zeros(2, dtype=int), np.full((2, q), 10.0),
                        np.ones((2, q)))
        assert np.array_equal(zero, np.zeros(2))
