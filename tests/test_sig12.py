import math
import random
import time
from fractions import Fraction

import pytest

from ngontheta.ngon import epsilon, gamma_sample, w_invariant
from ngontheta.sig12 import (SPACE_ABC, SPACE_E, abc_to_e, e_to_abc, UHPoint,
                             point_to_vector, cross, alpha, turning_sign,
                             OrientationError, recover_ngon, one_sign_term,
                             cm_point, plane_to_point, winding_number,
                             fundamental_ngon, butterfly_ngon, reduced_forms,
                             truncated_class_series)

SQUARE = [(-1, 1), (1, 1), (Fraction(3, 2), 3), (Fraction(-3, 2), 3)]


def test_basis_change_round_trip():
    rng = random.Random(2)
    for _ in range(25):
        x = tuple(Fraction(rng.randint(-9, 9), rng.randint(1, 4))
                  for _ in range(3))
        assert e_to_abc(abc_to_e(x)) == x
        assert SPACE_ABC.inner(x, x) == SPACE_E.inner(abc_to_e(x), abc_to_e(x))


def test_point_to_vector_norm_one():
    for z in [(0, 1), (-1, 1), (Fraction(1, 2), Fraction(3, 4))]:
        x = point_to_vector(z)
        assert SPACE_ABC.q(x) == 1


def test_uhpoint_requires_positive_y():
    with pytest.raises(ValueError):
        UHPoint(0, 0)
    with pytest.raises(ValueError):
        UHPoint(1, -2)


def test_cross_is_orthogonal():
    rng = random.Random(4)
    for _ in range(25):
        u = tuple(Fraction(rng.randint(-9, 9), rng.randint(1, 3))
                  for _ in range(3))
        v = tuple(Fraction(rng.randint(-9, 9), rng.randint(1, 3))
                  for _ in range(3))
        w = cross(u, v)
        assert SPACE_ABC.inner(w, u) == 0
        assert SPACE_ABC.inner(w, v) == 0


def test_cross_antisymmetric():
    u, v = (1, 2, 3), (0, 1, -1)
    assert cross(u, v) == tuple(-t for t in cross(v, u))


def test_alpha_antisymmetric_and_collinear():
    z1, z2, z3 = (0, 1), (1, 1), (0, 2)
    assert alpha(z1, z2, z3) == -alpha(z3, z2, z1)
    # points on the vertical geodesic x = 0 are collinear
    assert alpha((0, 1), (0, 2), (0, 5)) == 0
    # points on the unit-circle geodesic are collinear
    z_on = [(Fraction(-3, 5), Fraction(4, 5)), (0, 1),
            (Fraction(3, 5), Fraction(4, 5))]
    assert alpha(*z_on) == 0


def test_recover_square():
    g = recover_ngon(SQUARE)
    assert g.n == 4
    assert w_invariant(g) == 0
    # all turns left for this convex loop
    for j in range(4):
        assert turning_sign(SQUARE[j - 1], SQUARE[j],
                            SQUARE[(j + 1) % 4]) == 1


def test_recover_reversed_orientation_raises():
    # reversing an odd loop leaves an odd number of right turns
    with pytest.raises(OrientationError):
        recover_ngon([(0, 2), (1, 1), (0, 1)])
    # an even loop reversed is still accepted (total turning +1) but winds
    # the other way
    g = recover_ngon(list(reversed(SQUARE)))
    inside = (1, 0, 3)
    assert epsilon(g, inside).eps == -4


def test_recover_collinear_raises():
    with pytest.raises(ValueError):
        recover_ngon([(0, 1), (0, 2), (0, 5), (1, 1)])


def test_recover_too_few():
    with pytest.raises(ValueError):
        recover_ngon([(0, 1), (1, 1)])


def test_one_sign_terms_sum_to_minus_w():
    for zs in (SQUARE, [(0, 1), (1, 1), (0, 2)],
               [(-2, 1), (2, 1), (2, 3), (0, 5), (-2, 3)]):
        g = recover_ngon(zs)
        total = sum(one_sign_term(zs, j) for j in range(1, len(zs) + 1))
        assert total == -w_invariant(g)


def test_cm_point_values():
    assert cm_point((1, 0, 1)) == complex(0.0, 1.0)
    z = cm_point((1, 2, 2))
    assert abs(z - complex(-1.0, 1.0)) < 1e-12
    with pytest.raises(ValueError):
        cm_point((0, 1, 0))


def test_cm_point_vector_round_trip():
    # when the CM point is rational, point_to_vector recovers the ray
    for x in ((1, 0, 1), (1, 2, 2), (2, 0, 2), (1, -2, 5)):
        a, b, c = x
        d = 4 * a * c - b * b
        r = math.isqrt(d)
        assert r * r == d
        z = cm_point(x)
        y = point_to_vector((Fraction(round(2 * z.real * 2), 4),
                             Fraction(r, 2 * abs(a))))
        lam = Fraction(x[0]) / Fraction(y[0])
        assert all(Fraction(xi) == lam * yi for xi, yi in zip(x, y))


def test_plane_to_point_matches_vertices(funddom):
    from ngontheta.ngon import vertex_plane
    # vertex 3 of the t=2 domain is the corner rho at x=-1/2 on the unit circle
    pl = vertex_plane(funddom, 3)
    p = cross(pl.span[0], pl.span[1])
    z = plane_to_point(p)
    assert abs(z - complex(-0.5, math.sqrt(3) / 2)) < 1e-12
    with pytest.raises(ValueError):
        plane_to_point((0, 1, 0))  # orthogonal marker vanishes


def test_winding_matches_quarter_kernel(funddom):
    b = butterfly_ngon()
    cases = [
        (funddom, (1, 0, 2)), (funddom, (1, 0, 3)), (funddom, (1, 0, 5)),
        (funddom, (3, 1, 5)),
        (b, (1, 0, 3)), (b, (25, 0, 36)), (b, (2, 1, 1)), (b, (1, 0, 5)),
    ]
    for g, x in cases:
        k = epsilon(g, x)
        assert k.regular
        assert 4 * winding_number(g, x) == k.eps, (x, k)


def test_winding_rejects_bad_input(funddom):
    with pytest.raises(ValueError):
        winding_number(funddom, (0, 1, 0))      # Q <= 0
    with pytest.raises(ValueError):
        winding_number(funddom, (1, 1, 1))      # corner: not regular


def test_winding_near_an_edge(funddom):
    # x = p + d C_2 with p orthogonal to the midpoint plane of edge 2: its
    # CM point lies off the edge's interior by about d, on either side, so
    # the edge subtends pi - O(d); inside the 1e-9 guard it raises
    p = cross(*gamma_sample(funddom, 2, Fraction(1, 2)).span)
    c = funddom.cs[1]

    def near(d):
        return tuple(a + d * b for a, b in zip(p, c))

    seen = set()
    for d in (Fraction(1, 10 ** 8), Fraction(-1, 10 ** 8)):
        k = epsilon(funddom, near(d))
        assert k.regular
        assert 4 * winding_number(funddom, near(d)) == k.eps
        seen.add(k.eps)
    assert seen == {0, 4}               # one point inside, one outside
    with pytest.raises(ValueError):
        winding_number(funddom, near(Fraction(1, 10 ** 10)))


def test_fundamental_ngon_needs_t_above_one():
    with pytest.raises(ValueError):
        fundamental_ngon(1)
    with pytest.raises(ValueError):
        fundamental_ngon(Fraction(1, 2))


def test_reduced_forms_counts():
    known = {3: 1, 4: 1, 7: 1, 8: 1, 11: 1, 12: 2, 15: 2, 16: 2, 20: 2,
             23: 3, 24: 2, 32: 3, 40: 2, 47: 5, 48: 4}
    for n, h in known.items():
        forms = reduced_forms(n)
        assert len(forms) == h, (n, forms)
        for (a, b, c) in forms:
            assert b * b - 4 * a * c == -n
            assert abs(b) <= a <= c


def test_reduced_forms_empty_for_bad_discriminants():
    assert reduced_forms(1) == []
    assert reduced_forms(2) == []
    assert reduced_forms(5) == []


def test_truncated_class_series_small():
    series = truncated_class_series(2, 12)
    coeffs = dict(series.entries)
    assert coeffs.get(8, 0) == 2     # both CM points of disc -8 lie inside
    assert coeffs.get(0, 0) == 0
    flagged = set(series.flags)
    assert {3, 4, 11}.issubset(flagged)  # boundary-incident discriminants


def test_truncated_class_series_oracle_large():
    # the nmax = 400 window reaches |k| = 58: the int64 paths and the float
    # Fincke-Pohst padding meet coordinates far from the origin
    t0 = time.monotonic()
    series = truncated_class_series(2, 400)
    assert time.monotonic() - t0 < 20.0
    cut = Fraction(2) ** 2 + Fraction(1, 4)
    for n in range(1, 401):
        if n in series.flags:
            continue
        want = 2 * sum(1 for (a, b, c) in reduced_forms(n)
                       if Fraction(c, a) < cut)
        assert series.coeff(n) == want, n
