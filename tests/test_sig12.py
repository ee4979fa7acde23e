import math
import random
import time
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from ngontheta.ngon import epsilon, linking_number, validate, w_invariant
from ngontheta.qspace import NegativePlane
from ngontheta.sig12 import (SPACE_ABC, Z0_ABC, OrientationError,
                             recover_ngon, fundamental_ngon,
                             truncated_class_series)

from conftest import (SPACE_E, UHPoint, _signed_crosses, abc_to_e, alpha,
                      butterfly_ngon, cross, e_to_abc, one_sign_term,
                      point_to_vector, reduced_forms, turning_sign, vec_add,
                      vec_scale)

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


def test_recover_requires_positive_y():
    for z in ((0, 0), (1, -2)):
        with pytest.raises(ValueError, match="needs y > 0"):
            recover_ngon([(0, 1), z, (1, 2)])


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


def _oracle_recover(zs):
    """recover_ngon on the upper-half-plane helpers: the turning signs of
    alpha and the hyperbolic crosses of the norm-1 vectors X(z)."""
    pts = [UHPoint(*p) for p in zs]
    n = len(pts)
    if n < 3:
        raise ValueError("need at least 3 vertices")
    taus = [turning_sign(pts[j - 1], pts[j], pts[(j + 1) % n])
            for j in range(n)]
    if 0 in taus:
        raise ValueError("three consecutive vertices collinear at index "
                         f"{taus.index(0) + 1}")
    if math.prod(taus) != 1:
        raise OrientationError(
            "total turning is -1 (odd number of right turns); "
            "reverse the vertex order and negate the series")
    return validate(SPACE_ABC, _signed_crosses(pts, taus))


def _recovered(f, zs):
    """("cs", C_1..C_N) of f(zs), or (exception type, message)."""
    try:
        return "cs", f(zs).cs
    except ValueError as exc:
        return type(exc).__name__, str(exc)


def test_recover_matches_hyperbolic_oracle():
    """recover_ngon on the integer rays P(z) equals the upper-half-plane
    oracle on 2 to 8 random vertices, about half of the lists with one
    y <= 0: the same collection, or the same exception and message, and
    every outcome is drawn."""
    seen = set()
    coord = st.fractions(-2, 2, max_denominator=3)
    height = st.fractions(Fraction(1, 3), 3, max_denominator=3)

    @settings(max_examples=400, deadline=None, derandomize=True)
    @given(st.lists(st.tuples(coord, height), min_size=2, max_size=8),
           st.one_of(st.none(), st.sampled_from([0, -1])), st.integers(0, 7))
    def check(zs, y_bad, j):
        if y_bad is not None:
            zs[j % len(zs)] = (zs[j % len(zs)][0], y_bad)
        got = _recovered(recover_ngon, zs)
        assert got == _recovered(_oracle_recover, zs)
        seen.add(got[0] if got[0] != "ValueError" else got[1].split()[0])

    check()
    assert seen == {"cs", "OrientationError", "upper-half-plane", "three",
                    "need"}


def test_one_sign_terms_sum_to_minus_w():
    for zs in (SQUARE, [(0, 1), (1, 1), (0, 2)],
               [(-2, 1), (2, 1), (2, 3), (0, 5), (-2, 3)]):
        g = recover_ngon(zs)
        total = sum(one_sign_term(zs, j) for j in range(1, len(zs) + 1))
        assert total == -w_invariant(g)


def test_vertex_plane_cross_is_rho(funddom):
    # vertex 3 of the t=2 domain is the corner rho at x=-1/2 on the unit
    # circle: the cross of its plane spans the ray of X(rho) = [1,1,1]/sqrt 3
    p = cross(*funddom.vertex_planes[2].span)
    assert p[0] > 0 and p == (p[0],) * 3


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
        assert 4 * linking_number(g, x) == k.eps, (x, k)


def test_winding_rejects_bad_input(funddom):
    with pytest.raises(ValueError, match="Q"):
        linking_number(funddom, (0, 1, 0))      # Q <= 0
    with pytest.raises(ValueError, match="not regular"):
        linking_number(funddom, (1, 1, 1))      # corner: not regular


def test_winding_near_an_edge(funddom):
    # x = p + d C_2 with p orthogonal to the midpoint plane of edge 2: D_x
    # passes within about d of the edge's interior, on either side, and the
    # integer link stays exact however small d is
    c1, c, c3 = funddom.cs[:3]
    half = Fraction(1, 2)
    p = cross(*NegativePlane(funddom.space, (c, vec_add(
        vec_scale(half - 1, c1), vec_scale(half, c3)))).span)

    def near(d):
        return tuple(a + d * b for a, b in zip(p, c))

    seen = set()
    for d in (Fraction(1, 10 ** 8), Fraction(-1, 10 ** 8),
              Fraction(1, 10 ** 10), Fraction(-1, 10 ** 40)):
        k = epsilon(funddom, near(d))
        assert k.regular
        assert 4 * linking_number(funddom, near(d)) == k.eps
        seen.add((d > 0, k.eps))
    assert seen == {(True, 0), (False, 4)}  # one side inside, one outside


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
    # the window is certified about the module's (E2, E3) plane, built once
    assert series.window.z0 is Z0_ABC


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
