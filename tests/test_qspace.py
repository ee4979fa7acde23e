import math
import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from ngontheta.qspace import (QuadraticSpace, NegativePlane,
                              DegeneratePlaneError, vec, vec_primitive,
                              mat_det, mat_inv)

from conftest import majorant_exact, majorant_float

rationals = st.fractions(min_value=-20, max_value=20,
                         max_denominator=6)


def test_signature_diagonal():
    sp = QuadraticSpace([[2, 0, 0], [0, -2, 0], [0, 0, -2]])
    assert sp.sig == (1, 2)
    sp4 = QuadraticSpace([[2, 0, 0, 0], [0, -2, 0, 0],
                          [0, 0, -2, 0], [0, 0, 0, -2]])
    assert sp4.sig == (1, 3)


def test_signature_offdiagonal(space_abc):
    # [a,b,c] model: (x,x) = 8ac - 2b^2 has signature (1,2)
    assert space_abc.sig == (1, 2)
    assert space_abc.inner((1, 0, 0), (0, 0, 1)) == 4
    assert space_abc.q((1, 0, 1)) == 4
    assert space_abc.q((0, 1, 0)) == -1


def test_inner_symmetry_exact(space_abc):
    rng = random.Random(1)
    for _ in range(50):
        x = tuple(Fraction(rng.randint(-9, 9), rng.randint(1, 5))
                  for _ in range(3))
        y = tuple(Fraction(rng.randint(-9, 9), rng.randint(1, 5))
                  for _ in range(3))
        assert space_abc.inner(x, y) == space_abc.inner(y, x)
        assert space_abc.q(x) * 2 == space_abc.inner(x, x)


def test_gram_must_be_symmetric():
    with pytest.raises(ValueError):
        QuadraticSpace([[0, 1], [2, 0]])


def test_negative_plane_orthonormalization(space_abc):
    pl = NegativePlane(space_abc, ((0, 1, 0), (Fraction(1, 2), 0,
                                               Fraction(-1, 2))))
    g = pl.ortho @ space_abc.gram_f @ pl.ortho.T
    assert np.max(np.abs(g + np.eye(2))) < 1e-12


def test_negative_plane_rejects_mixed(space_abc):
    # span contains a positive vector
    with pytest.raises((ValueError, DegeneratePlaneError)):
        NegativePlane(space_abc, ((1, 0, 1), (0, 1, 0)))


def test_negative_3plane(space_q3):
    pl = NegativePlane(space_q3, ((0, 1, 0, 0), (0, 1, 1, 0), (0, 0, 1, 1)))
    g = pl.ortho @ space_q3.gram_f @ pl.ortho.T
    assert np.max(np.abs(g + np.eye(3))) < 1e-12


def test_coords_is_projection(space_abc):
    pl = NegativePlane(space_abc, ((0, 1, 0), (Fraction(1, 2), 0,
                                               Fraction(-1, 2))))
    x = np.array([3.0, -2.0, 1.0])
    u = pl.coords(x)
    # pr_z(x) = sum u_k * (k-th orthonormal vector); check (x - pr, span) = 0
    pr = u @ pl.ortho
    for s in pl.span:
        sf = np.array([float(t) for t in s])
        assert abs((x - pr) @ space_abc.gram_f @ sf) < 1e-9


def test_majorant_exact_matches_float(space_abc):
    span = ((0, 1, 0), (Fraction(1, 2), 0, Fraction(-1, 2)))
    pl = NegativePlane(space_abc, span)
    rng = random.Random(3)
    for _ in range(25):
        x = tuple(Fraction(rng.randint(-9, 9), rng.randint(1, 3))
                  for _ in range(3))
        exact, rex = majorant_exact(space_abc, x, span)
        approx, rfl = majorant_float(space_abc, x, pl)
        assert abs(float(exact) - approx) < 1e-9
        assert abs(float(rex) - rfl) < 1e-9
        assert exact >= 0
        if any(x):
            assert exact > 0


@settings(max_examples=60, deadline=None)
@given(st.tuples(rationals, rationals, rationals))
def test_majorant_positive_definite(x):
    space = QuadraticSpace([[2, 0, 0], [0, -2, 0], [0, 0, -2]])
    span = ((0, 1, 0), (0, 1, 1))
    exact, r = majorant_exact(space, x, span)
    assert r >= 0
    assert exact >= 0
    assert (exact == 0) == (not any(x))


def test_project_perp_is_orthogonal(space_abc):
    c = (0, 1, 0)
    x = (3, 2, 5)
    y = space_abc.project_perp(x, c)
    assert space_abc.inner(y, c) == 0


def test_vec_primitive():
    assert vec_primitive((Fraction(2, 3), Fraction(-4, 3), 2)) == (1, -2, 3)
    assert vec_primitive((0, Fraction(-1, 2), 0)) == (0, -1, 0)


def test_mat_det_inv_exact():
    m = [[2, 1, 0], [1, 3, 1], [0, 1, 4]]
    d = mat_det(m)
    inv = mat_inv(m)
    n = len(m)
    prod = [[sum(m[i][k] * inv[k][j] for k in range(n)) for j in range(n)]
            for i in range(n)]
    assert prod == [[1 if i == j else 0 for j in range(n)] for i in range(n)]
    assert d == 18
