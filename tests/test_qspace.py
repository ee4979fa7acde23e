import itertools
import math
import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from ngontheta.qspace import (QuadraticSpace, NegativePlane,
                              DegeneratePlaneError, rat, vec, vec_primitive,
                              _charpoly, _nonzero_2d)

from conftest import (inner_dense, inner_sparse, majorant_exact, majorant_float, mat_det,
                      mat_inv, negative_definite_vec, project_perp)

rationals = st.fractions(min_value=-20, max_value=20,
                         max_denominator=6)


def test_rat_converts_floats_exactly():
    assert rat(0.1) == Fraction(0.1)


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
    u = pl.frame[1] @ x
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
    y = project_perp(space_abc, x, c)
    assert space_abc.inner(y, c) == 0


def test_vec_primitive():
    assert vec_primitive((Fraction(2, 3), Fraction(-4, 3), 2)) == (1, -2, 3)
    assert vec_primitive((0, Fraction(-1, 2), 0)) == (0, -1, 0)


def test_adjugate_exact():
    m = [[2, 1, 0], [1, 3, 1], [0, 1, 4]]
    c, adj = _charpoly(m)
    d, n = -c[-1], len(m)               # det = (-1)^3 c_3
    prod = [[sum(m[i][k] * adj[k][j] for k in range(n)) for j in range(n)]
            for i in range(n)]
    assert prod == [[d if i == j else 0 for j in range(n)] for i in range(n)]
    assert d == 18 and c == [1, -9, 24, -18]
    # a singular matrix has an adjugate too: its cofactors, det = c_2 = 0
    assert _charpoly([[1, 2], [2, 4]]) == ([1, -5, 0], [[4, -2], [-2, 1]])
    assert _charpoly([[-3]]) == ([1, 3], [[1]])


def _cofactor(a, i, j):
    """(-1)^(i+j) det of a without row i and column j, by mat_det."""
    minor = [[v for c, v in enumerate(r) if c != j]
             for k, r in enumerate(a) if k != i]
    return (-1) ** (i + j) * (mat_det(minor) if minor else 1)


@st.composite
def symmetric_matrices(draw):
    """A symmetric integer matrix of size 1..5 with entries in [-4, 4]; with
    a repeated row and column at one draw in three, so singular ones are
    common."""
    n = draw(st.integers(1, 5))
    a = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i, n):
            a[i][j] = a[j][i] = draw(st.integers(-4, 4))
    if n > 1 and draw(st.integers(0, 2)) == 0:
        a[-1] = list(a[0])
        for r, v in zip(a, a[0]):
            r[-1] = v
    return a


@settings(max_examples=200, deadline=None, derandomize=True)
@given(symmetric_matrices())
def test_adjugate_matches_fraction_inverse(a):
    """The adjugate of _charpoly against cofactors by Fraction elimination
    and against det * inverse, on random symmetric integer matrices,
    singular and indefinite ones included: adj a . a = det I, 0 when
    singular."""
    n, det = len(a), mat_det(a)
    c, adj = _charpoly(a)
    assert (-1) ** n * c[-1] == det
    assert adj == [[_cofactor(a, j, i) for j in range(n)] for i in range(n)]
    assert [[sum(adj[i][k] * a[k][j] for k in range(n)) for j in range(n)]
            for i in range(n)] == [[det * (i == j) for j in range(n)]
                                   for i in range(n)]
    if det:
        assert adj == [[det * v for v in row] for row in mat_inv(a)]


mixed = st.one_of(st.integers(-20, 20), rationals)


@st.composite
def spaces_and_vectors(draw):
    """A nondegenerate symmetric Gram of dimension 2..5 with rational,
    non-integral and zero entries, and three vectors mixing int and
    Fraction coordinates."""
    m = draw(st.integers(2, 5))
    entry = st.one_of(st.just(0), st.fractions(-9, 9, max_denominator=12))
    gram = [[0] * m for _ in range(m)]
    for i in range(m):
        for j in range(i, m):
            gram[i][j] = gram[j][i] = draw(entry)
    try:
        space = QuadraticSpace(gram)
    except ValueError:                  # degenerate form
        assume(False)
    x, y, c = (tuple(draw(mixed) for _ in range(m)) for _ in range(3))
    return space, gram, x, y, c


@settings(max_examples=200, deadline=None)
@given(spaces_and_vectors())
def test_integer_core_matches_fraction_oracle(case):
    space, gram, x, y, c = case
    assert space.gram == tuple(tuple(Fraction(v) for v in row)
                               for row in gram)
    got = space.inner(x, y)
    assert type(got) is Fraction
    assert got == inner_dense(gram, x, y)
    assert space.q(x) == inner_dense(gram, x, x) / 2
    cc = inner_dense(gram, c, c)
    if cc == 0:
        with pytest.raises(ValueError):
            project_perp(space, x, c)
        return
    f = inner_dense(gram, x, c) / cc
    want = tuple(Fraction(a) - f * b for a, b in zip(x, c))
    assert project_perp(space, x, c) == want
    assert inner_dense(gram, want, c) == 0


def test_inner_dimension_mismatch(space_abc):
    with pytest.raises(ValueError, match="dimension mismatch"):
        space_abc.inner((1, 0), (1, 0, 0))
    with pytest.raises(ValueError, match="dimension mismatch"):
        NegativePlane(space_abc, ((0, 1, 0), (0, 0)))


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_charpoly_matches_mat_det(data):
    # random integer span Grams S^T G S; repeated or dependent span rows make
    # them singular, and G indefinite makes them indefinite: c_k is (-1)^k
    # times the sum of the k x k principal minors, so c_1 = -tr and
    # c_m = (-1)^m det
    m = data.draw(st.integers(2, 5))
    k = data.draw(st.integers(1, m))
    small = st.integers(-4, 4)
    gram = [[0] * m for _ in range(m)]
    for i in range(m):
        for j in range(i, m):
            gram[i][j] = gram[j][i] = data.draw(small)
    span = [[data.draw(small) for _ in range(m)] for _ in range(k)]
    if k > 1 and data.draw(st.booleans()):
        span[-1] = [2 * a - b for a, b in zip(span[0], span[1])]
    a = [[inner_dense(gram, u, v) for v in span] for u in span]
    c = _charpoly([[int(v) for v in row] for row in a])[0]
    assert all(type(v) is int for v in c)
    assert c == [(-1) ** sz * sum(mat_det([[a[i][j] for j in t] for i in t])
                                  for t in itertools.combinations(range(k),
                                                                  sz))
                 for sz in range(k + 1)]
    assert c[1] == -sum(a[i][i] for i in range(k))
    assert c[k] == (-1) ** k * mat_det(a)

    # NegativePlane accepts exactly the spans the rational test accepts, also
    # for rational spans and a rational Gram
    gram = [[Fraction(v, data.draw(st.integers(1, 5), label="gden"))
             for v in row] for row in gram]
    gram = [[gram[min(i, j)][max(i, j)] for j in range(m)] for i in range(m)]
    try:
        space = QuadraticSpace(gram)
    except ValueError:
        return
    den = data.draw(st.integers(1, 6))
    rspan = [tuple(Fraction(v, den) if i % 2 else v for i, v in enumerate(s))
             for s in span]
    try:
        NegativePlane(space, rspan)
        accepted = True
    except DegeneratePlaneError as e:
        accepted = "not negative definite" not in str(e)
    assert accepted == negative_definite_vec(gram, rspan)


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_signature_matches_eigenvalues(data):
    m = data.draw(st.integers(1, 6))
    entry = st.one_of(st.just(0), st.fractions(-6, 6, max_denominator=5))
    gram = [[Fraction(0)] * m for _ in range(m)]
    for i in range(m):
        for j in range(i, m):
            gram[i][j] = gram[j][i] = data.draw(entry)
    if mat_det(gram) == 0:
        with pytest.raises(ValueError, match="degenerate"):
            QuadraticSpace(gram)
        return
    ev = np.linalg.eigvalsh(np.array(gram, dtype=float))
    assume(np.min(np.abs(ev)) > 1e-9 * max(1.0, np.max(np.abs(ev))))
    assert QuadraticSpace(gram).sig == (int(np.sum(ev > 0)),
                                        int(np.sum(ev < 0)))


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_inner_matches_sparse_sum(data):
    """inner pairs over the whole integer Gram and returns the Fraction of
    the sparse sum over its nonzero entries it replaced, on random rational
    Grams with zero entries and vectors of ints and Fractions; a vector of
    the wrong length still raises."""
    m = data.draw(st.integers(1, 6))
    entry = st.one_of(st.just(0), st.fractions(-6, 6, max_denominator=5))
    gram = [[Fraction(0)] * m for _ in range(m)]
    for i in range(m):
        for j in range(i, m):
            gram[i][j] = gram[j][i] = data.draw(entry)
    if mat_det(gram) == 0:
        return
    space = QuadraticSpace(gram)
    coord = st.one_of(st.just(0), st.integers(-9, 9),
                      st.fractions(-20, 20, max_denominator=7))
    x, y = (data.draw(st.lists(coord, min_size=m, max_size=m))
            for _ in range(2))
    got = space.inner(x, y)
    assert type(got) is Fraction
    assert got == inner_sparse(space, x, y) == inner_dense(gram, x, y)
    assert space.inner(y, x) == got and space.q(x) == space.inner(x, x) / 2
    bad = data.draw(st.lists(coord, max_size=m + 2).filter(
        lambda v: len(v) != m))
    for args in ((bad, y), (x, bad), (bad, bad)):
        with pytest.raises(ValueError, match="dimension mismatch"):
            space.inner(*args)


@settings(max_examples=150, deadline=None)
@given(st.sampled_from([(0, 4), (None, 1), (None, 4), (None, 168)]),
       st.integers(1, 300), st.floats(0.0, 1.0), st.integers(0, 2 ** 32 - 1))
def test_nonzero_2d_matches_np_nonzero(shape, n, density, seed):
    # the (row, column) indices formed from the flat indices of a 2-D mask
    # are np.nonzero's, same values, order and dtype, on the masks' shapes
    # the kernels use: (rows, wall) and (item, cone) masks with 4 columns,
    # one column, and cone_mass_3d's 7 pieces of 24 nodes
    rows, cols = shape
    mask = np.random.default_rng(seed).random((n if rows is None else rows,
                                               cols)) < density
    got, want = _nonzero_2d(mask), np.nonzero(mask)
    assert all(np.array_equal(g, w) and g.dtype == w.dtype
               for g, w in zip(got, want, strict=True))
