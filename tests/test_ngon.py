import random
import time
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from ngontheta.dodec import seed_construction, validate_dodec
from ngontheta.ngon import (validate, NGonValidationError, KernelValue,
                            w_invariant, epsilon)
from ngontheta.sig12 import SPACE_ABC, fundamental_ngon, recover_ngon

from ngontheta.qspace import NegativePlane

from conftest import (UHPoint, _signed_crosses, turning_sign, abmp_kernel,
                      abmp_sign, butterfly_collection, butterfly_ngon,
                      check_conditions_vec, dart_collection,
                      from_abmp, illegal_variant_kernel, ngon_violations,
                      outcome, project_perp, random_negative_abc,
                      regular_choice_signs, regular_negative_vector_vec,
                      regular_signs_vec, to_abmp, vec_add, vec_scale)

small_rat = st.fractions(min_value=-9, max_value=9, max_denominator=4)


def test_fundamental_domain_is_valid(funddom):
    assert funddom.n == 4
    assert ngon_violations(funddom.space, funddom.cs) == []
    assert w_invariant(funddom) == 0


def test_validation_error_reports_first_violation(space_abc):
    cs = butterfly_collection()
    with pytest.raises(NGonValidationError) as exc:
        validate(space_abc, cs)
    v = exc.value.violations[0]
    assert (v.j, v.condition) == (1, 3)
    assert str(exc.value) == str(v) and "j=1" in str(exc.value)


def test_butterfly_printed_violations(space_abc):
    bad = ngon_violations(space_abc, butterfly_collection())
    assert [(v.j, v.condition) for v in bad] == [(1, 3), (3, 3)]


def test_dart_violations(space_abc):
    bad = ngon_violations(space_abc, dart_collection())
    assert [(v.j, v.condition) for v in bad] == [(1, 3), (4, 3)]


def test_condition_violations_always_even_under_flips(space_abc, funddom):
    # flipping the sign of any single vector breaks condition (3) at the two
    # neighbouring indices, never at the flipped index itself
    for k in range(4):
        cs = list(funddom.cs)
        cs[k] = tuple(-t for t in cs[k])
        bad = sorted((v.j, v.condition) for v in ngon_violations(space_abc, cs))
        assert len(bad) % 2 == 0
        expect = sorted({((k - 1) % 4 + 1, 3), ((k + 1) % 4 + 1, 3)})
        assert bad == expect


def test_positive_vector_fails_condition_one(space_abc):
    cs = ((1, 0, 1), (0, -1, Fraction(1, 2)), (0, 1, Fraction(1, 2)))
    bad = ngon_violations(space_abc, cs)
    assert (1, 1) in [(v.j, v.condition) for v in bad]


def test_duplicate_vector_fails_condition_two(space_abc):
    c = (0, 1, 0)
    bad = ngon_violations(space_abc, (c, c, (Fraction(1, 2), 0,
                                             Fraction(-1, 2))))
    assert any(v.condition == 2 for v in bad)


def test_too_few_vectors(space_abc):
    with pytest.raises(ValueError):
        validate(space_abc, ((0, 1, 0), (Fraction(1, 2), 0, Fraction(-1, 2))))


def test_wrong_signature_rejected(space_q3):
    with pytest.raises(ValueError):
        validate(space_q3, ((0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1)))


def test_w_invariant_independent_of_v(funddom, funddom_e):
    rng = random.Random(7)
    base = w_invariant(funddom)
    for _ in range(40):
        v = random_negative_abc(rng)
        assert w_invariant(funddom, v) == base
    rng = random.Random(8)
    base_e = w_invariant(funddom_e)
    hits = 0
    for _ in range(200):
        v = tuple(Fraction(rng.randint(-9, 9), rng.randint(1, 3))
                  for _ in range(3))
        if funddom_e.space.inner(v, v) < 0:
            hits += 1
            assert w_invariant(funddom_e, v) == base_e
    assert hits > 20


def test_w_invariant_rejects_nonnegative_v(funddom):
    with pytest.raises(ValueError):
        w_invariant(funddom, (1, 0, 1))


def test_w_congruence_and_bound():
    # w == -N (mod 4) and, for valid polygons, |w| <= N - 2
    cases = [
        fundamental_ngon(2),
        butterfly_ngon(),
        recover_ngon([(0, 1), (1, 1), (0, 2)]),
        recover_ngon([(-2, 1), (2, 1), (2, 3), (0, 5), (-2, 3)]),
    ]
    for g in cases:
        w = w_invariant(g)
        assert (w + g.n) % 4 == 0
        assert abs(w) <= g.n - 2


def test_triangle_w_is_forced():
    # for N = 3 the allowed set {4-N .. N-2} with w == 1 (mod 4) is just {1}
    g = recover_ngon([(0, 1), (1, 1), (0, 2)])
    assert g.n == 3
    assert w_invariant(g) == 1


def test_kernel_values_fundamental_domain(funddom):
    assert epsilon(funddom, (1, 0, 2)) == KernelValue(4, True)   # inside
    assert epsilon(funddom, (1, 0, 5)) == KernelValue(0, True)   # above cut
    corner = epsilon(funddom, (1, 1, 1))                         # corner rho
    assert not corner.regular


def test_kernel_values_butterfly():
    b = butterfly_ngon()
    assert w_invariant(b) == 0
    assert epsilon(b, (1, 0, 3)).eps == 4      # upper lobe
    assert epsilon(b, (25, 0, 36)).eps == -4   # lower lobe
    assert epsilon(b, (2, 1, 1)).eps == 0
    assert epsilon(b, (1, 0, 5)).eps == 0


def test_kernel_vanishes_on_nonpositive_vectors(funddom):
    rng = random.Random(9)
    for _ in range(40):
        v = random_negative_abc(rng)
        k = epsilon(funddom, v)
        assert k.eps == 0
    # isotropic vectors
    for x in ((1, 0, 0), (0, 0, 1), (1, 2, 1)):
        assert funddom.space.q(x) == 0
        assert epsilon(funddom, x).eps == 0


@settings(max_examples=80, deadline=None)
@given(st.tuples(small_rat, small_rat, small_rat))
def test_kernel_multiple_of_four_when_regular(x):
    funddom = fundamental_ngon(2)
    k = epsilon(funddom, x)
    if k.regular:
        assert k.eps % 4 == 0


def test_default_negative_vector_is_regular(funddom, funddom_e):
    for g in (funddom, funddom_e):
        v = regular_negative_vector_vec(g.space, g.cs)
        assert g.space.inner(v, v) < 0
        signs = regular_choice_signs(g.space, g.cs)
        assert all(signs) and signs == regular_signs_vec(g.space, g.cs)


def test_regular_negative_vector_capped(space_e):
    # (1,0,0) is orthogonal to C_1 and C_2, so no C_1 + C_2/k is regular
    cs = ((0, 1, 0), (0, 0, 1), (1, 0, 0))
    t0 = time.monotonic()
    with pytest.raises(RuntimeError):
        regular_choice_signs(space_e, cs)
    assert time.monotonic() - t0 < 30.0
    # the first regular candidate is C_1 + C_2/2 when C_1 is not regular
    cs = ((0, 1, 0), (0, 1, 1), (0, 0, 1), (1, 1, 0))
    v = regular_negative_vector_vec(space_e, cs)
    assert v == (0, Fraction(3, 2), Fraction(1, 2))
    assert regular_choice_signs(space_e, cs) == regular_signs_vec(space_e, cs)


@pytest.mark.parametrize("cell", ["funddom", "dodec"])
def test_level_matches_numpy_form(cell, funddom, seed_dodec):
    # level on one sign vector and on a matrix (face_w . s skipped when
    # face_w is all zero) equals the numpy form on every row; level_at, the
    # level its callers read, is a Python int
    walls = {"funddom": funddom, "dodec": seed_dodec}[cell]
    rng = np.random.default_rng(11)
    signs = rng.integers(-1, 2, size=(300, len(walls.cs)))
    signs[0] = 0

    def numpy_form(s):
        return np.prod(s[..., walls.vertices], axis=-1).sum(axis=-1) \
            + s @ walls.face_w

    want = numpy_form(signs)
    assert np.array_equal(walls.level(signs), want)
    assert np.array_equal(walls.kernel(signs), want - walls.level_at())
    for row, w in zip(signs, want):
        for s in (row.tolist(), tuple(row.tolist()), row):
            assert walls.level(s) == w
    assert type(walls.level_at()) is int


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_level_of_each_row_is_the_matrix_level(space_q3, data):
    # level has one path: on random N-gons (recovered from upper-half-plane
    # points) and dodecahedra (the seed construction at random t), the level
    # of each row of a sign matrix, zero signs included, given as a list, a
    # tuple or a 1-D array, equals that row of the matrix level
    try:
        if data.draw(st.booleans(), label="dodec"):
            ts = data.draw(st.lists(st.fractions(
                Fraction(-1, 2), Fraction(1, 2), max_denominator=40),
                min_size=12, max_size=12))
            walls = validate_dodec(space_q3, seed_construction(
                space_q3, ((0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1)),
                (1, 0, 0, 0), ts))
        else:
            walls = recover_ngon(data.draw(st.lists(st.tuples(
                st.fractions(-3, 3, max_denominator=4),
                st.fractions(Fraction(1, 4), 4, max_denominator=4)),
                min_size=3, max_size=6)))
    except ValueError:      # no valid cell: orientation, collinear points
        assume(False)
    n = len(walls.cs)
    signs = np.array(data.draw(st.lists(st.lists(
        st.integers(-1, 1), min_size=n, max_size=n), min_size=1, max_size=8)))
    want = walls.level(signs)
    assert want.shape == (len(signs),)
    for row, w in zip(signs, want):
        for s in (row.tolist(), tuple(row.tolist()), row):
            assert walls.level(s) == w


def test_vertex_plane_and_edge_samples(funddom):
    c1, c2, c3 = funddom.cs[:3]
    assert funddom.vertex_planes[1].span == (c2, c3)

    def edge(s):
        """The plane [C_2, (s-1) C_1 + s C_3] on edge 2; NegativePlane
        raises unless it is negative definite."""
        return NegativePlane(funddom.space, (c2, vec_add(
            vec_scale(s - 1, c1), vec_scale(s, c3))))

    for s in (Fraction(1, 3), Fraction(1, 2), Fraction(7, 8)):
        edge(s)
    assert edge(1).span == (c2, c3)     # s = 1 ends at the vertex plane


def test_illegal_variant_kernel_dart(space_abc):
    d = dart_collection()
    w, eps_in, signs = illegal_variant_kernel(space_abc, d, (1, -1, 3))
    assert w == 2
    assert eps_in == 4
    assert signs == [1, 1, 1, -1]
    _, eps_out, _ = illegal_variant_kernel(space_abc, d, (1, -4, 5))
    assert eps_out == 0


def test_illegal_variant_kernel_w_independent_of_v(space_abc):
    d = dart_collection()
    rng = random.Random(12)
    for _ in range(25):
        v = random_negative_abc(rng)
        if any(space_abc.inner(v, c) == 0 for c in d):
            continue
        w, _, _ = illegal_variant_kernel(space_abc, d, (1, -1, 3), v=v)
        assert w == 2
    for v in ((0, 0, 0), (1, 0, 2)):    # zero, positive: no w~ from them
        with pytest.raises(ValueError, match="v must be a negative vector"):
            illegal_variant_kernel(space_abc, d, (1, -1, 3), v=v)


def test_illegal_variant_kernel_rejects_other_patterns(space_abc, funddom):
    with pytest.raises(ValueError):
        illegal_variant_kernel(space_abc, funddom.cs, (1, 0, 2))  # legal
    with pytest.raises(ValueError):
        illegal_variant_kernel(space_abc, butterfly_collection(), (1, 0, 3))


def test_abmp_sign_pattern():
    assert [abmp_sign(j) for j in range(1, 9)] == [1, 1, -1, -1, 1, 1, -1, -1]


def test_abmp_round_trip(funddom):
    primed = to_abmp(funddom)
    back = from_abmp(funddom.space, primed)
    assert back.cs == funddom.cs
    with pytest.raises(ValueError):
        from_abmp(funddom.space, primed[:3])  # odd N


def test_abmp_kernel_matches_translated(funddom):
    primed = to_abmp(funddom)
    rng = random.Random(15)
    for _ in range(30):
        x = tuple(Fraction(rng.randint(-9, 9), rng.randint(1, 3))
                  for _ in range(3))
        assert abmp_kernel(funddom.space, primed, x) == \
            epsilon(funddom, x).eps


def _signs(space, x, cs):
    return [(space.inner(x, c) > 0) - (space.inner(x, c) < 0) for c in cs]


@settings(max_examples=200, deadline=None)
@given(n=st.integers(3, 6), data=st.data())
def test_gram_path_matches_vector_oracle(n, data):
    """Random 3- to 6-gon collections in SPACE_ABC: the crosses of random
    upper-half-plane vertices with their turning signs (about half of them
    valid), each scaled by a random positive rational, then possibly one
    vector negated or zeroed, or two made orthogonal to C_1 and to
    C_1 + C_2/2.  Violation reports (messages included) and the regular
    negative vector agree with the vector code; on valid collections so do
    w and eps, also at x orthogonal to some C_j."""
    sp = SPACE_ABC
    pts = [UHPoint(*p) for p in data.draw(st.lists(st.tuples(
        small_rat, st.fractions(Fraction(1, 4), 4, max_denominator=4)),
        min_size=n, max_size=n, unique=True))]
    taus = [turning_sign(pts[j - 1], p, pts[(j + 1) % n]) or 1
            for j, p in enumerate(pts)]
    scales = data.draw(st.lists(st.fractions(Fraction(1, 7), 3,
                                             max_denominator=7),
                                min_size=n, max_size=n))
    cs = [vec_scale(t, c) for t, c in zip(scales, _signed_crosses(pts, taus))]
    move, i = data.draw(st.sampled_from(["none", "negate", "zero", "perp"])), \
        data.draw(st.integers(0, n - 1))
    half = vec_add(cs[0], vec_scale(Fraction(1, 2), cs[1]))
    if move == "negate":
        cs[i] = vec_scale(-1, cs[i])
    elif move == "zero":
        cs[i] = (0, 0, 0)
    elif move == "perp" and n > 3 and sp.inner(cs[0], cs[0]) != 0 \
            and sp.inner(half, half) != 0:
        cs[2] = project_perp(sp, cs[2], cs[0])
        cs[3] = project_perp(sp, cs[3], half)
    want = check_conditions_vec(sp, cs)
    assert ngon_violations(sp, cs) == want
    # both search the same k <= N + 1; where no C_1 + C_2/k qualifies (a
    # C_3 made orthogonal to C_1 can be orthogonal to C_2 as well, and then
    # to every candidate) both raise the same RuntimeError
    assert outcome(regular_choice_signs, sp, cs) == \
        outcome(regular_signs_vec, sp, cs)
    if want:
        return
    ngon = validate(sp, cs)
    s = _signs(sp, regular_negative_vector_vec(sp, cs), cs)
    w = -sum(s[j] * s[(j + 1) % n] for j in range(n))
    assert w_invariant(ngon) == w
    for x in data.draw(st.lists(st.tuples(small_rat, small_rat, small_rat),
                                min_size=1, max_size=3)):
        for y in (x, project_perp(sp, x, cs[data.draw(st.integers(0, n - 1))])):
            s = _signs(sp, y, cs)
            assert epsilon(ngon, y) == KernelValue(
                w + sum(s[j] * s[(j + 1) % n] for j in range(n)), all(s))
