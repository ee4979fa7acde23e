import math
import random
import time
from fractions import Fraction
from functools import cached_property
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from ngontheta.qspace import (NegativePlane, QuadraticSpace, _int_product,
                              DegeneratePlaneError, negative_planes,
                              _over_lcm, _row_norms, vec, vec_add, vec_scale)
from ngontheta.errfn import E2, cone_sum
from ngontheta.lattice import (LatticeCoset, disc_group, EnumWindow, window_from_planes, certify_window,
                               enumerate_coset, enumerate_cosets,
                               QExpansion, SAFETY,
                               holomorphic_series, completion_eval,
                               modularity_check, weil_matrices, weil_sanity,
                               _CompletionKernel,
                               CertificationError, _majorant_leq,
                               _prove_window,
                               minimax_plane, _kappas, _majorants,
                               _tail_estimate, _completion_sum)
from ngontheta import lattice
from ngontheta.dodec import dodec_series, seed_construction, validate_dodec
from ngontheta.ngon import (w_invariant, validate, regular_negative_vector,
                            epsilon, linking_number)
from ngontheta import qspace
from ngontheta.sig12 import (SPACE_ABC, E2_ABC, E3_ABC, OrientationError,
                             fundamental_ngon, truncated_class_series,
                             recover_ngon)

from conftest import (SPACE_E, abc_to_e, cross, point_to_vector,
                      batch_ks, butterfly_ngon, dodec_D_kernel,
                      guard_band_hits, int_majorant, j0_value,
                      majorant_exact, majorant_matrix, mat_det, mat_inv, negative_definite_vec, project_perp,
                      reduced_forms, window_at_safety, window_proof_oracle)

Z0_E = ((0, 1, 0), (0, 0, 1))
Z0_ABC = NegativePlane(SPACE_ABC, (E2_ABC, E3_ABC))


def test_disc_group_sizes(space_e, space_abc):
    assert len(disc_group(space_e)) == 8
    assert len(disc_group(space_abc)) == 32


def test_disc_group_entries_are_dual(space_e):
    for mu in disc_group(space_e):
        LatticeCoset(space_e, mu)  # does not raise
        assert all(0 <= c < 1 for c in mu)


def _disc_group_indices(space):
    """L∨/L as G^{-1} k mod Z^m over every k in (Z/d)^m: d^m rows."""
    m = space.dim
    gi = [[int(v) for v in row] for row in space.gram]
    det = mat_det(gi)
    d = abs(int(det))
    adj = [[int(v * det) for v in row] for row in mat_inv(gi)]
    adj = np.array(adj, dtype=np.int64)
    ks = np.indices((d,) * m).reshape(m, -1).T
    nums = (ks @ adj.T * int(np.sign(float(det)))) % d
    nums = np.unique(nums, axis=0)
    return sorted(tuple(Fraction(int(v), d) for v in row) for row in nums)


def _random_integral_gram(rng):
    """Random symmetric integer Gram with 0 < |det|^m <= 10^6."""
    while True:
        m = rng.randint(1, 4)
        r = (6, 6, 3, 2)[m - 1]
        g = [[0] * m for _ in range(m)]
        for i in range(m):
            for j in range(i + 1):
                g[i][j] = g[j][i] = rng.randint(-r, r)
        d = abs(int(mat_det(g)))
        if d and d ** m <= 10 ** 6:
            return QuadraticSpace(g)


def test_disc_group_matches_index_construction():
    grams = [SPACE_ABC.gram, SPACE_E.gram,
             [[2, 0, 0, 0], [0, -2, 0, 0], [0, 0, -2, 0], [0, 0, 0, -2]],
             [[4, 0, 0, 0], [0, -2, 0, 0], [0, 0, -2, 0], [0, 0, 0, -2]]]
    spaces = [QuadraticSpace(g) for g in grams]
    rng = random.Random(6)
    spaces += [_random_integral_gram(rng) for _ in range(40)]
    for space in spaces:
        assert disc_group(space) == _disc_group_indices(space), space.gram


def test_disc_group_large_determinant():
    # |det| = 1000, m = 3: the index construction would need 10^9 rows
    space = QuadraticSpace([[10, 0, 0], [0, -10, 0], [0, 0, -10]])
    t0 = time.monotonic()
    reps = disc_group(space)
    assert time.monotonic() - t0 < 1.0
    assert len(reps) == 1000
    assert reps == sorted(tuple(Fraction(k, 10) for k in (a, b, c))
                          for a in range(10) for b in range(10)
                          for c in range(10))


def test_coset_rejects_non_dual(space_e):
    with pytest.raises(ValueError):
        LatticeCoset(space_e, (Fraction(1, 3), 0, 0))


def test_coset_rejects_non_integral_gram():
    from ngontheta.qspace import QuadraticSpace
    frac_space = QuadraticSpace([[Fraction(1, 2), 0], [0, -2]])
    with pytest.raises(ValueError):
        LatticeCoset(frac_space)


def test_majorant_matrix_matches_exact_form(space_abc):
    # the plane's integer majorant mi/dm is the form (x,x)_{z0} exactly
    span = ((0, 1, 0), (Fraction(1, 2), 0, Fraction(-1, 2)))
    mi, dm = NegativePlane(space_abc, span).majorant
    import random
    rng = random.Random(21)
    for _ in range(20):
        x = tuple(Fraction(rng.randint(-9, 9), rng.randint(1, 3))
                  for _ in range(3))
        quad = sum(x[i] * mi[i][j] * x[j] for i in range(3)
                   for j in range(3)) / dm
        exact, _ = majorant_exact(space_abc, x, span)
        assert quad == exact


def test_enumeration_small_ball(space_e):
    # (x,x)_{z0} = 2|x|^2 on the diagonal lattice: B = 2 gives exactly the
    # origin and the six unit vectors
    window = EnumWindow(z0=NegativePlane(space_e, Z0_E), B=Fraction(2),
                        kappa=1.0)
    batch = enumerate_coset(LatticeCoset(space_e), window)
    got = sorted(tuple(int(v) for v in row) for row in batch_ks(batch))
    want = sorted([(0, 0, 0), (1, 0, 0), (-1, 0, 0), (0, 1, 0), (0, -1, 0),
                   (0, 0, 1), (0, 0, -1)])
    assert got == want
    # B = 4 additionally admits the twelve two-coordinate vectors
    window = EnumWindow(window.z0, B=Fraction(4), kappa=1.0)
    assert len(enumerate_coset(LatticeCoset(space_e), window)) == 19


def test_lattice_coset_rejects_wrong_length_mu(space_e):
    with pytest.raises(ValueError, match="dimension mismatch"):
        LatticeCoset(space_e, (Fraction(1, 2), 0))
    with pytest.raises(ValueError, match="dimension mismatch"):
        LatticeCoset(space_e, (0, 0, 0, 0))
    with pytest.raises(ValueError, match="not in the dual lattice"):
        LatticeCoset(space_e, (Fraction(1, 3), 0, 0))


def test_enumeration_shifted_coset(space_e):
    window = EnumWindow(z0=NegativePlane(space_e, Z0_E), B=Fraction(1, 2),
                        kappa=1.0)
    batch = enumerate_coset(LatticeCoset(space_e, (Fraction(1, 2), 0, 0)),
                            window)
    got = sorted(tuple(int(v) for v in row) for row in batch_ks(batch))
    assert got == [(-1, 0, 0), (0, 0, 0)]   # x = k + mu = (-1/2,0,0), (1/2,0,0)


def _fp_enumerate_recursive(m_exact, mu, bound):
    """Reference: the depth-first Fincke-Pohst recursion, one Python call per
    candidate, that the level-wise enumeration replaced."""
    m = len(m_exact)
    mf = np.array([[float(v) for v in row] for row in m_exact])
    muf = np.array([float(v) for v in mu])
    bf = float(bound)
    # LDL^T: q(x) = sum_i d_i (x_i + sum_{j>i} l_ij x_j)^2, i eliminated upward
    a = mf.copy()
    dvec = np.empty(m)
    lmat = np.zeros((m, m))
    for i in range(m):
        dvec[i] = a[i, i]
        lmat[i, i + 1:] = a[i, i + 1:] / a[i, i]
        a[i + 1:, i + 1:] -= np.outer(a[i, i + 1:], a[i, i + 1:]) / a[i, i]
    pad = 1e-7 * (1.0 + abs(bf))
    cands = []
    ks = np.zeros(m)

    def rec(i, budget):
        # x_j fixed for j > i; x = k + mu
        if i < 0:
            cands.append(ks.copy())
            return
        shift = muf[i] + lmat[i, i + 1:] @ (ks[i + 1:] + muf[i + 1:])
        if budget < -pad:
            return
        t = math.sqrt(max(budget + pad, 0.0) / dvec[i])
        lo = math.ceil(-t - shift - 1e-9)
        hi = math.floor(t - shift + 1e-9)
        for kk in range(lo, hi + 1):
            ks[i] = kk
            y = kk + shift
            rec(i - 1, budget - dvec[i] * y * y)
        ks[i] = 0.0

    rec(m - 1, bf)
    if not cands:
        return np.zeros((0, m), dtype=np.int64)
    arr = np.array(cands, dtype=np.int64)
    arr = arr[np.lexsort(arr.T[::-1])]
    dmu, munum = _over_lcm(mu)
    return arr[_majorant_leq(arr * dmu + munum, dmu, int_majorant(m_exact),
                             bound)]


def _random_majorant(data, space_q3):
    """An exact positive-definite matrix: L D L^T for a random rational unit
    lower-triangular L and positive diagonal D, the majorant of a random
    negative plane of SPACE_ABC, or that of a random negative 3-space of
    diag(2,-2,-2,-2) (the last two can be ill-conditioned)."""
    kind = data.draw(st.sampled_from(["ldl", "abc", "q3"]), label="kind")
    if kind == "abc":
        p, q1, q2 = (point_to_vector(data.draw(uhp)) for _ in range(3))
        span = (cross(p, q1), cross(p, q2))
        try:
            NegativePlane(SPACE_ABC, span)
        except ValueError:          # p, q1, q2 on one geodesic
            assume(False)
        return majorant_matrix(SPACE_ABC, span)
    if kind == "q3":
        # e_{i+1} + t_i e_1 spans a negative 3-space when |t|^2 < 1
        t = [data.draw(st.fractions(Fraction(-9, 16), Fraction(9, 16),
                                    max_denominator=16)) for _ in range(3)]
        span = tuple(tuple([t[i]] + [int(j == i) for j in range(3)])
                     for i in range(3))
        return majorant_matrix(space_q3, span)
    m = data.draw(st.integers(2, 4), label="m")
    ent = st.fractions(-3, 3, max_denominator=4)
    low = [[data.draw(ent) if j < i else Fraction(int(i == j))
            for j in range(m)] for i in range(m)]
    d = [data.draw(st.fractions(Fraction(1, 2), 4, max_denominator=8))
         for _ in range(m)]
    return [[sum(low[i][k] * d[k] * low[j][k] for k in range(m))
             for j in range(m)] for i in range(m)]


def _bare_window(mat, bound):
    """The window enumerate_cosets reads: B and the base plane's (mi, dm)
    of the Fraction matrix mat."""
    return SimpleNamespace(z0=SimpleNamespace(majorant=int_majorant(mat)),
                           B=bound)


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_fp_enumerate_matches_recursion(space_q3, data):
    mat = _random_majorant(data, space_q3)
    m = len(mat)
    # shifts outside [0, 1) too: x = k + mu for any rational mu
    mu = [data.draw(st.fractions(-2, 2, max_denominator=4))
          for _ in range(m)]

    def qform(k):
        x = [ki + mi for ki, mi in zip(k, mu)]
        return sum(x[i] * mat[i][j] * x[j] for i in range(m) for j in range(m))

    how = data.draw(st.sampled_from(["zero", "row", "tiny", "negative",
                                     "drawn"]), label="bound")
    if how == "zero":
        bound = Fraction(0)
    elif how == "row":      # the boundary itself: a row with norm == bound
        bound = qform(data.draw(st.lists(st.integers(-3, 3), min_size=m,
                                         max_size=m)))
    elif how == "tiny":     # below every norm when mu != 0: a level empties
        bound = data.draw(st.fractions(0, Fraction(1, 64),
                                       max_denominator=1024))
    elif how == "negative":
        bound = data.draw(st.fractions(-5, Fraction(-1, 10 ** 6),
                                       max_denominator=10 ** 6))
    else:
        bound = data.draw(st.fractions(0, 12, max_denominator=64))
    assume(how != "row" or bound <= 40)
    # enumerate_coset reads only mu and the Gram of the coset, and only the
    # base plane's majorant and B of the window; it enumerates up to B = bound
    rows = enumerate_coset(
        SimpleNamespace(mu=mu, space=QuadraticSpace(
            [[int(i == j) for j in range(m)] for i in range(m)])),
        _bare_window(mat, bound))
    # batch_ks is k = x - mu for mu reduced into [0, 1); the reference's k
    # is x - mu for mu as drawn
    got = batch_ks(rows) - np.array([math.floor(v) for v in mu],
                                    dtype=np.int64)
    want = _fp_enumerate_recursive(mat, mu, bound)
    assert got.dtype == want.dtype == np.int64
    assert got.shape == want.shape and got.shape[1] == m
    assert np.array_equal(got, want)
    assert all(qform(k) <= bound for k in got.tolist())
    if how == "row":
        assert len(got)


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_even_enumeration_folds_pm_pairs(space_q3, data):
    # for an even kernel, a coset with 2 mu in L is enumerated as x = 0 and
    # the rows whose first nonzero coordinate is positive, at mult 2 but for
    # x = 0: the unfolded batch filtered to those rows, in the same order,
    # with the same split and norms; other cosets are unfolded, at mult 1
    mat = _random_majorant(data, space_q3)
    m = len(mat)
    halves = st.lists(st.sampled_from([0, Fraction(1, 2), Fraction(3, 2)]),
                      min_size=m, max_size=m)
    others = st.lists(st.fractions(-2, 2, max_denominator=4), min_size=m,
                      max_size=m)
    mus = data.draw(st.lists(st.one_of(halves, others), min_size=1,
                             max_size=4), label="mus")
    diag = data.draw(st.lists(st.sampled_from([-2, -1, 1, 2]), min_size=m,
                              max_size=m), label="gram")
    space = QuadraticSpace([[diag[i] * int(i == j) for j in range(m)]
                            for i in range(m)])
    qmax = data.draw(st.one_of(st.none(), st.fractions(0, 6,
                                                       max_denominator=8)))
    window = _bare_window(mat, data.draw(
        st.fractions(0, 10, max_denominator=16), label="B"))
    full = enumerate_cosets(space, mus, window, qmax)
    half = enumerate_cosets(space, mus, window, qmax, even=True)
    fold = np.array([all((2 * c).denominator == 1 for c in mu) for mu in mus])
    lead = full.xnum[np.arange(len(full)), np.argmax(full.xnum != 0, 1)]
    keep = ~fold[full.coset] | (lead >= 0)
    for name in ("xnum", "xx_num", "coset"):
        assert np.array_equal(getattr(half, name), getattr(full, name)[keep])
    nonzero = np.any(half.xnum != 0, axis=1)
    assert np.array_equal(half.mult, np.where(fold[half.coset] & nonzero,
                                              2, 1))
    # every x of the full batch is counted once
    assert np.array_equal(np.bincount(half.coset, half.mult, len(mus)),
                          np.bincount(full.coset, minlength=len(mus)))


def _band_bases():
    """(space, z0 span, sign of G_22) of SPACE_E (G_22 = -2), SPACE_E with
    its first and last coordinates swapped (2), SPACE_ABC (0), and two
    seeded random unimodular changes of basis of each; the band cuts the
    last coordinate."""
    rng = random.Random(16)
    out = []
    for space, span in ((SPACE_E, Z0_E), (SPACE_ABC, (E2_ABC, E3_ABC))):
        changes = [[[1, 0, 0], [0, 1, 0], [0, 0, 1]]]
        if space is SPACE_E:
            changes.append([[0, 0, 1], [0, 1, 0], [1, 0, 0]])
        for _ in range(2):
            u = [[int(i == j) for j in range(3)] for i in range(3)]
            for _ in range(5):              # column i += c column j
                i, j = rng.sample(range(3), 2)
                c = rng.choice([-2, -1, 1, 2])
                for row in u:
                    row[i] += c * row[j]
            changes.append(u)
        for u in changes:                  # x = u x' in the new basis
            g = [[sum(u[k][i] * space.gram[k][l] * u[l][j]
                      for k in range(3) for l in range(3))
                  for j in range(3)] for i in range(3)]
            ui = mat_inv(u)
            out.append((QuadraticSpace(g),
                        [[sum(ui[i][k] * v[k] for k in range(3))
                          for i in range(3)] for v in span],
                        (g[2][2] > 0) - (g[2][2] < 0)))
    return out


def test_band_enumeration_matches_filtered_full_enumeration():
    # the band batch of enumerate_coset(..., qmax) must hold exactly the rows
    # of the full batch with 0 <= Q(x) <= qmax, in the same order, with the
    # same norms; isotropic rows of cosets mu != 0 and
    # rows on Q = qmax test both edges of the band
    signs, on_zero, on_top = set(), 0, 0
    band_rows = full_rows = raw_rows = 0
    for space, span, sign in _band_bases():
        signs.add(sign)
        window = EnumWindow(z0=NegativePlane(space, span), B=Fraction(40),
                            kappa=1.0)
        reps = disc_group(space)
        for mu in reps[:6] + [tuple(c + 2 for c in reps[-1])]:
            coset = LatticeCoset(space, mu)
            full = enumerate_coset(coset, window)
            qs = [Fraction(int(v), 2 * full.dmu ** 2) for v in full.xx_num]
            pos = sorted(q for q in qs if q > 0)
            for qmax in (Fraction(0), pos[len(pos) // 3], pos[-1]):
                keep = np.array([0 <= q <= qmax for q in qs], dtype=bool)
                band = enumerate_coset(coset, window, qmax=qmax)
                raw_rows += len(lattice._fp_enumerate(
                    window.z0.majorant, [mu], window.B,
                    (space.gram_f, float(qmax)))[1])
                assert np.array_equal(band.xnum, full.xnum[keep])
                assert np.array_equal(band.xx_num, full.xx_num[keep])
                on_zero += sum(q == 0 for q in qs) if any(mu) else 0
                on_top += sum(q == qmax for q in qs) if qmax else 0
                band_rows += len(band)
                full_rows += len(full)
    assert signs == {-1, 0, 1}
    assert on_zero and on_top
    assert band_rows < full_rows / 2
    # the float cut itself is tight: it emits few rows the exact test drops
    assert raw_rows <= 1.01 * band_rows


def test_window_scales_with_nmax(funddom):
    w1 = certify_window(funddom, Z0_ABC, 5)
    w2 = certify_window(funddom, Z0_ABC, 10)
    assert w2.B >= 2 * w1.B * Fraction(63, 64)
    assert w1.kappa == w2.kappa


def _edge_kappa(ngon, z0, samples=64):
    """Oracle: the float kappa over `samples` interior planes per boundary
    edge, [C_j, (s-1) C_{j-1} + s C_{j+1}], s = i/(samples+1)."""
    cs, n = ngon.cs, ngon.n
    planes = [NegativePlane(ngon.space, (cs[j], vec_add(
        vec_scale(s - 1, cs[j - 1]), vec_scale(s, cs[(j + 1) % n]))))
        for j in range(n)
        for s in (Fraction(i, samples + 1) for i in range(1, samples + 1))]
    return window_from_planes(z0, planes, 1).kappa


uhp = st.tuples(st.fractions(-3, 3, max_denominator=4),
                st.fractions(Fraction(1, 4), 4, max_denominator=4))


@settings(max_examples=30, deadline=None)
@given(st.lists(uhp, min_size=3, max_size=7), st.data())
def test_vertex_kappa_bounds_edge_samples(points, data):
    # log lambda_max(M_z0, M_z) is convex along the geodesic edges, so the
    # vertex planes alone must bound kappa over every edge sample
    try:
        ngon = recover_ngon(points)
    except ValueError:              # OrientationError, or collinear vertices
        assume(False)
    if data.draw(st.booleans(), label="vertex z0"):
        j = data.draw(st.integers(1, ngon.n), label="vertex")
        z0 = ngon.vertex_planes[j - 1]
    else:
        # x(p)^perp is a negative plane; cross(x(p), x(q)) lies in it
        p, q1, q2 = (point_to_vector(data.draw(uhp)) for _ in range(3))
        try:
            z0 = NegativePlane(SPACE_ABC, (cross(p, q1), cross(p, q2)))
        except ValueError:          # p, q1, q2 on one geodesic
            assume(False)
    vertex = certify_window(ngon, z0, 1).kappa
    edge = _edge_kappa(ngon, z0)
    assert vertex >= edge * (1 - 1e-12), (vertex, edge)


def _truncated_oracle(t, n):
    """2 * number of reduced forms of discriminant -n strictly inside the
    height-t truncation (c/a < t^2 + 1/4)."""
    cut = Fraction(t) ** 2 + Fraction(1, 4)
    return 2 * sum(1 for (a, b, c) in reduced_forms(n)
                   if Fraction(c, a) < cut)


def test_series_matches_class_number_oracle():
    series = truncated_class_series(2, 30)
    for n in range(1, 31):
        if n in series.flags:
            continue
        assert series.coeff(n) == _truncated_oracle(2, n), n


def test_series_safety_invariance(funddom):
    # the series does not depend on the window's margin over the proof:
    # the default window (SAFETY = 1.5) and one at safety 3 agree
    s1 = truncated_class_series(2, 15)
    wide = window_at_safety(s1.window, 3.0)
    assert wide.B == 2 * s1.window.B
    s2 = holomorphic_series(LatticeCoset(SPACE_ABC), funddom, 15,
                            window=wide, normalized=True)
    assert s2.window is wide
    assert s1.entries == s2.entries
    assert s1.flags == s2.flags


def test_series_normalization(funddom):
    coset = LatticeCoset(SPACE_ABC)
    window = certify_window(funddom, Z0_ABC, 10)
    raw = holomorphic_series(coset, funddom, 10, window=window)
    norm = holomorphic_series(coset, funddom, 10, window=window,
                              normalized=True)
    for n, c in raw.entries.items():
        assert norm.entries[n] * 4 == c
    assert raw.coeff(8) == 8 and norm.coeff(8) == 2


def test_completion_kernel_matches_e2_sum(funddom):
    # eval returns each row's term at its final weight:
    # (w + sum_j E2) * e^{amp} with amp = -2 pi v Q, capped at 600
    window = certify_window(funddom, Z0_ABC, 2)
    batch = enumerate_coset(LatticeCoset(SPACE_ABC), window)
    kern = _CompletionKernel(funddom)
    v = 0.37
    got = kern.eval(batch, v)
    w = w_invariant(funddom)
    n = funddom.n
    for i in range(min(25, len(batch))):
        q = float(batch.xx_num[i]) / batch.dmu ** 2 / 2.0
        amp = min(-2.0 * math.pi * v * q, 600.0)
        xs = batch.xf[i] * math.sqrt(2.0 * v)
        brute = w + sum(E2(SPACE_ABC, funddom.cs[j],
                           funddom.cs[(j + 1) % n], xs) for j in range(n))
        assert abs(got[i] - brute * math.exp(amp)) < 1e-9 * math.exp(amp), i


@pytest.fixture(scope="module")
def funddom_window(funddom):
    return certify_window(funddom, Z0_ABC, 4)


@pytest.fixture(scope="module")
def funddom_batch(funddom_window):
    """All 32 funddom cosets, as one batch."""
    return enumerate_cosets(SPACE_ABC, disc_group(SPACE_ABC), funddom_window)


@pytest.mark.parametrize("pair_block", [8192, 300])
def test_eval_batches_matches_per_coset(funddom, funddom_window,
                                        funddom_batch, monkeypatch,
                                        pair_block):
    # one eval call makes one cone_sum call, over the rho pairs of every
    # coset of its batch, and changes no bit of any value: the batch of all
    # 32 cosets, each coset's own batch and the batches of groups of
    # consecutive cosets holding about pair_block rho pairs (each over the
    # lcm of its own cosets' denominators) all agree
    calls = []

    def counted(*args, **kwargs):
        calls.append(len(args[1]))
        return cone_sum(*args, **kwargs)

    monkeypatch.setattr(lattice, "cone_sum", counted)
    kern = _CompletionKernel(funddom)
    reps = disc_group(SPACE_ABC)
    alone = [enumerate_coset(LatticeCoset(SPACE_ABC, mu), funddom_window)
             for mu in reps]
    assert len({b.dmu for b in alone}) > 1
    for v in (0.37, 1.3):
        calls.clear()
        joint = kern.eval(funddom_batch, v)
        assert len(calls) == 1 and calls[0] > 0
        assert joint.shape == (len(funddom_batch),)
        for i, batch in enumerate(alone):
            want = kern.eval(batch, v)
            assert want.shape == (len(batch),)
            assert np.array_equal(joint[funddom_batch.coset == i], want)
        assert len(calls) == 1 + len(reps)
        pairs = calls[1:]
        assert calls[0] == sum(pairs)

        groups, start, held = [], 0, 0
        for i, n in enumerate(pairs):
            held += n
            if held >= pair_block or i == len(pairs) - 1:
                groups.append((start, i + 1))
                start, held = i + 1, 0
        calls.clear()
        grouped = [kern.eval(enumerate_cosets(SPACE_ABC, reps[lo:hi],
                                              funddom_window), v)
                   for lo, hi in groups]
        assert len(calls) == len(groups)
        assert np.array_equal(np.concatenate(grouped), joint)


def test_eval_batches_hold_window_rows_only(funddom, funddom_window,
                                            funddom_batch):
    # a completion batch holds exactly the rows with (x,x)_{z0} <= B, no
    # guard band: the B-window inside the 2B-window, decided by Fraction
    # norms; every coset carries nonzero completed terms
    kern = _CompletionKernel(funddom)
    got = kern.eval(funddom_batch, 0.8)
    wide = enumerate_cosets(SPACE_ABC, disc_group(SPACE_ABC), EnumWindow(
        funddom_window.z0, 2 * funddom_window.B, funddom_window.kappa))
    mat = majorant_matrix(SPACE_ABC, funddom_window.z0.span)
    norms = [sum(x[i] * mat[i][j] * x[j] for i in range(3)
                 for j in range(3)) for x in
             ([Fraction(v, wide.dmu) for v in row] for row in wide.xnum)]
    inside = np.array([n <= funddom_window.B for n in norms])
    assert np.array_equal(funddom_batch.xnum, wide.xnum[inside])
    assert np.any(~inside)
    for i in range(32):
        assert np.any(got[funddom_batch.coset == i] != 0)


def test_row_screen_skips_only_bounded_rows(funddom, funddom_batch):
    # a window row is skipped exactly when (|w| + N) e^{amp}, a bound on
    # its completed term, is below e^{RHO_LOG_TOL}; a skipped row gets 0,
    # and every other window row keeps the value it has when no row is
    # skipped
    kern = _CompletionKernel(funddom)
    full = _CompletionKernel(funddom)
    full.log_bound = math.inf                  # skips no row
    bound = abs(w_invariant(funddom)) + funddom.n
    batch = funddom_batch
    skipped = 0
    for v in (0.37, 1.3):
        g = kern.eval(batch, v)
        f = full.eval(batch, v)
        live = np.zeros(len(batch), dtype=bool)
        live[kern._row_terms(batch, v, math.sqrt(2.0 * v))[0]] = True
        amp = np.minimum(-2.0 * math.pi * v * batch.qf, lattice.AMP_CAP)
        small = bound * np.exp(amp) < math.exp(lattice.RHO_LOG_TOL)
        assert np.array_equal(live, ~small)
        skip = small
        skipped += np.count_nonzero(skip)
        assert np.all(g[skip] == 0)
        assert np.all(np.abs(f[skip]) <= bound * np.exp(amp[skip]))
        assert np.array_equal(g[live], f[live])
    assert skipped > 0


def _unscreened_wall_eval(kern, batch, v):
    """kern.eval(batch, v) with every wall term evaluated: the same
    live rows and rho terms, eps and the wall terms
    (s_{k-1}+s_{k+1}) (erf(sqrt(pi) tau_k) - s_k) e^{amp} in full.  Also,
    per row, the number of wall terms that the kernel's screen drops and
    the sum of the magnitudes of the row's terms (its rounding scale)."""
    from scipy.special import erfcx
    ngon, scale = kern.ngon, math.sqrt(2.0 * v)
    live, _, rows, args = kern._row_terms(batch, v, scale)
    amp = np.minimum(-2.0 * math.pi * v * batch.qf[live], lattice.AMP_CAP)
    signs = ngon.sign_matrix(batch.xnum[live])
    t = scale * (batch.xf[live] @ ngon.frames[2].T)
    lead = amp[:, None] - math.pi * t ** 2
    coef = np.roll(signs, 1, axis=1) + np.roll(signs, -1, axis=1)
    walls = coef * np.where(signs != 0, -signs * erfcx(math.sqrt(math.pi)
                                                       * np.abs(t))
                            * np.exp(np.minimum(lead, lattice.AMP_CAP)), 0.0)
    eps = ngon.kernel(signs) * np.exp(amp)
    rho = np.bincount(rows, cone_sum(ngon.frames[0], *args,
                                     cut=-lattice.RHO_LOG_TOL),
                      minlength=len(live))
    out, dropped, size = np.zeros(len(batch)), np.zeros(len(batch)), \
        np.zeros(len(batch))
    out[live] = eps + np.sum(walls, axis=1) + rho
    dropped[live] = np.sum((signs != 0) & (lead < lattice.RHO_LOG_TOL), 1)
    size[live] = np.abs(eps) + np.sum(np.abs(walls), axis=1) + np.abs(rho)
    return out, dropped, size


def test_wall_term_screen_bound(funddom, funddom_batch):
    # a wall term lies within 2 e^{amp - pi tau_k^2}, and the kernel skips
    # it below e^{RHO_LOG_TOL}: a row moves by at most 2N e^{RHO_LOG_TOL},
    # and by rounding, from its value with every wall term evaluated; a row
    # with no term skipped keeps its value bit for bit
    kern = _CompletionKernel(funddom)
    n = funddom.n
    dropped = 0
    for v in (0.37, 1.3):
        got = kern.eval(funddom_batch, v)
        want, drop, size = _unscreened_wall_eval(kern, funddom_batch, v)
        dropped += drop.sum()
        assert np.array_equal(got[drop == 0], want[drop == 0])
        assert np.all(np.abs(got - want) <= 2 * n * math.exp(
            lattice.RHO_LOG_TOL) + n * np.finfo(float).eps * size)
    assert dropped > 1000


@pytest.mark.parametrize("tau", [complex(0.1234, 0.95), complex(-0.4, 0.8),
                                 complex(0.3, 1.25)])
def test_screen_tolerance_moves_theta_little(funddom, monkeypatch, tau):
    # the terms that RHO_LOG_TOL drops (whole rows and rho cones) add up to
    # at most 5e-16 of theta at nmax 6
    got = modularity_check(SPACE_ABC, funddom, tau, 6)["theta"]
    monkeypatch.setattr(lattice, "RHO_LOG_TOL", -60.0)
    ref = modularity_check(SPACE_ABC, funddom, tau, 6)["theta"]
    assert np.max(np.abs(got - ref)) <= 5e-16


PARITY_TAUS = (complex(0.1234, 0.95), complex(-0.31, 1.1))


def completion_window(walls, nmax):
    """The window completion_eval and modularity_check certify by default."""
    return certify_window(walls, minimax_plane(walls.vertex_planes), nmax)


@pytest.fixture(scope="module")
def coset_completions(funddom):
    """completion_eval of each funddom coset at nmax 6, per tau of
    PARITY_TAUS, in disc_group order, in modularity_check's window."""
    reps = disc_group(SPACE_ABC)
    window = completion_window(funddom, 6)
    return reps, {tau: np.array([
        completion_eval(LatticeCoset(SPACE_ABC, mu), funddom, tau, 6,
                        window=window)[0] for mu in reps])
        for tau in PARITY_TAUS}


def test_completion_parity_under_negation(coset_completions):
    # the completion kernel is even, so theta_{-mu} = theta_mu
    reps, vals = coset_completions
    neg = weil_matrices(SPACE_ABC)[3]
    assert len(reps) == 32 and sorted(neg) == list(range(32))
    for i, j in enumerate(neg):
        assert neg[j] == i
        assert all((a + b) % 1 == 0 for a, b in zip(reps[i], reps[j]))
    assert sum(i < j for i, j in enumerate(neg)) == 12
    for theta in vals.values():
        assert np.max(np.abs(theta - theta[neg])) <= 1e-15


def test_modularity_theta_matches_completion_eval(funddom, coset_completions):
    # modularity_check evaluates one coset of each +-mu pair and copies its
    # value to the other; both halves match completion_eval per coset
    _, vals = coset_completions
    for tau, theta in vals.items():
        got = modularity_check(SPACE_ABC, funddom, tau, 6)["theta"]
        assert got.shape == theta.shape
        assert np.max(np.abs(got - theta)) <= 1e-15


def _product_4gon():
    """The (2,2) product 4-gon: intervals (c_1, d_1) = ((1/2, 1), (-1/3, 1))
    in diag(6, -2) and (c_2, d_2) = ((1, 1), (-1/2, 1)) in diag(2, -6),
    C = (c_1+0, 0+c_2, -d_1+0, 0-d_2); eps = (sgn(x,c_1) - sgn(x,d_1))
    (sgn(x,c_2) - sgn(x,d_2)) and w = 0."""
    space = QuadraticSpace([[6, 0, 0, 0], [0, -2, 0, 0], [0, 0, 2, 0],
                            [0, 0, 0, -6]])
    half, third = Fraction(1, 2), Fraction(1, 3)
    return validate(space, ((half, 1, 0, 0), (0, 0, 1, 1), (third, -1, 0, 0),
                            (0, 0, half, -1)))


def _plane_kappa(planes, plane):
    return float(np.max(_kappas(_majorants([plane])[0], _majorants(planes))))


@pytest.mark.parametrize("name, ratio", [("funddom", 0.45), ("product", 0.2),
                                         ("butterfly", 1.0)])
def test_minimax_plane_lowers_kappa(name, ratio):
    walls = {"funddom": fundamental_ngon(2), "product": _product_4gon(),
             "butterfly": butterfly_ngon()}[name]
    planes = walls.vertex_planes
    z0 = minimax_plane(planes)
    assert minimax_plane(planes).span == z0.span          # deterministic
    first = _plane_kappa(planes, planes[0])
    assert _plane_kappa(planes, z0) <= ratio * first
    # the window's kappa is the same routine's, times SAFETY
    window = completion_window(walls, 6)
    assert window.z0 is not planes[0]
    assert SAFETY == 1.5
    assert window.kappa == SAFETY * _plane_kappa(planes, window.z0)
    assert certify_window(walls, None, 6).kappa == SAFETY * first


def test_completion_window_invariance(funddom):
    # the completion does not depend on the base plane beyond the tails:
    # about the first vertex plane and about minimax_plane, every coset's
    # value agrees within the sum of both tails
    tau = complex(0.1234, 0.95)
    windows = (certify_window(funddom, None, 6),
               completion_window(funddom, 6))
    assert windows[1].kappa < 0.45 * windows[0].kappa
    for mu in disc_group(SPACE_ABC):
        coset = LatticeCoset(SPACE_ABC, mu)
        (a, ta), (b, tb) = (completion_eval(coset, funddom, tau, 6, window=w)
                            for w in windows)
        assert abs(a - b) <= ta + tb + 1e-15, mu
        assert tb < ta


def test_folded_batch_matches_full_sum(funddom):
    # a coset with 2 mu in L is enumerated for an even kernel as x = 0 and
    # one row of each +-x pair, counted twice; its value is the full batch's
    # sum up to rounding, and its count (for the tail) is the full
    # enumeration's
    window = completion_window(funddom, 6)
    kern = _CompletionKernel(funddom)
    tau = complex(-0.31, 1.1)
    folded = 0
    for mu in disc_group(SPACE_ABC):
        if any((2 * c).denominator != 1 for c in mu):
            continue
        folded += 1
        full = enumerate_coset(LatticeCoset(SPACE_ABC, mu), window)
        half = enumerate_coset(LatticeCoset(SPACE_ABC, mu), window, even=True)
        assert np.sum(half.mult) == len(full)
        assert 2 * len(half) - len(full) == int(not any(mu))    # x = 0 in L
        assert np.array_equal(half.mult == 1, np.all(half.xnum == 0, axis=1))
        scaled = kern.eval(full, tau.imag)
        terms = scaled * np.exp(2j * math.pi * tau.real * full.qf)
        got, tail = completion_eval(LatticeCoset(SPACE_ABC, mu), funddom,
                                    tau, 6)
        assert abs(got - np.sum(terms)) <= len(full) * np.finfo(float).eps \
            * np.sum(np.abs(terms)), mu
        assert tail == _tail_estimate(full, window, funddom.n, 1.1)[0]
    assert folded == 8


def _tail_oracle(count, window, n_edges, v):
    """2N * 4 * max(count, 1) (m/2) / B^{m/2} * Gamma(m/2) lam^{-m/2}
    Q(m/2, lam B), lam = pi v / kappa, the tail of a coset holding `count`
    vectors with (x,x)_{z0} <= B."""
    import mpmath
    m, b = window.z0.space.dim, float(window.B)
    lam = math.pi * v / window.kappa
    return float(8 * n_edges * max(count, 1) * (m / 2) / max(b, 1) ** (m / 2)
                 * mpmath.gammainc(m / 2, lam * b) / lam ** (m / 2))


def test_tail_estimate_counts_window_rows_only(funddom):
    # the density is calibrated against B^{m/2}, so only rows with
    # (x,x)_{z0} <= B may count: every row of a completion batch lies in
    # the window, and each coset's tail counts its vectors (a folded row
    # twice) against the window's B, on full and on even (folded) batches
    window = completion_window(funddom, 6)
    mat = majorant_matrix(SPACE_ABC, window.z0.span)
    for mu in disc_group(SPACE_ABC):
        full = enumerate_coset(LatticeCoset(SPACE_ABC, mu), window)
        assert all(sum(x[i] * mat[i][j] * x[j] for i in range(3)
                       for j in range(3)) <= window.B for x in
                   ([Fraction(v, full.dmu) for v in row] for row in full.xnum))
        for batch in (full, enumerate_coset(LatticeCoset(SPACE_ABC, mu),
                                            window, even=True)):
            count = int(np.sum(np.broadcast_to(batch.mult, len(batch))))
            assert count == len(full)
            got = _tail_estimate(batch, window, funddom.n, 0.95)[0]
            assert got == pytest.approx(
                _tail_oracle(count, window, funddom.n, 0.95), rel=1e-12)


def test_tail_estimate_of_an_empty_batch(funddom):
    # the dimension of the tail's density comes from the window's space,
    # not from the width of the batch's rows: an empty batch counts as one
    # vector in dimension 3, like the lone x = 0 of mu = 0
    tau = complex(0.1234, 0.95)
    window = completion_window(funddom, 0)
    empty = LatticeCoset(SPACE_ABC, (0, 0, Fraction(1, 4)))
    assert len(enumerate_coset(empty, window)) == 0
    assert len(enumerate_coset(LatticeCoset(SPACE_ABC), window)) == 1
    assert completion_eval(empty, funddom, tau, 0)[1] \
        == completion_eval(LatticeCoset(SPACE_ABC), funddom, tau, 0)[1]


def _shift_kernel(monkeypatch, ngon, offset):
    """Corrupt ngon's kernel by a constant, as a wrong w would."""
    kernel = ngon.kernel
    monkeypatch.setattr(ngon, "kernel", lambda signs: kernel(signs) + offset)


def test_product_modularity_at_m4(monkeypatch):
    # the (2,2) product 4-gon, 144 cosets: the completion is modular to
    # rounding, its theta is not identically zero (every coset's series
    # vanishing would pass the defects trivially), a wrong w breaks S, and
    # the minimax window keeps the check fast
    ngon = _product_4gon()
    tau = complex(0.1234, 0.95)
    start = time.perf_counter()
    report = modularity_check(ngon.space, ngon, tau, 6)
    elapsed = time.perf_counter() - start
    assert len(report["theta"]) == 144
    assert report["t_defect"] <= 1e-12 and report["s_defect"] <= 1e-12
    assert np.max(np.abs(report["theta"])) >= 0.05
    _shift_kernel(monkeypatch, ngon, 4)
    assert modularity_check(ngon.space, ngon, tau, 6)["s_defect"] >= 1e3
    assert elapsed < 5.0


# SPACE_ABC + <2>: the funddom walls padded by a zero coordinate, and the
# same space under a fixed unimodular change of basis x = U x'
SPLIT_GRAM = [[0, 0, 4, 0], [0, -2, 0, 0], [4, 0, 0, 0], [0, 0, 0, 2]]
SPLIT_U = [[1, 1, 0, 0], [1, 2, 0, 1], [0, 1, 1, 2], [1, 1, 1, 2]]


def _split_ngon(funddom, u):
    """The padded funddom walls in the basis x = u x': Gram u^T G u and
    walls u^{-1} c, so that (u x', u^{-1} c)' = (x', c)."""
    gram = [[sum(u[k][i] * SPLIT_GRAM[k][l] * u[l][j] for k in range(4)
                 for l in range(4)) for j in range(4)] for i in range(4)]
    ui = mat_inv(u)
    cs = [[sum(ui[i][k] * c[k] for k in range(4)) for i in range(4)]
          for c in (tuple(c) + (0,) for c in funddom.cs)]
    return validate(QuadraticSpace(gram), cs)


def _assert_same_series(got, want):
    # want: {n: c(n)}; cancelled exponents keep a zero entry, so compare
    # over the union
    for n in set(got.entries) | set(want):
        assert got.coeff(n) == want.get(n, 0), n


def test_split_space_series_factorises(funddom):
    # theta_{(mu, m)} of L_3 + <2> is theta_mu of L_3 times the definite
    # theta sum_{y in m + Z} q^{y^2}, m in {0, 1/2}, on all 64 cosets
    nmax = 12
    ngon = _split_ngon(funddom, np.eye(4, dtype=int).tolist())
    reps = disc_group(ngon.space)
    assert len(reps) == 64
    base = {mu: holomorphic_series(LatticeCoset(SPACE_ABC, mu), funddom, nmax)
            for mu in disc_group(SPACE_ABC)}
    nonzero = 0
    for mu in reps:
        want = {}
        r = math.isqrt(nmax) + 1
        for n3, c in base[mu[:3]].entries.items():
            for n in (n3 + (mu[3] + k) ** 2 for k in range(-r, r + 1)):
                if n <= nmax:
                    want[n] = want.get(n, 0) + c
        got = holomorphic_series(LatticeCoset(ngon.space, mu), ngon, nmax)
        _assert_same_series(got, want)
        nonzero += sum(c != 0 for c in got.entries.values())
    assert nonzero >= 500


def test_split_space_series_basis_invariant(funddom):
    # x' in mu' + Z^4 is x = U x' in U mu' + Z^4: theta'_{mu'} = theta_{U mu'}
    nmax = 8
    assert abs(mat_det(SPLIT_U)) == 1
    ngon = _split_ngon(funddom, np.eye(4, dtype=int).tolist())
    moved = _split_ngon(funddom, SPLIT_U)
    nonzero = 0
    for mu in disc_group(moved.space):
        orig = tuple(sum(SPLIT_U[i][k] * mu[k] for k in range(4)) % 1
                     for i in range(4))
        got = holomorphic_series(LatticeCoset(moved.space, mu), moved, nmax)
        want = holomorphic_series(LatticeCoset(ngon.space, orig), ngon, nmax)
        _assert_same_series(got, want.entries)
        nonzero += sum(c != 0 for c in got.entries.values())
    assert nonzero >= 300


def _tilted_polygon(funddom):
    """funddom padded into SPACE_ABC + <2> and tilted off the split,
    C_j + t_j e_4 with t = (1/3, -1/4, 1/5, -1/2): a (2,2) polygon with
    w = 0 that is no product."""
    ts = (Fraction(1, 3), Fraction(-1, 4), Fraction(1, 5), Fraction(-1, 2))
    return validate(QuadraticSpace(SPLIT_GRAM),
                    [tuple(c) + (t,) for c, t in zip(funddom.cs, ts)])


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_eps_vanishes_on_nonpositive_vectors_at_m4(funddom, data):
    # the band-limited series at m = 4 keep only 0 <= Q(x): eps must vanish
    # on every x != 0 with (x, x) <= 0 of the tilted (2,2) polygon and the
    # product 4-gon; isotropic x = (y,y) e - 2 (e,y) y from an isotropic e
    tilted = data.draw(st.booleans(), label="tilted")
    ngon = _tilted_polygon(funddom) if tilted else _product_4gon()
    space = ngon.space
    y = tuple(data.draw(st.lists(st.fractions(-6, 6, max_denominator=5),
                                 min_size=4, max_size=4), label="y"))
    if data.draw(st.booleans(), label="isotropic"):
        e = (1, 0, 0, 0) if tilted else (1, 1, 1, 1)
        assert space.inner(e, e) == 0
        x = tuple(space.inner(y, y) * a - 2 * space.inner(e, y) * b
                  for a, b in zip(e, y))
        assert space.inner(x, x) == 0
    else:
        x = y
    assume(any(x) and space.inner(x, x) <= 0)
    assert epsilon(ngon, x).eps == 0


def _linking_cell(name, funddom):
    """funddom, the butterfly, a recovered square, funddom in SPACE_E
    coordinates and padded into SPACE_ABC + <2>, the tilted (2,2) polygon
    and the (2,2) product 4-gon."""
    if name == "square":
        return recover_ngon([(-1, 1), (1, 1), (Fraction(3, 2), 3),
                             (Fraction(-3, 2), 3)])
    if name == "funddom_e":
        return validate(SPACE_E, [abc_to_e(c) for c in funddom.cs])
    if name == "padded":
        return _split_ngon(funddom, np.eye(4, dtype=int).tolist())
    if name == "tilted":
        return _tilted_polygon(funddom)
    return {"funddom": funddom, "butterfly": butterfly_ngon(),
            "product": _product_4gon()}[name]


@pytest.mark.parametrize("name", ["funddom", "butterfly", "square",
                                  "funddom_e", "padded", "tilted", "product"])
def test_eps_is_four_linking_numbers(name, funddom):
    # the paper's coefficient theorem as an exact oracle: eps(x) = 4 link(x)
    # at every regular x with Q(x) > 0, in signature (1,2) and (2,2); each
    # polygon draws eps = 0 and eps != 0, and a point on the wall C_1 raises
    ngon = _linking_cell(name, funddom)
    space, seen, g = ngon.space, {}, ngon._gram
    # det M_j > 0 at every vertex, as linking_number's docstring argues
    assert all(g[j][0] * g[k][1] - g[j][1] * g[k][0] > 0
               for j, k in ngon.vertices.tolist())

    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(st.lists(st.builds(Fraction, st.integers(-24, 24),
                              st.integers(1, 4)),
                    min_size=space.dim, max_size=space.dim))
    def check(x):
        assume(space.q(x) > 0 and all(ngon.signs(x)))
        eps = epsilon(ngon, x).eps
        assert eps == 4 * linking_number(ngon, x), x
        seen[eps != 0] = x

    check()
    assert sorted(seen) == [False, True]
    x = project_perp(space, seen[True], ngon.cs[0])      # on the wall C_1
    assert space.q(x) > 0 and not epsilon(ngon, x).regular
    with pytest.raises(ValueError, match="not regular"):
        linking_number(ngon, x)


def test_tilted_polygon_modularity_at_m4(funddom, monkeypatch):
    # the tilted polygon, 64 cosets: modular to rounding, theta not
    # identically zero, a wrong w breaks S, and the check stays fast
    ngon = _tilted_polygon(funddom)
    assert w_invariant(ngon) == 0
    tau = complex(0.1234, 0.95)
    start = time.perf_counter()
    report = modularity_check(ngon.space, ngon, tau, 6)
    elapsed = time.perf_counter() - start
    assert len(report["theta"]) == 64
    assert report["t_defect"] <= 1e-12 and report["s_defect"] <= 1e-12
    assert np.max(np.abs(report["theta"])) >= 0.05
    _shift_kernel(monkeypatch, ngon, 4)
    assert modularity_check(ngon.space, ngon, tau, 6)["s_defect"] >= 1e3
    assert elapsed < 5.0


def _batch_case(name, funddom, seed_dodec):
    """(space, cosets, window) of a batch of all cosets: funddom, the (2,2)
    product, funddom padded into SPACE_ABC + <2>, the seed dodecahedron,
    and funddom in a window so small that most cosets hold no row."""
    if name == "dodec":
        return seed_dodec.space, certify_window(seed_dodec, None, 3)
    walls = {"funddom": funddom, "empty": funddom,
             "product": _product_4gon(),
             "split": _split_ngon(funddom, np.eye(4, dtype=int).tolist())}[
                 name]
    window = completion_window(walls, 1 if name in ("product", "split")
                               else 6)
    if name == "empty":     # B = 3/5: cosets 0, 1, 3, 8, 9, 24, 27 hold rows
        window.B = Fraction(3, 5)
    return walls.space, window


@pytest.mark.parametrize("qmax", [None, 2])
@pytest.mark.parametrize("name, cosets", [
    ("funddom", 32), ("product", 144), ("split", 64), ("dodec", 16),
    ("empty", 32)])
def test_enumerate_cosets_matches_per_coset(funddom, seed_dodec, name,
                                            cosets, qmax):
    # each coset's contiguous rows of one batch over the lcm of all the
    # cosets' denominators are that coset enumerated alone, the same
    # rationals in the same order, with the same window split, floats and,
    # enumerated for an even kernel, multiplicities
    space, window = _batch_case(name, funddom, seed_dodec)
    reps = disc_group(space)
    assert len(reps) == cosets
    batch = enumerate_cosets(space, reps, window, qmax)
    half = enumerate_cosets(space, reps, window, qmax, even=True)
    assert np.all(np.diff(batch.coset) >= 0) and len(batch.munum) == cosets
    sizes = []
    for i, mu in enumerate(reps):
        alone = enumerate_coset(LatticeCoset(space, mu), window, qmax)
        s = batch.dmu // alone.dmu
        assert s * alone.dmu == batch.dmu
        rows = batch.coset == i
        assert np.array_equal(batch.xnum[rows], alone.xnum * s)
        assert np.array_equal(batch.xx_num[rows], alone.xx_num * s * s)
        assert np.array_equal(batch_ks(batch)[rows], batch_ks(alone))
        assert np.array_equal(batch.xf[rows], alone.xf)
        assert np.array_equal(batch.qf[rows], alone.qf)
        folded = enumerate_coset(LatticeCoset(space, mu), window, qmax,
                                 even=True)
        rows = half.coset == i
        assert np.array_equal(half.xnum[rows], folded.xnum * s)
        assert np.array_equal(half.mult[rows],
                              np.broadcast_to(folded.mult, len(folded)))
        sizes.append(len(alone))
    assert sum(sizes) == len(batch) and max(sizes) > 0
    if name != "empty":
        assert min(sizes) > 0 or qmax is not None
        return
    # a coset with no row is worth 0, and its tail counts one vector, like
    # the lone x = 0 of mu = 0
    empty = [i for i, n in enumerate(sizes) if n == 0]
    assert sizes[0] == 1 and len(empty) >= 10 and len(empty) < cosets - 5
    tau = complex(0.1234, 0.95)
    vals = _completion_sum(half, _CompletionKernel(funddom).eval(
        half, tau.imag), tau)
    tails = _tail_estimate(half, window, funddom.n, tau.imag)
    assert np.all(vals[empty] == 0) and np.any(vals != 0)
    assert np.all(tails[empty] == tails[0])


def test_modularity_check_is_one_batch(funddom, monkeypatch):
    # one enumeration, one set of Weil matrices (with the negation index),
    # and one _row_terms and one cone_sum call per Im tau (tau and tau + 1
    # share theirs)
    calls = {"enum": 0, "weil": 0, "rows": 0, "cone": 0}

    def counting(key, fn):
        def counted(*args, **kwargs):
            calls[key] += 1
            return fn(*args, **kwargs)
        return counted

    want = modularity_check(SPACE_ABC, funddom, complex(0.1234, 0.95), 6)
    monkeypatch.setattr(lattice, "_fp_enumerate",
                        counting("enum", lattice._fp_enumerate))
    monkeypatch.setattr(lattice, "weil_matrices",
                        counting("weil", lattice.weil_matrices))
    monkeypatch.setattr(lattice, "cone_sum", counting("cone", cone_sum))
    monkeypatch.setattr(_CompletionKernel, "_row_terms", counting(
        "rows", _CompletionKernel._row_terms))
    got = modularity_check(SPACE_ABC, funddom, complex(0.1234, 0.95), 6)
    assert calls == {"enum": 1, "weil": 1, "rows": 2, "cone": 2}
    assert np.array_equal(got["theta"], want["theta"])
    assert got["s_defect"] == want["s_defect"]


def test_completion_approaches_holomorphic_part(funddom):
    # as v grows the completion tends to the holomorphic series plus the
    # v-independent x = 0 term (the Gaussian wall masses at the origin)
    coset = LatticeCoset(SPACE_ABC)
    nmax = 6
    window = certify_window(funddom, Z0_ABC, nmax)
    tau = complex(0.3, 5.0)
    val, tail = completion_eval(coset, funddom, tau, nmax, window=window)
    series = holomorphic_series(coset, funddom, nmax, window=window)
    ref = sum(c * np.exp(2j * math.pi * tau * float(n))
              for n, c in series.entries.items() if c != 0)
    k0 = sum(E2(SPACE_ABC, funddom.cs[j], funddom.cs[(j + 1) % 4],
                np.zeros(3)) for j in range(4))
    assert abs(val - ref - k0) < 1e-5
    assert tail < 1e-8


def test_completion_rejects_lower_half_plane(funddom):
    with pytest.raises(ValueError):
        completion_eval(LatticeCoset(SPACE_ABC), funddom,
                        complex(0.0, -1.0), 4)
    with pytest.raises(ValueError, match="upper half plane"):
        modularity_check(SPACE_ABC, funddom, complex(0.1, 0.0), 2)


def test_weil_sanity(space_e, space_abc):
    for sp in (space_e, space_abc):
        uni, comp = weil_sanity(sp, weil_matrices(sp))
        assert uni < 1e-12
        assert comp < 1e-12


def test_weil_t_matrix(space_e):
    reps, tdiag, _, _ = weil_matrices(space_e)
    for mu, t in zip(reps, tdiag):
        want = np.exp(2j * math.pi * float(space_e.q(mu)))
        assert abs(t - want) < 1e-14


def test_modularity_small(funddom):
    report = modularity_check(SPACE_ABC, funddom, complex(0.0, 1.0), 8)
    assert report["t_defect"] < 1e-8
    assert report["s_defect"] < 1e-3
    assert report["weil_unitarity"] < 1e-12


def test_thread_count_determinism(funddom, monkeypatch):
    coset = LatticeCoset(SPACE_ABC)
    window = certify_window(funddom, Z0_ABC, 8)
    tau = complex(0.21, 0.9)
    vals = []
    for nt in ("1", "2", "8"):
        monkeypatch.setenv("NGON_THETA_THREADS", nt)
        val, _ = completion_eval(coset, funddom, tau, 8, window=window)
        vals.append(val)
    assert vals[0] == vals[1] == vals[2]


def test_qexpansion_coeff_accessor():
    qe = QExpansion(mu=(0, 0, 0), nmax=Fraction(5), qden=2, exps=[6],
                    nums=[4])
    assert qe.entries == {Fraction(3): 4}
    assert qe.coeff(3) == 4
    assert qe.coeff(Fraction(3)) == 4
    assert qe.coeff(2) == 0
    assert qe.coeff(Fraction(7, 2)) == 0
    assert type(qe.coeff(3)) is int
    eighths = QExpansion(mu=(0, 0, 0), nmax=Fraction(5), qden=2, exps=[6],
                         nums=[4], den=8)
    assert eighths.coeff(3) == Fraction(1, 2)
    assert type(eighths.coeff(3)) is Fraction


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_majorant_filter_matches_fraction_filter(data):
    # int64 rows (small) and Python-int rows (past 2^40, so |q| overflows
    # int64), with the bound drawn or set exactly to some row's value
    m = data.draw(st.integers(2, 4))
    big = data.draw(st.booleans())
    lim = 2 ** 41 if big else 40
    ent = st.fractions(-20, 20, max_denominator=9)
    mat = [[Fraction(0)] * m for _ in range(m)]
    for i in range(m):
        for j in range(i, m):
            mat[i][j] = mat[j][i] = data.draw(ent)
    mu = [data.draw(st.fractions(0, 1, max_denominator=6)) % 1
          for _ in range(m)]
    rows = data.draw(st.lists(st.lists(st.integers(-lim, lim), min_size=m,
                                       max_size=m), min_size=1, max_size=30))

    def qform(k):
        x = [ki + mi for ki, mi in zip(k, mu)]
        return sum(x[i] * mat[i][j] * x[j] for i in range(m) for j in range(m))

    if data.draw(st.booleans()):
        bound = qform(rows[data.draw(st.integers(0, len(rows) - 1))])
    else:
        bound = data.draw(st.fractions(-10, 10 ** 6, max_denominator=50))
    dmu, munum = _over_lcm(mu)
    xnum = np.array(rows, dtype=np.int64) * dmu + munum
    got = _majorant_leq(xnum, dmu, int_majorant(mat), bound)
    assert got.dtype == bool
    assert list(got) == [qform(k) <= bound for k in rows]


def _int_rows(data, m, lim, edge):
    """1..12 integer rows with entries in [-lim, lim]; with `edge` the first
    entry is +-lim, so the magnitude bound is attained."""
    rows = data.draw(st.lists(st.lists(st.integers(-lim, lim), min_size=m,
                                       max_size=m), min_size=1, max_size=12))
    if edge:
        rows[0][0] = data.draw(st.sampled_from([lim, -lim]))
    return rows


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_int64_batch_arithmetic_matches_python_ints(data):
    # rows small, at the largest magnitude each helper's int64 bound admits,
    # or past it (whose products overflow int64 and must take the object
    # path); up to the bound the helpers stay on int64
    m = data.draw(st.integers(2, 4))
    gram = [[0] * m for _ in range(m)]
    for i in range(m):
        for j in range(i, m):
            gram[i][j] = gram[j][i] = data.draw(st.integers(-6, 6))
    assume(any(any(row) for row in gram))
    scale = data.draw(st.sampled_from(["small", "edge", "big"]))
    cs = [[data.draw(st.fractions(-2 ** 20, 2 ** 20, max_denominator=12)
                     if scale == "big" else
                     st.fractions(-9, 9, max_denominator=12))
           for _ in range(m)] for _ in range(data.draw(st.integers(1, 4)))]
    # integer wall rows G r_j, C_j = r_j / d_j, as _Walls.sign_matrix reads
    gc = [[sum(g * r for g, r in zip(row, _over_lcm(c)[1])) for row in gram]
          for c in cs]
    assume(any(any(r) for r in gc))
    row_l1 = max(sum(abs(v) for v in r) for r in gc)
    sum_g = sum(abs(v) for row in gram for v in row)
    sign_lim = {"small": 50, "big": 2 ** 62,
                "edge": (2 ** 63 - 1) // row_l1}[scale]
    xx_lim = {"small": 50, "big": 2 ** 40,
              "edge": math.isqrt((2 ** 63 - 1) // sum_g)}[scale]

    rows = _int_rows(data, m, sign_lim, scale == "edge")
    vals = _int_product(np.array(rows, dtype=np.int64), gc)
    assert [[int(v) for v in row] for row in vals] == \
        [[sum(a * b for a, b in zip(x, g)) for g in gc] for x in rows]
    if scale != "big":
        assert vals.dtype == np.int64

    rows = _int_rows(data, m, xx_lim, scale == "edge")
    norms = _row_norms(np.array(rows, dtype=np.int64), gram)
    assert [int(v) for v in norms] == [
        sum(x[i] * gram[i][j] * x[j] for i in range(m) for j in range(m))
        for x in rows]
    if scale != "big":
        assert norms.dtype == np.int64

    if scale == "edge":
        # rows that attain each bound: exactly at it on int64, one past it
        # (every sum overflows int64) on Python ints
        g = max(gc, key=lambda r: sum(map(abs, r)))
        for t in (sign_lim, sign_lim + 1):
            if t >= 2 ** 63:            # not an int64 row
                continue
            x = [t * ((v > 0) - (v < 0)) for v in g]
            assert int(_int_product(np.array([x]), [g])[0, 0]) == t * row_l1
        absg = [[abs(v) for v in row] for row in gram]
        for t in (xx_lim, xx_lim + 1):
            assert int(_row_norms(np.array([[t] * m]), absg)[0]) \
                == t * t * sum_g


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_sign_matrix_matches_signs(seed_dodec, data):
    # a random 3-6-gon in SPACE_ABC or the seed dodecahedron; rows small,
    # orthogonal to a wall (sign 0), at the largest magnitude the int64
    # bound of _int_product admits, or one past it (Python ints)
    if data.draw(st.booleans(), label="dodec"):
        walls = seed_dodec
    else:
        try:
            walls = recover_ngon(data.draw(st.lists(uhp, min_size=3,
                                                    max_size=6)))
        except ValueError:          # OrientationError, or collinear vertices
            assume(False)
    m = walls.space.dim
    lim = (2 ** 63 - 1) // max(sum(abs(v) for v in g) for g in walls._gc)
    rows = data.draw(st.lists(st.lists(st.integers(-30, 30), min_size=m,
                                       max_size=m), min_size=1, max_size=8))
    for j in data.draw(st.lists(st.integers(0, len(walls.cs) - 1),
                                max_size=3), label="orthogonal to C_j"):
        g = walls._gc[j]
        rows.append([g[1], -g[0]] + [0] * (m - 2))
    big = data.draw(st.sampled_from([b for b in (0, lim, lim + 1)
                                     if b < 2 ** 63]), label="magnitude")
    if big:
        rest = st.lists(st.integers(-big, big), min_size=m - 1,
                        max_size=m - 1)
        rows.append([data.draw(st.sampled_from([big, -big]))]
                    + data.draw(rest))
        # +-big times the signs of a wall row attains the bound there
        g = walls._gc[data.draw(st.integers(0, len(walls.cs) - 1))]
        rows.append([big * ((v > 0) - (v < 0)) for v in g])
    got = walls.sign_matrix(np.array(rows, dtype=np.int64))
    assert got.dtype == np.int64
    assert got.tolist() == [walls.signs(x) for x in rows]
    assert got.tolist() == [[(v > 0) - (v < 0) for v in
                             (walls.space.inner(vec(x), c) for c in walls.cs)]
                            for x in rows]


def _row_loop_series(batch, signs, num, den, nmax):
    """Reference: the per-row Fraction loop that the series driver replaced,
    over a window's rows.  Returns (entries, flags)."""
    regular = np.all(signs != 0, axis=1)
    entries, flags = {}, set()
    for i in range(len(num)):
        qx = Fraction(int(batch.xx_num[i]), 2 * batch.dmu ** 2)
        if qx < 0 or qx > nmax:
            continue
        if not regular[i] and qx > 0:
            flags.add(qx)
        if num[i] != 0:
            entries[qx] = entries.get(qx, 0) + Fraction(int(num[i]), den)
    return dict(sorted(entries.items())), flags


def _eps_num(ngon, signs):
    return w_invariant(ngon) + np.einsum('ij,ij->i', signs,
                                         np.roll(signs, -1, axis=1))


def _p8_num(dodec, signs):
    trip = np.zeros(len(signs), dtype=np.int64)
    for (i, u, v) in dodec.comb.vertices:
        trip += signs[:, i] * signs[:, u] * signs[:, v]
    dv = 8 * dodec_D_kernel(dodec,
                            regular_negative_vector(dodec.space, dodec.cs))
    return trip + signs @ np.array(dodec.face_w) - int(dv)


def _series_input(case, funddom, seed_dodec):
    """(polygon, series function of (coset, nmax), kernel numerators from
    signs, denominator) for one parametrized case."""
    if case.startswith("dodec"):
        dd = seed_dodec
        if case == "dodec4":    # a coset whose P coefficients do not cancel
            sp4 = QuadraticSpace([[4, 0, 0, 0], [0, -2, 0, 0],
                                  [0, 0, -2, 0], [0, 0, 0, -2]])
            dd = validate_dodec(sp4, seed_construction(
                sp4, ((0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1)),
                (1, 0, 0, 0), [Fraction(a + 3, 40) for a in range(12)]))
        return (dd, lambda c, n: dodec_series(c, dd, n),
                lambda s: _p8_num(dd, s), 8)
    ngon = {"butterfly": butterfly_ngon(),
            "triangle": recover_ngon([(0, 1), (1, 1), (0, 2)])}.get(case,
                                                                 funddom)
    normalized = case == "normalized"
    return (ngon, lambda c, n: holomorphic_series(c, ngon, n,
                                                  normalized=normalized),
            lambda s: _eps_num(ngon, s), 4 if normalized else 1)


@pytest.mark.parametrize("case, mu, nmax, cancelled", [
    ("raw", None, 12, None),
    ("normalized", None, 12, None),
    ("raw", (Fraction(1, 4), Fraction(1, 2), Fraction(1, 4)), 12, None),
    ("normalized", (Fraction(1, 2), 0, Fraction(1, 2)), 12, None),
    ("butterfly", None, 30, Fraction(16)),
    ("triangle", None, 12, None),        # w = 1, so x = 0 gives exponent 0
    ("dodec", None, 2, Fraction(1)),
    ("dodec4", (Fraction(1, 4), 0, 0, 0), 4, None),
])
def test_series_driver_matches_row_loop(case, mu, nmax, cancelled, funddom,
                                        seed_dodec):
    poly, series, num, den = _series_input(case, funddom, seed_dodec)
    coset = LatticeCoset(poly.space, mu)
    qe = series(coset, nmax)
    batch = enumerate_coset(coset, qe.window)
    signs = poly.sign_matrix(batch.xnum)
    entries, flags = _row_loop_series(batch, signs, num(signs), den,
                                      Fraction(nmax))
    assert entries
    # the guard-band oracle: no supported x between B and 2B
    assert guard_band_hits(poly, coset, qe.window, Fraction(nmax)) == []
    assert list(qe.entries.items()) == list(entries.items())
    assert [type(c) for c in qe.entries.values()] == \
        [int if den == 1 else Fraction] * len(entries)
    assert qe.flags == flags
    assert qe.normalized == (case == "normalized")
    if cancelled is not None:
        # an exponent whose kernel-supported terms cancel keeps its entry
        assert qe.entries[cancelled] == 0


def test_series_fold_matches_unfolded_sum(funddom, seed_dodec, monkeypatch):
    # an N-gon series enumerates x = 0 and one x of each +-x pair of a coset
    # with 2 mu in L, weighting eps by mult: its entries and flags are those
    # of the unfolded batch summed row by row.  A dodecahedral series (odd
    # level) enumerates every x, at mult 1
    batches = []
    enum = lattice.enumerate_coset

    def spy(*args, **kwargs):
        batches.append(enum(*args, **kwargs))
        return batches[-1]

    monkeypatch.setattr(lattice, "enumerate_coset", spy)
    nmax, cases = Fraction(12), 0
    for ngon in (funddom, butterfly_ngon()):
        for mu in disc_group(SPACE_ABC):
            if any((2 * c).denominator != 1 for c in mu):
                continue
            cases += 1
            coset = LatticeCoset(SPACE_ABC, mu)
            qe = holomorphic_series(coset, ngon, nmax)
            half, full = batches[-1], enum(coset, qe.window, qmax=nmax)
            assert np.sum(half.mult) == len(full)
            assert 2 * len(half) - len(full) == int(not any(mu))
            signs = ngon.sign_matrix(full.xnum)
            entries, flags = _row_loop_series(full, signs,
                                              ngon.kernel(signs), 1, nmax)
            assert list(qe.entries.items()) == list(entries.items()), mu
            assert qe.flags == flags, mu
    assert cases == 16
    batches.clear()
    coset = LatticeCoset(seed_dodec.space, (Fraction(1, 2), 0, 0, 0))
    qe = dodec_series(coset, seed_dodec, 2)
    assert batches and all(np.all(b.mult == 1) for b in batches)
    assert np.array_equal(batches[-1].xnum,
                          enum(coset, qe.window, qmax=2).xnum)


def _small_window(z0):
    # B = 9 about (E2, E3): the eps-supported x = (1, 1, 1) with Q = 3 has
    # (x,x)_{z0} = 10 and lies outside it
    return EnumWindow(z0=z0, B=Fraction(9), kappa=1.0)


@pytest.mark.parametrize("mu", [None, (Fraction(1, 2), 0, 0),
                                (Fraction(1, 4), Fraction(1, 2),
                                 Fraction(1, 4))])
def test_window_split_is_exact(mu):
    # the batch is the rows with (x,x)_{z0} <= B exactly: those of the
    # 2B-window with Fraction norms <= B, with B set to the norm of an
    # enumerated row so that some rows lie on the boundary
    coset = LatticeCoset(SPACE_ABC, mu)
    z0 = NegativePlane(SPACE_ABC, (E2_ABC, E3_ABC))
    mat = majorant_matrix(SPACE_ABC, z0.span)

    def norms(batch):
        xs = [[Fraction(int(v), batch.dmu) for v in row] for row in batch.xnum]
        return [sum(x[i] * mat[i][j] * x[j] for i in range(3)
                    for j in range(3)) for x in xs]

    b = sorted(norms(enumerate_coset(coset, _small_window(z0))))[10]
    batch = enumerate_coset(coset, EnumWindow(z0=z0, B=b, kappa=1.0))
    got = norms(batch)
    assert got.count(b) >= 1 and max(got) == b
    wide = enumerate_coset(coset, EnumWindow(z0=z0, B=2 * b, kappa=1.0))
    assert len(wide) > len(batch)
    assert batch.xnum.tolist() == [row for row, n in zip(
        wide.xnum.tolist(), norms(wide)) if n <= b]


def test_unproved_window_raises(funddom, monkeypatch):
    # B = 9 at nmax 6 proves nothing (B/(2 nmax) < 1), and the guard-band
    # oracle finds eps-supported x beyond it: the series refuses the window
    # before it enumerates anything, and certifies no other window
    coset = LatticeCoset(SPACE_ABC)
    assert guard_band_hits(funddom, coset, _small_window(Z0_ABC), 6)

    def unused(*args, **kwargs):
        raise AssertionError("a window was certified or enumerated")

    monkeypatch.setattr(lattice, "certify_window", unused)
    monkeypatch.setattr(lattice, "enumerate_coset", unused)
    with pytest.raises(CertificationError, match="series window B = 9 not "
                       "proved for nmax = 6 at vertex plane 0"):
        holomorphic_series(coset, funddom, 6, window=_small_window(Z0_ABC))


@pytest.mark.parametrize("safety", [0, -1, 0.5, 0.99])
def test_safety_below_one_is_rejected(funddom, seed_dodec, safety):
    # a window below the float kappa, 1% below it included, falls short of
    # the vertex planes' lambda_max: the exact proof rejects it, for an
    # N-gon and for a dodecahedron
    for walls, series, nmax in ((funddom, holomorphic_series, 6),
                                (seed_dodec, dodec_series, 3)):
        coset = LatticeCoset(walls.space)
        low = window_at_safety(certify_window(walls, None, nmax), safety)
        with pytest.raises(CertificationError, match="not proved"):
            series(coset, walls, nmax, window=low)


def test_vertex_planes_built_once(monkeypatch, seed_dodec):
    # every plane is built in a negative_planes batch: funddom's
    # modularity_check builds one batch of its 4 vertex planes and the
    # one-plane batch of its base plane, and a second dodec_series on the
    # same DodecData builds nothing (vertex planes cached, z0 among them)
    from ngontheta import ngon, qspace
    batches = []
    build = qspace.negative_planes

    def counted(space, cs, tuples):
        batches.append(len(tuples))
        return build(space, cs, tuples)

    for mod in (qspace, ngon):
        monkeypatch.setattr(mod, "negative_planes", counted)
    modularity_check(SPACE_ABC, fundamental_ngon(2), complex(0.1, 0.95), 4)
    assert batches == [4, 1]        # the vertex planes, then the base plane
    dodec = validate_dodec(seed_dodec.space, seed_dodec.cs)
    coset = LatticeCoset(dodec.space)
    dodec_series(coset, dodec, 2)
    assert batches[2:] == [20]
    batches.clear()
    dodec_series(coset, dodec, 2)
    assert not batches


def _cell(name, funddom, seed_dodec):
    if name == "padded":
        return _split_ngon(funddom, np.eye(4, dtype=int).tolist())
    return {"funddom": funddom, "butterfly": butterfly_ngon(),
            "product": _product_4gon(), "dodec": seed_dodec}[name]


@pytest.mark.parametrize("name", ["funddom", "butterfly", "product", "padded",
                                  "dodec"])
def test_negative_planes_batch(name, funddom, seed_dodec):
    # one batch builds every vertex plane: each is orthonormal w.r.t. the
    # negated form, and its frame is the frame of the same plane built
    # alone
    walls = _cell(name, funddom, seed_dodec)
    space, tuples = walls.space, walls.vertices.tolist()
    q = len(tuples[0])
    planes = negative_planes(space, walls.cs, tuples)
    assert [pl.span for pl in planes] == \
        [pl.span for pl in walls.vertex_planes]
    for t, pl in zip(tuples, planes, strict=True):
        assert pl.span == tuple(walls.cs[a] for a in t)
        u = pl.ortho
        assert np.max(np.abs(u @ space.gram_f @ u.T + np.eye(q))) <= 1e-12
        alone = NegativePlane(space, pl.span)
        for got, want in zip(pl.frame, alone.frame, strict=True):
            assert np.max(np.abs(got - want)) <= 1e-15
    # a span that is not negative definite: NegativePlane rejects it
    # exactly, and in a batch the float guards void the whole batch; a
    # repeated vector's Gram is singular, funddom's [C_0, C_2] (walls that
    # meet at infinity) too, and its [C_1, C_3] is indefinite
    bads = [[0] * q] + ([[0, 2], [1, 3]] if name == "funddom" else [])
    for bad in bads:
        with pytest.raises(DegeneratePlaneError,
                           match="not negative definite"):
            NegativePlane(space, [walls.cs[a] for a in bad])
        with pytest.raises(DegeneratePlaneError,
                           match="orthonormalization pivot failure"):
            negative_planes(space, walls.cs, tuples[:1] + [bad] + tuples[1:])


def _drawn_cell(kind, data, funddom, space_q3):
    """A cell drawn for test_validated_cells_have_negative_vertex_spans:
    a polygon recovered from 3 to 8 upper-half-plane points with distinct
    x (reversed when they turn clockwise), the (2,2) product 4-gon with at
    most one wall moved, funddom padded into SPACE_ABC + <2> and tilted by
    C_j + t_j e_4, or a seed dodecahedron with random t and at most three
    walls moved.  ValueError when recovery or validation refuses the
    draw."""
    if kind == "recovered":
        coord = st.fractions(-2, 2, max_denominator=3)
        height = st.fractions(Fraction(1, 3), 3, max_denominator=3)
        zs = data.draw(st.lists(st.tuples(coord, height), min_size=3,
                                max_size=8, unique_by=lambda z: z[0]))
        try:
            return recover_ngon(zs)
        except OrientationError:
            return recover_ngon(zs[::-1])
    if kind == "padded":
        ts = data.draw(st.lists(st.fractions(-Fraction(1, 2), Fraction(1, 2),
                                             max_denominator=8),
                                min_size=4, max_size=4))
        return validate(QuadraticSpace(SPLIT_GRAM),
                        [tuple(c) + (t,) for c, t in zip(funddom.cs, ts)])
    if kind == "product":
        product = _product_4gon()
        space, cs, walls = product.space, list(product.cs), 1
    else:
        space, walls = space_q3, 3
        cs = list(seed_construction(
            space, ((0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1)), (1, 0, 0, 0),
            data.draw(st.lists(st.fractions(0, 1, max_denominator=60),
                               min_size=12, max_size=12))))
    scale = data.draw(st.sampled_from([Fraction(1, 100), Fraction(1, 10),
                                       Fraction(1, 3)]))
    for _ in range(data.draw(st.integers(0, walls))):
        j = data.draw(st.integers(0, len(cs) - 1))
        delta = data.draw(st.tuples(*[st.fractions(
            -1, 1, max_denominator=4)] * space.dim))
        cs[j] = vec_add(cs[j], vec_scale(scale, delta))
    return (validate if kind == "product" else validate_dodec)(space, cs)


@pytest.mark.parametrize("kind", ["recovered", "product", "padded", "dodec"])
def test_validated_cells_have_negative_vertex_spans(kind, funddom, space_q3):
    # validation proves what negative_planes assumes: every vertex span of
    # a validated cell is negative definite by the rational oracle (and the
    # batch's float guards pass), on at least 100 distinct cells of a kind
    cells = set()

    @settings(max_examples={"recovered": 150, "product": 150, "padded": 150,
                            "dodec": 120}[kind],
              deadline=None, derandomize=True)
    @given(st.data())
    def check(data):
        try:
            cell = _drawn_cell(kind, data, funddom, space_q3)
        except ValueError:
            return
        cells.add(cell.cs)
        for t in cell.vertices.tolist():
            assert negative_definite_vec(cell.space.gram,
                                         [cell.cs[a] for a in t])
        assert len(cell.vertex_planes) == len(cell.vertices)

    check()
    assert len(cells) >= 100


@pytest.mark.parametrize("kind", ["recovered", "product", "padded", "dodec"])
def test_window_proof_matches_majorant_oracle(kind, funddom, space_q3):
    # on both sides of the float kappa, at B = kappa_f (1 -+ 1e-7) 2 nmax,
    # the q x q proof agrees with the m x m majorant oracle of
    # tests/conftest.py, refusing below and passing above, about the first
    # vertex plane and about minimax_plane; above, the guard-band oracle
    # finds no kernel-supported x with 0 < Q <= nmax between B and 2B
    cells = set()

    @settings(max_examples={"recovered": 100, "product": 120,
                            "padded": 120, "dodec": 80}[kind],
              deadline=None, derandomize=True)
    @given(st.data())
    def check(data):
        try:
            cell = _drawn_cell(kind, data, funddom, space_q3)
        except ValueError:
            return
        cells.add(cell.cs)
        planes = cell.vertex_planes
        z0 = planes[0] if data.draw(st.booleans(), label="first") \
            else minimax_plane(planes)
        nmax = Fraction(data.draw(st.integers(
            1, 8 if kind == "recovered" else 2), label="nmax"))
        kf = float(np.max(_kappas(_majorants([z0])[0], _majorants(planes))))
        for f, proved in ((1 - 1e-7, False), (1 + 1e-7, True)):
            window = EnumWindow(z0, Fraction(kf * f) * 2 * nmax, kf * f)
            assert window_proof_oracle(cell, z0, window.B, nmax) == proved
            try:
                _prove_window(window, cell, nmax)
            except CertificationError:
                assert not proved
            else:
                assert proved
        reps = disc_group(cell.space)
        mu = reps[data.draw(st.integers(0, len(reps) - 1), label="coset")]
        assert guard_band_hits(cell, LatticeCoset(cell.space, mu), window,
                               nmax) == []

    check()
    assert len(cells) >= 50


def test_frames_built_once_and_stack_plane_frames(monkeypatch, seed_dodec):
    # _Walls.frames is built once per collection, by whichever of E2, E3,
    # j0 and the completion reads it first, and stacks the vertex planes'
    # NegativePlane.frame, which equals its defining products
    from ngontheta.dodec import dodec_E_kernel
    from ngontheta.ngon import _Walls, validate
    built = []
    prop = _Walls.__dict__["frames"]

    def counted(self):
        built.append(self)
        return prop.func(self)

    counting = cached_property(counted)
    counting.__set_name__(_Walls, "frames")
    monkeypatch.setattr(_Walls, "frames", counting)
    ngon = validate(SPACE_ABC, fundamental_ngon(2).cs)
    dodec = validate_dodec(seed_dodec.space, seed_dodec.cs)
    tau = complex(0.1, 0.95)
    modularity_check(SPACE_ABC, ngon, tau, 2)
    completion_eval(LatticeCoset(SPACE_ABC), ngon, tau, 2)
    j0_value(ngon, (1, 0, 2))
    for x in ((1, 0, 0, 0), (Fraction(1, 2), 1, 0, 0)):
        dodec_E_kernel(dodec, x)
    assert built == [ngon, dodec]
    for walls in (ngon, dodec):
        space = walls.space
        gf = space.gram_f
        a, m, normals = walls.frames
        for pl, ap, mp in zip(walls.vertex_planes, a, m, strict=True):
            assert pl.frame[0] is pl.frame[0]
            assert np.array_equal(ap, pl.frame[0])
            assert np.array_equal(mp, pl.frame[1])
            assert np.array_equal(mp, -(pl.ortho @ gf))
            assert np.array_equal(ap, [pl.ortho @ gf @ [float(v) for v in c]
                                       for c in pl.span])
        assert np.array_equal(normals, np.array(
            [space.unit_negative(c) for c in walls.cs]) @ gf)


def test_mismatched_spaces_are_rejected(seed_dodec, monkeypatch):
    """A coset and a wall collection from different spaces raise before any
    window is certified or used, a window passed in included."""
    msg = "coset and wall collection live in different spaces"
    ngon = fundamental_ngon(2)
    window = certify_window(ngon, None, 6)
    sp4 = QuadraticSpace([[4, 0, 0, 0], [0, -2, 0, 0], [0, 0, -2, 0],
                          [0, 0, 0, -2]])

    def unused(*args, **kwargs):
        raise AssertionError("a window was certified or enumerated")

    monkeypatch.setattr(lattice, "certify_window", unused)
    monkeypatch.setattr(lattice, "enumerate_coset", unused)
    monkeypatch.setattr(lattice, "enumerate_cosets", unused)
    tau = 0.1 + 0.95j
    coset = LatticeCoset(SPACE_E)
    for call in (lambda: holomorphic_series(coset, ngon, 6),
                 lambda: holomorphic_series(coset, ngon, 6, window=window),
                 lambda: completion_eval(coset, ngon, tau, 4),
                 lambda: completion_eval(coset, ngon, tau, 4, window=window),
                 lambda: modularity_check(SPACE_E, ngon, tau, 4),
                 lambda: dodec_series(LatticeCoset(sp4), seed_dodec, 4)):
        with pytest.raises(ValueError, match=msg):
            call()


@pytest.mark.parametrize("kind", ["abc", "q3", "product", "dodec"])
def test_plane_majorant_matches_fraction_majorant(kind, funddom, space_q3):
    # NegativePlane.majorant is the Fraction majorant of tests/conftest.py
    # as the integers _majorant_leq formed from it (over the lcm of its
    # denominators), and each entry mi/dm, an int / int, is float(Fraction):
    # on planes of SPACE_ABC, negative 3-spaces of signature (1,3), the
    # (2,2) product's vertex planes and re-seeded dodecahedra's
    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(st.data())
    def check(data):
        if kind == "abc":
            p, q1, q2 = (point_to_vector(data.draw(uhp)) for _ in range(3))
            try:
                planes = [NegativePlane(SPACE_ABC, (cross(p, q1),
                                                    cross(p, q2)))]
            except ValueError:          # p, q1, q2 on one geodesic
                return
        elif kind == "q3":
            t = [data.draw(st.fractions(Fraction(-9, 16), Fraction(9, 16),
                                        max_denominator=16)) for _ in range(3)]
            planes = [NegativePlane(space_q3, [
                [t[i]] + [int(j == i) for j in range(3)] for i in range(3)])]
        else:
            try:
                planes = _drawn_cell(kind, data, funddom,
                                     space_q3).vertex_planes
            except ValueError:
                return
        for plane in planes:
            mat = majorant_matrix(plane.space, plane.span)
            mi, dm = plane.majorant
            assert (mi, dm) == int_majorant(mat) and dm > 0
            assert {type(v) for row in mi for v in row} | {type(dm)} == {int}
            assert [[v / dm for v in row] for row in mi] \
                == [[float(v) for v in row] for row in mat]

    check()


def test_plane_core_is_its_one_charpoly(monkeypatch, funddom):
    # a plane runs _charpoly once, for its cached core: its window proof
    # (whose one _charpoly stack is over the vertex planes' X_j) and its
    # enumeration read that core and add no call for it; two class series
    # about a fresh Z0_ABC build its core and its majorant once
    from ngontheta import sig12
    charpoly = qspace._charpoly
    calls = {"plane": 0, "proof": 0}
    built = {"core": [], "majorant": []}

    def counting(key):
        def counted(a):
            calls[key] += 1
            return charpoly(a)
        return counted

    for name in built:
        prop = NegativePlane.__dict__[name]

        def record(self, name=name, func=prop.func):
            built[name].append(self)
            return func(self)

        counted_prop = cached_property(record)
        counted_prop.__set_name__(NegativePlane, name)
        monkeypatch.setattr(NegativePlane, name, counted_prop)
    monkeypatch.setattr(qspace, "_charpoly", counting("plane"))
    monkeypatch.setattr(lattice, "_charpoly", counting("proof"))
    z0 = NegativePlane(SPACE_ABC, (E2_ABC, E3_ABC))
    assert calls == {"plane": 1, "proof": 0} and built["core"] == [z0]
    window = certify_window(funddom, z0, 6)
    coset = LatticeCoset(SPACE_ABC)
    qe = holomorphic_series(coset, funddom, 6, window=window)
    assert calls == {"plane": 1, "proof": 1}
    assert len(enumerate_coset(coset, window)) > len(qe.exps)
    assert calls == {"plane": 1, "proof": 1}
    assert built == {"core": [z0], "majorant": [z0]}
    fresh = NegativePlane(SPACE_ABC, (E2_ABC, E3_ABC))
    monkeypatch.setattr(sig12, "Z0_ABC", fresh)
    first, second = (truncated_class_series(2, 6) for _ in range(2))
    assert calls == {"plane": 2, "proof": 3}
    assert built == {"core": [z0, fresh], "majorant": [z0, fresh]}
    assert first.entries == second.entries == holomorphic_series(
        coset, funddom, 6, window=window, normalized=True).entries


def _disc_group_fraction_sort(space):
    """disc_group as it sorted before: the closure of 0 under the columns of
    d G^{-1} (by mat_inv), each row made a Fraction tuple, then sorted."""
    gi = [[int(v) for v in row] for row in space.gram]
    d = abs(int(mat_det(gi)))
    gens = [tuple(int(v * d) % d for v in col) for col in zip(*mat_inv(gi))]
    seen, todo = {(0,) * space.dim}, [(0,) * space.dim]
    while todo:
        x = todo.pop()
        for y in (tuple((a + b) % d for a, b in zip(x, g)) for g in gens):
            if y not in seen:
                seen.add(y)
                todo.append(y)
    return sorted(tuple(Fraction(v, d) for v in row) for row in seen)


# lattice Grams of the discriminant-group and space-core tests, diagonal
# and non-diagonal, with |D| from 8 to 2,048
DISC_GRAMS = [SPACE_ABC.gram, SPACE_E.gram, SPLIT_GRAM,
              [[2, 1, 0], [1, -2, 1], [0, 1, -4]],
              [[4, 1, 0, 0], [1, -6, 2, 0], [0, 2, -8, 1], [0, 0, 1, 10]],
              [[2, 0, 0, 0], [0, -16, 0, 0], [0, 0, -8, 0], [0, 0, 0, 8]]]


def test_disc_group_matches_fraction_sort():
    # sorting the integer rows d mu mod d and building each value's Fraction
    # once gives the list, the order and the types that sorting Fraction
    # tuples gave, on diagonal and non-diagonal Grams up to |D| = 2,048,
    # beyond the reach of the index construction above
    spaces = [QuadraticSpace(g) for g in DISC_GRAMS]
    assert max(len(disc_group(s)) for s in spaces) == 2048
    for space in spaces:
        got = disc_group(space)
        assert got == _disc_group_fraction_sort(space), space.gram
        assert {type(v) for mu in got for v in mu} == {Fraction}


def test_space_core_is_its_one_charpoly(monkeypatch):
    # a QuadraticSpace runs _charpoly once, at construction, for its core
    # (c, det, adj) with det = (-1)^m c_m, which its signature and
    # weil_matrices' discriminant group read; weil_matrices adds no call
    charpoly = qspace._charpoly
    calls = []

    def counted(a):
        calls.append(a)
        return charpoly(a)

    monkeypatch.setattr(qspace, "_charpoly", counted)
    monkeypatch.setattr(lattice, "_charpoly", counted)
    for gram in DISC_GRAMS:
        calls.clear()
        space = QuadraticSpace(gram)
        reps = weil_matrices(space)[0]
        assert calls == [space._gi]
        c, adj = charpoly(space._gi)
        assert space.core == (c, (-1) ** space.dim * c[-1], adj)
        assert space.core[1] == mat_det(gram) and abs(space.core[1]) \
            == len(reps)


def _parity_cell(name, funddom, seed_dodec, space_q3):
    if name == "reseeded":
        ts = [Fraction(7 * a % 12 - 5, 400) for a in range(12)]
        return validate_dodec(space_q3, seed_construction(
            space_q3, ((0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1)),
            (1, 0, 0, 0), ts))
    if name == "padded":
        return _split_ngon(funddom, np.eye(4, dtype=int).tolist())
    return {"funddom": funddom, "product": _product_4gon(),
            "tilted": _tilted_polygon(funddom), "dodec": seed_dodec}[name]


class _Recorded(Exception):
    pass


@pytest.mark.parametrize("name", ["funddom", "product", "padded", "tilted",
                                  "dodec", "reseeded"])
def test_cell_parity_is_stated_once(name, funddom, seed_dodec, space_q3,
                                    monkeypatch):
    # walls.even is the rule "an even number of signs per vertex and no
    # nonzero face weight": true for every N-gon, false for a dodecahedron
    # (3 signs per vertex, face weights -1 and 3); the series, completion
    # and modularity drivers hand enumerate_cosets the cell's even, flipped
    # or not
    walls = _parity_cell(name, funddom, seed_dodec, space_q3)
    assert walls.even is (walls.vertices.shape[1] % 2 == 0
                          and not any(walls.face_w))
    assert walls.even is (name not in ("dodec", "reseeded"))
    coset = LatticeCoset(walls.space)
    drivers = [lambda: dodec_series(coset, walls, 2)] if not walls.even else [
        lambda: holomorphic_series(coset, walls, 2),
        lambda: completion_eval(coset, walls, complex(0.1, 1.0), 2),
        lambda: modularity_check(walls.space, walls, complex(0.1, 1.0), 2)]
    seen = []

    def record(space, mus, window, qmax=None, even=False):
        seen.append(even)
        raise _Recorded

    monkeypatch.setattr(lattice, "enumerate_cosets", record)
    for even in (walls.even, not walls.even):
        monkeypatch.setattr(walls, "even", even)
        for driver in drivers:
            seen.clear()
            with pytest.raises(_Recorded):
                driver()
            assert seen == [even]
