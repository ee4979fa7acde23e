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
                              _over_lcm, _row_norms, vec)
from ngontheta.errfn import E2
from ngontheta.lattice import (LatticeCoset, disc_group, majorant_matrix,
                               EnumWindow, window_from_planes, certify_window,
                               enumerate_coset, QExpansion, GUARD,
                               holomorphic_series, completion_eval,
                               modularity_check, weil_matrices, weil_sanity,
                               negation_index, _CompletionKernel,
                               CertificationError, _majorant_leq)
from ngontheta import lattice
from ngontheta.dodec import (dodec_series, dodec_D_kernel,
                             default_negative_vector, seed_construction,
                             validate_dodec)
from ngontheta.ngon import w_invariant, vertex_plane, gamma_sample
from ngontheta.sig12 import (SPACE_ABC, SPACE_E, E2_ABC, E3_ABC,
                             fundamental_ngon, reduced_forms,
                             truncated_class_series, butterfly_ngon,
                             recover_ngon, cross, point_to_vector)

from conftest import majorant_exact, mat_det, mat_inv

Z0_E = ((0, 1, 0), (0, 0, 1))


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
    span = ((0, 1, 0), (Fraction(1, 2), 0, Fraction(-1, 2)))
    m = majorant_matrix(space_abc, span)
    import random
    rng = random.Random(21)
    for _ in range(20):
        x = tuple(Fraction(rng.randint(-9, 9), rng.randint(1, 3))
                  for _ in range(3))
        quad = sum(x[i] * m[i][j] * x[j] for i in range(3) for j in range(3))
        exact, _ = majorant_exact(space_abc, x, span)
        assert quad == exact


def test_enumeration_small_ball(space_e):
    # (x,x)_{z0} = 2|x|^2 on the diagonal lattice: B = 2 gives exactly the
    # origin and the six unit vectors
    window = EnumWindow(z0=NegativePlane(space_e, Z0_E), B=Fraction(2),
                        kappa=1.0, safety=1.0, nmax=Fraction(1))
    ks = enumerate_coset(LatticeCoset(space_e), window).ks
    got = sorted(tuple(int(v) for v in row) for row in ks)
    want = sorted([(0, 0, 0), (1, 0, 0), (-1, 0, 0), (0, 1, 0), (0, -1, 0),
                   (0, 0, 1), (0, 0, -1)])
    assert got == want
    # B = 4 additionally admits the twelve two-coordinate vectors
    window.B = Fraction(4)
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
                        kappa=1.0, safety=1.0, nmax=Fraction(1))
    ks = enumerate_coset(LatticeCoset(space_e, (Fraction(1, 2), 0, 0)),
                         window).ks
    got = sorted(tuple(int(v) for v in row) for row in ks)
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
    return arr[_majorant_leq(arr * dmu + munum, dmu, m_exact, bound)[0]]


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
    # majorant and B of the window; it enumerates up to slack * B = bound
    # and splits the rows at B
    rows = enumerate_coset(
        SimpleNamespace(mu=mu, space=QuadraticSpace(
            [[int(i == j) for j in range(m)] for i in range(m)])),
        SimpleNamespace(majorant=mat, B=bound / 2), slack=Fraction(2))
    got = rows.ks
    want = _fp_enumerate_recursive(mat, mu, bound)
    assert got.dtype == want.dtype == np.int64
    assert got.shape == want.shape and got.shape[1] == m
    assert np.array_equal(got, want)
    assert rows.inside.tolist() == [qform(k) <= bound / 2
                                    for k in got.tolist()]
    if how == "row":
        assert len(got)


def _band_bases():
    """(space, z0 span, sign of G_00) of SPACE_E (G_00 = 2), SPACE_E with its
    first two coordinates swapped (-2), SPACE_ABC (0), and two seeded random
    unimodular changes of basis of each."""
    rng = random.Random(16)
    out = []
    for space, span in ((SPACE_E, Z0_E), (SPACE_ABC, (E2_ABC, E3_ABC))):
        changes = [[[1, 0, 0], [0, 1, 0], [0, 0, 1]]]
        if space is SPACE_E:
            changes.append([[0, 1, 0], [1, 0, 0], [0, 0, 1]])
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
                        (g[0][0] > 0) - (g[0][0] < 0)))
    return out


def test_band_enumeration_matches_filtered_full_enumeration():
    # the band batch of enumerate_coset(..., qmax) must hold exactly the rows
    # of the full batch with 0 <= Q(x) <= qmax, in the same order, with the
    # same window split and norms; isotropic rows of cosets mu != 0 and
    # rows on Q = qmax test both edges of the band
    signs, on_zero, on_top = set(), 0, 0
    band_rows = full_rows = raw_rows = 0
    for space, span, sign in _band_bases():
        signs.add(sign)
        window = EnumWindow(z0=NegativePlane(space, span), B=Fraction(40),
                            kappa=1.0, safety=1.0, nmax=Fraction(1))
        reps = disc_group(space)
        for mu in reps[:6] + [tuple(c + 2 for c in reps[-1])]:
            coset = LatticeCoset(space, mu)
            full = enumerate_coset(coset, window, GUARD)
            qs = [Fraction(int(v), 2 * full.dmu ** 2) for v in full.xx_num]
            pos = sorted(q for q in qs if q > 0)
            for qmax in (Fraction(0), pos[len(pos) // 3], pos[-1]):
                keep = np.array([0 <= q <= qmax for q in qs], dtype=bool)
                band = enumerate_coset(coset, window, GUARD, qmax=qmax)
                raw_rows += len(lattice._fp_enumerate(
                    window.majorant, mu, window.B * GUARD,
                    (space.gram_f, float(qmax))))
                assert np.array_equal(band.xnum, full.xnum[keep])
                assert np.array_equal(band.inside, full.inside[keep])
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
    w1 = certify_window(SPACE_ABC, funddom, (E2_ABC, E3_ABC), 5)
    w2 = certify_window(SPACE_ABC, funddom, (E2_ABC, E3_ABC), 10)
    assert w2.B >= 2 * w1.B * Fraction(63, 64)
    assert w1.kappa == w2.kappa


def _edge_kappa(space, ngon, z0_span, samples=64):
    """Oracle: the float kappa over `samples` interior planes per boundary
    edge, [C_j, (s-1) C_{j-1} + s C_{j+1}], s = i/(samples+1)."""
    planes = [gamma_sample(ngon, j, Fraction(i, samples + 1))
              for j in range(1, ngon.n + 1) for i in range(1, samples + 1)]
    return window_from_planes(space, z0_span, planes, 1, safety=1.0).kappa


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
        z0_span = vertex_plane(ngon, j).span
    else:
        # x(p)^perp is a negative plane; cross(x(p), x(q)) lies in it
        p, q1, q2 = (point_to_vector(data.draw(uhp)) for _ in range(3))
        z0_span = (cross(p, q1), cross(p, q2))
        try:
            NegativePlane(SPACE_ABC, z0_span)
        except ValueError:          # p, q1, q2 on one geodesic
            assume(False)
    vertex = certify_window(SPACE_ABC, ngon, z0_span, 1, safety=1.0).kappa
    edge = _edge_kappa(SPACE_ABC, ngon, z0_span)
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


def test_series_safety_invariance():
    s1 = truncated_class_series(2, 15, safety=1.5)
    s2 = truncated_class_series(2, 15, safety=3.0)
    assert s1.entries == s2.entries
    assert s1.flags == s2.flags


def test_series_normalization(funddom):
    coset = LatticeCoset(SPACE_ABC)
    window = certify_window(SPACE_ABC, funddom, (E2_ABC, E3_ABC), 10)
    raw = holomorphic_series(coset, funddom, 10, window=window)
    norm = holomorphic_series(coset, funddom, 10, window=window,
                              normalized=True)
    for n, c in raw.entries.items():
        assert norm.entries[n] * 4 == c
    assert raw.coeff(8) == 8 and norm.coeff(8) == 2


def test_completion_kernel_matches_e2_sum(funddom):
    # eval_batches returns each row's term at its final weight:
    # (w + sum_j E2) * e^{amp} with amp = -2 pi v Q, capped at 600
    window = certify_window(SPACE_ABC, funddom, (E2_ABC, E3_ABC), 2)
    batch = enumerate_coset(LatticeCoset(SPACE_ABC), window, GUARD)
    kern = _CompletionKernel(funddom)
    v = 0.37
    got = kern.eval_batches([batch], v)[0]
    w = w_invariant(funddom)
    n = funddom.n
    rows = [i for i in range(len(batch.xf)) if batch.inside[i]][:25]
    for i in rows:
        q = float(batch.xx_num[i]) / batch.dmu ** 2 / 2.0
        amp = min(-2.0 * math.pi * v * q, 600.0)
        xs = batch.xf[i] * math.sqrt(2.0 * v)
        brute = w + sum(E2(SPACE_ABC, funddom.cs[j],
                           funddom.cs[(j + 1) % n], xs) for j in range(n))
        assert abs(got[i] - brute * math.exp(amp)) < 1e-9 * math.exp(amp), i


@pytest.fixture(scope="module")
def funddom_batches(funddom):
    window = certify_window(SPACE_ABC, funddom, (E2_ABC, E3_ABC), 4)
    return [enumerate_coset(LatticeCoset(SPACE_ABC, mu), window, GUARD)
            for mu in disc_group(SPACE_ABC)]


@pytest.mark.parametrize("pair_block", [lattice.PAIR_BLOCK, 300])
def test_eval_batches_matches_per_coset(funddom, funddom_batches, monkeypatch,
                                        pair_block):
    # pooling the rho pairs of all 32 cosets changes no bit of any value;
    # a small PAIR_BLOCK puts pool boundaries between many cosets
    monkeypatch.setattr(lattice, "PAIR_BLOCK", pair_block)
    kern = _CompletionKernel(funddom, w_offset=4)
    for v in (0.37, 1.3):
        pooled = kern.eval_batches(funddom_batches, v)
        assert len(pooled) == len(funddom_batches)
        for batch, got in zip(funddom_batches, pooled):
            want = kern.eval_batches([batch], v)[0]
            assert got.shape == want.shape == (len(batch.inside),)
            assert np.array_equal(got, want)


def test_eval_batches_guard_rows_are_zero(funddom, funddom_batches):
    kern = _CompletionKernel(funddom)
    for batch, got in zip(funddom_batches,
                          kern.eval_batches(funddom_batches, 0.8)):
        assert np.any(~batch.inside) and np.any(got[batch.inside] != 0)
        assert np.all(got[~batch.inside] == 0)


def test_row_screen_skips_only_bounded_rows(funddom, funddom_batches):
    # a window row is skipped exactly when (|w| + |w_offset| + N) e^{amp},
    # a bound on its completed term, is below e^{RHO_LOG_TOL}; a skipped row
    # gets 0, and every other window row keeps the value it has when no row
    # is skipped
    kern = _CompletionKernel(funddom, w_offset=-3)
    full = _CompletionKernel(funddom, w_offset=-3)
    full.log_bound = math.inf                  # skips no row
    bound = abs(w_invariant(funddom)) + 3 + funddom.n
    skipped = 0
    for v in (0.37, 1.3):
        got = kern.eval_batches(funddom_batches, v)
        want = full.eval_batches(funddom_batches, v)
        for batch, g, f in zip(funddom_batches, got, want):
            live = np.zeros(len(batch), dtype=bool)
            live[kern._row_terms(batch, v, math.sqrt(2.0 * v))[0]] = True
            amp = np.minimum(-2.0 * math.pi * v * batch.qf, lattice.AMP_CAP)
            small = bound * np.exp(amp) < math.exp(lattice.RHO_LOG_TOL)
            assert np.array_equal(live, batch.inside & ~small)
            skip = batch.inside & small
            skipped += np.count_nonzero(skip)
            assert np.all(g[skip] == 0)
            assert np.all(np.abs(f[skip]) <= bound * np.exp(amp[skip]))
            assert np.array_equal(g[live], f[live])
    assert skipped > 0


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


@pytest.fixture(scope="module")
def coset_completions(funddom):
    """completion_eval of each funddom coset at nmax 6, per tau of
    PARITY_TAUS, in disc_group order."""
    reps = disc_group(SPACE_ABC)
    window = certify_window(SPACE_ABC, funddom, None, 6)
    return reps, {tau: np.array([
        completion_eval(LatticeCoset(SPACE_ABC, mu), funddom, tau, 6,
                        window=window)[0] for mu in reps])
        for tau in PARITY_TAUS}


def test_completion_parity_under_negation(coset_completions):
    # the completion kernel is even, so theta_{-mu} = theta_mu
    reps, vals = coset_completions
    neg = negation_index(reps)
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


def test_completion_approaches_holomorphic_part(funddom):
    # as v grows the completion tends to the holomorphic series plus the
    # v-independent x = 0 term (the Gaussian wall masses at the origin)
    coset = LatticeCoset(SPACE_ABC)
    nmax = 6
    window = certify_window(SPACE_ABC, funddom, (E2_ABC, E3_ABC), nmax)
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
        uni, comp = weil_sanity(sp)
        assert uni < 1e-12
        assert comp < 1e-12
        assert weil_sanity(sp, weil_matrices(sp)) == (uni, comp)


def test_weil_t_matrix(space_e):
    reps, tdiag, _ = weil_matrices(space_e)
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
    window = certify_window(SPACE_ABC, funddom, (E2_ABC, E3_ABC), 8)
    tau = complex(0.21, 0.9)
    vals = []
    for nt in ("1", "2", "8"):
        monkeypatch.setenv("NGON_THETA_THREADS", nt)
        val, _ = completion_eval(coset, funddom, tau, 8, window=window)
        vals.append(val)
    assert vals[0] == vals[1] == vals[2]


def test_qexpansion_coeff_accessor():
    qe = QExpansion(mu=(0, 0, 0), entries={Fraction(3): 4}, nmax=Fraction(5))
    assert qe.coeff(3) == 4
    assert qe.coeff(Fraction(3)) == 4
    assert qe.coeff(2) == 0


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
    got, norms, den = _majorant_leq(xnum, dmu, mat, bound)
    assert got.dtype == bool
    assert list(got) == [qform(k) <= bound for k in rows]
    assert [Fraction(int(q), den) for q in norms] == [qform(k) for k in rows]


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
    """Reference: the per-row Fraction loop that the series driver replaced.
    Returns (entries, flags, whether the guard band holds a supported x)."""
    regular = np.all(signs != 0, axis=1)
    entries, flags, bad_guard = {}, set(), False
    for i in range(len(num)):
        qx = Fraction(int(batch.xx_num[i]), 2 * batch.dmu ** 2)
        if qx < 0 or qx > nmax:
            continue
        if not batch.inside[i]:
            if num[i] != 0 and batch.xx_num[i] != 0:
                bad_guard = True
            continue
        if not regular[i] and qx > 0:
            flags.add(qx)
        if num[i] != 0:
            entries[qx] = entries.get(qx, 0) + Fraction(int(num[i]), den)
    return dict(sorted(entries.items())), flags, bad_guard


def _eps_num(ngon, signs):
    return w_invariant(ngon) + np.einsum('ij,ij->i', signs,
                                         np.roll(signs, -1, axis=1))


def _p8_num(dodec, signs):
    trip = np.zeros(len(signs), dtype=np.int64)
    for (i, u, v) in dodec.comb.vertices:
        trip += signs[:, i] * signs[:, u] * signs[:, v]
    dv = 8 * dodec_D_kernel(dodec, default_negative_vector(dodec))
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
    batch = enumerate_coset(coset, qe.window, GUARD)
    signs = poly.sign_matrix(batch.xnum)
    entries, flags, bad_guard = _row_loop_series(batch, signs, num(signs),
                                                 den, Fraction(nmax))
    assert not bad_guard and entries
    assert list(qe.entries.items()) == list(entries.items())
    assert [type(c) for c in qe.entries.values()] == \
        [int if den == 1 else Fraction] * len(entries)
    assert qe.flags == flags
    assert qe.normalized == (case == "normalized")
    if cancelled is not None:
        # an exponent whose kernel-supported terms cancel keeps its entry
        assert qe.entries[cancelled] == 0


def _small_window(z0_span, safety):
    # B = 9 about (E2, E3): the eps-supported x = (1, 1, 1) with Q = 3 has
    # (x,x)_{z0} = 10 and falls in the guard band (9, 54/5]
    return EnumWindow(z0=NegativePlane(SPACE_ABC, z0_span), B=Fraction(9),
                      kappa=1.0, safety=safety, nmax=Fraction(6))


@pytest.mark.parametrize("mu", [None, (Fraction(1, 2), 0, 0),
                                (Fraction(1, 4), Fraction(1, 2),
                                 Fraction(1, 4))])
def test_window_split_is_exact(mu):
    # the batch's inside mask is (x,x)_{z0} <= B exactly, with B set to the
    # norm of an enumerated row so that some rows lie on the boundary
    coset = LatticeCoset(SPACE_ABC, mu)
    z0 = NegativePlane(SPACE_ABC, (E2_ABC, E3_ABC))
    window = EnumWindow(z0=z0, B=Fraction(9), kappa=1.0, safety=1.0,
                        nmax=Fraction(1))
    mat = window.majorant

    def norms(batch):
        xs = [[Fraction(int(v), batch.dmu) for v in row] for row in batch.xnum]
        return [sum(x[i] * mat[i][j] * x[j] for i in range(3)
                    for j in range(3)) for x in xs]

    window.B = sorted(norms(enumerate_coset(coset, window, GUARD)))[10]
    batch = enumerate_coset(coset, window, GUARD)
    got = norms(batch)
    assert got.count(window.B) >= 1
    assert batch.inside.dtype == bool
    assert list(batch.inside) == [n <= window.B for n in got]


def test_guard_band_retry_keeps_base_plane(funddom):
    coset = LatticeCoset(SPACE_ABC)
    small = _small_window((E2_ABC, E3_ABC), 1.0)
    batch = enumerate_coset(coset, small, GUARD)
    signs = funddom.sign_matrix(batch.xnum)
    assert _row_loop_series(batch, signs, _eps_num(funddom, signs), 1,
                            Fraction(6))[2]
    qe = holomorphic_series(coset, funddom, 6, window=small)
    want = holomorphic_series(
        coset, funddom, 6,
        window=certify_window(SPACE_ABC, funddom, (E2_ABC, E3_ABC), 6))
    assert qe.entries == want.entries and qe.flags == want.flags
    assert qe.window.z0.span == (E2_ABC, E3_ABC)
    assert qe.window.safety == 2 * small.safety


def test_guard_band_retries_exhausted(funddom, monkeypatch):
    calls = []

    def always_small(space, ngon, z0_span, nmax, safety=1.5):
        calls.append((z0_span, safety))
        return _small_window(z0_span, safety)

    monkeypatch.setattr(lattice, "certify_window", always_small)
    with pytest.raises(CertificationError):
        holomorphic_series(LatticeCoset(SPACE_ABC), funddom, 6,
                           window=_small_window((E2_ABC, E3_ABC), 1.0))
    assert calls == [((E2_ABC, E3_ABC), s) for s in (2.0, 4.0, 8.0)]


@pytest.mark.parametrize("safety", [0, -1, float("nan"), 0.5])
def test_safety_below_one_is_rejected(funddom, seed_dodec, safety):
    # below 1 the window falls short of the proven vertex kappa
    msg = "safety must be a finite number >= 1"
    with pytest.raises(ValueError, match=msg):
        holomorphic_series(LatticeCoset(SPACE_ABC), funddom, 6, safety=safety)
    with pytest.raises(ValueError, match=msg):
        dodec_series(LatticeCoset(seed_dodec.space), seed_dodec, 2,
                     safety=safety)


def test_vertex_planes_built_once(monkeypatch, seed_dodec):
    calls = []
    init = NegativePlane.__init__

    def counted(self, *args):
        calls.append(args)
        init(self, *args)

    monkeypatch.setattr(NegativePlane, "__init__", counted)
    modularity_check(SPACE_ABC, fundamental_ngon(2), complex(0.1, 0.95), 4)
    assert len(calls) == 4          # the 4 vertex planes; z0 is the first
    dodec = validate_dodec(seed_dodec.space, seed_dodec.cs)
    coset = LatticeCoset(dodec.space)
    dodec_series(coset, dodec, 2)
    calls.clear()
    dodec_series(coset, dodec, 2)
    assert not calls                # vertex planes cached, z0 among them


def test_frames_built_once_and_stack_plane_frames(monkeypatch, seed_dodec):
    # _Walls.frames is built once per collection, by whichever of E2, E3,
    # j0 and the completion reads it first, and stacks the vertex planes'
    # NegativePlane.frame, which equals its defining products
    from ngontheta.errfn import j0_value
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
    j0_value(SPACE_ABC, ngon, (1, 0, 2))
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
    window = certify_window(SPACE_ABC, ngon, None, 6)
    sp4 = QuadraticSpace([[4, 0, 0, 0], [0, -2, 0, 0], [0, 0, -2, 0],
                          [0, 0, 0, -2]])

    def unused(*args, **kwargs):
        raise AssertionError("a window was certified or enumerated")

    monkeypatch.setattr(lattice, "certify_window", unused)
    monkeypatch.setattr(lattice, "enumerate_coset", unused)
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
