import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from ngontheta.qspace import NegativePlane
from ngontheta.errfn import E2
from ngontheta.lattice import (LatticeCoset, disc_group, majorant_matrix,
                               EnumWindow, window_from_planes, certify_window,
                               enumerate_coset, QExpansion, _XBatch,
                               holomorphic_series, completion_eval,
                               modularity_check, weil_matrices, weil_sanity,
                               _CompletionKernel, CertificationError,
                               _majorant_leq)
from ngontheta.ngon import w_invariant
from ngontheta.sig12 import (SPACE_ABC, SPACE_E, E2_ABC, E3_ABC,
                             fundamental_ngon, reduced_forms,
                             truncated_class_series)

Z0_E = ((0, 1, 0), (0, 0, 1))


def test_disc_group_sizes(space_e, space_abc):
    assert len(disc_group(space_e)) == 8
    assert len(disc_group(space_abc)) == 32


def test_disc_group_entries_are_dual(space_e):
    for mu in disc_group(space_e):
        LatticeCoset(space_e, mu)  # does not raise
        assert all(0 <= c < 1 for c in mu)


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
        exact, _ = space_abc.majorant_exact(x, span)
        assert quad == exact


def test_enumeration_small_ball(space_e):
    # (x,x)_{z0} = 2|x|^2 on the diagonal lattice: B = 2 gives exactly the
    # origin and the six unit vectors
    window = EnumWindow(z0=NegativePlane(space_e, Z0_E), B=Fraction(2),
                        kappa=1.0, safety=1.0, nmax=Fraction(1))
    ks = enumerate_coset(LatticeCoset(space_e), window)
    got = sorted(tuple(int(v) for v in row) for row in ks)
    want = sorted([(0, 0, 0), (1, 0, 0), (-1, 0, 0), (0, 1, 0), (0, -1, 0),
                   (0, 0, 1), (0, 0, -1)])
    assert got == want
    # B = 4 additionally admits the twelve two-coordinate vectors
    window.B = Fraction(4)
    ks = enumerate_coset(LatticeCoset(space_e), window)
    assert len(ks) == 19


def test_enumeration_shifted_coset(space_e):
    window = EnumWindow(z0=NegativePlane(space_e, Z0_E), B=Fraction(1, 2),
                        kappa=1.0, safety=1.0, nmax=Fraction(1))
    ks = enumerate_coset(LatticeCoset(space_e, (Fraction(1, 2), 0, 0)), window)
    got = sorted(tuple(int(v) for v in row) for row in ks)
    assert got == [(-1, 0, 0), (0, 0, 0)]   # x = k + mu = (-1/2,0,0), (1/2,0,0)


def test_window_scales_with_nmax(funddom):
    w1 = certify_window(SPACE_ABC, funddom, (E2_ABC, E3_ABC), 5)
    w2 = certify_window(SPACE_ABC, funddom, (E2_ABC, E3_ABC), 10)
    assert w2.B >= 2 * w1.B * Fraction(63, 64)
    assert w1.kappa == w2.kappa


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
    window = certify_window(SPACE_ABC, funddom, (E2_ABC, E3_ABC), 2)
    batch = _XBatch(LatticeCoset(SPACE_ABC), window)
    kern = _CompletionKernel(SPACE_ABC, funddom)
    v = 0.37
    got = kern.eval_batch(batch, v)
    w = w_invariant(funddom)
    n = funddom.n
    rows = [i for i in range(len(batch.xf)) if batch.inside[i]][:25]
    for i in rows:
        q = float(batch.xx_num[i]) / batch.den2 / 2.0
        amp = min(2.0 * math.pi * v * max(0.0, -q), 600.0)
        xs = batch.xf[i] * math.sqrt(2.0 * v)
        brute = w + sum(E2(SPACE_ABC, funddom.cs[j],
                           funddom.cs[(j + 1) % n], xs) for j in range(n))
        assert abs(got[i] - brute * math.exp(amp)) < 1e-9 * math.exp(amp), i


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
    ks = np.array(rows, dtype=np.int64)
    got = _majorant_leq(ks, mu, mat, bound)
    assert got.dtype == bool
    assert list(got) == [qform(k) <= bound for k in rows]
